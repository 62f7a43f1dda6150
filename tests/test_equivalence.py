"""Isomorphisms, naturality, skeletons, and the equivalence decision procedure."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from arrowcat import fixtures as fx
from arrowcat.equivalence import (
    NatTransf,
    are_equivalent,
    brute_force_equivalence,
    find_category_isomorphism,
    identity_nat,
    is_isomorphism,
    is_natural_isomorphism,
    is_skeletal,
    iso_classes,
    skeleton,
    validate_nat,
)
from arrowcat.core import ObjlessCategory
from arrowcat.errors import CapacityError, NameNotFoundError, NotAnIdentityError
from arrowcat.functors import FunctorMap, functor_identity, validate_functor
from arrowcat.generators import gen_random

from conftest import brute_inverses, brute_iso_related

random_categories = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: gen_random(seed, 16)
)


def test_is_isomorphism_identity_and_flip():
    z2 = fx.z2()
    assert is_isomorphism(z2, "e") == "e"
    assert is_isomorphism(z2, "s") == "s"
    assert is_isomorphism(fx.two_chain(), "a") is None


@settings(max_examples=30, deadline=None)
@given(random_categories)
def test_inverses_unique_and_match_bruteforce(cat):
    for f in cat.morphisms:
        inverses = brute_inverses(cat, f)
        assert len(inverses) <= 1
        expected = inverses[0] if inverses else None
        assert is_isomorphism(cat, f) == expected


def test_iso_classes_finset_dup():
    blocks = iso_classes(fx.finset_dup())
    assert sorted(sorted(b) for b in blocks) == [
        ["id_n0"], ["id_n1", "id_n1b"], ["id_n2"],
    ]


def test_iso_classes_discrete_and_walking_iso():
    assert len(iso_classes(fx.discrete(3))) == 3
    assert len(iso_classes(fx.walking_iso())) == 1


@settings(max_examples=30, deadline=None)
@given(random_categories)
def test_iso_classes_is_equivalence_relation(cat):
    blocks = iso_classes(cat)
    # partition property
    members = [i for block in blocks for i in block]
    assert sorted(members) == sorted(cat.identities)
    # blocks agree with the direct reachability oracle
    for block in blocks:
        for a in block:
            for b in block:
                if a != b:
                    assert brute_iso_related(cat, a, b)
    for b1 in blocks:
        for b2 in blocks:
            if b1 != b2:
                for a in b1:
                    for b in b2:
                        assert not brute_iso_related(cat, a, b)


def test_find_category_isomorphism_reflexive():
    tc = fx.two_chain()
    found = find_category_isomorphism(tc, tc)
    assert found is not None
    assert found.mapping == {m: m for m in tc.morphisms}


def test_find_category_isomorphism_relabelling():
    tc = fx.two_chain()
    renamed = fx.chain_category(2, "p")  # p0 <= p1 with arrow p0_le_p1
    found = find_category_isomorphism(tc, renamed)
    assert found is not None
    assert found.mapping["a"] == "p0_le_p1"
    assert validate_functor(found).ok


def test_find_category_isomorphism_distinguishes():
    assert find_category_isomorphism(fx.walking_iso(), fx.one()) is None
    assert find_category_isomorphism(fx.two_chain(), fx.discrete(2)) is None


def test_find_category_isomorphism_capacity():
    fd = fx.finset_dup()
    with pytest.raises(CapacityError):
        find_category_isomorphism(fd, fd, max_morphisms=5)


def test_identity_nat_is_valid():
    for cat in (fx.two_chain(), fx.walking_iso()):
        nat = identity_nat(functor_identity(cat))
        assert validate_nat(nat).ok
        assert is_natural_isomorphism(nat)


def _point_functor(ident: str) -> FunctorMap:
    wi = fx.walking_iso()
    return FunctorMap(
        source=fx.one(), target=wi,
        mapping={"star": ident}, name=f"point_{ident}",
    )


def test_nat_between_points_of_walking_iso():
    nat = NatTransf(source=_point_functor("ia"), target=_point_functor("ib"),
                    components={"star": "f"})
    assert validate_nat(nat).ok
    assert is_natural_isomorphism(nat)


def test_nat_typing_violation():
    nat = NatTransf(source=_point_functor("ia"), target=_point_functor("ib"),
                    components={"star": "ia"})
    report = validate_nat(nat)
    assert not report.ok
    assert any(v.kind == "typing" for v in report.violations)


def test_nat_missing_component_is_totality_violation():
    tc = fx.two_chain()
    ident = functor_identity(tc)
    nat = NatTransf(source=ident, target=ident, components={"i0": "i0"})
    report = validate_nat(nat)
    assert any(v.kind == "totality" for v in report.violations)


def test_nat_naturality_violation():
    # Components typecheck but the square at the arrow a does not commute:
    # swapping the two-element set after picking a point picks the other point.
    tc, f2 = fx.two_chain(), fx.finset2()
    fmap = FunctorMap(
        source=tc, target=f2,
        mapping={"i0": "id_n1", "i1": "id_n2", "a": "n1_n2_0"},
    )
    assert validate_functor(fmap).ok
    nat = NatTransf(source=fmap, target=fmap,
                    components={"i0": "id_n1", "i1": "n2_n2_10"})
    report = validate_nat(nat)
    assert not report.ok
    assert any(v.kind == "naturality" for v in report.violations)


def test_non_invertible_component_is_not_natural_isomorphism():
    # Points of the two-chain connected by the non-invertible arrow a.
    tc = fx.two_chain()
    src = FunctorMap(source=fx.one(), target=tc, mapping={"star": "i0"})
    dst = FunctorMap(source=fx.one(), target=tc, mapping={"star": "i1"})
    nat = NatTransf(source=src, target=dst, components={"star": "a"})
    assert validate_nat(nat).ok
    assert not is_natural_isomorphism(nat)


def test_is_skeletal():
    assert is_skeletal(fx.finset2())
    assert not is_skeletal(fx.finset_dup())
    assert is_skeletal(fx.discrete(3))


def test_skeleton_finset_dup_counts():
    result = skeleton(fx.finset_dup(), seed=0)
    assert len(result.skeleton.identities) == 3
    assert len(result.skeleton.morphisms) == 11
    assert is_skeletal(result.skeleton)


def test_skeleton_walking_iso_is_terminal_category():
    result = skeleton(fx.walking_iso(), seed=0)
    assert len(result.skeleton.morphisms) == 1
    assert find_category_isomorphism(result.skeleton, fx.one()) is not None


def test_skeleton_of_skeletal_category_is_itself():
    f2 = fx.finset2()
    result = skeleton(f2, seed=3)
    assert result.skeleton == f2
    assert result.inclusion.mapping == {m: m for m in f2.morphisms}
    assert result.retraction.mapping == {m: m for m in f2.morphisms}


def test_skeleton_witness_checks():
    result = skeleton(fx.finset_dup(), seed=2)
    assert validate_functor(result.inclusion).ok
    assert validate_functor(result.retraction).ok
    assert validate_nat(result.witness).ok
    assert is_natural_isomorphism(result.witness)
    # retraction . inclusion is the identity on the skeleton
    for m in result.skeleton.morphisms:
        assert result.retraction.mapping[result.inclusion.mapping[m]] == m
    # representatives pick one identity per class, fixed on representatives
    reps = set(result.representatives.values())
    assert reps == set(result.skeleton.identities)
    for ident, rep in result.representatives.items():
        assert result.representatives[rep] == rep


@settings(max_examples=25, deadline=None)
@given(random_categories)
def test_skeleton_fixed_point(cat):
    result = skeleton(cat, seed=1)
    assert is_skeletal(result.skeleton)
    again = skeleton(result.skeleton, seed=1)
    assert again.skeleton == result.skeleton


def _full_subcategory_by_build(cat, identities):
    morphisms = {m for m in cat.morphisms if cat.dom[m] in identities and cat.cod[m] in identities}
    table = {pair: r for pair, r in cat.table.items() if set(pair) <= morphisms}
    return ObjlessCategory.build(morphisms, table)


@pytest.mark.parametrize("cat", [
    *fx.fixture_pool().values(),
    *(gen_random(seed, 24) for seed in range(40)),
])
def test_full_subcategory_equals_build_on_skeleton_representatives(cat):
    for seed in range(3):
        reps = set(skeleton(cat, seed=seed).representatives.values())
        sub = cat.full_subcategory(reps)
        assert sub == _full_subcategory_by_build(cat, reps)
        assert hash(sub) == hash(_full_subcategory_by_build(cat, reps))


def test_full_subcategory_rejects_a_non_identity():
    with pytest.raises(NotAnIdentityError):
        fx.walking_iso().full_subcategory({"ia", "f"})
    with pytest.raises(NameNotFoundError):
        fx.walking_iso().full_subcategory({"nowhere"})


def test_skeleton_deterministic_per_seed():
    fd = fx.finset_dup()
    first = skeleton(fd, seed=5)
    second = skeleton(fd, seed=5)
    assert first.skeleton == second.skeleton
    assert first.retraction.mapping == second.retraction.mapping
    assert dict(first.witness.components) == dict(second.witness.components)


def test_skeletons_across_seeds_isomorphic():
    fd = fx.finset_dup()
    skels = [skeleton(fd, seed=s).skeleton for s in range(4)]
    for other in skels[1:]:
        assert find_category_isomorphism(skels[0], other) is not None


def test_are_equivalent_walking_iso_and_one():
    witness = are_equivalent(fx.walking_iso(), fx.one())
    assert witness is not None
    assert set(witness.forward.mapping.values()) == {"star"}


def test_are_equivalent_rejects_two_chain_vs_discrete():
    assert are_equivalent(fx.two_chain(), fx.discrete(2)) is None


def test_are_equivalent_reflexive():
    for cat in (fx.two_chain(), fx.z2(), fx.finset_dup()):
        assert are_equivalent(cat, cat) is not None


def test_iso_implies_equivalent():
    tc = fx.two_chain()
    renamed = fx.chain_category(2, "p")
    assert find_category_isomorphism(tc, renamed) is not None
    assert are_equivalent(tc, renamed) is not None


def test_brute_force_agrees_on_examples():
    cases = [
        (fx.walking_iso(), fx.one(), True),
        (fx.two_chain(), fx.discrete(2), False),
        (fx.two_chain(), fx.two_chain(), True),
    ]
    for left, right, expected in cases:
        assert (brute_force_equivalence(left, right) is not None) == expected
        assert (are_equivalent(left, right) is not None) == expected


def test_brute_force_capacity():
    fd = fx.finset_dup()
    with pytest.raises(CapacityError):
        brute_force_equivalence(fd, fd)
