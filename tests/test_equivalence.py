"""Isomorphisms, naturality, skeletons, and the equivalence decision procedure."""
from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arrowcat import equivalence
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
from arrowcat.generators import (
    disjoint_union, gen_cyclic, gen_discrete, gen_finset, gen_poset, gen_random, gen_walking_iso,
)
from arrowcat.standard import equal_up_to_renaming, to_objectless, to_standard

import catalog as fx
from conftest import brute_inverses, brute_iso_related, thick_preorder

random_categories = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: gen_random(seed, 16)
)

# gen_random only draws skeletal categories, so these add isomorphism
# classes of two identities to a seeded draw.
NON_SKELETAL = [
    disjoint_union(gen_random(seed, 12), extra)
    for seed, extra in zip(range(12), cycle([
        gen_walking_iso(), fx.finset_dup(), to_objectless(gen_finset(2, (1, 2))),
    ]))
]


def test_is_isomorphism_identity_and_flip():
    z2 = fx.z2()
    assert is_isomorphism(z2, "e") == "e"
    assert is_isomorphism(z2, "s") == "s"
    assert is_isomorphism(fx.two_chain(), "a") is None


def test_is_isomorphism_of_an_unknown_morphism_raises():
    with pytest.raises(NameNotFoundError, match=r"^unknown morphism 'nope'$"):
        is_isomorphism(fx.z2(), "nope")


def _check_inverses(cat):
    for f in cat.morphisms:
        inverses = brute_inverses(cat, f)
        assert len(inverses) <= 1
        expected = inverses[0] if inverses else None
        assert is_isomorphism(cat, f) == expected


@settings(max_examples=30, deadline=None)
@given(random_categories)
def test_inverses_unique_and_match_bruteforce(cat):
    _check_inverses(cat)


def test_inverses_match_bruteforce_on_the_pool(pool):
    # is_isomorphism looks for the inverse among the composites of f in the
    # row and column index; the oracle scans every morphism.
    for cat in [*pool.values(), *NON_SKELETAL]:
        _check_inverses(cat)
        _check_inverses(cat.opposite())


@pytest.mark.parametrize("seed", range(50))
def test_inverses_match_bruteforce_on_random_categories(seed):
    _check_inverses(gen_random(seed, 24))


def test_iso_classes_finset_dup():
    blocks = iso_classes(fx.finset_dup())
    assert sorted(sorted(b) for b in blocks) == [
        ["id_n0"], ["id_n1", "id_n1b"], ["id_n2"],
    ]


def test_iso_classes_discrete_and_walking_iso():
    assert len(iso_classes(gen_discrete(3))) == 3
    assert len(iso_classes(fx.walking_iso())) == 1


@settings(max_examples=30, deadline=None)
@given(random_categories)
def test_iso_classes_is_equivalence_relation(cat):
    _check_iso_classes(cat)


def _check_iso_classes(cat):
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


# 256 morphisms or more, past the byte codes of the kernel: 324 thin arrows on
# 8 classes of 3, and 264 thin arrows on 11 classes of 2 with a random non-thin
# part beside them.
LARGE = [thick_preorder([i // 3 for i in range(24)]),
         disjoint_union(thick_preorder([i // 2 for i in range(22)]), gen_random(5, 24))]


@pytest.mark.parametrize("cat", LARGE, ids=["thick-324", "thick-and-random"])
def test_inverse_index_matches_bruteforce_on_large_categories(cat):
    assert len(cat) >= 256
    _check_inverses(cat)
    _check_iso_classes(cat)


@pytest.mark.parametrize("cat", [*LARGE, *NON_SKELETAL[:6]])
def test_inverse_index_of_derived_categories_matches_bruteforce(cat):
    # The index is built before the category is turned round or restricted,
    # so opposite() hands it on; each derived index must still be its own.
    cat = ObjlessCategory.build(cat.morphisms, cat.table)
    assert cat.inverses is cat.inverses
    idents = sorted(cat.identities)
    for derived in (cat.opposite(), cat.full_subcategory(idents[::2]), cat.full_subcategory(idents[1:]).opposite(),
                    cat.opposite().full_subcategory(idents[:3])):
        _check_inverses(derived)
        _check_iso_classes(derived)


def _brute_representatives(cat) -> list[str]:
    """The least identity of each class, by direct isomorphism scans."""
    idents = sorted(cat.identities)
    return [a for a in idents if not any(brute_iso_related(cat, b, a) for b in idents if b < a)]


@pytest.mark.parametrize("cat", NON_SKELETAL)
def test_non_skeletal_inputs_match_bruteforce(cat):
    assert not is_skeletal(cat)
    _check_inverses(cat)
    _check_iso_classes(cat)
    reps = _brute_representatives(cat)
    hom_count = sum(1 for m in cat.morphisms if cat.dom[m] in reps and cat.cod[m] in reps)
    for seed in range(3):
        result = skeleton(cat, seed=seed)
        assert len(result.skeleton.identities) == len(reps)
        assert len(result.skeleton.morphisms) == hom_count


def test_find_category_isomorphism_reflexive():
    tc = fx.two_chain()
    found = find_category_isomorphism(tc, tc)
    assert found is not None
    assert found.mapping == {m: m for m in tc.morphisms}


def test_find_category_isomorphism_relabelling():
    tc = fx.two_chain()
    renamed = gen_poset(fx.chain_poset(2, "p"))  # p0 <= p1 with arrow p0_le_p1
    found = find_category_isomorphism(tc, renamed)
    assert found is not None
    assert found.mapping["a"] == "p0_le_p1"
    assert validate_functor(found).ok


def test_find_category_isomorphism_distinguishes():
    assert find_category_isomorphism(fx.walking_iso(), fx.one()) is None
    assert find_category_isomorphism(fx.two_chain(), gen_discrete(2)) is None


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
    assert is_skeletal(gen_discrete(3))


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


_SUBCATEGORY_ERROR = """
from arrowcat.generators import Poset, gen_poset
try:
    gen_poset(Poset.chain(["a", "b", "c"])).full_subcategory({"b_le_c", "a_le_c", "a"})
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_full_subcategory_names_the_least_bad_name_under_every_hash_seed():
    # The names are checked in name order, not in the frozenset's, whose order
    # follows the per-process string hash.
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _SUBCATEGORY_ERROR], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout == "NotAnIdentityError 'a_le_c' is not an identity\n", seed


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
    assert are_equivalent(fx.two_chain(), gen_discrete(2)) is None


def test_are_equivalent_reflexive():
    for cat in (fx.two_chain(), fx.z2(), fx.finset_dup()):
        assert are_equivalent(cat, cat) is not None


def test_iso_implies_equivalent():
    tc = fx.two_chain()
    renamed = gen_poset(fx.chain_poset(2, "p"))
    assert find_category_isomorphism(tc, renamed) is not None
    assert are_equivalent(tc, renamed) is not None


def test_brute_force_agrees_on_examples():
    cases = [
        (fx.walking_iso(), fx.one(), True),
        (fx.two_chain(), gen_discrete(2), False),
        (fx.two_chain(), fx.two_chain(), True),
    ]
    for left, right, expected in cases:
        assert (brute_force_equivalence(left, right) is not None) == expected
        assert (are_equivalent(left, right) is not None) == expected


def test_brute_force_capacity():
    fd = fx.finset_dup()
    with pytest.raises(CapacityError):
        brute_force_equivalence(fd, fd)
    # Far under the size cap, but 3,125 functors each way: the pair budget
    # stops it within seconds, where the scan of 9.8 M pairs takes minutes.
    start = time.process_time()
    with pytest.raises(CapacityError, match="100000 functor pairs"):
        brute_force_equivalence(gen_discrete(5), gen_discrete(5))
    assert time.process_time() - start < 10
    assert brute_force_equivalence(gen_discrete(4), gen_discrete(3)) is None


# Swapping the identity g0 of the cyclic group of order 3 with g1 is a
# bijection that is not a functor: every witness built from it must fail.
Z3 = gen_cyclic(3)
SWAP = {"g0": "g1", "g1": "g0", "g2": "g2"}
real_skeleton = equivalence._skeleton


def _wrong_skeleton(cat, seed):
    return dataclasses.replace(
        real_skeleton(cat, seed),
        retraction=FunctorMap(source=cat, target=cat, mapping=SWAP, name="retraction"),
    )


@pytest.mark.parametrize("search, fake, decide", [
    ("find_table_bijection", lambda c1, c2: dict(SWAP), lambda: find_category_isomorphism(Z3, Z3)),
    ("_skeleton", _wrong_skeleton, lambda: skeleton(Z3)),
    ("find_table_bijection", lambda c1, c2: dict(SWAP), lambda: are_equivalent(Z3, Z3)),
    ("functor_search", lambda src, dst, iso=False: iter([dict(SWAP)]), lambda: brute_force_equivalence(Z3, Z3)),
    ("find_table_bijection", lambda c1, c2: dict(SWAP),
     lambda: equal_up_to_renaming(to_standard(Z3), to_standard(Z3))),
], ids=["isomorphism", "skeleton", "equivalence", "brute-force", "renaming"])
def test_audit_rejects_a_planted_wrong_witness(monkeypatch, search, fake, decide):
    monkeypatch.setattr(equivalence, search, fake)
    with pytest.raises(AssertionError, match="identity g0 maps to non-identity g1"):
        decide()


def _split_idempotent() -> ObjlessCategory:
    """r: a -> b and s: b -> a with r.s = ib but s.r = e, an idempotent on a: r is no isomorphism."""
    table = {("ia", "ia"): "ia", ("ib", "ib"): "ib", ("e", "e"): "e", ("r", "s"): "ib", ("s", "r"): "e"}
    table.update({(m, "ia"): m for m in ("ia", "r", "e")} | {("ia", m): m for m in ("ia", "s", "e")})
    table.update({("ib", "r"): "r", ("s", "ib"): "s", ("r", "e"): "r", ("e", "s"): "s"})
    return ObjlessCategory.build(["ia", "ib", "e", "r", "s"], table)


def test_audit_checks_inverses_without_the_index():
    # An index naming s as the inverse of r merges the two identities, and the
    # skeleton then picks r or s as a witness component.  The audit must see
    # through it by its own table lookups: with ib as the representative the
    # witness is natural, so only that check can reject it.
    cat = _split_idempotent()
    assert is_isomorphism(cat, "r") is None and len(iso_classes(cat)) == 2
    object.__setattr__(cat, "_inverses", {**cat.inverses, "r": "s", "s": "r"})
    assert is_isomorphism(cat, "r") == "s" and iso_classes(cat) == [frozenset({"ia", "ib"})]
    representatives = set()
    for seed in range(8):
        rep = equivalence._skeleton(cat, seed).representatives["ia"]
        representatives.add(rep)
        message = "non-invertible component" if rep == "ib" else None
        with pytest.raises(AssertionError, match=message):
            skeleton(cat, seed=seed)
        with pytest.raises(AssertionError, match=message):
            are_equivalent(cat, cat, seed=seed)
    assert representatives == {"ia", "ib"}
