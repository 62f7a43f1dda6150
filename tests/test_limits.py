"""Terminal objects, products, equalizers, and preservation reports."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrowcat.equivalence import is_isomorphism
from arrowcat.errors import InapplicableScopeError, NotAnIdentityError
from arrowcat.functors import FunctorMap, functor_compose, functor_identity
from arrowcat.generators import Poset, gen_discrete, gen_finset, gen_poset, gen_random
from arrowcat.limits import (
    binary_product,
    equalizer,
    generalized_elements,
    preserves_finite_limits,
    terminal_objects,
)
from arrowcat.standard import to_objectless

import catalog as fx
from conftest import brute_limits, brute_preserves, thick_preorder


def test_terminal_objects():
    assert terminal_objects(fx.two_chain()) == {"i1"}
    assert terminal_objects(fx.finset2()) == {"id_n1"}
    assert terminal_objects(gen_discrete(2)) == frozenset()


def test_generalized_elements():
    f2 = fx.finset2()
    assert generalized_elements(f2, "id_n2", "id_n1") == {"n1_n2_0", "n1_n2_1"}
    assert generalized_elements(f2, "id_n0", "id_n1") == frozenset()
    assert "id_n1" in generalized_elements(f2, "id_n1", "id_n1")
    with pytest.raises(NotAnIdentityError):
        generalized_elements(f2, "n1_n2_0", "id_n1")


def test_global_element_count_is_iso_invariant():
    fd = fx.finset_dup()
    terminal = sorted(terminal_objects(fd))[0]
    counts = {
        x: len(generalized_elements(fd, x, terminal)) for x in ("id_n1", "id_n1b")
    }
    assert counts["id_n1"] == counts["id_n1b"]


def test_binary_product_in_poset_is_meet():
    tc = fx.two_chain()
    cone = binary_product(tc, "i0", "i1")
    assert cone is not None and cone.apex == "i0"
    diamond = gen_poset(fx.diamond_poset())
    cone = binary_product(diamond, "da", "db")
    assert cone is not None and cone.apex == "dbot"


def test_product_with_terminal_is_isomorphic_to_factor():
    tc = fx.two_chain()
    cone = binary_product(tc, "i0", "i1")  # i1 is terminal, so apex = i0
    assert cone is not None
    assert cone.apex == "i0"
    assert is_isomorphism(tc, cone.legs[0]) is not None  # leg to i0 is invertible


def test_product_commutative_up_to_iso():
    diamond = gen_poset(fx.diamond_poset())
    ab = binary_product(diamond, "da", "db")
    ba = binary_product(diamond, "db", "da")
    assert ab is not None and ba is not None
    assert ab.apex == ba.apex  # posets: meets are equal on the nose


def test_missing_product():
    assert binary_product(fx.finset2(), "id_n2", "id_n2") is None
    assert binary_product(gen_discrete(2), "x0", "x1") is None


def test_equalizer_of_distinct_points_is_empty_object():
    f2 = fx.finset2()
    cone = equalizer(f2, "n1_n2_0", "n1_n2_1")
    assert cone is not None
    assert cone.apex == "id_n0"


def test_equalizer_of_equal_pair_is_identity_cone():
    f2 = fx.finset2()
    cone = equalizer(f2, "n1_n2_0", "n1_n2_0")
    assert cone is not None and cone.apex == "id_n1"


def test_equalizer_requires_parallel_pair():
    f2 = fx.finset2()
    with pytest.raises(ValueError):
        equalizer(f2, "n1_n2_0", "n2_n1_00")


def test_equalizer_rejects_a_pair_that_shares_only_one_end():
    # A shared domain, or a shared codomain, alone does not make a pair parallel.
    fork = gen_poset(Poset.from_covers("abc", {("a", "b"), ("a", "c")}))
    with pytest.raises(ValueError, match="a_le_b and a_le_c are not parallel"):
        equalizer(fork, "a_le_b", "a_le_c")
    join = gen_poset(Poset.from_covers("abc", {("a", "c"), ("b", "c")}))
    with pytest.raises(ValueError, match="a_le_c and b_le_c are not parallel"):
        equalizer(join, "a_le_c", "b_le_c")


def test_identity_preserves_all_scoped_limits():
    tc = fx.two_chain()
    assert preserves_finite_limits(functor_identity(tc)).ok
    f2 = fx.finset2()
    assert preserves_finite_limits(functor_identity(f2), ("terminal", "equalizers")).ok


def test_finset2_products_scope_is_inapplicable():
    # No 2 x 2 product exists inside the size-capped category.
    with pytest.raises(InapplicableScopeError) as exc:
        preserves_finite_limits(functor_identity(fx.finset2()), ("products",))
    assert (exc.value.kind, exc.value.diagram, str(exc.value)) == (
        "product", ("id_n2", "id_n2"), "source category has no product of (id_n2, id_n2)")


def test_z2_equalizers_scope_is_inapplicable():
    # No arrow of the group equalizes e and s.
    with pytest.raises(InapplicableScopeError) as exc:
        preserves_finite_limits(functor_identity(fx.z2()), ("equalizers",))
    assert (exc.value.kind, exc.value.diagram, str(exc.value)) == (
        "equalizer", ("e", "s"), "source category has no equalizer of (e, s)")


def test_constant_functor_fails_terminal_preservation():
    tc = fx.two_chain()
    const = FunctorMap(source=tc, target=tc,
                       mapping={m: "i0" for m in tc.morphisms}, name="const_i0")
    report = preserves_finite_limits(const, ("terminal",))
    assert not report.ok
    failure = report.failures[0]
    assert failure.kind == "terminal"
    assert failure.counterexample == "i1"


def test_meet_preserving_lattice_map_passes_products():
    # Embed the two-chain into the diamond along dbot <= dtop: meets agree.
    tc = fx.two_chain()
    diamond = gen_poset(fx.diamond_poset())
    embed = FunctorMap(
        source=tc, target=diamond,
        mapping={"i0": "dbot", "i1": "dtop", "a": "dbot_le_dtop"},
        name="embed",
    )
    report = preserves_finite_limits(embed, ("products",))
    assert report.ok


def test_composition_of_preserving_functors_preserves():
    tc = fx.two_chain()
    first = functor_identity(tc)
    second = functor_identity(tc)
    composite = functor_compose(second, first)
    assert preserves_finite_limits(composite).ok


def test_terminals_unique_up_to_unique_iso():
    for cat in (fx.two_chain(), fx.finset2(), fx.finset_dup()):
        terms = sorted(terminal_objects(cat))
        for a in terms:
            for b in terms:
                isos = [
                    f for f in cat.hom_class(a, b)
                    if is_isomorphism(cat, f) is not None
                ]
                assert len(isos) == 1


# Every category the differential tests run on: the named fixtures, seeded
# random categories, finite sets with both sizes doubled, and a thick preorder.
DIFFERENTIAL = {
    **fx.fixture_pool(),
    **{f"random{seed}": gen_random(seed, 16) for seed in range(30)},
    "finset2_dup12": to_objectless(gen_finset(2, dup=(1, 2))),
    "thick": thick_preorder([0, 0, 1, 1, 1, 2]),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_limits_match_the_brute_cone_oracle(name):
    cat = DIFFERENTIAL[name]
    assert terminal_objects(cat) == {t for t, _ in brute_limits(cat, "terminal", ())}
    idents = sorted(cat.identities)
    for a in idents:
        for b in idents:
            cone = binary_product(cat, a, b)
            found = brute_limits(cat, "product", (a, b))
            assert (None if cone is None else (cone.apex, cone.legs)) == (found[0] if found else None)
    for members in cat.hom_classes().values():
        for f in members:
            for g in members:
                cone = equalizer(cat, f, g)
                found = brute_limits(cat, "equalizer", (f, g))
                assert (None if cone is None else (cone.apex, cone.legs)) == (found[0] if found else None)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_preservation_matches_the_brute_cone_oracle(name):
    cat = DIFFERENTIAL[name]
    functors = [functor_identity(cat)] + [
        FunctorMap(source=cat, target=cat, mapping={m: ident for m in cat.morphisms}, name=f"const_{ident}")
        for ident in sorted(cat.identities)[:2]
    ]
    for f in functors:
        for scope in (("terminal",), ("products",), ("equalizers",), ("terminal", "products", "equalizers")):
            try:
                report = preserves_finite_limits(f, scope)
            except InapplicableScopeError as exc:
                assert brute_preserves(f, scope) == (exc.kind, exc.diagram)
                continue
            failures = [(fl.kind, fl.diagram, fl.counterexample) for fl in report.failures]
            assert brute_preserves(f, scope) == (failures, dict(report.checked))
            assert report.ok == (not failures)


def test_image_cone_failure_texts():
    # one -> z2 picks the identity e: the image of star x star has two arrows
    # into its apex against four cones, so it is not a product.
    pick_e = FunctorMap(source=fx.one(), target=fx.z2(), mapping={"star": "e"}, name="pick_e")
    assert preserves_finite_limits(pick_e, ("products",)).lines() == [
        "failure[product] diagram=(star, star): image cone at e is not a product of (e, e)",
    ]
    # finset2 -> two_chain sends a set to whether it is inhabited.  Two maps
    # that differ only as functions collapse, and the empty set's leg into
    # them is not invertible, so it no longer equalizes them universally.
    f2, tc = fx.finset2(), fx.two_chain()
    level = {"id_n0": "i0", "id_n1": "i1", "id_n2": "i1"}
    mapping = {m: level[f2.dom[m]] if level[f2.dom[m]] == level[f2.cod[m]] else "a" for m in f2.morphisms}
    inhabited = FunctorMap(source=f2, target=tc, mapping=mapping, name="inhabited")
    assert preserves_finite_limits(inhabited, ("equalizers",)).lines() == [
        f"failure[equalizer] diagram=({f}, {g}): image cone at i0 is not an equalizer of (i1, i1)"
        for f, g in (("n1_n2_0", "n1_n2_1"), ("id_n2", "n2_n2_10"), ("n2_n2_00", "n2_n2_11"))
    ]


# hom_class calls over terminal_objects, every binary product and every
# equalizer of the lattice of subsets of 4 bits, its elements named in a
# fixed shuffled order.
_COUNT_LOOKUPS = """
from itertools import combinations_with_replacement
from arrowcat import limits
from arrowcat.core import ObjlessCategory
from arrowcat.generators import Poset, gen_poset

calls = 0
scan = ObjlessCategory.hom_class

def counted(self, a, b):
    global calls
    calls += 1
    return scan(self, a, b)

ObjlessCategory.hom_class = counted
names = [f"s{k:02d}" for k in (5, 12, 0, 9, 3, 14, 7, 1, 10, 15, 2, 8, 13, 4, 11, 6)]
covers = [(names[k], names[k | 1 << bit]) for k in range(16) for bit in range(4) if not k >> bit & 1]
cat = gen_poset(Poset.from_covers(names, covers))
limits.terminal_objects(cat)
for a, b in combinations_with_replacement(sorted(cat.identities), 2):
    limits.binary_product(cat, a, b)
for _, members in sorted(cat.hom_classes().items()):
    for f, g in combinations_with_replacement(members, 2):
        limits.equalizer(cat, f, g)
print(calls)
"""


def test_limit_searches_do_the_same_work_under_every_hash_seed():
    # The checks visit identities in a fixed order, not in the order of a
    # frozenset, which follows the per-process string hash.
    src = str(Path(__file__).resolve().parents[1] / "src")
    counts = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _COUNT_LOOKUPS], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        counts.append(int(done.stdout))
    assert 0 < counts[0] == counts[1] <= 11_872
