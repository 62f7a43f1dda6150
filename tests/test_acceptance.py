"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
expected value asserted here is either trivially forced, derived by an
independent oracle computed inside this module (direct table scans, hom-count
arithmetic, exhaustive search), or verified against the shipped fixtures.
"""
from __future__ import annotations

import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from arrowcat.adjunction import check_adjunction, galois_oracle, galois_violations, poset_adjunction
from arrowcat.catspec import CatspecError, parse, serialize
from arrowcat.equivalence import (
    are_equivalent,
    brute_force_equivalence,
    find_category_isomorphism,
    is_natural_isomorphism,
    is_skeletal,
    skeleton,
    validate_nat,
)
from arrowcat.functors import FunctorMap, functor_identity, validate_functor
from arrowcat.generators import gen_finset, gen_random
from arrowcat.limits import preserves_finite_limits
from arrowcat.standard import to_objectless, to_standard

import catalog as fx
from conftest import brute_neutral

FIXTURES = Path(__file__).parent / "fixtures"

RANDOM_COUNT = 200
RANDOM_MAX_MORPHISMS = 20


@pytest.fixture(autouse=True)
def criterion_banner(request):
    yield
    report = getattr(request.node, "outcome_call", None)
    if report is not None:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{request.node.name}: {verdict}", file=sys.stderr)


@pytest.fixture(scope="module")
def random_pool():
    return [gen_random(seed, RANDOM_MAX_MORPHISMS) for seed in range(RANDOM_COUNT)]


def test_criterion_01_axiom_lemma_suite(random_pool, pool):
    """Unique identities per side, identity pairs compose iff equal, and the
    composability criterion with domain/codomain of composites."""
    for cat in list(pool.values()) + random_pool:
        neutral = brute_neutral(cat.morphisms, cat.table)
        for m in cat.morphisms:
            right = [i for i in neutral if (m, i) in cat.table]
            left = [i for i in neutral if (i, m) in cat.table]
            assert len(right) == 1 and len(left) == 1  # one identity per side
            assert cat.dom_id(m) == right[0] and cat.cod_id(m) == left[0]
        for i in cat.identities:
            for j in cat.identities:
                assert ((i, j) in cat.table) == (i == j)
        for b in cat.morphisms:
            for a in cat.morphisms:
                defined = (b, a) in cat.table
                assert defined == (cat.cod_id(a) == cat.dom_id(b))
                if defined:
                    r = cat.table[(b, a)]
                    assert cat.dom_id(r) == cat.dom_id(a)
                    assert cat.cod_id(r) == cat.cod_id(b)


def test_criterion_02_round_trips(random_pool, pool):
    """to_objectless . to_standard is the identity; the other order is the
    canonical renaming object -> identity arrow."""
    for cat in list(pool.values()) + random_pool:
        assert to_objectless(to_standard(cat)) == cat
    for std in (fx.two_chain_std(), gen_finset(2), fx.finset_dup_std()):
        back = to_standard(to_objectless(std))
        renaming = dict(std.id_of)  # object B -> id_of(B)
        assert back.objects == frozenset(renaming.values())
        assert dict(back.arrows) == {
            name: (renaming[dom], renaming[cod])
            for name, (dom, cod) in std.arrows.items()
        }
        assert dict(back.table) == dict(std.table)
        assert dict(back.id_of) == {renaming[obj]: ident for obj, ident in std.id_of.items()}


def test_criterion_03_skeleton_counts():
    """FinSetDup collapses to one object per size; hom counts are n^m."""
    sizes = (0, 1, 2)
    expected_morphisms = 0
    for m in sizes:
        for n in sizes:
            if m == 0:
                expected_morphisms += 1  # exactly the empty function
            elif n == 0:
                pass  # no functions into the empty set
            else:
                expected_morphisms += n ** m
    assert expected_morphisms == 11
    fd = fx.finset_dup()
    assert not is_skeletal(fd)
    result = skeleton(fd, seed=0)
    assert len(result.skeleton.identities) == 3
    assert len(result.skeleton.morphisms) == expected_morphisms
    assert is_skeletal(result.skeleton)


def test_criterion_04_skeleton_uniqueness(random_pool):
    """Across 10 seeds, all pairwise skeletons are isomorphic."""
    subjects = [fx.finset_dup()] + random_pool[:20]
    seeds = range(10)
    for cat in subjects:
        skeletons = [skeleton(cat, seed=s).skeleton for s in seeds]
        for i, left in enumerate(skeletons):
            for right in skeletons[i + 1:]:
                assert find_category_isomorphism(left, right) is not None


def test_criterion_05_equivalence_vs_isomorphism():
    wi, one = fx.walking_iso(), fx.one()
    witness = are_equivalent(wi, one)
    assert witness is not None
    # full re-validation of the returned witness
    assert validate_functor(witness.forward).ok
    assert validate_functor(witness.backward).ok
    for nat in (witness.tau, witness.sigma):
        assert validate_nat(nat).ok
        assert is_natural_isomorphism(nat)
    assert find_category_isomorphism(wi, one) is None


def test_criterion_06_oracle_agreement(small_pool):
    names = sorted(small_pool)
    pairs = list(combinations_with_replacement(names, 2))
    assert len(pairs) >= 25
    assert all(len(small_pool[n].morphisms) <= 12 for n in names)
    for a, b in pairs:
        via_skeleton = are_equivalent(small_pool[a], small_pool[b])
        via_search = brute_force_equivalence(small_pool[a], small_pool[b])
        assert (via_skeleton is None) == (via_search is None), (a, b)


def test_criterion_07_adjunction():
    p, q, f, g = fx.galois_maps()
    assert check_adjunction(poset_adjunction(p, q, f, g)).ok
    assert galois_oracle(p, q, f, g)

    p, q, f, g = fx.perturbed_galois_maps()
    assert not galois_oracle(p, q, f, g)
    assert ("p1", "q1") in galois_violations(p, q, f, g)  # the failing pair (x=1, y=1)
    report = check_adjunction(poset_adjunction(p, q, f, g))
    assert not report.ok
    assert any("q1" in failure.witnesses for failure in report.failures)


def test_criterion_08_left_exactness():
    assert preserves_finite_limits(functor_identity(fx.two_chain())).ok
    # finset2 has no 2 x 2 product, so the product scope is inapplicable there.
    assert preserves_finite_limits(
        functor_identity(fx.finset2()), ("terminal", "equalizers")
    ).ok
    tc = fx.two_chain()
    const = FunctorMap(source=tc, target=tc,
                       mapping={m: "i0" for m in tc.morphisms}, name="const_i0")
    report = preserves_finite_limits(const, ("terminal",))
    assert not report.ok
    failure = report.failures[0]
    assert failure.kind == "terminal"
    assert failure.counterexample == "i1"  # explicit witness object


def test_criterion_09_discernibility(pool):
    for cat in pool.values():
        for i in cat.identities:
            for j in cat.identities:
                assert cat.discernible(i, j) == (i != j)


def test_criterion_10_format():
    fixture_files = sorted(FIXTURES.glob("*.cat"))
    assert fixture_files
    for path in fixture_files:
        doc = parse(path.read_text())
        assert parse(serialize(doc)) == doc
    from test_catspec import MALFORMED_EXPECTATIONS
    assert len(MALFORMED_EXPECTATIONS) >= 10
    for name, kind, line in MALFORMED_EXPECTATIONS:
        text = (FIXTURES / "malformed" / name).read_text()
        with pytest.raises(CatspecError) as exc:
            parse(text)
        first = exc.value.diagnostics[0]
        assert first.kind == kind and first.span.line == line
