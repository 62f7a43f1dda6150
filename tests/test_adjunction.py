"""Adjunction verification, the Galois oracle, and admissibility."""
from __future__ import annotations

import dataclasses

import pytest

from arrowcat import functors
from arrowcat.adjunction import (
    PAPER_LITERAL,
    STANDARD,
    AdjunctionCandidate,
    AdmissibilityReport,
    check_adjunction,
    galois_oracle,
    galois_violations,
    is_admissible,
    poset_adjunction,
    poset_functor,
)
from arrowcat.equivalence import NatTransf
from arrowcat.errors import NotMonotoneError, WiringError
from arrowcat.functors import functor_compose, functor_identity, validate_functor
from arrowcat.limits import preserves_finite_limits

import catalog as fx


def identity_candidate(cat) -> AdjunctionCandidate:
    ident = functor_identity(cat)
    components = {i: i for i in cat.identities}
    return AdjunctionCandidate(
        left=ident, right=ident,
        unit=NatTransf(source=functor_identity(cat),
                       target=functor_compose(ident, ident), components=components),
        counit=NatTransf(source=functor_compose(ident, ident),
                         target=functor_identity(cat), components=components),
    )


def test_identity_adjunction_passes_both_modes():
    for cat in (fx.two_chain(), fx.z2()):
        cand = identity_candidate(cat)
        assert check_adjunction(cand).ok
        assert check_adjunction(dataclasses.replace(cand, mode=PAPER_LITERAL)).ok


def test_galois_fixture_passes_standard():
    p, q, f, g = fx.galois_maps()
    report = check_adjunction(poset_adjunction(p, q, f, g))
    assert report.ok
    assert report.mode == STANDARD
    assert report.literal_ok and report.standard_ok


def test_galois_oracle_good_fixture():
    p, q, f, g = fx.galois_maps()
    assert galois_oracle(p, q, f, g)
    assert galois_violations(p, q, f, g) == ()


def test_perturbed_fixture_fails_both_with_pair_cited():
    p, q, f, g = fx.perturbed_galois_maps()
    assert not galois_oracle(p, q, f, g)
    assert ("p1", "q1") in galois_violations(p, q, f, g)
    cand = poset_adjunction(p, q, f, g)
    standard = check_adjunction(cand)
    assert not standard.ok
    literal = check_adjunction(dataclasses.replace(cand, mode=PAPER_LITERAL))
    assert not literal.ok
    # the counit is missing exactly at q1
    assert any(f.stage == "counit" and "q1" in f.witnesses for f in standard.failures)


def test_galois_oracle_identity_maps():
    p = fx.chain_poset(3, "q")
    ident = {e: e for e in p.elements}
    assert galois_oracle(p, p, ident, ident)


def test_galois_oracle_rejects_non_monotone():
    p, q, f, g = fx.galois_maps()
    with pytest.raises(NotMonotoneError):
        galois_oracle(p, q, {"p0": "q2", "p1": "q0"}, g)


def test_oracle_matches_check_adjunction_over_all_monotone_pairs():
    """Poset adjunctions are exactly Galois connections: sweep every monotone
    pair between the 2-chain and the 3-chain and compare verdicts."""
    p = fx.chain_poset(2, "p")
    q = fx.chain_poset(3, "q")

    def monotone_maps(src, dst):
        out = []
        elems = list(src.elements)
        def extend(partial):
            if len(partial) == len(elems):
                out.append(dict(partial))
                return
            x = elems[len(partial)]
            for y in dst.elements:
                partial[x] = y
                try:
                    monotone = all(
                        dst.holds(partial[a], partial[b])
                        for (a, b) in src.leq if a in partial and b in partial
                    )
                except KeyError:
                    monotone = False
                if monotone:
                    extend(partial)
                del partial[x]
        extend({})
        return out

    checked = 0
    for f in monotone_maps(p, q):
        for g in monotone_maps(q, p):
            oracle = galois_oracle(p, q, f, g)
            report = check_adjunction(poset_adjunction(p, q, f, g))
            assert report.ok == oracle, (f, g)
            checked += 1
    assert checked >= 12


def test_wiring_error_before_law_checks():
    tc, z2 = fx.two_chain(), fx.z2()
    ident_tc = functor_identity(tc)
    ident_z2 = functor_identity(z2)
    cand = AdjunctionCandidate(
        left=ident_tc, right=ident_z2,
        unit=NatTransf(source=ident_tc, target=ident_tc, components={}),
        counit=NatTransf(source=ident_z2, target=ident_z2, components={}),
    )
    with pytest.raises(WiringError):
        check_adjunction(cand)


def test_paper_literal_weaker_than_standard():
    """A unit/counit pair that is natural but breaks the triangles: swap the
    self-inverse flip into the z2 unit."""
    z2 = fx.z2()
    ident = functor_identity(z2)
    unit = NatTransf(source=functor_identity(z2), target=functor_compose(ident, ident),
                     components={"e": "s"})
    counit = NatTransf(source=functor_compose(ident, ident), target=functor_identity(z2),
                       components={"e": "e"})
    cand = AdjunctionCandidate(left=ident, right=ident, unit=unit, counit=counit)
    literal = check_adjunction(dataclasses.replace(cand, mode=PAPER_LITERAL))
    assert literal.ok  # valid transformations with the right endpoints
    standard = check_adjunction(cand)
    assert not standard.ok
    assert any(f.stage.startswith("triangle") for f in standard.failures)


def test_identity_pair_admissible():
    cand = identity_candidate(fx.two_chain())
    report = is_admissible(cand.left, cand.right, cand.unit, cand.counit)
    assert report.ok
    f2cand = identity_candidate(fx.finset2())
    report = is_admissible(f2cand.left, f2cand.right, f2cand.unit, f2cand.counit,
                           scope=("terminal", "equalizers"))
    assert report.ok


def test_galois_fixture_admissible():
    # f maps the 2-chain onto the ends of the 3-chain; meets and top are preserved.
    p, q, f, g = fx.galois_maps()
    cand = poset_adjunction(p, q, f, g)
    report = is_admissible(cand.left, cand.right, cand.unit, cand.counit)
    assert report.ok


def test_diamond_fixture_not_admissible_with_limit_failure_cited():
    p, q, f, g = fx.diamond_galois_maps()
    assert galois_oracle(p, q, f, g)
    cand = poset_adjunction(p, q, f, g)
    report = is_admissible(cand.left, cand.right, cand.unit, cand.counit)
    assert report.adjunction.ok
    assert not report.limits.ok
    assert not report.ok
    assert any(fl.kind == "product" and set(fl.diagram) == {"da", "db"}
               for fl in report.limits.failures)


@pytest.mark.parametrize("maps", [fx.galois_maps, fx.perturbed_galois_maps, fx.diamond_galois_maps])
def test_is_admissible_validates_each_functor_once(monkeypatch, maps):
    cand = poset_adjunction(*maps())
    adjunction, limits = check_adjunction(cand), preserves_finite_limits(cand.left)
    want = AdmissibilityReport(ok=adjunction.ok and limits.ok, adjunction=adjunction, limits=limits)
    calls = []

    def counting_validate_functor(f):
        calls.append(f.name)
        return validate_functor(f)

    monkeypatch.setattr(functors, "validate_functor", counting_validate_functor)
    assert is_admissible(cand.left, cand.right, cand.unit, cand.counit) == want
    assert calls == ["F", "G"]


def test_poset_functor_rejects_non_monotone():
    p = fx.chain_poset(2, "p")
    q = fx.chain_poset(2, "r")
    with pytest.raises(NotMonotoneError):
        poset_functor(p, q, {"p0": "r1", "p1": "r0"})
