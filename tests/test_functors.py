"""Functor-calculus tests: validation, identities, composition, variance."""
from __future__ import annotations

import pytest

from arrowcat.errors import WiringError
from arrowcat.generators import gen_cyclic, gen_discrete
from arrowcat.functors import (
    CONTRAVARIANT,
    FunctorMap,
    NatTransf,
    functor_cod,
    functor_compose,
    functor_dom,
    functor_identity,
    validate_functor,
    validate_nat,
)

import catalog as fx


def collapse_functor() -> FunctorMap:
    """TwoChain -> Z2 sending i0, i1 to e and a to s; a valid functor."""
    return FunctorMap(
        source=fx.two_chain(),
        target=fx.z2(),
        mapping={"i0": "e", "i1": "e", "a": "s"},
        name="collapse",
    )


def test_identity_functor_is_valid():
    for cat in (fx.two_chain(), fx.z2(), fx.finset_dup()):
        assert validate_functor(functor_identity(cat)).ok


def test_collapse_functor_is_valid():
    assert validate_functor(collapse_functor()).ok


def test_identity_to_nonidentity_rejected():
    bad = FunctorMap(
        source=fx.two_chain(),
        target=fx.z2(),
        mapping={"i0": "s", "i1": "e", "a": "s"},
    )
    report = validate_functor(bad)
    assert not report.ok
    assert any(v.kind == "identity-law" for v in report.violations)


def test_partial_map_reports_totality():
    bad = FunctorMap(source=fx.two_chain(), target=fx.z2(), mapping={"i0": "e"})
    report = validate_functor(bad)
    assert any(v.kind == "totality" for v in report.violations)


def test_unknown_target_name_reported():
    bad = FunctorMap(
        source=fx.one(), target=fx.z2(), mapping={"star": "ghost"},
    )
    report = validate_functor(bad)
    assert any(v.kind == "name-not-found" for v in report.violations)


def test_broken_composition_law_reported():
    # Swap where s should go: send the flip s to e and keep identities; fine,
    # but send z3's generator to z2's flip so squares break.
    z3, z2 = gen_cyclic(3), fx.z2()
    bad = FunctorMap(source=z3, target=z2, mapping={"g0": "e", "g1": "s", "g2": "s"})
    report = validate_functor(bad)
    assert not report.ok
    assert any(v.kind == "composition-law" for v in report.violations)


def test_functor_identity_neutral():
    f = collapse_functor()
    assert functor_compose(f, functor_identity(f.source)) == f
    assert functor_compose(functor_identity(f.target), f) == f


def test_functor_dom_cod():
    f = collapse_functor()
    assert functor_dom(f) == functor_identity(f.source)
    assert functor_cod(f) == functor_identity(f.target)
    assert functor_compose(f, functor_dom(f)) == f
    assert functor_compose(functor_cod(f), f) == f
    ident = functor_identity(fx.z2())
    assert functor_dom(ident) == ident == functor_cod(ident)


def test_functor_compose_undefined_on_mismatch():
    f = collapse_functor()
    g = functor_identity(fx.two_chain())
    assert functor_compose(g, f) is None  # z2 is not two_chain


def test_composition_criterion():
    f = collapse_functor()
    g = FunctorMap(source=fx.z2(), target=fx.z2(), mapping={"e": "e", "s": "s"})
    assert (functor_compose(g, f) is not None) == (functor_cod(f) == functor_dom(g))


def test_contravariant_validation():
    tc = fx.two_chain()
    op = tc.opposite()
    flip = FunctorMap(
        source=tc, target=op, mapping={m: m for m in tc.morphisms},
        variance=CONTRAVARIANT, name="flip",
    )
    assert validate_functor(flip).ok
    view = flip.covariant_view()
    assert view.variance == "covariant"
    assert view.source == op
    assert validate_functor(view).ok


def test_contravariant_compose_covariant():
    tc = fx.two_chain()
    op = tc.opposite()
    flip = FunctorMap(
        source=tc, target=op, mapping={m: m for m in tc.morphisms},
        variance=CONTRAVARIANT,
    )
    unflip = FunctorMap(
        source=op, target=tc, mapping={m: m for m in tc.morphisms},
        variance=CONTRAVARIANT,
    )
    composite = functor_compose(unflip, flip)
    assert composite is not None
    assert composite.variance == "covariant"
    assert composite == functor_identity(tc)
    assert validate_functor(composite).ok


def test_functor_maps_hom_classes_into_hom_classes():
    f = collapse_functor()
    src, dst = f.source, f.target
    for a in src.identities:
        for b in src.identities:
            for m in src.hom_class(a, b):
                assert f.mapping[m] in dst.hom_class(f.mapping[a], f.mapping[b])


def test_functor_associativity_on_composable_triples():
    f = collapse_functor()
    ids = functor_identity(fx.two_chain())
    idt = functor_identity(fx.z2())
    left = functor_compose(functor_compose(idt, f), ids)
    right = functor_compose(idt, functor_compose(f, ids))
    assert left == right == f


def test_nat_between_functors_that_share_only_one_end_is_a_wiring_error():
    # One source and two targets, then two sources and one target: either mismatch alone is enough.
    c, s, t = gen_discrete(1, "c"), gen_discrete(1, "s"), gen_discrete(1, "t")
    pairs = [
        (FunctorMap(c, s, {"c0": "s0"}), FunctorMap(c, t, {"c0": "t0"})),
        (FunctorMap(s, c, {"s0": "c0"}), FunctorMap(t, c, {"t0": "c0"})),
    ]
    for f, g in pairs:
        with pytest.raises(WiringError, match="different sources or targets"):
            validate_nat(NatTransf(f, g, {}))
