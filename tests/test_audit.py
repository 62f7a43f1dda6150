"""The one-pass functor and transformation checks against the sorted-walk references.

``validate_functor`` and ``validate_nat`` check each law once over all its
entries, count the entries that fail it, and pick and format only the first
``MAX_VIOLATIONS`` of them.  Every
single-entry edit of a few valid functors and transformations, covariant and
contravariant, must give the report that the references in ``conftest`` give.
A transformation whose functor leaves a morphism unmapped must raise the
WiringError that names that functor (the source one first) and its least
unmapped morphism.
"""
from __future__ import annotations

import dataclasses
from itertools import islice

import pytest

from arrowcat import fixtures as fx, report
from arrowcat._search import functor_search
from arrowcat.adjunction import poset_adjunction, poset_functor
from arrowcat.equivalence import NatTransf, identity_nat, skeleton, validate_nat
from arrowcat.errors import WiringError
from arrowcat.functors import CONTRAVARIANT, FunctorMap, functor_identity, validate_functor
from arrowcat.generators import gen_cyclic, gen_discrete, gen_finset
from arrowcat.standard import to_objectless

from conftest import reference_validate_functor, reference_validate_nat

UNKNOWN = "zz_unknown"


def _functors() -> dict[str, FunctorMap]:
    skel = skeleton(fx.finset_dup())
    p, q, f, _ = fx.galois_maps()
    return {
        "identity": functor_identity(fx.finset2()),
        "collapse": FunctorMap(
            source=fx.two_chain(), target=fx.z2(), mapping={"i0": "e", "i1": "e", "a": "s"},
        ),
        # The point to the identity of a 2-element set, whose monoid holds idempotents.
        "point": FunctorMap(source=fx.one(), target=fx.finset2(), mapping={"star": "id_n2"}),
        "inclusion": skel.inclusion,
        "retraction": skel.retraction,
        "poset": poset_functor(p, q, f),
        "finset3-identity": functor_identity(to_objectless(gen_finset(3))),
    }


FUNCTORS = _functors()
# Functors too large to edit exhaustively, with the edits they get instead:
# retargeting n3_n3_222 breaks 140 composites, more than a report keeps.
LARGE_EDITS = {"finset3-identity": [{"n3_n3_222": "n2_n2_10"}]}


def _variants(f: FunctorMap) -> list[FunctorMap]:
    """``f`` itself, ``f`` as a (valid) contravariant functor out of the
    opposite, and the same map marked contravariant on the same source."""
    return [
        f,
        dataclasses.replace(f, source=f.source.opposite(), variance=CONTRAVARIANT),
        dataclasses.replace(f, variance=CONTRAVARIANT),
    ]


def _edits(mapping, keys, values) -> list[dict[str, str]]:
    """Each single-entry edit: retarget one key to each other value, drop a
    key, add an unknown key, map a key to an unknown name."""
    mapping = dict(mapping)
    out = [{**mapping, UNKNOWN: min(values)}]
    for key in sorted(keys):
        out += [{**mapping, key: other} for other in sorted(values) if other != mapping.get(key)]
        out.append({k: v for k, v in mapping.items() if k != key})
        out.append({**mapping, key: UNKNOWN})
    return out


def _outcome(check, arg):
    try:
        return check(arg)
    except WiringError as exc:
        return type(exc), str(exc)


def _reference_outcome(nat: NatTransf):
    """The reference's report, unless a functor leaves a morphism unmapped:
    then the WiringError that names the source functor first, then the
    target, with its least unmapped morphism.  (The reference raises KeyError
    there, or reports broken components before it reaches the functors.)"""
    morphisms = nat.source.source.morphisms
    for functor in (nat.source, nat.target):
        unmapped = morphisms - functor.mapping.keys()
        if unmapped:
            return WiringError, f"{functor.name} is not a functor: morphism {min(unmapped)} of the source is not mapped"
    return reference_validate_nat(nat)


def _without(functor: FunctorMap, *keys: str) -> FunctorMap:
    return dataclasses.replace(functor, mapping={k: v for k, v in functor.mapping.items() if k not in keys})


@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_functor_reports_match_reference_on_single_entry_edits(name):
    checked = failing = 0
    for base in _variants(FUNCTORS[name]):
        assert validate_functor(base) == reference_validate_functor(base)
        if name in LARGE_EDITS:
            edits = [{**base.mapping, **edit} for edit in LARGE_EDITS[name]]
        else:
            edits = _edits(base.mapping, base.source.morphisms, base.target.morphisms)
        for mapping in edits:
            edited = dataclasses.replace(base, mapping=mapping)
            report = validate_functor(edited)
            assert report == reference_validate_functor(edited), mapping
            checked += 1
            failing += not report.ok
    assert validate_functor(_variants(FUNCTORS[name])[1]).ok
    assert failing > checked // 2


def _pool_functors(pool) -> list[FunctorMap]:
    """Up to two functors between each ordered pair of pool categories, as the search finds them."""
    return [
        FunctorMap(source=a, target=b, mapping=m, name=f"{x}->{y}")
        for x, a in sorted(pool.items()) for y, b in sorted(pool.items())
        for m in islice(functor_search(a, b), 2)
    ]


def test_functor_reports_match_reference_on_the_pool(pool):
    # The composition law is checked row by row through the index; every
    # pool functor, covariant or contravariant, whole, partial (one key
    # dropped) or broken (one key retargeted), must give the reference's
    # report: the same verdict, total and messages.
    checked = failing = 0
    for base in _pool_functors(pool):
        for f in _variants(base):
            targets = sorted(f.target.morphisms)
            edits = [f.mapping] + [
                {**f.mapping, key: targets[(targets.index(value) + 1) % len(targets)]}
                for key, value in sorted(f.mapping.items()) if len(targets) > 1
            ] + [{k: v for k, v in f.mapping.items() if k != key} for key in sorted(f.mapping)[:3]]
            for mapping in edits:
                edited = dataclasses.replace(f, mapping=mapping)
                report = validate_functor(edited)
                assert report == reference_validate_functor(edited), (f.name, f.variance, mapping)
                checked += 1
                failing += not report.ok
    assert checked > 5_000 and checked // 4 < failing < checked


def _transformations() -> dict[str, NatTransf]:
    skel = skeleton(fx.finset_dup())
    good = poset_adjunction(*fx.galois_maps())
    bad = poset_adjunction(*fx.perturbed_galois_maps())
    return {
        "identity": identity_nat(FUNCTORS["poset"]),
        "collapse": identity_nat(FUNCTORS["collapse"]),
        "idempotent": NatTransf(FUNCTORS["point"], FUNCTORS["point"], {"star": "n2_n2_00"}),
        "skeleton": skel.witness,
        "unit": good.unit,
        "counit": good.counit,
        "perturbed-unit": bad.unit,
        "perturbed-counit": bad.counit,
    }


TRANSFORMATIONS = _transformations()


@pytest.mark.parametrize("name", sorted(TRANSFORMATIONS))
def test_nat_reports_match_reference_on_single_entry_edits(name):
    nat = TRANSFORMATIONS[name]
    src, dst = nat.source.source, nat.source.target
    assert validate_nat(nat) == reference_validate_nat(nat)
    # Edits of the components, then of either functor's morphism map, and of
    # both at once where they are the same functor.
    edited = [
        dataclasses.replace(nat, components=c)
        for c in _edits(nat.components, src.identities, dst.morphisms)
    ]
    sides = [("source",), ("target",)] + [("source", "target")] * (nat.source == nat.target)
    for side in sides:
        functor = getattr(nat, side[0])
        edited += [
            dataclasses.replace(nat, **dict.fromkeys(side, dataclasses.replace(functor, mapping=m)))
            for m in _edits(functor.mapping, src.morphisms, dst.morphisms)
        ]
    # Both functors partial, losing different morphisms: the source functor
    # is named, with the least of the two it loses.
    names = sorted(src.morphisms)
    edited += [
        dataclasses.replace(nat, source=_without(nat.source, b, names[-1]), target=_without(nat.target, a))
        for a, b in zip(names, names[1:])
    ]
    outcomes = [(_outcome(validate_nat, e), _reference_outcome(e)) for e in edited]
    for (got, want), e in zip(outcomes, edited):
        assert got == want, (e.components, dict(e.target.mapping))
    assert sum(not (isinstance(got, tuple) or got.ok) for got, _ in outcomes) > len(outcomes) // 4


def test_reports_format_only_the_violations_they_keep(monkeypatch):
    made = []
    original = report.violation
    monkeypatch.setattr(report, "violation", lambda *args: made.append(args) or original(*args))
    cyclic, discrete = gen_cyclic(120), gen_discrete(150)
    # Every non-identity of cyclic(120) sent to g1: 14,161 of the 14,400
    # composition entries fail, and so do 119 naturality squares of a
    # transformation into the constant functor; each of the 150 components
    # of a discrete category's identity to itself is mistyped.
    collapse = FunctorMap(source=cyclic, target=cyclic, mapping={m: "g1" for m in cyclic.morphisms} | {"g0": "g0"})
    constant = FunctorMap(source=cyclic, target=cyclic, mapping={m: "g0" for m in cyclic.morphisms})
    identity = functor_identity(discrete)
    shifted = {f"x{i}": f"x{(i + 1) % 150}" for i in range(150)}
    cases = [
        (validate_functor, reference_validate_functor, collapse, 14_161),
        (validate_functor, reference_validate_functor, dataclasses.replace(collapse, variance=CONTRAVARIANT), 14_161),
        (validate_nat, reference_validate_nat, NatTransf(functor_identity(cyclic), constant, {"g0": "g1"}), 119),
        (validate_nat, reference_validate_nat, NatTransf(identity, identity, shifted), 150),
    ]
    for validate, reference, subject, total in cases:
        made.clear()
        got = validate(subject)
        assert (got.total, len(made)) == (total, 100)
        assert got == reference(subject)
