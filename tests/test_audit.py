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
import random
from itertools import islice

import pytest

from arrowcat import functors, report
from arrowcat._search import functor_search
from arrowcat.adjunction import poset_adjunction, poset_functor
from arrowcat.core import ObjlessCategory
from arrowcat.equivalence import NatTransf, identity_nat, skeleton, validate_nat
from arrowcat.errors import WiringError
from arrowcat.functors import CONTRAVARIANT, FunctorMap, functor_compose, functor_identity, validate_functor
from arrowcat.generators import Poset, gen_cyclic, gen_discrete, gen_finset, gen_poset, poset_arrow
from arrowcat.standard import to_objectless

import catalog as fx
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


# The byte passes: a functor between two categories that keep byte rows (a
# contravariant one through the opposite's transposed rows), and a
# transformation into one, is first decided in C-level passes, and only a map
# that fails them is walked.  The 22-chain (253 arrows) keeps byte
# rows and the 23-chain (276) does not; finset(3, dup 1,2,3,3) has 409 arrows
# and its 60-arrow skeleton keeps byte rows, so its inclusion and retraction
# cross from one side of the threshold to the other.


def _chain(n: int):
    return gen_poset(Poset.chain([f"c{i:02d}" for i in range(n)]))


def _threshold_functors() -> dict[str, FunctorMap]:
    c22, c23 = _chain(22), _chain(23)
    skel = skeleton(to_objectless(gen_finset(3, (1, 2, 3, 3))), seed=3)
    assert (c22._layout is not None, c23._layout, skel.skeleton._layout is not None) == (True, None, True)
    low = {f"c{i:02d}": f"c{min(i, 21):02d}" for i in range(23)}  # 23-chain onto the 22-chain, monotone
    collapse = {m: poset_arrow(low[m.split("_le_")[0]], low[m.split("_le_")[-1]]) for m in c23.morphisms}
    return {
        "chain22-identity": functor_identity(c22),
        "chain23-identity": functor_identity(c23),
        "chain22-into-23": FunctorMap(source=c22, target=c23, mapping={m: m for m in c22.morphisms}),
        "chain23-onto-22": FunctorMap(source=c23, target=c22, mapping=collapse),
        "big-inclusion": skel.inclusion,
        "big-retraction": skel.retraction,
        "big-skeleton-identity": functor_identity(skel.skeleton),
    }


THRESHOLD_FUNCTORS = _threshold_functors()


def _law_holds(f: FunctorMap) -> bool:
    """The covariant composition law, entry by entry."""
    table, image = f.target.table, f.mapping
    return all(table.get((image[g], image[b])) == image[gb] for (g, b), gb in f.source.table.items())


def _squares_hold(nat: NatTransf) -> bool:
    """Every naturality square defined and commuting, square by square."""
    src, table, tau = nat.source.source, nat.source.target.table, nat.components
    fmap, gmap = nat.source.mapping, nat.target.mapping
    return all(table.get((tau[src.cod[m]], fmap[m])) is not None
               and table.get((tau[src.cod[m]], fmap[m])) == table.get((gmap[m], tau[src.dom[m]]))
               for m in src.morphisms)


@pytest.mark.parametrize("name", sorted(THRESHOLD_FUNCTORS))
def test_functor_reports_match_reference_across_the_byte_threshold(name):
    base, rng = THRESHOLD_FUNCTORS[name], random.Random(name)
    keys, values = sorted(base.source.morphisms), sorted(base.target.morphisms)
    edits = [base.mapping] + [{**base.mapping, rng.choice(keys): rng.choice(values)} for _ in range(4)]
    for mapping in edits:
        for f in (dataclasses.replace(base, mapping=mapping), dataclasses.replace(base, mapping=mapping,
                                                                                   variance=CONTRAVARIANT)):
            assert validate_functor(f) == reference_validate_functor(f), (name, f.variance)
    assert validate_functor(base).ok


def test_byte_passes_decide_exactly_the_laws():
    # A pass that wrongly fails still reports right, since the walk is exact,
    # so each pass is held to the law itself: on every edit of the corpus
    # whose maps are total and known, and on the functors across the threshold.
    bases = [f for name, f in sorted(FUNCTORS.items()) if name not in LARGE_EDITS]
    mappings = [(f, m) for f in bases for m in [f.mapping, *_edits(f.mapping, f.source.morphisms,
                                                                        f.target.morphisms)]]
    mappings += [(f, f.mapping) for f in (FUNCTORS["finset3-identity"], *THRESHOLD_FUNCTORS.values())]
    decided = 0
    for f, mapping in mappings:
        if mapping.keys() != f.source.morphisms or not f.target.morphisms.issuperset(mapping.values()):
            continue
        edited = dataclasses.replace(f, mapping=mapping)
        # The same map as a contravariant functor out of the opposite is the same law.
        for view in (edited, dataclasses.replace(edited, source=f.source.opposite(), variance=CONTRAVARIANT)
                     .covariant_view()):
            holds = functors._composition_holds(view.source, view.target, dict(mapping).__getitem__)
            assert holds == (_law_holds(view) and None not in (f.source._layout, f.target._layout)), mapping
            decided += holds
    assert decided > 20
    decided = 0
    for nat in TRANSFORMATIONS.values():
        src, dst = nat.source.source, nat.source.target
        for comps in [nat.components, *_edits(nat.components, src.identities, dst.morphisms)]:
            if comps.keys() != src.identities or not dst.morphisms.issuperset(comps.values()):
                continue
            edited = dataclasses.replace(nat, components=comps)
            assert functors._squares_commute(edited) == (_squares_hold(edited) and dst._layout is not None)
            decided += functors._squares_commute(edited)
    assert decided >= 5


def test_byte_passes_build_no_dict_index():
    # Up to 255 morphisms a valid functor or transformation is decided on the
    # byte rows alone: neither category builds its dict rows.
    result = skeleton(fx.finset_dup(), seed=1)
    cat = ObjlessCategory.build(result.retraction.source.morphisms, dict(result.retraction.source.table))
    skel = ObjlessCategory.build(result.skeleton.morphisms, dict(result.skeleton.table))
    inclusion = FunctorMap(source=skel, target=cat, mapping=result.inclusion.mapping)
    retraction = FunctorMap(source=cat, target=skel, mapping=result.retraction.mapping)
    witness = NatTransf(functor_identity(cat), functor_compose(inclusion, retraction), result.witness.components)
    opposite = skel.opposite()
    contravariant = FunctorMap(source=opposite, target=cat, mapping=inclusion.mapping, variance=CONTRAVARIANT)
    for check, subject in [(validate_functor, inclusion), (validate_functor, retraction), (validate_nat, witness),
                           (validate_functor, contravariant)]:
        assert check(subject).ok
    assert [c._rows for c in (cat, skel, opposite)] == [None] * 3


def test_nat_reports_match_reference_across_the_byte_threshold():
    # The square pass reads only the target's byte rows: the 23-chain onto the
    # 22-chain, and the retraction of the 409-arrow category onto its skeleton,
    # take it from a source without them.
    rng, checked = random.Random(5), 0
    big = THRESHOLD_FUNCTORS["big-retraction"].source
    for nat in [identity_nat(f) for _, f in sorted(THRESHOLD_FUNCTORS.items())] + [skeleton(big, seed=3).witness]:
        src, dst = nat.source.source, nat.source.target
        idents, arrows, targets = sorted(src.identities), sorted(src.morphisms), sorted(dst.morphisms)
        edited = [nat] + [dataclasses.replace(nat, components={**nat.components,
                                                               rng.choice(idents): rng.choice(targets)})
                          for _ in range(3)]
        edited += [dataclasses.replace(nat, target=dataclasses.replace(
            nat.target, mapping={**nat.target.mapping, rng.choice(arrows): rng.choice(targets)})) for _ in range(2)]
        for e in edited:
            assert validate_nat(e) == reference_validate_nat(e)
            if dst.morphisms.issuperset(e.components.values()):
                assert functors._squares_commute(e) == (_squares_hold(e) and dst._layout is not None)
            checked += 1
        assert validate_nat(nat).ok
    assert checked == 48
