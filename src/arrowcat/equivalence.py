"""Isomorphisms, skeletons, and category equivalence.

Natural transformations live in ``functors`` and are re-exported here; this
module adds ``is_natural_isomorphism``, which needs ``is_isomorphism``; that
one looks f up in the category's inverse index, built once per category from
its composition rows.  ``iso_classes``, the skeleton's isomorphisms onto the
representatives and the brute-force components read the same index; the
audit takes from it only candidates, and checks each inverse by two table
lookups of its own.  An isomorphism of categories is a functor with a
strict inverse, found by ``_search.functor_search`` in its ``iso`` mode.  The
equivalence decision goes through skeletons: each category is collapsed onto
chosen representatives of its isomorphism classes, and the skeletons are
compared by that isomorphism search.  An exhaustive search is kept as an
independent oracle: it enumerates every functor pair with the same
``functor_search``, then every choice of transformation components.  It shares
the search engine with the isomorphism search but nothing with the skeleton
route.  The searches are not trusted: each public decision audits only the
witness it returns, and a failed audit raises AssertionError, under ``-O`` too.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product
from types import MappingProxyType
from typing import Iterable, Mapping

from ._search import BRUTE_FORCE_CAP, BRUTE_FORCE_PAIRS, find_table_bijection, functor_search
from .core import DEFAULT_ISO_CAP, ObjlessCategory, check_cap
from .errors import CapacityError, NameNotFoundError
from .functors import (  # NatTransf, identity_nat and validate_nat live in functors; re-exported here
    FunctorMap,
    NatTransf,
    functor_compose,
    functor_identity,
    identity_nat,
    validate_functor,
    validate_nat,
)


def is_isomorphism(cat: ObjlessCategory, f: str) -> str | None:
    """The unique two-sided inverse of f, or None when f is not invertible."""
    if f not in cat.morphisms:
        raise NameNotFoundError(f"unknown morphism {f!r}")
    return cat.inverses.get(f)


def iso_classes(cat: ObjlessCategory) -> list[frozenset[str]]:
    """Partition of the identities under "some morphism between them is invertible".

    One pass over the category's inverse index.  Isomorphisms compose, so
    each identity meets its whole class directly.
    """
    related = {ident: {ident} for ident in cat.identities}
    for f in cat.inverses:
        related[cat.dom[f]].add(cat.cod[f])
    return sorted({frozenset(block) for block in related.values()}, key=min)


def find_category_isomorphism(
    left: ObjlessCategory,
    right: ObjlessCategory,
    max_morphisms: int = DEFAULT_ISO_CAP,
) -> FunctorMap | None:
    """A functor with a strict two-sided inverse, audited with its inverse before return."""
    check_cap(max_morphisms, left, right)
    bijection = find_table_bijection(left, right)
    if bijection is None:
        return None
    forward = FunctorMap(source=left, target=right, mapping=bijection, name="iso")
    _audit(functors=(forward, _inverse(forward, "iso_inverse")))
    return forward


def _inverse(functor: FunctorMap, name: str) -> FunctorMap:
    """The inverse of a bijective functor, with the morphism map turned round."""
    return FunctorMap(
        source=functor.target, target=functor.source,
        mapping={v: k for k, v in functor.mapping.items()},
        name=name,
    )


def is_natural_isomorphism(nat: NatTransf) -> bool:
    """True iff every component is invertible in the target category: the inverse index only
    names a candidate, which two table lookups confirm, so the audit does not rest on the index."""
    dst = nat.source.target
    table, dom, cod = dst.table, dst.dom, dst.cod
    return all(table.get((c, g)) == cod[c] and table.get((g, c)) == dom[c]
               for c, g in ((c, is_isomorphism(dst, c)) for c in nat.components.values()))


def _audit(functors: Iterable[FunctorMap] = (), nat_isos: Iterable[NatTransf] = ()) -> None:
    """Each functor valid, each transformation a natural isomorphism; else
    AssertionError naming the first violation, a bug in the search."""
    for functor in functors:
        report = validate_functor(functor)
        if not report.ok:
            raise AssertionError(f"{functor.name}: {report.violations[0].message}")
    for nat in nat_isos:
        report = validate_nat(nat)
        if not report.ok:
            raise AssertionError(f"{nat.name}: {report.violations[0].message}")
        if not is_natural_isomorphism(nat):
            raise AssertionError(f"{nat.name} has a non-invertible component")


def is_skeletal(cat: ObjlessCategory) -> bool:
    return all(len(block) == 1 for block in iso_classes(cat))


@dataclass(frozen=True)
class SkeletonResult:
    skeleton: ObjlessCategory
    inclusion: FunctorMap
    retraction: FunctorMap
    witness: NatTransf
    representatives: Mapping[str, str]


def skeleton(cat: ObjlessCategory, seed: int = 0) -> SkeletonResult:
    """Collapse each isomorphism class onto one representative identity.

    The representative is the least identity under a seed-permuted name order,
    so distinct seeds can pick distinct (necessarily isomorphic) skeletons.
    The witness exhibits the original category as equivalent to the skeleton:
    its component at each identity is a chosen isomorphism onto the
    representative, the identity itself for representatives.
    """
    result = _skeleton(cat, seed)
    _audit((result.inclusion, result.retraction), (result.witness,))
    return result


def _skeleton(cat: ObjlessCategory, seed: int) -> SkeletonResult:
    """The skeleton and its witness, unaudited."""
    names = sorted(cat.identities)
    order = list(names)
    random.Random(seed).shuffle(order)
    rank = {name: pos for pos, name in enumerate(order)}

    representatives: dict[str, str] = {}
    for block in iso_classes(cat):
        representatives.update(dict.fromkeys(block, min(block, key=rank.__getitem__)))
    reps = set(representatives.values())

    # Each identity off its representative goes to it by the least-named isomorphism ident -> rep.
    dom, cod, inverse, least = cat.dom, cat.cod, cat.inverses, {}
    for f in sorted(f for f in inverse if cod[f] == representatives[dom[f]] != dom[f]):
        least.setdefault(dom[f], f)
    to_rep = {ident: least.get(ident, ident) for ident in names}
    from_rep = {ident: inverse[f] for ident, f in to_rep.items()}

    skel = cat.full_subcategory(reps)

    inclusion = FunctorMap(source=skel, target=cat, mapping={m: m for m in skel.morphisms}, name="inclusion")
    rows = cat.rows  # m goes to to_rep[cod m] . m . from_rep[dom m]
    retraction_map = {m: rows[to_rep[cod[m]]][rows[m][from_rep[dom[m]]]] for m in cat.morphisms}
    retraction = FunctorMap(source=cat, target=skel, mapping=retraction_map, name="retraction")

    witness = NatTransf(source=functor_identity(cat), target=functor_compose(inclusion, retraction),
                        components=to_rep, name="skeleton_witness")
    return SkeletonResult(skeleton=skel, inclusion=inclusion, retraction=retraction, witness=witness,
                          representatives=MappingProxyType(representatives))


@dataclass(frozen=True)
class EquivalenceWitness:
    """Functors both ways plus natural isomorphisms Id = backward.forward (tau)
    and Id = forward.backward (sigma)."""

    forward: FunctorMap
    backward: FunctorMap
    tau: NatTransf
    sigma: NatTransf


def _equivalence_witness(
    left: ObjlessCategory,
    right: ObjlessCategory,
    forward: Mapping[str, str],
    backward: Mapping[str, str],
    tau: Mapping[str, str],
    sigma: Mapping[str, str],
) -> EquivalenceWitness:
    """The witness for morphism maps both ways and the components of tau and sigma, audited."""
    fwd = FunctorMap(source=left, target=right, mapping=forward, name="forward")
    bwd = FunctorMap(source=right, target=left, mapping=backward, name="backward")
    witness = EquivalenceWitness(
        forward=fwd,
        backward=bwd,
        tau=NatTransf(functor_identity(left), functor_compose(bwd, fwd), tau, name="tau"),
        sigma=NatTransf(functor_identity(right), functor_compose(fwd, bwd), sigma, name="sigma"),
    )
    _audit((fwd, bwd), (witness.tau, witness.sigma))
    return witness


def are_equivalent(
    left: ObjlessCategory,
    right: ObjlessCategory,
    max_morphisms: int = DEFAULT_ISO_CAP,
    seed: int = 0,
) -> EquivalenceWitness | None:
    """Decide equivalence via skeletons and assemble an audited witness.

    Equivalent iff the skeletons are isomorphic; the witness functors factor
    through the skeleton retractions and inclusions, so the two round trips
    literally equal the skeleton round trips and the skeleton witnesses serve
    as the natural isomorphisms.  The inclusions are the identity on names.
    """
    check_cap(max_morphisms, left, right)
    skel_left = _skeleton(left, seed)
    skel_right = _skeleton(right, seed)
    iso = find_table_bijection(skel_left.skeleton, skel_right.skeleton)
    if iso is None:
        return None
    inverse = {v: k for k, v in iso.items()}
    return _equivalence_witness(
        left, right,
        {m: iso[r] for m, r in skel_left.retraction.mapping.items()},
        {m: inverse[r] for m, r in skel_right.retraction.mapping.items()},
        skel_left.witness.components, skel_right.witness.components,
    )


def _find_nat_iso(cat: ObjlessCategory, roundtrip: dict[str, str]) -> dict[str, str] | None:
    """Components of a natural isomorphism Id -> roundtrip, by exhaustive choice."""
    idents = sorted(cat.identities)
    candidates = [sorted(f for f in cat.inverses if (cat.dom[f], cat.cod[f]) == (i, roundtrip[i])) for i in idents]
    for chosen in product(*candidates):
        components = dict(zip(idents, chosen))
        if all(
            cat.table.get((components[cat.cod[m]], m)) == cat.table.get((roundtrip[m], components[cat.dom[m]]))
            for m in cat.morphisms
        ):
            return components
    return None


def brute_force_equivalence(
    left: ObjlessCategory,
    right: ObjlessCategory,
    max_morphisms: int = BRUTE_FORCE_CAP,
) -> EquivalenceWitness | None:
    """Exhaustive search for the equivalence data, independent of the skeleton route.

    Enumerates every functor pair (F, G) with ``functor_search`` and every
    choice of isomorphism components for Id = G.F and Id = F.G, checking
    naturality directly on the tables.  CapacityError once it has visited
    ``BRUTE_FORCE_PAIRS`` pairs without an answer.
    """
    check_cap(max_morphisms, left, right)
    budget = BRUTE_FORCE_PAIRS
    # One functor past the budget, so that a list cut short runs the budget
    # out before it can end the search.
    functors_bwd = list(islice(functor_search(right, left), budget + 1))
    for fwd in functor_search(left, right):
        for bwd in functors_bwd:
            if not budget:
                raise CapacityError(f"brute-force search exceeds {BRUTE_FORCE_PAIRS} functor pairs")
            budget -= 1
            gf = {m: bwd[fwd[m]] for m in left.morphisms}
            fg = {m: fwd[bwd[m]] for m in right.morphisms}
            tau_components = _find_nat_iso(left, gf)
            if tau_components is None:
                continue
            sigma_components = _find_nat_iso(right, fg)
            if sigma_components is None:
                continue
            return _equivalence_witness(left, right, fwd, bwd, tau_components, sigma_components)
    return None
