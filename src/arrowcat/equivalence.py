"""Isomorphisms, natural transformations, skeletons, and category equivalence.

An isomorphism of categories is a functor with a strict inverse, found by
``_search.functor_search`` in its ``iso`` mode.  The equivalence decision
goes through skeletons: each category is collapsed onto chosen
representatives of its isomorphism classes, and the skeletons are compared
by that isomorphism search.  An exhaustive search is kept as an independent
oracle: it enumerates every functor pair with the same ``functor_search``,
then every choice of transformation components.  It shares the search
engine with the isomorphism search but nothing with the skeleton route.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping

from ._search import BRUTE_FORCE_CAP, DEFAULT_ISO_CAP, check_cap, find_table_bijection, functor_search
from .core import ObjlessCategory
from .errors import NameNotFoundError, WiringError
from .functors import (
    FunctorMap,
    functor_compose,
    functor_identity,
    validate_functor,
)
from .report import (
    NAME_NOT_FOUND,
    NATURALITY,
    TOTALITY,
    TYPING,
    ValidationReport,
    violation,
)


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:  # path compression
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def blocks(self) -> list[frozenset[str]]:
        groups: dict[str, set[str]] = {}
        for item in self.parent:
            groups.setdefault(self.find(item), set()).add(item)
        return [frozenset(groups[root]) for root in sorted(groups)]


def is_isomorphism(cat: ObjlessCategory, f: str) -> str | None:
    """The unique two-sided inverse of f, or None when f is not invertible."""
    if f not in cat.morphisms:
        raise NameNotFoundError(f"unknown morphism {f!r}")
    src, dst = cat.dom[f], cat.cod[f]
    inverses = [
        g for g in sorted(cat.hom_class(dst, src))
        if cat.table.get((g, f)) == src and cat.table.get((f, g)) == dst
    ]
    assert len(inverses) <= 1, f"two distinct inverses for {f}"
    return inverses[0] if inverses else None


def iso_classes(cat: ObjlessCategory) -> list[frozenset[str]]:
    """Partition of the identities under "some morphism between them is invertible"."""
    uf = _UnionFind(cat.identities)
    for f in sorted(cat.morphisms):
        if is_isomorphism(cat, f) is not None:
            uf.union(cat.dom[f], cat.cod[f])
    return uf.blocks()


def find_category_isomorphism(
    left: ObjlessCategory,
    right: ObjlessCategory,
    max_morphisms: int = DEFAULT_ISO_CAP,
) -> FunctorMap | None:
    """A functor with a strict two-sided inverse, re-validated before return."""
    check_cap(max_morphisms, left, right)
    bijection = find_table_bijection(left, right)
    if bijection is None:
        return None
    forward = FunctorMap(source=left, target=right, mapping=bijection, name="iso")
    assert validate_functor(forward).ok and validate_functor(_inverse(forward, "iso_inverse")).ok
    return forward


def _inverse(functor: FunctorMap, name: str) -> FunctorMap:
    """The inverse of a bijective functor, with the morphism map turned round."""
    return FunctorMap(
        source=functor.target, target=functor.source,
        mapping={v: k for k, v in functor.mapping.items()},
        name=name,
    )


@dataclass(frozen=True)
class NatTransf:
    """Components indexed by the identities of the shared source category."""

    source: FunctorMap
    target: FunctorMap
    components: Mapping[str, str]
    name: str = field(default="t", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))

    def __hash__(self) -> int:
        return hash((self.source, self.target, tuple(sorted(self.components.items()))))


def validate_nat(nat: NatTransf) -> ValidationReport:
    """Totality over source identities, component typing, and all naturality squares."""
    f, g = nat.source, nat.target
    if f.source != g.source or f.target != g.target:
        raise WiringError("transformation between functors with different sources or targets")
    src, dst = f.source, f.target

    violations = []
    for ident in sorted(src.identities):
        if ident not in nat.components:
            violations.append(violation(
                TOTALITY, (ident,), f"no component at identity {ident}",
            ))
    for key in sorted(nat.components):
        if key not in src.identities:
            violations.append(violation(
                TYPING, (key,), f"component key {key} is not an identity of the source",
            ))
    for key, value in sorted(nat.components.items()):
        if value not in dst.morphisms:
            violations.append(violation(
                NAME_NOT_FOUND, (key, value), f"component at {key} names unknown morphism {value}",
            ))
    if violations:
        return ValidationReport.from_violations(violations)

    for ident, comp in sorted(nat.components.items()):
        want = (f.mapping[ident], g.mapping[ident])
        got = (dst.dom[comp], dst.cod[comp])
        if got != want:
            violations.append(violation(
                TYPING, (ident, comp),
                f"component at {ident} is typed {got[0]} -> {got[1]}, expected {want[0]} -> {want[1]}",
            ))
    if violations:
        return ValidationReport.from_violations(violations)

    for m in sorted(src.morphisms):
        tau_dom = nat.components[src.dom[m]]
        tau_cod = nat.components[src.cod[m]]
        left = dst.table.get((tau_cod, f.mapping[m]))
        right = dst.table.get((g.mapping[m], tau_dom))
        if left is None or right is None or left != right:
            violations.append(violation(
                NATURALITY, (m,),
                f"square at {m} does not commute: {tau_cod}.{f.mapping[m]} vs {g.mapping[m]}.{tau_dom}",
            ))
    return ValidationReport.from_violations(violations)


def identity_nat(f: FunctorMap, name: str = "id_t") -> NatTransf:
    """The identity transformation on a functor."""
    return NatTransf(
        source=f,
        target=f,
        components={i: f.mapping[i] for i in f.source.identities},
        name=name,
    )


def is_natural_isomorphism(nat: NatTransf) -> bool:
    """True iff every component is invertible in the target category."""
    dst = nat.source.target
    return all(
        is_isomorphism(dst, comp) is not None for comp in nat.components.values()
    )


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
    names = sorted(cat.identities)
    order = list(names)
    random.Random(seed).shuffle(order)
    rank = {name: pos for pos, name in enumerate(order)}

    representatives: dict[str, str] = {}
    for block in iso_classes(cat):
        rep = min(block, key=lambda name: rank[name])
        for ident in block:
            representatives[ident] = rep
    reps = set(representatives.values())

    to_rep: dict[str, str] = {}
    for ident in names:
        rep = representatives[ident]
        if ident == rep:
            to_rep[ident] = ident
            continue
        to_rep[ident] = next(
            f for f in sorted(cat.hom_class(ident, rep))
            if is_isomorphism(cat, f) is not None
        )
    from_rep = {ident: is_isomorphism(cat, f) for ident, f in to_rep.items()}

    skel = cat.full_subcategory(reps)

    inclusion = FunctorMap(
        source=skel, target=cat,
        mapping={m: m for m in skel.morphisms},
        name="inclusion",
    )
    retraction_map = {}
    for m in cat.morphisms:
        inner = cat.table[(m, from_rep[cat.dom[m]])]
        retraction_map[m] = cat.table[(to_rep[cat.cod[m]], inner)]
    retraction = FunctorMap(source=cat, target=skel, mapping=retraction_map, name="retraction")

    witness = NatTransf(
        source=functor_identity(cat),
        target=functor_compose(inclusion, retraction),
        components=to_rep,
        name="skeleton_witness",
    )
    assert validate_functor(inclusion).ok
    assert validate_functor(retraction).ok
    assert validate_nat(witness).ok and is_natural_isomorphism(witness)
    return SkeletonResult(
        skeleton=skel,
        inclusion=inclusion,
        retraction=retraction,
        witness=witness,
        representatives=MappingProxyType(representatives),
    )


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
    """The witness for morphism maps both ways and the components of tau and sigma, re-validated."""
    fwd = FunctorMap(source=left, target=right, mapping=forward, name="forward")
    bwd = FunctorMap(source=right, target=left, mapping=backward, name="backward")
    witness = EquivalenceWitness(
        forward=fwd,
        backward=bwd,
        tau=NatTransf(functor_identity(left), functor_compose(bwd, fwd), tau, name="tau"),
        sigma=NatTransf(functor_identity(right), functor_compose(fwd, bwd), sigma, name="sigma"),
    )
    assert validate_functor(witness.forward).ok
    assert validate_functor(witness.backward).ok
    for nat in (witness.tau, witness.sigma):
        assert validate_nat(nat).ok and is_natural_isomorphism(nat)
    assert witness.tau.source == functor_identity(witness.forward.source)
    assert witness.tau.target == functor_compose(witness.backward, witness.forward)
    assert witness.sigma.source == functor_identity(witness.backward.source)
    assert witness.sigma.target == functor_compose(witness.forward, witness.backward)
    return witness


def are_equivalent(
    left: ObjlessCategory,
    right: ObjlessCategory,
    max_morphisms: int = DEFAULT_ISO_CAP,
    seed: int = 0,
) -> EquivalenceWitness | None:
    """Decide equivalence via skeletons and assemble a re-validated witness.

    Equivalent iff the skeletons are isomorphic; the witness functors factor
    through the skeleton retractions and inclusions, so the two round trips
    literally equal the skeleton round trips and the skeleton witnesses serve
    as the natural isomorphisms.
    """
    check_cap(max_morphisms, left, right)
    skel_left = skeleton(left, seed=seed)
    skel_right = skeleton(right, seed=seed)
    iso = find_category_isomorphism(skel_left.skeleton, skel_right.skeleton, max_morphisms)
    if iso is None:
        return None
    forward = functor_compose(skel_right.inclusion, functor_compose(iso, skel_left.retraction))
    backward = functor_compose(
        skel_left.inclusion, functor_compose(_inverse(iso, "iso_inverse"), skel_right.retraction))
    return _equivalence_witness(
        left, right, forward.mapping, backward.mapping,
        skel_left.witness.components, skel_right.witness.components,
    )


def _iso_arrows(cat: ObjlessCategory, src: str, dst: str) -> list[str]:
    return [f for f in sorted(cat.hom_class(src, dst)) if is_isomorphism(cat, f) is not None]


def _find_nat_iso(cat: ObjlessCategory, roundtrip: dict[str, str]) -> dict[str, str] | None:
    """Components of a natural isomorphism Id -> roundtrip, by exhaustive choice."""
    idents = sorted(cat.identities)
    candidates = []
    for ident in idents:
        isos = _iso_arrows(cat, ident, roundtrip[ident])
        if not isos:
            return None
        candidates.append(isos)
    for chosen in product(*candidates):
        components = dict(zip(idents, chosen))
        if all(
            cat.table.get((components[cat.cod[m]], m))
            == cat.table.get((roundtrip[m], components[cat.dom[m]]))
            and cat.table.get((components[cat.cod[m]], m)) is not None
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
    naturality directly on the tables.
    """
    check_cap(max_morphisms, left, right)
    functors_bwd = list(functor_search(right, left))
    for fwd in functor_search(left, right):
        for bwd in functors_bwd:
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
