"""Functors and natural transformations: the arrows between categories, and between those.

A functor is a single total map between morphism sets; its action on objects
is just its action on identities, and an identity functor stands in for its
category.  ``validate_functor`` checks each law once over all its entries:
totality, stray keys and unknown names as set differences, the identity law as
a filter, and the composition law row by row, one list comparison per morphism
``g`` of ``F(g).F(b)``, read from the target's rows (factors swapped if
contravariant), against ``F(g.b)``.  The entries that fail are counted, and
only the first ``MAX_VIOLATIONS`` of them, each under its key in the covariant
view (out of the opposite category if contravariant), are picked and
formatted.  A natural transformation has one component per identity of its
functors' shared source, and ``validate_nat`` checks all its naturality
squares in one pass.  Nothing here searches: the decisions built on these
arrows live in ``equivalence``, ``limits`` and ``adjunction``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nsmallest
from itertools import compress, repeat
from operator import ne
from types import MappingProxyType
from typing import Mapping

from .core import ObjlessCategory
from .errors import WiringError
from .report import (
    COMPOSITION_LAW,
    IDENTITY_LAW,
    MAX_VIOLATIONS,
    NAME_NOT_FOUND,
    NATURALITY,
    TOTALITY,
    TYPING,
    ValidationReport,
    format_violation,
)

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


@dataclass(frozen=True)
class FunctorMap:
    """A named morphism map between two categories; the name is metadata."""

    source: ObjlessCategory
    target: ObjlessCategory
    mapping: Mapping[str, str]
    variance: str = COVARIANT
    name: str = field(default="F", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", MappingProxyType(dict(self.mapping)))
        if self.variance not in (COVARIANT, CONTRAVARIANT):
            raise ValueError(f"unknown variance {self.variance!r}")

    def __hash__(self) -> int:
        return hash((
            self.source,
            self.target,
            tuple(sorted(self.mapping.items())),
            self.variance,
        ))

    def __call__(self, morphism: str) -> str:
        return self.mapping[morphism]

    @property
    def contravariant(self) -> bool:
        return self.variance == CONTRAVARIANT

    def covariant_view(self) -> "FunctorMap":
        """The same assignment as a covariant functor (out of the opposite if needed)."""
        if not self.contravariant:
            return self
        return FunctorMap(
            source=self.source.opposite(),
            target=self.target,
            mapping=self.mapping,
            variance=COVARIANT,
            name=self.name,
        )


def validate_functor(f: FunctorMap) -> ValidationReport:
    """Totality, identity preservation, and the variance-appropriate composition law."""
    src, dst, mapping = f.source, f.target, f.mapping
    mismatched = src.morphisms.symmetric_difference(mapping)
    unknown = set(mapping.values()).difference(dst.morphisms)
    if mismatched or unknown:
        return ValidationReport.from_witnesses(
            [(format_violation, TOTALITY, (m,), "morphism {} of the source is not mapped", m)
             for m in sorted(mismatched & src.morphisms)]
            + [(format_violation, TYPING, (key,), "map key {} is not a morphism of the source", key)
               for key in sorted(mismatched - src.morphisms)]
            + [(format_violation, NAME_NOT_FOUND, (key, value), "{} maps to unknown morphism {}", key, value)
               for key, value in sorted(item for item in mapping.items() if item[1] in unknown)]
        )

    image = mapping.copy().__getitem__  # a dict lookup, faster than through the proxy
    found = [
        (format_violation, IDENTITY_LAW, (ident, image(ident)),
         "identity {} maps to non-identity {}", ident, image(ident))
        for ident in sorted(i for i in src.identities if image(i) not in dst.identities)
    ]
    # The composition law row by row, as two aligned lists: the composite of
    # the images (None where undefined), and the image of each composite.  A
    # contravariant functor composes the images in the other order.
    swap, drows, failed = f.contravariant, dst.rows, []
    for g, row in src.rows.items():
        fg, fbs = image(g), map(image, row)
        got = list(map(dict.get, map(drows.__getitem__, fbs), repeat(fg)) if swap else map(drows[fg].get, fbs))
        want = list(map(image, row.values()))
        if got != want:
            failed += [(b, g) if swap else (g, b) for b in compress(row, map(ne, got, want))]
    total = len(found) + len(failed)
    # Pick the failing entries by their key in the covariant view, where a
    # contravariant functor's factors are swapped; only the picked ones are
    # composed again and formatted.
    for after, before in nsmallest(MAX_VIOLATIONS, failed):
        composite = dst.table.get((image(after), image(before)))
        result = src.table[(before, after) if swap else (after, before)]
        found.append(
            (format_violation, COMPOSITION_LAW, (after, before),
             "{}.{} is defined but its image composition is not", after, before) if composite is None else
            (format_violation, COMPOSITION_LAW, (after, before, result),
             "image of {}.{} is {}, expected {}", after, before, composite, image(result)))
    return ValidationReport.from_witnesses(found, total)


def require_functor(f: FunctorMap) -> None:
    """Raise WiringError naming ``f`` and its first violation unless it is a functor."""
    report = validate_functor(f)
    if not report.ok:
        raise WiringError(f"{f.name} is not a functor: {report.violations[0].message}")


def functor_identity(cat: ObjlessCategory, name: str = "id") -> FunctorMap:
    return FunctorMap(
        source=cat,
        target=cat,
        mapping={m: m for m in cat.morphisms},
        variance=COVARIANT,
        name=name,
    )


def functor_compose(outer: FunctorMap, inner: FunctorMap) -> FunctorMap | None:
    """outer after inner; defined iff inner's target category is outer's source."""
    if inner.target != outer.source:
        return None
    variance = COVARIANT if inner.variance == outer.variance else CONTRAVARIANT
    return FunctorMap(
        source=inner.source,
        target=outer.target,
        mapping={m: outer.mapping[v] for m, v in inner.mapping.items()},
        variance=variance,
        name=f"{outer.name}.{inner.name}",
    )


def functor_dom(f: FunctorMap) -> FunctorMap:
    """The identity functor on the source; neutral on the right under composition."""
    return functor_identity(f.source, name=f"dom_{f.name}")


def functor_cod(f: FunctorMap) -> FunctorMap:
    """The identity functor on the target; neutral on the left under composition."""
    return functor_identity(f.target, name=f"cod_{f.name}")


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


# The right side of an undefined naturality square, unequal to the left's None.
_UNDEFINED = object()


def validate_nat(nat: NatTransf) -> ValidationReport:
    """Totality over source identities, component typing, and all naturality squares.

    Each check runs once over all its entries; the failing squares are
    counted, and only the first ``MAX_VIOLATIONS`` of them are picked and
    formatted.  Both functors must map every morphism: a partial one raises
    WiringError naming it (the source functor first) and its least unmapped
    morphism.
    """
    f, g = nat.source, nat.target
    if f.source != g.source or f.target != g.target:
        raise WiringError("transformation between functors with different sources or targets")
    src, dst, comps = f.source, f.target, nat.components
    for functor in (f, g):
        unmapped = src.morphisms.difference(functor.mapping)
        if unmapped:
            raise WiringError(
                f"{functor.name} is not a functor: morphism {min(unmapped)} of the source is not mapped")

    mismatched = src.identities.symmetric_difference(comps)
    unknown = set(comps.values()).difference(dst.morphisms)
    if mismatched or unknown:
        return ValidationReport.from_witnesses(
            [(format_violation, TOTALITY, (ident,), "no component at identity {}", ident)
             for ident in sorted(mismatched & src.identities)]
            + [(format_violation, TYPING, (key,), "component key {} is not an identity of the source", key)
               for key in sorted(mismatched - src.identities)]
            + [(format_violation, NAME_NOT_FOUND, (key, value), "component at {} names unknown morphism {}", key, value)
               for key, value in sorted(item for item in comps.items() if item[1] in unknown)]
        )

    fmap, gmap = f.mapping, g.mapping
    mistyped = [
        (format_violation, TYPING, (ident, comp), "component at {} is typed {} -> {}, expected {} -> {}",
         ident, dst.dom[comp], dst.cod[comp], fmap[ident], gmap[ident])
        for ident, comp in sorted(comps.items())
        if dst.dom[comp] != fmap[ident] or dst.cod[comp] != gmap[ident]
    ]
    if mistyped:
        return ValidationReport.from_witnesses(mistyped)

    # Both sides of every square, tau_cod.F(m) and G(m).tau_dom; an undefined
    # side reads None on the left and _UNDEFINED on the right, so a square
    # commutes exactly when its two entries are equal.
    tau, arrows = comps.__getitem__, src.morphisms
    lefts = map(dst.table.get, zip(map(tau, map(src.cod.__getitem__, arrows)),
                                   map(fmap.__getitem__, arrows)))
    rights = map(dst.table.get, zip(map(gmap.__getitem__, arrows),
                                    map(tau, map(src.dom.__getitem__, arrows))),
                 repeat(_UNDEFINED))
    mismatched = list(map(ne, lefts, rights))
    return ValidationReport.from_witnesses([
        (format_violation, NATURALITY, (m,), "square at {} does not commute: {}.{} vs {}.{}",
         m, tau(src.cod[m]), fmap[m], gmap[m], tau(src.dom[m]))
        for m in nsmallest(MAX_VIOLATIONS, compress(arrows, mismatched))
    ], mismatched.count(True))


def identity_nat(f: FunctorMap, name: str = "id_t") -> NatTransf:
    """The identity transformation on a functor."""
    return NatTransf(
        source=f,
        target=f,
        components={i: f.mapping[i] for i in f.source.identities},
        name=name,
    )
