"""Functors and natural transformations: the arrows between categories, and between those.

A functor is a single total map between morphism sets; its action on objects
is just its action on identities, and an identity functor stands in for its
category.  ``validate_functor`` checks each law once over all its entries:
totality, stray keys and unknown names as set differences, the identity law as
a filter, and the composition law in the covariant view (out of the opposite
category if contravariant).  Between categories that keep byte rows (``core``)
that law is first decided in C-level passes: with F as a translate table on
codes, 255 kept, the source rows translated by F must equal, joined over all
rows, F's codes masked by the row of the identity ``dom g`` (``b`` where
``g.b`` is defined, 255 elsewhere) and translated by the target's row of
``F(g)``, padded to 256, so both sides read 255 just where ``g.b`` is
undefined.  A map that fails the pass, or a category of 256 morphisms or more,
is walked row by row, one list comparison per morphism ``g`` of ``F(g).F(b)``
against ``F(g.b)``.  The entries that fail are counted, and only the first
``MAX_VIOLATIONS`` of them, by key, are picked and formatted.  A natural
transformation has one component per identity of its functors' shared source,
and ``validate_nat`` checks all its naturality squares in one pass, as code
vectors gathered from the target's byte rows where it keeps them.  Nothing
here searches: the decisions built on these arrows live in ``equivalence``,
``limits`` and ``adjunction``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nsmallest
from itertools import compress, repeat
from operator import getitem, ne
from types import MappingProxyType
from typing import Callable, Mapping

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
        return FunctorMap(source=self.source.opposite(), target=self.target, mapping=self.mapping,
                          variance=COVARIANT, name=self.name)


_PAD = b"\xff" * 256  # 255, the code of an undefined composite, at every code


def _composition_holds(src: ObjlessCategory, dst: ObjlessCategory, image: Callable[[str], str]) -> bool:
    """On byte rows, whether ``F(g.b) == F(g).F(b)`` wherever ``g.b`` is defined (see the module docstring)."""
    if src._layout is None or dst._layout is None:
        return False
    (order, code, rows), (_, image_code, targets) = src._layout, dst._layout
    table = bytes(map(image_code.__getitem__, map(image, order))) + _PAD[len(order):]  # F on codes; 255 kept
    composable = {i: rows[code[i]].translate(table) for i in src.identities}  # F(b) where cod b = i, else 255
    got = map(bytes.translate, map(composable.__getitem__, map(src.dom.__getitem__, order)),
              map(bytes.__add__, map(targets.__getitem__, table[:len(order)]), repeat(_PAD[len(targets):])))
    return b"".join(got) == b"".join(rows).translate(table)


def _coverage(keys: frozenset[str], mapping: Mapping[str, str], values: frozenset[str],
              missing: str, stray: str, unknown_value: str) -> list[tuple]:
    """Witnesses of the ``keys`` that ``mapping`` misses (TOTALITY), its other keys (TYPING) and its values
    not in ``values`` (NAME_NOT_FOUND), each made by its template; [] when there are none."""
    mismatched = keys.symmetric_difference(mapping)
    unknown = set(mapping.values()).difference(values)
    if not (mismatched or unknown):
        return []
    return ([(format_violation, TOTALITY, (key,), missing, key) for key in sorted(mismatched & keys)]
            + [(format_violation, TYPING, (key,), stray, key) for key in sorted(mismatched - keys)]
            + [(format_violation, NAME_NOT_FOUND, (key, value), unknown_value, key, value)
               for key, value in sorted(item for item in mapping.items() if item[1] in unknown)])


def validate_functor(f: FunctorMap) -> ValidationReport:
    """Totality, identity preservation, and the variance-appropriate composition law."""
    src, dst, mapping = f.source, f.target, f.mapping
    uncovered = _coverage(src.morphisms, mapping, dst.morphisms, "morphism {} of the source is not mapped",
                          "map key {} is not a morphism of the source", "{} maps to unknown morphism {}")
    if uncovered:
        return ValidationReport.from_witnesses(uncovered)

    image = mapping.copy().__getitem__  # a dict lookup, faster than through the proxy
    found = [
        (format_violation, IDENTITY_LAW, (ident, image(ident)),
         "identity {} maps to non-identity {}", ident, image(ident))
        for ident in sorted(i for i in src.identities if image(i) not in dst.identities)
    ]
    # The composition law in the covariant view, out of the opposite if contravariant: by
    # the byte pass, or row by row as two aligned lists, the composite of the images (None
    # where undefined) and the image of each composite.  Only the first failing entries by
    # key are composed again and formatted.
    src, failed = f.covariant_view().source, []
    for g, row in () if _composition_holds(src, dst, image) else src.rows.items():
        got = list(map(dst.rows[image(g)].get, map(image, row)))
        want = list(map(image, row.values()))
        if got != want:
            failed += [(g, b) for b in compress(row, map(ne, got, want))]
    total = len(found) + len(failed)
    for after, before in nsmallest(MAX_VIOLATIONS, failed):
        composite = dst.table.get((image(after), image(before)))
        result = src.table[(after, before)]
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
    return FunctorMap(source=cat, target=cat, mapping={m: m for m in cat.morphisms}, variance=COVARIANT, name=name)


def functor_compose(outer: FunctorMap, inner: FunctorMap) -> FunctorMap | None:
    """outer after inner; defined iff inner's target category is outer's source."""
    if inner.target != outer.source:
        return None
    variance = COVARIANT if inner.variance == outer.variance else CONTRAVARIANT
    return FunctorMap(source=inner.source, target=outer.target, variance=variance, name=f"{outer.name}.{inner.name}",
                      mapping={m: outer.mapping[v] for m, v in inner.mapping.items()})


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


def _squares_commute(nat: NatTransf) -> bool:
    """On the target's byte rows, whether every square is defined and commutes; False without them."""
    src, dst, arrows = nat.source.source, nat.source.target, nat.source.source.morphisms
    if dst._layout is None:
        return False
    _, code, rows = dst._layout
    try:  # a name unknown to the target fails the pass
        at, tau = code.__getitem__, {i: code[c] for i, c in nat.components.items()}.__getitem__
        f, g = (bytes(map(at, map(h.mapping.copy().__getitem__, arrows))) for h in (nat.source, nat.target))
    except KeyError:
        return False
    lefts = bytes(map(getitem, map(rows.__getitem__, map(tau, map(src.cod.__getitem__, arrows))), f))
    rights = bytes(map(getitem, map(rows.__getitem__, g), map(tau, map(src.dom.__getitem__, arrows))))
    return lefts == rights and 255 not in lefts  # 255: an undefined composite


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

    uncovered = _coverage(src.identities, comps, dst.morphisms, "no component at identity {}",
                          "component key {} is not an identity of the source",
                          "component at {} names unknown morphism {}")
    if uncovered:
        return ValidationReport.from_witnesses(uncovered)

    fmap, gmap = f.mapping, g.mapping
    mistyped = [
        (format_violation, TYPING, (ident, comp), "component at {} is typed {} -> {}, expected {} -> {}",
         ident, dst.dom[comp], dst.cod[comp], fmap[ident], gmap[ident])
        for ident, comp in sorted(comps.items())
        if dst.dom[comp] != fmap[ident] or dst.cod[comp] != gmap[ident]
    ]
    if mistyped:
        return ValidationReport.from_witnesses(mistyped)

    if _squares_commute(nat):  # only a transformation that fails the byte pass is walked
        return ValidationReport.from_witnesses([])
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
    return NatTransf(source=f, target=f, components={i: f.mapping[i] for i in f.source.identities}, name=name)
