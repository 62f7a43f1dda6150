"""Functors as morphism-name maps, with variance and category-free composition.

A functor is a single total map between morphism sets; its action on objects
is just its action on identities.  ``validate_functor`` first checks every
law in one pass of C-level operations (a key-set equality, a superset test
on the identities and one list comparison over the whole table, with the
two factors swapped for a contravariant functor).  Only a map that fails
that pass is walked in sorted order, as a covariant functor out of the
opposite category if contravariant, to report its violations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from .core import ObjlessCategory
from .errors import WiringError
from .report import (
    COMPOSITION_LAW,
    IDENTITY_LAW,
    NAME_NOT_FOUND,
    TOTALITY,
    TYPING,
    ValidationReport,
    violation,
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


def _laws_hold(f: FunctorMap) -> bool:
    """True iff ``validate_functor`` finds no violation, in one C-level pass.

    An image outside the target needs no test of its own: each morphism m is
    in the table as m.dom(m), whose image composite is then undefined.
    """
    src, dst, image = f.source, f.target, f.mapping.__getitem__
    if not (f.mapping.keys() == src.morphisms and dst.identities.issuperset(map(image, src.identities))):
        return False
    afters, befores = map(itemgetter(0), src.table), map(itemgetter(1), src.table)
    if f.contravariant:
        afters, befores = befores, afters
    return (list(map(dst.table.get, zip(map(image, afters), map(image, befores))))
            == list(map(image, src.table.values())))


def validate_functor(f: FunctorMap) -> ValidationReport:
    """Totality, identity preservation, and the variance-appropriate composition law."""
    if _laws_hold(f):
        return ValidationReport.from_violations(())
    violations = []
    for m in sorted(f.source.morphisms):
        if m not in f.mapping:
            violations.append(violation(
                TOTALITY, (m,), f"morphism {m} of the source is not mapped",
            ))
    for key in sorted(f.mapping):
        if key not in f.source.morphisms:
            violations.append(violation(
                TYPING, (key,), f"map key {key} is not a morphism of the source",
            ))
    for key, value in sorted(f.mapping.items()):
        if value not in f.target.morphisms:
            violations.append(violation(
                NAME_NOT_FOUND, (key, value), f"{key} maps to unknown morphism {value}",
            ))
    if violations:
        return ValidationReport.from_violations(violations)

    for ident in sorted(f.source.identities):
        if f.mapping[ident] not in f.target.identities:
            violations.append(violation(
                IDENTITY_LAW, (ident, f.mapping[ident]),
                f"identity {ident} maps to non-identity {f.mapping[ident]}",
            ))

    cov = f.covariant_view()
    for (after, before), result in sorted(cov.source.table.items()):
        image = f.target.table.get((f.mapping[after], f.mapping[before]))
        if image is None:
            violations.append(violation(
                COMPOSITION_LAW, (after, before),
                f"{after}.{before} is defined but its image composition is not",
            ))
        elif image != f.mapping[result]:
            violations.append(violation(
                COMPOSITION_LAW, (after, before, result),
                f"image of {after}.{before} is {image}, expected {f.mapping[result]}",
            ))
    return ValidationReport.from_violations(violations)


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
