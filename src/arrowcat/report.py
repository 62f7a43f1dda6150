"""Validation reports: flat lists of violations with bounded size."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# Violation kinds emitted by the category validators.
FUNCTIONALITY = "functionality"
ASSOCIATIVITY_EQUAL = "associativity-equal"
ASSOCIATIVITY_EXISTENCE = "associativity-existence"
IDENTITY_MISSING = "identity-missing"
IDENTITY_NONNEUTRAL = "identity-nonneutral"
IDENTITY_NONUNIQUE = "identity-nonunique"
# Additional kinds used by the standard-form, functor, and transformation validators.
TYPING = "typing"
TOTALITY = "totality"
NAME_NOT_FOUND = "name-not-found"
COMPOSITION_LAW = "composition-law"
IDENTITY_LAW = "identity-law"
NATURALITY = "naturality"

MAX_VIOLATIONS = 100


@dataclass(frozen=True)
class Violation:
    kind: str
    witnesses: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validator: ``ok`` iff ``total`` is zero.

    ``violations`` keeps the first ``MAX_VIOLATIONS`` of the ``total`` found.
    """

    ok: bool
    violations: tuple[Violation, ...]
    total: int

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "ValidationReport":
        found = tuple(violations)
        return cls(ok=not found, violations=found[:MAX_VIOLATIONS], total=len(found))

    @classmethod
    def from_witnesses(cls, found: Sequence[tuple], total: int | None = None) -> "ValidationReport":
        """A report from ``(make, *args)`` entries, where ``make(*args)`` is the
        violation; only the first ``MAX_VIOLATIONS`` are formatted.  A caller
        that keeps only the first entries passes the ``total`` it counted."""
        shown = tuple(make(*args) for make, *args in found[:MAX_VIOLATIONS])
        total = len(found) if total is None else total
        return cls(ok=not total, violations=shown, total=total)

    def lines(self) -> list[str]:
        if self.ok:
            return ["ok"]
        lines = [
            f"violation[{v.kind}] witnesses=({', '.join(v.witnesses)}): {v.message}"
            for v in self.violations
        ]
        hidden = self.total - len(self.violations)
        if hidden:
            lines.append(f"... {hidden} more violations not shown ({self.total} in all)")
        return lines


def violation(kind: str, witnesses: Iterable[str], message: str) -> Violation:
    return Violation(kind=kind, witnesses=tuple(witnesses)[:3], message=message)


def format_violation(kind: str, witnesses: tuple[str, ...], template: str, *args: str) -> Violation:
    """A violation with the message ``template.format(*args)``: as the ``make`` of a
    ``(make, *args)`` witness, only the violations a report keeps are formatted."""
    return violation(kind, witnesses, template.format(*args))
