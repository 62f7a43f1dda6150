"""Exception hierarchy shared across the package."""
from __future__ import annotations


class ArrowCatError(Exception):
    """Base class for all arrowcat errors."""


class NameNotFoundError(ArrowCatError):
    """A morphism, object, or entity name does not exist where it is required."""


class NotAnIdentityError(ArrowCatError):
    """An operation restricted to identity morphisms received a non-identity."""


class MalformedNameError(ArrowCatError):
    """A name violates the lexical rules (letters, digits, underscore, no leading digit)."""


class CapacityError(ArrowCatError):
    """Input exceeds a configured size cap."""


class InvalidCategoryError(ArrowCatError):
    """Raised when constructing a category value from data that fails validation.

    Carries the full validation report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        first = report.violations[0].message if report.violations else "unknown violation"
        extra = report.total - 1
        suffix = f" (+{extra} more)" if extra > 0 else ""
        super().__init__(f"invalid category: {first}{suffix}")


class GeneratorError(ArrowCatError):
    """Generator input is not well-formed (non-poset relation, non-associative table, ...)."""


class NotMonotoneError(ArrowCatError):
    """A map between posets is not monotone."""


class InapplicableScopeError(ArrowCatError):
    """A limit-preservation scope names limits the source category does not possess."""

    def __init__(self, kind: str, diagram: tuple[str, ...], message: str):
        self.kind = kind
        self.diagram = diagram
        super().__init__(message)


class WiringError(ArrowCatError):
    """Adjunction data whose functors or transformations are not wired F: D->C, G: C->D."""
