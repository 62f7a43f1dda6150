"""Arrow-only finite categories.

A category is stored as a finite set of morphism names together with a partial
composition table keyed ``(after, before) -> result``, meaning the composite
"after applied after before" is defined and equal to ``result``.  Identities
are never declared: they are recovered from the table as the morphisms that
are neutral in every composition they take part in.  Domains and codomains are
the unique identities each morphism composes with on the right and on the
left.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    CapacityError,
    InvalidCategoryError,
    MalformedNameError,
    NameNotFoundError,
    NotAnIdentityError,
)
from .report import (
    ASSOCIATIVITY_EQUAL,
    ASSOCIATIVITY_EXISTENCE,
    FUNCTIONALITY,
    IDENTITY_MISSING,
    IDENTITY_NONUNIQUE,
    ValidationReport,
    violation,
)

MAX_MORPHISMS = 4096

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# A table is given either as a mapping or as (after, before, result) triples;
# the triple form can carry conflicting duplicates, which the mapping form cannot.
TableLike = Mapping[tuple[str, str], str] | Iterable[tuple[str, str, str]]


def is_wellformed_name(name: str) -> bool:
    return bool(_NAME_RE.match(name))


def check_names(names: Iterable[str]) -> None:
    for name in names:
        if not is_wellformed_name(name):
            raise MalformedNameError(f"malformed name: {name!r}")


def _entries(table: TableLike) -> list[tuple[str, str, str]]:
    if isinstance(table, Mapping):
        return [(after, before, result) for (after, before), result in table.items()]
    return [tuple(entry) for entry in table]  # type: ignore[misc]


def neutral_morphisms(morphisms: Iterable[str], table: Mapping[tuple[str, str], str]) -> set[str]:
    """Morphisms that act neutrally in every composition they appear in.

    An entry ``(after, before) -> result`` rules out ``before`` unless
    ``result == after`` and rules out ``after`` unless ``result == before``.
    """
    non_neutral: set[str] = set()
    for (after, before), result in table.items():
        if result != after:
            non_neutral.add(before)
        if result != before:
            non_neutral.add(after)
    return set(morphisms) - non_neutral


def validate_objectless(morphisms: Iterable[str], table: TableLike) -> ValidationReport:
    """Check the associativity and identity-existence axioms on raw data.

    Returns a total report: all violations are collected (bounded), nothing
    raises on axiom failure.  Undeclared or malformed names are programming
    errors and raise instead of being reported.
    """
    names = frozenset(morphisms)
    check_names(names)
    if len(names) > MAX_MORPHISMS:
        raise CapacityError(f"{len(names)} morphisms exceeds cap of {MAX_MORPHISMS}")
    entries = _entries(table)
    for after, before, result in entries:
        for name in (after, before, result):
            if name not in names:
                raise NameNotFoundError(f"table references undeclared morphism {name!r}")

    violations = []

    # Functionality: no pair may map to two different results.
    t: dict[tuple[str, str], str] = {}
    for after, before, result in entries:
        prior = t.get((after, before))
        if prior is not None and prior != result:
            violations.append(violation(
                FUNCTIONALITY, (after, before, result),
                f"pair ({after}, {before}) maps to both {prior} and {result}",
            ))
        else:
            t[(after, before)] = result

    # after_of[b] = all g with (g, b) defined; before_of[b] = all a with (b, a) defined.
    after_of: dict[str, list[str]] = defaultdict(list)
    before_of: dict[str, list[str]] = defaultdict(list)
    for (g, b) in t:
        after_of[b].append(g)
        before_of[g].append(b)

    # Associativity, equality part: whenever b.a and g.b are defined,
    # g.(b.a) and (g.b).a must be defined and equal.
    for (b, a), ba in t.items():
        for g in after_of[b]:
            gb = t[(g, b)]
            left = t.get((g, ba))
            right = t.get((gb, a))
            if left is None or right is None:
                missing = f"{g}.({b}.{a})" if left is None else f"({g}.{b}).{a}"
                violations.append(violation(
                    ASSOCIATIVITY_EXISTENCE, (g, b, a),
                    f"{missing} undefined although {b}.{a} and {g}.{b} are defined",
                ))
            elif left != right:
                violations.append(violation(
                    ASSOCIATIVITY_EQUAL, (g, b, a),
                    f"{g}.({b}.{a}) = {left} but ({g}.{b}).{a} = {right}",
                ))

    # Associativity, partial-existence part: if g.(b.a) is defined then g.b is;
    # if (g.b).a is defined then b.a is.
    for (b, a), ba in t.items():
        for g in after_of[ba]:
            if (g, b) not in t:
                violations.append(violation(
                    ASSOCIATIVITY_EXISTENCE, (g, b, a),
                    f"{g}.({b}.{a}) is defined but {g}.{b} is not",
                ))
    for (g, b), gb in t.items():
        for a in before_of[gb]:
            if (b, a) not in t:
                violations.append(violation(
                    ASSOCIATIVITY_EXISTENCE, (g, b, a),
                    f"({g}.{b}).{a} is defined but {b}.{a} is not",
                ))

    # Identity existence: every morphism needs a neutral partner on each side.
    neutral = neutral_morphisms(names, t)
    for m in sorted(names):
        dom_witnesses = sorted(i for i in neutral if (m, i) in t)
        cod_witnesses = sorted(i for i in neutral if (i, m) in t)
        if not dom_witnesses:
            violations.append(violation(
                IDENTITY_MISSING, (m,),
                f"no identity i with {m}.i defined and i neutral",
            ))
        elif len(dom_witnesses) > 1:
            violations.append(violation(
                IDENTITY_NONUNIQUE, (m, *dom_witnesses[:2]),
                f"{m} composes with {len(dom_witnesses)} neutral morphisms on the right",
            ))
        if not cod_witnesses:
            violations.append(violation(
                IDENTITY_MISSING, (m,),
                f"no identity i with i.{m} defined and i neutral",
            ))
        elif len(cod_witnesses) > 1:
            violations.append(violation(
                IDENTITY_NONUNIQUE, (m, *cod_witnesses[:2]),
                f"{len(cod_witnesses)} neutral morphisms compose with {m} on the left",
            ))

    return ValidationReport.from_violations(violations)


def infer_identities(morphisms: Iterable[str], table: Mapping[tuple[str, str], str]) -> frozenset[str]:
    """Identities of validated data: neutral morphisms that compose with themselves."""
    neutral = neutral_morphisms(morphisms, table)
    return frozenset(m for m in neutral if (m, m) in table)


@dataclass(frozen=True)
class CompositionProfile:
    """Which morphisms an identity composes with, on either side."""

    right_partners: frozenset[str]
    left_partners: frozenset[str]


@dataclass(frozen=True)
class ObjlessCategory:
    """A validated arrow-only category; construct via :meth:`build`.

    Values are immutable; ``identities``, ``dom`` and ``cod`` are caches
    derived from ``morphisms`` and ``table`` alone.
    """

    morphisms: frozenset[str]
    table: Mapping[tuple[str, str], str]
    identities: frozenset[str]
    dom: Mapping[str, str]
    cod: Mapping[str, str]

    @classmethod
    def build(cls, morphisms: Iterable[str], table: TableLike) -> "ObjlessCategory":
        report = validate_objectless(morphisms, table)
        if not report.ok:
            raise InvalidCategoryError(report)
        names = frozenset(morphisms)
        t = {(after, before): result for after, before, result in _entries(table)}
        identities = infer_identities(names, t)
        dom = {}
        cod = {}
        for m in names:
            dom[m] = next(i for i in identities if (m, i) in t)
            cod[m] = next(i for i in identities if (i, m) in t)
        return cls(
            morphisms=names,
            table=MappingProxyType(t),
            identities=identities,
            dom=MappingProxyType(dom),
            cod=MappingProxyType(cod),
        )

    def __hash__(self) -> int:
        return hash((self.morphisms, tuple(sorted(self.table.items()))))

    def __len__(self) -> int:
        return len(self.morphisms)

    def _require(self, name: str) -> None:
        if name not in self.morphisms:
            raise NameNotFoundError(f"unknown morphism {name!r}")

    def _require_identity(self, name: str) -> None:
        self._require(name)
        if name not in self.identities:
            raise NotAnIdentityError(f"{name!r} is not an identity")

    def is_identity(self, name: str) -> bool:
        self._require(name)
        return name in self.identities

    def dom_id(self, name: str) -> str:
        """The unique identity i with name.i defined."""
        self._require(name)
        return self.dom[name]

    def cod_id(self, name: str) -> str:
        """The unique identity i with i.name defined."""
        self._require(name)
        return self.cod[name]

    def compose(self, after: str, before: str) -> str | None:
        """The composite after.before, or None when undefined."""
        self._require(after)
        self._require(before)
        return self.table.get((after, before))

    def hom_class(self, src: str, dst: str) -> frozenset[str]:
        """All morphisms with domain identity ``src`` and codomain identity ``dst``."""
        self._require_identity(src)
        self._require_identity(dst)
        return frozenset(m for m in self.morphisms if self.dom[m] == src and self.cod[m] == dst)

    def composition_profile(self, ident: str) -> CompositionProfile:
        self._require_identity(ident)
        return CompositionProfile(
            right_partners=frozenset(g for (g, b) in self.table if b == ident),
            left_partners=frozenset(b for (g, b) in self.table if g == ident),
        )

    def discernible(self, ident1: str, ident2: str) -> bool:
        """True iff the two identities have different composition profiles."""
        return self.composition_profile(ident1) != self.composition_profile(ident2)

    def full_subcategory(self, identities: Iterable[str]) -> "ObjlessCategory":
        """The full subcategory on some identities; valid as a restriction of valid data."""
        keep = frozenset(identities)
        for ident in keep:
            self._require_identity(ident)
        arrows = frozenset(m for m in self.morphisms if self.dom[m] in keep and self.cod[m] in keep)
        table = {(g, f): r for (g, f), r in self.table.items() if g in arrows and f in arrows}
        return ObjlessCategory(
            morphisms=arrows, table=MappingProxyType(table), identities=keep,
            dom=MappingProxyType({m: self.dom[m] for m in arrows}),
            cod=MappingProxyType({m: self.cod[m] for m in arrows}),
        )

    def opposite(self) -> "ObjlessCategory":
        """Reverse all compositions; domains and codomains swap."""
        t = {(b, a): r for (a, b), r in self.table.items()}
        return ObjlessCategory(
            morphisms=self.morphisms,
            table=MappingProxyType(t),
            identities=self.identities,
            dom=self.cod,
            cod=self.dom,
        )
