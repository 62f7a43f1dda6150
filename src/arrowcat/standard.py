"""Conventional objects-and-arrows presentation and conversion to arrow-only form.

The two presentations carry the same information: converting a standard
category to arrow-only form forgets the object names (identity arrows take
their place), and converting back reads every object off its identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping

from ._search import DEFAULT_ISO_CAP, check_cap, find_table_bijection
from .core import ObjlessCategory, TableLike, _entries, check_names
from .errors import InvalidCategoryError
from .report import (
    ASSOCIATIVITY_EQUAL,
    ASSOCIATIVITY_EXISTENCE,
    FUNCTIONALITY,
    IDENTITY_MISSING,
    IDENTITY_NONNEUTRAL,
    NAME_NOT_FOUND,
    TYPING,
    ValidationReport,
    violation,
)


@dataclass(frozen=True)
class StdCategory:
    """Objects, typed arrows, a composition table, and one identity arrow per object.

    Unvalidated value type: run :func:`validate_standard` before trusting it.
    """

    objects: frozenset[str]
    arrows: Mapping[str, tuple[str, str]]  # name -> (dom object, cod object)
    table: Mapping[tuple[str, str], str]
    id_of: Mapping[str, str]

    @classmethod
    def make(
        cls,
        objects: Iterable[str],
        arrows: Mapping[str, tuple[str, str]],
        table: Mapping[tuple[str, str], str],
        id_of: Mapping[str, str],
    ) -> "StdCategory":
        return cls(
            objects=frozenset(objects),
            arrows=MappingProxyType(dict(arrows)),
            table=MappingProxyType(dict(table)),
            id_of=MappingProxyType(dict(id_of)),
        )

    def __hash__(self) -> int:
        return hash((
            self.objects,
            tuple(sorted(self.arrows.items())),
            tuple(sorted(self.table.items())),
            tuple(sorted(self.id_of.items())),
        ))


def validate_standard(cat: StdCategory, raw_table: TableLike | None = None) -> ValidationReport:
    """Check typing, totality of composition, associativity, and identity neutrality.

    ``raw_table`` may carry (after, before, result) triples when conflicting
    duplicate entries should be detected; the mapping in ``cat`` cannot hold them.
    """
    check_names(cat.objects)
    check_names(cat.arrows)
    violations = []

    for name, (dom, cod) in sorted(cat.arrows.items()):
        for obj in (dom, cod):
            if obj not in cat.objects:
                violations.append(violation(
                    NAME_NOT_FOUND, (name, obj), f"arrow {name} references unknown object {obj}",
                ))

    if raw_table is not None:
        seen: dict[tuple[str, str], str] = {}
        for after, before, result in _entries(raw_table):
            prior = seen.get((after, before))
            if prior is not None and prior != result:
                violations.append(violation(
                    FUNCTIONALITY, (after, before, result),
                    f"pair ({after}, {before}) maps to both {prior} and {result}",
                ))
            seen[(after, before)] = result

    unknown = set()
    for (after, before), result in cat.table.items():
        unknown.update(part for part in (after, before, result) if part not in cat.arrows)
    for name in sorted(unknown):
        violations.append(violation(
            NAME_NOT_FOUND, (name,), f"table references unknown arrow {name}",
        ))

    def typed(name: str) -> tuple[str, str] | None:
        return cat.arrows.get(name)

    # Table entries must be composable pairs with well-typed results.
    for (after, before), result in sorted(cat.table.items()):
        ta, tb, tr = typed(after), typed(before), typed(result)
        if ta is None or tb is None or tr is None:
            continue
        if tb[1] != ta[0]:
            violations.append(violation(
                TYPING, (after, before), f"{after}.{before} defined but cod({before}) != dom({after})",
            ))
        elif tr != (tb[0], ta[1]):
            violations.append(violation(
                TYPING, (after, before, result),
                f"composite {result} of {after}.{before} is not typed {tb[0]} -> {ta[1]}",
            ))

    # Composition must be total on composable pairs.
    for after, before in product(sorted(cat.arrows), repeat=2):
        ta, tb = typed(after), typed(before)
        if ta is None or tb is None or tb[1] != ta[0]:
            continue
        if (after, before) not in cat.table:
            violations.append(violation(
                ASSOCIATIVITY_EXISTENCE, (after, before),
                f"composition not defined on composable pair ({after}, {before})",
            ))

    # Associativity on composable triples, where all entries are present.
    after_of: dict[str, list[str]] = {}
    for (g, b) in cat.table:
        after_of.setdefault(b, []).append(g)
    for (b, a), ba in cat.table.items():
        for g in after_of.get(b, ()):
            gb = cat.table[(g, b)]
            left = cat.table.get((g, ba))
            right = cat.table.get((gb, a))
            if left is not None and right is not None and left != right:
                violations.append(violation(
                    ASSOCIATIVITY_EQUAL, (g, b, a),
                    f"{g}.({b}.{a}) = {left} but ({g}.{b}).{a} = {right}",
                ))

    # Identity arrows: present, typed B -> B, neutral wherever composed.
    for obj in sorted(cat.objects):
        ident = cat.id_of.get(obj)
        if ident is None:
            violations.append(violation(
                IDENTITY_MISSING, (obj,), f"object {obj} has no identity arrow",
            ))
            continue
        t = typed(ident)
        if t is None:
            violations.append(violation(
                NAME_NOT_FOUND, (ident,), f"identity of {obj} names unknown arrow {ident}",
            ))
            continue
        if t != (obj, obj):
            violations.append(violation(
                TYPING, (ident, obj), f"identity arrow {ident} of {obj} is not typed {obj} -> {obj}",
            ))
            continue
        for name, (dom, cod) in sorted(cat.arrows.items()):
            if dom == obj:
                got = cat.table.get((name, ident))
                if got is not None and got != name:
                    violations.append(violation(
                        IDENTITY_NONNEUTRAL, (ident, name), f"{name}.{ident} = {got}, expected {name}",
                    ))
            if cod == obj:
                got = cat.table.get((ident, name))
                if got is not None and got != name:
                    violations.append(violation(
                        IDENTITY_NONNEUTRAL, (ident, name), f"{ident}.{name} = {got}, expected {name}",
                    ))

    return ValidationReport.from_violations(violations)


def to_objectless(cat: StdCategory) -> ObjlessCategory:
    """Forget the objects: morphisms and table carry over unchanged."""
    report = validate_standard(cat)
    if not report.ok:
        raise InvalidCategoryError(report)
    result = ObjlessCategory.build(cat.arrows.keys(), cat.table)
    assert result.identities == frozenset(cat.id_of.values())
    return result


def to_standard(cat: ObjlessCategory) -> StdCategory:
    """Read objects off the identities; each object is named by its identity."""
    arrows = {m: (cat.dom[m], cat.cod[m]) for m in cat.morphisms}
    return StdCategory.make(
        objects=cat.identities,
        arrows=arrows,
        table=dict(cat.table),
        id_of={i: i for i in cat.identities},
    )


def equal_up_to_renaming(
    left: StdCategory,
    right: StdCategory,
    max_morphisms: int = DEFAULT_ISO_CAP,
) -> tuple[dict[str, str], dict[str, str]] | None:
    """A pair (object bijection, arrow bijection) transporting left onto right, or None."""
    check_cap(max_morphisms, left.arrows, right.arrows)
    obj_less_left = to_objectless(left)
    obj_less_right = to_objectless(right)
    arrow_map = find_table_bijection(obj_less_left, obj_less_right)
    if arrow_map is None:
        return None
    ids_right = {ident: obj for obj, ident in right.id_of.items()}
    object_map = {obj: ids_right[arrow_map[ident]] for obj, ident in left.id_of.items()}
    return object_map, arrow_map
