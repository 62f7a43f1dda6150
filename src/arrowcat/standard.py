"""Conventional objects-and-arrows presentation and conversion to arrow-only form.

The two presentations carry the same information: converting a standard
category to arrow-only form forgets the object names (identity arrows take
their place), and converting back reads every object off its identity.

Validation is split the same way: this module checks only what the
presentation adds and hands the axioms to the arrow-only kernel.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Mapping

from .core import DEFAULT_ISO_CAP, MAX_MORPHISMS, ObjlessCategory, check_cap, check_names, validate_objectless
from .errors import InvalidCategoryError
from .report import (
    IDENTITY_MISSING,
    IDENTITY_NONNEUTRAL,
    NAME_NOT_FOUND,
    TOTALITY,
    TYPING,
    ValidationReport,
    Violation,
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


def _presentation_holds(cat: StdCategory) -> bool:
    """The presentation's checks in one pass of C-level maps, with no report.  Typing
    is two list comparisons.  A table of composable pairs is total exactly when it has
    ``sum(in(B) * out(B))`` entries; then neutrality is two list comparisons too."""
    arrows, table, id_of = cat.arrows, cat.table, cat.id_of
    doms = list(map(itemgetter(0), arrows.values()))
    cods = list(map(itemgetter(1), arrows.values()))
    if not (cat.objects.issuperset(doms) and cat.objects.issuperset(cods) and id_of.keys() == cat.objects):
        return False
    typed_after, typed_before = (list(map(arrows.get, map(itemgetter(k), table))) for k in (0, 1))
    if None in typed_after or None in typed_before:
        return False
    outs, ins = Counter(doms), Counter(cods)
    names = list(arrows)
    return (
        list(map(itemgetter(1), typed_before)) == list(map(itemgetter(0), typed_after))
        and list(map(arrows.get, table.values()))
        == list(zip(map(itemgetter(0), typed_before), map(itemgetter(1), typed_after)))
        and len(table) == sum(map(mul, map(ins.__getitem__, outs), outs.values()))
        and list(map(arrows.get, id_of.values())) == list(zip(id_of, id_of))
        and list(map(table.get, zip(arrows, map(id_of.__getitem__, doms)))) == names
        and list(map(table.get, zip(map(id_of.__getitem__, cods), arrows))) == names
    )


def _presentation_violations(cat: StdCategory) -> list[Violation]:
    """What the presentation adds to the axioms: names, typing of table entries,
    totality on composable pairs, declared identities typed ``B -> B`` and neutral.
    The sorted walk that reports them runs only when the one-pass check fails."""
    check_names(cat.objects)
    check_names(cat.arrows)
    check_cap(MAX_MORPHISMS, cat.arrows)
    if _presentation_holds(cat):
        return []
    arrows = cat.arrows
    violations = []

    for name, (dom, cod) in sorted(arrows.items()):
        for obj in (dom, cod):
            if obj not in cat.objects:
                violations.append(violation(
                    NAME_NOT_FOUND, (name, obj), f"arrow {name} references unknown object {obj}",
                ))

    unknown = set()
    for (after, before), result in cat.table.items():
        unknown.update(part for part in (after, before, result) if part not in arrows)
    for name in sorted(unknown):
        violations.append(violation(
            NAME_NOT_FOUND, (name,), f"table references unknown arrow {name}",
        ))

    # Table entries must be composable pairs with well-typed results.
    for (after, before), result in sorted(cat.table.items()):
        ta, tb, tr = arrows.get(after), arrows.get(before), arrows.get(result)
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
    for after, before in product(sorted(arrows), repeat=2):
        if arrows[before][1] == arrows[after][0] and (after, before) not in cat.table:
            violations.append(violation(
                TOTALITY, (after, before),
                f"composition not defined on composable pair ({after}, {before})",
            ))

    # Identity arrows: declared for known objects, present, typed B -> B,
    # neutral wherever composed.
    for obj in sorted(set(cat.id_of) - cat.objects):
        violations.append(violation(
            NAME_NOT_FOUND, (obj,), f"identity declared for unknown object {obj}",
        ))
    for obj in sorted(cat.objects):
        ident = cat.id_of.get(obj)
        if ident is None:
            violations.append(violation(
                IDENTITY_MISSING, (obj,), f"object {obj} has no identity arrow",
            ))
            continue
        t = arrows.get(ident)
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
        for name, (dom, cod) in sorted(arrows.items()):
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

    return violations


def validate_standard(cat: StdCategory) -> ValidationReport:
    """The report of :func:`to_objectless`: the presentation's violations, or, once
    there are none, the kernel's report on the axioms.  CapacityError above the cap."""
    violations = _presentation_violations(cat)
    if violations:
        return ValidationReport.from_violations(violations)
    return validate_objectless(cat.arrows, cat.table)


def to_objectless(cat: StdCategory) -> ObjlessCategory:
    """Forget the objects: morphisms and table carry over unchanged."""
    violations = _presentation_violations(cat)
    if violations:
        raise InvalidCategoryError(ValidationReport.from_violations(violations))
    result = ObjlessCategory.build(cat.arrows.keys(), cat.table)
    # On typed, total data with neutral declared identities, the kernel
    # infers exactly the declared identities; anything else is a bug.
    if result.identities != frozenset(cat.id_of.values()):
        raise AssertionError("the kernel inferred identities other than the declared ones")
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
    """A pair (object bijection, arrow bijection) transporting left onto right, or None.

    The one decision of the text layer: the isomorphism search is imported only when it runs.
    """
    from .equivalence import find_category_isomorphism

    check_cap(max_morphisms, left.arrows, right.arrows)
    iso = find_category_isomorphism(to_objectless(left), to_objectless(right), max_morphisms)
    if iso is None:
        return None
    arrow_map = dict(iso.mapping)
    ids_right = {ident: obj for obj, ident in right.id_of.items()}
    object_map = {obj: ids_right[arrow_map[ident]] for obj, ident in left.id_of.items()}
    return object_map, arrow_map
