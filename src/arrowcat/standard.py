"""Conventional objects-and-arrows presentation and conversion to arrow-only form.

The two presentations carry the same information: converting a standard
category to arrow-only form forgets the object names (identity arrows take
their place), and converting back reads every object off its identity.

Validation is split the same way: this module checks only what the
presentation adds and hands the axioms to the arrow-only kernel.  Each check
finds its faults in C-level passes (set inclusion, aligned lists of typings, a
count of the composable pairs, two lists of identity composites); only the
failing entries are sorted, and only the violations a report shows are formatted.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, itemgetter, mul, ne
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
    format_violation,
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


_UNKNOWN = (object(), object())  # the typing of an unknown arrow: no entry with one is composable


def _presentation_violations(cat: StdCategory) -> list[tuple]:
    """What the presentation adds to the axioms, as ``(make, *args)`` witnesses in report
    order: unknown objects and arrows, typing of table entries, totality on composable
    pairs, declared identities typed ``B -> B`` and neutral.  Each check finds its faults
    in C-level passes; only the failing entries and objects are sorted and walked."""
    check_names(cat.objects)
    check_names(cat.arrows)
    check_cap(MAX_MORPHISMS, cat.arrows)
    # Dict lookups: faster than through the read-only proxies.
    objects, arrows, table, id_of = cat.objects, cat.arrows.copy(), cat.table, cat.id_of.copy()
    doms, cods = list(map(itemgetter(0), arrows.values())), list(map(itemgetter(1), arrows.values()))
    found = []
    if not (objects.issuperset(doms) and objects.issuperset(cods)):
        found += [(format_violation, NAME_NOT_FOUND, (name, obj), "arrow {} references unknown object {}", name, obj)
                  for name, pair in sorted(arrows.items()) for obj in dict.fromkeys(pair) if obj not in objects]

    # Table entries must be composable pairs, cod(before) = dom(after), with results typed
    # dom(before) -> cod(after): two pairs of aligned lists, which an unknown arrow fails.
    after_t, before_t = (list(map(arrows.get, map(itemgetter(k), table), repeat(_UNKNOWN))) for k in (0, 1))
    joints = list(map(itemgetter(1), before_t)), list(map(itemgetter(0), after_t))
    spans = zip(map(itemgetter(0), before_t), map(itemgetter(1), after_t))
    results = list(map(arrows.get, table.values())), list(spans)
    composable = len(table)
    if joints[0] != joints[1] or results[0] != results[1]:
        composable = sum(map(eq, *joints))
        failing = sorted(compress(table.items(), map(ne, zip(joints[0], results[0]), zip(joints[1], results[1]))))
        found += [(format_violation, NAME_NOT_FOUND, (name,), "table references unknown arrow {}", name)
                  for name in sorted({part for key, result in failing for part in (*key, result)} - arrows.keys())]
        for (after, before), result in failing:
            ta, tb, tr = arrows.get(after), arrows.get(before), arrows.get(result)
            if not (ta and tb and tr):
                continue
            found.append((format_violation, TYPING, (after, before), "{}.{} defined but cod({}) != dom({})",
                          after, before, before, after) if tb[1] != ta[0] else
                         (format_violation, TYPING, (after, before, result),
                          "composite {} of {}.{} is not typed {} -> {}", result, after, before, tb[0], ta[1]))

    # Composition must be total on composable pairs: there are sum(in(B) * out(B)) of them.
    outs, ins = Counter(doms), Counter(cods)
    if composable != sum(map(mul, map(ins.__getitem__, outs), outs.values())):
        out_of = {}
        for name, dom in zip(arrows, doms):
            out_of.setdefault(dom, []).append(name)
        found += [(format_violation, TOTALITY, pair, "composition not defined on composable pair ({}, {})", *pair)
                  for pair in sorted((after, before) for before, cod in zip(arrows, cods)
                                     for after in out_of.get(cod, ()) if (after, before) not in table)]

    # Identity arrows: declared for known objects, present, typed B -> B, neutral wherever
    # composed.  Only the objects that fail one of these, or whose identity composes with
    # some arrow to another arrow, are walked.
    found += [(format_violation, NAME_NOT_FOUND, (obj,), "identity declared for unknown object {}", obj)
              for obj in sorted(id_of.keys() - objects)]
    walk = set(objects.difference(id_of))
    walk.update(compress(id_of, map(ne, map(arrows.get, id_of.values()), zip(id_of, id_of))))
    walk.update(compress(doms, map(ne, map(table.get, zip(arrows, map(id_of.get, doms))), arrows)))
    walk.update(compress(cods, map(ne, map(table.get, zip(map(id_of.get, cods), arrows)), arrows)))
    ordered = sorted(arrows.items()) if walk else ()
    for obj in sorted(walk.intersection(objects)):
        ident = id_of.get(obj)
        if ident is None:
            found.append((format_violation, IDENTITY_MISSING, (obj,), "object {} has no identity arrow", obj))
        elif ident not in arrows:
            found.append((format_violation, NAME_NOT_FOUND, (ident,), "identity of {} names unknown arrow {}",
                          obj, ident))
        elif arrows[ident] != (obj, obj):
            found.append((format_violation, TYPING, (ident, obj), "identity arrow {} of {} is not typed {} -> {}",
                          ident, obj, obj, obj))
        else:
            for name, (dom, cod) in ordered:
                for side, composite in ((dom, (name, ident)), (cod, (ident, name))):
                    if side == obj and table.get(composite, name) != name:
                        found.append((format_violation, IDENTITY_NONNEUTRAL, (ident, name), "{}.{} = {}, expected {}",
                                      *composite, table[composite], name))
    return found


def validate_standard(cat: StdCategory) -> ValidationReport:
    """The report of :func:`to_objectless`: the presentation's violations, or, once
    there are none, the kernel's report on the axioms.  CapacityError above the cap."""
    found = _presentation_violations(cat)
    if found:
        return ValidationReport.from_witnesses(found)
    return validate_objectless(cat.arrows, cat.table)


def to_objectless(cat: StdCategory) -> ObjlessCategory:
    """Forget the objects: morphisms and table carry over unchanged."""
    found = _presentation_violations(cat)
    if found:
        raise InvalidCategoryError(ValidationReport.from_witnesses(found))
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
