"""Shared fixtures, generators, and independent oracles for the test suite.

The oracle helpers re-derive facts straight from the composition table with
no shortcuts, so the library code they check never computes them the same way.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Iterable

import pytest

from arrowcat.core import (
    MAX_MORPHISMS,
    ObjlessCategory,
    TableLike,
    _entries,
    check_cap,
    check_names,
    neutral_morphisms,
    validate_objectless,
)
from arrowcat.errors import CapacityError, NameNotFoundError, WiringError
from arrowcat.functors import FunctorMap, validate_functor
from arrowcat.generators import Poset, gen_random, poset_arrow
from arrowcat.equivalence import NatTransf
from arrowcat.standard import StdCategory
from arrowcat.report import (
    ASSOCIATIVITY_EQUAL,
    ASSOCIATIVITY_EXISTENCE,
    COMPOSITION_LAW,
    FUNCTIONALITY,
    IDENTITY_LAW,
    IDENTITY_MISSING,
    IDENTITY_NONNEUTRAL,
    IDENTITY_NONUNIQUE,
    NAME_NOT_FOUND,
    NATURALITY,
    TOTALITY,
    TYPING,
    ValidationReport,
    violation,
)

import catalog as fx


def brute_neutral(morphisms, table) -> set[str]:
    """Morphisms neutral in every defined composition, by direct scan."""
    result = set()
    for m in morphisms:
        ok = True
        for (after, before), r in table.items():
            if before == m and r != after:
                ok = False
            if after == m and r != before:
                ok = False
        if ok:
            result.add(m)
    return result


def brute_identities(cat: ObjlessCategory) -> set[str]:
    """Identity morphisms: neutral and self-composable."""
    return {
        m for m in brute_neutral(cat.morphisms, cat.table)
        if (m, m) in cat.table
    }


def brute_inverses(cat: ObjlessCategory, f: str) -> list[str]:
    """All two-sided inverses of f, by scanning every morphism."""
    out = []
    for g in sorted(cat.morphisms):
        gf = cat.table.get((g, f))
        fg = cat.table.get((f, g))
        if gf is not None and fg is not None and gf == cat.dom[f] and fg == cat.cod[f]:
            out.append(g)
    return out


def brute_iso_related(cat: ObjlessCategory, a: str, b: str) -> bool:
    """Direct isomorphism between two identities, scanning all morphisms."""
    for f in cat.morphisms:
        if cat.dom[f] == a and cat.cod[f] == b and brute_inverses(cat, f):
            return True
    return False


def thick_preorder(levels: list[int]) -> ObjlessCategory:
    """One arrow x -> y whenever levels[x] <= levels[y]: the objects of a level are isomorphic."""
    objs = range(len(levels))
    arrows = [f"t{x}_{y}" for x in objs for y in objs if levels[x] <= levels[y]]
    table = {(f"t{y}_{z}", f"t{x}_{y}"): f"t{x}_{z}"
             for x in objs for y in objs for z in objs if levels[x] <= levels[y] <= levels[z]}
    return ObjlessCategory.build(arrows, table)


def brute_homs(cat: ObjlessCategory, x: str, y: str) -> list[str]:
    """The morphisms x -> y in name order, by scanning every morphism."""
    return [m for m in sorted(cat.morphisms) if cat.dom[m] == x and cat.cod[m] == y]


def brute_cones(cat: ObjlessCategory, kind: str, diagram: tuple[str, ...], x: str) -> list[tuple[str, ...]]:
    """Every cone at stage x over a diagram, in name order: the empty cone for a
    terminal object, a pair (f, g) into the identities (a, b) of a product, or
    (h,) into the domain of an equalizer's pair with f.h = g.h."""
    if kind == "terminal":
        return [()]
    if kind == "product":
        a, b = diagram
        return [(f, g) for f in brute_homs(cat, x, a) for g in brute_homs(cat, x, b)]
    f, g = diagram
    return [(h,) for h in brute_homs(cat, x, cat.dom[f]) if cat.table[(f, h)] == cat.table[(g, h)]]


def brute_is_limit(cat: ObjlessCategory, kind: str, diagram: tuple[str, ...], apex: str,
                   legs: tuple[str, ...]) -> bool:
    """The legs are a cone at the apex, and every cone at every stage factors
    through them by exactly one morphism into the apex."""
    if legs not in brute_cones(cat, kind, diagram, apex):
        return False
    for x in sorted(cat.identities):
        into = brute_homs(cat, x, apex)
        for cone in brute_cones(cat, kind, diagram, x):
            if sum(tuple(cat.table[(leg, h)] for leg in legs) == cone for h in into) != 1:
                return False
    return True


def brute_limits(cat: ObjlessCategory, kind: str, diagram: tuple[str, ...]) -> list[tuple[str, tuple[str, ...]]]:
    """Every limit cone (apex, legs) over a diagram, apexes and then legs in name order."""
    return [(apex, legs) for apex in sorted(cat.identities) for legs in brute_cones(cat, kind, diagram, apex)
            if brute_is_limit(cat, kind, diagram, apex, legs)]


def brute_preserves(f: FunctorMap, scope: tuple[str, ...]):
    """What limit preservation answers, by brute cone checks: ``(kind, diagram)``
    of the first missing source limit, or the failures as ``(kind, diagram,
    counterexample)`` and the counts checked."""
    src, dst, image = f.source, f.target, f.mapping
    idents = sorted(src.identities)
    terminals = [t for t, _ in brute_limits(src, "terminal", ())] if "terminal" in scope else []
    if "terminal" in scope and not terminals:
        return "terminal", ()
    diagrams = []
    if "products" in scope:
        diagrams += [("product", (a, b)) for i, a in enumerate(idents) for b in idents[i:]]
    if "equalizers" in scope:
        diagrams += [("equalizer", (p, q)) for x in idents for y in idents
                     for i, p in enumerate(brute_homs(src, x, y)) for q in brute_homs(src, x, y)[i:]]
    cones = []
    for kind, diagram in diagrams:
        found = brute_limits(src, kind, diagram)
        if not found:
            return kind, diagram
        cones.append((kind, diagram, *found[0]))
    failures = []
    for t in terminals:
        stages = [x for x in sorted(dst.identities) if len(brute_homs(dst, x, image[t])) != 1]
        if stages:
            failures.append(("terminal", (t,), stages[0]))
    for kind, diagram, apex, legs in cones:
        mapped = tuple(image[m] for m in diagram)
        if not brute_is_limit(dst, kind, mapped, image[apex], tuple(image[leg] for leg in legs)):
            failures.append((kind, diagram, image[apex]))
    checked = {"terminal": len(terminals), "products": sum(c[0] == "product" for c in cones),
               "equalizers": sum(c[0] == "equalizer" for c in cones)}
    return failures, checked


def brute_functors(src: ObjlessCategory, dst: ObjlessCategory) -> list[dict[str, str]]:
    """Every functor src -> dst: each morphism map at all, kept when it validates."""
    names = sorted(src.morphisms)
    found = []
    for images in product(sorted(dst.morphisms), repeat=len(names)):
        mapping = dict(zip(names, images))
        if validate_functor(FunctorMap(source=src, target=dst, mapping=mapping)).ok:
            found.append(mapping)
    return found


def brute_standard_ok(std) -> bool:
    """A standard-form category is valid: typing, totality, neutral declared
    identities and associativity over every composable triple, by direct scan."""
    arrows, table = std.arrows, std.table
    if any(obj not in std.objects for pair in arrows.values() for obj in pair):
        return False
    for (g, f), r in table.items():
        if g not in arrows or f not in arrows or r not in arrows:
            return False
        if arrows[f][1] != arrows[g][0] or arrows[r] != (arrows[f][0], arrows[g][1]):
            return False
    for g in arrows:
        for f in arrows:
            if arrows[f][1] == arrows[g][0] and (g, f) not in table:
                return False
    if set(std.id_of) != set(std.objects):
        return False
    for obj, ident in std.id_of.items():
        if arrows.get(ident) != (obj, obj):
            return False
        for m in arrows:
            if arrows[m][0] == obj and table[(m, ident)] != m:
                return False
            if arrows[m][1] == obj and table[(ident, m)] != m:
                return False
    for h in arrows:
        for g in arrows:
            if arrows[g][1] != arrows[h][0]:
                continue
            for f in arrows:
                if arrows[f][1] == arrows[g][0] and table[(h, table[(g, f)])] != table[(table[(h, g)], f)]:
                    return False
    return True


# The string-keyed kernel that the column-at-once validator replaced, kept as
# its reference: it walks every composable triple with tuple-keyed lookups.
def reference_validate_objectless(morphisms: Iterable[str], table: TableLike) -> ValidationReport:
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


# The sorted-walk functor and transformation validators, kept as references
# for the one-pass validators that check each law once over all its entries
# and sort and format only the entries that fail it.
def reference_validate_functor(f: FunctorMap) -> ValidationReport:
    """Totality, identity preservation, and the variance-appropriate composition law."""
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


def reference_validate_nat(nat: NatTransf) -> ValidationReport:
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


# The sorted-walk presentation checks of standard-form validation, with the
# kernel behind them, kept as the reference for ``validate_standard``, which
# finds each fault in C-level passes and walks only the failing entries.  One
# line differs: this walk reports an arrow ``e: B -> B`` with ``B`` unknown twice.
def reference_validate_standard(cat: StdCategory) -> ValidationReport:
    check_names(cat.objects)
    check_names(cat.arrows)
    check_cap(MAX_MORPHISMS, cat.arrows)
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

    if violations:
        return ValidationReport.from_violations(violations)
    return validate_objectless(cat.arrows, cat.table)


# The joined-loop closure and thin-category table, kept as references for the
# up-set closure of ``Poset.from_covers`` and the indexed join of ``gen_poset``.
def reference_from_covers(elements: Iterable[str], covers: Iterable[tuple[str, str]]) -> frozenset:
    leq = {(x, x) for x in elements}
    leq.update(covers)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(leq):
            for (y2, z) in list(leq):
                if y2 == y and (x, z) not in leq:
                    leq.add((x, z))
                    changed = True
    return frozenset(leq)


def reference_poset_category(poset: Poset) -> tuple[list[str], dict[tuple[str, str], str]]:
    morphisms = [poset_arrow(x, y) for (x, y) in poset.leq]
    table = {}
    for (x, y) in poset.leq:
        for (y2, z) in poset.leq:
            if y2 == y:
                table[(poset_arrow(y, z), poset_arrow(x, y))] = poset_arrow(x, z)
    return morphisms, table


def random_pool(count: int, max_morphisms: int, offset: int = 0) -> list[ObjlessCategory]:
    return [gen_random(seed, max_morphisms) for seed in range(offset, offset + count)]


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # Expose each phase's outcome on the item so the acceptance suite can
    # print one pass/fail line per criterion during teardown.
    outcome = yield
    report = outcome.get_result()
    setattr(item, "outcome_" + report.when, report)


@pytest.fixture(scope="session")
def pool() -> dict[str, ObjlessCategory]:
    return fx.fixture_pool()


@pytest.fixture(scope="session")
def small_pool() -> dict[str, ObjlessCategory]:
    return fx.small_fixture_pool()
