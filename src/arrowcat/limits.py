"""Terminal objects, generalized elements, binary products, equalizers,
and finite-limit preservation by functors.

A cone ``(apex, legs)`` over a diagram is universal, a limit, iff at every
stage ``x`` the map ``h -> (leg.h, ...)`` is a bijection from ``hom(x, apex)``
onto the cones over the diagram at ``x``.  Each ``leg.h`` is itself a cone at
``x``, so the map lands among them, and a map between finite sets is a
bijection iff its domain, its image and its codomain have one size.  So one
check, ``_refuting_stage``, compares three sizes for all three kinds.  A
terminal object has no legs and one cone at each stage.  A product of
``(a, b)`` has ``|hom(x, a)|·|hom(x, b)|`` cones at ``x``.  An equalizer of
``(f, g)`` has one for each ``h`` in ``hom(x, dom f)`` with ``f.h = g.h``,
once its own leg equalizes the pair.  The image is counted only when more
than one morphism goes into the apex; with fewer it is as large as
``hom(x, apex)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Mapping

from .core import ObjlessCategory
from .errors import InapplicableScopeError, WiringError
from .functors import FunctorMap, require_functor

LIMIT_KINDS = ("terminal", "products", "equalizers")


@dataclass(frozen=True)
class LimitCone:
    """A verified-universal cone: apex identity plus one leg per diagram node."""

    kind: str
    apex: str
    legs: tuple[str, ...]
    diagram: tuple[str, ...]


def _stages(cat: ObjlessCategory) -> list[str]:
    """Stages in a fixed order, so the work is the same under every hash seed; reversed, as the apex
    loops go in name order and stop at the universal apex, the likeliest stage to refute earlier ones."""
    return sorted(cat.identities, reverse=True)


def _refuting_stage(cat: ObjlessCategory, apex: str, legs: tuple[str, ...], diagram: tuple[str, ...],
                    stages: list[str]) -> str | None:
    """A stage that refutes the universality of the cone ``(apex, legs)`` over ``diagram``, or None.

    No legs make a terminal object, two legs a product of identities ``(a, b)``, one leg an equalizer
    of a parallel pair ``(f, g)``.  A leg that does not equalize the pair is refuted at its apex."""
    table = cat.table
    if len(legs) == 1 and table[diagram[0], legs[0]] != table[diagram[1], legs[0]]:
        return apex
    for x in stages:
        into = cat.hom_class(x, apex)
        if not legs:
            cones = 1
        elif len(legs) == 2:
            into_a = cat.hom_class(x, diagram[0])
            cones = len(into_a) * len(cat.hom_class(x, diagram[1])) if into_a else 0
        else:
            f, g = diagram
            cones = sum(table[f, h] == table[g, h] for h in cat.hom_class(x, cat.dom[f]))
        if len(into) != cones or cones > 1 and len({tuple(table[leg, h] for leg in legs) for h in into}) != cones:
            return x
    return None


def terminal_objects(cat: ObjlessCategory) -> frozenset[str]:
    """Identities receiving exactly one morphism from every identity."""
    stages = _stages(cat)
    return frozenset(t for t in stages if _refuting_stage(cat, t, (), (), stages) is None)


def generalized_elements(cat: ObjlessCategory, target: str, stage: str) -> frozenset[str]:
    """Morphisms stage -> target; at a terminal stage these are the global elements."""
    return cat.hom_class(stage, target)


def binary_product(cat: ObjlessCategory, a: str, b: str) -> LimitCone | None:
    """A universal cone over (a, b), or None; deterministic first find."""
    cat._require_identity(a)
    cat._require_identity(b)
    stages = _stages(cat)
    for apex in sorted(cat.identities):
        for p in sorted(cat.hom_class(apex, a)):
            for q in sorted(cat.hom_class(apex, b)):
                if _refuting_stage(cat, apex, (p, q), (a, b), stages) is None:
                    return LimitCone(kind="product", apex=apex, legs=(p, q), diagram=(a, b))
    return None


def equalizer(cat: ObjlessCategory, f: str, g: str) -> LimitCone | None:
    """A universal cone equalizing the parallel pair (f, g), or None."""
    if cat.dom_id(f) != cat.dom_id(g) or cat.cod_id(f) != cat.cod_id(g):
        raise ValueError(f"{f} and {g} are not parallel")
    src = cat.dom[f]
    stages = _stages(cat)
    for apex in sorted(cat.identities):
        for leg in sorted(cat.hom_class(apex, src)):
            if _refuting_stage(cat, apex, (leg,), (f, g), stages) is None:
                return LimitCone(kind="equalizer", apex=apex, legs=(leg,), diagram=(f, g))
    return None


@dataclass(frozen=True)
class LimitFailure:
    kind: str
    diagram: tuple[str, ...]
    image_apex: str
    counterexample: str
    message: str


@dataclass(frozen=True)
class LimitsReport:
    ok: bool
    failures: tuple[LimitFailure, ...]
    checked: Mapping[str, int]

    def lines(self) -> list[str]:
        if self.ok:
            counts = ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items()))
            return [f"ok ({counts})"]
        return [f"failure[{f.kind}] diagram=({', '.join(f.diagram)}): {f.message}" for f in self.failures]


def _diagrams(cat: ObjlessCategory, scope: tuple[str, ...]):
    """Each scoped product and equalizer diagram as ``(kind, diagram, cone or None)``, lazily:
    the pairs of identities in name order, then the parallel pairs by hom class."""
    if "products" in scope:
        for a, b in combinations_with_replacement(sorted(cat.identities), 2):
            yield "product", (a, b), binary_product(cat, a, b)
    if "equalizers" in scope:
        for _, members in sorted(cat.hom_classes().items()):
            for f, g in combinations_with_replacement(members, 2):
                yield "equalizer", (f, g), equalizer(cat, f, g)


def preserves_finite_limits(
    f: FunctorMap,
    scope: tuple[str, ...] = LIMIT_KINDS,
) -> LimitsReport:
    """Verify that the image of every scoped limit cone is universal in the target.

    The source category must possess every scoped limit; a missing one raises
    InapplicableScopeError naming it.  A map that is not a functor raises
    WiringError naming its first violation.
    """
    if f.contravariant:
        raise WiringError("limit preservation applies to covariant functors")
    require_functor(f)
    return _preserves_finite_limits(f, scope)


def _preserves_finite_limits(f: FunctorMap, scope: tuple[str, ...]) -> LimitsReport:
    """``preserves_finite_limits`` for a covariant functor already validated."""
    unknown = set(scope) - set(LIMIT_KINDS)
    if unknown:
        raise ValueError(f"unknown limit kinds: {sorted(unknown)}")
    src, dst = f.source, f.target

    terminals: list[str] = []
    if "terminal" in scope:
        terminals = sorted(terminal_objects(src))
        if not terminals:
            raise InapplicableScopeError(
                "terminal", (), "source category has no terminal object"
            )
    cones = []
    for kind, diagram, cone in _diagrams(src, scope):
        if cone is None:
            raise InapplicableScopeError(
                kind, diagram, f"source category has no {kind} of ({', '.join(diagram)})"
            )
        cones.append(cone)

    failures = []
    for t in terminals:
        image = f.mapping[t]
        witness = _refuting_stage(dst, image, (), (), sorted(dst.identities))
        if witness is not None:
            failures.append(LimitFailure(
                kind="terminal", diagram=(t,), image_apex=image, counterexample=witness,
                message=(
                    f"image {image} of terminal {t} is not terminal: "
                    f"hom({witness}, {image}) does not have exactly one morphism"
                ),
            ))
    image_stages = _stages(dst)
    for cone in cones:
        apex, legs = f.mapping[cone.apex], tuple(f.mapping[leg] for leg in cone.legs)
        diagram = tuple(f.mapping[m] for m in cone.diagram)
        if _refuting_stage(dst, apex, legs, diagram, image_stages) is not None:
            noun = "a product" if cone.kind == "product" else "an equalizer"
            failures.append(LimitFailure(
                kind=cone.kind, diagram=cone.diagram, image_apex=apex, counterexample=apex,
                message=f"image cone at {apex} is not {noun} of ({', '.join(diagram)})",
            ))

    products = sum(cone.kind == "product" for cone in cones)
    checked = {
        "terminal": len(terminals),
        "products": products,
        "equalizers": len(cones) - products,
    }
    return LimitsReport(ok=not failures, failures=tuple(failures), checked=checked)
