"""Terminal objects, generalized elements, binary products, equalizers,
and finite-limit preservation by functors.

All universal properties are verified by exhaustive factorization checks over
every competing cone, which is affordable at the finite sizes this package
targets.
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


def terminal_objects(cat: ObjlessCategory) -> frozenset[str]:
    """Identities receiving exactly one morphism from every identity."""
    stages = _stages(cat)
    return frozenset(t for t in stages if all(len(cat.hom_class(x, t)) == 1 for x in stages))


def generalized_elements(cat: ObjlessCategory, target: str, stage: str) -> frozenset[str]:
    """Morphisms stage -> target; at a terminal stage these are the global elements."""
    return cat.hom_class(stage, target)


def _is_product_cone(cat: ObjlessCategory, apex: str, p: str, q: str, a: str, b: str) -> bool:
    for x in _stages(cat):
        into_apex = sorted(cat.hom_class(x, apex))
        for f in cat.hom_class(x, a):
            for g in cat.hom_class(x, b):
                hits = [
                    h for h in into_apex
                    if cat.table.get((p, h)) == f and cat.table.get((q, h)) == g
                ]
                if len(hits) != 1:
                    return False
    return True


def binary_product(cat: ObjlessCategory, a: str, b: str) -> LimitCone | None:
    """A universal cone over (a, b), or None; deterministic first find."""
    cat._require_identity(a)
    cat._require_identity(b)
    for apex in sorted(cat.identities):
        for p in sorted(cat.hom_class(apex, a)):
            for q in sorted(cat.hom_class(apex, b)):
                if _is_product_cone(cat, apex, p, q, a, b):
                    return LimitCone(kind="product", apex=apex, legs=(p, q), diagram=(a, b))
    return None


def _is_equalizer_cone(cat: ObjlessCategory, apex: str, leg: str, f: str, g: str) -> bool:
    if cat.table.get((f, leg)) != cat.table.get((g, leg)) or cat.table.get((f, leg)) is None:
        return False
    src = cat.dom[f]
    for x in _stages(cat):
        into_apex = sorted(cat.hom_class(x, apex))
        for h in cat.hom_class(x, src):
            if cat.table.get((f, h)) != cat.table.get((g, h)):
                continue
            hits = [k for k in into_apex if cat.table.get((leg, k)) == h]
            if len(hits) != 1:
                return False
    return True


def equalizer(cat: ObjlessCategory, f: str, g: str) -> LimitCone | None:
    """A universal cone equalizing the parallel pair (f, g), or None."""
    if cat.dom_id(f) != cat.dom_id(g) or cat.cod_id(f) != cat.cod_id(g):
        raise ValueError(f"{f} and {g} are not parallel")
    src = cat.dom[f]
    for apex in sorted(cat.identities):
        for leg in sorted(cat.hom_class(apex, src)):
            if _is_equalizer_cone(cat, apex, leg, f, g):
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


def _parallel_pairs(cat: ObjlessCategory):
    for _, members in sorted(cat.hom_classes().items()):
        yield from combinations_with_replacement(members, 2)


def _terminal_counterexample(cat: ObjlessCategory, candidate: str) -> str | None:
    for x in sorted(cat.identities):
        if len(cat.hom_class(x, candidate)) != 1:
            return x
    return None


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
    products: list[LimitCone] = []
    equalizers: list[LimitCone] = []
    if "terminal" in scope:
        terminals = sorted(terminal_objects(src))
        if not terminals:
            raise InapplicableScopeError(
                "terminal", (), "source category has no terminal object"
            )
    if "products" in scope:
        for a, b in combinations_with_replacement(sorted(src.identities), 2):
            cone = binary_product(src, a, b)
            if cone is None:
                raise InapplicableScopeError(
                    "product", (a, b), f"source category has no product of ({a}, {b})"
                )
            products.append(cone)
    if "equalizers" in scope:
        for pair in _parallel_pairs(src):
            cone = equalizer(src, *pair)
            if cone is None:
                raise InapplicableScopeError(
                    "equalizer", pair, f"source category has no equalizer of ({pair[0]}, {pair[1]})"
                )
            equalizers.append(cone)

    failures = []
    for t in terminals:
        image = f.mapping[t]
        witness = _terminal_counterexample(dst, image)
        if witness is not None:
            failures.append(LimitFailure(
                kind="terminal", diagram=(t,), image_apex=image, counterexample=witness,
                message=(
                    f"image {image} of terminal {t} is not terminal: "
                    f"hom({witness}, {image}) does not have exactly one morphism"
                ),
            ))
    for cone in products:
        apex, (p, q) = f.mapping[cone.apex], (f.mapping[cone.legs[0]], f.mapping[cone.legs[1]])
        a, b = (f.mapping[cone.diagram[0]], f.mapping[cone.diagram[1]])
        if not _is_product_cone(dst, apex, p, q, a, b):
            failures.append(LimitFailure(
                kind="product", diagram=cone.diagram, image_apex=apex, counterexample=apex,
                message=f"image cone at {apex} is not a product of ({a}, {b})",
            ))
    for cone in equalizers:
        apex, leg = f.mapping[cone.apex], f.mapping[cone.legs[0]]
        fa, fb = f.mapping[cone.diagram[0]], f.mapping[cone.diagram[1]]
        if not _is_equalizer_cone(dst, apex, leg, fa, fb):
            failures.append(LimitFailure(
                kind="equalizer", diagram=cone.diagram, image_apex=apex, counterexample=apex,
                message=f"image cone at {apex} is not an equalizer of ({fa}, {fb})",
            ))

    checked = {
        "terminal": len(terminals),
        "products": len(products),
        "equalizers": len(equalizers),
    }
    return LimitsReport(ok=not failures, failures=tuple(failures), checked=checked)
