"""Adjunctions via unit and counit, the Galois-connection oracle for posets,
and the admissibility check (adjoint pair whose left member preserves finite
limits).

Two verification modes exist: "paper-literal" accepts any unit/counit pair of
natural transformations with the right endpoints, while "standard" also
demands both triangle identities.  The literal data alone does not pin down
an adjunction, so standard is the default.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import WiringError
from .functors import FunctorMap, NatTransf, functor_compose, functor_identity, require_functor, validate_nat
from .generators import Poset, gen_poset, monotone_map_check, poset_arrow
from .limits import LIMIT_KINDS, LimitsReport, _preserves_finite_limits

PAPER_LITERAL = "paper-literal"
STANDARD = "standard"


@dataclass(frozen=True)
class AdjunctionCandidate:
    """Left adjoint F: D -> C, right adjoint G: C -> D, unit Id_D -> G.F,
    counit F.G -> Id_C."""

    left: FunctorMap
    right: FunctorMap
    unit: NatTransf
    counit: NatTransf
    mode: str = STANDARD


@dataclass(frozen=True)
class AdjunctionFailure:
    stage: str  # unit | counit | triangle-left | triangle-right
    witnesses: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class AdjunctionReport:
    ok: bool
    mode: str
    literal_ok: bool
    standard_ok: bool | None
    failures: tuple[AdjunctionFailure, ...]

    def lines(self) -> list[str]:
        out = [f"paper-literal: {'pass' if self.literal_ok else 'fail'}"]
        if self.standard_ok is not None:
            out.append(f"standard: {'pass' if self.standard_ok else 'fail'}")
        out.extend(
            f"failure[{f.stage}] witnesses=({', '.join(f.witnesses)}): {f.message}"
            for f in self.failures
        )
        return out


def _check_wiring(cand: AdjunctionCandidate) -> tuple:
    f, g = cand.left, cand.right
    if f.contravariant or g.contravariant:
        raise WiringError("adjunction requires covariant functors")
    require_functor(f)
    require_functor(g)
    if f.source != g.target or f.target != g.source:
        raise WiringError("adjoints are not wired F: D -> C, G: C -> D")
    d, c = f.source, f.target
    if cand.unit.source != functor_identity(d):
        raise WiringError("unit does not start at the identity functor on D")
    if cand.unit.target != functor_compose(g, f):
        raise WiringError("unit does not end at G.F")
    if cand.counit.source != functor_compose(f, g):
        raise WiringError("counit does not start at F.G")
    if cand.counit.target != functor_identity(c):
        raise WiringError("counit does not end at the identity functor on C")
    return d, c


def check_adjunction(cand: AdjunctionCandidate) -> AdjunctionReport:
    """Verify the unit/counit data; in standard mode also the triangle identities.

    WiringError if either map is not a functor or the data is miswired."""
    if cand.mode not in (PAPER_LITERAL, STANDARD):
        raise ValueError(f"unknown mode {cand.mode!r}")
    d, c = _check_wiring(cand)
    f, g = cand.left, cand.right

    failures = []
    for stage, nat in (("unit", cand.unit), ("counit", cand.counit)):
        report = validate_nat(nat)
        failures.extend(
            AdjunctionFailure(stage=stage, witnesses=v.witnesses, message=v.message)
            for v in report.violations
        )
    literal_ok = not failures

    standard_ok: bool | None = None
    if cand.mode == STANDARD:
        triangles = []
        for ident in sorted(d.identities):
            # counit at F(ident) composed with F(unit at ident) must be id at F(ident)
            eta = cand.unit.components.get(ident)
            image = f.mapping[ident]
            eps = cand.counit.components.get(image)
            got = None
            if eta is not None and eps is not None:
                got = c.table.get((eps, f.mapping[eta]))
            if got != image:
                triangles.append(AdjunctionFailure(
                    stage="triangle-left", witnesses=(ident,),
                    message=f"counit(F {ident}) . F(unit {ident}) is {got}, expected {image}",
                ))
        for ident in sorted(c.identities):
            # G(counit at ident) composed with unit at G(ident) must be id at G(ident)
            eps = cand.counit.components.get(ident)
            image = g.mapping[ident]
            eta = cand.unit.components.get(image)
            got = None
            if eta is not None and eps is not None:
                got = d.table.get((g.mapping[eps], eta))
            if got != image:
                triangles.append(AdjunctionFailure(
                    stage="triangle-right", witnesses=(ident,),
                    message=f"G(counit {ident}) . unit(G {ident}) is {got}, expected {image}",
                ))
        standard_ok = literal_ok and not triangles
        failures.extend(triangles)

    ok = literal_ok if cand.mode == PAPER_LITERAL else bool(standard_ok)
    return AdjunctionReport(
        ok=ok, mode=cand.mode, literal_ok=literal_ok, standard_ok=standard_ok,
        failures=tuple(failures),
    )


def galois_violations(
    p: Poset, q: Poset, f: Mapping[str, str], g: Mapping[str, str],
) -> tuple[tuple[str, str], ...]:
    """All pairs (x, y) where f(x) <= y and x <= g(y) disagree."""
    monotone_map_check(p, q, f)
    monotone_map_check(q, p, g)
    return tuple(
        (x, y)
        for x in p.elements
        for y in q.elements
        if q.holds(f[x], y) != p.holds(x, g[y])
    )


def galois_oracle(p: Poset, q: Poset, f: Mapping[str, str], g: Mapping[str, str]) -> bool:
    """True iff (f, g) is a Galois connection: f(x) <= y exactly when x <= g(y)."""
    return not galois_violations(p, q, f, g)


def _induced(src: Poset, dst: Poset, mapping: Mapping[str, str], source, target, name: str) -> FunctorMap:
    """The functor a monotone map induces between the poset categories ``source`` and ``target``."""
    monotone_map_check(src, dst, mapping)
    arrow_map = {poset_arrow(x, y): poset_arrow(mapping[x], mapping[y]) for (x, y) in src.leq}
    return FunctorMap(source=source, target=target, mapping=arrow_map, name=name)


def poset_functor(src: Poset, dst: Poset, mapping: Mapping[str, str], name: str = "F") -> FunctorMap:
    """The functor induced by a monotone map between poset categories."""
    return _induced(src, dst, mapping, gen_poset(src), gen_poset(dst), name)


def poset_adjunction(
    p: Poset, q: Poset, f: Mapping[str, str], g: Mapping[str, str], mode: str = STANDARD,
) -> AdjunctionCandidate:
    """Package monotone maps f: P -> Q, g: Q -> P as an adjunction candidate.

    Unit and counit components are the unique poset arrows where they exist;
    a missing arrow (the maps fail the Galois condition there) simply leaves
    the component out, which validation then reports.
    """
    cat_p, cat_q = gen_poset(p), gen_poset(q)
    left = _induced(p, q, f, cat_p, cat_q, "F")
    right = _induced(q, p, g, cat_q, cat_p, "G")

    unit_components = {
        x: poset_arrow(x, g[f[x]]) for x in p.elements if p.holds(x, g[f[x]])
    }
    counit_components = {
        y: poset_arrow(f[g[y]], y) for y in q.elements if q.holds(f[g[y]], y)
    }
    unit = NatTransf(
        source=functor_identity(cat_p),
        target=functor_compose(right, left),
        components=unit_components,
        name="unit",
    )
    counit = NatTransf(
        source=functor_compose(left, right),
        target=functor_identity(cat_q),
        components=counit_components,
        name="counit",
    )
    return AdjunctionCandidate(left=left, right=right, unit=unit, counit=counit, mode=mode)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    adjunction: AdjunctionReport
    limits: LimitsReport

    def lines(self) -> list[str]:
        out = [f"adjunction: {'pass' if self.adjunction.ok else 'fail'}"]
        out.extend("  " + line for line in self.adjunction.lines())
        out.append(f"left-exactness: {'pass' if self.limits.ok else 'fail'}")
        out.extend("  " + line for line in self.limits.lines())
        return out


def is_admissible(
    fstar: FunctorMap,
    fsub: FunctorMap,
    unit: NatTransf,
    counit: NatTransf,
    scope: tuple[str, ...] = LIMIT_KINDS,
) -> AdmissibilityReport:
    """Adjoint pair with a left-exact left member: the admissibility check.

    Applied to arbitrary finite categories, not toposes; the limit scope can
    be narrowed when the source lacks some of the generated limits.
    """
    cand = AdjunctionCandidate(left=fstar, right=fsub, unit=unit, counit=counit, mode=STANDARD)
    adj_report = check_adjunction(cand)
    # check_adjunction has validated fstar and found it covariant.
    limits_report = _preserves_finite_limits(fstar, scope)
    return AdmissibilityReport(
        ok=adj_report.ok and limits_report.ok,
        adjunction=adj_report,
        limits=limits_report,
    )
