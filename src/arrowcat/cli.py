"""Command-line frontend over catspec files.

Exit codes: 0 when the queried property holds (or output was produced),
1 when it fails (invalid category, not equivalent, ...), 2 for usage, parse,
capacity, and wiring errors.  Structured output (--json) emits one report
object per invocation on stdout; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catspec
from .adjunction import (
    AdjunctionCandidate,
    PAPER_LITERAL,
    STANDARD,
    check_adjunction,
    is_admissible,
)
from .catspec import CatspecDocument, CatspecError, parse, serialize
from .equivalence import (
    _inverse,
    are_equivalent,
    brute_force_equivalence,
    find_category_isomorphism,
    is_skeletal,
    skeleton,
    validate_nat,
)
from .errors import (
    ArrowCatError,
    CapacityError,
    GeneratorError,
    InapplicableScopeError,
    InvalidCategoryError,
    NameNotFoundError,
    NotMonotoneError,
    WiringError,
)
from .functors import validate_functor
from .generators import (
    Poset,
    gen_cyclic,
    gen_discrete,
    gen_finset,
    gen_poset,
    gen_random,
    gen_walking_iso,
)
from .limits import (
    LIMIT_KINDS,
    _parallel_pairs,
    binary_product,
    equalizer,
    preserves_finite_limits,
    terminal_objects,
)
from .standard import to_standard

OK, FAIL, USAGE = 0, 1, 2


class _Output:
    def __init__(self, command: str, as_json: bool):
        self.record: dict = {"command": command, "ok": True}
        self.as_json = as_json
        self.lines: list[str] = []

    def say(self, line: str) -> None:
        self.lines.append(line)

    def catspec(self, text: str) -> None:
        self.record["catspec"] = text

    def flush(self) -> None:
        if self.as_json:
            print(json.dumps(self.record, sort_keys=True))
            return
        for line in self.lines:
            print(line)
        if "catspec" in self.record:
            print(self.record["catspec"], end="")


def _read_document(path: str) -> CatspecDocument:
    return parse(Path(path).read_text(encoding="utf-8"))


def _report_payload(report) -> list[dict]:
    return [
        {"kind": v.kind, "witnesses": list(v.witnesses), "message": v.message}
        for v in report.violations
    ]


def _cmd_check(args, out: _Output) -> int:
    doc = _read_document(args.file)
    entities = []
    ok = True
    for name in sorted(doc.categories):
        report = doc.category_report(name)
        entities.append({"kind": "category", "name": name, "ok": report.ok,
                         "violations": _report_payload(report)})
        ok &= report.ok
        out.say(f"{'ok' if report.ok else 'INVALID'}: category {name}")
        for line in ([] if report.ok else report.lines()):
            out.say(f"  {line}")
    for name in sorted(doc.functors):
        decl = doc.functors[name]
        try:
            report = validate_functor(doc.functor(name))
        except InvalidCategoryError:
            entities.append({"kind": "functor", "name": name, "ok": False,
                             "violations": [], "skipped": "source or target category invalid"})
            out.say(f"skipped: functor {name} (source or target category invalid)")
            ok = False
            continue
        entities.append({"kind": "functor", "name": name, "ok": report.ok,
                         "violations": _report_payload(report)})
        ok &= report.ok
        out.say(f"{'ok' if report.ok else 'INVALID'}: functor {name}: {decl.source} -> {decl.target}")
        for line in ([] if report.ok else report.lines()):
            out.say(f"  {line}")
    for name in sorted(doc.nats):
        try:
            report = validate_nat(doc.nat(name))
        except (InvalidCategoryError, WiringError) as exc:
            entities.append({"kind": "nat", "name": name, "ok": False,
                             "violations": [], "skipped": str(exc)})
            out.say(f"skipped: nat {name} ({exc})")
            ok = False
            continue
        entities.append({"kind": "nat", "name": name, "ok": report.ok,
                         "violations": _report_payload(report)})
        ok &= report.ok
        out.say(f"{'ok' if report.ok else 'INVALID'}: nat {name}")
        for line in ([] if report.ok else report.lines()):
            out.say(f"  {line}")
    out.record["ok"] = ok
    out.record["entities"] = entities
    return OK if ok else FAIL


def _cmd_identities(args, out: _Output) -> int:
    doc = _read_document(args.file)
    cat = doc.objectless(args.cat)
    idents = sorted(cat.identities)
    out.record["identities"] = idents
    for ident in idents:
        out.say(ident)
    return OK


def _cmd_homs(args, out: _Output) -> int:
    doc = _read_document(args.file)
    cat = doc.objectless(args.cat)
    pairs = []
    if args.src or args.dst:
        if not (args.src and args.dst):
            raise WiringError("--src and --dst must be given together")
        pairs.append((args.src, args.dst))
    else:
        idents = sorted(cat.identities)
        pairs.extend((a, b) for a in idents for b in idents)
    homs = {}
    for src, dst in pairs:
        members = sorted(cat.hom_class(src, dst))
        homs[f"{src} -> {dst}"] = members
        out.say(f"{src} -> {dst}: {', '.join(members) if members else '(empty)'}")
    out.record["homs"] = homs
    return OK


def _witness_doc(categories, functors=(), roundtrips=()) -> CatspecDocument:
    """A witness document over objectless categories.

    ``categories`` holds (name, category) pairs and ``functors`` (name,
    source, target, functor) tuples.  Each (nat name, category name, nat) in
    ``roundtrips`` adds the nat together with its source and target functors,
    named ``id_<category>`` and ``<category>_roundtrip``.
    """
    doc = CatspecDocument()
    for name, cat in categories:
        doc.categories[name] = catspec.objless_decl(name, cat)
    for name, source, target, functor in functors:
        doc.functors[name] = catspec.functor_decl(name, source, target, functor)
    for nat_name, cat_name, nat in roundtrips:
        id_name, roundtrip_name = f"id_{cat_name}", f"{cat_name}_roundtrip"
        doc.functors[id_name] = catspec.functor_decl(id_name, cat_name, cat_name, nat.source)
        doc.functors[roundtrip_name] = catspec.functor_decl(
            roundtrip_name, cat_name, cat_name, nat.target)
        doc.nats[nat_name] = catspec.nat_decl(nat_name, id_name, roundtrip_name, nat)
    return doc


def _caps(args) -> dict:
    """The --max-morphisms cap when given, so each route otherwise keeps its own default."""
    return {} if args.max_morphisms is None else {"max_morphisms": args.max_morphisms}


def _cmd_skeleton(args, out: _Output) -> int:
    doc = _read_document(args.file)
    cat = doc.objectless(args.cat)
    result = skeleton(cat, seed=args.seed)
    skel_name = f"{args.cat}_skeleton"
    witness_doc = _witness_doc(
        [(args.cat, cat), (skel_name, result.skeleton)],
        [("inclusion", skel_name, args.cat, result.inclusion),
         ("retraction", args.cat, skel_name, result.retraction)],
        [("witness", args.cat, result.witness)],
    )
    info = {
        "category": args.cat,
        "seed": args.seed,
        "identities": len(result.skeleton.identities),
        "morphisms": len(result.skeleton.morphisms),
        "skeletal_input": is_skeletal(cat),
        "representatives": dict(sorted(result.representatives.items())),
    }
    out.record.update(info)
    header = (
        f"# skeleton of {args.cat} (seed {args.seed}): "
        f"{info['identities']} identities, {info['morphisms']} morphisms\n"
        f"# input is {'already skeletal' if info['skeletal_input'] else 'not skeletal'}\n\n"
    )
    out.catspec(header + serialize(witness_doc))
    return OK


def _cmd_iso(args, out: _Output) -> int:
    doc = _read_document(args.file)
    left = doc.objectless(args.left)
    right = doc.objectless(args.right)
    functor = find_category_isomorphism(left, right, **_caps(args))
    out.record["isomorphic"] = functor is not None
    if functor is None:
        out.record["ok"] = False
        out.say(f"not isomorphic: {args.left} and {args.right}")
        return FAIL
    witness_doc = _witness_doc(
        [(args.left, left), (args.right, right)],
        [("iso_forward", args.left, args.right, functor),
         ("iso_backward", args.right, args.left, _inverse(functor, "iso_backward"))],
    )
    out.catspec(f"# category isomorphism {args.left} = {args.right}\n\n" + serialize(witness_doc))
    return OK


def _cmd_equiv(args, out: _Output) -> int:
    doc = _read_document(args.file)
    left = doc.objectless(args.left)
    right = doc.objectless(args.right)
    if args.brute_force:
        witness = brute_force_equivalence(left, right, **_caps(args))
    else:
        witness = are_equivalent(left, right, seed=args.seed, **_caps(args))
    out.record["equivalent"] = witness is not None
    out.record["method"] = "brute-force" if args.brute_force else "skeleton"
    if witness is None:
        out.record["ok"] = False
        out.say(f"not equivalent: {args.left} and {args.right}")
        return FAIL
    witness_doc = _witness_doc(
        [(args.left, left), (args.right, right)],
        [("forward", args.left, args.right, witness.forward),
         ("backward", args.right, args.left, witness.backward)],
        [("tau", args.left, witness.tau), ("sigma", args.right, witness.sigma)],
    )
    out.catspec(f"# equivalence {args.left} ~ {args.right}\n\n" + serialize(witness_doc))
    return OK


def _cmd_functor_check(args, out: _Output) -> int:
    doc = _read_document(args.file)
    report = validate_functor(doc.functor(args.functor))
    out.record["ok"] = report.ok
    out.record["violations"] = _report_payload(report)
    for line in report.lines():
        out.say(line)
    return OK if report.ok else FAIL


def _cmd_nat_check(args, out: _Output) -> int:
    doc = _read_document(args.file)
    report = validate_nat(doc.nat(args.nat))
    out.record["ok"] = report.ok
    out.record["violations"] = _report_payload(report)
    for line in report.lines():
        out.say(line)
    return OK if report.ok else FAIL


def _candidate_from_args(doc: CatspecDocument, args, mode: str) -> AdjunctionCandidate:
    return AdjunctionCandidate(
        left=doc.functor(args.left),
        right=doc.functor(args.right),
        unit=doc.nat(args.unit),
        counit=doc.nat(args.counit),
        mode=mode,
    )


def _cmd_adjoint_check(args, out: _Output) -> int:
    doc = _read_document(args.file)
    report = check_adjunction(_candidate_from_args(doc, args, args.mode))
    out.record["ok"] = report.ok
    out.record["mode"] = report.mode
    out.record["paper_literal"] = report.literal_ok
    out.record["standard"] = report.standard_ok
    out.record["failures"] = [
        {"stage": f.stage, "witnesses": list(f.witnesses), "message": f.message}
        for f in report.failures
    ]
    for line in report.lines():
        out.say(line)
    return OK if report.ok else FAIL


def _cmd_limits(args, out: _Output) -> int:
    doc = _read_document(args.file)
    if bool(args.cat) == bool(args.functor):
        raise WiringError("give exactly one of --cat or --functor")
    if args.cat:
        cat = doc.objectless(args.cat)
        terminals = sorted(terminal_objects(cat))
        out.record["terminals"] = terminals
        out.say(f"terminal objects: {', '.join(terminals) if terminals else '(none)'}")
        idents = sorted(cat.identities)
        products = {}
        for i, a in enumerate(idents):
            for b in idents[i:]:
                cone = binary_product(cat, a, b)
                products[f"{a} x {b}"] = None if cone is None else cone.apex
                found = "(none)" if cone is None else f"apex {cone.apex} legs ({', '.join(cone.legs)})"
                out.say(f"product {a} x {b}: {found}")
        out.record["products"] = products
        equalizer_count, missing = 0, []
        for f, g in _parallel_pairs(cat):
            if equalizer(cat, f, g) is None:
                missing.append((f, g))
            else:
                equalizer_count += 1
        out.record["equalizers"] = {"found": equalizer_count, "missing": missing}
        out.say(f"equalizers: {equalizer_count} found, {len(missing)} missing")
        return OK
    functor = doc.functor(args.functor)
    scope = tuple(args.scope.split(",")) if args.scope else LIMIT_KINDS
    report = preserves_finite_limits(functor, scope)
    out.record["ok"] = report.ok
    out.record["scope"] = list(scope)
    out.record["failures"] = [
        {"kind": f.kind, "diagram": list(f.diagram), "counterexample": f.counterexample,
         "message": f.message}
        for f in report.failures
    ]
    for line in report.lines():
        out.say(line)
    return OK if report.ok else FAIL


def _cmd_admissible(args, out: _Output) -> int:
    doc = _read_document(args.file)
    scope = tuple(args.scope.split(",")) if args.scope else LIMIT_KINDS
    report = is_admissible(
        fstar=doc.functor(args.left),
        fsub=doc.functor(args.right),
        unit=doc.nat(args.unit),
        counit=doc.nat(args.counit),
        scope=scope,
    )
    out.record["ok"] = report.ok
    out.record["adjunction_ok"] = report.adjunction.ok
    out.record["limits_ok"] = report.limits.ok
    for line in report.lines():
        out.say(line)
    return OK if report.ok else FAIL


def _cmd_convert(args, out: _Output) -> int:
    doc = _read_document(args.file)
    names = [args.cat] if args.cat else sorted(doc.categories)
    converted = CatspecDocument()
    rekey: dict[str, dict[str, str]] = {}
    for name in names:
        decl = doc.categories[name]
        if args.to == "objectless":
            cat = doc.objectless(name)
            converted.categories[name] = catspec.objless_decl(name, cat)
            if isinstance(decl, catspec.StandardDecl):
                rekey[name] = dict(decl.std.id_of)
        else:
            converted.categories[name] = catspec.standard_decl(name, to_standard(doc.objectless(name)))
    if not args.cat:
        converted.functors = dict(doc.functors)
        for nat_name, decl in doc.nats.items():
            source_cat = doc.functors[decl.source].source
            mapping = rekey.get(source_cat)
            if mapping:
                decl = catspec.NatDecl(
                    name=decl.name, source=decl.source, target=decl.target,
                    components={mapping.get(k, k): v for k, v in decl.components.items()},
                )
            converted.nats[nat_name] = decl
    out.catspec(serialize(converted))
    return OK


def _cmd_generate(args, out: _Output) -> int:
    doc = CatspecDocument()
    if args.kind == "finset":
        name = args.name or "FinSet"
        std = gen_finset(args.max_size, dup=tuple(args.dup or ()))
        doc.categories[name] = catspec.standard_decl(name, std)
    elif args.kind == "discrete":
        name = args.name or f"Discrete{args.n}"
        doc.categories[name] = catspec.objless_decl(name, gen_discrete(args.n))
    elif args.kind == "walking-iso":
        name = args.name or "WalkingIso"
        doc.categories[name] = catspec.objless_decl(name, gen_walking_iso())
    elif args.kind == "chain":
        name = args.name or f"Chain{args.n}"
        poset = Poset.chain(f"{args.prefix}{i}" for i in range(args.n))
        doc.categories[name] = catspec.objless_decl(name, gen_poset(poset))
    elif args.kind == "cyclic":
        name = args.name or f"Cyclic{args.n}"
        doc.categories[name] = catspec.objless_decl(name, gen_cyclic(args.n))
    elif args.kind == "random":
        name = args.name or f"Random{args.seed}"
        doc.categories[name] = catspec.objless_decl(
            name, gen_random(args.seed, args.max_morphisms))
    else:
        raise WiringError(f"unknown generator {args.kind!r}")
    out.catspec(serialize(doc))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrowcat",
        description="Finite arrow-only categories: validation, skeletons, equivalence, adjunctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit one JSON report object")
        return p

    p = add("check", help="validate every entity in a catspec file")
    p.add_argument("file")

    p = add("identities", help="list the inferred identities of a category")
    p.add_argument("file")
    p.add_argument("--cat", required=True)

    p = add("homs", help="list hom classes of a category")
    p.add_argument("file")
    p.add_argument("--cat", required=True)
    p.add_argument("--src")
    p.add_argument("--dst")

    p = add("skeleton", help="emit a skeleton with inclusion/retraction/witness")
    p.add_argument("file")
    p.add_argument("--cat", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("iso", help="search for a category isomorphism")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--max-morphisms", type=int)

    p = add("equiv", help="decide equivalence and emit a witness")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-morphisms", type=int)

    p = add("functor-check", help="validate a functor")
    p.add_argument("file")
    p.add_argument("--functor", required=True)

    p = add("nat-check", help="validate a natural transformation")
    p.add_argument("file")
    p.add_argument("--nat", required=True)

    p = add("adjoint-check", help="verify an adjunction candidate")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--unit", required=True)
    p.add_argument("--counit", required=True)
    p.add_argument("--mode", choices=[STANDARD, PAPER_LITERAL], default=STANDARD)

    p = add("limits", help="compute limits of a category or check preservation")
    p.add_argument("file")
    p.add_argument("--cat")
    p.add_argument("--functor")
    p.add_argument("--scope", help="comma-separated subset of terminal,products,equalizers")

    p = add("admissible", help="adjunction plus left-exactness of the left adjoint")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--unit", required=True)
    p.add_argument("--counit", required=True)
    p.add_argument("--scope")

    p = add("convert", help="rewrite categories between objectless and standard form")
    p.add_argument("file")
    p.add_argument("--to", choices=["objectless", "standard"], required=True)
    p.add_argument("--cat")

    p = add("generate", help="emit a generated category as catspec")
    p.add_argument("kind", choices=["finset", "discrete", "walking-iso", "chain", "cyclic", "random"])
    p.add_argument("--name")
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--dup", type=int, action="append")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--prefix", default="c")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-morphisms", type=int, default=16)

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "identities": _cmd_identities,
    "homs": _cmd_homs,
    "skeleton": _cmd_skeleton,
    "iso": _cmd_iso,
    "equiv": _cmd_equiv,
    "functor-check": _cmd_functor_check,
    "nat-check": _cmd_nat_check,
    "adjoint-check": _cmd_adjoint_check,
    "limits": _cmd_limits,
    "admissible": _cmd_admissible,
    "convert": _cmd_convert,
    "generate": _cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = _Output(args.command, getattr(args, "json", False))
    try:
        code = _HANDLERS[args.command](args, out)
    except CatspecError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        return USAGE
    except InvalidCategoryError as exc:
        print("invalid category:", file=sys.stderr)
        for line in exc.report.lines():
            print(f"  {line}", file=sys.stderr)
        return FAIL
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(exc, file=sys.stderr)
        return USAGE
    except (NameNotFoundError, CapacityError, WiringError, InapplicableScopeError,
            GeneratorError, NotMonotoneError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return USAGE
    except ArrowCatError as exc:
        print(exc, file=sys.stderr)
        return USAGE
    out.record["exit"] = code
    out.flush()
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
