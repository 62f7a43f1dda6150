"""Command-line frontend over catspec files.

Exit codes: 0 when the queried property holds (or output was produced),
1 when it fails (invalid category, not equivalent, ...), 2 for usage, parse,
capacity, and wiring errors.  Structured output (--json) emits one report
object per invocation on stdout once its arguments are read, failures included;
diagnostics go to stderr.  The full argparse parser reads only the argv ``_read_argv`` cannot.

Only the text layer and the validators load with this module; each command
that decides something imports its modules when it runs, so a cold
``arrowcat check`` never loads the searches.
"""
from __future__ import annotations

import argparse
import sys

from . import catspec
from .catspec import CatspecDocument, CatspecError, parse, serialize
from .errors import ArrowCatError, InvalidCategoryError, WiringError
from .functors import validate_functor, validate_nat
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
            import json

            print(json.dumps(self.record, sort_keys=True))
            return
        if self.lines:
            print("\n".join(self.lines))
        if "catspec" in self.record:
            print(self.record["catspec"], end="")


def _read_document(path: str) -> CatspecDocument:
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read())


def _report_payload(report) -> list[dict]:
    return [
        {"kind": v.kind, "witnesses": list(v.witnesses), "message": v.message}
        for v in report.violations
    ]


def _entity(kind: str, name: str, report) -> dict:
    return {"kind": kind, "name": name, "ok": report.ok,
            "violations": _report_payload(report), "total": report.total}


def _verdict(out: _Output, report, **record) -> int:
    """Record ``report``'s verdict with ``record``, say its lines, and give its exit code."""
    out.record.update(ok=report.ok, **record)
    out.lines.extend(report.lines())
    return OK if report.ok else FAIL


def _cmd_check(args, out: _Output) -> int:
    doc = _read_document(args.file)
    functors = doc.functors
    checks = (  # (kind, names, validator, the errors that skip an entity)
        ("category", doc.categories, doc.category_report, ()),
        ("functor", functors, lambda name: validate_functor(doc.functor(name)), (InvalidCategoryError,)),
        ("nat", doc.nats, lambda name: validate_nat(doc.nat(name)), (InvalidCategoryError, WiringError)),
    )
    entities = []
    for kind, names, validate, skips in checks:
        for name in sorted(names):
            try:
                report = validate(name)
            except skips as exc:
                reason = "source or target category invalid" if kind == "functor" else str(exc)
                entities.append({"kind": kind, "name": name, "ok": False, "violations": [], "skipped": reason})
                out.say(f"skipped: {kind} {name} ({reason})")
                continue
            entities.append(_entity(kind, name, report))
            typed = f": {functors[name].source} -> {functors[name].target}" if kind == "functor" else ""
            out.say(f"{'ok' if report.ok else 'INVALID'}: {kind} {name}{typed}")
            for line in ([] if report.ok else report.lines()):
                out.say(f"  {line}")
    ok = all(entity["ok"] for entity in entities)
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
    if args.src or args.dst:
        if not (args.src and args.dst):
            raise WiringError("--src and --dst must be given together")
        classes = {(args.src, args.dst): sorted(cat.hom_class(args.src, args.dst))}
    else:
        by_hom = cat.hom_classes()
        idents = sorted(cat.identities)
        classes = {(a, b): by_hom.get((a, b), []) for a in idents for b in idents}
    homs = {}
    for (src, dst), members in classes.items():
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
    from .equivalence import is_skeletal, skeleton

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
    from .equivalence import _inverse, find_category_isomorphism

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
    from .equivalence import are_equivalent, brute_force_equivalence

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


def _cmd_validate(args, out: _Output) -> int:
    """functor-check and nat-check: one entity's validation report."""
    doc = _read_document(args.file)
    if args.command == "functor-check":
        report = validate_functor(doc.functor(args.functor))
    else:
        report = validate_nat(doc.nat(args.nat))
    return _verdict(out, report, violations=_report_payload(report))


def _cmd_adjoint_check(args, out: _Output) -> int:
    from .adjunction import AdjunctionCandidate, check_adjunction

    doc = _read_document(args.file)
    report = check_adjunction(AdjunctionCandidate(
        left=doc.functor(args.left),
        right=doc.functor(args.right),
        unit=doc.nat(args.unit),
        counit=doc.nat(args.counit),
        mode=args.mode,
    ))
    return _verdict(out, report, mode=report.mode, paper_literal=report.literal_ok, standard=report.standard_ok,
                    failures=[{"stage": f.stage, "witnesses": list(f.witnesses), "message": f.message}
                              for f in report.failures])


def _cmd_limits(args, out: _Output) -> int:
    from .limits import LIMIT_KINDS, _diagrams, preserves_finite_limits, terminal_objects

    doc = _read_document(args.file)
    if bool(args.cat) == bool(args.functor):
        raise WiringError("give exactly one of --cat or --functor")
    if args.cat:
        cat = doc.objectless(args.cat)
        terminals = sorted(terminal_objects(cat))
        out.record["terminals"] = terminals
        out.say(f"terminal objects: {', '.join(terminals) if terminals else '(none)'}")
        products, equalizer_count, missing = {}, 0, []
        for kind, diagram, cone in _diagrams(cat, LIMIT_KINDS):
            if kind == "product":
                label = " x ".join(diagram)
                products[label] = None if cone is None else cone.apex
                found = "(none)" if cone is None else f"apex {cone.apex} legs ({', '.join(cone.legs)})"
                out.say(f"product {label}: {found}")
            elif cone is None:
                missing.append(diagram)
            else:
                equalizer_count += 1
        out.record["products"] = products
        out.record["equalizers"] = {"found": equalizer_count, "missing": missing}
        out.say(f"equalizers: {equalizer_count} found, {len(missing)} missing")
        return OK
    functor = doc.functor(args.functor)
    scope = tuple(args.scope.split(",")) if args.scope else LIMIT_KINDS
    report = preserves_finite_limits(functor, scope)
    return _verdict(out, report, scope=list(scope), failures=[
        {"kind": f.kind, "diagram": list(f.diagram), "counterexample": f.counterexample, "message": f.message}
        for f in report.failures])


def _cmd_admissible(args, out: _Output) -> int:
    from .adjunction import is_admissible
    from .limits import LIMIT_KINDS

    doc = _read_document(args.file)
    scope = tuple(args.scope.split(",")) if args.scope else LIMIT_KINDS
    report = is_admissible(
        fstar=doc.functor(args.left),
        fsub=doc.functor(args.right),
        unit=doc.nat(args.unit),
        counit=doc.nat(args.counit),
        scope=scope,
    )
    return _verdict(out, report, adjunction_ok=report.adjunction.ok, limits_ok=report.limits.ok)


def _cmd_convert(args, out: _Output) -> int:
    doc = _read_document(args.file)
    names = [args.cat] if args.cat else sorted(doc.categories)
    converted = CatspecDocument()
    for name in names:
        if args.to == "objectless":
            converted.categories[name] = catspec.objless_decl(name, doc.objectless(name))
        else:
            converted.categories[name] = catspec.StandardDecl(name, to_standard(doc.objectless(name)))
    if not args.cat:
        converted.functors = dict(doc.functors)
        # Both forms key components by identity: to_standard names each object after its identity.
        converted.nats = {nat_name: catspec.NatDecl(decl.name, decl.source, decl.target, doc.identity_components(decl))
                          for nat_name, decl in doc.nats.items()}
    out.catspec(serialize(converted))
    return OK


# kind -> (default name, formatted with the arguments; builder from the arguments and the generators module)
_GENERATORS = {
    "finset": ("FinSet", lambda a, g: g.gen_finset(a.max_size, dup=tuple(a.dup or ()))),
    "discrete": ("Discrete{n}", lambda a, g: g.gen_discrete(a.n)),
    "walking-iso": ("WalkingIso", lambda a, g: g.gen_walking_iso()),
    "chain": ("Chain{n}", lambda a, g: g.gen_poset(g.Poset.chain(f"{a.prefix}{i}" for i in range(a.n)))),
    "cyclic": ("Cyclic{n}", lambda a, g: g.gen_cyclic(a.n)),
    "random": ("Random{seed}", lambda a, g: g.gen_random(a.seed, a.max_morphisms)),
}


def _cmd_generate(args, out: _Output) -> int:
    from . import generators

    default, build = _GENERATORS[args.kind]
    name = args.name or default.format_map(vars(args))
    decl = catspec.StandardDecl if args.kind == "finset" else catspec.objless_decl
    out.catspec(serialize(CatspecDocument(categories={name: decl(name, build(args, generators))})))
    return OK


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


_JSON = _arg("--json", action="store_true", help="emit one JSON report object")
_FILE = _arg("file")
_CAT = _arg("--cat", required=True)
_LEFT, _RIGHT = _arg("--left", required=True), _arg("--right", required=True)
_UNIT, _COUNIT = _arg("--unit", required=True), _arg("--counit", required=True)
_SEED = _arg("--seed", type=int, default=0)
_MAX_MORPHISMS = _arg("--max-morphisms", type=int)


def _mode() -> tuple:
    """The adjoint-check --mode argument, made only when that parser is built."""
    from .adjunction import PAPER_LITERAL, STANDARD

    return _arg("--mode", choices=[STANDARD, PAPER_LITERAL], default=STANDARD)


# Each command: its handler, its help line, and its arguments after _JSON,
# each a (flags, kwargs) pair or a function that makes one.
_COMMANDS = {
    "check": (_cmd_check, "validate every entity in a catspec file", [_FILE]),
    "identities": (_cmd_identities, "list the inferred identities of a category", [_FILE, _CAT]),
    "homs": (_cmd_homs, "list hom classes of a category", [_FILE, _CAT, _arg("--src"), _arg("--dst")]),
    "skeleton": (_cmd_skeleton, "emit a skeleton with inclusion/retraction/witness", [_FILE, _CAT, _SEED]),
    "iso": (_cmd_iso, "search for a category isomorphism", [_FILE, _LEFT, _RIGHT, _MAX_MORPHISMS]),
    "equiv": (_cmd_equiv, "decide equivalence and emit a witness", [
        _FILE, _LEFT, _RIGHT, _arg("--brute-force", action="store_true"), _SEED, _MAX_MORPHISMS]),
    "functor-check": (_cmd_validate, "validate a functor", [_FILE, _arg("--functor", required=True)]),
    "nat-check": (_cmd_validate, "validate a natural transformation", [_FILE, _arg("--nat", required=True)]),
    "adjoint-check": (_cmd_adjoint_check, "verify an adjunction candidate", [
        _FILE, _LEFT, _RIGHT, _UNIT, _COUNIT, _mode]),
    "limits": (_cmd_limits, "compute limits of a category or check preservation", [
        _FILE, _arg("--cat"), _arg("--functor"),
        _arg("--scope", help="comma-separated subset of terminal,products,equalizers")]),
    "admissible": (_cmd_admissible, "adjunction plus left-exactness of the left adjoint", [
        _FILE, _LEFT, _RIGHT, _UNIT, _COUNIT, _arg("--scope")]),
    "convert": (_cmd_convert, "rewrite categories between objectless and standard form", [
        _FILE, _arg("--to", choices=["objectless", "standard"], required=True), _arg("--cat")]),
    "generate": (_cmd_generate, "emit a generated category as catspec", [
        _arg("kind", choices=list(_GENERATORS)),
        _arg("--name"), _arg("--max-size", type=int, default=2), _arg("--dup", type=int, action="append"),
        _arg("--n", type=int, default=2), _arg("--prefix", default="c"), _SEED,
        _arg("--max-morphisms", type=int, default=16)]),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser for every command; ``main`` uses it for the argv ``_read_argv`` cannot read."""
    parser = argparse.ArgumentParser(
        prog="arrowcat",
        description="Finite arrow-only categories: validation, skeletons, equivalence, adjunctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for argument in (_JSON, *arguments):
            flags, kwargs = argument() if callable(argument) else argument
            p.add_argument(*flags, **kwargs)
    return parser


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` read from the ``_COMMANDS`` specs, or None unless every
    token is plain: an exact flag, its value not starting with ``-``, or the next positional."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values, flags, positionals, required = {"command": argv[0]}, {}, [], set()
    for argument in (_JSON, *_COMMANDS[argv[0]][2]):
        (name,), kwargs = argument() if callable(argument) else argument
        dest = name.lstrip("-").replace("-", "_")
        if name[0] == "-":
            flags[name] = dest, kwargs
        else:
            positionals.append((dest, kwargs))
        values[dest] = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        if kwargs.get("required"):
            required.add(dest)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" and positionals:
            (dest, kwargs), value = positionals.pop(0), token
        elif token not in flags:
            return None
        else:
            dest, kwargs = flags[token]
            if kwargs.get("action") == "store_true":
                values[dest] = True
                continue
            if (value := next(tokens, "-"))[:1] == "-":
                return None
        try:
            value = kwargs.get("type", str)(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = [*(values[dest] or ()), value] if kwargs.get("action") == "append" else value
        required.discard(dest)
    return None if positionals or required else argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = _Output(args.command, args.json)
    try:
        code = _COMMANDS[args.command][0](args, out)
    except CatspecError as exc:
        code, lines = USAGE, [str(diagnostic) for diagnostic in exc.diagnostics]
    except InvalidCategoryError as exc:
        code, lines = FAIL, ["invalid category:", *(f"  {line}" for line in exc.report.lines())]
    except (OSError, ValueError, ArrowCatError) as exc:
        code, lines = USAGE, [str(exc)]
    else:
        out.record["exit"] = code
        out.flush()
        return code
    print(*lines, sep="\n", file=sys.stderr)
    if out.as_json:
        out.record.update(ok=False, exit=code, diagnostics=lines)
        out.flush()
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
