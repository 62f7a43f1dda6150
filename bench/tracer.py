"""Outside-in tracing of arrowcat's public functions.

The tracer wraps functions from outside the package: it rebinds every name
under which a module holds the function, so ``arrowcat.cli.skeleton`` is
traced as well as ``arrowcat.equivalence.skeleton``.  Spans (name, start,
end, parent, job) are kept in memory and written out at the end.  Hot
helpers are only counted, because a span per call would cost more than the
helper itself.  Nothing under ``src/`` is changed.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Functions that get a span per call, as "<module>.<attribute path>".
SPANNED = (
    "cli.main",
    "catspec.parse",
    "catspec.serialize",
    "catspec.CatspecDocument.objectless",
    "standard.validate_standard",
    "standard.to_objectless",
    "core.validate_objectless",
    "core.ObjlessCategory.build",
    "functors.validate_functor",
    "equivalence.skeleton",
    "equivalence.iso_classes",
    "equivalence.validate_nat",
    "equivalence.find_category_isomorphism",
    "equivalence.are_equivalent",
    "equivalence.brute_force_equivalence",
    "_search.find_table_bijection",
    "limits.terminal_objects",
    "limits.binary_product",
    "limits.equalizer",
    "limits.preserves_finite_limits",
    "adjunction.check_adjunction",
    "adjunction.is_admissible",
    "generators.gen_finset",
    "generators.gen_poset",
    "generators.gen_monoid",
)

# Hot helpers: call counts only.
COUNTED = (
    "core.ObjlessCategory.hom_class",
    "core.ObjlessCategory.__hash__",
    "core.ObjlessCategory.__eq__",
    "equivalence.is_isomorphism",
    "functors.functor_compose",
)

# Waste counters, each with the metric that holds its base count.
WASTE = (
    ("core.validate_objectless.repeat_frac", "ratio", "core.validate_objectless.calls"),
    ("core.validate_objectless.entries", "count", None),
    ("search.find_table_bijection.none_frac", "ratio", "search.find_table_bijection.calls"),
    ("catspec.parse.bytes", "bytes", "catspec.parse.calls"),
)


def metric_prefix(target: str) -> str:
    """Metric names must start with a letter, so ``_search`` reports as ``search``."""
    return target.lstrip("_")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every (name, unit) the traced run reports, in a fixed order."""
    out = []
    for target in SPANNED:
        prefix = metric_prefix(target)
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.total_ms", "ms"), (f"{prefix}.self_ms", "ms")]
    out += [(f"{metric_prefix(target)}.calls", "count") for target in COUNTED]
    out += [(name, unit) for name, unit, _ in WASTE]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def _table_key(morphisms, table):
    names = frozenset(morphisms)
    if hasattr(table, "items"):
        return names, frozenset(table.items())
    return names, frozenset(tuple(entry) for entry in table)


def _reiterable(value):
    """A one-shot iterator is materialised so both the tracer and the callee can read it."""
    return tuple(value) if iter(value) is value else value


class Tracer:
    """Spans and counters for one traced run; ``job`` is None while paused."""

    def __init__(self):
        self.job = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job)
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.waste: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._validated: set = set()
        self._restore: list = []

    def begin_job(self, job) -> None:
        self.job = job
        self._validated = set()

    # -- wrapping

    def _spanned(self, name: str, fn):
        tracer = self
        before, after = self._hooks().get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                elapsed = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                tracer.spans.append((frame[0], name, start, end, parent, tracer.job))
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - frame[1]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is not None:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function, under every name a module binds it to."""
        if self._restore:
            return
        for target in SPANNED:
            self._wrap(target, self._spanned)
        for target in COUNTED:
            self._wrap(target, self._counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: str, make) -> None:
        module_name, *path = target.split(".")
        module = importlib.import_module(f"arrowcat.{module_name}")
        if len(path) == 2:  # a method: rebind it on its class
            cls = getattr(module, path[0])
            raw = cls.__dict__[path[1]]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(target, raw.__func__))
            else:
                wrapped = make(target, raw)
            self._restore.append((cls, path[1], raw))
            setattr(cls, path[1], wrapped)
            return
        original = getattr(module, path[0])
        wrapped = make(target, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "arrowcat" or mod_name.startswith("arrowcat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    # -- waste counters, run outside the span they describe

    def _hooks(self) -> dict:
        return {
            "core.validate_objectless": (self._before_validate, None),
            "_search.find_table_bijection": (None, self._after_search),
            "catspec.parse": (self._before_parse, None),
        }

    def _before_validate(self, args, kwargs):
        morphisms = _reiterable(kwargs.pop("morphisms", args[0] if args else None))
        table = _reiterable(kwargs.pop("table", args[1] if len(args) > 1 else None))
        key = _table_key(morphisms, table)
        if key in self._validated:
            self.waste["core.validate_objectless.repeats"] += 1
        self._validated.add(key)
        self.waste["core.validate_objectless.entries"] += len(table)
        return (morphisms, table)

    def _after_search(self, result) -> None:
        if result is None:
            self.waste["search.find_table_bijection.nones"] += 1

    def _before_parse(self, args, kwargs):
        text = args[0] if args else kwargs["text"]
        self.waste["catspec.parse.bytes"] += len(text.encode("utf-8"))
        return args

    # -- results

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for target in SPANNED:
            prefix = metric_prefix(target)
            out[f"{prefix}.calls"] = self.calls[target]
            out[f"{prefix}.total_ms"] = self.total[target] * 1e3
            out[f"{prefix}.self_ms"] = self.self_time[target] * 1e3
        for target in COUNTED:
            out[f"{metric_prefix(target)}.calls"] = self.calls[target]
        validations = self.calls["core.validate_objectless"]
        searches = self.calls["_search.find_table_bijection"]
        out["core.validate_objectless.repeat_frac"] = (
            self.waste["core.validate_objectless.repeats"] / validations if validations else 0.0
        )
        out["core.validate_objectless.entries"] = self.waste["core.validate_objectless.entries"]
        out["search.find_table_bijection.none_frac"] = (
            self.waste["search.find_table_bijection.nones"] / searches if searches else 0.0
        )
        out["catspec.parse.bytes"] = self.waste["catspec.parse.bytes"]
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")
