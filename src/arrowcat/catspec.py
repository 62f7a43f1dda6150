"""The catspec text format: categories, functors, and natural transformations.

Line-oriented, `#` comments, `;` terminators.  Objectless blocks list their
full composition table (identities are inferred, never written down);
standard blocks may omit identity compositions, which the loader completes.
Parsing never partially succeeds: any diagnostic aborts with CatspecError.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Callable, Container, Iterable, Mapping

from .core import ObjlessCategory
from .errors import ArrowCatError, InvalidCategoryError, NameNotFoundError
from .functors import CONTRAVARIANT, COVARIANT, FunctorMap, NatTransf
from .report import ValidationReport
from .standard import StdCategory, to_objectless

# Diagnostic kinds.
LEX = "lex"
SYNTAX = "syntax"
MISSING_TERMINATOR = "missing-terminator"
UNKNOWN_NAME = "unknown-name"
DUPLICATE_NAME = "duplicate-name"
CONFLICTING_COMPOSITION = "conflicting-composition"
WIRING = "wiring"


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    message: str
    span: Span
    offset: int  # character offset into the parsed text; ``span`` is its line:col

    def __str__(self) -> str:
        return f"{self.span}: {self.kind}: {self.message}"


class CatspecError(ArrowCatError):
    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class _BuiltOnce:
    """A category declaration built at most once; a failed build is kept and raised again."""

    @cached_property
    def _built(self) -> ObjlessCategory | InvalidCategoryError:
        try:
            return self._build()
        except InvalidCategoryError as exc:
            return exc.with_traceback(None)

    @property
    def objectless(self) -> ObjlessCategory:
        """The validated arrow-only view, built once per declaration."""
        if isinstance(self._built, InvalidCategoryError):
            raise self._built.with_traceback(None)
        return self._built


@dataclass(frozen=True)
class ObjlessDecl(_BuiltOnce):
    name: str
    morphisms: tuple[str, ...]
    table: Mapping[tuple[str, str], str]

    def __post_init__(self):
        object.__setattr__(self, "morphisms", tuple(sorted(self.morphisms)))
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def _build(self) -> ObjlessCategory:
        return ObjlessCategory.build(self.morphisms, self.table)


@dataclass(frozen=True)
class StandardDecl(_BuiltOnce):
    name: str
    std: StdCategory

    def _build(self) -> ObjlessCategory:
        return to_objectless(self.std)


@dataclass(frozen=True)
class FunctorDecl:
    name: str
    source: str
    target: str
    variance: str
    mapping: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "mapping", MappingProxyType(dict(self.mapping)))


@dataclass(frozen=True)
class NatDecl:
    name: str
    source: str
    target: str
    components: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))


CategoryDecl = ObjlessDecl | StandardDecl


@dataclass
class CatspecDocument:
    """One namespace of named categories, functors, and transformations."""

    categories: dict[str, CategoryDecl] = field(default_factory=dict)
    functors: dict[str, FunctorDecl] = field(default_factory=dict)
    nats: dict[str, NatDecl] = field(default_factory=dict)
    source_spans: dict[tuple[str, str], Span] = field(default_factory=dict, compare=False)

    def _category_decl(self, name: str) -> CategoryDecl:
        decl = self.categories.get(name)
        if decl is None:
            raise NameNotFoundError(f"no category named {name!r}")
        return decl

    def category_report(self, name: str) -> ValidationReport:
        try:
            self._category_decl(name).objectless  # the one build validates; a failure carries its report
        except InvalidCategoryError as exc:
            return exc.report
        return ValidationReport.from_violations(())

    def objectless(self, name: str) -> ObjlessCategory:
        """The arrow-only view of a named category; raises on invalid data."""
        return self._category_decl(name).objectless

    def standard(self, name: str) -> StdCategory:
        decl = self._category_decl(name)
        if isinstance(decl, StandardDecl):
            return decl.std
        raise NameNotFoundError(f"category {name!r} is not in standard form")

    def morphism_names(self, name: str) -> frozenset[str]:
        decl = self._category_decl(name)
        if isinstance(decl, ObjlessDecl):
            return frozenset(decl.morphisms)
        return frozenset(decl.std.arrows)

    def functor(self, name: str) -> FunctorMap:
        decl = self.functors.get(name)
        if decl is None:
            raise NameNotFoundError(f"no functor named {name!r}")
        return FunctorMap(
            source=self.objectless(decl.source),
            target=self.objectless(decl.target),
            mapping=decl.mapping,
            variance=decl.variance,
            name=name,
        )

    def nat(self, name: str) -> NatTransf:
        decl = self.nats.get(name)
        if decl is None:
            raise NameNotFoundError(f"no transformation named {name!r}")
        source = self.functor(decl.source)
        target = self.functor(decl.target)
        return NatTransf(source=source, target=target, components=self.identity_components(decl), name=name)

    def identity_components(self, decl: NatDecl) -> dict[str, str]:
        """``decl``'s components keyed by identity: a standard-form source category keys them by object."""
        cat_decl = self.categories.get(self.functors[decl.source].source)
        id_of = cat_decl.std.id_of if isinstance(cat_decl, StandardDecl) else {}
        return {id_of.get(key, key): value for key, value in decl.components.items()}


# ---------------------------------------------------------------------------
# Lexer


# A token is its text and its character offset.  Its kind needs no field:
# only the eof token has empty text, and punctuation never equals an
# identifier.  Tokens are plain tuples, since one is made per word of input.
# A run token, ``(keyword, offset, end, entries)``, stands for a run of
# well-formed statements of one ``_RUNS`` keyword, one entry per statement in
# the form its reader records (for ``arrows:`` and ``objects:``, per name).
_Token = tuple

# Each match of ``_TOKEN_RE`` is one token with the whitespace and comments
# before it; the groups are tried in order, and the last match is the empty
# ``eof``.  A word (``\w+``: the characters ``str.isalnum`` accepts, and ``_``)
# that is not a well-formed name is still an identifier token, with a
# diagnostic.  ``parse`` lexes with ``_LEX_RE``, which first tries a
# well-formed ``compose``, ``map``, ``component`` or ``arrow`` statement or
# ``arrows:`` or ``objects:`` list, with only spaces and tabs inside.  It opens
# a run, read by ``iter(scanner.match, None)`` over that keyword's pattern
# (compiled on first use, from the ``re`` cache, so an import pays for none),
# one match per statement driven from C, up to the first text that is not a
# statement of the same keyword; a statement with a comment or a line break
# inside is lexed as its tokens.  The keyword's reader takes a run whole;
# before anything else consumes one, ``_Parser.advance`` re-lexes it with
# ``_TOKEN_RE``, so every diagnostic comes from the token path.  A comment
# must end at a newline or the end, or a failed match tries each split of a
# run of ``#`` into comments.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_IDENT = "[A-Za-z_][A-Za-z0-9_]*"
_NAME, _LIST = f"({_IDENT})", rf"([ \t]*{_IDENT}(?:[ \t]*,[ \t]*{_IDENT})*)"
_TOKENS = r"""(?P<punct>->|=>|[{}:;,.=\[\]])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)(?!\w)
    | (?P<word>\w+)
    | (?P<bad>.)
    | (?P<eof>\Z)"""
_RUNS = {keyword: keyword + r"[ \t]*".join((*parts, ";")) for keyword, parts in (
    ("compose", ("", ":", _NAME, r"\.", _NAME, "=", _NAME)),
    ("map", (r"[ \t]", _NAME, "->", _NAME)),
    ("component", (r"[ \t]", _NAME, ":", _NAME)),
    ("arrow", (r"[ \t]", _NAME, ":", _NAME, "->", _NAME)),
    ("arrows", ("", ":" + _LIST)),
    ("objects", ("", ":" + _LIST)),
)}
_IDENT_RE = re.compile(_IDENT)
_TOKEN_RE = re.compile(_SKIP + "(?:" + _TOKENS + ")", re.VERBOSE | re.DOTALL)
_LEX_RE = re.compile(
    _SKIP + "(?:" + "".join(f"(?P<{k}>{v})|" for k, v in _RUNS.items()) + _TOKENS + ")", re.VERBOSE | re.DOTALL)

_PUNCT = frozenset(("->", "=>", "{", "}", ":", ";", ",", ".", "=", "[", "]"))  # the punct group's tokens
_Pending = tuple[str, str, int]  # a diagnostic as (kind, message, offset)


def _lex(text: str, pattern: re.Pattern, start: int, end: int) -> tuple[list[_Token], list[_Pending]]:
    tokens: list[_Token] = []
    diagnostics: list[_Pending] = []
    while True:
        for match in pattern.finditer(text, start, end):
            kind = match.lastgroup
            if kind in _RUNS:
                break
            value, offset = match[kind], match.start(kind)
            if kind == "bad":
                diagnostics.append((LEX, f"unexpected character {value!r}", offset))
                continue
            if kind == "word":
                diagnostics.append((LEX, f"malformed name {value!r} (names must not begin with a digit)", offset))
            tokens.append((value, offset))
            if kind == "eof":  # stop before the empty match that can follow an eof ending in a skip
                return tokens, diagnostics
        run = list(iter(re.compile(_RUNS[kind] + _SKIP).scanner(text, match.start(kind), end).match, None))
        start = run[-1].end()
        if kind in ("arrows", "objects"):
            entries = [(name[0], name.start()) for m in run for name in _IDENT_RE.finditer(text, *m.span(1))]
        else:
            group = 0 if kind == "compose" else 1  # compose entries are placed at the keyword
            entries = [(*m.groups(), m.start(group)) for m in run]
        tokens.append((kind, run[0].start(), start, entries))


def _spans(text: str, offsets: Iterable[int]) -> dict[int, Span]:
    """The line:col of each offset, from the newlines counted in one pass over the sorted offsets."""
    spans, line, start, prev = {}, 1, 0, 0
    for offset in sorted(set(offsets)):
        breaks = text.count("\n", prev, offset)
        if breaks:
            line += breaks
            start = text.rindex("\n", prev, offset) + 1
        spans[offset] = Span(line, offset - start + 1)
        prev = offset
    return spans


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, tokens: list[_Token], diagnostics: list[_Pending]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics
        self.doc = CatspecDocument()
        self.decl_offsets: dict[tuple[str, str], int] = {}

    # -- token helpers

    def peek(self) -> str:
        """The text of the current token."""
        return self.tokens[self.pos][0]

    def at_eof(self) -> bool:
        return not self.tokens[self.pos][0]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if len(tok) > 2:  # a run token not taken by its keyword's reader: split it into its tokens
            self.tokens[self.pos:self.pos + 1] = _lex(self.text, _TOKEN_RE, tok[1], tok[2])[0][:-1]
            tok = self.tokens[self.pos]
        if tok[0]:  # the eof token is never consumed
            self.pos += 1
        return tok

    def take_run(self, entries: list) -> bool:
        """Take a run token whole into ``entries``; at any other token, take nothing."""
        tok = self.tokens[self.pos]
        if len(tok) == 2:
            return False
        self.pos += 1
        entries.extend(tok[3])
        return True

    def at(self, value: str) -> bool:
        return self.tokens[self.pos][0] == value

    def error(self, kind: str, message: str, offset: int | None = None) -> None:
        self.diagnostics.append((kind, message, self.tokens[self.pos][1] if offset is None else offset))

    def expect_punct(self, value: str) -> bool:
        if self.at(value):
            self.advance()
            return True
        self.error(SYNTAX, f"expected {value!r}, found {self.peek()!r}")
        return False

    def expect_ident(self, what: str) -> _Token | None:
        value = self.peek()
        if value and value not in _PUNCT:
            return self.advance()
        self.error(SYNTAX, f"expected {what}, found {value!r}")
        return None

    def expect_terminator(self) -> None:
        if self.at(";"):
            self.advance()
            return
        self.error(MISSING_TERMINATOR, f"missing ';' before {self.peek()!r}")

    def sync_statement(self) -> None:
        while True:
            value = self.peek()
            if not value or value in (";", "}"):
                if value == ";":
                    self.advance()
                return
            self.advance()

    def expect_seq(self, *parts: str) -> list[_Token] | None:
        """Read ``parts`` in order: punctuation literally, any other part is a
        description of the identifier expected there.  Returns the identifiers,
        or None after reporting the first part that is missing."""
        idents = []
        for part in parts:
            if part in _PUNCT:
                if not self.expect_punct(part):
                    return None
            else:
                tok = self.expect_ident(part)
                if tok is None:
                    return None
                idents.append(tok)
        return idents

    def statement(self, *parts: str) -> list[_Token] | None:
        """Skip the keyword and read ``parts``; on a miss, skip to the end of the statement."""
        self.advance()
        idents = self.expect_seq(*parts)
        if idents is None:
            self.sync_statement()
        return idents

    def block(self, expected: str, statements: dict[str, Callable[[], None]]) -> None:
        """Statements up to the closing brace, each dispatched on its keyword."""
        while not self.at("}") and not self.at_eof():
            head = self.peek()
            if head in statements:
                statements[head]()
            else:
                self.error(SYNTAX, f"expected {expected}, found {head!r}")
                self.advance()
                self.sync_statement()
        self.expect_punct("}")

    # -- entity bookkeeping

    def declare(
        self, kind: str, name_tok: _Token, table: dict, decl: CategoryDecl | FunctorDecl | NatDecl,
    ) -> None:
        name, offset = name_tok
        if name in table:
            self.error(DUPLICATE_NAME, f"duplicate {kind} name {name!r}", offset)
            return
        self.decl_offsets[(kind, name)] = offset
        table[name] = decl

    # -- grammar

    def parse(self) -> CatspecDocument:
        declarations = {
            "objless": self.parse_objless, "category": self.parse_category,
            "functor": self.parse_functor, "nat": self.parse_nat,
        }
        while not self.at_eof():
            head = self.peek()
            if head in declarations:
                declarations[head]()
            else:
                self.error(SYNTAX, f"expected a declaration keyword, found {head!r}")
                self.advance()
        return self.doc

    def parse_names(self, noun: str, seen: dict[str, int]) -> None:
        """``arrows: a, b;`` or ``objects: A, B;``; records each new name's offset."""
        names: list[_Token] = []
        taken = self.take_run(names)
        if not taken:
            self.advance()
            self.expect_punct(":")
            while True:
                tok = self.expect_ident("a name")
                if tok is not None:
                    names.append(tok)
                if not self.at(","):
                    break
                self.advance()
        for name, offset in names:
            if name in seen:
                self.error(DUPLICATE_NAME, f"duplicate {noun} {name!r}", offset)
            else:
                seen[name] = offset
        if not taken:
            self.expect_terminator()

    def parse_compose(self, noun: str, entries: list[tuple[str, str, str, int]]) -> None:
        """``compose: after . before = result;``, with ``noun`` naming what each part must be."""
        if self.take_run(entries):
            return
        _, offset = self.advance()
        self.expect_punct(":")  # reported when missing, but the statement is still read
        parts = self.expect_seq(noun, ".", noun, "=", noun)
        if parts is None:
            self.sync_statement()
            return
        (after, _), (before, _), (result, _) = parts
        entries.append((after, before, result, offset))
        self.expect_terminator()

    def parse_pair(self, pairs: list[tuple[str, str, int]], *parts: str) -> None:
        """``keyword key <sep> value;``, recorded as (key, value, offset of key)."""
        if self.take_run(pairs):
            return
        idents = self.statement(*parts)
        if idents is not None:
            (key, offset), (value, _) = idents
            pairs.append((key, value, offset))
            self.expect_terminator()

    def compose_table(
        self, entries: list[tuple[str, str, str, int]], arrows: Mapping[str, object],
    ) -> dict[tuple[str, str], str]:
        # One pass, unless a name is undeclared or a pair written twice: the loop reports those.
        if entries:
            afters, befores, results, _ = zip(*entries)
            table = dict(zip(zip(afters, befores), results))
            if len(table) == len(entries) and arrows.keys() >= set(chain(afters, befores, results)):
                return table
        table = {}
        for after, before, result, offset in entries:
            for part in (after, before, result):
                if part not in arrows:
                    self.error(UNKNOWN_NAME, f"composition references undeclared arrow {part!r}", offset)
            prior = table.get((after, before))
            if prior is not None and prior != result:
                self.error(
                    CONFLICTING_COMPOSITION,
                    f"{after}.{before} declared as both {prior!r} and {result!r}", offset,
                )
            else:
                table[(after, before)] = result
        return table

    def pairs_dict(
        self, pairs: list[tuple[str, str, int]], keys: Container[str] | None, values: Container[str] | None,
        twice: Callable[[str], str], bad_key: Callable[[str], str], bad_value: Callable[[str], str],
    ) -> dict[str, str]:
        """``(key, value, offset)`` pairs as a dict, first value kept; reports a key given twice,
        a key not in ``keys`` and a value not in ``values`` (None: not checked), each with the
        message its function makes of the name."""
        mapping: dict[str, str] = {}
        for key, value, offset in pairs:
            if key in mapping:
                self.error(DUPLICATE_NAME, twice(key), offset)
                continue
            if keys is not None and key not in keys:
                self.error(UNKNOWN_NAME, bad_key(key), offset)
            if values is not None and value not in values:
                self.error(UNKNOWN_NAME, bad_value(value), offset)
            mapping[key] = value
        return mapping

    def parse_objless(self) -> None:
        header = self.statement("a category name", "{")
        if header is None:
            return
        morphisms: dict[str, int] = {}
        entries: list[tuple[str, str, str, int]] = []
        self.block("'arrows' or 'compose'", {
            "arrows": lambda: self.parse_names("arrow", morphisms),
            "compose": lambda: self.parse_compose("a morphism name", entries),
        })
        table = self.compose_table(entries, morphisms)
        [name_tok] = header
        self.declare("category", name_tok, self.doc.categories,
                     ObjlessDecl(name=name_tok[0], morphisms=tuple(morphisms), table=table))

    def parse_category(self) -> None:
        header = self.statement("a category name", "{")
        if header is None:
            return
        [name_tok] = header
        name, name_offset = name_tok
        objects: dict[str, int] = {}
        arrows: dict[str, tuple[str, str]] = {}
        arrow_offsets: dict[str, int] = {}
        declared_ids: dict[str, str] = {}
        entries: list[tuple[str, str, str, int]] = []

        def arrow_statement() -> None:
            declared: list[tuple[str, str, str, int]] = []
            taken = self.take_run(declared)
            if not taken:
                parts = self.statement("an arrow name", ":", "an object name", "->", "an object name")
                if parts is None:
                    return
                (arrow, offset), (dom, _), (cod, _) = parts
                declared.append((arrow, dom, cod, offset))
            for arrow, dom, cod, offset in declared:
                if arrow in arrows:
                    self.error(DUPLICATE_NAME, f"duplicate arrow {arrow!r}", offset)
                else:
                    arrows[arrow] = (dom, cod)
                    arrow_offsets[arrow] = offset
            if not taken:
                self.expect_terminator()

        def id_statement() -> None:
            parts = self.statement("an object name", "=", "an arrow name")
            if parts is None:
                return
            (obj, obj_offset), (ident, ident_offset) = parts
            if obj in declared_ids:
                self.error(DUPLICATE_NAME, f"object {obj!r} has two identity declarations", obj_offset)
            elif ident in arrows:
                self.error(DUPLICATE_NAME, f"identity name {ident!r} already declared", ident_offset)
            else:
                declared_ids[obj] = ident
                arrows[ident] = (obj, obj)
                arrow_offsets[ident] = ident_offset
            self.expect_terminator()

        self.block("'objects', 'arrow', 'id', or 'compose'", {
            "objects": lambda: self.parse_names("object", objects),
            "arrow": arrow_statement,
            "id": id_statement,
            "compose": lambda: self.parse_compose("an arrow name", entries),
        })

        for obj in objects:
            if obj not in declared_ids:
                auto = f"id_{obj}"
                if auto in arrows:
                    self.error(
                        DUPLICATE_NAME,
                        f"auto identity name {auto!r} collides with a declared arrow; use 'id {obj} = ...;'",
                        objects[obj],
                    )
                else:
                    declared_ids[obj] = auto
                    arrows[auto] = (obj, obj)
        for arrow, (dom, cod) in sorted(arrows.items()):
            offset = arrow_offsets.get(arrow, name_offset)
            for obj in dict.fromkeys((dom, cod)):
                if obj not in objects:
                    self.error(UNKNOWN_NAME, f"arrow {arrow!r} references undeclared object {obj!r}", offset)
        for obj in declared_ids:
            if obj not in objects:
                self.error(UNKNOWN_NAME, f"identity declared for undeclared object {obj!r}", name_offset)

        table = self.compose_table(entries, arrows)
        id_of = dict(declared_ids)
        for arrow, (dom, cod) in arrows.items():
            dom_id = id_of.get(dom)
            cod_id = id_of.get(cod)
            if dom_id is not None:
                table.setdefault((arrow, dom_id), arrow)
            if cod_id is not None:
                table.setdefault((cod_id, arrow), arrow)

        std = StdCategory.make(objects=objects, arrows=arrows, table=table, id_of=id_of)
        self.declare("category", name_tok, self.doc.categories, StandardDecl(name=name, std=std))

    def parse_functor(self) -> None:
        header = self.statement("a functor name", ":", "a category name", "->", "a category name")
        if header is None:
            return
        name_tok, (source, source_offset), (target, target_offset) = header
        variance = COVARIANT
        if self.at("contravariant"):
            self.advance()
            variance = CONTRAVARIANT
        elif self.at("["):
            self.advance()
            tok = self.expect_ident("'contravariant'")
            if tok is not None and tok[0] != "contravariant":
                self.error(SYNTAX, f"expected 'contravariant', found {tok[0]!r}", tok[1])
            self.expect_punct("]")
            variance = CONTRAVARIANT
        if not self.expect_punct("{"):
            self.sync_statement()
            return
        pairs: list[tuple[str, str, int]] = []
        self.block("'map'", {"map": lambda: self.parse_pair(pairs, "a morphism name", "->", "a morphism name")})

        for cat, offset in ((source, source_offset), (target, target_offset)):
            if cat not in self.doc.categories:
                self.error(UNKNOWN_NAME, f"functor references unknown category {cat!r}", offset)
        src_names = self.doc.morphism_names(source) if source in self.doc.categories else None
        dst_names = self.doc.morphism_names(target) if target in self.doc.categories else None
        mapping = self.pairs_dict(pairs, src_names, dst_names, lambda key: f"morphism {key!r} mapped twice",
                                  lambda key: f"map key {key!r} is not a morphism of {source}",
                                  lambda value: f"map value {value!r} is not a morphism of {target}")

        self.declare("functor", name_tok, self.doc.functors, FunctorDecl(
            name=name_tok[0], source=source, target=target, variance=variance, mapping=mapping,
        ))

    def parse_nat(self) -> None:
        header = self.statement("a transformation name", ":", "a functor name", "=>", "a functor name", "{")
        if header is None:
            return
        name_tok, (source, source_offset), (target, target_offset) = header
        triples: list[tuple[str, str, int]] = []
        self.block("'component'", {
            "component": lambda: self.parse_pair(triples, "an identity or object name", ":", "a morphism name"),
        })

        source_decl = self.doc.functors.get(source)
        target_decl = self.doc.functors.get(target)
        for fun, offset in ((source, source_offset), (target, target_offset)):
            if fun not in self.doc.functors:
                self.error(UNKNOWN_NAME, f"transformation references unknown functor {fun!r}", offset)
        if source_decl is not None and target_decl is not None:
            if (source_decl.source, source_decl.target) != (target_decl.source, target_decl.target):
                self.error(
                    WIRING,
                    f"functors {source} and {target} do not share source and target",
                    name_tok[1],
                )

        # Keys and values are checked only against a known, nonempty source and target.
        key_names = value_names = None
        if source_decl is not None and source_decl.source in self.doc.categories:
            cat_decl = self.doc.categories[source_decl.source]
            key_names = cat_decl.std.objects if isinstance(cat_decl, StandardDecl) else frozenset(cat_decl.morphisms)
        if source_decl is not None and source_decl.target in self.doc.categories:
            value_names = self.doc.morphism_names(source_decl.target)
        components = self.pairs_dict(triples, key_names or None, value_names or None,
                                     lambda key: f"component at {key!r} declared twice",
                                     lambda key: f"component key {key!r} not found in the source category",
                                     lambda value: f"component value {value!r} not found in the target category")

        self.declare("nat", name_tok, self.doc.nats, NatDecl(
            name=name_tok[0], source=source, target=target, components=components,
        ))


def parse(text: str) -> CatspecDocument:
    """Parse catspec text; raises CatspecError carrying all diagnostics."""
    tokens, diagnostics = _lex(text, _LEX_RE, 0, len(text))
    parser = _Parser(text, tokens, diagnostics)
    doc = parser.parse()
    if parser.diagnostics:
        spans = _spans(text, (offset for _, _, offset in parser.diagnostics))
        raise CatspecError(
            Diagnostic(kind, message, spans[offset], offset) for kind, message, offset in parser.diagnostics
        )
    spans = _spans(text, parser.decl_offsets.values())
    doc.source_spans = {key: spans[offset] for key, offset in parser.decl_offsets.items()}
    return doc


# ---------------------------------------------------------------------------
# Serializer


def serialize(doc: CatspecDocument) -> str:
    """Canonical text: entities sorted by name, arrows and compositions sorted."""
    chunks: list[str] = []
    for name in sorted(doc.categories):
        decl = doc.categories[name]
        if isinstance(decl, ObjlessDecl):
            lines = [f"objless {name} {{"]
            lines.append(f"  arrows: {', '.join(sorted(decl.morphisms))};")
            for (after, before), result in sorted(decl.table.items()):
                lines.append(f"  compose: {after} . {before} = {result};")
            lines.append("}")
        else:
            std = decl.std
            ids = set(std.id_of.values())
            lines = [f"category {name} {{"]
            lines.append(f"  objects: {', '.join(sorted(std.objects))};")
            for arrow, (dom, cod) in sorted(std.arrows.items()):
                if arrow not in ids:
                    lines.append(f"  arrow {arrow}: {dom} -> {cod};")
            for obj in sorted(std.objects):
                ident = std.id_of.get(obj)
                if ident is not None and ident != f"id_{obj}":
                    lines.append(f"  id {obj} = {ident};")
            for (after, before), result in sorted(std.table.items()):
                if not ((before in ids and result == after) or (after in ids and result == before)):
                    lines.append(f"  compose: {after} . {before} = {result};")
            lines.append("}")
        chunks.append("\n".join(lines))
    for name in sorted(doc.functors):
        decl = doc.functors[name]
        variance = " contravariant" if decl.variance == CONTRAVARIANT else ""
        lines = [f"functor {name}: {decl.source} -> {decl.target}{variance} {{"]
        for key, value in sorted(decl.mapping.items()):
            lines.append(f"  map {key} -> {value};")
        lines.append("}")
        chunks.append("\n".join(lines))
    for name in sorted(doc.nats):
        decl = doc.nats[name]
        lines = [f"nat {name}: {decl.source} => {decl.target} {{"]
        for key, value in sorted(decl.components.items()):
            lines.append(f"  component {key}: {value};")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


# ---------------------------------------------------------------------------
# Programmatic document construction


def objless_decl(name: str, cat: ObjlessCategory) -> ObjlessDecl:
    return ObjlessDecl(name=name, morphisms=tuple(cat.morphisms), table=dict(cat.table))


def functor_decl(name: str, source: str, target: str, f: FunctorMap) -> FunctorDecl:
    return FunctorDecl(
        name=name, source=source, target=target,
        variance=f.variance, mapping=dict(f.mapping),
    )


def nat_decl(name: str, source: str, target: str, nat: NatTransf) -> NatDecl:
    return NatDecl(name=name, source=source, target=target, components=dict(nat.components))
