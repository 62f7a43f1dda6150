"""Arrow-only finite categories.

A category is stored as a finite set of morphism names together with a partial
composition table keyed ``(after, before) -> result``, meaning the composite
"after applied after before" is defined and equal to ``result``.  Identities
are never declared: they are recovered from the table as the morphisms that
are neutral in every composition they take part in.  Domains and codomains are
the unique identities each morphism composes with on the right and on the
left.

Composition is also read by morphism, ``rows[g] = {b: g.b}``, and the inverse
of each invertible ``f`` is kept in ``inverses``: each built on first use, not
by ``build``, so that a category only validated and scanned, as in the limit
searches, holds neither.

Validation reads the table once.  Up to 255 morphisms, each row is a dense
``bytes`` of length 256, ``row[m][b] = m.b`` by byte code, 255 where undefined.
An entry ``g.m`` has ``(g.m).a == g.(m.a)`` at every ``a``, both undefined
where ``m.a`` is, exactly when ``row[g.m] == row[m].translate(row[g])``: one
C-level ``bytes.translate`` per entry.  Each entry ``m.a`` also needs equal 0/1
columns, ``g.(m.a)`` defined exactly when ``g.m`` is; the row key sets then
agree as well and need no check.  Codes of 256 or more morphisms do not fit a
byte, so larger tables keep the column pass of C-level ``itemgetter`` lookups.

A category of up to 255 morphisms keeps that layout in ``_layout``: the name
order, the code map and the rows cut to n bytes.  ``build`` keeps validation's;
``full_subcategory`` restricts its parent's rows, recoded and cut by translates,
and reads its table off them (or lays out a filtered table, under a larger parent);
``opposite`` takes the transposed rows.  Nothing builds a 256-byte row to keep.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import InitVar, dataclass, field
from itertools import chain, compress, product, repeat
from operator import add, itemgetter, mul, ne
from types import MappingProxyType
from typing import Iterable, Mapping, Sized

from .errors import (
    CapacityError,
    InvalidCategoryError,
    MalformedNameError,
    NameNotFoundError,
    NotAnIdentityError,
)
from .report import (
    ASSOCIATIVITY_EQUAL,
    ASSOCIATIVITY_EXISTENCE,
    FUNCTIONALITY,
    IDENTITY_MISSING,
    IDENTITY_NONUNIQUE,
    ValidationReport,
    violation,
)

MAX_MORPHISMS = 4096
DEFAULT_ISO_CAP = 64  # the isomorphism and equivalence searches' default cap

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# A table is given either as a mapping or as (after, before, result) triples;
# the triple form can carry conflicting duplicates, which the mapping form cannot.
TableLike = Mapping[tuple[str, str], str] | Iterable[tuple[str, str, str]]


def check_count(count: int, cap: int = MAX_MORPHISMS) -> None:
    """Raise CapacityError if ``count`` morphisms exceed ``cap``."""
    if count > cap:
        raise CapacityError(f"{count} morphisms exceeds cap of {cap}")


def check_cap(cap: int, *sized: Sized) -> None:
    """Raise CapacityError unless every argument has at most ``cap`` morphisms."""
    for item in sized:
        check_count(len(item), cap)


def check_names(names: Iterable[str]) -> None:
    for name in names:
        if not _NAME_RE.match(name):
            raise MalformedNameError(f"malformed name: {name!r}")


def _entries(table: TableLike) -> list[tuple[str, str, str]]:
    if isinstance(table, Mapping):
        return [(after, before, result) for (after, before), result in table.items()]
    return [tuple(entry) for entry in table]  # type: ignore[misc]


def neutral_morphisms(morphisms: Iterable[str], table: Mapping[tuple[str, str], str]) -> set[str]:
    """Morphisms that act neutrally in every composition they appear in.

    An entry ``(after, before) -> result`` rules out ``before`` unless
    ``result == after`` and rules out ``after`` unless ``result == before``.
    """
    non_neutral: set[str] = set()
    for (after, before), result in table.items():
        if result != after:
            non_neutral.add(before)
        if result != before:
            non_neutral.add(after)
    return set(morphisms) - non_neutral


def _conflict(after, before, prior, result):
    return violation(
        FUNCTIONALITY, (after, before, result),
        f"pair ({after}, {before}) maps to both {prior} and {result}",
    )


def _associativity(g, b, a, left, right):
    if left is None or right is None:
        missing = f"{g}.({b}.{a})" if left is None else f"({g}.{b}).{a}"
        return violation(
            ASSOCIATIVITY_EXISTENCE, (g, b, a),
            f"{missing} undefined although {b}.{a} and {g}.{b} are defined",
        )
    return violation(
        ASSOCIATIVITY_EQUAL, (g, b, a),
        f"{g}.({b}.{a}) = {left} but ({g}.{b}).{a} = {right}",
    )


def _outer_without_inner(g, b, a):
    return violation(ASSOCIATIVITY_EXISTENCE, (g, b, a), f"{g}.({b}.{a}) is defined but {g}.{b} is not")


def _outer_without_tail(g, b, a):
    return violation(ASSOCIATIVITY_EXISTENCE, (g, b, a), f"({g}.{b}).{a} is defined but {b}.{a} is not")


def _identity(m, right, witnesses):
    if not witnesses:
        composite = f"{m}.i" if right else f"i.{m}"
        return violation(IDENTITY_MISSING, (m,), f"no identity i with {composite} defined and i neutral")
    message = (f"{m} composes with {len(witnesses)} neutral morphisms on the right" if right
               else f"{len(witnesses)} neutral morphisms compose with {m} on the left")
    return violation(IDENTITY_NONUNIQUE, (m, *witnesses[:2]), message)


def _undeclared(names: frozenset[str], entries: Iterable[tuple[str, str, str]]) -> None:
    name = next(name for entry in entries for name in entry if name not in names)
    raise NameNotFoundError(f"table references undeclared morphism {name!r}")


_UNDEFINED = 255  # the byte code of an undefined composite; morphisms take the codes below it
_DEFINED = b"\x01" * _UNDEFINED + b"\x00"  # translates a code to 1 and 255 to 0
_DROPPED, _RESTORED = bytes(255) + b"\xff", bytes(range(254)) + b"\xff\xff"  # 255 kept; 254 to 255


class _Table(dict):
    """A table read once, first result per pair kept; morphism ``order[i]`` has code ``i``.

    ``conflicts`` holds a ``(make, *args)`` witness per conflicting duplicate, as
    ``ValidationReport.from_witnesses`` takes them.  Up to 255 morphisms ``codes`` holds
    the after, before and result codes of the entries, ``dense[i]`` is row ``i``, 256 bytes
    with the code of ``i.j`` at ``j`` and 255 where undefined, ``rows[i]`` the same row cut
    to n bytes, and ``masks`` holds the rows and the columns of the table with 1 where
    defined and 0 elsewhere.
    """

    def __init__(self, morphisms: Iterable[str], table: TableLike):
        self.names = names = frozenset(morphisms)
        check_names(names)
        check_count(len(names))
        self.conflicts, self.dense, self._dicts = [], None, None
        if isinstance(table, Mapping):
            self.update(table)  # a mapping holds no conflicting duplicates
        else:
            entries = [tuple(entry) for entry in table]
            if not names.issuperset(chain.from_iterable(entries)):
                _undeclared(names, entries)
            self.conflicts = [(_conflict, g, b, prior, gb) for g, b, gb in entries
                              if (prior := self.setdefault((g, b), gb)) != gb]
        self.order, self.neutral, n = list(names), neutral_morphisms(names, self), len(names)
        if n > _UNDEFINED:
            if not (names.issuperset(chain.from_iterable(self)) and names.issuperset(self.values())):
                _undeclared(names, _entries(self))
            return
        self.code = code = dict(zip(self.order, range(n)))
        try:  # the codes also check that every name is declared
            self.codes = codes = [list(map(code.__getitem__, part)) for part in (
                map(itemgetter(0), self), map(itemgetter(1), self), self.values())]
        except KeyError:
            _undeclared(names, _entries(self))
        flat = bytearray(b"\xff") * (n << 8)  # flat[g << 8 | b] = g.b, one C-level call per entry
        deque(map(flat.__setitem__, map(add, map(mul, codes[0], repeat(256)), codes[1]), codes[2]), 0)
        flat = bytes(flat)
        self.dense = [flat[i:i + 256] for i in range(0, len(flat), 256)]
        self.rows = [flat[i:i + n] for i in range(0, len(flat), 256)]
        defined = flat.translate(_DEFINED)
        self.masks = [defined[i:i + n] for i in range(0, len(flat), 256)], [defined[j::256] for j in range(n)]

    def index(self) -> tuple[dict[str, dict[str, str]], dict[str, dict[str, str]]]:
        """``rows[g] = {b: g.b}`` and ``cols[b] = {g: g.b}``, built on the first call."""
        if self._dicts is None:
            self._dicts = rows, cols = {m: {} for m in self.names}, {m: {} for m in self.names}
            for (g, b), gb in self.items():
                rows[g][b] = gb
                cols[b][g] = gb
        return self._dicts

    def partners(self, m: str) -> list[Iterable[str]]:
        """The ``b`` with ``m.b`` defined, and the ``g`` with ``g.m`` defined."""
        if self.dense is None:
            return [index[m] for index in self.index()]
        return [compress(self.order, side[self.code[m]]) for side in self.masks]


def _shared_keys(maps: Mapping[str, dict]) -> dict[str, frozenset[str]]:
    """Each map's key set, with equal sets shared as one object."""
    shared: dict[frozenset[str], frozenset[str]] = {}
    return {m: shared.setdefault(keys, keys) for m, keys in ((m, frozenset(d)) for m, d in maps.items())}


def _failing(t: _Table) -> set[str]:
    """The morphisms some entry of which fails the fast pass (see the module docstring)."""
    if t.dense is not None:
        (afters, befores, results), columns = t.codes, t.masks[1]
        failing = set(compress(befores, map(ne, map(t.rows.__getitem__, results), map(
            bytes.translate, map(t.rows.__getitem__, befores), map(t.dense.__getitem__, afters)))))
        failing.update(compress(afters, map(ne, map(columns.__getitem__, results), map(columns.__getitem__, afters))))
        return set(map(t.order.__getitem__, failing))
    rows, cols = t.index()
    col_keys, row_keys = _shared_keys(cols), _shared_keys(rows)
    failing = set()
    for m, row in rows.items():
        col = cols[m]
        if not (
            list(map(col_keys.__getitem__, row.values())) == [col_keys[m]] * len(row)
            and list(map(row_keys.__getitem__, col.values())) == [row_keys[m]] * len(col)
            and (not col or list(map(itemgetter(*col), map(cols.__getitem__, row.values())))
                 == list(map(itemgetter(*col.values()), map(cols.__getitem__, row))))
        ):
            failing.add(m)
    return failing


def _identities_hold(t: _Table) -> bool:
    """On a dense table, whether every morphism has one neutral partner on each side.  Read as
    big-endian integers, the masks of the neutral morphisms on a side sum to each morphism's
    count of partners in its byte, with no carry: a count is at most 255."""
    ones, neutral = int.from_bytes(b"\x01" * len(t.order), "big"), [t.code[m] for m in t.neutral]
    return all(sum(int.from_bytes(side[i], "big") for i in neutral) == ones for side in t.masks)


def validate_objectless(morphisms: Iterable[str], table: TableLike) -> ValidationReport:
    """Check the associativity and identity-existence axioms on raw data.

    Returns a total report: all violations are collected (bounded), nothing
    raises on axiom failure.  Undeclared or malformed names are programming
    errors and raise instead of being reported.

    A fast pass in C-level maps, byte rows up to 255 morphisms and ``itemgetter``
    columns above, only picks the morphisms that fail (see the module docstring).  The
    entries of those are walked ``g`` by ``g``, in table order, to report violations, so
    reports do not depend on the codes.  Each violation is kept as a raw witness tuple;
    only the first ``MAX_VIOLATIONS`` are formatted, so badly broken input costs no
    more than a count past the cap.
    """
    t = table if isinstance(table, _Table) else _Table(morphisms, table)
    failing = _failing(t)

    equal, before_defined, after_defined, identity = [], [], [], []
    rows, cols = t.index() if failing else ({}, {})
    for (b, a), ba in t.items() if failing else ():
        if b not in failing and a not in failing:
            continue
        # Associativity, equality part: whenever b.a and g.b are defined,
        # g.(b.a) and (g.b).a must be defined and equal.
        for g, gb in cols[b].items():
            left = cols[ba].get(g)
            right = cols[a].get(gb)
            if left is None or right is None or left != right:
                equal.append((_associativity, g, b, a, left, right))
        # Associativity, partial-existence part, with this entry as b.a:
        # if g.(b.a) is defined then g.b is.
        for g in cols[ba]:
            if g not in cols[b]:
                before_defined.append((_outer_without_inner, g, b, a))
        # ... and with this entry as g.b: if (g.b).a is defined then b.a is.
        g, b, gb = b, a, ba
        for a in rows[gb]:
            if a not in rows[b]:
                after_defined.append((_outer_without_tail, g, b, a))

    # Identity existence: every morphism needs one neutral partner on each side.
    for m in () if t.dense is not None and _identities_hold(t) else sorted(t.names):
        for partners, right in zip(t.partners(m), (True, False)):
            witnesses = sorted(t.neutral.intersection(partners))
            if len(witnesses) != 1:
                identity.append((_identity, m, right, witnesses))

    return ValidationReport.from_witnesses(t.conflicts + equal + before_defined + after_defined + identity)


def infer_identities(morphisms: Iterable[str], table: Mapping[tuple[str, str], str]) -> frozenset[str]:
    """Identities of validated data: neutral morphisms that compose with themselves."""
    neutral = neutral_morphisms(morphisms, table)
    return frozenset(m for m in neutral if (m, m) in table)


@dataclass(frozen=True)
class CompositionProfile:
    """Which morphisms an identity composes with, on either side."""

    right_partners: frozenset[str]
    left_partners: frozenset[str]


_SEAL = object()  # passed only by the constructors below, which yield valid categories


@dataclass(frozen=True)
class ObjlessCategory:
    """A validated arrow-only category; construct via :meth:`build`.

    Values are immutable; ``identities``, ``dom`` and ``cod`` are caches
    derived from ``morphisms`` and ``table`` alone.  Calling the class raises
    TypeError: only :meth:`build`, :meth:`full_subcategory` and :meth:`opposite` make one.
    """

    morphisms: frozenset[str]
    table: Mapping[tuple[str, str], str]
    identities: frozenset[str]
    dom: Mapping[str, str]
    cod: Mapping[str, str]
    _seal: InitVar[object] = None
    # Set on first use with object.__setattr__: a cached property would make CPython 3.11
    # materialise the instance dictionary, after which every attribute read costs about 2x.
    _rows: dict[str, dict[str, str]] | None = field(default=None, compare=False, repr=False)
    _hash: int | None = field(default=None, compare=False, repr=False)
    _inverses: dict[str, str] | None = field(default=None, compare=False, repr=False)
    _tables: dict | None = field(default=None, compare=False, repr=False)  # kept by _search.functor_search
    # (order, code, rows) up to 255 morphisms, set by the constructors (see the module docstring).
    _layout: tuple[list[str], dict[str, int], list[bytes]] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self, _seal: object) -> None:
        if _seal is not _SEAL:
            raise TypeError("an ObjlessCategory is made by ObjlessCategory.build, which validates its data")

    @classmethod
    def build(cls, morphisms: Iterable[str], table: TableLike) -> "ObjlessCategory":
        """Validate raw data and build the category; each argument is read once."""
        t = _Table(morphisms, table)
        report = validate_objectless(t.names, t)
        if not report.ok:
            raise InvalidCategoryError(report)
        identities = frozenset(i for i in t.neutral if (i, i) in t)
        # dom and cod keep the declared name objects, in their order.
        dom, cod = dict.fromkeys(t.names), dict.fromkeys(t.names)
        for i in identities:
            right, left = t.partners(i)
            dom.update(dict.fromkeys(left, i))
            cod.update(dict.fromkeys(right, i))
        return cls(morphisms=t.names, table=MappingProxyType(dict(t)), identities=identities,
                   dom=MappingProxyType(dom), cod=MappingProxyType(cod), _seal=_SEAL,
                   _layout=None if t.dense is None else (t.order, t.code, t.rows))

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.morphisms, tuple(sorted(self.table.items())))))
        return self._hash

    @property
    def rows(self) -> dict[str, dict[str, str]]:
        """``rows[g] = {b: g.b}`` for each morphism ``g``; read only."""
        if self._rows is None:
            rows: dict[str, dict[str, str]] = {m: {} for m in self.morphisms}
            for (g, b), gb in self.table.items():
                rows[g][b] = gb
            object.__setattr__(self, "_rows", rows)
        return self._rows

    @property
    def inverses(self) -> dict[str, str]:
        """``inverses[f] = g`` for each invertible ``f``: ``f.g = cod f`` and ``g.f = dom f``; read only."""
        if self._inverses is None:
            table, dom, cod = self.table, self.dom, self.cod
            object.__setattr__(self, "_inverses", {f: g for (f, g), fg in table.items()
                                                   if fg == cod[f] and table.get((g, f)) == dom[f]})
        return self._inverses

    def __len__(self) -> int:
        return len(self.morphisms)

    def _require(self, name: str) -> None:
        if name not in self.morphisms:
            raise NameNotFoundError(f"unknown morphism {name!r}")

    def _require_identity(self, name: str) -> None:
        self._require(name)
        if name not in self.identities:
            raise NotAnIdentityError(f"{name!r} is not an identity")

    def dom_id(self, name: str) -> str:
        """The unique identity i with name.i defined."""
        self._require(name)
        return self.dom[name]

    def cod_id(self, name: str) -> str:
        """The unique identity i with i.name defined."""
        self._require(name)
        return self.cod[name]

    def compose(self, after: str, before: str) -> str | None:
        """The composite after.before, or None when undefined."""
        self._require(after)
        self._require(before)
        return self.table.get((after, before))

    def hom_class(self, src: str, dst: str) -> frozenset[str]:
        """All morphisms with domain identity ``src`` and codomain identity ``dst``."""
        self._require_identity(src)
        self._require_identity(dst)
        return frozenset(m for m in self.morphisms if self.dom[m] == src and self.cod[m] == dst)

    def hom_classes(self) -> dict[tuple[str, str], list[str]]:
        """Every nonempty hom class in one pass, keyed by (domain, codomain)
        identity, with its morphisms in name order."""
        homs: dict[tuple[str, str], list[str]] = {}
        for m in sorted(self.morphisms):
            homs.setdefault((self.dom[m], self.cod[m]), []).append(m)
        return homs

    def composition_profile(self, ident: str) -> CompositionProfile:
        self._require_identity(ident)
        return CompositionProfile(
            right_partners=frozenset(g for (g, b) in self.table if b == ident),
            left_partners=frozenset(b for (g, b) in self.table if g == ident),
        )

    def discernible(self, ident1: str, ident2: str) -> bool:
        """True iff the two identities have different composition profiles."""
        return self.composition_profile(ident1) != self.composition_profile(ident2)

    def full_subcategory(self, identities: Iterable[str]) -> "ObjlessCategory":
        """The full subcategory on some identities; valid as a restriction of valid data, its byte
        rows restricted from these (see the module docstring) and its table read off them."""
        keep = frozenset(identities)
        for ident in sorted(keep):  # in name order, so that an error names the least bad name
            self._require_identity(ident)
        if keep == self.identities:
            return self  # categories are values, so the whole category is its own copy
        dom, cod = self.dom, self.cod
        arrows = frozenset(m for m in self.morphisms if dom[m] in keep and cod[m] in keep)
        if self._layout is None:
            t = _Table(arrows, dict(compress(self.table.items(), map(arrows.issuperset, self.table))))
            table, layout = dict(t), None if t.dense is None else (t.order, t.code, t.rows)
        else:
            whole, code, rows = self._layout
            kept, recode = sorted(map(code.__getitem__, arrows)), bytearray(b"\xff") * 255 + b"\xfe"
            deque(map(recode.__setitem__, kept, range(len(kept))), 0)  # old code to new; 255 to 254 for now
            # In the kept rows, recoded, every dropped column is set to 255 with one integer OR; then one
            # translate deletes the 255s and turns each 254 back into 255.
            joined = b"".join(map(rows.__getitem__, kept)).translate(recode)
            dropped = bytes(range(len(whole))).translate(recode).translate(_DROPPED) * len(kept)
            flat = (int.from_bytes(joined, "big") | int.from_bytes(dropped, "big")).to_bytes(len(joined), "big")
            order, n, flat = list(map(whole.__getitem__, kept)), len(kept), flat.translate(_RESTORED, b"\xff")
            layout = order, dict(zip(order, range(n))), [flat[i * n:i * n + n] for i in range(n)]
            table = dict(zip(compress(product(order, repeat=2), flat.translate(_DEFINED)),
                             map(order.__getitem__, flat.translate(None, b"\xff"))))
        return ObjlessCategory(morphisms=arrows, table=MappingProxyType(table), identities=keep,
                               dom=MappingProxyType(dict(zip(arrows, map(dom.__getitem__, arrows)))),
                               cod=MappingProxyType(dict(zip(arrows, map(cod.__getitem__, arrows)))),
                               _seal=_SEAL, _layout=layout)

    def opposite(self) -> "ObjlessCategory":
        """Reverse all compositions; domains and codomains swap."""
        t, layout = {(b, a): r for (a, b), r in self.table.items()}, self._layout
        if layout is not None:  # the transposed rows: column j of the flat rows
            flat, n = b"".join(layout[2]), len(layout[0])
            layout = layout[0], layout[1], [flat[j::n] for j in range(n)]
        return ObjlessCategory(morphisms=self.morphisms, table=MappingProxyType(t), identities=self.identities,
                               dom=self.cod, cod=self.dom, _seal=_SEAL, _inverses=self._inverses, _layout=layout)
