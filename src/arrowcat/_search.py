"""One backtracking search over table-preserving morphism maps, and the caps that bound it.

``functor_search`` yields every covariant functor as a morphism map; with
``iso=True`` only the isomorphisms, the functors with a strict inverse.
Identities are mapped first (in ``iso`` mode rarest hom-size signature
first), then non-identities in name order, each within the hom class its ends
pick out; in ``iso`` mode the map must also stay injective.  Each table
entry p.q = r is checked once, at the step that assigns the last of p, q and
r, so the leaf yields the map without a second pass; in ``iso`` mode, when r
comes after both factors, the step that assigns the last factor also checks
that r's only possible image F(p).F(q) is not yet used (forward checking, as
in VF2: Cordella et al., 2004).  Both lists are built once per category and
mode.  Undefined composites need no check: w.x is defined iff cod x = dom w,
candidates lie in the hom class of their mapped ends, and in ``iso`` mode
identities map injectively.

In ``iso`` mode each morphism also carries an invariant that every
isomorphism preserves: the size of its hom class, and for an endomorphism
the tail length and period of its powers m, m.m, ...  (McKay & Piperno,
"Practical graph isomorphism, II", 2014).  Whether it is an identity needs
no place in it: only endomorphisms have a period, and an endomorphism hom
class of size s holds one identity among its s members, so the multiset
fixes how many identities have each size; and identities are mapped first,
so no other morphism is offered one.  Categories whose invariant multisets
differ are rejected before any branching.  A morphism is offered only the
candidates with its invariant, still in name order; the others lead to no
isomorphism, so the first isomorphism found is the one an unpruned search
finds.
What it reads of one category alone, from hom sizes to candidate lists, is
built once per category, on first use, and kept on the category.
The search is not trusted: the public decisions audit what they return.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterator

from .core import DEFAULT_ISO_CAP, ObjlessCategory, check_cap  # the caps live in core; re-exported here

BRUTE_FORCE_CAP = 12
# Functor pairs (F, G) the exhaustive equivalence search may visit: at
# 12-25 us a pair, a few seconds.  Small categories can have too many
# functors for any cap on their size: discrete(5) has 3,125 each way.
BRUTE_FORCE_PAIRS = 100_000


def _grouped(pairs) -> dict:
    """``{key: [value, ...]}`` in the order the pairs come."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def _hom_sizes(cat: ObjlessCategory) -> dict[tuple[str, str], int]:
    return Counter(zip(map(cat.dom.__getitem__, cat.morphisms), map(cat.cod.__getitem__, cat.morphisms)))


def _identity_signature(cat, sizes, ident):
    self_size = sizes.get((ident, ident), 0)
    out = sorted(sizes.get((ident, other), 0) for other in cat.identities if other != ident)
    inc = sorted(sizes.get((other, ident), 0) for other in cat.identities if other != ident)
    return (self_size, tuple(out), tuple(inc))


def _invariants(cat: ObjlessCategory, sizes: dict[tuple[str, str], int]) -> dict[str, tuple]:
    """Each morphism's hom-class size, and the tail and period of its powers m, m.m, ..."""
    out = {}
    for m in cat.morphisms:
        ends = (cat.dom[m], cat.cod[m])
        tail = period = 0
        if ends[0] == ends[1]:
            seen: dict[str, int] = {}
            power = m
            while power not in seen:
                seen[power] = len(seen)
                power = cat.table[(m, power)]
            tail, period = seen[power], len(seen) - seen[power]
        out[m] = (sizes[ends], tail, period)
    return out


def _hom_lists(cat: ObjlessCategory, labels: dict[str, tuple]) -> dict[tuple, list[str]]:
    """A search's candidates: the morphisms of each hom class and label (None if unlabelled), in name order."""
    return _grouped(((cat.dom[m], cat.cod[m], labels.get(m)), m) for m in sorted(cat.morphisms))


def _iso_order(cat: ObjlessCategory) -> list[str]:
    """The ``iso`` search's step order: identities rarest signature first, then the others by name."""
    sig, freq, _ = _fact(cat, "signatures")
    return sorted(cat.identities, key=lambda i: (freq[sig[i]], sig[i], i)) + _fact(cat, "arrows")


def _checks(cat: ObjlessCategory, order: list[str], iso: bool) -> list[tuple[list, list]]:
    """Per step of ``order``, the entries (p, q, r) it completes and, if ``iso``, the pairs
    (p, q) whose last factor it assigns while r is still to come."""
    pos = dict(zip(order, range(len(order))))
    steps: list[tuple[list, list]] = [([], []) for _ in order]
    for (p, q), r in cat.table.items():
        last = max(pos[p], pos[q])
        steps[max(last, pos[r])][0].append((p, q, r))
        if iso and pos[r] > last:
            steps[last][1].append((p, q))
    return steps


# Each table ``_fact`` keeps; signatures come with their multiset and the identities of each.
_FACTS = {
    "sizes": _hom_sizes,
    "invariants": lambda cat: (inv := _invariants(cat, _fact(cat, "sizes")), Counter(inv.values())),
    "signatures": lambda cat: (sig := {i: _identity_signature(cat, _fact(cat, "sizes"), i) for i in cat.identities},
                               Counter(sig.values()), _grouped((sig[i], i) for i in sorted(cat.identities))),
    "hom": lambda cat: _hom_lists(cat, {}),
    "iso_hom": lambda cat: _hom_lists(cat, _fact(cat, "invariants")[0]),
    "ids": lambda cat: sorted(cat.identities),
    "arrows": lambda cat: sorted(cat.morphisms - cat.identities),
    "order": lambda cat: _fact(cat, "ids") + _fact(cat, "arrows"),
    "iso_order": _iso_order,
    "checks": lambda cat: _checks(cat, _fact(cat, "order"), False),
    "iso_checks": lambda cat: _checks(cat, _fact(cat, "iso_order"), True),
}


def _fact(cat: ObjlessCategory, name):
    """The table ``name`` of ``cat``, kept on the category: it is immutable, so each is built once."""
    facts = cat._tables
    if facts is None:
        object.__setattr__(cat, "_tables", facts := {})
    if name not in facts:
        facts[name] = _FACTS[name](cat)
    return facts[name]


def functor_search(
    src: ObjlessCategory, dst: ObjlessCategory, *, iso: bool = False,
) -> Iterator[dict[str, str]]:
    """Every covariant functor src -> dst as a morphism map; only isomorphisms if ``iso``."""
    if iso and (len(src), len(src.identities), len(src.table)) != (
        len(dst), len(dst.identities), len(dst.table)
    ):
        return
    # In iso mode the invariant multisets are compared before any signature is built.
    if iso and (_fact(src, "invariants")[1] != _fact(dst, "invariants")[1]
                or _fact(src, "signatures")[1] != _fact(dst, "signatures")[1]):
        return
    sizes1, sizes2, ids2, rows2 = _fact(src, "sizes"), _fact(dst, "sizes"), _fact(dst, "ids"), dst.rows
    inv1, hom2 = (_fact(src, "invariants")[0], _fact(dst, "iso_hom")) if iso else ({}, _fact(dst, "hom"))
    if iso:
        sig1, by_sig2 = _fact(src, "signatures")[0], _fact(dst, "signatures")[2]
    mode = "iso_" if iso else ""
    order, checks = _fact(src, mode + "order"), _fact(src, mode + "checks")
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def candidates(x: str):
        if x not in src.identities:
            return hom2.get((mapping[src.dom[x]], mapping[src.cod[x]], inv1.get(x)), ())
        if iso:
            return by_sig2.get(sig1[x], ())
        return ids2

    def homs_fit(a: str) -> bool:
        # Identities are assigned before anything else, so every key of
        # mapping is an identity here.  Each hom class must keep its size
        # (iso) or at least stay inhabited.
        b = mapping[a]
        for a2, b2 in mapping.items():
            for n1, n2 in ((sizes1.get((a, a2), 0), sizes2.get((b, b2), 0)),
                           (sizes1.get((a2, a), 0), sizes2.get((b2, b), 0))):
                if (n1 != n2) if iso else (n1 and not n2):
                    return False
        return True

    def consistent(idx: int) -> bool:
        exact, forward = checks[idx]
        for p, q, r in exact:
            if rows2[mapping[p]].get(mapping[q]) != mapping[r]:
                return False
        # In iso mode F(p).F(q) is the only possible image of r, so it must
        # not already be the image of another morphism.
        for p, q in forward:
            if rows2[mapping[p]].get(mapping[q]) in used:
                return False
        return True

    def extend(idx: int):
        if idx == len(order):
            yield dict(mapping)
            return
        x = order[idx]
        for y in candidates(x):
            if iso and y in used:
                continue
            mapping[x] = y
            if iso:
                used.add(y)
            if (x not in src.identities or homs_fit(x)) and consistent(idx):
                yield from extend(idx + 1)
            del mapping[x]
            used.discard(y)

    try:
        yield from extend(0)
    finally:
        del extend  # extend calls itself through its closure; the cycle would pin src and dst


def find_table_bijection(c1: ObjlessCategory, c2: ObjlessCategory) -> dict[str, str] | None:
    """A bijection of morphism names carrying c1's table exactly onto c2's, or None."""
    return next(functor_search(c1, c2, iso=True), None)
