"""One backtracking search over table-preserving morphism maps, and the caps that bound it.

``functor_search`` yields every covariant functor as a morphism map; with
``iso=True`` only the isomorphisms, the functors with a strict inverse.
Identities are mapped first (in ``iso`` mode rarest hom-size signature
first), then non-identities in name order, each within the hom class its ends
pick out.  Each assignment x is checked against the defined composites x.w
and w.x with w assigned, read from the row and column indexes, and against
the pairs x is the composite of; in ``iso`` mode the map must also stay
injective.  Undefined composites need no check: w.x is defined iff cod x =
dom w, candidates lie in the hom class of their mapped ends, and in ``iso``
mode identities map injectively.  Each table entry is checked when the last
of its two factors and its result is assigned, so the leaf yields the map
without a second pass.

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


def _hom_sizes(cat: ObjlessCategory) -> dict[tuple[str, str], int]:
    sizes: dict[tuple[str, str], int] = {}
    for m in cat.morphisms:
        key = (cat.dom[m], cat.cod[m])
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


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


def functor_search(
    src: ObjlessCategory, dst: ObjlessCategory, *, iso: bool = False,
) -> Iterator[dict[str, str]]:
    """Every covariant functor src -> dst as a morphism map; only isomorphisms if ``iso``."""
    if iso and (len(src), len(src.identities), len(src.table)) != (
        len(dst), len(dst.identities), len(dst.table)
    ):
        return
    sizes1 = _hom_sizes(src)
    sizes2 = _hom_sizes(dst)
    ids2 = sorted(dst.identities)
    if iso:
        inv1, inv2 = _invariants(src, sizes1), _invariants(dst, sizes2)
        if Counter(inv1.values()) != Counter(inv2.values()):
            return
        sig1 = {i: _identity_signature(src, sizes1, i) for i in src.identities}
        sig2 = {i: _identity_signature(dst, sizes2, i) for i in dst.identities}
        freq = Counter(sig1.values())
        if freq != Counter(sig2.values()):
            return
        order = sorted(src.identities, key=lambda i: (freq[sig1[i]], sig1[i], i))
    else:
        order = sorted(src.identities)
        inv1, inv2 = dict.fromkeys(src.morphisms), dict.fromkeys(dst.morphisms)
    order += sorted(m for m in src.morphisms if m not in src.identities)

    hom2: dict[tuple[str, str, tuple | None], list[str]] = {}
    for m in sorted(dst.morphisms):
        hom2.setdefault((dst.dom[m], dst.cod[m], inv2[m]), []).append(m)
    produced_by: dict[str, list[tuple[str, str]]] = {}
    for pair, r in src.table.items():
        produced_by.setdefault(r, []).append(pair)
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def candidates(x: str):
        if x not in src.identities:
            return hom2.get((mapping[src.dom[x]], mapping[src.cod[x]], inv1[x]), ())
        if iso:
            return [b for b in ids2 if sig2[b] == sig1[x]]
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

    rows1, cols1, rows2, cols2 = src.rows, src.cols, dst.rows, dst.cols

    def consistent(x: str) -> bool:
        # The composites x.w and w.x defined in src, with w assigned.
        fx = mapping[x]
        for composites, images in ((rows1[x], rows2[fx]), (cols1[x], cols2[fx])):
            for w, r in composites.items():
                fw = mapping.get(w)
                if fw is None:
                    continue
                rr = images.get(fw)
                fr = mapping.get(r)
                if fr is None:
                    # In iso mode rr is the only possible image of r, so it
                    # must not already be the image of another morphism.
                    if iso and rr in used:
                        return False
                elif fr != rr:
                    return False
        for p, q in produced_by.get(x, ()):
            fp = mapping.get(p)
            fq = mapping.get(q)
            if fp is not None and fq is not None and rows2[fp].get(fq) != fx:
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
            if (x not in src.identities or homs_fit(x)) and consistent(x):
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
