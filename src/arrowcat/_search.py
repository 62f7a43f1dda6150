"""One backtracking search over table-preserving morphism maps, and the caps that bound it.

``functor_search`` yields every covariant functor as a morphism map; with
``iso=True`` only the isomorphisms, the functors with a strict inverse.
Identities are mapped first (in ``iso`` mode rarest hom-size signature
first), then non-identities in name order, each within the hom class its
ends pick out.  Each assignment is checked against the morphisms already
assigned, in both composition orders, and against the pairs it is the
composite of; in ``iso`` mode the map must also stay injective and keep
undefined composites undefined.  The leaf checks the whole table.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterator, Sized

from .core import ObjlessCategory
from .errors import CapacityError

DEFAULT_ISO_CAP = 64
BRUTE_FORCE_CAP = 12


def check_cap(cap: int, *sized: Sized) -> None:
    """Raise CapacityError unless every argument has at most ``cap`` morphisms."""
    for item in sized:
        if len(item) > cap:
            raise CapacityError(f"{len(item)} morphisms exceeds cap of {cap}")


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
        sig1 = {i: _identity_signature(src, sizes1, i) for i in src.identities}
        sig2 = {i: _identity_signature(dst, sizes2, i) for i in dst.identities}
        freq = Counter(sig1.values())
        if freq != Counter(sig2.values()):
            return
        order = sorted(src.identities, key=lambda i: (freq[sig1[i]], sig1[i], i))
    else:
        order = sorted(src.identities)
    order += sorted(m for m in src.morphisms if m not in src.identities)

    hom2: dict[tuple[str, str], list[str]] = {}
    for m in sorted(dst.morphisms):
        hom2.setdefault((dst.dom[m], dst.cod[m]), []).append(m)
    produced_by: dict[str, list[tuple[str, str]]] = {}
    for pair, r in src.table.items():
        produced_by.setdefault(r, []).append(pair)
    table1, table2 = src.table, dst.table
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def candidates(x: str):
        if x not in src.identities:
            return hom2.get((mapping[src.dom[x]], mapping[src.cod[x]]), ())
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

    def consistent(x: str) -> bool:
        fx = mapping[x]
        for w, fw in mapping.items():
            for r, rr in ((table1.get((x, w)), table2.get((fx, fw))),
                          (table1.get((w, x)), table2.get((fw, fx)))):
                if r is None:
                    if iso and rr is not None:
                        return False
                    continue
                if rr is None:
                    return False
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
            if fp is not None and fq is not None and table2.get((fp, fq)) != fx:
                return False
        return True

    def extend(idx: int):
        if idx == len(order):
            if all(table2.get((mapping[b], mapping[a])) == mapping[r]
                   for (b, a), r in table1.items()):
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

    yield from extend(0)


def find_table_bijection(c1: ObjlessCategory, c2: ObjlessCategory) -> dict[str, str] | None:
    """A bijection of morphism names carrying c1's table exactly onto c2's, or None."""
    return next(functor_search(c1, c2, iso=True), None)
