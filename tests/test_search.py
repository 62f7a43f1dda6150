"""The functor search engine against the brute-force functor oracle, its
invariant pruning on equal-order groups, the first isomorphism it finds, and
the memory it leaves behind."""
from __future__ import annotations

import gc
import hashlib
import random
from itertools import combinations, product

import pytest

from arrowcat import _search
from arrowcat._search import find_table_bijection, functor_search
from arrowcat.core import ObjlessCategory
from arrowcat.equivalence import are_equivalent, skeleton
from arrowcat.functors import FunctorMap, validate_functor
from arrowcat.generators import gen_finset, gen_monoid, gen_random
from arrowcat.standard import to_objectless

import catalog as fx
from conftest import brute_functors

# Every fixture and seeded random category with at most 5 morphisms, so the
# oracle's morphism maps number at most 5**5 per pair.
TINY = {
    **{name: cat for name, cat in fx.small_fixture_pool().items() if len(cat.morphisms) <= 5},
    **{f"random{seed}": gen_random(seed, 5) for seed in range(8)},
}


def _key(mapping: dict[str, str]) -> tuple:
    return tuple(sorted(mapping.items()))


def _is_isomorphism(src, dst, mapping: dict[str, str]) -> bool:
    if not len(set(mapping.values())) == len(src.morphisms) == len(dst.morphisms):
        return False
    inverse = {v: k for k, v in mapping.items()}
    return validate_functor(FunctorMap(source=dst, target=src, mapping=inverse)).ok


@pytest.fixture(scope="module")
def oracle() -> dict[tuple[str, str], list[dict[str, str]]]:
    return {(a, b): brute_functors(TINY[a], TINY[b]) for a in TINY for b in TINY}


def test_tiny_pool_is_not_trivial(oracle):
    assert len(TINY) >= 12 and max(len(cat.morphisms) for cat in TINY.values()) == 5
    assert sum(map(len, oracle.values())) > 1000
    isomorphic = [
        pair for pair, maps in oracle.items() if pair[0] != pair[1]
        and any(_is_isomorphism(TINY[pair[0]], TINY[pair[1]], m) for m in maps)
    ]
    assert len(isomorphic) >= 4


@pytest.mark.parametrize("a", sorted(TINY))
def test_functor_search_yields_exactly_the_functors(oracle, a):
    for b in sorted(TINY):
        found = [_key(m) for m in functor_search(TINY[a], TINY[b])]
        assert len(found) == len(set(found)), b
        assert set(found) == {_key(m) for m in oracle[(a, b)]}, b


@pytest.mark.parametrize("a", sorted(TINY))
def test_iso_search_yields_exactly_the_isomorphisms(oracle, a):
    src = TINY[a]
    for b, dst in sorted(TINY.items()):
        found = [_key(m) for m in functor_search(src, dst, iso=True)]
        assert len(found) == len(set(found)), b
        assert set(found) == {_key(m) for m in oracle[(a, b)] if _is_isomorphism(src, dst, m)}, b


def _group(orders: tuple[int, ...], prefix: str = "g", seed: int | None = None):
    """Z_o1 x Z_o2 x ... as a one-object category; a seed shuffles the names."""
    elems = list(product(*(range(o) for o in orders)))
    names = [f"{prefix}{k:02d}" for k in range(len(elems))]
    if seed is not None:
        random.Random(seed).shuffle(names)
    name = dict(zip(elems, names))
    return gen_monoid({
        (name[a], name[b]): name[tuple((x + y) % o for x, y, o in zip(a, b, orders))]
        for a in elems for b in elems
    })


def _with_zero(square: str):
    """The monoid {u, x, z} with z absorbing and x.x = ``square``."""
    names = ("u", "x", "z")
    table = {(a, b): "z" for a in names for b in names}
    table.update({(a, "u"): a for a in names})
    table.update({("u", b): b for b in names})
    table[("x", "x")] = square
    return gen_monoid(table)


def _tag(orders: tuple[int, ...]) -> str:
    return "x".join(f"Z{o}" for o in orders)


def _two_arrows(g_cod: str):
    """Objects x, y, z, f: x -> y and g: x -> ``g_cod``, and nothing else."""
    ids = {"ix": "ix", "iy": "iy", "iz": "iz"}
    table = {(i, i): i for i in ids}
    table.update({("f", "ix"): "f", ("iy", "f"): "f", ("g", "ix"): "g", ("i" + g_cod, "g"): "g"})
    return ObjlessCategory.build([*ids, "f", "g"], table)


GROUPS_16 = [(16,), (4, 4), (2, 8), (2, 2, 4)]
# Pairs of equal size, identity count and table size whose invariant
# multisets differ.  In the groups the periods of the elements are their
# orders.  In the monoids x has tail 1 and period 1 (x.x = z) against tail 0
# and period 2 (x.x = u), so both parts are needed; the last pair differs
# only in hom-class sizes.
UNEQUAL = {
    **{f"{_tag(l)}-{_tag(r)}": (_group(l), _group(r, "h", seed=1)) for l, r in combinations(GROUPS_16, 2)},
    "nilpotent-involution": (_with_zero("z"), _with_zero("u")),
    "parallel-spread": (_two_arrows("y"), _two_arrows("z")),
}


@pytest.mark.parametrize("pair", sorted(UNEQUAL))
def test_unequal_invariants_are_rejected_before_branching(monkeypatch, pair):
    a, b = UNEQUAL[pair]
    assert (len(a), len(a.identities), len(a.table)) == (len(b), len(b.identities), len(b.table))
    inv_a = _search._invariants(a, _search._hom_sizes(a))
    inv_b = _search._invariants(b, _search._hom_sizes(b))
    assert sorted(inv_a.values()) != sorted(inv_b.values())

    def branched(*args):
        raise AssertionError("the search went past the invariant check")

    monkeypatch.setattr(_search, "_identity_signature", branched)
    assert find_table_bijection(a, b) is None
    assert find_table_bijection(b, a) is None


@pytest.mark.parametrize("orders", GROUPS_16, ids=_tag)
def test_relabelled_groups_are_still_found(orders):
    a = _group(orders)
    for seed in range(3):
        b = _group(orders, "h", seed=seed)
        found = find_table_bijection(a, b)
        assert found is not None and sorted(found.values()) == sorted(b.morphisms)
        assert validate_functor(FunctorMap(source=a, target=b, mapping=found)).ok


def _relabel(cat: ObjlessCategory, prefix: str, seed: int) -> ObjlessCategory:
    """The same category under a seeded renaming of its morphisms."""
    names = sorted(cat.morphisms)
    new = [f"{prefix}{k:02d}" for k in range(len(names))]
    random.Random(seed).shuffle(new)
    rename = dict(zip(names, new))
    return ObjlessCategory.build(new, {(rename[a], rename[b]): rename[r] for (a, b), r in cat.table.items()})


FINSET3 = to_objectless(gen_finset(3))
# Pairs like those of the decide benchmark, and a digest of the first
# isomorphism the search finds on each, pinned from the search as it was
# before it checked composites through the row and column index.  A change
# in the order the search visits its candidates changes the digest.
FIRST_ISOMORPHISM = {
    "finset": (FINSET3, _relabel(FINSET3, "h", 7), "a72023478b10a7dd"),
    "cyclic24": (_group((24,)), _group((24,), "h", seed=7), "943b18109276712e"),
    "z2xz2xz4": (_group((2, 2, 4)), _group((2, 2, 4), "h", seed=7), "668b71a283dd8304"),
}


@pytest.mark.parametrize("pair", sorted(FIRST_ISOMORPHISM))
def test_first_isomorphism_is_pinned(pair):
    a, b, digest = FIRST_ISOMORPHISM[pair]
    found = find_table_bijection(a, b)
    assert _is_isomorphism(a, b, found)
    assert hashlib.sha256(repr(sorted(found.items())).encode()).hexdigest()[:16] == digest


def _fresh(cat: ObjlessCategory) -> ObjlessCategory:
    """The same category rebuilt, with nothing derived from it kept yet."""
    return ObjlessCategory.build(cat.morphisms, cat.table)


@pytest.mark.parametrize("pair", sorted(FIRST_ISOMORPHISM))
def test_kept_tables_do_not_change_the_first_isomorphism(pair):
    # The search keeps what it derives from each category on the category;
    # a second search, and a search on rebuilt copies, must find the same map.
    a, b, _ = FIRST_ISOMORPHISM[pair]
    a1, b1 = _fresh(a), _fresh(b)
    first = list(find_table_bijection(a1, b1).items())
    assert a1._tables and b1._tables
    assert list(find_table_bijection(a1, b1).items()) == first
    assert list(find_table_bijection(_fresh(a), _fresh(b)).items()) == first
    assert list(find_table_bijection(a, b).items()) == first
    assert a1 == a and repr(a1) == repr(_fresh(a)) and hash(a1) == hash(a)


@pytest.mark.parametrize("pair", [("finset2", "finset2_dup"), ("finset2_dup", "finset2"), ("random3", "random3")])
@pytest.mark.parametrize("iso_first", [False, True])
def test_kept_tables_do_not_change_the_functors(pair, iso_first):
    # Both modes read one set of tables: whichever runs first, each mode's
    # answers must be those of a search on rebuilt copies, in the same order.
    pool = {"finset2": to_objectless(gen_finset(2)), "finset2_dup": to_objectless(gen_finset(2, (1,))),
            "random3": gen_random(3, 8)}
    a, b = (pool[name] for name in pair)
    want = {iso: [list(m.items()) for m in functor_search(_fresh(a), _fresh(b), iso=iso)] for iso in (False, True)}
    assert want[False]
    for _ in range(2):
        for iso in (iso_first, not iso_first):
            assert [list(m.items()) for m in functor_search(a, b, iso=iso)] == want[iso]


def test_kept_tables_do_not_change_an_equivalence():
    # A skeleton first fills the inverse index of both categories; the
    # equivalence decided afterwards must equal the one on rebuilt copies.
    left, right = to_objectless(gen_finset(2, (1,))), _relabel(to_objectless(gen_finset(2, (1, 1))), "h", 3)
    for seed in range(3):
        skeleton(left, seed=seed), skeleton(right, seed=seed)
        got, want = are_equivalent(left, right, seed=seed), are_equivalent(_fresh(left), _fresh(right), seed=seed)
        for part in ("forward", "backward"):
            assert list(getattr(got, part).mapping.items()) == list(getattr(want, part).mapping.items())
        for part in ("tau", "sigma"):
            assert list(getattr(got, part).components.items()) == list(getattr(want, part).components.items())


def _abandoned_after_one_yield(a, b):
    search = functor_search(a, b)
    assert next(search)
    del search


@pytest.mark.parametrize("run", [
    lambda a, b: list(functor_search(a, b)),
    lambda a, b: find_table_bijection(a, a),
    _abandoned_after_one_yield,
], ids=["to-the-end", "first-result", "abandoned"])
def test_a_search_leaves_no_garbage_cycle(run):
    # The search recurses through a closure that refers to itself; unless the
    # search breaks that cycle, the collector finds the categories it pins.
    a, b = to_objectless(gen_finset(2)), to_objectless(gen_finset(2, (1,)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run(a, b)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
