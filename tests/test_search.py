"""The functor search engine against the brute-force functor oracle."""
from __future__ import annotations

import pytest

from arrowcat import fixtures as fx
from arrowcat._search import functor_search
from arrowcat.functors import FunctorMap, validate_functor
from arrowcat.generators import gen_random

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
