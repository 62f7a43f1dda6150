"""Shared fixtures, generators, and independent oracles for the test suite.

The oracle helpers re-derive facts straight from the composition table with
no shortcuts, so the library code they check never computes them the same way.
"""
from __future__ import annotations

from itertools import product

import pytest

from arrowcat import fixtures as fx
from arrowcat.core import ObjlessCategory
from arrowcat.functors import FunctorMap, validate_functor
from arrowcat.generators import gen_random


def brute_neutral(morphisms, table) -> set[str]:
    """Morphisms neutral in every defined composition, by direct scan."""
    result = set()
    for m in morphisms:
        ok = True
        for (after, before), r in table.items():
            if before == m and r != after:
                ok = False
            if after == m and r != before:
                ok = False
        if ok:
            result.add(m)
    return result


def brute_identities(cat: ObjlessCategory) -> set[str]:
    """Identity morphisms: neutral and self-composable."""
    return {
        m for m in brute_neutral(cat.morphisms, cat.table)
        if (m, m) in cat.table
    }


def brute_inverses(cat: ObjlessCategory, f: str) -> list[str]:
    """All two-sided inverses of f, by scanning every morphism."""
    out = []
    for g in sorted(cat.morphisms):
        gf = cat.table.get((g, f))
        fg = cat.table.get((f, g))
        if gf is not None and fg is not None and gf == cat.dom[f] and fg == cat.cod[f]:
            out.append(g)
    return out


def brute_iso_related(cat: ObjlessCategory, a: str, b: str) -> bool:
    """Direct isomorphism between two identities, scanning all morphisms."""
    for f in cat.morphisms:
        if cat.dom[f] == a and cat.cod[f] == b and brute_inverses(cat, f):
            return True
    return False


def brute_functors(src: ObjlessCategory, dst: ObjlessCategory) -> list[dict[str, str]]:
    """Every functor src -> dst: each morphism map at all, kept when it validates."""
    names = sorted(src.morphisms)
    found = []
    for images in product(sorted(dst.morphisms), repeat=len(names)):
        mapping = dict(zip(names, images))
        if validate_functor(FunctorMap(source=src, target=dst, mapping=mapping)).ok:
            found.append(mapping)
    return found


def random_pool(count: int, max_morphisms: int, offset: int = 0) -> list[ObjlessCategory]:
    return [gen_random(seed, max_morphisms) for seed in range(offset, offset + count)]


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # Expose each phase's outcome on the item so the acceptance suite can
    # print one pass/fail line per criterion during teardown.
    outcome = yield
    report = outcome.get_result()
    setattr(item, "outcome_" + report.when, report)


@pytest.fixture(scope="session")
def pool() -> dict[str, ObjlessCategory]:
    return fx.fixture_pool()


@pytest.fixture(scope="session")
def small_pool() -> dict[str, ObjlessCategory]:
    return fx.small_fixture_pool()
