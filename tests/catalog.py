"""Named example categories used throughout the tests.

Each builder returns a fresh value.  Where a generator already builds the
category (the walking isomorphism, chains), the catalog calls it.
"""
from __future__ import annotations

from arrowcat.core import ObjlessCategory
from arrowcat.generators import (
    Poset,
    gen_cyclic,
    gen_discrete,
    gen_finset,
    gen_poset,
    gen_walking_iso as walking_iso,
)
from arrowcat.standard import StdCategory, to_objectless


def one() -> ObjlessCategory:
    """The terminal category: a single identity."""
    return ObjlessCategory.build(["star"], {("star", "star"): "star"})


def z2() -> ObjlessCategory:
    """The two-element group as a one-object category."""
    table = {
        ("e", "e"): "e", ("e", "s"): "s",
        ("s", "e"): "s", ("s", "s"): "e",
    }
    return ObjlessCategory.build(["e", "s"], table)


def two_chain() -> ObjlessCategory:
    """Two objects and one arrow between them (the poset 0 <= 1)."""
    table = {
        ("i0", "i0"): "i0", ("i1", "i1"): "i1",
        ("a", "i0"): "a", ("i1", "a"): "a",
    }
    return ObjlessCategory.build(["i0", "i1", "a"], table)


def two_chain_std() -> StdCategory:
    return StdCategory.make(
        objects=["A", "B"],
        arrows={"id_A": ("A", "A"), "id_B": ("B", "B"), "a": ("A", "B")},
        table={
            ("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B",
            ("a", "id_A"): "a", ("id_B", "a"): "a",
        },
        id_of={"A": "id_A", "B": "id_B"},
    )


def finset2() -> ObjlessCategory:
    """Skeletal category of sets of size 0, 1, 2 and all functions."""
    return to_objectless(gen_finset(2))


def finset_dup_std() -> StdCategory:
    """Like finset2 but with two distinct one-element sets; not skeletal."""
    return gen_finset(2, dup=(1,))


def finset_dup() -> ObjlessCategory:
    return to_objectless(finset_dup_std())


def chain_poset(n: int, prefix: str) -> Poset:
    return Poset.chain(f"{prefix}{i}" for i in range(n))


def diamond_poset(prefix: str = "d") -> Poset:
    """Bottom, two incomparable middles, top: the smallest non-chain lattice."""
    bot, a, b, top = f"{prefix}bot", f"{prefix}a", f"{prefix}b", f"{prefix}top"
    return Poset.from_covers(
        (bot, a, b, top),
        {(bot, a), (bot, b), (a, top), (b, top)},
    )


def galois_maps():
    """The chain Galois connection: f: P -> Q, g: Q -> P with f left adjoint to g."""
    p = chain_poset(2, "p")
    q = chain_poset(3, "q")
    f = {"p0": "q0", "p1": "q2"}
    g = {"q0": "p0", "q1": "p0", "q2": "p1"}
    return p, q, f, g


def perturbed_galois_maps():
    """Same maps with g(q1) moved to p1, breaking the connection at (p1, q1)."""
    p, q, f, g = galois_maps()
    g = dict(g)
    g["q1"] = "p1"
    return p, q, f, g


def diamond_galois_maps():
    """A Galois connection whose left member does not preserve binary meets."""
    p = diamond_poset()
    q = chain_poset(2, "q")
    f = {"dbot": "q0", "da": "q1", "db": "q1", "dtop": "q1"}
    g = {"q0": "dbot", "q1": "dtop"}
    return p, q, f, g


def fixture_pool() -> dict[str, ObjlessCategory]:
    """Every named category, keyed for parametrized tests."""
    return {
        "one": one(),
        "z2": z2(),
        "z3": gen_cyclic(3),
        "two_chain": two_chain(),
        "walking_iso": walking_iso(),
        "discrete2": gen_discrete(2),
        "discrete3": gen_discrete(3),
        "chain3": gen_poset(chain_poset(3, "q")),
        "diamond": gen_poset(diamond_poset()),
        "finset2": finset2(),
        "finset_dup": finset_dup(),
    }


def small_fixture_pool(max_morphisms: int = 12) -> dict[str, ObjlessCategory]:
    """Categories small enough for the exhaustive equivalence search."""
    return {
        name: cat for name, cat in fixture_pool().items()
        if len(cat.morphisms) <= max_morphisms
    }
