"""Category generators: posets, monoids, finite-set categories, and seeded
random categories for property tests.

Every generator output passes validation by construction; the generators
raise GeneratorError on ill-formed input instead of emitting broken data.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from .core import ObjlessCategory, check_count, check_names
from .errors import GeneratorError, InvalidCategoryError, NotMonotoneError
from .standard import StdCategory


@dataclass(frozen=True)
class Poset:
    """A finite poset given by its full (reflexive, transitive) order relation."""

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]

    def __post_init__(self):
        check_names(self.elements)
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise GeneratorError("duplicate poset elements")
        for x, y in self.leq:
            if x not in elems or y not in elems:
                raise GeneratorError(f"order pair ({x}, {y}) uses unknown elements")
        for x in elems:
            if (x, x) not in self.leq:
                raise GeneratorError(f"order is not reflexive at {x}")
        up: dict[str, set[str]] = {x: set() for x in elems}
        for x, y in self.leq:
            if x != y and (y, x) in self.leq:
                raise GeneratorError(f"order is not antisymmetric on ({x}, {y})")
            up[x].add(y)
        # Transitive exactly when each up-set holds the up-set of each member.
        for x, above in up.items():
            for y in above:
                if not above.issuperset(up[y]):
                    z = min(up[y] - above)
                    raise GeneratorError(f"order is not transitive on ({x}, {y}, {z})")

    @classmethod
    def from_covers(cls, elements: Iterable[str], covers: Iterable[tuple[str, str]]) -> "Poset":
        """Build from any generating pairs; the reflexive-transitive closure is taken."""
        elements = tuple(elements)
        above: dict[str, set[str]] = {x: set() for x in elements}
        for x, y in covers:
            above.setdefault(x, set()).add(y)
        leq = set()
        for x in above:
            # The up-set of x: everything reachable from x along the covers.
            up, todo = {x}, [x]
            while todo:
                for y in above.get(todo.pop(), ()):
                    if y not in up:
                        up.add(y)
                        todo.append(y)
            leq.update((x, y) for y in up)
        return cls(elements=elements, leq=frozenset(leq))

    @classmethod
    def chain(cls, names: Iterable[str]) -> "Poset":
        names = tuple(names)
        return cls.from_covers(names, set(zip(names, names[1:])))

    def holds(self, x: str, y: str) -> bool:
        return (x, y) in self.leq


def poset_arrow(x: str, y: str) -> str:
    """Canonical name of the poset arrow x -> y; the element itself when x == y."""
    return x if x == y else f"{x}_le_{y}"


def gen_poset(poset: Poset) -> ObjlessCategory:
    """The thin category of a poset: one arrow per related pair.

    Each arrow is named once, so the morphisms and every table key and value
    share one string object per arrow.
    """
    arrow = {(x, y): poset_arrow(x, y) for (x, y) in poset.leq}
    above: dict[str, list[str]] = {}
    for x, y in poset.leq:
        above.setdefault(x, []).append(y)
    table = {
        (arrow[y, z], arrow[x, y]): arrow[x, z]
        for (x, y) in poset.leq for z in above[y]
    }
    return ObjlessCategory.build(arrow.values(), table)


def gen_monoid(table: Mapping[tuple[str, str], str]) -> ObjlessCategory:
    """A monoid as a one-object category; the table must be total, and on a total
    table the category axioms say it is associative with an identity element."""
    elements = {x for pair in table for x in pair} | set(table.values())
    for a, b in product(sorted(elements), repeat=2):
        if (a, b) not in table:
            raise GeneratorError(f"monoid table is not total: ({a}, {b}) missing")
    try:
        return ObjlessCategory.build(elements, table)
    except InvalidCategoryError as exc:
        raise GeneratorError(f"monoid table is not a monoid: {exc.report.lines()[0]}") from exc


def gen_cyclic(n: int, prefix: str = "g") -> ObjlessCategory:
    """The cyclic group of order n as a one-object category."""
    if n < 1:
        raise GeneratorError("cyclic order must be >= 1")
    check_count(n)  # before the n * n table
    names = [f"{prefix}{i}" for i in range(n)]
    table = {
        (names[i], names[j]): names[(i + j) % n]
        for i in range(n) for j in range(n)
    }
    return gen_monoid(table)


def gen_discrete(n: int, prefix: str = "x") -> ObjlessCategory:
    """n objects and nothing but their identities."""
    if n < 1:
        raise GeneratorError("discrete category needs at least one object")
    names = [f"{prefix}{i}" for i in range(n)]
    return ObjlessCategory.build(names, {(m, m): m for m in names})


def gen_walking_iso() -> ObjlessCategory:
    """Two objects and a strict isomorphism between them."""
    table = {
        ("ia", "ia"): "ia", ("ib", "ib"): "ib",
        ("f", "ia"): "f", ("ib", "f"): "f",
        ("g", "ib"): "g", ("ia", "g"): "g",
        ("g", "f"): "ia", ("f", "g"): "ib",
    }
    return ObjlessCategory.build(["ia", "ib", "f", "g"], table)


def _function_name(src: str, dst: str, images: tuple[int, ...]) -> str:
    suffix = "".join(str(i) for i in images)
    return f"{src}_{dst}" + (f"_{suffix}" if suffix else "")


def gen_finset(max_size: int, dup: Iterable[int] = ()) -> StdCategory:
    """All functions between finite sets of sizes 0..max_size, one object per
    size plus one extra object per entry in ``dup``."""
    if max_size < 0:
        raise GeneratorError("max_size must be >= 0")
    sizes: dict[str, int] = {f"n{s}": s for s in range(max_size + 1)}
    for s in dup:
        if s < 0 or s > max_size:
            raise GeneratorError(f"duplicate size {s} outside 0..{max_size}")
        copy = f"n{s}b"
        while copy in sizes:
            copy += "b"
        sizes[copy] = s
    # n ** m functions from an m-set to an n-set (one when m == 0), counted
    # before any is built: the table grows with the square of their number.
    check_count(sum(n ** m for m in sizes.values() for n in sizes.values()))

    arrows: dict[str, tuple[str, str]] = {}
    images: dict[str, tuple[int, ...]] = {}
    id_of: dict[str, str] = {}
    for src, m in sizes.items():
        for dst, n in sizes.items():
            if m == 0:
                candidates = [()]
            elif n == 0:
                candidates = []
            else:
                candidates = list(product(range(n), repeat=m))
            for image in candidates:
                if src == dst and image == tuple(range(m)):
                    name = f"id_{src}"
                    id_of[src] = name
                else:
                    name = _function_name(src, dst, image)
                arrows[name] = (src, dst)
                images[name] = image

    name_of = {(arrows[n], images[n]): n for n in arrows}

    table = {}
    for g, (gs, gd) in arrows.items():
        for f, (fs, fd) in arrows.items():
            if fd != gs:
                continue
            composed = tuple(images[g][i] for i in images[f])
            table[(g, f)] = name_of[((fs, gd), composed)]
    return StdCategory.make(objects=sizes.keys(), arrows=arrows, table=table, id_of=id_of)


def monotone_map_check(src: Poset, dst: Poset, mapping: Mapping[str, str]) -> None:
    for x in src.elements:
        if x not in mapping:
            raise NotMonotoneError(f"map not defined at {x}")
        if mapping[x] not in set(dst.elements):
            raise NotMonotoneError(f"{x} maps outside the target poset")
    for (x, y) in src.leq:
        if not dst.holds(mapping[x], mapping[y]):
            raise NotMonotoneError(f"map does not preserve {x} <= {y}")


def gen_random(seed: int, max_morphisms: int) -> ObjlessCategory:
    """A deterministic random category: a poset, a cyclic monoid, or a disjoint
    union of two smaller draws."""
    if max_morphisms < 1:
        raise GeneratorError("max_morphisms must be >= 1")
    rng = random.Random(seed)
    return _random_category(rng, max_morphisms, depth=0)


def _random_category(rng: random.Random, budget: int, depth: int) -> ObjlessCategory:
    kinds = ["poset", "monoid"]
    if budget >= 4 and depth < 2:
        kinds.append("coproduct")
    kind = rng.choice(kinds)
    if kind == "monoid":
        return gen_cyclic(rng.randint(1, max(1, min(budget, 6))), prefix=f"m{depth}_")
    if kind == "coproduct":
        left_budget = rng.randint(1, budget - 1)
        left = _random_category(rng, left_budget, depth + 1)
        right = _random_category(rng, budget - left_budget, depth + 1)
        return disjoint_union(left, right, prefixes=(f"l{depth}_", f"r{depth}_"))
    return _random_poset(rng, budget, depth)


def _random_poset(rng: random.Random, budget: int, depth: int) -> ObjlessCategory:
    n = rng.randint(1, max(1, min(budget, 6)))
    while True:
        names = [f"p{depth}_{i}" for i in range(n)]
        covers = {
            (names[i], names[j])
            for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.4
        }
        poset = Poset.from_covers(names, covers)
        if len(poset.leq) <= budget:
            return gen_poset(poset)
        n -= 1


def disjoint_union(
    left: ObjlessCategory,
    right: ObjlessCategory,
    prefixes: tuple[str, str] = ("l_", "r_"),
) -> ObjlessCategory:
    """Coproduct of two categories with prefix-renamed morphisms."""
    lp, rp = prefixes
    morphisms = [lp + m for m in left.morphisms] + [rp + m for m in right.morphisms]
    table = {(lp + a, lp + b): lp + r for (a, b), r in left.table.items()}
    table.update({(rp + a, rp + b): rp + r for (a, b), r in right.table.items()})
    return ObjlessCategory.build(morphisms, table)
