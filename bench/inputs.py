"""Seeded inputs for the benchmark, with the facts each one is known to have.

Every input is built here from a seed, and every expected verdict comes from
how the input was built, never from arrowcat itself.  The seed picks the
relabelling permutations, the perturbed entries and the fault positions.
The catspec text is written here too, so the inputs do not change when the
package's serializer does.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

from arrowcat import core, generators, standard


def labels(rng: random.Random, prefix: str, count: int) -> list[str]:
    """``count`` fixed-width names in a seeded order; for a chain, listed bottom to top."""
    width = len(str(count - 1))
    order = list(range(count))
    rng.shuffle(order)
    return [f"{prefix}{k:0{width}d}" for k in order]


def relabel(cat: core.ObjlessCategory, rng: random.Random, prefix: str) -> core.ObjlessCategory:
    """The same category under a seeded renaming of its morphisms."""
    names = sorted(cat.morphisms)
    rename = dict(zip(names, labels(rng, prefix, len(names))))
    table = {(rename[a], rename[b]): rename[r] for (a, b), r in cat.table.items()}
    return core.ObjlessCategory.build(list(rename.values()), table)


# ---------------------------------------------------------------------------
# Finite sets and functions


@dataclass(frozen=True)
class FinSet:
    """A relabelled ``gen_finset`` category and the size of each of its objects."""

    std: standard.StdCategory
    size_of: dict[str, int]  # identity arrow -> size of its set

    @property
    def identities(self) -> list[str]:
        return sorted(self.size_of)

    def hom_size(self, src: str, dst: str) -> int:
        return self.size_of[dst] ** self.size_of[src]

    def arrow_count(self) -> int:
        return sum(self.hom_size(a, b) for a in self.size_of for b in self.size_of)

    def entry_count(self) -> int:
        ids = self.size_of
        return sum(self.hom_size(a, b) * self.hom_size(b, c) for a in ids for b in ids for c in ids)

    def distinct_sizes(self) -> list[int]:
        return sorted(set(self.size_of.values()))


def finset(rng: random.Random, max_size: int, dup: tuple[int, ...] = ()) -> FinSet:
    """``gen_finset(max_size, dup)`` with objects and arrows renamed by the seed.

    ``gen_finset`` names the object of size ``s`` ``n<s>`` and its copies
    ``n<s>b``, ``n<s>bb``, ...; that convention gives each object's size.
    """
    std = generators.gen_finset(max_size, dup)
    objects = sorted(std.objects)
    obj_name = dict(zip(objects, labels(rng, "ob", len(objects))))
    identity_of = {ident: obj for obj, ident in std.id_of.items()}
    others = sorted(a for a in std.arrows if a not in identity_of)
    rename = dict(zip(others, labels(rng, "arr_", len(others))))
    for ident, obj in identity_of.items():
        rename[ident] = f"id_{obj_name[obj]}"
    relabelled = standard.StdCategory.make(
        objects=obj_name.values(),
        arrows={rename[a]: (obj_name[d], obj_name[c]) for a, (d, c) in std.arrows.items()},
        table={(rename[a], rename[b]): rename[r] for (a, b), r in std.table.items()},
        id_of={obj_name[o]: rename[i] for o, i in std.id_of.items()},
    )
    size_of = {rename[i]: int(o[1:].rstrip("b")) for o, i in std.id_of.items()}
    return FinSet(std=relabelled, size_of=size_of)


# ---------------------------------------------------------------------------
# Chains, thick chains, boolean lattices


def chain_table(names: list[str]) -> tuple[list[str], dict]:
    """Arrows and full composition table of the chain, written out directly."""
    arrow = generators.poset_arrow
    arrows = [arrow(x, y) for i, x in enumerate(names) for y in names[i:]]
    table = {
        (arrow(y, z), arrow(x, y)): arrow(x, z)
        for i, x in enumerate(names)
        for j, y in enumerate(names[i:], i)
        for z in names[j:]
    }
    return arrows, table


def thick_chain(n: int) -> core.ObjlessCategory:
    """The n-chain with every object doubled by an isomorphism.

    Objects are pairs (i, side); there is exactly one arrow (i, s) -> (j, t)
    whenever i <= j.  It is equivalent to the n-chain but not isomorphic to it.
    """
    objs = [(i, side) for i in range(n) for side in "ab"]

    def name(x, y):
        return f"t{x[0]}{x[1]}_{y[0]}{y[1]}"

    morphisms = [name(x, y) for x in objs for y in objs if x[0] <= y[0]]
    table = {
        (name(y, z), name(x, y)): name(x, z)
        for x in objs for y in objs for z in objs
        if x[0] <= y[0] <= z[0]
    }
    return core.ObjlessCategory.build(morphisms, table)


def thick_chain_level(arrow: str) -> int:
    """Chain position of an identity of ``thick_chain``."""
    return int(arrow[1:].split("_")[0][:-1])


@dataclass(frozen=True)
class Lattice:
    """The boolean lattice on ``bits`` bits, elements named by the seed."""

    bits: int
    label: list[str]  # element (as a bit mask) -> name

    @property
    def top(self) -> str:
        return self.label[(1 << self.bits) - 1]

    @property
    def bottom(self) -> str:
        return self.label[0]

    def meet(self, a: str, b: str) -> str:
        return self.label[self.label.index(a) & self.label.index(b)]

    def poset(self) -> generators.Poset:
        size = 1 << self.bits
        covers = {
            (self.label[m], self.label[m | (1 << b)])
            for m in range(size) for b in range(self.bits) if not m & (1 << b)
        }
        return generators.Poset.from_covers(self.label, covers)


def lattice(rng: random.Random, bits: int) -> Lattice:
    return Lattice(bits=bits, label=labels(rng, "b", 1 << bits))


# ---------------------------------------------------------------------------
# Groups


def group_table(orders: tuple[int, ...], names: list[str]) -> dict:
    """Multiplication table of Z_o1 x Z_o2 x ..., elements named in ``names`` order."""
    elems = list(product(*(range(o) for o in orders)))
    name = dict(zip(elems, names))
    return {
        (name[a], name[b]): name[tuple((x + y) % o for x, y, o in zip(a, b, orders))]
        for a in elems for b in elems
    }


def group(orders: tuple[int, ...]) -> core.ObjlessCategory:
    """Z_o1 x Z_o2 x ... as a one-object category.  The elements are named
    g00, g01, ... in the order they are generated, so name order is
    generation order."""
    size = math.prod(orders)
    names = [f"g{k:0{len(str(size - 1))}d}" for k in range(size)]
    return generators.gen_monoid(group_table(orders, names))


# ---------------------------------------------------------------------------
# Galois connections between chains


@dataclass(frozen=True)
class GaloisPair:
    """Monotone maps f: P -> Q and g: Q -> P between chains, with known verdicts."""

    p: generators.Poset
    q: generators.Poset
    f: dict[str, str]
    g: dict[str, str]
    adjoint: bool  # f is left adjoint to g
    admissible: bool  # adjoint, and f keeps the top (chains have all other finite limits)


def galois_pairs(rng: random.Random, p_size: int, q_size: int) -> list[GaloisPair]:
    """Two adjoint pairs, one whose left map keeps the top and one whose does
    not, and a perturbed copy of each whose right map is no longer adjoint."""
    p_names = labels(rng, "p", p_size)
    q_names = labels(rng, "q", q_size)
    p = generators.Poset.chain(p_names)
    q = generators.Poset.chain(q_names)
    pairs = []
    for keeps_top in (True, False):
        top_rank = q_size - 1 if keeps_top else q_size - 2
        # f(bottom) = bottom, so every y has a largest x with f(x) <= y.
        ranks = [0] + sorted(rng.randint(0, top_rank) for _ in range(p_size - 2)) + [top_rank]
        g_ranks = [max(x for x in range(p_size) if ranks[x] <= y) for y in range(q_size)]
        f = {p_names[x]: q_names[r] for x, r in enumerate(ranks)}
        g = {q_names[y]: p_names[r] for y, r in enumerate(g_ranks)}
        pairs.append(GaloisPair(p, q, f, g, adjoint=True, admissible=keeps_top))
        # Right adjoints are unique, so any other monotone g is not adjoint to f.
        moves = [
            (y, +1) for y in range(q_size)
            if g_ranks[y] + 1 <= (g_ranks[y + 1] if y + 1 < q_size else p_size - 1)
        ] + [
            (y, -1) for y in range(q_size)
            if g_ranks[y] - 1 >= (g_ranks[y - 1] if y > 0 else 0)
        ]
        y, step = rng.choice(moves)
        perturbed = list(g_ranks)
        perturbed[y] += step
        g2 = {q_names[k]: p_names[r] for k, r in enumerate(perturbed)}
        pairs.append(GaloisPair(p, q, f, g2, adjoint=False, admissible=False))
    return pairs


# ---------------------------------------------------------------------------
# catspec text


def _forced_identity_entry(ids: set[str], after: str, before: str, result: str) -> bool:
    return (before in ids and result == after) or (after in ids and result == before)


def standard_text(name: str, std: standard.StdCategory) -> str:
    """A ``category`` block; identity compositions are left for the loader to fill in."""
    ids = set(std.id_of.values())
    lines = [f"category {name} {{", f"  objects: {', '.join(sorted(std.objects))};"]
    lines += [
        f"  arrow {a}: {d} -> {c};" for a, (d, c) in sorted(std.arrows.items()) if a not in ids
    ]
    lines += [
        f"  compose: {a} . {b} = {r};" for (a, b), r in sorted(std.table.items())
        if not _forced_identity_entry(ids, a, b, r)
    ]
    return "\n".join(lines + ["}"]) + "\n"


def objless_text(name: str, arrows, table) -> str:
    """An ``objless`` block with every composition written out."""
    lines = [f"objless {name} {{", f"  arrows: {', '.join(sorted(arrows))};"]
    lines += [f"  compose: {a} . {b} = {r};" for (a, b), r in sorted(table.items())]
    return "\n".join(lines + ["}"]) + "\n"


def identity_functor_text(functor: str, nat: str, cat: str, arrows, identities) -> str:
    lines = [f"functor {functor}: {cat} -> {cat} {{"]
    lines += [f"  map {a} -> {a};" for a in sorted(arrows)]
    lines += ["}", "", f"nat {nat}: {functor} => {functor} {{"]
    lines += [f"  component {i}: {i};" for i in sorted(identities)]
    return "\n".join(lines + ["}"]) + "\n"


def perturb_identity_entries(rng: random.Random, fs: FinSet, count: int) -> dict:
    """The full table of ``fs`` with ``count`` entries ``g . id = g`` changed to
    another arrow of g's hom class, so that id is no longer neutral and the
    arrows out of its object lose their domain identity."""
    std = fs.std
    ids = set(std.id_of.values())
    typing = dict(std.arrows)
    by_hom: dict = {}
    for a, t in sorted(typing.items()):
        by_hom.setdefault(t, []).append(a)
    candidates = [
        (g, i) for (g, i), r in sorted(std.table.items())
        if i in ids and g not in ids and len(by_hom[typing[g]]) > 1
    ]
    table = dict(std.table)
    for g, i in rng.sample(candidates, count):
        table[(g, i)] = rng.choice([a for a in by_hom[typing[g]] if a != g])
    return table


ILLEGAL_CHARACTERS = "$@!%&?^~"


def inject_fault(rng: random.Random, text: str) -> tuple[str, str, int, int]:
    """Insert one illegal character at a seeded position; returns the text and
    the character with its 1-based line and column."""
    pos = rng.randrange(len(text))
    ch = rng.choice(ILLEGAL_CHARACTERS)
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return text[:pos] + ch + text[pos:], ch, line, col
