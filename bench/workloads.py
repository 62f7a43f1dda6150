"""The three workloads: one cycle of jobs each, with expected verdicts.

A job is one call into arrowcat.  Its ``expect`` check runs outside the
timed region and reads only the call's result and facts known from how the
input was built.  Each workload also lists oracle cross-checks: small inputs
on which an independent oracle must agree with those facts.
"""
from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable

import inputs
from arrowcat import adjunction, cli, core, equivalence, fixtures, functors, generators, limits, standard

# Relabelled copies of the inputs in one cycle.  Cone searches depend more
# on the labels than the decide jobs do, so limits averages over more.
DECIDE_COPIES = 3
LIMITS_COPIES = 6


@dataclass(frozen=True)
class Job:
    kind: str
    call: Callable[[], object]
    expect: Callable[[object], bool]


@dataclass
class Workload:
    cycle: list[Job]
    oracles: list[tuple[str, Callable[[], bool]]]
    warmup: list[Job] | None = None  # default: the first job of each kind
    # Collect garbage before each job (see run.run_job).  Only cli-check does:
    # its jobs stand for separate processes, while the library calls of the
    # other workloads share one heap and limits jobs take less than a collection.
    fresh_heap: bool = False

    def warmup_jobs(self) -> list[Job]:
        if self.warmup is not None:
            return self.warmup
        return list({job.kind: job for job in reversed(self.cycle)}.values())


def build(name: str, rng: random.Random, workdir: Path, tiny: bool) -> Workload:
    if name == "cli-check":
        return cli_check(rng, workdir, tiny)
    if name == "decide":
        return decide(rng, tiny)
    if name == "limits":
        return limits_workload(rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Independent scans, kept apart from the package


def brute_identities(arrows, table) -> set[str]:
    """Arrows neutral in every composition they take part in, and self-composable."""
    out = set()
    for m in arrows:
        neutral = all(
            (b != m or r == a) and (a != m or r == b) for (a, b), r in table.items()
        )
        if neutral and (m, m) in table:
            out.add(m)
    return out


def brute_iso_classes(arrows, table) -> int:
    """Number of isomorphism classes of identities, by scanning all arrow pairs."""
    ids = brute_identities(arrows, table)
    dom = {m: next(i for i in ids if (m, i) in table) for m in arrows}
    cod = {m: next(i for i in ids if (i, m) in table) for m in arrows}
    parent = {i: i for i in ids}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for f in arrows:
        for g in arrows:
            if table.get((g, f)) == dom[f] and table.get((f, g)) == cod[f]:
                parent[find(dom[f])] = find(cod[f])
    return len({find(i) for i in ids})


def element_orders(table: dict) -> list[int]:
    """Sorted orders of the elements of a group table; differing lists mean
    the groups are not isomorphic."""
    elems = sorted({a for a, _ in table})
    unit = next(e for e in elems if all(table[(e, x)] == x for x in elems))
    orders = []
    for x in elems:
        power, k = x, 1
        while power != unit:
            power, k = table[(power, x)], k + 1
        orders.append(k)
    return sorted(orders)


def is_table_bijection(mapping, left: core.ObjlessCategory, right: core.ObjlessCategory) -> bool:
    return (
        set(mapping) == set(left.morphisms)
        and set(mapping.values()) == set(right.morphisms)
        and len(left.table) == len(right.table)
        and all(right.table.get((mapping[a], mapping[b])) == mapping[r] for (a, b), r in left.table.items())
    )


# ---------------------------------------------------------------------------
# cli-check


def _cli(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def _homs_listed(stdout: str) -> dict[tuple[str, str], int]:
    sizes = {}
    for line in stdout.splitlines():
        pair, _, members = line.partition(": ")
        src, _, dst = pair.partition(" -> ")
        sizes[(src, dst)] = 0 if members == "(empty)" else len(members.split(", "))
    return sizes


def _converted(stdout: str) -> tuple[int, int, int, int]:
    """Counts of arrows, compositions, functor maps and components in converted text."""
    lines = stdout.splitlines()
    arrows = sum(len(line.split(": ", 1)[1].rstrip(";").split(", ")) for line in lines if line.startswith("  arrows: "))
    return (
        arrows,
        sum(line.startswith("  compose: ") for line in lines),
        sum(line.startswith("  map ") for line in lines),
        sum(line.startswith("  component ") for line in lines),
    )


@dataclass(frozen=True)
class _CatFacts:
    """What a valid input file must produce, known from its construction."""

    name: str
    ok_lines: list[str]
    identities: list[str]
    identity_count: int
    hom_size: dict[tuple[str, str], int]
    converted: tuple[int, int, int, int]


def _valid_file_jobs(tag: str, path: Path, facts: _CatFacts) -> list[Job]:
    p = str(path)
    return [
        Job(f"check:{tag}", _cli(["check", p]),
            lambda r: r[0] == 0 and r[1].splitlines() == facts.ok_lines),
        Job(f"identities:{tag}", _cli(["identities", p, "--cat", facts.name]),
            lambda r: r[0] == 0 and r[1].split() == facts.identities
            and len(facts.identities) == facts.identity_count),
        Job(f"homs:{tag}", _cli(["homs", p, "--cat", facts.name]),
            lambda r: r[0] == 0 and _homs_listed(r[1]) == facts.hom_size),
        Job(f"convert:{tag}", _cli(["convert", p, "--to", "objectless"]),
            lambda r: r[0] == 0 and _converted(r[1]) == facts.converted),
    ]


def _finset_facts(fs: inputs.FinSet, max_size: int, dup: tuple[int, ...]) -> _CatFacts:
    return _CatFacts(
        name="F",
        ok_lines=["ok: category F"],
        identities=fs.identities,
        identity_count=max_size + 1 + len(dup),
        hom_size={(a, b): fs.hom_size(a, b) for a in fs.identities for b in fs.identities},
        converted=(fs.arrow_count(), fs.entry_count(), 0, 0),
    )


def cli_check(rng: random.Random, workdir: Path, tiny: bool) -> Workload:
    """Each file gets check, identities, homs and convert --to objectless.

    One cycle holds the eight big-file jobs, the chain file's jobs twice and
    the small files' jobs (finset(2, dup 1), its perturbed copy and the
    malformed file) nine times: 124 jobs.  Sorted by cost they fall in bands
    far apart: big-file jobs and chain checks (300-500 ms), the other chain
    commands (about 150 ms) and small-file jobs (about 10 ms).  The median
    lands in the middle of the small band and the 90th percentile in the
    middle of the chain band, so neither sits on the edge between two bands,
    where it would jump between them from run to run.  The order of the big
    jobs by cost differs from host to host, so no percentile is placed among
    them.

    Each job is one command a user would run as its own process, so each
    starts from a collected heap; without that, a big job's time depends on
    the garbage that the jobs before it left.
    """
    big_shape = (2, (1,)) if tiny else (3, (1, 2))
    big = inputs.finset(rng, *big_shape)
    small = inputs.finset(rng, 2, (1,))
    chain_n = 6 if tiny else 20
    files = {
        "big_std": inputs.standard_text("F", big.std),
        "big_objless": inputs.objless_text("F", big.std.arrows, big.std.table),
        "small_std": inputs.standard_text("F", small.std),
    }
    labels = inputs.labels(rng, "c", chain_n)
    chain_arrows, chain_table = inputs.chain_table(labels)
    files["chain"] = inputs.objless_text("C", chain_arrows, chain_table) + "\n" + \
        inputs.identity_functor_text("I", "t", "C", chain_arrows, labels)
    rank = {x: i for i, x in enumerate(labels)}
    chain_facts = _CatFacts(
        name="C",
        ok_lines=["ok: category C", "ok: functor I: C -> C", "ok: nat t"],
        identities=sorted(labels),
        identity_count=chain_n,
        hom_size={(a, b): int(rank[a] <= rank[b]) for a in labels for b in labels},
        converted=(len(chain_arrows), len(chain_table), len(chain_arrows), chain_n),
    )

    perturbed = inputs.perturb_identity_entries(rng, small, count=3)
    files["perturbed"] = inputs.objless_text("F", small.std.arrows, perturbed)
    malformed, ch, line, col = inputs.inject_fault(
        rng, inputs.objless_text("F", small.std.arrows, small.std.table))
    files["malformed"] = malformed
    diagnostic = f"{line}:{col}: lex: unexpected character {ch!r}"

    paths = {}
    for tag, text in files.items():
        paths[tag] = workdir / f"{tag}.cat"
        paths[tag].write_text(text, encoding="utf-8")

    jobs = _valid_file_jobs("big_std", paths["big_std"], _finset_facts(big, *big_shape))
    jobs += _valid_file_jobs("big_objless", paths["big_objless"], _finset_facts(big, *big_shape))
    jobs += _valid_file_jobs("chain", paths["chain"], chain_facts) * 2
    small_jobs = _valid_file_jobs("small_std", paths["small_std"], _finset_facts(small, 2, (1,)))
    p = str(paths["perturbed"])
    small_jobs.append(Job("check:perturbed", _cli(["check", p]),
                          lambda r: r[0] == 1 and r[1].startswith("INVALID: category F\n  violation[")))
    for command in (["identities", p, "--cat", "F"], ["homs", p, "--cat", "F"], ["convert", p, "--to", "objectless"]):
        small_jobs.append(Job(f"{command[0]}:perturbed", _cli(command),
                              lambda r: r[0] == 1 and r[2].startswith("invalid category:")))
    m = str(paths["malformed"])
    for command in (["check", m], ["identities", m, "--cat", "F"], ["homs", m, "--cat", "F"], ["convert", m, "--to", "objectless"]):
        small_jobs.append(Job(f"{command[0]}:malformed", _cli(command),
                              lambda r: r[0] == 2 and diagnostic in r[2].splitlines()))
    jobs += small_jobs * 9

    oracles = [
        ("brute identities of finset(2, dup 1): 2 + 1 + 1 of them",
         lambda: brute_identities(small.std.arrows, small.std.table) == set(small.identities)
         and len(small.identities) == 4),
        (f"brute identities of the {chain_n}-chain",
         lambda: brute_identities(chain_arrows, chain_table) == set(labels)),
        ("perturbed table has a non-neutral identity",
         lambda: brute_identities(small.std.arrows, perturbed) != set(small.identities)),
    ]
    # The small files take every code path the big ones do, at a fraction of the cost.
    return Workload(cycle=jobs, oracles=oracles, warmup=small_jobs, fresh_heap=True)


# ---------------------------------------------------------------------------
# decide


def decide(rng: random.Random, tiny: bool) -> Workload:
    """Skeletons, equivalences and isomorphism searches on prebuilt categories.

    In every pair the left category keeps the names it was generated with and
    the seed relabels the right one.  The search visits morphisms in name
    order, and with both sides relabelled one cyclic-24 search took from 5 ms
    to 7 s depending on the labels, which no run of bounded length averages.
    A cycle holds every job once per relabelled copy of the right sides.
    """
    skel_fs = inputs.finset(rng, 2, (1,)) if tiny else inputs.finset(rng, 3, (1, 2))
    skel_cat = standard.to_objectless(skel_fs.std)
    thick_n = 3 if tiny else 6
    thick = inputs.thick_chain(thick_n)
    dup_left = standard.to_objectless(generators.gen_finset(2, (1,)))
    f3_size = 2 if tiny else 3
    f3_left = standard.to_objectless(generators.gen_finset(f3_size))
    groups = {orders: inputs.group(orders) for orders in ((24,), (2, 2, 4), (16,), (4, 4), (2, 8))}
    walking_iso, one = fixtures.walking_iso(), fixtures.one()

    skel_facts = {
        "finset": (skel_cat, len(skel_fs.distinct_sizes()),
                   sum(t ** s for s in skel_fs.distinct_sizes() for t in skel_fs.distinct_sizes()),
                   skel_fs.size_of.get),
        "thick": (thick, thick_n, thick_n * (thick_n + 1) // 2, inputs.thick_chain_level),
    }

    def skeleton_job(tag: str, seed: int) -> Job:
        cat, n_ids, n_arrows, level = skel_facts[tag]
        return Job(
            f"skeleton:{tag}",
            lambda: equivalence.skeleton(cat, seed=seed),
            lambda r: (
                len(r.skeleton.identities) == n_ids
                and len(r.skeleton.morphisms) == n_arrows
                and all(level(rep) == level(i) for i, rep in r.representatives.items())
            ),
        )

    def iso_job(tag: str, left, right, isomorphic: bool) -> Job:
        return Job(
            f"iso{'+' if isomorphic else '-'}:{tag}",
            lambda: equivalence.find_category_isomorphism(left, right),
            (lambda r: r is not None and is_table_bijection(r.mapping, left, right))
            if isomorphic else (lambda r: r is None),
        )

    jobs, oracles = [], []
    for _ in range(DECIDE_COPIES):
        chain = generators.gen_poset(generators.Poset.chain(inputs.labels(rng, "c", thick_n)))
        plain_right = standard.to_objectless(inputs.finset(rng, 2).std)
        f3_right = standard.to_objectless(inputs.finset(rng, f3_size).std)
        right = {orders: inputs.relabel(groups[orders], rng, "h") for orders in ((24,), (2, 2, 4), (4, 4), (2, 8))}
        # Eight thick-chain skeletons put the median inside their group; the
        # three finset skeletons sit around the 90th percentile.
        jobs += [skeleton_job("finset", rng.randrange(1 << 16)) for _ in range(3)]
        jobs += [skeleton_job("thick", rng.randrange(1 << 16)) for _ in range(8)]
        jobs += [
            Job("equiv:finset_dup-finset", lambda r=plain_right: equivalence.are_equivalent(dup_left, r),
                lambda r: r is not None),
            Job("equiv:thick-chain",
                lambda c=chain: equivalence.are_equivalent(thick, c, max_morphisms=len(thick.morphisms)),
                lambda r: r is not None),
            Job("equiv:finset-finset", lambda r=f3_right: equivalence.are_equivalent(f3_left, r),
                lambda r: r is not None),
            iso_job("cyclic24", groups[(24,)], right[(24,)], True),
            iso_job("z2xz2xz4", groups[(2, 2, 4)], right[(2, 2, 4)], True),
            iso_job("finset", f3_left, f3_right, True),
            iso_job("z16-z4xz4", groups[(16,)], right[(4, 4)], False),
            iso_job("z2xz2xz4-z4xz4", groups[(2, 2, 4)], right[(4, 4)], False),
            iso_job("z4xz4-z2xz8", groups[(4, 4)], right[(2, 8)], False),
            Job("brute:walking_iso-one",
                lambda: equivalence.brute_force_equivalence(walking_iso, one),
                lambda r: r is not None),
        ]
        for left, other in (((16,), (4, 4)), ((2, 2, 4), (4, 4)), ((4, 4), (2, 8))):
            oracles.append((
                f"element orders differ: Z{left} vs Z{other}",
                lambda a=left, b=right[other]: element_orders(groups[a].table) != element_orders(b.table),
            ))

    small_thick = inputs.thick_chain(2)
    small_chain = generators.gen_poset(generators.Poset.chain(["c0", "c1"]))
    oracles += [
        ("brute-force equivalence: thick 2-chain ~ 2-chain",
         lambda: equivalence.brute_force_equivalence(small_thick, small_chain) is not None),
        ("brute-force equivalence: finset(1, dup 1) ~ finset(1)",
         lambda: equivalence.brute_force_equivalence(
             standard.to_objectless(generators.gen_finset(1, (1,))),
             standard.to_objectless(generators.gen_finset(1))) is not None),
        ("brute inverse scan: iso classes of the finset skeleton input",
         lambda: brute_iso_classes(skel_cat.morphisms, skel_cat.table) == len(skel_fs.distinct_sizes())),
        (f"brute inverse scan: iso classes of the thick {thick_n}-chain",
         lambda: brute_iso_classes(thick.morphisms, thick.table) == thick_n),
    ]
    return Workload(cycle=jobs, oracles=oracles)


# ---------------------------------------------------------------------------
# limits


def _poset_limit_jobs(tag: str, cat, top: str, meet, elements: list[str], arrows) -> list[Job]:
    jobs = [Job(f"terminal:{tag}", lambda: limits.terminal_objects(cat), lambda r: r == {top})]
    for a, b in combinations_with_replacement(sorted(elements), 2):
        apex = meet(a, b)
        legs = (generators.poset_arrow(apex, a), generators.poset_arrow(apex, b))
        jobs.append(Job(
            f"product:{tag}", lambda a=a, b=b: limits.binary_product(cat, a, b),
            lambda r, apex=apex, legs=legs: r is not None and r.apex == apex and r.legs == legs,
        ))
    for f, src in arrows:
        # In a poset the only parallel pairs are (f, f); the equalizer is id at dom f.
        jobs.append(Job(
            f"equalizer:{tag}", lambda f=f: limits.equalizer(cat, f, f),
            lambda r, src=src: r is not None and r.apex == src and r.legs == (src,),
        ))
    return jobs


def _chain_arrows(labels):
    return [(generators.poset_arrow(x, y), x) for i, x in enumerate(labels) for y in labels[i:]]


def limits_workload(rng: random.Random, tiny: bool) -> Workload:
    """Terminal objects, every product and every equalizer on three posets,
    limit preservation, and adjunction checks on chain Galois connections.
    The cost of a cone search depends on where the apex falls in name order,
    so a cycle holds every job once per relabelled copy of the inputs."""
    jobs, oracles = [], []
    for _ in range(LIMITS_COPIES):
        copy_jobs, copy_oracles = _limits_copy(rng, tiny)
        jobs += copy_jobs
        oracles += copy_oracles
    return Workload(cycle=jobs, oracles=oracles)


def _limits_copy(rng: random.Random, tiny: bool):
    lat = inputs.lattice(rng, 3 if tiny else 4)
    lat_poset = lat.poset()
    lat_cat = generators.gen_poset(lat_poset)
    lat_arrows = [(generators.poset_arrow(x, y), x) for (x, y) in sorted(lat_poset.leq)]
    posets = [("lattice", lat_cat, lat.top, lat.meet, lat.label, lat_arrows)]
    for tag, n, prefix in (("chain_short", 4 if tiny else 12, "c"), ("chain_long", 6 if tiny else 20, "d")):
        labels = inputs.labels(rng, prefix, n)
        rank = {x: i for i, x in enumerate(labels)}
        posets.append((tag, generators.gen_poset(generators.Poset.chain(labels)), labels[-1],
                       lambda a, b, rank=rank: min(a, b, key=rank.get), labels, _chain_arrows(labels)))
    jobs = []
    for poset in posets:
        jobs += _poset_limit_jobs(*poset)

    # Limit preservation by identity functors, on the two smaller posets.
    for tag, cat, _, _, elements, arrows in posets[:2]:
        checked = {"terminal": 1, "products": len(elements) * (len(elements) + 1) // 2, "equalizers": len(arrows)}
        jobs.append(Job(
            f"preserves:identity_{tag}",
            lambda cat=cat: limits.preserves_finite_limits(functors.functor_identity(cat)),
            lambda r, checked=checked: r.ok and dict(r.checked) == checked,
        ))
    to_bottom = functors.FunctorMap(
        source=lat_cat, target=lat_cat, mapping={m: lat.bottom for m in lat_cat.morphisms}, name="K")
    jobs.append(Job(
        "preserves:constant_bottom",
        lambda: limits.preserves_finite_limits(to_bottom),
        lambda r: not r.ok and [(f.kind, f.diagram) for f in r.failures] == [("terminal", (lat.top,))],
    ))

    pairs = inputs.galois_pairs(rng, 4 if tiny else 8, 3 if tiny else 6)
    for k, pair in enumerate(pairs):
        cand = adjunction.poset_adjunction(pair.p, pair.q, pair.f, pair.g)
        tag = f"{'good' if pair.adjoint else 'perturbed'}{k}"
        jobs.append(Job(f"adjunction:{tag}", lambda cand=cand: adjunction.check_adjunction(cand),
                        lambda r, pair=pair: r.ok == pair.adjoint))
        jobs.append(Job(
            f"admissible:{tag}",
            lambda cand=cand: adjunction.is_admissible(cand.left, cand.right, cand.unit, cand.counit),
            lambda r, pair=pair: r.ok == pair.admissible,
        ))

    oracles = [
        (f"galois oracle agrees on pair {k}",
         lambda pair=pair: adjunction.galois_oracle(pair.p, pair.q, pair.f, pair.g) == pair.adjoint)
        for k, pair in enumerate(pairs)
    ]
    oracles.append(("brute identities of the lattice", lambda: brute_identities(
        lat_cat.morphisms, lat_cat.table) == set(lat.label)))
    return jobs, oracles
