"""Arrow-kernel tests: validation, identities, composition, profiles, opposite."""
from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arrowcat import core
from arrowcat.core import (
    ObjlessCategory,
    infer_identities,
    validate_objectless,
)
from arrowcat.errors import (
    InvalidCategoryError,
    MalformedNameError,
    NameNotFoundError,
    NotAnIdentityError,
)
from arrowcat.generators import Poset, disjoint_union, gen_cyclic, gen_discrete, gen_poset, gen_random
from arrowcat.report import MAX_VIOLATIONS, violation

import catalog as fx
from conftest import brute_identities, brute_neutral, reference_validate_objectless

random_categories = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: gen_random(seed, 16)
)

Z2_TABLE = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}


def test_one_morphism_category_validates():
    report = validate_objectless(["e"], {("e", "e"): "e"})
    assert report.ok and report.violations == ()


def test_z2_validates():
    assert validate_objectless(["e", "s"], Z2_TABLE).ok


def test_missing_identity_reported():
    # s composes only with itself and s.s = e, so no neutral partner exists for s.
    report = validate_objectless(["e", "s"], {("e", "e"): "e", ("s", "s"): "e"})
    assert not report.ok
    assert any(
        v.kind == "identity-missing" and v.witnesses[0] == "s" for v in report.violations
    )


def test_functionality_violation_from_conflicting_triples():
    triples = [("e", "e", "e"), ("e", "e", "s"), ("s", "s", "e"), ("e", "s", "s"), ("s", "e", "s")]
    report = validate_objectless(["e", "s"], triples)
    assert any(v.kind == "functionality" for v in report.violations)


def test_truncated_report_keeps_the_true_total():
    names = [f"m{i}" for i in range(300)]
    report = validate_objectless(names, {})
    assert not report.ok
    assert (report.total, len(report.violations)) == (600, MAX_VIOLATIONS)
    assert report.lines()[-1] == "... 500 more violations not shown (600 in all)"
    with pytest.raises(InvalidCategoryError, match=r"\(\+599 more\)$"):
        ObjlessCategory.build(names, {})


def test_broken_input_formats_only_the_violations_it_keeps(monkeypatch):
    # Every result of the cyclic group of order 40 made random: tens of
    # thousands of violations, of which a report keeps the first 100.
    rng = random.Random(40)
    names = sorted(gen_cyclic(40).morphisms)
    table = {pair: rng.choice(names) for pair in product(names, repeat=2)}
    want = reference_validate_objectless(names, table)
    formatted = []

    def counting_violation(*args):
        formatted.append(args)
        return violation(*args)

    monkeypatch.setattr(core, "violation", counting_violation)
    report = validate_objectless(names, table)
    assert report == want and report.total > 50_000
    assert len(formatted) == len(report.violations) == MAX_VIOLATIONS


def test_associativity_inequality_reported():
    # Total one-object table with a.(a.b) = b but (a.a).b = a.
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("b", "e"): "b",
        ("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "a",
    }
    report = validate_objectless(["e", "a", "b"], table)
    assert not report.ok
    assert any(v.kind == "associativity-equal" for v in report.violations)


def test_associativity_existence_reported():
    # b.a and g.b defined but g.(b.a) missing from the table.
    table = {
        ("i", "i"): "i", ("a", "i"): "a", ("i", "a"): "a",
        ("a", "a"): "i", ("b", "i"): "b", ("i", "b"): "b",
        ("b", "a"): "b",
        # (b, b), (a, b) omitted although cod/dom line up
    }
    report = validate_objectless(["i", "a", "b"], table)
    assert not report.ok
    assert any(v.kind == "associativity-existence" for v in report.violations)


def test_undeclared_name_raises():
    with pytest.raises(NameNotFoundError):
        validate_objectless(["e"], {("e", "ghost"): "e"})


def test_triples_naming_an_undeclared_morphism_raise():
    with pytest.raises(NameNotFoundError, match=r"^table references undeclared morphism 'q'$"):
        ObjlessCategory.build(["e"], [("e", "e", "e"), ("e", "q", "e")])


def test_a_table_past_the_byte_codes_naming_an_undeclared_morphism_raises():
    names = [f"m{i}" for i in range(256)]
    table = {(m, m): m for m in names} | {("m0", "zz"): "m0"}
    with pytest.raises(NameNotFoundError, match=r"^table references undeclared morphism 'zz'$"):
        ObjlessCategory.build(names, table)


def test_malformed_name_raises():
    with pytest.raises(MalformedNameError):
        validate_objectless(["1e"], {("1e", "1e"): "1e"})


def test_build_rejects_invalid():
    with pytest.raises(InvalidCategoryError) as exc:
        ObjlessCategory.build(["e", "s"], {("e", "e"): "e", ("s", "s"): "e"})
    assert not exc.value.report.ok


def test_the_constructor_is_sealed():
    # Only build validates, so a direct call must not yield a category: here
    # the only arrow would carry no identity.
    with pytest.raises(TypeError, match="ObjlessCategory.build"):
        ObjlessCategory(
            morphisms=frozenset({"s"}), table={("s", "s"): "s"}, identities=frozenset(), dom={}, cod={},
        )
    cat = fx.two_chain()
    with pytest.raises(TypeError, match="ObjlessCategory.build"):
        dataclasses.replace(cat, identities=frozenset())
    assert cat.opposite().opposite() == cat
    assert cat.full_subcategory(["i0"]).morphisms == {"i0"}


def test_build_reads_one_shot_iterables_once():
    one = ObjlessCategory.build(["e"], {("e", "e"): "e"})
    assert ObjlessCategory.build(iter(["e"]), {("e", "e"): "e"}) == one
    assert ObjlessCategory.build(["e"], iter([("e", "e", "e")])) == one
    cat = fx.finset2()
    triples = [(g, b, r) for (g, b), r in cat.table.items()]
    assert ObjlessCategory.build(iter(sorted(cat.morphisms)), iter(triples)) == cat


DIFFERENTIAL_BASES = {
    "walking_iso": fx.walking_iso,
    "one": fx.one,
    "finset2": fx.finset2,
    "chain4": lambda: gen_poset(fx.chain_poset(4, "c")),
    "cyclic5": lambda: gen_cyclic(5),
}


def _assert_matches_reference(names, table):
    assert validate_objectless(names, table) == reference_validate_objectless(names, table)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_BASES))
def test_kernel_matches_reference_on_single_entry_edits(name):
    cat = DIFFERENTIAL_BASES[name]()
    names = sorted(cat.morphisms)
    table = dict(cat.table)
    _assert_matches_reference(names, table)
    # Every deletion, every changed result and every added pair.
    for key, result in table.items():
        _assert_matches_reference(names, {k: r for k, r in table.items() if k != key})
    for key in product(names, repeat=2):
        for other in names:
            if other != table.get(key):
                _assert_matches_reference(names, {**table, key: other})


@pytest.mark.parametrize("seed", range(60))
def test_kernel_matches_reference_on_seeded_edits(seed):
    rng = random.Random(seed)
    base = sorted(DIFFERENTIAL_BASES)[seed % len(DIFFERENTIAL_BASES)]
    cat = gen_random(seed, 14) if seed % 6 == 5 else DIFFERENTIAL_BASES[base]()
    names = sorted(cat.morphisms)
    table = dict(cat.table)
    # Deletions, changed results and new pairs; every tenth seed edits heavily,
    # past the number of violations a report keeps.
    for _ in range(rng.randint(2, 6) if seed % 10 else 40):
        pair = (rng.choice(names), rng.choice(names))
        if pair in table and rng.random() < 0.4:
            del table[pair]
        else:
            table[pair] = rng.choice(names)
    _assert_matches_reference(names, table)
    # Violations come out in table order, so a reordered table must agree too.
    items = list(table.items())
    rng.shuffle(items)
    _assert_matches_reference(names, dict(items))


@pytest.mark.parametrize("n", [22, 23])
def test_kernel_matches_reference_on_both_sides_of_the_byte_threshold(n):
    # The 22-chain's 253 arrows fit byte codes and take the byte-row pass; the
    # 23-chain's 276 do not and take the itemgetter pass.
    cat = gen_poset(Poset.chain([f"c{i:02d}" for i in range(n)]))
    names, table = sorted(cat.morphisms), dict(cat.table)
    assert (core._Table(names, table).dense is None) == (len(names) > 255) == (n == 23)
    _assert_matches_reference(names, table)
    rng = random.Random(n)
    for _ in range(50):
        edited = dict(table)
        pair = (rng.choice(names), rng.choice(names))
        if pair in edited and rng.random() < 0.4:
            del edited[pair]
        else:
            edited[pair] = rng.choice(names)
        _assert_matches_reference(names, edited)


def test_the_fast_pass_picks_no_morphism_of_a_valid_category(pool):
    # A pass that picks too many morphisms still reports right, since the walk
    # over their entries is exact, but it walks for nothing.
    chains = [gen_poset(Poset.chain([f"c{i:02d}" for i in range(n)])) for n in (22, 23)]
    for cat in [*pool.values(), *chains, *(gen_random(seed, 16) for seed in range(20))]:
        t = core._Table(cat.morphisms, cat.table)
        assert core._failing(t) == set() and (t.dense is None or core._identities_hold(t))


_PERTURBED_FINSET_REPORT = """
import random
from arrowcat.core import validate_objectless
from arrowcat.generators import gen_finset
std = gen_finset(3, (1, 2))
names, table, rng = sorted(std.arrows), dict(sorted(std.table.items())), random.Random(3)
for _ in range(12):
    table[(rng.choice(names), rng.choice(names))] = rng.choice(names)
print(validate_objectless(names, table))
# Without the identity of n0 only the identity checks fail.
table = {(g, b): gb for (g, b), gb in sorted(std.table.items()) if std.id_of["n0"] not in (g, b)}
print(validate_objectless(names, table))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    # Byte codes follow the order of a frozenset, which follows the per-process
    # string hash; the report must not.
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _PERTURBED_FINSET_REPORT], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        reports.append(done.stdout)
    assert reports[0] == reports[1]
    assert "associativity" in reports[0] and "identity-missing" in reports[0]


@pytest.mark.parametrize("name", ["finset2", "cyclic5", "chain4"])
def test_kernel_matches_reference_on_conflicting_triples(name):
    rng = random.Random(name)
    cat = DIFFERENTIAL_BASES[name]()
    names = sorted(cat.morphisms)
    triples = [(g, b, r) for (g, b), r in cat.table.items()]
    for _ in range(25):
        g, b, r = rng.choice(triples)
        edited = list(triples)
        edited.insert(rng.randrange(len(edited) + 1), (g, b, rng.choice([n for n in names if n != r])))
        _assert_matches_reference(names, edited)


def test_morphism_cap():
    from arrowcat.errors import CapacityError

    names = [f"m{i}" for i in range(4097)]
    with pytest.raises(CapacityError):
        validate_objectless(names, {})


def test_infer_identities_z2():
    assert infer_identities(["e", "s"], Z2_TABLE) == {"e"}


def test_infer_identities_two_chain():
    cat = fx.two_chain()
    assert cat.identities == {"i0", "i1"}


def test_dom_cod_two_chain():
    cat = fx.two_chain()
    assert cat.dom_id("a") == "i0"
    assert cat.cod_id("a") == "i1"
    for ident in cat.identities:
        assert cat.dom_id(ident) == ident == cat.cod_id(ident)


def test_dom_cod_z2():
    cat = fx.z2()
    assert cat.dom_id("s") == "e" == cat.cod_id("s")


def test_compose():
    tc = fx.two_chain()
    assert tc.compose("a", "i0") == "a"
    assert tc.compose("i0", "a") is None  # cod(a) = i1 != i0
    assert fx.z2().compose("s", "s") == "e"
    with pytest.raises(NameNotFoundError):
        tc.compose("a", "ghost")


def test_hom_classes():
    tc = fx.two_chain()
    assert tc.hom_class("i0", "i1") == {"a"}
    assert tc.hom_class("i1", "i0") == frozenset()
    assert "i0" in tc.hom_class("i0", "i0")
    with pytest.raises(NotAnIdentityError):
        tc.hom_class("a", "i0")


def test_composition_profile():
    tc = fx.two_chain()
    p0 = tc.composition_profile("i0")
    assert p0.right_partners == {"i0", "a"}
    assert p0.left_partners == {"i0"}
    p1 = tc.composition_profile("i1")
    assert p1.right_partners == {"i1"}
    assert p1.left_partners == {"i1", "a"}
    one = fx.one()
    profile = one.composition_profile("star")
    assert profile.right_partners == profile.left_partners == {"star"}


def test_discernible():
    tc = fx.two_chain()
    assert tc.discernible("i0", "i1")
    assert not tc.discernible("i0", "i0")
    fd = fx.finset_dup()
    assert fd.discernible("id_n1", "id_n1b")


def test_opposite_two_chain():
    op = fx.two_chain().opposite()
    assert op.dom_id("a") == "i1"
    assert op.cod_id("a") == "i0"


def test_opposite_commutative_monoid_is_identity():
    z2 = fx.z2()
    assert z2.opposite() == z2


@pytest.mark.parametrize("name", sorted(fx.fixture_pool()))
def test_opposite_involution(name, pool):
    cat = pool[name]
    assert cat.opposite().opposite() == cat


@pytest.mark.parametrize("name", sorted(fx.fixture_pool()))
def test_identities_match_bruteforce(name, pool):
    cat = pool[name]
    assert cat.identities == brute_identities(cat)


@pytest.mark.parametrize("name", sorted(fx.fixture_pool()))
def test_hom_classes_partition(name, pool):
    cat = pool[name]
    seen = []
    for a in cat.identities:
        for b in cat.identities:
            seen.extend(cat.hom_class(a, b))
    assert sorted(seen) == sorted(cat.morphisms)


def _hom_classes_match_hom_class(cat):
    by_hom = cat.hom_classes()
    for a, b in product(cat.identities, repeat=2):
        assert by_hom.get((a, b), []) == sorted(cat.hom_class(a, b))
    assert all(by_hom.values())


@pytest.mark.parametrize("name", sorted(fx.fixture_pool()))
def test_hom_classes_match_hom_class_on_fixtures(name, pool):
    _hom_classes_match_hom_class(pool[name])


@pytest.mark.parametrize("seed", range(30))
def test_hom_classes_match_hom_class_on_random_categories(seed):
    _hom_classes_match_hom_class(gen_random(seed, 24))


@settings(max_examples=40, deadline=None)
@given(random_categories)
def test_lemma_unique_identities(cat):
    # Exactly one neutral partner on each side of every morphism.
    neutral = brute_neutral(cat.morphisms, cat.table)
    for m in cat.morphisms:
        assert len([i for i in neutral if (m, i) in cat.table]) == 1
        assert len([i for i in neutral if (i, m) in cat.table]) == 1


@settings(max_examples=40, deadline=None)
@given(random_categories)
def test_identity_pair_composition_iff_equal(cat):
    for i in cat.identities:
        for j in cat.identities:
            assert (((i, j) in cat.table) == (i == j))


@settings(max_examples=40, deadline=None)
@given(random_categories)
def test_lemma_composition_criterion(cat):
    for b in cat.morphisms:
        for a in cat.morphisms:
            defined = (b, a) in cat.table
            assert defined == (cat.cod_id(a) == cat.dom_id(b))
            if defined:
                r = cat.table[(b, a)]
                assert cat.dom_id(r) == cat.dom_id(a)
                assert cat.cod_id(r) == cat.cod_id(b)


@settings(max_examples=40, deadline=None)
@given(random_categories)
def test_distinct_identities_always_discernible(cat):
    idents = sorted(cat.identities)
    for i in idents:
        for j in idents:
            assert cat.discernible(i, j) == (i != j)


@settings(max_examples=30, deadline=None)
@given(random_categories)
def test_opposite_is_valid_and_involutive(cat):
    op = cat.opposite()
    assert validate_objectless(op.morphisms, op.table).ok
    assert op.opposite() == cat
    for m in cat.morphisms:
        assert op.dom_id(m) == cat.cod_id(m)
        assert op.cod_id(m) == cat.dom_id(m)


@pytest.mark.parametrize("seed", range(10))
def test_hash_is_cached_per_instance_and_follows_the_table(seed):
    cat = gen_random(seed, 16)
    again = ObjlessCategory.build(set(cat.morphisms), dict(cat.table))
    assert again is not cat and hash(again) == hash(cat) == hash(cat)
    # Each derived category hashes by its own table, not by a hash cached on its parent.
    op, idents = cat.opposite(), sorted(cat.identities)[:2]
    sub = cat.full_subcategory(idents)
    assert hash(op) == hash(ObjlessCategory.build(op.morphisms, dict(op.table)))
    assert hash(sub) == hash(ObjlessCategory.build(sub.morphisms, dict(sub.table)))
    assert op.opposite() == cat and hash(op.opposite()) == hash(cat)


def _rebuilt_rows(cat: ObjlessCategory):
    rows = {m: {} for m in cat.morphisms}
    for (g, b), gb in cat.table.items():
        rows[g][b] = gb
    return rows


def _rebuilt_inverses(cat: ObjlessCategory):
    return {f: g for (f, g), fg in cat.table.items() if fg == cat.cod[f] and cat.table.get((g, f)) == cat.dom[f]}


def _derived(cat: ObjlessCategory) -> list[ObjlessCategory]:
    idents = sorted(cat.identities)
    return [cat, cat.opposite(), cat.full_subcategory(idents[::2]), cat.full_subcategory(idents[1:]),
            cat.opposite().full_subcategory(idents[:1]), cat.full_subcategory(idents[1:]).opposite()]


@pytest.mark.parametrize("built_first", [(), ("rows",), ("inverses",), ("rows", "inverses")])
@pytest.mark.parametrize("seed", range(20))
def test_index_of_derived_categories_matches_their_own_tables(seed, built_first):
    # opposite() hands on the inverses if they are built, and builds its own
    # rows; either way each must be read from the category's own table,
    # whatever the parent built first.
    cat = gen_random(seed, 16)
    for side in built_first:
        getattr(cat, side)
    for derived in _derived(cat):
        assert derived.rows == _rebuilt_rows(derived)
        assert derived.inverses == _rebuilt_inverses(derived)
        assert ObjlessCategory.build(derived.morphisms, dict(derived.table)) == derived


def test_index_matches_the_table_on_the_fixture_pool(pool):
    for name, cat in pool.items():
        for derived in _derived(cat):
            assert derived.rows == _rebuilt_rows(derived), name


def test_index_and_hash_take_no_part_in_equality_or_repr():
    cat, again = fx.two_chain(), fx.two_chain()
    # Fill in the hash and the index of cat only.
    hash(cat)
    cat.rows
    assert cat == again and repr(cat) == repr(again) and hash(cat) == hash(again)
    assert "_rows" not in repr(cat) and "_hash" not in repr(cat)


def _by_name(layout) -> dict[tuple[str, str], str]:
    """Byte rows read back by name, ``{(g, b): g.b}`` over the defined pairs."""
    order, code, rows = layout
    assert code == {m: i for i, m in enumerate(order)} and [len(row) for row in rows] == [len(order)] * len(order)
    return {(g, b): order[c] for g, row in zip(order, rows) for b, c in zip(order, row) if c != 255}


def _assert_layout_is_its_own(cat: ObjlessCategory) -> None:
    # The layout a category derives must be the one _Table builds from its own
    # table, compared by name, and the category the one build makes of it.
    t = core._Table(cat.morphisms, dict(cat.table))
    assert (cat._layout is None) == (t.dense is None)
    if cat._layout is not None:
        assert set(cat._layout[0]) == cat.morphisms
        assert _by_name(cat._layout) == _by_name((t.order, t.code, t.rows)) == dict(cat.table)
    again = ObjlessCategory.build(cat.morphisms, dict(cat.table))
    assert cat == again and hash(cat) == hash(again)


def _chain(n: int) -> ObjlessCategory:
    return gen_poset(Poset.chain([f"c{i:02d}" for i in range(n)]))


def test_byte_rows_end_at_255_morphisms():
    # Codes 0..254 name the morphisms and 255 an undefined composite, so 255
    # morphisms keep byte rows and 256 take the path without them.
    for extra, kept in ((2, True), (3, False)):
        cat = disjoint_union(_chain(22), gen_discrete(extra))
        assert (len(cat.morphisms), cat._layout is not None) == (253 + extra, kept)
        assert validate_objectless(cat.morphisms, cat.table) == reference_validate_objectless(cat.morphisms, cat.table)


@pytest.mark.parametrize("seed", range(30))
def test_derived_layouts_are_their_own_on_random_categories(seed):
    for derived in _derived(gen_random(seed, 16)):
        _assert_layout_is_its_own(derived)


def test_derived_layouts_are_their_own_on_the_pool(pool):
    for cat in pool.values():
        for derived in _derived(cat):
            _assert_layout_is_its_own(derived)


def test_every_full_subcategory_of_the_small_pool_keeps_its_own_layout(small_pool):
    for cat in small_pool.values():
        idents = sorted(cat.identities)
        for size in range(len(idents) + 1):
            for keep in combinations(idents, size):
                sub = cat.full_subcategory(keep)
                _assert_layout_is_its_own(sub)
                _assert_layout_is_its_own(sub.opposite())


def test_full_subcategories_lay_out_across_the_byte_threshold():
    # The 23-chain (276 arrows) keeps no byte rows; a full subcategory of it
    # that fits a byte lays out its filtered table, and one of the 22-chain
    # restricts the parent's rows.
    c22, c23 = _chain(22), _chain(23)
    assert c22._layout is not None and c23._layout is None
    idents = sorted(c23.identities)
    for cat, keep in [(c23, idents[:22]), (c23, idents[1::2]), (c23, idents[:1]), (c22, idents[3:17]),
                      (c22.opposite(), idents[::3])]:
        sub = cat.full_subcategory(keep)
        assert sub._layout is not None
        _assert_layout_is_its_own(sub)
        _assert_layout_is_its_own(sub.opposite())
