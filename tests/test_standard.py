"""Standard-bridge tests: validation, both conversions, round trips, renaming."""
from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from arrowcat import standard
from arrowcat.core import MAX_MORPHISMS, validate_objectless
from arrowcat.errors import CapacityError, InvalidCategoryError
from arrowcat.generators import gen_discrete, gen_finset, gen_random
from arrowcat.standard import (
    StdCategory,
    _presentation_holds,
    _presentation_violations,
    equal_up_to_renaming,
    to_objectless,
    to_standard,
    validate_standard,
)

import catalog as fx
from conftest import brute_standard_ok

random_categories = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: gen_random(seed, 16)
)


def _drop_entry(std: StdCategory, key) -> StdCategory:
    table = {k: v for k, v in std.table.items() if k != key}
    return StdCategory.make(std.objects, std.arrows, table, std.id_of)


def _set_entry(std: StdCategory, key, value) -> StdCategory:
    table = dict(std.table)
    table[key] = value
    return StdCategory.make(std.objects, std.arrows, table, std.id_of)


def test_two_chain_std_validates():
    assert validate_standard(fx.two_chain_std()).ok


def test_missing_composable_entry_reported():
    std = _drop_entry(fx.two_chain_std(), ("a", "id_A"))
    report = validate_standard(std)
    assert not report.ok
    assert any(
        v.kind == "totality" and "composable pair" in v.message
        for v in report.violations
    )


def test_nonneutral_identity_reported():
    std = _set_entry(fx.two_chain_std(), ("a", "id_A"), "id_A")
    report = validate_standard(std)
    assert any(v.kind == "identity-nonneutral" for v in report.violations)


def test_illtyped_entry_reported():
    std = _set_entry(fx.two_chain_std(), ("a", "id_B"), "a")
    report = validate_standard(std)
    assert any(v.kind == "typing" for v in report.violations)


def _single_entry_edits(std: StdCategory):
    """Every table with one entry deleted or its result changed to another arrow."""
    for key, result in sorted(std.table.items()):
        yield _drop_entry(std, key)
        for other in sorted(std.arrows):
            if other != result:
                yield _set_entry(std, key, other)


def test_single_entry_edits_match_the_oracle():
    rejected_by_kernel = 0
    for valid in (fx.two_chain_std(), gen_finset(2), fx.finset_dup_std()):
        for std in (valid, *_single_entry_edits(valid)):
            report = validate_standard(std)
            assert report.ok == brute_standard_ok(std)
            try:
                to_objectless(std)
            except InvalidCategoryError as exc:
                assert not report.ok and exc.report == report
            else:
                assert report.ok
            if not _presentation_violations(std):
                rejected_by_kernel += not report.ok
                assert report == validate_objectless(std.arrows, std.table)
    # Some edits pass the presentation checks and fail only the axioms.
    assert rejected_by_kernel > 0


def _presentation_edits(std: StdCategory):
    """Edits to objects, typings, identities and names, which the table edits leave alone."""
    first, last = min(std.objects), max(std.objects)
    ident, last_ident = std.id_of[first], std.id_of[last]
    objects, arrows, table, id_of = std.objects, std.arrows, std.table, std.id_of
    yield StdCategory.make(objects, arrows, table, {**id_of, "Z": ident})
    # An object with no arrow of its own: only the typing of its identity fails.
    yield StdCategory.make(objects | {"Z"}, arrows, table, {**id_of, "Z": ident})
    yield StdCategory.make(objects, arrows, table, {o: i for o, i in id_of.items() if o != first})
    yield StdCategory.make(objects - {first}, arrows, table, id_of)
    yield StdCategory.make(objects, {**arrows, ident: (first, "Z")}, table, id_of)
    # An arrow out of or into an undeclared object.  In the two-chain, which has no
    # other arrow into its first object and none out of its last, the table stays total.
    yield StdCategory.make(objects, {**arrows, "z": (first, "Z")}, {**table, ("z", ident): "z"}, id_of)
    yield StdCategory.make(objects, {**arrows, "z": ("Z", last)}, {**table, (last_ident, "z"): "z"}, id_of)
    yield StdCategory.make(objects, arrows, {**table, (ident, "q"): ident}, id_of)
    # An entry moved from a composable pair of non-identities to a pair that is not
    # composable, with a well-typed result, so the entry count still matches.
    ids, typed = set(id_of.values()), {t: m for m, t in arrows.items()}
    keys = [k for k in sorted(table) if not ids & set(k)]
    pairs = [(a, b) for a, b in product(sorted(arrows), repeat=2)
             if arrows[b][1] != arrows[a][0] and (arrows[b][0], arrows[a][1]) in typed]
    for key, (a, b) in zip(keys[:1], pairs[:1]):
        moved = {k: v for k, v in table.items() if k != key}
        yield StdCategory.make(objects, arrows, {**moved, (a, b): typed[(arrows[b][0], arrows[a][1])]}, id_of)
    for obj in sorted(objects - {first}):
        yield StdCategory.make(objects, arrows, table, {**id_of, first: id_of[obj]})


def test_the_one_pass_presentation_check_holds_exactly_when_the_walk_finds_nothing(monkeypatch):
    corpus = []
    for valid in (fx.two_chain_std(), gen_finset(2), fx.finset_dup_std()):
        corpus += [valid, *_single_entry_edits(valid), *_presentation_edits(valid)]
    holds = [_presentation_holds(std) for std in corpus]
    monkeypatch.setattr(standard, "_presentation_holds", lambda cat: False)
    assert holds == [not _presentation_violations(std) for std in corpus]
    assert 3 <= holds.count(True) < len(holds)


def test_identity_of_unknown_object_reported():
    std = fx.two_chain_std()
    std = StdCategory.make(std.objects, std.arrows, std.table, {**std.id_of, "Z": "a"})
    report = validate_standard(std)
    assert [v.kind for v in report.violations] == ["name-not-found"]
    with pytest.raises(InvalidCategoryError):
        to_objectless(std)


def test_validate_standard_capacity():
    names = [f"x{i}" for i in range(MAX_MORPHISMS + 1)]
    std = StdCategory.make(["A"], {m: ("A", "A") for m in names}, {}, {"A": "x0"})
    with pytest.raises(CapacityError):
        validate_standard(std)


def test_to_objectless_two_chain():
    cat = to_objectless(fx.two_chain_std())
    assert cat.identities == {"id_A", "id_B"}
    assert cat.hom_class("id_A", "id_B") == {"a"}


def test_to_objectless_finset_dup_has_four_identities():
    cat = to_objectless(fx.finset_dup_std())
    assert len(cat.identities) == 4


def test_to_standard_one_morphism():
    one = fx.one()
    std = to_standard(one)
    assert std.objects == {"star"}
    assert set(std.arrows) == {"star"}


def test_to_standard_z2():
    std = to_standard(fx.z2())
    assert std.objects == {"e"}
    assert len(std.arrows) == 2


def test_hom_cardinalities_preserved():
    std = fx.finset_dup_std()
    cat = to_objectless(std)
    for a in std.objects:
        for b in std.objects:
            standard_count = sum(
                1 for (dom, cod) in std.arrows.values() if (dom, cod) == (a, b)
            )
            assert standard_count == len(cat.hom_class(std.id_of[a], std.id_of[b]))


@pytest.mark.parametrize("name", sorted(fx.fixture_pool()))
def test_round_trip_objectless(name, pool):
    cat = pool[name]
    back = to_objectless(to_standard(cat))
    assert back == cat


@settings(max_examples=40, deadline=None)
@given(random_categories)
def test_round_trip_objectless_random(cat):
    assert to_objectless(to_standard(cat)) == cat


@pytest.mark.parametrize("make_std", [fx.two_chain_std, lambda: gen_finset(2), fx.finset_dup_std],
                         ids=["two_chain_std", "finset2_std", "finset_dup_std"])
def test_round_trip_standard_up_to_canonical_renaming(make_std):
    std = make_std()
    back = to_standard(to_objectless(std))
    # The canonical renaming sends each object to its identity arrow.
    assert back.objects == frozenset(std.id_of.values())
    assert dict(back.arrows) == {
        name: (std.id_of[dom], std.id_of[cod])
        for name, (dom, cod) in std.arrows.items()
    }
    assert dict(back.table) == dict(std.table)
    assert set(back.id_of.values()) == set(std.id_of.values())


def test_equal_up_to_renaming_identity():
    std = fx.two_chain_std()
    found = equal_up_to_renaming(std, std)
    assert found is not None
    object_map, arrow_map = found
    assert object_map == {"A": "A", "B": "B"}
    assert arrow_map == {name: name for name in std.arrows}


def test_equal_up_to_renaming_relabelled():
    std = fx.two_chain_std()
    relabelled = StdCategory.make(
        objects=["X", "Y"],
        arrows={"id_X": ("X", "X"), "id_Y": ("Y", "Y"), "step": ("X", "Y")},
        table={
            ("id_X", "id_X"): "id_X", ("id_Y", "id_Y"): "id_Y",
            ("step", "id_X"): "step", ("id_Y", "step"): "step",
        },
        id_of={"X": "id_X", "Y": "id_Y"},
    )
    found = equal_up_to_renaming(std, relabelled)
    assert found is not None
    object_map, arrow_map = found
    assert object_map == {"A": "X", "B": "Y"}
    assert arrow_map["a"] == "step"


def test_equal_up_to_renaming_rejects_different_shapes():
    std = fx.two_chain_std()
    discrete = to_standard(gen_discrete(2))
    assert equal_up_to_renaming(std, discrete) is None


def test_equal_up_to_renaming_capacity():
    std = fx.finset_dup_std()
    with pytest.raises(CapacityError):
        equal_up_to_renaming(std, std, max_morphisms=4)
