"""Parser, serializer, diagnostics corpus, and generator contracts."""
from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arrowcat import catspec, core
from arrowcat.catspec import (
    CatspecDocument,
    CatspecError,
    functor_decl,
    nat_decl,
    objless_decl,
    parse,
    serialize,
    standard_decl,
)
from arrowcat.cli import main
from arrowcat.core import validate_objectless
from arrowcat.equivalence import identity_nat
from arrowcat.errors import CapacityError, GeneratorError, InvalidCategoryError
from arrowcat.functors import functor_identity
from arrowcat.generators import (
    Poset,
    gen_cyclic,
    gen_discrete,
    gen_finset,
    gen_monoid,
    gen_poset,
    gen_random,
    gen_walking_iso,
)
from arrowcat.standard import validate_standard
import catalog as fx
from conftest import reference_from_covers, reference_poset_category

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_two_chain_block():
    doc = parse("""
objless TwoChain {
  arrows: i0, i1, a;
  compose: i0 . i0 = i0;
  compose: i1 . i1 = i1;
  compose: a . i0 = a;
  compose: i1 . a = a;
}
""")
    assert sorted(doc.categories) == ["TwoChain"]
    cat = doc.objectless("TwoChain")
    assert len(cat.morphisms) == 3
    assert cat.identities == {"i0", "i1"}


def test_empty_input_gives_empty_document():
    doc = parse("")
    assert doc == CatspecDocument()
    assert serialize(doc) == ""


def test_undeclared_compose_name_is_diagnosed():
    with pytest.raises(CatspecError) as exc:
        parse("objless A {\n  arrows: a, b;\n  compose: b . a = c;\n}\n")
    diag = exc.value.diagnostics[0]
    assert diag.kind == "unknown-name"
    assert diag.span.line == 3


def test_standard_block_completes_identities():
    doc = parse("""
category C {
  objects: A, B;
  arrow f: A -> B;
}
""")
    std = doc.standard("C")
    assert std.id_of == {"A": "id_A", "B": "id_B"}
    assert std.table[("f", "id_A")] == "f"
    assert std.table[("id_B", "f")] == "f"
    assert validate_standard(std).ok


def test_standard_block_custom_identity_names():
    doc = parse("""
category C {
  objects: A;
  id A = unit;
}
""")
    std = doc.standard("C")
    assert std.id_of == {"A": "unit"}
    out = serialize(doc)
    assert "id A = unit;" in out
    assert parse(out) == doc


def test_nonneutral_identity_entry_survives_parse():
    # The parser must hand bad identity compositions to the validator, not fix them.
    doc = parse("""
category C {
  objects: A, B;
  arrow f: A -> B;
  compose: f . id_A = id_A;
}
""")
    report = doc.category_report("C")
    assert not report.ok
    assert any(v.kind in ("identity-nonneutral", "typing") for v in report.violations)
    with pytest.raises(InvalidCategoryError):
        doc.objectless("C")


def test_contravariant_keyword_both_spellings():
    for header in ("functor F: A -> A contravariant {",
                   "functor F: A -> A [contravariant] {"):
        doc = parse(
            "objless A {\n  arrows: x;\n  compose: x . x = x;\n}\n"
            + header + "\n  map x -> x;\n}\n"
        )
        assert doc.functors["F"].variance == "contravariant"


def test_parse_never_partially_succeeds():
    text = "objless Good {\n  arrows: x;\n  compose: x . x = x;\n}\nobjless Bad {\n  arrows: 9z;\n}\n"
    with pytest.raises(CatspecError):
        parse(text)


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.cat")))
def test_fixture_files_parse_and_roundtrip(fixture):
    doc = parse(fixture.read_text())
    out = serialize(doc)
    assert parse(out) == doc
    assert serialize(parse(out)) == out


def test_roundtrip_programmatic_document():
    doc = CatspecDocument()
    doc.categories["Z2"] = objless_decl("Z2", fx.z2())
    doc.categories["F2"] = standard_decl("F2", gen_finset(2))
    doc.functors["IdZ2"] = functor_decl("IdZ2", "Z2", "Z2", functor_identity(fx.z2()))
    assert parse(serialize(doc)) == doc


MALFORMED_EXPECTATIONS = [
    ("bad_name_digit.cat", "lex", 2),
    ("conflicting_compose.cat", "conflicting-composition", 4),
    ("duplicate_arrow.cat", "duplicate-name", 2),
    ("duplicate_category.cat", "duplicate-name", 6),
    ("duplicate_map.cat", "duplicate-name", 8),
    ("long_map_run_conflict.cat", "duplicate-name", 50),
    ("missing_brace.cat", "syntax", 4),
    ("missing_semicolon.cat", "missing-terminator", 4),
    ("nat_wiring.cat", "wiring", 19),
    ("unexpected_char.cat", "lex", 2),
    ("unknown_arrow_object.cat", "unknown-name", 3),
    ("unknown_category_ref.cat", "unknown-name", 6),
    ("unknown_component_key.cat", "unknown-name", 11),
    ("unknown_compose_name.cat", "unknown-name", 3),
    ("unknown_statement.cat", "syntax", 3),
]


@pytest.mark.parametrize("name,kind,line", MALFORMED_EXPECTATIONS)
def test_malformed_corpus(name, kind, line):
    text = (FIXTURES / "malformed" / name).read_text()
    with pytest.raises(CatspecError) as exc:
        parse(text)
    first = exc.value.diagnostics[0]
    assert first.kind == kind
    assert first.span.line == line


# Every diagnostic, in full, for the malformed corpus and for seeded one-edit
# mutations of the valid fixtures: the text is the fixture with ``delete``
# characters at ``at`` replaced by ``insert``.  Recorded from the
# character-stepping lexer that the regex lexer replaced; the last entry, a
# long statement run, from the plain token regex.
GOLDEN = json.loads((FIXTURES / "golden_diagnostics.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i:02d}-{c['fixture']}" for i, c in enumerate(GOLDEN)])
def test_golden_diagnostics(case):
    text = (FIXTURES / case["fixture"]).read_text(encoding="utf-8")
    text = text[:case["at"]] + case["insert"] + text[case["at"] + case["delete"]:]
    with pytest.raises(CatspecError) as exc:
        parse(text)
    assert [str(d) for d in exc.value.diagnostics] == case["diagnostics"]


@pytest.mark.parametrize("name", ["twochain.cat", "galois.cat", "walking_iso_and_one.cat", "finsetdup.cat"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_source_spans_point_at_each_declared_name(name, newline):
    text = (FIXTURES / name).read_text(encoding="utf-8").replace("\n", newline)
    doc = parse(text)
    lines = text.split("\n")
    assert doc.source_spans
    for (_, decl), span in doc.source_spans.items():
        assert lines[span.line - 1][span.col - 1:].startswith(decl)


_FUZZ_PIECES = st.sampled_from([
    " ", "\n", "\r", "\t", "\x0b", "#", "{", "}", ":", ";", ",", ".", "=", "[", "]", "-", ">",
    "->", "=>", "@", "é", "٣", "9", "_", "x", "A", "id_A", "objless", "category", "functor", "nat",
    "arrows", "objects", "arrow", "id", "compose", "map", "component", "contravariant",
    # Whole statements, so statement runs land in every block and list.
    "compose: a . b = c;", "compose:a.b=c;", "compose: a . b = c", "compose: compose . a = a;",
    "map a -> b;", "map a->b;", "component a: b;", "arrow f: A -> B;", "arrows: a, b;", "objects: A;",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(_FUZZ_PIECES, max_size=60).map("".join))
def test_parse_fuzz_raises_only_catspec_errors_with_true_spans(text):
    try:
        doc = parse(text)
    except CatspecError as exc:
        assert exc.diagnostics
        for diag in exc.diagnostics:
            assert 0 <= diag.offset <= len(text)
            line = text.count("\n", 0, diag.offset) + 1
            col = diag.offset - text.rfind("\n", 0, diag.offset)
            assert (diag.span.line, diag.span.col) == (line, col)
            if diag.message.startswith("unexpected character"):
                assert diag.message == f"unexpected character {text[diag.offset]!r}"
        return
    assert isinstance(doc, CatspecDocument)


def _outcome(text: str):
    """What ``parse`` makes of ``text``: the serialized document and its spans,
    or each diagnostic with its offset."""
    try:
        doc = parse(text)
    except CatspecError as exc:
        return [(str(d), d.offset) for d in exc.diagnostics]
    return serialize(doc), doc.source_spans


_EDIT_INSERTS = (";", "}", ":", ".", "=", "#c\n", "é", "1x")


def _single_edits(text: str, lines: set[int] | None = None):
    """``text``, and each text one edit away: a token deleted, or one of
    ``_EDIT_INSERTS`` inserted before a token or at the end; with ``lines``,
    only at tokens on those lines (counted from 0)."""
    yield text
    tokens, _ = catspec._lex(text, catspec._TOKEN_RE, 0, len(text))
    for value, offset in tokens:
        if lines is not None and text.count("\n", 0, offset) not in lines:
            continue
        if value:
            yield text[:offset] + text[offset + len(value):]
        for insert in _EDIT_INSERTS:
            yield text[:offset] + insert + text[offset:]


def _assert_parsed_as_the_token_path_does(texts: list[str], monkeypatch) -> None:
    # Statement runs are a shortcut only: every document, span and diagnostic
    # must be the one the plain token regex gives.
    with_runs = [_outcome(t) for t in texts]
    monkeypatch.setattr(catspec, "_LEX_RE", catspec._TOKEN_RE)
    for edited, outcome in zip(texts, with_runs):
        assert outcome == _outcome(edited), edited


@pytest.mark.parametrize("name", [p.name for p in sorted(FIXTURES.glob("*.cat"))] + ["chain"])
def test_statement_tokens_parse_as_the_token_path_does(name, monkeypatch):
    # Each input is cut to its first 30 lines: past them the long fixtures
    # repeat the same statements (finsetdup.cat has 260 compose lines), and
    # the chain file has every block kind in its 28.
    text = serialize(_chain_doc()) if name == "chain" else (FIXTURES / name).read_text(encoding="utf-8")
    _assert_parsed_as_the_token_path_does(
        list(_single_edits("".join(text.splitlines(keepends=True)[:30]))), monkeypatch)


def _runs(text: str, keyword: str = "compose") -> list[list[tuple]]:
    """The entries of each run of ``keyword`` statements that ``parse`` lexes in ``text``."""
    return [tok[3] for tok in catspec._lex(text, catspec._LEX_RE, 0, len(text))[0] if len(tok) > 2 and tok[0] == keyword]


def test_every_run_keyword_opens_a_run_in_the_fixtures():
    keywords = set()
    for name in ("twochain.cat", "galois.cat"):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        keywords.update(tok[0] for tok in catspec._lex(text, catspec._LEX_RE, 0, len(text))[0] if len(tok) > 2)
    assert keywords == set(catspec._RUNS) == {"compose", "map", "component", "arrow", "arrows", "objects"}


def test_edits_at_the_edges_of_a_long_run_parse_as_the_token_path_does(monkeypatch):
    statements = [f"  compose: a{i % 7} . a{i // 7} = a{(i + i // 7) % 7};\n" for i in range(40)]
    text = "objless R {\n  arrows: " + ", ".join(f"a{i}" for i in range(7)) + ";\n" + "".join(statements) + "}\n"
    assert [len(run) for run in _runs(text)] == [40]
    # Lines 2, 21 and 41 hold the first, a middle and the last statement.
    _assert_parsed_as_the_token_path_does(list(_single_edits(text, lines={2, 21, 41})), monkeypatch)


def test_edits_at_the_edges_of_a_long_map_run_parse_as_the_token_path_does(monkeypatch):
    arrows = [f"a{i}" for i in range(40)]
    statements = [f"  map a{i} -> a{i * 7 % 40};\n" for i in range(40)]
    text = "objless R {\n  arrows: " + ", ".join(arrows) + ";\n}\nfunctor F: R -> R {\n" + "".join(statements) + "}\n"
    assert [len(run) for run in _runs(text, "map")] == [40]
    [names] = _runs(text, "arrows")
    assert [name for name, _ in names] == arrows and all(text.startswith(a, at) for a, at in names)
    # Lines 4, 23 and 43 hold the first, a middle and the last statement.
    _assert_parsed_as_the_token_path_does(list(_single_edits(text, lines={4, 23, 43})), monkeypatch)


def test_a_comment_or_line_break_inside_a_statement_leaves_it_to_the_token_path(monkeypatch):
    text = "\n".join([
        "objless A {", "  arrows: a, b;",
        "  compose: a . a = a;",
        "  compose: a # a comment between parts", " . b = b;",
        "  compose: b .", " b = b;",  # a line break between parts
        "  compose:\tb . a = b;  # tabs, and a comment after the statement",
        "  compose: b . a = a;", "}",
    ]) + "\n"
    # Each run's entries, with the line of each statement.
    assert [[(a, b, r, text.count("\n", 0, offset)) for a, b, r, offset in run] for run in _runs(text)] == [
        [("a", "a", "a", 2)], [("b", "a", "b", 7), ("b", "a", "a", 8)],
    ]
    _assert_parsed_as_the_token_path_does(list(_single_edits(text)), monkeypatch)


def test_a_run_of_hashes_after_compose_does_not_backtrack():
    # A failed statement match must not try each way of splitting the run of
    # '#' into comments: there are 2**25 of them here, some seconds of work.
    start = time.process_time()
    with pytest.raises(CatspecError, match="expected ':', found 'x'"):
        parse("objless A {\n  compose " + "#" * 26 + "\n x . x = x;\n}\n")
    assert time.process_time() - start < 1


def _chain_doc() -> CatspecDocument:
    """A 3-chain C with its identity functor I and identity transformation t."""
    cat = gen_poset(Poset.chain(["c0", "c1", "c2"]))
    identity = functor_identity(cat)
    doc = CatspecDocument()
    doc.categories["C"] = objless_decl("C", cat)
    doc.functors["I"] = functor_decl("I", "C", "C", identity)
    doc.nats["t"] = nat_decl("t", "I", "I", identity_nat(identity))
    return doc


def _chain_file(tmp_path) -> Path:
    path = tmp_path / "chain.cat"
    path.write_text(serialize(_chain_doc()), encoding="utf-8")
    return path


def _count_validations(monkeypatch) -> list:
    """Wrap validate_objectless under every name an arrowcat module binds it to."""
    calls = []
    original = core.validate_objectless

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "arrowcat" or name.startswith("arrowcat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_check_validates_the_category_once(tmp_path, monkeypatch, capsys):
    path = _chain_file(tmp_path)
    calls = _count_validations(monkeypatch)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["ok: category C", "ok: functor I: C -> C", "ok: nat t"]
    # The category report, the functor's source and target and the
    # transformation's functors all share one build.
    assert len(calls) == 1


def test_check_validates_a_standard_category_once(monkeypatch, capsys):
    calls = _count_validations(monkeypatch)
    assert main(["check", str(FIXTURES / "twochain.cat")]) == 0
    assert capsys.readouterr().out.splitlines() == ["ok: category TwoChain", "ok: category TwoChainStd"]
    assert len(calls) == 2


def test_check_validates_an_invalid_category_once(tmp_path, monkeypatch, capsys):
    # One invalid category named by two functors: the failed build is kept.
    path = tmp_path / "invalid.cat"
    path.write_text(
        "objless A {\n  arrows: e, s;\n  compose: e . e = e;\n  compose: s . s = e;\n}\n"
        "functor F: A -> A {\n  map e -> e;\n  map s -> s;\n}\n"
        "functor G: A -> A {\n  map e -> e;\n  map s -> e;\n}\n",
        encoding="utf-8",
    )
    calls = _count_validations(monkeypatch)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "INVALID: category A",
        "  violation[associativity-existence] witnesses=(s, s, s): s.(s.s) undefined although s.s and s.s are defined",
        "  violation[associativity-existence] witnesses=(e, s, s): e.(s.s) is defined but e.s is not",
        "  violation[associativity-existence] witnesses=(s, s, e): (s.s).e is defined but s.e is not",
        "  violation[identity-missing] witnesses=(s): no identity i with s.i defined and i neutral",
        "  violation[identity-missing] witnesses=(s): no identity i with i.s defined and i neutral",
        "skipped: functor F (source or target category invalid)",
        "skipped: functor G (source or target category invalid)",
    ]
    assert len(calls) == 1


def test_objectless_is_built_once_per_declaration(tmp_path):
    doc = parse(_chain_file(tmp_path).read_text(encoding="utf-8"))
    first = doc.objectless("C")
    assert doc.objectless("C") is first
    assert doc.functor("I").source is first and doc.nat("t").source.target is first
    # A replaced declaration is built afresh, never served from the old cache.
    other = gen_poset(Poset.chain(["d0", "d1"]))
    doc.categories["C"] = objless_decl("C", other)
    assert doc.objectless("C") == other
    std_doc = parse((FIXTURES / "twochain.cat").read_text(encoding="utf-8"))
    assert std_doc.objectless("TwoChainStd") is std_doc.objectless("TwoChainStd")


def test_invalid_objless_report_matches_the_validator():
    doc = parse("objless A {\n  arrows: e, s;\n  compose: e . e = e;\n  compose: s . s = e;\n}\n")
    decl = doc.categories["A"]
    report = doc.category_report("A")
    assert not report.ok
    assert report == validate_objectless(decl.morphisms, decl.table)
    with pytest.raises(InvalidCategoryError) as exc:
        doc.objectless("A")
    assert exc.value.report == report


# ---------------------------------------------------------------------------
# Generators


def test_gen_poset_two_chain():
    cat = gen_poset(Poset.chain(["i0", "i1"]))
    assert cat.identities == {"i0", "i1"}
    assert len(cat.morphisms) == 3


def _chain(n: int) -> tuple[list[str], set[tuple[str, str]]]:
    names = [f"c{i}" for i in range(n)]
    return names, set(zip(names, names[1:]))


def _boolean_lattice(bits: int) -> tuple[list[str], set[tuple[str, str]]]:
    """The lattice the ``limits`` benchmark builds, with plain names."""
    names = [f"b{m}" for m in range(1 << bits)]
    covers = {(names[m], names[m | 1 << b]) for m in range(1 << bits) for b in range(bits) if not m & 1 << b}
    return names, covers


def _random_covers(seed: int) -> tuple[list[str], set[tuple[str, str]]]:
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(rng.randint(1, 8))]
    return names, {(x, y) for i, x in enumerate(names) for y in names[i + 1:] if rng.random() < 0.4}


POSET_COVERS = (
    [_chain(n) for n in (1, 2, 3, 8, 20)]
    + [_boolean_lattice(bits) for bits in (2, 3, 4)]
    + [_random_covers(seed) for seed in range(40)]
)


@pytest.mark.parametrize("elements, covers", POSET_COVERS)
def test_poset_and_its_category_match_the_joined_loops(elements, covers):
    poset = Poset.from_covers(elements, covers)
    assert poset.leq == reference_from_covers(elements, covers)
    cat = gen_poset(poset)
    morphisms, table = reference_poset_category(poset)
    assert cat.morphisms == frozenset(morphisms)
    assert list(cat.table.items()) == list(table.items())


def test_gen_poset_names_each_arrow_once():
    cat = gen_poset(Poset.from_covers(*_boolean_lattice(4)))
    names = {id(name) for key, result in cat.table.items() for name in (*key, result)}
    assert len(names) == len(cat.morphisms) == 81


@pytest.mark.parametrize("covers", [{("a", "b"), ("b", "a")}, {("a", "z")}, {("z", "a")}])
def test_from_covers_rejects_cycles_and_unknown_elements(covers):
    with pytest.raises(GeneratorError):
        Poset.from_covers(["a", "b"], covers)


def test_gen_poset_rejects_non_poset():
    with pytest.raises(GeneratorError):
        Poset(elements=("a", "b"), leq=frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))


def test_poset_rejects_a_relation_that_is_not_transitive():
    with pytest.raises(GeneratorError, match=r"^order is not transitive on \(a, b, c\)$"):
        Poset(elements=("a", "b", "c"), leq=frozenset({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}))
    # A 4-chain without a <= d: (a, b, d) and (a, c, d) both break transitivity.
    leq = {(x, y) for i, x in enumerate("abcd") for y in "abcd"[i:]} - {("a", "d")}
    with pytest.raises(GeneratorError, match="order is not transitive") as exc:
        Poset(elements=tuple("abcd"), leq=frozenset(leq))
    x, y, z = str(exc.value).split("(")[1].rstrip(")").split(", ")
    assert (x, y) in leq and (y, z) in leq and (x, z) not in leq


def test_gen_monoid_z2():
    cat = gen_monoid({("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"})
    assert cat == fx.z2()


def test_gen_monoid_rejects_non_associative():
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("b", "e"): "b",
        ("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "a",
    }
    with pytest.raises(GeneratorError):
        gen_monoid(table)


def test_gen_monoid_rejects_a_semigroup_without_identity():
    # The left-zero semigroup x.y = x is total and associative but has no unit.
    table = {(x, y): x for x in "ab" for y in "ab"}
    with pytest.raises(GeneratorError, match="identity-missing"):
        gen_monoid(table)


def test_gen_finset_counts():
    std = gen_finset(2, dup=(1,))
    assert len(std.objects) == 4
    assert len(std.arrows) == 18
    assert validate_standard(std).ok
    skeletal = gen_finset(2)
    assert len(skeletal.arrows) == 11


def test_gen_discrete_and_walking_iso():
    assert len(gen_discrete(1).morphisms) == 1
    wi = gen_walking_iso()
    assert validate_objectless(wi.morphisms, wi.table).ok
    assert len(wi.identities) == 2


def test_gen_cyclic_is_group():
    z4 = gen_cyclic(4)
    assert len(z4.identities) == 1
    assert len(z4.morphisms) == 4


def test_generators_check_the_cap_before_the_table():
    # finset(5) would build 18,705,846 entries, cyclic(4097) 16,785,409.
    start = time.process_time()
    with pytest.raises(CapacityError, match="5705 morphisms exceeds cap of 4096"):
        gen_finset(5)
    with pytest.raises(CapacityError, match="4097 morphisms exceeds cap of 4096"):
        gen_cyclic(4097)
    assert time.process_time() - start < 1


def test_gen_random_deterministic():
    assert gen_random(0, 16) == gen_random(0, 16)
    assert gen_random(7, 16) == gen_random(7, 16)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gen_random_always_valid_and_capped(seed):
    cat = gen_random(seed, 16)
    assert 1 <= len(cat.morphisms) <= 16
    assert validate_objectless(cat.morphisms, cat.table).ok
