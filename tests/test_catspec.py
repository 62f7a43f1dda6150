"""Parser, serializer, diagnostics corpus, and generator contracts."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arrowcat import core, fixtures as fx
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
from arrowcat.errors import GeneratorError, InvalidCategoryError
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
    doc.categories["F2"] = standard_decl("F2", fx.finset2_std())
    doc.functors["IdZ2"] = functor_decl("IdZ2", "Z2", "Z2", functor_identity(fx.z2()))
    assert parse(serialize(doc)) == doc


MALFORMED_EXPECTATIONS = [
    ("bad_name_digit.cat", "lex", 2),
    ("conflicting_compose.cat", "conflicting-composition", 4),
    ("duplicate_arrow.cat", "duplicate-name", 2),
    ("duplicate_category.cat", "duplicate-name", 6),
    ("duplicate_map.cat", "duplicate-name", 8),
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
# character-stepping lexer that the regex lexer replaced.
GOLDEN = json.loads((FIXTURES / "golden_diagnostics.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i:02d}-{c['fixture']}" for i, c in enumerate(GOLDEN)])
def test_golden_diagnostics(case):
    text = (FIXTURES / case["fixture"]).read_text(encoding="utf-8")
    text = text[:case["at"]] + case["insert"] + text[case["at"] + case["delete"]:]
    with pytest.raises(CatspecError) as exc:
        parse(text)
    assert [str(d) for d in exc.value.diagnostics] == case["diagnostics"]


_FUZZ_PIECES = st.sampled_from([
    " ", "\n", "\r", "\t", "\x0b", "#", "{", "}", ":", ";", ",", ".", "=", "[", "]", "-", ">",
    "->", "=>", "@", "é", "٣", "9", "_", "x", "A", "id_A", "objless", "category", "functor", "nat",
    "arrows", "objects", "arrow", "id", "compose", "map", "component", "contravariant",
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


def _chain_file(tmp_path) -> Path:
    """A 3-chain C with its identity functor I and identity transformation t."""
    cat = gen_poset(Poset.chain(["c0", "c1", "c2"]))
    identity = functor_identity(cat)
    doc = CatspecDocument()
    doc.categories["C"] = objless_decl("C", cat)
    doc.functors["I"] = functor_decl("I", "C", "C", identity)
    doc.nats["t"] = nat_decl("t", "I", "I", identity_nat(identity))
    path = tmp_path / "chain.cat"
    path.write_text(serialize(doc), encoding="utf-8")
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


def test_gen_poset_rejects_non_poset():
    with pytest.raises(GeneratorError):
        Poset(elements=("a", "b"), leq=frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))


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


def test_gen_random_deterministic():
    assert gen_random(0, 16) == gen_random(0, 16)
    assert gen_random(7, 16) == gen_random(7, 16)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gen_random_always_valid_and_capped(seed):
    cat = gen_random(seed, 16)
    assert 1 <= len(cat.morphisms) <= 16
    assert validate_objectless(cat.morphisms, cat.table).ok
