"""CLI contract tests: exit codes, reports, and self-auditing witness output."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from arrowcat import catspec
from arrowcat.cli import main
from arrowcat.generators import Poset, gen_cyclic, gen_discrete, gen_finset, gen_poset, gen_random, gen_walking_iso

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_file(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "twochain.cat"))
    assert code == 0
    assert "ok: category TwoChain" in out


def test_check_invalid_category(capsys, tmp_path):
    bad = tmp_path / "bad.cat"
    bad.write_text("objless A {\n  arrows: e, s;\n  compose: e . e = e;\n  compose: s . s = e;\n}\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "INVALID" in out


def test_check_json_record(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "galois.cat"), "--json")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "check" and record["ok"] is True
    kinds = {(e["kind"], e["name"]) for e in record["entities"]}
    assert ("category", "P") in kinds and ("nat", "eps") in kinds


def test_check_json_counts_truncated_violations(capsys, tmp_path):
    many = tmp_path / "many.cat"
    many.write_text("objless A {\n  arrows: %s;\n}\n" % ", ".join(f"m{i}" for i in range(300)))
    code, out, _ = run(capsys, "check", str(many), "--json")
    assert code == 1
    (entity,) = json.loads(out)["entities"]
    assert entity["total"] == 600 and len(entity["violations"]) == 100


def test_unreadable_file_exit_2(capsys, monkeypatch):
    def denied(path, *args, **kwargs):
        raise PermissionError(f"permission denied: {path}")

    monkeypatch.setattr("arrowcat.cli.open", denied, raising=False)
    code, _, err = run(capsys, "check", str(FIXTURES / "twochain.cat"))
    assert code == 2
    assert "permission denied" in err


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "syntax.cat"
    bad.write_text("objless A {\n  arrows x;\n}\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "expected" in err


def test_unknown_entity_exit_2(capsys):
    code, _, err = run(capsys, "identities", str(FIXTURES / "twochain.cat"), "--cat", "Nope")
    assert code == 2
    assert "Nope" in err


def test_identities_and_homs(capsys):
    code, out, _ = run(capsys, "identities", str(FIXTURES / "twochain.cat"), "--cat", "TwoChain")
    assert code == 0 and out.split() == ["i0", "i1"]
    code, out, _ = run(capsys, "homs", str(FIXTURES / "twochain.cat"),
                       "--cat", "TwoChain", "--src", "i0", "--dst", "i1")
    assert code == 0 and "i0 -> i1: a" in out


def test_skeleton_emits_checkable_witness(capsys, tmp_path):
    code, out, _ = run(capsys, "skeleton", str(FIXTURES / "finsetdup.cat"),
                       "--cat", "FinSetDup", "--seed", "1")
    assert code == 0
    assert "3 identities, 11 morphisms" in out
    witness = tmp_path / "witness.cat"
    witness.write_text(out)
    code, _, _ = run(capsys, "check", str(witness))
    assert code == 0


def test_skeleton_json_counts(capsys):
    code, out, _ = run(capsys, "skeleton", str(FIXTURES / "finsetdup.cat"),
                       "--cat", "FinSetDup", "--seed", "3", "--json")
    record = json.loads(out)
    assert code == 0
    assert record["identities"] == 3 and record["morphisms"] == 11
    assert record["skeletal_input"] is False


def test_equiv_walking_iso_and_one(capsys, tmp_path):
    code, out, _ = run(capsys, "equiv", str(FIXTURES / "walking_iso_and_one.cat"),
                       "--left", "WalkingIso", "--right", "One")
    assert code == 0
    witness = tmp_path / "equiv_witness.cat"
    witness.write_text(out)
    code, _, _ = run(capsys, "check", str(witness))
    assert code == 0


def test_equiv_brute_force_flag(capsys):
    code, out, _ = run(capsys, "equiv", str(FIXTURES / "walking_iso_and_one.cat"),
                       "--left", "WalkingIso", "--right", "One", "--brute-force", "--json")
    record = json.loads(out)
    assert code == 0 and record["method"] == "brute-force"


def test_max_morphisms_caps_both_equiv_routes(capsys):
    path = str(FIXTURES / "walking_iso_and_one.cat")
    for extra in ((), ("--brute-force",)):
        code, out, err = run(capsys, "equiv", path, "--left", "WalkingIso", "--right", "One",
                             "--max-morphisms", "2", *extra)
        assert (code, out, err) == (2, "", "4 morphisms exceeds cap of 2\n")
    code, _, _ = run(capsys, "equiv", path, "--left", "WalkingIso", "--right", "One",
                     "--max-morphisms", "4", "--brute-force")
    assert code == 0


def test_equiv_failure_exit_1(capsys, tmp_path):
    doc = tmp_path / "pair.cat"
    doc.write_text(
        "objless A {\n  arrows: x;\n  compose: x . x = x;\n}\n"
        "objless B {\n  arrows: x, y;\n  compose: x . x = x;\n  compose: y . y = y;\n}\n"
    )
    code, out, _ = run(capsys, "equiv", str(doc), "--left", "A", "--right", "B")
    assert code == 1
    assert "not equivalent" in out


def test_iso_exit_codes(capsys):
    code, _, _ = run(capsys, "iso", str(FIXTURES / "walking_iso_and_one.cat"),
                     "--left", "WalkingIso", "--right", "WalkingIso")
    assert code == 0
    code, _, _ = run(capsys, "iso", str(FIXTURES / "walking_iso_and_one.cat"),
                     "--left", "WalkingIso", "--right", "One")
    assert code == 1


def test_functor_and_nat_check(capsys):
    code, _, _ = run(capsys, "functor-check", str(FIXTURES / "galois.cat"), "--functor", "F")
    assert code == 0
    code, _, _ = run(capsys, "nat-check", str(FIXTURES / "galois.cat"), "--nat", "eta")
    assert code == 0
    code, out, _ = run(capsys, "nat-check", str(FIXTURES / "galois_perturbed.cat"), "--nat", "eps2")
    assert code == 1
    assert "totality" in out


def test_adjoint_check_modes(capsys):
    base = [str(FIXTURES / "galois.cat"), "--left", "F", "--right", "G",
            "--unit", "eta", "--counit", "eps"]
    code, out, _ = run(capsys, "adjoint-check", *base)
    assert code == 0 and "standard: pass" in out
    code, out, _ = run(capsys, "adjoint-check", *base, "--mode", "paper-literal")
    assert code == 0 and "paper-literal: pass" in out


def test_adjoint_check_perturbed_cites_q1(capsys):
    code, out, _ = run(capsys, "adjoint-check", str(FIXTURES / "galois_perturbed.cat"),
                       "--left", "F", "--right", "G2", "--unit", "eta2",
                       "--counit", "eps2", "--json")
    assert code == 1
    record = json.loads(out)
    assert record["ok"] is False
    assert any("q1" in f["witnesses"] for f in record["failures"])


def test_limits_category_listing(capsys):
    code, out, _ = run(capsys, "limits", str(FIXTURES / "twochain.cat"), "--cat", "TwoChain")
    assert code == 0
    assert "terminal objects: i1" in out


def test_limits_missing_equalizers_in_hom_order(capsys, tmp_path):
    # Two copies of Z2; the involution a lives at identity y and b at x, so name
    # order (a before b) and hom order ((x, x) before (y, y)) disagree.
    path = tmp_path / "two_groups.cat"
    path.write_text(
        "objless Two {\n  arrows: a, b, x, y;\n"
        "  compose: y . y = y; compose: a . y = a; compose: y . a = a; compose: a . a = y;\n"
        "  compose: x . x = x; compose: b . x = b; compose: x . b = b; compose: b . b = x;\n}\n"
    )
    code, out, _ = run(capsys, "limits", str(path), "--cat", "Two", "--json")
    assert code == 0
    assert json.loads(out)["equalizers"] == {"found": 4, "missing": [["b", "x"], ["a", "y"]]}


def test_limits_preservation_check(capsys):
    code, _, _ = run(capsys, "limits", str(FIXTURES / "galois.cat"), "--functor", "IdP")
    assert code == 0
    code, _, err = run(capsys, "limits", str(FIXTURES / "galois.cat"))
    assert code == 2


def test_admissible_command(capsys):
    code, out, _ = run(capsys, "admissible", str(FIXTURES / "galois.cat"),
                       "--left", "F", "--right", "G", "--unit", "eta", "--counit", "eps")
    assert code == 0


def _galois_without(tmp_path, line: str) -> str:
    text = (FIXTURES / "galois.cat").read_text(encoding="utf-8")
    assert line in text
    path = tmp_path / "partial.cat"
    path.write_text(text.replace(line, ""), encoding="utf-8")
    return str(path)


def test_partial_functor_is_a_wiring_error(capsys, tmp_path):
    # G leaves q0_le_q2 unmapped, and F maps p0_le_p1 onto it, so composing
    # G.F would index a missing entry: each command must stop before that.
    path = _galois_without(tmp_path, "map q0_le_q2 -> p0_le_p1;")
    adjoint = ["--left", "F", "--right", "G", "--unit", "eta", "--counit", "eps"]
    expected = "G is not a functor: morphism q0_le_q2 of the source is not mapped\n"
    for argv in (["limits", path, "--functor", "G"],
                 ["adjoint-check", path, *adjoint],
                 ["admissible", path, *adjoint]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", expected), argv


def test_partial_functor_of_a_nat_is_a_wiring_error(capsys, tmp_path):
    # FG and IdQ both lose q0; eps: FG => IdQ names its source functor first.
    path = _galois_without(tmp_path, "map q0 -> q0;")
    reason = "FG is not a functor: morphism q0 of the source is not mapped"
    assert run(capsys, "nat-check", path, "--nat", "eps") == (2, "", reason + "\n")
    code, out, err = run(capsys, "check", path, "--json")
    entities = {e["name"]: e for e in json.loads(out)["entities"]}
    assert (code, err) == (1, "")
    assert entities["eps"] == {"kind": "nat", "name": "eps", "ok": False, "violations": [], "skipped": reason}
    assert entities["eta"]["ok"] and not entities["IdQ"]["ok"]


def test_partial_left_adjoint_is_a_wiring_error(capsys, tmp_path):
    path = _galois_without(tmp_path, "map p0_le_p1 -> q0_le_q2;")
    expected = "F is not a functor: morphism p0_le_p1 of the source is not mapped\n"
    for argv in (["limits", path, "--functor", "F"],
                 ["adjoint-check", path, "--left", "F", "--right", "G", "--unit", "eta", "--counit", "eps"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", expected), argv


def test_convert_round_trip(capsys, tmp_path):
    from arrowcat.catspec import parse
    from arrowcat.standard import equal_up_to_renaming

    code, out, _ = run(capsys, "convert", str(FIXTURES / "twochain.cat"), "--to", "objectless")
    assert code == 0
    first = tmp_path / "objless.cat"
    first.write_text(out)
    code, out, _ = run(capsys, "convert", str(first), "--to", "standard")
    assert code == 0
    second = tmp_path / "std.cat"
    second.write_text(out)
    code, _, _ = run(capsys, "check", str(second))
    assert code == 0
    # The round trip reproduces each input category up to canonical renaming.
    original = parse((FIXTURES / "twochain.cat").read_text())
    converted = parse(second.read_text())
    std_before = original.standard("TwoChainStd")
    std_after = converted.standard("TwoChainStd")
    found = equal_up_to_renaming(std_before, std_after)
    assert found is not None
    object_map, arrow_map = found
    assert object_map == {obj: std_before.id_of[obj] for obj in std_before.objects}
    assert arrow_map == {name: name for name in std_before.arrows}


def test_generate_finset_matches_fixture(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "finset", "--max-size", "2", "--dup", "1",
                       "--name", "FinSetDup")
    assert code == 0
    generated = tmp_path / "gen.cat"
    generated.write_text(out)
    code, out2, _ = run(capsys, "skeleton", str(generated), "--cat", "FinSetDup", "--json")
    record = json.loads(out2)
    assert record["identities"] == 3 and record["morphisms"] == 11


def test_generate_other_kinds(capsys):
    for argv in (["generate", "walking-iso"],
                 ["generate", "discrete", "--n", "3"],
                 ["generate", "chain", "--n", "3", "--prefix", "q"],
                 ["generate", "cyclic", "--n", "4"],
                 ["generate", "random", "--seed", "5", "--max-morphisms", "12"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip()


def test_generate_prints_the_generators_category_under_its_default_name(capsys):
    chain = gen_poset(Poset.chain(["c0", "c1", "c2"]))
    cases = [
        (["finset"], "FinSet", catspec.standard_decl, gen_finset(2)),
        (["discrete", "--n", "3"], "Discrete3", catspec.objless_decl, gen_discrete(3)),
        (["walking-iso"], "WalkingIso", catspec.objless_decl, gen_walking_iso()),
        (["chain", "--n", "3"], "Chain3", catspec.objless_decl, chain),
        (["cyclic", "--n", "4"], "Cyclic4", catspec.objless_decl, gen_cyclic(4)),
        (["random", "--seed", "5"], "Random5", catspec.objless_decl, gen_random(5, 16)),
    ]
    for argv, name, decl, cat in cases:
        want = catspec.serialize(catspec.CatspecDocument(categories={name: decl(name, cat)}))
        assert run(capsys, "generate", *argv) == (0, want, ""), argv


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "check", "/nonexistent/file.cat")[0] == 2
    assert run(capsys, "generate", "finset", "--max-size", "5") == (2, "", "5705 morphisms exceeds cap of 4096\n")
    assert run(capsys, "convert", str(FIXTURES / "twochain.cat"), "--to", "objectless", "--cat", "Nope") == \
        (2, "", "no category named 'Nope'\n")


PERTURBED = "objless F {\n  arrows: e, s;\n  compose: e . e = e;\n  compose: s . s = e;\n}\n"


@pytest.mark.parametrize("argv, code, stderr", [
    (["check", str(FIXTURES / "malformed" / "unexpected_char.cat")], 2,
     ["2:13: lex: unexpected character '@'"]),
    (["identities", "{perturbed}", "--cat", "F"], 1, ["invalid category:", "  violation["]),
    (["identities", str(FIXTURES / "twochain.cat"), "--cat", "Nope"], 2, ["no category named 'Nope'"]),
    (["check", "/nonexistent/file.cat"], 2, ["No such file or directory"]),
], ids=["catspec-error", "invalid-category", "unknown-name", "os-error"])
def test_json_failure_prints_one_record(capsys, tmp_path, argv, code, stderr):
    perturbed = tmp_path / "perturbed.cat"
    perturbed.write_text(PERTURBED)
    argv = [arg.format(perturbed=perturbed) for arg in argv]
    text = run(capsys, *argv)
    assert text[0] == code and text[1] == ""
    lines = text[2].splitlines()
    assert len(lines) >= len(stderr) and all(piece in line for piece, line in zip(stderr, lines))
    got, out, err = run(capsys, *argv, "--json")
    assert (got, err) == (code, text[2])
    record = json.loads(out)
    assert record == {"command": argv[0], "ok": False, "exit": code, "diagnostics": err.splitlines()}


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
def test_lone_cr_and_crlf_read_as_newlines(capsys, tmp_path, newline):
    valid = tmp_path / "valid.cat"
    valid.write_bytes(PERTURBED.replace("s . s = e", "s . s = s").replace("\n", newline).encode())
    assert run(capsys, "check", str(valid)) == (0, "ok: category F\n", "")
    bad = tmp_path / "bad.cat"
    bad.write_bytes(PERTURBED.replace("  compose: s . s = e", "  bad$").replace("\n", newline).encode())
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out, err.splitlines()[0]) == (2, "", "4:6: lex: unexpected character '$'")
