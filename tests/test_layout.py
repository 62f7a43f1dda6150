"""The package's layers: what a command loads, and the lazy top-level names.

A command imports only the layers it runs, so the CLI commands that only
read and validate must not load the searches.  Each case runs in a fresh
interpreter, since this one has loaded every module long ago.
"""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrowcat
from arrowcat import equivalence, functors
from arrowcat.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(arrowcat.__file__).resolve().parents[1]
TWOCHAIN = str(FIXTURES / "twochain.cat")
GALOIS = str(FIXTURES / "galois.cat")

# The decision layer, and the fixtures built on it.
DECISIONS = ("_search", "equivalence", "limits", "adjunction", "generators", "fixtures")

# Every public name, under its home module.
HOMES = {
    "adjunction": ["AdjunctionCandidate", "AdjunctionReport", "AdmissibilityReport", "check_adjunction",
                   "galois_oracle", "galois_violations", "is_admissible", "poset_adjunction", "poset_functor"],
    "catspec": ["CatspecDocument", "CatspecError", "Diagnostic", "Span", "parse", "serialize"],
    "core": ["CompositionProfile", "ObjlessCategory", "infer_identities", "validate_objectless"],
    "equivalence": ["EquivalenceWitness", "SkeletonResult", "are_equivalent", "brute_force_equivalence",
                    "find_category_isomorphism", "is_isomorphism", "is_natural_isomorphism", "is_skeletal",
                    "iso_classes", "skeleton"],
    "errors": ["ArrowCatError", "CapacityError", "GeneratorError", "InapplicableScopeError",
               "InvalidCategoryError", "MalformedNameError", "NameNotFoundError", "NotAnIdentityError",
               "NotMonotoneError", "WiringError"],
    "functors": ["FunctorMap", "NatTransf", "functor_cod", "functor_compose", "functor_dom", "functor_identity",
                 "identity_nat", "validate_functor", "validate_nat"],
    "generators": ["Poset", "disjoint_union", "gen_cyclic", "gen_discrete", "gen_finset", "gen_monoid",
                   "gen_poset", "gen_random", "gen_walking_iso"],
    "limits": ["LimitCone", "LimitsReport", "binary_product", "equalizer", "generalized_elements",
               "preserves_finite_limits", "terminal_objects"],
    "report": ["ValidationReport", "Violation"],
    "standard": ["StdCategory", "equal_up_to_renaming", "to_objectless", "to_standard", "validate_standard"],
}


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports arrowcat from this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ["identities", TWOCHAIN, "--cat", "TwoChain"],
    ["homs", TWOCHAIN, "--cat", "TwoChain"],
    ["check", GALOIS],
    ["convert", GALOIS, "--to", "objectless"],
], ids=["identities", "homs", "check", "convert"])
def test_a_reading_command_loads_no_decision_module(argv, capsys):
    want_code = main(list(argv))
    want = capsys.readouterr()
    proc = _fresh(
        "import sys\n"
        "from arrowcat.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('arrowcat.'))\n"
        "print('\\0' + ' '.join(loaded) + '\\0' + str(code), end='')\n"
    )
    out, loaded, code = proc.stdout.split("\0")
    assert (int(code), out, proc.stderr) == (want_code, want.out, want.err)
    assert want_code == 0 and want.out
    assert "arrowcat.cli" in loaded.split()
    assert not {f"arrowcat.{name}" for name in DECISIONS} & set(loaded.split())


def test_all_pins_every_public_name():
    assert len(arrowcat.__all__) == 71
    assert sorted(arrowcat.__all__) == sorted(name for names in HOMES.values() for name in names)
    assert set(arrowcat.__all__) <= set(dir(arrowcat))


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_public_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"arrowcat.{module}")
    for name in HOMES[module]:
        assert getattr(arrowcat, name) is getattr(home, name), name


def test_moved_names_keep_their_old_homes():
    from arrowcat import _search, core

    for name in ("NatTransf", "validate_nat", "identity_nat"):
        assert getattr(equivalence, name) is getattr(functors, name)
    for name in ("check_cap", "DEFAULT_ISO_CAP"):
        assert getattr(_search, name) is getattr(core, name)


def _imported_modules(path: Path) -> set[str]:
    """Every module and name an import in ``path`` reads, relative ones resolved inside arrowcat."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["arrowcat", node.module])) if node.level else node.module
            names.update([base, *(f"{base}.{alias.name}" for alias in node.names)])
    return names


def test_fixtures_keeps_only_the_two_categories_the_benchmark_imports():
    fixtures = importlib.import_module("arrowcat.fixtures")
    assert fixtures.__all__ == ["one", "walking_iso"]
    assert {name for name in vars(fixtures) if not name.startswith("_")} == {"one", "walking_iso"}
    assert fixtures.walking_iso is importlib.import_module("arrowcat.generators").gen_walking_iso
    assert dict(fixtures.one().table) == {("star", "star"): "star"}
    paths = [*(SRC / "arrowcat").rglob("*.py"), *Path(__file__).parent.rglob("*.py")]
    assert len(paths) > 20
    assert [path for path in paths if "arrowcat.fixtures" in _imported_modules(path)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        arrowcat.nope
    assert not hasattr(arrowcat, "nope")


def test_import_loads_nothing_until_a_name_or_submodule_is_asked_for():
    proc = _fresh(
        "import sys\n"
        "import arrowcat\n"
        "print(sorted(m for m in sys.modules if m.startswith('arrowcat.')))\n"
        "print(arrowcat.limits.__name__, arrowcat._search.__name__)\n"
        "namespace = {}\n"
        "exec('from arrowcat import *', namespace)\n"
        "print(sorted(set(namespace) - {'__builtins__'}) == sorted(arrowcat.__all__))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "arrowcat.limits arrowcat._search", "True",
    ]
