"""The names the package root exports, the exception classes each module
defines, and the README's library example."""

import importlib
import pkgutil
import re
from pathlib import Path

import dratcheck
from dratcheck import model, proofio

from conftest import PAPER_FORMULA, PAPER_PROOF

ROOT_NAMES = [
    "CheckReport",
    "CheckerState",
    "DeletionWarning",
    "DimacsError",
    "MAX_LITERAL",
    "NO_EMPTY_CLAUSE",
    "ProofError",
    "REJECTED",
    "VERIFIED",
    "WARN_DELETED_MISSING",
    "WARN_UNIT_DELETION",
    "check_proof",
    "decode_varint",
    "encode_varint",
    "map_literal",
    "parse_binary_proof",
    "parse_dimacs",
    "parse_plain_proof",
    "serialize_binary",
    "serialize_plain",
    "unmap_literal",
]

# exported from a submodule only
MODEL_NAMES = ["ClauseError", "Formula"]
PROOFIO_NAMES = ["BINARY", "PLAIN", "detect_encoding"]

# one error class per input: a DIMACS formula, a proof, a hand-built clause
ERROR_CLASSES = {
    "dimacs": ["DimacsError"],
    "model": ["ClauseError", "LocatedError"],
    "oracle": ["TooManyVariablesError"],
    "proofio": ["ProofError"],
}


def test_the_package_root_exports_exactly_its_names():
    assert sorted(dratcheck.__all__) == ROOT_NAMES
    assert all(hasattr(dratcheck, name) for name in ROOT_NAMES)


def test_names_left_out_of_the_root_import_from_their_modules():
    for module, names in ((model, MODEL_NAMES), (proofio, PROOFIO_NAMES)):
        for name in names:
            assert name not in dratcheck.__all__
            assert hasattr(module, name), "%s.%s" % (module.__name__, name)


def test_each_module_defines_only_its_listed_exception_classes():
    for info in pkgutil.iter_modules(dratcheck.__path__):
        module = importlib.import_module("dratcheck." + info.name)
        defined = sorted(
            name for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
        )
        assert defined == ERROR_CLASSES.get(info.name, []), info.name


def test_readme_library_example_runs_on_the_worked_example(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)[1]
    (tmp_path / "formula.cnf").write_text(PAPER_FORMULA)
    (tmp_path / "proof.drat").write_text(PAPER_PROOF)
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    assert capsys.readouterr().out == "verified []\n"
