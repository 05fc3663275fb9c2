"""Each public name's module, the package root that binds none, the exception
classes each module defines, the command line's use of public names only,
and the README's library example."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import dratcheck

from conftest import PAPER_FORMULA, PAPER_PROOF

# every public name is imported from the module that defines it
HOMES = {
    "checker": ["CheckerState", "check_proof"],
    "dimacs": ["DimacsError", "parse_dimacs"],
    "model": [
        "MAX_LITERAL",
        "NO_EMPTY_CLAUSE",
        "REJECTED",
        "VERIFIED",
        "WARN_DELETED_MISSING",
        "WARN_UNIT_DELETION",
        "CheckReport",
        "ClauseError",
        "DeletionWarning",
        "Formula",
    ],
    "proofio": [
        "BINARY",
        "PLAIN",
        "ProofError",
        "decode_varint",
        "detect_encoding",
        "encode_varint",
        "map_literal",
        "parse_binary_proof",
        "parse_plain_proof",
        "serialize_binary",
        "serialize_plain",
        "unmap_literal",
    ],
}

# one error class per input: a DIMACS formula, a proof, a hand-built clause
ERROR_CLASSES = {
    "dimacs": ["DimacsError"],
    "model": ["ClauseError", "LocatedError"],
    "proofio": ["ProofError"],
}


def test_the_package_root_binds_no_public_name():
    # importing a submodule binds it on the package, and nothing else may be bound there
    bound = [
        name for name, value in vars(dratcheck).items()
        if not name.startswith("_") and getattr(value, "__name__", None) != "dratcheck." + name
    ]
    assert bound == []


def test_each_public_name_imports_from_its_module():
    for module_name, names in HOMES.items():
        module = importlib.import_module("dratcheck." + module_name)
        for name in names:
            assert hasattr(module, name), "%s.%s" % (module_name, name)
            # a class or function is defined there, not imported from elsewhere
            assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__, name


def test_each_module_defines_only_its_listed_exception_classes():
    for info in pkgutil.iter_modules(dratcheck.__path__):
        module = importlib.import_module("dratcheck." + info.name)
        defined = sorted(
            name for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
        )
        assert defined == ERROR_CLASSES.get(info.name, []), info.name


def test_the_command_line_reads_no_private_attribute_of_another_object():
    # cli.py is a client of the other modules: it reaches the checker's store through public names
    source = Path(dratcheck.__file__).with_name("cli.py").read_text()
    private = sorted(
        {node.attr for node in ast.walk(ast.parse(source))
         if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__")
         and not (isinstance(node.value, ast.Name) and node.value.id == "self")}
    )
    assert private == []


def test_readme_library_example_runs_on_the_worked_example(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)[1]
    (tmp_path / "formula.cnf").write_text(PAPER_FORMULA)
    (tmp_path / "proof.drat").write_text(PAPER_PROOF)
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    assert capsys.readouterr().out == "verified []\n"
