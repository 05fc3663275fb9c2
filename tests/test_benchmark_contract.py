"""The package names that the traced benchmark run wraps or calls.

perfbench/traced.py times each layer by wrapping CheckerState and Formula
methods for the length of a check and by calling the parse, serialize and
check functions. A name it cannot find is left out, and so are the per-layer
metrics that need it: the run still exits 0, but it reports fewer metrics
than BENCHMARK.json lists and is not accepted as a result. Removing or
renaming any name below therefore needs the benchmark change of ROADMAP
item 2, which updates perfbench/ and BENCHMARK.json together.
"""

import ast
from pathlib import Path

import pytest

from dratcheck import checker, dimacs, model, proofio

TRACED = Path(__file__).parents[1] / "perfbench" / "traced.py"

CALLED = [
    (dimacs, "parse_dimacs"),
    (proofio, "detect_encoding"),
    (proofio, "parse_plain_proof"),
    (proofio, "parse_binary_proof"),
    (proofio, "serialize_plain"),
    (proofio, "serialize_binary"),
    (checker, "check_proof"),
]


def _traced_tuple(name: str) -> tuple[str, ...]:
    """A module-level tuple of perfbench/traced.py, read without importing it."""
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


@pytest.mark.parametrize(
    "owner,name",
    [(checker.CheckerState, name) for name in _traced_tuple("CHECKER_SPANS")]
    + [(model.Formula, name) for name in _traced_tuple("MODEL_SPANS")]
    + CALLED,
    ids=lambda value: getattr(value, "__name__", value),
)
def test_every_name_the_traced_run_needs_exists(owner, name):
    assert callable(getattr(owner, name, None)), "%s.%s" % (owner.__name__, name)
