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

from conftest import PAPER_FORMULA, PAPER_PROOF

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


# the worked example, written as the serializers write it
PAPER_PLAIN = b"-1 0\nd -1 2 4 0\n2 0\n0\n"
PAPER_BINARY = bytes.fromhex("610300 6403040800 610400 6100".replace(" ", ""))


def test_one_parse_result_serves_repeated_checks_and_then_both_serializers():
    # traced.py checks one parse result seven times and serializes it too:
    # a parse that returned a one-shot iterator would check an empty proof
    formula = dimacs.parse_dimacs(PAPER_FORMULA)
    from_plain = proofio.parse_plain_proof(PAPER_PROOF)
    from_binary = proofio.parse_binary_proof(PAPER_BINARY)
    for proof in (from_plain, from_binary):
        assert iter(proof) is not proof and list(proof) == list(proof) != []
        reports = [checker.check_proof(formula, proof) for _ in range(2)]
        assert reports[0] == reports[1] and reports[0].verified and reports[0].step == 4
    assert proofio.serialize_binary(from_plain) == PAPER_BINARY
    assert proofio.serialize_plain(from_binary) == PAPER_PLAIN
