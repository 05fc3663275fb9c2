"""Golden command-line transcripts: `check`, `check -v` and `check -q` on
small seeded formula/proof pairs, from plain and from binary input.

Each directory under tests/golden holds a formula, its proof in both
encodings and expected.json, the exit code and stdout lines of every run.
Between them the cases cover a passed RAT step, a failed resolvent, a
deletion written in another order than its stored clause, both deletion
warnings and an empty-clause rejection. In rat-917 the formula holds a
clause twice: it is a RAT candidate before and after a deletion of one
copy, and a later lemma needs the copy that is left.

The transcripts are fixed: a change that alters one must say why. To
rewrite them from the current code, run `python tests/test_golden.py`
from the repository root with src on PYTHONPATH.
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dratcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODES = {"check": [], "check -v": ["-v"], "check -q": ["-q"]}
PROOFS = {"plain": "proof.drat", "binary": "proof.bin"}

# case name -> (conftest generator, seed); drawn once, then committed
CASES = {
    "rat-28": ("rat_replay_case", 28),
    "rat-917": ("rat_replay_case", 917),
    "replay-1": ("random_replay_case", 1),
    "replay-50": ("random_replay_case", 50),
    "replay-184": ("random_replay_case", 184),
    "replay-205": ("random_replay_case", 205),
}


def _transcript(formula: Path, proof: Path, flags) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", *flags, str(formula), str(proof)])
    return {"exit": code, "stdout": out.getvalue().splitlines()}


@pytest.mark.parametrize("encoding", sorted(PROOFS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_check_transcripts_match_the_golden_files(case, encoding):
    folder = GOLDEN / case
    expected = json.loads((folder / "expected.json").read_text())[encoding]
    for mode, flags in MODES.items():
        got = _transcript(folder / "formula.cnf", folder / PROOFS[encoding], flags)
        assert got == expected[mode], "%s %s (%s)" % (case, mode, encoding)


def test_the_golden_cases_cover_their_features():
    verbose = [
        line
        for case in CASES
        for line in json.loads((GOLDEN / case / "expected.json").read_text())["plain"]["check -v"]["stdout"]
    ]
    for text in ("RAT check with pivot", "first failing resolvent", "up to literal order",
                 "deleted clause not in formula", "ignored deletion of unit clause", "empty clause not AT"):
        assert any(text in line for line in verbose), text
    assert any("RAT check with pivot" in a and "AT passed" in b for a, b in zip(verbose, verbose[1:]))
    # a clause the formula holds twice, one copy of which the proof deletes
    deleted_duplicates = []
    for case in CASES:
        formula = [frozenset(line.split()[:-1]) for line in (GOLDEN / case / "formula.cnf").read_text().splitlines()[1:]]
        proof = (GOLDEN / case / "proof.drat").read_text().splitlines()
        deleted = [frozenset(line.split()[1:-1]) for line in proof if line.startswith("d ")]
        deleted_duplicates += [clause for clause in deleted if formula.count(clause) > 1]
    assert deleted_duplicates


def _write_case(name: str) -> None:
    """Draw a case from its seed and write its formula and both proofs."""
    import conftest
    from dratcheck.proofio import BINARY, write_records

    generator, seed = CASES[name]
    clauses, steps = getattr(conftest, generator)(random.Random(seed))
    folder = GOLDEN / name
    folder.mkdir(parents=True, exist_ok=True)
    var_max = max((abs(lit) for clause in clauses for lit in clause), default=0)
    lines = ["p cnf %d %d" % (var_max, len(clauses))]
    lines += [" ".join(map(str, clause + (0,))) for clause in clauses]
    (folder / "formula.cnf").write_text("\n".join(lines) + "\n")
    records = [(kind == "d", list(lits)) for kind, lits in steps]
    plain = "".join(("d " if delete else "") + " ".join(map(str, lits + [0])) + "\n" for delete, lits in records)
    (folder / "proof.drat").write_text(plain)
    (folder / "proof.bin").write_bytes(b"".join(write_records(records, BINARY)))


def regenerate() -> None:
    for name in CASES:
        _write_case(name)
        folder = GOLDEN / name
        expected = {
            encoding: {mode: _transcript(folder / "formula.cnf", folder / proof, flags) for mode, flags in MODES.items()}
            for encoding, proof in PROOFS.items()
        }
        (folder / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
