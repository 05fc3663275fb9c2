"""Tests of the benchmark's generators, encoders and answer checks.

Run with `python -m pytest perfbench`. The expected verdicts come from the
naive AT/RAT in tests/slowpath.py, replayed step by step, never from
dratcheck itself.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

import workloads  # noqa: E402
from cliops import Runner, _problem  # noqa: E402
from slowpath import check_at_naive, check_rat_naive  # noqa: E402
from workloads import ADD, DELETE  # noqa: E402

ROOT = os.path.dirname(HERE)


def replay(clauses, steps):
    """Check every step with the naive reference; returns the index of the
    accepted empty clause. Deletions remove one copy matched as a literal
    set; unit deletions are ignored, as README specifies."""
    database = [tuple(c) for c in clauses]
    for index, (kind, lits) in enumerate(steps, start=1):
        if kind == DELETE:
            if len(lits) != 1:
                match = next(c for c in database if set(c) == set(lits))
                database.remove(match)
            continue
        if not lits:
            assert check_at_naive(database, ()), "empty clause at step %d is not AT" % index
            return index
        assert check_rat_naive(database, lits), "step %d %r is not RAT" % (index, lits)
        database.append(tuple(lits))
    raise AssertionError("the proof adds no empty clause")


def small_instances():
    for seed in range(3):
        yield workloads.dpll_workload("dpll-del", seed, 20, (1, 10_000), deletions=True)
        yield workloads.dpll_workload("dpll-grow", seed, 20, (1, 10_000), deletions=False)
        yield workloads.php_workload(seed, holes=4)
        yield workloads.wide_workload(seed, padding=200, core_vars=15, band=(1, 10_000))


@pytest.mark.parametrize("workload", list(small_instances()), ids=lambda w: w.name)
def test_generated_proofs_verify_step_by_step_with_the_naive_reference(workload):
    assert replay(workload.clauses, workload.steps) == len(workload.steps)


@pytest.mark.parametrize("workload", list(small_instances()), ids=lambda w: w.name)
def test_probes_have_known_answers(workload):
    # no unit clause, so propagation alone finds no conflict and a proof
    # starting with the empty clause is rejected at step 1
    assert all(len(c) > 1 for c in workload.clauses)
    assert not check_at_naive(workload.clauses, ())
    assert all(0 < abs(l) <= workload.num_vars for c in workload.clauses for l in c)


def test_dpll_del_deletes_each_child_lemma_once_its_parent_is_derived():
    workload = workloads.dpll_workload("dpll-del", 0, 20, (1, 10_000), deletions=True)
    added = set()
    for kind, lits in workload.steps:
        if kind == ADD:
            added.add(lits)
        else:
            assert lits in added and lits[:-1] in added
    assert workload.deletes > 0


def test_php_exercises_the_rat_stage():
    workload = workloads.php_workload(0, holes=4)
    database = list(workload.clauses)
    rat_only = 0
    for _, lits in workload.steps[:-1]:
        rat_only += not check_at_naive(database, lits)
        database.append(lits)
    assert rat_only > len(workload.steps) // 2


def test_same_seed_same_bytes(tmp_path):
    def digests(seed, run):
        workload = workloads.wide_workload(seed, padding=200, core_vars=15, band=(1, 10_000))
        files = workloads.write_files(workload, str(tmp_path / run))
        return {role: info["sha256"] for role, info in files.items()}

    assert digests(1, "a") == digests(1, "b")
    assert digests(1, "a")["formula"] != digests(2, "c")["formula"]


def test_encoders_reproduce_the_published_conversion_example():
    # README's two-step example: 26 bytes of plain text, 12 bytes binary
    steps = [(DELETE, (-63, -8193)), (ADD, (129, -8191))]
    assert workloads.encode_plain(steps) == b"d -63 -8193 0\n129 -8191 0\n"
    assert workloads.encode_binary(steps) == bytes.fromhex("647f838001006182 02ff7f00".replace(" ", ""))
    assert workloads.encode_plain([(ADD, ())]) == b"0\n"
    assert workloads.encode_dimacs(2, [(1, -2), (2, 1)]) == b"p cnf 2 2\n1 -2 0\n2 1 0\n"


@pytest.mark.parametrize(
    "kind, status, stdout, stderr, fails",
    [
        ("check", 0, "s VERIFIED\n", b"", False),
        ("check", 1, "s NOT VERIFIED\n", b"", True),
        # a crash also exits 1, so stderr must be empty for any answer to count
        ("setup", 1, "c proof contains no addition of the empty clause\ns NOT VERIFIED\n",
         b"Traceback (most recent call last):\nAttributeError: x\n", True),
        ("setup", 1, "c proof contains no addition of the empty clause\ns NOT VERIFIED\n", b"", False),
        ("setup", 1, "s NOT VERIFIED\n", b"", True),
        ("reject", 1, "c step 1: empty clause not AT: (empty)\ns NOT VERIFIED\n", b"", False),
        ("reject", 1, "c step 2: RAT check failed: (1)\ns NOT VERIFIED\n", b"", True),
        ("convert_to_binary", 0, "c read 3 bytes (plain), wrote 2 bytes (binary)\n", b"", False),
        ("convert_to_binary", 2, "c error: x\n", b"", True),
    ],
)
def test_answer_checks(kind, status, stdout, stderr, fails):
    assert (_problem(kind, status, stdout, stderr) is not None) == fails


def test_cli_operations_through_the_launcher(tmp_path):
    workload = workloads.php_workload(0, holes=4)
    files = workloads.write_files(workload, str(tmp_path))
    reference = {}
    for role in ("plain", "binary"):
        with open(files[role]["path"], "rb") as handle:
            reference[role] = handle.read()
    instance = {"dir": str(tmp_path), "files": files, "reference": reference}
    with Runner(ROOT, [instance]) as runner:
        results = [runner.run(kind, 0) for kind in
                   ("check", "check_binary", "convert_to_binary", "convert_to_plain", "setup", "reject")]
    for result in results:
        assert result.ok, (result.kind, result.problem)
        assert result.wall_s > 0 and result.calibration_s > 0 and result.rss_mb > 0
