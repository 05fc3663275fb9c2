import gc
import hashlib
import io
import json
import random
import re
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dratcheck import checker, model
from dratcheck.cli import main
from dratcheck.proofio import parse_plain_proof, serialize_binary

from conftest import (
    CONVERSION_BINARY,
    CONVERSION_PLAIN,
    PAPER_CLAUSES,
    PAPER_FORMULA,
    PAPER_PROOF,
    canonical,
    clause_counts,
    refutation_steps,
    write_dimacs,
)


@pytest.fixture
def paper_files(tmp_path):
    formula = tmp_path / "formula.cnf"
    proof = tmp_path / "proof.drat"
    formula.write_text(PAPER_FORMULA)
    proof.write_text(PAPER_PROOF)
    return formula, proof


def test_check_verified(paper_files, capsys):
    formula, proof = paper_files
    assert main(["check", str(formula), str(proof)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "s VERIFIED"


def test_check_quiet_prints_only_the_verdict(paper_files, capsys):
    formula, proof = paper_files
    assert main(["check", "-q", str(formula), str(proof)]) == 0
    assert capsys.readouterr().out == "s VERIFIED\n"


def test_check_verbose_traces_the_rat_resolvents(paper_files, capsys):
    formula, proof = paper_files
    assert main(["check", "-v", str(formula), str(proof)]) == 0
    out = capsys.readouterr().out
    resolvents = [line for line in out.splitlines() if "resolvent" in line]
    assert len(resolvents) == 3
    assert all(line.startswith("c ") for line in out.splitlines()[:-1])


def test_check_verbose_streams_the_records_to_the_checker(paper_files, monkeypatch, capsys):
    # the step count comes from a first pass of the reader, so no list is held
    streamed = []
    check_records = checker.check_records

    def capture(state, records, *args, **kwargs):
        streamed.append(iter(records) is records)
        return check_records(state, records, *args, **kwargs)

    monkeypatch.setattr(checker, "check_records", capture)
    formula, proof = paper_files
    assert main(["check", "-v", str(formula), str(proof)]) == 0
    assert streamed == [True]
    assert capsys.readouterr().out.startswith("c parsed plain proof with 4 steps\n")


def test_check_empty_proof_not_verified(paper_files, tmp_path, capsys):
    formula, _ = paper_files
    empty = tmp_path / "empty.drat"
    empty.write_text("")
    assert main(["check", str(formula), str(empty)]) == 1
    out = capsys.readouterr().out
    assert "s NOT VERIFIED" in out
    assert any(line.startswith("c ") for line in out.splitlines())


def test_check_rejection_names_the_step(paper_files, tmp_path, capsys):
    formula, _ = paper_files
    bad = tmp_path / "bad.drat"
    bad.write_text("-1 0\nd -1 2 4 0\n1 0\n0\n")
    assert main(["check", str(formula), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "c step 3: RAT check failed" in out
    assert out.strip().splitlines()[-1] == "s NOT VERIFIED"


def test_check_warnings_are_comment_lines(paper_files, tmp_path, capsys):
    formula, _ = paper_files
    noisy = tmp_path / "noisy.drat"
    noisy.write_text("d 1 2 3 4 0\nd 2 0\n-1 0\nd -1 2 4 0\n2 0\n0\n")
    assert main(["check", str(formula), str(noisy)]) == 0
    out = capsys.readouterr().out
    assert "c warning: step 1: deleted clause not in formula" in out
    assert "c warning: step 2: ignored deletion of unit clause" in out
    assert out.strip().splitlines()[-1] == "s VERIFIED"


def test_check_q_holds_no_deletion_warning(paper_files, tmp_path, capsys):
    # 20000 deletions of a clause not in the formula, each a warning that -q does not print
    formula, _ = paper_files
    noisy = tmp_path / "noisy.drat"
    noisy.write_text("d 5 6 0\n" * 20000 + PAPER_PROOF)
    tracemalloc.start()
    try:
        assert main(["check", "-q", str(formula), str(noisy)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "s VERIFIED\n"
    # the 20000 warnings, held, would take about 3 MiB
    assert peak < 2**20, peak
    assert main(["check", str(formula), str(noisy)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 20001 and out[-2] == "c warning: step 20000: deleted clause not in formula (5 6)"


def test_check_rejects_after_deleting_the_reason_of_a_root_unit(tmp_path, capsys):
    # only clauses of length 1 as written are protected from deletion
    formula = tmp_path / "chain.cnf"
    formula.write_text("p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n-3 -1 0\n")
    proof = tmp_path / "proof.drat"
    proof.write_text("d -1 2 0\n2 0\n")
    assert main(["check", str(formula), str(proof)]) == 1
    assert capsys.readouterr().out == (
        "c step 2: RAT check failed: (2)\nc   pivot 2, first failing resolvent (2 3)\ns NOT VERIFIED\n"
    )


# A parse error anywhere in the proof wins over the verdict and over any
# warning: the proof is read to its end even after the deciding step.
PARSE_ERROR_AFTER_A_VERDICT = [
    # rejected at step 1 (the worked example has no units), malformed literal at step 3
    (b"0\n-1 0\n1 x 0\n", "line 3, byte 9: malformed literal 'x'"),
    # an accepted empty clause at step 4, then a record with the reserved code 1
    (serialize_binary(parse_plain_proof(PAPER_PROOF)) + b"a\x01\x00", "byte 14: literal code 1 is reserved"),
    # two deletion warnings, then a duplicate literal
    (b"d 1 2 3 4 0\nd 2 0\n-1 0\n2 2 0\n", "line 4, byte 23: duplicate literal 2"),
]


@pytest.mark.parametrize("mode", [[], ["-q"], ["-v"]])
@pytest.mark.parametrize("data,error", PARSE_ERROR_AFTER_A_VERDICT, ids=["rejected", "verified", "warned"])
def test_parse_error_after_a_verdict_exits_2_with_only_the_error(paper_files, tmp_path, capsys, mode, data, error):
    formula, _ = paper_files
    proof = tmp_path / "late-error.drat"
    proof.write_bytes(data)
    assert main(["check", *mode, str(formula), str(proof)]) == 2
    assert capsys.readouterr().out == "c error: %s: %s\n" % (proof, error)


def test_check_parse_error_exits_2(tmp_path, capsys):
    formula = tmp_path / "broken.cnf"
    formula.write_text("p cnf oops\n")
    proof = tmp_path / "proof.drat"
    proof.write_text("0\n")
    assert main(["check", str(formula), str(proof)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("c error: %s" % formula)


def test_check_proof_literal_error_exits_2_with_its_location(paper_files, tmp_path, capsys):
    formula, _ = paper_files
    proof = tmp_path / "bad.drat"
    proof.write_bytes(b"1 0\n1 x 0\n")
    assert main(["check", str(formula), str(proof)]) == 2
    assert capsys.readouterr().out == "c error: %s: line 2, byte 6: malformed literal 'x'\n" % proof


def test_check_bad_formula_with_missing_proof_exits_2_naming_the_formula(tmp_path, capsys):
    formula = tmp_path / "broken.cnf"
    formula.write_text("p cnf 2 1\n1 -3 0\n")
    assert main(["check", str(formula), str(tmp_path / "missing.drat")]) == 2
    assert capsys.readouterr().out == (
        "c error: %s: line 2, byte 12: literal -3 exceeds declared maximum variable 2\n" % formula
    )


def test_an_internal_value_error_while_loading_the_formula_is_not_reported_as_a_formula_error(
    paper_files, monkeypatch, capsys
):
    # only a DimacsError or an OSError is the formula's fault; anything else is a bug and propagates
    def fail(self, batches):
        raise ValueError("internal")

    monkeypatch.setattr(checker.CheckerState, "store", fail)
    formula, proof = paper_files
    with pytest.raises(ValueError, match="internal"):
        main(["check", str(formula), str(proof)])
    assert capsys.readouterr().out == ""


def test_check_builds_no_formula_and_stores_only_the_memo_codes(tmp_path, monkeypatch, capsys):
    # literals above 256 and over 128 variables, so that neither the parsed
    # literals nor most codes are CPython's cached small ints
    rng = random.Random(83)
    variables = rng.sample(range(1000, 10**6), 300)
    lines = [" ".join("%d" % (v * rng.choice((1, -1))) for v in rng.sample(variables, 3)) + " 0"
             for _ in range(900)]
    lines += [rng.choice(lines) for _ in range(100)] + ["%d 0" % variables[0]]
    formula = tmp_path / "formula.cnf"
    formula.write_text("p cnf %d %d\n%s\n" % (10**6, len(lines), "\n".join(lines)))
    proof = tmp_path / "proof.drat"
    proof.write_text("")

    def refuse(*args, **kwargs):
        raise AssertionError("a Formula was built")

    states = []
    check_records = checker.check_records

    def capture(state, records, *args, **kwargs):
        states.append(state)
        return check_records(state, records, *args, **kwargs)

    monkeypatch.setattr(model.Formula, "__init__", refuse)
    monkeypatch.setattr(checker, "check_records", capture)
    assert main(["check", str(formula), str(proof)]) == 1
    (state,) = states
    assert type(state) is checker.CheckerState and len(state._true) == 600
    memo = {id(code) for code in state.code.values()}
    ids = state._index()
    held = [code for key in ids for code in key]
    held += [code for codes in ids.values() for code in codes]
    assert len(held) == 2 * (3 * len(ids) - 2)
    assert all(id(code) in memo for code in held)


def test_a_check_that_never_deletes_builds_no_deletion_index(tmp_path, monkeypatch):
    # an AT-only refutation of a formula holding a clause twice and once permuted
    clauses = [*PAPER_CLAUSES, PAPER_CLAUSES[2], PAPER_CLAUSES[2][::-1]]
    lemmas = refutation_steps(clauses)
    assert lemmas[-1] == ()
    formula = tmp_path / "formula.cnf"
    formula.write_text(write_dimacs(clauses))
    states = []
    check_records = checker.check_records

    def capture(state, records, *args, **kwargs):
        states.append(state)
        return check_records(state, records, *args, **kwargs)

    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(checker, "check_records", capture)
    monkeypatch.setattr(checker, "sorted", counting_sorted, raising=False)
    lines = [" ".join(map(str, (*lemma, 0))) for lemma in lemmas]
    proof = tmp_path / "proof.drat"
    proof.write_text("\n".join(lines) + "\n")
    assert main(["check", str(formula), str(proof)]) == 0
    assert states[-1]._ids == {} and sorts == []
    assert len(states[-1]._pending) == len(clauses) + len(lemmas) - 1

    # one deletion of a copy keys every clause
    proof.write_text("\n".join(lines[:1] + ["d %s 0" % " ".join(map(str, PAPER_CLAUSES[2]))] + lines[1:]) + "\n")
    assert main(["check", str(formula), str(proof)]) == 0
    assert len(states[-1]._ids) == len(PAPER_CLAUSES) + 1
    counts = Counter(map(canonical, [*clauses, *lemmas]))
    counts[canonical(PAPER_CLAUSES[2])] -= 1
    assert clause_counts(states[-1]) == counts


def test_check_missing_file_exits_2(tmp_path, capsys):
    proof = tmp_path / "proof.drat"
    proof.write_text("0\n")
    assert main(["check", str(tmp_path / "nope.cnf"), str(proof)]) == 2


def test_check_binary_proof_with_autodetection(paper_files, tmp_path, capsys):
    formula, proof = paper_files
    binary = tmp_path / "proof.bdrat"
    binary.write_bytes(serialize_binary(parse_plain_proof(PAPER_PROOF)))
    assert main(["check", str(formula), str(binary)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "s VERIFIED"


def test_check_forced_encoding_flag(paper_files, tmp_path, capsys):
    formula, proof = paper_files
    # forcing binary on a plain file must fail as a parse error, not crash
    assert main(["check", "--binary", str(formula), str(proof)]) == 2


def test_convert_plain_to_binary_matches_published_bytes(tmp_path, capsys):
    src = tmp_path / "proof.drat"
    src.write_bytes(CONVERSION_PLAIN)
    dst = tmp_path / "proof.bdrat"
    assert main(["convert", str(src), "--to", "binary", "-o", str(dst)]) == 0
    assert dst.read_bytes() == CONVERSION_BINARY
    out = capsys.readouterr().out
    assert "read 26 bytes (plain), wrote 12 bytes (binary)" in out


def test_convert_round_trip_is_byte_identical(tmp_path):
    first = tmp_path / "a.bdrat"
    back = tmp_path / "b.drat"
    second = tmp_path / "c.bdrat"
    src = tmp_path / "src.drat"
    src.write_bytes(CONVERSION_PLAIN)
    assert main(["convert", str(src), "--to", "binary", "-o", str(first)]) == 0
    assert main(["convert", str(first), "--to", "plain", "-o", str(back)]) == 0
    assert main(["convert", str(back), "--to", "binary", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert back.read_bytes() == CONVERSION_PLAIN


def test_convert_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.drat"
    src.write_bytes(b"")
    dst = tmp_path / "out.bdrat"
    assert main(["convert", str(src), "--to", "binary", "-o", str(dst)]) == 0
    assert dst.read_bytes() == b""


def test_convert_parse_error_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.bdrat"
    src.write_bytes(bytes([0x62, 0x00]))
    assert main(["convert", "--binary", str(src), "--to", "plain", "-o", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("target,data,error", [
    ("binary", CONVERSION_PLAIN + b"1 x 0\n", "line 3, byte 28: malformed literal 'x'"),
    ("plain", CONVERSION_BINARY + b"a\x02", "byte 12: input ends inside a record (missing zero byte)"),
])
def test_failed_convert_leaves_an_existing_output_unchanged(tmp_path, capsys, target, data, error):
    src = tmp_path / "bad.proof"
    src.write_bytes(data)
    dst = tmp_path / "out.proof"
    dst.write_bytes(b"earlier output\x00\n")
    assert main(["convert", str(src), "--to", target, "-o", str(dst)]) == 2
    assert capsys.readouterr().out == "c error: %s: %s\n" % (src, error)
    assert dst.read_bytes() == b"earlier output\x00\n"
    # the records converted before the error went to a temporary file, which is gone
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.proof", "out.proof"]


def test_a_converted_output_replaces_the_old_one_and_leaves_no_temporary_file(tmp_path, capsys):
    src, dst = tmp_path / "proof.drat", tmp_path / "out.bdrat"
    src.write_bytes(CONVERSION_PLAIN)
    dst.write_bytes(b"earlier output, longer than the new one")
    assert main(["convert", str(src), "--to", "binary", "-o", str(dst)]) == 0
    assert dst.read_bytes() == CONVERSION_BINARY
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.bdrat", "proof.drat"]


@pytest.mark.parametrize("directory", ["missing", "a-file"])
def test_an_output_that_cannot_be_written_exits_2_naming_the_output(tmp_path, capsys, directory):
    src = tmp_path / "proof.drat"
    src.write_bytes(CONVERSION_PLAIN)
    (tmp_path / "a-file").write_bytes(b"")
    dst = tmp_path / directory / "out.bdrat"
    assert main(["convert", str(src), "--to", "binary", "-o", str(dst)]) == 2
    assert capsys.readouterr().out.startswith("c error: %s: " % dst)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a-file", "proof.drat"]


def test_an_output_that_cannot_be_written_is_reported_before_a_parse_error(tmp_path, capsys):
    # the temporary file is made once the proof is open, before any record is read
    src = tmp_path / "bad.drat"
    src.write_bytes(CONVERSION_PLAIN + b"1 x 0\n")
    dst = tmp_path / "missing" / "out.bdrat"
    assert main(["convert", str(src), "--to", "binary", "-o", str(dst)]) == 2
    assert capsys.readouterr().out.startswith("c error: %s: " % dst)
    # a proof that cannot be opened is still reported first
    assert main(["convert", str(tmp_path / "nope.drat"), "--to", "binary", "-o", str(dst)]) == 2
    assert capsys.readouterr().out.startswith("c error: %s: " % (tmp_path / "nope.drat"))


def test_convert_writes_a_pipe_in_place(tmp_path, capsys):
    import os
    import stat
    import threading

    src, pipe = tmp_path / "proof.drat", tmp_path / "pipe"
    src.write_bytes(CONVERSION_PLAIN)
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(["convert", str(src), "--to", "binary", "-o", str(pipe)]) == 0
    finally:
        reader.join(10)
    assert not reader.is_alive() and received == [CONVERSION_BINARY] and stat.S_ISFIFO(pipe.stat().st_mode)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipe", "proof.drat"]


@pytest.mark.parametrize("source,target", [("plain", "binary"), ("binary", "plain")])
def test_convert_holds_the_input_and_output_not_the_steps(tmp_path, capsys, source, target):
    rng = random.Random(5)
    lines = []
    for _ in range(40000):
        lits = [v * rng.choice((1, -1)) for v in rng.sample(range(1, 3000), rng.randint(1, 6))]
        lines.append(("d " if rng.random() < 0.3 else "") + " ".join(map(str, lits + [0])))
    plain = ("\n".join(lines) + "\n").encode()
    src = tmp_path / ("in." + source)
    src.write_bytes(plain if source == "plain" else serialize_binary(parse_plain_proof(plain)))
    dst = tmp_path / ("out." + target)
    tracemalloc.start()
    try:
        assert main(["convert", "--" + source, str(src), "--to", target, "-o", str(dst)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = src.stat().st_size + dst.stat().st_size
    # input and output are about 1.1 MiB; the steps as objects would add 10 MiB or more
    assert peak < 2 * held + 2**20, (peak, held)


def test_installed_entry_points(paper_files):
    import subprocess
    import sys

    formula, proof = paper_files
    run = subprocess.run(
        [sys.executable, "-m", "dratcheck", "check", str(formula), str(proof)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0
    assert run.stdout.strip() == "s VERIFIED"


def test_exit_codes_partition_outcomes(paper_files, tmp_path):
    formula, proof = paper_files
    empty = tmp_path / "empty.drat"
    empty.write_text("")
    missing = str(tmp_path / "missing.cnf")
    assert main(["check", str(formula), str(proof)]) == 0
    assert main(["check", str(formula), str(empty)]) == 1
    assert main(["check", missing, str(proof)]) == 2


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["check -q", "check", "check -v", "convert -o /dev/stdout"])
def test_a_closed_stdout_exits_2_with_nothing_on_stderr(paper_files, command, buffered):
    # a buffered stdout fails only when it is flushed, an unbuffered one at the first print
    import os
    import subprocess
    import sys

    formula, proof = paper_files
    if command.startswith("check"):
        argv = [*command.split(), str(formula), str(proof)]
    else:
        argv = ["convert", str(proof), "--to", "binary", "-o", "/dev/stdout"]
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "dratcheck", *argv], stdout=write, stderr=subprocess.PIPE,
                             env=env, timeout=60)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (2, b"")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["check -q", "check", "check -v", "convert"])
def test_a_failed_stdout_write_exits_2_with_one_error_line(paper_files, tmp_path, command, buffered):
    import os
    import subprocess
    import sys

    formula, proof = paper_files
    if command.startswith("check"):
        argv = [*command.split(), str(formula), str(proof)]
    else:
        argv = ["convert", str(proof), "--to", "binary", "-o", str(tmp_path / "proof.bdrat")]
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    with open("/dev/full", "wb") as full:
        run = subprocess.run([sys.executable, "-m", "dratcheck", *argv], stdout=full, stderr=subprocess.PIPE,
                             env=env, timeout=60)
    assert (run.returncode, run.stderr) == (2, b"c error: stdout: [Errno 28] No space left on device\n")


IMPORTS_SCRIPT = """
import importlib.util, sys
sys.path.insert(0, %(source)r)
import dratcheck
print(sorted(name for name in sys.modules if name.startswith("dratcheck.")))
from dratcheck.cli import main
main(["convert", %(plain)r, "--to", "binary", "-o", %(binary)r])
main(["convert", %(binary)r, "--to", "plain", "-o", %(plain)r])
print(sorted({"dataclasses", "dratcheck.checker", "dratcheck.dimacs"} & set(sys.modules)))
print(importlib.util.find_spec("dratcheck.oracle"))
"""


def test_the_root_loads_nothing_and_convert_loads_no_checker(tmp_path):
    import subprocess
    import sys

    import dratcheck

    plain, binary = tmp_path / "proof.drat", tmp_path / "proof.bdrat"
    plain.write_bytes(CONVERSION_PLAIN)
    script = IMPORTS_SCRIPT % {
        "source": str(Path(dratcheck.__file__).parents[1]), "plain": str(plain), "binary": str(binary)
    }
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "[]" and lines[-2:] == ["[]", "None"], run.stdout
    assert binary.read_bytes() == CONVERSION_BINARY and plain.read_bytes() == CONVERSION_PLAIN


def test_a_plain_proof_starting_with_d_and_holding_no_zero_byte_is_read_as_plain(tmp_path, capsys):
    # the comment's UTF-8 bytes are not ASCII, but only a zero byte marks a binary proof
    formula, proof, output = tmp_path / "formula.cnf", tmp_path / "proof.drat", tmp_path / "proof.bdrat"
    formula.write_bytes(b"p cnf 2 3\n1 2 0\n1 0\n-1 0\n")
    proof.write_bytes(b"d 1 2 0\nc caf\xc3\xa9\n0\n")
    assert main(["check", str(formula), str(proof)]) == 0
    assert capsys.readouterr().out == "s VERIFIED\n"
    assert main(["convert", str(proof), "--to", "binary", "-o", str(output)]) == 0
    assert capsys.readouterr().out == "c read 18 bytes (plain), wrote 6 bytes (binary)\n"
    assert output.read_bytes() == b"d\x02\x04\x00a\x00"


@pytest.mark.parametrize("command", ["check", "convert"])
def test_a_proof_is_read_from_a_pipe_once(paper_files, tmp_path, capsys, command):
    # detection peeks at the first block, so a pipe such as a process substitution is read once
    import os
    import threading

    formula, _ = paper_files
    pipe, output = tmp_path / "pipe", tmp_path / "out.bdrat"
    os.mkfifo(pipe)
    data = CONVERSION_BINARY if command == "convert" else serialize_binary(parse_plain_proof(PAPER_PROOF))
    writer = threading.Thread(target=lambda: pipe.write_bytes(data), daemon=True)
    writer.start()
    try:
        if command == "check":
            assert main(["check", "-q", str(formula), str(pipe)]) == 0
            assert capsys.readouterr().out == "s VERIFIED\n"
        else:
            assert main(["convert", str(pipe), "--to", "plain", "-o", str(output)]) == 0
            assert capsys.readouterr().out == "c read 12 bytes (binary), wrote 26 bytes (plain)\n"
            assert output.read_bytes() == CONVERSION_PLAIN
    finally:
        writer.join(10)
    assert not writer.is_alive()


def test_check_v_on_a_pipe_fails_before_any_other_line(paper_files, tmp_path, capsys):
    # -v reads the proof twice, and a pipe cannot be read twice: it fails at once, before the count line
    import os
    import threading

    formula, _ = paper_files
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(PAPER_PROOF.encode()), daemon=True)
    writer.start()
    try:
        assert main(["check", "-v", str(formula), str(pipe)]) == 2
    finally:
        writer.join(10)
    assert not writer.is_alive()
    assert capsys.readouterr().out == "c error: %s: File or stream is not seekable.\n" % pipe


def test_a_plain_proof_starting_with_d_and_holding_a_zero_byte_in_a_comment_is_read_as_plain(tmp_path, capsys):
    # a zero byte counts for binary only outside a line that starts with 'c'
    formula, proof, output = tmp_path / "formula.cnf", tmp_path / "proof.drat", tmp_path / "proof.bdrat"
    formula.write_bytes(b"p cnf 2 3\n1 2 0\n1 0\n-1 0\n")
    proof.write_bytes(b"d 1 2 0\nc \x00\n0\n")
    assert main(["check", str(formula), str(proof)]) == 0
    assert capsys.readouterr().out == "s VERIFIED\n"
    assert main(["convert", str(proof), "--to", "binary", "-o", str(output)]) == 0
    assert capsys.readouterr().out == "c read 14 bytes (plain), wrote 6 bytes (binary)\n"
    assert output.read_bytes() == b"d\x02\x04\x00a\x00"


def _write_seed_7(root: Path) -> dict:
    """Write the files of seed 7 of every benchmark generator under root, by its own encoders."""
    import importlib.util
    import sys

    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return {name: workloads.write_files(workloads.generate(name, 7), str(root / name)) for name in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def seed_7_workloads(tmp_path_factory):
    """The files of seed 7 of every benchmark generator, written by its own encoders."""
    return _write_seed_7(tmp_path_factory.mktemp("seed-7"))


# the line convert printed for each generator's seed 7 while it read and wrote whole buffers
SEED_7_CONVERT_LINES = {
    "dpll-del": (982845, 363772),
    "dpll-grow": (126068, 50774),
    "php-rat": (110411, 55445),
    "wide-formula": (6236, 2792),
}


@pytest.mark.parametrize("name", sorted(SEED_7_CONVERT_LINES))
def test_convert_reports_the_same_byte_counts_on_seed_7_of_every_generator(seed_7_workloads, tmp_path, capsys, name):
    files = seed_7_workloads[name]
    plain, binary = SEED_7_CONVERT_LINES[name]
    for source, target, line in (
        ("plain", "binary", "c read %d bytes (plain), wrote %d bytes (binary)\n" % (plain, binary)),
        ("binary", "plain", "c read %d bytes (binary), wrote %d bytes (plain)\n" % (binary, plain)),
    ):
        output = tmp_path / target
        assert main(["convert", files[source]["path"], "--to", target, "-o", str(output)]) == 0
        assert capsys.readouterr().out == line
        # the generators' own encoders wrote the reference bytes
        assert output.read_bytes() == Path(files[target]["path"]).read_bytes()


# The stdout sha256 and exit code of every check and convert run below on seed 7 of every generator, committed
# so that a change that alters a byte of output fails here. To rewrite the file from the current code, run
# `python tests/test_cli.py` from the repository root with src on PYTHONPATH, and say in the change why it moved.
SEED_7_DIGESTS = Path(__file__).parent / "seed_7_digests.json"
CHECK_MODES = {"check": [], "check -v": ["-v"], "check -q": ["-q"]}


def _digest(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _seed_7_digests(files: dict, scratch: Path) -> dict:
    """run -> {"exit", "stdout_sha256"} for one generator's files; a convert run adds its output's sha256."""
    runs = {}
    for proof in ("plain", "binary", "empty", "reject"):
        for mode, flags in CHECK_MODES.items():
            runs["%s %s" % (mode, proof)] = _digest(["check", *flags, files["formula"]["path"], files[proof]["path"]])
    for source, target in (("plain", "binary"), ("binary", "plain")):
        output = scratch / ("converted-" + target)
        run = _digest(["convert", files[source]["path"], "--to", target, "-o", str(output)])
        run["output_sha256"] = hashlib.sha256(output.read_bytes()).hexdigest()
        runs["convert %s --to %s" % (source, target)] = run
    return runs


@pytest.mark.parametrize("name", sorted(SEED_7_CONVERT_LINES))
def test_check_and_convert_output_matches_the_committed_digests_on_seed_7(seed_7_workloads, tmp_path, name):
    assert _seed_7_digests(seed_7_workloads[name], tmp_path) == json.loads(SEED_7_DIGESTS.read_text())[name]


# The process entry points run without the cyclic collector and freeze the
# heap once main() returns (dratcheck/__main__.py); main() leaves both alone.
ENTRY_POINT_SCRIPT = """
import gc, importlib, runpy, sys
sys.path.insert(0, %(source)r)
sys.argv = ["dratcheck", *%(argv)r]
print(gc.isenabled(), gc.get_freeze_count())
try:
    %(call)s
except SystemExit as exit:
    print(exit.code, gc.isenabled(), gc.get_freeze_count() > 0)
"""


def _console_script():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    return re.search(r'^dratcheck = "([\w.]+):(\w+)"$', text, re.M).groups()


@pytest.mark.parametrize("entry", ["python -m", "console script"])
def test_process_entry_points_turn_the_collector_off_and_freeze_the_heap(paper_files, entry):
    import subprocess
    import sys

    import dratcheck

    formula, proof = paper_files
    if entry == "python -m":
        call = "runpy.run_module('dratcheck', run_name='__main__', alter_sys=True)"
    else:
        call = "sys.exit(getattr(importlib.import_module(%r), %r)())" % _console_script()
    script = ENTRY_POINT_SCRIPT % {
        "source": str(Path(dratcheck.__file__).parents[1]),
        "argv": ["check", str(formula), str(proof)],
        "call": call,
    }
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["True 0", "s VERIFIED", "0 False True"]


def test_main_leaves_the_collector_as_it_is(paper_files, tmp_path, capsys):
    formula, proof = paper_files
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["check", "-v", str(formula), str(proof)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert main(["convert", str(proof), "--to", "binary", "-o", str(tmp_path / "proof.bdrat")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        files = _write_seed_7(Path(scratch))
        digests = {name: _seed_7_digests(files[name], Path(scratch)) for name in sorted(files)}
    SEED_7_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
