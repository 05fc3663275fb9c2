import random
import tracemalloc

import pytest

from dratcheck import parse_plain_proof, serialize_binary
from dratcheck.cli import main

from conftest import CONVERSION_BINARY, CONVERSION_PLAIN, PAPER_FORMULA, PAPER_PROOF


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


def test_cli_import_leaves_out_dataclasses_and_the_oracle():
    import os
    import subprocess
    import sys

    import dratcheck

    source = os.path.dirname(os.path.dirname(dratcheck.__file__))
    script = "import sys; sys.path.insert(0, %r); import dratcheck.cli; " % source + (
        "print(sorted({'dataclasses', 'dratcheck.oracle'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
