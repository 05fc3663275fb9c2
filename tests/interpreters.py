"""Run the command line on each CPython given, and compare what it prints.

Usage, from the root of the repository:

    python tests/interpreters.py [PYTHON ...]

With no argument, the interpreter running this script is the one checked.
Each interpreter runs ``python -m dratcheck`` with src on PYTHONPATH, on:

- the six golden cases of tests/golden, every mode and proof encoding, whose
  exit code and stdout must equal expected.json;
- the worked example: ``check`` verifies it, and ``convert`` takes its proof
  and the two-step conversion example to binary and back, byte for byte;
- EDGES, the fixed edge blocks of the differential test of the lexer's two
  conversion paths (tests/test_fastpath.py), and the formulas with a
  literal over the declared maximum that the command line's reader finds
  by checking only new variables: each input is read as written and with
  every space made a tab, which forces the token path, and both must print
  the same. The fast path rests on each CPython's JSON scanner.

Every transcript must also equal the first interpreter's. Each interpreter
also measures, in a child with tracemalloc, the two memory bounds that
tests/test_streaming.py asserts: one binary record of 100,000 literals keeps
under LONG_RECORD_BYTES per literal more than the same literals in records of
100, and steps after the empty clause leave the peak of ``check``, ``check -v``
and both ``convert`` directions within HELD_STEPS_BYTES from 5,000 to 20,000
steps. The script needs only the standard library, and exits 1 on any
difference or bound exceeded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MODES = {"check": [], "check -v": ["-v"], "check -q": ["-q"]}
PROOFS = {"plain": "proof.drat", "binary": "proof.bin"}

PAPER_FORMULA = b"""p cnf 4 8
 1  2 -3 0
-1 -2  3 0
 2  3 -4 0
-2 -3  4 0
-1 -3 -4 0
 1  3  4 0
-1  2  4 0
 1 -2 -4 0
"""
PAPER_PROOF = b"         -1 0\n  d -1 2  4 0\n          2 0\n            0\n"
PAPER_PROOF_PLAIN = b"-1 0\nd -1 2 4 0\n2 0\n0\n"  # as convert writes it
CONVERSION_PLAIN = b"d -63 -8193 0\n129 -8191 0\n"
CONVERSION_BINARY = bytes.fromhex("64 7f 83 80 01 00 61 82 02 ff 7f 00".replace(" ", ""))

# tokens that only one conversion path could take for a literal: each is an error
EDGE_TOKENS = [b"-0", b"00", b"01", b"-", b"--1", b"1-2", b"1" * 4301, b"2147483648", b"-2147483648"]

# formulas with a literal over the declared maximum where the command line's reader, which checks only the
# variables new to the checker's code map, could miss it or report another token: (name, formula, proof)
OVER_MAXIMUM = [
    ("formula, over the maximum, a new variable first seen negative", b"p cnf 3 2\n1 -2 0\n3 -4 0\n", b""),
    # over 16 KiB of known variables first, so that the last line is read in a later block, a run of its own
    ("formula, over the maximum, in a run of known variables", b"p cnf 3 2001\n" + b"1 -2 3 0\n" * 2000 + b"-3 2 4 0\n",
     b""),
    ("formula, over the maximum, after a repeated variable", b"p cnf 3 2\n1 -2 -1 0 4 0\n", b""),
]


def _edges():
    """(name, formula, proof): each edge token in a formula, in a proof without "d" and in one with it, alone
    on a line and after clauses on the same line; a literal over the formula's declared maximum; OVER_MAXIMUM."""
    cases = []
    for token in EDGE_TOKENS + [b"6"]:
        name = token[:12].decode()
        cases += [
            ("formula, own line, %s" % name, b"p cnf 5 2\n1 -2 0\n" + token + b" 3 0\n", b""),
            ("formula, same line, %s" % name, b"p cnf 5 3\n1 2 0 -3 " + token + b" 0\n4 0\n", b""),
        ]
        if token != b"6":  # a proof's literals are bound only by 2^31 - 1
            cases += [
                ("proof, no d, %s" % name, b"p cnf 5 0\n", b"1 2 0\n-1 " + token + b" 0\n"),
                ("proof, with d, %s" % name, b"p cnf 5 0\n", b"1 2 0\nd 1 2 0 d " + token + b" 0\n"),
            ]
    cases.append(("valid formula and proof", b"p cnf 3 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n", b"d 1 2 0 2 0\n0\n"))
    return cases + OVER_MAXIMUM


EDGES = _edges()


LONG_RECORD_BYTES = 80
HELD_STEPS_BYTES = 32 * 1024
PADDED_COMMANDS = ["check", "check -v", "convert --to binary", "convert --to plain"]


def memory_bounds():
    """(bytes per literal that one long binary record keeps over the same literals in short records,
    {command: the change in its peak from 5,000 to 20,000 steps after the empty clause}), measured with
    tracemalloc in this interpreter, as tests/test_streaming.py measures them."""
    import contextlib
    import io
    import random
    import tracemalloc

    from dratcheck.cli import main
    from dratcheck.proofio import parse_binary_proof, parse_plain_proof, serialize_binary

    def peak(call):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def check_run(argv):
        status = main(argv)
        if status:
            raise RuntimeError("%s exited %d" % (" ".join(argv), status))

    rng = random.Random(3)
    lits = [v * rng.choice((1, -1)) for v in rng.sample(range(1, 10**6), 100_000)]
    one = serialize_binary([(False, lits)])
    many = serialize_binary([(False, lits[i : i + 100]) for i in range(0, len(lits), 100)])
    long_record = peak(lambda: parse_binary_proof(one)) - peak(lambda: parse_binary_proof(many))
    held = {}
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)
        (folder / "formula.cnf").write_bytes(b"p cnf 2 3\n1 2 0\n1 0\n-1 0\n")
        for command in PADDED_COMMANDS:
            peaks = []
            for steps in (1, 5_000, 20_000):
                plain = b"0\n" + b"d 1 2 0\n" * (steps - 1)  # deletions that check reads but never applies
                proof = folder / ("proof-%d" % steps)
                binary = command == "convert --to plain"
                proof.write_bytes(serialize_binary(parse_plain_proof(plain)) if binary else plain)
                if command.startswith("check"):
                    argv = [*command.split(), str(folder / "formula.cnf"), str(proof)]
                else:
                    argv = ["convert", str(proof), *command.split()[1:], "-o", str(folder / "out")]
                peaks.append(peak(lambda: check_run(argv)))  # the first call imports what the command needs
            held[command] = peaks[2] - peaks[1]
    return long_record / len(lits), held


def memory(python) -> tuple[str, list[str]]:
    """(memory_bounds of one interpreter as a line of text, the bounds it exceeds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([python, "-c", "import interpreters, json; print(json.dumps(interpreters.memory_bounds()))"],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        return "memory bounds not measured", ["memory bounds: " + done.stderr.strip()]
    per_literal, held = json.loads(done.stdout)
    line = "long record %.1f bytes per literal over short ones (bound %d); peak change with steps after the empty " \
           "clause %s bytes (bound %d)" % (per_literal, LONG_RECORD_BYTES, held, HELD_STEPS_BYTES)
    failures = ["long record keeps %.1f bytes per literal" % per_literal] if per_literal >= LONG_RECORD_BYTES else []
    return line, failures + ["%s holds %d bytes of steps after the empty clause" % (command, change)
                             for command, change in held.items() if abs(change) >= HELD_STEPS_BYTES]


def _run(python, args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([python, "-m", "dratcheck", *args], cwd=cwd, env=env, capture_output=True)
    return {"exit": done.returncode, "stdout": done.stdout.decode().splitlines(), "stderr": done.stderr.decode()}


def transcripts(python) -> tuple[dict, list[str]]:
    """(name -> transcript, the failures) of one interpreter."""
    got, failures = {}, []
    for case in sorted(path.name for path in GOLDEN.iterdir() if path.is_dir()):
        expected = json.loads((GOLDEN / case / "expected.json").read_text())
        for encoding, proof in PROOFS.items():
            for mode, flags in MODES.items():
                name = "golden %s %s %s" % (case, encoding, mode)
                got[name] = _run(python, ["check", *flags, "formula.cnf", proof], GOLDEN / case)
                if {key: got[name][key] for key in ("exit", "stdout")} != expected[encoding][mode]:
                    failures.append(name)
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)
        (folder / "formula.cnf").write_bytes(PAPER_FORMULA)
        (folder / "proof.drat").write_bytes(PAPER_PROOF)
        got["worked example check"] = _run(python, ["check", "formula.cnf", "proof.drat"], folder)
        if got["worked example check"]["stdout"][-1:] != ["s VERIFIED"]:
            failures.append("worked example check")
        for name, plain, binary in (("worked example", PAPER_PROOF, None), ("conversion", CONVERSION_PLAIN,
                                                                            CONVERSION_BINARY)):
            (folder / "in.drat").write_bytes(plain)
            _run(python, ["convert", "in.drat", "--to", "binary", "-o", "out.bin"], folder)
            _run(python, ["convert", "out.bin", "--to", "plain", "-o", "back.drat"], folder)
            out, back = (folder / "out.bin").read_bytes(), (folder / "back.drat").read_bytes()
            got[name + " convert"] = {"binary": out.hex(), "plain": back.decode()}
            if back != (PAPER_PROOF_PLAIN if binary is None else plain) or binary not in (None, out):
                failures.append(name + " convert")
        for name, formula, proof in EDGES:
            pair = []
            for side, blank in (("written", b" "), ("tabs", b"\t")):
                (folder / side).mkdir(exist_ok=True)
                (folder / side / "formula.cnf").write_bytes(formula.replace(b" ", blank))
                (folder / side / "proof.drat").write_bytes(proof.replace(b" ", blank))
                pair.append(_run(python, ["check", "formula.cnf", "proof.drat"], folder / side))
            got["edge " + name] = pair[0]
            if pair[0] != pair[1] or pair[0]["stderr"]:
                failures.append("edge %s: %r against %r with tabs" % (name, pair[0], pair[1]))
    return got, failures


def main(pythons) -> int:
    failed = False
    first = None
    for python in pythons:
        version = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"], capture_output=True,
                                 text=True).stdout.strip()
        got, failures = transcripts(python)
        measured, exceeded = memory(python)
        if first is None:
            first = got
        failures += ["differs from the first interpreter: " + name for name in got if got[name] != first.get(name)]
        failures += exceeded
        print("%s (%s): %d transcripts, %d failures" % (python, version, len(got), len(failures)))
        print("  " + measured)
        for failure in failures:
            print("  " + failure)
        failed |= bool(failures)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable]))
