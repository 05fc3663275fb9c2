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
  conversion paths (tests/test_fastpath.py): each input is read as written
  and with every space made a tab, which forces the token path, and both
  must print the same. The fast path rests on each CPython's JSON scanner.

Every transcript must also equal the first interpreter's. The script needs
only the standard library, and exits 1 on any difference.
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
EDGE_TOKENS = [b"-0", b"00", b"01", b"-", b"--1", b"1-2", b"1" * 4301, b"2147483648"]


def _edges():
    """(name, formula, proof): each edge token in a formula, in a proof without "d" and in one with it, alone
    on a line and after clauses on the same line; and a literal over the formula's declared maximum."""
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
    return cases


EDGES = _edges()


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
        if first is None:
            first = got
        failures += ["differs from the first interpreter: " + name for name in got if got[name] != first.get(name)]
        print("%s (%s): %d transcripts, %d failures" % (python, version, len(got), len(failures)))
        for failure in failures:
            print("  " + failure)
        failed |= bool(failures)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable]))
