"""Mutation check: every mutant below must make the fast tests fail.

Usage, from the root of the repository:

    python tests/mutants.py

For each mutant, src/ and tests/, and the perfbench/ and pyproject.toml that
tests/test_cli.py reads, are copied to a temporary directory, one
exact snippet of one source file is replaced there, and TESTS are run against
the copy. The unmutated copy is run first, since a copy that fails on its own
would count every mutant as killed; its time sets the timeout that kills a
mutant whose tests hang. The script exits 1 if the unmutated copy
fails, if a snippet no longer occurs exactly once in its file (the code has
changed, so rewrite the mutant with it), or if a mutant survives without a
reason given next to it. A survivor is either a gap in the tests, to be
closed, or a mutant that cannot change behaviour, which keeps its reason here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_checker.py", "tests/test_golden.py", "tests/test_errors.py", "tests/test_proofio.py",
         "tests/test_fuzz.py", "tests/test_streaming.py", "tests/test_acceptance.py", "tests/test_dimacs.py",
         "tests/test_cli.py", "tests/test_fastpath.py"]
TIMEOUT_FACTOR = 3  # a mutant whose tests take this many times the unmutated copy's time hangs them, and is killed

PROOFIO = "src/dratcheck/proofio.py"
CHECKER = "src/dratcheck/checker.py"
LEXER = "src/dratcheck/lexer.py"
DIMACS = "src/dratcheck/dimacs.py"
CLI = "src/dratcheck/cli.py"

# (name, file, snippet, replacement, reason it survives or None)
MUTANTS = [
    # the binary reader: finding a record by its end
    ("record end is any zero byte", PROOFIO,
     '_END = re.compile(rb"[\\x00-\\x7f]\\x00")', '_END = re.compile(rb"\\x00")', None),
    ("record varints stop before the last byte", PROOFIO,
     "_VARINT.findall(buffer, pos + 1, end.start() + 1)", "_VARINT.findall(buffer, pos + 1, end.start())", None),
    ("no prefix check before a record", PROOFIO,
     '            if buffer[pos] not in b"ad":\n                _raise_record_error(buffer, pos, base)\n', "",
     None),
    ("no duplicate-variable check", PROOFIO,
     "if len(set(map(abs, lits))) != len(lits):", "if False:", None),
    ("a bad prefix waits for a record end", PROOFIO,
     '        if buffer[pos : pos + 1] not in b"ad":  # no read can make this a record\n'
     "            _raise_record_error(buffer, pos, base)\n", "", None),
    ("reads do not grow with a long record", PROOFIO,
     "source.read(max(BLOCK_BYTES, len(buffer)))", "source.read(BLOCK_BYTES)", None),
    # the binary reader: locating an error
    ("code 1 skipped as a valid one-byte varint", PROOFIO,
     '_CODES = re.compile(rb"[\\x02-\\x7f]*")', '_CODES = re.compile(rb"[\\x01-\\x7f]*")', None),
    # the varint bounds
    ("varints of six bytes", PROOFIO, "if consumed == 5:", "if consumed == 6:", None),
    ("code 1 is a literal", PROOFIO, "if code < 2:", "if code < 1:", None),
    ("varint values one past the literal range", PROOFIO, "if value > MAX_CODE:", "if value > MAX_CODE + 1:", None),
    # the code map
    ("a negative literal made twice", CHECKER, "self._literal += (var, negative)", "self._literal += (var, -var)",
     None),
    # propagation
    ("no conflict on an implication", CHECKER,
     "                    if true[other ^ 1]:\n                        return True\n", "", None),
    ("no conflict at the watch loop's exit", CHECKER,
     "                    if true[other ^ 1]:\n                        kept +=",
     "                    if False:\n                        kept +=", None),
    ("the third literal's watch not moved", CHECKER,
     "lits[1], lits[2] = lit, lits[1]\n                    watches[lit].append(lits)\n",
     "lits[1], lits[2] = lit, lits[1]\n", None),
    ("the later search starts one position late", CHECKER, "range(3,", "range(4,", None),
    ("_undo leaves a mark set", CHECKER, "for code in islice(trail, start, None):\n            true[code] = 0",
     "for code in islice(trail, start + 1, None):\n            true[code] = 0", None),
    ("units not asserted", CHECKER,
     "for code in assumed if start else assumed + self._units:", "for code in assumed:", None),
    # the RAT stage
    ("no tautology skip", CHECKER, "if any(code ^ 1 in own for code in candidate if code != negated):", "if False:",
     None),
    ("the pivot is the last literal", CHECKER,
     "own, negated = {*codes}, codes[0] ^ 1\n            pivot = self._literal[codes[0]]",
     "own, negated = {*codes}, codes[-1] ^ 1\n            pivot = self._literal[codes[-1]]", None),
    ("the negated pivot asserted with a resolvent", CHECKER,
     "[code for code in candidate if code != negated and code not in own]",
     "[code for code in candidate if code not in own]", None),
    ("the lemma's fixpoint left on the trail", CHECKER, "            self._undo(0)", "            pass", None),
    # deletion and the index
    ("unit deletions applied", CHECKER, "        if len(literals) == 1:\n            self._note(",
     "        if False:\n            self._note(", None),
    ("a merged copy not counted", CHECKER,
     "                surplus[id(stored)] = surplus.get(id(stored), 0) + 1\n", "", None),
    ("a merged copy left in propagation", CHECKER,
     "        if merged:\n            self._unattach_merged(merged)\n", "", None),
    ("a merged binary copy drops every copy's implication", CHECKER,
     "                if pairs[code, other]:\n                    pairs[code, other] -= 1",
     "                if pairs[code, other]:\n                    pass", None),
    ("a merged longer copy left watched", CHECKER, "if id(codes) not in ids]", "]", None),
    ("occurrences keep a deleted clause", CHECKER, "self._occurs[code].remove(codes)", "pass", None),
    ("occurrences not extended for a new variable", CHECKER,
     "        if self._occurs is not None:\n            self._occurs += ([], [])\n", "", None),
    ("a deletion skips the pending copies", CHECKER,
     "        ids = self._index()\n        codes = ids.get(key)", "        ids = self._ids\n        codes = ids.get(key)",
     None),
    ("the last surplus copy kept as a zero count", CHECKER, "if extra > 1:", "if extra > 0:", None),
    ("a merged unit copy removed from the unit list", CHECKER,
     "                if len(codes) > 1:  # units are never deleted, and asserting a code twice sets it once\n"
     "                    merged.append(codes)\n",
     "                merged.append(codes) if len(codes) > 1 else self._units.remove(codes[0])\n", None),
    ("an empty clause left in the batch for _pending", CHECKER,
     "            if [] in batch:\n                self._empty_copies += batch.count([])\n"
     "                batch = [codes for codes in batch if codes]\n            pending += batch\n",
     "            pending += batch\n            if [] in batch:\n"
     "                self._empty_copies += batch.count([])\n                batch = [codes for codes in batch if codes]\n",
     None),
    # the lexer's fast path and the formula path's codes
    ("no '-0' guard before the JSON scanner", LEXER, ' and b"-0" not in joined:  # the fast path',
     ":  # the fast path", None),
    ("a clause joined across runs yielded as literals", LEXER,
     "clause = lits if code is None else [*map(code.__getitem__, lits)][:]", "clause = lits", None),
    # the lexer's one check of the bound, on what each run adds
    ("no bound check", LEXER, "if added and (max(added) > limit or min(added) < -limit):", "if False:", None),
    ("no check of a literal below -limit", LEXER, "(max(added) > limit or min(added) < -limit)",
     "max(added) > limit", None),
    ("every key of the code map checked", LEXER, "reversed(code), len(code) - known)]", "reversed(code), len(code))]",
     None),
    ("nothing checked without a code map", LEXER, "added = values if code is None", "added = [] if code is None",
     None),
    # the lexer's token path
    ("'-0' taken as clean", LEXER, 'clean = b"-0" not in joined and tokens', "clean = tokens", None),
    ("leading zeros taken as clean", LEXER,
     'tokens.count(b"0") == (\n            joined.count(b" 0") + joined.count(b"\\t0") + joined.startswith(b"0")\n'
     "        )", "True", None),
    ("no duplicate-variable check in a clause", LEXER, "if len(set(map(abs, lits))) != len(lits):", "if False:",
     None),
    ("a block's first-line comment read as tokens", LEXER,
     'if text[:1] != b"c" and b"\\nc" not in text:', 'if b"\\nc" not in text:', None),
    ("a block's later comment line read as tokens", LEXER,
     'if text[:1] != b"c" and b"\\nc" not in text:', 'if text[:1] != b"c":', None),
    ("a cross-block clause located in its 2nd block", LEXER,
     "where = where or (block, first, at + done)", "where = (block, first, at + done)", None),
    ("the open clause copied per run", LEXER, "pending += values[done:]", "pending = pending + values[done:]", None),
    ("where kept after a clause ends", LEXER,
     "delete, done, where = False, zero + 1, None", "delete, done = False, zero + 1", None),
    ("each block counted as one clause", LEXER, "found += ends", "found += 1", None),
    # the DIMACS header
    ("a header without a blank after 'p'", DIMACS, 'rb"[ \\t]*p[ \\t]+cnf', 'rb"[ \\t]*p[ \\t]*cnf', None),
    ("a header's trailing blanks refused", DIMACS, '([0-9]+)[ \\t]*")', '([0-9]+)")', None),
    ("a variable count above 2^31 - 1", DIMACS, "if var_max > MAX_LITERAL:", "if var_max > MAX_LITERAL + 1:", None),
    ("literals not bound by the header's count", DIMACS, "reader.clauses(var_max, code=code)", "reader.clauses(code=code)", None),
    # the temporary output file of convert
    ("convert's output left in its temporary file", CLI, "            os.replace(temp, output)\n", "            pass\n",
     None),
    ("a failed convert's temporary file left behind", CLI, "            os.remove(temp)\n", "            pass\n", None),
]


def run_tests(copy: Path, timeout: float | None = None) -> tuple[bool, float]:
    """(whether TESTS pass on copy within timeout seconds, seconds taken)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
                              cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def fresh_copy(parent: Path) -> Path:
    copy = Path(tempfile.mkdtemp(dir=parent))
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", copy)
    return copy


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        passed, seconds = run_tests(fresh_copy(Path(scratch)))
        print("%-45s %-8s %5.1f s" % ("(unmutated)", "passes" if passed else "FAILS", seconds))
        if not passed:
            return 1
        timeout = TIMEOUT_FACTOR * seconds
        for name, path, snippet, replacement, reason in MUTANTS:
            copy = fresh_copy(Path(scratch))
            source = copy / path
            text = source.read_text()
            if text.count(snippet) != 1:
                print("%-45s snippet occurs %d times in %s, not once" % (name, text.count(snippet), path))
                failed = True
                continue
            source.write_text(text.replace(snippet, replacement))
            passed, seconds = run_tests(copy, timeout)
            note = "  (%s)" % reason if passed and reason else ""
            print("%-45s %-8s %5.1f s%s" % (name, "SURVIVES" if passed else "killed", seconds, note))
            failed |= passed and not reason
            shutil.rmtree(copy)
    return int(failed)


if __name__ == "__main__":
    sys.stdout.reconfigure(line_buffering=True)  # each mutant's line as it is done, also in a CI log
    sys.exit(main())
