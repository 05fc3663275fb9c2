"""The readers take their input in blocks from a file, not as one buffer.

Records and located errors must not depend on where a block or a read
ends, and the command line's peak memory must not grow with steps that
follow the empty clause. Reading time must not grow faster than the
input, whatever its layout. Blocks are made small by setting BLOCK_BYTES in
the modules that read it; a trickling file also hands the buffered reader
at most that many bytes per read, so a ``\\r\\n`` may be split across two
reads.
"""

import gc
import io
import random
import time
import tracemalloc

import pytest

from dratcheck import lexer, proofio
from dratcheck.checker import CheckerState
from dratcheck.cli import main
from dratcheck.dimacs import DimacsError, clause_records, parse_dimacs
from dratcheck.proofio import (ProofError, binary_records, parse_binary_proof, parse_plain_proof, plain_records,
                               serialize_binary)

from test_errors import BINARY_CASES, DIMACS_CASES, PROOF_CASES

SIZES = [1, 2, 3, 7]


class Trickle(io.RawIOBase):
    """A raw file over data that gives at most size bytes per read."""

    def __init__(self, data, size):
        self.data, self.size, self.pos = data, size, 0

    def readable(self):
        return True

    def readinto(self, buffer):
        chunk = self.data[self.pos : self.pos + min(self.size, len(buffer))]
        buffer[: len(chunk)] = chunk
        self.pos += len(chunk)
        return len(chunk)


def sources(data, size):
    """The same input as bytes and as a buffered file that reads size bytes at a time."""
    return [data, io.BufferedReader(Trickle(data, size), buffer_size=size)]


def small_blocks(monkeypatch, size):
    monkeypatch.setattr(lexer, "BLOCK_BYTES", size)
    monkeypatch.setattr(proofio, "BLOCK_BYTES", size)


def raised(parse, source):
    with pytest.raises((DimacsError, ProofError)) as info:
        parse(source)
    exc = info.value
    return type(exc), exc.message, exc.line, exc.offset


@pytest.mark.parametrize("size", SIZES)
def test_every_located_error_is_the_same_in_small_blocks(monkeypatch, size):
    small_blocks(monkeypatch, size)
    rows = [(parse_dimacs, *row) for row in DIMACS_CASES] + [(parse_plain_proof, *row) for row in PROOF_CASES]
    rows += [(parse_binary_proof, data, error, message, 0, offset) for data, error, message, offset in BINARY_CASES]
    for parse, data, error, message, line, offset in rows:
        for source in sources(data, size):
            assert raised(parse, source) == (error, message, line, offset), (parse.__name__, data)


def _layout(rng, rows):
    """rows as text: tokens split by blanks and line ends, LF or CRLF, and comment lines, some longer than a block."""
    out = []
    for row in rows:
        if rng.random() < 0.3:
            out.append(b"c " + b"x" * rng.randint(0, 40) + rng.choice([b"\n", b"\r\n"]))
        for token in row:
            out.append(token + rng.choice([b" ", b"\t", b"  ", b"\n", b"\r\n"]))
        out.append(rng.choice([b"\n", b"\r\n"]))
    return b"".join(out)


def _clause(rng):
    return [v * rng.choice((1, -1)) for v in rng.sample(range(1, 40), rng.randint(0, 5))]


@pytest.mark.parametrize("seed", range(6))
def test_records_are_the_same_in_small_blocks(monkeypatch, seed):
    rng = random.Random(seed)
    clauses = [_clause(rng) for _ in range(30)]
    steps = [(rng.random() < 0.3, _clause(rng)) for _ in range(30)]
    formula = b"c first\r\n" + b"p cnf 39 %d\r\n" % len(clauses)
    formula += _layout(rng, [[b"%d" % lit for lit in lits] + [b"0"] for lits in clauses])
    proof = _layout(rng, [[b"d"] * delete + [b"%d" % lit for lit in lits] + [b"0"] for delete, lits in steps])
    binary = serialize_binary(steps)
    assert b"\r\n" in formula and b"\r\n" in proof
    # the input is smaller than one default block, so these are the whole-buffer readings
    assert parse_dimacs(formula) == clauses and parse_plain_proof(proof) == steps
    assert parse_binary_proof(binary) == steps
    for size in SIZES:
        small_blocks(monkeypatch, size)
        for source in sources(formula, size):
            assert parse_dimacs(source) == clauses, size
        for source in sources(proof, size):
            assert parse_plain_proof(source) == steps, size
        for source in sources(binary, size):
            assert parse_binary_proof(source) == steps, size


def test_a_comment_line_longer_than_a_block_is_skipped_whole(monkeypatch):
    small_blocks(monkeypatch, 7)
    proof = b"1 0\r\nc " + b"d x 0 " * 100 + b"\r\n-2 0\n"
    assert parse_plain_proof(proof) == [(False, [1]), (False, [-2])]


CLAUSES = b"1 -2 3 0\r\n" * 5000  # 50,000 bytes: 4 default blocks, and thousands of small ones
FORMULA_HEAD = b"c start\np cnf 3 5001\n" + CLAUSES + b"c " + b"y" * 100 + b"\n"
PROOF_HEAD = CLAUSES + b"c comment\n"
BINARY_HEAD = serialize_binary([(False, [1, -2, 3])] * 5000)  # 5 bytes a record

# (reader, input, message, line, offset); line and offset are those the whole-buffer reader gave
FAR_ERRORS = [
    (parse_dimacs, FORMULA_HEAD + b"2 x 0\n", "malformed literal 'x'", 5004, len(FORMULA_HEAD) + 2),
    (parse_dimacs, FORMULA_HEAD + b"3 4\r\n", "literal 4 exceeds declared maximum variable 3", 5004,
     len(FORMULA_HEAD) + 2),
    # a clause that spans lines, and so blocks, is located at its first token
    (parse_dimacs, FORMULA_HEAD + b" 3 -1\r\nc 3\n2\r\n3 0\n", "duplicate literal 3", 5004, len(FORMULA_HEAD) + 1),
    (parse_dimacs, FORMULA_HEAD + b" 3 -1\r\nc 3\n2\r\n", "end of input inside a clause (missing terminating 0)",
     5004, len(FORMULA_HEAD) + 1),
    (parse_plain_proof, PROOF_HEAD + b"d 1 3 x 0\n", "malformed literal 'x'", 5002, len(PROOF_HEAD) + 6),
    (parse_plain_proof, PROOF_HEAD + b"\td 1\r\n2 -1 0\n", "complementary literals 1 and -1", 5002,
     len(PROOF_HEAD) + 1),
    (parse_plain_proof, PROOF_HEAD + b"\td 1\r\n2\r\n", "end of input inside a proof step (missing terminating 0)",
     5002, len(PROOF_HEAD) + 1),
    (parse_binary_proof, BINARY_HEAD + b"a\x02\x04\x02\x00", "duplicate literal 1", 0, 25000),
    (parse_binary_proof, BINARY_HEAD + b"a\x02\x01\x00", "literal code 1 is reserved", 0, 25002),
    (parse_binary_proof, BINARY_HEAD + b"d\x02\x80", "input ends inside a varint", 0, 25002),
    (parse_binary_proof, BINARY_HEAD + b"d\x02\x04", "input ends inside a record (missing zero byte)", 0, 25000),
]


@pytest.mark.parametrize("size", [None, *SIZES])
@pytest.mark.parametrize("parse,data,message,line,offset", FAR_ERRORS, ids=[row[2] for row in FAR_ERRORS])
def test_an_error_many_blocks_in_keeps_its_absolute_line_and_offset(monkeypatch, size, parse, data, message, line,
                                                                    offset):
    error = DimacsError if parse is parse_dimacs else ProofError
    if size is not None:
        small_blocks(monkeypatch, size)
    for source in sources(data, size or 4096):
        assert raised(parse, source) == (error, message, line, offset)


NO_RECORD_END = b"d" + b" 1 2 0\nd" * 20000  # text read as binary: 160,001 bytes and no zero byte


def _traced(call):
    """(call()'s result, tracemalloc's peak over the call)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_record_is_not_matched_before_its_end_is_read():
    # the run is held until the end of input shows that no record end follows, and only then
    # decoded once; holding the run and its reads costs a few times its length, not more
    data = NO_RECORD_END
    outcome, peak = _traced(lambda: raised(parse_binary_proof, data))
    assert outcome == (ProofError, "input ends inside a record (missing zero byte)", 0, 0)
    assert peak < 4 * len(data), peak


def test_a_run_with_no_record_end_is_not_decoded_byte_by_byte(monkeypatch):
    # every byte of the run is a one-byte varint with a valid code, which a regex skips in one match
    calls = []
    decode = proofio.decode_varint
    monkeypatch.setattr(proofio, "decode_varint", lambda *args: calls.append(args) or decode(*args))
    assert raised(parse_binary_proof, NO_RECORD_END) == (ProofError, "input ends inside a record (missing zero byte)",
                                                         0, 0)
    assert len(calls) < 10, len(calls)


def test_a_long_record_costs_little_more_than_its_literals_in_short_records():
    rng = random.Random(3)
    lits = [v * rng.choice((1, -1)) for v in rng.sample(range(1, 10**6), 100_000)]
    one = serialize_binary([(False, lits)])
    many = serialize_binary([(False, lits[i : i + 100]) for i in range(0, len(lits), 100)])
    peaks = [_traced(lambda: parse_binary_proof(data))[1] for data in (one, many)]
    # the records' literals are held alike; the long record keeps about 61 bytes more per literal
    # on CPython 3.11 to 3.13 (59 on 3.10), mostly the duplicate check's set and the ints that abs()
    # makes, while a pattern that matched its varints one group at a time kept 112 (184 on 3.10)
    assert peaks[0] - peaks[1] < 80 * len(lits), (peaks, (peaks[0] - peaks[1]) / len(lits))


def test_a_bad_prefix_is_reported_before_the_rest_of_the_input_is_read():
    data = b"x" + b"\x02" * (1 << 20)  # no zero byte, so no record end is ever read
    outcome, peak = _traced(lambda: raised(parse_binary_proof, data))
    assert outcome == (ProofError, "record prefix 0x78 is neither 'a' nor 'd'", 0, 0)
    assert peak < len(data) // 4, peak


class CountedReads(io.BytesIO):
    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_a_record_longer_than_a_read_makes_the_reads_grow(monkeypatch):
    monkeypatch.setattr(proofio, "BLOCK_BYTES", 16)
    lits = list(range(100_000, 133_334))
    record = serialize_binary([(False, lits)])  # 100,004 bytes: 3 a literal, its prefix and its zero byte
    source = CountedReads(record)
    assert parse_binary_proof(source) == [(False, lits)]
    # reads of a fixed 16 bytes would take about 6,400 calls
    assert source.reads < 64, source.reads


# -- peak memory through the command line -----------------------------------

FORMULA = b"p cnf 2 3\n1 2 0\n1 0\n-1 0\n"
# 40,000 bytes of plain text, more than two blocks: the readers' peak is reached by then
STEPS = 5_000


def _padded(steps):
    """A proof of steps steps: the empty clause, then deletions that check reads but never applies."""
    return b"0\n" + b"d 1 2 0\n" * (steps - 1)


def _peak(argv):
    """tracemalloc's peak over one main(argv) call, which must succeed."""
    status, peak = _traced(lambda: main(argv))
    assert status == 0
    return peak


@pytest.mark.parametrize("command", ["check", "check -v", "convert --to binary", "convert --to plain"])
def test_peak_memory_does_not_grow_with_steps_after_the_empty_clause(tmp_path, capsys, command):
    formula = tmp_path / "formula.cnf"
    formula.write_bytes(FORMULA)
    peaks = []
    for steps in (1, STEPS, 4 * STEPS):
        proof = tmp_path / ("proof-%d" % steps)
        plain = _padded(steps)
        proof.write_bytes(plain if command != "convert --to plain" else serialize_binary(parse_plain_proof(plain)))
        if command.startswith("check"):
            argv = [*command.split(), str(formula), str(proof)]
        else:
            argv = ["convert", str(proof), *command.split()[1:], "-o", str(tmp_path / "out")]
        peaks.append(_peak(argv))
        capsys.readouterr()
    # the first call imports what the command needs; the longer proof adds 120,000 bytes
    # of plain text and 45,000 of binary, which would show in the peak if it were held whole
    assert abs(peaks[2] - peaks[1]) < 32 * 1024, peaks


# -- time linear in the input, whatever its layout ---------------------------

def _numbers(n, separator):
    return separator.join(b"%d" % v for v in range(1, n + 1)) + separator


def _read_all(records):
    for _ in records:
        pass


def _read_to_error(records):
    with pytest.raises(DimacsError, match="malformed literal 'x'"):
        _read_all(records)


def _stored(data):
    state = CheckerState()
    state._store(clause_records(data, state._code))
    assert len(state._units) == data.count(b"\n") - 1


def _units_twice_then_a_deletion(clauses):
    state = CheckerState()
    state.load(clauses)
    assert state.apply_delete([1, 2], 1) is not None  # the first deletion merges every second copy, and warns


def _copies_then_a_deletion(clauses):
    state = CheckerState()
    state.load(clauses)
    state.apply_delete([1, 2], 1)  # the first deletion merges every second copy


# name -> (n, the input for a size, the work timed on it). The first four spread one clause or
# proof step over n lines, so over about n / 80 runs of the lexer in blocks of 512 bytes; the
# next two are controls, with no record that spans the lexer's runs; the next stores n units of
# new variables over many runs, whose bound check must look at each run's new variables only; the
# last three merge n copies, the binary and ternary ones from implication and watch lists that hold every copy
SCALING = {
    "one clause, one literal per line":
        (40_000, lambda n: b"p cnf %d 1\n" % n + _numbers(n, b"\n") + b"0\n",
         lambda data: _read_all(clause_records(data))),
    "one clause, a comment line between literals":
        (40_000, lambda n: b"p cnf %d 1\n" % n + _numbers(n, b"\nc\n") + b"0\n",
         lambda data: _read_all(clause_records(data))),
    "a bad token after a clause of one literal per line":
        (40_000, lambda n: b"p cnf %d 1\n" % n + _numbers(n, b"\n") + b"x 0\n",
         lambda data: _read_to_error(clause_records(data))),
    "a deletion spread over lines":
        (40_000, lambda n: b"d\n" + _numbers(n, b"\n") + b"0\n", lambda data: _read_all(plain_records(data))),
    "short clauses, one per line":
        (20_000, lambda n: b"p cnf 2 %d\n" % n + b"1 -2 0\n" * n, lambda data: _read_all(clause_records(data))),
    "one long binary record":
        (20_000, lambda n: serialize_binary([(False, list(range(1, n + 1)))]),
         lambda data: _read_all(binary_records(data))),
    "units of new variables, stored as the command line stores them":
        (20_000, lambda n: b"p cnf %d %d\n" % (n, n) + _numbers(n, b" 0\n"), _stored),
    "each unit written twice, then a deletion":
        (8_000, lambda n: [(v,) for v in range(1, n + 1) for _ in "ab"], _units_twice_then_a_deletion),
    "binary clauses that share a literal, each written twice, then a deletion":
        (4_000, lambda n: [(1, v) for v in range(2, n + 2) for _ in "ab"], _copies_then_a_deletion),
    "ternary clauses that share two literals, each written twice, then a deletion":
        (2_000, lambda n: [(1, 2, v) for v in range(3, n + 3) for _ in "ab"], _copies_then_a_deletion),
}


@pytest.mark.parametrize("shape", SCALING)
def test_four_times_the_input_takes_about_four_times_as_long(monkeypatch, shape):
    small_blocks(monkeypatch, 512)
    n, make, work = SCALING[shape]
    inputs = [make(n), make(4 * n)]
    best = [float("inf")] * 2
    for _ in range(3):  # the sizes alternate, so that a change of CPU speed falls on both
        for k, data in enumerate(inputs):
            gc.collect()
            gc.disable()  # a collection's cost would depend on what earlier tests left
            try:
                start = time.process_time()
                work(data)
                best[k] = min(best[k], time.process_time() - start)
            finally:
                gc.enable()
    # linear work gives a ratio of about 4, quadratic about 16
    assert best[1] / best[0] < 8, best
