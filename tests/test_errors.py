"""Exact class, message, line and byte offset of every parse error kind,
and the clause errors of hand-built proof records.

Lines are 1-based; offsets are 0-based byte positions in the input buffer.
A clause error (duplicate or complementary literals) is located at the
first token of its clause or step, a header error at the start of its line.
Binary proofs have no lines: a clause error, a bad prefix or a missing zero
byte is located at the record start, and a varint error or a reserved
literal code at the varint's first byte.
"""

import time

import pytest

from dratcheck import (
    check_proof,
    parse_binary_proof,
    parse_dimacs,
    parse_plain_proof,
    serialize_binary,
    serialize_plain,
)
from dratcheck.checker import CheckerState
from dratcheck.cli import main
from dratcheck.dimacs import (
    ClauseCountError,
    DimacsError,
    HeaderError,
    LiteralOverflowError,
    UnterminatedClauseError,
    VarOutOfRangeError,
    clause_records,
)
from dratcheck.model import DuplicateLiteralError, LiteralRangeError, TautologyError
from dratcheck.proofio import (
    BadPrefixError,
    InvalidCodeError,
    ProofError,
    TruncatedRecordError,
    TruncatedVarintError,
    VarintOverflowError,
)

DIMACS_CASES = [
    # header
    (b"1 2 0\n", HeaderError, "expected 'p cnf' header before clauses", 1, 0),
    (b"c x\n\np cnf x 8\n", HeaderError, "malformed header 'p cnf x 8'", 3, 5),
    (b"p cnf 4 8 extra\n", HeaderError, "malformed header 'p cnf 4 8 extra'", 1, 0),
    (b"p cnf 2147483648 0\n", HeaderError, "variable count 2147483648 exceeds 2^31 - 1", 1, 0),
    (b"c only\n", HeaderError, "no 'p cnf' header found", 0, None),
    # malformed literal
    (b"p cnf 2 1\n1 x 0\n", DimacsError, "malformed literal 'x'", 2, 12),
    (b"p cnf 2 1\n1 007 0\n", DimacsError, "malformed literal '007'", 2, 12),
    (b"p cnf 2 1\n -0 0\n", DimacsError, "malformed literal '-0'", 2, 11),
    (b"p cnf 2 1\n1 2- 0\n", DimacsError, "malformed literal '2-'", 2, 12),
    (b"p cnf 2 1\n1 2 d 0\n", DimacsError, "malformed literal 'd'", 2, 14),
    # overflow
    (b"p cnf 2147483647 1\n2147483648 0\n", LiteralOverflowError,
     "literal 2147483648 exceeds 2^31 - 1", 2, 19),
    (b"p cnf 5 1\n1 -99999999999 0\n", LiteralOverflowError,
     "literal -99999999999 exceeds 2^31 - 1", 2, 12),
    # variable out of range
    (b"p cnf 2 1\n1 -3 0\n", VarOutOfRangeError,
     "literal -3 exceeds declared maximum variable 2", 2, 12),
    (b"p cnf 2 2\n1 0 2\n\t3 x 0\n", VarOutOfRangeError,
     "literal 3 exceeds declared maximum variable 2", 3, 17),
    # duplicate literal, at the clause's first literal
    (b"p cnf 2 1\n2 1 2 0\n", DimacsError, "duplicate literal 2", 2, 10),
    # tautology, at the clause's first literal, which sits on an earlier line
    (b"p cnf 3 1\n  3\nc x\n1 -1 0\n", DimacsError, "complementary literals 1 and -1", 2, 12),
    # the first error in input order wins: the clause ends before the bad token
    (b"p cnf 2 2\n1 1 0 x 0\n", DimacsError, "duplicate literal 1", 2, 10),
    # unterminated clause
    (b"p cnf 2 1\n1 2\n", UnterminatedClauseError,
     "end of input inside a clause (missing terminating 0)", 2, 10),
    (b"p cnf 2 2\n1 0\n\n  2 1", UnterminatedClauseError,
     "end of input inside a clause (missing terminating 0)", 4, 17),
    # clause count
    (b"p cnf 2 2\n1 0\n", ClauseCountError, "header declares 2 clauses but 1 were found", 0, None),
    # blanks are space, tab, and \r before \n; nothing else splits a token
    (b"p cnf 2 1\n1\xa02 0\n", DimacsError, "malformed literal '1\\xa02'", 2, 10),
    (b"p cnf 2 1\n1\x0c2 0\n", DimacsError, "malformed literal '1\\x0c2'", 2, 10),
    (b"p cnf 2 1\n1 2 0\r", DimacsError, "malformed literal '0\\r'", 2, 14),
    # comment lines end only at \n, so \x85 does not shift line numbers
    (b"p cnf 2 2\nc x\x85y\n1 2 0\n1 x 0\n", DimacsError, "malformed literal 'x'", 4, 24),
]

PROOF_CASES = [
    # malformed literal
    (b"1 x 0\n", ProofError, "malformed literal 'x'", 1, 2),
    (b"1 0\n2 -0 0\n", ProofError, "malformed literal '-0'", 2, 6),
    (b"2147483648 0\n", ProofError, "literal 2147483648 exceeds 2^31 - 1", 1, 0),
    # bad d prefix
    (b"1 d 0\n", ProofError, "malformed delete prefix 'd'", 1, 2),
    (b"d5 0\n", ProofError, "malformed delete prefix 'd5'", 1, 0),
    (b"d d 1 0\n", ProofError, "malformed delete prefix 'd'", 1, 2),
    # tautology or duplicate, at the step's first token
    (b"1 0\n  d 1 -1 0\n", ProofError, "complementary literals 1 and -1", 2, 6),
    (b"2 1\n 2 0\n", ProofError, "duplicate literal 2", 1, 0),
    # unterminated step
    (b"1 0\nd 2\n", ProofError, "end of input inside a proof step (missing terminating 0)", 2, 4),
    (b"1 0\nd\n", ProofError, "end of input inside a proof step (missing terminating 0)", 2, 4),
    # blanks are space, tab, and \r before \n
    (b"1\xa02 0\n", ProofError, "malformed literal '1\\xa02'", 1, 0),
    (b"c x\x85y\n1 0\r\n1 x 0\n", ProofError, "malformed literal 'x'", 3, 13),
]

BINARY_CASES = [
    # bad prefix, first record and later records
    (b"b\x02\x00", BadPrefixError, "record prefix 0x62 is neither 'a' nor 'd'", 0),
    (b"a\x02\x00x", BadPrefixError, "record prefix 0x78 is neither 'a' nor 'd'", 3),
    (b"a\x00\x00", BadPrefixError, "record prefix 0x00 is neither 'a' nor 'd'", 2),
    # truncated record and truncated varint
    (b"a\x02", TruncatedRecordError, "input ends inside a record (missing zero byte)", 0),
    (b"a\x02\x00d\x04\x06", TruncatedRecordError, "input ends inside a record (missing zero byte)", 3),
    (b"a\x80", TruncatedVarintError, "input ends inside a varint", 1),
    (b"a\x02\x00a\x04\x80", TruncatedVarintError, "input ends inside a varint", 5),
    # varint longer than 5 bytes, and a code past 2^32 - 1
    (b"a\x80\x80\x80\x80\x80\x00", VarintOverflowError, "varint longer than 5 bytes", 1),
    (b"a\x80\x80\x80\x80\x10\x00", VarintOverflowError,
     "varint value 4294967296 out of literal range", 1),
    (b"d\x00a\x02\x80\x80\x80\x80\x10\x00", VarintOverflowError,
     "varint value 4294967296 out of literal range", 4),
    # reserved codes 0 (non-minimal 80 00) and 1
    (b"a\x80\x00\x00", InvalidCodeError, "literal code 0 is reserved", 1),
    (b"a\x01\x00", InvalidCodeError, "literal code 1 is reserved", 1),
    (b"a\x02\x00d\x04\x01\x00", InvalidCodeError, "literal code 1 is reserved", 5),
    # duplicate or tautology, at the record start
    (b"a\x02\x04\x02\x00", ProofError, "duplicate literal 1", 0),
    (b"a\x02\x03\x00", ProofError, "complementary literals 1 and -1", 0),
    (b"a\x02\x00d\x04\x84\x00\x00", ProofError, "duplicate literal 2", 3),
]


def _raised(parse, data):
    with pytest.raises(Exception) as info:
        parse(data)
    exc = info.value
    return type(exc), exc.message, exc.line, exc.offset


def load_into_the_checker(data):
    """The command line's formula reader: no Formula is built."""
    CheckerState().load(clause_records(data))


@pytest.mark.parametrize("data,error,message,line,offset", DIMACS_CASES)
def test_dimacs_error_location(data, error, message, line, offset):
    for read in (parse_dimacs, load_into_the_checker):
        assert _raised(read, data) == (error, message, line, offset), read.__name__


@pytest.mark.parametrize("data,error,message,line,offset", DIMACS_CASES)
def test_dimacs_error_through_the_command_line(tmp_path, capsys, data, error, message, line, offset):
    formula = tmp_path / "formula.cnf"
    formula.write_bytes(data)
    # the proof does not exist: a DIMACS error must end the run before it is opened
    assert main(["check", str(formula), str(tmp_path / "missing.drat")]) == 2
    assert capsys.readouterr().out == "c error: %s: %s\n" % (formula, error(message, line, offset))


@pytest.mark.parametrize("data,error,message,line,offset", PROOF_CASES)
def test_proof_error_location(data, error, message, line, offset):
    assert _raised(parse_plain_proof, data) == (error, message, line, offset)



@pytest.mark.parametrize("data,error,message,offset", BINARY_CASES)
def test_binary_proof_error_location(data, error, message, offset):
    assert _raised(parse_binary_proof, data) == (error, message, 0, offset)


def test_error_text_names_the_line_and_byte_when_known():
    rows = [(parse_dimacs, *row) for row in DIMACS_CASES] + [(parse_plain_proof, *row) for row in PROOF_CASES]
    rows += [(parse_binary_proof, data, error, message, 0, offset) for data, error, message, offset in BINARY_CASES]
    for parse, data, _, message, line, offset in rows:
        with pytest.raises((DimacsError, ProofError)) as info:
            parse(data)
        if line:
            assert str(info.value) == "line %d, byte %d: %s" % (line, offset, message)
        elif offset is not None:
            assert str(info.value) == "byte %d: %s" % (offset, message)
        else:
            assert str(info.value) == message


def test_binary_error_at_byte_0_is_located_through_the_command_line(tmp_path, capsys):
    formula, proof = tmp_path / "formula.cnf", tmp_path / "proof.bdrat"
    formula.write_bytes(b"p cnf 1 0\n")
    proof.write_bytes(b"x\x02\x00")
    expected = "c error: %s: byte 0: record prefix 0x78 is neither 'a' nor 'd'\n" % proof
    assert main(["check", "--binary", str(formula), str(proof)]) == 2
    assert capsys.readouterr().out == expected
    assert main(["convert", "--binary", str(proof), "--to", "plain", "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == expected


def test_binary_varint_may_end_in_zero_after_a_continuation_byte():
    # 82 00 is a non-minimal varint for code 2; the next 00 ends the record
    assert parse_binary_proof(b"a\x82\x00\x00") == [(False, [1])]


# Text proofs read as binary: thousands of 'd' bytes and no zero byte after
# the first record. The error must come from one linear pass, not from a
# regex attempt at every later 'd', which takes minutes on these inputs.
LONG_BAD_RECORDS = [
    (b"1" + b"d 1 2 0\n" * 50000, BadPrefixError, "record prefix 0x31 is neither 'a' nor 'd'", 0),
    (b"d" + b" 1 2 0\nd" * 50000, TruncatedRecordError, "input ends inside a record (missing zero byte)", 0),
    (b"a\x02\x00" * 50000 + b"x" + b"d\x02" * 50000, BadPrefixError,
     "record prefix 0x78 is neither 'a' nor 'd'", 150000),
]


@pytest.mark.parametrize("data,error,message,offset", LONG_BAD_RECORDS)
def test_binary_error_after_many_records_is_found_in_linear_time(data, error, message, offset):
    start = time.perf_counter()
    assert _raised(parse_binary_proof, data) == (error, message, 0, offset)
    assert time.perf_counter() - start < 10


# Records built by hand, not read, get normalize_clause's checks from the
# library functions that take them.
BAD_RECORD_LITERALS = [
    ([0], LiteralRangeError, "literal 0 is reserved as the clause terminator"),
    ([3, 0, 0], LiteralRangeError, "literal 0 is reserved as the clause terminator"),
    ([1, 2**31], LiteralRangeError, "literal 2147483648 out of range"),
    ([-2**31, 1, 1], LiteralRangeError, "literal -2147483648 out of range"),
    ([-3, 2, 3], TautologyError, "complementary literals 3 and -3"),
    ([2, 5, 2], DuplicateLiteralError, "duplicate literal 2"),
]


@pytest.mark.parametrize("delete", [False, True])
@pytest.mark.parametrize("lits,error,message", BAD_RECORD_LITERALS)
@pytest.mark.parametrize(
    "function",
    [lambda records: check_proof(parse_dimacs(b"p cnf 1 2\n1 0\n-1 0\n"), records),
     serialize_plain, serialize_binary],
    ids=["check_proof", "serialize_plain", "serialize_binary"],
)
def test_hand_built_records_get_the_clause_checks_of_the_readers(function, lits, error, message, delete):
    # the record after the empty clause is still read, as check_records reads on
    records = [(False, [1, -4]), (False, []), (delete, lits)]
    with pytest.raises(error) as info:
        function(records)
    assert str(info.value) == message
    assert function(records[:2]) is not None
