"""Exact class, message, line and byte offset of every parse error kind.

Lines are 1-based; offsets are 0-based byte positions in the input buffer.
A clause error (duplicate or complementary literals) is located at the
first token of its clause or step, a header error at the start of its line.
"""

import pytest

from dratcheck import parse_dimacs, parse_plain_proof
from dratcheck.dimacs import (
    ClauseCountError,
    DimacsError,
    HeaderError,
    LiteralOverflowError,
    UnterminatedClauseError,
    VarOutOfRangeError,
)
from dratcheck.proofio import ProofError

DIMACS_CASES = [
    # header
    (b"1 2 0\n", HeaderError, "expected 'p cnf' header before clauses", 1, 0),
    (b"c x\n\np cnf x 8\n", HeaderError, "malformed header 'p cnf x 8'", 3, 5),
    (b"p cnf 4 8 extra\n", HeaderError, "malformed header 'p cnf 4 8 extra'", 1, 0),
    (b"p cnf 2147483648 0\n", HeaderError, "variable count 2147483648 exceeds 2^31 - 1", 1, 0),
    (b"c only\n", HeaderError, "no 'p cnf' header found", 0, 0),
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
    (b"p cnf 2 2\n1 0\n", ClauseCountError, "header declares 2 clauses but 1 were found", 0, 0),
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


def _raised(parse, data):
    with pytest.raises(Exception) as info:
        parse(data)
    exc = info.value
    return type(exc), exc.message, exc.line, exc.offset


@pytest.mark.parametrize("data,error,message,line,offset", DIMACS_CASES)
def test_dimacs_error_location(data, error, message, line, offset):
    assert _raised(parse_dimacs, data) == (error, message, line, offset)


@pytest.mark.parametrize("data,error,message,line,offset", PROOF_CASES)
def test_proof_error_location(data, error, message, line, offset):
    assert _raised(parse_plain_proof, data) == (error, message, line, offset)

