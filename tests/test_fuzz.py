"""Fuzzing the DIMACS, plain DRAT and binary DRAT readers.

Any input gives either a parsed value or a DimacsError/ProofError whose
location lies inside the buffer; no other exception may escape. Valid
inputs written with any blank style parse to what they spell and
round-trip through the writers. The binary reader gives the same steps
or the same error as a byte-at-a-time reference decoder.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dratcheck import (
    DimacsError,
    Formula,
    ProofError,
    parse_binary_proof,
    parse_dimacs,
    parse_plain_proof,
    serialize_plain,
)

from conftest import write_dimacs
from slowpath import NaiveBinaryError, parse_binary_naive

# bytes the readers treat specially, and their near misses
ALPHABET = list(b"0123456789- \t\r\ncdpnf\x00\x0b\x0c\x85\xa0\xb2")
near_text = st.lists(st.sampled_from(ALPHABET), max_size=60).map(bytes)

clause = st.lists(st.integers(1, 9), unique=True, max_size=4).flatmap(
    lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
)
blank = st.sampled_from([b" ", b"\t", b"  ", b" \t"])
line_end = st.sampled_from([b"\n", b"\r\n", b" \n", b"\nc comment \x85\xa0\r\n"])


def assert_located(exc, data):
    """line 0 means no location, so no offset; otherwise the offset lies on that line."""
    if exc.line == 0:
        assert exc.offset is None
        return
    assert 0 <= exc.offset < len(data)
    assert data.count(b"\n", 0, exc.offset) == exc.line - 1


def is_records(proof):
    """A parsed proof is a list of (delete, literals) records: a bool and a list of ints."""
    return type(proof) is list and all(
        type(record) is tuple and len(record) == 2 and type(record[0]) is bool
        and type(record[1]) is list and all(type(lit) is int for lit in record[1])
        for record in proof
    )


def parses_or_locates(parse, error, data):
    try:
        return parse(data)
    except error as exc:
        assert_located(exc, data)
        return None


@st.composite
def written_clauses(draw):
    """(clauses, bytes) with blanks, comments and line ends drawn at random."""
    clauses = draw(st.lists(clause, max_size=8))
    out = bytearray()
    for lits in clauses:
        out += draw(st.sampled_from([b"", b" ", b"\t"]))
        for lit in lits + (0,):
            out += b"%d" % lit + draw(st.one_of(blank, line_end))
    return clauses, bytes(out)


@given(st.one_of(st.binary(max_size=60), near_text, near_text.map(lambda b: b"p cnf 9 2\n" + b)))
@settings(max_examples=400)
def test_any_bytes_give_a_formula_or_a_located_dimacs_error(data):
    formula = parses_or_locates(parse_dimacs, DimacsError, data)
    assert formula is None or isinstance(formula, Formula)


@given(st.one_of(st.binary(max_size=60), near_text))
@settings(max_examples=400)
def test_any_bytes_give_a_proof_or_a_located_proof_error(data):
    proof = parses_or_locates(parse_plain_proof, ProofError, data)
    assert proof is None or is_records(proof)


@given(written_clauses(), st.data())
@settings(max_examples=300)
def test_valid_dimacs_with_one_byte_mutated(written, data):
    clauses, body = written
    text = b"p cnf 9 %d\n" % len(clauses) + body
    position = data.draw(st.integers(0, len(text) - 1))
    byte = data.draw(st.sampled_from(ALPHABET + [data.draw(st.integers(0, 255))]))
    mutated = text[:position] + bytes([byte]) + text[position + 1 :]
    formula = parses_or_locates(parse_dimacs, DimacsError, mutated)
    assert formula is None or isinstance(formula, Formula)


@given(written_clauses(), st.data())
@settings(max_examples=300)
def test_valid_proof_with_one_byte_mutated(written, data):
    _, text = written
    text = b"d " + text if text else b"d 1 0\n"
    position = data.draw(st.integers(0, len(text) - 1))
    byte = data.draw(st.sampled_from(ALPHABET + [data.draw(st.integers(0, 255))]))
    mutated = text[:position] + bytes([byte]) + text[position + 1 :]
    proof = parses_or_locates(parse_plain_proof, ProofError, mutated)
    assert proof is None or is_records(proof)


@given(written_clauses())
@settings(max_examples=200)
def test_valid_dimacs_parses_to_its_clauses_and_round_trips(written):
    clauses, body = written
    formula = parse_dimacs(b"c head\np cnf 9 %d\r\n" % len(clauses) + body)
    assert sorted(formula.clauses()) == sorted(Formula.from_clauses(clauses).clauses())
    again = parse_dimacs(write_dimacs(formula))
    assert again.clause_counts() == formula.clause_counts()


@given(written_clauses(), st.lists(st.booleans(), max_size=8))
@settings(max_examples=200)
def test_valid_proof_parses_to_its_steps_and_round_trips(written, deletes):
    clauses, _ = written
    text = b"".join(
        (b"d " if i < len(deletes) and deletes[i] else b"")
        + b" ".join(b"%d" % lit for lit in lits + (0,))
        + b"\r\n"
        for i, lits in enumerate(clauses)
    )
    proof = parse_plain_proof(text)
    assert proof == [(i < len(deletes) and deletes[i], list(lits)) for i, lits in enumerate(clauses)]
    assert serialize_plain(proof) == text.replace(b"\r\n", b"\n")
    assert parse_plain_proof(serialize_plain(proof)) == proof


# record prefixes, terminators, reserved codes, varint continuations and overflow
BINARY_ALPHABET = list(b"ad\x00\x01\x02\x03\x04\x0f\x10\x7f\x80\x81\x82\xfe\xff")
near_binary = st.lists(st.sampled_from(BINARY_ALPHABET), max_size=40).map(bytes)


@given(st.sampled_from([b"", b"a"]), st.one_of(st.binary(max_size=60), near_binary))
@settings(max_examples=600)
def test_binary_reader_matches_the_byte_at_a_time_reference(head, body):
    data = head + body
    try:
        expected = parse_binary_naive(data)
    except NaiveBinaryError as exc:
        expected = (exc.name, exc.message, exc.offset)
    try:
        proof = parse_binary_proof(data)
    except ProofError as exc:
        assert (type(exc).__name__, exc.message, exc.offset) == expected
    else:
        assert [("d" if delete else "a", tuple(lits)) for delete, lits in proof] == expected
