import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dratcheck import (
    DimacsError,
    MAX_LITERAL,
    ProofError,
    decode_varint,
    encode_varint,
    map_literal,
    parse_binary_proof,
    parse_plain_proof,
    serialize_binary,
    serialize_plain,
    unmap_literal,
)
from dratcheck.proofio import (
    BINARY,
    PLAIN,
    BadPrefixError,
    InvalidCodeError,
    TruncatedRecordError,
    TruncatedVarintError,
    VarintOverflowError,
    binary_records,
    detect_encoding,
    plain_records,
)

from conftest import CONVERSION_BINARY, CONVERSION_PLAIN, PAPER_PROOF, random_proof

# published mapping table
LITERAL_TABLE = [(-63, 127), (129, 258), (-8191, 16383), (-8193, 16387)]

# published variable-byte table
VARINT_TABLE = [
    (0, "00"),
    (1, "01"),
    (127, "7f"),
    (128, "8001"),
    (258, "8202"),
    (16383, "ff7f"),
    (16387, "838001"),
    (2**28 - 1, "ffffff7f"),
    (2**28 + 7, "8780808001"),
]


@pytest.mark.parametrize("literal,code", LITERAL_TABLE)
def test_literal_map_table(literal, code):
    assert map_literal(literal) == code
    assert unmap_literal(code) == literal


def test_literal_map_basics():
    assert map_literal(1) == 2
    assert unmap_literal(2) == 1
    with pytest.raises(ValueError):
        map_literal(0)
    with pytest.raises(ValueError):
        map_literal(MAX_LITERAL + 1)
    for code in (0, 1):
        with pytest.raises(InvalidCodeError):
            unmap_literal(code)
    with pytest.raises(InvalidCodeError):
        unmap_literal(2 * MAX_LITERAL + 2)


@pytest.mark.parametrize("value,hexbytes", VARINT_TABLE)
def test_varint_table(value, hexbytes):
    assert encode_varint(value) == bytes.fromhex(hexbytes)
    assert decode_varint(bytes.fromhex(hexbytes)) == (value, len(hexbytes) // 2)


def test_varint_decode_errors():
    with pytest.raises(TruncatedVarintError):
        decode_varint(b"\x80")
    with pytest.raises(TruncatedVarintError):
        decode_varint(b"")
    with pytest.raises(VarintOverflowError):
        decode_varint(b"\x80\x80\x80\x80\x80\x01")
    with pytest.raises(VarintOverflowError):
        decode_varint(b"\xff\xff\xff\xff\x7f")  # 2^35 - 1 exceeds literal codes


@given(st.integers(min_value=0, max_value=2 * MAX_LITERAL + 1))
@settings(max_examples=300)
def test_varint_round_trip(value):
    encoded = encode_varint(value)
    assert decode_varint(encoded) == (value, len(encoded))
    # minimal length: no shorter encoding decodes to the same value
    assert len(encoded) == max(1, (value.bit_length() + 6) // 7)


@given(st.integers(min_value=1, max_value=MAX_LITERAL), st.booleans())
def test_literal_map_round_trip(var, negative):
    lit = -var if negative else var
    assert unmap_literal(map_literal(lit)) == lit
    assert map_literal(lit) >= 2


def test_parse_plain_worked_example():
    assert parse_plain_proof(PAPER_PROOF) == [(False, [-1]), (True, [-1, 2, 4]), (False, [2]), (False, [])]


def test_the_parsers_list_the_records_of_the_readers():
    for data in (PAPER_PROOF.encode(), CONVERSION_PLAIN, b""):
        assert parse_plain_proof(data) == list(plain_records(data))
    for data in (CONVERSION_BINARY, b""):
        assert parse_binary_proof(data) == list(binary_records(data))
    assert type(parse_plain_proof(CONVERSION_PLAIN)) is list
    assert type(parse_binary_proof(CONVERSION_BINARY)) is list


def test_parse_plain_empty_input():
    assert parse_plain_proof(b"") == []


def test_parse_plain_comment_then_empty_clause():
    assert parse_plain_proof("c hi\n0\n") == [(False, [])]


def test_parse_plain_errors():
    with pytest.raises(ProofError):
        parse_plain_proof("1 2\n")  # unterminated
    with pytest.raises(ProofError):
        parse_plain_proof("d\n")  # delete prefix without clause
    with pytest.raises(ProofError):
        parse_plain_proof("d5 0\n")  # prefix not followed by blank
    with pytest.raises(ProofError):
        parse_plain_proof("1 -1 0\n")  # tautology
    with pytest.raises(ProofError):
        parse_plain_proof("1 1 0\n")  # duplicate literal


def test_no_break_space_in_a_proof_is_a_malformed_literal():
    with pytest.raises(ProofError, match="malformed literal") as info:
        parse_plain_proof(b"1 0\n1\xa02 0\n")
    assert (info.value.line, info.value.offset) == (2, 4)


def test_proof_literal_errors_are_proof_errors():
    for data in (b"1 x 0\n", b"1 007 0\n", b"2147483648 0\n"):
        with pytest.raises(ProofError) as info:
            parse_plain_proof(data)
        assert not isinstance(info.value, DimacsError)


def test_parse_plain_crlf_proof():
    proof = parse_plain_proof(b"d 1 2 0\r\n-1\t0\r\nc x\r\n0\r\n")
    assert proof == [(True, [1, 2]), (False, [-1]), (False, [])]


def test_parse_binary_worked_example():
    assert parse_binary_proof(CONVERSION_BINARY) == [(True, [-63, -8193]), (False, [129, -8191])]


def test_parse_binary_add_of_empty_clause():
    assert parse_binary_proof(bytes([0x61, 0x00])) == [(False, [])]


def test_parse_binary_errors():
    with pytest.raises(BadPrefixError):
        parse_binary_proof(bytes([0x62, 0x00]))
    with pytest.raises(TruncatedRecordError):
        parse_binary_proof(bytes([0x61, 0x02]))
    with pytest.raises(TruncatedVarintError):
        parse_binary_proof(bytes([0x61, 0x80]))
    with pytest.raises(InvalidCodeError):
        parse_binary_proof(bytes([0x61, 0x01, 0x00]))


def test_serialize_plain_layout():
    assert serialize_plain([(False, [])]) == b"0\n"
    assert serialize_plain([(True, [])]) == b"d 0\n"
    two_steps = [(True, [-63, -8193]), (False, [129, -8191])]
    assert serialize_plain(two_steps) == CONVERSION_PLAIN
    assert len(CONVERSION_PLAIN) == 26


def test_serialize_plain_of_worked_example_drops_alignment_spaces():
    proof = parse_plain_proof(PAPER_PROOF)
    assert serialize_plain(proof) == b"-1 0\nd -1 2 4 0\n2 0\n0\n"


def test_serialize_binary_layout():
    two_steps = [(True, [-63, -8193]), (False, [129, -8191])]
    assert serialize_binary(two_steps) == CONVERSION_BINARY
    assert len(CONVERSION_BINARY) == 12
    assert serialize_binary([(False, [])]) == bytes([0x61, 0x00])
    assert serialize_binary([(False, [1])]) == bytes([0x61, 0x02, 0x00])


def test_plain_to_binary_conversion_is_a_fixed_point():
    binary = serialize_binary(parse_plain_proof(CONVERSION_PLAIN))
    assert binary == CONVERSION_BINARY
    plain = serialize_plain(parse_binary_proof(binary))
    assert plain == CONVERSION_PLAIN
    assert serialize_binary(parse_plain_proof(plain)) == binary


def test_detect_encoding_cases():
    assert detect_encoding(PAPER_PROOF.encode()) == PLAIN
    assert detect_encoding(CONVERSION_BINARY) == BINARY
    # all-printable input starting with 'd' stays plain
    assert detect_encoding(b"d 1 0\n") == PLAIN
    assert detect_encoding(b"") == PLAIN
    assert detect_encoding(b"  \n 1 0\n") == PLAIN
    assert detect_encoding(bytes([0x61, 0x02, 0x00])) == BINARY


def test_detect_encoding_keeps_a_long_plain_proof_starting_with_d_plain():
    text = b"\r\n d 1 2 0\n" + b"c comment\td\n-3 4 0\r\n" * 5000
    assert detect_encoding(text) == PLAIN


def test_detect_encoding_finds_a_late_non_text_byte():
    # one record of 48 literals whose codes are all printable bytes
    record = b"a" + bytes(range(0x20, 0x7F, 2)) + b"\x00"
    assert detect_encoding(record) == BINARY
    assert len(parse_binary_proof(record)[0][1]) == 48
    # only the last byte is neither 'a' nor 'd'
    data = b"a" + b"da" * 5000 + b"\x00"
    assert detect_encoding(data) == BINARY
    assert detect_encoding(b" \n" + data) == BINARY
    assert detect_encoding(b"1" + data) == PLAIN


def test_serialize_binary_peak_memory_stays_small():
    rng = random.Random(7)
    signs = (1, -1)
    proof = [(False, [v * rng.choice(signs) for v in rng.sample(range(1, 200), 10)]) for _ in range(4000)]
    tracemalloc.start()
    try:
        data = serialize_binary(proof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse_binary_proof(data) == proof
    assert peak < 2**20


step_strategy = st.tuples(
    st.booleans(),
    st.lists(st.integers(min_value=1, max_value=50000), unique=True, max_size=5).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs]).map(list)
    ),
)


@given(st.lists(step_strategy, max_size=8))
@settings(max_examples=200)
def test_proof_round_trips_preserve_order_and_kind(proof):
    assert parse_plain_proof(serialize_plain(proof)) == proof
    assert parse_binary_proof(serialize_binary(proof)) == proof


def test_size_reduction_on_moderate_literals():
    rng = random.Random(2024)
    plain_total = binary_total = 0
    for _ in range(60):
        proof = random_proof(rng, max_steps=20, max_var=8191, max_len=8)
        plain_total += len(serialize_plain(proof))
        binary_total += len(serialize_binary(proof))
    assert 2 <= plain_total / binary_total <= 4
