"""DRAT proof parsing, serialization and plain/binary conversion."""

from __future__ import annotations

import re

from .model import MAX_LITERAL, LocatedError, Memo, check_literal, checked_records, repeated_variable
from .lexer import BLOCK_BYTES, Lines, binary_file

PLAIN = "plain"
BINARY = "binary"

# Literal codes are bounded by map(-(2^31 - 1)) = 2^32 - 1, so any varint
# payload past 32 bits is out of range.
MAX_CODE = 2 * MAX_LITERAL + 1


class ProofError(LocatedError):
    """Invalid DRAT input; line/offset refer to the input, and the message names the kind."""


def map_literal(lit: int) -> int:
    """Map a signed DIMACS literal to its unsigned binary code."""
    check_literal(lit)
    return 2 * lit if lit > 0 else -2 * lit + 1


def unmap_literal(code: int) -> int:
    """Inverse of map_literal."""
    if code < 2:
        raise ProofError("literal code %d is reserved" % code)
    if code > MAX_CODE:
        raise ProofError("literal code %d out of range" % code)
    return code // 2 if code % 2 == 0 else -(code - 1) // 2


def encode_varint(value: int) -> bytes:
    """Variable-byte encoding: 7-bit groups, LSB group first, MSB marks continuation."""
    if value < 0:
        raise ValueError("varint value must be non-negative")
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_varint(data, pos: int = 0) -> tuple[int, int]:
    """Decode one varint at pos; returns (value, bytes consumed)."""
    value = shift = consumed = 0
    while True:
        if pos + consumed >= len(data):
            raise ProofError("input ends inside a varint", offset=pos)
        byte = data[pos + consumed]
        consumed += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if consumed == 5:
            raise ProofError("varint longer than 5 bytes", offset=pos)
    if value > MAX_CODE:
        raise ProofError("varint value %d out of literal range" % value, offset=pos)
    return value, consumed


def plain_records(data):
    """Yield (delete, literals) per step of a plain proof (bytes or a binary file) that passed every check."""
    yield from Lines(data, ProofError).clauses(deletes=True)


_VARINT = re.compile(rb"[\x80-\xff]*[\x00-\x7f]")
_END = re.compile(rb"[\x00-\x7f]\x00")  # a record, valid or not, ends at its first zero byte after one below 0x80
_CODES = re.compile(rb"[\x02-\x7f]*")  # a run of one-byte varints, each a valid literal code


def binary_records(data):
    """Yield (delete, literals) per checked record, each found by its end, of a binary proof (bytes or a file)."""
    literal = Memo(lambda varint: unmap_literal(decode_varint(varint)[0])).__getitem__
    source = binary_file(data)
    buffer, base = b"", 0  # the bytes after the last whole record read, and their offset
    # a record longer than a read makes the next read as long, so that each byte is copied O(1) times
    while chunk := source.read(max(BLOCK_BYTES, len(buffer))):
        buffer, pos = buffer + chunk, 0
        while end := _END.search(buffer, pos):
            if buffer[pos] not in b"ad":
                _raise_record_error(buffer, pos, base)
            try:
                lits = [*map(literal, _VARINT.findall(buffer, pos + 1, end.start() + 1))]
            except ProofError:
                _raise_record_error(buffer, pos, base)
            if len(set(map(abs, lits))) != len(lits):
                raise ProofError(repeated_variable(lits), offset=base + pos)
            yield buffer[pos] == 0x64, lits  # 0x64 is 'd'
            pos = end.end()
        if buffer[pos : pos + 1] not in b"ad":  # no read can make this a record
            _raise_record_error(buffer, pos, base)
        buffer, base = buffer[pos:], base + pos
    if buffer:
        _raise_record_error(buffer, 0, base)


def _raise_record_error(data, start: int, base: int):
    """Raise the first error of the record at start; data starts at offset base. Each run of one-byte varints
    with valid codes is skipped by one match, and only the varint after it is decoded in Python."""
    if data[start] not in b"ad":
        raise ProofError("record prefix 0x%02x is neither 'a' nor 'd'" % data[start], offset=base + start)
    pos = _CODES.match(data, start + 1).end()
    while pos < len(data) and data[pos]:
        try:
            code, consumed = decode_varint(data, pos)
            unmap_literal(code)
        except ProofError as exc:
            exc.offset = base + pos
            raise
        pos = _CODES.match(data, pos + consumed).end()
    raise ProofError("input ends inside a record (missing zero byte)", offset=base + start)


def parse_plain_proof(data) -> list:
    """Parse a plain-text DRAT proof into its (delete, literals) records, in order."""
    return list(plain_records(data))


def parse_binary_proof(data: bytes) -> list:
    """Parse a binary DRAT proof: 0x61/0x64 prefix, varint codes, 0x00 terminator."""
    return list(binary_records(data))


def write_records(records, encoding: str):
    """Yield (delete, literals) records in the encoding, plain text one step per line with single spaces,
    in blocks of whole records; every block but the last reaches BLOCK_BYTES."""
    if encoding == BINARY:
        literal = Memo(lambda lit: encode_varint(map_literal(lit))).__getitem__
        add, delete, end = b"a", b"d", b"\x00"
    else:
        literal = Memo(lambda lit: b"%d " % lit).__getitem__
        add, delete, end = b"", b"d ", b"0\n"
    out = bytearray()
    for deleted, lits in records:
        # one join per record: joining the whole proof at once costs a buffer per literal
        out += (delete if deleted else add) + b"".join(map(literal, lits)) + end
        if len(out) >= BLOCK_BYTES:
            yield out
            out = bytearray()
    yield out


def serialize_plain(records) -> bytes:
    """Write (delete, literals) records as plain text, one step per line, single spaces."""
    return b"".join(write_records(checked_records(records), PLAIN))


def serialize_binary(records) -> bytes:
    """Write (delete, literals) records in the binary encoding, bit-exact with parse_binary_proof."""
    return b"".join(write_records(checked_records(records), BINARY))


def detect_encoding(data: bytes) -> str:
    """Guess PLAIN or BINARY from the first BLOCK_BYTES bytes of data.

    Binary proofs start with an 'a'/'d' record prefix, but those bytes are
    also ordinary text, so binary is assumed only when the prefix also holds
    a zero byte outside a line that starts with 'c': every binary record
    ends in one, and a plain proof may hold one only in a comment line.
    """
    prefix = data[:BLOCK_BYTES]
    lines = prefix.split(b"\n")
    if prefix.lstrip(b" \t\n\r")[:1] in (b"a", b"d") and any(b"\x00" in line and line[:1] != b"c" for line in lines):
        return BINARY
    return PLAIN
