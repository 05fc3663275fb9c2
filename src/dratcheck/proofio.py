"""DRAT proof parsing, serialization and plain/binary conversion."""

from __future__ import annotations

import re

from .model import MAX_LITERAL, ClauseError, LocatedError, Memo, canonical_form, check_literal, checked_records
from .lexer import Lines

PLAIN = "plain"
BINARY = "binary"

# Literal codes are bounded by map(-(2^31 - 1)) = 2^32 - 1, so any varint
# payload past 32 bits is out of range.
MAX_CODE = 2 * MAX_LITERAL + 1


class ProofError(LocatedError):
    """Invalid DRAT input; line/offset refer to the input buffer."""


class TruncatedVarintError(ProofError):
    pass


class VarintOverflowError(ProofError):
    pass


class InvalidCodeError(ProofError):
    pass


class BadPrefixError(ProofError):
    pass


class TruncatedRecordError(ProofError):
    pass


def map_literal(lit: int) -> int:
    """Map a signed DIMACS literal to its unsigned binary code."""
    check_literal(lit)
    return 2 * lit if lit > 0 else -2 * lit + 1


def unmap_literal(code: int) -> int:
    """Inverse of map_literal."""
    if code < 2:
        raise InvalidCodeError("literal code %d is reserved" % code)
    if code > MAX_CODE:
        raise InvalidCodeError("literal code %d out of range" % code)
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
            raise TruncatedVarintError("input ends inside a varint", offset=pos)
        byte = data[pos + consumed]
        consumed += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if consumed == 5:
            raise VarintOverflowError("varint longer than 5 bytes", offset=pos)
    if value > MAX_CODE:
        raise VarintOverflowError("varint value %d out of literal range" % value, offset=pos)
    return value, consumed


def plain_records(data):
    """Yield (delete, literals) for each step of a plain-text proof once it has passed every check."""
    reader = Lines(data, ProofError)
    for delete, lits, where in reader.clauses(0, deletes=True):
        if len(set(map(abs, lits))) != len(lits):
            try:
                canonical_form(lits)
            except ClauseError as exc:
                raise reader.located(ProofError, str(exc), where) from exc
        yield delete, lits
    if reader.unterminated is not None:
        message = "end of input inside a proof step (missing terminating 0)"
        raise reader.located(ProofError, message, reader.unterminated)


# A record is its prefix, its varints and a zero byte. A varint has at most
# five bytes and may end in a zero byte only after a continuation byte.
_RECORD = re.compile(rb"([ad])((?:[\x80-\xff]{1,4}[\x00-\x7f]|[\x01-\x7f])*)\x00")
_VARINT = re.compile(rb"[\x80-\xff]*[\x00-\x7f]")


def binary_records(data: bytes):
    """Yield (delete, literals) for each record of a binary proof once it has passed every check."""
    literal = Memo(lambda varint: unmap_literal(decode_varint(varint)[0])).__getitem__
    pos = 0
    while pos < len(data):
        # match at pos only: a search would retry at every later 'a'/'d' byte before failing
        record = _RECORD.match(data, pos)
        if record is None:
            _raise_record_error(data, pos)
        try:
            lits = [*map(literal, _VARINT.findall(record[2]))]
        except ProofError:
            _raise_record_error(data, pos)
        if len(set(map(abs, lits))) != len(lits):
            try:
                canonical_form(lits)
            except ClauseError as exc:
                raise ProofError(str(exc), offset=pos) from exc
        yield record[1] == b"d", lits
        pos = record.end()


def _raise_record_error(data, start: int):
    """Decode the record at start, which holds an error, byte by byte and raise its first error."""
    if data[start] not in b"ad":
        raise BadPrefixError("record prefix 0x%02x is neither 'a' nor 'd'" % data[start], offset=start)
    pos = start + 1
    while pos < len(data) and data[pos]:
        code, consumed = decode_varint(data, pos)
        try:
            unmap_literal(code)
        except InvalidCodeError as exc:
            exc.offset = pos
            raise
        pos += consumed
    raise TruncatedRecordError("input ends inside a record (missing zero byte)", offset=start)


def parse_plain_proof(data) -> list:
    """Parse a plain-text DRAT proof into its (delete, literals) records, in order."""
    return list(plain_records(data))


def parse_binary_proof(data: bytes) -> list:
    """Parse a binary DRAT proof: 0x61/0x64 prefix, varint codes, 0x00 terminator."""
    return list(binary_records(data))


def write_records(records, encoding: str) -> bytearray:
    """(delete, literals) records in the encoding; plain text has one step per line, single spaces."""
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
    return out


def serialize_plain(records) -> bytes:
    """Write (delete, literals) records as plain text, one step per line, single spaces."""
    return bytes(write_records(checked_records(records), PLAIN))


def serialize_binary(records) -> bytes:
    """Write (delete, literals) records in the binary encoding, bit-exact with parse_binary_proof."""
    return bytes(write_records(checked_records(records), BINARY))


_BLANKS = re.compile(rb"[ \t\n\r]*")
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def detect_encoding(data: bytes) -> str:
    """Guess PLAIN or BINARY from the buffer content.

    Binary proofs start with an 'a'/'d' record prefix, but those bytes are
    also ordinary text, so binary is assumed only when the buffer contains
    bytes no plain proof could contain.
    """
    start = _BLANKS.match(data).end()
    if data[start : start + 1] in (b"a", b"d") and data.translate(None, _PLAIN_BYTES):
        return BINARY
    return PLAIN
