"""DRAT proof parsing, serialization and plain/binary conversion."""

from __future__ import annotations

import re

from .model import (
    ADD,
    DELETE,
    MAX_LITERAL,
    ClauseError,
    Memo,
    Proof,
    ProofStep,
    SourceClause,
    canonical_form,
    check_literal,
)
from .lexer import Lines

PLAIN = "plain"
BINARY = "binary"

ADD_PREFIX = 0x61  # 'a'
DELETE_PREFIX = 0x64  # 'd'

# Literal codes are bounded by map(-(2^31 - 1)) = 2^32 - 1, so any varint
# payload past 32 bits is out of range.
MAX_CODE = 2 * MAX_LITERAL + 1


class ProofError(ValueError):
    """Invalid DRAT input; line/offset refer to the input buffer."""

    def __init__(self, message: str, line: int = 0, offset: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.offset = offset

    def __str__(self) -> str:
        if self.line:
            return "line %d, byte %d: %s" % (self.line, self.offset, self.message)
        if self.offset:
            return "byte %d: %s" % (self.offset, self.message)
        return self.message


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
    while True:
        group = value & 0x7F
        value >>= 7
        if value:
            out.append(group | 0x80)
        else:
            out.append(group)
            return bytes(out)


def decode_varint(data, pos: int = 0) -> tuple[int, int]:
    """Decode one varint at pos; returns (value, bytes consumed)."""
    value = 0
    shift = 0
    consumed = 0
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


def parse_plain_proof(data) -> Proof:
    """Parse a plain-text DRAT proof into ordered add/delete steps."""
    reader = Lines(data, ProofError)
    steps: list[ProofStep] = []
    for delete, lits, where in reader.clauses(0, deletes=True):
        try:
            clause = SourceClause(tuple(lits), canonical_form(lits))
        except ClauseError as exc:
            raise reader.located(ProofError, str(exc), where) from exc
        steps.append(ProofStep(DELETE if delete else ADD, clause))
    if reader.unterminated is not None:
        message = "end of input inside a proof step (missing terminating 0)"
        raise reader.located(ProofError, message, reader.unterminated)
    return Proof(steps)


# A record is its prefix, its varints and a zero byte. A varint has at most
# five bytes and may end in a zero byte only after a continuation byte.
_RECORD = re.compile(rb"([ad])((?:[\x80-\xff]{1,4}[\x00-\x7f]|[\x01-\x7f])*)\x00")
_VARINT = re.compile(rb"[\x80-\xff]*[\x00-\x7f]")


def parse_binary_proof(data: bytes) -> Proof:
    """Parse a binary DRAT proof: 0x61/0x64 prefix, varint codes, 0x00 terminator."""
    literal = Memo(lambda varint: unmap_literal(decode_varint(varint)[0])).__getitem__
    steps: list[ProofStep] = []
    pos = 0
    while pos < len(data):
        # match at pos only: a search would retry at every later 'a'/'d' byte before failing
        record = _RECORD.match(data, pos)
        if record is None:
            _raise_record_error(data, pos)
        prefix, body = record.groups()
        try:
            lits = [*map(literal, _VARINT.findall(body))]
        except ProofError:
            _raise_record_error(data, pos)
        try:
            clause = SourceClause(tuple(lits), canonical_form(lits))
        except ClauseError as exc:
            raise ProofError(str(exc), offset=pos) from exc
        steps.append(ProofStep(ADD if prefix == b"a" else DELETE, clause))
        pos = record.end()
    return Proof(steps)


def _raise_record_error(data, start: int):
    """Decode the record at start, which holds an error, byte by byte and raise its first error."""
    if data[start] not in (ADD_PREFIX, DELETE_PREFIX):
        raise BadPrefixError("record prefix 0x%02x is neither 'a' nor 'd'" % data[start], offset=start)
    pos = start + 1
    while pos < len(data) and data[pos]:
        code, consumed = decode_varint(data, pos)
        unmap_literal(code)
        pos += consumed
    raise TruncatedRecordError("input ends inside a record (missing zero byte)", offset=start)


def serialize_plain(proof: Proof) -> bytes:
    """Write a proof as plain text, one step per line, single spaces."""
    lines = []
    for step in proof:
        fields = (["d"] if step.kind == DELETE else []) + [
            str(l) for l in step.clause.literals
        ] + ["0"]
        lines.append(" ".join(fields))
    return ("\n".join(lines) + "\n").encode("ascii") if lines else b""


def serialize_binary(proof: Proof) -> bytes:
    """Write a proof in the binary encoding, bit-exact with parse_binary_proof."""
    varint = Memo(lambda lit: encode_varint(map_literal(lit))).__getitem__
    out = bytearray()
    for step in proof:
        # one join per record: joining the whole proof at once costs a buffer per literal
        out += (b"d" if step.kind == DELETE else b"a") + b"".join(map(varint, step.clause.literals))
        out.append(0)
    return bytes(out)


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
