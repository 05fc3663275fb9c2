"""DRAT proof parsing, serialization and plain/binary conversion."""

from __future__ import annotations

from .model import (
    ADD,
    DELETE,
    MAX_LITERAL,
    ClauseError,
    Proof,
    ProofStep,
    SourceClause,
    canonical_form,
    check_literal,
    normalize_clause,
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


def parse_binary_proof(data: bytes) -> Proof:
    """Parse a binary DRAT proof: 0x61/0x64 prefix, varint codes, 0x00 terminator."""
    steps: list[ProofStep] = []
    pos = 0
    size = len(data)
    while pos < size:
        prefix = data[pos]
        record_start = pos
        if prefix == ADD_PREFIX:
            kind = ADD
        elif prefix == DELETE_PREFIX:
            kind = DELETE
        else:
            raise BadPrefixError(
                "record prefix 0x%02x is neither 'a' nor 'd'" % prefix, offset=pos
            )
        pos += 1
        literals: list[int] = []
        while True:
            if pos >= size:
                raise TruncatedRecordError(
                    "input ends inside a record (missing zero byte)", offset=record_start
                )
            if data[pos] == 0:
                pos += 1
                break
            code, consumed = decode_varint(data, pos)
            literals.append(unmap_literal(code))
            pos += consumed
        try:
            clause = normalize_clause(literals)
        except ClauseError as exc:
            raise ProofError(str(exc), offset=record_start) from exc
        steps.append(ProofStep(kind, clause))
    return Proof(steps)


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
    out = bytearray()
    for step in proof:
        out.append(DELETE_PREFIX if step.kind == DELETE else ADD_PREFIX)
        for lit in step.clause.literals:
            out += encode_varint(map_literal(lit))
        out.append(0)
    return bytes(out)


_PLAIN_BYTES = frozenset(range(0x20, 0x7F)) | {0x09, 0x0A, 0x0D}


def detect_encoding(data: bytes) -> str:
    """Guess PLAIN or BINARY from the buffer content.

    Binary proofs start with an 'a'/'d' record prefix, but those bytes are
    also ordinary text, so binary is assumed only when the buffer contains
    bytes no plain proof could contain.
    """
    first = next((b for b in data if b not in (0x20, 0x09, 0x0A, 0x0D)), None)
    if first in (ADD_PREFIX, DELETE_PREFIX) and any(b not in _PLAIN_BYTES for b in data):
        return BINARY
    return PLAIN
