"""dratcheck: forward DRAT proof checking and plain/binary proof conversion."""

from .model import (
    MAX_LITERAL,
    NO_EMPTY_CLAUSE,
    REJECTED,
    VERIFIED,
    WARN_DELETED_MISSING,
    WARN_UNIT_DELETION,
    CheckReport,
    DeletionWarning,
    Formula,
    SourceClause,
    normalize_clause,
)
from .dimacs import DimacsError, parse_dimacs
from .proofio import (
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
from .checker import CheckerState, check_proof

__all__ = [
    "MAX_LITERAL",
    "NO_EMPTY_CLAUSE",
    "REJECTED",
    "VERIFIED",
    "WARN_DELETED_MISSING",
    "WARN_UNIT_DELETION",
    "CheckReport",
    "CheckerState",
    "DeletionWarning",
    "DimacsError",
    "Formula",
    "ProofError",
    "SourceClause",
    "check_proof",
    "decode_varint",
    "encode_varint",
    "map_literal",
    "normalize_clause",
    "parse_binary_proof",
    "parse_dimacs",
    "parse_plain_proof",
    "serialize_binary",
    "serialize_plain",
    "unmap_literal",
]

__version__ = "0.1.0"
