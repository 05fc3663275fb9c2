"""DIMACS CNF parsing."""

from __future__ import annotations

import re

from .lexer import Lines
from .model import MAX_LITERAL, ClauseError, LocatedError, raise_repeated_variable


class DimacsError(LocatedError):
    """Invalid DIMACS input, with the 1-based line and byte offset."""


class HeaderError(DimacsError):
    pass


class VarOutOfRangeError(DimacsError):
    pass


class ClauseCountError(DimacsError):
    pass


class UnterminatedClauseError(DimacsError):
    pass


class LiteralOverflowError(DimacsError):
    pass


_HEADER = re.compile(rb"[ \t]*p[ \t]+cnf[ \t]+([0-9]+)[ \t]+([0-9]+)[ \t]*")


def _parse_header(reader: Lines):
    """Return (var_max, num_cls, position of the line after the header)."""
    for pos, line in reader.lines():
        if line[:1] == b"c" or not line.strip(b" \t"):
            continue
        match = _HEADER.fullmatch(line)
        try:
            var_max, num_cls = int(match[1]), int(match[2])
        except (TypeError, ValueError):  # no match, or too many digits for int()
            if not re.match(rb"[ \t]*p(?:[ \t]|$)", line):
                raise reader.located(HeaderError, "expected 'p cnf' header before clauses", (pos, None))
            message = "malformed header %r" % line.decode("latin-1").strip()
            raise reader.located(HeaderError, message, (pos, None)) from None
        if var_max > MAX_LITERAL:
            message = "variable count %d exceeds 2^31 - 1" % var_max
            raise reader.located(HeaderError, message, (pos, None))
        return var_max, num_cls, pos + len(line) + 1
    raise HeaderError("no 'p cnf' header found")


def clause_records(data):
    """Yield each clause copy of a DIMACS CNF formula as its list of literals, in written order.

    Comment lines are skipped anywhere; blanks are space, tab, newline and a
    carriage return before a newline, so a clause may span lines and several
    clauses may share one line. Errors are raised in input order, and the
    header's clause count is checked last.
    """
    reader = Lines(data, DimacsError, LiteralOverflowError, VarOutOfRangeError)
    var_max, num_cls, body = _parse_header(reader)
    found = 0
    for _, lits, where in reader.clauses(body, var_max):
        if len(set(map(abs, lits))) != len(lits):
            try:
                raise_repeated_variable(lits)
            except ClauseError as exc:
                raise reader.located(DimacsError, str(exc), where) from exc
        found += 1
        yield lits
    if reader.unterminated is not None:
        message = "end of input inside a clause (missing terminating 0)"
        raise reader.located(UnterminatedClauseError, message, reader.unterminated)
    if found != num_cls:
        raise ClauseCountError("header declares %d clauses but %d were found" % (num_cls, found))


def parse_dimacs(data) -> list:
    """Parse a DIMACS CNF formula into its clause_records: duplicate clauses are separate copies."""
    return list(clause_records(data))
