"""DIMACS CNF parsing."""

from __future__ import annotations

import re

from .lexer import Lines
from .model import MAX_LITERAL, LocatedError


class DimacsError(LocatedError):
    """Invalid DIMACS input, with the 1-based line and byte offset; the message names the kind."""


_HEADER = re.compile(rb"[ \t]*p[ \t]+cnf[ \t]+([0-9]+)[ \t]+([0-9]+)[ \t]*")


def _parse_header(reader: Lines):
    """Read up to the header line and return (var_max, num_cls)."""
    for where, line in reader.lines():
        if line[:1] == b"c" or not line.strip(b" \t"):
            continue
        match = _HEADER.fullmatch(line)
        try:
            var_max, num_cls = int(match[1]), int(match[2])
        except (TypeError, ValueError):  # no match, or too many digits for int()
            if not re.match(rb"[ \t]*p(?:[ \t]|$)", line):
                raise reader.located("expected 'p cnf' header before clauses", where)
            message = "malformed header %r" % line.decode("latin-1").strip()
            raise reader.located(message, where) from None
        if var_max > MAX_LITERAL:
            raise reader.located("variable count %d exceeds 2^31 - 1" % var_max, where)
        return var_max, num_cls
    raise DimacsError("no 'p cnf' header found")


def clause_records(data, code=None):
    """Yield each clause copy of a DIMACS formula (bytes or a binary file) in written order, as its literal
    list or, given a CheckerState's code map, as one batch per run for its _store: its clauses' code lists.

    Comment lines are skipped anywhere; blanks are space, tab, newline and a
    carriage return before a newline, so a clause may span lines and several
    clauses may share one line. Errors are raised in input order, and the
    header's clause count is checked last.
    """
    reader = Lines(data, DimacsError)
    var_max, num_cls = _parse_header(reader)
    found = yield from reader.clauses(var_max, code=code)
    if found != num_cls:
        raise DimacsError("header declares %d clauses but %d were found" % (num_cls, found))


def parse_dimacs(data) -> list:
    """Parse a DIMACS CNF formula into its clause_records: duplicate clauses are separate copies."""
    return list(clause_records(data))
