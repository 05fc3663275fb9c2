"""Shared domain types: literals, clause checks, check reports."""

from __future__ import annotations

# DIMACS variable indices fit in a signed 32-bit int; 0 is the clause terminator.
MAX_LITERAL = 2**31 - 1

VERIFIED = "verified"
REJECTED = "rejected"
NO_EMPTY_CLAUSE = "no-empty-clause"

WARN_DELETED_MISSING = "deleted-clause-missing"
WARN_UNIT_DELETION = "unit-deletion-ignored"


class LocatedError(ValueError):
    """Invalid input at a 1-based line, 0 if none, and a 0-based byte offset, None if unknown."""

    def __init__(self, message: str, line: int = 0, offset: int | None = None):
        super().__init__(message)
        self.message, self.line, self.offset = message, line, offset

    def __str__(self) -> str:
        if self.line:
            return "line %d, byte %d: %s" % (self.line, self.offset, self.message)
        if self.offset is not None:
            return "byte %d: %s" % (self.offset, self.message)
        return self.message


class ClauseError(ValueError):
    """A hand-built clause has a literal 0, a literal outside the 31-bit range or a repeated variable."""


def check_literal(lit: int) -> int:
    if lit == 0:
        raise ClauseError("literal 0 is reserved as the clause terminator")
    if not -MAX_LITERAL <= lit <= MAX_LITERAL:
        raise ClauseError("literal %d out of range" % lit)
    return lit


class Memo(dict):
    """A dict that fills a missing key with function(key), which may also fill other keys."""

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


class _Value:
    """Equality, hash and repr by field, for classes whose __slots__ are their fields.

    A class with a list field is unhashable, as hashing its fields fails.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)


def repeated_variable(literals) -> str:
    """The error message for literals in which a variable repeats.

    The first offending pair in canonical order (ascending variable,
    positive literal first) is named.
    """
    ordered = sorted(literals, key=lambda lit: (abs(lit), lit < 0))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            return "duplicate literal %d" % a
        if a == -b:
            return "complementary literals %d and %d" % (a, b)


def checked_clause(lits):
    """The literals, once they pass the readers' checks: a ClauseError for 0, a
    literal outside the 31-bit range or a repeated variable, named as the
    readers name it. A valid clause costs one set of its variables and no sort."""
    variables = set(map(abs, lits))
    if 0 in variables or max(variables, default=0) > MAX_LITERAL:
        for lit in lits:
            check_literal(lit)
    if len(variables) != len(lits):
        raise ClauseError(repeated_variable(lits))
    return lits


def checked_records(records):
    """Yield hand-built (delete, literals) records once their literals pass checked_clause."""
    for delete, lits in records:
        yield delete, checked_clause(lits)


def format_clause(literals) -> str:
    lits = tuple(literals)
    if not lits:
        return "(empty)"
    return "(" + " ".join(str(l) for l in lits) + ")"


class Formula:
    """A multiset of clause tuples; deletion removes one copy.

    Nothing in the package builds one: a formula is its clause list. It stays
    because perfbench/traced.py wraps these three methods, which
    tests/test_benchmark_contract.py pins, and the CI traced step fails if
    the model.* metrics they feed go missing.
    """

    def __init__(self):
        self._counts: dict[tuple[int, ...], int] = {}

    def add_clause(self, clause: tuple[int, ...]) -> None:
        self._counts[clause] = self._counts.get(clause, 0) + 1

    def remove_clause(self, clause: tuple[int, ...]) -> bool:
        """Remove one copy; False if the clause is not present."""
        count = self._counts.get(clause, 0)
        if count == 0:
            return False
        if count == 1:
            del self._counts[clause]
        else:
            self._counts[clause] = count - 1
        return True

    def clauses_with(self, lit: int):
        """Distinct clauses containing lit, in insertion order."""
        return [clause for clause in self._counts if lit in clause]


class DeletionWarning(_Value):
    __slots__ = ("step", "kind", "clause")

    def __init__(self, step: int, kind: str, clause: tuple[int, ...]):
        self.step = step  # 1-based proof line
        self.kind = kind  # WARN_DELETED_MISSING or WARN_UNIT_DELETION
        self.clause = clause  # the literals as written


class CheckReport(_Value):
    """Outcome of checking a proof against a formula.

    verdict is VERIFIED, REJECTED or NO_EMPTY_CLAUSE. On rejection, step
    holds the 1-based index of the failing line and the remaining fields
    describe the failed check: the offending clause's literals as written,
    the pivot literal and the first resolvent whose propagation check did
    not conflict.
    """

    __slots__ = ("verdict", "warnings", "step", "reason", "clause", "pivot", "failed_resolvent")

    def __init__(self, verdict: str, warnings: list[DeletionWarning] | None = None,
                 step: int | None = None, reason: str | None = None, clause: tuple[int, ...] | None = None,
                 pivot: int | None = None, failed_resolvent: tuple[int, ...] | None = None):
        self.verdict = verdict
        self.warnings = [] if warnings is None else warnings
        self.step = step
        self.reason = reason
        self.clause = clause
        self.pivot = pivot
        self.failed_resolvent = failed_resolvent

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED
