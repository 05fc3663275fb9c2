"""Shared domain types: literals, clauses, formulas, check reports."""

from __future__ import annotations

from itertools import chain

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
    """A clause violates the syntax restrictions."""


class TautologyError(ClauseError):
    """Clause contains a literal and its negation."""


class DuplicateLiteralError(ClauseError):
    """Clause contains the same literal twice."""


class LiteralRangeError(ClauseError):
    """Literal is zero or outside the 31-bit variable range."""


def check_literal(lit: int) -> int:
    if lit == 0:
        raise LiteralRangeError("literal 0 is reserved as the clause terminator")
    if not -MAX_LITERAL <= lit <= MAX_LITERAL:
        raise LiteralRangeError("literal %d out of range" % lit)
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


class SourceClause(_Value):
    """A clause as written, plus its canonical (sorted) form.

    The textual order matters to the checker: the first written literal is
    the resolution pivot. Everything else (deletion matching, formula
    storage) works on the canonical form.
    """

    __slots__ = ("literals", "canonical")

    def __init__(self, literals: tuple[int, ...], canonical: tuple[int, ...]):
        self.literals = literals
        self.canonical = canonical

    def __len__(self) -> int:
        return len(self.literals)


def canonical_form(literals) -> tuple[int, ...]:
    """The literals sorted by variable.

    Raises TautologyError or DuplicateLiteralError on the two clause syntax
    violations; the first offending pair in canonical order (ascending
    variable, positive literal first) is named.
    """
    if len(set(map(abs, literals))) != len(literals):
        ordered = sorted(literals, key=lambda lit: (abs(lit), lit < 0))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise DuplicateLiteralError("duplicate literal %d" % a)
            if a == -b:
                raise TautologyError("complementary literals %d and %d" % (a, b))
    # with one literal per variable, sorting by variable is the canonical order
    return tuple(sorted(literals, key=abs))


def normalize_clause(literals) -> SourceClause:
    """Validate a literal sequence and attach its canonical form.

    Raises the errors of canonical_form, and LiteralRangeError on
    out-of-range literals.
    """
    original = tuple(literals)
    for lit in original:
        check_literal(lit)
    return SourceClause(original, canonical_form(original))


def checked_records(records):
    """Yield hand-built (delete, literals) records once they pass normalize_clause's checks.

    The errors are normalize_clause's, but a valid record costs one set of
    its variables and no sort, as in the readers.
    """
    for delete, lits in records:
        variables = set(map(abs, lits))
        if 0 in variables or max(variables, default=0) > MAX_LITERAL:
            for lit in lits:
                check_literal(lit)
        if len(variables) != len(lits):
            canonical_form(lits)
        yield delete, lits


def format_clause(literals) -> str:
    lits = tuple(literals)
    if not lits:
        return "(empty)"
    return "(" + " ".join(str(l) for l in lits) + ")"


class Formula:
    """A multiset of canonical clauses.

    Duplicate clauses are distinct copies; deletion removes one copy.
    """

    def __init__(self, declared_vars: int = 0, declared_clauses: int = 0):
        self.declared_vars = declared_vars
        self.declared_clauses = declared_clauses
        self._counts: dict[tuple[int, ...], int] = {}
        self._size = 0

    @classmethod
    def from_clauses(cls, clause_literals, declared_vars=None, declared_clauses=None) -> "Formula":
        counts: dict[tuple[int, ...], int] = {}
        for lits in clause_literals:
            clause = normalize_clause(lits).canonical
            counts[clause] = counts.get(clause, 0) + 1
        formula = cls.from_counts(counts)
        formula.declared_vars = formula.max_variable() if declared_vars is None else declared_vars
        formula.declared_clauses = len(formula) if declared_clauses is None else declared_clauses
        return formula

    @classmethod
    def from_counts(cls, counts, declared_vars: int = 0, declared_clauses: int = 0) -> "Formula":
        """A formula owning counts, a dict of canonical clause -> number of copies."""
        formula = cls(declared_vars, declared_clauses)
        formula._counts = counts
        formula._size = sum(counts.values())
        return formula

    def add_clause(self, clause: tuple[int, ...]) -> None:
        self._counts[clause] = self._counts.get(clause, 0) + 1
        self._size += 1

    def remove_clause(self, clause: tuple[int, ...]) -> bool:
        """Remove one copy; False if the clause is not present."""
        count = self._counts.get(clause, 0)
        if count == 0:
            return False
        if count == 1:
            del self._counts[clause]
        else:
            self._counts[clause] = count - 1
        self._size -= 1
        return True

    def count(self, clause: tuple[int, ...]) -> int:
        return self._counts.get(clause, 0)

    def __contains__(self, clause) -> bool:
        return tuple(clause) in self._counts

    def __len__(self) -> int:
        return self._size

    def clauses(self):
        """All clause copies, duplicates included."""
        for clause, count in self._counts.items():
            for _ in range(count):
                yield clause

    def clause_counts(self) -> dict[tuple[int, ...], int]:
        return dict(self._counts)

    def clauses_with(self, lit: int):
        """Distinct clauses containing lit, in insertion order."""
        return [clause for clause in self._counts if lit in clause]

    def max_variable(self) -> int:
        return max(map(abs, chain.from_iterable(self._counts)), default=0)

    def __repr__(self) -> str:
        return "Formula(%d vars, %d clauses)" % (self.declared_vars, self._size)


class DeletionWarning(_Value):
    __slots__ = ("step", "kind", "clause")

    def __init__(self, step: int, kind: str, clause: SourceClause):
        self.step = step  # 1-based proof line
        self.kind = kind  # WARN_DELETED_MISSING or WARN_UNIT_DELETION
        self.clause = clause


class CheckReport(_Value):
    """Outcome of checking a proof against a formula.

    verdict is VERIFIED, REJECTED or NO_EMPTY_CLAUSE. On rejection, step
    holds the 1-based index of the failing line and the remaining fields
    describe the failed check: the offending clause, the pivot literal and
    the first resolvent whose propagation check did not conflict.
    """

    __slots__ = ("verdict", "warnings", "step", "reason", "clause", "pivot", "failed_resolvent")

    def __init__(self, verdict: str, warnings: list[DeletionWarning] | None = None,
                 step: int | None = None, reason: str | None = None, clause: SourceClause | None = None,
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
