"""Forward DRAT checking: unit propagation, AT/RAT tests, add/delete replay."""

from __future__ import annotations

from .model import (
    NO_EMPTY_CLAUSE,
    REJECTED,
    VERIFIED,
    WARN_DELETED_MISSING,
    WARN_UNIT_DELETION,
    CheckReport,
    DeletionWarning,
    Formula,
    Memo,
    Proof,
    SourceClause,
    canonical_form,
    format_clause,
    normalize_clause,
    step_records,
)

TRUE, FALSE, UNASSIGNED = 1, -1, 0


class CheckerState:
    """Mutable checking state: the clause multiset plus propagation structures.

    Variables are renumbered densely in the order they are first seen, and a
    literal of the i-th variable is held as the code 2i (positive) or 2i+1
    (negative), so negation is ``code ^ 1`` and every per-literal structure
    is a list indexed by code. Memory thus follows the number of distinct
    variables, not the largest literal value.

    The formula given is only read. Each distinct non-empty clause gets one
    id while at least one copy is present; duplicate copies share it, since
    propagation cannot tell them apart. An id holds the canonical tuple, used
    for RAT candidates and trace text, its copy count, and a code list whose
    two watched literals sit in positions 0 and 1. Unit clauses are never
    watched, as unit deletions are ignored: their codes are asserted at the
    start of every propagation. Copies of the empty clause turn every
    propagation into a conflict.
    """

    def __init__(self, formula: Formula, trace=None):
        self.trace = trace
        self._code = Memo(self._new_variable)  # signed literal -> code
        self._values: list[int] = []  # by code: TRUE, FALSE or UNASSIGNED
        self._watches: list[list[int]] = []  # by code: ids watching it
        # by code: ids containing it, oldest first; built by the first RAT stage
        self._occurs: list[list[int]] | None = None
        self._clauses: list[tuple[int, ...] | None] = []  # by id: canonical clause
        self._lits: list[list[int] | None] = []  # by id: codes, watches first
        self._ids: dict[tuple[int, ...], int] = {}  # canonical clause -> id
        self._copies: list[int] = []  # by id: number of copies present
        self._units: list[int] = []
        self._trail: list[int] = []
        self._empty_copies = formula._counts.get((), 0)
        self._attach(formula._counts)

    # -- clause bookkeeping ------------------------------------------------

    def _new_variable(self, lit: int) -> int:
        """Give the variable of lit, seen for the first time, its two codes."""
        first = len(self._values)
        self._code[abs(lit)], self._code[-abs(lit)] = first, first + 1
        self._values += (UNASSIGNED, UNASSIGNED)
        self._watches += ([], [])
        if self._occurs is not None:
            self._occurs += ([], [])
        return self._code[lit]

    def _codes(self, literals) -> list[int]:
        return [*map(self._code.__getitem__, literals)]

    def _attach(self, counts) -> None:
        # counts: clause -> copies, for clauses with none yet; the empty clause is skipped
        ids, occurs, watches, units = self._ids, self._occurs, self._watches, self._units
        add_clause, add_codes, add_copies = self._clauses.append, self._lits.append, self._copies.append
        code_of = self._code.__getitem__
        cid = len(self._clauses)
        for clause, copies in counts.items():
            if not clause:
                continue
            codes = [*map(code_of, clause)][:]  # a slice is allocated at its exact size
            ids[clause] = cid
            add_clause(clause)
            add_codes(codes)
            add_copies(copies)
            if occurs is not None:
                for c in codes:
                    occurs[c].append(cid)
            if len(codes) == 1:
                units.append(codes[0])
            else:
                watches[codes[0]].append(cid)
                watches[codes[1]].append(cid)
            cid += 1

    def _occurrences(self) -> list[list[int]]:
        """The occurrence lists, built in id order on first use."""
        if self._occurs is None:
            self._occurs = [[] for _ in self._values]
            for cid, codes in enumerate(self._lits):
                for code in codes or ():
                    self._occurs[code].append(cid)
        return self._occurs

    def _detach_copy(self, clause: tuple[int, ...]) -> bool:
        # remove one copy; False if none is present. Units never reach here
        if not clause:
            present = self._empty_copies > 0
            self._empty_copies -= present
            return present
        cid = self._ids.get(clause)
        if cid is None:
            return False
        self._copies[cid] -= 1
        if not self._copies[cid]:
            del self._ids[clause]
            codes = self._lits[cid]
            if self._occurs is not None:
                for code in codes:
                    self._occurs[code].remove(cid)
            self._watches[codes[0]].remove(cid)
            self._watches[codes[1]].remove(cid)
            self._clauses[cid] = self._lits[cid] = None
        return True

    # -- unit propagation ----------------------------------------------------

    def propagate(self, assumptions=()) -> bool:
        """Run unit propagation under the assumptions; True means conflict.

        The assignment is fully undone before returning, so the call has no
        observable effect on the state. Contradictory assumptions count as
        a conflict.
        """
        return self._conflict(self._codes(assumptions))

    def _conflict(self, assumed: list[int]) -> bool:
        if self._empty_copies:
            return True
        values, trail = self._values, self._trail
        conflict = False
        for code in assumed + self._units:
            value = values[code]
            if value == FALSE:
                conflict = True
                break
            if value == UNASSIGNED:
                values[code], values[code ^ 1] = TRUE, FALSE
                trail.append(code)
        if not conflict:
            conflict = self._propagate_watches()
        for code in trail:
            values[code] = values[code ^ 1] = UNASSIGNED
        trail.clear()
        return conflict

    def _propagate_watches(self) -> bool:
        values, trail, watches, lits_of = self._values, self._trail, self._watches, self._lits
        for assigned in trail:  # also visits the codes appended below
            falsified = assigned ^ 1
            watchers = watches[falsified]
            if not watchers:
                continue
            kept: list[int] = []
            for cid in watchers:
                lits = lits_of[cid]
                other = lits[0]
                if other == falsified:
                    # swapping stored objects keeps the code lists sharing
                    # the ints held in _code, where a fresh int would not
                    other = lits[1]
                    lits[0], lits[1] = other, lits[0]
                if values[other] == TRUE:
                    kept.append(cid)
                    continue
                for k in range(2, len(lits)):
                    lit = lits[k]
                    if values[lit] != FALSE:
                        # move this watch from the falsified literal to lit
                        lits[1], lits[k] = lit, lits[1]
                        watches[lit].append(cid)
                        break
                else:
                    kept.append(cid)
                    if values[other] == FALSE:
                        kept += watchers[watchers.index(cid) + 1 :]
                        watches[falsified] = kept
                        return True
                    values[other], values[other ^ 1] = TRUE, FALSE
                    trail.append(other)
            watches[falsified] = kept
        return False

    # -- redundancy checks ---------------------------------------------------

    def check_at(self, literals) -> bool:
        """Does propagating the clause's negation yield a conflict?"""
        return self._conflict([code ^ 1 for code in self._codes(literals)])

    def check_rat(self, clause: SourceClause):
        """AT check first, then resolvents on the first written literal.

        Returns (ok, pivot, failed_resolvent): pivot and failed_resolvent
        are None unless the resolvent stage ran and failed.
        """
        if self.check_at(clause.canonical):
            self._note("AT check passed for %s", clause.literals)
            return True, None, None
        pivot = clause.literals[0]
        self._note("AT failed for %s; RAT check with pivot %d", clause.literals, pivot)
        own = set(clause.canonical)
        for cid in self._occurrences()[self._code[-pivot]]:
            other = self._clauses[cid]
            rest = [lit for lit in other if lit != -pivot]
            if any(-lit in own for lit in rest):
                self._note("resolvent with %s is a tautology, trivially redundant", other)
                continue
            resolvent = tuple(clause.literals) + tuple(
                lit for lit in rest if lit not in own
            )
            if self.check_at(resolvent):
                self._note("resolvent %s (with %s): AT passed", resolvent, other)
            else:
                self._note("resolvent %s (with %s): AT failed", resolvent, other)
                return False, pivot, resolvent
        return True, pivot, None

    # -- proof steps -----------------------------------------------------------

    def apply_add(self, clause: SourceClause, step: int) -> CheckReport | None:
        """Check and add one clause; on failure returns the rejecting report instead."""
        if not clause.canonical:
            if not self.check_at(()):
                return CheckReport(REJECTED, step=step, reason="empty clause not AT", clause=clause)
            self._note("empty clause has AT")
            self._empty_copies += 1
        else:
            ok, pivot, resolvent = self.check_rat(clause)
            if not ok:
                return CheckReport(
                    REJECTED,
                    step=step,
                    reason="RAT check failed",
                    clause=clause,
                    pivot=pivot,
                    failed_resolvent=resolvent,
                )
            cid = self._ids.get(clause.canonical)
            if cid is None:
                self._attach({clause.canonical: 1})
            else:
                self._copies[cid] += 1
        return None

    def apply_delete(self, clause: SourceClause, step: int) -> DeletionWarning | None:
        """Delete one copy; unit deletions and missing clauses warn instead."""
        canonical = clause.canonical
        if len(canonical) == 1:
            self._note("delete %s: unit clause, ignored", clause.literals)
            return DeletionWarning(step, WARN_UNIT_DELETION, clause)
        if not self._detach_copy(canonical):
            self._note("delete %s: not in formula, ignored", clause.literals)
            return DeletionWarning(step, WARN_DELETED_MISSING, clause)
        if clause.literals != canonical:
            self._note(
                "delete %s: matched stored clause %s up to literal order",
                clause.literals,
                canonical,
            )
        else:
            self._note("delete %s: removed one copy", clause.literals)
        return None

    def clause_counts(self) -> dict[tuple[int, ...], int]:
        counts = {clause: self._copies[cid] for clause, cid in self._ids.items()}
        return {(): self._empty_copies, **counts} if self._empty_copies else counts

    def _note(self, message: str, *args) -> None:
        """Trace message % args, with tuple args written as clauses; the
        string is only built when someone is listening."""
        if self.trace is not None:
            self.trace(message % tuple(format_clause(a) if isinstance(a, tuple) else a for a in args))


def propagate(formula: Formula, assumptions=()) -> bool:
    """Unit propagation on a formula under assumptions; True means conflict."""
    return CheckerState(formula).propagate(list(assumptions))


def check_at(formula: Formula, literals) -> bool:
    """Asymmetric tautology test for a duplicate-free, non-tautological clause."""
    return CheckerState(formula).check_at(tuple(literals))


def check_rat(formula: Formula, clause) -> bool:
    """Resolution asymmetric tautology test; pivot is the first written literal."""
    if not isinstance(clause, SourceClause):
        clause = normalize_clause(clause)
    if not clause.canonical:
        raise ValueError("RAT is undefined for the empty clause; use check_at")
    ok, _, _ = CheckerState(formula).check_rat(clause)
    return ok


def check_records(formula: Formula, records, trace=None) -> CheckReport:
    """Replay (delete, literals) records against a formula with forward checking.

    Steps are numbered from 1. The first accepted addition of the empty clause
    verifies the proof and the first failed addition rejects it; deletions never
    fail but may warn. Later records are read, so an error in them wins over the verdict.
    """
    state = CheckerState(formula, trace=None)
    warnings: list[DeletionWarning] = []
    report = CheckReport(NO_EMPTY_CLAUSE, warnings=warnings)
    records = iter(records)
    for index, (delete, literals) in enumerate(records, start=1):
        clause = SourceClause(tuple(literals), canonical_form(literals))
        if trace is not None:
            state.trace = lambda msg, i=index: trace("step %d: %s" % (i, msg))
        if delete:
            warning = state.apply_delete(clause, index)
            if warning is not None:
                warnings.append(warning)
            continue
        rejection = state.apply_add(clause, index)
        if rejection is not None or not clause.canonical:
            report = rejection or CheckReport(VERIFIED, step=index)
            report.warnings = warnings
            break
    for _ in records:
        pass
    return report


def check_proof(formula: Formula, proof: Proof, trace=None) -> CheckReport:
    """Replay a proof against a formula with forward checking (see check_records)."""
    return check_records(formula, step_records(proof), trace)
