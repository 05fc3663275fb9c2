"""Forward DRAT checking: unit propagation, AT/RAT tests, add/delete replay."""

from __future__ import annotations

from collections import Counter
from itertools import islice

from .model import (
    NO_EMPTY_CLAUSE,
    REJECTED,
    VERIFIED,
    WARN_DELETED_MISSING,
    WARN_UNIT_DELETION,
    CheckReport,
    DeletionWarning,
    Memo,
    checked_clause,
    checked_records,
    format_clause,
)


class CheckerState:
    """Mutable checking state: the clause multiset plus propagation structures.

    Variables are renumbered densely in the order they are first seen, and a
    literal of the i-th variable is held as the code 2i (positive) or 2i+1
    (negative), so negation is ``code ^ 1`` and every per-literal structure
    is a list indexed by code. Memory thus follows the number of distinct
    variables, not the largest literal value. ``_true`` marks only the true
    code of each assigned variable, and a code is false when its negation is
    marked, so an assignment and its undo each write one slot.

    A clause copy is a code list in written order, stored as it is and only
    read: load maps literal sequences into one batch, and the DIMACS reader,
    given ``_code`` (where 0 maps to None), yields a batch of exact-size slices
    of each run's codes. A non-empty copy propagates at once and waits in
    ``_pending``. ``_ids``, the deletion index, maps each clause's sorted
    codes, the ints held in ``_code``, to its code list, so any order of the
    same literals finds it. It is a cache that ``_index`` brings up to date on
    the first deletion, RAT stage or ``clause_counts()``, so a check that does
    none of these builds no key. Catching up keeps one code list per distinct
    clause, its first copy's; a later copy is counted in a sparse dict keyed
    by the list's ``id`` and, unless a unit, leaves propagation, which cannot
    tell the two apart. ``_ids`` and the occurrence lists hold clauses of
    every length alike, so RAT candidates, deletions and ``-v`` lines do not
    depend on how a clause propagates. A clause of three or more literals is
    watched at positions 0 and 1, and a falsified watch tries position 2
    before it searches the rest; a binary clause {a, b} is watched nowhere,
    as ``_implied[a]`` holds b and ``_implied[b]`` holds a, which propagation
    reads before a falsified code's watches. No parsed literal is kept. Unit
    clauses are never watched, as unit deletions are ignored: their codes are
    asserted whenever a propagation starts from an empty trail. Copies of the
    empty clause turn every propagation into a conflict.
    """

    def __init__(self):
        self.trace = None
        # signed literal -> code; the Memo holds a bound method of self, the
        # state's one reference cycle, which the command line leaves to the OS
        self._code = Memo(self._new_variable)
        self._code[0] = None  # the clause terminator, so that a reader maps a whole run
        self._literal: list[int] = []  # by code: signed literal
        self._true: list[int] = []  # by code: 1 if the code is true, else 0; false when its negation is true
        self._watches: list[list[list[int]]] = []  # by code: code lists watching it
        # by code: the other codes of its binary clauses; the shared () until the first
        self._implied: list[list[int] | tuple[()]] = []
        # by code: code lists containing it, oldest first; built by the first RAT stage
        self._occurs: list[list[list[int]]] | None = None
        self._ids: dict[tuple[int, ...], list[int]] = {}  # key -> codes, watches first; see _index
        self._pending: list[list[int]] = []  # code lists loaded since _ids was last brought up to date
        self._surplus: dict[int, int] = {}  # id(codes) -> copies beyond the first
        self._units: list[int] = []
        self._trail: list[int] = []
        self._empty_copies = 0

    # -- clause bookkeeping ------------------------------------------------

    def _new_variable(self, lit: int) -> int:
        """Give the variable of lit, seen for the first time, its two codes; each signed
        literal is one int object, both a key of _code and an item of _literal."""
        first = len(self._true)
        var, negative = abs(lit), -abs(lit)
        self._code[var], self._code[negative] = first, first + 1
        self._literal += (var, negative)
        self._true += (0, 0)
        self._watches += ([], [])
        self._implied += ((), ())
        if self._occurs is not None:
            self._occurs += ([], [])
        return self._code[lit]

    def _literals(self, codes) -> tuple[int, ...]:
        return tuple(map(self._literal.__getitem__, codes))

    def _sorted_literals(self, codes) -> tuple[int, ...]:
        return tuple(sorted(self._literals(codes), key=abs))

    def load(self, clauses) -> None:
        """Add one copy of each clause, a duplicate-free literal sequence; duplicate
        clauses and the empty clause included (see _store)."""
        code_of = self._code.__getitem__
        self._store(([[*map(code_of, clause)][:] for clause in clauses],))  # a slice is allocated at its exact size

    def _store(self, batches) -> None:
        """Add one copy of each clause of each batch, a list of code lists from _code that the store keeps as they
        are. An empty clause is only counted; any other copy propagates at once, and waits in _pending for _index."""
        watches, units, implied, pending = self._watches, self._units, self._implied, self._pending
        for batch in batches:
            if [] in batch:
                self._empty_copies += batch.count([])
                batch = [codes for codes in batch if codes]
            pending += batch
            for codes in batch:
                if len(codes) > 2:
                    watches[codes[0]].append(codes)
                    watches[codes[1]].append(codes)
                elif len(codes) == 2:
                    for code, other in (codes, codes[::-1]):
                        implied[code] = implied[code] or []
                        implied[code].append(other)
                else:
                    units.append(codes[0])

    def _index(self) -> dict[tuple[int, ...], list[int]]:
        """_ids, brought up to date with the pending copies in load order: a copy
        of a clause not stored becomes its stored clause, and any other copy
        is counted in _surplus and, unless a unit, leaves propagation, where its twin acts alike."""
        ids, surplus, occurs = self._ids, self._surplus, self._occurs
        merged = []
        for codes in self._pending:
            stored = ids.setdefault(tuple(sorted(codes)), codes)
            if stored is not codes:
                surplus[id(stored)] = surplus.get(id(stored), 0) + 1
                if len(codes) > 1:  # units are never deleted, and asserting a code twice sets it once
                    merged.append(codes)
            elif occurs is not None:
                for code in codes:
                    occurs[code].append(codes)
        if merged:
            self._unattach_merged(merged)
        self._pending.clear()
        return ids

    def _unattach(self, codes) -> None:
        # take a deleted clause of two or more codes out of propagation; with the index up to date, no other
        # live copy compares equal, so remove finds this one
        if len(codes) == 2:
            self._implied[codes[0]].remove(codes[1])
            self._implied[codes[1]].remove(codes[0])
        else:
            self._watches[codes[0]].remove(codes)
            self._watches[codes[1]].remove(codes)

    def _unattach_merged(self, copies) -> None:
        # take merged copies out of propagation, with one pass over each list that holds one, so that merging
        # is linear; a watch list may also hold the stored twin, as a conflict can swap one copy's positions 0
        # and 1 and not the other's, so a watch is dropped by identity
        pairs = Counter((codes[k], codes[1 - k]) for codes in copies if len(codes) == 2 for k in (0, 1))
        for code in {code for code, _ in pairs}:
            kept = []
            for other in self._implied[code]:
                if pairs[code, other]:
                    pairs[code, other] -= 1
                else:
                    kept.append(other)
            self._implied[code] = kept
        ids = {id(codes) for codes in copies if len(codes) > 2}
        for code in {code for codes in copies if len(codes) > 2 for code in codes[:2]}:
            self._watches[code] = [codes for codes in self._watches[code] if id(codes) not in ids]

    def _occurrences(self) -> list[list[list[int]]]:
        """The occurrence lists, built oldest first on first use."""
        ids = self._index()
        if self._occurs is None:
            self._occurs = [[] for _ in self._true]
            for codes in ids.values():
                for code in codes:
                    self._occurs[code].append(codes)
        return self._occurs

    def _detach_copy(self, literals) -> bool:
        # remove one copy; False if none is present. Units never reach here
        if not literals:
            present = self._empty_copies > 0
            self._empty_copies -= present
            return present
        found = [*map(self._code.get, literals)]
        if None in found:
            return False  # a variable never seen is in no clause, and gets no codes here
        key = tuple(sorted(found))
        ids = self._index()
        codes = ids.get(key)
        if codes is None:
            return False
        extra = self._surplus.pop(id(codes), 0)
        if extra > 1:
            self._surplus[id(codes)] = extra - 1
        elif not extra:
            del ids[key]
            if self._occurs is not None:
                # with the index up to date, two live clauses never compare
                # equal, so remove finds this one
                for code in codes:
                    self._occurs[code].remove(codes)
            self._unattach(codes)
        return True

    # -- unit propagation ----------------------------------------------------

    def _conflict(self, assumed: list[int], keep: bool = False) -> bool:
        # propagates on top of the trail, a fixpoint, and cuts it back to where it was, unless
        # keep asks to leave a conflict-free fixpoint; an assignment marks its true code alone
        if self._empty_copies:
            return True
        true, trail = self._true, self._trail
        start = len(trail)
        conflict = False
        for code in assumed if start else assumed + self._units:
            if true[code ^ 1]:
                conflict = True
                break
            if not true[code]:
                true[code] = 1
                trail.append(code)
        if not conflict:
            conflict = self._propagate_watches(start)
        if conflict or not keep:
            self._undo(start)
        return conflict

    def _undo(self, start: int) -> None:
        true, trail = self._true, self._trail
        for code in islice(trail, start, None):
            true[code] = 0
        del trail[start:]

    def _propagate_watches(self, start: int) -> bool:
        true, trail, watches, implied = self._true, self._trail, self._watches, self._implied
        for assigned in islice(trail, start, None) if start else trail:  # and codes appended
            falsified = assigned ^ 1
            for other in implied[falsified]:
                if not true[other]:
                    if true[other ^ 1]:
                        return True
                    true[other] = 1
                    trail.append(other)
            watchers = watches[falsified]
            if not watchers:
                continue
            kept: list[list[int]] = []
            for lits in watchers:
                other = lits[0]
                if other == falsified:
                    # swapping stored objects keeps the code lists sharing
                    # the ints held in _code, where a fresh int would not
                    other = lits[1]
                    lits[0], lits[1] = other, lits[0]
                if true[other]:
                    kept.append(lits)
                    continue
                # a watched clause has a third literal, the search's first try: probing it builds no range
                lit = lits[2]
                if not true[lit ^ 1]:  # not false: move this watch from the falsified literal to lit
                    lits[1], lits[2] = lit, lits[1]
                    watches[lit].append(lits)
                    continue
                for k in range(3, len(lits)):
                    lit = lits[k]
                    if not true[lit ^ 1]:
                        lits[1], lits[k] = lit, lits[1]
                        watches[lit].append(lits)
                        break
                else:
                    kept.append(lits)
                    if true[other ^ 1]:
                        kept += watchers[watchers.index(lits) + 1 :]
                        watches[falsified] = kept
                        return True
                    true[other] = 1
                    trail.append(other)
            watches[falsified] = kept
        return False

    # -- redundancy checks ---------------------------------------------------

    def check_at(self, literals, _keep: bool = False) -> bool:
        """Does propagating the clause's negation on top of the trail yield a
        conflict? With _keep, a fixpoint without conflict stays on the trail.
        Literals whose negation the trail already holds may be left out."""
        code_of = self._code.__getitem__
        return self._conflict([code_of(-lit) for lit in literals], _keep)

    def check_rat(self, literals):
        """AT check of the literals as written, then resolvents on the first one.

        A resolvent holds the lemma, whose fixpoint stays on the trail, so its
        check asserts only the candidate's extra literals; it is written out,
        sorted by variable, only for a trace or a failure. Returns (ok, pivot,
        failed_resolvent), the last two None unless the resolvent stage failed.
        """
        if self.check_at(literals, _keep=True):
            self._note("AT check passed for %s", literals)
            return True, None, None
        try:
            pivot = literals[0]
            self._note("AT failed for %s; RAT check with pivot %d", literals, pivot)
            code_of, literal = self._code.__getitem__, self._literal
            own, negated = {*map(code_of, literals)}, code_of(-pivot)
            for codes in self._occurrences()[negated]:
                if any(code ^ 1 in own for code in codes if code != negated):
                    if self.trace is not None:
                        other = self._sorted_literals(codes)
                        self._note("resolvent with %s is a tautology, trivially redundant", other)
                    continue
                passed = self.check_at([literal[code] for code in codes if code != negated and code not in own])
                if passed and self.trace is None:
                    continue
                other = self._sorted_literals(codes)
                resolvent = (*literals, *(lit for lit in other if lit != -pivot and lit not in literals))
                self._note("resolvent %s (with %s): AT %s", resolvent, other, "passed" if passed else "failed")
                if not passed:
                    return False, pivot, resolvent
            return True, pivot, None
        finally:
            self._undo(0)

    # -- proof steps -----------------------------------------------------------

    def apply_add(self, literals, step: int) -> CheckReport | None:
        """Check and add one clause, its literals as written; on failure
        returns the rejecting report instead."""
        if not literals:
            if not self.check_at(()):
                return CheckReport(REJECTED, step=step, reason="empty clause not AT", clause=())
            self._note("empty clause has AT")
        else:
            ok, pivot, resolvent = self.check_rat(literals)
            if not ok:
                return CheckReport(
                    REJECTED,
                    step=step,
                    reason="RAT check failed",
                    clause=tuple(literals),
                    pivot=pivot,
                    failed_resolvent=resolvent,
                )
        self.load((literals,))
        return None

    def apply_delete(self, literals, step: int) -> DeletionWarning | None:
        """Delete one copy of the clause, in any literal order; unit deletions
        and missing clauses warn instead."""
        if len(literals) == 1:
            self._note("delete %s: unit clause, ignored", literals)
            return DeletionWarning(step, WARN_UNIT_DELETION, tuple(literals))
        if not self._detach_copy(literals):
            self._note("delete %s: not in formula, ignored", literals)
            return DeletionWarning(step, WARN_DELETED_MISSING, tuple(literals))
        if self.trace is not None:
            canonical = sorted(literals, key=abs)
            if canonical != [*literals]:
                self._note("delete %s: matched stored clause %s up to literal order", literals, canonical)
            else:
                self._note("delete %s: removed one copy", literals)
        return None

    def clause_counts(self) -> dict[tuple[int, ...], int]:
        """Copies of each clause, its literals sorted by variable."""
        extra = self._surplus.get
        counts = {self._sorted_literals(codes): 1 + extra(id(codes), 0) for codes in self._index().values()}
        return {(): self._empty_copies, **counts} if self._empty_copies else counts

    def _note(self, message: str, *args) -> None:
        """Trace message % args, with tuple and list args written as clauses;
        the string is only built when someone is listening."""
        if self.trace is not None:
            self.trace(message % tuple(format_clause(a) if isinstance(a, (tuple, list)) else a for a in args))


def check_records(state: CheckerState, records, trace=None, keep_warnings: bool = True) -> CheckReport:
    """Replay (delete, literals) records against a checker state with forward checking.

    The state is changed in place. Steps are numbered from 1. The first accepted
    addition of the empty clause verifies the proof and the first failed addition
    rejects it; deletions never fail but may warn, and the report keeps each warning
    unless keep_warnings is false. Later records are read, so an error in them wins
    over the verdict. A trace is set on the state for this call only.
    """
    warnings: list[DeletionWarning] = []
    report = CheckReport(NO_EMPTY_CLAUSE, warnings=warnings)
    records = iter(records)
    try:
        for index, (delete, literals) in enumerate(records, start=1):
            if trace is not None:
                state.trace = lambda msg, i=index: trace("step %d: %s" % (i, msg))
            if delete:
                warning = state.apply_delete(literals, index)
                if warning is not None and keep_warnings:
                    warnings.append(warning)
                continue
            rejection = state.apply_add(literals, index)
            if rejection is not None or not literals:
                report = rejection or CheckReport(VERIFIED, step=index)
                report.warnings = warnings
                break
        for _ in records:
            pass
    finally:
        state.trace = None
    return report


def check_proof(clauses, records, trace=None) -> CheckReport:
    """Replay (delete, literals) records against a formula's clauses, each a
    literal sequence, with forward checking (see check_records). Either may
    be built by hand, so each clause and record gets the readers' checks
    (see checked_clause); the clauses are then loaded into a fresh
    CheckerState, as the command line loads a formula's, and only read."""
    state = CheckerState()
    state.load(map(checked_clause, clauses))
    return check_records(state, checked_records(records), trace)
