"""Brute-force satisfiability oracle for test use only.

Plain recursive enumeration with early falsification pruning; auditability
matters more than speed here, and the shipping check path never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_ORACLE_VARS = 24


class TooManyVariablesError(ValueError):
    pass


@dataclass(frozen=True)
class OracleVerdict:
    satisfiable: bool
    model: dict[int, bool] | None = None


def brute_force_sat(clauses) -> OracleVerdict:
    """Exhaustively decide satisfiability; limited to 24 distinct variables.

    Accepts any iterable of literal iterables. A satisfying model is total
    over the distinct variables and re-checked against every clause before
    it is returned.
    """
    clauses = [tuple(c) for c in clauses]
    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    if len(variables) > MAX_ORACLE_VARS:
        raise TooManyVariablesError(
            "%d variables exceed the oracle limit of %d" % (len(variables), MAX_ORACLE_VARS)
        )
    if any(len(clause) == 0 for clause in clauses):
        return OracleVerdict(False)

    occurs: dict[int, list[tuple[int, ...]]] = {v: [] for v in variables}
    for clause in clauses:
        for lit in clause:
            occurs[abs(lit)].append(clause)

    assignment: dict[int, bool] = {}

    def falsified(clause) -> bool:
        for lit in clause:
            value = assignment.get(abs(lit))
            if value is None or value == (lit > 0):
                return False
        return True

    def search(depth: int) -> bool:
        if depth == len(variables):
            return True
        var = variables[depth]
        for value in (False, True):
            assignment[var] = value
            if not any(falsified(c) for c in occurs[var]) and search(depth + 1):
                return True
        del assignment[var]
        return False

    if not search(0):
        return OracleVerdict(False)
    model = dict(assignment)
    assert all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)
    return OracleVerdict(True, model)
