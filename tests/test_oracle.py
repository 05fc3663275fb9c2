import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dratcheck.dimacs import parse_dimacs

from conftest import PAPER_CLAUSES, random_clause_list
from oracle import TooManyVariablesError, brute_force_sat


def enumerate_satisfiable(clauses):
    """Independent check: plain truth-table sweep over all assignments."""
    variables = sorted({abs(l) for c in clauses for l in c})
    for bits in product((False, True), repeat=len(variables)):
        values = dict(zip(variables, bits))
        if all(any(values[abs(l)] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def test_empty_formula_is_satisfiable():
    verdict = brute_force_sat([])
    assert verdict.satisfiable
    assert verdict.model == {}


def test_empty_clause_is_unsatisfiable():
    assert not brute_force_sat([()]).satisfiable


def test_worked_example_with_both_proof_units_is_unsatisfiable():
    assert not brute_force_sat(PAPER_CLAUSES + [(-1,), (2,)]).satisfiable
    assert enumerate_satisfiable(PAPER_CLAUSES + [(-1,), (2,)]) is False


def test_accepts_any_iterable_of_clauses():
    assert not brute_force_sat(parse_dimacs("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n")).satisfiable
    assert brute_force_sat(iter([[1, 2], [-1]])).satisfiable


def test_model_is_total_and_satisfying():
    verdict = brute_force_sat([(1, 2), (-2, 3)])
    assert verdict.satisfiable
    assert set(verdict.model) == {1, 2, 3}


def test_variable_guard():
    with pytest.raises(TooManyVariablesError):
        brute_force_sat([(v,) for v in range(1, 26)])


clause_strategy = st.lists(
    st.integers(min_value=1, max_value=6), unique=True, min_size=1, max_size=3
).flatmap(lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs]))


@given(st.lists(clause_strategy, max_size=9))
@settings(max_examples=200, deadline=None)
def test_oracle_matches_truth_table_enumeration(clauses):
    assert brute_force_sat(clauses).satisfiable == enumerate_satisfiable(clauses)


@given(st.lists(clause_strategy, max_size=9), st.randoms())
@settings(max_examples=100, deadline=None)
def test_verdict_is_invariant_under_permutations(clauses, rng):
    reference = brute_force_sat(clauses).satisfiable
    shuffled = [tuple(rng.sample(c, len(c))) for c in clauses]
    rng.shuffle(shuffled)
    assert brute_force_sat(shuffled).satisfiable == reference


def test_verdict_is_invariant_under_variable_renaming():
    rng = random.Random(5)
    for _ in range(50):
        clauses = random_clause_list(rng, rng.randint(1, 9), max_var=6, min_len=1, max_len=3)
        mapping = dict(zip(range(1, 7), rng.sample(range(1, 7), 6)))
        renamed = [
            tuple((1 if l > 0 else -1) * mapping[abs(l)] for l in c) for c in clauses
        ]
        assert brute_force_sat(renamed).satisfiable == brute_force_sat(clauses).satisfiable
