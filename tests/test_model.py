import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dratcheck import (
    MAX_LITERAL,
    NO_EMPTY_CLAUSE,
    REJECTED,
    VERIFIED,
    WARN_UNIT_DELETION,
    CheckReport,
    DeletionWarning,
    Formula,
    normalize_clause,
)
from dratcheck.model import DuplicateLiteralError, LiteralRangeError, TautologyError

from conftest import formula_value


def test_normalize_keeps_a_sorted_clause_as_it_is():
    assert normalize_clause([1, 2, -3]) == (1, 2, -3)


def test_normalize_empty_clause_is_legal():
    assert normalize_clause([]) == ()


def test_normalize_sorts_by_variable_index():
    written = [-3, 2, 1]
    assert normalize_clause(written) == (1, 2, -3)
    assert normalize_clause([4, -2, -1]) == (-1, -2, 4)
    assert written == [-3, 2, 1]


def test_normalize_rejects_tautology():
    with pytest.raises(TautologyError):
        normalize_clause([1, -1])
    with pytest.raises(TautologyError):
        normalize_clause([2, 5, -7, -5])


def test_normalize_rejects_duplicates():
    with pytest.raises(DuplicateLiteralError):
        normalize_clause([1, 1])
    with pytest.raises(DuplicateLiteralError):
        normalize_clause([3, -2, 3])


def test_normalize_rejects_zero_and_overflow():
    with pytest.raises(LiteralRangeError):
        normalize_clause([0])
    with pytest.raises(LiteralRangeError):
        normalize_clause([MAX_LITERAL + 1])
    assert normalize_clause([MAX_LITERAL, -1]) == (-1, MAX_LITERAL)


distinct_var_clauses = st.lists(
    st.integers(min_value=1, max_value=60), unique=True, max_size=8
).flatmap(
    lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs]).map(list)
)


@given(distinct_var_clauses)
def test_normalize_is_idempotent(lits):
    once = normalize_clause(lits)
    assert normalize_clause(once) == once


@given(distinct_var_clauses, st.randoms())
def test_permutations_share_canonical_form(lits, rng):
    shuffled = list(lits)
    rng.shuffle(shuffled)
    assert normalize_clause(shuffled) == normalize_clause(lits)


@given(distinct_var_clauses)
def test_canonical_and_original_hold_the_same_literals(lits):
    assert sorted(normalize_clause(lits)) == sorted(lits)
    assert len(normalize_clause(lits)) == len(lits)


def test_formula_multiset_add_and_remove():
    formula = Formula()
    clause = normalize_clause([1, -2])
    formula.add_clause(clause)
    formula.add_clause(clause)
    assert formula.count(clause) == 2
    assert len(formula) == 2
    assert formula.remove_clause(clause)
    assert formula.count(clause) == 1
    assert clause in formula
    assert formula.remove_clause(clause)
    assert not formula.remove_clause(clause)
    assert clause not in formula
    assert len(formula) == 0


def test_formula_equality_is_multiset_equality():
    left = Formula.from_clauses([[1, 2], [1, 2], [-3]])
    right = Formula.from_clauses([[2, 1], [-3], [1, 2]])
    assert formula_value(left) == formula_value(right)
    right.add_clause((1, 2))
    assert formula_value(left) != formula_value(right)


def test_max_variable_falls_when_its_last_clause_is_removed():
    formula = Formula.from_clauses([[1, 2], [-5, 3]])
    assert formula.max_variable() == 5
    assert formula.remove_clause((3, -5))
    assert formula.max_variable() == 2


def test_occurrence_index_tracks_every_mutation():
    rng = random.Random(7)
    formula = Formula()
    pool = [normalize_clause([1, -2]), normalize_clause([2, 3]),
            normalize_clause([-1, -3]), normalize_clause([1, 3])]
    for _ in range(300):
        clause = rng.choice(pool)
        if rng.random() < 0.55:
            formula.add_clause(clause)
        else:
            formula.remove_clause(clause)
        # the index must list exactly the distinct clauses containing each literal
        for lit in (-3, -2, -1, 1, 2, 3):
            expected = sorted(c for c in formula.clause_counts() if lit in c)
            assert sorted(formula.clauses_with(lit)) == expected


def test_value_classes_compare_and_hash_by_field():
    # a warning holds its clause as written: the same literals in another order differ
    clause = (2, -1)
    warning = DeletionWarning(3, WARN_UNIT_DELETION, clause)
    assert warning == DeletionWarning(step=3, kind=WARN_UNIT_DELETION, clause=clause)
    assert warning != DeletionWarning(3, WARN_UNIT_DELETION, (-1, 2))
    assert hash(warning) == hash(DeletionWarning(3, WARN_UNIT_DELETION, (2, -1)))
    assert repr(warning) == "DeletionWarning(step=3, kind='unit-deletion-ignored', clause=(2, -1))"
    assert {warning, DeletionWarning(3, WARN_UNIT_DELETION, (2, -1))} == {warning}
    assert CheckReport(VERIFIED, step=2) == CheckReport(VERIFIED, [], 2)
    assert CheckReport(VERIFIED) != CheckReport(REJECTED)
    assert warning != (3, WARN_UNIT_DELETION, clause)


def test_check_reports_and_proofs_get_their_own_lists():
    first, second = CheckReport(NO_EMPTY_CLAUSE), CheckReport(NO_EMPTY_CLAUSE)
    first.warnings.append(DeletionWarning(1, WARN_UNIT_DELETION, normalize_clause([1])))
    assert second.warnings == [] and CheckReport(VERIFIED).warnings == []
    with pytest.raises(TypeError):
        hash(first)


def test_value_fields_are_assignable_and_hash_follows_them():
    # plain __slots__ classes: assigning a field changes equality and hash,
    # so a value held in a set or as a dict key must not be changed
    clause = normalize_clause([1, 2])
    warning = DeletionWarning(1, WARN_UNIT_DELETION, clause)
    warning.clause = normalize_clause([3])
    assert warning == DeletionWarning(1, WARN_UNIT_DELETION, normalize_clause([3]))
    assert hash(warning) == hash(DeletionWarning(1, WARN_UNIT_DELETION, normalize_clause([3])))
    assert warning != DeletionWarning(1, WARN_UNIT_DELETION, clause)
