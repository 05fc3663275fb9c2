import random

import pytest

from dratcheck.model import (
    NO_EMPTY_CLAUSE,
    REJECTED,
    VERIFIED,
    WARN_UNIT_DELETION,
    CheckReport,
    DeletionWarning,
    Formula,
)

from conftest import clause_counts, load, loaded


def test_formula_multiset_add_and_remove():
    formula = Formula()
    clause = (1, -2)
    formula.add_clause(clause)
    formula.add_clause(clause)
    assert formula.remove_clause(clause)
    assert formula.clauses_with(1) == [clause]
    assert formula.remove_clause(clause)
    assert not formula.remove_clause(clause)
    assert formula.clauses_with(1) == []


def test_equal_clause_multisets_load_to_equal_clause_counts():
    left = loaded([[1, 2], [1, 2], [-3]])
    right = loaded([[2, 1], [-3], [1, 2]])
    assert clause_counts(left) == clause_counts(right) == {(1, 2): 2, (-3,): 1}
    load(right, [(1, 2)])
    assert clause_counts(left) != clause_counts(right)


def test_occurrence_index_tracks_every_mutation():
    rng = random.Random(7)
    formula = Formula()
    counts = {}
    pool = [(1, -2), (2, 3), (-1, -3), (1, 3)]
    for _ in range(300):
        clause = rng.choice(pool)
        if rng.random() < 0.55:
            formula.add_clause(clause)
            counts[clause] = counts.get(clause, 0) + 1
        else:
            assert formula.remove_clause(clause) == (clause in counts)
            if counts.get(clause) == 1:
                del counts[clause]
            elif clause in counts:
                counts[clause] -= 1
        # the index must list exactly the distinct clauses containing each literal
        for lit in (-3, -2, -1, 1, 2, 3):
            expected = sorted(c for c in counts if lit in c)
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
    first.warnings.append(DeletionWarning(1, WARN_UNIT_DELETION, (1,)))
    assert second.warnings == [] and CheckReport(VERIFIED).warnings == []
    with pytest.raises(TypeError):
        hash(first)


def test_value_fields_are_assignable_and_hash_follows_them():
    # plain __slots__ classes: assigning a field changes equality and hash,
    # so a value held in a set or as a dict key must not be changed
    clause = (1, 2)
    warning = DeletionWarning(1, WARN_UNIT_DELETION, clause)
    warning.clause = (3,)
    assert warning == DeletionWarning(1, WARN_UNIT_DELETION, (3,))
    assert hash(warning) == hash(DeletionWarning(1, WARN_UNIT_DELETION, (3,)))
    assert warning != DeletionWarning(1, WARN_UNIT_DELETION, clause)
