import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dratcheck import checker as checker_module
from dratcheck.checker import CheckerState, check_proof
from dratcheck.dimacs import clause_records, parse_dimacs
from dratcheck.model import (
    NO_EMPTY_CLAUSE,
    REJECTED,
    VERIFIED,
    WARN_DELETED_MISSING,
    WARN_UNIT_DELETION,
)
from dratcheck.proofio import ProofError, parse_plain_proof

from conftest import (
    PAPER_CLAUSES,
    assert_store_invariants,
    binary_replay_case,
    canonical,
    check_at,
    check_rat,
    loaded,
    propagate,
    random_clause_list,
    random_replay_case,
    rat_replay_case,
    refutation_steps,
    write_dimacs,
)
from oracle import brute_force_sat
from slowpath import check_at_naive, check_rat_naive, propagate_naive, replay_naive


# -- propagation ---------------------------------------------------------------


def test_propagate_worked_example_conflict():
    # negation of the first resolvent: forces (-4), then empties (-1 2 4)
    assert propagate(PAPER_CLAUSES, [1, -2, 3]) is True


def test_propagate_empty_formula_reaches_fixpoint():
    assert propagate([], [1]) is False


def test_propagate_contradicting_units():
    assert propagate([[1], [-1]], []) is True


def test_propagate_contradictory_assumptions_count_as_conflict():
    assert propagate([[1, 2]], [3, -3]) is True


def test_propagate_restores_state():
    state = loaded(PAPER_CLAUSES)
    assert state.check_at([-1, 2, -3]) is True
    assert state._trail == []
    assert all(v == 0 for v in state._values)
    # and the same state answers again identically
    assert state.check_at([-1, 2, -3]) is True
    assert state.check_at([]) is False


def test_propagate_formula_with_empty_clause_always_conflicts():
    formula = [[], [1, 2]]
    assert propagate(formula, []) is True


def test_propagation_order_does_not_change_the_outcome():
    rng = random.Random(11)
    for _ in range(200):
        clauses = random_clause_list(rng, rng.randint(1, 12), max_var=6, min_len=1, max_len=3)
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 7), rng.randint(0, 3))]
        reference = propagate(clauses, assumptions)
        for _ in range(4):
            shuffled = clauses[:]
            rng.shuffle(shuffled)
            shuffled = [tuple(rng.sample(c, len(c))) for c in shuffled]
            mixed_assumptions = assumptions[:]
            rng.shuffle(mixed_assumptions)
            assert propagate(shuffled, mixed_assumptions) == reference


def test_watched_and_naive_propagation_agree_on_random_inputs():
    rng = random.Random(23)
    for _ in range(400):
        clauses = random_clause_list(rng, rng.randint(0, 14), max_var=8, min_len=0, max_len=4)
        state = loaded(clauses)
        for _ in range(3):
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, 9), rng.randint(0, 4))]
            assert state.check_at([-lit for lit in assumptions]) == propagate_naive(clauses, assumptions)


# -- AT / RAT -----------------------------------------------------------------


def test_check_at_first_resolvent_of_worked_example():
    assert check_at(PAPER_CLAUSES, (-1, 2, -3)) is True


def test_check_at_with_empty_clause_present():
    formula = [[], [2]]
    assert check_at(formula, (5,)) is True


def test_check_at_without_unit_consequences_fails():
    assert check_at([[1, 2]], (3,)) is False


def test_check_rat_worked_example_pivot_minus_one():
    assert check_rat(PAPER_CLAUSES, [-1]) is True


def test_check_rat_vacuous_when_negated_pivot_never_occurs():
    formula = [[1, 2], [2, 3]]
    assert check_rat(formula, [-9, -8]) is True


def test_check_rat_fails_against_resolvent_with_unit():
    # pivot 1 resolves with the unit (-1) into the clause itself, which is not AT
    formula = [[-1], [2, 3]]
    assert check_rat(formula, [1, 2]) is False
    assert check_rat_naive([(-1,), (2, 3)], (1, 2)) is False


def test_check_rat_respects_the_written_pivot_order():
    formula = [[-1, 3]]
    # pivot 1 fails on the resolvent (1 2 3); pivot 2 would pass vacuously
    assert check_rat(formula, [1, 2]) is False
    assert check_rat(formula, [2, 1]) is True


def test_check_rat_agrees_with_slow_path_on_random_inputs():
    rng = random.Random(37)
    agree = disagreements = 0
    for _ in range(500):
        clauses = random_clause_list(rng, rng.randint(1, 10), max_var=6, min_len=1, max_len=3)
        candidate = random_clause_list(rng, 1, max_var=6, min_len=1, max_len=3)[0]
        fast = check_rat(clauses, list(candidate))
        slow = check_rat_naive(clauses, candidate)
        assert fast == slow
        agree += 1
    assert agree == 500


# -- add / delete ----------------------------------------------------------------


def test_apply_add_extends_the_formula():
    state = loaded(PAPER_CLAUSES)
    assert state.apply_add([-1], 1) is None
    assert state.clause_counts().get((-1,), 0) == 1


def test_apply_add_accepts_empty_clause_on_conflicting_formula():
    state = loaded([[1], [-1]])
    assert state.apply_add([], 1) is None


def test_apply_add_rejects_empty_clause_without_conflict():
    state = loaded(PAPER_CLAUSES)
    rejection = state.apply_add([], 1)
    assert rejection is not None
    assert rejection.reason == "empty clause not AT"
    assert state.clause_counts().get((), 0) == 0


def test_apply_add_rejects_non_rat_clause():
    # slow-path verified: (1) is not RAT with respect to this formula
    clauses = [[-1], [1, 2], [-2, 3]]
    assert check_rat_naive([tuple(c) for c in clauses], (1,)) is False
    state = loaded(clauses)
    rejection = state.apply_add([1], 5)
    assert rejection is not None
    assert rejection.step == 5
    assert rejection.reason == "RAT check failed"
    assert rejection.pivot == 1
    assert rejection.failed_resolvent == (1,)
    assert state.clause_counts().get((1,), 0) == 0


def test_apply_delete_removes_one_copy():
    state = loaded([[1, 2], [1, 2], [3, 4]])
    assert state.apply_delete([2, 1], 1) is None
    assert state.clause_counts().get((1, 2), 0) == 1
    assert state.apply_delete([1, 2], 2) is None
    assert state.clause_counts().get((1, 2), 0) == 0


def test_apply_delete_missing_clause_warns_and_keeps_formula():
    state = loaded(PAPER_CLAUSES)
    before = state.clause_counts()
    warning = state.apply_delete([1, 4], 3)
    assert warning is not None
    assert warning.kind == WARN_DELETED_MISSING
    assert warning.step == 3
    assert state.clause_counts() == before


def test_apply_delete_unit_clause_is_ignored_with_warning():
    state = loaded([[5], [1, 2]])
    before = state.clause_counts()
    warning = state.apply_delete([5], 2)
    assert warning is not None
    assert warning.kind == WARN_UNIT_DELETION
    assert state.clause_counts() == before


def test_deletion_by_canonical_form_is_flagged_in_the_trace(paper_formula):
    # deletion lines match stored clauses as literal sets; a different
    # written order still matches but is noted for audit
    proof = [(False, [-1]), (True, [4, 2, -1]), (False, [2]), (False, [])]
    trace = []
    report = check_proof(paper_formula, proof, trace=trace.append)
    assert report.verdict == VERIFIED
    assert report.warnings == []
    assert any("up to literal order" in line for line in trace)


def test_delete_then_re_add_restores_the_multiset():
    # the re-added clause passes its RAT check vacuously: nothing contains -1
    state = loaded([[3, 4], [1, 2], [-3, 4]])
    before = state.clause_counts()
    assert state.apply_delete([1, 2], 1) is None
    assert state.clause_counts() != before
    assert state.apply_add([1, 2], 2) is None
    assert state.clause_counts() == before


# -- whole proofs -------------------------------------------------------------


def test_worked_example_verifies_without_warnings(paper_formula, paper_proof):
    report = check_proof(paper_formula, paper_proof)
    assert report.verdict == VERIFIED
    assert report.warnings == []


def test_empty_proof_yields_no_empty_clause(paper_formula):
    report = check_proof(paper_formula, [])
    assert report.verdict == NO_EMPTY_CLAUSE


def test_reordered_worked_example_still_verifies(paper_formula):
    # (2) is RAT with respect to the original formula (slow-path verified),
    # so swapping the two additions leaves the proof valid
    assert check_rat_naive(PAPER_CLAUSES, (2,)) is True
    proof = [(False, [2]), (False, [-1]), (False, [])]
    report = check_proof(paper_formula, proof)
    assert report.verdict == VERIFIED


def test_rejection_reports_the_failing_step(paper_formula):
    # (1) is not RAT once (-1) has been added and (-1 2 4) deleted
    proof = [(False, [-1]), (True, [-1, 2, 4]), (False, [1]), (False, [])]
    report = check_proof(paper_formula, proof)
    assert report.verdict == REJECTED
    assert report.step == 3
    assert report.reason == "RAT check failed"
    assert report.clause == (1,)


def test_steps_after_accepted_empty_clause_are_ignored(paper_formula, paper_proof):
    extended = paper_proof + [(False, [1]), (True, [9, 8])]
    report = check_proof(paper_formula, extended)
    assert report.verdict == VERIFIED
    assert report.step == 4


def test_warnings_do_not_change_the_verdict(paper_formula, paper_proof):
    noisy = [(True, [3, 2, 1]), (True, [4])] + paper_proof
    report = check_proof(paper_formula, noisy)
    assert report.verdict == VERIFIED
    assert [w.kind for w in report.warnings] == [WARN_DELETED_MISSING, WARN_UNIT_DELETION]
    assert [w.step for w in report.warnings] == [1, 2]


def test_deleting_the_reason_of_a_root_unit_is_not_ignored():
    # (-1 2) is the reason for 2 under the unit (1), but only clauses of
    # length 1 as written are protected from deletion: once it is gone,
    # (2) is neither AT nor RAT, where drat-trim would ignore the deletion
    formula = [[1], [-1, 2], [-2, 3], [-3, -1]]
    report = check_proof(formula, [(True, [-1, 2]), (False, [2])])
    assert report.verdict == REJECTED
    assert report.step == 2
    assert report.warnings == []


@pytest.mark.parametrize("clauses,verdict", [([[1], [-1]], VERIFIED), ([[1, 2]], REJECTED)])
def test_check_records_reads_the_records_after_the_verdict(clauses, verdict):
    def records():
        yield False, []
        yield True, [1, 2]
        raise ProofError("bad step", 3, 0)

    checked = []
    with pytest.raises(ProofError, match="bad step"):
        state = loaded(clauses)
        checker_module.check_records(state, records(), trace=checked.append)
    assert all(line.startswith("step 1: ") for line in checked)
    state = loaded(clauses)
    report = checker_module.check_records(state, [(False, []), (True, [1, 2])])
    assert (report.verdict, report.step, report.warnings) == (verdict, 1, [])


def test_check_records_keeps_no_warning_if_told_and_gives_the_same_verdict():
    records = [(True, [1, 5]), (True, [2]), (False, [2]), (True, [3, 4]), (False, [])]
    kept = checker_module.check_records(loaded([[1, 2], [2], [-2]]), records)
    dropped = checker_module.check_records(loaded([[1, 2], [2], [-2]]), records, keep_warnings=False)
    assert [warning.step for warning in kept.warnings] == [1, 2, 4]
    assert dropped.warnings == [] and (dropped.verdict, dropped.step) == (kept.verdict, kept.step) == (VERIFIED, 5)


def test_check_records_takes_its_trace_off_the_state_on_exit():
    first = []
    state = loaded([[1, 2], [-1, 2], [1, -2]])
    checker_module.check_records(state, [(False, [2])], trace=first.append)
    assert first == ["step 1: AT check passed for (2)"] and state.trace is None
    # a later untraced call on the same state writes nothing to the old trace
    checker_module.check_records(state, [(False, [1])])
    assert first == ["step 1: AT check passed for (2)"]

    def failing():
        yield True, [1, 2]
        raise ProofError("bad step", 2, 0)

    with pytest.raises(ProofError):
        checker_module.check_records(state, failing(), trace=first.append)
    assert first[1:] == ["step 1: delete (1 2): removed one copy"] and state.trace is None


def test_check_proof_does_not_mutate_the_input_formula(paper_formula, paper_proof):
    before = [list(clause) for clause in paper_formula]
    check_proof(paper_formula, paper_proof)
    assert paper_formula == before
    # deterministic: a second run reproduces the report
    first = check_proof(paper_formula, paper_proof)
    second = check_proof(paper_formula, paper_proof)
    assert first == second


def test_check_proof_reads_the_formula_and_keeps_no_copy_of_it():
    # (5 6) is RAT vacuously and names variables the formula lacks
    clauses = [[1, 2], [1, 2], [-1, 2], [1, -2], [-1, -2], [3, 4]]
    before = [list(clause) for clause in clauses]
    records = [(False, [5, 6]), (False, [6, 5]), (True, [2, 1]), (True, [3, 4]),
               (False, [2]), (False, [2]), (False, [])]
    assert check_proof(clauses, records).verdict == VERIFIED
    assert clauses == before

    state = loaded(clauses)
    for number, (delete, lits) in enumerate(records, start=1):
        apply = state.apply_delete if delete else state.apply_add
        assert apply(lits, number) is None
    assert clauses == before
    attributes = vars(state).values()
    given = {id(clauses), *map(id, clauses)}
    assert not given & {id(value) for value in attributes}
    assert not given & {id(codes) for codes in state._pending}
    assert not given & {id(codes) for codes in state._index().values()}
    keyed_by_clauses = [value for value in attributes
                        if isinstance(value, dict) and any(isinstance(key, tuple) for key in value)]
    assert len(keyed_by_clauses) == 1


def test_duplicate_addition_is_allowed_by_multiset_semantics(paper_formula):
    proof = [(False, [-1]), (False, [-1]), (False, [2]), (False, [])]
    report = check_proof(paper_formula, proof)
    assert report.verdict == VERIFIED


def test_tree_proofs_of_random_unsat_formulas_verify():
    rng = random.Random(101)
    verified = 0
    for _ in range(60):
        clauses = random_clause_list(rng, rng.randint(4, 22), max_var=6, min_len=1, max_len=3)
        steps = refutation_steps(clauses, rng)
        if steps is None:
            assert brute_force_sat(clauses).satisfiable
            continue
        proof = [(False, list(lits)) for lits in steps]
        report = check_proof(clauses, proof)
        assert report.verdict == VERIFIED
        assert not brute_force_sat(clauses).satisfiable
        verified += 1
    assert verified >= 20


def test_deleting_each_empty_clause_copy_restores_propagation():
    # each deletion removes one of the two empty-clause copies; once both
    # are gone, (-2) is neither AT nor RAT
    formula = [[], [], [1, 2], [-1, 2]]
    proof = [(True, []), (True, []), (False, [-2])]
    report = check_proof(formula, proof)
    assert report.verdict == REJECTED
    assert report.step == 3


@pytest.mark.parametrize("early_rat", [False, True])
def test_rat_candidates_stay_oldest_first_across_delete_and_re_add(early_rat):
    # (-1 2) is deleted and re-added (by AT, through (2 -3)), so (-1 3) is
    # now the older candidate for pivot 1, and both resolvents fail. With
    # early_rat a RAT stage builds the occurrence lists before the deletion
    # and they are kept up to date; otherwise the last step builds them.
    formula = parse_dimacs("p cnf 5 3\n-1 2 0\n-1 3 0\n2 -3 0\n")
    lines = (["5 0"] if early_rat else []) + ["d -1 2 0", "-1 2 0", "1 4 0"]
    trace = []
    report = check_proof(formula, parse_plain_proof("\n".join(lines) + "\n"), trace=trace.append)
    step = len(lines)
    assert "step %d: AT check passed for (-1 2)" % (step - 1) in trace
    assert (report.verdict, report.step, report.pivot) == (REJECTED, step, 1)
    assert report.failed_resolvent == (1, 4, 3)
    assert [line for line in trace if line.startswith("step %d:" % step)] == [
        "step %d: AT failed for (1 4); RAT check with pivot 1" % step,
        "step %d: resolvent (1 4 3) (with (-1 3)): AT failed" % step,
    ]


@pytest.mark.parametrize("early_rat", [False, True])
def test_rat_stage_after_deletions_sees_no_deleted_clause(early_rat):
    state = loaded(parse_dimacs("p cnf 7 3\n-1 2 0\n-1 3 0\n-1 -2 -3 0\n"))
    if early_rat:
        assert state.apply_add([6, 7], 1) is None  # RAT, no candidates
    for number, lits in enumerate(([-1, 2], [-1, -2, -3], [-1, 3]), start=2):
        assert state.apply_delete(lits, number) is None
    assert state.apply_add([-1, 5], 5) is None  # no clause holds 1
    trace = []
    state.trace = trace.append
    lemma = [1, 4]
    assert state.apply_add(lemma, 6).failed_resolvent == (1, 4, 5)
    assert trace == [
        "AT failed for (1 4); RAT check with pivot 1",
        "resolvent (1 4 5) (with (-1 5)): AT failed",
    ]


def test_occurrence_lists_are_built_by_the_first_rat_stage_only():
    state = loaded(PAPER_CLAUSES)
    assert state.apply_add([-1, 2, -3], 1) is None  # passes AT
    assert state.apply_delete([1, 2, -3], 2) is None
    assert state._occurs is None
    assert state.apply_add([-1], 3) is None  # needs its RAT stage
    assert state._occurs is not None


def test_trace_text_is_only_built_for_a_listener(monkeypatch, paper_formula, paper_proof):
    def refuse(literals):
        raise AssertionError("trace text built without a listener")

    monkeypatch.setattr(checker_module, "format_clause", refuse)
    assert check_proof(paper_formula, paper_proof).verdict == VERIFIED


@pytest.mark.parametrize("line", [b"10000000 0\n", b"2147483647 0\n", b"3 -2147483647 0\n"])
def test_checker_memory_does_not_grow_with_literal_values(line):
    formula = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    proof = parse_plain_proof(line)
    tracemalloc.start()
    try:
        report = check_proof(formula, proof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lemma is RAT vacuously: no clause holds its negated pivot
    assert report.verdict == NO_EMPTY_CLAUSE
    assert peak < 2**20


def test_whole_proofs_agree_with_the_slow_path_replay():
    rng = random.Random(59)
    seen = {}
    for _ in range(400):
        clauses, steps = random_replay_case(rng)
        proof = [(kind == "d", list(lits)) for kind, lits in steps]
        report = check_proof(clauses, proof)
        verdict, step, warned = replay_naive(clauses, steps)
        assert (report.verdict, report.step) == (verdict, step), (clauses, steps)
        assert [w.step for w in report.warnings] == warned
        seen[verdict] = seen.get(verdict, 0) + 1
    assert min(seen.get(v, 0) for v in (VERIFIED, REJECTED, NO_EMPTY_CLAUSE)) >= 40


def test_copy_counts_follow_a_naive_multiset_step_by_step():
    rng = random.Random(61)
    seen = dict.fromkeys(("duplicate add", "one of two deleted", "re-added", "empty copies"), 0)
    for _ in range(400):
        clauses, steps = random_replay_case(rng)
        state = loaded(clauses)
        naive = {}
        for clause in clauses:
            key = canonical(clause)
            naive[key] = naive.get(key, 0) + 1
        gone = set()
        assert state.clause_counts() == naive
        for number, (kind, lits) in enumerate(steps, start=1):
            key = canonical(lits)
            present = naive.get(key, 0)
            if kind == "d":
                removed = state.apply_delete(lits, number) is None
                assert removed == (len(key) != 1 and present > 0), (clauses, steps, number)
                if removed:
                    seen["one of two deleted"] += present == 2
                    if present == 1:
                        del naive[key]
                        gone.add(key)
                    else:
                        naive[key] = present - 1
            elif state.apply_add(lits, number) is None:
                seen["duplicate add"] += present > 0
                seen["re-added"] += key in gone and not present
                naive[key] = present + 1
            seen["empty copies"] += not key and naive.get(key, 0) != present
            assert state.clause_counts() == naive, (clauses, steps, number)
    assert min(seen.values()) >= 20, seen


# -- RAT stages with several resolvents, and the store between steps ----------


def naive_store(clauses, steps):
    """Live clauses in canonical form, oldest first, with their copy counts,
    after the steps; a clause deleted to no copies and added again is new."""
    live = {}
    for clause in clauses:
        key = canonical(clause)
        live[key] = live.get(key, 0) + 1
    for kind, lits in steps:
        key = canonical(lits)
        if kind == "a":
            live[key] = live.get(key, 0) + 1
        elif len(key) != 1 and key in live:
            live[key] -= 1
            if not live[key]:
                del live[key]
    return live


def naive_failed_resolvent(database, lemma):
    """The first non-tautological resolvent on the lemma's first literal that
    is not AT, candidates taken in database order; None if there is none."""
    pivot = lemma[0]
    for other in database:
        rest = [lit for lit in other if lit != -pivot]
        if len(rest) == len(other) or any(-lit in lemma for lit in rest):
            continue
        resolvent = tuple(lemma) + tuple(lit for lit in rest if lit not in lemma)
        if not check_at_naive(database, resolvent):
            return resolvent
    return None


def resolvent_checks_by_step(trace):
    checks = {}
    for line in trace:
        step, _, message = line.partition(": ")
        if message.startswith("resolvent ("):
            checks[step] = checks.get(step, 0) + 1
    return checks


def test_rat_entries_with_several_resolvents_agree_with_the_slow_path_replay():
    rng = random.Random(83)
    several = later_rejections = 0
    for _ in range(500):
        clauses, steps = rat_replay_case(rng)
        proof = [(kind == "d", list(lits)) for kind, lits in steps]
        trace = []
        report = check_proof(clauses, proof, trace=trace.append)
        verdict, step, warned = replay_naive(clauses, steps)
        assert (report.verdict, report.step) == (verdict, step), (clauses, steps)
        assert [w.step for w in report.warnings] == warned
        checks = resolvent_checks_by_step(trace)
        several += sum(count >= 2 for count in checks.values())
        if verdict == REJECTED:
            lemma = steps[step - 1][1]
            database = list(naive_store(clauses, steps[: step - 1]))
            assert report.failed_resolvent == naive_failed_resolvent(database, lemma), (clauses, steps)
            later_rejections += checks.get("step %d" % step, 0) >= 2
    assert several >= 200 and later_rejections >= 20, (several, later_rejections)


def test_check_at_runs_once_per_lemma_and_once_per_resolvent_check(monkeypatch):
    # the benchmark's traced run wraps check_at by name and reads
    # at_calls = steps_add + resolvent_checks; a RAT stage that propagated
    # without check_at would still give every verdict and trace line
    calls = []
    original = CheckerState.check_at

    def counted(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CheckerState, "check_at", counted)
    rng = random.Random(61)
    resolvents = 0
    for _ in range(300):
        clauses, steps = rat_replay_case(rng)
        state = loaded(clauses)
        for number, (kind, lits) in enumerate(steps, start=1):
            trace = []
            state.trace = trace.append
            before = len(calls)
            rejection = state.apply_delete(lits, number) if kind == "d" else state.apply_add(lits, number)
            checks = sum(line.startswith("resolvent (") for line in trace)
            assert len(calls) - before == (kind == "a") + checks, (clauses, steps, number)
            resolvents += checks
            if kind == "a" and rejection is not None:
                break
    assert resolvents >= 500, resolvents


def test_an_untraced_rat_stage_sorts_only_a_failing_resolvent(monkeypatch):
    sorted_for = []
    original = CheckerState._sorted_literals

    def recorded(self, codes):
        sorted_for.append(original(self, codes))
        return sorted_for[-1]

    monkeypatch.setattr(CheckerState, "_sorted_literals", recorded)
    rng = random.Random(67)
    rejections = 0
    for _ in range(300):
        clauses, steps = rat_replay_case(rng)
        proof = [(kind == "d", list(lits)) for kind, lits in steps]
        sorted_for.clear()
        report = check_proof(clauses, proof)
        if report.failed_resolvent is None:
            assert sorted_for == [], (clauses, steps)
        else:
            # the failing candidate, and the resolvent written from it
            (other,) = sorted_for
            assert set(report.failed_resolvent) == set(report.clause) | set(other) - {-report.pivot}
            rejections += 1
    assert rejections >= 50, rejections


def test_binary_heavy_proofs_agree_with_the_slow_path_replay():
    rng = random.Random(97)
    paths = ("one of several copies deleted", "last copy deleted and added again",
             "binary lemma accepted by RAT", "conflict on a binary clause")
    seen = dict.fromkeys(paths, 0)
    for _ in range(600):
        clauses, steps = binary_replay_case(rng)
        proof = [(kind == "d", list(lits)) for kind, lits in steps]
        trace = []
        report = check_proof(clauses, proof, trace=trace.append)
        verdict, step, warned = replay_naive(clauses, steps)
        assert (report.verdict, report.step) == (verdict, step), (clauses, steps)
        assert [w.step for w in report.warnings] == warned
        if verdict == REJECTED and steps[step - 1][1]:
            database = list(naive_store(clauses, steps[: step - 1]))
            assert report.failed_resolvent == naive_failed_resolvent(database, steps[step - 1][1]), (clauses, steps)
        # and on the command line's store, loaded from the clauses as written
        assert checker_module.check_records(loaded_state(write_dimacs(clauses)), proof) == report
        notes = {}
        for line in trace:
            number, _, message = line.partition(": ")
            notes.setdefault(int(number.split()[1]), []).append(message)
        live, gone = naive_store(clauses, ()), set()
        for number, (kind, lits) in enumerate(steps[:step], start=1):
            key, messages = canonical(lits), notes.get(number, [])
            if kind == "d":
                if len(key) != 1 and key in live:
                    seen[paths[0]] += len(key) == 2 and live[key] > 1
                    live[key] -= 1
                    if not live[key]:
                        del live[key]
                        gone.add(key)
                continue
            if verdict == REJECTED and number == step:
                break
            if messages[0].startswith(("AT check passed", "empty clause has AT")):
                # with no longer clause and no clash among the assumed and unit
                # literals, only a binary clause can have been falsified
                assumed = {-lit for lit in lits} | {clause[0] for clause in live if len(clause) == 1}
                binary_only = max(map(len, live), default=0) <= 2 and () not in live
                seen[paths[3]] += binary_only and not any(-lit in assumed for lit in assumed)
            if len(key) == 2:
                seen[paths[1]] += key in gone and key not in live
                seen[paths[2]] += any(message.startswith("resolvent (") for message in messages)
            live[key] = live.get(key, 0) + 1
    assert min(seen.values()) >= 20, seen


def test_clauses_of_three_or_more_literals_give_no_code_an_implication_list():
    rng = random.Random(101)
    clauses = random_clause_list(rng, 3000, max_var=2000, min_len=3, max_len=5)
    state = CheckerState()
    state.load(clauses)
    state.check_rat([-lit for lit in clauses[1]])  # propagates, then builds the occurrence lists
    assert state._occurs is not None
    # one shared empty tuple, not a list per code
    assert state._implied[0] == () and len(state._implied) == len(state._values) > 3000
    assert all(others is state._implied[0] for others in state._implied)
    state.load([(clauses[0][0], -clauses[0][1])])
    assert sum(type(others) is list for others in state._implied) == 2


def test_each_signed_literal_is_one_int_object_in_the_code_map_and_the_literal_list():
    # variables above 256, so that no literal is one of CPython's cached small ints
    state = CheckerState()
    state.load([[1000, -2000], [-3000, 4000, 1000]])
    # beside the literals, the map holds the readers' clause terminator 0, which maps to no code
    assert len(state._code) == len(state._literal) + 1 == 9 and state._code[0] is None
    assert all(state._literal[code] is literal for literal, code in state._code.items() if literal)
    assert sorted(state._literal, key=abs) == [1000, -1000, 2000, -2000, 3000, -3000, 4000, -4000]


def test_a_deleted_binary_clause_implies_nothing_afterwards():
    state = loaded_state("p cnf 3 4\n-1 2 0\n2 -1 0\n-2 3 0\n1 2 3 0\n")
    assert state.check_at([-1, 3])
    assert state.apply_delete([2, -1], 1) is None
    assert state.check_at([-1, 3])  # one copy is left
    assert state.apply_delete([-1, 2], 2) is None
    assert_store_invariants(state)
    literal = state._literal
    pairs = {(literal[code], literal[other]) for code, others in enumerate(state._implied) for other in others}
    assert pairs == {(-2, 3), (3, -2)}
    assert not state.check_at([-1, 3])
    assert not state.check_at([-1], _keep=True)
    assert state._values[state._code[1]] == checker_module.TRUE
    assert state._values[state._code[2]] == checker_module.UNASSIGNED
    state._undo(0)
    assert state.apply_delete([-1, 2], 3).kind == WARN_DELETED_MISSING


def test_store_invariants_hold_after_every_step():
    rng = random.Random(89)
    rat_stages = 0
    for case in range(600):
        clauses, steps = (random_replay_case if case % 2 else rat_replay_case)(rng)
        state = loaded(clauses)
        assert_store_invariants(state)
        applied = []
        for number, (kind, lits) in enumerate(steps, start=1):
            if kind == "d":
                state.apply_delete(lits, number)
                applied.append((kind, lits))
            elif state.apply_add(lits, number) is None:
                applied.append((kind, lits))
            assert_store_invariants(state)
            live = naive_store(clauses, applied)
            counts = state.clause_counts()
            assert state._pending == []
            assert_store_invariants(state)
            counts.pop((), None)
            live.pop((), None)
            assert list(counts.items()) == list(live.items()), (clauses, steps, number)
        rat_stages += state._occurs is not None
    assert rat_stages >= 300


def test_a_trace_that_raises_at_the_first_resolvent_leaves_the_trail_empty():
    state = loaded(parse_dimacs("p cnf 5 3\n-1 2 0\n-1 3 0\n2 -3 0\n"))
    trails = []

    def trace(message):
        if message.startswith("resolvent"):
            trails.append(len(state._trail))
            raise RuntimeError(message)

    state.trace = trace
    with pytest.raises(RuntimeError, match=r"resolvent \(1 4 2\) \(with \(-1 2\)\): AT failed"):
        state.apply_add([1, 4], 1)
    assert trails[0] > 0  # the lemma's fixpoint was on the trail
    assert_store_invariants(state)
    state.trace = None
    assert state.apply_add([1, 4], 2).failed_resolvent == (1, 4, 2)


# -- duplicate copies: pending until the index catches up, then merged --------


def test_each_deletion_of_a_merged_clause_removes_one_copy():
    # a unit, a binary clause and a longer clause, each twice, the longer one
    # also as a permuted third copy; every copy waits for the first deletion
    state = loaded([(5,), (-1, 2), (-2, 3, 4), (5,), (2, -1), (-2, 3, 4), (4, -2, 3)])
    assert state._ids == {} and len(state._pending) == 7
    assert_store_invariants(state)
    step = 0
    for clause, copies in (((-1, 2), 2), ((-2, 3, 4), 3)):
        for _ in range(copies):
            assert state.check_at(clause)  # a copy is left to propagate through
            step += 1
            assert state.apply_delete(clause[::-1], step) is None
            assert state._pending == []
            assert_store_invariants(state)
        assert not state.check_at(clause)
        step += 1
        assert state.apply_delete(clause, step).kind == WARN_DELETED_MISSING
    assert state._units == [state._code[5]] * 2 and state.check_at((5,))  # both copies of (5,) stay asserted
    assert state.clause_counts() == {(5,): 2}


def test_a_duplicated_rat_candidate_merged_mid_trail_gives_one_resolvent_line(monkeypatch, tmp_path, capsys):
    from dratcheck.cli import main

    # (1 3) fails AT; its one RAT candidate on -1 is held in three copies
    formula, proof = tmp_path / "formula.cnf", tmp_path / "proof.drat"
    formula.write_text(write_dimacs([(-1, 2, 5), (3, 2, 4), (5, -1, 2), (3, 2, -4), (-1, 2, 5)]))
    proof.write_text("1 3 0\n")
    index = CheckerState._index
    calls = []

    def record(state):
        calls.append((len(state._trail), len(state._pending)))
        return index(state)

    monkeypatch.setattr(CheckerState, "_index", record)
    assert main(["check", "-v", str(formula), str(proof)]) == 1
    assert calls[0][0] > 0 and calls[0][1] == 5  # the lemma's fixpoint is on the trail
    resolvents = [line for line in capsys.readouterr().out.splitlines() if "resolvent" in line]
    assert resolvents == ["c step 1: resolvent (1 3 2 5) (with (-1 2 5)): AT passed"]


def test_equal_copies_swapped_apart_by_a_conflict_merge_by_identity():
    # (1 2 3) and (2 1 3) are copies; the conflict of (1 2 3) swaps its
    # positions 0 and 1 and stops before (2 1 3), so both lists read the
    # same codes, and equality alone cannot tell which one is pending
    state = loaded([(1, 2, 3), (2, 1, 3)])
    first, second = state._pending
    assert first != second
    assert state.check_at((1, 2, 3))
    assert first == second and first is not second
    assert_store_invariants(state)
    assert state.clause_counts() == {(1, 2, 3): 2}
    assert_store_invariants(state)
    assert [*state._ids.values()] == [first] and state._ids[tuple(sorted(first))] is first
    assert state.apply_delete([3, 2, 1], 1) is None and state.check_at((1, 2, 3))
    assert state.apply_delete([2, 1, 3], 2) is None and not state.check_at((1, 2, 3))
    assert_store_invariants(state)


# -- the command line's store: DIMACS clauses loaded straight into the checker --


def loaded_state(text):
    """The state the command line checks against."""
    state = CheckerState()
    state.load(clause_records(text))
    return state


def test_loaded_store_equals_the_formula_store_step_by_step():
    # a store loaded with each clause as written and one loaded with each
    # sorted by variable agree on every step
    rng = random.Random(73)
    seen = dict.fromkeys(("permuted duplicate", "unit", "empty", "deleted copy", REJECTED, VERIFIED), 0)
    for _ in range(300):
        clauses, steps = random_replay_case(rng)
        for clause in rng.sample(clauses, min(len(clauses), rng.randint(0, 3))):
            clauses.insert(rng.randint(0, len(clauses)), tuple(rng.sample(clause, len(clause))))
            seen["permuted duplicate"] += len(clause) > 1
        seen["unit"] += any(len(clause) == 1 for clause in clauses)
        seen["empty"] += () in clauses
        text = write_dimacs(clauses)
        assert parse_dimacs(text) == [list(clause) for clause in clauses]
        by_variable, written = loaded(map(canonical, clauses)), loaded_state(text)
        assert written.clause_counts() == by_variable.clause_counts() == naive_store(clauses, ())
        records = [(kind == "d", lits) for kind, lits in steps]
        report = checker_module.check_records(loaded_state(text), records)
        assert report == check_proof(parse_dimacs(text), records)
        seen[report.verdict] = seen.get(report.verdict, 0) + 1
        for number, (delete, lits) in enumerate(records, start=1):
            outcomes = [(state.apply_delete if delete else state.apply_add)(lits, number)
                        for state in (by_variable, written)]
            assert outcomes[0] == outcomes[1], (clauses, steps, number)
            assert written.clause_counts() == by_variable.clause_counts(), (clauses, steps, number)
            seen["deleted copy"] += delete and outcomes[0] is None
    assert min(seen.values()) >= 20, seen


def test_a_clause_is_stored_as_written_and_keyed_by_its_sorted_codes():
    state = loaded_state("p cnf 3 2\n3 -1 2 0\n-1 2 0\n")
    (key, codes), _ = state._index().items()
    assert state._literals(codes) == (3, -1, 2) and key == tuple(sorted(codes))
    assert state.clause_counts() == {(-1, 2, 3): 1, (-1, 2): 1}
    assert state.apply_delete([2, 3, -1], 1) is None
    assert state.clause_counts() == {(-1, 2): 1}


def test_a_rejected_clause_and_a_warning_hold_the_literals_as_written():
    formula = [[1], [-2]]
    report = check_proof(formula, [(True, [3, -2, 1]), (False, [2, -1])])
    assert report.verdict == REJECTED and report.clause == (2, -1)
    assert report.pivot == 2 and report.failed_resolvent == (2, -1)
    (warning,) = report.warnings
    assert warning.clause == (3, -2, 1) and hash(warning) == hash(warning)


def test_the_check_path_sorts_no_clause_canonically(monkeypatch, tmp_path, capsys):
    # no variable repeats here, so no reader or checker step needs repeated_variable
    import importlib

    import dratcheck

    def refuse(literals):
        raise AssertionError("repeated_variable(%r)" % (literals,))

    for name in ("model", "lexer", "dimacs", "proofio", "checker", "cli"):
        module = importlib.import_module("dratcheck." + name)
        monkeypatch.setattr(module, "repeated_variable", refuse, raising=False)
    formula_text = "p cnf 4 8\n2 1 -3 0\n-1 -2 3 0\n-4 3 2 0\n-2 -3 4 0\n-1 -3 -4 0\n1 3 4 0\n4 2 -1 0\n1 -2 -4 0\n"
    proof_text = b"-1 0\nd 4 -1 2 0\nd 5 6 0\n2 0\n0\n"
    report = checker_module.check_records(loaded_state(formula_text), dratcheck.proofio.plain_records(proof_text))
    assert report.verified and [w.clause for w in report.warnings] == [(5, 6)]
    formula, proof = tmp_path / "formula.cnf", tmp_path / "proof.drat"
    formula.write_text(formula_text)
    proof.write_bytes(proof_text)
    for flags in ([], ["-v"], ["-q"]):
        assert dratcheck.cli.main(["check", *flags, str(formula), str(proof)]) == 0
    assert "matched stored clause (-1 2 4) up to literal order" in capsys.readouterr().out


def test_deleting_a_clause_with_an_unseen_variable_creates_no_variable():
    state = loaded_state("p cnf 3 2\n1 2 0\n-2 3 0\n")
    variables = len(state._values)
    trace = []
    state.trace = trace.append
    for number, lits in enumerate(([1, 4], [2**31 - 1, -2], [9, 10**7, 3]), start=1):
        warning = state.apply_delete(lits, number)
        assert warning is not None and warning.kind == WARN_DELETED_MISSING
    assert len(state._values) == variables
    assert state.clause_counts() == {(1, 2): 1, (-2, 3): 1}
    assert trace[0] == "delete (1 4): not in formula, ignored"


small_formula = st.lists(
    st.lists(st.integers(min_value=1, max_value=5), unique=True, min_size=1, max_size=3).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
    ),
    min_size=1,
    max_size=8,
)


@given(small_formula, st.lists(st.integers(min_value=1, max_value=5), unique=True, max_size=3),
       st.randoms())
@settings(max_examples=150, deadline=None)
def test_at_soundness_against_the_oracle(clauses, assumption_vars, rng):
    candidate = tuple(v if rng.random() < 0.5 else -v for v in assumption_vars)
    if check_at(clauses, candidate):
        negated = [(-l,) for l in candidate]
        assert not brute_force_sat(list(clauses) + negated).satisfiable
