"""Acceptance suite: one test per criterion, at the stated tolerances.

The summary hook in conftest.py prints one PASS/FAIL line per criterion at
the end of the run. Bulk randomized checks use seeded generators so every
run exercises identical instances.
"""

import random
import time
from itertools import permutations

from dratcheck.checker import check_proof
from dratcheck.dimacs import parse_dimacs
from dratcheck.model import (
    MAX_LITERAL,
    REJECTED,
    VERIFIED,
    WARN_DELETED_MISSING,
    WARN_UNIT_DELETION,
)
from dratcheck.proofio import (
    decode_varint,
    encode_varint,
    map_literal,
    parse_binary_proof,
    parse_plain_proof,
    serialize_binary,
    serialize_plain,
    unmap_literal,
)

from conftest import (
    CONVERSION_BINARY,
    CONVERSION_PLAIN,
    PAPER_CLAUSES,
    PAPER_FORMULA,
    PAPER_PROOF,
    clause_counts,
    codes_of,
    loaded,
    random_clause_list,
    random_clause_lits,
    random_proof,
    refutation_steps,
)
from oracle import brute_force_sat
from slowpath import check_rat_naive, propagate_naive


def test_criterion_01_golden_example_verifies_with_rat_trace():
    formula = parse_dimacs(PAPER_FORMULA)
    proof = parse_plain_proof(PAPER_PROOF)

    start = time.perf_counter()
    report = check_proof(formula, proof)
    elapsed = time.perf_counter() - start
    assert report.verdict == VERIFIED
    assert report.warnings == []
    assert elapsed < 0.010

    trace = []
    check_proof(formula, proof, trace=trace.append)
    resolvent_lines = [line for line in trace if "resolvent" in line and "step 1" in line]
    assert len(resolvent_lines) == 3
    for expected in ("(-1 2 -3)", "(-1 3 4)", "(-1 -2 -4)"):
        assert any(expected in line for line in resolvent_lines)


def test_criterion_02_binary_conversion_is_bit_exact():
    binary = serialize_binary(parse_plain_proof(CONVERSION_PLAIN))
    assert binary == CONVERSION_BINARY
    assert len(binary) == 12
    plain = serialize_plain(parse_binary_proof(CONVERSION_BINARY))
    assert plain == CONVERSION_PLAIN
    assert len(plain) == 26


def test_criterion_03_published_tables_reproduce_exactly():
    for literal, code in ((-63, 127), (129, 258), (-8191, 16383), (-8193, 16387)):
        assert map_literal(literal) == code
        assert unmap_literal(code) == literal
    table = [
        (0, "00"),
        (1, "01"),
        (127, "7f"),
        (128, "8001"),
        (258, "8202"),
        (16383, "ff7f"),
        (16387, "838001"),
        (2**28 - 1, "ffffff7f"),
        (2**28 + 7, "8780808001"),
    ]
    for value, hexbytes in table:
        raw = bytes.fromhex(hexbytes)
        assert encode_varint(value) == raw
        assert decode_varint(raw) == (value, len(raw))


def test_criterion_04_round_trip_properties():
    rng = random.Random(0xD247)

    for index in range(10_000):
        magnitude = (9, 300, 8191, 2**20, MAX_LITERAL)[index % 5]
        proof = random_proof(rng, max_steps=5, max_var=magnitude, max_len=4)
        assert parse_plain_proof(serialize_plain(proof)) == proof
        assert parse_binary_proof(serialize_binary(proof)) == proof

    for _ in range(1_000_000):
        value = rng.randrange(0, 2**32)
        data = encode_varint(value)
        assert decode_varint(data) == (value, len(data))

    # the literal map is exercised exhaustively near zero and at the 31-bit
    # boundary, plus a large uniform sample over the full range
    for magnitude in range(1, 2**15):
        assert unmap_literal(map_literal(magnitude)) == magnitude
        assert unmap_literal(map_literal(-magnitude)) == -magnitude
    for magnitude in (2**31 - 2, 2**31 - 1):
        assert unmap_literal(map_literal(magnitude)) == magnitude
        assert unmap_literal(map_literal(-magnitude)) == -magnitude
    for _ in range(200_000):
        literal = rng.randint(1, MAX_LITERAL) * rng.choice((1, -1))
        assert unmap_literal(map_literal(literal)) == literal


def _mutate_proof(rng, proof):
    steps = list(proof)
    for _ in range(rng.randint(1, 3)):
        if not steps:
            break
        index = rng.randrange(len(steps))
        delete, lits = steps[index]
        action = rng.random()
        if action < 0.3 and lits:
            lits = list(lits)
            pos = rng.randrange(len(lits))
            lits[pos] = -lits[pos]
            steps[index] = (delete, lits)
        elif action < 0.5:
            del steps[index]
        elif action < 0.7:
            steps.insert(index, steps[index])
        elif action < 0.85:
            other = rng.randrange(len(steps))
            steps[index], steps[other] = steps[other], steps[index]
        else:
            steps[index] = (not delete, lits)
    return steps


def test_criterion_05_verified_proofs_imply_oracle_unsat():
    rng = random.Random(0x5A7)
    start = time.perf_counter()
    total = 500
    verified = 0
    for index in range(total):
        mode = index % 3
        if mode == 2:
            # loose mix of clause lengths; proofs are mostly garbage
            n_vars = rng.randint(3, 12)
            clauses = random_clause_list(rng, rng.randint(3, 40), max_var=n_vars,
                                         min_len=1, max_len=4)
            tree = None
        else:
            # near-threshold random 3-SAT so refutation trees have real depth
            n_vars = rng.randint(6, 12)
            n_clauses = int(n_vars * rng.uniform(4.0, 5.5))
            clauses = random_clause_list(rng, min(n_clauses, 40), max_var=n_vars,
                                         min_len=3, max_len=3)
            tree = refutation_steps(clauses, rng, max_nodes=4000)

        if tree is not None and mode == 0:
            proof = [(False, list(lits)) for lits in tree]
        elif tree is not None:
            proof = _mutate_proof(rng, [(False, list(lits)) for lits in tree])
        else:
            proof = random_proof(rng, max_steps=10, max_var=12, max_len=4)

        report = check_proof(clauses, proof)
        if report.verdict == VERIFIED:
            verified += 1
            assert not brute_force_sat(clauses).satisfiable
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    # the run must actually exercise the implication
    assert verified >= 50


def test_criterion_06_rat_additions_preserve_satisfiability():
    rng = random.Random(0x6B2)
    qualifying = 0
    attempts = 0
    while qualifying < 1000:
        attempts += 1
        assert attempts < 50_000
        clauses = random_clause_list(rng, rng.randint(1, 10), max_var=8, min_len=1, max_len=3)
        candidate = random_clause_lits(rng, max_var=8, min_len=1, max_len=3)
        state = loaded(clauses)
        ok, _, _ = state.check_rat(codes_of(state, candidate))
        if not ok:
            continue
        if not brute_force_sat(clauses).satisfiable:
            continue
        qualifying += 1
        assert brute_force_sat(clauses + [candidate]).satisfiable


def test_criterion_07_differential_propagation():
    rng = random.Random(0x7C3)
    instances = 0
    while instances < 10_000:
        clauses = random_clause_list(rng, rng.randint(0, 14), max_var=8, min_len=0, max_len=4)
        state = loaded(clauses)
        for _ in range(4):
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, 9), rng.randint(0, 4))]
            negated = codes_of(state, [-lit for lit in assumptions])
            assert state.check_at(negated) == propagate_naive(clauses, assumptions)
            instances += 1


def test_criterion_08_deletion_warning_semantics():
    formula = PAPER_CLAUSES + [(3,)]

    state = loaded(formula)
    before = clause_counts(state)
    warning = state.apply_delete([1, 2, 4], 1)
    assert warning is not None and warning.kind == WARN_DELETED_MISSING
    assert clause_counts(state) == before

    warning = state.apply_delete([3], 2)
    assert warning is not None and warning.kind == WARN_UNIT_DELETION
    assert clause_counts(state) == before

    # verdicts are unaffected: the golden proof with both odd deletions in
    # front still verifies and yields exactly one warning of each kind
    proof = [(True, [1, 2, 4]), (True, [3])] + parse_plain_proof(PAPER_PROOF)
    report = check_proof(formula, proof)
    assert report.verdict == VERIFIED
    assert [w.kind for w in report.warnings] == [WARN_DELETED_MISSING, WARN_UNIT_DELETION]


def test_criterion_09_binary_size_reduction_band():
    rng = random.Random(0x9E1)
    plain_total = binary_total = 0
    for _ in range(150):
        proof = random_proof(rng, max_steps=30, max_var=8191, max_len=8, delete_ratio=0.3)
        plain_total += len(serialize_plain(proof))
        binary_total += len(serialize_binary(proof))
    ratio = binary_total / plain_total
    assert 0.25 <= ratio <= 0.5


def _ordered_candidates(max_var, max_len):
    literals = [sign * v for v in range(1, max_var + 1) for sign in (1, -1)]
    for length in range(1, max_len + 1):
        for combo in permutations(literals, length):
            if len({abs(l) for l in combo}) == length:
                yield combo


def test_criterion_10_mutated_steps_are_rejected_at_their_index():
    golden = parse_plain_proof(PAPER_PROOF)
    # formula states right before each addition of the golden proof
    before_step = {
        1: list(PAPER_CLAUSES),
        3: [c for c in PAPER_CLAUSES if c != (-1, 2, 4)] + [(-1,)],
        4: [c for c in PAPER_CLAUSES if c != (-1, 2, 4)] + [(-1,), (2,)],
    }

    # steps 1 and 4 admit no non-RAT mutation at all: before step 1 every
    # candidate clause is RAT (exhaustively slow-path checked below), and
    # before step 4 the formula already propagates to a conflict, which
    # makes every possible clause an asymmetric tautology
    assert all(
        check_rat_naive(before_step[1], candidate)
        for candidate in _ordered_candidates(5, 3)
    )
    assert propagate_naive(before_step[4], []) is True
    assert all(
        check_rat_naive(before_step[4], candidate)
        for candidate in _ordered_candidates(5, 2)
    )

    # step 3 does admit non-RAT clauses; every one of them, spliced into the
    # golden proof, must be rejected exactly there
    non_rat = [
        candidate
        for candidate in _ordered_candidates(5, 2)
        if not check_rat_naive(before_step[3], candidate)
    ]
    assert non_rat  # the criterion is not vacuous at this step
    for candidate in non_rat:
        steps = list(golden)
        steps[2] = (False, list(candidate))
        report = check_proof(PAPER_CLAUSES, steps)
        assert report.verdict == REJECTED
        assert report.step == 3
        assert report.reason == "RAT check failed"
