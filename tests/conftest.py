import pytest

from dratcheck.checker import CheckerState
from dratcheck.dimacs import parse_dimacs
from dratcheck.proofio import parse_plain_proof

# Worked example used throughout: 4 variables, 8 clauses, and the 4-step
# refutation of it (spacing kept as published).
PAPER_FORMULA = """p cnf 4 8
 1  2 -3 0
-1 -2  3 0
 2  3 -4 0
-2 -3  4 0
-1 -3 -4 0
 1  3  4 0
-1  2  4 0
 1 -2 -4 0
"""

PAPER_PROOF = """         -1 0
  d -1 2  4 0
          2 0
            0
"""

PAPER_CLAUSES = [
    (1, 2, -3),
    (-1, -2, 3),
    (2, 3, -4),
    (-2, -3, 4),
    (-1, -3, -4),
    (1, 3, 4),
    (-1, 2, 4),
    (1, -2, -4),
]

# Two-step conversion example: 26 bytes of plain text, 12 bytes binary.
CONVERSION_PLAIN = b"d -63 -8193 0\n129 -8191 0\n"
CONVERSION_BINARY = bytes.fromhex("64 7f 83 80 01 00 61 82 02 ff 7f 00".replace(" ", ""))


@pytest.fixture
def paper_formula():
    return parse_dimacs(PAPER_FORMULA)


@pytest.fixture
def paper_proof():
    return parse_plain_proof(PAPER_PROOF)


# -- one-call checks and a DIMACS writer over a clause list -----------------

def codes_of(state, literals):
    """The state's codes of the literals, in order; a variable not yet seen gets its codes."""
    return [*map(state.code.__getitem__, literals)]


def load(state, clauses):
    """Store one copy of each literal sequence, as check_proof stores a formula: one batch of exact-size code lists."""
    state.store(([codes_of(state, clause)[:] for clause in clauses],))


def loaded(clauses):
    """A fresh checker state holding one copy of each clause, as check_proof stores them."""
    state = CheckerState()
    load(state, clauses)
    return state


def canonical(literals):
    """A clause as clause_counts keys it: its literals sorted by variable."""
    return tuple(sorted(literals, key=abs))


def clause_counts(state):
    """Copies of each clause in the state's store, keyed by its literals sorted by variable."""
    extra = state._surplus.get
    counts = {state._sorted_literals(codes): 1 + extra(id(codes), 0) for codes in state._index().values()}
    return {(): state._empty_copies, **counts} if state._empty_copies else counts


def propagate(clauses, assumptions=()):
    """Unit propagation on clauses under assumptions; True means conflict."""
    state = loaded(clauses)
    return state.check_at(codes_of(state, [-lit for lit in assumptions]))


def check_at(clauses, literals):
    """Asymmetric tautology test for a duplicate-free, non-tautological clause."""
    state = loaded(clauses)
    return state.check_at(codes_of(state, literals))


def check_rat(clauses, literals):
    """Resolution asymmetric tautology test; the pivot is the first written literal."""
    state = loaded(clauses)
    ok, _, _ = state.check_rat(codes_of(state, literals))
    return ok


def write_dimacs(clauses):
    """Clauses as DIMACS text, literals as written, declaring the largest variable."""
    var_max = max((abs(lit) for clause in clauses for lit in clause), default=0)
    lines = ["p cnf %d %d" % (var_max, len(clauses))]
    lines += [" ".join(map(str, (*clause, 0))) for clause in clauses]
    return "\n".join(lines) + "\n"


# -- random generators (plain random.Random for the bulk loops) --------------

def random_clause_lits(rng, max_var=8, min_len=1, max_len=4, magnitude=None):
    """Distinct-variable literal tuple in random order; magnitude overrides max_var."""
    top = magnitude if magnitude is not None else max_var
    size = rng.randint(min_len, min(max_len, top))
    variables = rng.sample(range(1, top + 1), size)
    return tuple(v if rng.random() < 0.5 else -v for v in variables)


def random_clause_list(rng, n_clauses, max_var=8, min_len=1, max_len=4):
    return [random_clause_lits(rng, max_var, min_len, max_len) for _ in range(n_clauses)]


def random_proof(rng, max_steps=8, max_var=2000, max_len=5, delete_ratio=0.3):
    """(delete, literals) records with literals as a list, as the readers yield them."""
    records = []
    for _ in range(rng.randint(0, max_steps)):
        lits = random_clause_lits(rng, max_var=max_var, min_len=0, max_len=max_len)
        records.append((rng.random() < delete_ratio, list(lits)))
    return records


def refutation_steps(clauses, rng=None, max_nodes=20000):
    """Clause sequence of a tree-shaped refutation, empty clause last.

    Runs DPLL with unit propagation and emits the negated decision set at
    every refuted node in post-order; each emitted clause is then derivable
    by unit propagation from the original formula, so the sequence forms a
    valid proof. Returns None if the formula turns out satisfiable (or the
    node budget runs out).
    """
    clauses = [tuple(c) for c in clauses]
    variables = sorted({abs(l) for c in clauses for l in c})
    steps = []
    budget = [max_nodes]

    def unit_propagate(values):
        while True:
            changed = False
            all_satisfied = True
            for clause in clauses:
                satisfied = False
                unassigned = []
                for lit in clause:
                    value = values.get(abs(lit))
                    if value is None:
                        unassigned.append(lit)
                    elif value == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return "conflict"
                all_satisfied = False
                if len(unassigned) == 1:
                    values[abs(unassigned[0])] = unassigned[0] > 0
                    changed = True
            if not changed:
                return "satisfied" if all_satisfied else "open"

    def refute(decisions, values):
        budget[0] -= 1
        if budget[0] < 0:
            return False
        outcome = unit_propagate(values)
        if outcome == "conflict":
            steps.append(tuple(-d for d in decisions))
            return True
        if outcome == "satisfied":
            return False
        var = next(v for v in variables if v not in values)
        signs = [var, -var]
        if rng is not None:
            rng.shuffle(signs)
        for lit in signs:
            child = dict(values)
            child[abs(lit)] = lit > 0
            if not refute(decisions + [lit], child):
                return False
        steps.append(tuple(-d for d in decisions))
        return True

    return steps if refute([], {}) else None


def random_replay_case(rng):
    """A small formula and a proof mixing a refutation (when the formula has
    one) with deletions of present, reordered, absent, unit and empty
    clauses, duplicate and empty additions, and additions over variables
    the formula lacks, up to the 31-bit limit."""
    clauses = random_clause_list(rng, rng.randint(0, 12), max_var=5, min_len=1, max_len=3)
    clauses += [()] * rng.choice((0, 0, 0, 0, 1, 2))
    lemmas = refutation_steps([c for c in clauses if c], rng) or []
    pool = list(clauses)
    steps = []
    for _ in range(rng.randint(0, 14)):
        roll = rng.random()
        if lemmas and roll < 0.35:
            lits = lemmas.pop(0)
        elif roll < 0.5:
            lits = random_clause_lits(rng, max_var=7, min_len=0, max_len=3)
        elif roll < 0.55:
            lits = (rng.choice((-1, 1)) * rng.choice((9, 10**7, 2**31 - 1)), 1)
        elif roll < 0.65 and pool:
            lits = rng.choice(pool)  # a duplicate copy
        else:
            if pool and roll < 0.9:
                source = rng.choice(pool)
            else:
                source = random_clause_lits(rng, max_var=6, min_len=0, max_len=3)
            steps.append(("d", tuple(rng.sample(source, len(source)))))
            continue
        steps.append(("a", tuple(lits)))
        pool.append(tuple(lits))
    return clauses, steps + [("a", lits) for lits in lemmas]


def rat_replay_case(rng, max_var=7):
    """A formula with several clauses on one negated pivot, and a proof of
    lemmas on that pivot, most of which fail AT. Most candidates get two
    clauses over their other literals and a helper variable, so that every
    resolvent with them is AT; the others decide at random. Deletions and
    re-additions of candidates change their order."""
    pivot = rng.choice((1, -1)) * rng.randint(1, max_var)
    others = [v for v in range(1, max_var + 1) if v != abs(pivot)]

    def clause(size):
        return tuple(v if rng.random() < 0.5 else -v for v in rng.sample(others, size))

    candidates = [(-pivot,) + clause(rng.randint(1, 2)) for _ in range(rng.randint(3, 8))]
    clauses = candidates + [clause(rng.randint(2, 3)) for _ in range(rng.randint(4, 10))]
    for candidate in candidates:
        if rng.random() < 0.75:
            helper = rng.choice((1, -1)) * rng.randint(max_var + 1, max_var + 2)
            clauses += [candidate[1:] + (helper,), candidate[1:] + (-helper,)]
    rng.shuffle(clauses)
    steps = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.3:
            steps.append(("d" if roll < 0.15 else "a", rng.choice(candidates)))
        else:
            steps.append(("a", (pivot,) + clause(rng.randint(1, 3))))
    return clauses, steps


def long_replay_case(rng, max_var=6):
    """A formula of clauses of 3 to 6 literals only, all watched, and a proof
    mixing a refutation (when the formula has one) with deletions of formula
    clauses, in any literal order, and random lemmas of 1 to 6 literals."""
    clauses = random_clause_list(rng, rng.randint(20, 90), max_var=max_var, min_len=3, max_len=6)
    lemmas = refutation_steps(clauses, rng) or []
    pool, steps = list(clauses), []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.3 and pool:
            clause = pool.pop(rng.randrange(len(pool)))
            steps.append(("d", tuple(rng.sample(clause, len(clause)))))
        elif roll < 0.7 and lemmas:
            steps.append(("a", lemmas.pop(0)))
        else:
            steps.append(("a", random_clause_lits(rng, max_var=max_var, min_len=1, max_len=6)))
    return clauses, steps + [("a", lits) for lits in lemmas]


def binary_replay_case(rng, max_var=6):
    """A formula of mostly binary clauses, some in two or three copies, and
    a proof that deletes copies one at a time, adds deleted clauses back,
    and adds random binary lemmas among the lemmas of a refutation (when
    the formula has one), which may then fail after the deletions."""

    def binary():
        return random_clause_lits(rng, max_var=max_var, min_len=2, max_len=2)

    clauses = [binary() for _ in range(rng.randint(4, 14))]
    clauses += random_clause_list(rng, rng.choice((0, 0, 1, 2)), max_var=max_var, min_len=1, max_len=3)
    for clause in rng.sample(clauses, min(len(clauses), rng.randint(1, 4))):
        clauses += [tuple(rng.sample(clause, len(clause))) for _ in range(rng.randint(1, 2))]
    rng.shuffle(clauses)
    lemmas = refutation_steps(clauses, rng) or []
    pool, deleted, steps = list(clauses), [], []
    for _ in range(rng.randint(2, 16)):
        roll = rng.random()
        if roll < 0.35 and pool:
            clause = pool.pop(rng.randrange(len(pool)))
            steps.append(("d", tuple(rng.sample(clause, len(clause)))))
            deleted.append(clause)
            continue
        if roll < 0.55 and deleted:
            lits = deleted.pop(rng.randrange(len(deleted)))
        elif roll < 0.7 and lemmas:
            lits = lemmas.pop(0)
        else:
            lits = binary()
        steps.append(("a", lits))
        pool.append(lits)
    return clauses, steps + [("a", lits) for lits in lemmas]


# -- the checker's store between steps ----------------------------------------

def assert_store_invariants(state):
    """The store as it stands, without bringing the index up to date.

    No assignment is left. The live copies are the indexed clauses plus
    the pending copies, and no pending copy is indexed; none is empty, as an
    empty clause is only counted; each index key is its clause's sorted
    codes. Each live copy is attached exactly once: a
    unit puts its code in the unit list, once more for each surplus copy
    merged into it, which stays asserted; a clause of three or more literals
    is watched at its positions 0 and 1, once each, and nowhere else; a
    binary clause is watched nowhere and puts its other code in each of its
    codes' implication lists once, which hold nothing else. An implication
    slot is a list or the shared (). Built occurrence lists hold the
    indexed clauses in store order. Surplus copies are counted for indexed
    clauses only."""
    assert state._trail == [] and not any(state._true)
    indexed, pending = list(state._ids.values()), state._pending
    assert not {id(codes) for codes in pending} & {id(codes) for codes in indexed}
    assert all(key == tuple(sorted(codes)) for key, codes in state._ids.items())
    live = indexed + pending
    assert len({id(codes) for codes in live}) == len(live) and all(live)
    units = [codes[0] for codes in live if len(codes) == 1 for _ in range(1 + state._surplus.get(id(codes), 0))]
    assert sorted(state._units) == sorted(units)
    watched = [(code, id(codes)) for code, watchers in enumerate(state._watches) for codes in watchers]
    expected = [(codes[k], id(codes)) for codes in live if len(codes) > 2 for k in (0, 1)]
    assert sorted(watched) == sorted(expected)
    implied = [(code, other) for code, others in enumerate(state._implied) for other in others]
    binary = [(codes[0], codes[1]) for codes in live if len(codes) == 2]
    assert sorted(implied) == sorted(binary + [(b, a) for a, b in binary])
    assert len(state._implied) == len(state._true)
    assert all(type(others) is list or others == () for others in state._implied)
    if state._occurs is not None:
        for code, occurrences in enumerate(state._occurs):
            assert [id(codes) for codes in occurrences] == [id(codes) for codes in indexed if code in codes]
    assert set(state._surplus) <= {id(codes) for codes in indexed}
    assert all(extra > 0 for extra in state._surplus.values())


# -- acceptance summary: one line per criterion, printed unconditionally -----

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, ()):
            if getattr(report, "when", "call") != "call":
                continue
            if "test_acceptance.py" in report.nodeid:
                name = report.nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line("%s  %s" % (status, name))
