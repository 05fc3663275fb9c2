"""Deterministic workload generators and the benchmark's own file encoders.

Every workload is a DIMACS formula plus a DRAT proof of its
unsatisfiability, built from a seed alone. The files are written by the
encoders below, never by dratcheck's serializers, so bytes that dratcheck
converts can be compared with an independent reference.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

ADD, DELETE = "a", "d"

# Sizes are chosen so that one CLI check runs for about a second or more on
# a 2-core Xeon with CPython 3.11, and so that one run of each workload fits
# in the benchmark's time budget.
DPLL_DEL_VARS = 100
DPLL_GROW_VARS = 80
DPLL_RATIO = 5  # clauses per variable; random 3-SAT at 5n is almost always unsat
PHP_HOLES = 14
WIDE_CORE_VARS = 45
WIDE_PADDING_CLAUSES = 100_000
WIDE_PADDING_RATIO = 4  # padding clauses per padding variable

# Step-count bands: a seed's formula is redrawn until its refutation falls
# in the band, so that runs with different seeds do comparable work.
DPLL_DEL_BAND = (18_000, 26_000)
DPLL_GROW_BAND = (3_500, 3_900)
WIDE_CORE_BAND = (300, 320)


@dataclass
class Workload:
    name: str
    num_vars: int
    clauses: list  # formula clauses, each a tuple of non-zero ints
    steps: list  # proof steps, each (ADD or DELETE, tuple of ints)
    draws: int = 1  # formulas drawn before one fell in the step band

    @property
    def adds(self) -> int:
        return sum(1 for kind, _ in self.steps if kind == ADD)

    @property
    def deletes(self) -> int:
        return len(self.steps) - self.adds

    @property
    def literals(self) -> int:
        return sum(len(lits) for _, lits in self.steps)


# -- encoders -----------------------------------------------------------------


def encode_dimacs(num_vars: int, clauses) -> bytes:
    lines = ["p cnf %d %d" % (num_vars, len(clauses))]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return ("\n".join(lines) + "\n").encode("ascii")


def encode_plain(steps) -> bytes:
    """One step per line, single spaces, "d " before deletions."""
    out = []
    for kind, lits in steps:
        fields = ["d"] if kind == DELETE else []
        fields.extend(map(str, lits))
        fields.append("0")
        out.append(" ".join(fields) + "\n")
    return "".join(out).encode("ascii")


def _varint(value: int, out: bytearray) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def encode_binary(steps) -> bytes:
    """Prefix byte, literal codes 2v / 2v+1 as LSB-first varints, zero byte."""
    out = bytearray()
    for kind, lits in steps:
        out.append(ord(kind))
        for lit in lits:
            _varint(2 * lit if lit > 0 else -2 * lit + 1, out)
        out.append(0)
    return bytes(out)


def write_files(workload: Workload, directory: str) -> dict:
    """Write formula, plain and binary proof and the two probe proofs.

    Returns {role: {"path", "bytes", "sha256"}}. The probes are an empty
    proof, which must leave the proof unverified, and a proof whose first
    step is the empty clause, which must be rejected at step 1 because no
    formula here has a unit clause.
    """
    os.makedirs(directory, exist_ok=True)
    contents = {
        "formula": encode_dimacs(workload.num_vars, workload.clauses),
        "plain": encode_plain(workload.steps),
        "binary": encode_binary(workload.steps),
        "empty": b"",
        "reject": encode_plain([(ADD, ())]),
    }
    suffix = {"formula": ".cnf", "binary": ".bdrat"}
    files = {}
    for role, data in contents.items():
        path = os.path.join(directory, role + suffix.get(role, ".drat"))
        with open(path, "wb") as handle:
            handle.write(data)
        files[role] = {
            "path": path,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    return files


# -- DPLL tree refutations ------------------------------------------------------


def random_3sat(rng: random.Random, variables, num_clauses: int):
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(variables, 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return clauses


def dpll_refutation(num_vars: int, clauses, rng: random.Random, deletions: bool, max_steps: int):
    """Proof steps of a DPLL tree refutation, or None if sat or over max_steps.

    DPLL branches on the lowest unassigned variable with a seeded sign
    order. Every refuted node emits its negated decisions, in post-order,
    so each lemma follows from the formula and the earlier lemmas by unit
    propagation; the root emits the empty clause. With deletions, the two
    child lemmas of a node are deleted right after its own lemma.
    """
    occurrences = {}
    for clause in clauses:
        for lit in clause:
            occurrences.setdefault(lit, []).append(clause)
    value = [0] * (num_vars + 1)
    trail: list[int] = []
    steps: list = []

    def assign(lit):
        value[lit if lit > 0 else -lit] = 1 if lit > 0 else -1
        trail.append(lit)

    def propagate(head):
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            for clause in occurrences.get(falsified, ()):
                open_count, last = 0, 0
                for lit in clause:
                    v = value[lit] if lit > 0 else -value[-lit]
                    if v == 1:
                        break
                    if v == 0:
                        open_count += 1
                        last = lit
                else:
                    if open_count == 0:
                        return False
                    if open_count == 1:
                        assign(last)
        return True

    def refute(decisions, head):
        if len(steps) > max_steps:
            return False
        if not propagate(head):
            steps.append((ADD, tuple(-d for d in decisions)))
            return True
        var = next((v for v in range(1, num_vars + 1) if value[v] == 0), None)
        if var is None:
            return False  # a satisfying assignment
        signs = [var, -var]
        rng.shuffle(signs)
        for lit in signs:
            mark = len(trail)
            assign(lit)
            refuted = refute(decisions + [lit], mark)
            for undone in trail[mark:]:
                value[abs(undone)] = 0
            del trail[mark:]
            if not refuted:
                return False
        steps.append((ADD, tuple(-d for d in decisions)))
        if deletions and decisions:
            for lit in signs:
                steps.append((DELETE, tuple(-d for d in decisions + [lit])))
        return True

    return steps if refute([], 0) else None


def dpll_in_band(name: str, rng: random.Random, num_vars: int, band, deletions: bool):
    """Draw random 3-SAT formulas until one's refutation has a step count in band.

    Returns (clauses, steps, draws).
    """
    low, high = band
    variables = list(range(1, num_vars + 1))
    for draw in range(1, 201):
        clauses = random_3sat(rng, variables, DPLL_RATIO * num_vars)
        steps = dpll_refutation(num_vars, clauses, rng, deletions, high)
        if steps is not None and low <= len(steps) <= high:
            return clauses, steps, draw
    raise RuntimeError("%s: no formula in the step band after 200 draws" % name)


def dpll_workload(name: str, seed: int, num_vars: int, band, deletions: bool) -> Workload:
    rng = random.Random("%s/%d" % (name, seed))
    clauses, steps, draws = dpll_in_band(name, rng, num_vars, band, deletions)
    return Workload(name, num_vars, clauses, steps, draws)


# -- Cook's extended-resolution proof of the pigeonhole principle ---------------


def php_workload(seed: int, holes: int = PHP_HOLES) -> Workload:
    """PHP_n (n+1 pigeons, n holes) and Cook's reduction written as DRAT.

    Level m reduces PHP_m over p to PHP_{m-1} over fresh q with
    q_ij <-> p_ij | (p_im & p_{m+1,j}). Its four definition clauses per q
    are RAT on the fresh pivot q_ij (written first). Each new hole clause
    (-q_ij -q_kj) fails AT and is RAT on -q_ij: its two non-tautological
    resolvents, with the two positive definitions of q_ij, are AT. The
    level's pigeon clauses come last; they are AT. At PHP_1 the two unit
    pigeon clauses and the one hole clause give the empty clause by AT.
    The seed renames variables and shuffles clause, literal and step order
    wherever the proof stays valid.
    """
    rng = random.Random("php-rat/%d" % seed)
    counter = [0]

    def fresh(rows, cols):
        grid = {}
        for i in range(1, rows + 1):
            for j in range(1, cols + 1):
                counter[0] += 1
                grid[i, j] = counter[0]
        return grid

    p = fresh(holes + 1, holes)
    clauses = [tuple(p[i, j] for j in range(1, holes + 1)) for i in range(1, holes + 2)]
    for j in range(1, holes + 1):
        for i in range(1, holes + 2):
            for k in range(i + 1, holes + 2):
                clauses.append((-p[i, j], -p[k, j]))

    steps = []
    for m in range(holes, 1, -1):
        q = fresh(m, m - 1)
        definitions = []
        for i in range(1, m + 1):
            for j in range(1, m):
                v = q[i, j]
                definitions += [
                    (v, -p[i, j]),
                    (v, -p[i, m], -p[m + 1, j]),
                    (-v, p[i, j], p[i, m]),
                    (-v, p[i, j], p[m + 1, j]),
                ]
        hole_clauses = []
        for j in range(1, m):
            for i in range(1, m + 1):
                for k in range(i + 1, m + 1):
                    pair = [(-q[i, j], -q[k, j]), (-q[k, j], -q[i, j])]
                    hole_clauses.append(rng.choice(pair))
        pigeons = [tuple(q[i, j] for j in range(1, m)) for i in range(1, m + 1)]
        for block in (definitions, hole_clauses, pigeons):
            rng.shuffle(block)
            steps.extend((ADD, _shuffle_tail(rng, lits)) for lits in block)
        p = q
    steps.append((ADD, ()))

    num_vars = counter[0]
    rename = list(range(1, num_vars + 1))
    rng.shuffle(rename)
    rename = [0] + rename

    def renamed(lits):
        return tuple(rename[l] if l > 0 else -rename[-l] for l in lits)

    clauses = [renamed(rng.sample(c, len(c))) for c in clauses]
    rng.shuffle(clauses)
    steps = [(kind, renamed(lits)) for kind, lits in steps]
    return Workload("php-rat", num_vars, clauses, steps)


def _shuffle_tail(rng, lits):
    """Shuffle every literal but the first, which is the RAT pivot."""
    tail = list(lits[1:])
    rng.shuffle(tail)
    return (lits[0], *tail)


# -- a large satisfiable padding around a small unsat core ----------------------


def wide_workload(
    seed: int, padding: int = WIDE_PADDING_CLAUSES, core_vars: int = WIDE_CORE_VARS, band=WIDE_CORE_BAND
) -> Workload:
    """Random 3-SAT core with a DPLL refutation, hidden in planted-sat padding.

    The padding uses variables the core does not, and every padding clause
    is satisfied by a hidden assignment, so the formula is unsat only
    through its core. No padding clause is a unit, so propagation never
    reaches the padding and parsing and set-up dominate a check.
    """
    name = "wide-formula"
    rng = random.Random("%s/%d" % (name, seed))
    core, steps, draws = dpll_in_band(name, rng, core_vars, band, deletions=False)
    pad_vars = list(range(core_vars + 1, core_vars + 1 + padding // WIDE_PADDING_RATIO))
    planted = {v: rng.random() < 0.5 for v in pad_vars}
    clauses = []
    for _ in range(padding):
        chosen = rng.sample(pad_vars, 3)
        lits = [v if rng.random() < 0.5 else -v for v in chosen]
        if not any((l > 0) == planted[abs(l)] for l in lits):
            flip = rng.randrange(3)
            lits[flip] = -lits[flip]
        clauses.append(tuple(lits))
    positions = sorted(rng.sample(range(padding + len(core)), len(core)))
    for position, clause in zip(positions, core):
        clauses.insert(position, clause)
    return Workload(name, pad_vars[-1], clauses, steps, draws)


def generate(name: str, seed: int) -> Workload:
    if name == "dpll-del":
        return dpll_workload(name, seed, DPLL_DEL_VARS, DPLL_DEL_BAND, deletions=True)
    if name == "dpll-grow":
        return dpll_workload(name, seed, DPLL_GROW_VARS, DPLL_GROW_BAND, deletions=False)
    if name == "php-rat":
        return php_workload(seed)
    if name == "wide-formula":
        return wide_workload(seed)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("dpll-del", "dpll-grow", "php-rat", "wide-formula")
