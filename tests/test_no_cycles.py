"""Checking and converting make no reference cycles per step.

The command line runs with the cyclic garbage collector off (see
dratcheck/__main__.py), so a cycle made per step would be memory that
nothing frees before exit. These tests run the check and convert paths with
the collector off and gc.DEBUG_SAVEALL set, so that one collection at the
end saves in gc.garbage every object that only a cycle kept alive. The one
cycle allowed is CheckerState's own (its literal-code Memo holds a bound
method of the state); every other saved object must hang off that state.
"""

import gc
import random
import sys
import types

import pytest

from dratcheck.checker import CheckerState, check_proof
from dratcheck.dimacs import parse_dimacs
from dratcheck.model import REJECTED, VERIFIED
from dratcheck.proofio import BINARY, PLAIN, binary_records, plain_records, write_records

from conftest import PAPER_FORMULA, random_replay_case


def cyclic_garbage(function):
    """Call function with the collector off; return its result and what one
    collection then finds unreachable: the objects only cycles kept alive."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        result = function()
        gc.collect()
        return result, list(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def reachable_from(root) -> set[int]:
    """Ids of the objects reachable from root, without walking into modules,
    classes or module globals."""
    stop = {id(vars(module)) for module in list(sys.modules.values()) if module is not None}
    seen, stack = {id(root)}, [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if id(child) in seen or id(child) in stop or isinstance(child, (type, types.ModuleType)):
                continue
            seen.add(id(child))
            stack.append(child)
    return seen


def plain_bytes(steps) -> bytes:
    return b"".join(
        (b"d " if kind == "d" else b"") + b"".join(b"%d " % lit for lit in lits) + b"0\n" for kind, lits in steps
    )


def records(encoding: str, plain: bytes):
    if encoding == PLAIN:
        return plain_records(plain)
    return binary_records(b"".join(write_records(plain_records(plain), BINARY)))


def duplicate_adds(clauses, steps) -> int:
    present = {frozenset(clause) for clause in clauses}
    count = 0
    for kind, lits in steps:
        if kind == "a":
            count += frozenset(lits) in present
            present.add(frozenset(lits))
    return count


# the worked example: RAT steps around a deletion, verified, and the same
# proof rejected at its third step, whose RAT check has a failing resolvent
PAPER_PROOFS = [
    ([("a", (-1,)), ("d", (-1, 2, 4)), ("a", (2,)), ("a", ())], VERIFIED),
    ([("a", (-1,)), ("d", (-1, 2, 4)), ("a", (1,)), ("a", ())], REJECTED),
]


@pytest.mark.parametrize("encoding", [PLAIN, BINARY])
def test_checking_makes_no_cycle_beyond_the_checker_state(encoding):
    rng = random.Random(67)
    cases = [(parse_dimacs(PAPER_FORMULA), steps, verdict) for steps, verdict in PAPER_PROOFS]
    for _ in range(60):
        clauses, steps = random_replay_case(rng)
        cases.append((clauses, steps, None))
    seen = dict.fromkeys(("deletions", "duplicate adds", "RAT steps", "trace lines", REJECTED, VERIFIED), 0)
    for formula, steps, verdict in cases:
        lines = []
        data = plain_bytes(steps)
        report, garbage = cyclic_garbage(
            lambda: check_proof(formula, records(encoding, data), trace=lines.append)
        )
        assert verdict in (None, report.verdict)
        states = [obj for obj in garbage if type(obj) is CheckerState]
        assert len(states) == 1, [type(obj).__name__ for obj in garbage[:20]]
        reachable = reachable_from(states[0])
        stray = [obj for obj in garbage if id(obj) not in reachable]
        assert not stray, (steps, [type(obj).__name__ for obj in stray[:20]])
        seen[report.verdict] = seen.get(report.verdict, 0) + 1
        seen["deletions"] += sum(" removed one copy" in line or " matched stored" in line for line in lines)
        seen["duplicate adds"] += duplicate_adds(formula, steps)
        seen["RAT steps"] += sum("RAT check with pivot" in line for line in lines)
        seen["trace lines"] += len(lines)
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("source,target", [(PLAIN, BINARY), (BINARY, PLAIN)])
def test_reading_and_writing_records_makes_no_cycle(source, target):
    rng = random.Random(71)
    proofs = [plain_bytes(random_replay_case(rng)[1]) for _ in range(40)]
    proofs += [plain_bytes(steps) for steps, _ in PAPER_PROOFS]
    if source == BINARY:
        proofs = [b"".join(write_records(plain_records(proof), BINARY)) for proof in proofs]
    read = plain_records if source == PLAIN else binary_records

    def convert():
        for data in proofs:
            for _ in read(data):
                pass
            b"".join(write_records(read(data), target))

    _, garbage = cyclic_garbage(convert)
    assert garbage == []
