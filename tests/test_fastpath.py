"""The lexer's two ways of converting a block, and the formula path into the store.

A block of decimal tokens with one space between them takes one call of the
JSON scanner; any other block, one with a tab among them, takes the token
path. Each input is read as written and with every space made a tab, and
both reads must give equal records or the same error, line and byte. The
command line stores a formula's clauses as the batches of code slices that
the DIMACS reader makes; that store must equal the one load builds from the
same literal lists, and that reader, which checks only the variables new to
the code map against the header's maximum, must raise the same errors.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dratcheck import lexer
from dratcheck.checker import CheckerState
from dratcheck.dimacs import DimacsError, clause_records, parse_dimacs
from dratcheck.proofio import ProofError, parse_plain_proof

import conftest
import interpreters
from conftest import assert_store_invariants
from interpreters import EDGE_TOKENS, EDGES, OVER_MAXIMUM

VAR_MAX = 5


def read(parse, data):
    """parse(data), or the error's (type, message, line, offset)."""
    try:
        return parse(data)
    except (DimacsError, ProofError) as exc:
        return type(exc), exc.message, exc.line, exc.offset


def tabbed(data):
    return data.replace(b" ", b"\t")


def assert_both_paths_agree(parse, data):
    assert read(parse, data) == read(parse, tabbed(data)), data[:200]


literals = st.lists(st.integers(1, VAR_MAX), unique=True, max_size=4).flatmap(
    lambda variables: st.tuples(*[st.sampled_from([b"%d" % v, b"-%d" % v]) for v in variables]))
edge_tokens = st.sampled_from(EDGE_TOKENS + [b"%d" % (VAR_MAX + 1), b"-%d" % (VAR_MAX + 1)])


@st.composite
def texts(draw, deletes):
    """Lines with single spaces, now and then a comment line: each holds literals of distinct variables, now
    and then an edge token among them, mostly a closing 0 and, in a proof, now and then a leading "d"."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(b"c a comment 1 -0")
            continue
        line = [*draw(literals)]
        if draw(st.integers(0, 9)) == 0:
            line.insert(draw(st.integers(0, len(line))), draw(edge_tokens))
        if deletes and draw(st.booleans()):
            line.insert(0, b"d")
        lines.append(b" ".join(line + [b"0"] * (draw(st.integers(0, 5)) > 0)))
    return b"\n".join(lines) + b"\n" * draw(st.integers(0, 1))


def _zeros(text):
    return sum(line.split().count(b"0") for line in text.split(b"\n") if line[:1] != b"c")


@given(texts(deletes=False), st.sampled_from([None, 7, 40]))
@settings(max_examples=300, deadline=None)
def test_a_formula_reads_alike_on_both_paths(body, size):
    formula = b"p cnf %d %d\n" % (VAR_MAX, _zeros(body)) + body
    with pytest.MonkeyPatch.context() as patch:
        if size:
            patch.setattr(lexer, "BLOCK_BYTES", size)
        assert_both_paths_agree(parse_dimacs, formula)


@given(texts(deletes=True), st.sampled_from([None, 7, 40]))
@settings(max_examples=300, deadline=None)
def test_a_proof_reads_alike_on_both_paths(proof, size):
    with pytest.MonkeyPatch.context() as patch:
        if size:
            patch.setattr(lexer, "BLOCK_BYTES", size)
        assert_both_paths_agree(parse_plain_proof, proof)


@pytest.mark.parametrize("name,formula,proof", EDGES, ids=[edge[0] for edge in EDGES])
def test_each_edge_block_reads_alike_on_both_paths(name, formula, proof):
    assert_both_paths_agree(parse_dimacs, formula)
    assert_both_paths_agree(parse_plain_proof, proof)
    if name != "valid formula and proof":  # every other case is an error
        outcome = read(parse_dimacs, formula) if name.startswith("formula") else read(parse_plain_proof, proof)
        assert isinstance(outcome, tuple), outcome


def _stored(data):
    state = CheckerState()
    state._store(clause_records(data, state._code))
    return state


def assert_the_formula_path_agrees(data):
    """The command line's path into the store raises what parse_dimacs raises, or stores what it reads."""
    expected, got = read(parse_dimacs, data), read(_stored, data)
    if isinstance(expected, tuple) or isinstance(got, tuple):
        assert got == expected, data[:200]
    else:
        loaded = CheckerState()
        loaded.load(expected)
        _same_store(got, loaded)


@given(texts(deletes=False), st.sampled_from([None, 7, 40]))
@settings(max_examples=300, deadline=None)
def test_a_formula_raises_alike_on_the_formula_path(body, size):
    formula = b"p cnf %d %d\n" % (VAR_MAX, _zeros(body)) + body
    with pytest.MonkeyPatch.context() as patch:
        if size:
            patch.setattr(lexer, "BLOCK_BYTES", size)
        assert_the_formula_path_agrees(formula)
        assert_the_formula_path_agrees(tabbed(formula))


# (message, line, byte) of each OVER_MAXIMUM case; a repeated variable before the literal wins
OVER_MAXIMUM_ERRORS = {
    "formula, over the maximum, a new variable first seen negative":
        ("literal -4 exceeds declared maximum variable 3", 3, 19),
    "formula, over the maximum, in a run of known variables":
        ("literal 4 exceeds declared maximum variable 3", 2002, 18018),
    "formula, over the maximum, after a repeated variable": ("complementary literals 1 and -1", 2, 10),
}


@pytest.mark.parametrize("name,formula,proof", OVER_MAXIMUM, ids=[case[0] for case in OVER_MAXIMUM])
def test_a_literal_over_the_maximum_is_found_on_the_formula_path(name, formula, proof):
    for data in (formula, tabbed(formula)):
        assert read(_stored, data) == (DimacsError, *OVER_MAXIMUM_ERRORS[name])
        assert_the_formula_path_agrees(data)


def test_a_clean_block_takes_one_json_call_and_a_block_with_a_tab_none(monkeypatch):
    calls = []
    loads = lexer.json.loads
    monkeypatch.setattr(lexer.json, "loads", lambda text: calls.append(text) or loads(text))
    formula = b"p cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n"
    assert parse_dimacs(formula) == parse_dimacs(tabbed(formula)) == [[1, -2], [2, 3], [-1]]
    assert calls == [b"[1,-2,0,2,3,0,-1,0]"]
    assert parse_plain_proof(b"1 2 0\n-1 0\n") == [(False, [1, 2]), (False, [-1])] and len(calls) == 2
    # a block with a "d", a double space or a literal over the maximum takes the token path
    assert parse_plain_proof(b"d 1 2 0\n") == [(True, [1, 2])]
    assert parse_dimacs(b"p cnf 3 1\n1  2 0\n") == [[1, 2]] and len(calls) == 3
    assert read(parse_dimacs, b"p cnf 3 1\n1 4 0\n")[1] == "literal 4 exceeds declared maximum variable 3"


# -- the formula path's store equals load's -----------------------------------

clauses = st.lists(st.lists(st.integers(1, 6), unique=True, max_size=4).flatmap(
    lambda variables: st.tuples(*[st.sampled_from([v, -v]) for v in variables])), max_size=10)


def _formula(clauses, rng):
    """The clauses in DIMACS, each broken over two lines at a drawn token, with single spaces, so that whole
    blocks take the fast path."""
    lines = []
    for clause in clauses:
        tokens = [b"%d" % lit for lit in clause] + [b"0"]
        cut = rng.draw(st.integers(0, len(tokens)))
        lines.append(b" ".join(tokens[:cut]) + b"\n" + b" ".join(tokens[cut:]))
    return b"p cnf 6 %d\n" % len(clauses) + b"\n".join(lines) + b"\n"


def _same_store(a, b):
    assert a._literal == b._literal and a._units == b._units and a._empty_copies == b._empty_copies
    assert a._pending == b._pending
    assert a._watches == b._watches and a._implied == b._implied
    assert [*a._ids] == [*b._ids] and [*a._surplus.values()] == [*b._surplus.values()]


@given(clauses, st.sampled_from([None, 7, 23]), st.data())
@settings(max_examples=300, deadline=None)
def test_the_formula_path_stores_what_load_stores(drawn, size, data):
    drawn += data.draw(st.lists(st.sampled_from(drawn), max_size=3)) if drawn else []
    drawn = [data.draw(st.permutations(clause)) if data.draw(st.booleans()) else clause for clause in drawn]
    formula = _formula(drawn, data)
    with pytest.MonkeyPatch.context() as patch:
        if size:
            patch.setattr(lexer, "BLOCK_BYTES", size)
        stored, loaded = CheckerState(), CheckerState()
        stored._store(clause_records(formula, stored._code))
        loaded.load(parse_dimacs(formula))
    _same_store(stored, loaded)
    assert_store_invariants(stored)
    # each stored copy is a list of exactly its size, as load allocates it
    assert all(sys.getsizeof(codes) == sys.getsizeof(codes[:]) for codes in stored._pending)
    stored._index(), loaded._index()
    _same_store(stored, loaded)
    assert_store_invariants(stored)


def test_a_clause_over_many_runs_is_stored_as_codes(monkeypatch):
    monkeypatch.setattr(lexer, "BLOCK_BYTES", 4)
    formula = b"p cnf 300 2\n" + b"\n".join(b"%d" % v for v in range(1, 301)) + b"\n0\n300 -299 0\n"
    stored, loaded = CheckerState(), CheckerState()
    stored._store(clause_records(formula, stored._code))
    loaded.load(parse_dimacs(formula))
    _same_store(stored, loaded)
    assert stored._pending[0] == [2 * k for k in range(300)]


def test_the_interpreter_script_checks_the_worked_example_that_the_tests_use():
    # tests/interpreters.py runs without pytest, so it keeps its own copy of these inputs
    assert interpreters.PAPER_FORMULA.decode() == conftest.PAPER_FORMULA
    assert interpreters.PAPER_PROOF.decode() == conftest.PAPER_PROOF
    assert (interpreters.CONVERSION_PLAIN, interpreters.CONVERSION_BINARY) == (conftest.CONVERSION_PLAIN,
                                                                               conftest.CONVERSION_BINARY)
