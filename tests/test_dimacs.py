import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dratcheck import DimacsError, parse_dimacs, write_dimacs
from dratcheck.dimacs import (
    ClauseCountError,
    HeaderError,
    LiteralOverflowError,
    UnterminatedClauseError,
    VarOutOfRangeError,
)

from conftest import PAPER_CLAUSES, PAPER_FORMULA


def test_parses_the_worked_example():
    formula = parse_dimacs(PAPER_FORMULA)
    assert len(formula) == 8
    assert formula.declared_vars == 4
    assert formula.declared_clauses == 8
    assert sorted(formula.clauses()) == sorted(PAPER_CLAUSES)


def test_empty_formula():
    formula = parse_dimacs("p cnf 0 0\n")
    assert len(formula) == 0
    assert formula.declared_vars == 0


def test_accepts_bytes_input():
    assert len(parse_dimacs(PAPER_FORMULA.encode())) == 8


def test_literal_above_declared_maximum_is_invalid():
    with pytest.raises(VarOutOfRangeError):
        parse_dimacs("p cnf 2 1\n3 0\n")
    with pytest.raises(VarOutOfRangeError):
        parse_dimacs("p cnf 2 1\n-3 0\n")


def test_declared_maximum_may_exceed_largest_literal():
    formula = parse_dimacs("p cnf 9 1\n1 -2 0\n")
    assert formula.declared_vars == 9


def test_clause_count_must_match_header():
    with pytest.raises(ClauseCountError):
        parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(ClauseCountError):
        parse_dimacs("p cnf 2 1\n1 0\n2 0\n")


def test_missing_or_malformed_header():
    with pytest.raises(HeaderError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(HeaderError):
        parse_dimacs("p cnf x 8\n")
    with pytest.raises(HeaderError):
        parse_dimacs("c only comments\n")
    with pytest.raises(HeaderError):
        parse_dimacs("p cnf 4\n")
    with pytest.raises(HeaderError):
        # nothing may sit between the header fields
        parse_dimacs("p cnf 4 8 extra\n1 0\n")


def test_unterminated_clause():
    with pytest.raises(UnterminatedClauseError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_literal_overflow():
    with pytest.raises(LiteralOverflowError):
        parse_dimacs("p cnf 2147483647 1\n2147483648 0\n")


def test_tautology_and_duplicate_are_hard_errors_with_position():
    with pytest.raises(DimacsError, match="complementary") as info:
        parse_dimacs("p cnf 2 1\n1 -1 0\n")
    assert info.value.line == 2
    with pytest.raises(DimacsError, match="duplicate"):
        parse_dimacs("p cnf 2 1\n2 2 0\n")


def test_malformed_literal_tokens():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n007 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n-0 0\n")


def test_duplicate_clauses_are_kept_as_copies():
    formula = parse_dimacs("p cnf 2 3\n1 2 0\n1 2 0\n-1 0\n")
    assert formula.count((1, 2)) == 2


def test_comments_and_blank_runs_are_ignored():
    text = "c leading\np cnf 3 2\nc inside\n1   2\t3 0\nc more\n-1\n-2 0\nc trailing\n"
    formula = parse_dimacs(text)
    assert sorted(formula.clauses()) == [(-1, -2), (1, 2, 3)]
    bare = parse_dimacs("c\np cnf 1 1\n1 0\n")  # bare "c" comment line tolerated
    assert len(bare) == 1


def test_multiple_clauses_per_line_and_final_clause_without_newline():
    formula = parse_dimacs("p cnf 3 3\n1 0 2 0\n-3 0")
    assert sorted(formula.clauses()) == [(-3,), (1,), (2,)]


def test_empty_clause_inside_formula_is_allowed():
    formula = parse_dimacs("p cnf 1 2\n0\n1 0\n")
    assert formula.count(()) == 1


clause_strategy = st.lists(
    st.integers(min_value=1, max_value=9), unique=True, min_size=1, max_size=4
).flatmap(lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs]))


@given(st.lists(clause_strategy, max_size=10), st.randoms())
@settings(max_examples=120)
def test_clause_line_permutation_preserves_the_multiset(clauses, rng):
    lines = [" ".join(str(l) for l in c) + " 0" for c in clauses]
    shuffled = lines[:]
    rng.shuffle(shuffled)
    header = "p cnf 9 %d\n" % len(clauses)
    first = parse_dimacs(header + "\n".join(lines) + "\n")
    second = parse_dimacs(header + "\n".join(shuffled) + "\n")
    assert first == second


@given(st.lists(clause_strategy, max_size=10))
@settings(max_examples=120)
def test_write_then_reparse_round_trips(clauses):
    header = "p cnf 9 %d\n" % len(clauses)
    body = "".join(" ".join(str(l) for l in c) + " 0\n" for c in clauses)
    formula = parse_dimacs(header + body)
    again = parse_dimacs(write_dimacs(formula))
    assert again.clause_counts() == formula.clause_counts()


def test_no_break_space_does_not_separate_literals():
    with pytest.raises(DimacsError, match="malformed literal") as info:
        parse_dimacs(b"p cnf 2 1\n1\xa02 0\n")
    assert (info.value.line, info.value.offset) == (2, 10)


def test_form_feed_is_not_a_blank():
    with pytest.raises(DimacsError, match="malformed literal") as info:
        parse_dimacs(b"p cnf 2 1\n1\x0c2 0\n")
    assert (info.value.line, info.value.offset) == (2, 10)


def test_comment_lines_end_only_at_newline():
    with pytest.raises(DimacsError) as info:
        parse_dimacs(b"p cnf 2 2\nc x\x85y\n1 2 0\n1 x 0\n")
    assert (info.value.message, info.value.line, info.value.offset) == ("malformed literal 'x'", 4, 24)


def test_crlf_line_ends_are_blanks_and_a_lone_cr_is_not():
    formula = parse_dimacs(b"c crlf\r\np cnf 2 2\r\n1 2 0\r\n-1\t0 \r\n")
    assert sorted(formula.clauses()) == [(-1,), (1, 2)]
    with pytest.raises(DimacsError, match="malformed literal"):
        parse_dimacs(b"p cnf 2 1\n1\r2 0\n")
    with pytest.raises(DimacsError, match="malformed literal"):
        parse_dimacs(b"p cnf 2 1\n1 2 0\r\r\n")
