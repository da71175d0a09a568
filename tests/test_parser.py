"""Textual format: parsing, diagnostics, round-tripping."""
from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from shisat import format_kb, parse_kb
from shisat.kbparse import ParseError, _tokenize, parse_concept_text
from shisat.syntax import FormulaStore, Role, formula_text

from helpers import EX1_TEXT
from kbgen import random_kb_text


def test_parse_worked_example():
    kb = parse_kb(EX1_TEXT)
    assert kb.role_subsumptions == [(Role("L"), Role("P"))]
    assert kb.transitive_roles == [Role("P")]
    assert [repr(c) for c in kb.tbox] == ["(or (not F) (and I (all P F)))"]
    assert [formula_text(f) for f in kb.abox] == [
        "a:F",
        "L(a,b)",
        "b:(some L (not I))",
    ]
    assert kb.individuals == ["a", "b"]
    assert kb.role_names == ["L", "P"]
    assert set(kb.concept_names) == {"F", "I"}


def test_parse_minimal_kb():
    kb = parse_kb("inst a top\n")
    assert kb.role_subsumptions == [] and kb.tbox == []
    assert len(kb.abox) == 1 and kb.abox[0].concept is kb.store.top


def test_parse_inverse_roles():
    kb = parse_kb("sub r- s\nrel r- a b\n")
    assert kb.role_subsumptions == [(Role("r", True), Role("s"))]
    assert kb.abox[0].role == Role("r", True)


def test_nary_connectives_fold_right():
    kb = parse_kb("inst a (and A B C)\n")
    c = kb.abox[0].concept
    assert repr(c) == "(and A (and B C))"


def test_negation_normalizes_at_parse_time():
    kb = parse_kb("inst a (not (and A (some r B)))\n")
    assert repr(kb.abox[0].concept) == "(or (not A) (all r (not B)))"


def test_arity_error():
    with pytest.raises(ParseError) as err:
        parse_kb("inst a (and A)\n")
    assert "at least 2" in str(err.value)


def test_unknown_statement_reports_position():
    with pytest.raises(ParseError) as err:
        parse_kb("inst a A\nfrobnicate x\n")
    assert err.value.line == 2
    assert err.value.col == 1


def test_bad_role_suffix():
    with pytest.raises(ParseError):
        parse_kb("sub r-- s\n")
    with pytest.raises(ParseError):
        parse_kb("trans -\n")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_kb("inst a (and A B\n")


def test_comments_and_blank_lines_ignored():
    kb = parse_kb("# a comment\n\ninst a A # trailing\n")
    assert len(kb.abox) == 1


def test_concept_argument_parsing():
    kb = parse_kb("inst a A\n")
    c = parse_concept_text("(all L (not I))", kb.store)
    assert repr(c) == "(all L (not I))"
    with pytest.raises(ParseError):
        parse_concept_text("(all L I) junk", kb.store)


def _canonical(kb):
    return (
        kb.role_subsumptions,
        kb.transitive_roles,
        [repr(c) for c in kb.tbox],
        [formula_text(f) for f in kb.abox],
    )


@pytest.mark.parametrize("text", [EX1_TEXT, "inst a top\n", "impl A B\n"])
def test_round_trip_fixed_cases(text):
    kb = parse_kb(text)
    printed = format_kb(kb)
    again = parse_kb(printed)
    assert _canonical(kb) == _canonical(again)
    assert format_kb(again) == printed


def test_round_trip_random_cases():
    rng = random.Random(99)
    for _ in range(60):
        kb = parse_kb(random_kb_text(rng))
        printed = format_kb(kb)
        again = parse_kb(printed)
        assert _canonical(kb) == _canonical(again)
        assert format_kb(again) == printed


def test_token_positions():
    # Tabs, adjacent parentheses, an inverse role, a trailing comment, a
    # CRLF line ending, and U+00A0 / U+3000 as separators.
    text = "sub r-\ts\r\ninst a\u00a0(and\tA (some r- B))# trailing (comment\n\trel\u3000r- a b\n"
    assert [(t.text, t.line, t.col) for t in _tokenize(text)] == [
        ("sub", 1, 1), ("r-", 1, 5), ("s", 1, 8),
        ("inst", 2, 1), ("a", 2, 6), ("(", 2, 8), ("and", 2, 9), ("A", 2, 13),
        ("(", 2, 15), ("some", 2, 16), ("r-", 2, 21), ("B", 2, 24), (")", 2, 25), (")", 2, 26),
        ("rel", 3, 2), ("r-", 3, 6), ("a", 3, 9), ("b", 3, 11),
    ]
    assert len(parse_kb(text).abox) == 2


@pytest.mark.parametrize(
    "text,line,col",
    [("inst a (frob A)\n", 1, 9), ("inst a A\nsub r\ts--\n", 2, 7)],
)
def test_error_reports_column(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_kb(text)
    assert (err.value.line, err.value.col) == (line, col)


# Bounded texts over the keywords, parentheses, the inverse mark, comments,
# identifiers and whitespace: well-formed and malformed input alike.
_FUZZ_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            ["sub", "trans", "impl", "equiv", "inst", "rel",
             "top", "bot", "not", "and", "or", "all", "some", "(", ")", "-", "#"]
        ),
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
        st.sampled_from([" ", "\t", "\n", "\r\n"]),
    ),
    max_size=40,
).map("".join)


@given(_FUZZ_TEXT)
def test_only_parse_errors_escape(text):
    for parse in (parse_kb, lambda t: parse_concept_text(t, FormulaStore())):
        try:
            parse(text)
        except ParseError:
            pass
