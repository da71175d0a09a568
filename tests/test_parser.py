"""Textual format: parsing, diagnostics, round-tripping."""
from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from shisat import format_kb, parse_kb
from shisat.kbparse import _IDENT, ParseError, _Token, _token_texts, _tokenize, parse_concept_text
from shisat.syntax import FormulaStore, Role, build_kb, formula_text

from helpers import EX1_TEXT, interned_texts
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


# -- the token-text fast path against the positioned tokens ---------------

# Every line boundary `str.splitlines` knows, and spaces that are not one.
_BOUNDARIES = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = [" ", "\t", "\u00a0", "\u3000"]
_CHAR_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["(", ")", "#", "-", *_SPACES, *_BOUNDARIES]),
        st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
        st.characters(min_codepoint=ord("A"), max_codepoint=ord("Z")),
    ),
    max_size=60,
).map("".join)
# Statement and concept keywords, names, parentheses and the openings of
# compound concepts, each followed by one of those separators or none, so
# the parser gets past its first token and fails, or succeeds, deep in a
# statement.
_WORD_TEXT = st.lists(
    st.tuples(
        st.sampled_from(
            ["sub", "trans", "impl", "equiv", "inst", "inst a", "rel", "top", "bot",
             "not", "and", "or", "all", "some", "(", ")", "-", "#", "a", "r", "r-", "A", "B", "9",
             "(not", "(and", "(or", "(all r", "(some r-", "A)"]
        ),
        st.sampled_from(["", *_SPACES, *_BOUNDARIES]),
    ),
    max_size=30,
).map(lambda pairs: "".join(word + sep for word, sep in pairs))


@settings(max_examples=400)
@given(st.one_of(_CHAR_TEXT, _WORD_TEXT))
def test_token_texts_match_the_positioned_tokens(text):
    assert _token_texts(text) == [t.text for t in _tokenize(text)]


class _ReferenceParser:
    """The parser as it was before it read token texts alone: every token
    carries its position, and errors are placed from it."""

    def __init__(self, tokens, store):
        self.tokens = tokens
        self.pos = 0
        self.store = store

    def _fail(self, message, token):
        raise ParseError(message, token.line, token.col)

    def done(self):
        return self.pos >= len(self.tokens)

    def take(self, what):
        if self.done():
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError(f"unexpected end of input, expected {what}", last.line, last.col)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def role(self):
        tok = self.take("a role")
        text = tok.text
        inverted = False
        if text.endswith("-"):
            inverted = True
            text = text[:-1]
        if not _IDENT.match(text):
            self._fail(f"bad role {tok.text!r} (expected IDENT or IDENT-)", tok)
        return Role(text, inverted)

    def individual(self):
        tok = self.take("an individual")
        if not _IDENT.match(tok.text):
            self._fail(f"bad individual name {tok.text!r}", tok)
        return tok.text

    def concept(self):
        tok = self.take("a concept")
        text = tok.text
        if text == "(":
            op = self.take("a concept operator")
            if op.text == "not":
                inner = self.concept()
                self._close()
                return self.store.negate(inner)
            if op.text in ("and", "or"):
                parts = []
                while not self.done() and self.tokens[self.pos].text != ")":
                    parts.append(self.concept())
                self._close()
                if len(parts) < 2:
                    self._fail(f"({op.text} ...) expects at least 2 arguments", op)
                combine = self.store.conj if op.text == "and" else self.store.disj
                result = parts[-1]
                for part in reversed(parts[:-1]):
                    result = combine(part, result)
                return result
            if op.text in ("all", "some"):
                role = self.role()
                inner = self.concept()
                self._close()
                builder = self.store.univ if op.text == "all" else self.store.exist
                return builder(role, inner)
            self._fail(f"unknown concept operator {op.text!r}", op)
        if text == ")":
            self._fail("unexpected ')'", tok)
        if text == "top":
            return self.store.top
        if text == "bot":
            return self.store.bot
        if not _IDENT.match(text):
            self._fail(f"bad concept name {text!r}", tok)
        return self.store.atom(text)

    def _close(self):
        tok = self.take("')'")
        if tok.text != ")":
            self._fail(f"expected ')', found {tok.text!r}", tok)


def _reference_parse_kb(text):
    store = FormulaStore()
    parser = _ReferenceParser(_tokenize(text), store)
    subs, trans, axioms, abox = [], [], [], []
    while not parser.done():
        tok = parser.take("a statement")
        kw = tok.text
        if kw == "sub":
            subs.append((parser.role(), parser.role()))
        elif kw == "trans":
            trans.append(parser.role())
        elif kw in ("impl", "equiv"):
            axioms.append((kw, parser.concept(), parser.concept()))
        elif kw == "inst":
            ind = parser.individual()
            abox.append(store.inst(ind, parser.concept()))
        elif kw == "rel":
            role = parser.role()
            abox.append(store.rel(role, parser.individual(), parser.individual()))
        else:
            parser._fail(f"unknown statement {kw!r} (expected one of sub, trans, impl, equiv, inst, rel)", tok)
    return build_kb(store, subs, trans, axioms, abox)


def _reference_parse_concept_text(text, store):
    parser = _ReferenceParser(_tokenize(text), store)
    concept = parser.concept()
    if not parser.done():
        tok = parser.tokens[parser.pos]
        parser._fail(f"trailing input after concept: {tok.text!r}", tok)
    return concept


def _outcome(parse, text):
    """What `parse` leaves: the error's message and position, or the
    parsed statements and every formula the store interned, in uid order."""
    try:
        kb = parse(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)
    return ("kb", _canonical(kb), interned_texts(kb.store))


def _concept_outcome(parse, text):
    store = FormulaStore()
    try:
        concept = parse(text, store)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)
    return ("concept", formula_text(concept), interned_texts(store))


@settings(max_examples=300)
@given(st.one_of(_WORD_TEXT, _CHAR_TEXT, _FUZZ_TEXT))
def test_parser_matches_the_positioned_reference(text):
    assert _outcome(parse_kb, text) == _outcome(_reference_parse_kb, text)
    assert _concept_outcome(parse_concept_text, text) == _concept_outcome(_reference_parse_concept_text, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "inst",
        "inst a (all r A) trailing\n",
        "(all L I) junk",
        "# only a comment",
        "inst a A # (\x0cinst b (frob A)\n",
        "inst a A\u2028rel r- a\x85",
        "sub r\t-\n",
        "inst a (and A)\n",
        "inst a (or (not A)\n)\n",
    ],
)
def test_parser_matches_the_reference_on_fixed_texts(text):
    assert _outcome(parse_kb, text) == _outcome(_reference_parse_kb, text)
    assert _concept_outcome(parse_concept_text, text) == _concept_outcome(_reference_parse_concept_text, text)


def test_parser_matches_the_reference_on_random_kbs():
    rng = random.Random(7)
    for _ in range(60):
        text = random_kb_text(rng)
        assert _outcome(parse_kb, text) == _outcome(_reference_parse_kb, text)


@pytest.mark.xfail(
    raises=RecursionError,
    strict=True,
    reason="ROADMAP item 3: the parser takes one frame per nesting level, and the bench "
    "`deep` fingerprint pins this input's RecursionError (decided_share 41/42) until "
    "item 3 lands a stack-safe parser with a benchmark change",
)
def test_deep_negation_overflows_until_item_3():
    depth = 1200  # the `deep` workload's not[1200], past the default recursion limit
    kb = parse_kb("inst a " + "(not " * depth + "A" + ")" * depth + "\n")
    assert kb.abox[0].concept is kb.store.atom("A")
