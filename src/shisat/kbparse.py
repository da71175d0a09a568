"""Textual knowledge-base format.

One statement per construct, prefix s-expressions for concepts:

    sub ROLE ROLE          role inclusion
    trans ROLE             role transitivity
    impl CONCEPT CONCEPT   subsumption axiom
    equiv CONCEPT CONCEPT  equivalence axiom
    inst IND CONCEPT       concept assertion
    rel ROLE IND IND       role assertion

    ROLE    := IDENT | IDENT-          (trailing dash = inverse)
    CONCEPT := top | bot | IDENT | (not C) | (and C C+) | (or C C+)
             | (all ROLE C) | (some ROLE C)

Comments run from '#' to end of line. `and`/`or` take two or more
arguments and are folded to the right into binary nodes.

The parser reads token texts alone. `_tokenize` is the one definition
of comments and of a token's line and column. A text with no '#' in it
needs neither: its token texts come from one regex scan of the whole
text, and its positions are computed only for an error message, when a
`ParseError` places the failing token by its index. A text with a
comment takes its token texts from `_tokenize`.

`_Parser.concept` is a recursive descent with one Python frame per
nesting level, so a concept nested deeper than the recursion limit
(about 1,000 levels) raises `RecursionError`. That is kept on purpose
until a stack-safe parser lands together with a benchmark change: the
benchmark's `deep` workload pins the error on a 1,200-deep `(not ...)`,
and `test_parser::test_deep_negation_overflows_until_item_3` fails as
soon as the parser stops raising it.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import FormulaStore, INST, KnowledgeBase, Role, build_kb, concept_text

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN = re.compile(r"[()]|[^\s()]+")
_KEYWORDS = ("sub", "trans", "impl", "equiv", "inst", "rel")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    """Parentheses and runs of other non-space characters, with line and column."""
    return [
        _Token(m.group(), lineno, m.start() + 1)
        for lineno, line in enumerate(text.splitlines(), start=1)
        for m in _TOKEN.finditer(line.split("#", 1)[0])
    ]


def _token_texts(text: str) -> list:
    """The texts of `_tokenize(text)`. Without a comment they come from one
    scan of the whole text: every line boundary is a space to `_TOKEN`, so
    no token spans one and the lists agree."""
    if "#" in text:
        return [t.text for t in _tokenize(text)]
    return _TOKEN.findall(text)


class _Parser:
    """Recursive descent over the token texts, one frame per nesting
    level. `_fail` places the token it names with `_tokenize`, the one
    definition of a token's line and column."""

    def __init__(self, text: str, store: FormulaStore):
        self.text = text
        self.tokens = _token_texts(text)
        self.pos = 0
        self.store = store

    def _fail(self, message: str, at: int):
        """Raise `message` at the token with index `at`."""
        tokens = _tokenize(self.text)
        token = tokens[at] if tokens else _Token("", 1, 1)
        raise ParseError(message, token.line, token.col)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self, what: str) -> str:
        try:
            text = self.tokens[self.pos]
        except IndexError:
            self._fail(f"unexpected end of input, expected {what}", -1)
        self.pos += 1
        return text

    def role(self) -> Role:
        text = self.take("a role")
        inverted = text.endswith("-")
        name = text[:-1] if inverted else text
        if not _IDENT.match(name):
            self._fail(f"bad role {text!r} (expected IDENT or IDENT-)", self.pos - 1)
        return Role(name, inverted)

    def individual(self) -> str:
        text = self.take("an individual")
        if not _IDENT.match(text):
            self._fail(f"bad individual name {text!r}", self.pos - 1)
        return text

    def concept(self):
        pos = self.pos
        try:
            text = self.tokens[pos]
        except IndexError:
            self._fail("unexpected end of input, expected a concept", -1)
        self.pos = pos + 1
        if text == "(":
            op = self.take("a concept operator")
            if op == "not":
                inner = self.concept()
                self._close()
                return self.store.negate(inner)
            if op == "and" or op == "or":
                at, parts = self.pos - 1, []
                while not self.done() and self.tokens[self.pos] != ")":
                    parts.append(self.concept())
                self._close()
                if len(parts) < 2:
                    self._fail(f"({op} ...) expects at least 2 arguments", at)
                combine = self.store.conj if op == "and" else self.store.disj
                result = parts[-1]
                for part in reversed(parts[:-1]):
                    result = combine(part, result)
                return result
            if op == "all" or op == "some":
                role = self.role()
                inner = self.concept()
                self._close()
                builder = self.store.univ if op == "all" else self.store.exist
                return builder(role, inner)
            self._fail(f"unknown concept operator {op!r}", self.pos - 1)
        if text == ")":
            self._fail("unexpected ')'", self.pos - 1)
        if text == "top":
            return self.store.top
        if text == "bot":
            return self.store.bot
        if not _IDENT.match(text):
            self._fail(f"bad concept name {text!r}", self.pos - 1)
        return self.store.atom(text)

    def _close(self) -> None:
        text = self.take("')'")
        if text != ")":
            self._fail(f"expected ')', found {text!r}", self.pos - 1)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse and normalize a knowledge base from its textual form."""
    store = FormulaStore()
    parser = _Parser(text, store)
    subs, trans, axioms, abox = [], [], [], []
    while not parser.done():
        kw = parser.take("a statement")
        if kw == "sub":
            subs.append((parser.role(), parser.role()))
        elif kw == "trans":
            trans.append(parser.role())
        elif kw == "impl" or kw == "equiv":
            axioms.append((kw, parser.concept(), parser.concept()))
        elif kw == "inst":
            ind = parser.individual()
            abox.append(store.inst(ind, parser.concept()))
        elif kw == "rel":
            role = parser.role()
            abox.append(store.rel(role, parser.individual(), parser.individual()))
        else:
            parser._fail(f"unknown statement {kw!r} (expected one of {', '.join(_KEYWORDS)})", parser.pos - 1)
    return build_kb(store, subs, trans, axioms, abox)


def parse_concept_text(text: str, store: FormulaStore):
    """Parse a single concept, e.g. a CLI argument."""
    parser = _Parser(text, store)
    concept = parser.concept()
    if not parser.done():
        parser._fail(f"trailing input after concept: {parser.tokens[parser.pos]!r}", parser.pos)
    return concept


def format_kb(kb: KnowledgeBase) -> str:
    """Render a knowledge base back into the statement syntax."""
    lines = []
    for r, s in kb.role_subsumptions:
        lines.append(f"sub {r} {s}")
    for r in kb.transitive_roles:
        lines.append(f"trans {r}")
    for kind, left, right in kb.tbox_axioms:
        lines.append(f"{kind} {concept_text(left)} {concept_text(right)}")
    for f in kb.abox:
        if f.kind == INST:
            lines.append(f"inst {f.ind} {concept_text(f.concept)}")
        else:
            lines.append(f"rel {f.role} {f.a} {f.b}")
    return "\n".join(lines) + "\n"
