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


class _Parser:
    def __init__(self, tokens, store: FormulaStore):
        self.tokens = tokens
        self.pos = 0
        self.store = store

    def _fail(self, message, token=None):
        if token is None:
            token = self.tokens[self.pos - 1] if self.tokens else _Token("", 1, 1)
        raise ParseError(message, token.line, token.col)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self, what: str) -> _Token:
        if self.done():
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError(f"unexpected end of input, expected {what}", last.line, last.col)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def role(self) -> Role:
        tok = self.take("a role")
        text = tok.text
        inverted = False
        if text.endswith("-"):
            inverted = True
            text = text[:-1]
        if not _IDENT.match(text):
            self._fail(f"bad role {tok.text!r} (expected IDENT or IDENT-)", tok)
        return Role(text, inverted)

    def individual(self) -> str:
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

    def _close(self) -> None:
        tok = self.take("')'")
        if tok.text != ")":
            self._fail(f"expected ')', found {tok.text!r}", tok)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse and normalize a knowledge base from its textual form."""
    store = FormulaStore()
    parser = _Parser(_tokenize(text), store)
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
            parser._fail(f"unknown statement {kw!r} (expected one of {', '.join(_KEYWORDS)})", tok)
    return build_kb(store, subs, trans, axioms, abox)


def parse_concept_text(text: str, store: FormulaStore):
    """Parse a single concept, e.g. a CLI argument."""
    parser = _Parser(_tokenize(text), store)
    concept = parser.concept()
    if not parser.done():
        parser._fail(f"trailing input after concept: {parser.tokens[parser.pos].text!r}",
                     parser.tokens[parser.pos])
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
