"""Shrink a knowledge base that shows a fault to a small one that still does.

A delta debugger after Zeller & Hildebrandt, *Simplifying and isolating
failure-inducing input* (TSE 2002). `shrink(text, still_fails)` first runs
ddmin over the statements, which leaves a list from which no single
statement can be dropped. It then replaces one concept subterm at a time
by `top`, `bot` or one of its children, keeping each replacement that
still fails, and repeats both passes until neither changes anything. So
the result is 1-minimal in its statements, and no single replacement of
a subterm keeps it failing.

    PYTHONPATH=src python3 tools/shrink.py unsound KB_FILE [-k K]
    PYTHONPATH=src python3 tools/shrink.py disagree KB_FILE

`unsound` keeps inputs that the engine answers UNSAT under dfs or fifo
while `bounded_model_search(kb, K)` finds a model (K defaults to 3).
`disagree` keeps inputs on which dfs and fifo give different verdicts.
The shrunk knowledge base is printed one statement a line; the exit code
is 1 when the input does not show the fault, and 2, after one `error:`
line, when the file cannot be read, does not parse, or K is below 1.
"""
from __future__ import annotations

import argparse
import sys
from functools import partial

from shisat import ParseError, bounded_model_search, decide_sat, parse_kb
from shisat.cli import _domain_bound
from shisat.kbparse import _KEYWORDS, _token_texts
from shisat.oracle import SearchBudgetExceeded

_CONCEPT_ARGS = {"impl": (1, 2), "equiv": (1, 2), "inst": (2,)}  # positions in a statement
_CHILD_ARGS = {op: slice(2 if op in ("all", "some") else 1, None) for op in ("not", "and", "or", "all", "some")}


def _statements(text: str) -> list:
    """`text`'s statements as trees: a statement or a parenthesised concept
    is a tuple of its parts, a name is a string."""
    parse_kb(text)  # raises ParseError on a malformed input
    statements, open_terms = [], []
    for tok in _token_texts(text):
        if tok == "(":
            open_terms.append([])
            continue
        if tok == ")":
            tok = tuple(open_terms.pop())
        elif not open_terms and tok in _KEYWORDS:
            statements.append([tok])
            continue
        (open_terms[-1] if open_terms else statements[-1]).append(tok)
    return [tuple(s) for s in statements]


def _text(term) -> str:
    return term if isinstance(term, str) else "(" + " ".join(map(_text, term)) + ")"


def _render(statements) -> str:
    return "".join(" ".join(map(_text, s)) + "\n" for s in statements)


def _subterms(statement):
    """(path, subterm) for each concept subterm of `statement`, in preorder."""
    work = [((i,), statement[i]) for i in reversed(_CONCEPT_ARGS.get(statement[0], ()))]
    while work:
        path, term = work.pop()
        yield path, term
        if not isinstance(term, str):
            children = range(len(term))[_CHILD_ARGS[term[0]]]
            work += [(path + (i,), term[i]) for i in reversed(children)]


def _replace(term, path, new):
    if not path:
        return new
    i = path[0]
    return term[:i] + (_replace(term[i], path[1:], new),) + term[i + 1:]


def _smaller(term) -> list:
    """What a subterm may become: `top`, `bot` or one of its children. Each
    has fewer tokens or fewer names, so replacing never cycles."""
    if term in ("top", "bot"):
        return []
    if isinstance(term, str):
        return ["top", "bot"]
    return ["top", "bot", *term[_CHILD_ARGS[term[0]]]]


def _ddmin(items: list, fails) -> list:
    """A sublist of `items`, on which `fails` holds, from which no single
    item can be dropped without `fails` turning false."""
    n = 2
    while len(items) > 1:
        n = min(n, len(items))
        parts = [items[len(items) * i // n:len(items) * (i + 1) // n] for i in range(n)]
        found = next((p for p in parts if fails(p)), None)
        if found is not None:
            items, n = found, 2
            continue
        rests = [[x for p in parts[:i] + parts[i + 1:] for x in p] for i in range(n)] if n > 2 else []
        found = next((r for r in rests if fails(r)), None)
        if found is not None:
            items, n = found, max(n - 1, 2)
        elif n == len(items):
            break
        else:
            n = min(2 * n, len(items))
    return [] if len(items) == 1 and fails([]) else items


def _simplify_once(statements: list, fails):
    """The first single subterm replacement that still fails, or None."""
    for k, statement in enumerate(statements):
        for path, term in _subterms(statement):
            for new in _smaller(term):
                candidate = statements[:k] + [_replace(statement, path, new)] + statements[k + 1:]
                if fails(candidate):
                    return candidate
    return None


def shrink(text: str, still_fails) -> str:
    """A small knowledge base, one statement a line, on which `still_fails`
    (called with a knowledge-base text) holds, found from `text`, on which
    it must hold."""
    memo: dict = {}

    def fails(statements) -> bool:
        key = _render(statements)
        if key not in memo:
            memo[key] = still_fails(key)
        return memo[key]

    statements = _statements(text)
    if not fails(statements):
        raise ValueError("the input does not show the fault")
    while True:
        statements = _ddmin(statements, fails)
        simpler = _simplify_once(statements, fails)
        if simpler is None:
            return _render(statements)
        while simpler is not None:
            statements, simpler = simpler, _simplify_once(simpler, fails)


def unsound(text: str, k: int = 3) -> bool:
    """The engine answers UNSAT under some strategy, yet a model of at most
    `k` elements exists."""
    if all(decide_sat(parse_kb(text), strategy=s).sat for s in ("dfs", "fifo")):
        return False
    try:
        return bounded_model_search(parse_kb(text), k) is not None
    except SearchBudgetExceeded:
        return False


def disagree(text: str) -> bool:
    """dfs and fifo give different verdicts."""
    return decide_sat(parse_kb(text), strategy="dfs").sat != decide_sat(parse_kb(text), strategy="fifo").sat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("predicate", choices=("unsound", "disagree"))
    parser.add_argument("kb_file")
    parser.add_argument("-k", type=_domain_bound, default=3, help="unsound: the oracle's domain bound (default 3)")
    args = parser.parse_args(argv)
    still_fails = partial(unsound, k=args.k) if args.predicate == "unsound" else disagree
    try:
        with open(args.kb_file) as fh:
            shrunk = shrink(fh.read(), still_fails)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(shrunk, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
