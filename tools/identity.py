"""Compare two source trees run for run on a fixed corpus.

    python3 tools/identity.py PARENT_TREE TREE

Loads both trees' `src/shisat` in one process (`tools/interleave.py`'s
`load_tree`) and decides each run of the corpus on both. The corpus
(`_corpus`) is the cases of every workload of `bench/corpora.py`'s
`WORKLOADS` under their benchmark names, read with `tools/interleave.py`'s
`workload_texts`, each name once (the `oracle` workload's cases are
`suite`'s), and thirteen texts of `tests/helpers.py` and `tests/kbgen.py`
that no workload holds, each under both expansion strategies: 1,236 runs.
Two of them are univ' chains over 60 individuals (`abox_chain_text`):
no benchmark text has more than a few role assertions. One is a state
with 200 successors (`fan_text`): no benchmark state has more than five.
One is an or-node that a converse repair links to 100 successors
(`alt_fan_text`): no benchmark or-node so repaired has more than two.

A run is compared on 11 fields, with formulas as text. The verdict, stats
and witness come from a plain `decide_sat(kb, strategy)`, as the benchmark
calls it; the witness is a SAT verdict's domain, atoms and roles and
`check_model`'s answer on it. A second, traced decision of a fresh parse
gives the trace; `nodes`, each node's id, rule, status, label, successors,
ce_label, expansion count and `after_trans_pred`; and `repair`, each
node's reduced and disallowed formulas, conv_method, fmls_rc, and
`alt_fml_sets` in the fifth slot on a state and the sixth on an or-node.
The other fields are the knowledge base's name lists; the closed role box;
`interned`, the store's formulas in uid order after the plain run and the
witness; `oracle`, the domain size of the model that
`bounded_model_search(kb, 3)` finds; and `parse`, how `parse_kb` ends on
the text and on its `_malformed` variants. `nodes`, `repair`, `trace` and
`interned` are compared element by element as each element is made, so no
run's record is held whole, and a run makes each formula's text once. A
run that raises on a tree has `error: TYPE: MESSAGE` on every field; an
element that raises ends its field with that error.

It prints per field how many runs differ, naming the first 10 and counting
the rest, and exits 1 if any run differs.
"""
from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import partial
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _sub in ("src", "tests", "tools", "bench"):  # the corpus and `load_tree` come from this tree
    if str(ROOT / _sub) not in sys.path:
        sys.path.insert(0, str(ROOT / _sub))

from interleave import load_tree, workload_texts  # noqa: E402

FIELDS = ("verdict", "stats", "trace", "nodes", "repair", "witness", "names", "rbox", "interned", "oracle", "parse")
_END = object()  # pads the shorter of two element streams


def _corpus() -> list:
    from corpora import WORKLOADS
    from helpers import (DISALLOW_ABOX_TEXT, DISALLOW_TBOX_TEXT, EX1_BASE_TEXT, abox_chain_text, alt_fan_text, and_nest,
                         fan_text, flat_and, pullback_kb, some_nest, wide_tbox)
    from kbgen import differential_suite
    from shisat import format_kb

    cases = list({name: text for workload in WORKLOADS for name, text in workload_texts(workload)}.items())
    cases += [("example1.base", EX1_BASE_TEXT), ("some[50]", some_nest(50, False)), ("and[50]", and_nest(50))]
    cases += [("flat_and[300]", flat_and(300)), ("wide[40]", wide_tbox(40))]
    cases += [("pullback[200]", format_kb(pullback_kb(200))), ("reorder[1.132]", differential_suite(500, 1)[132])]
    cases += [("disallow.abox", DISALLOW_ABOX_TEXT), ("disallow.tbox", DISALLOW_TBOX_TEXT)]
    cases += [("abox_chain[60]", abox_chain_text(60, False)), ("abox_chain_some[60]", abox_chain_text(60, True))]
    cases += [("fan[200]", fan_text(200)), ("alt_fan[100]", alt_fan_text(100))]
    return [(f"{name}/{strategy}", text, strategy) for strategy in ("dfs", "fifo") for name, text in cases]


def _plain(tree, texts: dict, x):
    """`x` with `tree`'s formulas as text, so values of two trees compare;
    `texts` keeps each formula's text once made."""
    if isinstance(x, (tree.syntax.Concept, tree.syntax.Assertion)):
        if x not in texts:
            texts[x] = tree.syntax.formula_text(x)
        return texts[x]
    if isinstance(x, (set, frozenset)):
        return frozenset(_plain(tree, texts, y) for y in x)
    if isinstance(x, (tuple, list)):
        return tuple(_plain(tree, texts, y) for y in x)
    if isinstance(x, dict):
        return {_plain(tree, texts, k): _plain(tree, texts, v) for k, v in x.items()}
    return x


def _record(tree, text: str, strategy: str) -> dict:
    """The run's fields on `tree`; `nodes`, `repair`, `trace` and
    `interned` are iterators that make one element at a time."""
    plain = partial(_plain, tree, {})
    kb = tree.parse_kb(text)
    verdict = tree.decide_sat(kb, strategy=strategy)
    witness = None
    if verdict.sat:
        w = tree.build_witness(verdict.graph, kb, tree.kb_index(kb))
        witness = (tuple(w.domain), plain(w.atoms), plain(w.roles), tree.check_model(w, kb))
    traced_kb = tree.parse_kb(text)  # a fresh parse, as the plain run had
    traced = tree.decide_sat(traced_kb, strategy=strategy, trace=True)
    g, idx = traced.graph, traced.engine.idx

    def formulas(x):  # a uid bitset as its formulas
        return frozenset(traced_kb.store.members(x)) if isinstance(x, int) else x

    empty, state = tree.graph.EMPTY, tree.graph.STATE
    return {
        "verdict": verdict.sat,
        "stats": verdict.stats,
        "trace": map(plain, traced.engine.trace),
        "nodes": (
            plain((n.id, n.rule, n.status, n.label, n.succs, n.ce_label, n.expansions, n.after_trans_pred))
            for n in g.nodes
        ),
        "repair": (
            plain((formulas(n.rformulas), formulas(n.dformulas), n.conv_method, n.fmls_rc)
                  + ((n.alt_fml_sets, empty) if n.node_type == state else (empty, n.alt_fml_sets)))
            for n in g.nodes
        ),
        "witness": witness,
        "names": (tuple(kb.concept_names), tuple(kb.role_names), tuple(kb.individuals)),
        "rbox": (
            tuple(f"{r} <= {s}" for r, s in sorted(idx.subrole_pairs)),
            tuple(str(r) for r in sorted(idx.transitive)),
        ),
        "interned": map(plain, tree.syntax.ordered(kb.store._table.values())),
    }


def _oracle_size(tree, text: str):
    found = tree.bounded_model_search(tree.parse_kb(text), 3)
    return None if found is None else len(found.domain)


def _malformed(text: str) -> list:
    """`text` cut at a quarter, a half and three quarters of its length,
    with a stray ')', with a bad concept name, and with an error on the
    line after a comment and after a form-feed line break."""
    cuts = [text[: len(text) * k // 4] for k in (1, 2, 3)]
    return cuts + [
        text + "inst a A )\n",
        text + "inst a (and A 9b)\n",
        text + "# a comment (\ninst a (frob A)\n",
        text + "inst a A\x0cinst b (or A)\n",
    ]


def _parse_outcome(tree, text: str):
    """None if `text` parses on `tree`, else its `ParseError`'s (message,
    line, col) or the type name of the exception it raised."""
    try:
        tree.parse_kb(text)
    except tree.kbparse.ParseError as exc:
        return (exc.message, exc.line, exc.col)
    except Exception as exc:  # any other end is recorded by its type
        return type(exc).__name__
    return None


def _error(exc: Exception) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def _run(tree, text: str, strategy: str, memo: dict) -> dict:
    """The run's record on `tree`; `memo` keeps each text's oracle and
    parse fields. A crash is recorded as the run's value on every field."""
    try:
        if text not in memo:
            outcomes = tuple(_parse_outcome(tree, t) for t in [text, *_malformed(text)])
            memo[text] = (_oracle_size(tree, text), outcomes)
        oracle, parse = memo[text]
        return {**_record(tree, text, strategy), "oracle": oracle, "parse": parse}
    except Exception as exc:
        return {field: _error(exc) for field in FIELDS}


def _elements(values: Iterator):
    """The elements of `values`, ended by the error of one that raises."""
    try:
        yield from values
    except Exception as exc:
        yield _error(exc)


def _same(x, y) -> bool:
    """Whether two values of a field agree; two iterators are read in step
    and stop at the first element that differs."""
    if isinstance(x, Iterator) and isinstance(y, Iterator):
        return all(p == q for p, q in zip_longest(_elements(x), _elements(y), fillvalue=_END))
    return x == y


def compare(a, b) -> int:
    """Decide every run of the corpus on the packages `a` and `b`, print
    per field how many runs differ, and return 1 if any does."""
    differ: dict = {field: [] for field in FIELDS}
    memos: tuple = ({}, {})  # per tree: text -> (oracle, parse)
    corpus = _corpus()
    for name, text, strategy in corpus:
        left, right = (_run(tree, text, strategy, memo) for tree, memo in zip((a, b), memos))
        for field in FIELDS:
            if not _same(left[field], right[field]):
                differ[field].append(name)
    for field, names in differ.items():
        named = f": {', '.join(names[:10])}" if names else ""
        rest = f" and {len(names) - 10} more" if len(names) > 10 else ""
        print(f"{field}: {len(names)} of {len(corpus)} runs differ{named}{rest}")
    return 1 if any(differ.values()) else 0


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: identity.py PARENT_TREE TREE", file=sys.stderr)
        return 2
    return compare(load_tree(Path(argv[0]), "shisat_parent"), load_tree(Path(argv[1]), "shisat_tree"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
