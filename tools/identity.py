"""Compare two source trees run for run on a fixed corpus.

A refactor that claims to keep behaviour is checked by dumping what each
tree derives from the same inputs and counting the runs that differ:

    PYTHONPATH=src:tests python3 tools/identity.py dump OUT.pkl
    python3 tools/identity.py compare A.pkl B.pkl

`dump` decides `differential_suite(500, 20240817)`, `chain_kb_text(1..40)`,
`(some r ...)` nests of depth 50 and 200 and, under `trans r`, of depth 10
and 45 (witnesses of up to 201 elements), conjunction nests of depth 50
and 320 (labels of up to 320 members), a flat conjunction of 300 atoms
on one individual (`flat_and(300)`), a TBox of 40 value restrictions
that no rule splits (`wide_tbox(40)`), a cascade of 200 converse repairs,
each making the state above it repair in turn (`pullback_kb(200)` as
text), a suite text whose upward walk repairs several predecessors of one
state (`differential_suite(500, 1)[132]`, named `reorder/1.132`), two
texts in which a converse demand refutes a state by meeting its disallowed
formulas, asserted of an individual and in the TBox (`disallow/abox` and
`disallow/tbox`), and the worked examples, each under both expansion
strategies: 1,110 runs. It records per run the
verdict and stats, the trace (the engine records it on request, and
this script asks), each node's id, rule, status, label,
successors, ce_label, expansion count and `after_trans_pred` (the head
of its local graph, which names its cache scope), each node's converse-repair
record (rformulas, dformulas, conv_method, fmls_rc, then `alt_fml_sets`
in the fifth slot on a state and in the sixth on an or-node, the other
slot empty: older trees kept the two in separate fields, and their dumps
still compare; rformulas and dformulas are recorded as formula sets,
decoded by `FormulaStore.members` where a tree keeps them as uid bits,
so dumps of trees that kept frozensets compare too; `conv_method` is
now read from a state's status and `fmls_rc` rather than stored, with
the same values, so dumps of trees that stored it compare too), the witness of a SAT verdict (its domain, atoms and role
pairs), the knowledge base's name lists, the closed role box (its
subrole pairs and transitive roles, sorted), the store's interned
formulas in uid order once the run and the witness are done, and the
domain size of the model `bounded_model_search(kb, 3)` finds (or None),
computed once per text on its own parse and recorded under both
strategies' runs, and, in the same way, how `parse_kb` ends on the text
and on fixed malformed variants of it (`_malformed`): None when it
parses, the `ParseError`'s (message, line, col), or the type of any other
exception. Formulas are recorded as text, so values compare across
processes; the `interned` field shows whether two runs of one text
intern the same formulas in the same order.
`dump` writes each run as its own `(name, record)` pickle as soon as it
is made, and `compare` reads the two dumps in step, a run of each at a
time, so neither holds more than a run's records; it exits 1 if the run
names part, and else prints, for each field, how many runs differ and the
names of the first 10, then how many more there are.

Dump each tree with its own copy of this script, run from that tree's
root (for an older commit, a `git archive` copy): the modules under test
come from PYTHONPATH, and how a tree's graph is read changes with the tree
while the record format stays the same. A change that widens the corpus
dumps its parent with the new script and the new `tests/helpers.py`, so
both dumps hold the same runs. So does a change that widens the record,
as adding `after_trans_pred` to `nodes` did, when the parent has the
fields the new script reads (every tree since the seed has that one).
A dump made by a copy of this script that pickled all runs as one dict
does not compare with a streamed one: dump both trees with this script.
"""
from __future__ import annotations

import pickle
import sys
from itertools import zip_longest

FIELDS = ("verdict", "stats", "trace", "nodes", "repair", "witness", "names", "rbox", "interned", "oracle", "parse")


def _corpus() -> list:
    from helpers import (
        DISALLOW_ABOX_TEXT,
        DISALLOW_TBOX_TEXT,
        EX1_BASE_TEXT,
        EX1_TEXT,
        EX2_TEXT,
        and_nest,
        flat_and,
        pullback_kb,
        some_nest,
        wide_tbox,
    )
    from kbgen import chain_kb_text, differential_suite
    from shisat import format_kb

    cases = [(f"suite/{i}", t) for i, t in enumerate(differential_suite(500, 20240817))]
    cases += [(f"chain/{d}", chain_kb_text(d)) for d in range(1, 41)]
    cases += [(f"some/{d}", some_nest(d, False)) for d in (50, 200)]
    cases += [(f"some.trans/{d}", some_nest(d, True)) for d in (10, 45)]
    cases += [(f"and/{d}", and_nest(d)) for d in (50, 320)] + [("flat_and/300", flat_and(300))]
    cases += [("wide/40", wide_tbox(40))]
    cases += [("pullback/200", format_kb(pullback_kb(200))), ("reorder/1.132", differential_suite(500, 1)[132])]
    cases += [("disallow/abox", DISALLOW_ABOX_TEXT), ("disallow/tbox", DISALLOW_TBOX_TEXT)]
    cases += [("ex1_base", EX1_BASE_TEXT), ("ex1", EX1_TEXT), ("ex2", EX2_TEXT)]
    return [(f"{name}/{strategy}", text, strategy) for strategy in ("dfs", "fifo") for name, text in cases]


def _plain(x):
    """`x` with formulas as text, so values compare across processes."""
    from shisat.syntax import Assertion, Concept, formula_text

    if isinstance(x, (Concept, Assertion)):
        return formula_text(x)
    if isinstance(x, (set, frozenset)):
        return frozenset(_plain(y) for y in x)
    if isinstance(x, (tuple, list)):
        return tuple(_plain(y) for y in x)
    if isinstance(x, dict):
        return {_plain(k): _plain(v) for k, v in x.items()}
    return x


def _record(text: str, strategy: str) -> dict:
    from shisat import build_witness, decide_sat, parse_kb
    from shisat.graph import EMPTY, STATE
    from shisat.syntax import ordered

    kb = parse_kb(text)
    verdict = decide_sat(kb, strategy=strategy, trace=True)
    g = verdict.graph
    idx = verdict.engine.idx
    nodes = [
        (n.id, n.rule, n.status, _plain(n.label), tuple(n.succs), _plain(n.ce_label), n.expansions,
         n.after_trans_pred)
        for n in g.nodes
    ]

    def formulas(x):  # a uid bitset as its formulas
        return frozenset(kb.store.members(x)) if isinstance(x, int) else x

    repair = [
        _plain((formulas(n.rformulas), formulas(n.dformulas), n.conv_method, n.fmls_rc)
               + ((n.alt_fml_sets, EMPTY) if n.node_type == STATE else (EMPTY, n.alt_fml_sets)))
        for n in g.nodes
    ]
    witness = None
    if verdict.sat:
        w = build_witness(g, kb, idx)
        witness = (tuple(w.domain), _plain(w.atoms), _plain(w.roles))
    return {
        "verdict": verdict.sat,
        "stats": verdict.stats,
        "trace": _plain(verdict.engine.trace),
        "nodes": nodes,
        "repair": repair,
        "witness": witness,
        "names": (tuple(kb.concept_names), tuple(kb.role_names), tuple(kb.individuals)),
        "rbox": (
            tuple(f"{r} <= {s}" for r, s in sorted(idx.subrole_pairs)),
            tuple(str(r) for r in sorted(idx.transitive)),
        ),
        "interned": _plain(ordered(kb.store._table.values())),
    }


def _oracle_size(text: str):
    from shisat import bounded_model_search, parse_kb

    found = bounded_model_search(parse_kb(text), 3)
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


def _parse_outcome(text: str):
    """None if `text` parses, else its `ParseError`'s (message, line, col)
    or the type name of the exception it raised."""
    from shisat import parse_kb
    from shisat.kbparse import ParseError

    try:
        parse_kb(text)
    except ParseError as exc:
        return (exc.message, exc.line, exc.col)
    except Exception as exc:  # any other end is recorded by its type
        return type(exc).__name__
    return None


def dump(out: str) -> None:
    """Write each run's (name, record) to `out` as its own pickle, as soon
    as it is made, so no more than one record is held at a time."""
    oracle: dict = {}  # text -> the oracle's model size
    parse: dict = {}  # text -> how parse_kb ends on it and its variants
    n = 0
    with open(out, "wb") as fh:
        for name, text, strategy in _corpus():
            try:
                if text not in oracle:
                    oracle[text] = _oracle_size(text)
                    parse[text] = tuple(_parse_outcome(t) for t in [text, *_malformed(text)])
                record = {**_record(text, strategy), "oracle": oracle[text], "parse": parse[text]}
            except Exception as exc:  # a crash is recorded as the run's outcome
                record = {field: f"error: {type(exc).__name__}: {exc}" for field in FIELDS}
            pickle.dump((name, record), fh)
            n += 1
    print(f"{n} runs -> {out}")


def runs(path: str):
    """The (name, record) pairs of a dump written by `dump`, in its order."""
    with open(path, "rb") as fh:
        while True:
            try:
                yield pickle.load(fh)
            except EOFError:
                return


def compare(a: str, b: str) -> int:
    """Read both dumps in step, one run of each at a time; exit 1 where
    their run names part."""
    differ: dict = {field: [] for field in FIELDS}
    n = 0
    for left, right in zip_longest(runs(a), runs(b)):
        if left is None or right is None or left[0] != right[0]:
            names = [run[0] if run else "the end of the dump" for run in (left, right)]
            print(f"run names part at run {n + 1}: {names[0]} against {names[1]}")
            return 1
        for field in FIELDS:
            if left[1][field] != right[1][field]:
                differ[field].append(left[0])
        n += 1
    for field, names in differ.items():
        named = f": {', '.join(names[:10])}" if names else ""
        rest = f" and {len(names) - 10} more" if len(names) > 10 else ""
        print(f"{field}: {len(names)} of {n} runs differ{named}{rest}")
    return 1 if any(differ.values()) else 0


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.strip().splitlines()[0], file=sys.stderr)
    print("usage: identity.py dump OUT.pkl | compare A.pkl B.pkl", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
