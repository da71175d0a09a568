"""tools/identity.py: the gate a behaviour-preserving refactor is checked by."""
from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import identity
import shisat

ROOT = Path(__file__).parents[1]
TREE_B = identity.load_tree(ROOT, "shisat_patched")  # a second copy of this tree, for a test to patch

CASES = [
    ("sat/dfs", "inst a (some r A)\n", "dfs"),  # SAT, with a two-element witness
    ("unsat/dfs", "inst a (and A (not A))\n", "dfs"),
    ("broken/dfs", "inst a (and A)\n", "dfs"),  # does not parse, so `_record` raises
]


def _report(corpus, monkeypatch, capsys) -> dict:
    """Field -> the line `compare` prints for it, this tree against `TREE_B` on `corpus`."""
    monkeypatch.setattr(identity, "_corpus", lambda: corpus)
    code = identity.compare(shisat, TREE_B)
    out = capsys.readouterr().out.splitlines()
    lines = {line.split(":")[0]: line for line in out if not line.startswith(" ")}  # not a first difference
    assert code == int(any(" 0 of " not in line for line in lines.values()))
    return lines


def _differing(corpus, monkeypatch, capsys) -> dict:
    """Field -> the number of runs `compare` reports differing on it."""
    return {field: int(line.split()[1]) for field, line in _report(corpus, monkeypatch, capsys).items()}


@pytest.fixture
def one_node_more(monkeypatch):
    """`TREE_B` with one more node in every run's stats."""
    engine = TREE_B.engine.TableauEngine
    stats = engine.stats
    monkeypatch.setattr(engine, "stats", lambda self: {**stats(self), "nodes": stats(self)["nodes"] + 1})


def _untraced(monkeypatch, change):
    """`TREE_B` with each verdict it gives without a trace passed through `change`."""
    decide_sat = TREE_B.decide_sat

    def patched(kb, strategy, trace=False):
        verdict = decide_sat(kb, strategy=strategy, trace=trace)
        return verdict if trace else change(verdict)

    monkeypatch.setattr(TREE_B, "decide_sat", patched)


def test_a_tree_against_itself_agrees_on_every_field(monkeypatch, capsys):
    assert _differing(CASES, monkeypatch, capsys) == {field: 0 for field in identity.FIELDS}
    assert len(identity.FIELDS) == 11
    sat, unsat = (identity._run(shisat, text, strategy, {}) for _, text, strategy in CASES[:2])
    assert sat["verdict"] is True and len(sat["witness"][0]) == 2 and sat["witness"][3] is True
    assert unsat["verdict"] is False and unsat["witness"] is None


def test_a_run_that_fails_to_parse_is_an_error_on_every_field():
    record = identity._run(shisat, CASES[2][1], "dfs", {})
    assert record.keys() == set(identity.FIELDS)
    assert all(value.startswith("error: ParseError: ") for value in record.values())


def test_stats_with_one_node_more_differ_on_that_field_alone(one_node_more, monkeypatch, capsys):
    assert _differing(CASES, monkeypatch, capsys) == {field: 2 * (field == "stats") for field in identity.FIELDS}


def test_an_untraced_run_with_one_node_more_differs_on_stats_alone(monkeypatch, capsys):
    _untraced(monkeypatch, lambda v: replace(v, stats={**v.stats, "nodes": v.stats["nodes"] + 1}))
    assert _differing(CASES, monkeypatch, capsys) == {field: 2 * (field == "stats") for field in identity.FIELDS}


def test_an_untraced_run_refuted_differs_on_verdict_and_witness(monkeypatch, capsys):
    _untraced(monkeypatch, lambda v: replace(v, sat=False))
    counts = _differing(CASES, monkeypatch, capsys)
    assert counts == {field: int(field in ("verdict", "witness")) for field in identity.FIELDS}


def test_a_witness_that_check_model_rejects_differs_on_that_field_alone(monkeypatch, capsys):
    monkeypatch.setattr(TREE_B, "check_model", lambda interp, kb: False)
    assert _differing(CASES, monkeypatch, capsys) == {field: int(field == "witness") for field in identity.FIELDS}


def test_a_graph_one_node_short_differs_on_nodes_and_repair(monkeypatch, capsys):
    decide_sat = TREE_B.decide_sat

    def one_node_short(kb, **kwargs):
        verdict = decide_sat(kb, **kwargs)
        if not verdict.sat:  # a SAT graph keeps its nodes for the witness
            verdict.graph.nodes.pop()
        return verdict

    monkeypatch.setattr(TREE_B, "decide_sat", one_node_short)
    counts = _differing(CASES, monkeypatch, capsys)
    assert counts == {field: int(field in ("nodes", "repair")) for field in identity.FIELDS}


def test_compare_names_ten_differing_runs_and_counts_the_rest(one_node_more, monkeypatch, capsys):
    lines = _report([(f"run/{i}", "inst a A\n", "dfs") for i in range(12)], monkeypatch, capsys)
    named = ", ".join(f"run/{i}" for i in range(10))
    assert lines["stats"] == f"stats: 12 of 12 runs differ: {named} and 2 more"
    assert lines["verdict"] == "verdict: 0 of 12 runs differ"


def test_compare_prints_where_the_first_differing_run_first_differs(monkeypatch, capsys):
    """Two stub trees whose runs differ only in `nodes`: on the second run in
    its second element, and on the third in an element one tree lacks."""
    nodes = {
        "parent": {"x": [(0, "or")], "y": [(0, "or"), (1, "and")], "z": [(0, "or")]},
        "tree": {"x": [(0, "or")], "y": [(0, "or"), (1, "and'")], "z": [(0, "or"), (1, "or")]},
    }
    monkeypatch.setattr(identity, "_run", lambda tree, text, strategy, memo: {
        field: iter(nodes[tree][text]) if field == "nodes" else 0 for field in identity.FIELDS
    })
    monkeypatch.setattr(identity, "_corpus", lambda: [(f"{text}/dfs", text, "dfs") for text in "xyz"])
    assert identity.compare("parent", "tree") == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(identity.FIELDS) + 1
    i = out.index("nodes: 2 of 3 runs differ: y/dfs, z/dfs")
    assert out[i + 1] == """  first: y/dfs element 1: parent (1, 'and'), tree (1, "and'")"""


def test_a_stream_one_tree_ends_early_differs_at_its_end():
    assert identity._difference(iter([1]), iter([1, 2])) == (1, identity._END, 2)
    assert identity._shown(identity._END) == "nothing"
    assert identity._difference({"nodes": 1}, {"nodes": 2}) == (None, {"nodes": 1}, {"nodes": 2})
    assert identity._difference(iter([1, 2]), iter([1, 2])) is None


def test_every_benchmark_text_is_a_run_under_both_strategies():
    import corpora  # on the path that identity.py sets up

    runs = {(text, strategy) for _, text, strategy in identity._corpus()}
    texts = {case.text for cases in corpora.WORKLOADS.values() for case in cases()}
    missing = {text for text in texts for strategy in ("dfs", "fifo") if (text, strategy) not in runs}
    assert not missing, f"{len(missing)} of {len(texts)} benchmark texts are not runs under both strategies"


# Prints one line per run of a slice, with sets and dicts in an order that
# no string hash decides.
_SLICE = """
import sys
sys.path.insert(0, "tools")
import identity, shisat
from helpers import DISALLOW_ABOX_TEXT, DISALLOW_TBOX_TEXT, EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT
from kbgen import differential_suite

def canonical(x):
    if isinstance(x, (set, frozenset)):
        return sorted(map(canonical, x), key=repr)
    if isinstance(x, dict):
        return sorted(((canonical(k), canonical(v)) for k, v in x.items()), key=repr)
    if isinstance(x, (tuple, list, map)):
        return [canonical(y) for y in x]
    return x

texts = [EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT, DISALLOW_ABOX_TEXT, DISALLOW_TBOX_TEXT]
for strategy in ("dfs", "fifo"):
    for text in texts + differential_suite(500, 20240817)[:40]:
        record = identity._record(shisat, text, strategy)
        print(canonical([record[f] for f in ("verdict", "stats", "trace", "names", "interned", "witness")]))
"""


def test_runs_agree_under_two_string_hash_seeds():
    """Two processes with different string hashes decide the same slice
    alike: a record that follows set order would differ between them."""
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", _SLICE], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout.splitlines())
    assert len(outs[0]) == 90
    differ = [i for i, (x, y) in enumerate(zip(*outs)) if x != y]
    assert not differ, f"runs {differ} differ between hash seeds 1 and 2"
