"""tools/interleave.py: two trees timed side by side in one process."""
from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import shisat

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleave)


def test_the_tree_against_itself_on_ten_suite_texts():
    cmd = [sys.executable, "tools/interleave.py", ".", ".", "suite", "-k", "1", "--limit", "10"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "suite: 10 inputs timed, best of 1; 0 raised on both trees"
    assert [line.split()[0] for line in lines[2:]] == ["p50", "p75", "p95", "total"]
    assert "DIFFER" not in done.stdout


def test_a_node_count_that_differs_is_reported():
    def decide_sat_one_node_more(kb):
        verdict = shisat.decide_sat(kb)
        return SimpleNamespace(sat=verdict.sat, stats={**verdict.stats, "nodes": verdict.stats["nodes"] + 1})

    other = SimpleNamespace(parse_kb=shisat.parse_kb, kb_index=shisat.kb_index, decide_sat=decide_sat_one_node_more)
    cases = [("one", "inst a (some r A)\n"), ("broken", "inst a (and A)\n")]
    times, raised, differ = interleave.interleave(shisat, other, cases, 2)
    assert [name for name, *_ in times] == [] and raised == ["broken"]
    assert len(differ) == 1 and differ[0].startswith("one: A gives (True, ")


def test_rule_applications_that_differ_are_reported_at_equal_node_counts():
    def decide_sat_or_for_and(kb):
        verdict = shisat.decide_sat(kb)
        rules = {("or'" if tag == "and'" else tag): n for tag, n in verdict.stats["rule_applications"].items()}
        return SimpleNamespace(sat=verdict.sat, stats={**verdict.stats, "rule_applications": rules})

    other = SimpleNamespace(parse_kb=shisat.parse_kb, kb_index=shisat.kb_index, decide_sat=decide_sat_or_for_and)
    times, raised, differ = interleave.interleave(shisat, other, [("one", "inst a (and A B)\n")], 2)
    assert times == [] and raised == []
    assert len(differ) == 1 and differ[0].count("'nodes': 2,") == 2 and "\"or'\": 1" in differ[0]
