"""tools/interleave.py: two trees timed side by side in one process."""
from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import interleave
import shisat

ROOT = Path(__file__).parents[1]


def test_the_tree_against_itself_on_ten_suite_texts(monkeypatch, capsys):
    texts = interleave.workload_texts("suite")[:10]
    monkeypatch.setattr(interleave, "workload_texts", lambda workload: texts)
    assert interleave.main([str(ROOT), str(ROOT), "suite", "-k", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "suite: 10 inputs timed, best of 1; 0 raised on a tree"
    assert lines[1].startswith("stats differ on 0 of 10 timed inputs; nodes summed: A ")
    a, b = lines[1].split(": A ")[1].split(", B ")
    assert a == b and int(a) > 10
    assert [line.split()[0] for line in lines[3:7]] == ["p50", "p75", "p95", "total"]
    assert lines[7].startswith("witness path (build_witness -> check_model): ") and lines[7].endswith(" SAT inputs")
    assert [line.split()[0] for line in lines[9:13]] == ["p50", "p75", "p95", "total"]
    assert lines[13] == "decision peak memory (tracemalloc, parse_kb -> kb_index -> decide_sat): 10 inputs"
    assert lines[14].split() == ["A", "MB", "B", "MB", "B/A"]
    assert [line.split()[0] for line in lines[15:]] == ["p50", "p95", "max"]
    assert not any(line.startswith("DIFFER") for line in lines)


def _tree(**calls):
    """This package's calls, with those in `calls` put in their place."""
    names = ("parse_kb", "kb_index", "decide_sat", "build_witness", "check_model")
    return SimpleNamespace(**{name: calls.get(name, getattr(shisat, name)) for name in names})


def test_a_node_count_that_differs_is_reported():
    def decide_sat_one_node_more(kb):
        verdict = shisat.decide_sat(kb)
        return SimpleNamespace(
            sat=verdict.sat, graph=verdict.graph, stats={**verdict.stats, "nodes": verdict.stats["nodes"] + 1}
        )

    other = _tree(decide_sat=decide_sat_one_node_more)
    cases = [("one", "inst a (some r A)\n"), ("broken", "inst a (and A)\n")]
    times, witness_times, raised, stats = interleave.interleave(shisat, other, cases, 2)
    assert [name for name, *_ in times] == [name for name, *_ in witness_times] == ["one"] and raised == ["broken"]
    assert all(0 < t < 1 for _, *ts in times + witness_times for t in ts)
    nodes = stats[0][1]["nodes"]
    assert interleave.stats_line(stats) == f"stats differ on 1 of 1 timed inputs; nodes summed: A {nodes}, B {nodes + 1}"


def test_rule_applications_that_differ_are_reported_at_equal_node_counts():
    def decide_sat_or_for_and(kb):
        verdict = shisat.decide_sat(kb)
        rules = {("or'" if tag == "and'" else tag): n for tag, n in verdict.stats["rule_applications"].items()}
        return SimpleNamespace(sat=verdict.sat, graph=verdict.graph, stats={**verdict.stats, "rule_applications": rules})

    other = _tree(decide_sat=decide_sat_or_for_and)
    times, witness_times, raised, stats = interleave.interleave(shisat, other, [("one", "inst a (and A B)\n")], 2)
    assert [name for name, *_ in times] == [name for name, *_ in witness_times] == ["one"] and raised == []
    assert interleave.stats_line(stats) == "stats differ on 1 of 1 timed inputs; nodes summed: A 2, B 2"


def test_a_decision_that_holds_a_megabyte_more_peaks_a_megabyte_higher(monkeypatch):
    def decide_sat_holding_a_megabyte(kb):
        held = bytearray(10**6)
        verdict = shisat.decide_sat(kb)
        del held
        return verdict

    other = _tree(decide_sat=decide_sat_holding_a_megabyte)
    cases = [("one", "inst a (some r A)\n"), ("two", "inst a (and A (not A))\n")]
    peaks = interleave.memory(shisat, other, cases)
    assert [name for name, *_ in peaks] == ["one", "two"]
    assert all(0 < a < 10**5 and abs(b - a - 10**6) < 10**4 for _, a, b in peaks), peaks
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # `report` reads the benchmark's percentile
    lines = interleave.report(peaks, interleave.MEMORY_ROWS, "MB", 1e-6)
    assert [line.split()[0] for line in lines[1:]] == ["p50", "p95", "max"]
    assert abs(float(lines[3].split()[2]) - float(lines[3].split()[1]) - 1.0) < 0.01


def test_a_verdict_that_differs_is_timed_without_its_witness_path():
    def decide_sat_refuting(kb):
        verdict = shisat.decide_sat(kb)
        return SimpleNamespace(sat=False, graph=verdict.graph, stats=verdict.stats)

    other = _tree(decide_sat=decide_sat_refuting)
    cases = [("sat", "inst a (some r A)\n"), ("unsat", "inst a (and A (not A))\n")]
    times, witness_times, raised, stats = interleave.interleave(shisat, other, cases, 2)
    assert [name for name, *_ in times] == [name for name, *_ in stats] == ["sat", "unsat"]
    assert witness_times == raised == []
