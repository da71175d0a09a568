"""tools/ab.py: the per-metric summary of paired benchmark runs."""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"verdict_ms.p50": "lower", "throughput_kb_s": "higher"}


def _record(verdict, throughput, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "verdict_ms.p50": {"value": verdict, "unit": "ms"},
            "throughput_kb_s": {"value": throughput, "unit": "kb/s"},
        },
    }


def test_summary_counts_wins_in_each_metrics_direction():
    parent = [_record(v, t) for v, t in [(10, 5), (11, 5), (12, 6), (13, 6), (14, 7)]]
    change = [_record(v, t) for v, t in [(8, 5), (9, 4), (9, 7), (10, 6), (11, 8)]]
    rows = {r["metric"]: r for r in ab.summarize(parent, change, BETTER)}
    verdict, throughput = rows["verdict_ms.p50"], rows["throughput_kb_s"]

    assert verdict["parent"] == (11, 12, 13) and verdict["change"] == (9, 9, 10)
    assert (verdict["wins"], verdict["pairs"]) == (5, 5)
    assert verdict["gain"]  # 5 of 5 pairs, medians 3 apart against a parent IQR of 2
    assert verdict["unit"] == "ms"

    assert throughput["wins"] == 2  # higher is better; the ties count for neither side
    assert not throughput["gain"]


def test_gain_needs_the_median_gap_to_exceed_the_parent_spread():
    parent = [_record(v, 1) for v in (10, 12, 14, 16, 18)]
    change = [_record(v - 1, 1) for v in (10, 12, 14, 16, 18)]
    row = ab.summarize(parent, change, BETTER)[0]
    assert row["wins"] == 5 and not row["gain"]  # gap 1, parent IQR 4


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [_record(20, 1) for _ in range(10)]
    change = [_record(10, 1) for _ in range(8)] + [_record(30, 1) for _ in range(2)]
    row = ab.summarize(parent, change, BETTER)[0]
    assert row["wins"] == 8 and not row["gain"]


def test_one_pair_has_degenerate_quartiles():
    row = ab.summarize([_record(2, 1)], [_record(1, 1)], BETTER)[0]
    assert row["parent"] == (2, 2, 2) and row["gain"]


def test_flags_incorrect_runs_and_extra_failures():
    parent = [_record(1, 1), _record(1, 1, failed=2), _record(1, 1)]
    change = [_record(1, 1, correct=False), _record(1, 1, failed=2), _record(1, 1, failed=1)]
    assert ab.flags(parent, change) == [
        "pair 0: change run not correct",
        "pair 2: change failed 1 inputs, parent 0",
    ]


def test_the_record_is_the_last_json_line():
    out = "verdict_ms.p50  1 ms\n" + json.dumps({"correct": True}) + "\n" + json.dumps({"correct": False}) + "\n\n"
    assert ab.last_record(out) == {"correct": False}
    assert ab.last_record("no summary\n") is None


def test_directions_come_from_the_benchmark_declaration():
    better = ab.directions(Path(__file__).parents[1] / "BENCHMARK.json")
    assert better["verdict_ms.p50"] == "lower" and better["throughput_kb_s"] == "higher"


def test_json_holds_the_rows_and_every_run(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        calls.append((tree == ab.ROOT, seed))
        return _record(9 if tree == ab.ROOT else 10, 1)

    monkeypatch.setattr(ab, "run_bench", fake_run)
    out = tmp_path / "ab.json"
    assert ab.main([str(tmp_path), "--workload", "suite", "--pairs", "2", "--seed", "5", "--json", str(out)]) == 0
    assert calls == [(False, 5), (True, 5), (True, 6), (False, 6)]  # the first side alternates

    saved = json.loads(out.read_text())
    assert (saved["workload"], saved["pairs"], saved["seconds"], saved["trace"]) == ("suite", 2, 20, 0)
    assert saved["flags"] == []
    row = next(r for r in saved["rows"] if r["metric"] == "verdict_ms.p50")
    assert row == {"metric": "verdict_ms.p50", "unit": "ms", "parent": [10, 10, 10], "change": [9, 9, 9],
                   "wins": 2, "pairs": 2, "gain": True}
    assert [(r["pair"], r["seed"]) for r in saved["runs"]] == [(0, 5), (1, 6)]
    assert saved["runs"][1]["parent"] == _record(10, 1) and saved["runs"][1]["change"] == _record(9, 1)


def test_each_run_compiles_from_source_in_a_fresh_cache(tmp_path, monkeypatch):
    seen = []

    def fake_run(cmd, cwd, capture_output, text, env):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cwd, cache, cache.is_dir() and not any(cache.iterdir())))
        assert {k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"} == {
            k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"
        }
        (cache / "stale.pyc").write_bytes(b"")  # what a run leaves behind
        return subprocess.CompletedProcess(cmd, 0, json.dumps(_record(1, 1)) + "\n", "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert ab.run_bench(tmp_path, "chain", 3, 20, 0) == _record(1, 1)
    assert ab.run_bench(tmp_path, "chain", 3, 20, 0) == _record(1, 1)
    (cwd, first, fresh), (_, second, fresh_again) = seen
    assert cwd == tmp_path and fresh and fresh_again  # each run starts from an empty cache
    assert first != second and not first.exists() and not second.exists()
