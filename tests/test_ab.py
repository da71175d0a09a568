"""tools/ab.py: the per-metric summary of paired benchmark runs."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import ab

BETTER = {"verdict_ms.p50": "lower", "throughput_kb_s": "higher"}


def _record(verdict, throughput, correct=True, failed=0):
    metrics = {"verdict_ms.p50": {"value": verdict, "unit": "ms"},
               "throughput_kb_s": {"value": throughput, "unit": "kb/s"}}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


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
    assert ab.flags(parent, change) == ["pair 0: change run not correct", "pair 2: change failed 1 inputs, parent 0"]


def test_the_record_is_the_last_json_line():
    out = "verdict_ms.p50  1 ms\n" + json.dumps({"correct": True}) + "\n" + json.dumps({"correct": False}) + "\n\n"
    assert ab.last_record(out) == {"correct": False}
    assert ab.last_record("no summary\n") is None


def test_directions_come_from_the_benchmark_declaration():
    better = ab.directions(json.loads(ab.BENCHMARK.read_text()))
    assert better["verdict_ms.p50"] == "lower" and better["throughput_kb_s"] == "higher"


def test_json_holds_the_rows_and_every_run(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree, cmd):  # cmd[3] is the workload and cmd[5] the seed
        calls.append(f"{cmd[3]} {tree.name} {cmd[5]}")
        return _record(9 if tree.name == "change" else 10, 1)

    monkeypatch.setattr(ab, "run_bench", fake_run)
    out = tmp_path / "ab.json"
    argv = [str(tmp_path), "--workload", "chain", "--workload", "suite", "--seed", "5", "--json", str(out)]
    assert ab.main(argv) == 0
    # Pair i runs both workloads, in the declaration's order, before pair i + 1; the first side alternates.
    assert len(calls) == 40 and calls[:8] == ["suite parent 5", "suite change 5", "chain parent 5", "chain change 5",
                                              "suite change 6", "suite parent 6", "chain change 6", "chain parent 6"]

    saved = json.loads(out.read_text())
    assert list(saved) == ["suite", "chain"] and saved["chain"]["flags"] == []
    assert (saved["chain"]["pairs"], saved["chain"]["seconds"], saved["chain"]["trace"]) == (10, 20, 0)
    row = next(r for r in saved["chain"]["rows"] if r["metric"] == "verdict_ms.p50")
    assert row == {"metric": "verdict_ms.p50", "unit": "ms", "parent": [10, 10, 10], "change": [9, 9, 9],
                   "wins": 10, "pairs": 10, "gain": True}
    runs = saved["suite"]["runs"]
    assert [(r["pair"], r["seed"]) for r in runs] == [(i, 5 + i) for i in range(10)]
    assert runs[1]["parent"] == _record(10, 1) and runs[1]["change"] == _record(9, 1)


def test_the_declaration_gives_the_workloads_command_and_run_length(tmp_path, monkeypatch):
    spec = json.loads(ab.BENCHMARK.read_text())
    spec.update(command=["python3", "bench/other.py"], run_seconds=3.5, workloads=[*spec["workloads"], {"name": "x"}])
    monkeypatch.setattr(ab, "BENCHMARK", tmp_path / "BENCHMARK.json")
    ab.BENCHMARK.write_text(json.dumps(spec))
    cmds = []
    monkeypatch.setattr(ab, "run_bench", lambda tree, cmd: cmds.append(cmd) or _record(1, 1))
    assert ab.main([str(tmp_path)]) == 0
    assert len(cmds) == 100 and [cmd[3] for cmd in cmds[:10:2]] == ["suite", "chain", "deep", "oracle", "x"]
    assert cmds[8] == [sys.executable, "bench/other.py", "--workload", "x", "--seed", "101", "--seconds", "3.5",
                       "--trace", "0"]


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
    assert ab.run_bench(tmp_path, ["run"]) == _record(1, 1)
    assert ab.run_bench(tmp_path, ["run"]) == _record(1, 1)
    (cwd, first, fresh), (_, second, fresh_again) = seen
    assert cwd == tmp_path and fresh and fresh_again  # each run starts from an empty cache
    assert first != second and not first.exists() and not second.exists()


def test_both_sides_run_from_copies_at_paths_of_one_length(tmp_path, monkeypatch):
    parent = tmp_path / "a-much-longer-parent-checkout"
    for sub in (".git", "src/__pycache__"):
        (parent / sub).mkdir(parents=True)
    (parent / "BENCHMARK.json").write_text(ab.BENCHMARK.read_text())
    (parent / "src" / "__pycache__" / "m.pyc").write_bytes(b"")
    trees = set()

    def fake_run(tree, cmd):
        assert (tree / "BENCHMARK.json").is_file() and not (tree / ".git").exists()
        assert not any(tree.rglob("__pycache__")) and not any(tree.rglob("*.pyc"))
        trees.add(tree)
        return _record(1, 1)

    monkeypatch.setattr(ab, "run_bench", fake_run)
    assert ab.main([str(parent), "--workload", "chain"]) == 0
    (a, b) = sorted(trees)
    assert a.parent == b.parent and len(str(a)) == len(str(b))
    assert not a.exists() and not b.exists()  # the copies go when the runs end
