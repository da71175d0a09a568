"""Compare the benchmark between a parent tree and this tree, run for run.

    python3 tools/ab.py PARENT_TREE [--workload W ...] [--seed 101] [--trace 0] [--json OUT.json]

Runs the benchmark as this tree's `BENCHMARK.json` declares it: its
`command`, under this interpreter, for its `run_seconds`, on every
workload it lists or on those `--workload` names. Both trees are first
copied, without `.git` and bytecode caches, to two sibling directories of
one temporary directory (`copy_trees`), and every run starts from the root
of a copy: the benchmark's `peak_rss_mb` moves with the length of the
checkout's path, so the two sides run from paths of one length.
Pair i of ten runs each workload on both trees on seed SEED + i before
pair i + 1 starts, and the side that runs first alternates from pair to
pair, so drift in the machine's speed falls on both sides and spreads
over the session. Each run gets its own empty bytecode cache
(`PYTHONPYCACHEPREFIX`), so both trees compile from source and no `.pyc`
left in either tree, which would shorten its import, reaches `setup_s`.
Each run's last JSON line is its record. Per workload, for every metric
the records share, it prints both sides' median and quartiles and this
tree's wins out of the pairs: a win is a strictly better value in the
direction `BENCHMARK.json` gives (lower when it names none), and a tie
counts for neither. `gain` marks a metric on which this tree won at least
nine tenths of the pairs and the medians differ by more than the parent's
interquartile range. A run that is not `correct`, or that fails more
inputs than the parent's run of its pair, is flagged; the exit code is 1
when any run is flagged. `--json` also writes, per workload, the
settings, the summary rows, the flags and every run's record, by pair.
Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
PAIRS = 10


def directions(spec: dict) -> dict:
    """Metric name -> "lower" or "higher", from the benchmark declaration."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, ())}


def last_record(stdout: str) -> dict | None:
    """The last line of `stdout` that is a JSON object, or None."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def copy_trees(parent: Path, into: Path) -> tuple:
    """Copies of the parent tree and this tree, `into/parent` and
    `into/change`: sibling paths of one length. `.git` and bytecode caches
    are left out."""
    skip = shutil.ignore_patterns(".git", "__pycache__", "*.pyc")
    return shutil.copytree(parent, into / "parent", ignore=skip), shutil.copytree(ROOT, into / "change", ignore=skip)


def run_bench(tree: Path, cmd: list) -> dict:
    """The record of one run of `cmd` from the root of `tree`."""
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    record = last_record(done.stdout)
    if record is None:  # the run ended without a summary, e.g. exit 2
        tail = done.stderr.strip().splitlines()[-1:] or [f"exit {done.returncode}"]
        record = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": tail[0]}
    return record


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent: list, change: list, better: dict) -> list:
    """One row per metric present in every record of both sides, in the
    order of the first parent record. `parent[i]` and `change[i]` are
    the records of pair i."""
    assert len(parent) == len(change) and parent
    names = [n for n in parent[0]["metrics"] if all(n in r["metrics"] for r in parent + change)]
    rows = []
    for name in names:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = -1 if better.get(name, "lower") == "higher" else 1  # sign * value: lower is better
        wins = sum(sign * b < sign * a for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        gain = wins * 10 >= len(p) * 9 and sign * (pq[1] - cq[1]) > pq[2] - pq[0]
        rows.append({"metric": name, "unit": parent[0]["metrics"][name].get("unit", ""), "parent": pq, "change": cq,
                     "wins": wins, "pairs": len(p), "gain": gain})
    return rows


def flags(parent: list, change: list) -> list:
    """Why a pair's runs cannot be trusted: a run that is not correct, or
    this tree failing more inputs than the parent in the same pair."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, r in (("parent", p), ("change", c)):
            if not r["correct"]:
                out.append(f"pair {i}: {side} run not correct" + (f" ({r['error']})" if "error" in r else ""))
        if c["failed"] > p["failed"]:
            out.append(f"pair {i}: change failed {c['failed']} inputs, parent {p['failed']}")
    return out


def table(rows: list) -> str:
    lines = [f"{'metric':32} {'parent q1 / med / q3':>32} {'change q1 / med / q3':>32} {'change':>7} {'wins':>6}"]
    for r in rows:
        p = " / ".join(f"{v:.4g}" for v in r["parent"])
        c = " / ".join(f"{v:.4g}" for v in r["change"])
        med = r["parent"][1]
        rel = f"{(r['change'][1] - med) / med:+.1%}" if med else "-"
        wins = f"{r['wins']}/{r['pairs']}"
        lines.append(f"{r['metric']:32} {p:>32} {c:>32} {rel:>7} {wins:>6}" + ("  gain" if r["gain"] else ""))
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent commit's tree")
    ap.add_argument("--workload", action="append", choices=names, help="run only this workload; repeatable")
    ap.add_argument("--seed", type=int, default=101, help="seed of the first pair; pair i uses SEED + i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write the rows and every run's record to this file")
    args = ap.parse_args(argv)

    seconds, command = spec["run_seconds"], [sys.executable, *spec["command"][1:]]
    seeds = [args.seed + i for i in range(PAIRS)]
    records = {w: ([], []) for w in names if w in (args.workload or names)}  # the parent's and this tree's
    with tempfile.TemporaryDirectory(prefix="ab-trees-") as tmp:
        trees = copy_trees(args.parent, Path(tmp))
        for i, seed in enumerate(seeds):
            for workload, sides in records.items():
                cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    sides[side].append(run_bench(trees[side], cmd))
            print(f"pair {i + 1}/{PAIRS} done (seed {seed})", file=sys.stderr)

    better, out = directions(spec), {}
    for workload, (parent, change) in records.items():
        print(f"workload {workload}, {PAIRS} pairs, --seconds {seconds:g}, seeds {seeds[0]}..{seeds[-1]}")
        rows = summarize(parent, change, better)
        print(table(rows))
        problems = flags(parent, change)
        for problem in problems:
            print(f"FLAG: {workload} {problem}")
        runs = [{"pair": i, "seed": seeds[i], "parent": p, "change": c} for i, (p, c) in enumerate(zip(parent, change))]
        out[workload] = {"pairs": PAIRS, "seconds": seconds, "trace": args.trace, "rows": rows, "flags": problems,
                         "runs": runs}
    if args.json is not None:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if any(r["flags"] for r in out.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
