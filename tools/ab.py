"""Compare the benchmark between a parent tree and this tree, run for run.

    python3 tools/ab.py PARENT_TREE --workload chain --pairs 10 [--seconds 20] [--seed 101] [--trace 0] [--json OUT.json]

Runs `python3 bench/run.py` from the root of each tree, in pairs: pair i
runs both trees on seed SEED + i, and the side that runs first alternates
from pair to pair, so drift in the machine's speed falls on both sides.
Each run gets its own empty bytecode cache (`PYTHONPYCACHEPREFIX`), so
both trees compile from source and no `.pyc` left in either tree, which
would shorten its import, reaches `setup_s`.
Each run's last JSON line is its record. For every metric the records
share, it prints the parent's and this tree's median and quartiles, and
this tree's wins out of the pairs, where a win is a strictly better value
in the direction `BENCHMARK.json` gives (lower when it names none) and a
tie counts for neither. `gain` marks a metric on which this tree won at
least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range. A run that is not `correct`, or that fails
more inputs than the parent's run of its pair, is flagged; the exit code
is 1 when any run is flagged. `--json` also writes the comparison to a
file: the settings, the summary rows (with both sides' quartiles), the
flags and every run's record, by pair. Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def directions(benchmark: Path) -> dict:
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, ())}


def last_record(stdout: str) -> dict | None:
    """The last line of `stdout` that is a JSON object, or None."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
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
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


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
        rows.append({
            "metric": name,
            "unit": parent[0]["metrics"][name].get("unit", ""),
            "parent": pq,
            "change": cq,
            "wins": wins,
            "pairs": len(p),
            "gain": gain,
        })
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
    head = f"{'metric':32} {'parent q1 / med / q3':>32} {'change q1 / med / q3':>32} {'change':>7} {'wins':>6}"
    lines = [head]
    for r in rows:
        p = " / ".join(f"{v:.4g}" for v in r["parent"])
        c = " / ".join(f"{v:.4g}" for v in r["change"])
        med = r["parent"][1]
        rel = f"{(r['change'][1] - med) / med:+.1%}" if med else "-"
        wins = f"{r['wins']}/{r['pairs']}"
        lines.append(f"{r['metric']:32} {p:>32} {c:>32} {rel:>7} {wins:>6}" + ("  gain" if r["gain"] else ""))
    return "\n".join(lines)


def report(settings: dict, seeds: list, parent: list, change: list, rows: list, problems: list) -> dict:
    """The comparison as one JSON-ready object: `settings`, the summary
    `rows`, the `flags` and, per pair, its seed and both sides' records."""
    runs = [{"pair": i, "seed": s, "parent": p, "change": c} for i, (s, p, c) in enumerate(zip(seeds, parent, change))]
    return {**settings, "rows": rows, "flags": problems, "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent commit's tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=101, help="seed of the first pair; pair i uses SEED + i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write the rows and every run's record to this file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    parent, change = [], []
    seeds = [args.seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ((parent, args.parent), (change, ROOT))
        for records, tree in order if i % 2 == 0 else order[::-1]:
            records.append(run_bench(tree, args.workload, seed, args.seconds, args.trace))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr)

    print(f"workload {args.workload}, {args.pairs} pairs, --seconds {args.seconds:g}, seeds {seeds[0]}..{seeds[-1]}")
    rows = summarize(parent, change, directions(ROOT / "BENCHMARK.json"))
    print(table(rows))
    problems = flags(parent, change)
    for problem in problems:
        print("FLAG:", problem)
    if args.json is not None:
        settings = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds, "trace": args.trace}
        args.json.write_text(json.dumps(report(settings, seeds, parent, change, rows, problems), indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
