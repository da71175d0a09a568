"""Time two source trees against each other in one process, input by input.

    python3 tools/interleave.py A B WORKLOAD [-k K]

Loads `A/src/shisat` and `B/src/shisat` side by side under two package
names (the package's modules import each other only relatively, so two
copies do not meet). For each input of the benchmark workload WORKLOAD
(`bench/corpora.py` of this tree, in the order seed 1 gives), it times
`parse_kb -> kb_index -> decide_sat` on both trees in turn, K times,
switching which tree goes first each time, and keeps each tree's best; on
a SAT verdict it times the witness path, `build_witness -> check_model`,
apart, and keeps its best too. Every input that raises on neither tree is
timed, also where the trees' stats or verdicts differ, and the witness
path is timed on every input SAT on both; an input that raises on a tree
is counted and not timed. A line gives how many timed inputs differ in
stats and the nodes summed over them all, per tree, so a change that
moves node counts shows beside its timings. It prints the p50, p75 and
p95 of the per-input times (the benchmark's `percentile`) and their
total, for A and B, with the ratio B/A: one table for the decision and one
for the witness path. Then, per tree, one more untimed pass over the timed
inputs runs `parse_kb -> kb_index -> decide_sat` under `tracemalloc`, and
a third table gives the p50, p95 and max of the per-input peaks, in MB: a
memory change is sized in-process, where `tools/ab.py`'s `peak_rss_mb`
reads the whole process. It compares no verdict or witness:
`tools/identity.py` does.

Both trees share the process, so drift in the machine's speed falls on
both alike: this sizes changes of a few microseconds per input, which
`tools/ab.py` can only average out over many runs. Times are not
gauge-scaled and do not include the oracle. Stdlib only.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
TIME_ROWS = (("p50", 50), ("p75", 75), ("p95", 95), ("total", sum))
MEMORY_ROWS = (("p50", 50), ("p95", 95), ("max", max))
INF = float("inf")


def load_tree(root: Path, name: str):
    """The package under `root/src/shisat`, imported as `name`."""
    package = Path(root).resolve() / "src" / "shisat"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise FileNotFoundError(f"no package at {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workload_texts(workload: str) -> list:
    """(name, text) of the benchmark workload's cases, in the order of seed 1."""
    for sub in ("bench", "tests", "src"):  # corpora imports helpers, which imports shisat
        if str(ROOT / sub) not in sys.path:
            sys.path.insert(0, str(ROOT / sub))
    import corpora

    return [(case.name, case.text) for case in corpora.build(workload, 1)]


def run_once(tree, text: str) -> tuple:
    """(decision seconds, witness seconds, stats) of one parse -> role box
    -> decision of `text`, then, on a SAT verdict, one `build_witness ->
    check_model`. The witness seconds are infinite when the verdict is not
    SAT, and all seconds are, with stats None, when a call raised."""
    start = perf_counter()
    try:
        kb = tree.parse_kb(text)
        idx = tree.kb_index(kb)
        verdict = tree.decide_sat(kb)
        decided = perf_counter()
        if verdict.sat:
            tree.check_model(tree.build_witness(verdict.graph, kb, idx), kb)
    except Exception:  # how the trees fail is tools/identity.py's to compare
        return INF, INF, None
    return decided - start, perf_counter() - decided if verdict.sat else INF, verdict.stats


def interleave(a, b, cases: list, k: int) -> tuple:
    """Each case's best decision time on `a` and on `b` over `k`
    alternating rounds as (name, a_s, b_s), for every case that raises on
    neither tree, the same for the witness path of the cases SAT on both,
    the names of the cases that raised on a tree, and (name, a_stats,
    b_stats) of each timed case."""
    times, witness_times, raised, stats = [], [], [], []
    trees = (a, b)
    for name, text in cases:
        best = [(INF, INF)] * 2  # per tree: decision and witness seconds
        outcome: list = [None] * 2
        for i in range(k):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                *seconds, outcome[side] = run_once(trees[side], text)
                best[side] = tuple(map(min, best[side], seconds))
        if None in outcome:
            raised.append(name)
            continue
        (a_s, a_witness), (b_s, b_witness) = best
        times.append((name, a_s, b_s))
        stats.append((name, *outcome))
        if INF not in (a_witness, b_witness):  # SAT on both
            witness_times.append((name, a_witness, b_witness))
    return times, witness_times, raised, stats


def stats_line(stats: list) -> str:
    """How many of the timed cases' (name, a_stats, b_stats) differ, and
    the nodes summed over all of them on each side."""
    moved = sum(x != y for _, x, y in stats)
    a, b = (sum(t[i]["nodes"] for t in stats) for i in (1, 2))
    return f"stats differ on {moved} of {len(stats)} timed inputs; nodes summed: A {a}, B {b}"


def peak_memory(tree, text: str) -> int:
    """The `tracemalloc` peak, in bytes, of one parse -> role box ->
    decision of `text`. A full collection first starts the cyclic
    collector's counts afresh, so a repeat collects at the same points."""
    gc.collect()
    tracemalloc.start()
    try:
        kb = tree.parse_kb(text)
        tree.kb_index(kb)
        tree.decide_sat(kb)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory(a, b, cases: list) -> list:
    """(name, a_bytes, b_bytes): each case's decision peak on `a` and on `b`."""
    return [(name, peak_memory(a, text), peak_memory(b, text)) for name, text in cases]


def report(samples: list, rows=TIME_ROWS, unit: str = "ms", scale: float = 1e3) -> list:
    """Lines with the `rows` of both sides' (name, a, b) `samples`, times
    `scale`: each row is the benchmark's `percentile` at a rank or, where
    a function stands for the rank, that function of the samples."""
    from summary import percentile

    sides = [[t[i] * scale for t in samples] for i in (1, 2)]
    lines = [f"{'':6} {'A ' + unit:>10} {'B ' + unit:>10} {'B/A':>7}"]
    for label, p in rows:
        x, y = (p(xs) if callable(p) else percentile(xs, p) for xs in sides)
        lines.append(f"{label:6} {x:10.4f} {y:10.4f} {y / x:7.3f}")
    return lines


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("a", type=Path, help="root of tree A (the baseline)")
    parser.add_argument("b", type=Path, help="root of tree B")
    parser.add_argument("workload", help="a workload of bench/corpora.py")
    parser.add_argument("-k", type=int, default=7, help="rounds per input; each tree keeps its best")
    args = parser.parse_args(argv)

    cases = workload_texts(args.workload)
    a, b = load_tree(args.a, "shisat_a"), load_tree(args.b, "shisat_b")
    times, witness_times, raised, stats = interleave(a, b, cases, max(1, args.k))
    print(f"{args.workload}: {len(times)} inputs timed, best of {args.k}; {len(raised)} raised on a tree")
    print(stats_line(stats))
    if times:
        print("\n".join(report(times)))
    if witness_times:
        print(f"witness path (build_witness -> check_model): {len(witness_times)} SAT inputs")
        print("\n".join(report(witness_times)))
    if times:
        decided = {name for name, *_ in times}
        peaks = memory(a, b, [(name, text) for name, text in cases if name in decided])
        print(f"decision peak memory (tracemalloc, parse_kb -> kb_index -> decide_sat): {len(peaks)} inputs")
        print("\n".join(report(peaks, MEMORY_ROWS, "MB", 1e-6)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
