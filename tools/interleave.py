"""Time two source trees against each other in one process, input by input.

    python3 tools/interleave.py A B WORKLOAD [-k K] [--limit N]

Loads `A/src/shisat` and `B/src/shisat` side by side under two package
names (the package's modules import each other only relatively, so two
copies do not meet). For each input of the benchmark workload WORKLOAD
(`bench/corpora.py` of this tree, in the order seed 1 gives, the first N
with `--limit`), it times `parse_kb -> kb_index -> decide_sat` on both
trees in turn, K times, switching which tree goes first each time, and
keeps each tree's best. An input that raises on both trees with the same
exception is counted and not timed. It prints the p50, p75 and p95 of the
per-input times (the benchmark's `percentile`) and their total, for A and
B, with the ratio B/A. It exits 1 if the trees differ on any input's
verdict, node count or exception.

Both trees share the process, so drift in the machine's speed falls on
both alike: this sizes changes of a few microseconds per input, which
`tools/ab.py` can only average out over many runs. Times are not
gauge-scaled and do not include the witness or the oracle. Stdlib only.
"""
from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
STATS = ((50, "p50"), (75, "p75"), (95, "p95"))


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


def run_once(tree, text: str):
    """(seconds, outcome) of one parse -> role box -> decision of `text`;
    the outcome is (verdict, nodes) or the name of the exception raised."""
    start = perf_counter()
    try:
        kb = tree.parse_kb(text)
        tree.kb_index(kb)
        verdict = tree.decide_sat(kb)
    except Exception as exc:  # an input the trees must fail alike
        return perf_counter() - start, type(exc).__name__
    return perf_counter() - start, (verdict.sat, verdict.stats["nodes"])


def interleave(a, b, cases: list, k: int) -> tuple:
    """Each case's best time on `a` and on `b` over `k` alternating rounds
    as (name, a_s, b_s), the names of the cases that raised on both, and
    the messages of those on which the trees differ."""
    times, raised, differ = [], [], []
    trees = (a, b)
    for name, text in cases:
        best = [float("inf")] * 2
        outcome: list = [None] * 2
        for i in range(k):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                s, outcome[side] = run_once(trees[side], text)
                best[side] = min(best[side], s)
        if outcome[0] != outcome[1]:
            differ.append(f"{name}: A gives {outcome[0]}, B gives {outcome[1]}")
        elif isinstance(outcome[0], str):
            raised.append(name)
        else:
            times.append((name, *best))
    return times, raised, differ


def report(times: list) -> list:
    """Lines with the p50, p75, p95 and total of both sides' times, in ms."""
    from summary import percentile

    a_ms = [t[1] * 1e3 for t in times]
    b_ms = [t[2] * 1e3 for t in times]
    rows = [(label, percentile(a_ms, p), percentile(b_ms, p)) for p, label in STATS]
    rows.append(("total", sum(a_ms), sum(b_ms)))
    lines = [f"{'':6} {'A ms':>10} {'B ms':>10} {'B/A':>7}"]
    lines += [f"{label:6} {x:10.4f} {y:10.4f} {y / x:7.3f}" for label, x, y in rows]
    return lines


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("a", type=Path, help="root of tree A (the baseline)")
    parser.add_argument("b", type=Path, help="root of tree B")
    parser.add_argument("workload", help="a workload of bench/corpora.py")
    parser.add_argument("-k", type=int, default=7, help="rounds per input; each tree keeps its best")
    parser.add_argument("--limit", type=int, default=None, help="time only the first N inputs")
    args = parser.parse_args(argv)

    cases = workload_texts(args.workload)[: args.limit]
    a, b = load_tree(args.a, "shisat_a"), load_tree(args.b, "shisat_b")
    times, raised, differ = interleave(a, b, cases, max(1, args.k))
    print(f"{args.workload}: {len(times)} inputs timed, best of {args.k}; {len(raised)} raised on both trees")
    if times:
        print("\n".join(report(times)))
    for line in differ:
        print("DIFFER " + line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
