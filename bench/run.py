"""Benchmark for shisat: time from text to a verdict, to a checked model and
to the bounded oracle's answer, on four fixed corpora (see README.md).

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0

`--trace 0` times every input with nothing wrapped and prints the
end-to-end metrics. `--trace 1` runs one plain pass for reference and one
pass with spans around the layers' public callables, and prints the
per-layer metrics. Both check every verdict and the exact-count
fingerprint in fingerprint.json, print a JSON summary as their last line,
and exit 1 if a check failed. Timed samples are scaled by the speed gauge
in reference.py. The program is imported from `src/` beside this
directory; without it the run exits 2.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import SpeedGauge
from summary import hit_ratio, percentile, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FINGERPRINT = BENCH_DIR / "fingerprint.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

# corpora.WORKLOADS builds these; they are named here so that arguments
# parse before the program is imported and its import is timed.
WORKLOADS = ("suite", "chain", "deep", "oracle")
# Seconds one plain pass takes on a 2-core shared VM under python 3.11. A run
# makes round(--seconds / this) passes, and at least MIN_PASSES so that each
# input's time is a median; a given --seconds always measures the same work.
PASS_SECONDS = {"suite": 3.3, "chain": 7.2, "deep": 2.5, "oracle": 21.0}
MIN_PASSES = 3
SETUP_PROBES = 7  # fresh interpreters whose set-up is timed
SETUP_GAUGE_PROBES = 9  # speed probes each of them runs after its set-up

# Entry points the benchmark calls, and the span each gets in a traced pass.
CALL_SPANS = {
    "parse_kb": "kbparse.parse",
    "kb_index": "rbox.index",
    "decide_sat": "engine.decide",
    "build_witness": "models.build",
    "check_model": "models.check",
    "oracle_search": "oracle.search",
    "gate_search": "bench.gate",
}


class ProgramMissing(Exception):
    pass


@dataclass(frozen=True)
class Calls:
    parse_kb: object
    kb_index: object
    decide_sat: object
    build_witness: object
    check_model: object
    oracle_search: object
    gate_search: object


def setup(workload: str, seed: int):
    """Import the program and build the workload; return the cases and the
    seconds this took."""
    start = perf_counter()
    try:
        import shisat
    except ImportError as exc:
        raise ProgramMissing(f"cannot import shisat from {ROOT / 'src'}: {exc}") from exc
    if not Path(shisat.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ProgramMissing(f"shisat was imported from {shisat.__file__}, not from {ROOT / 'src'}")
    import corpora

    cases = corpora.build(workload, seed)
    return cases, perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as a user's first call pays it."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def plain_calls() -> Calls:
    import shisat

    return Calls(
        parse_kb=shisat.parse_kb,
        kb_index=shisat.kb_index,
        decide_sat=shisat.decide_sat,
        build_witness=shisat.build_witness,
        check_model=shisat.check_model,
        oracle_search=shisat.bounded_model_search,
        gate_search=shisat.bounded_model_search,
    )


def traced_calls(tracer) -> Calls:
    plain = plain_calls()
    return Calls(**{attr: tracer.wrap(span, getattr(plain, attr)) for attr, span in CALL_SPANS.items()})


def rule_metric(tag: str) -> str:
    """`and'` is reported as `engine.rule.and_a`."""
    return "engine.rule." + (tag[:-1] + "_a" if tag.endswith("'") else tag)


def fingerprint_keys() -> list:
    from shisat.engine import PRIORITY

    keys = ["verdict.sat", "verdict.unsat", "verdict.none", "engine.nodes", "engine.states"]
    keys += [rule_metric(tag) for tag in PRIORITY]
    return keys + ["models.closed_pairs"]


PATHS = ("verdict", "model", "oracle")


@dataclass
class PassLog:
    gauge: SpeedGauge = field(default_factory=SpeedGauge)
    samples: dict = field(default_factory=lambda: {path: [] for path in PATHS})  # path -> [(case, when, ms)]
    work: list = field(default_factory=list)  # (when, s) of the timed paths; not the untimed gate
    decide_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    decided: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)  # (stage, exception type) -> count
    mismatches: list = field(default_factory=list)

    def timed(self, path: str, case: str, start: float, end: float, before_ms: float = 0.0) -> float:
        """Record a sample of `path` on `case` that ran from `start` to `end`,
        after `before_ms` spent on earlier steps of the same path; return its ms."""
        when = (start + end) / 2
        ms = before_ms + (end - start) * 1e3
        self.samples[path].append((case, when, ms))
        self.work.append((when, end - start))
        return ms

    def scaled_ms(self, path: str) -> list:
        """(case, ms at reference speed) for every sample of `path`."""
        return [(case, ms * self.gauge.factor(when)) for case, when, ms in self.samples[path]]

    def scaled_work_s(self) -> float:
        return sum(s * self.gauge.factor(when) for when, s in self.work)

    def scaled_wall_s(self) -> float:
        return self.wall_s * self.gauge.overall_factor()

    def fingerprint(self) -> dict:
        return {key: self.counts[key] for key in fingerprint_keys()}


def run_case(case, calls: Calls, log: PassLog) -> None:
    from corpora import ORACLE_BOUND
    from shisat import SearchBudgetExceeded

    log.attempted += 1
    counts = log.counts
    stage, answer = "kbparse", None
    try:
        start = perf_counter()
        kb = calls.parse_kb(case.text)
        stage = "rbox"
        idx = calls.kb_index(kb)
        stage = "engine"
        decide_start = perf_counter()
        verdict = calls.decide_sat(kb)
        decided_at = perf_counter()
        verdict_ms = log.timed("verdict", case.name, start, decided_at)
        log.decide_s += decided_at - decide_start
        log.decided += 1

        answer = "sat" if verdict.sat else "unsat"
        counts["verdict." + answer] += 1
        counts["engine.nodes"] += verdict.stats["nodes"]
        counts["engine.states"] += verdict.stats["states"]
        for tag, n in verdict.stats["rule_applications"].items():
            counts[rule_metric(tag)] += n
        counts["engine.trace_events"] += len(verdict.engine.trace)
        if case.expect is not None and case.expect != answer:
            log.mismatches.append(f"{case.name}: {answer.upper()}, expected {case.expect.upper()}")

        if verdict.sat:
            stage = "models"
            model_start = perf_counter()
            witness = calls.build_witness(verdict.graph, kb, idx)
            model_ok = calls.check_model(witness, kb)
            log.timed("model", case.name, model_start, perf_counter(), before_ms=verdict_ms)
            counts["models.domain"] += len(witness.domain)
            counts["models.closed_pairs"] += sum(len(pairs) for pairs in witness.roles.values())
            if not model_ok:
                log.mismatches.append(f"{case.name}: the witness fails check_model")

        if case.oracle_on == answer:
            stage = "oracle"
            oracle_start = perf_counter()
            try:
                found = calls.oracle_search(kb, ORACLE_BOUND)
            except SearchBudgetExceeded:
                counts["oracle.budget_exhausted"] += 1
                raise
            log.timed("oracle", case.name, oracle_start, perf_counter())
            counts["oracle.models_found"] += found is not None
            if found is not None and not verdict.sat:
                log.mismatches.append(f"{case.name}: the oracle found a model of an UNSAT verdict")

        if case.gate_bound is not None and not verdict.sat:
            stage = "gate"
            if calls.gate_search(kb, case.gate_bound) is not None:
                log.mismatches.append(f"{case.name}: a model of size <= {case.gate_bound} exists for an UNSAT verdict")
    except Exception as exc:  # a crash fails the input; it is reported by stage and type
        log.failed += 1
        log.errors[(stage, type(exc).__name__)] += 1
        if answer is None:
            counts["verdict.none"] += 1


def run_pass(cases, calls: Calls) -> PassLog:
    log = PassLog()
    log.gauge.probe()
    start = perf_counter()
    for case in cases:
        run_case(case, calls, log)
        log.gauge.maybe_probe()
    log.wall_s = perf_counter() - start
    log.gauge.probe()
    return log


def fingerprint_problems(workload: str, logs: list, record: bool) -> list:
    prints = [log.fingerprint() for log in logs]
    problems = [f"pass {i} counts {p} differ from pass 0" for i, p in enumerate(prints) if p != prints[0]]
    stored = json.loads(FINGERPRINT.read_text()) if FINGERPRINT.exists() else {}
    if record:
        stored[workload] = prints[0]
        FINGERPRINT.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    elif workload not in stored:
        problems.append(f"{FINGERPRINT.name} has no entry for {workload}")
    else:
        for key in sorted(set(stored[workload]) | set(prints[0])):
            if stored[workload].get(key) != prints[0].get(key):
                problems.append(f"{key} = {prints[0].get(key)}, fingerprint says {stored[workload].get(key)}")
    return problems


def timing_metrics(logs: list, notes: list, problems: list) -> dict:
    metrics = {}
    for path in PATHS:
        per_case: dict = {}
        for log in logs:
            for case, ms in log.scaled_ms(path):
                per_case.setdefault(case, []).append(ms)
        samples = [statistics.median(times) for times in per_case.values()]
        if not samples:
            problems.append(f"{path}_ms: no input reached this path")
            continue
        p = tail_percentile(len(samples))
        if p is None:
            p = 50
            notes.append(f"{path}_ms.tail: fewer than 20 inputs, reported at p50")
        metrics[f"{path}_ms.p50"] = (percentile(samples, 50), "ms")
        metrics[f"{path}_ms.tail"] = (percentile(samples, p), "ms")
        notes.append(f"{path}_ms.tail is p{p:g} of {len(samples)} inputs, each the median of its passes")
    return metrics


def end_to_end(workload: str, seed: int, cases, passes: int, notes: list, problems: list):
    setup_s = statistics.median(probe_setup(workload, seed) for _ in range(SETUP_PROBES))
    calls = plain_calls()
    logs = [run_pass(cases, calls) for _ in range(passes)]
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(timing_metrics(logs, notes, problems))
    metrics["throughput_kb_s"] = (statistics.median(log.decided / log.scaled_work_s() for log in logs), "kb/s")
    metrics["decided_share"] = (sum(log.decided for log in logs) / sum(log.attempted for log in logs), "share")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes.append(f"{passes} passes of {len(cases)} inputs; setup_s is the median of {SETUP_PROBES} fresh interpreters")
    return metrics, logs


def traced(cases, notes: list):
    from tracing import Tracer, traced_layers

    plain = run_pass(cases, plain_calls())
    tracer = Tracer()
    with traced_layers(tracer):
        log = run_pass(cases, traced_calls(tracer))
    notes.append(f"one plain and one traced pass of {len(cases)} inputs")
    return layer_metrics(tracer, log, plain), [plain, log]


def layer_metrics(tracer, log: PassLog, plain: PassLog) -> dict:
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    m = {"kbparse.parse_s": (self_s["kbparse.parse"], "s")}
    parse_errors = Counter({kind: n for (stage, kind), n in log.errors.items() if stage == "kbparse"})
    m["kbparse.errors"] = (sum(parse_errors.values()), "count")
    for kind in ("RecursionError", "ParseError"):
        m[f"kbparse.errors.{kind}"] = (parse_errors.pop(kind, 0), "count")
    m["kbparse.errors.other"] = (sum(parse_errors.values()), "count")
    m["rbox.index_s"] = (self_s["rbox.index"], "s")

    m["engine.decide_s"] = (self_s["engine.decide"], "s")
    nodes = log.counts["engine.nodes"]
    m["engine.nodes"] = (nodes, "count")
    m["engine.states"] = (log.counts["engine.states"], "count")
    m["engine.us_per_node"] = (plain.decide_s / nodes * 1e6 if nodes else 0.0, "us")
    m["engine.trace_events"] = (log.counts["engine.trace_events"], "count")
    for key in fingerprint_keys():
        if key.startswith("engine.rule."):
            m[key] = (log.counts[key], "count")
    for span in ("engine.select", "engine.apply", "engine.status", "engine.t_unsat",
                 "syntax.complement", "syntax.ordered", "graph.lookup"):
        m[span + "_s"] = (self_s[span], "s")
        m[span + "_calls"] = (calls[span], "count")
    m["transfer.s"] = (self_s["transfer"], "s")
    m["transfer.calls"] = (calls["transfer"], "count")
    for cache in ("graph.state_cache", "graph.local_cache"):
        hits, misses = counts.get(cache + ".hits", 0), counts.get(cache + ".misses", 0)
        m[cache + ".hit_ratio"] = (hit_ratio(hits, misses), "ratio")
        m[cache + ".hits"] = (hits, "count")
        m[cache + ".misses"] = (misses, "count")

    m["models.extract_s"] = (self_s["models.extract"], "s")
    m["models.close_s"] = (self_s["models.close"], "s")
    m["models.complete_s"] = (self_s["models.build"], "s")
    m["models.check_s"] = (self_s["models.check"], "s")
    m["models.domain"] = (log.counts["models.domain"], "count")
    m["models.closed_pairs"] = (log.counts["models.closed_pairs"], "count")
    m["oracle.search_s"] = (self_s["oracle.search"], "s")
    m["oracle.calls"] = (calls["oracle.search"], "count")
    m["oracle.models_found"] = (log.counts["oracle.models_found"], "count")
    m["oracle.budget_exhausted"] = (log.counts["oracle.budget_exhausted"], "count")
    m["bench.gate_s"] = (self_s["bench.gate"], "s")

    m["trace.wall_s"] = (log.wall_s, "s")
    m["trace.untraced_wall_s"] = (plain.wall_s, "s")
    m["trace.overhead"] = (log.scaled_wall_s() / plain.scaled_wall_s(), "ratio")
    m["trace.accounted_share"] = (tracer.total_self_s() / log.wall_s, "ratio")
    return m


def report(metrics: dict, notes: list, logs: list, problems: list) -> bool:
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>14.6g} {unit}")
    for note in notes:
        print("note:", note)
    errors = Counter()
    for log in logs:
        errors.update(log.errors)
    for (stage, kind), n in sorted(errors.items()):
        print(f"failed: {n} x {kind} in {stage}")
    mismatches = [m for log in logs for m in log.mismatches]
    for problem in (mismatches + problems)[:20]:
        print("CHECK FAILED:", problem)
    correct = not mismatches and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1, help="order in which a pass visits the inputs")
    ap.add_argument("--seconds", type=float, default=20, help="nominal length of a --trace 0 measurement")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    ap.add_argument("--record-fingerprint", action="store_true",
                    help="store this run's exact counts as the workload's fingerprint")
    args = ap.parse_args(argv)

    try:
        cases, setup_s = setup(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        gauge = SpeedGauge()
        for _ in range(SETUP_GAUGE_PROBES):
            gauge.probe()
        print(setup_s * gauge.overall_factor())
        return 0

    notes: list = []
    problems: list = []
    if args.trace:
        metrics, logs = traced(cases, notes)
    else:
        passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
        metrics, logs = end_to_end(args.workload, args.seed, cases, passes, notes, problems)
    problems += fingerprint_problems(args.workload, logs, args.record_fingerprint)
    return 0 if report(metrics, notes, logs, problems) else 1


if __name__ == "__main__":
    sys.exit(main())
