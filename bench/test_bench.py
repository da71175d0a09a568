"""Tests for the benchmark's own helpers: python3 -m pytest bench"""
from __future__ import annotations

from dataclasses import replace

import pytest

import run  # puts src/ and tests/ on the path
import corpora
from summary import hit_ratio, percentile, tail_percentile
from reference import REFERENCE_PROBE_S, SpeedGauge
from tracing import Tracer, traced_layers

from shisat import decide_sat, parse_kb
from shisat.engine import TableauEngine


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_counts_reentrant_spans_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    spans = {}

    def apply_rule(depth):
        clock.tick(1)
        if depth:
            spans["status"](depth - 1)
        clock.tick(1)

    def update_status(depth):
        clock.tick(3)
        spans["apply"](depth)

    spans["apply"] = tracer.wrap("engine.apply", apply_rule)
    spans["status"] = tracer.wrap("engine.status", update_status)
    spans["apply"](1)  # apply_rule -> update_status -> apply_rule

    assert tracer.self_s == {"engine.apply": 4.0, "engine.status": 3.0}
    assert tracer.calls == {"engine.apply": 2, "engine.status": 1}
    assert tracer.total_self_s() == clock.now


def test_traced_engine_spans_add_up_and_are_removed_afterwards():
    original = TableauEngine.apply_rule
    kb = parse_kb(corpora.EX2_TEXT)  # needs a converse repair: apply_rule re-enters itself
    tracer = Tracer()
    with traced_layers(tracer):
        traced_decide = tracer.wrap("engine.decide", decide_sat)
        verdict = traced_decide(kb)
    assert TableauEngine.apply_rule is original

    rules = verdict.stats["rule_applications"]
    assert rules["converse"] > 0
    # apply_rule runs once per rule application and delegates the
    # transitional and converse rules to their own spans.
    expected = sum(rules.values()) + rules.get("exists", 0) + rules.get("exists'", 0) + rules["converse"]
    assert tracer.calls["engine.apply"] == expected
    assert tracer.calls["engine.decide"] == 1
    assert all(s >= 0 for s in tracer.self_s.values())


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
     (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_averages_around_the_nearest_rank():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50) == 50  # mean of ranks 48..52
    assert percentile(samples, 90) == 90
    assert percentile([7.0], 99) == 7.0
    assert percentile([1.0, 2.0, 10.0], 50) == pytest.approx(13 / 3)
    clusters = [1.0] * 30 + [2.0] * 30  # the median sits on a cluster edge
    assert percentile(clusters, 50) == pytest.approx(4 / 3)


def test_hit_ratio_base_is_hits_plus_misses():
    assert hit_ratio(3, 1) == 0.75
    assert hit_ratio(0, 5) == 0.0
    assert hit_ratio(0, 0) == 0.0


def test_cache_lookups_split_into_hits_and_misses():
    tracer = Tracer()
    with traced_layers(tracer):
        verdict = decide_sat(parse_kb(corpora.EX1_TEXT))
    counts = tracer.counts
    state_lookups = counts.get("graph.state_cache.hits", 0) + counts.get("graph.state_cache.misses", 0)
    local_lookups = counts.get("graph.local_cache.hits", 0) + counts.get("graph.local_cache.misses", 0)
    assert state_lookups + local_lookups == tracer.calls["graph.lookup"]
    # Each form-state rule looks its state up once; every miss creates a state.
    assert state_lookups == verdict.stats["rule_applications"]["form-state"]
    assert counts.get("graph.state_cache.misses", 0) == verdict.stats["states"]


HOSTILE = next(c for c in corpora.deep_cases() if c.name.startswith("not["))


def test_parser_crash_fails_the_input_without_a_mismatch():
    def parse_kb_overflowing(text):
        raise RecursionError("maximum recursion depth exceeded")

    calls = replace(run.plain_calls(), parse_kb=parse_kb_overflowing)
    log = run.PassLog()
    run.run_case(HOSTILE, calls, log)
    assert (log.attempted, log.decided, log.failed) == (1, 0, 1)
    assert log.errors == {("kbparse", "RecursionError"): 1}
    assert log.counts["verdict.none"] == 1
    assert log.samples["verdict"] == [] and log.mismatches == []


def test_hostile_input_ends_in_a_verdict_or_a_counted_failure():
    log = run.PassLog()
    run.run_case(HOSTILE, run.plain_calls(), log)
    assert log.attempted == 1
    assert log.decided + log.counts["verdict.none"] == 1
    assert log.mismatches == []


def test_traced_pass_reproduces_the_plain_counts():
    cases = corpora.suite_cases()[-23:]  # twenty suite inputs and the worked examples
    plain = run.run_pass(cases, run.plain_calls())
    tracer = Tracer()
    with traced_layers(tracer):
        traced = run.run_pass(cases, run.traced_calls(tracer))
    assert plain.fingerprint() == traced.fingerprint()
    assert plain.mismatches == traced.mismatches == []
    assert tracer.total_self_s() <= traced.wall_s


def test_speed_gauge_scales_by_the_nearest_probes():
    clock = FakeClock()
    # Untimed warm-up probes, a slow stretch, then the reference speed.
    durations = iter([0.0] * 10 + [0.003] * 4 + [0.0015] * 4)
    gauge = SpeedGauge(clock=clock, work=lambda: clock.tick(next(durations)))
    for _ in range(8):
        gauge.probe()
        clock.tick(1.0)
    assert gauge.factor(gauge.times[0]) == pytest.approx(0.5)
    assert gauge.factor(gauge.times[-1]) == pytest.approx(1.0)
    assert gauge.overall_factor() == pytest.approx(REFERENCE_PROBE_S / 0.00225)
