"""Spans for the traced run, recorded from outside the program.

`Tracer.wrap` turns a callable into a span. Spans are folded into
per-name self time and call count as they close rather than stored,
because the engine-level spans number in the millions on `suite`. A
span's self time is its duration minus the time covered by its child
spans, so the self times of all spans add up to the time spent inside
the outermost ones, however often a span re-enters itself (`apply_rule`
reaches `apply_rule` again through `update_status`).

`traced_layers` installs spans where the search looks the callables up:
the engine imports `t_unsat`, `complement`, `ordered`, `kb_index` and the
transfer operators into its own namespace, and calls its rule and status
methods through `self`.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from shisat import engine, models
from shisat.engine import TableauEngine
from shisat.graph import STATE, TableauGraph


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.self_s: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self._open: list = []  # time covered by the children of each open span

    def wrap(self, name: str, fn):
        clock, open_spans = self.clock, self._open
        self_s, calls = self.self_s, self.calls
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def counting_lookup(tracer: Tracer, find_proxy):
    """`TableauGraph.find_proxy` as a span that also counts, per cache, the
    lookups that found a node (hits) and those that did not (misses)."""

    def lookup(graph, node_type, stype, v1, label, rformulas, dformulas):
        found = find_proxy(graph, node_type, stype, v1, label, rformulas, dformulas)
        cache = "graph.state_cache" if node_type == STATE else "graph.local_cache"
        tracer.count(cache + (".misses" if found is None else ".hits"))
        return found

    return tracer.wrap("graph.lookup", lookup)


# (owner, attribute, span name) for every callable the search reaches
# through a module or class attribute.
INNER_SPANS = (
    (engine, "kb_index", "rbox.index"),
    (engine, "t_unsat", "engine.t_unsat"),
    (engine, "complement", "syntax.complement"),
    (engine, "ordered", "syntax.ordered"),
    (engine, "transfer_concepts", "transfer"),
    (engine, "transfer_concepts_to", "transfer"),
    (engine, "transfer_assertions", "transfer"),
    (engine, "transfer_assertions_from", "transfer"),
    (TableauEngine, "applicable_rule", "engine.select"),
    (TableauEngine, "apply_rule", "engine.apply"),
    (TableauEngine, "apply_trans_rule", "engine.apply"),
    (TableauEngine, "apply_conv_rule", "engine.apply"),
    (TableauEngine, "update_status", "engine.status"),
    (TableauEngine, "propagate_status", "engine.status"),
    (models, "extract_model_graph", "models.extract"),
    (models, "close_role_relations", "models.close"),
)


@contextmanager
def traced_layers(tracer: Tracer):
    """Install the inner spans for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in INNER_SPANS]
    saved.append((TableauGraph, "find_proxy", TableauGraph.find_proxy))
    try:
        for owner, attr, name in INNER_SPANS:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        TableauGraph.find_proxy = counting_lookup(tracer, TableauGraph.find_proxy)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
