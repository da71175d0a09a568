"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
`pytest -s`) before asserting, so the run always reports every criterion.

Criterion 5's sub-check (d) asserts that no node with status Incomplete
stays reachable from the root. That holds for states (their incoming
edges are deleted when they demand a converse repair) but provably not
for or-nodes inside the local graph of a state that finished expansion
cleanly and was later satisfied through a sibling branch: such or-nodes
keep their Incomplete marker, which the repair bookkeeping requires.
The check is implemented exactly as stated and is expected to fail on
the randomized suite; see the assertion message for the first offending
case.
"""
from __future__ import annotations

import math
import time

import pytest

from shisat import (
    bounded_model_search,
    build_kb,
    check_model,
    closure,
    decide_sat,
    kb_index,
    parse_concept_text,
    parse_kb,
)
from shisat.engine import R_CONV, R_FORM
from shisat.graph import INCOMPLETE, STATE
from shisat.models import close_role_relations, complete_relations, extract_model_graph
from shisat.syntax import Role

from helpers import (
    EX1_BASE_TEXT,
    EX1_TEXT,
    EX2_TEXT,
    check_consistent,
    check_saturation,
    label_texts,
    naive_role_closure,
    rule_events,
    with_inverses,
)
from kbgen import chain_kb_text, differential_suite

SUITE_SIZE = 500
ORACLE_BOUND = 3


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared runs


class Run:
    def __init__(self, text):
        self.text = text
        self.kb = parse_kb(text)
        self.idx = kb_index(self.kb)
        self.verdict = decide_sat(self.kb, trace=True)  # criteria 2 and 5(e) read the trace


@pytest.fixture(scope="module")
def ex1():
    return Run(EX1_TEXT)


@pytest.fixture(scope="module")
def ex2():
    return Run(EX2_TEXT)


@pytest.fixture(scope="module")
def ex1_instance_query():
    kb = parse_kb(EX1_BASE_TEXT)
    concept = parse_concept_text("(all L I)", kb.store)
    extra = kb.store.inst("b", kb.store.negate(concept))
    query = build_kb(
        kb.store, kb.role_subsumptions, kb.transitive_roles, kb.tbox_axioms,
        list(kb.abox) + [extra],
    )
    run = Run.__new__(Run)
    run.text = EX1_BASE_TEXT
    run.kb = query
    run.idx = kb_index(query)
    run.verdict = decide_sat(query, trace=True)
    return run


@pytest.fixture(scope="module")
def suite():
    runs = []
    for text in differential_suite(SUITE_SIZE):
        runs.append(Run(text))
    return runs


def _all_runs(ex1, ex2, ex1_instance_query, suite):
    return [ex1, ex2, ex1_instance_query] + suite


# ---------------------------------------------------------------------------
# criterion 1: the web-pages knowledge base


def test_criterion_1_worked_example_one(ex1):
    t0 = time.perf_counter()
    verdict = decide_sat(ex1.kb)
    base = parse_kb(EX1_BASE_TEXT)
    from shisat import check_instance

    concept = parse_concept_text("(all L I)", base.store)
    instance = check_instance(base, "b", concept)
    elapsed = time.perf_counter() - t0
    ok = (not verdict.sat) and instance and elapsed < 0.100
    _report(1, ok, f"sat=UNSAT expected ({not verdict.sat}), instance=true "
                   f"({instance}), runtime {elapsed * 1000:.1f} ms < 100 ms")
    assert not verdict.sat
    assert instance
    assert elapsed < 0.100


# ---------------------------------------------------------------------------
# criterion 2: the converse-repair trace


def test_criterion_2_worked_example_two(ex2):
    graph = ex2.verdict.graph
    store = ex2.kb.store
    target = frozenset({"a:top", "a:(some r (and A (all s (not A))))"})
    state = next(
        (n for n in graph.nodes if n.node_type == STATE and label_texts(n) == target),
        None,
    )
    not_a = store.negate(store.atom("A"))
    required = {store.inst("a", not_a), store.inst("a", store.univ(Role("s"), not_a))}
    trace = ex2.verdict.engine.trace
    ok = state is not None and state.status == INCOMPLETE and state.conv_method == 0
    inc_at = conv_at = None
    fmls_at_incomplete = frozenset()
    if state is not None:
        for i, ev in enumerate(trace):
            if ev[0] == "status" and ev[1] == state.id and ev[2] == INCOMPLETE and inc_at is None:
                inc_at = i
                fmls_at_incomplete = ev[4]
            if ev[0] == "rule" and ev[1] == R_CONV and conv_at is None:
                conv_at = i
    ok = (
        ok
        and inc_at is not None
        and conv_at is not None
        and inc_at < conv_at
        and required <= fmls_at_incomplete
        and not ex2.verdict.sat
    )
    _report(2, ok, "state incomplete with conv_method 0 and required formulas "
                   "before the repair; root UNSAT")
    assert state is not None, "no state with the expected label"
    assert state.status == INCOMPLETE and state.conv_method == 0
    assert inc_at is not None and conv_at is not None and inc_at < conv_at
    assert required <= fmls_at_incomplete
    assert not ex2.verdict.sat


# ---------------------------------------------------------------------------
# criterion 3: trace checkpoints of the first worked example

PHI = "(or (not F) (and I (all P F)))"
CHECKPOINTS = {
    "root": frozenset({"a:F", "L(a,b)", "b:(some L (not I))", f"a:{PHI}", f"b:{PHI}"}),
    "after-narrowing": frozenset(
        {"a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:I", "a:(all P F)", "a:(all L F)"}
    ),
    "after-propagation": frozenset(
        {
            "a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:I",
            "a:(all P F)", "a:(all L F)", "b:F", "b:(all P F)",
        }
    ),
    "state": frozenset(
        {
            "a:F", "L(a,b)", "b:(some L (not I))", "a:I", "a:(all P F)",
            "a:(all L F)", "b:F", "b:(all P F)", "b:(all L F)", "b:I",
        }
    ),
    "successor": frozenset({"(not I)", "F", "(all P F)", PHI}),
}


def test_criterion_3_trace_checkpoints(ex1):
    labels = {label_texts(n) for n in ex1.verdict.graph.nodes}
    missing = [name for name, expected in CHECKPOINTS.items() if expected not in labels]
    _report(3, not missing, f"5 checkpoint labels, missing: {missing or 'none'}")
    assert not missing


# ---------------------------------------------------------------------------
# criterion 4: differential suite


def test_criterion_4_differential_suite(suite):
    t0 = time.perf_counter()
    failures = []
    sat_n = unsat_n = 0
    for i, run in enumerate(suite):
        if run.verdict.sat:
            sat_n += 1
            witness = complete_relations(
                extract_model_graph(run.verdict.graph, run.kb),
                run.idx,
                run.kb.concept_names,
            )
            if not check_model(witness, run.kb):
                failures.append((i, "extracted witness fails the model checker"))
        else:
            unsat_n += 1
            if bounded_model_search(run.kb, ORACLE_BOUND) is not None:
                failures.append((i, "bounded search found a model for an UNSAT verdict"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300 and len(suite) >= 500
    _report(4, ok, f"{len(suite)} KBs ({sat_n} SAT / {unsat_n} UNSAT), "
                   f"{len(failures)} failures, {elapsed:.1f} s < 300 s")
    assert len(suite) >= 500
    assert not failures, failures[:5]
    assert elapsed < 300


def test_unsat_verdicts_have_no_model_of_size_four(suite):
    # Criterion 4's differential check one domain element further, on every
    # UNSAT verdict and within the oracle's default budget.
    unsat = [i for i, run in enumerate(suite) if not run.verdict.sat]
    found = [i for i in unsat if bounded_model_search(suite[i].kb, 4) is not None]
    assert len(unsat) >= 100
    assert not found, found[:5]


# ---------------------------------------------------------------------------
# criterion 5: structural invariants on every run


def _invariant_violations(run):
    graph = run.verdict.graph
    universe = closure(run.kb, run.idx)
    out = []

    members = run.kb.store.members  # the reduced and disallowed sets are uid bits
    for node in graph.nodes:
        for bucket in (node.label, frozenset(members(node.rformulas)), frozenset(members(node.dformulas))):
            if not bucket <= universe:
                out.append(f"(a) node {node.id} escapes the closure")

    seen_states, seen_local = {}, {}
    for node in graph.nodes:
        key = (node.label, node.rformulas, node.dformulas)
        if node.node_type == STATE:
            if key in seen_states:
                out.append(f"(b) states {seen_states[key]}/{node.id} share a triple")
            seen_states[key] = node.id
        else:
            scoped = (node.after_trans_pred, key)
            if scoped in seen_local:
                out.append(f"(b) or-nodes {seen_local[scoped]}/{node.id} share a scoped triple")
            seen_local[scoped] = node.id

    color = {}

    def visit(v):
        color[v] = 1
        for w in graph.nodes[v].succs:
            if graph.nodes[w].node_type == STATE:
                continue
            c = color.get(w)
            if c == 1:
                out.append(f"(c) local cycle through node {w}")
                continue
            if c is None:
                visit(w)
        color[v] = 2

    for node in graph.nodes:
        if node.node_type != STATE and color.get(node.id) is None:
            visit(node.id)

    reachable, work = set(), [graph.root]
    while work:
        x = work.pop()
        if x in reachable:
            continue
        reachable.add(x)
        work.extend(graph.nodes[x].succs)
    for x in sorted(reachable):
        if graph.nodes[x].status == INCOMPLETE:
            kind = graph.nodes[x].node_type
            out.append(f"(d) incomplete {kind} node {x} reachable from the root")

    for v, tags in rule_events(run.verdict.engine.trace).items():
        if len(tags) > 1 and tags != [R_FORM, R_CONV]:
            out.append(f"(e) node {v} expanded by {', '.join(tags)}")
    return out


def test_criterion_5_invariants(ex1, ex2, ex1_instance_query, suite):
    offenders = []
    for i, run in enumerate(_all_runs(ex1, ex2, ex1_instance_query, suite)):
        violations = _invariant_violations(run)
        if violations:
            offenders.append((i, run.text, violations))
    ok = not offenders
    detail = f"{len(offenders)} run(s) with violations"
    if offenders:
        kinds = sorted({v.split(' ')[0] for (_, _, vs) in offenders for v in vs})
        detail += f" (kinds: {', '.join(kinds)})"
    _report(5, ok, detail)
    assert not offenders, (
        "structural invariant violations; first offender:\n"
        f"{offenders[0][1]}\n" + "\n".join(offenders[0][2])
    )


def test_repair_records_are_frozen(ex1, ex2, ex1_instance_query, suite):
    # Rebinding, never mutating: whoever holds a record holds a value.
    for run in _all_runs(ex1, ex2, ex1_instance_query, suite):
        for node in run.verdict.graph.nodes:
            for record in (node.fmls_rc, node.alt_fml_sets):
                assert type(record) is frozenset, (run.text, node.id)


# ---------------------------------------------------------------------------
# criterion 6: model-graph properties on every satisfiable suite run


def test_criterion_6_model_builder_properties(suite):
    violations = []
    checked = 0
    for i, run in enumerate(suite):
        if not run.verdict.sat:
            continue
        checked += 1
        mg = extract_model_graph(run.verdict.graph, run.kb)
        try:
            check_consistent(mg)
            check_saturation(mg, run.idx, run.kb.store)
        except AssertionError as exc:
            violations.append((i, f"saturation: {exc}"))
            continue
        closed = with_inverses(close_role_relations(mg.edges, run.idx))
        for role, pairs in closed.items():
            if {(b, a) for (a, b) in pairs} != closed[role.inverse]:
                violations.append((i, f"converse incoherence on {role}"))
        for (r, s) in run.idx.subrole_pairs:
            if not closed[r] <= closed[s]:
                violations.append((i, f"inclusion not respected: {r} <= {s}"))
        for r in run.idx.transitive:
            pairs = closed[r]
            if any(
                b == c and (a, d) not in pairs
                for (a, b) in pairs
                for (c, d) in pairs
            ):
                violations.append((i, f"composition not closed for {r}"))
        if closed != naive_role_closure(mg.edges, run.idx):
            violations.append((i, "completion is not the least closure"))
    ok = not violations
    _report(6, ok, f"{checked} SAT runs checked, {len(violations)} violations")
    assert not violations, violations[:5]


# ---------------------------------------------------------------------------
# criterion 7: empirical scaling on a growing chain family


def test_criterion_7_scaling(capsys=None):
    sizes, counts, times = [], [], []
    for depth in range(1, 11):
        kb = parse_kb(chain_kb_text(depth))
        idx = kb_index(kb)
        n = len(closure(kb, idx))
        t0 = time.perf_counter()
        verdict = decide_sat(kb)
        times.append(time.perf_counter() - t0)
        sizes.append(n)
        counts.append(verdict.stats["nodes"])
    monotone_sizes = all(a < b for a, b in zip(sizes, sizes[1:]))
    monotone_counts = all(a < b for a, b in zip(counts, counts[1:]))
    # least-squares fit of log2(count) = log2(c) + d*n, then check the
    # fitted exponential dominates every observation (with 2x headroom)
    xs, ys = sizes, [math.log2(v) for v in counts]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    d = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    log_c = mean_y - d * mean_x
    bounded = all(
        count <= 2.0 * (2 ** (log_c + d * n)) for n, count in zip(sizes, counts)
    )
    fast = max(times) < 10.0
    ok = monotone_sizes and monotone_counts and bounded and d >= 0 and fast
    _report(7, ok, f"10 sizes, closure {sizes[0]}..{sizes[-1]}, nodes "
                   f"{counts[0]}..{counts[-1]}, fit d={d:.3f}, "
                   f"max run {max(times) * 1000:.0f} ms < 10 s")
    assert monotone_sizes and monotone_counts
    assert d >= 0 and bounded
    assert fast
