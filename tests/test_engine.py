"""Engine behaviour: refutation checks, rule choice, application effects,
status flow, and the worked examples end to end."""
from __future__ import annotations

import builtins
import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from shisat import TableauEngine, bounded_model_search, build_witness, check_model, closure, decide_sat, kb_index, parse_kb
from shisat import engine as engine_module
from shisat.engine import (
    EMPTY,
    PRIORITY,
    R_CONV,
    RuleInstance,
    derive_split,
    split_label,
    t_unsat,
)
from shisat.graph import (
    DETERMINED,
    EXPANDED,
    INCOMPLETE,
    NONSTATE,
    SAT,
    STATE,
    UNEXPANDED,
    UNSAT,
)
from shisat.kbparse import parse_concept_text
from shisat.models import node_formulas
from shisat.rbox import pulling_roles, transfer_concepts_to
from shisat.syntax import (
    ALL,
    AND,
    BOT,
    INST,
    OR,
    REL,
    SOME,
    FormulaStore,
    Role,
    complement,
    formula_text,
    ordered,
    uid_bits,
)

from helpers import (
    DISALLOW_ABOX_TEXT,
    DISALLOW_MODE0_TEXT,
    DISALLOW_TBOX_TEXT,
    EX1_BASE_TEXT,
    EX1_TEXT,
    EX2_TEXT,
    abox_chain_text,
    alt_fan_text,
    and_nest,
    fan_text,
    flat_and,
    interned_texts,
    label_texts,
    pullback_kb,
    rule_events,
    run,
    state_claim,
    state_of,
)
from kbgen import chain_kb_text, differential_suite, random_kb_text


# -- obvious refutation ----------------------------------------------------

def test_t_unsat_complementary_assertions():
    kb = parse_kb("inst a F\ninst a (not F)\n")
    assert t_unsat(kb.store, frozenset(kb.abox))


def test_t_unsat_complementary_concepts():
    kb = parse_kb("inst x A\n")
    store = kb.store
    label = {
        store.atom("A"),
        store.univ(Role("s"), store.negate(store.atom("A"))),
        store.negate(store.atom("A")),
    }
    assert t_unsat(store, label)


def test_t_unsat_negative():
    kb = parse_kb("inst a A\n")
    assert not t_unsat(kb.store, frozenset(kb.abox))


def test_t_unsat_bottom_assertion():
    kb = parse_kb("inst a bot\n")
    assert t_unsat(kb.store, frozenset(kb.abox))


def test_repeated_clash_test_interns_nothing():
    # A memo hit skips the call, so the call it skips must intern nothing:
    # the complements are interned on the first test of the label.
    kb = parse_kb("inst a A\n")
    store = kb.store
    engine = TableauEngine(kb)
    r = Role("r")
    label = frozenset(
        {store.atom("A"), store.univ(r, store.atom("B")), store.exist(r, store.conj(store.atom("B"), store.atom("C")))}
    )
    before = len(store._table)
    assert not engine._clashes(label)
    after = len(store._table)
    assert after > before
    assert not engine._clashes(label)
    assert not t_unsat(store, label)
    assert len(store._table) == after


def test_repeated_backward_transfer_interns_nothing():
    kb = parse_kb("inst a (some r- A)\n")
    store = kb.store
    engine = TableauEngine(kb)
    ex = kb.abox[0]
    label = frozenset({store.atom("A"), store.univ(Role("r"), store.atom("B")), store.univ(Role("r"), store.atom("C"))})
    before = len(store._table)
    out = engine._backward(ex, label)
    after = len(store._table)
    assert after > before
    assert _texts(out) == {"a:B", "a:C"}
    assert engine._backward(ex, label) == out
    assert transfer_concepts_to(engine.idx, store, label, Role("r"), "a") == out
    assert len(store._table) == after


# -- roles a successor can pull back across --------------------------------

def test_no_backward_transfer_across_a_role_off_the_pulling_table(decided):
    """The engine skips `_backward` where the existential's role is not in
    `pulling_roles`; every or-node of such a local graph indeed pulls
    nothing back."""
    off_table = 0
    for text, kb, verdict in decided:
        engine, nodes = verdict.engine, verdict.graph.nodes
        table = pulling_roles(kb, engine.idx)
        assert engine._pulling in (None, table)
        for node in nodes:
            if node.node_type != NONSTATE or state_of(nodes, node) is None:
                continue
            ex = nodes[node.after_trans_pred].ce_label
            if ex.body.role not in table:
                off_table += 1
                assert engine._backward(ex, node.label) == EMPTY, text
    assert off_table > 0


@pytest.mark.parametrize(
    "text",
    [
        "inst a (some r (all r- B))\n",
        "sub r- s\ntrans s\nimpl top (all s B)\ninst a (some r A)\n",  # (all s B) narrows to (all r- B)
    ],
    ids=["inverse", "subrole-of-transitive"],
)
def test_pulling_table_holds_a_role_whose_successor_pulls(text):
    kb, verdict = run(text)
    assert Role("r") in pulling_roles(kb, verdict.engine.idx)
    assert verdict.stats["rule_applications"].get(R_CONV, 0) > 0 or any(
        n.fmls_rc for n in verdict.graph.nodes if n.node_type == STATE
    )


def test_pulling_table_of_the_chain_leaves_its_existentials_out():
    kb = parse_kb(chain_kb_text(5))
    engine = TableauEngine(kb)
    assert pulling_roles(kb, engine.idx) == {Role("r", True), Role("s", True)}
    assert engine._pulling is None  # built at the first state, not before
    engine.run()
    assert engine._pulling == {Role("r", True), Role("s", True)}
    assert engine.stats()["rule_applications"].get(R_CONV, 0) == 0


# -- the finite closure ------------------------------------------------------

def test_every_node_stays_within_the_closure(decided):
    """The finiteness the complexity bound rests on: every formula a node
    holds, demands or disallows is in `closure`, the universe the labels
    draw from."""
    for text, kb, verdict in decided:
        universe = closure(kb, kb_index(kb))
        members = kb.store.members
        for node in verdict.graph.nodes:
            held = node.label.union(members(node.rformulas), members(node.dformulas), node.fmls_rc)
            assert held <= universe, (text, node.id)


def test_reduced_sets_of_a_long_conjunction_stay_small():
    """A flat conjunction of 1,000 atoms folds into a 1,000-deep `and`,
    whose nodes reduce 1, 2, ..., 999 conjunctions: kept as uid bits, the
    reduced sets take less than a quarter of the memory of the labels."""
    kb, verdict = run(flat_and(1000))
    nodes = verdict.graph.nodes
    assert verdict.sat and len(nodes) == 1000
    assert max(len(kb.store.members(n.rformulas)) for n in nodes) == 999
    reduced = sum(sys.getsizeof(n.rformulas) for n in nodes)
    labels = sum(sys.getsizeof(n.label) for n in nodes)
    assert reduced < labels / 4, (reduced, labels)


# -- rule choice -------------------------------------------------------------

def _ex1_nodes():
    kb, verdict = run(EX1_TEXT)
    by_label = {}
    for node in verdict.graph.nodes:
        by_label.setdefault(label_texts(node), node)
    return kb, verdict, by_label


PHI = "(or (not F) (and I (all P F)))"
TRACE_LABELS = {
    1: frozenset({"a:F", "L(a,b)", f"a:{PHI}", f"b:{PHI}", "b:(some L (not I))"}),
    5: frozenset(
        {"a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:I", "a:(all P F)", "a:(all L F)"}
    ),
    6: frozenset(
        {
            "a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:I",
            "a:(all P F)", "a:(all L F)", "b:F", "b:(all P F)",
        }
    ),
    11: frozenset(
        {
            "a:F", "L(a,b)", "b:(some L (not I))", "a:I", "a:(all P F)",
            "a:(all L F)", "b:F", "b:(all P F)", "b:(all L F)", "b:I",
        }
    ),
    12: frozenset({"(not I)", "F", "(all P F)", PHI}),
}


def test_subrole_narrowing_fires_before_role_propagation():
    # At the node that has a:(all P F) but not yet a:(all L F), the
    # narrowing rule is chosen even though L(a,b) could already fire.
    _, _, by_label = _ex1_nodes()
    pre = frozenset(
        {"a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:I", "a:(all P F)"}
    )
    assert by_label[pre].rule == "hier'"


def test_role_propagation_fires_once_narrowing_done():
    _, _, by_label = _ex1_nodes()
    assert by_label[TRACE_LABELS[5]].rule == "univ'"


def test_saturated_label_has_no_rule():
    kb = parse_kb(EX2_TEXT)
    engine = TableauEngine(kb)
    store = kb.store
    not_a = store.negate(store.atom("A"))
    label = frozenset(
        {
            store.atom("A"),
            store.univ(Role("s"), not_a),
            store.univ(Role("r"), not_a),
            store.univ(Role("r", True), not_a),
        }
    )
    v = engine.graph.new_succ(None, NONSTATE, None, label, 0, 0)
    assert engine.applicable_rule(v) is None


def test_form_state_requires_an_existential():
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    v = engine.graph.new_succ(
        None, NONSTATE, None, frozenset({store.atom("A")}), 0, 0
    )
    assert engine.applicable_rule(v) is None
    w = engine.graph.new_succ(
        None, NONSTATE, None,
        frozenset({store.exist(Role("r"), store.atom("A"))}), 0, 0,
    )
    rule = engine.applicable_rule(w)
    assert rule is not None and rule.tag == "form-state"


# -- application effects ------------------------------------------------------

def _reference_rule(engine, v):
    """The rule scan as a walk of the sorted label once per rule kind,
    with a static rule's successor labels and rformulas built from its
    principal: and/or consume it and add its concept's parts, lifted left
    then right; hier and univ' keep it and add what they derive. A tag is
    primed when its principal is an assertion. The rformulas are read as
    a formula set and given back as uid bits, as the engine keeps them."""
    node = engine.graph.nodes[v]
    prime = lambda f: "'" if f.kind == INST else ""  # noqa: E731
    view = [(f, f.body) for f in ordered(node.label)]
    if node.node_type == STATE:
        ex = tuple(f for f, c in view if c is not None and c.kind == SOME)
        return RuleInstance(engine_module.R_EXISTS + prime(ex[0]), principals=ex) if ex else None
    store = engine.store
    label, rf = node.label, frozenset(store.members(node.rformulas))
    af = label | rf

    def decompose(tag, f):
        c = f.body
        parts = [store.inst(f.ind, x) if f.kind == INST else x for x in (c.left, c.right)]
        rest = label - {f}
        labels = (rest | set(parts),) if c.kind == AND else tuple(rest | {x} for x in parts)
        return RuleInstance(tag, labels=labels, rformulas=uid_bits(rf | {f}))

    for f, c in view:
        if c is not None and c.kind == AND and f not in rf:
            return decompose(engine_module.R_AND + prime(f), f)
    for f, c in view:
        if c is None or c.kind != ALL:
            continue
        for r in engine.idx.subroles_of(c.role):
            added = engine._lift(f, store.univ(r, c.child))
            if added not in af:
                return RuleInstance(engine_module.R_HIER + prime(f), labels=(label | {added},), rformulas=uid_bits(rf))

    def concepts(ind):  # an individual's assertions in the whole label, as concepts
        return {g.concept for g in label if g.kind == INST and g.ind == ind}

    for f, c in view:
        if c is not None:
            continue
        added = (
            transfer_concepts_to(engine.idx, store, concepts(f.a), f.role, f.b)
            | transfer_concepts_to(engine.idx, store, concepts(f.b), f.role.inverse, f.a)
        ) - af
        if added:
            return RuleInstance(engine_module.R_UNIV_A, labels=(label | added,), rformulas=uid_bits(rf))
    for f, c in view:
        if c is not None and c.kind == OR and f not in rf:
            return decompose(engine_module.R_OR + prime(f), f)
    if any(c is not None and c.kind == SOME for _, c in view):
        return RuleInstance(engine_module.R_FORM)
    return None


_RULE_KB = "sub r s\ntrans s\nsub t s-\nrel r a b\ninst a A\ninst b B\n"
_RULE_ROLES = [Role(n, inv) for n in "rst" for inv in (False, True)]
_CONCEPTS = st.recursive(
    st.sampled_from(["A", "B", "C", "-A", "-B", "top", "bot"]),
    lambda inner: st.tuples(st.sampled_from(["and", "or"]), inner, inner)
    | st.tuples(st.sampled_from(["all", "some"]), st.integers(0, 5), inner),
    max_leaves=4,
)
_SIMPLE_MEMBERS = _CONCEPTS | st.tuples(st.just("all"), st.integers(0, 5), _CONCEPTS)
_COMPLEX_MEMBERS = st.tuples(st.just("inst"), st.sampled_from("ab"), _SIMPLE_MEMBERS) | st.tuples(
    st.just("rel"), st.integers(0, 5), st.sampled_from("ab"), st.sampled_from("ab")
)
_SOMETIMES = st.integers(0, 3).map(lambda k: k == 0)


def _build(store, recipe):
    if isinstance(recipe, str):
        if recipe in ("top", "bot"):
            return getattr(store, recipe)
        if recipe.startswith("-"):
            return store.negate(store.atom(recipe[1:]))
        return store.atom(recipe)
    op = recipe[0]
    if op == "inst":
        return store.inst(recipe[1], _build(store, recipe[2]))
    if op == "rel":
        return store.rel(_RULE_ROLES[recipe[1]], recipe[2], recipe[3])
    if op in ("and", "or"):
        make = store.conj if op == "and" else store.disj
        return make(_build(store, recipe[1]), _build(store, recipe[2]))
    make = store.univ if op == "all" else store.exist
    return make(_RULE_ROLES[recipe[1]], _build(store, recipe[2]))


@st.composite
def _rule_cases(draw):
    complex_label = draw(st.booleans())
    members = _COMPLEX_MEMBERS if complex_label else _SIMPLE_MEMBERS
    label = draw(st.lists(st.tuples(members, _SOMETIMES), min_size=1, max_size=8))
    extra = draw(st.lists(members, max_size=3))  # rformulas outside the label
    state = draw(_SOMETIMES)
    return complex_label, label, extra, state


def _rule_text(rule, store):
    if rule is None:
        return None
    principals = tuple(map(formula_text, rule.principals))
    rformulas = _texts(store.members(rule.rformulas))
    return (rule.tag, principals, tuple(map(_texts, rule.labels)), rule.rformulas, rformulas)


@settings(deadline=None, max_examples=300)
@given(_rule_cases())
def test_applicable_rule_matches_the_label_scan(case):
    complex_label, label, extra, state = case
    runs = []
    for select in (TableauEngine.applicable_rule, _reference_rule):
        kb = parse_kb(_RULE_KB)
        engine = TableauEngine(kb)
        members = [(_build(kb.store, m), in_rf) for m, in_rf in label]
        rfmls = {f for f, in_rf in members if in_rf} | {_build(kb.store, m) for m in extra}
        v = engine.graph.new_succ(
            None, STATE if state else NONSTATE, None,
            frozenset(f for f, _ in members), uid_bits(rfmls), 0,
        )
        rule = select(engine, v)
        assert select is _reference_rule or select(engine, v) == rule  # a memo hit agrees
        runs.append((_rule_text(rule, kb.store), interned_texts(kb.store)))
    assert runs[0] == runs[1]


def test_nodes_of_one_content_take_one_step(decided):
    """What the step memo rests on, read off the finished graph: two nodes
    of one run with equal (node type, label, rformulas), each
    stepped once (expanded once, or found saturated), carry the same rule
    tag and successor contents, whatever their dformulas. A converse
    re-expansion adds what a state demanded, so it is left out."""
    repeats = 0
    for text, _, verdict in decided:
        nodes = verdict.graph.nodes
        steps: dict = {}
        for node in nodes:
            if node.rule != R_CONV and (node.rule is not None or node.status == SAT):
                step = (node.rule, frozenset((nodes[w].label, nodes[w].rformulas) for w in node.succs))
                key = (node.node_type, node.label, node.rformulas)
                first = steps.setdefault(key, step)
                assert first == step, (text, node)
                repeats += first is not step
    assert repeats > 1000


def test_a_nodes_rule_records_its_expansions(decided):
    """A node's `rule` is its whole record of expansions: the trace holds
    `(rule is not None) + (rule == converse)` rule events for it, and a
    converse node's first is form-state's."""
    repairs = 0
    for text, _, verdict in decided:
        events = rule_events(verdict.engine.trace)
        for node in verdict.graph.nodes:
            tags = events.get(node.id, [])
            assert len(tags) == (node.rule is not None) + (node.rule == R_CONV), (text, node.id, tags)
            if node.rule == R_CONV:
                assert tags[0] == engine_module.R_FORM, (text, node.id, tags)
                repairs += 1
    assert repairs > 100


def test_a_label_fixes_the_node_form(decided):
    """What keying nodes and steps on content alone rests on: every label
    holds assertions only (a complex node) or concepts only (a simple
    one), and a static or transitional rule's tag is primed exactly when
    the label it expanded holds assertions."""
    tagged = Counter()
    for text, _, verdict in decided:
        for node in verdict.graph.nodes:
            asserted = {f.kind in (INST, REL) for f in node.label}
            assert len(asserted) <= 1, (text, node)
            if node.rule not in (None, engine_module.R_FORM, R_CONV):
                primed = node.rule.endswith("'")
                assert primed == (True in asserted), (text, node)
                tagged[primed] += 1
    assert tagged[True] > 1000 and tagged[False] > 1000


def test_a_clash_test_builds_no_split():
    """The clash test sorts a label it reads whole by itself: testing a
    root's label, clash-free or not, leaves the split memo empty, and the
    split made afterwards has the five parts the rule scan reads."""
    for text, clashes in ((EX1_TEXT, False), ("inst a F\ninst a (not F)\n", True)):
        kb = parse_kb(text)
        engine = TableauEngine(kb)
        label = frozenset(kb.abox) | {kb.store.inst(a, c) for a in kb.individuals for c in kb.tbox}
        assert engine._clashes(label) is clashes
        assert engine._split == {}
        assert len(engine._kinds(label)) == 5


def test_run_drops_its_per_run_memos():
    for text in (EX2_TEXT, chain_kb_text(3)):
        engine = decide_sat(parse_kb(text)).engine
        assert engine.stats()["rule_applications"]  # the run stepped, so the memos were filled
        for memo in (engine._split, engine._clash, engine._steps):
            assert memo == {}


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_rule_applications_are_the_rules_apply_rule_received(monkeypatch, strategy):
    """`stats` reads the rule counts off the nodes: each records the last
    rule applied to it, and a converse node was form-state's first. Every
    rule instance `apply_rule` receives is counted against them."""
    received = Counter()
    original = TableauEngine.apply_rule

    def counted(self, rule, v):
        received[rule.tag] += 1
        original(self, rule, v)

    monkeypatch.setattr(TableauEngine, "apply_rule", counted)
    texts = differential_suite(500, 20240817)[:100] + [chain_kb_text(d) for d in range(1, 21)]
    repairs = 0
    for text in texts + [EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT]:
        received.clear()
        assert decide_sat(parse_kb(text), strategy=strategy).stats["rule_applications"] == received, text
        repairs += received[R_CONV]
    assert repairs > 0


def _spy(monkeypatch, name, log):
    """Log the last positional argument of each call the engine makes to
    its module-level `name`, a builtin such as `sorted` included."""
    real = getattr(engine_module, name, None) or getattr(builtins, name)

    def spy(*args, **kwargs):
        log.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, name, spy, raising=False)


def test_the_split_sorts_each_label_at_most_once(monkeypatch):
    """`split_label` sorts a label at most once per run, and only when no
    parent's split is at hand: the root's and a state's successors'
    labels, and a label made from a successor before the successor's own
    scan. Every other split is derived. The clash test sorts a label whole
    only against the empty label, so only a fresh label, or one made from
    a fresh label before that label's own test."""
    split_sorts: list = []
    clash_sorts: list = []
    _spy(monkeypatch, "ordered", split_sorts)
    _spy(monkeypatch, "sorted", clash_sorts)
    for text in (EX1_TEXT, EX2_TEXT, chain_kb_text(4)):
        split_sorts.clear()
        clash_sorts.clear()
        g = decide_sat(parse_kb(text)).graph
        fresh = {g.nodes[g.root].label} | {g.nodes[w].label for n in g.nodes if n.node_type == STATE for w in n.succs}
        made_from_fresh = {n.label for n in g.nodes if n.preds and g.nodes[n.preds[0]].label in fresh}
        assert split_sorts and len(split_sorts) == len(set(split_sorts)), text
        assert set(split_sorts) <= fresh | made_from_fresh, text
        assert len(split_sorts) < len({n.label for n in g.nodes}), text
        labels = {id(n.label): n.label for n in g.nodes}  # a delta sort reads a collection made for it
        whole = {labels[id(x)] for x in clash_sorts if id(x) in labels}
        assert whole and whole <= fresh | made_from_fresh, text


def test_a_deep_nest_tests_each_label_by_its_delta_and_splits_only_the_root(monkeypatch):
    """Along a 200-deep conjunction nest each label is its parent's minus
    one conjunction plus its two parts. The clash test builds the
    complements of those two only, where a walk of every label makes
    depth * (depth + 1) / 2 calls, and no label but the root's is split
    fresh: every other split is derived from its parent's."""
    depth = 200
    complemented: list = []
    sorted_labels: list = []
    _spy(monkeypatch, "complement", complemented)
    _spy(monkeypatch, "ordered", sorted_labels)
    verdict = decide_sat(parse_kb(and_nest(depth)))
    g = verdict.graph
    assert verdict.sat and verdict.stats["nodes"] == depth
    assert len(complemented) < 2 * depth
    assert sorted_labels == [g.nodes[g.root].label]


@st.composite
def _delta_cases(draw):
    """A pool of formulas, the pool indices of a clash-free parent label, a
    member to drop (an index past the parent drops none) and 1-3 members
    to add: a pool formula, the complement of a parent member, bottom, or
    a formula built after the parent's clash test. Pool formulas and
    complements are drawn most often: a child that adds the complement of
    an early parent member and a pool formula after it is the case where
    the delta test must stop before the full walk would."""
    members = _COMPLEX_MEMBERS if draw(st.booleans()) else _SIMPLE_MEMBERS
    pool = draw(st.lists(members, min_size=2, max_size=10))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
    parent = _clash_free(pool, picks)
    drop = draw(st.integers(0, len(parent)))
    adds = []
    for kind in draw(st.lists(st.sampled_from(("neg", "pool", "neg", "pool", "bot", "new")), min_size=1, max_size=3)):
        if kind == "pool":
            adds.append((kind, draw(st.sampled_from([i for i in range(len(pool)) if i not in parent] or [0]))))
        elif kind == "neg" and parent:
            adds.append((kind, draw(st.integers(0, len(parent) - 1))))
        elif kind != "neg":
            adds.append((kind, draw(members) if kind == "new" else None))
    return pool, parent, drop, adds


def _full_walk(store, label) -> bool:
    """The reference clash test: every member of `label` in uid order,
    up to the first that is bottom or has its complement in `label`."""
    for f in ordered(label):
        c = f.body
        if c is not None and (c.kind == BOT or (f.neg or complement(store, f)) in label):
            return True
    return False


def _clash_free(pool, picks) -> list:
    """`picks` without each index whose pool formula would make a clash
    with those kept before it, decided on a throwaway store."""
    store = FormulaStore()
    formulas = [_build(store, recipe) for recipe in pool]
    keep: list = []
    for i in picks:
        if not _full_walk(store, frozenset(formulas[j] for j in keep + [i])):
            keep.append(i)
    return keep


def _delta_setup(case):
    """A fresh store holding the pool, the parent label after its full
    clash test, and the child label. Equal cases give equal stores."""
    pool, picks, drop, adds = case
    store = FormulaStore()
    formulas = [_build(store, recipe) for recipe in pool]
    parent = [formulas[i] for i in picks]
    assert not _full_walk(store, frozenset(parent))
    child = set(parent[:drop] + parent[drop + 1 :])
    for kind, arg in adds:
        if kind == "pool":
            child.add(formulas[arg])
        elif kind == "neg" and parent[arg].kind != REL:
            child.add(store.negate(parent[arg]))  # built by the clash test: interns nothing
        elif kind == "bot":
            child.add(store.bot)
        elif kind == "new":
            child.add(_build(store, arg))
    return store, frozenset(parent), frozenset(child)


@settings(deadline=None, max_examples=400)
@given(_delta_cases())
@example((["A", "C"], [0], 1, [("neg", 0), ("pool", 1)]))  # the full walk stops at A, before C
def test_delta_clash_test_is_the_full_walk(case):
    """The clash test against the clash-free parent, against the empty
    label, and the reference walk: same verdict, and the same formulas
    interned in the same order."""
    runs = []
    for clashes in (t_unsat, lambda s, c, p: t_unsat(s, c), lambda s, c, p: _full_walk(s, c)):
        store, parent, child = _delta_setup(case)
        runs.append((clashes(store, child, parent), interned_texts(store)))
    assert runs[0] == runs[1] == runs[2]


@settings(deadline=None, max_examples=200)
@given(_delta_cases())
def test_derived_split_is_the_fresh_split(case):
    _, parent, child = _delta_setup(case)
    assert derive_split(split_label(parent), parent, child) == split_label(child)


def test_disjunction_split_at_root():
    kb, verdict, by_label = _ex1_nodes()
    graph = verdict.graph
    root = graph.nodes[graph.root]
    assert root.rule == "or'"
    kids = [graph.nodes[w] for w in graph.nodes[graph.root].succs]
    assert len(kids) == 2
    principal = kb.store.inst("a", kb.tbox[0])
    for kid in kids:
        assert principal in kb.store.members(kid.rformulas)
        assert principal not in kid.label
    labels = {label_texts(k) for k in kids}
    assert frozenset({"a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:(not F)"}) in labels


def test_role_propagation_adds_both_directions_at_once():
    _, _, by_label = _ex1_nodes()
    before = TRACE_LABELS[5]
    after = TRACE_LABELS[6]
    assert after == before | {"b:F", "b:(all P F)"}
    assert by_label[after] is not None


def test_transitional_expansion_of_the_state():
    kb, verdict, _ = _ex1_nodes()
    graph = verdict.graph
    state = next(
        n for n in graph.nodes
        if n.node_type == STATE and label_texts(n) == TRACE_LABELS[11]
    )
    succs = [graph.nodes[w] for w in graph.nodes[state.id].succs]
    assert len(succs) == 1
    child = succs[0]
    assert label_texts(child) == TRACE_LABELS[12]
    assert all(f.kind != INST for f in child.label)
    assert child.ce_label is kb.store.inst(
        "b", parse_concept_text("(some L (not I))", kb.store)
    )
    assert child.rformulas == 0 and child.dformulas == 0


def test_example_two_state_goes_incomplete_with_required_formulas():
    kb, verdict = run(EX2_TEXT)
    graph = verdict.graph
    store = kb.store
    target = frozenset({"a:top", "a:(some r (and A (all s (not A))))"})
    state = next(
        n for n in graph.nodes if n.node_type == STATE and label_texts(n) == target
    )
    assert state.status == INCOMPLETE
    assert state.conv_method == 0
    not_a = store.negate(store.atom("A"))
    required = {
        store.inst("a", not_a),
        store.inst("a", store.univ(Role("s"), not_a)),
    }
    assert required <= state.fmls_rc
    # the repair happened after the state reported incomplete
    trace = verdict.engine.trace
    inc_at = next(
        i for i, ev in enumerate(trace)
        if ev[0] == "status" and ev[1] == state.id and ev[2] == INCOMPLETE
    )
    conv_at = next(
        i for i, ev in enumerate(trace) if ev[0] == "rule" and ev[1] == R_CONV
    )
    assert inc_at < conv_at
    # mode-0 repair: the re-expanded root gains exactly the required set
    root = graph.nodes[graph.root]
    repaired = [graph.nodes[w] for w in graph.nodes[graph.root].succs]
    assert len(repaired) == 1
    assert repaired[0].label == root.label | required


def test_incomplete_event_holds_the_state_repair_record():
    # fmls_rc is a frozen value that is rebound, never mutated, so the
    # trace records the state's own object rather than a copy of it
    kb, verdict = run(EX2_TEXT)
    events = [ev for ev in verdict.engine.trace if ev[0] == "status" and ev[2] == INCOMPLETE]
    assert len(events) == 1 and len(events[0]) == 5
    assert events[0][4] is verdict.graph.nodes[events[0][1]].fmls_rc


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the mode-0 union rebinds fmls_rc after the state is INCOMPLETE")
def test_incomplete_events_hold_the_final_repair_record(decided):
    for text, _, verdict in decided:
        nodes = verdict.graph.nodes
        events = [ev for ev in verdict.engine.trace if ev[0] == "status" and ev[2] == INCOMPLETE]
        assert all(ev[4] is nodes[ev[1]].fmls_rc for ev in events if nodes[ev[1]].node_type == STATE), text


def test_a_state_gains_demands_only_before_it_is_expanded(decided):
    # What lets the repair mode be read from a state's status and fmls_rc:
    # a state that a clean pass made EXPANDED never gains demands, and one
    # that holds demands takes no status but INCOMPLETE or UNSAT. Read from
    # the trace and fmls_rc alone, never from the mode.
    with_demands = 0
    for text, _, verdict in decided:
        nodes = verdict.graph.nodes
        statuses = {}
        for ev in verdict.engine.trace:
            if ev[0] == "status" and nodes[ev[1]].node_type == STATE:
                statuses.setdefault(ev[1], []).append(ev[2])
        for v, seen in statuses.items():
            if EXPANDED in seen:
                assert not nodes[v].fmls_rc, (text, v, seen)
            if nodes[v].fmls_rc:
                assert set(seen) <= {INCOMPLETE, UNSAT}, (text, v, seen)
                with_demands += 1
    assert with_demands > 100


def test_converse_repair_with_alternative_sets():
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    base = store.atom("L0")
    v = g.new_succ(None, NONSTATE, None, frozenset({base}), 0, 0)
    w = g.new_succ(v, STATE, None, frozenset({base}), 0, 0)
    phi1, phi2 = store.atom("F1"), store.atom("F2")
    psi1, psi2 = store.atom("G1"), store.atom("G2")
    vn, wn = g.nodes[v], g.nodes[w]
    vn.status = EXPANDED
    wn.status = INCOMPLETE  # with alternative sets and no demands: mode 1
    wn.alt_fml_sets = frozenset({frozenset({phi1}), frozenset({phi2}), frozenset({psi1, psi2})})
    engine.apply_conv_rule(v)
    kids = [g.nodes[x] for x in g.nodes[v].succs]
    assert [k.label for k in kids] == [
        frozenset({base, phi1}),
        frozenset({base, phi2}),
        frozenset({base, psi1, psi2}),
    ]
    assert [store.members(k.dformulas) for k in kids] == [
        [],
        [phi1],
        [phi1, phi2],
    ]


def _reference_conv_successors(engine, v) -> None:
    """The converse rule in two branches, one for mode 0's `fmls_rc` and
    one for mode 1's alternative sets: the reference `apply_conv_rule`'s
    single loop is compared with."""
    g = engine.graph
    node = g.nodes[v]
    w = node.succs[0]
    wn = g.nodes[w]
    g.remove_edge(v, w)
    if wn.conv_method == 0:
        g.con_to_succ(v, NONSTATE, node.label | wn.fmls_rc, node.rformulas, node.dformulas)
        return
    sets = list(wn.alt_fml_sets)
    singles = sorted((s for s in sets if len(s) == 1), key=lambda s: next(iter(s)).uid)
    rest = sorted((s for s in sets if len(s) > 1), key=lambda s: tuple(sorted(f.uid for f in s)))
    chosen = [next(iter(s)) for s in singles]
    for i, phi in enumerate(chosen):
        new_dfmls = node.dformulas | uid_bits(chosen[:i])
        g.con_to_succ(v, NONSTATE, node.label | {phi}, node.rformulas, new_dfmls)
    blocked = uid_bits(chosen)
    for x in rest:
        g.con_to_succ(v, NONSTATE, node.label | x, node.rformulas, node.dformulas | blocked)


def _conv_setup(fmls_rc, sets, rfmls, dfmls):
    """A fresh engine with an or-node over an incomplete state whose repair
    record is given by atom names, as the engine leaves one: demands
    `fmls_rc` (mode 0), or none and the alternative `sets` (mode 1)."""
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    for i in range(6):  # intern the atoms in one order, whatever is drawn
        store.atom(f"F{i}")

    def atoms(names):
        return frozenset(store.atom(n) for n in names)

    v = g.new_succ(None, NONSTATE, None, atoms({"L0"}), uid_bits(atoms(rfmls)), uid_bits(atoms(dfmls)))
    w = g.new_succ(v, STATE, None, atoms({"L0"}), 0, 0)
    g.nodes[v].status = EXPANDED
    wn = g.nodes[w]
    wn.status = INCOMPLETE
    wn.fmls_rc = atoms(fmls_rc)
    wn.alt_fml_sets = frozenset(atoms(x) for x in sets)
    return engine, v


def _texts(fmls) -> frozenset:
    return frozenset(formula_text(f) for f in fmls)


_ATOM_NAMES = st.sampled_from([f"F{i}" for i in range(6)])


@given(
    st.one_of(
        st.tuples(st.frozensets(_ATOM_NAMES, min_size=1), st.just(())),
        st.tuples(st.just(()), st.lists(st.frozensets(_ATOM_NAMES, min_size=1, max_size=3), max_size=5)),
    ),
    st.frozensets(st.sampled_from(["R0", "R1"])),
    st.frozensets(st.sampled_from(["D0", "D1"])),
)
def test_converse_successors_match_the_two_branch_rule(repair, rfmls, dfmls):
    fmls_rc, sets = repair
    engine, v = _conv_setup(fmls_rc, sets, rfmls, dfmls)
    reference, v_ref = _conv_setup(fmls_rc, sets, rfmls, dfmls)
    engine.apply_conv_rule(v)
    _reference_conv_successors(reference, v_ref)

    def successors(e, x):
        kids = [e.graph.nodes[w] for w in e.graph.nodes[x].succs]
        members = e.store.members
        return [(_texts(k.label), _texts(members(k.rformulas)), _texts(members(k.dformulas))) for k in kids]

    assert successors(engine, v) == successors(reference, v_ref)


def test_converse_repair_with_no_alternatives_refutes():
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    base = store.atom("L0")
    v = g.new_succ(None, NONSTATE, None, frozenset({base}), 0, 0)
    w = g.new_succ(v, STATE, None, frozenset({base}), 0, 0)
    g.nodes[v].status = EXPANDED
    g.nodes[w].status = INCOMPLETE  # no demands and no alternative sets: mode 1
    engine.apply_rule(RuleInstance(R_CONV), v)
    assert g.nodes[v].succs == []
    assert g.nodes[v].status == UNSAT


def test_local_pass_saturates_the_nodes_it_creates():
    # the successor of the state needs and, and, then hier (r <= s narrows
    # (all s D) to (all r D)); the pass must reach the nodes those steps add
    kb = parse_kb("sub r s\ninst a A\n")
    engine = TableauEngine(kb)
    g = engine.graph
    ex = parse_concept_text("(some r (and B (and C (all s D))))", kb.store)
    u = g.new_succ(None, STATE, None, frozenset({ex}), 0, 0)
    first = len(g.nodes)
    engine.apply_rule(engine.applicable_rule(u), u)
    rules = engine.stats()["rule_applications"]
    assert rules["and"] == 2 and rules["hier"] == 1
    created = g.nodes[first:]
    assert len(created) == 4
    assert "(all r D)" in label_texts(created[-1])
    for node in created:
        assert state_of(g.nodes, node) == u
        if node.status == UNEXPANDED:
            inst = engine.applicable_rule(node.id)
            assert inst is None or PRIORITY[inst.tag] < 5


# -- status flow ---------------------------------------------------------------

def _two_children(statuses):
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    v = g.new_succ(None, NONSTATE, None, frozenset({store.atom("X0")}), 0, 0)
    g.nodes[v].status = EXPANDED
    for i, status in enumerate(statuses):
        w = g.new_succ(v, NONSTATE, None, frozenset({store.atom(f"X{i + 1}")}), 0, 0)
        g.nodes[w].status = status
    return engine, g, v


def test_update_status_or_node_undetermined():
    engine, g, v = _two_children([UNSAT, EXPANDED])
    engine.update_status(v)
    assert g.nodes[v].status == EXPANDED


def test_update_status_or_node_all_refuted():
    engine, g, v = _two_children([UNSAT, UNSAT])
    engine.update_status(v)
    assert g.nodes[v].status == UNSAT


def test_update_status_or_node_any_sat():
    engine, g, v = _two_children([UNSAT, SAT])
    engine.update_status(v)
    assert g.nodes[v].status == SAT


def test_update_status_state_copies_alternative_sets():
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    pre = g.new_succ(None, NONSTATE, None, frozenset({store.atom("Y0")}), 0, 0)
    u = g.new_succ(pre, STATE, None, frozenset({store.atom("Y0")}), 0, 0)
    ex = store.exist(Role("r"), store.atom("Y1"))  # a state's successor is the head of its existential
    w = g.new_succ(u, NONSTATE, ex, frozenset({store.atom("Y1")}), 0, 0)
    g.nodes[u].status = EXPANDED
    wn = g.nodes[w]
    engine._set_status(wn, INCOMPLETE)  # as the engine sets it, so the state's tally counts it
    wn.alt_fml_sets = frozenset({frozenset({store.atom("Y2")})})
    engine.update_status(u)
    un = g.nodes[u]
    assert un.status == INCOMPLETE
    assert un.alt_fml_sets is wn.alt_fml_sets


def _reference_update_status(engine, v):
    """Status update as it was before it became one pass: up to four
    scans of the successors."""
    g = engine.graph
    node = g.nodes[v]
    if node.status != EXPANDED:
        return
    succ_nodes = [g.nodes[w] for w in g.nodes[v].succs]
    if node.node_type == NONSTATE:
        if any(w.status == SAT for w in succ_nodes):
            engine._set_status(node, SAT)
        elif all(w.status == UNSAT for w in succ_nodes):
            engine._set_status(node, UNSAT)
        elif all(w.status in (INCOMPLETE, UNSAT) for w in succ_nodes):
            if any(w.node_type == STATE for w in succ_nodes):
                engine.apply_rule(RuleInstance(R_CONV), v)
            else:
                engine._set_status(node, INCOMPLETE)
    else:
        if all(w.status == SAT for w in succ_nodes):
            engine._set_status(node, SAT)
        elif any(w.status == UNSAT for w in succ_nodes):
            engine._set_status(node, UNSAT)
        else:
            w = next((w for w in succ_nodes if w.status == INCOMPLETE), None)
            if w is not None:
                node.alt_fml_sets = w.alt_fml_sets
                engine._set_status(node, INCOMPLETE)


_STATUSES = (UNEXPANDED, EXPANDED, INCOMPLETE, UNSAT, SAT)


def _status_outcome(update, node_type, succs):
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb, trace=True)
    store = engine.store
    g = engine.graph
    repairs = []
    engine.apply_rule = lambda rule, x: repairs.append((rule.tag, x))
    root = g.new_succ(None, NONSTATE, None, frozenset({store.atom("X0")}), 0, 0)
    v = root if node_type == NONSTATE else g.new_succ(root, STATE, None, frozenset({store.atom("X0")}), 0, 0)
    g.nodes[v].status = EXPANDED
    if any(succ_type == STATE for _, succ_type in succs):  # as the engine links an or-node to a state
        g.nodes[v].rule = engine_module.R_FORM
    for i, (status, succ_type) in enumerate(succs):
        # a state's successor is the head of its existential; an or-node's has none
        ex = store.exist(Role("r"), store.atom(f"X{i + 1}")) if node_type == STATE else None
        w = g.new_succ(v, succ_type, ex, frozenset({store.atom(f"X{i + 1}")}), 0, 0)
        engine._set_status(g.nodes[w], status)  # as the engine sets it, so a state's tally counts it
        g.nodes[w].alt_fml_sets = frozenset({frozenset({store.atom(f"Y{i + 1}")})})
    update(engine, v)
    node = g.nodes[v]
    return node.status, repairs, _texts(f for s in node.alt_fml_sets for f in s), engine.trace


def test_update_status_matches_the_scans_on_every_successor_list():
    cases = 0
    for node_type in (NONSTATE, STATE):
        # a state's successors are or-nodes; an or-node may also lead to a state
        succ_kinds = [(s, NONSTATE) for s in _STATUSES]
        if node_type == NONSTATE:
            succ_kinds += [(s, STATE) for s in _STATUSES]
        for n in range(4):
            for succs in itertools.product(succ_kinds, repeat=n):
                new = _status_outcome(TableauEngine.update_status, node_type, succs)
                old = _status_outcome(_reference_update_status, node_type, succs)
                assert new == old, (node_type, succs)
                cases += 1
    assert cases == (1 + 10 + 100 + 1000) + (1 + 5 + 25 + 125)


def test_propagate_skips_unexpanded_predecessors():
    engine, g, v = _two_children([SAT, SAT])
    # v's predecessor list is empty; add an unexpanded parent above it
    store = engine.store
    parent = g.new_succ(None, NONSTATE, None, frozenset({store.atom("Z9")}), 0, 0)
    g.add_edge(parent, v)
    engine.update_status(v)
    engine.propagate_status(v)
    assert g.nodes[parent].status == "unexpanded"


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_a_converse_repair_cascade_takes_no_python_stack(strategy):
    # 2,000 repairs, each made while the flow of the one below it runs: a
    # flow that recursed once per repair overflowed near 330.
    assert sys.getrecursionlimit() <= 1000
    kb = pullback_kb(2000)
    verdict = decide_sat(kb, strategy=strategy)
    assert verdict.sat
    witness = build_witness(verdict.graph, kb, verdict.engine.idx)
    assert len(witness.domain) == 2001 and check_model(witness, kb)


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_no_call_re_enters_the_status_flow(strategy, monkeypatch):
    # A converse repair leaves the walk on from the repaired node to the
    # caller of its status update, so the flow never runs inside itself.
    original = TableauEngine.propagate_status
    active = deepest = 0

    def counted(self, v):
        nonlocal active, deepest
        active += 1
        deepest = max(deepest, active)
        try:
            original(self, v)
        finally:
            active -= 1

    monkeypatch.setattr(TableauEngine, "propagate_status", counted)
    for kb in (pullback_kb(50), parse_kb(EX2_TEXT)):
        verdict = decide_sat(kb, strategy=strategy)
        assert verdict.stats["rule_applications"][R_CONV] > 0
    assert deepest == 1


def test_settling_reads_each_successor_a_bounded_number_of_times(monkeypatch):
    # ROADMAP item 20: the root state has one successor per individual, and
    # each settles on its own, so an update that scanned every successor
    # would read n² of them. Each node an update reads by id is counted.
    reads = open_updates = 0

    class Counted(list):
        def __getitem__(self, i):
            nonlocal reads
            reads += open_updates > 0
            return super().__getitem__(i)

    original_init, original_update = TableauEngine.__init__, TableauEngine.update_status

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.graph.nodes = Counted()

    def update(self, v):
        nonlocal open_updates
        open_updates += 1
        try:
            original_update(self, v)
        finally:
            open_updates -= 1

    monkeypatch.setattr(TableauEngine, "__init__", init)
    monkeypatch.setattr(TableauEngine, "update_status", update)
    n = 1000
    verdict = decide_sat(parse_kb(fan_text(n)))
    assert verdict.sat and verdict.stats["states"] == 1
    assert reads <= 10 * n, f"{reads / n:.1f}·n reads"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: an or-node rescans its successors each time one settles")
def test_an_or_node_settles_reading_each_successor_a_bounded_number_of_times(monkeypatch):
    # The converse rule repairs the root of alt_fan_text(k) into k successors,
    # and each is refuted on its own, so an update that scanned every
    # successor would read k² of them. Each read of a root successor that an
    # update of the root makes itself, not through a rule it applies, is counted.
    frames, reads = [], 0  # the open update_status (node id) and apply_rule (None) calls

    class Counted(list):
        def __getitem__(self, i):
            nonlocal reads
            reads += bool(frames) and frames[-1] == 0 and i in super().__getitem__(0).succs
            return super().__getitem__(i)

    def framed(method, frame):
        def call(self, *args):
            frames.append(frame(args))
            try:
                method(self, *args)
            finally:
                frames.pop()
        return call

    original_init = TableauEngine.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.graph.nodes = Counted()

    monkeypatch.setattr(TableauEngine, "__init__", init)
    monkeypatch.setattr(TableauEngine, "update_status", framed(TableauEngine.update_status, lambda args: args[0]))
    monkeypatch.setattr(TableauEngine, "apply_rule", framed(TableauEngine.apply_rule, lambda args: None))
    k = 100
    verdict = decide_sat(parse_kb(alt_fan_text(k)))
    assert not verdict.sat and verdict.stats["nodes"] == 4 * k + 1
    assert reads <= 4 * k, f"{reads} reads"


def test_value_restriction_reads_per_univ_step_are_linear(monkeypatch):
    # ROADMAP item 23: a scan that reads the label's whole value-restriction
    # part for each role assertion it passes makes a chain of n univ' steps
    # read Θ(n³) restrictions. Each read of the part is counted in full.
    original = TableauEngine._kinds
    reads = 0

    class Counted(tuple):
        def __iter__(self):
            nonlocal reads
            reads += len(self)
            return super().__iter__()

    def counted(self, label, parent=None):
        split = original(self, label, parent)
        return split[:1] + (Counted(split[1]),) + split[2:]

    monkeypatch.setattr(TableauEngine, "_kinds", counted)
    for n in (50, 100, 200):
        reads = 0
        verdict = decide_sat(parse_kb(abox_chain_text(n, False)))
        steps = verdict.stats["rule_applications"]["univ'"]
        assert verdict.sat and steps == n - 1
        assert reads <= 4 * n * steps, f"n = {n}: {reads / steps / n:.1f}·n reads per univ' step"


def _scanned_tally(nodes, state) -> dict:
    """`state`'s successors counted by settled status, by a scan."""
    tally = dict.fromkeys(DETERMINED, 0)
    for w in state.succs:
        status = nodes[w].status
        if status in tally:
            tally[status] += 1
    return tally


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_a_state_tally_is_the_scan_at_every_update(strategy, monkeypatch):
    # update_status reads a state's tally in place of its successors, so at
    # each of its calls for a state the tally must be what a scan counts.
    # The inputs make converse repairs in both modes and disallow formulas.
    original = TableauEngine.update_status
    checked = 0

    def update(self, v):
        nonlocal checked
        nodes = self.graph.nodes
        node = nodes[v]
        if node.node_type == STATE:
            assert node.tally == _scanned_tally(nodes, node), v
            checked += 1
        original(self, v)

    monkeypatch.setattr(TableauEngine, "update_status", update)
    texts = [EX1_TEXT, EX2_TEXT, DISALLOW_ABOX_TEXT, DISALLOW_TBOX_TEXT, *differential_suite(50)]
    repairs = disallowing = 0
    for kb in [pullback_kb(50), *map(parse_kb, texts)]:
        verdict = decide_sat(kb, strategy=strategy)
        repairs += verdict.stats["rule_applications"].get(R_CONV, 0)
        disallowing += any(node.dformulas for node in verdict.graph.nodes)
    assert checked and repairs and disallowing


def test_the_status_flow_reaches_its_fixpoint(decided):
    # No expanded node is left that an update would settle or repair: an
    # or-node has no SAT successor and not only UNSAT or INCOMPLETE ones, a
    # state no UNSAT or INCOMPLETE successor and not only SAT ones. Statuses
    # settle as a fixpoint, so the order of the upward walk does not matter.
    # Every state's tally is what a scan of its successors counts.
    for text, _, verdict in decided:
        nodes = verdict.graph.nodes
        for node in nodes:
            assert node.tally == (_scanned_tally(nodes, node) if node.node_type == STATE else None), (text, node.id)
            if node.status == EXPANDED:
                statuses = {nodes[w].status for w in node.succs}
                if node.node_type == NONSTATE:
                    assert SAT not in statuses and not statuses <= {UNSAT, INCOMPLETE}, (text, node.id)
                else:
                    assert not statuses & {UNSAT, INCOMPLETE} and not statuses <= {SAT}, (text, node.id)


def test_clashing_transitional_successor_refutes_the_state():
    kb, verdict = run("inst a (and A (some r (and B (not B))))\n")
    assert not verdict.sat
    graph = verdict.graph
    state = next(n for n in graph.nodes if n.node_type == STATE)
    assert state.status == UNSAT


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the local pass expands clashing state successors; "
                   "the mend moves node counts, so it waits for a benchmark change")
def test_no_clashing_state_successor_is_expanded(decided):
    for text, kb, verdict in decided:
        nodes = verdict.graph.nodes
        succs = [nodes[w] for v in nodes if v.node_type == STATE for w in v.succs]
        assert not [w.id for w in succs if w.rule is not None and t_unsat(kb.store, w.label)], text


# -- end to end -----------------------------------------------------------------

def test_example_one_unsatisfiable():
    _, verdict = run(EX1_TEXT)
    assert not verdict.sat


def test_example_two_unsatisfiable():
    _, verdict = run(EX2_TEXT)
    assert not verdict.sat


def test_atomic_assertion_satisfiable():
    _, verdict = run("inst a A\n")
    assert verdict.sat


def test_immediate_root_clash():
    _, verdict = run("inst a A\ninst a (not A)\n")
    assert not verdict.sat
    assert verdict.stats["rule_applications"] == {}


def test_converse_repair_reaches_satisfiable_verdict():
    # The state demands a:C back through the inverse edge; the repaired
    # branch closes cleanly, the abandoned state stays incomplete but
    # disconnected.
    kb, verdict = run("inst a (some r (all r- C))\n")
    assert verdict.sat
    graph = verdict.graph
    incomplete = [n for n in graph.nodes if n.status == INCOMPLETE]
    assert incomplete and all(n.node_type == STATE for n in incomplete)
    for n in incomplete:
        assert n.preds == []
    reachable = set()
    work = [graph.root]
    while work:
        x = work.pop()
        if x in reachable:
            continue
        reachable.add(x)
        work.extend(graph.nodes[x].succs)
    assert all(graph.nodes[x].status != INCOMPLETE for x in reachable)


def test_determinism_same_kb_object():
    kb = parse_kb(EX1_TEXT)
    first = decide_sat(kb)
    second = decide_sat(kb)
    assert first.sat == second.sat
    assert first.stats == second.stats


def test_determinism_reparsed_kb():
    first = decide_sat(parse_kb(EX2_TEXT))
    second = decide_sat(parse_kb(EX2_TEXT))
    assert first.stats == second.stats


def _graph_record(graph, store) -> list:
    """Every node's content, edges, status and repair record, formulas as text."""
    texts = lambda fs: frozenset(map(formula_text, fs))  # noqa: E731
    members = store.members
    return [
        (n.id, n.node_type, n.rule, n.status, tuple(n.succs), tuple(n.preds),
         texts(n.label), texts(members(n.rformulas)), texts(members(n.dformulas)), n.conv_method, texts(n.fmls_rc),
         frozenset(map(texts, n.alt_fml_sets)))
        for n in graph.nodes
    ]


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_the_trace_is_recorded_only_on_request(strategy):
    texts = differential_suite(500, 20240817)[:60] + [chain_kb_text(5), EX1_TEXT, EX2_TEXT]
    recorded = 0
    for text in texts:
        plain_kb, traced_kb = parse_kb(text), parse_kb(text)
        plain = decide_sat(plain_kb, strategy=strategy)
        traced = decide_sat(traced_kb, strategy=strategy, trace=True)
        assert plain.engine.trace == [], text
        assert traced.engine.trace, text
        assert plain.sat == traced.sat and plain.stats == traced.stats, text
        assert _graph_record(plain.graph, plain_kb.store) == _graph_record(traced.graph, traced_kb.store), text
        assert interned_texts(plain_kb.store) == interned_texts(traced_kb.store), text
        recorded += len(traced.engine.trace)
    assert recorded > len(texts)


def test_reparsed_runs_intern_in_one_order():
    # The clash test and the transfer to a named individual intern new
    # formulas; both go in uid order, so two runs of one text intern the
    # same formulas in the same order, whatever the address order of sets.
    texts = differential_suite(500, 20240817)[:100]
    texts += [chain_kb_text(d) for d in range(1, 11)] + [EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT]
    for text in texts:
        first, second = parse_kb(text), parse_kb(text)
        decide_sat(first)
        decide_sat(second)
        assert interned_texts(first.store) == interned_texts(second.store), text


@pytest.mark.parametrize("text", [EX1_TEXT, EX2_TEXT, "inst a A\n", "inst a (some r (all r- C))\n"])
def test_strategies_agree(text):
    dfs = decide_sat(parse_kb(text), strategy="dfs")
    fifo = decide_sat(parse_kb(text), strategy="fifo")
    assert dfs.sat == fifo.sat


def test_strategies_agree_on_random_corpus():
    rng = random.Random(31)
    for _ in range(60):
        text = random_kb_text(rng)
        assert run(text, "dfs")[1].sat == run(text, "fifo")[1].sat, text


def test_every_state_holds_an_existential(decided):
    # A state is formed only from an or-node holding an existential, so the
    # transitional rule applies to every state and none is saturated.
    for text, _, verdict in decided:
        for node in verdict.graph.nodes:
            if node.node_type == STATE:
                bodies = [f.concept if f.kind == INST else f for f in node.label]
                assert any(c.kind == SOME for c in bodies), (text, node)


def test_only_form_state_links_an_or_node_to_a_state(decided):
    # What the converse trigger and the demand check read off an or-node's
    # rule: an or-node has a state successor exactly when form-state
    # expanded it, and that state is then its only successor.
    formed = 0
    for text, _, verdict in decided:
        nodes = verdict.graph.nodes
        for node in nodes:
            if node.node_type == NONSTATE:
                states = [w for w in node.succs if nodes[w].node_type == STATE]
                if node.rule == engine_module.R_FORM:
                    assert len(node.succs) == 1 and states == node.succs, (text, node)
                    formed += 1
                else:
                    assert not states, (text, node)
    assert formed > 1000


def test_monotone_growth_along_static_edges():
    # Following any edge between or-nodes, reduced, available, and
    # disallowed formulas never shrink; the step grows reduced formulas
    # (decomposition) or available formulas (the other static rules).
    rng = random.Random(77)
    texts = [EX1_TEXT, EX2_TEXT] + [random_kb_text(rng) for _ in range(40)]
    for text in texts:
        kb = parse_kb(text)
        graph = decide_sat(kb).graph
        store = kb.store
        rformulas = lambda n: frozenset(store.members(n.rformulas))  # noqa: E731
        dformulas = lambda n: frozenset(store.members(n.dformulas))  # noqa: E731
        aformulas = lambda n: node_formulas(store, n)  # noqa: E731
        for v, node in enumerate(graph.nodes):
            if node.node_type == STATE:
                continue
            for w in node.succs:
                wn = graph.nodes[w]
                if wn.node_type == STATE:
                    assert wn.label == node.label
                    assert wn.rformulas == node.rformulas
                    assert wn.dformulas == node.dformulas
                    continue
                assert rformulas(node) <= rformulas(wn), text
                assert aformulas(node) <= aformulas(wn), text
                assert dformulas(node) <= dformulas(wn), text
                grew = (
                    rformulas(node) < rformulas(wn)
                    or aformulas(node) < aformulas(wn)
                    or dformulas(node) < dformulas(wn)
                )
                assert grew, text


def _refutations(trace) -> Counter:
    """Node id -> how many times the trace refutes that node."""
    return Counter(event[1] for event in trace if event[0] == "status" and event[2] == UNSAT)


def test_disallowed_formula_refutes_state_at_seeding():
    # Second repair alternative carries a:C2 in its disallowed set; the
    # direct existential demands a:C2 again as soon as that branch forms
    # its state, which is refuted without expanding further.
    kb, verdict = run("inst a (some s (or (all s- C2) (all s- (some r (all r- C2)))))\n")
    assert verdict.sat
    store = kb.store
    blocked = store.inst("a", store.atom("C2"))
    dead = [
        n for n in verdict.graph.nodes
        if n.node_type == STATE and blocked in store.members(n.dformulas)
    ]
    assert len(dead) == 1
    assert dead[0].status == UNSAT
    assert blocked in dead[0].fmls_rc
    refuted = _refutations(verdict.engine.trace)
    assert refuted[dead[0].id] == 1  # a refuted state takes no more demands


def test_disallowed_formula_refutes_or_branch():
    # Under the surviving repair branch (which disallows a:B), the
    # disjunct that would demand a:B back is refuted individually while
    # its sibling satisfies the state.
    kb, verdict = run("inst a (some r (or (all r- B) (all r- C)))\ninst a (not B)\n")
    assert verdict.sat
    store = kb.store
    blocked = store.inst("a", store.atom("B"))
    state = next(
        n for n in verdict.graph.nodes
        if n.node_type == STATE and blocked in store.members(n.dformulas)
    )
    assert state.status == SAT
    branches = [verdict.graph.nodes[w] for w in verdict.graph.nodes[state.id].succs]
    grandkids = [
        verdict.graph.nodes[w]
        for b in branches
        for w in verdict.graph.nodes[b.id].succs
    ]
    statuses = sorted(k.status for k in grandkids)
    assert statuses == [SAT, UNSAT]


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
@pytest.mark.parametrize("text", [DISALLOW_ABOX_TEXT, DISALLOW_TBOX_TEXT], ids=["abox", "tbox"])
def test_a_state_a_disallowed_demand_refutes_is_refuted_once(text, strategy):
    """A demand that meets a state's disallowed formulas refutes the state
    in mode 0, for good: the input stays SAT with a checked witness and a
    model the oracle finds, some state ends refuted holding a demand it
    disallows, and no node is refuted twice, since the refuted state takes
    no more demands and every expanded or-node is still settled."""
    kb, verdict = run(text, strategy)
    assert verdict.sat
    assert check_model(build_witness(verdict.graph, kb, kb_index(kb)), kb)
    assert bounded_model_search(parse_kb(text), 3) is not None
    assert any(n.status == UNSAT and uid_bits(n.fmls_rc) & n.dformulas for n in verdict.graph.nodes)
    refuted = _refutations(verdict.engine.trace)
    assert max(refuted.values()) == 1, [v for v, k in refuted.items() if k > 1]


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_a_demand_a_state_disallows_in_its_local_pass_refutes_it(strategy):
    """`apply_rule`'s mode-0 refutation, which no other test input reaches:
    the state of the repair branch that disallows a:X1 is refuted, before
    any other status, when a member of its local graph demands a:X1 back.
    Its claim has no small model, and the other branch gives a checked
    witness."""
    kb, verdict = run(DISALLOW_MODE0_TEXT, strategy)
    assert verdict.sat and verdict.stats["nodes"] == 16 and verdict.stats["states"] == 3
    assert check_model(build_witness(verdict.graph, kb, kb_index(kb)), kb)
    [state] = [n for n in verdict.graph.nodes if n.node_type == STATE and n.status == UNSAT]
    assert {formula_text(f) for f in kb.store.members(state.dformulas)} == {"a:X1"}
    statuses = [event[2] for event in verdict.engine.trace if event[0] == "status" and event[1] == state.id]
    assert statuses[0] == UNSAT
    assert bounded_model_search(parse_kb(state_claim(kb, state)), 2) is None


# Together these reach every status write of the engine (below).
STATUS_WRITE_TEXTS = [
    DISALLOW_MODE0_TEXT,
    DISALLOW_ABOX_TEXT,
    DISALLOW_TBOX_TEXT,
    EX1_TEXT,
    EX2_TEXT,
    EX1_BASE_TEXT,
    chain_kb_text(3),
    alt_fan_text(3),
    fan_text(3),
    "inst a A\ninst a (not A)\n",  # the root clashes
    "sub r r-\nequiv (all r- top) (and (all s C) (some r- B))\ninst a A\n",  # mode 1 refutes a successor
]


def test_every_status_write_is_reached(monkeypatch):
    """Each `self._set_status(` call in the engine's source sets a status in
    some run of `STATUS_WRITE_TEXTS`, under dfs or fifo. The engine has 15
    such calls: one added or taken away changes what this test covers, so
    it changes the count here too."""
    source = Path(engine_module.__file__).read_text().splitlines()
    sites = {i for i, line in enumerate(source, 1) if "self._set_status(" in line}
    assert len(sites) == 15
    reached = set()
    set_status = TableauEngine._set_status

    def recorded(self, node, status):
        reached.add(sys._getframe(1).f_lineno)
        set_status(self, node, status)

    monkeypatch.setattr(TableauEngine, "_set_status", recorded)
    for strategy in ("dfs", "fifo"):
        for text in STATUS_WRITE_TEXTS:
            decide_sat(parse_kb(text), strategy=strategy)
    assert not sites - reached, sorted(sites - reached)


# ROADMAP item 1: a mode-0 repair mixes the demands of exclusive branches,
# so the engine refutes these satisfiable inputs. The first is the third
# shrunk by delta debugging, and `tools/shrink.py unsound` shrinks the
# first to the second; fifo happens to get the third right, and dfs the
# second.
WRONG_UNSAT_SHRUNK = (
    "impl top (some s (all s- B))\n"
    "impl (some s- top) A\n"
    "impl (and C B) (all s- C)\n"
)
WRONG_UNSAT_TWO = "impl top (some s (all s- top))\nimpl (some s- top) A\n"
WRONG_UNSAT = (
    "impl (or (and B top) (all s D)) (some s (all s- B))\n"
    "impl (some s- (and C C)) (all s (all s D))\n"
    "impl (and C B) (all s- (and top C))\n"
    "inst a (some r (and C (and A C)))\n"
)
_WRONG = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: wrong UNSAT from a mixed mode-0 repair")


@pytest.mark.parametrize(
    "text, strategy",
    [
        pytest.param(WRONG_UNSAT_SHRUNK, "dfs", marks=_WRONG, id="shrunk-dfs"),
        pytest.param(WRONG_UNSAT_SHRUNK, "fifo", marks=_WRONG, id="shrunk-fifo"),
        pytest.param(WRONG_UNSAT_TWO, "dfs", id="two-dfs"),
        pytest.param(WRONG_UNSAT_TWO, "fifo", marks=_WRONG, id="two-fifo"),
        pytest.param(WRONG_UNSAT, "dfs", marks=_WRONG, id="unshrunk-dfs"),
        pytest.param(WRONG_UNSAT, "fifo", id="unshrunk-fifo"),
    ],
)
def test_satisfiable_under_exclusive_converse_demands(text, strategy):
    assert run(text, strategy)[1].sat


@pytest.mark.parametrize("text", [WRONG_UNSAT_SHRUNK, WRONG_UNSAT_TWO, WRONG_UNSAT], ids=["shrunk", "two", "unshrunk"])
def test_exclusive_converse_demands_have_a_one_element_model(text):
    kb = parse_kb(text)
    found = bounded_model_search(kb, 2)
    assert found is not None and len(found.domain) == 1
    assert check_model(found, kb)


def _refuted_claims_with_models(runs) -> list:
    """The distinct claims (`state_claim`) of the UNSAT states of `runs`,
    `(kb, verdict)` pairs, that have a model of at most 2 elements."""
    claims = {
        state_claim(kb, node)
        for kb, verdict in runs
        for node in verdict.graph.nodes
        if node.node_type == STATE and node.status == UNSAT
    }
    return [claim for claim in sorted(claims) if bounded_model_search(parse_kb(claim), 2) is not None]


def test_no_refuted_state_has_a_small_model(decided):
    """ROADMAP item 24, for UNSAT states: global caching reuses a state's
    status for every state of its content, so each UNSAT state claims on
    its own that its assertions, with its disallowed formulas negated, have
    no model. No claim of the corpus has a model of at most 2 elements.
    SAT states are left to item 2's exact procedure: the witness builder
    (`extract_model_graph`) starts only from the root's saturation path."""
    assert not _refuted_claims_with_models((kb, verdict) for _, kb, verdict in decided)


WRONG_UNSAT_FOUR = "impl top (some s top)\nimpl (some s- top) D\nimpl top (all s- top)\ninst a (some r C)\n"


@pytest.mark.parametrize("text", [WRONG_UNSAT_SHRUNK, WRONG_UNSAT_FOUR], ids=["shrunk", "four"])
@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a state refuted by a mixed mode-0 repair has a model")
def test_no_refuted_state_has_a_small_model_under_exclusive_converse_demands(text, strategy):
    # Under dfs the four-statement input's root is SAT, but one of its
    # UNSAT states has a model: the audit sees the bug where the verdict
    # does not.
    assert not _refuted_claims_with_models([run(text, strategy)])


def test_build_tableau_returns_finished_graph():
    graph = decide_sat(parse_kb("inst a A\n")).graph
    assert graph.nodes[graph.root].status == SAT
    assert graph.to_expand() is None
