"""Graph layer: node creation, attribute wiring, proxy caching."""
from __future__ import annotations

from shisat import decide_sat, parse_kb
from shisat.graph import (
    COMPLEX,
    EMPTY,
    NONSTATE,
    SIMPLE,
    STATE,
    UNEXPANDED,
    TableauGraph,
)
from shisat.syntax import FormulaStore, Role


def _store():
    store = FormulaStore()
    return store, store.atom("A"), store.atom("B")


def test_root_creation_attributes():
    store, a, b = _store()
    g = TableauGraph()
    label = frozenset({store.inst("a", a), store.rel(Role("r"), "a", "b")})
    root = g.new_succ(None, NONSTATE, COMPLEX, None, label, EMPTY, EMPTY)
    node = g.node(root)
    assert node.status == UNEXPANDED
    assert node.state_pred is None
    assert node.after_trans_pred == root
    assert node.ce_label is None
    assert g.successors(root) == [] and g.predecessors(root) == []


def test_state_successor_records_coming_edge_label():
    store, a, _ = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, COMPLEX, None, frozenset({store.inst("a", a)}), EMPTY, EMPTY)
    u = g.new_succ(root, STATE, COMPLEX, None, frozenset({store.inst("a", a)}), EMPTY, EMPTY)
    ce = store.inst("a", store.exist(Role("r"), a))
    w = g.new_succ(u, NONSTATE, SIMPLE, ce, frozenset({a}), EMPTY, EMPTY)
    node = g.node(w)
    assert node.ce_label is ce
    assert node.state_pred == u
    assert node.after_trans_pred == w
    assert node.alt_fml_sets_scp is EMPTY


def test_nonstate_child_inherits_scope():
    store, a, b = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({a}), EMPTY, EMPTY)
    child = g.new_succ(root, NONSTATE, SIMPLE, None, frozenset({a, b}), EMPTY, EMPTY)
    node = g.node(child)
    assert node.state_pred is None
    assert node.after_trans_pred == root


def test_state_fields_initialized():
    store, a, _ = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({a}), EMPTY, EMPTY)
    u = g.new_succ(root, STATE, SIMPLE, None, frozenset({a}), EMPTY, EMPTY)
    node = g.node(u)
    assert node.conv_method == 0
    assert node.fmls_rc is EMPTY
    assert node.alt_fml_sets_sc is EMPTY


def test_find_proxy_state_lookup():
    store, a, b = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({a}), EMPTY, EMPTY)
    u = g.new_succ(root, STATE, SIMPLE, None, frozenset({a}), frozenset({b}), EMPTY)
    assert g.find_proxy(STATE, SIMPLE, None, frozenset({a}), frozenset({b}), EMPTY) == u
    assert g.find_proxy(STATE, SIMPLE, None, frozenset({b}), frozenset({b}), EMPTY) is None
    assert g.find_proxy(STATE, SIMPLE, None, frozenset({a}), EMPTY, EMPTY) is None


def test_one_cache_keeps_scopes_apart():
    store, a, b = _store()
    g = TableauGraph()
    label = frozenset({a})
    root = g.new_succ(None, NONSTATE, SIMPLE, None, label, EMPTY, EMPTY)
    # forming a state copies the or-node's triple; both stay cached
    u = g.new_succ(root, STATE, SIMPLE, None, label, EMPTY, EMPTY)
    assert g.node(u).triple_key() == g.node(root).triple_key()
    assert g.find_proxy(STATE, SIMPLE, None, label, EMPTY, EMPTY) == u
    assert g.find_proxy(NONSTATE, SIMPLE, root, label, EMPTY, EMPTY) == root
    # one triple in two local scopes is two distinct nodes
    ce = store.exist(Role("r"), b)
    w1 = g.new_succ(u, NONSTATE, SIMPLE, ce, frozenset({b}), EMPTY, EMPTY)
    w2 = g.new_succ(u, NONSTATE, SIMPLE, ce, frozenset({a, b}), EMPTY, EMPTY)
    x1 = g.new_succ(w1, NONSTATE, SIMPLE, None, frozenset({a, b}), EMPTY, EMPTY)
    assert x1 != w2
    assert g.find_proxy(NONSTATE, SIMPLE, w1, frozenset({a, b}), EMPTY, EMPTY) == x1
    assert g.find_proxy(NONSTATE, SIMPLE, w2, frozenset({a, b}), EMPTY, EMPTY) == w2


def test_con_to_succ_reuses_and_deduplicates_edges():
    store, a, b = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({a}), EMPTY, EMPTY)
    first = g.con_to_succ(root, NONSTATE, frozenset({a, b}), EMPTY, EMPTY)
    second = g.con_to_succ(root, NONSTATE, frozenset({a, b}), EMPTY, EMPTY)
    assert first == second
    assert g.successors(root) == [first]
    assert len(g.nodes) == 2


def test_or_branches_with_equal_conclusions_merge():
    kb = parse_kb("inst a (or A A)\n")
    verdict = decide_sat(kb)
    root = verdict.graph.root
    assert verdict.sat
    assert len(verdict.graph.successors(root)) == 1


def test_states_shared_across_branches():
    # Both individuals produce the same simple obligation, so the inner
    # state is created once and reached twice through the cache.
    kb = parse_kb("inst a (some r (some s E))\ninst b (some r (some s E))\n")
    verdict = decide_sat(kb)
    states = [n for n in verdict.graph.nodes if n.node_type == STATE]
    assert verdict.sat
    assert len(states) == 2
    simple_state = next(n for n in states if n.stype == SIMPLE)
    assert len(verdict.graph.predecessors(simple_state.id)) == 2


def test_remove_edge_keeps_node():
    store, a, b = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({a}), EMPTY, EMPTY)
    child = g.new_succ(root, NONSTATE, SIMPLE, None, frozenset({a, b}), EMPTY, EMPTY)
    g.remove_edge(root, child)
    assert g.successors(root) == []
    assert g.node(child) is not None
    assert g.find_proxy(NONSTATE, SIMPLE, root, frozenset({a, b}), EMPTY, EMPTY) == child


def test_queue_strategies():
    store, a, b = _store()
    for strategy, expected in (("dfs", [2, 1]), ("fifo", [1, 2])):
        g = TableauGraph(strategy)
        root = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({a}), EMPTY, EMPTY)
        g.node(root).status = "expanded"
        one = g.new_succ(root, NONSTATE, SIMPLE, None, frozenset({a, b}), EMPTY, EMPTY)
        two = g.new_succ(root, NONSTATE, SIMPLE, None, frozenset({b}), EMPTY, EMPTY)
        order = [g.to_expand(), g.to_expand()]
        assert order == expected


def test_paths_from_state_funnel_through_scope_root():
    # Every path from a node's state-predecessor to the node passes
    # through its after-transition root.
    from helpers import EX1_TEXT, EX2_TEXT

    for text in (EX1_TEXT, EX2_TEXT, "inst a (some r (all r- C))\n"):
        graph = decide_sat(parse_kb(text)).graph
        for node in graph.nodes:
            if node.node_type == STATE or node.state_pred is None:
                continue
            if node.after_trans_pred == node.id:
                continue
            seen = set()
            work = [node.state_pred]
            reached = False
            while work:
                x = work.pop()
                if x == node.after_trans_pred or x in seen:
                    continue
                seen.add(x)
                for w in graph.successors(x):
                    if w == node.id:
                        reached = True
                    work.append(w)
            assert not reached, f"node {node.id} reachable around its scope root"
