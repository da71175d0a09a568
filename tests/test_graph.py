"""Graph layer: node creation, attribute wiring, proxy caching."""
from __future__ import annotations

from shisat import decide_sat, parse_kb
from shisat.engine import R_CONV
from shisat.graph import (
    EMPTY,
    NONSTATE,
    STATE,
    UNEXPANDED,
    TableauGraph,
)
from shisat.syntax import INST, FormulaStore, Role

from helpers import EX1_TEXT, EX2_TEXT, state_of


def _store():
    store = FormulaStore()
    return store, store.atom("A"), store.atom("B")


def test_root_creation_attributes():
    store, a, b = _store()
    g = TableauGraph()
    label = frozenset({store.inst("a", a), store.rel(Role("r"), "a", "b")})
    root = g.new_succ(None, NONSTATE, None, label, 0, 0)
    node = g.nodes[root]
    assert node.status == UNEXPANDED
    assert state_of(g.nodes, node) is None
    assert node.after_trans_pred == root
    assert node.ce_label is None
    assert node.succs == [] and node.preds == []


def test_state_successor_records_coming_edge_label():
    store, a, _ = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, None, frozenset({store.inst("a", a)}), 0, 0)
    u = g.new_succ(root, STATE, None, frozenset({store.inst("a", a)}), 0, 0)
    ce = store.inst("a", store.exist(Role("r"), a))
    w = g.new_succ(u, NONSTATE, ce, frozenset({a}), 0, 0)
    node = g.nodes[w]
    assert node.ce_label is ce
    assert node.after_trans_pred == w
    assert state_of(g.nodes, node) == u
    assert node.alt_fml_sets is EMPTY


def test_nonstate_child_inherits_scope():
    store, a, b = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, None, frozenset({a}), 0, 0)
    child = g.new_succ(root, NONSTATE, None, frozenset({a, b}), 0, 0)
    node = g.nodes[child]
    assert node.after_trans_pred == root
    assert state_of(g.nodes, node) is None


def test_state_fields_initialized():
    store, a, _ = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, None, frozenset({a}), 0, 0)
    u = g.new_succ(root, STATE, None, frozenset({a}), 0, 0)
    node = g.nodes[u]
    assert node.conv_method == 0
    assert node.fmls_rc is EMPTY
    assert node.alt_fml_sets is EMPTY


def test_find_proxy_state_lookup():
    store, a, b = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, None, frozenset({a}), 0, 0)
    u = g.new_succ(root, STATE, None, frozenset({a}), 1 << b.uid, 0)  # rformulas {b}, as uid bits
    assert g.find_proxy(STATE, None, None, frozenset({a}), 1 << b.uid, 0) == u
    assert g.find_proxy(STATE, None, None, frozenset({b}), 1 << b.uid, 0) is None
    assert g.find_proxy(STATE, None, None, frozenset({a}), 0, 0) is None


def test_one_cache_keeps_scopes_apart():
    store, a, b = _store()
    g = TableauGraph()
    label = frozenset({a})
    root = g.new_succ(None, NONSTATE, None, label, 0, 0)
    # forming a state copies the or-node's triple; both stay cached
    u = g.new_succ(root, STATE, None, label, 0, 0)
    assert g.nodes[u].triple_key() == g.nodes[root].triple_key()
    assert g.find_proxy(STATE, None, None, label, 0, 0) == u
    assert g.find_proxy(NONSTATE, None, root, label, 0, 0) == root
    # one triple in two local scopes is two distinct nodes
    ce = store.exist(Role("r"), b)
    w1 = g.new_succ(u, NONSTATE, ce, frozenset({b}), 0, 0)
    w2 = g.new_succ(u, NONSTATE, ce, frozenset({a, b}), 0, 0)
    x1 = g.new_succ(w1, NONSTATE, None, frozenset({a, b}), 0, 0)
    assert x1 != w2
    assert g.find_proxy(NONSTATE, None, w1, frozenset({a, b}), 0, 0) == x1
    assert g.find_proxy(NONSTATE, None, w2, frozenset({a, b}), 0, 0) == w2


def test_con_to_succ_reuses_and_deduplicates_edges():
    store, a, b = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, None, frozenset({a}), 0, 0)
    first = g.con_to_succ(root, NONSTATE, frozenset({a, b}), 0, 0)
    second = g.con_to_succ(root, NONSTATE, frozenset({a, b}), 0, 0)
    assert first == second
    assert g.nodes[root].succs == [first]
    assert len(g.nodes) == 2


def test_or_branches_with_equal_conclusions_merge():
    kb = parse_kb("inst a (or A A)\n")
    verdict = decide_sat(kb)
    root = verdict.graph.root
    assert verdict.sat
    assert len(verdict.graph.nodes[root].succs) == 1


def test_states_shared_across_branches():
    # Both individuals produce the same simple obligation, so the inner
    # state is created once and reached twice through the cache.
    kb = parse_kb("inst a (some r (some s E))\ninst b (some r (some s E))\n")
    verdict = decide_sat(kb)
    states = [n for n in verdict.graph.nodes if n.node_type == STATE]
    assert verdict.sat
    assert len(states) == 2
    simple_state = next(n for n in states if all(f.kind != INST for f in n.label))
    assert len(verdict.graph.nodes[simple_state.id].preds) == 2


def test_remove_edge_keeps_node():
    store, a, b = _store()
    g = TableauGraph()
    root = g.new_succ(None, NONSTATE, None, frozenset({a}), 0, 0)
    child = g.new_succ(root, NONSTATE, None, frozenset({a, b}), 0, 0)
    g.remove_edge(root, child)
    assert g.nodes[root].succs == []
    assert g.nodes[child] is not None
    assert g.find_proxy(NONSTATE, None, root, frozenset({a, b}), 0, 0) == child


def test_queue_strategies():
    store, a, b = _store()
    for strategy, expected in (("dfs", [2, 1]), ("fifo", [1, 2])):
        g = TableauGraph(strategy)
        root = g.new_succ(None, NONSTATE, None, frozenset({a}), 0, 0)
        g.nodes[root].status = "expanded"
        one = g.new_succ(root, NONSTATE, None, frozenset({a, b}), 0, 0)
        two = g.new_succ(root, NONSTATE, None, frozenset({b}), 0, 0)
        order = [g.to_expand(), g.to_expand()]
        assert order == expected


def test_paths_from_state_funnel_through_scope_root():
    # Every path from the state of a node's local graph to the node
    # passes through the graph's head.
    for text in (EX1_TEXT, EX2_TEXT, "inst a (some r (all r- C))\n"):
        graph = decide_sat(parse_kb(text)).graph
        for node in graph.nodes:
            if node.node_type == STATE or state_of(graph.nodes, node) is None:
                continue
            if node.after_trans_pred == node.id:
                continue
            seen = set()
            work = [state_of(graph.nodes, node)]
            reached = False
            while work:
                x = work.pop()
                if x == node.after_trans_pred or x in seen:
                    continue
                seen.add(x)
                for w in graph.nodes[x].succs:
                    if w == node.id:
                        reached = True
                    work.append(w)
            assert not reached, f"node {node.id} reachable around its scope root"


def test_a_local_graph_is_read_from_its_head(decided):
    # The engine reads a local graph's existential and state from its head
    # alone: every or-node's head is the root, with no existential, or a
    # node whose first predecessor is a state that holds the head's
    # existential and lists the head among its successors.
    heads = 0
    for text, _, verdict in decided:
        g = verdict.graph
        for node in g.nodes:
            if node.node_type == STATE:
                continue
            head = g.nodes[node.after_trans_pred]
            assert head.after_trans_pred == head.id, text
            if head.id == g.root:
                assert head.ce_label is None, text
                continue
            state = g.nodes[head.preds[0]]
            assert state.node_type == STATE, text
            assert head.ce_label in state.label and head.id in state.succs, text
            heads += 1
    assert heads


def test_edge_lists_mirror_each_other(decided):
    # Each node holds both ends of its edges: every edge is listed once in
    # its source's succs and once in its target's preds, and the edge into
    # the state a converse repair dropped is in neither list.
    repaired = 0
    for text, _, verdict in decided:
        g = verdict.graph
        out = [(v.id, w) for v in g.nodes for w in v.succs]
        into = [(u, w.id) for w in g.nodes for u in w.preds]
        assert len(set(out)) == len(out) and len(set(into)) == len(into), text
        assert sorted(out) == sorted(into), text
        conv = [v for v in g.nodes if v.rule == R_CONV]
        assert len(conv) == sum(1 for e in verdict.engine.trace if e[:2] == ("rule", R_CONV)), text
        for v in conv:
            # the state the form-state rule made from v, found through the cache
            w = g.find_proxy(STATE, None, None, v.label, v.rformulas, v.dformulas)
            assert w is not None and w not in v.succs and v.id not in g.nodes[w].preds, text
        repaired += len(conv)
    assert repaired
