"""The rooted and-or graph the satisfiability search is built on.

Nodes are immutable in their content (label, reduced formulas,
disallowed formulas) and provenance once created; only the status and
the converse-repair record change afterwards. The record's fields start
as the shared `EMPTY` and are only ever rebound to larger frozensets,
never mutated, so a reader keeps a value without copying it. States are
and-nodes, everything else is an or-node. One cache keeps the graph from
blowing up: no two nodes of one scope share the triple (label,
rformulas, dformulas). States share the global scope None; an or-node's
scope is its local graph -- everything reachable from a node without
crossing a state -- named by the `after_trans_pred` all its members
share. Labels are frozensets of interned formulas, so the triple itself
is the key.

Edges form a set. The only deletion ever performed removes the edge into
a state that demanded a converse repair; the state itself stays and can
be reached again through the cache.
"""
from __future__ import annotations

from collections import deque

from .syntax import ordered

STATE = "state"
NONSTATE = "nonstate"

COMPLEX = "complex"
SIMPLE = "simple"

UNEXPANDED = "unexpanded"
EXPANDED = "expanded"
INCOMPLETE = "incomplete"
UNSAT = "unsat"
SAT = "sat"

DETERMINED = (INCOMPLETE, UNSAT, SAT)

EMPTY = frozenset()


class TableauNode:
    __slots__ = (
        "id",
        "node_type",
        "stype",
        "status",
        "label",
        "rformulas",
        "dformulas",
        "state_pred",
        "after_trans_pred",
        "ce_label",
        "conv_method",
        "fmls_rc",
        "alt_fml_sets_sc",
        "alt_fml_sets_scp",
        "rule",
        "expansions",
    )

    def __init__(self, node_id, node_type, stype, label, rformulas, dformulas):
        self.id = node_id
        self.node_type = node_type
        self.stype = stype
        self.status = UNEXPANDED
        self.label = frozenset(label)
        self.rformulas = frozenset(rformulas)
        self.dformulas = frozenset(dformulas)
        self.state_pred = None
        self.after_trans_pred = None
        self.ce_label = None
        self.conv_method = 0
        self.fmls_rc = self.alt_fml_sets_sc = self.alt_fml_sets_scp = EMPTY
        self.rule = None
        self.expansions = 0

    @property
    def aformulas(self) -> frozenset:
        return self.label | self.rformulas

    def triple_key(self) -> tuple:
        return (self.stype, self.label, self.rformulas, self.dformulas)

    def __repr__(self) -> str:
        return f"<node {self.id} {self.node_type}/{self.stype} {self.status} {ordered(self.label)}>"


class TableauGraph:
    def __init__(self, strategy: str = "dfs"):
        if strategy not in ("dfs", "fifo"):
            raise ValueError(f"unknown expansion strategy {strategy!r}")
        self.strategy = strategy
        self.nodes: list = []
        self.succs: list = []
        self.preds: list = []
        self.root: int | None = None
        self._cache: dict = {}  # (scope, triple key) -> node id
        self._queue: deque = deque()

    # -- basic access ------------------------------------------------

    def node(self, node_id: int) -> TableauNode:
        return self.nodes[node_id]

    def successors(self, node_id: int) -> list:
        return self.succs[node_id]

    def predecessors(self, node_id: int) -> list:
        return self.preds[node_id]

    def add_edge(self, v: int, w: int) -> None:
        if w not in self.succs[v]:
            self.succs[v].append(w)
            self.preds[w].append(v)

    def remove_edge(self, v: int, w: int) -> None:
        self.succs[v].remove(w)
        self.preds[w].remove(v)

    # -- node creation and caching ------------------------------------

    def new_succ(self, v, node_type, stype, ce_label, label, rformulas, dformulas) -> int:
        """Append a fresh unexpanded node and hook it under `v` (or make it
        the root when `v` is None)."""
        node_id = len(self.nodes)
        node = TableauNode(node_id, node_type, stype, label, rformulas, dformulas)
        self.nodes.append(node)
        self.succs.append([])
        self.preds.append([])
        if v is not None:
            self.add_edge(v, node_id)

        parent = self.nodes[v] if v is not None else None
        if node_type == STATE:
            assert parent is None or parent.node_type == NONSTATE
        elif parent is None or parent.node_type == STATE:  # starts a local graph
            node.state_pred, node.after_trans_pred, node.ce_label = v, node_id, ce_label
        else:
            node.state_pred, node.after_trans_pred = parent.state_pred, parent.after_trans_pred
        key = (node.after_trans_pred, node.triple_key())  # None for a state
        assert key not in self._cache, "duplicate triple in a cache scope"
        self._cache[key] = node_id

        self._queue.append(node_id)
        return node_id

    def find_proxy(self, node_type, stype, v1, label, rformulas, dformulas):
        """The unique existing node matching the attributes, if any.

        States are looked up globally; or-nodes only within the local
        graph rooted at `v1`.
        """
        scope = None if node_type == STATE else v1
        return self._cache.get((scope, (stype, label, rformulas, dformulas)))

    def con_to_succ(self, v, node_type, label, rformulas, dformulas) -> int:
        """Connect the or-node `v` to a node of its form with the given
        content, creating it only when no cached one exists."""
        parent = self.nodes[v]
        w = self.find_proxy(node_type, parent.stype, parent.after_trans_pred, label, rformulas, dformulas)
        if w is None:
            return self.new_succ(v, node_type, parent.stype, None, label, rformulas, dformulas)
        self.add_edge(v, w)
        return w

    # -- expansion queue ----------------------------------------------

    def to_expand(self):
        """Next unexpanded node per the configured strategy, or None."""
        while self._queue:
            node_id = self._queue.pop() if self.strategy == "dfs" else self._queue.popleft()
            if self.nodes[node_id].status == UNEXPANDED:
                return node_id
        return None
