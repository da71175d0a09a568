"""The rooted and-or graph the satisfiability search is built on.

Nodes are immutable in their content (label, reduced formulas, disallowed
formulas) and provenance once created. What changes afterwards: the status;
`rule`, the node's record of its expansions, set by the engine's
`apply_rule`: None until a rule expands the node, then that rule's tag,
which only the converse rule overwrites, once, on a form-state node (so
a node was expanded `(rule is not None) + (rule == "converse")` times);
the edge lists `succs` and `preds`, which grow but for the one edge a
converse repair drops (below); a state's `tally` of its successors by
status, kept by the engine's `_set_status`;
and the converse-repair record, `fmls_rc` and `alt_fml_sets`. The repair
mode is read from the state (`conv_method`). The record's fields start as
the shared `EMPTY` and are only ever rebound to larger frozensets, never
mutated, so a reader keeps a value without copying it. States are
and-nodes, everything else is an or-node. An or-node's local graph is
everything reachable from its head without crossing a state; members carry
only the head, `after_trans_pred`, and the graph's facts sit on it: the
existential `ce_label`, the state (`state_of_head`: the first predecessor,
which made it; the root heads a graph with neither) and mode 1's
alternative sets, `alt_fml_sets`, collected from the members. A state
takes those of its first INCOMPLETE head; no other node sets the field.

One cache keeps the graph from blowing up: no two nodes of one scope
share the triple (label, rformulas, dformulas). States share the global
scope None; an or-node's scope is its head. A label is a frozenset of
interned formulas, which the clash test, the split, the transfers and the
witness iterate. The reduced formulas, `rformulas`, and the disallowed
ones, `dformulas`, are only tested for membership, grown and hashed, so
each is a uid bitset, an int (`syntax.uid_bits`; 0 is the empty set):
along a d-deep conjunction the reduced sets hold 1, 2, ..., d members,
and as bits they share no formula references. The scope and the triple
are the key. A label holds assertions only (a complex node) or concepts
only (a simple one), so its content also fixes the node's form.

Nodes carry their edges: `succs` and `preds` list node ids in the order
the edges were added, and form a set. The graph is the node list, indexed
by id, plus the cache and the expansion queue. The only edge ever deleted
is the one into a state that demanded a converse repair; the state stays
and can be reached again through the cache.
"""
from __future__ import annotations

from collections import deque

from .syntax import ordered

STATE = "state"
NONSTATE = "nonstate"

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
        "status",
        "label",
        "rformulas",
        "dformulas",
        "after_trans_pred",
        "ce_label",
        "fmls_rc",
        "alt_fml_sets",
        "rule",
        "tally",
        "succs",
        "preds",
    )

    def __init__(self, node_id, node_type, label, rformulas, dformulas):
        self.id = node_id
        self.node_type = node_type
        self.status = UNEXPANDED
        self.label = label
        self.rformulas = rformulas
        self.dformulas = dformulas
        self.after_trans_pred = None
        self.ce_label = None
        self.fmls_rc = self.alt_fml_sets = EMPTY
        self.rule = None
        self.tally = {INCOMPLETE: 0, UNSAT: 0, SAT: 0} if node_type == STATE else None
        self.succs: list = []
        self.preds: list = []

    @property
    def conv_method(self) -> int:
        """The repair mode: 1 on a state whose local pass (run while it is
        UNEXPANDED) left no demands, `fmls_rc`, else 0. A state gains
        demands only in its pass or later in mode 0, turns UNSAT in its
        pass only when a demand meets its dformulas, and no status update
        reaches it before a clean pass has made it EXPANDED."""
        return int(self.node_type == STATE and self.status != UNEXPANDED and not self.fmls_rc)

    def __repr__(self) -> str:
        return f"<node {self.id} {self.node_type} {self.status} {ordered(self.label)}>"


class TableauGraph:
    def __init__(self, strategy: str = "dfs"):
        if strategy not in ("dfs", "fifo"):
            raise ValueError(f"unknown expansion strategy {strategy!r}")
        self.nodes: list = []  # node id -> TableauNode
        self.root: int | None = None
        self._cache: dict = {}  # (scope, label, rformulas, dformulas) -> node id
        self._queue: deque = deque()
        self._next = self._queue.pop if strategy == "dfs" else self._queue.popleft

    def add_edge(self, v: int, w: int) -> None:
        succs = self.nodes[v].succs
        if w not in succs:
            succs.append(w)
            self.nodes[w].preds.append(v)

    def remove_edge(self, v: int, w: int) -> None:
        self.nodes[v].succs.remove(w)
        self.nodes[w].preds.remove(v)

    def state_of_head(self, head):
        """The state that made the local graph `head` heads: its first predecessor."""
        return self.nodes[head.preds[0]]

    # -- node creation and caching ------------------------------------

    def new_succ(self, v, node_type, ce_label, label, rformulas, dformulas) -> int:
        """Append a fresh unexpanded node and hook it under `v` (or make it
        the root when `v` is None)."""
        node_id = len(self.nodes)
        node = TableauNode(node_id, node_type, label, rformulas, dformulas)
        self.nodes.append(node)
        parent = None
        if v is not None:  # a fresh node is no one's successor yet: no add_edge scan
            parent = self.nodes[v]
            parent.succs.append(node_id)
            node.preds.append(v)

        if node_type == STATE:
            assert parent is None or parent.node_type == NONSTATE
        elif parent is None or parent.node_type == STATE:  # starts a local graph
            node.after_trans_pred, node.ce_label = node_id, ce_label
        else:
            node.after_trans_pred = parent.after_trans_pred
        key = (node.after_trans_pred, label, rformulas, dformulas)  # scope None for a state
        assert key not in self._cache, "duplicate triple in a cache scope"
        self._cache[key] = node_id

        self._queue.append(node_id)
        return node_id

    # `stype` is unused: `bench/tracing.py`'s `counting_lookup` wraps this signature.
    def find_proxy(self, node_type, stype, v1, label, rformulas, dformulas):
        """The unique existing node matching the attributes, if any.

        States are looked up globally; or-nodes only within the local
        graph rooted at `v1`.
        """
        scope = None if node_type == STATE else v1
        return self._cache.get((scope, label, rformulas, dformulas))

    def con_to_succ(self, v, node_type, label, rformulas, dformulas) -> int:
        """Connect the or-node `v` to a node with the given content,
        creating it only when no cached one exists."""
        w = self.find_proxy(node_type, None, self.nodes[v].after_trans_pred, label, rformulas, dformulas)
        if w is None:
            return self.new_succ(v, node_type, None, label, rformulas, dformulas)
        self.add_edge(v, w)
        return w

    # -- expansion queue ----------------------------------------------

    def to_expand(self):
        """Next unexpanded node per the configured strategy, or None."""
        while self._queue:
            node_id = self._next()
            if self.nodes[node_id].status == UNEXPANDED:
                return node_id
        return None
