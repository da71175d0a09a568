"""Satisfiability engine: rule selection, application, and status flow.

A run grows the and-or graph from a root holding the whole ABox plus the
internalized TBox asserted of every named individual. Or-nodes are worked
off by static rules (conjunction/disjunction decomposition, subrole
narrowing, role-assertion propagation), then frozen into states, which the
transitional rule expands into one successor per existential obligation.

Simple labels hold concepts, complex labels assertions about named
individuals. A primed rule is the plain rule applied to the concept C of
an assertion a:C: `_body` reads C and `_lift` puts a conclusion back in
a:C form, so one rule schema serves both label forms, and only the tag,
primed on complex nodes, tells them apart.

Inverse roles make a successor able to push constraints *back* onto the
state that spawned it. Two repair modes exist: while a state is being
expanded, required formulas collect in `fmls_rc` and the state reports
Incomplete (mode 0); once a state survived expansion cleanly, later
disjunctive descendants record alternative requirement sets instead
(mode 1). Either way the edge into the incomplete state is dropped and
the predecessor is re-expanded once by the converse rule, in one loop
over requirement sets: mode 0 has the single set `fmls_rc`, mode 1 its
alternatives, and each repaired successor adds its set to the label and
disallows the singleton sets tried before it.

Statuses flow upward: any satisfiable branch settles an or-node, any
refuted successor kills an and-node.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import syntax as sx
from .graph import (
    COMPLEX,
    DETERMINED,
    EXPANDED,
    INCOMPLETE,
    NONSTATE,
    SAT,
    SIMPLE,
    STATE,
    UNEXPANDED,
    UNSAT,
    TableauGraph,
)
from .rbox import kb_index
from .syntax import FormulaStore, KnowledgeBase, complement, ordered
from .transfer import (
    transfer_assertions,
    transfer_assertions_from,
    transfer_concepts,
    transfer_concepts_to,
)

EMPTY = frozenset()

R_AND = "and"
R_OR = "or"
R_HIER = "hier"
R_EXISTS = "exists"
R_AND_A = "and'"
R_OR_A = "or'"
R_HIER_A = "hier'"
R_UNIV_A = "univ'"
R_EXISTS_A = "exists'"
R_FORM = "form-state"
R_CONV = "converse"

PRIORITY = {
    R_AND: 5,
    R_AND_A: 5,
    R_HIER: 5,
    R_HIER_A: 5,
    R_UNIV_A: 5,
    R_OR: 4,
    R_OR_A: 4,
    R_FORM: 3,
    R_EXISTS: 2,
    R_EXISTS_A: 2,
    R_CONV: 1,
}


@dataclass(frozen=True)
class RuleInstance:
    tag: str
    principal: object = None
    principals: tuple = ()
    added: frozenset = EMPTY


@dataclass
class Verdict:
    sat: bool
    graph: TableauGraph
    stats: dict
    engine: "TableauEngine"


def _body(f):
    """The concept a label member speaks of: `f` itself for a concept, C
    for an assertion ind:C, None for a role assertion."""
    if f.kind == sx.INST:
        return f.concept
    return None if f.kind == sx.REL else f


def t_unsat(store: FormulaStore, label) -> bool:
    """Obvious refutation: bottom in either label form, or a complementary
    pair. Members are tried in uid order, so the complements interned on
    the way do not depend on set iteration order."""
    for f in ordered(label):
        c = _body(f)
        if c is not None and (c.kind == sx.BOT or complement(store, f) in label):
            return True
    return False


class TableauEngine:
    def __init__(self, kb: KnowledgeBase, strategy: str = "dfs"):
        self.kb = kb
        self.store = kb.store
        self.idx = kb_index(kb)
        self.graph = TableauGraph(strategy)
        self.tbox_set = frozenset(kb.tbox)
        self.rule_counts: Counter = Counter()
        self.trace: list = []

    # -- bookkeeping ---------------------------------------------------

    def _set_status(self, node, status) -> None:
        node.status = status
        if status == INCOMPLETE and node.node_type == STATE:
            self.trace.append(("status", node.id, status, node.conv_method, frozenset(node.fmls_rc)))
        else:
            self.trace.append(("status", node.id, status))

    def _lift(self, f, c):
        """`c` in the label form of `f`: as is, or asserted of `f`'s individual."""
        return self.store.inst(f.ind, c) if f.kind == sx.INST else c

    def _forward(self, ex, label):
        """What `label`, holding the existential `ex`, forces on the simple
        successor that realizes `ex`."""
        role = _body(ex).role
        if ex.kind == sx.INST:
            return transfer_assertions_from(self.idx, label, ex.ind, role)
        return transfer_concepts(self.idx, label, role)

    def _backward(self, ex, label):
        """What the simple `label` of `ex`'s successor forces back across
        the edge, in the label form of `ex`."""
        role = _body(ex).role.inverse
        if ex.kind == sx.INST:
            return transfer_concepts_to(self.idx, self.store, label, role, ex.ind)
        return transfer_concepts(self.idx, label, role)

    # -- rule selection -------------------------------------------------

    def applicable_rule(self, v) -> RuleInstance | None:
        """Best applicable rule instance for `v`, or None when `v` is
        saturated. Choice is deterministic: highest priority first, then
        rule kind, then smallest principal in the fixed formula order,
        then smallest auxiliary role."""
        node = self.graph.node(v)
        prime = "" if node.stype == SIMPLE else "'"
        view = [(f, _body(f)) for f in ordered(node.label)]
        if node.node_type == STATE:
            ex = tuple(f for f, c in view if c is not None and c.kind == sx.SOME)
            return RuleInstance(R_EXISTS + prime, principals=ex) if ex else None

        store = self.store
        af = node.aformulas

        for f, c in view:
            if c is not None and c.kind == sx.AND and f not in node.rformulas:
                return RuleInstance(R_AND + prime, principal=f)

        for f, c in view:
            if c is None or c.kind != sx.ALL:
                continue
            for r in self.idx.subroles_of(c.role):
                added = self._lift(f, store.univ(r, c.child))
                if added not in af:
                    return RuleInstance(R_HIER + prime, principal=f, added=frozenset({added}))

        for f, c in view:
            if c is not None:  # univ' reads role assertions, found in complex labels only
                continue
            added = (
                transfer_assertions(self.idx, store, node.label, f.a, f.role, f.b)
                | transfer_assertions(self.idx, store, node.label, f.b, f.role.inverse, f.a)
            ) - af
            if added:
                return RuleInstance(R_UNIV_A, principal=f, added=frozenset(added))

        for f, c in view:
            if c is not None and c.kind == sx.OR and f not in node.rformulas:
                return RuleInstance(R_OR + prime, principal=f)

        if any(c is not None and c.kind == sx.SOME for _, c in view):
            return RuleInstance(R_FORM)
        return None

    # -- rule application -------------------------------------------------

    def _static_conclusions(self, rule: RuleInstance, node) -> list:
        """Successor labels of a static rule: and/or split the principal's
        concept into its parts, hier/univ' add `rule.added`."""
        if rule.added:
            return [node.label | rule.added]
        f = rule.principal
        c = _body(f)
        left, right = self._lift(f, c.left), self._lift(f, c.right)
        base = node.label - {f}
        if c.kind == sx.AND:
            return [base | {left, right}]
        return [base | {left}, base | {right}]

    def apply_rule(self, rule: RuleInstance, v) -> None:
        g = self.graph
        node = g.node(v)
        assert node.status == (EXPANDED if rule.tag == R_CONV else UNEXPANDED)
        node.expansions += 1
        node.rule = rule.tag
        self.rule_counts[rule.tag] += 1
        self.trace.append(("rule", rule.tag, v))

        if rule.tag == R_FORM:
            g.con_to_succ(v, STATE, node.stype, None, node.label, node.rformulas, node.dformulas)
        elif rule.tag == R_CONV:
            self.apply_conv_rule(v)
        elif rule.principals:  # exists, exists'
            self.apply_trans_rule(rule, v)
            if node.status in DETERMINED:
                self.propagate_status(v)
                return
        else:
            # and/or consume their principal; hier/univ' keep it
            rfmls = node.rformulas if rule.added else node.rformulas | {rule.principal}
            for x in self._static_conclusions(rule, node):
                g.con_to_succ(v, NONSTATE, node.stype, None, x, rfmls, node.dformulas)

        self._set_status(node, EXPANDED)

        for w in list(g.successors(v)):
            wn = g.node(w)
            if wn.status in DETERMINED:
                continue
            if t_unsat(self.store, wn.label):
                self._set_status(wn, UNSAT)
            elif wn.node_type == NONSTATE and wn.state_pred is not None:
                v0 = g.node(wn.state_pred)
                v1 = g.node(wn.after_trans_pred)
                x = self._backward(v1.ce_label, wn.label) - v0.aformulas
                if x:
                    if v0.conv_method == 0:
                        v0.fmls_rc |= x
                        if x & v0.dformulas:
                            self._set_status(v0, UNSAT)
                            return
                    elif x & v0.dformulas:
                        self._set_status(wn, UNSAT)
                    else:
                        v1.alt_fml_sets_scp.add(frozenset(x))
                        self._set_status(wn, INCOMPLETE)

        self.update_status(v)
        if node.status in DETERMINED:
            self.propagate_status(v)

    def apply_trans_rule(self, rule: RuleInstance, u) -> None:
        """Expand a state: one fresh successor per existential obligation,
        then saturate the new local graph with the unary static rules."""
        g = self.graph
        un = g.node(u)
        assert un.node_type == STATE

        w = len(g.nodes)
        for f in rule.principals:
            label = frozenset({_body(f).child}) | self._forward(f, un.label) | self.tbox_set
            g.new_succ(u, NONSTATE, SIMPLE, f, label, EMPTY, EMPTY)
            un.fmls_rc |= self._backward(f, label) - un.aformulas

        if un.fmls_rc & un.dformulas:
            self._set_status(un, UNSAT)

        # The local graph is new: its members are exactly the nodes created
        # from the first successor on, since priority-5 rules only add or-nodes
        # under the member they expand. One pass over them, reaching the ones
        # the pass itself creates, suffices: node content is fixed and no
        # status returns to UNEXPANDED, so a member skipped once stays skipped.
        while w < len(g.nodes) and un.status != UNSAT:
            wn = g.node(w)
            assert wn.state_pred == u
            if wn.status == UNEXPANDED:
                inst = self.applicable_rule(w)
                if inst is not None and PRIORITY[inst.tag] == 5:
                    self.apply_rule(inst, w)
            w += 1

        if un.status != UNSAT:
            if un.fmls_rc:
                self._set_status(un, INCOMPLETE)
            else:
                un.conv_method = 1

    def apply_conv_rule(self, v) -> None:
        """Re-expand `v` after its state demanded more formulas: drop the
        edge and connect `v` to one successor per requirement set. Mode 0
        has the single set `fmls_rc`; mode 1 has its alternative sets,
        singletons first in uid order, then the larger ones by sorted uids.
        Each successor disallows the singletons tried before it."""
        g = self.graph
        node = g.node(v)
        succs = g.successors(v)
        assert len(succs) == 1
        w = succs[0]
        wn = g.node(w)
        assert wn.node_type == STATE
        g.remove_edge(v, w)

        if wn.conv_method == 0:
            sets = [frozenset(wn.fmls_rc)]
        else:
            sets = sorted(wn.alt_fml_sets_sc, key=lambda s: (len(s) > 1, sorted(f.uid for f in s)))
        tried = EMPTY
        for x in sets:
            g.con_to_succ(v, NONSTATE, node.stype, None, node.label | x, node.rformulas, node.dformulas | tried)
            if len(x) == 1:
                tried |= x

    # -- status flow ------------------------------------------------------

    def update_status(self, v) -> None:
        g = self.graph
        node = g.node(v)
        if node.status != EXPANDED:
            return
        succ_nodes = [g.node(w) for w in g.successors(v)]
        if node.node_type == NONSTATE:
            if any(w.status == SAT for w in succ_nodes):
                self._set_status(node, SAT)
            elif all(w.status == UNSAT for w in succ_nodes):
                self._set_status(node, UNSAT)
            elif all(w.status in (INCOMPLETE, UNSAT) for w in succ_nodes):
                if any(w.node_type == STATE for w in succ_nodes):
                    # the state is the only successor
                    self.apply_rule(RuleInstance(R_CONV), v)
                else:
                    self._set_status(node, INCOMPLETE)
        else:
            if all(w.status == SAT for w in succ_nodes):
                self._set_status(node, SAT)
            elif any(w.status == UNSAT for w in succ_nodes):
                self._set_status(node, UNSAT)
            else:
                w = next((w for w in succ_nodes if w.status == INCOMPLETE), None)
                if w is not None:
                    node.alt_fml_sets_sc = set(w.alt_fml_sets_scp)
                    self._set_status(node, INCOMPLETE)

    def propagate_status(self, v) -> None:
        work = [v]
        while work:
            x = work.pop()
            for u in list(self.graph.predecessors(x)):
                un = self.graph.node(u)
                if un.status != EXPANDED:
                    continue
                self.update_status(u)
                if un.status in DETERMINED:
                    work.append(u)

    # -- top level ---------------------------------------------------------

    def run(self) -> TableauGraph:
        kb = self.kb
        g = self.graph
        tbox_asserted = {self.store.inst(a, c) for a in kb.individuals for c in kb.tbox}
        g.root = g.new_succ(None, NONSTATE, COMPLEX, None, frozenset(kb.abox) | tbox_asserted, EMPTY, EMPTY)
        rn = g.node(g.root)
        if t_unsat(self.store, rn.label):
            self._set_status(rn, UNSAT)

        while (v := g.to_expand()) is not None:
            inst = self.applicable_rule(v)
            if inst is None:
                self._set_status(g.node(v), SAT)
                self.propagate_status(v)
                continue
            self.apply_rule(inst, v)
        return g

    def stats(self) -> dict:
        return {
            "nodes": len(self.graph.nodes),
            "states": sum(1 for n in self.graph.nodes if n.node_type == STATE),
            "rule_applications": dict(self.rule_counts),
        }


def decide_sat(kb: KnowledgeBase, strategy: str = "dfs") -> Verdict:
    """Decide satisfiability of `kb`: SAT iff the finished root is not
    refuted."""
    engine = TableauEngine(kb, strategy=strategy)
    engine.run()
    sat = engine.graph.node(engine.graph.root).status != UNSAT
    return Verdict(sat=sat, graph=engine.graph, stats=engine.stats(), engine=engine)
