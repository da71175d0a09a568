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

Labels are interned frozensets that never change, and many nodes share
one: the engine does each piece of per-label work once per run and looks
it up afterwards. Three dicts keyed by the label (a frozenset caches its
hash) hold the label's members split by kind in uid order
(`LabelView`), its `t_unsat` result, and, keyed by (existential, label),
the `_backward` transfer. They live on the engine, not on the nodes,
and are dropped when the run ends. None of them changes the uid order:
a hit replays a call whose formulas were interned on its miss, and the
subrole narrowings, which intern new formulas, are still built lazily
during the rule scan, in the same order as before.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import syntax as sx
from .graph import (
    COMPLEX,
    DETERMINED,
    EMPTY,
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


class LabelView(NamedTuple):
    """A label's members by the kind of their concept, each in uid order:
    (member, concept) pairs for value restrictions, which the scan reads
    the concept of, and bare members for the other kinds."""

    conj: tuple
    univ: tuple
    rel: tuple
    disj: tuple
    some: tuple


def _body(f):
    """The concept a label member speaks of: `f` itself for a concept, C
    for an assertion ind:C, None for a role assertion."""
    if f.kind == sx.INST:
        return f.concept
    return None if f.kind == sx.REL else f


def t_unsat(store: FormulaStore, label) -> bool:
    """Obvious refutation: bottom in either label form, or a complementary
    pair. Members are tried in uid order, so the complements interned on
    the way do not depend on set iteration order. The engine memoises the
    result per label (`TableauEngine._clashes`): a second call on a label
    would intern nothing, as each complement is interned once."""
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
        self._views: dict = {}  # label -> LabelView
        self._clash: dict = {}  # label -> t_unsat(store, label)
        self._back: dict = {}  # (existential, label) -> frozenset

    # -- bookkeeping ---------------------------------------------------

    def _set_status(self, node, status) -> None:
        node.status = status
        if status == INCOMPLETE and node.node_type == STATE:
            self.trace.append(("status", node.id, status, node.conv_method, node.fmls_rc))
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

    def _backward(self, ex, label) -> frozenset:
        """What the simple `label` of `ex`'s successor forces back across
        the edge, in the label form of `ex`. Memoised per run: the
        assertions of the first call are interned by the time of a hit."""
        key = (ex, label)
        out = self._back.get(key)
        if out is None:
            role = _body(ex).role.inverse
            if ex.kind == sx.INST:
                out = transfer_concepts_to(self.idx, self.store, label, role, ex.ind)
            else:
                out = transfer_concepts(self.idx, label, role)
            out = self._back[key] = frozenset(out)
        return out

    def _clashes(self, label) -> bool:
        """`t_unsat` of `label`, computed once per run."""
        out = self._clash.get(label)
        if out is None:
            out = self._clash[label] = t_unsat(self.store, label)
        return out

    def _view(self, label) -> LabelView:
        """`label`'s members by kind, from one sort per run."""
        view = self._views.get(label)
        if view is None:
            parts = {sx.AND: [], sx.ALL: [], None: [], sx.OR: [], sx.SOME: []}  # LabelView's order
            for f in ordered(label):
                c = _body(f)
                kind = None if c is None else c.kind
                part = parts.get(kind)
                if part is not None:
                    part.append((f, c) if kind == sx.ALL else f)
            view = self._views[label] = LabelView(*map(tuple, parts.values()))
        return view

    # -- rule selection -------------------------------------------------

    def applicable_rule(self, v) -> RuleInstance | None:
        """Best applicable rule instance for `v`, or None when `v` is
        saturated. Choice is deterministic: highest priority first, then
        rule kind, then smallest principal in the fixed formula order,
        then smallest auxiliary role.

        The scan reads the label's memoised `LabelView`, one kind at a
        time. What it tests against the node's rformulas and aformulas,
        and the narrowings it interns, are computed per call, in the same
        order as a scan of the sorted label would."""
        node = self.graph.node(v)
        prime = "" if node.stype == SIMPLE else "'"
        view = self._view(node.label)
        if node.node_type == STATE:
            return RuleInstance(R_EXISTS + prime, principals=view.some) if view.some else None

        rf = node.rformulas
        for f in view.conj:
            if f not in rf:
                return RuleInstance(R_AND + prime, principal=f)

        if view.univ:  # narrowing and univ' both act on a value restriction
            store = self.store
            af = node.aformulas
            for f, c in view.univ:
                for r in self.idx.subroles_of(c.role):
                    if r == c.role:  # narrows to f itself
                        continue
                    added = self._lift(f, store.univ(r, c.child))
                    if added not in af:
                        return RuleInstance(R_HIER + prime, principal=f, added=frozenset({added}))

            for f in view.rel:  # univ' reads role assertions, found in complex labels only
                added = (
                    transfer_assertions(self.idx, store, node.label, f.a, f.role, f.b)
                    | transfer_assertions(self.idx, store, node.label, f.b, f.role.inverse, f.a)
                ) - af
                if added:
                    return RuleInstance(R_UNIV_A, principal=f, added=frozenset(added))

        for f in view.disj:
            if f not in rf:
                return RuleInstance(R_OR + prime, principal=f)

        return RuleInstance(R_FORM) if view.some else None

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
            g.con_to_succ(v, STATE, node.label, node.rformulas, node.dformulas)
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
                g.con_to_succ(v, NONSTATE, x, rfmls, node.dformulas)

        self._set_status(node, EXPANDED)

        # Only an or-node under a state has a state_pred. A state gets here
        # only with fmls_rc empty: its successors' demands are all met.
        if node.state_pred is not None:
            v0, v1 = g.node(node.state_pred), g.node(node.after_trans_pred)
        for w in list(g.successors(v)):
            wn = g.node(w)
            if wn.status in DETERMINED:
                continue
            if self._clashes(wn.label):
                self._set_status(wn, UNSAT)
            elif node.state_pred is not None and wn.node_type == NONSTATE:
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
                        v1.alt_fml_sets_scp |= {x}
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
            sets = [wn.fmls_rc]
        else:
            sets = sorted(wn.alt_fml_sets_sc, key=lambda s: (len(s) > 1, sorted(f.uid for f in s)))
        tried = EMPTY
        for x in sets:
            g.con_to_succ(v, NONSTATE, node.label | x, node.rformulas, node.dformulas | tried)
            if len(x) == 1:
                tried |= x

    # -- status flow ------------------------------------------------------

    def update_status(self, v) -> None:
        """Settle the expanded `v` from its successors' statuses, in one
        pass over them. An or-node is SAT if a successor is, else UNSAT if
        all are; if all are INCOMPLETE or UNSAT it is repaired by the
        converse rule when its successor is a state, else INCOMPLETE. A
        state is SAT if all successors are, else UNSAT if one is, else
        INCOMPLETE with the alternative sets of its first INCOMPLETE one."""
        g = self.graph
        node = g.node(v)
        if node.status != EXPANDED:
            return
        nodes, succs = g.nodes, g.successors(v)
        if node.node_type == NONSTATE:
            unsat = incomplete = 0
            state = False
            for w in succs:
                wn = nodes[w]
                status = wn.status
                if status == SAT:
                    self._set_status(node, SAT)
                    return
                if status == UNSAT:
                    unsat += 1
                elif status == INCOMPLETE:
                    incomplete += 1
                state = state or wn.node_type == STATE
            if unsat == len(succs):
                self._set_status(node, UNSAT)
            elif unsat + incomplete == len(succs):
                if state:
                    # the state is the only successor
                    self.apply_rule(RuleInstance(R_CONV), v)
                else:
                    self._set_status(node, INCOMPLETE)
        else:
            all_sat, first = True, None
            for w in succs:
                wn = nodes[w]
                status = wn.status
                if status == UNSAT:
                    self._set_status(node, UNSAT)
                    return
                if status != SAT:
                    all_sat = False
                    if first is None and status == INCOMPLETE:
                        first = wn
            if all_sat:
                self._set_status(node, SAT)
            elif first is not None:
                node.alt_fml_sets_sc = first.alt_fml_sets_scp
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
        if self._clashes(rn.label):
            self._set_status(rn, UNSAT)

        while (v := g.to_expand()) is not None:
            inst = self.applicable_rule(v)
            if inst is None:
                self._set_status(g.node(v), SAT)
                self.propagate_status(v)
                continue
            self.apply_rule(inst, v)
        self._views.clear()
        self._clash.clear()
        self._back.clear()
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
