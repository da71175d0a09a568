"""Satisfiability engine: rule selection, application, and status flow.

A run grows the and-or graph from a root holding the whole ABox plus the
internalized TBox asserted of every named individual. Or-nodes are worked
off by static rules (conjunction/disjunction decomposition, subrole
narrowing, role-assertion propagation), then frozen into states, which the
transitional rule expands into one successor per existential obligation.

Simple labels hold concepts, complex labels assertions about named
individuals. A primed rule is the plain rule applied to the concept C of
an assertion a:C: the formula's `body` field holds C and `_lift` puts a
conclusion back in a:C form, so one rule schema serves both label forms,
and only the tag, primed when its principal is an assertion, tells them
apart. The clash test reads each member's complement from its `neg`
field and builds it only where the field is still empty.

Inverse roles make a successor able to push constraints *back* onto the
state that spawned it. Two repair modes exist, and the state's status
and demands tell them apart (`conv_method`): while a state is being
expanded, required formulas collect in `fmls_rc` and the state reports
Incomplete (mode 0); once a state survived expansion cleanly, later
disjunctive descendants record alternative requirement sets instead
(mode 1). A demand that meets the state's dformulas refutes the state in
mode 0, for good: it takes no more demands, though each is still made,
since `_backward` may intern assertions. In mode 1 it refutes only the
successor that made it. Either way an incomplete state's edge is dropped
and the predecessor is re-expanded once by the converse rule, in one loop
over requirement sets: mode 0 has the single set `fmls_rc`, mode 1 its
alternatives, and each repaired successor adds its set to the label and
disallows the singleton sets tried before it.

Statuses flow upward in one work-list loop (`propagate_status`): a
satisfiable branch settles an or-node, a refuted successor kills a state.
The converse rule's tail leaves that walk to `update_status`'s callers,
which make it anyway, so no repair cascade re-enters the loop, at any depth.

Labels are interned frozensets that never change, and many nodes share
one: the engine does each piece of per-label work once per run and looks
it up afterwards. Three dicts on the engine hold that work, and are
dropped when the run ends: `_clash` holds each label's clash test
(`_clashes`), `_split` its split (`_kinds`), and `_steps`, keyed by a
node's content, the rule instance chosen for it (`applicable_rule`),
which carries a static rule's successor labels and rformulas. A node's
content comes back across local graphs and across dformulas.

Apart from the root's and a state's fresh successors', every label is
made from an or-node's label by a rule: minus the consumed principal,
plus the conclusions. A clash test reads only the members a label adds
to its parent's, or to the empty label when that is not known
clash-free (`t_unsat`), and a split is derived from its parent's
(`derive_split`), so the work per node does not grow with the label.
Only the other labels are sorted, once by each routine that reads them
whole: `t_unsat` for a test against the empty label, `split_label` for
the split, so a clash test builds no split. None of this changes the
uid order: a memo hit replays a call whose formulas were interned on its
miss, and the scan interns the conclusions of the rule it picks, which
on a complex node is applied right after its scan.

Only some edges can carry a constraint back. Across an R edge the
successor's label forces something on the state only through a value
restriction (all R-.D), or (all Q.D) with R- <= Q and Q transitive. Every
value restriction a label can hold is a subconcept of the knowledge base
or a narrowing of one to a subrole, and both cases need R- to be a
subrole of an occurring restriction's role. `pulling_roles` lists the R
for which that holds, from the concepts and the role box alone, and the
engine calls `_backward` only for existentials over those roles: the
table is exact in that every other call would return the empty set. It
is built at the first state, so a run without existentials pays
nothing. On the hot path the engine asks whether a formula is in the
label, a frozenset of formulas, or in rformulas, a uid bitset (bit
`f.uid` set for each reduced f), instead of building their union; only
the witness builder decodes the bits (`FormulaStore.members`). Only
value restrictions force anything across an edge, so the transfer
operators are handed a label's split part of them, not the whole label.
A complex label's part is read per individual, as its assertions' bodies:
`_forward` keeps the existential's individual's, and the univ' scan groups
the part once, so a role assertion reads only its two individuals' part.

The event trace, `("rule", tag, node)` and `("status", node, status)`
tuples in the order they happen (an INCOMPLETE state's event also holds
its `conv_method` and `fmls_rc`), is recorded only on request:
`decide_sat(kb, trace=True)`. Otherwise `engine.trace` stays empty and
the engine builds no event.
"""
from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import syntax as sx
from .graph import (
    DETERMINED,
    EMPTY,
    EXPANDED,
    INCOMPLETE,
    NONSTATE,
    SAT,
    STATE,
    UNEXPANDED,
    UNSAT,
    TableauGraph,
)
from .rbox import kb_index
from .syntax import FormulaStore, KnowledgeBase, complement, ordered, uid_bits
from .transfer import transfer_concepts, transfer_concepts_to

# bench/tracing.py wraps these two retired names by attribute (ROADMAP item 10).
transfer_assertions = transfer_assertions_from = None

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


class RuleInstance(NamedTuple):
    """A rule chosen for a node: its tag, the transitional rule's
    existentials, and a static rule's successor labels and their
    rformulas, a uid bitset. Only the scan reads a static rule's principal."""
    tag: str
    principals: tuple = ()
    labels: tuple = ()
    rformulas: int = 0


def _tag(rule, f) -> str:
    """`rule`'s tag on the principal `f`: primed when `f` is an assertion."""
    return rule + "'" if f.kind == sx.INST else rule


_UNSEEN = object()  # a `_steps` miss: None is a saturated node's step


def _unreduced(formulas: frozenset, rf: int) -> frozenset:
    """The members of `formulas` whose uid bit is clear in `rf`."""
    return frozenset(f for f in formulas if not rf >> f.uid & 1) if rf and formulas else formulas


@dataclass
class Verdict:
    sat: bool
    graph: TableauGraph
    stats: dict
    engine: "TableauEngine"


_uid = operator.attrgetter("uid")


def t_unsat(store: FormulaStore, label, parent=EMPTY) -> bool:
    """Obvious refutation of `label`: bottom in either label form, or a
    complementary pair. `parent` is a label this test passed: it holds no
    pair and its members have their complements built (role assertions
    have none). Only the members `label` adds to it are read, in uid order,
    and they intern what a walk of all of `label` in uid order would, in
    the same order. A member of `parent` interns nothing on that walk and
    clashes only with an added complement; the added members' `neg` fields
    find the first such member, where the walk stops, with no interning.
    Against the empty label every member is read. The engine
    saturates a state's local graph before testing it, so a label made
    from a successor before that successor's test is tested against the
    empty label."""
    new, stop = label, None  # stop: the uid of the first member whose complement is added
    if parent:
        new = label - parent
        for f in new:
            c = f.neg
            if c in label and (stop is None or c.uid < stop):
                stop = c.uid
        if stop is not None:
            new = [f for f in new if f.uid <= stop]
    for f in sorted(new, key=_uid) if len(new) > 1 else new:
        c = f.body
        if c is not None and (c.kind == sx.BOT or (f.neg or complement(store, f)) in label):
            return True
    return stop is not None


# The part of a split that takes a member, by the kind of its body (a role
# assertion is its own body here), in the order the rule scan reads them.
_PART = {sx.AND: 0, sx.ALL: 1, sx.REL: 2, sx.OR: 3, sx.SOME: 4}


def _part(f):
    return _PART.get((f.body or f).kind)


def split_label(label) -> tuple:
    """`label`'s conjunctions, value restrictions, role assertions,
    disjunctions and existentials, in either label form, each a tuple in
    uid order: it sorts `label`, which `derive_split` does not."""
    parts = ([], [], [], [], [])
    for f in ordered(label):
        i = _part(f)
        if i is not None:
            parts[i].append(f)
    return tuple(map(tuple, parts))


def derive_split(split: tuple, parent, label) -> tuple:
    """The split of `label` from `split`, the split of `parent`: the
    members `label` drops leave their part and those it adds are put in
    theirs by uid, so nothing is sorted and only the parts that change are
    copied."""
    added = label - parent
    parts = list(split)
    if len(parent) + len(added) > len(label):  # `label` drops members of `parent`
        for f in parent - label:
            i = _part(f)
            if i is not None:
                part = parts[i]
                j = part.index(f)
                parts[i] = part[:j] + part[j + 1 :]
    for f in added:
        i = _part(f)
        if i is not None:
            part = parts[i]
            j = bisect_left(part, f.uid, key=_uid)
            parts[i] = part[:j] + (f,) + part[j:]
    return tuple(parts)


def pulling_roles(kb: KnowledgeBase, idx) -> frozenset:
    """The roles R across which a successor can force something back: the
    inverses of the subroles of every value restriction's role in the
    knowledge base's concepts. `_backward` over an R edge reads (all R-.D),
    and (all Q.D) with R- <= Q and Q transitive; a label's value
    restrictions are subconcepts of the knowledge base or their narrowings
    to subroles, and in both cases R- is a subrole of an occurring
    restriction's role. Interns nothing."""
    univ_roles = {c.role for root in kb.concepts for c in sx.subconcepts(root) if c.kind == sx.ALL}
    return frozenset(r.inverse for q in univ_roles for r in idx.subroles_of(q))


class TableauEngine:
    def __init__(self, kb: KnowledgeBase, strategy: str = "dfs", trace: bool = False):
        self.kb = kb
        self.store = kb.store
        self.idx = kb_index(kb)
        self.graph = TableauGraph(strategy)
        self.tbox_set = frozenset(kb.tbox)
        self.rule_counts: Counter = Counter()
        self.tracing = trace
        self.trace: list = []  # the events, when `tracing`
        self._split: dict = {}  # label -> its split by kind (`split_label`, `derive_split`)
        self._clash: dict = {}  # label -> t_unsat(store, label)
        self._steps: dict = {}  # (node_type, label, rformulas) -> RuleInstance or None
        self._pulling = None  # pulling_roles, built at the first state

    # -- bookkeeping ---------------------------------------------------

    def _set_status(self, node, status) -> None:
        node.status = status
        if self.tracing:
            if status == INCOMPLETE and node.node_type == STATE:
                self.trace.append(("status", node.id, status, node.conv_method, node.fmls_rc))
            else:
                self.trace.append(("status", node.id, status))

    def _lift(self, f, c):
        """`c` in the label form of `f`: as is, or asserted of `f`'s individual."""
        return self.store.inst(f.ind, c) if f.kind == sx.INST else c

    def _forward(self, ex, label):
        """What `label`, holding the existential `ex`, forces on the simple
        successor that realizes `ex`. Only the label's value restrictions
        can force anything, so only they are passed on."""
        univ = self._kinds(label)[1]
        if ex.kind == sx.INST:
            univ = [f.body for f in univ if f.ind == ex.ind]
        return transfer_concepts(self.idx, univ, ex.body.role)

    def _backward(self, ex, label, parent=None) -> frozenset:
        """What the simple `label` of `ex`'s successor, made from `parent`
        when that is known, forces back across the edge, in the label form
        of `ex`: only the label's value restrictions are read. A repeated
        call interns nothing: its assertions were interned by the first."""
        role = ex.body.role.inverse
        univ = self._kinds(label, parent)[1]
        if ex.kind == sx.INST:
            return frozenset(transfer_concepts_to(self.idx, self.store, univ, role, ex.ind))
        return frozenset(transfer_concepts(self.idx, univ, role))

    def _pulls(self, ex) -> bool:
        """Whether the successor of `ex` can force anything back across
        its edge, i.e. whether `_backward(ex, ...)` can be non-empty."""
        if self._pulling is None:
            self._pulling = pulling_roles(self.kb, self.idx)
        return ex.body.role in self._pulling

    def _clashes(self, label, parent=None) -> bool:
        """`t_unsat` of `label`, computed once per run: against `parent`,
        the label of the or-node it was made from, when that is known
        clash-free, else against the empty label."""
        out = self._clash.get(label)
        if out is None:
            base = parent if self._clash.get(parent) is False else EMPTY
            out = self._clash[label] = t_unsat(self.store, label, base)
        return out

    def _kinds(self, label, parent=None) -> tuple:
        """`label`'s split, made once per run: derived from the split of
        `parent` when that is known, else by `split_label`."""
        split = self._split.get(label)
        if split is None:
            base = self._split.get(parent)
            split = split_label(label) if base is None else derive_split(base, parent, label)
            self._split[label] = split
        return split

    # -- rule selection -------------------------------------------------

    def applicable_rule(self, v) -> RuleInstance | None:
        """Best applicable rule instance for `v`, or None when `v` is
        saturated. Choice is deterministic: highest priority first, then
        rule kind, then smallest principal in the fixed formula order,
        then smallest auxiliary role.

        The instance, conclusions included, reads only `v`'s node type,
        label and rformulas, so it is made once per run for each such
        content (`_steps`) and a later node of that content gets it too."""
        node = self.graph.nodes[v]
        key = (node.node_type, node.label, node.rformulas)
        rule = self._steps.get(key, _UNSEEN)
        if rule is _UNSEEN:
            rule = self._steps[key] = self._scan(node)
        return rule

    def _scan(self, node) -> RuleInstance | None:
        """`applicable_rule`'s choice, from the label's split, one kind at a
        time; a static rule comes with its conclusions. The split is derived
        from that of the or-node `node` was made from, its first
        predecessor."""
        parent = None
        if node.preds:
            pred = self.graph.nodes[node.preds[0]]
            parent = pred.label if pred.node_type == NONSTATE else None
        conj, univ, rel, disj, some = self._kinds(node.label, parent)
        if node.node_type == STATE:
            return RuleInstance(_tag(R_EXISTS, some[0]), principals=some) if some else None

        label, rf = node.label, node.rformulas
        for f in conj:
            if not rf >> f.uid & 1:
                return self._decompose(R_AND, f, node)

        if univ:  # narrowing and univ' both act on a value restriction
            store = self.store
            for f in univ:
                c = f.body
                for r in self.idx.subroles_of(c.role):
                    if r == c.role:  # a narrowing to c's own role is f itself
                        continue
                    added = self._lift(f, store.univ(r, c.child))
                    if added not in label and not rf >> added.uid & 1:
                        return RuleInstance(_tag(R_HIER, f), labels=(label | {added},), rformulas=rf)

            if rel:  # univ' reads role assertions, found in complex labels only
                by_ind: dict = {}  # each individual's value restrictions, in uid order
                for f in univ:
                    by_ind.setdefault(f.ind, []).append(f.body)
                for f in rel:
                    derived = (
                        transfer_concepts_to(self.idx, store, by_ind.get(f.a, ()), f.role, f.b)
                        | transfer_concepts_to(self.idx, store, by_ind.get(f.b, ()), f.role.inverse, f.a)
                    )
                    added = _unreduced(derived - label, rf)
                    if added:
                        return RuleInstance(R_UNIV_A, labels=(label | added,), rformulas=rf)

        for f in disj:
            if not rf >> f.uid & 1:
                return self._decompose(R_OR, f, node)

        return RuleInstance(R_FORM) if some else None

    def _decompose(self, rule, f, node) -> RuleInstance:
        """The and/or `rule` on `f`: consume it and add its concept's parts,
        both to one successor for a conjunction, one to each of two for a
        disjunction."""
        c = f.body
        left, right = self._lift(f, c.left), self._lift(f, c.right)
        base = node.label - {f}
        labels = (base | {left, right},) if c.kind == sx.AND else (base | {left}, base | {right})
        return RuleInstance(_tag(rule, f), labels=labels, rformulas=node.rformulas | 1 << f.uid)

    # -- rule application -------------------------------------------------

    def apply_rule(self, rule: RuleInstance, v) -> None:
        g = self.graph
        node = g.nodes[v]
        assert node.status == (EXPANDED if rule.tag == R_CONV else UNEXPANDED)
        node.expansions += 1
        node.rule = rule.tag
        self.rule_counts[rule.tag] += 1
        if self.tracing:
            self.trace.append(("rule", rule.tag, v))

        if rule.tag == R_FORM:
            g.con_to_succ(v, STATE, node.label, node.rformulas, node.dformulas)
        elif rule.tag == R_CONV:
            self.apply_conv_rule(v)
        elif rule.principals:  # exists, exists'
            self.apply_trans_rule(rule, v)
        else:
            for x in rule.labels:
                g.con_to_succ(v, NONSTATE, x, rule.rformulas, node.dformulas)

        # A state its local pass settled walks straight up; any other node's successors
        # are tested. An or-node's are checked for demands on its local graph's state v0,
        # the first predecessor of the graph's head v1, only when the head's existential
        # can pull (the root's graph has none) and they are or-nodes, which every rule
        # but form-state makes. A state gets here only with its demands all met.
        if node.status not in DETERMINED:
            self._set_status(node, EXPANDED)
            pulls, parent = False, None
            if node.node_type == NONSTATE:
                parent, v1 = node.label, g.nodes[node.after_trans_pred]
                if rule.tag != R_FORM and v1.ce_label is not None and self._pulls(v1.ce_label):
                    pulls, v0 = True, g.nodes[v1.preds[0]]
            for w in node.succs:
                wn = g.nodes[w]
                if wn.status in DETERMINED:
                    continue
                if self._clashes(wn.label, parent):
                    self._set_status(wn, UNSAT)
                elif pulls:
                    x = _unreduced(self._backward(v1.ce_label, wn.label, parent) - v0.label, v0.rformulas)
                    if x:
                        disallowed = uid_bits(x) & v0.dformulas
                        if v0.conv_method == 0:
                            if v0.status != UNSAT:  # a refuted state takes no more demands
                                v0.fmls_rc |= x
                                if disallowed:
                                    self._set_status(v0, UNSAT)
                        elif disallowed:
                            self._set_status(wn, UNSAT)
                        else:
                            v1.alt_fml_sets |= {x}
                            self._set_status(wn, INCOMPLETE)
            self.update_status(v)
        # a converse repair is made only by update_status, whose caller walks on from v
        if node.status in DETERMINED and rule.tag != R_CONV:
            self.propagate_status(v)

    def apply_trans_rule(self, rule: RuleInstance, u) -> None:
        """Expand a state: one fresh successor per existential obligation,
        then saturate the new local graph with the unary static rules."""
        g = self.graph
        un = g.nodes[u]
        assert un.node_type == STATE

        w = len(g.nodes)
        for f in rule.principals:
            label = frozenset({f.body.child}) | self._forward(f, un.label) | self.tbox_set
            g.new_succ(u, NONSTATE, f, label, 0, 0)
            if self._pulls(f):
                un.fmls_rc |= _unreduced(self._backward(f, label) - un.label, un.rformulas)

        if uid_bits(un.fmls_rc) & un.dformulas:
            self._set_status(un, UNSAT)

        # The local graph is new: its members are exactly the nodes created
        # from the first successor on, since priority-5 rules only add or-nodes
        # under the member they expand. One pass over them, reaching the ones
        # the pass itself creates, suffices: node content is fixed and no
        # status returns to UNEXPANDED, so a member skipped once stays skipped.
        while w < len(g.nodes) and un.status != UNSAT:
            wn = g.nodes[w]
            assert g.nodes[wn.after_trans_pred].preds[0] == u
            if wn.status == UNEXPANDED:
                inst = self.applicable_rule(w)
                if inst is not None and PRIORITY[inst.tag] == 5:
                    self.apply_rule(inst, w)
            w += 1

        if un.status != UNSAT and un.fmls_rc:
            self._set_status(un, INCOMPLETE)

    def apply_conv_rule(self, v) -> None:
        """Re-expand `v` after its state demanded more formulas: drop the
        edge and connect `v` to one successor per requirement set. Mode 0
        has the single set `fmls_rc`; mode 1 has its alternative sets,
        singletons first in uid order, then the larger ones by sorted uids.
        Each successor disallows the singletons tried before it."""
        g = self.graph
        node = g.nodes[v]
        assert len(node.succs) == 1
        w = node.succs[0]
        wn = g.nodes[w]
        assert wn.node_type == STATE
        g.remove_edge(v, w)

        if wn.conv_method == 0:
            sets = [wn.fmls_rc]
        else:
            sets = sorted(wn.alt_fml_sets, key=lambda s: (len(s) > 1, sorted(f.uid for f in s)))
        tried = 0  # the uid bits of the singletons tried
        for x in sets:
            g.con_to_succ(v, NONSTATE, node.label | x, node.rformulas, node.dformulas | tried)
            if len(x) == 1:
                tried |= uid_bits(x)

    # -- status flow ------------------------------------------------------

    def update_status(self, v) -> None:
        """Settle the expanded `v` from its successors' statuses, in one
        pass over them. An or-node is SAT if a successor is, else UNSAT if
        all are; if all are INCOMPLETE or UNSAT it is repaired by the
        converse rule when form-state expanded it (its one successor is
        then a state), else INCOMPLETE. A state is SAT if all successors
        are, else UNSAT if one is, else INCOMPLETE with the alternative
        sets of its first INCOMPLETE one."""
        nodes = self.graph.nodes
        node = nodes[v]
        assert node.status == EXPANDED
        succs = node.succs
        if node.node_type == NONSTATE:
            unsat = incomplete = 0
            for w in succs:
                status = nodes[w].status
                if status == SAT:
                    self._set_status(node, SAT)
                    return
                if status == UNSAT:
                    unsat += 1
                elif status == INCOMPLETE:
                    incomplete += 1
            if unsat == len(succs):
                self._set_status(node, UNSAT)
            elif unsat + incomplete == len(succs):
                if node.rule == R_FORM:
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
                node.alt_fml_sets = first.alt_fml_sets
                self._set_status(node, INCOMPLETE)

    def propagate_status(self, v) -> None:
        nodes = self.graph.nodes
        work = [v]
        while work:
            # a copy: update_status may apply the converse rule, which drops an edge
            for u in list(nodes[work.pop()].preds):
                un = nodes[u]
                if un.status == EXPANDED:
                    self.update_status(u)
                    if un.status in DETERMINED:
                        work.append(u)

    # -- top level ---------------------------------------------------------

    def run(self) -> TableauGraph:
        kb = self.kb
        g = self.graph
        tbox_asserted = {self.store.inst(a, c) for a in kb.individuals for c in kb.tbox}
        g.root = g.new_succ(None, NONSTATE, None, frozenset(kb.abox) | tbox_asserted, 0, 0)
        rn = g.nodes[g.root]
        if self._clashes(rn.label):
            self._set_status(rn, UNSAT)

        while (v := g.to_expand()) is not None:
            inst = self.applicable_rule(v)
            if inst is None:
                self._set_status(g.nodes[v], SAT)
                self.propagate_status(v)
                continue
            self.apply_rule(inst, v)
        self._split.clear()
        self._clash.clear()
        self._steps.clear()
        return g

    def stats(self) -> dict:
        return {
            "nodes": len(self.graph.nodes),
            "states": sum(1 for n in self.graph.nodes if n.node_type == STATE),
            "rule_applications": dict(self.rule_counts),
        }


def decide_sat(kb: KnowledgeBase, strategy: str = "dfs", trace: bool = False) -> Verdict:
    """Decide satisfiability of `kb`: SAT iff the finished root is not
    refuted. With `trace`, `verdict.engine.trace` holds the run's events."""
    engine = TableauEngine(kb, strategy=strategy, trace=trace)
    engine.run()
    sat = engine.graph.nodes[engine.graph.root].status != UNSAT
    return Verdict(sat=sat, graph=engine.graph, stats=engine.stats(), engine=engine)
