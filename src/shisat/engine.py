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
and only the tag, primed on complex nodes, tells them apart. The clash
tests read each member's complement from its `neg` field and build it
only where the field is still empty.

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
it up afterwards. Three dicts hold that work. `_clash` holds each label's
`t_unsat` result and `_split` its split: the members the rule scan reads,
by kind (conjunctions, value restrictions, role assertions, disjunctions,
existentials), each in uid order. `_steps` is keyed by a node's content
(node type, form, label, rformulas), which comes back across local graphs
and across dformulas. It holds the rule instance `applicable_rule` chose
for that content and, once a static rule has been applied to it, the
successor labels and rformulas. The memo is exact: the scan and the
conclusions read those four fields and nothing else. The dicts live on
the engine, not on the nodes, and are dropped when the run ends.

Apart from the root's and a state's fresh successors', every label is
made from an or-node's label by a rule: minus the consumed principal,
plus the conclusions. Both per-label walks read only that delta, so the
work per node does not grow with the label. The clash test of a label
made from a label known clash-free is `t_unsat_delta`: the full walk
found no clash in the parent and built the complement of each of its
members, so only the added members can clash or intern anything, and the
walk over them stops where the full walk would (at the first member whose
complement is added), so it interns the same formulas in the same order.
A split is derived from the split of the or-node a node was made from
(`derive_split`): dropped members leave their part, added ones are put
in place by uid, and parts that do not change are shared. A label is
sorted at most once, and only when it needs the full clash test: a fresh
label, or one made from a fresh successor before that successor's own
test (a state's local graph is saturated first). Its split is then made
from the sort and keeps the sorted members, which the test walks. None of this changes the uid order: a memo hit replays a
call whose formulas were interned on its miss, and the subrole
narrowings, which intern new formulas, are still built lazily during the
rule scan, in the same order as before.

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
label or in rformulas instead of building their union, `aformulas`,
which stays a node property for the witness builder. Only value
restrictions force anything across an edge, so the transfer operators
are handed a label's split part of them, not the whole label.

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


class RuleInstance(NamedTuple):
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


def t_unsat(store: FormulaStore, label, members=None) -> bool:
    """Obvious refutation: bottom in either label form, or a complementary
    pair. Members are tried in uid order (`members`, when the caller has
    sorted `label` already), so the complements interned on the way do not
    depend on set iteration order, and the walk stops at the first clash.
    When it returns False, it has built the complement of every member but
    the role assertions, which have none; `t_unsat_delta` rests on that.
    This is the reference clash test. The engine runs it on the root, on a
    state's fresh successors and on a label made from a successor before
    that successor's own test, and `t_unsat_delta` on every other label."""
    for f in ordered(label) if members is None else members:
        c = f.body
        if c is not None and (c.kind == sx.BOT or (f.neg or complement(store, f)) in label):
            return True
    return False


_uid = operator.attrgetter("uid")


def t_unsat_delta(store: FormulaStore, label, parent) -> bool:
    """`t_unsat(store, label)`, given that `t_unsat(store, parent)` has
    returned False: it reads only the members `label` adds to `parent`,
    and interns what the full walk would, in the same order.

    A member of `parent` has its complement built, so the full walk
    interns nothing at it, and it clashes there only if its complement is
    one of the added members (`parent` holds no pair). The added members
    are walked in uid order as the full walk would walk them, but only up
    to the first member whose complement is added: the full walk stops
    there, before it builds the complements of the added members after
    it. That complement is built already, so its `neg` field finds the
    stop without interning anything."""
    new = label - parent
    stop = None  # the uid of the first member whose complement is added
    for f in new:
        c = f.neg
        if c in label and (stop is None or c.uid < stop):
            stop = c.uid
    for f in sorted(new, key=_uid) if len(new) > 1 else new:
        if stop is not None and f.uid > stop:
            return True
        c = f.body
        if c is not None and (c.kind == sx.BOT or (f.neg or complement(store, f)) in label):
            return True
    return stop is not None


# The part of a split that takes a member, by the kind of its body (a role
# assertion is its own body here), in the order the rule scan reads them.
_PART = {sx.AND: 0, sx.ALL: 1, sx.REL: 2, sx.OR: 3, sx.SOME: 4}


def _part(f):
    return _PART.get((f.body or f).kind)


def split_label(members: tuple) -> tuple:
    """The split of the label whose members are `members`, in uid order:
    its conjunctions, value restrictions, role assertions, disjunctions
    and existentials, in either label form, each a tuple in uid order,
    then `members` itself."""
    parts = ([], [], [], [], [])
    for f in members:
        i = _part(f)
        if i is not None:
            parts[i].append(f)
    return (*map(tuple, parts), members)


def derive_split(split: tuple, parent, label) -> tuple:
    """The split of `label` from `split`, the split of `parent`: the
    members `label` drops leave their part and those it adds are put in
    theirs by uid, so nothing is sorted and only the parts that change are
    copied. Its last slot is None: a derived split keeps no sorted copy of
    the whole label."""
    added = label - parent
    parts = list(split)
    parts[5] = None
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
    inverses of the subroles of every value restriction's role in the TBox
    and ABox concepts. `_backward` over an R edge reads (all R-.D), and
    (all Q.D) with R- <= Q and Q transitive; a label's value restrictions
    are subconcepts of the knowledge base or their narrowings to subroles,
    and in both cases R- is a subrole of an occurring restriction's role.
    Walks the concepts with an explicit stack and interns nothing."""
    stack = list(kb.tbox)
    stack += [f.concept for f in kb.abox if f.kind == sx.INST]
    seen: set = set()
    univ_roles: set = set()
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        if c.kind in (sx.AND, sx.OR):
            stack += (c.left, c.right)
        elif c.child is not None:
            stack.append(c.child)
            if c.kind == sx.ALL:
                univ_roles.add(c.role)
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
        self._steps: dict = {}  # (node_type, stype, label, rformulas) -> [rule, (labels, rformulas) or None]
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
        role = ex.body.role
        univ = self._kinds(label)[1]
        if ex.kind == sx.INST:
            return transfer_assertions_from(self.idx, univ, ex.ind, role)
        return transfer_concepts(self.idx, univ, role)

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
        """`t_unsat` of `label`, computed once per run: by `t_unsat_delta`
        when `parent`, the label of the or-node it was made from, is known
        clash-free, else by the full walk over its sorted members."""
        out = self._clash.get(label)
        if out is None:
            if self._clash.get(parent) is False:
                out = t_unsat_delta(self.store, label, parent)
            else:
                out = t_unsat(self.store, label, self._kinds(label)[5])
            self._clash[label] = out
        return out

    def _kinds(self, label, parent=None) -> tuple:
        """`label`'s split, made once per run: derived from the split of
        `parent` when that is known, else by sorting `label`, in which case
        it keeps the sorted members for the label's full clash test."""
        split = self._split.get(label)
        if split is None:
            base = self._split.get(parent)
            split = split_label(tuple(ordered(label))) if base is None else derive_split(base, parent, label)
            self._split[label] = split
        return split

    # -- rule selection -------------------------------------------------

    def applicable_rule(self, v) -> RuleInstance | None:
        """Best applicable rule instance for `v`, or None when `v` is
        saturated. Choice is deterministic: highest priority first, then
        rule kind, then smallest principal in the fixed formula order,
        then smallest auxiliary role.

        The choice reads only `v`'s node type, form, label and rformulas,
        so it is made once per run for each such content (`_steps`) and
        a later node of the same content gets the same instance."""
        node = self.graph.nodes[v]
        key = (node.node_type, node.stype, node.label, node.rformulas)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = [self._scan(node), None]
        return step[0]

    def _scan(self, node) -> RuleInstance | None:
        """`applicable_rule`'s choice, from the label's split, one kind at a
        time. The split is derived from that of the or-node `node` was made
        from, its first predecessor. What the scan tests against the node's
        label and rformulas, and the narrowings it interns, are computed per
        call, in the same order as a scan of the sorted label would."""
        prime = "" if node.stype == SIMPLE else "'"
        parent = None
        if node.preds:
            pred = self.graph.nodes[node.preds[0]]
            parent = pred.label if pred.node_type == NONSTATE else None
        conj, univ, rel, disj, some, _ = self._kinds(node.label, parent)
        if node.node_type == STATE:
            return RuleInstance(R_EXISTS + prime, principals=some) if some else None

        label, rf = node.label, node.rformulas
        for f in conj:
            if f not in rf:
                return RuleInstance(R_AND + prime, principal=f)

        if univ:  # narrowing and univ' both act on a value restriction
            store = self.store
            for f in univ:
                c = f.body
                for r in self.idx.subroles_of(c.role):
                    if r == c.role:  # a narrowing to c's own role is f itself
                        continue
                    added = self._lift(f, store.univ(r, c.child))
                    if added not in label and added not in rf:
                        return RuleInstance(R_HIER + prime, principal=f, added=frozenset({added}))

            for f in rel:  # univ' reads role assertions, found in complex labels only
                added = (
                    transfer_assertions(self.idx, store, univ, f.a, f.role, f.b)
                    | transfer_assertions(self.idx, store, univ, f.b, f.role.inverse, f.a)
                ) - label - rf
                if added:
                    return RuleInstance(R_UNIV_A, principal=f, added=frozenset(added))

        for f in disj:
            if f not in rf:
                return RuleInstance(R_OR + prime, principal=f)

        return RuleInstance(R_FORM) if some else None

    # -- rule application -------------------------------------------------

    def _static_conclusions(self, rule: RuleInstance, node) -> tuple:
        """Successor labels and their rformulas for a static rule: and/or
        split the principal's concept into its parts and consume the
        principal, hier/univ' add `rule.added` and keep it. Built on the
        first application of a step and kept in `_steps` with the rule:
        they read nothing but the step's key."""
        step = self._steps[(node.node_type, node.stype, node.label, node.rformulas)]
        assert step[0] is rule  # every static rule comes from applicable_rule
        if step[1] is None:
            if rule.added:
                step[1] = ((node.label | rule.added,), node.rformulas)
            else:
                f = rule.principal
                c = f.body
                left, right = self._lift(f, c.left), self._lift(f, c.right)
                base = node.label - {f}
                labels = (base | {left, right},) if c.kind == sx.AND else (base | {left}, base | {right})
                step[1] = (labels, node.rformulas | {f})
        return step[1]

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
            if node.status in DETERMINED:
                self.propagate_status(v)
                return
        else:
            labels, rfmls = self._static_conclusions(rule, node)
            for x in labels:
                g.con_to_succ(v, NONSTATE, x, rfmls, node.dformulas)

        self._set_status(node, EXPANDED)

        # Only an or-node under a state has a state_pred, and its successors
        # are checked for demands on the state only when the local graph's
        # existential can pull. A state gets here only with fmls_rc empty:
        # its successors' demands are all met.
        pulls = False
        parent = node.label if node.node_type == NONSTATE else None
        if node.state_pred is not None:
            v0, v1 = g.nodes[node.state_pred], g.nodes[node.after_trans_pred]
            pulls = self._pulls(v1.ce_label)
        for w in node.succs:
            wn = g.nodes[w]
            if wn.status in DETERMINED:
                continue
            if self._clashes(wn.label, parent):
                self._set_status(wn, UNSAT)
            elif pulls and wn.node_type == NONSTATE:
                x = self._backward(v1.ce_label, wn.label, parent) - v0.label - v0.rformulas
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
        un = g.nodes[u]
        assert un.node_type == STATE

        w = len(g.nodes)
        for f in rule.principals:
            label = frozenset({f.body.child}) | self._forward(f, un.label) | self.tbox_set
            g.new_succ(u, NONSTATE, SIMPLE, f, label, EMPTY, EMPTY)
            if self._pulls(f):
                un.fmls_rc |= self._backward(f, label) - un.label - un.rformulas

        if un.fmls_rc & un.dformulas:
            self._set_status(un, UNSAT)

        # The local graph is new: its members are exactly the nodes created
        # from the first successor on, since priority-5 rules only add or-nodes
        # under the member they expand. One pass over them, reaching the ones
        # the pass itself creates, suffices: node content is fixed and no
        # status returns to UNEXPANDED, so a member skipped once stays skipped.
        while w < len(g.nodes) and un.status != UNSAT:
            wn = g.nodes[w]
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
        node = g.nodes[v]
        assert len(node.succs) == 1
        w = node.succs[0]
        wn = g.nodes[w]
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
        nodes = self.graph.nodes
        node = nodes[v]
        if node.status != EXPANDED:
            return
        succs = node.succs
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
        nodes = self.graph.nodes
        work = [v]
        while work:
            x = work.pop()
            # a copy: update_status may apply the converse rule, which drops the edge into x
            for u in list(nodes[x].preds):
                un = nodes[u]
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
