"""Witness models: extraction from a finished graph and semantic checking.

From a run that did not refute the root we first read off a *model
graph*: a finite set of elements, each carrying the concept set of a
fully saturated node (its label and the formulas it reduced, which the
node keeps as uid bits), plus raw role edges. ABox individuals take
their concepts from the endpoint of the root's saturation path; every
existential obligation is then realized by following the successor the
engine created for it, walking to a saturated endpoint, and reusing the
element created for the same concept set when there is one. A state's
successors are read once, into a map from the existential each realizes
to the first one that does, so an obligation costs a lookup.

The model graph induces an interpretation through the standard SHI
construction: a role holds the raw edges of its subroles, the reversed
raw edges of the subroles of its inverse, and the transitive closure of
those of each transitive subrole. The role box is closed already, so
this is read off directly, with no fixpoint over edges; the chains come
from `rbox.transitive_closure`, the routine that closes the role box
itself. `eval_concept` and `check_model` implement the plain set
semantics independently and are shared by the differential oracle.

Both read each role through successor and predecessor maps built once
per call, so `some` and `all` are preimages and no subconcept scans the
domain element by element; `check_model` evaluates each distinct
subconcept once. The set work stays O(|domain|) per `all` and negation,
so the pullback family of `tests/helpers.py` still checks in
Theta(|domain| * subconcepts); that is left for a later change.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import syntax as sx
from .graph import INCOMPLETE, STATE, UNSAT
from .rbox import RBoxIndex, successor_map, transitive_closure
from .syntax import KnowledgeBase, Role, ordered


@dataclass
class ModelGraph:
    domain: list  # elements; ABox individuals first
    concepts: dict  # element -> frozenset of concepts
    edges: dict  # Role -> set of (element, element)
    named: list  # the ABox individuals


@dataclass
class Interpretation:
    domain: list
    atoms: dict  # concept name -> set of elements
    roles: dict  # role *name* -> set of pairs; inverses are derived
    individuals: dict  # individual name -> element


def saturation_path(graph, v) -> list:
    """Walk from the or-node `v` through unrefuted successors until a
    state (or a saturated leaf with nothing left to realize) is reached.

    Deterministic: always the first qualifying successor in creation
    order. Only meaningful on nodes that are neither refuted nor pending
    a converse repair.
    """
    nodes = graph.nodes
    assert nodes[v].status not in (UNSAT, INCOMPLETE)
    path = [v]
    seen = {v}
    while nodes[v].node_type != STATE:
        candidates = [
            w for w in sorted(nodes[v].succs)
            if nodes[w].status not in (UNSAT, INCOMPLETE)
        ]
        if not candidates:
            break
        v = candidates[0]
        assert v not in seen, "saturation path revisited a node"
        seen.add(v)
        path.append(v)
    return path


def _fresh_names(taken):
    """x1, x2, ... in order, skipping names in `taken`. Names are only
    ever added to `taken`, so each draw is the smallest free name and the
    scan never restarts: drawing n names costs O(n) in all."""
    for i in count(1):
        if f"x{i}" not in taken:
            yield f"x{i}"


def node_formulas(store, node) -> frozenset:
    """What `node` holds: its label and the formulas it reduced, decoded
    from their uid bits only when there are any."""
    rf = node.rformulas
    return node.label.union(store.members(rf)) if rf else node.label


def extract_model_graph(graph, kb: KnowledgeBase) -> ModelGraph:
    """Build a model graph from a finished, unrefuted tableau."""
    vk = saturation_path(graph, graph.root)[-1]  # asserts the root is unrefuted
    nodes, store = graph.nodes, kb.store

    named = list(kb.individuals)
    domain = list(named)
    label: dict = {a: set() for a in named}  # one pass over the label for all individuals
    for f in node_formulas(store, nodes[vk]):
        if f.kind == sx.INST:
            label[f.ind].add(f.concept)
    concepts = {a: frozenset(cs) for a, cs in label.items()}  # keys: the domain
    edges: dict = {}
    for f in kb.abox:
        if f.kind == sx.REL:
            edges.setdefault(f.role, set()).add((f.a, f.b))

    anchor: dict = {}  # created element -> its state in the graph
    by_concepts: dict = {}  # concept set -> the created element carrying it
    realizers: dict = {}  # anchor node -> {existential: its first successor realizing it}
    fresh = _fresh_names(concepts)

    for x in domain:  # grows as elements are created
        for c in ordered(concepts[x]):
            if c.kind != sx.SOME:
                continue
            if x in anchor:
                u = anchor[x]
                want = c
            else:
                u = vk
                want = store.inst(x, c)
            realizer = realizers.get(u)
            if realizer is None:
                realizer = realizers[u] = {}
                for w in nodes[u].succs:
                    realizer.setdefault(nodes[w].ce_label, w)
            w0 = realizer.get(want)
            assert w0 is not None, "missing realization for an existential obligation"
            wpath = saturation_path(graph, w0)
            target = node_formulas(store, nodes[wpath[-1]])
            y = by_concepts.get(target)
            if y is None:
                y = next(fresh)
                domain.append(y)
                concepts[y] = target
                anchor[y] = wpath[-1]
                by_concepts[target] = y
            edges.setdefault(c.role, set()).add((x, y))

    return ModelGraph(domain=domain, concepts=concepts, edges=edges, named=named)


def close_role_relations(edges: dict, idx: RBoxIndex) -> dict:
    """The least role relations over the raw edges that are converse-
    coherent, monotone under role inclusion, and transitive where required.

    `idx` is already closed at the role level, so no fixpoint over edges
    is needed: R holds base(R), the raw edges of every S <= R plus the
    reversed raw edges of every S <= R-, together with the transitive
    closure of base(T) for every transitive T <= R (R itself included).
    The result has one entry for every role name of `idx`: R- holds the
    converse of R, which the witness check reads off R's pairs, and a
    transitive T- the converse of T's closure, so each transitive name is
    closed once.
    """
    names = [r for r in idx.roles if not r.inverted]
    base = {}
    for r in names:
        pairs = set()
        for s in idx.subroles_of(r):  # s <= r, and so s- <= r-
            pairs.update(edges.get(s, ()))
            pairs.update((b, a) for (a, b) in edges.get(s.inverse, ()))
        base[r] = pairs
    chains = {t: transitive_closure(base[t]) for t in names if t in idx.transitive}
    closed = {}
    for r in names:
        subs = [t for t in idx.subroles_of(r) if t in idx.transitive]
        closed[r] = base[r].union(*(_converse(chains[t.inverse]) if t.inverted else chains[t] for t in subs))
    return closed


def _converse(pairs) -> set:
    return {(b, a) for (a, b) in pairs}


def complete_relations(mg: ModelGraph, idx: RBoxIndex, concept_names) -> Interpretation:
    """The interpretation a model graph stands for, by role name."""
    closed = close_role_relations(mg.edges, idx)
    atoms: dict = {name: set() for name in concept_names}
    for x, cs in mg.concepts.items():
        for c in cs:
            if c.kind == sx.ATOM:
                atoms.setdefault(c.name, set()).add(x)
    return Interpretation(
        domain=list(mg.domain),
        atoms=atoms,
        roles={r.name: pairs for r, pairs in closed.items()},
        individuals={a: a for a in mg.named},
    )


_NONE = frozenset()  # the successors of an element that is no pair's source


class _RoleMaps(dict):
    """(role name, inverted), as a `Role` is, -> that role's successor map,
    built from its name's pairs on first use. R's predecessors are the
    successors of (R's name, not R.inverted). A hit is a plain dict
    lookup, so a check of a tiny model pays almost nothing for the maps."""

    __slots__ = ("relations",)

    def __init__(self, relations: dict):  # dict.__new__ made it empty already
        self.relations = relations

    def __missing__(self, role) -> dict:
        name, inverted = role
        if name not in self.relations:
            raise ValueError(f"unknown role name {name!r}")
        pairs = self.relations[name]
        succ = self[role] = successor_map(_converse(pairs) if inverted else pairs)
        return succ


def eval_concept(interp: Interpretation, concept) -> set:
    """The denotation of `concept` in `interp` under the standard set
    semantics. Subconcepts are evaluated bottom-up, each distinct one once,
    so nesting depth is not bounded by the recursion limit.

    A role's predecessor map is built once per call, on its first use.
    `some R.C` is the domain's part of the R-predecessors of C's elements,
    and `all R.C` the domain less the R-predecessors of the R-targets
    outside C. So a `some` subconcept costs O(|C| + the pairs into C), an
    `all` O(|domain| + |pairs of R|), and every other one the set
    operation it names."""
    return _evaluate(interp, concept, set(interp.domain), _RoleMaps(interp.roles), {})


def _evaluate(interp: Interpretation, concept, domain: set, maps: _RoleMaps, value: dict) -> set:
    """`eval_concept` over the domain as a set and the role maps and
    subconcept values of the check it serves, so that a subconcept shared
    by several axioms and assertions is evaluated once per check."""
    for c in reversed(sx.subconcepts(concept)):
        if c in value:
            continue
        k = c.kind
        if k == sx.TOP:
            out = domain
        elif k == sx.BOT:
            out = set()
        elif k == sx.ATOM:
            if c.name not in interp.atoms:
                raise ValueError(f"unknown concept name {c.name!r}")
            out = set(interp.atoms[c.name])
        elif k == sx.NOT:
            out = domain - value[c.child]
        elif k == sx.AND:
            out = value[c.left] & value[c.right]
        elif k == sx.OR:
            out = value[c.left] | value[c.right]
        elif k == sx.SOME:
            pred = maps[c.role.name, not c.role.inverted]
            out = set()
            for y in value[c.child]:
                if y in pred:
                    out |= pred[y]
            out &= domain
        elif k == sx.ALL:
            inner = value[c.child]
            out = set(domain)
            for y, xs in maps[c.role.name, not c.role.inverted].items():
                if y not in inner:
                    out -= xs
        else:
            raise ValueError(f"unknown concept kind {k!r}")
        value[c] = out
    return value[concept]


def check_model(interp: Interpretation, kb: KnowledgeBase) -> bool:
    """Does `interp` satisfy every axiom and assertion of `kb`?

    The whole check shares one set of role maps, so it reads each role
    name's pairs at most once in each direction. A role inclusion compares
    successor sets element by element, and a role assertion looks up one
    successor set. A transitive role passes when the successors of each
    successor b of an element a are successors of a, which costs the sum
    of |succ(b)| over its pairs (a, b). Each distinct subconcept of the
    axioms and assertions is evaluated once per check, at the cost
    `eval_concept` gives."""
    maps = _RoleMaps(interp.roles)
    for (r, s) in kb.role_subsumptions:
        sub, sup = maps[r], maps[s]
        if not all(bs <= sup.get(a, _NONE) for a, bs in sub.items()):
            return False
    for r in kb.transitive_roles:
        succ = maps[r]
        for bs in succ.values():
            for b in bs:
                if not succ.get(b, _NONE) <= bs:
                    return False
    domain, value = set(interp.domain), {}
    for concept in kb.tbox:
        if _evaluate(interp, concept, domain, maps, value) != domain:
            return False
    for f in kb.abox:
        if f.kind == sx.INST:
            if interp.individuals[f.ind] not in _evaluate(interp, f.concept, domain, maps, value):
                return False
        else:
            a, b = interp.individuals[f.a], interp.individuals[f.b]
            if b not in maps[f.role].get(a, _NONE):
                return False
    return True


def build_witness(graph, kb: KnowledgeBase, idx: RBoxIndex) -> Interpretation:
    """Extraction pipeline: model graph, then relation completion."""
    mg = extract_model_graph(graph, kb)
    return complete_relations(mg, idx, kb.concept_names)
