"""Witness models: extraction from a finished graph and semantic checking.

From a run that did not refute the root we first read off a *model
graph*: a finite set of elements, each carrying the concept set of a
fully saturated node, plus raw role edges. ABox individuals take their
concepts from the endpoint of the root's saturation path; every
existential obligation is then realized by following the successor the
engine created for it, walking to a saturated endpoint, and reusing the
element created for the same concept set when there is one.

The model graph induces an interpretation through the standard SHI
construction: a role holds the raw edges of its subroles, the reversed
raw edges of the subroles of its inverse, and the transitive closure of
those of each transitive subrole. The role box is closed already, so
this is read off directly, with no fixpoint over edges; the chains come
from `rbox.transitive_closure`, the routine that closes the role box
itself. `eval_concept` and `check_model` implement the plain set
semantics independently and are shared by the differential oracle.

Both read a role through its successor map (element -> successors),
built once per role and call. An `all` or `some` subconcept then costs
O(|domain| + |pairs|) rather than O(|domain| * |pairs|), and the
transitivity test compares successor sets along each pair instead of
joining every pair with every other.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import syntax as sx
from .graph import INCOMPLETE, STATE, UNSAT
from .rbox import RBoxIndex, successor_map, transitive_closure
from .syntax import KnowledgeBase, Role, concepts_of, ordered


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
    node = graph.node(v)
    assert node.status not in (UNSAT, INCOMPLETE)
    path = [v]
    seen = {v}
    while graph.node(v).node_type != STATE:
        candidates = [
            w for w in sorted(graph.successors(v))
            if graph.node(w).status not in (UNSAT, INCOMPLETE)
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


def extract_model_graph(graph, kb: KnowledgeBase) -> ModelGraph:
    """Build a model graph from a finished, unrefuted tableau."""
    vk = saturation_path(graph, graph.root)[-1]  # asserts the root is unrefuted

    named = list(kb.individuals)
    domain = list(named)
    concepts = {a: concepts_of(graph.node(vk).aformulas, a) for a in named}  # keys: the domain
    edges: dict = {}
    for f in kb.abox:
        if f.kind == sx.REL:
            edges.setdefault(f.role, set()).add((f.a, f.b))

    anchor: dict = {}  # created element -> its state in the graph
    by_concepts: dict = {}  # concept set -> the created element carrying it
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
                want = kb.store.inst(x, c)
            w0 = next(
                (w for w in graph.successors(u) if graph.node(w).ce_label is want),
                None,
            )
            assert w0 is not None, "missing realization for an existential obligation"
            wpath = saturation_path(graph, w0)
            target = frozenset(graph.node(wpath[-1]).aformulas)
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
    The result has one entry for every role of `idx`, inverses included.
    """
    base = {}
    for r in idx.roles:
        pairs = set()
        for s in idx.subroles_of(r):  # s <= r, and so s- <= r-
            pairs.update(edges.get(s, ()))
            pairs.update((b, a) for (a, b) in edges.get(s.inverse, ()))
        base[r] = pairs
    chains = {t: transitive_closure(base[t]) for t in idx.transitive}
    return {r: base[r].union(*(chains[t] for t in idx.subroles_of(r) if t in chains)) for r in idx.roles}


def complete_relations(mg: ModelGraph, idx: RBoxIndex, concept_names) -> Interpretation:
    """The interpretation a model graph stands for."""
    closed = close_role_relations(mg.edges, idx)
    atoms: dict = {name: set() for name in concept_names}
    for x, cs in mg.concepts.items():
        for c in cs:
            if c.kind == sx.ATOM:
                atoms.setdefault(c.name, set()).add(x)
    return Interpretation(
        domain=list(mg.domain),
        atoms=atoms,
        roles={r.name: pairs for r, pairs in closed.items() if not r.inverted},
        individuals={a: a for a in mg.named},
    )


def role_pairs(interp: Interpretation, role: Role) -> set:
    if role.name not in interp.roles:
        raise ValueError(f"unknown role name {role.name!r}")
    pairs = interp.roles[role.name]
    if role.inverted:
        return {(b, a) for (a, b) in pairs}
    return pairs


_NONE = frozenset()  # the successors of an element that is no pair's source


def eval_concept(interp: Interpretation, concept) -> set:
    """The denotation of `concept` in `interp` under the standard set
    semantics. Subconcepts are evaluated bottom-up, each distinct one once,
    so nesting depth is not bounded by the recursion limit.

    The first `all` or `some` over a role builds that role's successor
    map; the rest of the call reuses it. `all R.C` is then the elements
    whose successors all lie in C, and `some R.C` those with a successor
    in C, so each subconcept costs O(|domain| + |pairs of its role|)."""
    domain = set(interp.domain)
    value: dict = {}
    succ: dict = {}  # role -> its successor map, built on first use
    for c in reversed(list(sx.subconcepts(concept))):
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
        elif k in (sx.ALL, sx.SOME):
            if c.role not in succ:
                succ[c.role] = successor_map(role_pairs(interp, c.role))
            role_succ = succ[c.role]
            inner = value[c.child]
            if k == sx.ALL:
                out = {x for x in domain if role_succ.get(x, _NONE) <= inner}
            else:
                out = {x for x in domain if not role_succ.get(x, _NONE).isdisjoint(inner)}
        else:
            raise ValueError(f"unknown concept kind {k!r}")
        value[c] = out
    return value[concept]


def check_model(interp: Interpretation, kb: KnowledgeBase) -> bool:
    """Does `interp` satisfy every axiom and assertion of `kb`?

    A transitive role passes when the successors of each successor b of
    an element a are successors of a; over the role's successor map this
    costs the sum of |succ(b)| over its pairs (a, b), not |pairs|^2."""
    for (r, s) in kb.role_subsumptions:
        if not role_pairs(interp, r) <= role_pairs(interp, s):
            return False
    for r in kb.transitive_roles:
        succ = successor_map(role_pairs(interp, r))
        for bs in succ.values():
            if not all(succ.get(b, _NONE) <= bs for b in bs):
                return False
    domain = set(interp.domain)
    for concept in kb.tbox:
        if eval_concept(interp, concept) != domain:
            return False
    for f in kb.abox:
        if f.kind == sx.INST:
            if interp.individuals[f.ind] not in eval_concept(interp, f.concept):
                return False
        else:
            pair = (interp.individuals[f.a], interp.individuals[f.b])
            if pair not in role_pairs(interp, f.role):
                return False
    return True


def build_witness(graph, kb: KnowledgeBase, idx: RBoxIndex) -> Interpretation:
    """Extraction pipeline: model graph, then relation completion."""
    mg = extract_model_graph(graph, kb)
    return complete_relations(mg, idx, kb.concept_names)
