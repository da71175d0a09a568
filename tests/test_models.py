"""Model extraction, relation completion, semantics, model checking."""
from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from shisat import (
    FormulaStore,
    build_ext,
    build_kb,
    build_witness,
    check_model,
    closure,
    complete_relations,
    decide_sat,
    eval_concept,
    extract_model_graph,
    kb_index,
    parse_kb,
    saturation_path,
)
from shisat import models
from shisat.graph import STATE, TableauNode
from shisat import syntax as sx
from shisat.models import Interpretation, close_role_relations
from shisat.rbox import transitive_closure
from shisat.syntax import Role

from helpers import EX1_BASE_TEXT, check_consistent, check_saturation, naive_role_closure, with_inverses

R, S = Role("r"), Role("s")

EX1_SAT_TEXT = EX1_BASE_TEXT + "inst b (some L I)\n"


def _finished(text):
    kb = parse_kb(text)
    verdict = decide_sat(kb)
    assert verdict.sat
    return kb, verdict


# -- saturation paths ---------------------------------------------------------

def test_saturation_path_reaches_adjacent_state():
    kb, verdict = _finished("inst a (some r A)\n")
    graph = verdict.graph
    pre = next(n for n in graph.nodes if n.rule == "form-state")
    path = saturation_path(graph, pre.id)
    assert len(path) == 2
    assert graph.nodes[path[-1]].node_type == STATE


def test_saturation_path_everything_unrefuted():
    kb, verdict = _finished(EX1_SAT_TEXT)
    graph = verdict.graph
    path = saturation_path(graph, graph.root)
    for v in path:
        assert graph.nodes[v].status not in ("unsat", "incomplete")
    assert graph.nodes[path[-1]].node_type == STATE


def test_saturation_path_deterministic_first_choice():
    kb, verdict = _finished("inst a (or A B)\n")
    graph = verdict.graph
    path = saturation_path(graph, graph.root)
    kids = sorted(graph.nodes[graph.root].succs)
    assert path[1] == kids[0]


# -- extraction ----------------------------------------------------------------

def test_extract_single_element_model():
    kb, verdict = _finished("inst a A\n")
    mg = extract_model_graph(verdict.graph, kb)
    assert mg.domain == ["a"]
    assert mg.concepts["a"] == frozenset({kb.store.atom("A")})
    assert all(not pairs for pairs in mg.edges.values())


def test_extract_realizes_existential():
    kb, verdict = _finished("inst a (some r A)\n")
    mg = extract_model_graph(verdict.graph, kb)
    assert len(mg.domain) == 2
    created = next(e for e in mg.domain if e != "a")
    assert mg.edges[R] == {("a", created)}
    assert kb.store.atom("A") in mg.concepts[created]


def test_extract_satisfiable_variant_of_worked_example():
    kb, verdict = _finished(EX1_SAT_TEXT)
    idx = kb_index(kb)
    mg = extract_model_graph(verdict.graph, kb)
    store = kb.store
    link = Role("L")
    succs = [y for (x, y) in mg.edges.get(link, set()) if x == "b"]
    assert len(succs) == 1
    expected = {store.atom("I"), store.atom("F"), store.univ(Role("P"), store.atom("F"))}
    assert expected <= mg.concepts[succs[0]]
    check_consistent(mg)
    check_saturation(mg, idx, store)


def test_extract_reuses_elements_with_equal_concept_sets():
    # A cyclic obligation: the created element carries the same concept
    # set at every depth, so the chain closes on itself.
    kb, verdict = _finished("impl A (some r A)\ninst a A\n")
    mg = extract_model_graph(verdict.graph, kb)
    created = [e for e in mg.domain if e not in mg.named]
    assert len(created) <= 2
    check_saturation(mg, kb_index(kb), kb.store)


# -- relation completion ---------------------------------------------------------

def test_completion_subrole_and_converse():
    idx = build_ext([(R, S)], [], ["r", "s"])
    closed = close_role_relations({R: {("a", "y")}}, idx)
    assert ("a", "y") in closed[S]
    assert list(closed) == [R, S]  # r- holds the converse of r, which the semantics reads off r's pairs
    store = FormulaStore()
    interp = Interpretation(["a", "y"], {"A": {"a"}}, {r.name: p for r, p in closed.items()}, {})
    assert eval_concept(interp, store.exist(R.inverse, store.atom("A"))) == {"y"}


def test_completion_transitive_composition():
    idx = build_ext([], [S], ["s"])
    closed = close_role_relations({S: {("x", "y"), ("y", "z")}}, idx)
    assert ("x", "z") in closed[S]


def test_completion_empty():
    idx = build_ext([], [], ["r"])
    closed = close_role_relations({}, idx)
    assert all(not pairs for pairs in closed.values())


@st.composite
def _role_boxes(draw):
    """Up to 3 role names, random inclusions and transitivity among all
    roles (inverses included), and up to 8 raw edges over 5 elements."""
    names = ["r", "s", "t"][: draw(st.integers(1, 3))]
    role = st.sampled_from([Role(n, inv) for n in names for inv in (False, True)])
    element = st.sampled_from("abcde")
    subs = draw(st.lists(st.tuples(role, role), max_size=5))
    trans = draw(st.lists(role, max_size=3))
    edges: dict = {}
    for r, a, b in draw(st.lists(st.tuples(role, element, element), max_size=8)):
        edges.setdefault(r, set()).add((a, b))
    return names, subs, trans, edges


@pytest.mark.parametrize(
    "axioms,edges",
    [
        (([(R, S)], [S]), {R: {("a", "b")}, S: {("b", "c")}}),
        (([(R, S), (Role("r", True), S)], [S]), {R: {("a", "b"), ("b", "a")}}),
        (([], [R]), {R: {("a", "b"), ("b", "c"), ("c", "a")}}),
    ],
)
def test_completion_matches_reference_fixpoint(axioms, edges):
    subs, trans = axioms
    idx = build_ext(subs, trans, ["r", "s"])
    assert with_inverses(close_role_relations(edges, idx)) == naive_role_closure(edges, idx)


@settings(deadline=None)  # the reference fixpoint is deliberately naive
@given(_role_boxes())
def test_completion_matches_reference_fixpoint_on_random_role_boxes(box):
    names, subs, trans, edges = box
    idx = build_ext(subs, trans, names)
    assert with_inverses(close_role_relations(edges, idx)) == naive_role_closure(edges, idx)


@given(_role_boxes())
def test_each_inverse_relation_is_the_converse_of_its_role(box):
    names, subs, trans, edges = box
    idx = build_ext(subs, trans, names)
    closed = close_role_relations(edges, idx)
    assert list(closed) == [r for r in idx.roles if not r.inverted]
    reference = naive_role_closure(edges, idx)
    for r in closed:
        assert reference[r.inverse] == {(b, a) for (a, b) in closed[r]}


# -- semantics -------------------------------------------------------------------

def _interp():
    return Interpretation(
        domain=["x", "y"],
        atoms={"A": {"x"}, "F": {"x", "y"}},
        roles={"P": {("x", "y")}},
        individuals={"a": "x"},
    )


def test_eval_top_and_bottom():
    kb = parse_kb("inst a A\n")
    i = _interp()
    assert eval_concept(i, kb.store.top) == {"x", "y"}
    assert eval_concept(i, kb.store.bot) == set()


def test_eval_negation_is_complement():
    kb = parse_kb("inst a A\n")
    i = _interp()
    assert eval_concept(i, kb.store.negate(kb.store.atom("A"))) == {"y"}


def test_eval_value_restriction():
    kb = parse_kb("inst a (all P F)\n")
    i = _interp()
    all_p_f = kb.store.univ(Role("P"), kb.store.atom("F"))
    assert eval_concept(i, all_p_f) == {"x", "y"}
    some_p_a = kb.store.exist(Role("P"), kb.store.atom("A"))
    assert eval_concept(i, some_p_a) == set()
    some_pi_a = kb.store.exist(Role("P", True), kb.store.atom("A"))
    assert eval_concept(i, some_pi_a) == {"y"}


def test_eval_unknown_names_rejected():
    kb = parse_kb("inst a A\n")
    i = _interp()
    with pytest.raises(ValueError):
        eval_concept(i, kb.store.atom("Zed"))
    with pytest.raises(ValueError):
        eval_concept(i, kb.store.exist(Role("zz"), kb.store.top))


def test_check_model_accepts_extracted_witness():
    kb, verdict = _finished("inst a (some r A)\n")
    witness = build_witness(verdict.graph, kb, kb_index(kb))
    assert check_model(witness, kb)


def test_check_model_rejects_missing_subrole_edge():
    kb = parse_kb("sub r s\nrel r a b\n")
    bad = Interpretation(
        domain=["a", "b"],
        atoms={},
        roles={"r": {("a", "b")}, "s": set()},
        individuals={"a": "a", "b": "b"},
    )
    assert not check_model(bad, kb)


def test_check_model_rejects_bottom_assertion():
    kb = parse_kb("inst a bot\n")
    any_interp = Interpretation(domain=["a"], atoms={}, roles={}, individuals={"a": "a"})
    assert not check_model(any_interp, kb)


def test_witness_for_converse_repair_instance():
    kb = parse_kb("inst a (some r (all r- C))\n")
    verdict = decide_sat(kb)
    assert verdict.sat
    witness = build_witness(verdict.graph, kb, kb_index(kb))
    assert check_model(witness, kb)


def test_check_model_rejects_a_transitive_role_missing_one_shortcut():
    # a -> b -> c -> d with every shortcut but (a, d)
    kb = parse_kb("trans r\nrel r a b\n")
    pairs = {("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("b", "d")}
    interp = Interpretation(
        domain=["a", "b", "c", "d"], atoms={}, roles={"r": pairs}, individuals={"a": "a", "b": "b"}
    )
    assert not check_model(interp, kb)
    interp.roles["r"] = pairs | {("a", "d")}
    assert check_model(interp, kb)


@pytest.mark.parametrize("c_holds_at,accepted", [({"c"}, False), ({"a"}, True)])
def test_check_model_follows_inverse_successors(c_holds_at, accepted):
    # b's only r- successor is a and its only r successor is c, so
    # (all r- C) at b holds exactly when C holds at a
    kb = parse_kb("inst b (all r- C)\n")
    interp = Interpretation(
        domain=["a", "b", "c"],
        atoms={"C": c_holds_at},
        roles={"r": {("a", "b"), ("b", "c")}},
        individuals={"b": "b"},
    )
    assert check_model(interp, kb) is accepted


def test_check_model_is_stack_safe():
    # a 1200-deep conjunction chain is decided and extracted without
    # recursion, so checking its witness must not recurse either
    store = FormulaStore()
    chain = store.atom("A0")
    for i in range(1, 1200):
        chain = store.conj(store.atom(f"A{i}"), chain)
    concept = store.conj(chain, store.exist(R, store.univ(R, store.atom("B"))))
    kb = build_kb(store, [], [], [], [store.inst("a", concept)])
    verdict = decide_sat(kb)
    assert verdict.sat
    witness = build_witness(verdict.graph, kb, kb_index(kb))
    assert check_model(witness, kb)


def _counting(kind, reads: Counter, key: str):
    """A subclass of the set type `kind` that adds its size to
    `reads[key]` each time it is iterated from Python code."""

    class Counting(kind):
        def __iter__(self):
            reads[key] += len(self)
            return super().__iter__()

    return Counting


def test_a_witness_of_many_individuals_is_read_in_linear_work(monkeypatch):
    """`rel r- a<i> a<i+1>` for i < 3,200 and `inst a0 (all r- A)`.
    Extraction reads the final label once, not once per individual, and
    the check reads each role's pairs once per direction, not once per
    role assertion: counted as the members that Python code iterates over
    in the label and in the relations that `close_role_relations` hands to
    the witness."""
    n = 3200
    text = "".join(f"rel r- a{i} a{i + 1}\n" for i in range(n)) + "inst a0 (all r- A)\n"
    kb, verdict = _finished(text)
    reads: Counter = Counter()
    label = _counting(frozenset, reads, "label")
    held = models.node_formulas
    monkeypatch.setattr(models, "node_formulas", lambda store, node: label(held(store, node)))
    pairs = _counting(set, reads, "pairs")
    close = models.close_role_relations
    monkeypatch.setattr(models, "close_role_relations", lambda *args: {r: pairs(p) for r, p in close(*args).items()})
    witness = build_witness(verdict.graph, kb, kb_index(kb))
    assert len(witness.domain) == n + 1 and len(witness.roles["r"]) == n
    assert check_model(witness, kb)
    assert reads["label"] <= n + 2  # the n role assertions, a0:(all r- A) and a1:A
    assert reads["pairs"] <= 2 * n


def test_each_obligation_is_realized_by_a_lookup(monkeypatch):
    """`inst a<i> (some r A)` for i < 4,000: the state has one successor
    per obligation, and extraction reads each successor's `ce_label` once,
    into a map, instead of scanning the successors once per obligation."""
    n = 4000
    kb, verdict = _finished("".join(f"inst a{i} (some r A)\n" for i in range(n)))
    slot = TableauNode.__dict__["ce_label"]
    reads = Counter()

    def read(node):
        reads["ce_label"] += 1
        return slot.__get__(node, TableauNode)

    monkeypatch.setattr(TableauNode, "ce_label", property(read, slot.__set__))
    mg = models.extract_model_graph(verdict.graph, kb)
    assert len(mg.domain) == n + 1 and len(mg.edges[Role("r")]) == n
    assert reads["ce_label"] <= 2 * n


def test_created_elements_have_distinct_concept_sets():
    import random

    from kbgen import random_kb_text

    rng = random.Random(55)
    checked = 0
    for _ in range(60):
        kb = parse_kb(random_kb_text(rng))
        verdict = decide_sat(kb)
        if not verdict.sat:
            continue
        idx = kb_index(kb)
        mg = extract_model_graph(verdict.graph, kb)
        created = [e for e in mg.domain if e not in mg.named]
        sets = [mg.concepts[e] for e in created]
        assert len(sets) == len(set(sets))
        bound = len(mg.named) + 2 ** len(closure(kb, idx))
        assert len(mg.domain) <= bound
        checked += 1
    assert checked > 10


# -- role maps against the pairwise definitions ------------------------------------

def role_pairs(interp, role) -> set:
    """The pairs of `role` in `interp`, read as first written: an inverse
    role builds the converse of its name's pairs on every read."""
    if role.name not in interp.roles:
        raise ValueError(f"unknown role name {role.name!r}")
    pairs = interp.roles[role.name]
    if role.inverted:
        return {(b, a) for (a, b) in pairs}
    return pairs


def _reference_eval(interp, concept) -> set:
    """`eval_concept` as first written: each `all`/`some` scans every role
    pair once per element."""
    domain = set(interp.domain)
    value: dict = {}
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
            pairs = role_pairs(interp, c.role)
            inner = value[c.child]
            test = all if k == sx.ALL else any
            out = {x for x in domain if test(y in inner for (a, y) in pairs if a == x)}
        else:
            raise ValueError(f"unknown concept kind {k!r}")
        value[c] = out
    return value[concept]


def _reference_check(interp, kb) -> bool:
    """`check_model` as first written: transitivity over all pairs of pairs."""
    for (r, s) in kb.role_subsumptions:
        if not role_pairs(interp, r) <= role_pairs(interp, s):
            return False
    for r in kb.transitive_roles:
        pairs = role_pairs(interp, r)
        for (a, b) in pairs:
            for (c, d) in pairs:
                if b == c and (a, d) not in pairs:
                    return False
    domain = set(interp.domain)
    for concept in kb.tbox:
        if _reference_eval(interp, concept) != domain:
            return False
    for f in kb.abox:
        if f.kind == sx.INST:
            if interp.individuals[f.ind] not in _reference_eval(interp, f.concept):
                return False
        else:
            pair = (interp.individuals[f.a], interp.individuals[f.b])
            if pair not in role_pairs(interp, f.role):
                return False
    return True


def _outcome(fn, *args):
    """`fn(*args)`, or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


ELEMENTS = "abcdef"  # a domain is a prefix of at most five, so "f" never belongs
ROLES = [Role(n, inv) for n in ("r", "s") for inv in (False, True)]


@st.composite
def _interpretations(draw):
    """A domain of 1-5 elements, atoms A and B, and roles r or r and s
    with random pairs, some of them leaving elements outside the domain.
    A relation is kept as drawn, transitively closed, or closed and then
    short of one pair, so that transitivity fails at a single place."""
    domain = list(ELEMENTS[: draw(st.integers(1, 5))])
    element = st.sampled_from(ELEMENTS)
    atoms = {name: draw(st.sets(element, max_size=4)) for name in ("A", "B")}
    roles = {}
    for name in ["r", "s"][: draw(st.integers(1, 2))]:
        pairs = draw(st.sets(st.tuples(element, element), max_size=10))
        shape = draw(st.sampled_from(["drawn", "closed", "closed less one"]))
        if shape != "drawn":
            pairs = transitive_closure(pairs)
        if shape == "closed less one" and pairs:
            pairs.discard(draw(st.sampled_from(sorted(pairs))))
        roles[name] = pairs
    return Interpretation(domain=domain, atoms=atoms, roles=roles, individuals={x: x for x in domain})


@st.composite
def _nnf_concepts(draw, store, role_names, depth=3):
    """An NNF concept over A, B and `role_names` and their inverses, nested
    at most `depth` deep."""
    leaves = [store.top, store.bot]
    for name in ("A", "B"):
        leaves += [store.atom(name), store.negate(store.atom(name))]
    kind = draw(st.sampled_from(["leaf", "and", "or", "all", "some"] if depth else ["leaf"]))
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    if kind in ("and", "or"):
        left = draw(_nnf_concepts(store, role_names, depth - 1))
        right = draw(_nnf_concepts(store, role_names, depth - 1))
        return store.conj(left, right) if kind == "and" else store.disj(left, right)
    role = Role(draw(st.sampled_from(role_names)), draw(st.booleans()))
    child = draw(_nnf_concepts(store, role_names, depth - 1))
    return store.univ(role, child) if kind == "all" else store.exist(role, child)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_concept_matches_the_pairwise_definition(data):
    interp = data.draw(_interpretations())
    concept = data.draw(_nnf_concepts(FormulaStore(), sorted(interp.roles)))
    assert eval_concept(interp, concept) == _reference_eval(interp, concept)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_model_matches_the_pairwise_definition(data):
    # The KB may name role s where the interpretation has only r, which
    # both checkers must reject with the same ValueError.
    interp = data.draw(_interpretations())
    store = FormulaStore()
    role = st.sampled_from(ROLES)
    concept = _nnf_concepts(store, ["r", "s"], 2)
    individual = st.sampled_from(interp.domain)
    subs = data.draw(st.lists(st.tuples(role, role), max_size=2))
    trans = data.draw(st.lists(role, max_size=2))
    tbox = [("impl", data.draw(concept), data.draw(concept)) for _ in range(data.draw(st.integers(0, 1)))]
    abox = data.draw(
        st.lists(
            st.one_of(
                st.builds(store.inst, individual, concept),
                st.builds(store.rel, role, individual, individual),
            ),
            min_size=1,
            max_size=3,
        )
    )
    kb = build_kb(store, subs, trans, tbox, abox)
    assert _outcome(check_model, interp, kb) == _outcome(_reference_check, interp, kb)


@settings(max_examples=200, deadline=None)
@given(_interpretations(), st.sampled_from(ROLES))
def test_transitivity_check_matches_the_pairwise_definition(interp, role):
    store = FormulaStore()
    kb = build_kb(store, [], [role], [], [store.inst(interp.domain[0], store.top)])
    assert _outcome(check_model, interp, kb) == _outcome(_reference_check, interp, kb)
