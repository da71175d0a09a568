"""Model extraction, relation completion, semantics, model checking."""
from __future__ import annotations

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
from shisat.graph import STATE
from shisat.models import Interpretation, close_role_relations
from shisat.syntax import Role

from helpers import EX1_BASE_TEXT, check_consistent, check_saturation, naive_role_closure

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
    assert graph.node(path[-1]).node_type == STATE


def test_saturation_path_everything_unrefuted():
    kb, verdict = _finished(EX1_SAT_TEXT)
    graph = verdict.graph
    path = saturation_path(graph, graph.root)
    for v in path:
        assert graph.node(v).status not in ("unsat", "incomplete")
    assert graph.node(path[-1]).node_type == STATE


def test_saturation_path_deterministic_first_choice():
    kb, verdict = _finished("inst a (or A B)\n")
    graph = verdict.graph
    path = saturation_path(graph, graph.root)
    kids = sorted(graph.successors(graph.root))
    assert path[1] == kids[0]


# -- extraction ----------------------------------------------------------------

def test_extract_single_element_model():
    kb, verdict = _finished("inst a A\n")
    mg = extract_model_graph(verdict.graph, kb, kb_index(kb))
    assert mg.domain == ["a"]
    assert mg.concepts["a"] == frozenset({kb.store.atom("A")})
    assert all(not pairs for pairs in mg.edges.values())


def test_extract_realizes_existential():
    kb, verdict = _finished("inst a (some r A)\n")
    mg = extract_model_graph(verdict.graph, kb, kb_index(kb))
    assert len(mg.domain) == 2
    created = next(e for e in mg.domain if e != "a")
    assert mg.edges[R] == {("a", created)}
    assert kb.store.atom("A") in mg.concepts[created]


def test_extract_satisfiable_variant_of_worked_example():
    kb, verdict = _finished(EX1_SAT_TEXT)
    idx = kb_index(kb)
    mg = extract_model_graph(verdict.graph, kb, idx)
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
    mg = extract_model_graph(verdict.graph, kb, kb_index(kb))
    created = [e for e in mg.domain if e not in mg.named]
    assert len(created) <= 2
    check_saturation(mg, kb_index(kb), kb.store)


# -- relation completion ---------------------------------------------------------

def test_completion_subrole_and_converse():
    idx = build_ext([(R, S)], [], ["r", "s"])
    closed = close_role_relations({R: {("a", "y")}}, idx)
    assert ("a", "y") in closed[S]
    assert closed[R.inverse] == {("y", "a")}


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
    assert close_role_relations(edges, idx) == naive_role_closure(edges, idx)


@settings(deadline=None)  # the reference fixpoint is deliberately naive
@given(_role_boxes())
def test_completion_matches_reference_fixpoint_on_random_role_boxes(box):
    names, subs, trans, edges = box
    idx = build_ext(subs, trans, names)
    assert close_role_relations(edges, idx) == naive_role_closure(edges, idx)


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
        mg = extract_model_graph(verdict.graph, kb, idx)
        created = [e for e in mg.domain if e not in mg.named]
        sets = [mg.concepts[e] for e in created]
        assert len(sets) == len(set(sets))
        bound = len(mg.named) + 2 ** len(closure(kb, idx))
        assert len(mg.domain) <= bound
        checked += 1
    assert checked > 10
