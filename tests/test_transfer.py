"""Transfer operators: definitions, monotonicity, the tagging homomorphism,
and the engine's reading of a complex label as each individual's concepts."""
from __future__ import annotations

import pytest

from shisat import TableauEngine, build_ext, build_kb
from shisat.graph import NONSTATE
from shisat.syntax import FormulaStore, Role
from shisat.rbox import transfer_concepts, transfer_concepts_to

R, RI = Role("r"), Role("r", True)
S = Role("s")
L, LI = Role("L"), Role("L", True)
P = Role("P")


@pytest.fixture
def ex2():
    store = FormulaStore()
    idx = build_ext([(R, S), (RI, S)], [S], ["r", "s"])
    a = store.atom("A")
    not_a = store.negate(a)
    x = {a, store.univ(S, not_a), store.univ(R, not_a), store.univ(RI, not_a)}
    return store, idx, not_a, x


@pytest.fixture
def ex1():
    store = FormulaStore()
    idx = build_ext([(L, P)], [P], ["L", "P"])
    return store, idx


def test_transfer_concepts_through_r(ex2):
    store, idx, not_a, x = ex2
    # (all r not A) contributes not A; (all s not A) survives because
    # r <= s and s is transitive; nothing else qualifies.
    assert transfer_concepts(idx, x, R) == {not_a, store.univ(S, not_a)}


def test_transfer_concepts_empty():
    idx = build_ext([], [], ["r"])
    assert transfer_concepts(idx, set(), R) == set()


def test_transfer_concepts_self_transitive(ex1):
    store, idx = ex1
    f = store.atom("F")
    all_p_f = store.univ(P, f)
    assert transfer_concepts(idx, {all_p_f}, P) == {f, all_p_f}


def test_transfer_concepts_to_inverse_edge(ex2):
    store, idx, not_a, x = ex2
    got = transfer_concepts_to(idx, store, x, RI, "a")
    assert got == {store.inst("a", not_a), store.inst("a", store.univ(S, not_a))}


def test_transfer_concepts_to_empty(ex2):
    store, idx, _, _ = ex2
    assert transfer_concepts_to(idx, store, set(), R, "a") == set()


def test_transfer_concepts_to_plain_restriction(ex2):
    store, idx, _, _ = ex2
    b = store.atom("B")
    assert transfer_concepts_to(idx, store, {store.univ(RI, b)}, RI, "a") == {store.inst("a", b)}


@pytest.fixture
def ex1_engine():
    """An engine over ex1's role box; its ABox is a placeholder."""
    return TableauEngine(build_kb(FormulaStore(), [(L, P)], [P], [], []))


def _univ_conclusions(engine, label):
    """What the univ' rule adds to the complex `label`, or the rule the scan
    picks instead (None when `label` is saturated)."""
    v = engine.graph.new_succ(None, NONSTATE, None, frozenset(label), 0, 0)
    rule = engine.applicable_rule(v)
    if rule is None or rule.tag != "univ'":
        return rule
    return rule.labels[0] - frozenset(label)


def test_forward_reads_the_state_label_of_the_principal_individual(ex1_engine):
    # The label of the complex state in the first worked example: the
    # successor realizing b's existential receives F and (all P F).
    engine = ex1_engine
    store = engine.store
    f, i = store.atom("F"), store.atom("I")
    ex = store.inst("b", store.exist(L, store.negate(i)))
    label = {
        store.inst("a", f),
        store.rel(L, "a", "b"),
        ex,
        store.inst("a", i),
        store.inst("a", store.univ(P, f)),
        store.inst("a", store.univ(L, f)),
        store.inst("b", f),
        store.inst("b", store.univ(P, f)),
        store.inst("b", store.univ(L, f)),
        store.inst("b", i),
    }
    assert engine._forward(ex, frozenset(label)) == {f, store.univ(P, f)}


def test_forward_without_value_restrictions(ex1_engine):
    engine = ex1_engine
    store = engine.store
    ex = store.inst("a", store.exist(L, store.atom("G")))
    assert engine._forward(ex, frozenset({ex})) == set()


def test_forward_reads_no_other_individual(ex1_engine):
    # A principal of a over a label that holds only b's restrictions
    # transfers nothing.
    engine = ex1_engine
    store = engine.store
    ex = store.inst("a", store.exist(L, store.atom("G")))
    label = {ex, store.inst("b", store.univ(P, store.atom("F")))}
    assert engine._forward(ex, frozenset(label)) == set()


def test_univ_rule_between_individuals(ex1_engine):
    # Propagating a's restrictions over L(a,b): b receives F (from all L.F)
    # and all P.F itself (L <= P, P transitive).
    engine = ex1_engine
    store = engine.store
    f = store.atom("F")
    label = {store.inst("a", store.univ(L, f)), store.inst("a", store.univ(P, f)), store.rel(L, "a", "b")}
    assert _univ_conclusions(engine, label) == {store.inst("b", f), store.inst("b", store.univ(P, f))}


def test_univ_rule_without_value_restrictions(ex1_engine):
    engine = ex1_engine
    store = engine.store
    assert _univ_conclusions(engine, {store.rel(L, "a", "b")}) is None


def test_univ_rule_against_the_edge(ex1_engine):
    # L(b,a) carries a's (all L F) to b only over L-, which it does not
    # match, and b has no restrictions to carry to a.
    engine = ex1_engine
    store = engine.store
    label = {store.inst("a", store.univ(L, store.atom("F"))), store.rel(L, "b", "a")}
    assert _univ_conclusions(engine, label) is None


def test_monotone(ex2):
    store, idx, not_a, x = ex2
    smaller = {store.univ(R, not_a)}
    assert smaller < x
    assert transfer_concepts(idx, smaller, R) <= transfer_concepts(idx, x, R)
    assert transfer_concepts_to(idx, store, smaller, R, "a") <= transfer_concepts_to(
        idx, store, x, R, "a"
    )


def test_tagging_homomorphism(ex2):
    # Transferring to a named individual is exactly the plain transfer with
    # every member asserted of that individual; the engine reads only one
    # individual's assertions as a concept label, both to a successor of
    # the individual and to another individual.
    store, idx, _, x = ex2
    engine = TableauEngine(build_kb(store, [(R, S), (RI, S)], [S], [], []))
    label = {store.inst("a", c) for c in x} | {store.inst("b", store.univ(R, store.atom("B")))}
    for role in (R, RI, S):
        plain = transfer_concepts(idx, x, role)
        tagged = transfer_concepts_to(idx, store, x, role, "a")
        assert tagged == {store.inst("a", c) for c in plain}
        ex = store.inst("a", store.exist(role, store.atom("Z")))
        assert engine._forward(ex, frozenset(label | {ex})) == plain
        between = _univ_conclusions(engine, label | {store.rel(role, "a", "b")})
        assert {g for g in between if g.ind == "b"} == {store.inst("b", c) for c in plain}


def test_results_are_fresh_sets(ex2):
    store, idx, _, x = ex2
    got = transfer_concepts(idx, x, R)
    got.add(store.atom("Z"))
    assert store.atom("Z") not in x
