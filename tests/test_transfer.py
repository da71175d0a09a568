"""Transfer operators: definitions, monotonicity, the tagging homomorphism."""
from __future__ import annotations

import pytest

from shisat import build_ext
from shisat.syntax import FormulaStore, Role
from shisat.transfer import (
    transfer_assertions,
    transfer_assertions_from,
    transfer_concepts,
    transfer_concepts_to,
)

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


def test_transfer_assertions_from_state_label(ex1):
    # The label of the complex state in the first worked example: the
    # successor realizing b's existential receives F and (all P F).
    store, idx = ex1
    f, i = store.atom("F"), store.atom("I")
    phi = store.disj(store.negate(f), store.conj(i, store.univ(P, f)))
    label = {
        store.inst("a", f),
        store.rel(L, "a", "b"),
        store.inst("b", store.exist(L, store.negate(i))),
        store.inst("a", i),
        store.inst("a", store.univ(P, f)),
        store.inst("a", store.univ(L, f)),
        store.inst("b", f),
        store.inst("b", store.univ(P, f)),
        store.inst("b", store.univ(L, f)),
        store.inst("b", i),
    }
    assert transfer_assertions_from(idx, label, "b", L) == {f, store.univ(P, f)}


def test_transfer_assertions_from_empty(ex1):
    _, idx = ex1
    assert transfer_assertions_from(idx, set(), "a", L) == set()


def test_transfer_assertions_from_wrong_individual(ex1):
    store, idx = ex1
    y = {store.inst("b", store.univ(P, store.atom("F")))}
    assert transfer_assertions_from(idx, y, "a", L) == set()


def test_transfer_assertions_between_individuals(ex1):
    # Propagating a's restrictions over L(a,b): b receives F (from all L.F)
    # and all P.F itself (L <= P, P transitive).
    store, idx = ex1
    f = store.atom("F")
    y = {store.inst("a", store.univ(L, f)), store.inst("a", store.univ(P, f))}
    got = transfer_assertions(idx, store, y, "a", L, "b")
    assert got == {store.inst("b", f), store.inst("b", store.univ(P, f))}


def test_transfer_assertions_between_empty(ex1):
    store, idx = ex1
    assert transfer_assertions(idx, store, set(), "a", L, "b") == set()


def test_transfer_assertions_between_no_match(ex1):
    store, idx = ex1
    y = {store.inst("a", store.univ(L, store.atom("F")))}
    assert transfer_assertions(idx, store, y, "b", LI, "a") == set()


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
    # every member asserted of that individual; transferring from one reads
    # only that individual's assertions as a concept label.
    store, idx, _, x = ex2
    label = {store.inst("a", c) for c in x}
    label |= {store.inst("b", store.univ(R, store.atom("B"))), store.rel(R, "a", "b")}
    for role in (R, RI, S):
        plain = transfer_concepts(idx, x, role)
        tagged = transfer_concepts_to(idx, store, x, role, "a")
        assert tagged == {store.inst("a", c) for c in plain}
        assert transfer_assertions_from(idx, label, "a", role) == plain
        between = transfer_assertions(idx, store, label, "a", role, "b")
        assert between == {store.inst("b", c) for c in plain}


def test_results_are_fresh_sets(ex2):
    store, idx, _, x = ex2
    got = transfer_concepts(idx, x, R)
    got.add(store.atom("Z"))
    assert store.atom("Z") not in x
