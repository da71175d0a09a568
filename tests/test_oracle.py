"""Bounded model search: the stated examples, soundness, completeness
spot checks, and the budget guard."""
from __future__ import annotations

import random

import pytest

from shisat import bounded_model_search, check_model, decide_sat, parse_kb
from shisat.oracle import SearchBudgetExceeded

from helpers import EX2_TEXT
from kbgen import random_kb_text


def test_contradiction_has_no_model():
    kb = parse_kb("inst a (and A (not A))\n")
    for k in (1, 2, 3):
        assert bounded_model_search(kb, k) is None


def test_reflexive_witness_at_size_one():
    kb = parse_kb("inst a (some r A)\n")
    found = bounded_model_search(kb, 1)
    assert found is not None
    assert found.domain == [0]
    assert found.roles["r"] == {(0, 0)}
    assert found.atoms["A"] == {0}


def test_worked_example_has_no_small_model():
    kb = parse_kb(EX2_TEXT)
    assert bounded_model_search(kb, 3) is None


def test_returned_interpretations_pass_the_checker():
    rng = random.Random(7)
    found_any = False
    for _ in range(40):
        kb = parse_kb(random_kb_text(rng))
        interp = bounded_model_search(kb, 2)
        if interp is not None:
            found_any = True
            assert check_model(interp, kb)
    assert found_any


def test_finds_models_that_need_two_elements():
    # a and b are forced apart, so no size-1 model exists.
    kb = parse_kb("inst a A\ninst b (not A)\n")
    assert bounded_model_search(kb, 1) is None
    found = bounded_model_search(kb, 2)
    assert found is not None
    assert len(found.domain) == 2


def test_agrees_with_engine_on_inverse_roles():
    kb = parse_kb("inst a (some r (all r- (not A)))\ninst a A\n")
    assert not decide_sat(kb).sat
    assert bounded_model_search(kb, 3) is None


def test_budget_guard():
    kb = parse_kb(EX2_TEXT)
    with pytest.raises(SearchBudgetExceeded):
        bounded_model_search(kb, 3, budget=5)


def test_rejects_non_positive_bound():
    kb = parse_kb("inst a A\n")
    with pytest.raises(ValueError):
        bounded_model_search(kb, 0)


def test_instance_refutation_has_a_countermodel():
    # a is not forced into B: the complemented query has a small model.
    from shisat import build_kb

    kb = parse_kb("inst a A\n")
    neg = kb.store.inst("a", kb.store.negate(kb.store.atom("B")))
    query = build_kb(kb.store, [], [], [], list(kb.abox) + [neg])
    found = bounded_model_search(query, 2)
    assert found is not None
    assert check_model(found, query)
