"""Syntax layer: NNF construction, complement, internalization, closure."""
from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from shisat import bounded_model_search, closure, decide_sat, format_kb, kb_index, parse_kb
from shisat.rbox import pulling_roles
from shisat.syntax import (
    ALL,
    AND,
    ATOM,
    BOT,
    INST,
    NOT,
    OR,
    REL,
    SOME,
    TOP,
    Concept,
    FormulaStore,
    Role,
    build_kb,
    complement,
    concept_text,
    formula_text,
    internalize_tbox,
    ordered,
    subconcepts,
    uid_bits,
)

from helpers import EX1_TEXT, EX2_TEXT, and_nest, interned_texts, some_nest
from kbgen import differential_suite, random_kb_text


def test_interning_gives_identity():
    store = FormulaStore()
    r = Role("r")
    one = store.conj(store.atom("A"), store.univ(r, store.atom("B")))
    two = store.conj(store.atom("A"), store.univ(r, store.atom("B")))
    assert one is two
    assert store.atom("A") is not store.atom("B")


def test_uids_follow_creation_order():
    store = FormulaStore()
    a = store.atom("A")
    b = store.atom("B")
    c = store.conj(a, b)
    assert a.uid < b.uid < c.uid


def test_negate_pushes_through_conjunction():
    # De Morgan is forced: not(A and B) == (not A) or (not B)
    store = FormulaStore()
    a, b = store.atom("A"), store.atom("B")
    assert store.negate(store.conj(a, b)) is store.disj(store.negate(a), store.negate(b))


def test_negate_dualizes_value_restriction():
    # not(all P.F) == some P.(not F)
    store = FormulaStore()
    p = Role("P")
    f = store.atom("F")
    assert store.negate(store.univ(p, f)) is store.exist(p, store.negate(f))


def test_negate_is_an_involution_on_atoms():
    store = FormulaStore()
    i = store.atom("I")
    assert store.negate(store.negate(i)) is i


def test_internalize_example_axiom():
    # F <= I and (all P.F) becomes (not F) or (I and (all P.F))
    store = FormulaStore()
    f, i = store.atom("F"), store.atom("I")
    p = Role("P")
    right = store.conj(i, store.univ(p, f))
    [phi] = internalize_tbox(store, [("impl", f, right)])
    assert phi is store.disj(store.negate(f), right)


def test_internalize_empty():
    assert internalize_tbox(FormulaStore(), []) == []


def test_internalize_equivalence():
    store = FormulaStore()
    a, b = store.atom("A"), store.atom("B")
    [phi] = internalize_tbox(store, [("equiv", a, b)])
    fwd = store.disj(store.negate(a), b)
    bwd = store.disj(store.negate(b), a)
    assert phi is store.conj(fwd, bwd)


def test_internalize_top_guard_collapses():
    # top <= D contributes D itself as the global assumption
    store = FormulaStore()
    d = store.exist(Role("r"), store.atom("A"))
    assert internalize_tbox(store, [("impl", store.top, d)]) == [d]


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_an_equivalence_of_top_and_bottom_internalizes_to_bottom(strategy):
    # top <= bot is bottom and bot <= top is top, so the conjunction of
    # the two directions is bottom itself.
    kb = parse_kb("equiv top bot\n")
    assert kb.tbox == [kb.store.bot]
    assert not decide_sat(kb, strategy).sat
    assert bounded_model_search(kb, 2) is None


def test_complement_of_assertion():
    store = FormulaStore()
    f = store.inst("a", store.atom("F"))
    comp = complement(store, f)
    assert comp is store.inst("a", store.negate(store.atom("F")))
    assert complement(store, comp) is f


def test_complement_rejects_role_assertions():
    store = FormulaStore()
    rel = store.rel(Role("r"), "a", "b")
    try:
        complement(store, rel)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


_LEAF = st.one_of(
    st.just(("top",)),
    st.just(("bot",)),
    st.tuples(st.just("atom"), st.sampled_from("ABC")),
    st.tuples(st.just("negatom"), st.sampled_from("ABC")),
)
_RECIPE = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.tuples(st.just("and"), inner, inner),
        st.tuples(st.just("or"), inner, inner),
        st.tuples(st.just("all"), st.sampled_from(["r", "r-", "s"]), inner),
        st.tuples(st.just("some"), st.sampled_from(["r", "r-", "s"]), inner),
    ),
    max_leaves=10,
)


def _build(store, recipe):
    tag = recipe[0]
    if tag == "top":
        return store.top
    if tag == "bot":
        return store.bot
    if tag == "atom":
        return store.atom(recipe[1])
    if tag == "negatom":
        return store.negate(store.atom(recipe[1]))
    if tag in ("and", "or"):
        combine = store.conj if tag == "and" else store.disj
        return combine(_build(store, recipe[1]), _build(store, recipe[2]))
    role = Role(recipe[1].rstrip("-"), recipe[1].endswith("-"))
    builder = store.univ if tag == "all" else store.exist
    return builder(role, _build(store, recipe[2]))


@given(_RECIPE)
def test_negate_involution(recipe):
    store = FormulaStore()
    c = _build(store, recipe)
    assert store.negate(store.negate(c)) is c
    # an assertion's complement is the assertion of the concept's complement
    f = store.inst("a", c)
    assert complement(store, f) is store.inst("a", store.negate(c))
    assert complement(store, complement(store, f)) is f


@given(_RECIPE, _RECIPE, st.data())
def test_members_decodes_the_uid_bits_of_any_subset(recipe, later, data):
    """`members` of the uid bits of a subset of the interned formulas is
    that subset in uid order, read after more formulas are interned too,
    and a subset that takes some of those is decoded alike."""
    store = FormulaStore()
    _build(store, recipe)
    store.inst("a", _build(store, recipe))
    early = ordered(store._table.values())
    subset = data.draw(st.sets(st.sampled_from(early)))
    bits = uid_bits(subset)
    assert store.members(bits) == ordered(subset)
    store.negate(_build(store, later))
    store.rel(Role("r"), "a", "b")
    assert store.members(bits) == ordered(subset)
    every = ordered(store._table.values())
    wider = subset | data.draw(st.sets(st.sampled_from(every)))
    assert store.members(uid_bits(wider)) == ordered(wider)
    assert store.members(uid_bits(every)) == every
    assert store.members(0) == [] and uid_bits(()) == 0


def _reference_negate(store, f):
    """The plain recursive complement with no memo: `negate` must intern
    what this interns, in the same order."""
    k = f.kind
    if k == TOP:
        return store.bot
    if k == BOT:
        return store.top
    if k == ATOM:
        key = (NOT, f.uid)
        return store._table.get(key) or store._make(key, Concept, NOT, None, None, None, None, f)
    if k == NOT:
        return f.child
    if k == AND:
        return store.disj(_reference_negate(store, f.left), _reference_negate(store, f.right))
    if k == OR:
        return store.conj(_reference_negate(store, f.left), _reference_negate(store, f.right))
    if k == ALL:
        return store.exist(f.role, _reference_negate(store, f.child))
    if k == SOME:
        return store.univ(f.role, _reference_negate(store, f.child))
    assert k == INST
    return store.inst(f.ind, _reference_negate(store, f.concept))


@given(_RECIPE, _RECIPE, st.data())
def test_memoised_negate_interns_like_the_recursion(recipe, other, data):
    memo, plain = FormulaStore(), FormulaStore()
    c, d = _build(memo, recipe), _build(plain, recipe)
    e, e_ref = _build(memo, other), _build(plain, other)

    def check(mine, ref):
        got, want = memo.negate(mine), _reference_negate(plain, ref)
        assert repr(got) == repr(want)
        assert memo.negate(got) is mine
        assert interned_texts(memo) == interned_texts(plain)
        return got, want

    parts = list(subconcepts(c))
    at = data.draw(st.integers(0, len(parts) - 1))
    check(parts[at], list(subconcepts(d))[at])  # a part first
    got, want = check(c, d)  # then the whole
    check(got, want)  # a complement, memoised from the other side
    check(memo.inst("a", e), plain.inst("a", e_ref))  # an assertion


def _derived_body(f):
    """The concept a label member speaks of, derived from its kind."""
    if f.kind == INST:
        return f.concept
    return None if f.kind == REL else f


_DUAL = {TOP: "bot", BOT: "top", AND: "or", OR: "and", ALL: "some", SOME: "all"}


def _complement_text(f) -> str:
    """The text of `f`'s NNF complement, by the dualities, built without a store."""
    k = f.kind
    if k == INST:
        return f"{f.ind}:{_complement_text(f.concept)}"
    if k in (TOP, BOT):
        return _DUAL[k]
    if k == ATOM:
        return f"(not {f.name})"
    if k == NOT:
        return concept_text(f.child)
    if k in (AND, OR):
        return f"({_DUAL[k]} {_complement_text(f.left)} {_complement_text(f.right)})"
    return f"({_DUAL[k]} {f.role} {_complement_text(f.child)})"


def test_body_field_is_the_derived_body(decided):
    seen = 0
    for text, kb, _ in decided:
        for f in kb.store._table.values():
            assert f.body is _derived_body(f), (text, f)
            seen += 1
    assert seen


def test_neg_field_is_an_involution_read_without_interning(decided):
    built = 0
    for text, kb, _ in decided:
        store = kb.store
        before = len(store._table)
        for f in list(store._table.values()):
            g = f.neg
            if g is not None:
                assert g.neg is f and store.negate(f) is g, (text, f)
                assert formula_text(g) == _complement_text(f), (text, f)
                built += 1
        assert len(store._table) == before, text
    assert built


def test_negate_sets_the_complement_pointer_on_every_part():
    store = FormulaStore()
    r = Role("r")
    c = store.conj(store.atom("A"), store.exist(r, store.disj(store.atom("B"), store.top)))
    assert all(part.neg is None for part in subconcepts(c))
    assert store.negate(c).neg is c
    for part in subconcepts(c):
        assert part.neg is not None and part.neg.neg is part
        assert concept_text(part.neg) == _complement_text(part)
    rel = store.rel(r, "a", "b")
    assert rel.body is None and rel.neg is None


@given(_RECIPE)
def test_negation_only_on_atoms(recipe):
    store = FormulaStore()
    c = _build(store, recipe)
    for sub in subconcepts(store.negate(c)):
        if sub.kind == NOT:
            assert sub.child.kind == ATOM


@given(_RECIPE)
def test_negate_idempotent_normal_form(recipe):
    # negating twice twice lands on the same object: normalization is stable
    store = FormulaStore()
    c = _build(store, recipe)
    once = store.negate(c)
    assert store.negate(store.negate(once)) is once


def test_empty_abox_is_repaired():
    kb = parse_kb("impl A B\n")
    assert len(kb.abox) == 1
    f = kb.abox[0]
    assert f.kind == "inst" and f.concept is kb.store.top
    assert kb.individuals == [f.ind]


def test_names_in_order_of_first_occurrence():
    # first in `sub`, then `trans`, an axiom, and the ABox, each concept
    # scanned in preorder with the left part first
    kb = parse_kb(
        "sub r s\ntrans t\nimpl A (some u B)\n"
        "inst b (and (some v D) C)\nrel w b a\ninst c (all x A)\n"
    )
    assert kb.role_names == ["r", "s", "t", "u", "v", "w", "x"]
    assert kb.concept_names == ["A", "B", "D", "C"]
    assert kb.individuals == ["b", "a", "c"]


def _reference_names(kb) -> tuple:
    """The role, concept and individual names of `kb` in order of first
    occurrence, by a scan of `subconcepts` and a list search per name."""
    role_names: list = []
    concept_names: list = []
    individuals: list = []

    def note(names: list, *new) -> None:
        for n in new:
            if n not in names:
                names.append(n)

    def scan(concept) -> None:
        for c in subconcepts(concept):
            if c.kind == ATOM:
                note(concept_names, c.name)
            elif c.kind in (ALL, SOME):
                note(role_names, c.role.name)

    for r, s in kb.role_subsumptions:
        note(role_names, r.name, s.name)
    note(role_names, *(role.name for role in kb.transitive_roles))
    for _, left, right in kb.tbox_axioms:
        scan(left)
        scan(right)
    for f in kb.abox:
        if f.kind == INST:
            note(individuals, f.ind)
            scan(f.concept)
        else:
            note(role_names, f.role.name)
            note(individuals, f.a, f.b)
    return role_names, concept_names, individuals


_kb_texts = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: random_kb_text(random.Random(seed))),
    st.builds(and_nest, st.integers(1, 80)),
    st.builds(some_nest, st.integers(1, 80), st.booleans()),
)


@given(st.lists(_kb_texts, min_size=1, max_size=3).map("".join))
def test_names_match_the_first_occurrence_reference(text):
    kb = parse_kb(text)
    assert (kb.role_names, kb.concept_names, kb.individuals) == _reference_names(kb)


def test_name_collection_and_closure_are_stack_safe():
    store = FormulaStore()
    a, r = store.atom("A"), Role("r")
    concept = a
    for _ in range(5000):
        concept = store.conj(a, store.exist(r, concept))
    kb = build_kb(store, [], [], [], [store.inst("a", concept)])
    assert kb.concept_names == ["A"] and kb.role_names == ["r"]
    universe = closure(kb, kb_index(kb))
    assert store.inst("a", concept) in universe
    assert len(universe) == 2 * (2 * 5000 + 1)
    text = "(and A (some r " * 5000 + "A" + "))" * 5000
    assert concept_text(concept) == text
    assert repr(store.inst("a", concept)) == "a:" + text
    assert format_kb(kb) == f"inst a {text}\n"
    assert store.negate(store.negate(concept)) is concept
    # The engine's and the oracle's walks over the concepts read `subconcepts` too.
    assert pulling_roles(kb, kb_index(kb)) == frozenset()  # no value restriction
    assert len(bounded_model_search(kb, 1).domain) == 1  # A and r(0, 0)


def test_closure_interns_in_one_order():
    # closure interns narrowed restrictions and assertion forms; two
    # closures of one text in fresh stores intern them in the same order
    for text in [EX1_TEXT, EX2_TEXT] + differential_suite(500, 20240817)[:100]:
        first, second = parse_kb(text), parse_kb(text)
        closure(first, kb_index(first))
        closure(second, kb_index(second))
        assert interned_texts(first.store) == interned_texts(second.store), text


def test_closure_trivial_kb():
    kb = parse_kb("inst a A\n")
    universe = closure(kb, kb_index(kb))
    texts = {repr(f) for f in universe}
    assert texts == {"A", "a:A"}


def test_closure_narrows_transitive_restrictions():
    # Hand-applied rule: L <= P with P transitive and (all P F) occurring
    # puts (all L F) and its assertion forms into the closure.
    kb = parse_kb(EX1_TEXT)
    universe = closure(kb, kb_index(kb))
    store = kb.store
    all_l_f = store.univ(Role("L"), store.atom("F"))
    assert all_l_f in universe
    assert store.inst("a", all_l_f) in universe
    assert store.inst("b", all_l_f) in universe


def test_closure_covers_both_subroles():
    # Hand-applied rule: r <= s and r- <= s with s transitive and
    # (all s (not A)) occurring yields both narrowed restrictions.
    kb = parse_kb(EX2_TEXT)
    universe = closure(kb, kb_index(kb))
    store = kb.store
    not_a = store.negate(store.atom("A"))
    assert store.univ(Role("r"), not_a) in universe
    assert store.univ(Role("r", True), not_a) in universe


def test_closure_contains_abox_role_assertions():
    kb = parse_kb(EX1_TEXT)
    universe = closure(kb, kb_index(kb))
    assert kb.store.rel(Role("L"), "a", "b") in universe


def test_closure_closed_under_occurring_subconcepts():
    kb = parse_kb(EX1_TEXT)
    idx = kb_index(kb)
    universe = closure(kb, idx)
    occurring = set()
    for c in kb.tbox:
        occurring.update(subconcepts(c))
    for f in kb.abox:
        if f.kind == "inst":
            occurring.update(subconcepts(f.concept))
    for c in list(universe):
        if c.kind in (AND, OR, ALL, SOME, NOT, ATOM):
            for sub in subconcepts(c):
                if sub in occurring:
                    assert sub in universe
