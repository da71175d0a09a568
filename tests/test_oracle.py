"""Bounded model search: the stated examples, soundness, completeness
spot checks, the budget guard, stack safety, and agreement with the
reference search."""
from __future__ import annotations

import random
from itertools import product

import pytest

from shisat import build_kb, bounded_model_search, check_model, decide_sat, parse_kb
from shisat import syntax as sx
from shisat.models import Interpretation
from shisat.oracle import SearchBudgetExceeded, _restricted_growth_maps
from shisat.syntax import FormulaStore, Role

from helpers import EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT
from kbgen import random_kb_text

# ---------------------------------------------------------------------------
# The reference: the knowledge base grounded into constraint trees, searched
# by plain backtracking with three-valued evaluation. It re-evaluates every
# tree at every search node and recurses once per variable, so it is only
# fit for small inputs.

TRUE = ("const", True)
FALSE = ("const", False)


def _var(key):
    return ("var", key)


def _neg(tree):
    if tree[0] == "const":
        return ("const", not tree[1])
    return ("not", tree)


def _conj(parts):
    parts = [p for p in parts if p != TRUE]
    if any(p == FALSE for p in parts):
        return FALSE
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return ("and", tuple(parts))


def _disj(parts):
    parts = [p for p in parts if p != FALSE]
    if any(p == TRUE for p in parts):
        return TRUE
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return ("or", tuple(parts))


def _role_lit(role: Role, i: int, j: int):
    if role.inverted:
        return _var(("role", role.name, j, i))
    return _var(("role", role.name, i, j))


def _ground_concept(concept, e: int, n: int):
    k = concept.kind
    if k == sx.TOP:
        return TRUE
    if k == sx.BOT:
        return FALSE
    if k == sx.ATOM:
        return _var(("atom", concept.name, e))
    if k == sx.NOT:
        return _neg(_ground_concept(concept.child, e, n))
    if k == sx.AND:
        return _conj([_ground_concept(concept.left, e, n), _ground_concept(concept.right, e, n)])
    if k == sx.OR:
        return _disj([_ground_concept(concept.left, e, n), _ground_concept(concept.right, e, n)])
    if k == sx.ALL:
        return _conj(
            [_disj([_neg(_role_lit(concept.role, e, j)), _ground_concept(concept.child, j, n)]) for j in range(n)]
        )
    return _disj([_conj([_role_lit(concept.role, e, j), _ground_concept(concept.child, j, n)]) for j in range(n)])


def _lex_ge(xs, ys):
    # xs >=lex ys over boolean vectors of equal length.
    if not xs:
        return TRUE
    x, y = xs[0], ys[0]
    gt = _conj([x, _neg(y)])
    eq = _disj([_conj([x, y]), _conj([_neg(x), _neg(y)])])
    return _disj([gt, _conj([eq, _lex_ge(xs[1:], ys[1:])])])


def _ground_constraints(kb, n: int, iota: dict) -> list:
    out = [_ground_concept(concept, e, n) for concept in kb.tbox for e in range(n)]
    for f in kb.abox:
        if f.kind == sx.INST:
            out.append(_ground_concept(f.concept, iota[f.ind], n))
        else:
            out.append(_role_lit(f.role, iota[f.a], iota[f.b]))
    for (r, s) in kb.role_subsumptions:
        for i, j in product(range(n), repeat=2):
            out.append(_disj([_neg(_role_lit(r, i, j)), _role_lit(s, i, j)]))
    for r in kb.transitive_roles:
        for i, j, l in product(range(n), repeat=3):
            out.append(_disj([_neg(_role_lit(r, i, j)), _neg(_role_lit(r, j, l)), _role_lit(r, i, l)]))
    anonymous = [e for e in range(n) if e not in set(iota.values())]
    for a, b in zip(anonymous, anonymous[1:]):
        atoms = [[_var(("atom", name, e)) for name in kb.concept_names] for e in (a, b)]
        out.append(_lex_ge(*atoms))
    return [c for c in out if c != TRUE]


def _eval3(tree, asgn):
    op = tree[0]
    if op == "const":
        return tree[1]
    if op == "var":
        return asgn.get(tree[1])
    if op == "not":
        v = _eval3(tree[1], asgn)
        return None if v is None else not v
    if op == "and":
        unknown = False
        for sub in tree[1]:
            v = _eval3(sub, asgn)
            if v is False:
                return False
            if v is None:
                unknown = True
        return None if unknown else True
    # or
    unknown = False
    for sub in tree[1]:
        v = _eval3(sub, asgn)
        if v is True:
            return True
        if v is None:
            unknown = True
    return None if unknown else False


def _vars_of(tree, acc):
    op = tree[0]
    if op == "var":
        if tree[1] not in acc:
            acc.append(tree[1])
    elif op == "not":
        _vars_of(tree[1], acc)
    elif op in ("and", "or"):
        for sub in tree[1]:
            _vars_of(sub, acc)


def _backtrack(constraints) -> dict | None:
    var_lists = []
    for c in constraints:
        acc: list = []
        _vars_of(c, acc)
        var_lists.append(acc)
    asgn: dict = {}

    def bt() -> bool:
        pending = None
        for c, cvars in zip(constraints, var_lists):
            v = _eval3(c, asgn)
            if v is False:
                return False
            if v is None and pending is None:
                pending = cvars
        if pending is None:
            return True
        x = next(v for v in pending if v not in asgn)
        for val in (True, False):
            asgn[x] = val
            if bt():
                return True
            del asgn[x]
        return False

    return dict(asgn) if bt() else None


def _reference_search(kb, k: int):
    """First model of `kb` with at most `k` elements, or None."""
    for n in range(1, k + 1):
        for iota in _restricted_growth_maps(kb.individuals, n):
            asgn = _backtrack(_ground_constraints(kb, n, iota))
            if asgn is not None:
                atoms = {name: set() for name in kb.concept_names}
                roles = {name: set() for name in kb.role_names}
                for key, val in asgn.items():
                    if val and key[0] == "atom":
                        atoms[key[1]].add(key[2])
                    elif val:
                        roles[key[1]].add((key[2], key[3]))
                return Interpretation(domain=list(range(n)), atoms=atoms, roles=roles, individuals=dict(iota))
    return None


def _size(interp):
    return None if interp is None else len(interp.domain)


# Inputs whose smallest models need two, three or four elements, some of
# them anonymous and incomparable atom by atom, with inverse and transitive
# roles; the last one is unsatisfiable only through transitivity.
HAND_WRITTEN = (
    "inst a (and A B)\ninst b (and A (not B))\ninst c (not A)\n",
    "inst a (and C (and (some r (and A (not C))) (some r (and (not A) (not C)))))\n",
    "inst a (and (and (not A) (not B)) (and (some r (and A B)) (and (some r (and A (not B))) (some r (and (not A) B)))))\n",
    "trans r\ninst a (and (not A) (some r (and A (some r- (and B (not A))))))\ninst a (not B)\n",
    "sub r s-\ntrans s\nimpl A (some r (not A))\nimpl (not A) (all s A)\ninst a A\n",
    "impl top (or A (some r A))\nimpl A (all r- (not A))\ninst a (not A)\ninst b (and B (not A))\nrel r a b\n",
    "inst a (and C (and (some r (and (not C) (and A (not B)))) (some r (and (not C) (and (not A) B)))))\n",
    "trans r\ninst a (and (some r (some r A)) (all r (not A)))\n",
)


def test_agrees_with_the_reference_search():
    rng = random.Random(20261018)
    texts = [random_kb_text(rng) for _ in range(150)]
    texts += [EX1_TEXT, EX1_BASE_TEXT, EX2_TEXT, *HAND_WRITTEN]
    sizes = set()
    for text in texts:
        kb = parse_kb(text)
        for k in (1, 2, 3):
            expected = _reference_search(kb, k)
            found = bounded_model_search(kb, k)
            assert _size(found) == _size(expected), (text, k)
            for interp in (expected, found):
                assert interp is None or check_model(interp, kb)
            sizes.add(_size(found))
    assert sizes == {None, 1, 2, 3}


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


def test_budget_covers_maps_whose_abox_clashes():
    # Every individual map clashes on a1's units before any search, and
    # k = 4 has tens of thousands of maps: they must draw on the budget.
    text = "".join(f"inst a{i} A\n" for i in range(1, 10)) + "inst a1 (not A)\n"
    with pytest.raises(SearchBudgetExceeded):
        bounded_model_search(parse_kb(text), 4, budget=1000)


def test_restricted_growth_maps_match_the_filtered_product():
    def filtered(inds, n):
        for tup in product(range(n), repeat=len(inds)):
            if all(v <= max(tup[:i], default=-1) + 1 for i, v in enumerate(tup)):
                yield dict(zip(inds, tup))

    for m in range(7):
        inds = [f"a{i}" for i in range(m)]
        for n in range(1, 6):
            assert list(_restricted_growth_maps(inds, n)) == list(filtered(inds, n)), (m, n)


def test_rejects_non_positive_bound():
    kb = parse_kb("inst a A\n")
    with pytest.raises(ValueError):
        bounded_model_search(kb, 0)


def test_instance_refutation_has_a_countermodel():
    # a is not forced into B: the complemented query has a small model.
    kb = parse_kb("inst a A\n")
    neg = kb.store.inst("a", kb.store.negate(kb.store.atom("B")))
    query = build_kb(kb.store, [], [], [], list(kb.abox) + [neg])
    found = bounded_model_search(query, 2)
    assert found is not None
    assert check_model(found, query)


@pytest.mark.parametrize("shape", ["conj", "some"])
def test_deep_nesting_is_stack_safe(shape):
    # Built through the store, since the parser still recurses.
    store = FormulaStore()
    concept = store.atom("A")
    for i in range(1200):
        concept = store.conj(store.atom(f"A{i}"), concept) if shape == "conj" else store.exist(Role("r"), concept)
    kb = build_kb(store, [], [], [], [store.inst("a", concept)])
    found = bounded_model_search(kb, 1)
    assert found is not None
    assert check_model(found, kb)
