"""Role-box closure: fixpoint shape, queries, minimality."""
from __future__ import annotations

from dataclasses import FrozenInstanceError

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from shisat import build_ext, build_witness, decide_sat, kb_index, parse_kb
from shisat import rbox as rbox_module
from shisat.rbox import transitive_closure
from shisat.syntax import Role

R, RI = Role("r"), Role("r", True)
S, SI = Role("s", True).inverse, Role("s", True)  # S = s, SI = s-
L, LI = Role("L"), Role("L", True)
P, PI = Role("P"), Role("P", True)


def test_ext_example_two_rbox():
    # Hand fixpoint of {r <= s, r- <= s, trans(s)}: the inverse rule adds
    # r- <= s- and r <= s-, transitivity of s mirrors to s-.
    idx = build_ext([(R, S), (RI, S)], [S], ["r", "s"])
    expected = {(R, S), (RI, SI), (RI, S), (R, SI)}
    reflexive = {(x, x) for x in (R, RI, S, SI)}
    assert idx.subrole_pairs == frozenset(expected | reflexive)
    assert idx.transitive == frozenset({S, SI})


def test_ext_example_one_rbox():
    # Hand fixpoint of {L <= P, trans(P)}.
    idx = build_ext([(L, P)], [P], ["L", "P"])
    expected = {(L, P), (LI, PI)}
    reflexive = {(x, x) for x in (L, LI, P, PI)}
    assert idx.subrole_pairs == frozenset(expected | reflexive)
    assert idx.transitive == frozenset({P, PI})


def test_ext_empty_rbox():
    idx = build_ext([], [], ["r"])
    assert idx.subrole_pairs == frozenset({(R, R), (RI, RI)})
    assert idx.transitive == frozenset()


def test_subrole_queries():
    idx = build_ext([(L, P)], [P], ["L", "P"])
    assert (L, P) in idx.subrole_pairs
    assert (P, L) not in idx.subrole_pairs
    assert (L, L) in idx.subrole_pairs  # reflexivity
    assert (P, P) in idx.subrole_pairs


def test_transitivity_queries():
    idx = build_ext([(L, P)], [P], ["L", "P"])
    assert P in idx.transitive
    assert PI in idx.transitive
    assert L not in idx.transitive


def test_srtr_queries():
    ex1 = build_ext([(L, P)], [P], ["L", "P"])
    assert ex1.srtr(L, P)
    ex2 = build_ext([(R, S), (RI, S)], [S], ["r", "s"])
    assert ex2.srtr(RI, S)
    assert not ex2.srtr(S, R)


def test_unknown_role_rejected():
    idx = build_ext([], [], ["r"])
    with pytest.raises(ValueError):
        idx.srtr(R, Role("zz"))
    with pytest.raises(ValueError):
        idx.srtr(Role("zz"), R)
    with pytest.raises(ValueError):
        idx.subroles_of(Role("zz"))
    with pytest.raises(ValueError):
        build_ext([(R, Role("zz"))], [], ["r"])
    with pytest.raises(ValueError, match="transitivity"):
        build_ext([], [Role("zz")], ["r"])


def _one_step(idx):
    """A single application of the closure conditions; used to confirm the
    output is already a fixpoint."""
    pairs = set(idx.subrole_pairs)
    trans = set(idx.transitive)
    pairs |= {(r, r) for r in idx.roles}
    pairs |= {(r.inverse, s.inverse) for (r, s) in idx.subrole_pairs}
    trans |= {r.inverse for r in idx.transitive}
    pairs |= {
        (r, t)
        for (r, s) in idx.subrole_pairs
        for (s2, t) in idx.subrole_pairs
        if s == s2
    }
    return pairs, trans


@pytest.mark.parametrize(
    "subs,trans,names",
    [
        ([], [], ["r"]),
        ([(L, P)], [P], ["L", "P"]),
        ([(R, S), (RI, S)], [S], ["r", "s"]),
        ([(R, S), (S, R)], [R], ["r", "s"]),
        ([(R, SI)], [], ["r", "s"]),
    ],
)
def test_output_is_a_fixpoint_and_bounded(subs, trans, names):
    idx = build_ext(subs, trans, names)
    pairs, transitive = _one_step(idx)
    assert pairs == set(idx.subrole_pairs)
    assert transitive == set(idx.transitive)
    assert len(idx.subrole_pairs) <= (2 * len(names)) ** 2


def test_subroles_of_is_sorted_and_complete():
    idx = build_ext([(R, S), (RI, S)], [S], ["r", "s"])
    assert idx.subroles_of(S) == (R, RI, S)


def _role_order(role):
    return (role.name, role.inverted)


def _reference_closure(subsumptions, transitive, role_names):
    """The least fixpoint of the closure conditions, iterated naively."""
    roles = [Role(name, inverted) for name in role_names for inverted in (False, True)]
    pairs = {(r, r) for r in roles} | set(subsumptions)
    trans = set(transitive)
    changed = True
    while changed:
        changed = False
        for r, s in list(pairs):
            inv = (r.inverse, s.inverse)
            if inv not in pairs:
                pairs.add(inv)
                changed = True
        for r in list(trans):
            if r.inverse not in trans:
                trans.add(r.inverse)
                changed = True
        for r, s in list(pairs):
            for s2, t in list(pairs):
                if s2 == s and (r, t) not in pairs:
                    pairs.add((r, t))
                    changed = True
    return sorted(roles, key=_role_order), pairs, trans


@st.composite
def _role_boxes(draw):
    """Up to 3 role names, random inclusions and transitivity among all
    roles (inverses included)."""
    names = ["r", "s", "t"][: draw(st.integers(1, 3))]
    role = st.sampled_from([Role(n, inv) for n in names for inv in (False, True)])
    subs = draw(st.lists(st.tuples(role, role), max_size=6))
    return subs, draw(st.lists(role, max_size=3)), names


@given(_role_boxes())
def test_closure_matches_reference_fixpoint(box):
    subs, trans, names = box
    idx = build_ext(subs, trans, names)
    roles, pairs, transitive = _reference_closure(subs, trans, names)
    assert list(idx.roles) == roles
    assert idx.subrole_pairs == pairs
    assert idx.transitive == transitive
    for s in roles:
        assert idx.subroles_of(s) == tuple(sorted((r for (r, t) in pairs if t == s), key=_role_order))
        for r in roles:
            assert idx.srtr(r, s) == ((r, s) in pairs and s in transitive)


def test_each_knowledge_base_closes_its_role_box_once(monkeypatch):
    closures = []

    def build_ext_spy(*args):
        closures.append(args)
        return build_ext(*args)

    monkeypatch.setattr(rbox_module, "build_ext", build_ext_spy)
    kb = parse_kb("sub r s\ntrans s\ninst a (and (some r A) (all s B))\n")
    idx = kb_index(kb)
    verdict = decide_sat(kb)
    assert verdict.sat
    build_witness(verdict.graph, kb, kb_index(kb))
    assert len(closures) == 1
    assert verdict.engine.idx is idx is kb_index(kb)
    assert decide_sat(kb).engine.idx is kb_index(kb)
    assert len(closures) == 1
    assert kb_index(parse_kb("sub r s\n")) is not idx  # a new knowledge base closes its own
    assert len(closures) == 2


def test_a_knowledge_base_cannot_be_reassigned():
    """The kept role box rests on this: no field of a built knowledge base
    can be rebound."""
    kb = parse_kb("sub r s\ninst a (some r A)\n")
    idx = kb_index(kb)
    with pytest.raises(FrozenInstanceError):
        kb.role_subsumptions = []
    assert kb_index(kb) is idx


def _naive_transitive_closure(pairs: set) -> set:
    """Add every (a, d) with (a, b) and (b, d) until nothing changes."""
    closed = set(pairs)
    while True:
        more = {(a, d) for (a, b) in closed for (c, d) in closed if b == c} - closed
        if not more:
            return closed
        closed |= more


@st.composite
def _graphs(draw):
    """Random pairs over eight elements, with a drawn cycle and self-loops
    added, so that walks meet finished elements inside and outside cycles
    and many elements share successors."""
    element = st.integers(0, 7)
    pairs = draw(st.sets(st.tuples(element, element), max_size=20))
    cycle = draw(st.lists(element, unique=True, max_size=5))
    pairs |= set(zip(cycle, cycle[1:] + cycle[:1]))
    pairs |= {(x, x) for x in draw(st.sets(element, max_size=3))}
    return pairs


@given(_graphs())
@example({(0, 1), (1, 0), (2, 0)})  # 0's walk goes through 1 and back before 0 is finished
@example({(1, 2), (2, 3), (3, 1), (0, 2), (3, 4)})  # a cycle entered from outside, with an exit
@example({(0, 0), (0, 1), (1, 1)})
def test_transitive_closure_matches_the_naive_fixpoint(pairs):
    assert transitive_closure(pairs) == _naive_transitive_closure(pairs)
