"""Engine behaviour: refutation checks, rule choice, application effects,
status flow, and the worked examples end to end."""
from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from shisat import TableauEngine, bounded_model_search, check_model, decide_sat, parse_kb
from shisat import engine as engine_module
from shisat.engine import EMPTY, PRIORITY, R_CONV, RuleInstance, t_unsat
from shisat.graph import (
    COMPLEX,
    EXPANDED,
    INCOMPLETE,
    NONSTATE,
    SAT,
    SIMPLE,
    STATE,
    UNEXPANDED,
    UNSAT,
)
from shisat.kbparse import parse_concept_text
from shisat.syntax import ALL, AND, INST, OR, SOME, Role, formula_text, ordered
from shisat.transfer import transfer_concepts_to

from helpers import EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT, interned_texts, label_texts, run


# -- obvious refutation ----------------------------------------------------

def test_t_unsat_complementary_assertions():
    kb = parse_kb("inst a F\ninst a (not F)\n")
    assert t_unsat(kb.store, frozenset(kb.abox))


def test_t_unsat_complementary_concepts():
    kb = parse_kb("inst x A\n")
    store = kb.store
    label = {
        store.atom("A"),
        store.univ(Role("s"), store.negate(store.atom("A"))),
        store.negate(store.atom("A")),
    }
    assert t_unsat(store, label)


def test_t_unsat_negative():
    kb = parse_kb("inst a A\n")
    assert not t_unsat(kb.store, frozenset(kb.abox))


def test_t_unsat_bottom_assertion():
    kb = parse_kb("inst a bot\n")
    assert t_unsat(kb.store, frozenset(kb.abox))


def test_repeated_clash_test_interns_nothing():
    # A memo hit skips the call, so the call it skips must intern nothing:
    # the complements are interned on the first test of the label.
    kb = parse_kb("inst a A\n")
    store = kb.store
    engine = TableauEngine(kb)
    r = Role("r")
    label = frozenset(
        {store.atom("A"), store.univ(r, store.atom("B")), store.exist(r, store.conj(store.atom("B"), store.atom("C")))}
    )
    before = store._next
    assert not engine._clashes(label)
    after = store._next
    assert after > before
    assert not engine._clashes(label)
    assert not t_unsat(store, label)
    assert store._next == after


def test_repeated_backward_transfer_interns_nothing():
    kb = parse_kb("inst a (some r- A)\n")
    store = kb.store
    engine = TableauEngine(kb)
    ex = kb.abox[0]
    label = frozenset({store.atom("A"), store.univ(Role("r"), store.atom("B")), store.univ(Role("r"), store.atom("C"))})
    before = store._next
    out = engine._backward(ex, label)
    after = store._next
    assert after > before
    assert _texts(out) == {"a:B", "a:C"}
    assert engine._backward(ex, label) is out
    assert transfer_concepts_to(engine.idx, store, label, Role("r"), "a") == out
    assert store._next == after


# -- rule choice -------------------------------------------------------------

def _ex1_nodes():
    kb, verdict = run(EX1_TEXT)
    by_label = {}
    for node in verdict.graph.nodes:
        by_label.setdefault(label_texts(node), node)
    return kb, verdict, by_label


PHI = "(or (not F) (and I (all P F)))"
TRACE_LABELS = {
    1: frozenset({"a:F", "L(a,b)", f"a:{PHI}", f"b:{PHI}", "b:(some L (not I))"}),
    5: frozenset(
        {"a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:I", "a:(all P F)", "a:(all L F)"}
    ),
    6: frozenset(
        {
            "a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:I",
            "a:(all P F)", "a:(all L F)", "b:F", "b:(all P F)",
        }
    ),
    11: frozenset(
        {
            "a:F", "L(a,b)", "b:(some L (not I))", "a:I", "a:(all P F)",
            "a:(all L F)", "b:F", "b:(all P F)", "b:(all L F)", "b:I",
        }
    ),
    12: frozenset({"(not I)", "F", "(all P F)", PHI}),
}


def test_subrole_narrowing_fires_before_role_propagation():
    # At the node that has a:(all P F) but not yet a:(all L F), the
    # narrowing rule is chosen even though L(a,b) could already fire.
    _, _, by_label = _ex1_nodes()
    pre = frozenset(
        {"a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:I", "a:(all P F)"}
    )
    assert by_label[pre].rule == "hier'"


def test_role_propagation_fires_once_narrowing_done():
    _, _, by_label = _ex1_nodes()
    assert by_label[TRACE_LABELS[5]].rule == "univ'"


def test_saturated_label_has_no_rule():
    kb = parse_kb(EX2_TEXT)
    engine = TableauEngine(kb)
    store = kb.store
    not_a = store.negate(store.atom("A"))
    label = frozenset(
        {
            store.atom("A"),
            store.univ(Role("s"), not_a),
            store.univ(Role("r"), not_a),
            store.univ(Role("r", True), not_a),
        }
    )
    v = engine.graph.new_succ(None, NONSTATE, SIMPLE, None, label, EMPTY, EMPTY)
    assert engine.applicable_rule(v) is None


def test_form_state_requires_an_existential():
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    v = engine.graph.new_succ(
        None, NONSTATE, SIMPLE, None, frozenset({store.atom("A")}), EMPTY, EMPTY
    )
    assert engine.applicable_rule(v) is None
    w = engine.graph.new_succ(
        None, NONSTATE, SIMPLE, None,
        frozenset({store.exist(Role("r"), store.atom("A"))}), EMPTY, EMPTY,
    )
    rule = engine.applicable_rule(w)
    assert rule is not None and rule.tag == "form-state"


# -- application effects ------------------------------------------------------

def _reference_rule(engine, v):
    """The rule scan as it was before labels were memoised: it sorts the
    label and scans it once per rule kind."""
    body = engine_module._body
    node = engine.graph.node(v)
    prime = "" if node.stype == SIMPLE else "'"
    view = [(f, body(f)) for f in ordered(node.label)]
    if node.node_type == STATE:
        ex = tuple(f for f, c in view if c is not None and c.kind == SOME)
        return RuleInstance(engine_module.R_EXISTS + prime, principals=ex) if ex else None
    store = engine.store
    af = node.aformulas
    for f, c in view:
        if c is not None and c.kind == AND and f not in node.rformulas:
            return RuleInstance(engine_module.R_AND + prime, principal=f)
    for f, c in view:
        if c is None or c.kind != ALL:
            continue
        for r in engine.idx.subroles_of(c.role):
            added = engine._lift(f, store.univ(r, c.child))
            if added not in af:
                return RuleInstance(engine_module.R_HIER + prime, principal=f, added=frozenset({added}))
    for f, c in view:
        if c is not None:
            continue
        added = (
            engine_module.transfer_assertions(engine.idx, store, node.label, f.a, f.role, f.b)
            | engine_module.transfer_assertions(engine.idx, store, node.label, f.b, f.role.inverse, f.a)
        ) - af
        if added:
            return RuleInstance(engine_module.R_UNIV_A, principal=f, added=frozenset(added))
    for f, c in view:
        if c is not None and c.kind == OR and f not in node.rformulas:
            return RuleInstance(engine_module.R_OR + prime, principal=f)
    if any(c is not None and c.kind == SOME for _, c in view):
        return RuleInstance(engine_module.R_FORM)
    return None


_RULE_KB = "sub r s\ntrans s\nsub t s-\nrel r a b\ninst a A\ninst b B\n"
_RULE_ROLES = [Role(n, inv) for n in "rst" for inv in (False, True)]
_CONCEPTS = st.recursive(
    st.sampled_from(["A", "B", "C", "-A", "-B", "top", "bot"]),
    lambda inner: st.tuples(st.sampled_from(["and", "or"]), inner, inner)
    | st.tuples(st.sampled_from(["all", "some"]), st.integers(0, 5), inner),
    max_leaves=4,
)
_SIMPLE_MEMBERS = _CONCEPTS | st.tuples(st.just("all"), st.integers(0, 5), _CONCEPTS)
_COMPLEX_MEMBERS = st.tuples(st.just("inst"), st.sampled_from("ab"), _SIMPLE_MEMBERS) | st.tuples(
    st.just("rel"), st.integers(0, 5), st.sampled_from("ab"), st.sampled_from("ab")
)
_SOMETIMES = st.integers(0, 3).map(lambda k: k == 0)


def _build(store, recipe):
    if isinstance(recipe, str):
        if recipe in ("top", "bot"):
            return getattr(store, recipe)
        if recipe.startswith("-"):
            return store.negate(store.atom(recipe[1:]))
        return store.atom(recipe)
    op = recipe[0]
    if op == "inst":
        return store.inst(recipe[1], _build(store, recipe[2]))
    if op == "rel":
        return store.rel(_RULE_ROLES[recipe[1]], recipe[2], recipe[3])
    if op in ("and", "or"):
        make = store.conj if op == "and" else store.disj
        return make(_build(store, recipe[1]), _build(store, recipe[2]))
    make = store.univ if op == "all" else store.exist
    return make(_RULE_ROLES[recipe[1]], _build(store, recipe[2]))


@st.composite
def _rule_cases(draw):
    complex_label = draw(st.booleans())
    members = _COMPLEX_MEMBERS if complex_label else _SIMPLE_MEMBERS
    label = draw(st.lists(st.tuples(members, _SOMETIMES), min_size=1, max_size=8))
    extra = draw(st.lists(members, max_size=3))  # rformulas outside the label
    state = draw(_SOMETIMES)
    return complex_label, label, extra, state


def _rule_text(rule):
    if rule is None:
        return None
    principal = None if rule.principal is None else formula_text(rule.principal)
    return (rule.tag, principal, tuple(map(formula_text, rule.principals)), _texts(rule.added))


@settings(deadline=None, max_examples=300)
@given(_rule_cases())
def test_applicable_rule_matches_the_label_scan(case):
    complex_label, label, extra, state = case
    runs = []
    for select in (TableauEngine.applicable_rule, _reference_rule):
        kb = parse_kb(_RULE_KB)
        engine = TableauEngine(kb)
        members = [(_build(kb.store, m), in_rf) for m, in_rf in label]
        rfmls = {f for f, in_rf in members if in_rf} | {_build(kb.store, m) for m in extra}
        v = engine.graph.new_succ(
            None, STATE if state else NONSTATE, COMPLEX if complex_label else SIMPLE, None,
            frozenset(f for f, _ in members), rfmls, EMPTY,
        )
        rule = select(engine, v)
        assert select is _reference_rule or select(engine, v) == rule  # a memo hit agrees
        runs.append((_rule_text(rule), interned_texts(kb.store)))
    assert runs[0] == runs[1]


def test_disjunction_split_at_root():
    kb, verdict, by_label = _ex1_nodes()
    graph = verdict.graph
    root = graph.node(graph.root)
    assert root.rule == "or'"
    kids = [graph.node(w) for w in graph.successors(graph.root)]
    assert len(kids) == 2
    principal = kb.store.inst("a", kb.tbox[0])
    for kid in kids:
        assert principal in kid.rformulas
        assert principal not in kid.label
    labels = {label_texts(k) for k in kids}
    assert frozenset({"a:F", "L(a,b)", "b:(some L (not I))", f"b:{PHI}", "a:(not F)"}) in labels


def test_role_propagation_adds_both_directions_at_once():
    _, _, by_label = _ex1_nodes()
    before = TRACE_LABELS[5]
    after = TRACE_LABELS[6]
    assert after == before | {"b:F", "b:(all P F)"}
    assert by_label[after] is not None


def test_transitional_expansion_of_the_state():
    kb, verdict, _ = _ex1_nodes()
    graph = verdict.graph
    state = next(
        n for n in graph.nodes
        if n.node_type == STATE and label_texts(n) == TRACE_LABELS[11]
    )
    succs = [graph.node(w) for w in graph.successors(state.id)]
    assert len(succs) == 1
    child = succs[0]
    assert label_texts(child) == TRACE_LABELS[12]
    assert child.stype == SIMPLE
    assert child.ce_label is kb.store.inst(
        "b", parse_concept_text("(some L (not I))", kb.store)
    )
    assert child.rformulas == frozenset() and child.dformulas == frozenset()


def test_example_two_state_goes_incomplete_with_required_formulas():
    kb, verdict = run(EX2_TEXT)
    graph = verdict.graph
    store = kb.store
    target = frozenset({"a:top", "a:(some r (and A (all s (not A))))"})
    state = next(
        n for n in graph.nodes if n.node_type == STATE and label_texts(n) == target
    )
    assert state.status == INCOMPLETE
    assert state.conv_method == 0
    not_a = store.negate(store.atom("A"))
    required = {
        store.inst("a", not_a),
        store.inst("a", store.univ(Role("s"), not_a)),
    }
    assert required <= state.fmls_rc
    # the repair happened after the state reported incomplete
    trace = verdict.engine.trace
    inc_at = next(
        i for i, ev in enumerate(trace)
        if ev[0] == "status" and ev[1] == state.id and ev[2] == INCOMPLETE
    )
    conv_at = next(
        i for i, ev in enumerate(trace) if ev[0] == "rule" and ev[1] == R_CONV
    )
    assert inc_at < conv_at
    # mode-0 repair: the re-expanded root gains exactly the required set
    root = graph.node(graph.root)
    repaired = [graph.node(w) for w in graph.successors(graph.root)]
    assert len(repaired) == 1
    assert repaired[0].label == root.label | required


def test_incomplete_event_holds_the_state_repair_record():
    # fmls_rc is a frozen value that is rebound, never mutated, so the
    # trace records the state's own object rather than a copy of it
    kb, verdict = run(EX2_TEXT)
    events = [ev for ev in verdict.engine.trace if ev[0] == "status" and ev[2] == INCOMPLETE]
    assert len(events) == 1 and len(events[0]) == 5
    assert events[0][4] is verdict.graph.node(events[0][1]).fmls_rc


def test_converse_repair_with_alternative_sets():
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    base = store.atom("L0")
    v = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({base}), EMPTY, EMPTY)
    w = g.new_succ(v, STATE, SIMPLE, None, frozenset({base}), EMPTY, EMPTY)
    phi1, phi2 = store.atom("F1"), store.atom("F2")
    psi1, psi2 = store.atom("G1"), store.atom("G2")
    vn, wn = g.node(v), g.node(w)
    vn.status = EXPANDED
    wn.status = INCOMPLETE
    wn.conv_method = 1
    wn.alt_fml_sets_sc = frozenset({frozenset({phi1}), frozenset({phi2}), frozenset({psi1, psi2})})
    engine.apply_conv_rule(v)
    kids = [g.node(x) for x in g.successors(v)]
    assert [k.label for k in kids] == [
        frozenset({base, phi1}),
        frozenset({base, phi2}),
        frozenset({base, psi1, psi2}),
    ]
    assert [k.dformulas for k in kids] == [
        frozenset(),
        frozenset({phi1}),
        frozenset({phi1, phi2}),
    ]


def _reference_conv_successors(engine, v) -> None:
    """The converse rule in two branches, one for mode 0's `fmls_rc` and
    one for mode 1's alternative sets: the reference `apply_conv_rule`'s
    single loop is compared with."""
    g = engine.graph
    node = g.node(v)
    w = g.successors(v)[0]
    wn = g.node(w)
    g.remove_edge(v, w)
    if wn.conv_method == 0:
        g.con_to_succ(v, NONSTATE, node.label | wn.fmls_rc, node.rformulas, node.dformulas)
        return
    sets = list(wn.alt_fml_sets_sc)
    singles = sorted((s for s in sets if len(s) == 1), key=lambda s: next(iter(s)).uid)
    rest = sorted((s for s in sets if len(s) > 1), key=lambda s: tuple(sorted(f.uid for f in s)))
    chosen = [next(iter(s)) for s in singles]
    for i, phi in enumerate(chosen):
        new_dfmls = node.dformulas | frozenset(chosen[:i])
        g.con_to_succ(v, NONSTATE, node.label | {phi}, node.rformulas, new_dfmls)
    blocked = frozenset(chosen)
    for x in rest:
        g.con_to_succ(v, NONSTATE, node.label | x, node.rformulas, node.dformulas | blocked)


def _conv_setup(mode, sets, rfmls, dfmls):
    """A fresh engine with an or-node over an incomplete state whose repair
    record is `sets` of atom names: the single set `fmls_rc` in mode 0,
    alternative sets in mode 1."""
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    for i in range(6):  # intern the atoms in one order, whatever is drawn
        store.atom(f"F{i}")

    def atoms(names):
        return frozenset(store.atom(n) for n in names)

    v = g.new_succ(None, NONSTATE, SIMPLE, None, atoms({"L0"}), atoms(rfmls), atoms(dfmls))
    w = g.new_succ(v, STATE, SIMPLE, None, atoms({"L0"}), EMPTY, EMPTY)
    g.node(v).status = EXPANDED
    wn = g.node(w)
    wn.status = INCOMPLETE
    wn.conv_method = mode
    if mode == 0:
        wn.fmls_rc = atoms(sets[0])
    else:
        wn.alt_fml_sets_sc = frozenset(atoms(x) for x in sets)
    return engine, v


def _texts(fmls) -> frozenset:
    return frozenset(formula_text(f) for f in fmls)


_ATOM_NAMES = st.sampled_from([f"F{i}" for i in range(6)])


@given(
    st.one_of(
        st.tuples(st.just(0), st.lists(st.frozensets(_ATOM_NAMES, min_size=1), min_size=1, max_size=1)),
        st.tuples(st.just(1), st.lists(st.frozensets(_ATOM_NAMES, min_size=1, max_size=3), max_size=5)),
    ),
    st.frozensets(st.sampled_from(["R0", "R1"])),
    st.frozensets(st.sampled_from(["D0", "D1"])),
)
def test_converse_successors_match_the_two_branch_rule(repair, rfmls, dfmls):
    mode, sets = repair
    engine, v = _conv_setup(mode, sets, rfmls, dfmls)
    reference, v_ref = _conv_setup(mode, sets, rfmls, dfmls)
    engine.apply_conv_rule(v)
    _reference_conv_successors(reference, v_ref)

    def successors(e, x):
        kids = [e.graph.node(w) for w in e.graph.successors(x)]
        return [(_texts(k.label), _texts(k.rformulas), _texts(k.dformulas)) for k in kids]

    assert successors(engine, v) == successors(reference, v_ref)


def test_converse_repair_with_no_alternatives_refutes():
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    base = store.atom("L0")
    v = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({base}), EMPTY, EMPTY)
    w = g.new_succ(v, STATE, SIMPLE, None, frozenset({base}), EMPTY, EMPTY)
    g.node(v).status = EXPANDED
    wn = g.node(w)
    wn.status = INCOMPLETE
    wn.conv_method = 1
    engine.apply_rule(RuleInstance(R_CONV), v)
    assert g.successors(v) == []
    assert g.node(v).status == UNSAT


def test_local_pass_saturates_the_nodes_it_creates():
    # the successor of the state needs and, and, then hier (r <= s narrows
    # (all s D) to (all r D)); the pass must reach the nodes those steps add
    kb = parse_kb("sub r s\ninst a A\n")
    engine = TableauEngine(kb)
    g = engine.graph
    ex = parse_concept_text("(some r (and B (and C (all s D))))", kb.store)
    u = g.new_succ(None, STATE, SIMPLE, None, frozenset({ex}), EMPTY, EMPTY)
    first = len(g.nodes)
    engine.apply_rule(engine.applicable_rule(u), u)
    assert engine.rule_counts["and"] == 2 and engine.rule_counts["hier"] == 1
    created = g.nodes[first:]
    assert len(created) == 4
    assert "(all r D)" in label_texts(created[-1])
    for node in created:
        assert node.state_pred == u
        if node.status == UNEXPANDED:
            inst = engine.applicable_rule(node.id)
            assert inst is None or PRIORITY[inst.tag] < 5


# -- status flow ---------------------------------------------------------------

def _two_children(statuses):
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    v = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({store.atom("X0")}), EMPTY, EMPTY)
    g.node(v).status = EXPANDED
    for i, status in enumerate(statuses):
        w = g.new_succ(v, NONSTATE, SIMPLE, None, frozenset({store.atom(f"X{i + 1}")}), EMPTY, EMPTY)
        g.node(w).status = status
    return engine, g, v


def test_update_status_or_node_undetermined():
    engine, g, v = _two_children([UNSAT, EXPANDED])
    engine.update_status(v)
    assert g.node(v).status == EXPANDED


def test_update_status_or_node_all_refuted():
    engine, g, v = _two_children([UNSAT, UNSAT])
    engine.update_status(v)
    assert g.node(v).status == UNSAT


def test_update_status_or_node_any_sat():
    engine, g, v = _two_children([UNSAT, SAT])
    engine.update_status(v)
    assert g.node(v).status == SAT


def test_update_status_state_copies_alternative_sets():
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = kb.store
    g = engine.graph
    pre = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({store.atom("Y0")}), EMPTY, EMPTY)
    u = g.new_succ(pre, STATE, SIMPLE, None, frozenset({store.atom("Y0")}), EMPTY, EMPTY)
    w = g.new_succ(u, NONSTATE, SIMPLE, None, frozenset({store.atom("Y1")}), EMPTY, EMPTY)
    g.node(u).status = EXPANDED
    wn = g.node(w)
    wn.status = INCOMPLETE
    wn.alt_fml_sets_scp = frozenset({frozenset({store.atom("Y2")})})
    engine.update_status(u)
    un = g.node(u)
    assert un.status == INCOMPLETE
    assert un.alt_fml_sets_sc is wn.alt_fml_sets_scp


def _reference_update_status(engine, v):
    """Status update as it was before it became one pass: up to four
    scans of the successors."""
    g = engine.graph
    node = g.node(v)
    if node.status != EXPANDED:
        return
    succ_nodes = [g.node(w) for w in g.successors(v)]
    if node.node_type == NONSTATE:
        if any(w.status == SAT for w in succ_nodes):
            engine._set_status(node, SAT)
        elif all(w.status == UNSAT for w in succ_nodes):
            engine._set_status(node, UNSAT)
        elif all(w.status in (INCOMPLETE, UNSAT) for w in succ_nodes):
            if any(w.node_type == STATE for w in succ_nodes):
                engine.apply_rule(RuleInstance(R_CONV), v)
            else:
                engine._set_status(node, INCOMPLETE)
    else:
        if all(w.status == SAT for w in succ_nodes):
            engine._set_status(node, SAT)
        elif any(w.status == UNSAT for w in succ_nodes):
            engine._set_status(node, UNSAT)
        else:
            w = next((w for w in succ_nodes if w.status == INCOMPLETE), None)
            if w is not None:
                node.alt_fml_sets_sc = w.alt_fml_sets_scp
                engine._set_status(node, INCOMPLETE)


_STATUSES = (UNEXPANDED, EXPANDED, INCOMPLETE, UNSAT, SAT)


def _status_outcome(update, node_type, succs):
    kb = parse_kb("inst a A\n")
    engine = TableauEngine(kb)
    store = engine.store
    g = engine.graph
    repairs = []
    engine.apply_rule = lambda rule, x: repairs.append((rule.tag, x))
    root = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({store.atom("X0")}), EMPTY, EMPTY)
    v = root if node_type == NONSTATE else g.new_succ(root, STATE, SIMPLE, None, frozenset({store.atom("X0")}), EMPTY, EMPTY)
    g.node(v).status = EXPANDED
    for i, (status, succ_type) in enumerate(succs):
        w = g.new_succ(v, succ_type, SIMPLE, None, frozenset({store.atom(f"X{i + 1}")}), EMPTY, EMPTY)
        g.node(w).status = status
        g.node(w).alt_fml_sets_scp = frozenset({frozenset({store.atom(f"Y{i + 1}")})})
    update(engine, v)
    node = g.node(v)
    return node.status, repairs, _texts(f for s in node.alt_fml_sets_sc for f in s), engine.trace


def test_update_status_matches_the_scans_on_every_successor_list():
    import itertools

    cases = 0
    for node_type in (NONSTATE, STATE):
        # a state's successors are or-nodes; an or-node may also lead to a state
        succ_kinds = [(s, NONSTATE) for s in _STATUSES]
        if node_type == NONSTATE:
            succ_kinds += [(s, STATE) for s in _STATUSES]
        for n in range(4):
            for succs in itertools.product(succ_kinds, repeat=n):
                new = _status_outcome(TableauEngine.update_status, node_type, succs)
                old = _status_outcome(_reference_update_status, node_type, succs)
                assert new == old, (node_type, succs)
                cases += 1
    assert cases == (1 + 10 + 100 + 1000) + (1 + 5 + 25 + 125)


def test_propagate_skips_unexpanded_predecessors():
    engine, g, v = _two_children([SAT, SAT])
    # v's predecessor list is empty; add an unexpanded parent above it
    store = engine.store
    parent = g.new_succ(None, NONSTATE, SIMPLE, None, frozenset({store.atom("Z9")}), EMPTY, EMPTY)
    g.add_edge(parent, v)
    engine.update_status(v)
    engine.propagate_status(v)
    assert g.node(parent).status == "unexpanded"


def test_clashing_transitional_successor_refutes_the_state():
    kb, verdict = run("inst a (and A (some r (and B (not B))))\n")
    assert not verdict.sat
    graph = verdict.graph
    state = next(n for n in graph.nodes if n.node_type == STATE)
    assert state.status == UNSAT


# -- end to end -----------------------------------------------------------------

def test_example_one_unsatisfiable():
    _, verdict = run(EX1_TEXT)
    assert not verdict.sat


def test_example_two_unsatisfiable():
    _, verdict = run(EX2_TEXT)
    assert not verdict.sat


def test_atomic_assertion_satisfiable():
    _, verdict = run("inst a A\n")
    assert verdict.sat


def test_immediate_root_clash():
    _, verdict = run("inst a A\ninst a (not A)\n")
    assert not verdict.sat
    assert verdict.stats["rule_applications"] == {}


def test_converse_repair_reaches_satisfiable_verdict():
    # The state demands a:C back through the inverse edge; the repaired
    # branch closes cleanly, the abandoned state stays incomplete but
    # disconnected.
    kb, verdict = run("inst a (some r (all r- C))\n")
    assert verdict.sat
    graph = verdict.graph
    incomplete = [n for n in graph.nodes if n.status == INCOMPLETE]
    assert incomplete and all(n.node_type == STATE for n in incomplete)
    for n in incomplete:
        assert graph.predecessors(n.id) == []
    reachable = set()
    work = [graph.root]
    while work:
        x = work.pop()
        if x in reachable:
            continue
        reachable.add(x)
        work.extend(graph.successors(x))
    assert all(graph.node(x).status != INCOMPLETE for x in reachable)


def test_determinism_same_kb_object():
    kb = parse_kb(EX1_TEXT)
    first = decide_sat(kb)
    second = decide_sat(kb)
    assert first.sat == second.sat
    assert first.stats == second.stats


def test_determinism_reparsed_kb():
    first = decide_sat(parse_kb(EX2_TEXT))
    second = decide_sat(parse_kb(EX2_TEXT))
    assert first.stats == second.stats


def test_reparsed_runs_intern_in_one_order():
    # The clash test and the transfer to a named individual intern new
    # formulas; both go in uid order, so two runs of one text intern the
    # same formulas in the same order, whatever the address order of sets.
    from kbgen import chain_kb_text, differential_suite

    texts = differential_suite(500, 20240817)[:100]
    texts += [chain_kb_text(d) for d in range(1, 11)] + [EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT]
    for text in texts:
        first, second = parse_kb(text), parse_kb(text)
        decide_sat(first)
        decide_sat(second)
        assert interned_texts(first.store) == interned_texts(second.store), text


@pytest.mark.parametrize("text", [EX1_TEXT, EX2_TEXT, "inst a A\n", "inst a (some r (all r- C))\n"])
def test_strategies_agree(text):
    dfs = decide_sat(parse_kb(text), strategy="dfs")
    fifo = decide_sat(parse_kb(text), strategy="fifo")
    assert dfs.sat == fifo.sat


def test_strategies_agree_on_random_corpus():
    import random

    from kbgen import random_kb_text

    rng = random.Random(31)
    for _ in range(60):
        text = random_kb_text(rng)
        assert (
            decide_sat(parse_kb(text), strategy="dfs").sat
            == decide_sat(parse_kb(text), strategy="fifo").sat
        ), text


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_every_state_holds_an_existential(strategy):
    # A state is formed only from an or-node holding an existential, so the
    # transitional rule applies to every state and none is saturated.
    from kbgen import chain_kb_text, differential_suite

    texts = differential_suite(500, 20240817)[:100]
    texts += [chain_kb_text(d) for d in range(1, 11)] + [EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT]
    for text in texts:
        graph = decide_sat(parse_kb(text), strategy=strategy).graph
        for node in graph.nodes:
            if node.node_type == STATE:
                bodies = [f.concept if f.kind == INST else f for f in node.label]
                assert any(c.kind == SOME for c in bodies), (text, node)


def test_monotone_growth_along_static_edges():
    # Following any edge between or-nodes, reduced, available, and
    # disallowed formulas never shrink; the step grows reduced formulas
    # (decomposition) or available formulas (the other static rules).
    import random

    from kbgen import random_kb_text

    rng = random.Random(77)
    texts = [EX1_TEXT, EX2_TEXT] + [random_kb_text(rng) for _ in range(40)]
    for text in texts:
        graph = decide_sat(parse_kb(text)).graph
        for v, node in enumerate(graph.nodes):
            if node.node_type == STATE:
                continue
            for w in graph.successors(v):
                wn = graph.node(w)
                if wn.node_type == STATE:
                    assert wn.label == node.label
                    assert wn.rformulas == node.rformulas
                    assert wn.dformulas == node.dformulas
                    continue
                assert node.rformulas <= wn.rformulas, text
                assert node.aformulas <= wn.aformulas, text
                assert node.dformulas <= wn.dformulas, text
                grew = (
                    node.rformulas < wn.rformulas
                    or node.aformulas < wn.aformulas
                    or node.dformulas < wn.dformulas
                )
                assert grew, text


def test_disallowed_formula_refutes_state_at_seeding():
    # Second repair alternative carries a:C2 in its disallowed set; the
    # direct existential demands a:C2 again as soon as that branch forms
    # its state, which is refuted without expanding further.
    kb, verdict = run("inst a (some s (or (all s- C2) (all s- (some r (all r- C2)))))\n")
    assert verdict.sat
    store = kb.store
    blocked = store.inst("a", store.atom("C2"))
    dead = [
        n for n in verdict.graph.nodes
        if n.node_type == STATE and blocked in n.dformulas
    ]
    assert len(dead) == 1
    assert dead[0].status == UNSAT
    assert blocked in dead[0].fmls_rc


def test_disallowed_formula_refutes_or_branch():
    # Under the surviving repair branch (which disallows a:B), the
    # disjunct that would demand a:B back is refuted individually while
    # its sibling satisfies the state.
    kb, verdict = run("inst a (some r (or (all r- B) (all r- C)))\ninst a (not B)\n")
    assert verdict.sat
    store = kb.store
    blocked = store.inst("a", store.atom("B"))
    state = next(
        n for n in verdict.graph.nodes
        if n.node_type == STATE and blocked in n.dformulas
    )
    assert state.status == SAT
    branches = [verdict.graph.node(w) for w in verdict.graph.successors(state.id)]
    grandkids = [
        verdict.graph.node(w)
        for b in branches
        for w in verdict.graph.successors(b.id)
    ]
    statuses = sorted(k.status for k in grandkids)
    assert statuses == [SAT, UNSAT]


# ROADMAP item 1: a mode-0 repair mixes the demands of exclusive branches,
# so the engine refutes these satisfiable inputs. The first is the second
# shrunk by delta debugging; fifo happens to get the second right.
WRONG_UNSAT_SHRUNK = (
    "impl top (some s (all s- B))\n"
    "impl (some s- top) A\n"
    "impl (and C B) (all s- C)\n"
)
WRONG_UNSAT = (
    "impl (or (and B top) (all s D)) (some s (all s- B))\n"
    "impl (some s- (and C C)) (all s (all s D))\n"
    "impl (and C B) (all s- (and top C))\n"
    "inst a (some r (and C (and A C)))\n"
)
_WRONG = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: wrong UNSAT from a mixed mode-0 repair")


@pytest.mark.parametrize(
    "text, strategy",
    [
        pytest.param(WRONG_UNSAT_SHRUNK, "dfs", marks=_WRONG, id="shrunk-dfs"),
        pytest.param(WRONG_UNSAT_SHRUNK, "fifo", marks=_WRONG, id="shrunk-fifo"),
        pytest.param(WRONG_UNSAT, "dfs", marks=_WRONG, id="unshrunk-dfs"),
        pytest.param(WRONG_UNSAT, "fifo", id="unshrunk-fifo"),
    ],
)
def test_satisfiable_under_exclusive_converse_demands(text, strategy):
    assert run(text, strategy)[1].sat


@pytest.mark.parametrize("text", [WRONG_UNSAT_SHRUNK, WRONG_UNSAT], ids=["shrunk", "unshrunk"])
def test_exclusive_converse_demands_have_a_one_element_model(text):
    kb = parse_kb(text)
    found = bounded_model_search(kb, 2)
    assert found is not None and len(found.domain) == 1
    assert check_model(found, kb)


def test_build_tableau_returns_finished_graph():
    graph = decide_sat(parse_kb("inst a A\n")).graph
    assert graph.node(graph.root).status == SAT
    assert graph.to_expand() is None
