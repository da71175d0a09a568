"""Shared fixtures and verification machinery for the test suite."""
from __future__ import annotations

from kbgen import chain_kb_text, differential_suite
from shisat import decide_sat, format_kb, parse_kb
from shisat.models import ModelGraph
from shisat.syntax import (ALL, AND, ATOM, BOT, INST, NOT, OR, REL, SOME, FormulaStore, Role, build_kb, concept_text,
                           formula_text, ordered)
from shisat.transfer import transfer_concepts

EX1_TEXT = """\
sub L P
trans P
impl F (and I (all P F))
inst a F
rel L a b
inst b (some L (not I))
"""

EX1_BASE_TEXT = """\
sub L P
trans P
impl F (and I (all P F))
inst a F
rel L a b
"""

EX2_TEXT = """\
sub r s
sub r- s
trans s
impl top (some r (and A (all s (not A))))
inst a top
"""

# A converse demand meets the disallowed formulas of the states that the
# second repair branch of (all r- F) makes, which refutes them; the input is
# SAT. Kept out of `corpus()`, so the corpus-wide counts stay comparable.
DISALLOW_ABOX_TEXT = """\
impl B (or (all r- F) (all r- (all r (all r- F))))
inst a (some r B)
"""

DISALLOW_TBOX_TEXT = """\
impl B (or (all r- F) (all r- (all r (all r- F))))
impl top (some r B)
"""


def run(text: str, strategy: str = "dfs"):
    """Parse and decide `text`, recording the event trace."""
    kb = parse_kb(text)
    return kb, decide_sat(kb, strategy=strategy, trace=True)


def state_of(nodes, node):
    """The state of the or-node `node`'s local graph: its head's first
    predecessor, or None in the root's graph, whose head has no existential."""
    head = nodes[node.after_trans_pred]
    return None if head.ce_label is None else head.preds[0]


def some_nest(depth: int, transitive: bool) -> str:
    """`a` in (all r B) and a chain of `depth` r-successors ending in A."""
    concept = "(some r " * depth + "A" + ")" * depth
    return ("trans r\n" if transitive else "") + f"inst a (and (all r B) {concept})\n"


def and_nest(depth: int) -> str:
    """`a` in a right-nested conjunction of the atoms A1 .. A<depth>."""
    concept = f"A{depth}"
    for i in range(depth - 1, 0, -1):
        concept = f"(and A{i} {concept})"
    return f"inst a {concept}\n"


def flat_and(n: int) -> str:
    """`a` in one flat conjunction of the atoms A0 .. A<n-1>, which the
    parser folds into an n-deep right-nested `and`."""
    return f"inst a (and {' '.join(f'A{i}' for i in range(n))})\n"


def pullback_kb(depth: int):
    """`a` in `depth` nested (some r ...) around `depth` nested (all r- ...)
    around B: the deepest element carries B back up to `a` over r-, so
    each state's converse repair makes the state above it repair in turn,
    `depth` repairs deep. Built through the store, since its text nests
    past what the parser takes from about depth 500 on; `format_kb` gives
    the text."""
    store = FormulaStore()
    concept = store.atom("B")
    for _ in range(depth):
        concept = store.univ(Role("r", True), concept)
    for _ in range(depth):
        concept = store.exist(Role("r"), concept)
    return build_kb(store, [], [], [], [store.inst("a", concept)])


def wide_tbox(width: int) -> str:
    """`width` value restrictions on every element, which no rule splits,
    and one r-successor of `a` that receives all of them."""
    axioms = "".join(f"impl top (all r A{i})\n" for i in range(1, width + 1))
    return axioms + "inst a (some r B)\n"


def abox_chain_text(n: int, some: bool) -> str:
    """`a0` … `a<n-1>` each in (all r B), each r-related to the next: n - 1
    univ' steps, each carrying B one edge on. With `some`, each is also in
    (some r A), so the states have n existentials over complex labels."""
    lines = []
    for i in range(n):
        lines.append(f"inst a{i} (all r B)\n" + (f"inst a{i} (some r A)\n" if some else ""))
        if i + 1 < n:
            lines.append(f"rel r a{i} a{i + 1}\n")
    return "".join(lines)


def corpus() -> list:
    """The texts every corpus-wide check reads, through the `decided` fixture."""
    texts = differential_suite(500, 20240817) + [chain_kb_text(d) for d in range(1, 21)]
    texts += [some_nest(d, False) for d in (10, 50)] + [some_nest(d, True) for d in (3, 10)]
    return texts + [EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT]


def state_claim(kb, state) -> str:
    """What a state of a run on `kb` claims, as knowledge-base text: `kb`'s
    role box and TBox, the state's assertions (a simple label's concepts
    asserted of a fresh individual `x`), and the complement of each of its
    disallowed formulas. A state's status stands for every state of its
    content, so an UNSAT state claims that this text is unsatisfiable.
    Reads the formulas as text, so `kb`'s store interns nothing."""
    lines = [line for line in format_kb(kb).splitlines() if not line.startswith(("inst ", "rel "))]

    def assertion(f, negated=False):
        if f.kind == REL:
            return f"rel {f.role} {f.a} {f.b}"
        ind, c = (f.ind, f.concept) if f.kind == INST else ("x", f)
        text = concept_text(c)
        return f"inst {ind} (not {text})" if negated else f"inst {ind} {text}"

    lines += [assertion(f) for f in ordered(state.label)]
    lines += [assertion(f, negated=True) for f in kb.store.members(state.dformulas)]
    return "\n".join(lines) + "\n"


def label_texts(node) -> frozenset:
    return frozenset(formula_text(f) for f in node.label)


def interned_texts(store) -> list:
    """The text of every formula `store` has interned, in uid order."""
    return [formula_text(f) for f in ordered(store._table.values())]


def check_consistent(mg: ModelGraph) -> None:
    for x in mg.domain:
        cs = mg.concepts[x]
        for c in cs:
            assert c.kind != BOT, f"bottom at {x}"
            if c.kind == ATOM:
                for d in cs:
                    assert not (d.kind == NOT and d.child is c), f"clash at {x}"


def check_saturation(mg: ModelGraph, idx, store) -> None:
    """The six saturation conditions of a model graph, checked verbatim."""
    for x in mg.domain:
        cs = mg.concepts[x]
        for c in cs:
            if c.kind == AND:
                assert c.left in cs and c.right in cs, f"unreduced conjunction at {x}"
            elif c.kind == OR:
                assert c.left in cs or c.right in cs, f"unreduced disjunction at {x}"
            elif c.kind == ALL:
                for r in idx.subroles_of(c.role):
                    assert store.univ(r, c.child) in cs, (
                        f"missing narrowed restriction (all {r} ...) at {x}"
                    )
            elif c.kind == SOME:
                pairs = mg.edges.get(c.role, set())
                assert any(
                    a == x and c.child in mg.concepts[y] for (a, y) in pairs
                ), f"unrealized existential at {x}: {c}"
    for role, pairs in mg.edges.items():
        for (x, y) in pairs:
            fwd = transfer_concepts(idx, mg.concepts[x], role)
            assert fwd <= mg.concepts[y], f"forward transfer violated on {role}({x},{y})"
            bwd = transfer_concepts(idx, mg.concepts[y], role.inverse)
            assert bwd <= mg.concepts[x], f"backward transfer violated on {role}({x},{y})"


def with_inverses(closed: dict) -> dict:
    """Relations of role names, as `close_role_relations` gives them, plus
    each inverse's relation: the converse of its name's."""
    return {**closed, **{r.inverse: {(b, a) for (a, b) in pairs} for r, pairs in closed.items()}}


def naive_role_closure(edges: dict, idx) -> dict:
    """Reference fixpoint for the role-relation completion: repeatedly add
    whatever single pair some condition demands, until stable. Written
    differently from the production code on purpose."""
    closed = {r: set() for r in idx.roles}
    for role, pairs in edges.items():
        closed[role] |= set(pairs)
    while True:
        demand = None
        for r in idx.roles:
            for (a, b) in closed[r]:
                if (b, a) not in closed[r.inverse]:
                    demand = (r.inverse, (b, a))
                    break
            if demand:
                break
        if not demand:
            for (r, s) in sorted(idx.subrole_pairs, key=str):
                missing = closed[r] - closed[s]
                if missing:
                    demand = (s, sorted(missing, key=str)[0])
                    break
        if not demand:
            for r in sorted(idx.transitive, key=str):
                pairs = closed[r]
                for (a, b) in sorted(pairs, key=str):
                    for (c, d) in sorted(pairs, key=str):
                        if b == c and (a, d) not in pairs:
                            demand = (r, (a, d))
                            break
                    if demand:
                        break
                if demand:
                    break
        if not demand:
            return closed
        closed[demand[0]].add(demand[1])
