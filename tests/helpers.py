"""Shared fixtures and verification machinery for the test suite."""
from __future__ import annotations

from shisat import decide_sat, parse_kb
from shisat.models import ModelGraph
from shisat.syntax import ALL, AND, ATOM, BOT, NOT, OR, SOME
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


def run(text: str, strategy: str = "dfs"):
    kb = parse_kb(text)
    return kb, decide_sat(kb, strategy=strategy)


def label_texts(node) -> frozenset:
    from shisat.syntax import formula_text

    return frozenset(formula_text(f) for f in node.label)


def interned_texts(store) -> list:
    """The text of every formula `store` has interned, in uid order."""
    from shisat.syntax import formula_text, ordered

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
