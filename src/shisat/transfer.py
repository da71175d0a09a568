"""Transfer operators: what a set of formulas forces across a role edge.

Crossing an R edge from x to y, a value restriction (all R.D) at x forces
D at y, and a restriction (all S.D) with R <= S and S transitive forces
itself at y (the S chain continues through y). `transfer_concepts` is the
one operator; `transfer_concepts_to` asserts its result of a named
individual. On a complex label the engine passes an individual's value
restrictions as concepts, the bodies of its assertions.

Both are pure: they read their arguments and return fresh sets.
"""
from __future__ import annotations

from .rbox import RBoxIndex
from .syntax import ALL, FormulaStore, Role, ordered


def transfer_concepts(idx: RBoxIndex, concepts, role: Role) -> set:
    """{D | (all role.D) in X} plus the surviving transitive restrictions."""
    out = set()
    for c in concepts:
        if c.kind == ALL:
            if c.role == role:
                out.add(c.child)
            if idx.srtr(role, c.role):
                out.add(c)
    return out


def transfer_concepts_to(idx: RBoxIndex, store: FormulaStore, concepts, role: Role, ind: str) -> set:
    """Like transfer_concepts, but lands on the named individual `ind`. The
    assertions are interned in uid order of their concepts, not in set
    order."""
    return {store.inst(ind, c) for c in ordered(transfer_concepts(idx, concepts, role))}

