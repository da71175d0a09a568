"""Transfer operators: what a set of formulas forces across a role edge.

Crossing an R edge from x to y, a value restriction (all R.D) at x forces
D at y, and a restriction (all S.D) with R <= S and S transitive forces
itself at y (the S chain continues through y). `transfer_concepts` is the
one operator. The other three read a complex label through
`concepts_of` on the source side, or assert the result of a named
individual on the target side, or both.

All four are pure: they read their arguments and return fresh sets.
"""
from __future__ import annotations

from .rbox import RBoxIndex
from .syntax import ALL, FormulaStore, Role, concepts_of, ordered


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


def transfer_assertions_from(idx: RBoxIndex, assertions, ind: str, role: Role) -> set:
    """Constraints `ind` imposes through `role` on an anonymous successor."""
    return transfer_concepts(idx, concepts_of(assertions, ind), role)


def transfer_assertions(idx: RBoxIndex, store: FormulaStore, assertions, ind_from: str, role: Role, ind_to: str) -> set:
    """Constraints `ind_from` imposes through `role` on `ind_to`."""
    return transfer_concepts_to(idx, store, concepts_of(assertions, ind_from), role, ind_to)
