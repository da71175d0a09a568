"""Role-box closure and queries.

The role box of an SHI knowledge base contains axioms R <= S and
trans(R). Its closure <=* is the reflexive-transitive closure of the
inclusions together with their inverses (R <= S gives R- <= S-), and the
inverse of a transitive role is transitive too. The role universe is just
the declared names and their inverses, so the closure is finite; it is
computed once, in closed form. `RBoxIndex` exposes it as two tables,
`subrole_pairs` and `transitive`, and serves the two queries the search
makes, `srtr` and `subroles_of`, from tables too; both reject a role the
knowledge base does not declare. `transitive_closure` is the one closure
routine of the package: the witness construction in `models` closes role
edges with it too, and reads roles through `successor_map`, the map it
walks.
"""
from __future__ import annotations

from .syntax import Role


def successor_map(pairs) -> dict:
    """Each source element of `pairs` -> the set of its successors."""
    succ: dict = {}
    for (a, b) in pairs:
        succ.setdefault(a, set()).add(b)
    return succ


def transitive_closure(pairs: set) -> set:
    """Every (a, c) joined by a path of `pairs`."""
    succ = successor_map(pairs)
    out = set()
    for a in succ:
        reached: set = set()
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if b not in reached:
                reached.add(b)
                stack.extend(succ.get(b, ()))
        out.update((a, b) for b in reached)
    return out


class RBoxIndex:
    """Immutable view of the closed role box."""

    __slots__ = ("roles", "subrole_pairs", "transitive", "_subrole_lists", "_srtr")

    def __init__(self, roles, subrole_pairs, transitive):
        self.roles = tuple(roles)
        self.subrole_pairs = frozenset(subrole_pairs)
        self.transitive = frozenset(transitive)
        self._subrole_lists = {
            s: sorted(r for (r, t) in self.subrole_pairs if t == s) for s in self.roles
        }
        self._srtr = frozenset((r, s) for (r, s) in self.subrole_pairs if s in self.transitive)

    def _check(self, role: Role) -> None:
        if role not in self._subrole_lists:
            raise ValueError(f"role {role} is not declared in the knowledge base")

    def srtr(self, r: Role, s: Role) -> bool:
        """True when r <= s and s is transitive: exactly the situation in
        which a value restriction over s must follow an r edge unweakened."""
        self._check(r)
        self._check(s)
        return (r, s) in self._srtr

    def subroles_of(self, s: Role) -> list:
        self._check(s)
        return list(self._subrole_lists[s])


def build_ext(subsumptions, transitive, role_names) -> RBoxIndex:
    """The closed role box over the given signature.

    The subrole pairs are the transitive closure of the reflexive pairs,
    the axioms, and the axioms with both roles inverted. That generator
    set is closed under inverses, so its closure is too. The transitive
    roles are the declared ones and their inverses.
    """
    roles = [Role(name, inverted) for name in role_names for inverted in (False, True)]
    role_set = set(roles)
    for r, s in subsumptions:
        if r not in role_set or s not in role_set:
            raise ValueError(f"role axiom mentions undeclared role: {r} <= {s}")
    for r in transitive:
        if r not in role_set:
            raise ValueError(f"transitivity axiom mentions undeclared role: {r}")

    generators = {(r, r) for r in roles}
    generators.update((r, s) for r, s in subsumptions)
    generators.update((r.inverse, s.inverse) for r, s in subsumptions)
    trans = {r for t in transitive for r in (t, t.inverse)}
    return RBoxIndex(sorted(roles), transitive_closure(generators), trans)


def kb_index(kb) -> RBoxIndex:
    return build_ext(kb.role_subsumptions, kb.transitive_roles, kb.role_names)
