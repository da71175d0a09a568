"""Role-box closure and queries.

The role box of an SHI knowledge base contains axioms R <= S and
trans(R). Its closure <=* is the reflexive-transitive closure of the
inclusions together with their inverses (R <= S gives R- <= S-), and the
inverse of a transitive role is transitive too. The role universe is just
the declared names and their inverses, so the closure is finite; it is
computed once per knowledge base, in closed form, and `kb_index` returns
that one closure to every caller. `RBoxIndex` exposes it as two tables,
`subrole_pairs` and `transitive`, and serves the two queries the search
makes, `srtr` and `subroles_of`, from tables too, with no copy. Both
reject a role the knowledge base does not declare: `subroles_of` returns
its stored tuple, and `srtr` looks up a second table only when its
answer is no, to check the second role. `transitive_closure` is the one
closure routine of the package: the witness construction in `models`
closes role edges with it too, and reads roles through `successor_map`,
the map it walks.
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

    __slots__ = ("roles", "subrole_pairs", "transitive", "_subroles", "_trans_supers")

    def __init__(self, roles, subrole_pairs, transitive):
        self.roles = tuple(roles)
        self.subrole_pairs = frozenset(subrole_pairs)
        self.transitive = frozenset(transitive)
        # role -> its subroles, sorted; role -> its transitive superroles
        self._subroles = {s: tuple(sorted(r for (r, t) in self.subrole_pairs if t == s)) for s in self.roles}
        self._trans_supers = {
            r: frozenset(s for (q, s) in self.subrole_pairs if q == r and s in self.transitive) for r in self.roles
        }

    @staticmethod
    def _undeclared(role: Role) -> ValueError:
        return ValueError(f"role {role} is not declared in the knowledge base")

    def srtr(self, r: Role, s: Role) -> bool:
        """True when r <= s and s is transitive: exactly the situation in
        which a value restriction over s must follow an r edge unweakened."""
        try:
            if s in self._trans_supers[r]:
                return True
        except KeyError:
            raise self._undeclared(r) from None
        if s not in self._subroles:
            raise self._undeclared(s)
        return False

    def subroles_of(self, s: Role) -> tuple:
        """The subroles of `s`, in role order: the stored tuple itself."""
        try:
            return self._subroles[s]
        except KeyError:
            raise self._undeclared(s) from None


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
    """The closed role box of `kb`. It is built once per knowledge base,
    on the first call, and kept on it (`KnowledgeBase.role_box`), so the
    caller's index and the engine's are the same object."""
    return kb.role_box
