"""Role-box closure and queries.

The role box of an SHI knowledge base contains axioms R <= S and
trans(R). Its closure <=* is the reflexive-transitive closure of the
inclusions together with their inverses (R <= S gives R- <= S-), and the
inverse of a transitive role is transitive too. The role universe is just
the declared names and their inverses, so the closure is finite; it is
computed once per knowledge base, and `kb_index` returns that one closure
to every caller. `build_ext` gives each role its direct superroles, from
the axioms and their inverses, and `RBoxIndex` walks them once from each
role: the roles a walk reaches are that role's superroles. It keeps two
tables and serves the two queries the search makes from them, with no
copy: `subroles_of` returns the stored tuple of a role's subroles, and
`srtr` reads a role's transitive superroles and looks up the subrole
table only when its answer is no, to check the second role. Both reject a
role the knowledge base does not declare. The closure as a set of pairs,
`subrole_pairs`, is built only when read. `transitive_closure` closes a
set of pairs for the witness construction in `models`, which reads roles
through `successor_map`, the map it walks.
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

    __slots__ = ("roles", "transitive", "_subroles", "_trans_supers")

    def __init__(self, roles, supers, transitive):
        """`roles` in role order, `supers` each role -> its direct
        superroles, `transitive` the transitive roles. Each role's
        superroles under <=* are the roles one walk over `supers` reaches
        from it, itself included."""
        self.roles = tuple(roles)
        self.transitive = frozenset(transitive)
        # role -> its subroles, sorted; role -> its transitive superroles
        subroles: dict = {s: [] for s in self.roles}
        self._trans_supers = trans_supers = {}
        for r in self.roles:  # in role order, so each list of subroles is sorted
            reached = {r}
            stack = list(supers[r])
            while stack:
                s = stack.pop()
                if s not in reached:
                    reached.add(s)
                    stack += supers[s]
            for s in reached:
                subroles[s].append(r)
            trans_supers[r] = self.transitive.intersection(reached)
        self._subroles = {s: tuple(rs) for s, rs in subroles.items()}

    @property
    def subrole_pairs(self) -> frozenset:
        """Every (r, s) with r <=* s, built when read."""
        return frozenset((r, s) for s, rs in self._subroles.items() for r in rs)

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

    The direct superroles of a role are those its axioms give it, and
    those the axioms with both roles inverted give it; that relation is
    closed under inverses, so the walks over it are too. The transitive
    roles are the declared ones and their inverses.
    """
    roles = [Role(name, inverted) for name in role_names for inverted in (False, True)]
    supers: dict = {r: [] for r in roles}
    for r, s in subsumptions:
        if r not in supers or s not in supers:
            raise ValueError(f"role axiom mentions undeclared role: {r} <= {s}")
        supers[r].append(s)
        supers[r.inverse].append(s.inverse)
    for r in transitive:
        if r not in supers:
            raise ValueError(f"transitivity axiom mentions undeclared role: {r}")
    trans = [r for t in transitive for r in (t, t.inverse)]
    return RBoxIndex(sorted(roles), supers, trans)


def kb_index(kb) -> RBoxIndex:
    """The closed role box of `kb`. It is built once per knowledge base,
    on the first call, and kept on it (`KnowledgeBase.role_box`), so the
    caller's index and the engine's are the same object."""
    return kb.role_box
