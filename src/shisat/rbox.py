"""Role-box closure and what it makes a value restriction do across an edge.

The role box of an SHI knowledge base contains axioms R <= S and
trans(R). Its closure <=* is the reflexive-transitive closure of the
inclusions together with their inverses (R <= S gives R- <= S-), and the
inverse of a transitive role is transitive too. The role universe is
just the declared names and their inverses, so the closure is finite; it
is computed once per knowledge base, and `kb_index` returns that one
closure to every caller. `build_ext` gives each role its direct
superroles, from the axioms and their inverses, and `RBoxIndex` walks
them once from each role with `reach`: the roles a walk reaches are that
role's superroles. It keeps two tables and serves the two queries the
search makes from them, with no copy: `subroles_of` returns the stored
tuple of a role's subroles, and `srtr` reads a role's transitive
superroles and looks up the subrole table only when its answer is no, to
check the second role. Both reject a role the knowledge base does not
declare. The closure as a set of pairs, `subrole_pairs`, is built only
when read. `transitive_closure` closes a set of pairs with the same
`reach`, adding each finished element's set whole, for the witness
construction in `models`, which also reads roles through `successor_map`.

The role box alone decides what a value restriction forces across an
edge. Crossing an R edge from x to y, (all R.D) at x forces D at y, and
(all S.D) with R <= S and S transitive forces itself at y (the S chain
continues through y; `srtr`). `transfer_concepts` is the one operator;
`transfer_concepts_to` asserts its result of a named individual. On a
complex label the engine passes an individual's value restrictions as
concepts, the bodies of its assertions. Both are pure: they read their
arguments and return fresh sets. Read from y back to x, the same
operator over R- is what a successor forces on its state, and
`pulling_roles` lists the R for which it can force anything, from the
knowledge base's concepts and `subroles_of` alone.
"""
from __future__ import annotations

from .syntax import ALL, FormulaStore, KnowledgeBase, Role, ordered, subconcepts


def successor_map(pairs) -> dict:
    """Each source element of `pairs` -> the set of its successors."""
    succ: dict = {}
    for (a, b) in pairs:
        succ.setdefault(a, set()).add(b)
    return succ


_NO_CLOSURES: dict = {}  # never written


def reach(succ: dict, start, reached: set, done: dict = _NO_CLOSURES) -> set:
    """`reached` plus every element a path over `succ` leads to from the
    elements of `start`, added to `reached` in place; an element that
    `done` maps to all it reaches brings that set and is not walked
    through. This is the one walk over a role graph: the closure of the
    role box and `transitive_closure` both read it."""
    stack = list(start)
    while stack:
        b = stack.pop()
        if b not in reached:
            reached.add(b)
            if b in done:
                reached |= done[b]
            else:
                stack += succ.get(b, ())
    return reached


def transitive_closure(pairs: set) -> set:
    """Every (a, c) joined by a path of `pairs`. One walk from each source
    element; a later walk that meets a finished element adds its set whole
    instead of walking through it. A finished set holds everything
    reachable, cycles included, so the result is exact in any order."""
    succ = successor_map(pairs)
    done: dict = {}
    for a, bs in succ.items():
        done[a] = reach(succ, bs, set(), done)
    return {(a, b) for a, bs in done.items() for b in bs}


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
            reached = reach(supers, supers[r], {r})
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


def pulling_roles(kb: KnowledgeBase, idx: RBoxIndex) -> frozenset:
    """The roles R across which a successor can force something back: the
    inverses of the subroles of every value restriction's role in the
    knowledge base's concepts. A transfer over R- reads (all R-.D), and
    (all Q.D) with R- <= Q and Q transitive; a label's value restrictions
    are subconcepts of the knowledge base or their narrowings to
    subroles, and in both cases R- is a subrole of an occurring
    restriction's role. Interns nothing."""
    univ_roles = {c.role for root in kb.concepts for c in subconcepts(root) if c.kind == ALL}
    return frozenset(r.inverse for q in univ_roles for r in idx.subroles_of(q))


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
