"""Bounded model search by clause-level satisfiability, independent of the engine.

For each domain size n up to the bound, the knowledge base is ground once
into clauses over integer variables: one per atom and element, one per
role name and pair (an inverse role reads the pair backwards), a constant
for `top`, and one definition variable per compound subconcept and
element. Concepts are in NNF and only ever asserted true, so definitions
hold one way (Plaisted & Greenbaum). Each individual map of that size adds
the ABox as units and the symmetry order below.

The clauses are searched by DPLL (Davis, Logemann & Loveland) with unit
propagation, through implication lists for binary clauses and two watched
literals for longer ones (Een & Sorensson), a trail, a decision stack and
chronological backtracking, without recursion. A longer clause whose first
literal is negative is guarded by that literal's variable and joins the
agenda once the variable is true; the search branches on the first literal
not yet false of the first agenda clause with no true literal. Every other
clause holds once propagation settles, reading the variables left
unassigned as false.

Two symmetry reductions lose no models: individual maps are enumerated in
restricted-growth form, and the elements no individual is mapped to carry
lexicographically non-increasing atom vectors. A returned interpretation
is validated with `check_model`; `None` means nothing more than "no model
of size <= k".
"""
from __future__ import annotations

from itertools import accumulate, product

from .models import Interpretation, check_model
from .syntax import ALL, AND, ATOM, BOT, INST, NOT, OR, TOP, KnowledgeBase, Role

# Literal 2v is variable v, 2v + 1 its negation. Variable 0 is the constant true.
TRUE, FALSE = 0, 1


class SearchBudgetExceeded(RuntimeError):
    """The configured search budget ran out before an answer."""


class _Grounding:
    """The clauses of `kb` over the elements 0..n-1 that every individual map shares."""

    def __init__(self, kb: KnowledgeBase, n: int) -> None:
        self.n = n
        self.nvars = 1
        self.atoms = {name: self._fresh(n) for name in kb.concept_names}
        self.roles = {name: self._fresh(n * n) for name in kb.role_names}  # (i, j) at i * n + j
        # Each subconcept's literal at every element, the compound ones in preorder.
        self.at = at = {}
        compound = []
        stack = [f.concept for f in reversed(kb.abox) if f.kind == INST] + kb.tbox[::-1]
        while stack:
            c = stack.pop()
            if c in at:
                continue
            k = c.kind
            if k == ATOM:
                at[c] = self.atoms[c.name]
            elif k == NOT:
                xs = self.atoms[c.child.name]
                at[c] = range(xs.start + 1, xs.stop + 1, 2)
            elif k == TOP or k == BOT:
                at[c] = (TRUE if k == TOP else FALSE,) * n
            else:
                at[c] = self._fresh(n)
                compound.append(c)
                stack += (c.right, c.left) if k == AND or k == OR else (c.child,)
        self.units = [TRUE] + [lit for c in kb.tbox for lit in at[c]]
        pairs, self.long = [], []  # binary clauses, and the longer ones
        for c in compound:
            k = c.kind
            if k == AND:
                for d, lit1, lit2 in zip(at[c], at[c.left], at[c.right]):
                    pairs += ((d ^ 1, lit1), (d ^ 1, lit2))
                continue
            if k == OR:
                self.long += [(d ^ 1, lit1, lit2) for d, lit1, lit2 in zip(at[c], at[c.left], at[c.right])]
                continue
            child = at[c.child]
            for e, d in enumerate(at[c]):
                if k == ALL:
                    self.long += [(d ^ 1, r ^ 1, dj) for r, dj in zip(self.edges(c.role, e), child)]
                else:  # some: a helper per j (d itself if n = 1) implies r(e, j) and the child at j
                    xs = self._fresh(n) if n > 1 else (d,)
                    for x, r, dj in zip(xs, self.edges(c.role, e), child):
                        pairs += ((x ^ 1, r), (x ^ 1, dj))
                    if n > 1:
                        self.long.append((d ^ 1, *xs))
        # Role clauses lead with their positive literal, so nothing guards
        # them: each is Horn and holds with its unassigned variables false.
        elements = range(n)
        for r, s in kb.role_subsumptions:
            for e in elements:
                pairs += [(ls, lr ^ 1) for ls, lr in zip(self.edges(s, e), self.edges(r, e))]
        for r in kb.transitive_roles:
            rows = [self.edges(r, e) for e in elements]
            self.long += [
                (rows[i][l], rows[i][j] ^ 1, rows[j][l] ^ 1)
                for i, j, l in product(elements, repeat=3) if i != j and j != l  # the rest are tautologies
            ]
        # lex[e]: the atom vector of e is lexicographically >= that of e + 1.
        # g reads "e's vector is greater on the atoms before this one".
        self.lex = []
        for e in range(n - 1):
            block, g = [], FALSE
            for xs, nxt in zip(self.atoms.values(), self._fresh(len(self.atoms))):
                x, y = xs[e], xs[e + 1]
                block += [(y ^ 1, x, g), (nxt ^ 1, g, x), (nxt ^ 1, g, y ^ 1)]
                g = nxt
            self.lex.append(block)
        # Binary clauses propagate through lists of implied literals, which
        # no search changes.
        self.implied: dict = {}
        for lit1, lit2 in pairs:
            self.implied.setdefault(lit1 ^ 1, []).append(lit2)
            self.implied.setdefault(lit2 ^ 1, []).append(lit1)

    def _fresh(self, size: int) -> range:
        """`size` fresh variables, as positive literals."""
        self.nvars += size
        return range(2 * (self.nvars - size), 2 * self.nvars, 2)

    def edges(self, role: Role, e: int) -> range:
        """The literal of role(e, j) for each element j."""
        n = self.n
        rows = self.roles[role.name]
        return rows[e::n] if role.inverted else rows[e * n:(e + 1) * n]

    def map_clauses(self, kb: KnowledgeBase, iota: dict) -> tuple:
        """The ABox under `iota` as units, and the order of the elements no
        individual is mapped to as clauses. In restricted-growth form the
        individuals hit a prefix of the domain, so those elements are the rest."""
        units = [
            self.at[f.concept][iota[f.ind]] if f.kind == INST else self.edges(f.role, iota[f.a])[iota[f.b]]
            for f in kb.abox
        ]
        return units, [c for block in self.lex[len(set(iota.values())):] for c in block]


def _restricted_growth_maps(inds, n):
    """Individual maps canonical up to renaming of the hit elements: the
    strings over range(n) in which each value is at most one more than
    the largest before it, in lexicographic order. Each step grows the
    rightmost position that may grow and clears the ones after it."""
    a = [0] * len(inds)
    while True:
        yield dict(zip(inds, a))
        high = list(accumulate(a, max))
        for i in reversed(range(1, len(a))):
            if a[i] < min(high[i - 1] + 1, n - 1):
                a[i] += 1
                a[i + 1:] = [0] * (len(a) - i - 1)
                break
        else:
            return


def _charge(budget: list, literals: int) -> None:
    """Take `literals` assigned literals from `budget[0]`; raise once it runs out."""
    budget[0] -= literals
    if budget[0] < 0:
        raise SearchBudgetExceeded("bounded model search budget exhausted")


def _solve(g: _Grounding, units: list, clauses: list, budget: list):
    """A bytearray `val` with val[l] set for each true literal l of an
    assignment that satisfies the binary clauses of `g`, the literals
    `units` and `clauses` (each of three literals or more) once the
    unassigned variables read false, or None. `budget[0]` is decreased by
    every literal assigned."""
    val = bytearray(2 * g.nvars)
    implied = g.implied
    work = [list(c) for c in clauses]  # watched literals first
    watches: dict = {}
    guarded: dict = {}
    for ci, c in enumerate(clauses):
        watches.setdefault(c[0], []).append(ci)
        watches.setdefault(c[1], []).append(ci)
        if c[0] & 1:
            guarded.setdefault(c[0] >> 1, []).append(ci)
    trail: list = []
    agenda: list = []  # guarded clauses in the order their guards became true
    for lit in units:
        if val[lit ^ 1]:
            _charge(budget, len(trail))
            return None
        if not val[lit]:
            val[lit] = 1
            trail.append(lit)
    levels = []  # (trail length, agenda length, agenda position, decided literal)
    pos = head = start = 0
    while True:
        conflict = False
        while head < len(trail) and not conflict:  # unit propagation
            p = trail[head]
            head += 1
            for q in implied.get(p, ()):
                if not val[q]:
                    if val[q ^ 1]:
                        conflict = True
                        break
                    val[q] = 1
                    trail.append(q)
            if conflict:
                break
            if not p & 1 and p >> 1 in guarded:
                agenda += guarded[p >> 1]
            f = p ^ 1
            ws = watches.get(f)
            if not ws:
                continue
            watches[f] = keep = []
            for i, ci in enumerate(ws):
                c = work[ci]
                if c[0] == f:
                    c[0], c[1] = c[1], f
                first = c[0]
                if val[first]:
                    keep.append(ci)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if not val[lit ^ 1]:
                        c[1], c[k] = lit, f
                        watches.setdefault(lit, []).append(ci)
                        break
                else:
                    keep.append(ci)
                    if val[first ^ 1]:
                        keep += ws[i + 1:]
                        conflict = True
                        break
                    val[first] = 1
                    trail.append(first)
        _charge(budget, len(trail) - start)
        if not conflict:
            while pos < len(agenda) and any(map(val.__getitem__, clauses[agenda[pos]])):
                pos += 1
            if pos == len(agenda):
                return val
            for lit in clauses[agenda[pos]]:
                if not val[lit ^ 1]:
                    break
            start = len(trail)
            levels.append((start, len(agenda), pos, lit))
        else:
            if not levels:
                return None
            start, alen, pos, lit = levels.pop()
            for p in trail[start:]:
                val[p] = 0
            del trail[start:], agenda[alen:]
            lit ^= 1
        val[lit] = 1
        trail.append(lit)
        head = start


def _to_interpretation(g: _Grounding, iota: dict, val) -> Interpretation:
    n = g.n
    atoms = {name: set() for name in g.atoms}
    roles = {name: set() for name in g.roles}
    for name, xs in g.atoms.items():
        for e, lit in enumerate(xs):
            if val[lit]:
                atoms[name].add(e)
    for name, rs in g.roles.items():
        for p, lit in enumerate(rs):
            if val[lit]:
                roles[name].add(divmod(p, n))
    return Interpretation(domain=list(range(n)), atoms=atoms, roles=roles, individuals=dict(iota))


def bounded_model_search(kb: KnowledgeBase, k: int, budget: int = 2_000_000):
    """First model of `kb` with at most `k` elements, or None.

    Sizes are tried in increasing order, so a model found is a smallest
    one. `budget` bounds the literals assigned over the whole call, by
    decision or by propagation; `SearchBudgetExceeded` is raised when it
    runs out. None only rules out models up to the bound; it is never a
    proof of unsatisfiability.
    """
    if k < 1:
        raise ValueError("domain bound must be positive")
    remaining = [budget]
    for n in range(1, k + 1):
        g = _Grounding(kb, n)
        for iota in _restricted_growth_maps(kb.individuals, n):
            units, lex = g.map_clauses(kb, iota)
            val = _solve(g, g.units + units, g.long + lex, remaining)
            if val is not None:
                interp = _to_interpretation(g, iota, val)
                assert check_model(interp, kb), "search produced a non-model"
                return interp
    return None
