"""Concept and assertion syntax for SHI knowledge bases.

Everything the reasoner manipulates is built here: roles (with inverses),
concepts, ABox assertions, and knowledge bases. Concepts are kept in
negation normal form at all times -- the only negation nodes ever
constructed sit directly on concept names, so downstream code never has
to normalize. `FormulaStore.negate` is the one place complements are
built, of concepts and of concept assertions alike; `complement` is the
same function under the name the engine calls. The build uses an explicit
stack rather than recursion.

Concepts and assertions are interned: structurally equal formulas are the
same Python object. Identity doubles as equality, membership tests are
pointer comparisons, and every formula carries a stable creation index
(`uid`) that gives a fixed total order used wherever a deterministic
choice among formulas is needed. Because a formula is never rebuilt, the
facts about it are fields rather than functions: `body`, the concept a
label member speaks of (the concept itself, C for an assertion ind:C,
None for a role assertion), is set at birth, and `neg`, the complement,
is set in both directions when `negate` builds it, so a complement is
built once and then read. While `neg` is None no complement exists yet,
and reading the field builds nothing.

Uids are dense, so a set of formulas that is only tested for membership,
grown and hashed can be a plain int with bit `f.uid` set for each member
f (`uid_bits`); 0 is the empty set. The store's `members` is the one
place such bits are turned back into formulas.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Union


class Role(NamedTuple):
    """A role name or its inverse."""

    name: str
    inverted: bool = False

    @property
    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + "-" if self.inverted else self.name


# Concept kinds.
TOP = "top"
BOT = "bot"
ATOM = "atom"
NOT = "not"
AND = "and"
OR = "or"
ALL = "all"
SOME = "some"

# Assertion kinds.
INST = "inst"
REL = "rel"


class Concept:
    """A concept in NNF. Create instances only through a FormulaStore."""

    __slots__ = ("uid", "kind", "name", "role", "left", "right", "child", "body", "neg")

    def __init__(self, uid, kind, name=None, role=None, left=None, right=None, child=None):
        self.uid = uid
        self.kind = kind
        self.name = name
        self.role = role
        self.left = left
        self.right = right
        self.child = child
        self.body = self
        self.neg = None  # the complement, once `FormulaStore.negate` has built it

    def __repr__(self) -> str:
        return concept_text(self)


class Assertion:
    """An ABox assertion: ind:Concept or Role(ind, ind)."""

    __slots__ = ("uid", "kind", "ind", "concept", "role", "a", "b", "body", "neg")

    def __init__(self, uid, kind, ind=None, concept=None, role=None, a=None, b=None):
        self.uid = uid
        self.kind = kind
        self.ind = ind
        self.concept = concept
        self.role = role
        self.a = a
        self.b = b
        self.body = concept  # None for a role assertion
        self.neg = None

    def __repr__(self) -> str:
        return formula_text(self)


Formula = Union[Concept, Assertion]


class FormulaStore:
    """Interning store for concepts and assertions.

    The store owns the uid sequence. A knowledge base and every formula the
    engine derives from it share one store, so formula identity and the
    uid order are stable for the lifetime of the problem. Each constructor
    looks its key up first, so an interning hit builds nothing but the key.
    """

    def __init__(self) -> None:
        self._table: dict = {}
        self._by_uid: list = []  # uid -> formula
        self.top = self._make((TOP,), Concept, TOP)
        self.bot = self._make((BOT,), Concept, BOT)

    def _make(self, key, cls, *fields):
        """Intern a new formula under `key`, which the caller has looked up
        and missed; `fields` follow the uid in `cls`'s constructor. The uid
        is the number of formulas interned before: both only grow."""
        obj = self._table[key] = cls(len(self._by_uid), *fields)
        self._by_uid.append(obj)
        return obj

    def members(self, bits: int) -> list:
        """The formulas whose uid bits are set in `bits`, in uid order: one
        step per member, taking the lowest bit left each time."""
        out = []
        while bits:
            low = bits & -bits
            out.append(self._by_uid[low.bit_length() - 1])
            bits ^= low
        return out

    def atom(self, name: str) -> Concept:
        key = (ATOM, name)
        return self._table.get(key) or self._make(key, Concept, ATOM, name)

    def conj(self, left: Concept, right: Concept) -> Concept:
        key = (AND, left.uid, right.uid)
        return self._table.get(key) or self._make(key, Concept, AND, None, None, left, right)

    def disj(self, left: Concept, right: Concept) -> Concept:
        key = (OR, left.uid, right.uid)
        return self._table.get(key) or self._make(key, Concept, OR, None, None, left, right)

    def univ(self, role: Role, child: Concept) -> Concept:
        key = (ALL, role, child.uid)
        return self._table.get(key) or self._make(key, Concept, ALL, None, role, None, None, child)

    def exist(self, role: Role, child: Concept) -> Concept:
        key = (SOME, role, child.uid)
        return self._table.get(key) or self._make(key, Concept, SOME, None, role, None, None, child)

    def negate(self, formula: Formula) -> Formula:
        """The NNF complement of a concept, by the usual dualities, or of a
        concept assertion: a:C gives a:(not C). Role assertions have no
        complement in this language and are rejected.

        Each complement is built once: the build sets `neg` on both
        formulas (negation is an involution on interned formulas), and a
        later call reads it. The build walks an explicit stack in
        postorder, left part first, and so interns the same formulas in the
        same order as the plain recursion would, at any nesting depth. A
        formula whose parts all have their complements is built at once;
        otherwise the parts whose `neg` is still None go straight onto the
        stack, the left one on top, and the formula waits under them."""
        done = formula.neg
        if done is not None:
            return done
        stack = [formula]
        while stack:
            f = stack[-1]
            if f.neg is not None:  # a part shared with one built earlier
                stack.pop()
                continue
            k = f.kind
            if k == AND or k == OR:
                left, right = f.left, f.right
                if left.neg is None or right.neg is None:
                    if right.neg is None:
                        stack.append(right)
                    if left.neg is None:
                        stack.append(left)
                    continue
                g = self.disj(left.neg, right.neg) if k == AND else self.conj(left.neg, right.neg)
            elif k == ALL or k == SOME:
                child = f.child
                if child.neg is None:
                    stack.append(child)
                    continue
                g = self.exist(f.role, child.neg) if k == ALL else self.univ(f.role, child.neg)
            elif k == ATOM:
                key = (NOT, f.uid)
                g = self._table.get(key) or self._make(key, Concept, NOT, None, None, None, None, f)
            elif k == NOT:
                g = f.child
            elif k == INST:
                concept = f.concept
                if concept.neg is None:
                    stack.append(concept)
                    continue
                g = self.inst(f.ind, concept.neg)
            elif k == TOP:
                g = self.bot
            elif k == BOT:
                g = self.top
            else:
                raise ValueError(f"a formula of kind {k!r} has no complement")
            stack.pop()
            f.neg = g
            g.neg = f
        return formula.neg

    def inst(self, ind: str, concept: Concept) -> Assertion:
        key = (INST, ind, concept.uid)
        return self._table.get(key) or self._make(key, Assertion, INST, ind, concept)

    def rel(self, role: Role, a: str, b: str) -> Assertion:
        key = (REL, role, a, b)
        return self._table.get(key) or self._make(key, Assertion, REL, None, None, role, a, b)


# The complement as a function of the store: the name the engine calls.
complement = FormulaStore.negate


def uid_bits(formulas: Iterable[Formula]) -> int:
    """`formulas` as a uid bitset: bit `f.uid` set for each member f."""
    bits = 0
    for f in formulas:
        bits |= 1 << f.uid
    return bits


def _disj_flat(store: FormulaStore, left: Concept, right: Concept) -> Concept:
    # Unit cases collapse so that a `top`-guarded axiom contributes its
    # right-hand side directly as a global assumption.
    if left.kind == BOT:
        return right
    if right.kind == BOT:
        return left
    if left.kind == TOP or right.kind == TOP:
        return store.top
    return store.disj(left, right)


def _conj_flat(store: FormulaStore, left: Concept, right: Concept) -> Concept:
    if left.kind == TOP:
        return right
    if right.kind == TOP:
        return left
    if left.kind == BOT or right.kind == BOT:
        return store.bot
    return store.conj(left, right)


def internalize_tbox(store: FormulaStore, axioms: Iterable[tuple]) -> list:
    """Turn subsumption/equivalence axioms into global NNF concepts.

    An axiom C <= D becomes (negate C) or D; C == D becomes the conjunction
    of both directions. Resulting `top` members say nothing and are dropped.
    """
    out = []
    for kind, left, right in axioms:
        if kind == "impl":
            concept = _disj_flat(store, store.negate(left), right)
        elif kind == "equiv":
            fwd = _disj_flat(store, store.negate(left), right)
            bwd = _disj_flat(store, store.negate(right), left)
            concept = _conj_flat(store, fwd, bwd)
        else:
            raise ValueError(f"unknown TBox axiom kind {kind!r}")
        if concept.kind != TOP and concept not in out:
            out.append(concept)
    return out


@dataclass(frozen=True)
class KnowledgeBase:
    """A normalized SHI knowledge base.

    `tbox` holds the internalized global concepts; `tbox_axioms` keeps the
    axioms as written so the textual form can be reproduced. The ABox is
    never empty: normalization inserts a fresh `ind:top` when needed.
    Nothing changes a knowledge base once `build_kb` has made it (its
    fields cannot be reassigned), so its closed role box, `role_box`, is
    built on first use and kept.
    """

    store: FormulaStore
    role_subsumptions: list  # [(Role, Role)] meaning R <= S
    transitive_roles: list  # [Role]
    tbox_axioms: list  # [("impl"|"equiv", Concept, Concept)]
    tbox: list  # [Concept] internalized, NNF
    abox: list  # [Assertion]
    role_names: list
    concept_names: list
    individuals: list

    @property
    def concepts(self) -> tuple:
        """The concepts the knowledge base asserts: the internalized TBox,
        then each concept assertion's concept in ABox order. The walks over
        its concepts (`closure`, the engine's `pulling_roles` and the
        oracle's grounding) start from these roots."""
        return (*self.tbox, *(f.concept for f in self.abox if f.kind == INST))

    @cached_property
    def role_box(self):
        """The closed role box (`rbox.kb_index`), one closure per knowledge base."""
        from . import rbox  # rbox imports this module

        return rbox.build_ext(self.role_subsumptions, self.transitive_roles, self.role_names)


def build_kb(store, subsumptions, transitive, tbox_axioms, abox) -> KnowledgeBase:
    """Assemble and normalize a knowledge base from parsed parts."""
    abox = list(abox)
    if not abox:
        abox.append(store.inst("a0", store.top))

    # Names in order of first occurrence; the oracle's symmetry constraints
    # depend on this order. They are read from the axioms as written, not
    # from `KnowledgeBase.concepts`: internalizing drops an axiom that says
    # nothing, such as `impl bot A`, and its names with it. Each dict keeps
    # its keys in the order they were first set.
    roles: dict = {}
    concepts: dict = {}
    individuals: dict = {}
    for r, s in subsumptions:
        roles[r.name] = roles[s.name] = None
    for role in transitive:
        roles[role.name] = None
    for _, left, right in tbox_axioms:
        _note_names(left, roles, concepts)
        _note_names(right, roles, concepts)
    for f in abox:
        if f.kind == INST:
            individuals[f.ind] = None
            _note_names(f.concept, roles, concepts)
        else:
            roles[f.role.name] = None
            individuals[f.a] = individuals[f.b] = None

    return KnowledgeBase(
        store=store,
        role_subsumptions=list(subsumptions),
        transitive_roles=list(transitive),
        tbox_axioms=list(tbox_axioms),
        tbox=internalize_tbox(store, tbox_axioms),
        abox=abox,
        role_names=list(roles),
        concept_names=list(concepts),
        individuals=list(individuals),
    )


def _note_names(concept: Concept, roles: dict, concepts: dict) -> None:
    """Note each role and concept name of `concept` in `roles` and
    `concepts`, in preorder, left part first."""
    for c in subconcepts(concept):
        k = c.kind
        if k == ATOM:
            concepts[c.name] = None
        elif k == ALL or k == SOME:
            roles[c.role.name] = None


def subconcepts(concept: Concept) -> list:
    """The subconcepts of `concept`, itself first, in preorder, left part
    first: one entry per occurrence, so a part shared by two others is
    listed twice. This is the one walk that visits a concept tree; it
    keeps an explicit stack, so nesting depth is not bounded by the
    recursion limit."""
    out = []
    stack = [concept]
    while stack:
        c = stack.pop()
        out.append(c)
        if c.kind == AND or c.kind == OR:
            stack += (c.right, c.left)
        elif c.child is not None:  # not, all, some
            stack.append(c.child)
    return out


def closure(kb: KnowledgeBase, idx) -> frozenset:
    """The finite formula universe every tableau label draws from.

    Contains: every concept occurring in the TBox or ABox (as a formula or
    subformula) plus its assertion forms for all ABox individuals; every
    value restriction obtained by narrowing an occurring one to a subrole
    in `idx`, the closed role box of `kb`, again with assertion forms; and
    the ABox role assertions themselves.
    """
    store = kb.store

    occurring = {c for root in kb.concepts for c in subconcepts(root)}

    universe: set = set(occurring)
    for concept in ordered(occurring):
        if concept.kind == ALL:
            for role in idx.subroles_of(concept.role):
                universe.add(store.univ(role, concept.child))

    out: set = set(universe)
    for concept in ordered(universe):
        for ind in kb.individuals:
            out.add(store.inst(ind, concept))
    for f in kb.abox:
        if f.kind == REL:
            out.add(f)
    return frozenset(out)


def concepts_of(assertions: Iterable[Formula], ind: str) -> frozenset:
    """{C | ind:C in assertions}: an individual's assertions as a concept label."""
    return frozenset(f.concept for f in assertions if f.kind == INST and f.ind == ind)


_uid = operator.attrgetter("uid")


def ordered(formulas: Iterable[Formula]) -> list:
    """Formulas sorted by their fixed creation order."""
    return sorted(formulas, key=_uid)


def concept_text(concept: Concept) -> str:
    """`concept` in the statement syntax. Walks an explicit stack, so
    nesting depth is not bounded by the recursion limit; a kind's name is
    its keyword."""
    out = []
    stack: list = [concept]
    while stack:
        c = stack.pop()
        if isinstance(c, str):
            out.append(c)
            continue
        k = c.kind
        if k == ATOM:
            out.append(c.name)
        elif k in (TOP, BOT):
            out.append(k)
        elif k == NOT:
            stack += (")", c.child, "(not ")
        elif k in (AND, OR):
            stack += (")", c.right, " ", c.left, f"({k} ")
        elif k in (ALL, SOME):
            stack += (")", c.child, f"({k} {c.role} ")
        else:
            raise ValueError(f"unknown concept kind {k!r}")
    return "".join(out)


def formula_text(formula: Formula) -> str:
    if isinstance(formula, Concept):
        return concept_text(formula)
    if formula.kind == INST:
        return f"{formula.ind}:{concept_text(formula.concept)}"
    return f"{formula.role}({formula.a},{formula.b})"
