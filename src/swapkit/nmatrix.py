"""Non-deterministic matrices, legal valuations, and decision of consequence.

A legal valuation picks, for every compound formula, one value out of the
cell determined by its children's values.  Consequence over a finite matrix
reduces to a search over legal assignments on the subformula closure: cells
are never empty, so any legal partial valuation extends to a full one.

The search branches, at each formula, only over representatives of the
carrier elements that behave identically in every position the formula
actually occupies (same rows in the parent operators' tables).  Two values
with equal designation and equal parent cells are interchangeable in a
countermodel, so this pruning loses nothing.

Each query is compiled once: the closure becomes a children-first list of
nodes, each carrying its operator's table (none for a variable), the indices
of its children and a want-code saying whether the countermodel must
designate it (a premise), must not (the goal), must do both, which no value
can (the goal is also a premise, so the query holds without a search), or
is free.  The search reads only those ints and lists, with the tables' cells
masked by the want-code's admissible values: no formula is hashed or
compared after compilation, because the recursive hash and equality of
formula trees would otherwise dominate its cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from .boolalg import A2
from .formula import (AND, CIRC, IMP, NEG, OR, Binary, Formula, Unary, Var,
                      circ, neg, subformula_closure, to_text)
from .logics import LogicId
from .multialg import MultiAlg, mask_of, members
from .swap import SwapStructure, full_swap


class Nmatrix:
    """A multialgebra plus a designated subset of its carrier."""

    __slots__ = ("malg", "designated", "_slots_cache")

    def __init__(self, malg: MultiAlg, designated):
        self.malg = malg
        self.designated = frozenset(designated)
        self._slots_cache = None

    def __repr__(self) -> str:
        return f"Nmatrix({self.malg.size} values, {len(self.designated)} designated)"


def nmatrix_of(structure: SwapStructure) -> Nmatrix:
    """D = snapshots whose first coordinate is the top element.

    The matrix of a swap structure is never trivial: it needs both designated
    and undesignated snapshots, so degenerate backing algebras are rejected.
    The matrix (and its search tables) is cached on the structure.
    """
    if structure._nmatrix is not None:
        return structure._nmatrix
    top = structure.algebra.top
    designated = frozenset(
        i for i, z in enumerate(structure.snapshots) if z[0] == top)
    if not designated or len(designated) == structure.malg.size:
        raise ValueError("swap-derived matrix must have a proper nonempty "
                         "designated set; the backing algebra is degenerate")
    structure._nmatrix = Nmatrix(structure.malg, designated)
    return structure._nmatrix


@dataclass
class PartialValuation:
    """An assignment on a subformula-closed, children-first formula list."""

    matrix: Nmatrix
    domain: tuple[Formula, ...]
    values: dict[Formula, int]

    def value(self, f: Formula) -> int:
        return self.values[f]

    def designates(self, f: Formula) -> bool:
        return self.values[f] in self.matrix.designated

    def to_json(self) -> dict:
        labels = self.matrix.malg.labels
        return {to_text(f): labels[v] for f, v in self.values.items()}


def is_legal_valuation(pv: PartialValuation) -> bool:
    """Totality on the domain plus membership of each compound in its cell."""
    malg = pv.matrix.malg
    vals = pv.values
    for f in pv.domain:
        if f not in vals:
            return False
        if isinstance(f, Unary):
            if f.child not in vals or vals[f] not in malg.cell(f.op, (vals[f.child],)):
                return False
        elif isinstance(f, Binary):
            if f.left not in vals or f.right not in vals:
                return False
            if vals[f] not in malg.cell(f.op, (vals[f.left], vals[f.right])):
                return False
    return True


def extend_valuation(pv: PartialValuation,
                     formulas: Sequence[Formula]) -> PartialValuation:
    """Deterministic legal extension to a larger closed domain.

    Free choices take the least carrier index; cells are nonempty, so the
    extension always exists.
    """
    domain = tuple(subformula_closure(list(pv.domain) + list(formulas)))
    values = dict(pv.values)
    malg = pv.matrix.malg
    for f in domain:
        if f in values:
            continue
        if isinstance(f, Var):
            values[f] = 0
        elif isinstance(f, Unary):
            values[f] = malg.cell(f.op, (values[f.child],))[0]
        else:
            values[f] = malg.cell(f.op, (values[f.left], values[f.right]))[0]
    return PartialValuation(pv.matrix, domain, values)


@dataclass
class Verdict:
    holds: bool
    countermodel: Optional[PartialValuation] = None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "countermodel": None if self.countermodel is None
            else self.countermodel.to_json(),
        }


# ----------------------------------------------------------------------
# The decision engine
# ----------------------------------------------------------------------

def _slot_partitions(matrix: Nmatrix) -> dict[tuple[str, int], tuple[int, ...]]:
    """For each operator argument slot, group carrier elements with equal
    table rows; interchangeable elements share a class id."""
    if matrix._slots_cache is not None:
        return matrix._slots_cache
    malg = matrix.malg
    k = malg.size
    parts: dict[tuple[str, int], tuple[int, ...]] = {}
    for op, arity in malg.signature.operators():
        table = malg.tables[op]
        if arity == 1:
            parts[(op, 0)] = _canon(table)
        elif arity == 2:
            rows = [tuple(table[u * k:(u + 1) * k]) for u in range(k)]
            cols = [tuple(table[u::k]) for u in range(k)]
            parts[(op, 0)] = _canon(rows)
            parts[(op, 1)] = _canon(cols)
    matrix._slots_cache = parts
    return parts


def _canon(signatures: list) -> tuple[int, ...]:
    ids: dict = {}
    out = []
    for s in signatures:
        got = ids.get(s)
        if got is None:
            got = ids[s] = len(ids)
        out.append(got)
    return tuple(out)


#: Want-codes: what the countermodel needs of a node's value.
_FREE, _DESIGNATED, _UNDESIGNATED, _EMPTY = range(4)


class _Search:
    """Backtracking search for the least countermodel.

    The constructor compiles the closure (see the module docstring); after
    it, no method touches a formula.
    """

    def __init__(self, matrix: Nmatrix, premises: Sequence[Formula],
                 goal: Formula):
        malg = matrix.malg
        k = self.size = malg.size
        self.closure = subformula_closure(list(premises) + [goal])
        node_of = {f: i for i, f in enumerate(self.closure)}
        self.carrier = (1 << k) - 1
        designated = mask_of(matrix.designated)
        #: want-code -> the values it admits
        self.admits = (self.carrier, designated, self.carrier & ~designated, 0)
        #: admitted cell -> its members, ascending
        self.decoded: dict[int, tuple[int, ...]] = {}
        self.tables: list[Optional[list[int]]] = []
        self.kids: list[tuple[int, ...]] = []
        slot_sets: list[set[tuple[str, int]]] = [set() for _ in self.closure]
        for f in self.closure:
            if isinstance(f, Var):
                self.tables.append(None)
                self.kids.append(())
                continue
            self.tables.append(malg.tables[f.op])
            kids = ((node_of[f.child],) if isinstance(f, Unary)
                    else (node_of[f.left], node_of[f.right]))
            self.kids.append(kids)
            for slot, child in enumerate(kids):
                slot_sets[child].add((f.op, slot))
        self.want = [_FREE] * len(self.closure)
        for p in premises:
            self.want[node_of[p]] = _DESIGNATED
        g = node_of[goal]
        self.want[g] = _EMPTY if self.want[g] == _DESIGNATED else _UNDESIGNATED
        self.vals: list[Optional[int]] = [None] * len(self.closure)

        slots = _slot_partitions(matrix)
        self.partition: list[Optional[tuple[int, ...]]] = []
        for used in slot_sets:
            if not used:
                self.partition.append(None)
                continue
            keys = sorted(used)
            self.partition.append(_canon(
                [tuple(slots[s][u] for s in keys) for u in range(k)]))

    def candidates(self, i: int) -> tuple[int, ...]:
        table = self.tables[i]
        if table is None:
            cell = self.carrier
        else:
            kids = self.kids[i]
            vals = self.vals
            if len(kids) == 1:
                cell = table[vals[kids[0]]]
            else:
                cell = table[vals[kids[0]] * self.size + vals[kids[1]]]
        cell &= self.admits[self.want[i]]
        got = self.decoded.get(cell)
        if got is None:
            got = self.decoded[cell] = members(cell)
        return got

    def search(self, i: int) -> bool:
        """Fill nodes i.. with a countermodel extension, if one exists."""
        if i == len(self.closure):
            return True
        part = self.partition[i]
        cands = self.candidates(i)
        if part is None:
            cands = cands[:1]  # no parents: all filtered values interchangeable
        seen: set[int] = set()
        for u in cands:
            if part is not None:
                c = part[u]
                if c in seen:
                    continue
                seen.add(c)
            self.vals[i] = u
            if self.search(i + 1):
                return True
        self.vals[i] = None
        return False


def decide(matrix: Nmatrix, premises: Sequence[Formula],
           goal: Formula) -> Verdict:
    """Is the goal designated under every legal valuation designating the
    premises?  On failure the countermodel returned is the least one in the
    children-first closure order.

    A goal that is also a premise holds at once.  Otherwise the search tries
    candidates in ascending order and skips only values interchangeable with
    one that already failed, so the first countermodel it finds is the least.
    """
    search = _Search(matrix, premises, goal)
    if _EMPTY in search.want or not search.search(0):
        return Verdict(True)
    values = {f: search.vals[i] for i, f in enumerate(search.closure)}
    pv = PartialValuation(matrix, tuple(search.closure), values)
    return Verdict(False, pv)


class UnsupportedLogicError(ValueError):
    pass


@lru_cache(maxsize=None)
def characteristic_structure(logic: LogicId) -> SwapStructure:
    if logic is LogicId.CPLE_PLUS:
        raise UnsupportedLogicError(
            "cple+ is characterized only by the whole class of its matrices, "
            "not by a single finite one; decide over a chosen structure instead")
    return full_swap(logic, A2)


def characteristic_matrix(logic: LogicId) -> Nmatrix:
    return nmatrix_of(characteristic_structure(logic))


def decide_logic(logic: LogicId, premises: Sequence[Formula],
                 goal: Formula) -> Verdict:
    """Decide derivability through the logic's finite characteristic matrix."""
    return decide(characteristic_matrix(logic), premises, goal)


# ----------------------------------------------------------------------
# Bivaluations: two-valued non-truth-functional semantics
# ----------------------------------------------------------------------

BIVALUATION_LOGICS = (LogicId.MBC, LogicId.LFI1O, LogicId.CIORE)


def extended_closure(formulas: Sequence[Formula]) -> tuple[Formula, ...]:
    """Subformula closure plus ~f, @f and ~@f for every f in it.

    The extra layer is what the negation and consistency clauses quantify
    over.  The negation of each consistency claim must be present as well:
    the constraint "an inconsistency-free formula is consistent" only arises
    from composing the negation clause with the consistency-negation clause
    through ~@f, and without it fragments would satisfy every listed clause
    while inducing illegal matrix valuations.  The result is still
    subformula-closed and children-first.
    """
    base = subformula_closure(formulas)
    out = dict.fromkeys(base)
    for f in base:
        out.setdefault(neg(f))
        cf = circ(f)
        out.setdefault(cf)
        out.setdefault(neg(cf))
    return tuple(out)


@dataclass
class Bivaluation:
    """A 0/1 assignment on the extended closure of a base formula set."""

    logic: LogicId
    base: tuple[Formula, ...]
    values: dict[Formula, int] = field(default_factory=dict)

    def domain(self) -> tuple[Formula, ...]:
        return extended_closure(self.base)


def clause_failures(logic: LogicId, mu: dict[Formula, int],
                    domain: Sequence[Formula]) -> list[str]:
    """Violated bivaluation clauses over a possibly partial assignment.

    A clause is evaluated only when every formula it mentions has a value,
    so the checker doubles as a consistency test during incremental
    construction of a bivaluation.
    """
    if logic not in BIVALUATION_LOGICS:
        raise ValueError(f"no bivaluation clauses defined for {logic.display}")
    failures = []

    def fail(name: str, f: Formula) -> None:
        failures.append(f"{name} at {to_text(f)}")

    for f in domain:
        v = mu.get(f)
        if v is None:
            continue
        if isinstance(f, Binary):
            l, r = mu.get(f.left), mu.get(f.right)
            if l is None or r is None:
                continue
            if f.op == AND and v != (l and r):
                fail("vAnd", f)
            elif f.op == OR and v != (l or r):
                fail("vOr", f)
            elif f.op == IMP and v != ((1 - l) or r):
                fail("vImp", f)
        elif isinstance(f, Unary) and f.op == NEG:
            x = f.child
            if v == 0 and mu.get(x) == 0:
                fail("vNeg", f)
            if logic is LogicId.MBC:
                continue
            if isinstance(x, Unary) and x.op == NEG:
                if mu.get(x.child) is not None and v != mu[x.child]:
                    fail("vCeCf", f)
            elif isinstance(x, Unary) and x.op == CIRC:
                y, ny = mu.get(x.child), mu.get(neg(x.child))
                if v == 1 and y is not None and ny is not None \
                        and not (y == 1 and ny == 1):
                    fail("vCi", f)
            elif logic is LogicId.LFI1O and isinstance(x, Binary):
                nl, nr = mu.get(neg(x.left)), mu.get(neg(x.right))
                if x.op == AND and nl is not None and nr is not None:
                    if v != (nl or nr):
                        fail("vDM_and", f)
                elif x.op == OR and nl is not None and nr is not None:
                    if v != (nl and nr):
                        fail("vDM_or", f)
                elif x.op == IMP and nr is not None \
                        and mu.get(x.left) is not None:
                    if v != (mu[x.left] and nr):
                        fail("vCIp_imp", f)
        elif isinstance(f, Unary) and f.op == CIRC:
            x = f.child
            nx = mu.get(neg(x))
            if v == 1 and mu.get(x) == 1 and nx == 1:
                fail("vCon", f)
            if logic is LogicId.CIORE and isinstance(x, Binary):
                cl, cr = mu.get(circ(x.left)), mu.get(circ(x.right))
                if cl is not None and cr is not None and v != (cl or cr):
                    fail("vCo", f)
    return failures


def is_bivaluation(b: Bivaluation) -> bool:
    dom = b.domain()
    missing = [f for f in dom if f not in b.values]
    if missing:
        raise ValueError(f"domain not closed: missing {to_text(missing[0])}")
    return not clause_failures(b.logic, b.values, dom)


def induced_valuation(b: Bivaluation) -> PartialValuation:
    """The matrix valuation packing each formula's own value with the values
    of its negation (and, for triples, its consistency claim)."""
    if not is_bivaluation(b):
        raise ValueError("assignment violates the bivaluation clauses")
    structure = characteristic_structure(b.logic)
    matrix = characteristic_matrix(b.logic)
    mu = b.values
    domain = tuple(subformula_closure(b.base))
    values: dict[Formula, int] = {}
    for f in domain:
        if b.logic is LogicId.MBC:
            snap = (mu[f], mu[neg(f)], mu[circ(f)])
        else:
            snap = (mu[f], mu[neg(f)])
        values[f] = structure.index_of[snap]
    return PartialValuation(matrix, domain, values)
