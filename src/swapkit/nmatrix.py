"""Non-deterministic matrices, legal valuations, and decision of consequence.

A legal valuation picks, for every compound formula, one value out of the
cell determined by its children's values.  Consequence over a finite matrix
reduces to a search over legal assignments on the subformula closure: cells
are never empty, so any legal partial valuation extends to a full one.

A query is answered in two steps.

*Compile*, per query and independent of any matrix: one walk,
``closure_index`` of the premises and the goal, numbers the nodes children
first, and one pass over its map records each node's operator (none for a
variable), its children's indices, read from the same map, its slot set,
the (operator, argument slot) pairs where it occurs, as the bits of
``_BIT``, and whether it is shared; the premises and the goal become node
indices.  The result is an immutable record, kept in a small
least-recently-used cache keyed on the premises and the goal, so a query
asked of many matrices, as the defining schemas are in characterization,
is compiled once.  Formulas are hash-consed, so the key hashes in constant
time, and the bound keeps the cache from holding on to the formulas of many
one-off queries.  The ``decide`` benchmark's queries are one-off: nearly
every one misses the cache and is compiled, so the walk and the pass are
paid on every call.

*Decide*, per matrix, binds the query and then searches it, both in
``decide``.  Binding gives each node its operator's table (one
whole-carrier cell for a variable), an ``allowed`` bitmask and a
value-class memo (only shared nodes need one in the verdict-only search
below).  The mask is the set of values a countermodel may give the
node: the whole carrier, the designated values for a premise (a mask the
matrix computes once), the undesignated values for the goal, and none
when the goal is also a premise, so that the query holds without a
search.  Two values share a value class exactly when the node's parents
cannot tell them apart: equal cells in every (operator, argument slot)
where the node occurs.  Such values are interchangeable in a
countermodel, so the search tries one value per class and loses nothing.
The memo, one per slot set on the matrix and keyed by its bits, maps a
cell to the least member of each class it meets, ascending: the node's
candidates, once its table cell is masked by ``allowed``.

The memos read the matrix's tables through views, each carrier element's
unary cell, row or column in one (operator, slot) pair, built once per matrix
and shared by every slot set.

One search loop reads only those ints, lists and memos: no formula is
touched after compilation.  It is cycle-cutset conditioning (Dechter, AI 41,
1990), and ``least`` chooses the cutset.  The loop walks the nodes in
closure order.  A node in the cutset carries a cursor over its candidates,
one value per value class.  Every other node carries a mask: its
``allowed`` values that lie in some cell of its table over its children's
values, a one-value mask being read as that value.  A node left with no
value backs up to the last node with a cursor.

*The ordered search* (the default) puts every node in the cutset.  No node
then has several values, a dead end backs up to the node before it, and
the first countermodel found is the least one.  Goldens, digests and the
CLI print that countermodel.

*The verdict-only search* (``least=False``) puts only the shared nodes in
the cutset: those that fill two or more parent slots (``p & p`` fills two).
Why it is exact: with the shared nodes fixed, each other node fills at most
one parent slot, so the rest of the closure is a forest and every value
left in a mask extends to a legal valuation of the subtree below it
(Freuder, JACM 29, 1982).  The value classes stay sound at shared nodes,
since interchangeable values give every parent slot the same cell and so
the same masks above.  Once every node has a value or a nonempty mask, a
countermodel is read back parents first, each child with several values
left taking one that puts its parent's value in the cell.  It is legal and
refutes the query, but need not be the least.

Three measurements (2-vCPU Xeon, Python 3.11.7) are why both cutsets stay:

- Running the verdict-only search first inside plain ``decide`` made 6,000
  ``decide`` benchmark queries (seed 3, in-process) slower in six of seven
  alternating runs, by up to 48%: 74% of them fail, and a failing query
  still needs the ordered search for its least countermodel.  So only
  ``swap.validates``, which reads the verdict alone, asks for it.
- Dropping value classes at shared nodes made no clear difference on the
  small candidates of the ``characterize`` workload, but validating the 22
  schemas over the 64-value full CPLe+ structure (2 atoms) then took 35 s,
  against 24 ms with them and 6 ms with the ordered search.  So shared
  nodes keep the classes.
- On fixed full structures the verdict-only search is not faster: 100 random
  queries over the 64-value CPLe+ structure took 89 ms against 9 ms, since
  its masks there are wide.  Its gain is on the small, fresh candidate
  matrices of characterization, where most queries hold and the ordered
  search must exhaust the classes of every node to say so.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from ._frozen import Frozen
from .boolalg import A2
from .formula import (AND, CIRC, IMP, NEG, OR, Binary, Formula, Unary,
                      circ, closure_index, neg, subformula_closure, to_text,
                      to_texts)
from .logics import LogicId
from .multialg import MultiAlg, mask_of, members
from .swap import SwapStructure, _full_structure


class Nmatrix:
    """A multialgebra plus a designated subset of its carrier."""

    __slots__ = ("malg", "designated", "_designated_mask", "_picks", "_views")

    def __init__(self, malg: MultiAlg, designated):
        self.malg = malg
        self.designated = frozenset(designated)
        self._designated_mask = mask_of(self.designated)
        #: slot-set bits -> their value-class memo
        self._picks: dict[int, _Picks] = {}
        #: (operator, slot) -> each carrier element's cell, row or column
        self._views: dict[tuple[str, int], list] = {}

    def _picks_for(self, bits: int) -> _Picks:
        memo = self._picks.get(bits)
        if memo is None:
            memo = self._picks[bits] = _Picks(self, bits)
        return memo

    def _view(self, op: str, slot: int) -> list:
        """Each carrier element's unary cell, row (slot 0) or column (slot 1)
        as an argument of ``op``, built once."""
        view = self._views.get((op, slot))
        if view is None:
            malg = self.malg
            k = malg.size
            table = malg.tables[op]
            if malg.signature.arity_of(op) == 1:
                view = table
            elif slot == 0:
                view = [tuple(table[u * k:(u + 1) * k]) for u in range(k)]
            else:
                view = [tuple(table[u::k]) for u in range(k)]
            self._views[op, slot] = view
        return view

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
    designated = frozenset(structure.designated)
    if not designated or len(designated) == structure.malg.size:
        raise ValueError("swap-derived matrix must have a proper nonempty "
                         "designated set; the backing algebra is degenerate")
    structure._nmatrix = Nmatrix(structure.malg, designated)
    return structure._nmatrix


class PartialValuation:
    """An assignment on a subformula-closed, children-first formula list."""

    __slots__ = ("matrix", "domain", "values")

    def __init__(self, matrix: Nmatrix, domain: tuple[Formula, ...],
                 values: dict[Formula, int]):
        self.matrix = matrix
        self.domain = domain
        self.values = values

    def designates(self, f: Formula) -> bool:
        return self.values[f] in self.matrix.designated

    def to_json(self) -> dict:
        labels = self.matrix.malg.labels
        text = to_texts(self.values)
        return {text[f]: labels[v] for f, v in self.values.items()}


def is_legal_valuation(pv: PartialValuation) -> bool:
    """Totality on the domain, every value a carrier index, plus membership
    of each compound in its cell."""
    malg = pv.matrix.malg
    vals = pv.values
    if any(type(v) is not int or not 0 <= v < malg.size
           for v in vals.values()):
        return False
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


class Verdict:
    __slots__ = ("holds", "countermodel")

    def __init__(self, holds: bool,
                 countermodel: Optional[PartialValuation] = None):
        self.holds = holds
        self.countermodel = countermodel

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "countermodel": None if self.countermodel is None
            else self.countermodel.to_json(),
        }


# ----------------------------------------------------------------------
# The decision engine
# ----------------------------------------------------------------------

class _Picks(dict):
    """cell -> the least member of each value class the cell meets,
    ascending, made on demand.  Two carrier elements share a class exactly
    when their unary cells, rows (slot 0) or columns (slot 1) agree in every
    (operator, slot) pair whose bit is set; with no bits there is one class."""

    __slots__ = ("class_of",)

    def __init__(self, matrix: Nmatrix, bits: int):
        super().__init__()
        views = [matrix._view(op, slot)
                 for (op, slot), bit in _BIT.items() if bits & bit]
        keys = zip(*views) if views else [()] * matrix.malg.size
        ids: dict[tuple, int] = {}
        self.class_of = [ids.setdefault(key, len(ids)) for key in keys]

    def __missing__(self, cell: int) -> tuple[int, ...]:
        least: dict[int, int] = {}
        for u in members(cell):
            least.setdefault(self.class_of[u], u)
        picks = self[cell] = tuple(least.values())
        return picks


class _Query(Frozen):
    """A query compiled from its formulas alone, shared by every matrix it is
    asked of.

    ``ops[i]`` is node i's operator, None for a variable, ``slots[i]`` its
    slot set's ``_BIT`` bits, and ``shared[i]`` whether it fills two or more
    parent slots.  The per-node fields are lists: tuples of many sizes, made
    and dropped once per query, would pile up in the interpreter's per-size
    tuple free lists.
    """

    __slots__ = ("closure", "ops", "kids", "slots", "shared", "premises",
                 "goal")


#: Each (operator, argument slot) pair a node can occur in is one bit of a
#: slot set, the bits ascending with the pairs' sorted order.
_BIT = {pair: 1 << i for i, pair in enumerate(sorted(
    [(NEG, 0), (CIRC, 0)]
    + [(op, slot) for op in (AND, OR, IMP) for slot in (0, 1)]))}
_LEFT_BIT = {op: bit for (op, slot), bit in _BIT.items() if slot == 0}
_RIGHT_BIT = {op: bit for (op, slot), bit in _BIT.items() if slot == 1}


@lru_cache(maxsize=32)
def _compile(premises: tuple[Formula, ...], goal: Formula) -> _Query:
    """The children-first closure of a query, with each node's operator,
    child indices, slot bits and whether it is shared.  Cached: the logics
    share their schemas, so characterization asks the same few queries of
    every candidate."""
    node_of = closure_index([*premises, goal])
    n = len(node_of)
    ops: list[Optional[str]] = [None] * n
    kids: list[tuple[int, ...]] = [()] * n
    slots = [0] * n
    fills = [0] * n  # parent slots each node fills
    for f, i in node_of.items():
        kind = type(f)
        if kind is Unary:
            child = node_of[f.child]
            ops[i] = f.op
            kids[i] = (child,)
            slots[child] |= _LEFT_BIT[f.op]
            fills[child] += 1
        elif kind is Binary:
            left, right = node_of[f.left], node_of[f.right]
            ops[i] = f.op
            kids[i] = (left, right)
            slots[left] |= _LEFT_BIT[f.op]
            slots[right] |= _RIGHT_BIT[f.op]
            fills[left] += 1
            fills[right] += 1
    return _Query(list(node_of), ops, kids, slots,
                  [count > 1 for count in fills],
                  [node_of[p] for p in premises], node_of[goal])


def decide(matrix: Nmatrix, premises: Sequence[Formula], goal: Formula, *,
           least: bool = True) -> Verdict:
    """Is the goal designated under every legal valuation designating the
    premises?  On failure the countermodel returned is the least one in the
    children-first closure order, or some countermodel with ``least=False``.

    A goal that is also a premise holds at once.  Otherwise one search
    walks the closure with a cursor at each node of a cutset and a mask at
    every other node (see the module docstring); ``least`` picks the
    cutset.  By default it is every node: candidates are tried in ascending
    order, skipping only values interchangeable with one that already
    failed, so the first countermodel found is the least.  With
    ``least=False`` it is the shared nodes alone; the verdict is the same,
    and a caller that reads only ``holds`` should ask for it.
    """
    query = _compile(tuple(premises), goal)
    malg = matrix.malg
    k = malg.size
    n = len(query.ops)
    carrier = (1 << k) - 1
    designated = matrix._designated_mask
    allowed = [carrier] * n
    for i in query.premises:
        allowed[i] = designated
    allowed[query.goal] &= carrier & ~designated
    if 0 in allowed:
        return Verdict(True)
    tables = [[carrier] if op is None else malg.tables[op] for op in query.ops]
    picks = [matrix._picks_for(bits) if least or shared else None
             for bits, shared in zip(query.slots, query.shared)]
    vals = _countermodel(query.kids, k, allowed, tables, picks)
    if vals is None:
        return Verdict(True)
    domain = tuple(query.closure)
    return Verdict(False, PartialValuation(matrix, domain,
                                           dict(zip(domain, vals))))


#: The cursor of a node that carries a mask: backing up passes over it.
_NO_CURSOR = iter(())


def _countermodel(kids, k, allowed, tables, picks):
    """The search's values, or None.  A node with ``picks`` carries a cursor
    over its value classes; a node without carries a mask (see the module
    docstring)."""
    n = len(kids)
    masks = [0] * n  # written only for nodes left with several values
    vals = [-1] * n  # a node's one value, or -1 when it has several
    cursors = [_NO_CURSOR] * n
    i = 0
    while i < n:
        pos = 0  # of the children's values in node i's table
        for child in kids[i]:
            u = vals[child]
            if u < 0:  # a child with several values
                m = _union(tables[i], k, [masks[c] if vals[c] < 0
                                          else 1 << vals[c] for c in kids[i]])
                break
            pos = pos * k + u
        else:
            m = tables[i][pos]
        m &= allowed[i]
        if picks[i] is not None:
            cursors[i] = iter(picks[i][m])
            u = next(cursors[i], None)
        elif m & (m - 1):
            masks[i] = m
            vals[i] = -1
            i += 1
            continue
        else:
            u = m.bit_length() - 1 if m else None
        while u is None:  # node i is empty: back up to the last cursor
            i -= 1
            if i < 0:
                return None
            u = next(cursors[i], None)
        vals[i] = u
        i += 1
    if -1 not in vals:
        return vals
    # read a countermodel back, parents first: each child with several
    # values left takes one that puts its parent's value in the cell
    for i in range(n - 1, -1, -1):
        v = vals[i]
        if v < 0:  # a root
            m = masks[i]
            v = vals[i] = (m & -m).bit_length() - 1
        kid = kids[i]
        if not kid or min(vals[child] for child in kid) >= 0:
            continue
        bit = 1 << v
        table = tables[i]
        values = [members(masks[c]) if vals[c] < 0 else (vals[c],)
                  for c in kid]
        if len(kid) == 1:
            vals[kid[0]] = next(u for u in values[0] if table[u] & bit)
        else:
            vals[kid[0]], vals[kid[1]] = next(
                (u, w) for u in values[0] for w in values[1]
                if table[u * k + w] & bit)
    return vals


def _union(table: list[int], k: int, masks: list[int]) -> int:
    """The union of a table's cells over one or two argument masks."""
    cell = 0
    if len(masks) == 1:
        for u in members(masks[0]):
            cell |= table[u]
    else:
        ws = members(masks[1])
        for u in members(masks[0]):
            row = u * k
            for w in ws:
                cell |= table[row + w]
    return cell


class UnsupportedLogicError(ValueError):
    pass


def characteristic_structure(logic: LogicId) -> SwapStructure:
    if logic is LogicId.CPLE_PLUS:
        raise UnsupportedLogicError(
            "cple+ is not decided by name: its eight-valued structure over A2 "
            "is not adopted as its characteristic matrix; decide over a "
            "chosen structure instead")
    return _full_structure(logic, A2)


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


class Bivaluation:
    """A 0/1 assignment on the extended closure of a base formula set."""

    __slots__ = ("logic", "base", "values")

    def __init__(self, logic: LogicId, base: tuple[Formula, ...],
                 values: dict[Formula, int]):
        self.logic = logic
        self.base = base
        self.values = values

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
        if not b.logic.pair_mode:
            snap = (mu[f], mu[neg(f)], mu[circ(f)])
        else:
            snap = (mu[f], mu[neg(f)])
        values[f] = structure.index_of[snap]
    return PartialValuation(matrix, domain, values)
