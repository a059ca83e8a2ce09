"""Swap structures: multialgebras of snapshots over a finite Boolean algebra.

A snapshot packs a truth value together with candidate values for the
negation and the consistency marker of a formula: triples (z1, z2, z3) for
the two weakest logics, pairs (z1, z2) from mbCciw upward, where the third
coordinate is forced to be the complement of z1 & z2 and is dropped.

Every structure here is a submultialgebra of the *full* structure of its
logic, whose cells are as large as the defining clauses allow.  CPLe+ admits
every triple, and its cells at z (and w) hold every snapshot u with

    ~z:  u1 = z2        @z:  u1 = z3        z # w:  u1 = z1 # w1

for # one of &, |, ->.  Each other logic cuts this class down with the
clauses of ``_CLAUSES``; u is the output, and a pinned cell holds only the
snapshot given (for @z: (~(z1&z2), z1&z2)):

    logic    universe               ~z        @z      z # w
    CPLe+    every triple           -         -       -
    mbC      z1|z2=1, z1&z2&z3=0    -         -       -
    mbCciw   z1|z2=1, pairs         -         -       -
    mbCci    z1|z2=1, pairs         -         pinned  -
    Ci       z1|z2=1, pairs         u2 <= z1  pinned  -
    CPLe     z2=~z1, pairs          u2 <= z1  pinned  -
    LFI1o    z1|z2=1, pairs         (z2,z1)   pinned  (u1, z2|w2 / z2&w2 / z1&w2)
    Ciore    z1|z2=1, pairs         (z2,z1)   pinned  (u1, u1 -> z1&z2&w1&w2)

"pairs" means z3 = ~(z1&z2), so the third coordinate is dropped; LFI1o's
second coordinate depends on # (&, |, -> in that order).  In LFI1o and
Ciore every cell is pinned, so their structures are twist-style algebras.

Only ``universe`` evaluates the universe clauses, and only the cached build
of each full structure (``full_swap``) the cell clauses.  ``is_swap_for``
looks a candidate's snapshots up in it, and random draws and closed
restrictions cut its cells down, so each needs it under the cap.

One lift of Boolean homomorphisms, coordinatewise, to full structures (the
functor K*) gives ``kalman_star``; the product isomorphism inverts its tuple
over the product projections; the representation is its tuple over the atom
evaluations.  The module also houses the classical pair construction with its
duality onto pair universes, and the quotient that leaves the mbC class.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Callable, Optional, Sequence

from ._frozen import Frozen
from .boolalg import (A2, BaHom, BoolAlg, atom_embedding, ba_product,
                      is_ba_hom)
from .formula import AND, CIRC, IMP, LOGIC_SIGNATURE, NEG, OR, Formula
from .logics import LogicId
from .multialg import (EquivRel, MaMap, MultiAlg, _cells_map_into, _check_cap,
                       _Images, _restricted_tables, ma_product, mask_of,
                       members, quotient, table_cells)

Snapshot = tuple[int, ...]

#: Entries kept by each cache of universes, full structures and powers of
#: the two-element structure.  The eight logics over one to three atoms make
#: 24 keys, the most that ``verify all`` uses, so neither evicts.
CACHE_SIZE = 32

BINARY_BA = {AND: BoolAlg.meet, OR: BoolAlg.join, IMP: BoolAlg.imp}


class _Clauses(Frozen):
    """What one logic adds to the CPLe+ clauses (see the module docstring).

    ``universe`` is the snapshot universe, on the triple view (A, z1, z2,
    z3).  With ``neg_bounded``, negation outputs keep u2 <= z1; with
    ``circ_pinned``, consistency outputs are pinned to (~(z1 & z2),
    z1 & z2).  ``second``, when given, maps (A, op, z, w, u1) to the u2 that
    pins binary outputs, and then ~z is (z2, z1).
    """

    __slots__ = ("universe", "neg_bounded", "circ_pinned", "second")

    def __init__(self, universe: Callable[[BoolAlg, int, int, int], bool],
                 neg_bounded: bool = False, circ_pinned: bool = False,
                 second: Optional[Callable[[BoolAlg, str, Snapshot, Snapshot,
                                            int], int]] = None):
        super().__init__(universe, neg_bounded, circ_pinned, second)


def _any_triple(A: BoolAlg, z1: int, z2: int, z3: int) -> bool:
    return True


def _mbc_universe(A: BoolAlg, z1: int, z2: int, z3: int) -> bool:
    return A.join(z1, z2) == A.top and A.meet(A.meet(z1, z2), z3) == A.bot


def _pair_universe(A: BoolAlg, z1: int, z2: int, z3: int) -> bool:
    return A.join(z1, z2) == A.top and z3 == A.comp(A.meet(z1, z2))


def _cple_universe(A: BoolAlg, z1: int, z2: int, z3: int) -> bool:
    return z2 == A.comp(z1) and z3 == A.top


def _lfi1o_second(A: BoolAlg, op: str, z: Snapshot, w: Snapshot,
                  first: int) -> int:
    if op == AND:
        return A.join(z[1], w[1])
    if op == OR:
        return A.meet(z[1], w[1])
    return A.meet(z[0], w[1])


def _ciore_second(A: BoolAlg, op: str, z: Snapshot, w: Snapshot,
                  first: int) -> int:
    return A.imp(first, A.meet(A.meet(z[0], z[1]), A.meet(w[0], w[1])))


_CLAUSES = {
    LogicId.CPLE_PLUS: _Clauses(_any_triple),
    LogicId.MBC: _Clauses(_mbc_universe),
    LogicId.MBCCIW: _Clauses(_pair_universe),
    LogicId.MBCCI: _Clauses(_pair_universe, circ_pinned=True),
    LogicId.CI: _Clauses(_pair_universe, neg_bounded=True, circ_pinned=True),
    LogicId.CPLE: _Clauses(_cple_universe, neg_bounded=True, circ_pinned=True),
    LogicId.LFI1O: _Clauses(_pair_universe, circ_pinned=True,
                            second=_lfi1o_second),
    LogicId.CIORE: _Clauses(_pair_universe, circ_pinned=True,
                            second=_ciore_second),
}

#: the display names over A2, in display order: a universe over A2 lists
#: its snapshots in this order
_NAMED_A2 = {
    (1, 0, 1): "T", (1, 1, 0): "t", (1, 0, 0): "t0",
    (0, 1, 1): "F", (0, 1, 0): "f0",
    (1, 0): "T", (1, 1): "t", (0, 1): "F",
}


def z3_view(algebra: BoolAlg, z: Snapshot) -> int:
    """Third coordinate, reconstructed for pair snapshots."""
    return z[2] if len(z) == 3 else algebra.comp(algebra.meet(z[0], z[1]))


def snapshot_label(algebra: BoolAlg, z: Snapshot) -> str:
    if algebra.atoms == 1:
        name = _NAMED_A2.get(z)
        if name is not None:
            return name
    return "(" + ",".join(str(c) for c in z) + ")"


def _universe_size(logic: LogicId, atoms: int) -> int:
    """The size of a universe, known before it is built: see ``universe``."""
    return len(universe(logic, A2)) ** atoms


@lru_cache(maxsize=CACHE_SIZE)
def universe(logic: LogicId, algebra: BoolAlg) -> tuple[Snapshot, ...]:
    """The snapshot universe of a logic over a finite Boolean algebra: the
    triples (pairs from mbCciw upward) that its clauses admit, ascending.

    Every universe clause is a Boolean equation, which holds exactly when it
    holds at each atom, so beyond A2 the universe is the power of the one
    over A2, one factor per atom.  Raises ``CellCapExceeded`` before
    building that power when it has more snapshots than ``cell_cap()``.
    """
    A = algebra
    if A.atoms == 1:
        width = 2 if logic.pair_mode else 3
        admits = _CLAUSES[logic].universe
        snaps = [z for z in itertools.product(A.elements(), repeat=width)
                 if admits(A, z[0], z[1], z3_view(A, z))]
        named = [z for z in _NAMED_A2 if z in snaps]
        return tuple(named if len(named) == len(snaps) else snaps)
    _check_cap(_universe_size(logic, A.atoms),
               f"{logic.display} universe over {A.atoms} atoms would need",
               "snapshots")
    base = universe(logic, A2)
    snaps = [(0,) * len(base[0])]
    for atom in range(A.atoms):
        snaps = [tuple(c | b << atom for c, b in zip(z, s))
                 for z in snaps for s in base]
    return tuple(sorted(snaps))


class SwapStructure:
    """A multialgebra whose carrier is decoded as snapshots over an algebra."""

    __slots__ = ("logic", "algebra", "malg", "snapshots", "index_of",
                 "_nmatrix", "_in_base", "_validity")

    def __init__(self, logic: LogicId, algebra: BoolAlg, malg: MultiAlg,
                 snapshots: Sequence[Snapshot]):
        if len(snapshots) != malg.size:
            raise ValueError("one snapshot per carrier element required")
        if malg.signature != LOGIC_SIGNATURE:
            raise ValueError(f"a swap structure needs the logic signature, "
                             f"got {malg.signature}")
        self.logic = logic
        self.algebra = algebra
        self.malg = malg
        self.snapshots = tuple(snapshots)
        self.index_of = {z: i for i, z in enumerate(self.snapshots)}
        self._nmatrix = None
        self._in_base = None
        self._validity = None

    @property
    def designated(self) -> tuple[int, ...]:
        """Positions whose first coordinate is top: the designated values."""
        top = self.algebra.top
        return tuple(i for i, z in enumerate(self.snapshots) if z[0] == top)

    def __repr__(self) -> str:
        return (f"SwapStructure({self.logic.display}, "
                f"{self.algebra.atoms} atoms, {self.malg.size} snapshots)")


def _check_full_cells(logic: LogicId, algebra: BoolAlg) -> None:
    k = _universe_size(logic, algebra.atoms)
    _check_cap(3 * k * k + 2 * k, f"full {logic.display} structure over "
               f"{algebra.atoms} atoms would need", "cells")


@lru_cache(maxsize=CACHE_SIZE)
def _full_structure(logic: LogicId, algebra: BoolAlg) -> SwapStructure:
    """The logic's universe with every cell as large as the clauses allow:
    the one place that evaluates them (see the module docstring)."""
    _check_full_cells(logic, algebra)
    clauses, A = _CLAUSES[logic], algebra
    snaps = universe(logic, A)
    #: (z1, z2, z3) -> position, to find pinned outputs in either mode
    index = {(z[0], z[1], z3_view(A, z)): i for i, z in enumerate(snaps)}
    #: first coordinate -> cell of the snapshots with that first coordinate
    first_class: dict[int, int] = {}
    for i, z in enumerate(snaps):
        first_class[z[0]] = first_class.get(z[0], 0) | 1 << i

    def pin(z1: int, z2: int) -> int:
        """The one-snapshot cell of a forced (pair-family) output."""
        return 1 << index[z1, z2, A.comp(A.meet(z1, z2))]

    if clauses.second:
        neg = [pin(z[1], z[0]) for z in snaps]
    elif clauses.neg_bounded:
        below = {a: mask_of(u for u, w in enumerate(snaps) if A.le(w[1], a))
                 for a in first_class}
        neg = [first_class[z[1]] & below[z[0]] for z in snaps]
    else:
        neg = [first_class[z[1]] for z in snaps]
    if clauses.circ_pinned:
        circ = [pin(A.comp(A.meet(z[0], z[1])), A.meet(z[0], z[1]))
                for z in snaps]
    else:
        circ = [first_class[z3_view(A, z)] for z in snaps]
    tables = {NEG: neg, CIRC: circ}
    firsts = [z[0] for z in snaps]
    for op, opfn in BINARY_BA.items():
        if clauses.second:
            tables[op] = cells = []
            for z in snaps:
                for w in snaps:
                    first = opfn(A, z[0], w[0])
                    cells.append(pin(first, clauses.second(A, op, z, w, first)))
            continue
        # unpinned binary cells depend only on the first coordinates: one
        # row object per first coordinate, at the row of every snapshot
        # with that first coordinate, so the structure keeps it once
        rows = {a: [first_class[opfn(A, a, b)] for b in firsts]
                for a in first_class}
        tables[op] = list(map(rows.__getitem__, firsts))
    return _structure(logic, A, snaps, tables)


def full_swap(logic: LogicId, algebra: BoolAlg) -> SwapStructure:
    """The largest swap structure for a logic over an algebra.

    Raises ``CellCapExceeded`` before building anything when its tables
    would hold more cells than ``cell_cap()`` allows.
    """
    return _full_structure(logic, algebra)


def _structure(logic: LogicId, algebra: BoolAlg, snaps: Sequence[Snapshot],
               tables: dict[str, Sequence]) -> SwapStructure:
    """The swap structure on ``snaps`` with the given cell tables, its
    elements labelled by their snapshots."""
    labels = [snapshot_label(algebra, z) for z in snaps]
    return SwapStructure(logic, algebra,
                         MultiAlg(LOGIC_SIGNATURE, labels, tables), snaps)


# ----------------------------------------------------------------------
# Membership and characterization
# ----------------------------------------------------------------------

def _encoded(logic: LogicId, algebra: BoolAlg,
             snaps: Sequence[Snapshot]) -> list[Optional[Snapshot]]:
    """The snapshots in the logic's own width: pairs read as triples through
    the derived third coordinate, triples cut down to pairs.  A triple whose
    third coordinate is not the derived one has no pair, and gives None."""
    if not logic.pair_mode:
        return [z if len(z) == 3 else (*z, z3_view(algebra, z)) for z in snaps]
    return [z if len(z) == 2 else z[:2] if z[2] == z3_view(algebra, z[:2])
            else None for z in snaps]


def is_swap_for(logic: LogicId, cand: SwapStructure) -> bool:
    """Structural membership of a candidate in a logic's class of structures.

    Some first coordinate is 0, and the candidate is a submultialgebra of
    the logic's full structure over its algebra: each snapshot is looked up
    in the full structure, read in its width, and a snapshot it lacks (one
    outside the logic's universe over that algebra) gives False.  Pair and triple encodings
    are reconciled through the derived third coordinate, so any candidate
    can be tested against any logic.  Raises ``CellCapExceeded`` when that
    full structure is above ``cell_cap()``.
    """
    A = cand.algebra
    snaps = cand.snapshots
    if all(z[0] != A.bot for z in snaps):
        return False
    full = _full_structure(logic, A)
    embedding = list(map(full.index_of.get, _encoded(logic, A, snaps)))
    if None in embedding:
        return False
    return _cells_map_into(cand.malg, full.malg, _Images(embedding), full=False)


def validates(structure: SwapStructure, schema: Formula) -> bool:
    """Does the structure's matrix validate every instance of the schema?

    Metavariables act as propositional variables; by structurality of matrix
    consequence, validity of the schema-as-formula covers all instances.
    Only the verdict is read, so the search need not find the least
    countermodel and runs with ``least=False``: it branches on the shared
    subformulas alone.
    """
    from .nmatrix import decide, nmatrix_of
    return decide(nmatrix_of(structure), [], schema, least=False).holds


def characterize(logic: LogicId, cand: SwapStructure) -> bool:
    """Axiomatic-side membership: base structure plus the defining schemas.

    Every logic shares the CPLe+ base class and most defining schemas, so
    the base check and each schema's validity, by schema name, are memoized
    on the candidate: checking all eight logics on one candidate checks the
    base class once and decides each distinct schema once.  Like the schema
    memo, this assumes the candidate's tables do not change after its first
    check.
    """
    if cand._in_base is None:
        cand._in_base = is_swap_for(LogicId.CPLE_PLUS, cand)
    if not cand._in_base:
        return False
    if cand._validity is None:
        cand._validity = {}
    from .hilbert import DEFINING_SCHEMAS, SCHEMAS
    memo = cand._validity
    for name in DEFINING_SCHEMAS[logic]:
        if name not in memo:
            memo[name] = validates(cand, SCHEMAS[name])
        if not memo[name]:
            return False
    return True


# ----------------------------------------------------------------------
# The functorial lift of Boolean homomorphisms
# ----------------------------------------------------------------------

def _lift(logic: LogicId, homs: Sequence[BaHom],
          snapshots: Sequence[Snapshot]) -> list[int]:
    """K* of the tuple of homomorphisms: for each snapshot, the position of
    its image, each homomorphism applied coordinatewise, in the product
    (ordered like ``itertools.product``) of the full structures over their
    targets."""
    factors = [(h.mapping.__getitem__,
                _full_structure(logic, h.target).index_of) for h in homs]
    positions = []
    for z in snapshots:
        pos = 0
        for f, index_of in factors:
            pos = pos * len(index_of) + index_of[tuple(map(f, z))]
        positions.append(pos)
    return positions


def kalman_star(logic: LogicId, hom: BaHom) -> MaMap:
    """Lift a Boolean homomorphism to the full structures, componentwise."""
    if not is_ba_hom(hom):
        raise ValueError("map is not a Boolean homomorphism")
    src = full_swap(logic, hom.source)
    tgt = full_swap(logic, hom.target)
    return MaMap(src.malg, tgt.malg, tuple(_lift(logic, [hom], src.snapshots)))


def product_iso(logic: LogicId, family: Sequence[BoolAlg]):
    """The isomorphism from a product of full structures onto the full
    structure over the product algebra: the inverse of the tupled lift of
    the product algebra's projections.

    Returns (iso, product multialgebra, projections, product algebra).
    """
    if not family:
        raise ValueError("family must be nonempty")
    prod_malg, projections = ma_product([full_swap(logic, a).malg
                                         for a in family])
    prod_alg, ba_projections = ba_product(list(family))
    target = full_swap(logic, prod_alg)
    lift = _lift(logic, ba_projections, target.snapshots)
    iso = MaMap(prod_malg, target.malg,
                tuple(sorted(range(len(lift)), key=lift.__getitem__)))
    return iso, prod_malg, projections, prod_alg


# ----------------------------------------------------------------------
# Representation: embedding into a power of the structure over two elements
# ----------------------------------------------------------------------

class Representation:
    __slots__ = ("index_size", "hmap", "product")

    def __init__(self, index_size: int, hmap: MaMap, product: MultiAlg):
        self.index_size = index_size  # one factor per atom of the backing algebra
        self.hmap = hmap              # from the structure into the product
        self.product = product


@lru_cache(maxsize=CACHE_SIZE)
def power_of_a2(logic: LogicId, n: int) -> MultiAlg:
    """The n-fold product of the full structure over the two-element algebra."""
    prod, _ = ma_product([full_swap(logic, A2).malg] * n)
    return prod


def represent(logic: LogicId, structure: SwapStructure) -> Representation:
    """The atom-indexed embedding into a power of the two-element structure:
    the tupled lift of the atom evaluations (factor i evaluates at atom i).

    Injectivity and homomorphism-hood are what the representation theorems
    assert, and are checked by the test suite.
    """
    A = structure.algebra
    if A.atoms < 1:
        raise ValueError("backing algebra must have at least one atom")
    # the full structure is a member by construction, so only others are checked
    if (structure is not _full_structure(logic, A)
            and not is_swap_for(logic, structure)):
        raise ValueError(f"structure is not in the {logic.display} class")
    product = power_of_a2(logic, A.atoms)
    mapping = _lift(logic, atom_embedding(A),
                    _encoded(logic, A, structure.snapshots))
    return Representation(A.atoms, MaMap(structure.malg, product, mapping),
                          product)


# ----------------------------------------------------------------------
# The classical pair construction and its duality with pair universes
# ----------------------------------------------------------------------

def _check_pairs(atoms: int) -> int:
    """The 3**atoms pairs over that many atoms, refused above the cap."""
    pairs = 3 ** atoms
    _check_cap(pairs, f"pair construction over {atoms} atoms would need",
               "pairs")
    return pairs


def _check_kleene_triples(atoms: int) -> None:
    """Refuse, by count, the pairs over that many atoms and then the triples
    of pairs that the Kleene laws visit, each above the cap."""
    _check_cap(_check_pairs(atoms) ** 3,
               f"Kleene laws over {atoms} atoms would visit", "triples")


class KalmanAlgebra:
    """Pairs (a, b) with a & b = 0: a centered Kleene algebra.

    Meet and join act componentwise with the second slots swapped; negation
    flips the pair.  The induced order has (0,1) at the bottom, (1,0) at the
    top and (0,0) as the self-negating center.  The derived arrow
    (a,b) -> (c,d) = (a -> c, a & d) makes it a Nelson-style twist algebra.
    """

    __slots__ = ("algebra", "carrier", "index_of")

    def __init__(self, algebra: BoolAlg):
        """Raises ``CellCapExceeded`` before building anything when the
        3**atoms pairs are more than ``cell_cap()`` allows."""
        _check_pairs(algebra.atoms)
        self.algebra = algebra
        pairs = []
        for a in algebra.elements():
            # every b with a & b = 0 is a submask of ~a
            rest = b = algebra.comp(a)
            while True:
                pairs.append((a, b))
                if not b:
                    break
                b = (b - 1) & rest
        # linear layering compatible with the order (a,b) <= (c,d) iff
        # a <= c and d <= b: bottom (0,1) first, top (1,0) last
        self.carrier = tuple(sorted(pairs, key=lambda z: (z[0], -z[1])))
        self.index_of = {z: i for i, z in enumerate(self.carrier)}

    @property
    def size(self) -> int:
        return len(self.carrier)

    @property
    def center(self) -> tuple[int, int]:
        return (self.algebra.bot, self.algebra.bot)

    @property
    def top(self) -> tuple[int, int]:
        return (self.algebra.top, self.algebra.bot)

    @property
    def bottom(self) -> tuple[int, int]:
        return (self.algebra.bot, self.algebra.top)

    def meet(self, z, w):
        A = self.algebra
        return (A.meet(z[0], w[0]), A.join(z[1], w[1]))

    def join(self, z, w):
        A = self.algebra
        return (A.join(z[0], w[0]), A.meet(z[1], w[1]))

    def neg(self, z):
        return (z[1], z[0])

    def arrow(self, z, w):
        A = self.algebra
        return (A.imp(z[0], w[0]), A.meet(z[0], w[1]))

    def le(self, z, w) -> bool:
        return self.meet(z, w) == z

    def label(self, z) -> str:
        if self.algebra.atoms == 1:
            return {(1, 0): "T", (0, 0): "f", (0, 1): "F"}[z]
        return f"({z[0]},{z[1]})"


#: The lattice laws, in the order they are checked and reported.
_LATTICE_LAWS = ("commutativity", "associativity", "absorption",
                 "distributivity")


def _lattice_law_failures(elements: Sequence,
                          meet: Callable, join: Callable) -> list[str]:
    """Names of the lattice laws that meet and join break on the elements."""
    E = elements
    broken = (
        any(meet(x, y) != meet(y, x) or join(x, y) != join(y, x)
            for x in E for y in E),
        any(meet(meet(x, y), z) != meet(x, meet(y, z))
            or join(join(x, y), z) != join(x, join(y, z))
            for x in E for y in E for z in E),
        any(meet(x, join(x, y)) != x or join(x, meet(x, y)) != x
            for x in E for y in E),
        any(meet(x, join(y, z)) != join(meet(x, y), meet(x, z))
            for x in E for y in E for z in E),
    )
    return [law for law, fails in zip(_LATTICE_LAWS, broken) if fails]


def kleene_law_failures(K: KalmanAlgebra) -> list[str]:
    """Kleene-algebra laws checked exhaustively on a pair algebra.

    The three-variable laws visit every triple of pairs, so this raises
    ``CellCapExceeded`` before checking anything when the carrier size cubed
    is above ``cell_cap()``.
    """
    _check_kleene_triples(K.algebra.atoms)
    C = K.carrier
    if any(K.meet(x, y) not in K.index_of or K.join(x, y) not in K.index_of
           for x in C for y in C):
        return ["closure"]
    failures = _lattice_law_failures(C, K.meet, K.join)
    if any(K.neg(K.neg(x)) != x for x in C):
        failures.append("involution")
    if any(K.neg(K.join(x, y)) != K.meet(K.neg(x), K.neg(y)) for x in C for y in C):
        failures.append("de-morgan")
    if any(K.meet(x, K.bottom) != K.bottom or K.join(x, K.top) != K.top for x in C):
        failures.append("bounds")
    if any(not K.le(K.meet(x, K.neg(x)), K.join(y, K.neg(y))) for x in C for y in C):
        failures.append("kleene")
    centers = [x for x in C if K.neg(x) == x]
    if centers != [K.center]:
        failures.append("center")
    return failures


def duality_star(algebra: BoolAlg) -> dict[tuple[int, int], tuple[int, int]]:
    """The complement-both-slots bijection from the pair construction onto
    the pair universe: (a, b) with a & b = 0 maps to (~a, ~b) with join 1.
    """
    A = algebra
    K = KalmanAlgebra(A)
    return {z: (A.comp(z[0]), A.comp(z[1])) for z in K.carrier}


# ----------------------------------------------------------------------
# The quotient that leaves the class
# ----------------------------------------------------------------------

def mbc_quotient_counterexample():
    """The two-block quotient of the five-element structure.

    The partition pairs each designated value with an undesignated partner,
    which makes it compatible with every multioperation; the quotient's
    cells all collapse to the whole two-element carrier, and no snapshot
    decoding over any algebra can turn that into a swap structure.

    Returns (five-element structure, partition, quotient, projection).
    """
    m5 = full_swap(LogicId.MBC, A2)
    # blocks {T, F} and {t, t0, f0} in the T, t, t0, F, f0 carrier order
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    quot, proj = quotient(m5.malg, theta)
    return m5, theta, quot, proj


def find_swap_decoding(logic: LogicId, malg: MultiAlg,
                       algebra: BoolAlg) -> Optional[list[Snapshot]]:
    """Search every injective snapshot decoding of a multialgebra's carrier.

    Returns the first decoding under which the multialgebra is a swap
    structure for the logic over the given algebra, or None.  Exhaustive,
    so only sensible for small carriers.
    """
    if malg.size > 5 or _universe_size(logic, algebra.atoms) > 30:
        raise ValueError("decoding search is exhaustive; keep the instances small")
    for combo in itertools.permutations(universe(logic, algebra), malg.size):
        cand = SwapStructure(logic, algebra, malg, combo)
        if is_swap_for(logic, cand):
            return list(combo)
    return None


# ----------------------------------------------------------------------
# Random submultialgebras
# ----------------------------------------------------------------------

def random_swap_substructure(rng: random.Random, logic: LogicId,
                             algebra: BoolAlg,
                             max_universe: Optional[int] = None
                             ) -> SwapStructure:
    """A random member of the logic's class over the algebra.

    Sampling follows the shape of the class: first a sub-universe closed
    enough that every maximal cell still meets it (repaired by adding random
    witnesses), then each cell with more than one member is shrunk, with
    probability one half, to a random nonempty subset of the maximal cell.
    Both steps read the logic's full structure over the algebra, so this
    raises ``CellCapExceeded`` when that structure is above ``cell_cap()``.
    """
    if max_universe is not None and max_universe < 1:
        raise ValueError(f"max_universe must be at least 1, got {max_universe}")
    if max_universe is None:  # the repair may pick the whole universe
        _check_full_cells(logic, algebra)
    full = _full_structure(logic, algebra)
    pool, tables = full.snapshots, full.malg.tables
    k = len(pool)
    zero_first = [i for i, z in enumerate(pool) if z[0] == algebra.bot]

    target = max_universe or k
    want = rng.randint(1, max(1, min(k, target) - 1))
    chosen = set(rng.sample(range(k), want))
    chosen.add(rng.choice(zero_first))

    def maximal_cells(picked):
        for i in picked:
            yield tables[NEG][i]
            yield tables[CIRC][i]
            rows = [tables[op][i] for op in (AND, OR, IMP)]
            for j in picked:
                for row in rows:
                    yield row[j]

    # repair: every maximal cell over the chosen set must meet the set
    while True:
        inside = mask_of(chosen)
        missing = next((cell for cell in maximal_cells(sorted(chosen))
                        if not cell & inside), None)
        if missing is None:
            break
        chosen.add(rng.choice(members(missing)))

    positions = sorted(chosen)
    bits_of: dict[int, tuple[int, ...]] = {}  # each cell's member bits

    def restrict(cell: int) -> int:
        if cell & (cell - 1) == 0 or rng.random() > 0.5:
            return cell
        bits = bits_of.get(cell)
        if bits is None:
            bits = bits_of[cell] = tuple(1 << u for u in members(cell))
        return sum(rng.sample(bits, rng.randint(1, len(bits))))

    restricted = _restricted_tables(full.malg, positions)
    # one call of restrict per cell position, in table order
    cut = {op: [list(map(restrict, row)) for row in restricted[op]]
           if arity == 2 else list(map(restrict, restricted[op]))
           for op, arity in LOGIC_SIGNATURE.operators()}
    return _structure(logic, algebra, [pool[u] for u in positions], cut)


#: Largest universe whose closed sub-universes are enumerated exhaustively.
EXHAUSTIVE_LIMIT = 10


def closed_subuniverse_restrictions(logic: LogicId, algebra: BoolAlg):
    """Every restriction of the full structure to a closed sub-universe.

    Exhaustive over all subsets, so refuses universes above
    ``EXHAUSTIVE_LIMIT``.  Yields SwapStructure candidates (cells are the
    maximal cells cut down to the sub-universe).
    """
    k = _universe_size(logic, algebra.atoms)
    if k > EXHAUSTIVE_LIMIT:
        raise ValueError(f"universe has {k} elements; exhaustive enumeration "
                         f"is capped at {EXHAUSTIVE_LIMIT}")
    full = _full_structure(logic, algebra)
    pool = full.snapshots
    zero_first = mask_of(i for i, z in enumerate(pool) if z[0] == algebra.bot)
    for bits in range(1, 1 << k):
        if not bits & zero_first:
            continue
        keep = members(bits)
        tables = _restricted_tables(full.malg, keep)
        if any(0 in table_cells(tables[op], arity)
               for op, arity in LOGIC_SIGNATURE.operators()):
            continue
        yield _structure(logic, algebra, [pool[u] for u in keep], tables)
