"""Swap structures: multialgebras of snapshots over a finite Boolean algebra.

A snapshot packs a truth value together with candidate values for the
negation and the consistency marker of a formula: triples (z1, z2, z3) for
the two weakest logics, pairs (z1, z2) from mbCciw upward, where the third
coordinate is forced to be the complement of z1 & z2 and is dropped.

Every structure here is a submultialgebra of the *full* structure of its
logic, whose cells are as large as the defining clauses allow.  For the two
strongest three-valued logics the clauses pin every cell to a singleton and
the structures collapse to ordinary twist-style algebras.

The module also houses the functorial lift of Boolean homomorphisms to full
structures, the product isomorphism, the atom-indexed representation
embedding into powers of the structure over the two-element algebra, the
classical pair construction with its duality onto pair universes, and the
quotient that leaves the mbC class.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import and_
from typing import Optional, Sequence

from .boolalg import A2, BaHom, BoolAlg, ba_product, is_ba_hom
from .formula import AND, CIRC, IMP, LOGIC_SIGNATURE, NEG, OR, Formula
from .hilbert import DEFINING_SCHEMAS, SCHEMAS
from .logics import LogicId
from .multialg import (CellCapExceeded, EquivRel, MaMap, MultiAlg,
                       cell_cap, mask_of, members, quotient)

Snapshot = tuple[int, ...]

BINARY_BA = {
    AND: lambda A, x, y: A.meet(x, y),
    OR: lambda A, x, y: A.join(x, y),
    IMP: lambda A, x, y: A.imp(x, y),
}

#: Logics whose consistency cells are pinned to one snapshot.
_CIRC_SINGLETON = (LogicId.MBCCI, LogicId.CI, LogicId.CPLE,
                   LogicId.LFI1O, LogicId.CIORE)
#: Logics whose negation cells must keep the second coordinate below z1.
_NEG_BOUNDED = (LogicId.CI, LogicId.CPLE, LogicId.LFI1O, LogicId.CIORE)
#: Fully deterministic (twist-style) logics.
_DETERMINISTIC = (LogicId.CPLE, LogicId.LFI1O, LogicId.CIORE)

_NAMED_A2 = {
    (1, 0, 1): "T", (1, 1, 0): "t", (1, 0, 0): "t0",
    (0, 1, 1): "F", (0, 1, 0): "f0",
    (1, 0): "T", (1, 1): "t", (0, 1): "F",
}

_A2_ORDER_TRIPLES = ((1, 0, 1), (1, 1, 0), (1, 0, 0), (0, 1, 1), (0, 1, 0))
_A2_ORDER_PAIRS = ((1, 0), (1, 1), (0, 1))


def z3_view(algebra: BoolAlg, z: Snapshot) -> int:
    """Third coordinate, reconstructed for pair snapshots."""
    return z[2] if len(z) == 3 else algebra.comp(algebra.meet(z[0], z[1]))


def snapshot_label(algebra: BoolAlg, z: Snapshot) -> str:
    if algebra.atoms == 1:
        name = _NAMED_A2.get(z)
        if name is not None:
            return name
    return "(" + ",".join(str(c) for c in z) + ")"


@lru_cache(maxsize=None)
def universe(logic: LogicId, algebra: BoolAlg) -> tuple[Snapshot, ...]:
    """The snapshot universe of a logic over a finite Boolean algebra.

    CPLe+ admits every triple.  mbC keeps the triples with z1 | z2 = 1 and
    z1 & z2 & z3 = 0.  The pair logics keep the pairs with z1 | z2 = 1, and
    CPLe additionally forces z2 to be the complement of z1.
    """
    A = algebra
    elems = list(A.elements())
    if logic is LogicId.CPLE_PLUS:
        snaps = [(a, b, c) for a in elems for b in elems for c in elems]
    elif logic is LogicId.MBC:
        snaps = [(a, b, c) for a in elems for b in elems for c in elems
                 if A.join(a, b) == A.top and A.meet(A.meet(a, b), c) == A.bot]
    elif logic is LogicId.CPLE:
        snaps = [(a, A.comp(a)) for a in elems]
    else:
        snaps = [(a, b) for a in elems for b in elems if A.join(a, b) == A.top]
    snaps.sort()
    if A.atoms == 1:
        order = _A2_ORDER_PAIRS if logic.pair_mode else _A2_ORDER_TRIPLES
        named = [z for z in order if z in set(snaps)]
        if len(named) == len(snaps):
            snaps = named
    return tuple(snaps)


class SwapStructure:
    """A multialgebra whose carrier is decoded as snapshots over an algebra."""

    __slots__ = ("logic", "algebra", "malg", "snapshots", "index_of",
                 "_nmatrix", "_validity")

    def __init__(self, logic: LogicId, algebra: BoolAlg, malg: MultiAlg,
                 snapshots: Sequence[Snapshot]):
        if len(snapshots) != malg.size:
            raise ValueError("one snapshot per carrier element required")
        self.logic = logic
        self.algebra = algebra
        self.malg = malg
        self.snapshots = tuple(snapshots)
        self.index_of = {z: i for i, z in enumerate(self.snapshots)}
        self._nmatrix = None
        self._validity = None

    @property
    def pair_mode(self) -> bool:
        return len(self.snapshots[0]) == 2

    def labels(self) -> tuple[str, ...]:
        return self.malg.labels

    def __repr__(self) -> str:
        return (f"SwapStructure({self.logic.display}, "
                f"{self.algebra.atoms} atoms, {self.malg.size} snapshots)")


class _UniverseOps:
    """Maximal legal cells of one logic over one algebra, on the full universe."""

    def __init__(self, logic: LogicId, algebra: BoolAlg):
        self.logic = logic
        self.algebra = algebra
        self.snaps = universe(logic, algebra)
        self.index = {z: i for i, z in enumerate(self.snaps)}
        #: first coordinate -> cell of the snapshots with that first coordinate
        self.first_class: dict[int, int] = {}
        for i, z in enumerate(self.snaps):
            self.first_class[z[0]] = self.first_class.get(z[0], 0) | 1 << i
        A = algebra
        if logic in _NEG_BOUNDED and logic not in _DETERMINISTIC:
            self._neg_cells = tuple(
                mask_of(j for j, u in enumerate(self.snaps)
                        if u[0] == z[1] and A.le(u[1], z[0]))
                for z in self.snaps)

    def _pin(self, z: Snapshot) -> int:
        """The one-snapshot cell of a forced output, in this universe's mode."""
        return 1 << self.index[z]

    def binary_cell(self, op: str, i: int, j: int) -> int:
        A = self.algebra
        z, w = self.snaps[i], self.snaps[j]
        first = BINARY_BA[op](A, z[0], w[0])
        if self.logic is LogicId.LFI1O:
            if op == AND:
                return self._pin((first, A.join(z[1], w[1])))
            if op == OR:
                return self._pin((first, A.meet(z[1], w[1])))
            return self._pin((first, A.meet(z[0], w[1])))
        if self.logic is LogicId.CIORE:
            second = A.imp(first, A.meet(A.meet(z[0], z[1]), A.meet(w[0], w[1])))
            return self._pin((first, second))
        return self.first_class[first]

    def neg_cell(self, i: int) -> int:
        z = self.snaps[i]
        if self.logic in _DETERMINISTIC:
            return self._pin((z[1], z[0]))
        if self.logic in _NEG_BOUNDED:
            return self._neg_cells[i]
        return self.first_class[z[1]]

    def circ_cell(self, i: int) -> int:
        A = self.algebra
        z = self.snaps[i]
        if self.logic in _CIRC_SINGLETON:
            inconsistency = A.meet(z[0], z[1])
            pinned = (A.comp(inconsistency), inconsistency)
            if not self.logic.pair_mode:  # pragma: no cover - all such logics pair
                pinned = pinned + (A.top,)
            return self._pin(pinned)
        return self.first_class[z3_view(A, z)]


@lru_cache(maxsize=None)
def _universe_ops(logic: LogicId, algebra: BoolAlg) -> _UniverseOps:
    return _UniverseOps(logic, algebra)


@lru_cache(maxsize=None)
def full_swap(logic: LogicId, algebra: BoolAlg) -> SwapStructure:
    """The largest swap structure for a logic over an algebra.

    Raises ``CellCapExceeded`` before building anything when its tables
    would hold more cells than ``cell_cap()`` allows.
    """
    # a universe is the per-atom universe raised to the number of atoms
    k = len(universe(logic, A2)) ** algebra.atoms
    cells = 3 * k * k + 2 * k
    cap = cell_cap()
    if cells > cap:
        raise CellCapExceeded(
            f"full {logic.display} structure over {algebra.atoms} atoms would "
            f"need {cells} cells, above the cap {cap} "
            "(set SWAPKIT_MAX_CELLS to raise it)")
    ops = _universe_ops(logic, algebra)
    snaps = ops.snaps
    rng = range(k)
    tables = {
        NEG: [ops.neg_cell(i) for i in rng],
        CIRC: [ops.circ_cell(i) for i in rng],
    }
    plain_first_class = logic in (LogicId.CPLE_PLUS, LogicId.MBC, LogicId.MBCCIW)
    firsts = [z[0] for z in snaps]
    for op in (AND, OR, IMP):
        if plain_first_class:
            # binary cells depend only on the first coordinates
            opfn = BINARY_BA[op]
            fc = ops.first_class
            by_value = [[fc[opfn(algebra, a, b)] for b in algebra.elements()]
                        for a in algebra.elements()]
            table: list[int] = []
            for a in firsts:
                table.extend(map(by_value[a].__getitem__, firsts))
            tables[op] = table
        else:
            tables[op] = [ops.binary_cell(op, i, j) for i in rng for j in rng]
    labels = [snapshot_label(algebra, z) for z in snaps]
    malg = MultiAlg(LOGIC_SIGNATURE, labels, tables)
    return SwapStructure(logic, algebra, malg, snaps)


# ----------------------------------------------------------------------
# Membership and characterization
# ----------------------------------------------------------------------

def _in_universe(logic: LogicId, A: BoolAlg, z: Snapshot) -> bool:
    z3 = z3_view(A, z)
    if logic is LogicId.CPLE_PLUS:
        return True
    if A.join(z[0], z[1]) != A.top:
        return False
    if logic is LogicId.MBC:
        return A.meet(A.meet(z[0], z[1]), z3) == A.bot
    # pair-family constraint, stated on the triple view
    if len(z) == 3 and z3 != A.comp(A.meet(z[0], z[1])):
        return False
    if logic is LogicId.CPLE and z[1] != A.comp(z[0]):
        return False
    return True


def is_swap_for(logic: LogicId, cand: SwapStructure) -> bool:
    """Structural membership of a candidate in a logic's class of structures.

    Pair and triple encodings are reconciled through the derived third
    coordinate, so any candidate can be tested against any logic.
    """
    A = cand.algebra
    snaps = cand.snapshots
    if all(z[0] != A.bot for z in snaps):
        return False
    if any(not _in_universe(logic, A, z) for z in snaps):
        return False

    k = len(snaps)
    tables = cand.malg.tables
    first = [z[0] for z in snaps]
    everything = (1 << k) - 1
    with_first: dict[int, int] = {}
    for u, a in enumerate(first):
        with_first[a] = with_first.get(a, 0) | 1 << u

    def off_first(value: int) -> int:
        """The snapshots whose first coordinate is not ``value``."""
        return everything & ~with_first.get(value, 0)

    # a cell passes when it avoids the snapshots with the wrong first
    # coordinate, or with the wrong exact value where a cell is pinned
    for op in (AND, OR, IMP):
        ba_op = BINARY_BA[op]
        table = tables[op]
        off_rows = {a: [off_first(ba_op(A, a, b)) for b in first]
                    for a in set(first)}
        for i in range(k):
            if any(map(and_, table[i * k:(i + 1) * k], off_rows[first[i]])):
                return False
    bounded: dict[int, int] = {}
    for i, cell in enumerate(tables[NEG]):
        if cell & off_first(snaps[i][1]):
            return False
        if logic in _NEG_BOUNDED:
            z1 = snaps[i][0]
            if z1 not in bounded:
                bounded[z1] = mask_of(u for u, w in enumerate(snaps)
                                      if A.le(w[1], z1))
            if cell & ~bounded[z1]:
                return False

    def pinned_cell(want: Snapshot) -> int:
        pinned = cand.index_of.get(want)
        return 0 if pinned is None else 1 << pinned

    for i, cell in enumerate(tables[CIRC]):
        if cell & off_first(z3_view(A, snaps[i])):
            return False
        if logic in _CIRC_SINGLETON:
            inconsistency = A.meet(snaps[i][0], snaps[i][1])
            want: Snapshot = (A.comp(inconsistency), inconsistency)
            if not cand.pair_mode:
                want = want + (A.top,)
            if cell != pinned_cell(want):
                return False
    if logic in (LogicId.LFI1O, LogicId.CIORE):
        ops = _pinned_ops(logic, A)
        for op in (AND, OR, IMP):
            table = tables[op]
            for i in range(k):
                for j in range(k):
                    want = ops(op, snaps[i], snaps[j], cand.pair_mode)
                    if table[i * k + j] != pinned_cell(want):
                        return False
        for i, cell in enumerate(tables[NEG]):
            want = (snaps[i][1], snaps[i][0])
            if not cand.pair_mode:
                want = want + (A.comp(A.meet(want[0], want[1])),)
            if cell != pinned_cell(want):
                return False
    return True


def _pinned_ops(logic: LogicId, A: BoolAlg):
    def compute(op: str, z: Snapshot, w: Snapshot, pair: bool) -> Snapshot:
        first = BINARY_BA[op](A, z[0], w[0])
        if logic is LogicId.LFI1O:
            if op == AND:
                second = A.join(z[1], w[1])
            elif op == OR:
                second = A.meet(z[1], w[1])
            else:
                second = A.meet(z[0], w[1])
        else:
            second = A.imp(first, A.meet(A.meet(z[0], z[1]), A.meet(w[0], w[1])))
        out: Snapshot = (first, second)
        if not pair:
            out = out + (A.comp(A.meet(first, second)),)
        return out
    return compute


def validates(structure: SwapStructure, schema: Formula) -> bool:
    """Does the structure's matrix validate every instance of the schema?

    Metavariables act as propositional variables; by structurality of matrix
    consequence, validity of the schema-as-formula covers all instances.
    """
    from .nmatrix import decide, nmatrix_of
    return decide(nmatrix_of(structure), [], schema).holds


def characterize(logic: LogicId, cand: SwapStructure) -> bool:
    """Axiomatic-side membership: base structure plus the defining schemas.

    The logics share most defining schemas, so each schema's validity is
    memoized on the candidate by schema name; checking all eight logics on
    one candidate decides each distinct schema once.
    """
    if not is_swap_for(LogicId.CPLE_PLUS, cand):
        return False
    if cand._validity is None:
        cand._validity = {}
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

def kalman_star(logic: LogicId, hom: BaHom) -> MaMap:
    """Lift a Boolean homomorphism to the full structures, componentwise."""
    if not is_ba_hom(hom):
        raise ValueError("map is not a Boolean homomorphism")
    src = full_swap(logic, hom.source)
    tgt = full_swap(logic, hom.target)
    mapping = tuple(tgt.index_of[tuple(hom.mapping[c] for c in z)]
                    for z in src.snapshots)
    return MaMap(src.malg, tgt.malg, mapping)


def product_iso(logic: LogicId, family: Sequence[BoolAlg]):
    """The coordinate-shuffling isomorphism between a product of full
    structures and the full structure over the product algebra.

    Returns (iso, product multialgebra, projections, product algebra).
    """
    if not family:
        raise ValueError("family must be nonempty")
    from .multialg import ma_product
    factors = [full_swap(logic, a) for a in family]
    prod_malg, projections = ma_product([f.malg for f in factors])
    prod_alg, _ = ba_product(list(family))
    target = full_swap(logic, prod_alg)

    offsets = []
    off = 0
    for a in family:
        offsets.append(off)
        off += a.atoms

    width = len(factors[0].snapshots[0])
    carrier = list(itertools.product(*[range(f.malg.size) for f in factors]))
    mapping = []
    for combo in carrier:
        coords = []
        for j in range(width):
            acc = 0
            for factor, c, shift in zip(factors, combo, offsets):
                acc |= factor.snapshots[c][j] << shift
            coords.append(acc)
        mapping.append(target.index_of[tuple(coords)])
    iso = MaMap(prod_malg, target.malg, tuple(mapping))
    return iso, prod_malg, projections, prod_alg


# ----------------------------------------------------------------------
# Representation: embedding into a power of the structure over two elements
# ----------------------------------------------------------------------

@dataclass
class Representation:
    index_size: int          # one factor per atom of the backing algebra
    hmap: MaMap              # from the structure into the product
    product: MultiAlg


_power_cache: dict[tuple[LogicId, int], MultiAlg] = {}


def power_of_a2(logic: LogicId, n: int) -> MultiAlg:
    """The n-fold product of the full structure over the two-element algebra."""
    from .multialg import ma_product
    got = _power_cache.get((logic, n))
    if got is None:
        factor = full_swap(logic, A2).malg
        got, _ = ma_product([factor] * n)
        _power_cache[(logic, n)] = got
    return got


def represent(logic: LogicId, structure: SwapStructure) -> Representation:
    """The atom-indexed embedding into a power of the two-element structure.

    Each snapshot is evaluated coordinatewise at every atom (1 when the atom
    lies below the coordinate), giving one two-element snapshot per atom; the
    tuple of those is the image.  Injectivity and homomorphism-hood are what
    the representation theorems assert, and are checked by the test suite.
    """
    n = structure.algebra.atoms
    if n < 1:
        raise ValueError("backing algebra must have at least one atom")
    if not is_swap_for(logic, structure):
        raise ValueError(f"structure is not in the {logic.display} class")
    factor = full_swap(logic, A2)
    product = power_of_a2(logic, n)
    m = factor.malg.size
    width = len(factor.snapshots[0])

    mapping = []
    for z in structure.snapshots:
        coords = list(z)
        if len(coords) != width:
            coords = [z[0], z[1], z3_view(structure.algebra, z)][:width]
        idx = 0
        for i in range(n):  # factor i evaluates at atom i; factor 0 most significant
            bit_snap = tuple((c >> i) & 1 for c in coords)
            idx = idx * m + factor.index_of[bit_snap]
        mapping.append(idx)
    return Representation(n, MaMap(structure.malg, product, mapping), product)


# ----------------------------------------------------------------------
# The classical pair construction and its duality with pair universes
# ----------------------------------------------------------------------

class KalmanAlgebra:
    """Pairs (a, b) with a & b = 0: a centered Kleene algebra.

    Meet and join act componentwise with the second slots swapped; negation
    flips the pair.  The induced order has (0,1) at the bottom, (1,0) at the
    top and (0,0) as the self-negating center.  The derived arrow
    (a,b) -> (c,d) = (a -> c, a & d) makes it a Nelson-style twist algebra.
    """

    __slots__ = ("algebra", "carrier", "index_of")

    def __init__(self, algebra: BoolAlg):
        self.algebra = algebra
        # linear layering compatible with the order (a,b) <= (c,d) iff
        # a <= c and d <= b: bottom (0,1) first, top (1,0) last
        self.carrier = tuple(sorted(
            ((a, b) for a in algebra.elements() for b in algebra.elements()
             if algebra.meet(a, b) == algebra.bot),
            key=lambda z: (z[0], -z[1])))
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


def kalman_classic(algebra: BoolAlg) -> KalmanAlgebra:
    return KalmanAlgebra(algebra)


def kleene_law_failures(K: KalmanAlgebra) -> list[str]:
    """Kleene-algebra laws checked exhaustively on a pair algebra."""
    failures = []
    C = K.carrier
    if any(K.meet(x, y) not in K.index_of or K.join(x, y) not in K.index_of
           for x in C for y in C):
        failures.append("closure")
        return failures
    if any(K.meet(x, y) != K.meet(y, x) or K.join(x, y) != K.join(y, x)
           for x in C for y in C):
        failures.append("commutativity")
    if any(K.meet(K.meet(x, y), z) != K.meet(x, K.meet(y, z))
           or K.join(K.join(x, y), z) != K.join(x, K.join(y, z))
           for x in C for y in C for z in C):
        failures.append("associativity")
    if any(K.meet(x, K.join(x, y)) != x or K.join(x, K.meet(x, y)) != x
           for x in C for y in C):
        failures.append("absorption")
    if any(K.meet(x, K.join(y, z)) != K.join(K.meet(x, y), K.meet(x, z))
           for x in C for y in C for z in C):
        failures.append("distributivity")
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
    K = kalman_classic(A)
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
    pool = universe(logic, algebra)
    if malg.size > 5 or len(pool) > 30:
        raise ValueError("decoding search is exhaustive; keep the instances small")
    for combo in itertools.permutations(pool, malg.size):
        cand = SwapStructure(logic, algebra, malg, combo)
        if is_swap_for(logic, cand):
            return list(combo)
    return None


# ----------------------------------------------------------------------
# Random submultialgebras
# ----------------------------------------------------------------------

def random_swap_substructure(rng: random.Random, logic: LogicId,
                             algebra: BoolAlg,
                             max_universe: Optional[int] = None,
                             shrink: float = 0.5) -> SwapStructure:
    """A random member of the logic's class over the algebra.

    Sampling follows the shape of the class: first a sub-universe closed
    enough that every maximal cell still meets it (repaired by adding random
    witnesses), then each non-pinned cell is shrunk to a random nonempty
    subset of the maximal cell.
    """
    ops = _universe_ops(logic, algebra)
    k = len(ops.snaps)
    zero_first = [i for i, z in enumerate(ops.snaps) if z[0] == algebra.bot]

    target = max_universe or k
    want = rng.randint(1, max(1, min(k, target) - 1))
    chosen = set(rng.sample(range(k), want))
    chosen.add(rng.choice(zero_first))

    # repair: every maximal cell over the chosen set must meet the set
    while True:
        inside = mask_of(chosen)
        missing = 0
        picked = sorted(chosen)
        for i in picked:
            for cell in (ops.neg_cell(i), ops.circ_cell(i)):
                if not cell & inside:
                    missing = cell
                    break
            if missing:
                break
            for j in picked:
                for op in (AND, OR, IMP):
                    cell = ops.binary_cell(op, i, j)
                    if not cell & inside:
                        missing = cell
                        break
                if missing:
                    break
            if missing:
                break
        if not missing:
            break
        chosen.add(rng.choice(members(missing)))

    picked = sorted(chosen)
    snaps = [ops.snaps[u] for u in picked]

    def restrict(cell: int, pinned: bool) -> int:
        if pinned or cell & (cell - 1) == 0 or rng.random() > shrink:
            return cell
        inside = members(cell)
        keep = rng.randint(1, len(inside))
        return mask_of(rng.sample(inside, keep))

    pinned = {NEG: logic in _DETERMINISTIC, CIRC: logic in _CIRC_SINGLETON,
              AND: logic in _DETERMINISTIC, OR: logic in _DETERMINISTIC,
              IMP: logic in _DETERMINISTIC}
    tables = {op: [restrict(cell, pinned[op]) for cell in table]
              for op, table in _cut_tables(ops, picked).items()}
    labels = [snapshot_label(algebra, z) for z in snaps]
    malg = MultiAlg(LOGIC_SIGNATURE, labels, tables)
    return SwapStructure(logic, algebra, malg, snaps)


def _cut_tables(ops: _UniverseOps,
                chosen: Sequence[int]) -> dict[str, list[int]]:
    """The maximal cells at the chosen snapshots (ascending indices into the
    universe), cut down to them and renumbered; a cell that misses every
    chosen snapshot becomes 0."""
    inside = mask_of(chosen)
    pos = {u: i for i, u in enumerate(chosen)}
    renumbered: dict[int, int] = {}

    def cut(cell: int) -> int:
        got = renumbered.get(cell)
        if got is None:
            got = renumbered[cell] = mask_of(
                pos[u] for u in members(cell & inside))
        return got

    tables = {NEG: [cut(ops.neg_cell(i)) for i in chosen],
              CIRC: [cut(ops.circ_cell(i)) for i in chosen]}
    for op in (AND, OR, IMP):
        tables[op] = [cut(ops.binary_cell(op, i, j))
                      for i in chosen for j in chosen]
    return tables


def closed_subuniverse_restrictions(logic: LogicId, algebra: BoolAlg,
                                    limit: int = 10):
    """Every restriction of the full structure to a closed sub-universe.

    Exhaustive over all subsets, so refuses universes above the limit.
    Yields SwapStructure candidates (cells are the maximal cells cut down
    to the sub-universe).
    """
    ops = _universe_ops(logic, algebra)
    k = len(ops.snaps)
    if k > limit:
        raise ValueError(f"universe has {k} elements; exhaustive enumeration "
                         f"is capped at {limit}")
    zero_first = mask_of(i for i, z in enumerate(ops.snaps)
                         if z[0] == algebra.bot)
    for bits in range(1, 1 << k):
        if not bits & zero_first:
            continue
        chosen = members(bits)
        tables = _cut_tables(ops, chosen)
        if any(0 in table for table in tables.values()):
            continue
        snaps = [ops.snaps[u] for u in chosen]
        labels = [snapshot_label(algebra, z) for z in snaps]
        malg = MultiAlg(LOGIC_SIGNATURE, labels, tables)
        yield SwapStructure(logic, algebra, malg, snaps)
