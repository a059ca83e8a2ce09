"""Finite Boolean algebras, classical implicative lattices, and duplication.

Every Boolean algebra here is the powerset algebra of a finite atom set:
elements are n-bit masks, meet/join/complement are bitwise, and equality is
mask equality.  That form is canonical for finite Boolean algebras, so
products and embeddings stay inside it.

A classical implicative lattice is a lattice whose induced implication
``a -> b = max{c : a & c <= b}`` exists everywhere and satisfies
``a | (a -> b) = 1``.  Finite ones are necessarily Boolean (they are bounded),
but they enter through their own constructor because the pair-duplication
construction and its universal property are stated for them.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Callable, Optional, Sequence

from ._frozen import Frozen, Value

MAX_ATOMS = 16


class BoolAlg(Value):
    """The 2**atoms-element Boolean algebra on bitmask elements; ``top`` is
    the mask of all atoms."""

    __slots__ = ("atoms", "top")

    def __init__(self, atoms: int):
        super().__init__(atoms, (1 << atoms) - 1)

    @property
    def size(self) -> int:
        return 1 << self.atoms

    @property
    def bot(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.size)

    def meet(self, x: int, y: int) -> int:
        return x & y

    def join(self, x: int, y: int) -> int:
        return x | y

    def comp(self, x: int) -> int:
        return self.top & ~x

    def imp(self, x: int, y: int) -> int:
        return self.comp(x) | y

    def le(self, x: int, y: int) -> bool:
        return x | y == y

    def to_json(self) -> dict:
        return {"atoms": self.atoms}


A2 = BoolAlg(1)


def powerset_algebra(n: int) -> BoolAlg:
    """The Boolean algebra of subsets of an n-element atom set."""
    if not 0 <= n <= MAX_ATOMS:
        raise ValueError(f"atom count {n} outside 0..{MAX_ATOMS}")
    return BoolAlg(n)


# ----------------------------------------------------------------------
# Homomorphisms
# ----------------------------------------------------------------------
#
# BaHom.source / .target may be any finite algebra exposing size, bot, top,
# meet, join and imp on contiguous indices (BoolAlg or DupAlg).

class BaHom(Value):
    __slots__ = ("source", "target", "mapping")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def to_json(self) -> dict:
        return {"map": list(self.mapping)}


def identity_hom(alg) -> BaHom:
    return BaHom(alg, alg, tuple(range(alg.size)))


def compose_ba(f: BaHom, g: BaHom) -> BaHom:
    """f after g."""
    if g.target is not f.source and g.target != f.source:
        raise ValueError("homomorphisms not composable")
    return BaHom(g.source, f.target, tuple(f.mapping[x] for x in g.mapping))


def is_ba_hom(h: BaHom) -> bool:
    """Exhaustive preservation check for meet, join, imp, 0 and 1."""
    src, tgt, f = h.source, h.target, h.mapping
    if len(f) != src.size:
        return False
    if f[src.bot] != tgt.bot or f[src.top] != tgt.top:
        return False
    return is_cil_hom(src, tgt, f)


def algebra_atoms(alg) -> list[int]:
    """Minimal nonzero elements of a finite Boolean-algebra-like structure."""
    nonzero = [x for x in range(alg.size) if x != alg.bot]
    atoms = []
    for x in nonzero:
        if all(alg.meet(x, y) in (alg.bot, x) for y in nonzero):
            atoms.append(x)
    return atoms


def hom_from_atom_map(src, tgt, assignment: Sequence[int],
                      src_atoms: Sequence[int], tgt_atoms: Sequence[int]) -> BaHom:
    """The homomorphism src -> tgt sending x to the join of the target atoms
    whose assigned source atom lies below x."""
    mapping = []
    for x in range(src.size):
        acc = tgt.bot
        for b, a in zip(tgt_atoms, assignment):
            if src.meet(a, x) == a:
                acc = tgt.join(acc, b)
        mapping.append(acc)
    return BaHom(src, tgt, tuple(mapping))


def all_ba_homs(src, tgt) -> list[BaHom]:
    """Every homomorphism between two finite Boolean algebras.

    Homomorphisms correspond exactly to functions from target atoms to source
    atoms; with no target atoms there is a single hom iff src is degenerate.
    """
    src_atoms = algebra_atoms(src)
    tgt_atoms = algebra_atoms(tgt)
    if not src_atoms:
        # degenerate source: everything collapses, needs degenerate target
        return [BaHom(src, tgt, tuple(tgt.bot for _ in range(src.size)))] \
            if not tgt_atoms else []
    homs = []
    for assignment in iproduct(src_atoms, repeat=len(tgt_atoms)):
        homs.append(hom_from_atom_map(src, tgt, assignment, src_atoms, tgt_atoms))
    return homs


def ba_product(factors: Sequence[BoolAlg]) -> tuple[BoolAlg, list[BaHom]]:
    """Product algebra with projections; the empty product is degenerate.

    The product of powerset algebras is again a powerset algebra: factor i
    occupies its own block of atom bits.
    """
    total = sum(f.atoms for f in factors)
    prod = powerset_algebra(total)
    projections = []
    offset = 0
    for f in factors:
        mask = (1 << f.atoms) - 1
        shift = offset
        mapping = tuple((x >> shift) & mask for x in prod.elements())
        projections.append(BaHom(prod, f, mapping))
        offset += f.atoms
    return prod, projections


def atom_embedding(algebra: BoolAlg) -> list[BaHom]:
    """One two-valued homomorphism per atom: h_a(x) = 1 iff a <= x.

    These are the projections of the algebra read as a power of the
    two-element algebra, one factor per atom, so tupling them embeds it.
    """
    if algebra.atoms == 0:
        raise ValueError("degenerate algebra has no atoms to evaluate at")
    return ba_product([A2] * algebra.atoms)[1]


# ----------------------------------------------------------------------
# Law suites
# ----------------------------------------------------------------------

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


def boolean_law_failures(size: int,
                         meet: Callable[[int, int], int],
                         join: Callable[[int, int], int],
                         bot: int, top: int,
                         comp: Optional[Callable[[int], int]] = None) -> list[str]:
    """Names of Boolean-algebra laws that fail on the given tables."""
    rng = range(size)
    failures = _lattice_law_failures(rng, meet, join)
    if any(meet(x, top) != x or join(x, bot) != x for x in rng):
        failures.append("identity")
    if comp is not None:
        if any(meet(x, comp(x)) != bot or join(x, comp(x)) != top for x in rng):
            failures.append("complementation")
    else:
        for x in rng:
            if not any(meet(x, y) == bot and join(x, y) == top for y in rng):
                failures.append("complementation")
                break
    return failures


# ----------------------------------------------------------------------
# Classical implicative lattices
# ----------------------------------------------------------------------

class CilError(ValueError):
    pass


class NotALattice(CilError):
    pass


class ImplicationUndefined(CilError):
    pass


class NotClassical(CilError):
    """Raised with the witnessing pair (a, b) where a | (a -> b) != 1."""

    def __init__(self, message: str, witness: tuple[int, int]):
        super().__init__(message)
        self.witness = witness


class Cil(Frozen):
    """A finite classical implicative lattice with explicit tables."""

    __slots__ = ("labels", "meet_table", "join_table", "imp_table", "top")

    @property
    def size(self) -> int:
        return len(self.labels)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def imp(self, x: int, y: int) -> int:
        return self.imp_table[x][y]

    def le(self, x: int, y: int) -> bool:
        return self.meet_table[x][y] == x

    def bottom(self) -> Optional[int]:
        for x in range(self.size):
            if all(self.le(x, y) for y in range(self.size)):
                return x
        return None

    def to_json(self) -> dict:
        return {
            "carrier": list(self.labels),
            "meet": [list(r) for r in self.meet_table],
            "join": [list(r) for r in self.join_table],
            "imp": [list(r) for r in self.imp_table],
        }


def make_cil(labels: Sequence[str],
             meet: Sequence[Sequence[int]],
             join: Sequence[Sequence[int]]) -> Cil:
    """Build and validate a classical implicative lattice from lattice tables.

    The implication table is computed, not supplied: ``a -> b`` is the join
    of ``{c : a & c <= b}``, which must itself lie in that set.
    """
    n = len(labels)
    meet_t = tuple(tuple(row) for row in meet)
    join_t = tuple(tuple(row) for row in join)
    rng = range(n)
    for name, t in (("meet", meet_t), ("join", join_t)):
        if len(t) != n or any(len(r) != n for r in t):
            raise NotALattice(f"{name} table is not {n}x{n}")
        if any(not 0 <= v < n for r in t for v in r):
            raise NotALattice(f"{name} table has out-of-range entries")
    failures = _lattice_law_failures(rng, lambda x, y: meet_t[x][y],
                                     lambda x, y: join_t[x][y])
    # a lattice need not be distributive; without it some implication is
    # undefined, which the construction below reports
    if failures and failures[0] != _LATTICE_LAWS[-1]:
        raise NotALattice(f"{failures[0]} fails")

    def le(x: int, y: int) -> bool:
        return meet_t[x][y] == x

    # finite lattice: the top is the join of everything
    top = 0
    for x in rng:
        top = join_t[top][x]

    imp_rows = []
    for a in rng:
        row = []
        for b in rng:
            candidates = [c for c in rng if le(meet_t[a][c], b)]
            s = candidates[0]
            for c in candidates[1:]:
                s = join_t[s][c]
            if s not in candidates:
                raise ImplicationUndefined(
                    f"{labels[a]} -> {labels[b]}: supremum of the candidate set "
                    "escapes the set")
            row.append(s)
        imp_rows.append(tuple(row))
    imp_t = tuple(imp_rows)

    for a in rng:
        for b in rng:
            if join_t[a][imp_t[a][b]] != top:
                raise NotClassical(
                    f"classicality fails at ({labels[a]}, {labels[b]}): "
                    f"{labels[a]} | ({labels[a]} -> {labels[b]}) = "
                    f"{labels[join_t[a][imp_t[a][b]]]} != {labels[top]}",
                    (a, b))

    return Cil(tuple(labels), meet_t, join_t, imp_t, top)


def cil_from_boolalg(algebra: BoolAlg) -> Cil:
    """View a powerset algebra through the lattice constructor."""
    rng = list(algebra.elements())
    labels = [str(x) for x in rng]
    meet = [[algebra.meet(x, y) for y in rng] for x in rng]
    join = [[algebra.join(x, y) for y in rng] for x in rng]
    return make_cil(labels, meet, join)


# ----------------------------------------------------------------------
# Duplication: embedding a lattice into a Boolean algebra of tagged pairs
# ----------------------------------------------------------------------

class DupAlg(Frozen):
    """The Boolean algebra on pairs (a, tag): tag 1 stands for a itself and
    tag 0 for its formal complement.  Index layout: (a, tag) -> 2*a + tag.
    """

    __slots__ = ("lattice", "labels", "meet_table", "join_table",
                 "embed")  # embed: a -> index of (a, 1)

    @property
    def size(self) -> int:
        return 2 * self.lattice.size

    @property
    def bot(self) -> int:
        return 2 * self.lattice.top  # (1, 0)

    @property
    def top(self) -> int:
        return 2 * self.lattice.top + 1  # (1, 1)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def comp(self, x: int) -> int:
        return x ^ 1  # flip the tag

    def imp(self, x: int, y: int) -> int:
        return self.join(self.comp(x), y)


def duplicate(lattice: Cil) -> DupAlg:
    """Double a classical implicative lattice into a Boolean algebra.

    The defining clauses, for lattice elements a and b:

        (a,1) # (b,1) = (a # b, 1)        for # in {&, |, ->}
        (a,1) & (b,0) = (b,0) & (a,1) = (a -> b, 0)
        (a,0) & (b,0) = (a | b, 0)
        (a,1) | (b,0) = (b,0) | (a,1) = (b -> a, 1)
        (a,0) | (b,0) = (a & b, 0)
        (a,1) -> (b,0) = (a & b, 0)
        (a,0) -> (b,1) = (a | b, 1)
        (a,0) -> (b,0) = (b -> a, 1)

    Boolean laws are asserted exhaustively before returning.
    """
    L = lattice
    n = L.size
    size = 2 * n

    def idx(a: int, tag: int) -> int:
        return 2 * a + tag

    def pair_meet(x: int, y: int) -> int:
        a, s = x >> 1, x & 1
        b, t = y >> 1, y & 1
        if s and t:
            return idx(L.meet(a, b), 1)
        if s and not t:
            return idx(L.imp(a, b), 0)
        if not s and t:
            return idx(L.imp(b, a), 0)
        return idx(L.join(a, b), 0)

    def pair_join(x: int, y: int) -> int:
        a, s = x >> 1, x & 1
        b, t = y >> 1, y & 1
        if s and t:
            return idx(L.join(a, b), 1)
        if s and not t:
            return idx(L.imp(b, a), 1)
        if not s and t:
            return idx(L.imp(a, b), 1)
        return idx(L.meet(a, b), 0)

    meet_t = tuple(tuple(pair_meet(x, y) for y in range(size)) for x in range(size))
    join_t = tuple(tuple(pair_join(x, y) for y in range(size)) for x in range(size))
    labels = tuple(f"({L.labels[i >> 1]},{i & 1})" for i in range(size))
    embed = tuple(idx(a, 1) for a in range(n))

    failures = boolean_law_failures(
        size,
        lambda x, y: meet_t[x][y],
        lambda x, y: join_t[x][y],
        idx(L.top, 0), idx(L.top, 1),
        lambda x: x ^ 1,
    )
    if failures:
        raise CilError(f"duplication did not yield a Boolean algebra: {failures}")
    return DupAlg(L, labels, meet_t, join_t, embed)


def is_cil_hom(lattice: Cil, target, mapping: Sequence[int]) -> bool:
    """Does the map preserve meet, join and implication into a Boolean algebra?

    Any finite algebra with size, meet, join and imp on indices may stand in
    for the lattice; ``is_ba_hom`` passes Boolean algebras.
    """
    f = mapping
    rng = range(lattice.size)
    return all(f[lattice.meet(x, y)] == target.meet(f[x], f[y])
               and f[lattice.join(x, y)] == target.join(f[x], f[y])
               and f[lattice.imp(x, y)] == target.imp(f[x], f[y])
               for x in rng for y in rng)


def universal_extension(lattice: Cil, target, mapping: Sequence[int]) -> BaHom:
    """Extend a lattice homomorphism h through the duplication.

    Returns the Boolean homomorphism h* on the doubled algebra with
    h*(a,1) = h(a) and h*(a,0) = complement of h(a); then h factors as
    h* after the tagged embedding.
    """
    if not is_cil_hom(lattice, target, mapping):
        raise CilError("map does not preserve the lattice operations")
    star = duplicate(lattice)
    out = [0] * star.size
    for a in range(lattice.size):
        out[2 * a + 1] = mapping[a]
        out[2 * a] = target.comp(mapping[a])
    return BaHom(star, target, tuple(out))
