"""Finite Boolean algebras and their homomorphisms.

Every Boolean algebra here is the powerset algebra of a finite atom set:
elements are n-bit masks, meet/join/complement are bitwise, and equality is
mask equality.  That form is canonical for finite Boolean algebras, so
products and embeddings stay inside it, and the atoms are the one-bit masks.
Swap structures, their lifts and their representations are all built over
these algebras.
"""

from __future__ import annotations

from typing import Sequence

from ._frozen import Value

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


A2 = BoolAlg(1)


def powerset_algebra(n: int) -> BoolAlg:
    """The Boolean algebra of subsets of an n-element atom set."""
    if not 0 <= n <= MAX_ATOMS:
        raise ValueError(f"atom count {n} outside 0..{MAX_ATOMS}")
    return BoolAlg(n)


# ----------------------------------------------------------------------
# Homomorphisms
# ----------------------------------------------------------------------

class BaHom(Value):
    __slots__ = ("source", "target", "mapping")


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
    rng = range(src.size)
    return all(f[src.meet(x, y)] == tgt.meet(f[x], f[y])
               and f[src.join(x, y)] == tgt.join(f[x], f[y])
               and f[src.imp(x, y)] == tgt.imp(f[x], f[y])
               for x in rng for y in rng)


def algebra_atoms(alg: BoolAlg) -> list[int]:
    """The atoms of a powerset algebra, ascending: its one-bit masks."""
    return [1 << i for i in range(alg.atoms)]


def hom_from_atom_map(src: BoolAlg, tgt: BoolAlg,
                      assignment: Sequence[int]) -> BaHom:
    """The homomorphism src -> tgt sending x to the join of the target atoms
    whose assigned source atom lies below x; ``assignment`` gives one source
    atom per target atom, in ``algebra_atoms`` order."""
    tgt_atoms = algebra_atoms(tgt)
    mapping = []
    for x in range(src.size):
        acc = tgt.bot
        for b, a in zip(tgt_atoms, assignment):
            if src.meet(a, x) == a:
                acc = tgt.join(acc, b)
        mapping.append(acc)
    return BaHom(src, tgt, tuple(mapping))


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
