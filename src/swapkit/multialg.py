"""Finite multialgebras and their category.

A multialgebra assigns to each n-ary operator a total table from n-tuples of
carrier indices to nonempty sets of indices.  The morphism notions used
throughout: a map f is a homomorphism when the image of every cell is
contained in the corresponding target cell, and a full homomorphism when the
two are equal.  At finite scale, isomorphisms are the bijective full
homomorphisms and epimorphisms are the surjective homomorphisms.

Tables are flat and cells are bitmasks.  Over a carrier of k elements,
``tables[op]`` is one row-major list of k**arity cells: a binary operator's
cell at (i, j) sits at position i*k + j, a unary one's at (i,) at i and a
constant's at 0 (``arg_tuples`` lists the argument tuples in that order).  A
cell is an int whose bit u is set when carrier element u belongs to it.
Equal cells are one interned int per structure, so a cell costs one list
slot, equality of multialgebras is plain list equality, and memos key on the
cell value.  Membership is a shift and a mask, the image of a cell and the
union of cells are ``|``, and containment is ``a & ~b == 0``.
``MultiAlg.cell`` decodes a cell to its sorted member tuple; ``members`` and
``mask_of`` convert either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Iterator, Optional, Sequence

from .formula import Signature

DEFAULT_CELL_CAP = 10 ** 6


def cell_cap() -> int:
    value = os.environ.get("SWAPKIT_MAX_CELLS")
    if not value:
        return DEFAULT_CELL_CAP
    try:
        cap = int(value)
        if cap > 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"SWAPKIT_MAX_CELLS must be a positive integer, "
                     f"got {value!r}")


class SignatureMismatch(ValueError):
    pass


class CellCapExceeded(ValueError):
    pass


def members(cell: int) -> tuple[int, ...]:
    """The carrier indices in a cell bitmask, ascending."""
    out = []
    while cell:
        low = cell & -cell
        out.append(low.bit_length() - 1)
        cell ^= low
    return tuple(out)


def mask_of(indices: Iterable[int]) -> int:
    """The cell bitmask of a set of carrier indices."""
    mask = 0
    for u in indices:
        mask |= 1 << u
    return mask


def arg_tuples(size: int, arity: int) -> Iterator[tuple[int, ...]]:
    """Argument tuples over a carrier of ``size`` elements, in table order."""
    return iproduct(range(size), repeat=arity)


def _mapped_positions(mapping: Sequence[int], arity: int,
                      size: int) -> list[int]:
    """For each argument tuple of the map's source, in table order, the table
    position of its image in a table over ``size`` elements."""
    positions = [0]
    for _ in range(arity):
        positions = [p * size + m for p in positions for m in mapping]
    return positions


def _image(cell: int, mapping: Sequence[int]) -> int:
    img = 0
    for x in members(cell):
        img |= 1 << mapping[x]
    return img


class MultiAlg:
    """Carrier with labels plus one total nonempty-cell table per operator."""

    __slots__ = ("signature", "labels", "tables")

    def __init__(self, signature: Signature, labels: Sequence[str],
                 tables: dict[str, Sequence[int]]):
        self.signature = signature
        self.labels = tuple(labels)
        size = len(self.labels)
        interned: dict[int, int] = {}
        flat: dict[str, list[int]] = {}
        for op, arity in signature.operators():
            table = tables.get(op)
            if table is None:
                raise ValueError(f"missing table for operator {op!r}")
            expected = size ** arity
            if len(table) != expected:
                raise ValueError(
                    f"table for {op!r} has {len(table)} cells, expected {expected}")
            for cell in set(table).difference(interned):
                if not isinstance(cell, int) or cell <= 0 or cell >> size:
                    at = next(args for args, c in
                              zip(arg_tuples(size, arity), table) if c == cell)
                    what = "empty" if cell == 0 else "invalid"
                    raise ValueError(f"{what} cell {cell!r} at {op!r}{at}")
                interned[cell] = cell
            flat[op] = list(map(interned.__getitem__, table))
        self.tables = flat

    @property
    def size(self) -> int:
        return len(self.labels)

    def cell(self, op: str, args: tuple[int, ...]) -> tuple[int, ...]:
        """The members of the cell at an argument tuple, ascending."""
        size = len(self.labels)
        if (len(args) != self.signature.arity_of(op)
                or not all(0 <= a < size for a in args)):
            raise IndexError(f"bad argument tuple {args} for {op!r}")
        pos = 0
        for a in args:
            pos = pos * size + a
        return members(self.tables[op][pos])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MultiAlg)
                and self.signature == other.signature
                and self.labels == other.labels
                and self.tables == other.tables)

    def __hash__(self):
        raise TypeError("MultiAlg is not hashable")

    def __repr__(self) -> str:
        return f"MultiAlg({self.size} elements, {len(self.tables)} operators)"

    def cell_count(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def to_json(self) -> dict:
        sig = {"constants": list(self.signature.constants),
               "unary": list(self.signature.unary),
               "binary": list(self.signature.binary)}
        ops = {}
        for op, arity in self.signature.operators():
            table = {",".join(map(str, args)): list(members(cell))
                     for args, cell in zip(arg_tuples(self.size, arity),
                                           self.tables[op])}
            ops[op] = {"arity": arity, "table": table}
        return {"signature": sig, "carrier": list(self.labels), "ops": ops}


@dataclass(frozen=True)
class MaMap:
    """A total index map between two multialgebras (not checked on build)."""

    source: MultiAlg
    target: MultiAlg
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def _require_same_signature(a: MultiAlg, b: MultiAlg) -> None:
    if a.signature != b.signature:
        raise SignatureMismatch("signatures differ")


def identity_map(algebra: MultiAlg) -> MaMap:
    return MaMap(algebra, algebra, tuple(range(algebra.size)))


def compose_maps(f: MaMap, g: MaMap) -> MaMap:
    """f after g."""
    return MaMap(g.source, f.target, tuple(f.mapping[x] for x in g.mapping))


def _cells_map_into(source: MultiAlg, target: MultiAlg,
                    mapping: Sequence[int], full: bool) -> bool:
    """Is the image of every source cell inside (equal to, when full) the
    target cell at the mapped arguments?  Each distinct pair of source and
    target cells is tested once."""
    if not all(0 <= m < target.size for m in mapping):
        raise ValueError("map leaves the target carrier")
    images: dict[int, int] = {}
    for op, arity in source.signature.operators():
        tgt = target.tables[op]
        at = map(tgt.__getitem__, _mapped_positions(mapping, arity, target.size))
        for cell, tgt_cell in set(zip(source.tables[op], at)):
            img = images.get(cell)
            if img is None:
                img = images[cell] = _image(cell, mapping)
            if img != tgt_cell if full else img & ~tgt_cell:
                return False
    return True


def is_submultialgebra(sub: MultiAlg, sup: MultiAlg,
                       embedding: Sequence[int]) -> bool:
    """Is every cell of ``sub``, read through the embedding, inside ``sup``'s?"""
    _require_same_signature(sub, sup)
    emb = tuple(embedding)
    if len(emb) != sub.size or len(set(emb)) != sub.size:
        raise ValueError("embedding must be injective and total")
    return _cells_map_into(sub, sup, emb, full=False)


def _check_hom(f: MaMap, full: bool) -> bool:
    _require_same_signature(f.source, f.target)
    if len(f.mapping) != f.source.size:
        raise ValueError("map must be total on the source carrier")
    return _cells_map_into(f.source, f.target, f.mapping, full)


def is_homomorphism(f: MaMap) -> bool:
    return _check_hom(f, full=False)


def is_full_homomorphism(f: MaMap) -> bool:
    return _check_hom(f, full=True)


def is_isomorphism(f: MaMap) -> bool:
    """Bijective full homomorphism."""
    if len(set(f.mapping)) != f.source.size or f.source.size != f.target.size:
        return False
    return is_full_homomorphism(f)


def is_epimorphism(f: MaMap) -> bool:
    """Surjective homomorphism (the categorical epis at finite scale)."""
    if set(f.mapping) != set(range(f.target.size)):
        return False
    return is_homomorphism(f)


class _KronRow(dict):
    """Product cells of one left cell with each right cell, made on demand."""

    __slots__ = ("shifts",)

    def __init__(self, left: int, right_size: int):
        super().__init__()
        self.shifts = [x * right_size for x in members(left)]

    def __missing__(self, right: int) -> int:
        cell = 0
        for shift in self.shifts:
            cell |= right << shift
        self[right] = cell
        return cell


def _kron_table(left: list[int], p: int, right: list[int], q: int,
                arity: int) -> list[int]:
    """One operator's table on the product of a p- and a q-element carrier,
    whose element (x, y) has index x*q + y."""
    rows = {a: _KronRow(a, q) for a in set(left)}
    if arity == 0:
        return [rows[left[0]][right[0]]]
    out: list[int] = []
    # (left, right) positions of every argument prefix but the last argument
    prefixes = [(0, 0)]
    for _ in range(arity - 1):
        prefixes = [(i * p + x, j * q + y)
                    for i, j in prefixes for x in range(p) for y in range(q)]
    for i, j in prefixes:
        right_row = right[j * q:(j + 1) * q]
        for x in range(i * p, (i + 1) * p):
            out.extend(map(rows[left[x]].__getitem__, right_row))
    return out


def ma_product(factors: Sequence[MultiAlg], cap: Optional[int] = None,
               signature: Optional[Signature] = None
               ) -> tuple[MultiAlg, list[MaMap]]:
    """Componentwise product with full-homomorphism projections.

    The carrier is ordered like ``itertools.product`` of the factors'
    carriers.  Tables are folded in from the left, one factor at a time.
    The empty product is the one-element terminal multialgebra; pass the
    signature explicitly for that case.
    """
    if cap is None:
        cap = cell_cap()
    if not factors:
        if signature is None:
            raise ValueError("the empty product needs an explicit signature")
        return ma_terminal(signature), []
    sig = factors[0].signature
    if signature is not None and signature != sig:
        raise SignatureMismatch("signatures differ")
    for f in factors[1:]:
        if f.signature != sig:
            raise SignatureMismatch("signatures differ")

    sizes = [f.size for f in factors]
    total = 1
    for s in sizes:
        total *= s
    cells = sum(total ** arity for _op, arity in sig.operators())
    if cells > cap:
        raise CellCapExceeded(
            f"product would need {cells} cells, above the cap {cap} "
            "(set SWAPKIT_MAX_CELLS to raise it)")

    labels = ["(" + ",".join(parts) + ")"
              for parts in iproduct(*[f.labels for f in factors])]
    tables: dict[str, list[int]] = {}
    for op, arity in sig.operators():
        table, size = factors[0].tables[op], factors[0].size
        for f in factors[1:]:
            table = _kron_table(table, size, f.tables[op], f.size, arity)
            size *= f.size
        tables[op] = table

    prod = MultiAlg(sig, labels, tables)
    carrier = list(iproduct(*[range(s) for s in sizes]))
    projections = [
        MaMap(prod, factor, tuple(t[k] for t in carrier))
        for k, factor in enumerate(factors)
    ]
    return prod, projections


def ma_terminal(signature: Signature) -> MultiAlg:
    """The one-element multialgebra: every cell is the whole (single) carrier."""
    return MultiAlg(signature, ("*",),
                    {op: [1] for op, _arity in signature.operators()})


def _pushed_tables(algebra: MultiAlg, mapping: Sequence[int],
                   size: int) -> dict[str, list[int]]:
    """Tables over ``size`` elements whose cell at each tuple is the union of
    the cell images over the tuple's preimages under the map."""
    images: dict[int, int] = {}
    tables: dict[str, list[int]] = {}
    for op, arity in algebra.signature.operators():
        table = [0] * size ** arity
        for pos, cell in zip(_mapped_positions(mapping, arity, size),
                             algebra.tables[op]):
            img = images.get(cell)
            if img is None:
                img = images[cell] = _image(cell, mapping)
            table[pos] |= img
        tables[op] = table
    return tables


def direct_image(f: MaMap) -> tuple[MultiAlg, MaMap, MaMap]:
    """The image multialgebra of a homomorphism, with the epi-mono pieces.

    Cell at an image tuple: the union of cell images over all of its
    preimage tuples.  Returns (image, restriction of f onto it, inclusion).
    """
    if not is_homomorphism(f):
        raise ValueError("map is not a homomorphism")
    image_indices = sorted(set(f.mapping))
    pos = {t: k for k, t in enumerate(image_indices)}
    onto_mapping = tuple(pos[t] for t in f.mapping)
    tables = _pushed_tables(f.source, onto_mapping, len(image_indices))

    labels = [f.target.labels[t] for t in image_indices]
    image = MultiAlg(f.source.signature, labels, tables)
    if not is_submultialgebra(image, f.target, image_indices):
        raise AssertionError("direct image escaped the target cells")
    onto = MaMap(f.source, image, onto_mapping)
    inclusion = MaMap(image, f.target, tuple(image_indices))
    return image, onto, inclusion


def epi_mono_factorize(f: MaMap) -> tuple[MaMap, MaMap]:
    """Split a homomorphism as surjection-onto-image followed by inclusion."""
    _image, onto, inclusion = direct_image(f)
    return onto, inclusion


@dataclass(frozen=True)
class EquivRel:
    """A partition of a carrier, as block index per element."""

    block_of: tuple[int, ...]
    block_labels: tuple[str, ...]

    @property
    def block_count(self) -> int:
        return len(self.block_labels)

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return out

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]], size: int,
                    labels: Optional[Sequence[str]] = None) -> "EquivRel":
        assign = [-1] * size
        for b, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < size or assign[x] != -1:
                    raise ValueError("blocks must partition the carrier")
                assign[x] = b
        if -1 in assign:
            raise ValueError("blocks must cover the carrier")
        if labels is None:
            labels = [f"b{b}" for b in range(len(blocks))]
        return cls(tuple(assign), tuple(labels))

    @classmethod
    def identity(cls, algebra: MultiAlg) -> "EquivRel":
        return cls(tuple(range(algebra.size)), algebra.labels)


def is_multicongruence(rel: EquivRel, algebra: MultiAlg) -> bool:
    """Compatibility of a partition with every multioperation.

    For related argument tuples, each output must have a related counterpart;
    equivalently, the block set of a cell depends only on the argument
    blocks.  Constants must have all outputs in one block.
    """
    if len(rel.block_of) != algebra.size:
        raise ValueError("partition is over the wrong carrier")
    if not all(0 <= b < rel.block_count for b in rel.block_of):
        raise ValueError("partition has a block without a label")
    block = rel.block_of
    images: dict[int, int] = {}
    for op, arity in algebra.signature.operators():
        seen: dict[int, int] = {}
        positions = _mapped_positions(block, arity, rel.block_count)
        for pos, cell in set(zip(positions, algebra.tables[op])):
            img = images.get(cell)
            if img is None:
                img = images[cell] = _image(cell, block)
            if arity == 0 and img & (img - 1):
                return False
            if seen.setdefault(pos, img) != img:
                return False
    return True


def quotient(algebra: MultiAlg, rel: EquivRel) -> tuple[MultiAlg, MaMap]:
    """Quotient multialgebra on the blocks, with the canonical projection.

    A cell at a block tuple is the union, over all representative tuples, of
    the blocks met by the original cell; for a multicongruence every
    representative tuple contributes the same block set.
    """
    if not is_multicongruence(rel, algebra):
        raise ValueError("relation is not a multicongruence")
    tables = _pushed_tables(algebra, rel.block_of, rel.block_count)
    quot = MultiAlg(algebra.signature, rel.block_labels, tables)
    proj = MaMap(algebra, quot, rel.block_of)
    return quot, proj
