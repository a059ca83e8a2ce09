"""Finite multialgebras and their category.

A multialgebra assigns to each n-ary operator a total table from n-tuples of
carrier indices to nonempty sets of indices.  The morphism notions used
throughout: a map f is a homomorphism when the image of every cell is
contained in the corresponding target cell, and a full homomorphism when the
two are equal.  At finite scale, isomorphisms are the bijective full
homomorphisms.

Tables are flat and cells are bitmasks.  Over a carrier of k elements,
``tables[op]`` is one row-major list of k**arity cells: a binary operator's
cell at (i, j) sits at position i*k + j, a unary one's at (i,) at i and a
constant's at 0 (``arg_tuples`` lists the argument tuples in that order).  A
cell is an int whose bit u is set when carrier element u belongs to it.
Equal cells are one interned int per structure, so a cell costs one list
slot, equality of multialgebras is plain list equality, and memos key on the
cell value.  A table given to ``MultiAlg`` is a sequence of cells, such as
a list, or ``_Rows``: a list of rows whose concatenation is the table.  Its
length is checked before any cell is read.  Full structures and products
repeat a few rows many times, so their builders hand each big table over as
``_Rows`` in which a repeated row is one object; they never hold the table
whole, and a big structure is held in one copy.  Each table is read once, a
row at a time, into the structure's own list: a row object's cells are
interned the first time it comes and copied from that list each time it
comes back.  A sequence is one row.  Only the cells that table added are
checked, and the first bad cell is named in table order.
Membership is a shift and a mask, the image of a cell and the union of
cells are ``|``, and containment is ``a & ~b == 0``.
``MultiAlg.cell`` decodes a cell to its sorted member tuple; ``members`` and
``mask_of`` convert either way.

Whole-table passes run a row at a time in C.  ``_pulled`` reads a table at
the image of every argument tuple under a carrier map with one row slice and
one ``operator.itemgetter`` call per argument prefix; homomorphism checks
compare the list of cell images with the pulled list as whole lists, and
products list each row of a table as memoized stretches of product cells.
"""

from __future__ import annotations

import os
from itertools import chain, islice, product as iproduct
from operator import itemgetter, or_
from typing import Iterable, Iterator, Optional, Sequence

from ._frozen import Frozen, Value
from .formula import Signature

DEFAULT_CELL_CAP = 10 ** 6


def cell_cap() -> int:
    """The largest count a call may build: ``SWAPKIT_MAX_CELLS``, or
    ``DEFAULT_CELL_CAP`` when it is unset or empty.

    The cap bounds what a call is about to build or visit: a full
    structure, a product, a universe, the pair carrier, the Kleene triples,
    or an unbounded draw, which may restrict the whole universe.  A
    structure the process already holds is returned under any cap, so a
    test of a threshold starts from empty caches, as a new process does.
    Reading the cap (about 0.9 us) on every cached lookup was left out: it
    would cost the benchmark's workloads 1-3% for a case no command line
    meets.
    """
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


def _check_cap(count: int, need: str, unit: str) -> None:
    """Refuse, before anything is built, a count above ``cell_cap()``."""
    cap = cell_cap()
    if count > cap:
        raise CellCapExceeded(
            f"{need} {count} {unit}, above the cap {cap} "
            "(set SWAPKIT_MAX_CELLS to raise it)")


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


def _pulled(table: Sequence[int], mapping: Sequence[int], arity: int,
            size: int) -> list[int]:
    """The cells of a table over ``size`` elements at the image of each
    argument tuple of the map's source, in the source's table order.

    Each prefix of all arguments but the last picks one row of the table;
    one ``itemgetter`` call reads the whole row at the mapped positions.
    """
    if arity == 0:
        return [table[0]]
    if len(mapping) > 1:
        pull = itemgetter(*mapping)
    elif mapping:  # itemgetter of one index gives a bare item, not a tuple
        pull = itemgetter(slice(mapping[0], mapping[0] + 1))
    else:  # and itemgetter of none raises
        return []
    out: list[int] = []
    for row in _mapped_positions(mapping, arity - 1, size):
        out.extend(pull(table[row * size:(row + 1) * size]))
    return out


class _Images(dict):
    """The image of each cell under one carrier map, made on first use."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Sequence[int]):
        super().__init__()
        self.mapping = mapping

    def __missing__(self, cell: int) -> int:
        img = 0
        for x in members(cell):
            img |= 1 << self.mapping[x]
        self[cell] = img
        return img


def _check_added(op: str, arity: int, cells: list, interned: dict,
                 known: int, size: int) -> None:
    """Refuse a table unless the cells it added to ``interned``, those past
    the first ``known``, are all ints with a member and none at or above
    ``size``.  Only a refused table is walked cell by cell, so that the
    error names its first bad cell in table order."""
    added = list(islice(interned, known, None))
    if (all(issubclass(t, int) for t in set(map(type, added)))
            and min(added) > 0 and max(added) >> size == 0):
        return
    for at, cell in zip(arg_tuples(size, arity), cells):
        if not isinstance(cell, int) or cell <= 0 or cell >> size:
            what = "empty" if cell == 0 else "invalid"
            raise ValueError(f"{what} cell {cell!r} at {op!r}{at}")


class _Interned(dict):
    """The one object for each distinct cell, across all tables: a cell not
    yet seen is stored under itself on lookup."""

    __slots__ = ()

    def __missing__(self, cell: int) -> int:
        self[cell] = cell
        return cell


class _Rows:
    """A table as a list of rows whose concatenation is the table.  One row
    object may stand at many places, and ``MultiAlg`` interns its cells
    once.  Sized and iterable cell by cell, like the flat table."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[Sequence[int]]):
        self.rows = rows

    def __len__(self) -> int:
        return sum(map(len, self.rows))

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.rows)


class MultiAlg:
    """Carrier with labels plus one total nonempty-cell table per operator.

    Each table is a sequence of cells in table order, or ``_Rows``, with
    size**arity cells, checked before any cell is read.  Each is read once,
    a row at a time: the cells of a row object are interned the first time
    it comes and copied from the table after that.  A sequence is one row.
    """

    __slots__ = ("signature", "labels", "tables")

    def __init__(self, signature: Signature, labels: Sequence[str],
                 tables: dict[str, Sequence[int] | _Rows]):
        self.signature = signature
        self.labels = tuple(labels)
        size = len(self.labels)
        arities = dict(signature.operators())
        for op in tables:
            if op not in arities:
                raise ValueError(
                    f"table for operator {op!r} outside the signature")
        interned = _Interned()
        flat: dict[str, list[int]] = {}
        for op, arity in arities.items():
            table = tables.get(op)
            if table is None:
                raise ValueError(f"missing table for operator {op!r}")
            expected = size ** arity
            if len(table) != expected:
                raise ValueError(f"table for {op!r} has {len(table)} cells, "
                                 f"expected {expected}")
            known = len(interned)
            rows = table.rows if isinstance(table, _Rows) else [table]
            #: id of a row object read -> where its interned cells sit
            read: dict[int, slice] = {}
            cells: list[int] = []
            for row in rows:
                seen = read.get(id(row))
                if seen is None:
                    start = len(cells)
                    cells += map(interned.__getitem__, row)
                    read[id(row)] = slice(start, len(cells))
                else:
                    cells += cells[seen]
            flat[op] = cells
            if len(interned) > known:
                _check_added(op, arity, cells, interned, known, size)
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


class MaMap(Value):
    """A total index map between two multialgebras (not checked on build).
    Maps compare by value; like multialgebras, they are not hashable."""

    __slots__ = ("source", "target", "mapping")


def _require_same_signature(a: MultiAlg, b: MultiAlg) -> None:
    if a.signature != b.signature:
        raise SignatureMismatch("signatures differ")


def compose_maps(f: MaMap, g: MaMap) -> MaMap:
    """f after g."""
    if g.target is not f.source and g.target != f.source:
        raise ValueError("maps not composable")
    return MaMap(g.source, f.target, tuple(f.mapping[x] for x in g.mapping))


def _cells_map_into(source: MultiAlg, target: MultiAlg, images: _Images,
                    full: bool) -> bool:
    """Is the image of every source cell under ``images.mapping`` inside
    (equal to, when full) the target cell at the mapped arguments?  Each
    table is checked whole: the list of cell images against the list of
    target cells pulled at the mapped arguments."""
    mapping, size = images.mapping, target.size
    if not all(0 <= m < size for m in mapping):
        raise ValueError("map leaves the target carrier")
    for op, arity in source.signature.operators():
        at = _pulled(target.tables[op], mapping, arity, size)
        imgs = list(map(images.__getitem__, source.tables[op]))
        if imgs != at if full else list(map(or_, imgs, at)) != at:
            return False
    return True


def is_submultialgebra(sub: MultiAlg, sup: MultiAlg,
                       embedding: Sequence[int]) -> bool:
    """Is every cell of ``sub``, read through the embedding, inside ``sup``'s?"""
    _require_same_signature(sub, sup)
    emb = tuple(embedding)
    if len(emb) != sub.size or len(set(emb)) != sub.size:
        raise ValueError("embedding must be injective and total")
    return _cells_map_into(sub, sup, _Images(emb), full=False)


def _check_hom(f: MaMap, full: bool) -> bool:
    _require_same_signature(f.source, f.target)
    if len(f.mapping) != f.source.size:
        raise ValueError("map must be total on the source carrier")
    return _cells_map_into(f.source, f.target, _Images(f.mapping), full)


def is_homomorphism(f: MaMap) -> bool:
    return _check_hom(f, full=False)


def is_full_homomorphism(f: MaMap) -> bool:
    return _check_hom(f, full=True)


def is_isomorphism(f: MaMap) -> bool:
    """Bijective full homomorphism."""
    if len(set(f.mapping)) != f.source.size or f.source.size != f.target.size:
        return False
    return is_full_homomorphism(f)


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
                arity: int) -> list[int] | _Rows:
    """One operator's table on the product of a p- and a q-element carrier,
    whose element (x, y) has index x*q + y: ``_Rows``, or for a constant
    its one cell in a list.

    Each row is a memoized stretch, the product cells of one left cell with
    one right row, and stands wherever that pair comes back, so the table is
    never held whole; a caller that slices it by rows makes it a list.
    """
    rows = {a: _KronRow(a, q) for a in set(left)}
    if arity == 0:
        return [rows[left[0]][right[0]]]
    # (left, right) positions of every argument prefix but the last argument
    prefixes = [(0, 0)]
    for _ in range(arity - 1):
        prefixes = [(i * p + x, j * q + y)
                    for i, j in prefixes for x in range(p) for y in range(q)]
    # the product cells of one left cell with one right row, made once
    stretches: dict[tuple[int, int], list[int]] = {}
    out: list[list[int]] = []
    for i, j in prefixes:
        for cell in left[i * p:(i + 1) * p]:
            stretch = stretches.get((cell, j))
            if stretch is None:
                stretch = stretches[cell, j] = list(
                    map(rows[cell].__getitem__, right[j * q:(j + 1) * q]))
            out.append(stretch)
    return _Rows(out)


def ma_product(factors: Sequence[MultiAlg]) -> tuple[MultiAlg, list[MaMap]]:
    """Componentwise product of one or more factors, with
    full-homomorphism projections.

    The carrier is ordered like ``itertools.product`` of the factors'
    carriers.  Tables are folded in from the right, one factor at a time,
    with the product built so far as the right factor of ``_kron_table``:
    each memoized stretch is then a whole row of that larger product.  Only
    the intermediate folds, which the next fold slices by rows, are made
    lists; the last one goes to the product's constructor as ``_Rows``,
    which interns each distinct stretch once.
    """
    if not factors:
        raise ValueError("the product needs at least one factor")
    sig = factors[0].signature
    for f in factors[1:]:
        if f.signature != sig:
            raise SignatureMismatch("signatures differ")

    sizes = [f.size for f in factors]
    total = 1
    for s in sizes:
        total *= s
    _check_cap(sum(total ** arity for _op, arity in sig.operators()),
               "product would need", "cells")

    labels = ["(" + ",".join(parts) + ")"
              for parts in iproduct(*[f.labels for f in factors])]
    tables: dict[str, list[int] | _Rows] = {}
    for op, arity in sig.operators():
        table, size = factors[-1].tables[op], factors[-1].size
        for folds, f in enumerate(reversed(factors[:-1])):
            if folds:
                table = list(table)
            table = _kron_table(f.tables[op], f.size, table, size, arity)
            size *= f.size
        tables[op] = table

    prod = MultiAlg(sig, labels, tables)
    carrier = list(iproduct(*[range(s) for s in sizes]))
    projections = [
        MaMap(prod, factor, tuple(t[k] for t in carrier))
        for k, factor in enumerate(factors)
    ]
    return prod, projections


def _pushed_tables(algebra: MultiAlg, images: _Images,
                   size: int) -> dict[str, list[int]]:
    """Tables over ``size`` elements whose cell at each tuple is the union of
    the cell images over the tuple's preimages under ``images.mapping``."""
    tables: dict[str, list[int]] = {}
    for op, arity in algebra.signature.operators():
        table = [0] * size ** arity
        for pos, cell in zip(_mapped_positions(images.mapping, arity, size),
                             algebra.tables[op]):
            table[pos] |= images[cell]
        tables[op] = table
    return tables


def _restricted_tables(algebra: MultiAlg,
                       keep: Sequence[int]) -> dict[str, list[int]]:
    """Tables over the kept elements, renumbered by their place in ``keep``:
    each cell at a tuple of them, cut down to them (0 where nothing of the
    cell is kept)."""
    images = _Images({u: n for n, u in enumerate(keep)})
    kept = mask_of(keep)
    cuts: dict[int, int] = {}
    tables: dict[str, list[int]] = {}
    for op, arity in algebra.signature.operators():
        cells = _pulled(algebra.tables[op], keep, arity, algebra.size)
        for cell in set(cells).difference(cuts):
            cuts[cell] = images[cell & kept]
        tables[op] = list(map(cuts.__getitem__, cells))
    return tables


class EquivRel(Frozen):
    """A partition of a carrier, as block index per element."""

    __slots__ = ("block_of", "block_labels")

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
                    labels: Sequence[str]) -> "EquivRel":
        assign = [-1] * size
        for b, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < size or assign[x] != -1:
                    raise ValueError("blocks must partition the carrier")
                assign[x] = b
        if -1 in assign:
            raise ValueError("blocks must cover the carrier")
        if len(labels) != len(blocks):
            raise ValueError(f"{len(labels)} labels for {len(blocks)} blocks")
        return cls(tuple(assign), tuple(labels))


def _quotient(rel: EquivRel,
              algebra: MultiAlg) -> Optional[tuple[MultiAlg, MaMap]]:
    """The quotient on the blocks with its canonical projection, or None when
    the partition is not a multicongruence.

    A cell at a block tuple is the union, over its representative tuples, of
    the blocks met by their cells.  The partition is a multicongruence when
    each constant's cell is one block and the projection is full: every
    representative tuple meets the whole union.
    """
    if len(rel.block_of) != algebra.size:
        raise ValueError("partition is over the wrong carrier")
    if not all(0 <= b < rel.block_count for b in rel.block_of):
        raise ValueError("partition has a block without a label")
    if len(set(rel.block_of)) != rel.block_count:
        raise ValueError("partition has an empty block")
    images = _Images(rel.block_of)
    tables = _pushed_tables(algebra, images, rel.block_count)
    if any(cell & (cell - 1) for c in algebra.signature.constants
           for cell in tables[c]):
        return None
    quot = MultiAlg(algebra.signature, rel.block_labels, tables)
    if not _cells_map_into(algebra, quot, images, full=True):
        return None
    return quot, MaMap(algebra, quot, rel.block_of)


def is_multicongruence(rel: EquivRel, algebra: MultiAlg) -> bool:
    """Compatibility of a partition with every multioperation.

    For related argument tuples, each output must have a related counterpart;
    equivalently, the block set of a cell depends only on the argument
    blocks.  Constants must have all outputs in one block.
    """
    return _quotient(rel, algebra) is not None


def quotient(algebra: MultiAlg, rel: EquivRel) -> tuple[MultiAlg, MaMap]:
    """Quotient multialgebra on the blocks, with the canonical projection."""
    result = _quotient(rel, algebra)
    if result is None:
        raise ValueError("relation is not a multicongruence")
    return result
