"""Finite multialgebras and their category.

A multialgebra assigns to each n-ary operator a total table from n-tuples of
carrier indices to nonempty sets of indices.  The morphism notions used
throughout: a map f is a homomorphism when the image of every cell is
contained in the corresponding target cell, and a full homomorphism when the
two are equal.  At finite scale, isomorphisms are the bijective full
homomorphisms.

Tables are rows and cells are bitmasks.  Over a carrier of k elements, a
constant's table is a one-cell row ``[cell]``, a unary operator's one row of
k cells, and a binary operator's a list of k row references, the cell at
(i, j) at ``tables[op][i][j]`` (``table_cells`` gives them in the order of
``arg_tuples``).  Bit u of a cell is set when carrier element u belongs to
it.  Equal cells are one interned int per structure and equal rows one list,
so equality of multialgebras is list equality, and an unpinned swap
structure's binary table, whose rows depend only on first coordinates, holds
8 distinct rows of 512 over three atoms.  ``MultiAlg`` takes a binary table
as rows or as a flat sequence of k*k cells, reads each row object once, and
checks only the cells a table added, naming the first bad one in table
order.  ``cell_count`` counts logical cells, k**arity per table.
Membership is a shift and a mask, the image of a cell and the union of
cells are ``|``, and containment is ``a & ~b == 0``.

Homomorphism checks read the target row at each mapped argument with one
``operator.itemgetter`` call and check each pair of (source row, target row)
objects once; products make each product row once per pair of factor rows.
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


def table_cells(table: list, arity: int) -> Iterable[int]:
    """A stored table's cells in table order: a binary table's rows run
    together."""
    return chain.from_iterable(table) if arity == 2 else table


def _getter(indices: Sequence[int]):
    """``operator.itemgetter`` of the indices, giving a tuple for any count
    (itemgetter of one index gives a bare item, and of none raises)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices) if indices else lambda row: ()


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


def _check_added(op: str, arity: int, table: list, interned: dict,
                 known: int, size: int) -> None:
    """Refuse a table unless the cells it added to ``interned``, those past
    the first ``known``, are all ints with a member and none at or above
    ``size``.  Only a refused table is walked cell by cell, so that the
    error names its first bad cell in table order."""
    added = list(islice(interned, known, None))
    if (all(issubclass(t, int) for t in set(map(type, added)))
            and min(added) > 0 and max(added) >> size == 0):
        return
    for at, cell in zip(arg_tuples(size, arity), table_cells(table, arity)):
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


def _rows_of(op: str, table: Sequence, size: int) -> Sequence[Sequence[int]]:
    """A binary table's rows: the table itself when its items are lists,
    else its flat sequence of size*size cells cut into rows.  The lengths
    are checked before any cell is read."""
    rows = table and isinstance(table[0], list)
    count = sum(map(len, table)) if rows else len(table)
    if count != size * size:
        raise ValueError(f"table for {op!r} has {count} cells, "
                         f"expected {size * size}")
    if not rows:
        return [table[u * size:(u + 1) * size] for u in range(size)]
    for row in table:
        if len(row) != size:
            raise ValueError(f"table for {op!r} has a row of {len(row)} "
                             f"cells, expected {size}")
    return table


class MultiAlg:
    """Carrier with labels plus one total nonempty-cell table per operator,
    held as rows (see the module docstring)."""

    __slots__ = ("signature", "labels", "tables")

    def __init__(self, signature: Signature, labels: Sequence[str],
                 tables: dict[str, Sequence]):
        self.signature = signature
        self.labels = tuple(labels)
        size = len(self.labels)
        arities = dict(signature.operators())
        for op in tables:
            if op not in arities:
                raise ValueError(
                    f"table for operator {op!r} outside the signature")
        interned = _Interned()
        #: the cells of each distinct row -> the structure's one list of them
        shared: dict[tuple[int, ...], list[int]] = {}
        stored: dict[str, list] = {}
        for op, arity in arities.items():
            table = tables.get(op)
            if table is None:
                raise ValueError(f"missing table for operator {op!r}")
            known = len(interned)
            if arity == 2:
                rows = _rows_of(op, table, size)
                read = {}  # id of a row object -> the structure's row
                for row in {id(row): row for row in rows}.values():
                    cells = list(map(interned.__getitem__, row))
                    read[id(row)] = shared.setdefault(tuple(cells), cells)
                out = [read[id(row)] for row in rows]
            else:
                expected = size ** arity
                if len(table) != expected:
                    raise ValueError(f"table for {op!r} has {len(table)} "
                                     f"cells, expected {expected}")
                out = list(map(interned.__getitem__, table))
            stored[op] = out
            if len(interned) > known:
                _check_added(op, arity, out, interned, known, size)
        self.tables = stored

    @property
    def size(self) -> int:
        return len(self.labels)

    def cell(self, op: str, args: tuple[int, ...]) -> tuple[int, ...]:
        """The members of the cell at an argument tuple, ascending."""
        size = len(self.labels)
        if (len(args) != self.signature.arity_of(op)
                or not all(0 <= a < size for a in args)):
            raise IndexError(f"bad argument tuple {args} for {op!r}")
        cell = self.tables[op]
        for a in args or (0,):
            cell = cell[a]
        return members(cell)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MultiAlg)
                and self.signature == other.signature
                and self.labels == other.labels
                and self.tables == other.tables)

    def __repr__(self) -> str:
        return f"MultiAlg({self.size} elements, {len(self.tables)} operators)"

    def cell_count(self) -> int:
        """The logical cells, size**arity per table, shared rows or not."""
        return sum(self.size ** arity
                   for _op, arity in self.signature.operators())

    def to_json(self) -> dict:
        sig = {"constants": list(self.signature.constants),
               "unary": list(self.signature.unary),
               "binary": list(self.signature.binary)}
        ops = {}
        for op, arity in self.signature.operators():
            table = {",".join(map(str, args)): list(members(cell))
                     for args, cell in zip(
                         arg_tuples(self.size, arity),
                         table_cells(self.tables[op], arity))}
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
    (equal to, when full) the target cell at the mapped arguments?  Checked
    a row at a time: the images of a source row's cells against the target
    row at the image of its argument, read at the mapped columns.  A binary
    table checks each pair of (source row, target row) objects once."""
    mapping, size = images.mapping, target.size
    if not all(0 <= m < size for m in mapping):
        raise ValueError("map leaves the target carrier")
    pull = _getter(mapping)
    image = images.__getitem__
    for op, arity in source.signature.operators():
        src, tgt = source.tables[op], target.tables[op]
        if arity == 2:
            at = list(map(tgt.__getitem__, mapping))
            pairs = ((row, pull(target_row)) for row, target_row in dict(
                zip(zip(map(id, src), map(id, at)), zip(src, at))).values())
        else:
            pairs = [(src, pull(tgt) if arity else (tgt[0],))]
        for row, cells in pairs:
            imgs = tuple(map(image, row))
            if imgs != cells if full else tuple(map(or_, imgs, cells)) != cells:
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


def _kron_table(left: list, right: list, q: int, arity: int) -> list:
    """One operator's table on the product of a carrier with a q-element
    one, whose element (x, y) has index x*q + y, in the row layout.

    The product row of (x, y) runs the product cells of each cell of left
    row x with right row y, so it is made once per pair of row objects and
    stands wherever that pair comes back: the product has at most as many
    distinct rows as its factors' counts multiplied.
    """
    kron = {a: _KronRow(a, q) for a in set(table_cells(left, arity))}
    if arity == 0:
        return [kron[left[0]][right[0]]]
    if arity == 1:
        return [kron[a][b] for a in left for b in right]
    made: dict[tuple[int, int], list[int]] = {}
    out = []
    for lrow in left:
        for rrow in right:
            row = made.get((id(lrow), id(rrow)))
            if row is None:
                row = made[id(lrow), id(rrow)] = []
                for a in lrow:
                    row += map(kron[a].__getitem__, rrow)
            out.append(row)
    return out


def ma_product(factors: Sequence[MultiAlg]) -> tuple[MultiAlg, list[MaMap]]:
    """Componentwise product of one or more factors, with
    full-homomorphism projections.

    The carrier is ordered like ``itertools.product`` of the factors'
    carriers.  Tables are folded in from the right, one factor at a time,
    with the product built so far as the right factor of ``_kron_table``,
    and each binary table reaches the product's constructor as rows in
    which a repeated row is one object.
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
    tables: dict[str, list] = {}
    for op, arity in sig.operators():
        table, size = factors[-1].tables[op], factors[-1].size
        for f in reversed(factors[:-1]):
            table = _kron_table(f.tables[op], table, size, arity)
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
                   size: int) -> dict[str, list]:
    """Tables over ``size`` elements whose cell at each tuple is the union of
    the cell images over the tuple's preimages under ``images.mapping``."""
    mapping = images.mapping
    tables: dict[str, list] = {}
    for op, arity in algebra.signature.operators():
        table = algebra.tables[op]
        if arity == 0:
            tables[op] = [images[table[0]]]
            continue
        out = [0] * size if arity == 1 else [[0] * size for _ in range(size)]
        for into, row in ([(out, table)] if arity == 1
                          else zip(map(out.__getitem__, mapping), table)):
            for w, cell in zip(mapping, row):
                into[w] |= images[cell]
        tables[op] = out
    return tables


def _restricted_tables(algebra: MultiAlg,
                       keep: Sequence[int]) -> dict[str, list]:
    """Tables over the kept elements, renumbered by their place in ``keep``:
    each cell at a tuple of them, cut down to them (0 where nothing of the
    cell is kept).  A binary table cuts each row object once."""
    images = _Images({u: n for n, u in enumerate(keep)})
    kept = mask_of(keep)
    cuts: dict[int, int] = {}
    pull = _getter(keep)

    def cut(cells: Sequence[int]) -> list[int]:
        for cell in set(cells).difference(cuts):
            cuts[cell] = images[cell & kept]
        return list(map(cuts.__getitem__, cells))

    tables: dict[str, list] = {}
    for op, arity in algebra.signature.operators():
        table = algebra.tables[op]
        if arity == 2:
            rows = list(map(table.__getitem__, keep))
            done = {id(row): row for row in rows}
            done = {i: cut(pull(row)) for i, row in done.items()}
            tables[op] = [done[id(row)] for row in rows]
        else:
            tables[op] = cut(pull(table) if arity else table)
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
