"""Finite multialgebras and their category.

A multialgebra assigns to each n-ary operator a total table from n-tuples of
carrier indices to nonempty sets of indices.  The morphism notions used
throughout: a map f is a homomorphism when the image of every cell is
contained in the corresponding target cell, and a full homomorphism when the
two are equal.  At finite scale, isomorphisms are the bijective full
homomorphisms and epimorphisms are the surjective homomorphisms.

Cells are stored as sorted index tuples, interned per structure, so equality
of multialgebras is plain structural equality and repeated cell comparisons
are cheap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Optional, Sequence

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


class MultiAlg:
    """Carrier with labels plus one total nonempty-cell table per operator."""

    __slots__ = ("signature", "labels", "tables")

    def __init__(self, signature: Signature, labels: Sequence[str],
                 tables: dict[str, dict[tuple[int, ...], Iterable[int]]]):
        self.signature = signature
        self.labels = tuple(labels)
        size = len(self.labels)
        interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        by_identity: dict[int, tuple[int, ...]] = {}
        normalized: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {}
        for op, arity in signature.operators():
            table = tables.get(op)
            if table is None:
                raise ValueError(f"missing table for operator {op!r}")
            norm: dict[tuple[int, ...], tuple[int, ...]] = {}
            expected = size ** arity
            if len(table) != expected:
                raise ValueError(
                    f"table for {op!r} has {len(table)} cells, expected {expected}")
            for args, raw in table.items():
                # shared cell objects normalize once; identity lookup keeps
                # large interned tables cheap to rebuild
                cell = by_identity.get(id(raw))
                if cell is None:
                    cell = tuple(sorted(set(raw)))
                    if not cell:
                        raise ValueError(f"empty cell at {op!r}{args}")
                    if cell[0] < 0 or cell[-1] >= size:
                        raise ValueError(f"cell at {op!r}{args} out of range")
                    cell = interned.setdefault(cell, cell)
                    by_identity[id(raw)] = cell
                    by_identity[id(cell)] = cell
                if len(args) != arity or any(not 0 <= a < size for a in args):
                    raise ValueError(f"bad argument tuple {args} for {op!r}")
                norm[args] = cell
            normalized[op] = norm
        self.tables = normalized

    @property
    def size(self) -> int:
        return len(self.labels)

    def cell(self, op: str, args: tuple[int, ...]) -> tuple[int, ...]:
        return self.tables[op][args]

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
            table = {",".join(map(str, args)): list(cell)
                     for args, cell in sorted(self.tables[op].items())}
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


def is_submultialgebra(sub: MultiAlg, sup: MultiAlg,
                       embedding: Sequence[int]) -> bool:
    """Is every cell of ``sub``, read through the embedding, inside ``sup``'s?"""
    _require_same_signature(sub, sup)
    emb = tuple(embedding)
    if len(emb) != sub.size or len(set(emb)) != sub.size:
        raise ValueError("embedding must be injective and total")
    sup_sets: dict[int, frozenset[int]] = {}
    for op, _arity in sub.signature.operators():
        for args, cell in sub.tables[op].items():
            sup_cell = sup.tables[op][tuple(emb[a] for a in args)]
            key = id(sup_cell)
            members = sup_sets.get(key)
            if members is None:
                members = sup_sets[key] = frozenset(sup_cell)
            if any(emb[x] not in members for x in cell):
                return False
    return True


def _check_hom(f: MaMap, full: bool) -> bool:
    _require_same_signature(f.source, f.target)
    mapping = f.mapping
    if len(mapping) != f.source.size:
        raise ValueError("map must be total on the source carrier")
    memo: dict[tuple[int, int], bool] = {}
    images: dict[int, frozenset[int]] = {}
    tgt_sets: dict[int, frozenset[int]] = {}
    for op, _arity in f.source.signature.operators():
        src_table = f.source.tables[op]
        tgt_table = f.target.tables[op]
        for args, cell in src_table.items():
            tgt_cell = tgt_table[tuple(mapping[a] for a in args)]
            key = (id(cell), id(tgt_cell))
            ok = memo.get(key)
            if ok is None:
                img = images.get(id(cell))
                if img is None:
                    img = images[id(cell)] = frozenset(mapping[x] for x in cell)
                tset = tgt_sets.get(id(tgt_cell))
                if tset is None:
                    tset = tgt_sets[id(tgt_cell)] = frozenset(tgt_cell)
                ok = memo[key] = (img == tset) if full else (img <= tset)
            if not ok:
                return False
    return True


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


def ma_product(factors: Sequence[MultiAlg], cap: Optional[int] = None,
               signature: Optional[Signature] = None
               ) -> tuple[MultiAlg, list[MaMap]]:
    """Componentwise product with full-homomorphism projections.

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

    carrier = list(iproduct(*[range(s) for s in sizes]))
    index_of = {t: i for i, t in enumerate(carrier)}
    labels = ["(" + ",".join(f.labels[c] for f, c in zip(factors, t)) + ")"
              for t in carrier]

    prod_cell_memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def product_cell(parts) -> tuple[int, ...]:
        key = tuple(id(p) for p in parts)
        cached = prod_cell_memo.get(key)
        if cached is None:
            cached = prod_cell_memo[key] = tuple(sorted(
                index_of[combo] for combo in iproduct(*parts)))
        return cached

    tables: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for op, arity in sig.operators():
        table: dict[tuple[int, ...], tuple[int, ...]] = {}
        if arity == 0:
            table[()] = product_cell([f.tables[op][()] for f in factors])
        elif arity == 1:
            for i, t in enumerate(carrier):
                table[(i,)] = product_cell([
                    f.tables[op][(c,)] for f, c in zip(factors, t)])
        elif len(factors) == 2:
            flat0, flat1 = (_flat_binary(f, op) for f in factors)
            s0, s1 = sizes
            memo = prod_cell_memo
            for i, (a0, a1) in enumerate(carrier):
                row0, row1 = flat0[a0 * s0:], flat1[a1 * s1:]
                for j, (b0, b1) in enumerate(carrier):
                    c0, c1 = row0[b0], row1[b1]
                    key = (id(c0), id(c1))
                    cell = memo.get(key)
                    if cell is None:
                        cell = memo[key] = tuple(sorted(
                            index_of[combo] for combo in iproduct(c0, c1)))
                    table[(i, j)] = cell
        elif len(factors) == 3:
            flat0, flat1, flat2 = (_flat_binary(f, op) for f in factors)
            s0, s1, s2 = sizes
            memo = prod_cell_memo
            for i, (a0, a1, a2) in enumerate(carrier):
                row0 = flat0[a0 * s0:]
                row1 = flat1[a1 * s1:]
                row2 = flat2[a2 * s2:]
                for j, (b0, b1, b2) in enumerate(carrier):
                    c0, c1, c2 = row0[b0], row1[b1], row2[b2]
                    key = (id(c0), id(c1), id(c2))
                    cell = memo.get(key)
                    if cell is None:
                        cell = memo[key] = tuple(sorted(
                            index_of[combo] for combo in iproduct(c0, c1, c2)))
                    table[(i, j)] = cell
        else:
            for i, ti in enumerate(carrier):
                for j, tj in enumerate(carrier):
                    table[(i, j)] = product_cell([
                        f.tables[op][(a, b)]
                        for f, a, b in zip(factors, ti, tj)])
        tables[op] = table

    prod = MultiAlg(sig, labels, tables)
    projections = [
        MaMap(prod, factor, tuple(t[k] for t in carrier))
        for k, factor in enumerate(factors)
    ]
    return prod, projections


def _flat_binary(factor: MultiAlg, op: str) -> list[tuple[int, ...]]:
    s = factor.size
    t = factor.tables[op]
    return [t[(a, b)] for a in range(s) for b in range(s)]


def ma_terminal(signature: Signature) -> MultiAlg:
    """The one-element multialgebra: every cell is the whole (single) carrier."""
    tables: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for op, arity in signature.operators():
        tables[op] = {(0,) * arity: (0,)}
    return MultiAlg(signature, ("*",), tables)


def direct_image(f: MaMap) -> tuple[MultiAlg, MaMap, MaMap]:
    """The image multialgebra of a homomorphism, with the epi-mono pieces.

    Cell at an image tuple: the union of cell images over all of its
    preimage tuples.  Returns (image, restriction of f onto it, inclusion).
    """
    if not is_homomorphism(f):
        raise ValueError("map is not a homomorphism")
    image_indices = sorted(set(f.mapping))
    pos = {t: k for k, t in enumerate(image_indices)}
    sig = f.source.signature

    tables: dict[str, dict[tuple[int, ...], set[int]]] = {
        op: {} for op, _ in sig.operators()}
    for op, _arity in sig.operators():
        table = tables[op]
        for args, cell in f.source.tables[op].items():
            img_args = tuple(pos[f.mapping[a]] for a in args)
            bucket = table.get(img_args)
            if bucket is None:
                bucket = table[img_args] = set()
            bucket.update(pos[f.mapping[x]] for x in cell)

    labels = [f.target.labels[t] for t in image_indices]
    image = MultiAlg(sig, labels, tables)
    if not is_submultialgebra(image, f.target, image_indices):
        raise AssertionError("direct image escaped the target cells")
    onto = MaMap(f.source, image, tuple(pos[t] for t in f.mapping))
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
        for b, members in enumerate(blocks):
            for x in members:
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
    block = rel.block_of
    for op, arity in algebra.signature.operators():
        if arity == 0:
            cell = algebra.tables[op][()]
            if len({block[x] for x in cell}) > 1:
                return False
            continue
        seen: dict[tuple[int, ...], frozenset[int]] = {}
        for args, cell in algebra.tables[op].items():
            key = tuple(block[a] for a in args)
            blocks_here = frozenset(block[x] for x in cell)
            prev = seen.get(key)
            if prev is None:
                seen[key] = blocks_here
            elif prev != blocks_here:
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
    block = rel.block_of
    sig = algebra.signature
    tables: dict[str, dict[tuple[int, ...], set[int]]] = {}
    for op, arity in sig.operators():
        table: dict[tuple[int, ...], set[int]] = {}
        for args, cell in algebra.tables[op].items():
            key = tuple(block[a] for a in args)
            bucket = table.get(key)
            if bucket is None:
                bucket = table[key] = set()
            bucket.update(block[x] for x in cell)
        tables[op] = table
    quot = MultiAlg(sig, rel.block_labels, tables)
    proj = MaMap(algebra, quot, block)
    return quot, proj
