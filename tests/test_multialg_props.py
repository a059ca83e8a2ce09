"""Property tests of the bitmask row tables against set-based definitions.

Each test reads a multialgebra only through ``MultiAlg.cell`` (sorted member
tuples) and recomputes the construction or check from its definition with
plain Python sets, so nothing here shares code with the bitmask paths.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapkit.formula import Binary, Signature, Unary, Var, parse, to_text
from swapkit.multialg import (EquivRel, MaMap, MultiAlg, _restricted_tables,
                              is_full_homomorphism, is_homomorphism,
                              is_multicongruence, is_submultialgebra,
                              ma_product, quotient, table_cells)
from helpers import flat_tables, table_rows

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)
SIG = Signature(constants=("e",), unary=("f",), binary=("g",))


@st.composite
def multialgs(draw, size=None):
    """A multialgebra over SIG with 1 to 3 elements and random cells."""
    if size is None:
        size = draw(st.integers(1, 3))
    cell = st.integers(1, (1 << size) - 1)
    tables = {op: table_rows(draw(st.lists(cell, min_size=size ** arity,
                                           max_size=size ** arity)),
                             size, arity)
              for op, arity in SIG.operators()}
    labels = [f"x{i}" for i in range(size)]
    return MultiAlg(SIG, labels, tables)


def all_args(size, arity):
    return list(product(range(size), repeat=arity))


@SETTINGS
@given(st.lists(multialgs(), min_size=1, max_size=3))
def test_product_matches_componentwise_definition(factors):
    prod, projections = ma_product(factors)
    carrier = list(product(*[range(f.size) for f in factors]))
    assert prod.size == len(carrier)
    assert prod.labels == tuple(
        "(" + ",".join(f.labels[c] for f, c in zip(factors, t)) + ")"
        for t in carrier)
    for op, arity in SIG.operators():
        for args in all_args(prod.size, arity):
            # component k of the product cell is factor k's cell at the
            # k-th coordinates of the arguments
            parts = [f.cell(op, tuple(carrier[a][k] for a in args))
                     for k, f in enumerate(factors)]
            want = {carrier.index(combo) for combo in product(*parts)}
            assert set(prod.cell(op, args)) == want
    for k, proj in enumerate(projections):
        assert proj.mapping == tuple(t[k] for t in carrier)
        assert is_full_homomorphism(proj)


@st.composite
def maps(draw):
    """Two multialgebras and a total map between their carriers."""
    source = draw(multialgs())
    target = draw(multialgs())
    mapping = tuple(draw(st.lists(st.integers(0, target.size - 1),
                                  min_size=source.size,
                                  max_size=source.size)))
    return MaMap(source, target, mapping)


def maps_cells(f: MaMap, full: bool) -> bool:
    for op, arity in SIG.operators():
        for args in all_args(f.source.size, arity):
            image = {f.mapping[x] for x in f.source.cell(op, args)}
            target = set(f.target.cell(op, tuple(f.mapping[a] for a in args)))
            if not (image == target if full else image <= target):
                return False
    return True


@SETTINGS
@given(maps())
def test_homomorphism_checks_match_definitions(f):
    assert is_homomorphism(f) == maps_cells(f, full=False)
    assert is_full_homomorphism(f) == maps_cells(f, full=True)
    if len(set(f.mapping)) == f.source.size:
        assert is_submultialgebra(f.source, f.target, f.mapping) == \
            maps_cells(f, full=False)


@SETTINGS
@given(multialgs())
def test_homomorphism_checks_accept_sub_cells(m):
    # shrinking cells to their least member gives a submultialgebra, whose
    # identity map into the original is a homomorphism
    flat = flat_tables(m)
    least = {op: table_rows([cell & -cell for cell in flat[op]], m.size, arity)
             for op, arity in SIG.operators()}
    sub = MultiAlg(SIG, m.labels, least)
    identity = tuple(range(m.size))
    assert is_homomorphism(MaMap(sub, m, identity))
    assert is_submultialgebra(sub, m, identity)
    assert is_full_homomorphism(MaMap(sub, m, identity)) == (sub == m)


@st.composite
def restricted(draw):
    """A multialgebra over SIG with 1 to 5 elements and 1 to all of its
    elements to keep, in any order."""
    m = draw(multialgs(draw(st.integers(1, 5))))
    keep = draw(st.lists(st.integers(0, m.size - 1), min_size=1,
                         max_size=m.size, unique=True))
    return m, keep


@SETTINGS
@given(restricted())
def test_restriction_matches_definition(drawn):
    m, keep = drawn
    tables = _restricted_tables(m, keep)
    k = len(keep)
    for op, arity in SIG.operators():
        want = []
        for args in all_args(k, arity):
            # the cell at the kept elements' tuple, cut down to the kept
            # elements and renumbered by their place in keep
            cell = set(m.cell(op, tuple(keep[a] for a in args)))
            want.append(sum(1 << n for n, u in enumerate(keep) if u in cell))
        assert list(table_cells(tables[op], arity)) == want


@st.composite
def partitioned(draw):
    """A multialgebra over SIG with 1 to 4 elements and a partition of its
    carrier.  Half the time each cell is drawn to meet exactly a set of
    blocks chosen per argument-block tuple (one block for the constant), so
    that the partition is compatible; otherwise the cells are random."""
    size = draw(st.integers(1, 4))
    names: dict[int, int] = {}
    block_of = [names.setdefault(b, len(names)) for b in
                draw(st.lists(st.integers(0, size - 1), min_size=size,
                              max_size=size))]
    blocks = [[x for x in range(size) if block_of[x] == b]
              for b in range(len(names))]
    rel = EquivRel.from_blocks(blocks, size,
                               [f"b{b}" for b in range(len(blocks))])
    if not draw(st.booleans()):
        return draw(multialgs(size)), rel

    def cell_meeting(chosen):
        return sum(1 << x for b in chosen
                   for x in draw(st.sets(st.sampled_from(blocks[b]),
                                         min_size=1)))

    tables = {}
    for op, arity in SIG.operators():
        some_blocks = (st.sets(st.integers(0, len(blocks) - 1), min_size=1,
                               max_size=1 if arity == 0 else len(blocks)))
        per_key: dict[tuple, frozenset] = {}
        tables[op] = table_rows([
            cell_meeting(per_key.setdefault(
                tuple(block_of[a] for a in args), draw(some_blocks)))
            for args in all_args(size, arity)], size, arity)
    return MultiAlg(SIG, [f"x{i}" for i in range(size)], tables), rel


def blocks_met(m, rel, op, args) -> frozenset:
    return frozenset(rel.block_of[u] for u in m.cell(op, args))


def congruent(m, rel) -> bool:
    """The block set of each cell depends only on the argument blocks, and
    each constant's cell lies in one block."""
    for op, arity in SIG.operators():
        seen = {}
        for args in all_args(m.size, arity):
            met = blocks_met(m, rel, op, args)
            if arity == 0 and len(met) > 1:
                return False
            key = tuple(rel.block_of[a] for a in args)
            if seen.setdefault(key, met) != met:
                return False
    return True


@SETTINGS
@given(partitioned())
def test_multicongruence_matches_definition(drawn):
    m, rel = drawn
    verdict = congruent(m, rel)
    assert is_multicongruence(rel, m) == verdict
    if not verdict:
        with pytest.raises(ValueError, match="not a multicongruence"):
            quotient(m, rel)
        return
    quot, proj = quotient(m, rel)
    assert proj.mapping == rel.block_of and is_full_homomorphism(proj)
    for op, arity in SIG.operators():
        for args in all_args(m.size, arity):
            block_args = tuple(rel.block_of[a] for a in args)
            assert set(quot.cell(op, block_args)) == blocks_met(m, rel, op,
                                                                args)


def from_json(data: dict) -> MultiAlg:
    sig = Signature(constants=tuple(data["signature"]["constants"]),
                    unary=tuple(data["signature"]["unary"]),
                    binary=tuple(data["signature"]["binary"]))
    size = len(data["carrier"])
    tables = {}
    for op, spec in data["ops"].items():
        keys = [",".join(map(str, args))
                for args in all_args(size, spec["arity"])]
        assert list(spec["table"]) == keys
        tables[op] = table_rows(
            [sum(1 << u for u in spec["table"][key]) for key in keys],
            size, spec["arity"])
    return MultiAlg(sig, data["carrier"], tables)


@SETTINGS
@given(multialgs())
def test_to_json_round_trip(m):
    data = m.to_json()
    for op, arity in SIG.operators():
        for args in all_args(m.size, arity):
            assert data["ops"][op]["table"][",".join(map(str, args))] == \
                list(m.cell(op, args))
    assert from_json(data) == m


NAMES = ("p", "q", "r1", "X", "Y_2")


def formulas():
    leaves = st.sampled_from(NAMES).map(Var)
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Unary, st.sampled_from(("~", "@")), kids),
            st.builds(Binary, st.sampled_from(("&", "|", "->")), kids, kids)),
        max_leaves=12)


@SETTINGS
@given(formulas())
def test_parse_inverts_to_text(f):
    assert parse(to_text(f)) == f
