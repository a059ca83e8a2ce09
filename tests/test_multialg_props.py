"""Property tests of the flat bitmask tables against set-based definitions.

Each test reads a multialgebra only through ``MultiAlg.cell`` (sorted member
tuples) and recomputes the construction or check from its definition with
plain Python sets, so nothing here shares code with the bitmask paths.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from swapkit.formula import Binary, Signature, Unary, Var, parse, to_text
from swapkit.multialg import (MaMap, MultiAlg, is_full_homomorphism,
                              is_homomorphism, is_submultialgebra, ma_product)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)
SIG = Signature(constants=("e",), unary=("f",), binary=("g",))


@st.composite
def multialgs(draw, size=None):
    """A multialgebra over SIG with 1 to 3 elements and random cells."""
    if size is None:
        size = draw(st.integers(1, 3))
    cell = st.integers(1, (1 << size) - 1)
    tables = {op: draw(st.lists(cell, min_size=size ** arity,
                                max_size=size ** arity))
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
    least = {op: [cell & -cell for cell in table]
             for op, table in m.tables.items()}
    sub = MultiAlg(SIG, m.labels, least)
    identity = tuple(range(m.size))
    assert is_homomorphism(MaMap(sub, m, identity))
    assert is_submultialgebra(sub, m, identity)
    assert is_full_homomorphism(MaMap(sub, m, identity)) == (sub == m)


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
        tables[op] = [sum(1 << u for u in spec["table"][key]) for key in keys]
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
