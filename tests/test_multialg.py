import random
from itertools import product

import pytest

from swapkit.boolalg import A2, powerset_algebra
from swapkit.formula import LOGIC_SIGNATURE, Signature
from swapkit.logics import LogicId
from swapkit import multialg
from swapkit.multialg import (EquivRel, MaMap, MultiAlg, SignatureMismatch,
                              _getter, _restricted_tables, compose_maps,
                              is_full_homomorphism, is_homomorphism,
                              is_isomorphism, is_multicongruence,
                              is_submultialgebra, ma_product, quotient,
                              table_cells)
from swapkit import swap
from swapkit.swap import (full_swap, power_of_a2, random_swap_substructure,
                          universe)
from helpers import (epi_by_separation, flat_tables, malg_from_sets,
                     partition, sets_of, traced)

SIG1 = Signature(unary=("f",), binary=("g",))


def tiny(cells):
    """Two-element multialgebra over one unary and one binary operator."""
    return malg_from_sets(SIG1, ("a", "b"), cells)


def identity(m):
    return MaMap(m, m, tuple(range(m.size)))


def terminal(signature):
    """The one-element multialgebra: every cell is the whole carrier."""
    return MultiAlg(signature, ("*",),
                    {op: [1] for op, _arity in signature.operators()})


def full_two():
    return tiny({
        "f": {(0,): (0, 1), (1,): (0, 1)},
        "g": {(i, j): (0, 1) for i in range(2) for j in range(2)},
    })


def m5():
    return full_swap(LogicId.MBC, A2).malg


def test_cells_must_be_nonempty_and_total():
    with pytest.raises(ValueError):
        tiny({"f": {(0,): (), (1,): (0,)},
              "g": {(i, j): (0,) for i in range(2) for j in range(2)}})
    with pytest.raises(ValueError):
        tiny({"f": {(0,): (0,)},
              "g": {(i, j): (0,) for i in range(2) for j in range(2)}})
    # flat tables: length k**arity, cells nonzero bitmasks below 1 << k
    with pytest.raises(ValueError, match="has 3 cells, expected 4"):
        MultiAlg(SIG1, ("a", "b"), {"f": [1, 2], "g": [1, 2, 3]})
    with pytest.raises(ValueError, match="empty cell"):
        MultiAlg(SIG1, ("a", "b"), {"f": [1, 2], "g": [1, 2, 3, 0]})
    with pytest.raises(ValueError, match=r"invalid cell 4 at 'f'\(1,\)"):
        MultiAlg(SIG1, ("a", "b"), {"f": [1, 4], "g": [1, 2, 3, 3]})
    with pytest.raises(ValueError, match="missing table"):
        MultiAlg(SIG1, ("a", "b"), {"f": [1, 2]})
    with pytest.raises(ValueError, match="operator 'h' outside the signature"):
        MultiAlg(SIG1, ("a", "b"), {"f": [1, 2], "g": [1, 2, 3, 1], "h": [7]})
    # with several bad cells, the first in table order is named
    with pytest.raises(ValueError, match=r"invalid cell 4 at 'f'\(0,\)"):
        MultiAlg(SIG1, ("a", "b"), {"f": [4, 0], "g": [1, 2, 3, 1]})
    with pytest.raises(ValueError, match=r"invalid cell 4 at 'g'\(0, 0\)"):
        MultiAlg(SIG1, ("a", "b"), {"f": [1, 2], "g": [4, 1, 0, 1]})
    # a table is a sequence: a generator is refused before it is read
    stream = (c for c in [1, 2, 3, 1])
    with pytest.raises(TypeError):
        MultiAlg(SIG1, ("a", "b"), {"f": [1, 2], "g": stream})
    assert next(stream) == 1


class CountedRow(list):
    """A row that counts how often it is iterated."""

    def __init__(self, cells):
        super().__init__(cells)
        self.iterated = 0

    def __iter__(self):
        self.iterated += 1
        return super().__iter__()


def test_row_tables_read_like_flat_tables():
    flat = [1, 2, 3, 1]
    for g in [[[1, 2], [3, 1]], flat, tuple(flat)]:
        m = MultiAlg(SIG1, ("a", "b"), {"f": [2, 3], "g": g})
        assert m == MultiAlg(SIG1, ("a", "b"), {"f": [2, 3], "g": flat})
        assert m.tables["g"] == [[1, 2], [3, 1]]
        assert list(table_cells(m.tables["g"], 2)) == flat
    # a one-element carrier: a flat cell, or one row of one cell
    for g in [[1], [[1]]]:
        assert MultiAlg(SIG1, ("a",), {"f": [1], "g": g}).tables["g"] == [[1]]


def test_a_repeated_row_is_read_once():
    row, other = CountedRow([1, 3, 2]), CountedRow([2, 2, 1])
    m = MultiAlg(Signature(binary=("g",)), ("a", "b", "c"),
                 {"g": [row, other, row]})
    assert m.tables["g"] == [[1, 3, 2], [2, 2, 1], [1, 3, 2]]
    assert (row.iterated, other.iterated) == (1, 1)
    # the structure keeps its own rows, and equal rows are one object,
    # however they were given
    assert m.tables["g"][0] is m.tables["g"][2] is not row
    for g in [[1, 3, 2, 2, 2, 1, 1, 3, 2], [[1, 3, 2], [2, 2, 1], [1, 3, 2]]]:
        rows = MultiAlg(Signature(binary=("g",)), ("a", "b", "c"),
                        {"g": g}).tables["g"]
        assert rows == m.tables["g"] and rows[0] is rows[2]


def test_a_bad_cell_in_a_repeated_row_is_named_at_its_first_place():
    row = [1, 4]
    with pytest.raises(ValueError, match=r"^invalid cell 4 at 'g'\(0, 1\)$"):
        MultiAlg(SIG1, ("a", "b"), {"f": [2, 3], "g": [row, row]})
    bad = [1, 0, 2]
    with pytest.raises(ValueError, match=r"^empty cell 0 at 'g'\(1, 1\)$"):
        MultiAlg(Signature(binary=("g",)), ("a", "b", "c"),
                 {"g": [[1, 2, 4], bad, bad]})


def test_row_tables_of_the_wrong_length_are_refused_before_reading():
    row = CountedRow([1, 2])
    for rows, count in [([row, row, row], 6), ([row], 2)]:
        with pytest.raises(ValueError,
                           match=rf"^table for 'g' has {count} cells, "
                                 r"expected 4$"):
            MultiAlg(SIG1, ("a", "b"), {"f": [2, 3], "g": rows})
    # the right count of cells in rows of the wrong length
    with pytest.raises(ValueError,
                       match=r"^table for 'g' has a row of 3 cells, "
                             r"expected 2$"):
        MultiAlg(SIG1, ("a", "b"), {"f": [2, 3], "g": [row + [1], [row[0]]]})
    assert row.iterated == 0


def test_builders_hand_big_tables_over_as_rows(monkeypatch):
    """The unpinned binary tables of a full structure and every binary
    table of a product of two or more factors reach ``MultiAlg`` as rows,
    so each distinct row is read once."""
    handed = []

    class Recording(MultiAlg):
        __slots__ = ()

        def __init__(self, signature, labels, tables):
            handed.append(tables)
            super().__init__(signature, labels, tables)

    monkeypatch.setattr(multialg, "MultiAlg", Recording)
    monkeypatch.setattr(swap, "MultiAlg", Recording)
    for logic in LogicId:
        handed.clear()
        swap._full_structure.__wrapped__(logic, A2)
        (tables,) = handed
        pinned = swap._CLAUSES[logic].second is not None
        for op in LOGIC_SIGNATURE.binary:
            assert isinstance(tables[op][0], list) != pinned, (logic, op)
    base = m5()
    for factors in [[base, base], [base, base, base]]:
        handed.clear()
        ma_product(factors)
        (tables,) = handed
        assert all(isinstance(tables[op][0], list)
                   for op in LOGIC_SIGNATURE.binary)


def test_full_structures_and_powers_share_rows():
    """A 512-element CPLe+ structure keeps 8 distinct rows per binary table
    (one per first coordinate), and still counts its logical cells."""
    for m in [full_swap(LogicId.CPLE_PLUS, powerset_algebra(3)).malg,
              power_of_a2(LogicId.CPLE_PLUS, 3)]:
        for op in LOGIC_SIGNATURE.binary:
            rows = m.tables[op]
            assert len(rows) == 512
            assert len({id(row) for row in rows}) == 8
        assert m.cell_count() == 3 * 512 ** 2 + 2 * 512 == 787_456


def test_big_builds_hold_each_table_in_one_copy():
    # the 3-atom CPLe+ full structure and the cube of the one over A2 each
    # keep about 7 MB of tables; a builder that handed each table to the
    # constructor as a list of its own would free about as much again
    P3 = powerset_algebra(3)
    universe(LogicId.CPLE_PLUS, P3)
    base = full_swap(LogicId.CPLE_PLUS, A2).malg
    for build in [
            lambda: swap._full_structure.__wrapped__(LogicId.CPLE_PLUS, P3),
            lambda: ma_product([base] * 3)]:
        built, peak, held = traced(build)
        # the bytes allocated and freed again
        assert built is not None and peak - held < 1 << 20


def test_flat_tables_and_cell_accessor():
    m = MultiAlg(SIG1, ("a", "b"), {"f": [2, 3], "g": [1, 2, 3, 1]})
    assert m.cell("f", (0,)) == (1,) and m.cell("f", (1,)) == (0, 1)
    assert [m.cell("g", (i, j)) for i in range(2) for j in range(2)] == \
        [(0,), (1,), (0, 1), (0,)]
    assert m.cell_count() == 6
    # equal cells share one object, so a table costs one slot per cell
    whole = [int("1" * 70, 2) for _ in range(70)]
    assert whole[0] is not whole[1]
    # and across tables: "h" holds an equal but distinct int
    other = [int("1" * 70, 2) for _ in range(70)]
    assert other[0] is not whole[0]
    big = MultiAlg(Signature(unary=("f", "h")), [f"x{i}" for i in range(70)],
                   {"f": whole, "h": other})
    assert all(cell is big.tables["f"][0]
               for table in big.tables.values() for cell in table)
    for bad in [(2,), (0, 1), (-1,)]:
        with pytest.raises(IndexError):
            m.cell("f", bad)


def test_library_built_structures_keep_one_object_per_cell():
    cple3 = full_swap(LogicId.CPLE_PLUS, powerset_algebra(3)).malg
    cple2 = full_swap(LogicId.CPLE_PLUS, powerset_algebra(2)).malg
    draw = random_swap_substructure(random.Random(3), LogicId.CPLE_PLUS,
                                    powerset_algebra(2)).malg
    quot, _ = quotient(cple2, EquivRel(tuple(range(cple2.size)), cple2.labels))
    for m in [cple3, power_of_a2(LogicId.CPLE_PLUS, 3), draw, quot]:
        cells = [cell for table in flat_tables(m).values() for cell in table]
        # ints above 256 are not cached by the interpreter itself
        assert max(cells) > 256
        assert len({id(cell) for cell in cells}) == len(set(cells))


def test_submultialgebra_reflexive():
    a = full_two()
    assert is_submultialgebra(a, a, (0, 1))


def test_submultialgebra_cell_shrink_and_enlarge():
    a = full_two()
    smaller = tiny({
        "f": {(0,): (0,), (1,): (0, 1)},
        "g": {(i, j): (1,) for i in range(2) for j in range(2)},
    })
    assert is_submultialgebra(smaller, a, (0, 1))
    # enlarging any cell beyond the ambient cell must be rejected
    rng = random.Random(11)
    m = m5()
    sub_idx = [0, 1, 3]  # a closed D/ND-meeting subset of the carrier
    sub_cells = {}
    for op, arity in m.signature.operators():
        table = {}
        for args in product(range(3), repeat=arity):
            parent = m.cell(op, tuple(sub_idx[a] for a in args))
            table[args] = tuple(i for i, x in enumerate(sub_idx) if x in parent)
        sub_cells[op] = table
    sub = malg_from_sets(LOGIC_SIGNATURE, ("T", "t", "F"), sub_cells)
    assert is_submultialgebra(sub, m, sub_idx)
    mutated_cells = sets_of(sub)
    op = rng.choice(list(mutated_cells))
    args = rng.choice(list(mutated_cells[op]))
    cell = set(mutated_cells[op][args])
    outside = set(range(3)) - {i for i, x in enumerate(sub_idx)
                               if x in m.cell(op, tuple(sub_idx[a] for a in args))}
    if outside:
        mutated_cells[op][args] = tuple(sorted(cell | {outside.pop()}))
        mutated = malg_from_sets(LOGIC_SIGNATURE, ("T", "t", "F"), mutated_cells)
        assert not is_submultialgebra(mutated, m, sub_idx)


def test_signature_mismatch_raises():
    other = MultiAlg(Signature(unary=("h",)), ("x",), {"h": [0b1]})
    with pytest.raises(SignatureMismatch):
        is_submultialgebra(other, full_two(), (0,))
    with pytest.raises(SignatureMismatch):
        is_homomorphism(MaMap(other, full_two(), (0,)))


def test_maps_and_partitions_must_stay_in_range():
    m = m5()
    with pytest.raises(ValueError, match="leaves the target"):
        is_homomorphism(MaMap(m, m, (0, 1, 2, 3, 5)))
    with pytest.raises(ValueError, match="leaves the target"):
        is_submultialgebra(m, m, (0, 1, 2, 3, 5))
    # a negative index would read a row from its end
    with pytest.raises(ValueError, match="leaves the target"):
        is_homomorphism(MaMap(m, m, (0, 1, 2, 3, -1)))
    with pytest.raises(ValueError, match="leaves the target"):
        is_submultialgebra(m, m, (0, 1, 2, -1, 4))
    with pytest.raises(ValueError, match="without a label"):
        is_multicongruence(EquivRel((0, 0, 1, 1, 2), ("a", "b")), m)
    # a label with no element is an empty block, which no partition has
    with pytest.raises(ValueError, match="3 labels for 2 blocks"):
        EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b", "c"))
    # and every block is named by the caller
    with pytest.raises(TypeError, match="labels"):
        EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5)
    for block_of in ((0, 1, 1, 0, 1), (0, 2, 2, 0, 2)):
        gappy = EquivRel(block_of, ("a", "b", "c"))
        with pytest.raises(ValueError, match="empty block"):
            is_multicongruence(gappy, m)
        with pytest.raises(ValueError, match="empty block"):
            quotient(m, gappy)


def test_checks_read_the_target_at_mapped_tuples():
    # a source whose cells are the whole preimages of target cells inside
    # the map's image maps onto the target fully, under any map, repeated
    # or not; a source cell grown by an element mapped outside its target
    # cell does not map into it
    sig = Signature(constants=("e",), unary=("f",), binary=("g",))
    rng = random.Random(5)
    for size, length in product((1, 2, 3), (1, 2, 4)):
        for _ in range(10):
            mapping = [rng.randrange(size) for _ in range(length)]
            image = sorted(set(mapping))
            target = malg_from_sets(sig, "xyz"[:size], {
                op: {args: rng.sample(image, rng.randint(1, len(image)))
                     for args in product(range(size), repeat=arity)}
                for op, arity in sig.operators()})
            cells = {op: {args: [x for x in range(length) if mapping[x] in
                                 target.cell(op, tuple(mapping[a]
                                                       for a in args))]
                          for args in product(range(length), repeat=arity)}
                     for op, arity in sig.operators()}
            source = malg_from_sets(sig, "abcd"[:length], cells)
            f = MaMap(source, target, tuple(mapping))
            assert is_full_homomorphism(f) and is_homomorphism(f)
            op = rng.choice(["e", "f", "g"])
            args = rng.choice(list(cells[op]))
            outside = [x for x in range(length)
                       if x not in cells[op][args]]
            if outside:
                cells[op][args] = cells[op][args] + [rng.choice(outside)]
                grown = MaMap(malg_from_sets(sig, "abcd"[:length], cells),
                              target, tuple(mapping))
                assert not is_homomorphism(grown)
                assert not is_full_homomorphism(grown)


def test_one_element_maps_read_one_cell_per_table():
    # itemgetter of one index returns the bare item, not a 1-tuple
    assert _getter((2,))([1, 2, 3]) == (3,)
    # one-element maps come from the terminal algebra and from one-element
    # restrictions
    verdicts = set()
    for m in (m5(), full_two(), tiny({"f": {(0,): (0,), (1,): (0,)},
                                      "g": {(i, j): (i,) for i in range(2)
                                            for j in range(2)}})):
        one = terminal(m.signature)
        for x in range(m.size):
            at_x = {op: m.cell(op, (x,) * arity)
                    for op, arity in m.signature.operators()}
            closed = all(x in cell for cell in at_x.values())
            full = all(cell == (x,) for cell in at_x.values())
            verdicts.add((closed, full))
            assert is_homomorphism(MaMap(one, m, (x,))) == closed
            assert is_full_homomorphism(MaMap(one, m, (x,))) == full
            tables = _restricted_tables(m, [x])
            assert {op: list(table_cells(tables[op], arity))
                    for op, arity in m.signature.operators()} == {
                op: [int(x in cell)] for op, cell in at_x.items()}
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_an_empty_map_reads_no_cells():
    # itemgetter of no index raises; an empty map reads nothing
    assert _getter(())([1, 2, 3]) == ()
    empty = MultiAlg(SIG1, (), {"f": [], "g": []})
    assert empty.tables == {"f": [], "g": []} and empty.cell_count() == 0
    for m in (full_two(), empty):
        assert is_homomorphism(MaMap(empty, m, ()))
        assert _restricted_tables(m, []) == {"f": [], "g": []}


def test_identity_is_full_homomorphism():
    m = m5()
    assert is_full_homomorphism(identity(m))
    assert is_isomorphism(identity(m))


def test_random_non_structure_map_rejected():
    m = m5()
    # collapse everything onto T: the image of a designated cell meets only T,
    # but the target cell for (T,T) is all of D, and negation breaks too
    squash = MaMap(m, m, (0, 0, 0, 0, 0))
    assert not is_homomorphism(squash)


def test_hom_composition_closure_random():
    rng = random.Random(5)
    m = m5()
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    _, proj = quotient(m, theta)
    for _ in range(25):
        b = random_swap_substructure(rng, LogicId.MBC, A2)
        inc = MaMap(b.malg, m, tuple(
            full_swap(LogicId.MBC, A2).index_of[z] for z in b.snapshots))
        assert is_homomorphism(inc)
        assert is_homomorphism(compose_maps(identity(m), inc))
        assert is_homomorphism(compose_maps(proj, inc))


def test_compose_maps_refuses_maps_that_do_not_meet():
    three = full_swap(LogicId.MBCCIW, A2).malg
    five = m5()
    for f, g in ((identity(five), identity(three)),
                 (identity(three), identity(five))):
        with pytest.raises(ValueError, match="not composable"):
            compose_maps(f, g)


def test_epi_iff_surjective_small():
    rng = random.Random(9)
    m = m5()
    # surjective full quotient map: epi both ways
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    q, p = quotient(m, theta)
    assert is_homomorphism(p) and set(p.mapping) == set(range(q.size))
    assert epi_by_separation(p)
    # injective non-surjective inclusion: not epi, both ways
    sub = random_swap_substructure(rng, LogicId.MBC, A2, max_universe=3)
    while sub.malg.size >= 5:
        sub = random_swap_substructure(rng, LogicId.MBC, A2, max_universe=3)
    inc = MaMap(sub.malg, m, tuple(
        full_swap(LogicId.MBC, A2).index_of[z] for z in sub.snapshots))
    assert is_homomorphism(inc) and set(inc.mapping) != set(range(m.size))
    assert not epi_by_separation(inc)


def test_ma_product_empty_terminal_and_unary():
    # the empty product is refused with a one-line message, not IndexError
    with pytest.raises(ValueError, match="^the product needs at least one "
                                         "factor$"):
        ma_product([])
    one = terminal(SIG1)
    same, (proj,) = ma_product([one])
    assert same.tables == one.tables and proj.mapping == (0,)
    m = m5()
    prod, (proj,) = ma_product([m])
    assert is_isomorphism(proj)


def test_ma_product_cells_are_products_spot_check():
    m = m5()
    prod, projs = ma_product([m, m])
    assert prod.size == 25
    rng = random.Random(2)
    carrier = list(product(range(5), repeat=2))
    for _ in range(40):
        op = rng.choice(["&", "|", "->"])
        i, j = rng.randrange(25), rng.randrange(25)
        got = prod.cell(op, (i, j))
        a, b = carrier[i], carrier[j]
        want = {carrier.index((x, y))
                for x in m.cell(op, (a[0], b[0]))
                for y in m.cell(op, (a[1], b[1]))}
        assert set(got) == want
    for proj in projs:
        assert is_full_homomorphism(proj)


def test_ma_product_pairing_property():
    rng = random.Random(4)
    m = m5()
    prod, projs = ma_product([m, m])
    for _ in range(10):
        b = random_swap_substructure(rng, LogicId.MBC, A2)
        inc = tuple(full_swap(LogicId.MBC, A2).index_of[z] for z in b.snapshots)
        g0 = MaMap(b.malg, m, inc)
        g1 = MaMap(b.malg, m, inc)
        carrier = list(product(range(5), repeat=2))
        tupled = MaMap(b.malg, prod, tuple(
            carrier.index((g0.mapping[x], g1.mapping[x]))
            for x in range(b.malg.size)))
        assert is_homomorphism(tupled)
        for proj, g in ((projs[0], g0), (projs[1], g1)):
            assert compose_maps(proj, tupled).mapping == g.mapping


def test_multicongruence_identity_and_counterexample_partition():
    m = m5()
    assert is_multicongruence(EquivRel(tuple(range(m.size)), m.labels), m)
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    assert is_multicongruence(theta, m)
    # exhaustive check decides the singleton-T partition: block {T} cannot
    # chase the undesignated outputs required by designated inputs
    other = partition([[0], [1, 2, 3, 4]], 5)
    assert not is_multicongruence(other, m)


def test_multicongruence_agrees_with_definition_bruteforce():
    m = m5()
    rng = random.Random(13)
    for _ in range(30):
        assignment = [rng.randrange(3) for _ in range(5)]
        used = sorted(set(assignment))
        remap = {b: i for i, b in enumerate(used)}
        blocks = [[x for x in range(5) if remap[assignment[x]] == b]
                  for b in range(len(used))]
        rel = partition(blocks, 5)
        # definition: for related tuples, every output chases to a related one
        def related(x, y):
            return rel.block_of[x] == rel.block_of[y]
        want = True
        for op, arity in m.signature.operators():
            for args1 in product(range(5), repeat=arity):
                for args2 in product(range(5), repeat=arity):
                    if not all(related(a, b) for a, b in zip(args1, args2)):
                        continue
                    c1 = m.cell(op, args1)
                    c2 = m.cell(op, args2)
                    if not all(any(related(a, b) for b in c2) for a in c1):
                        want = False
        assert is_multicongruence(rel, m) == want


def test_quotient_identity_isomorphic():
    m = m5()
    q, p = quotient(m, EquivRel(tuple(range(m.size)), m.labels))
    assert is_isomorphism(p)


def test_quotient_counterexample_cells_all_two_blocks():
    m = m5()
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    q, p = quotient(m, theta)
    assert q.labels == ("a", "b")
    for op, arity in q.signature.operators():
        for args in product(range(q.size), repeat=arity):
            assert q.cell(op, args) == (0, 1)
    assert is_full_homomorphism(p)
    # quotient never rejects the relation silently
    with pytest.raises(ValueError):
        quotient(m, partition([[0], [1, 2, 3, 4]], 5))


def test_constant_operators_full_pipeline():
    sig = Signature(constants=("e",), binary=("g",))
    full_cell = {(i, j): (0, 1, 2) for i in range(3) for j in range(3)}
    m = malg_from_sets(sig, ("a", "b", "c"), {"e": {(): (0, 1)}, "g": full_cell})

    # constants must land in one block for a multicongruence
    merged = partition([[0, 1], [2]], 3)
    split = partition([[0], [1], [2]], 3)
    assert is_multicongruence(merged, m)
    assert not is_multicongruence(split, m)

    q, p = quotient(m, merged)
    assert q.cell("e", ()) == (0,)
    assert is_full_homomorphism(p)

    prod, projs = ma_product([m, m])
    assert len(prod.cell("e", ())) == 4
    for proj in projs:
        assert is_full_homomorphism(proj)

    # a map shrinking the constant's image stays a homomorphism only if the
    # image is still inside the target constant cell
    collapse = MaMap(m, m, (0, 0, 2))
    assert is_homomorphism(collapse)
    swap_map = MaMap(m, m, (2, 1, 0))
    assert not is_homomorphism(swap_map)  # sends the constant outside {a,b}


def test_to_json_uses_comma_joined_keys():
    j = full_two().to_json()
    assert j["carrier"] == ["a", "b"]
    assert j["ops"]["g"]["table"]["0,1"] == [0, 1]
    assert j["ops"]["f"]["table"]["1"] == [0, 1]
    assert j["signature"]["binary"] == ["g"]


def test_quotient_cells_never_empty_random():
    rng = random.Random(3)
    m = m5()
    found = 0
    for _ in range(60):
        assignment = [rng.randrange(2) for _ in range(5)]
        if len(set(assignment)) == 1:
            continue
        blocks = [[x for x in range(5) if assignment[x] == b] for b in range(2)]
        rel = partition(blocks, 5)
        if not is_multicongruence(rel, m):
            continue
        q, _ = quotient(m, rel)
        found += 1
        for op, _a in q.signature.operators():
            assert all(q.cell(op, args)
                       for args in product(range(q.size), repeat=_a))
    assert found > 0
