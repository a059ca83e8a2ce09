import random
from itertools import product

import pytest

from swapkit.boolalg import A2
from swapkit.formula import LOGIC_SIGNATURE, Signature
from swapkit.logics import LogicId
from swapkit.multialg import (CellCapExceeded, EquivRel, MaMap, MultiAlg,
                              SignatureMismatch, cell_cap, compose_maps,
                              direct_image, epi_mono_factorize, identity_map,
                              is_epimorphism, is_full_homomorphism,
                              is_homomorphism, is_isomorphism,
                              is_multicongruence, is_submultialgebra,
                              ma_product, ma_terminal, quotient)
from swapkit.swap import full_swap, random_swap_substructure
from helpers import epi_by_separation, malg_from_sets, sets_of

SIG1 = Signature(unary=("f",), binary=("g",))


def tiny(cells):
    """Two-element multialgebra over one unary and one binary operator."""
    return malg_from_sets(SIG1, ("a", "b"), cells)


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


def test_flat_tables_and_cell_accessor():
    m = MultiAlg(SIG1, ("a", "b"), {"f": [2, 3], "g": [1, 2, 3, 1]})
    assert m.cell("f", (0,)) == (1,) and m.cell("f", (1,)) == (0, 1)
    assert [m.cell("g", (i, j)) for i in range(2) for j in range(2)] == \
        [(0,), (1,), (0, 1), (0,)]
    assert m.cell_count() == 6
    # equal cells share one object, so a table costs one slot per cell
    whole = [int("1" * 70, 2) for _ in range(70)]
    assert whole[0] is not whole[1]
    big = MultiAlg(Signature(unary=("f",)), [f"x{i}" for i in range(70)],
                   {"f": whole})
    assert all(cell is big.tables["f"][0] for cell in big.tables["f"])
    for bad in [(2,), (0, 1), (-1,)]:
        with pytest.raises(IndexError):
            m.cell("f", bad)


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
    with pytest.raises(ValueError, match="without a label"):
        is_multicongruence(EquivRel((0, 0, 1, 1, 2), ("a", "b")), m)


def test_identity_is_full_homomorphism():
    m = m5()
    assert is_full_homomorphism(identity_map(m))
    assert is_isomorphism(identity_map(m))


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
        assert is_homomorphism(compose_maps(identity_map(m), inc))
        assert is_homomorphism(compose_maps(proj, inc))


def test_epi_iff_surjective_small():
    rng = random.Random(9)
    m = m5()
    # surjective full quotient map: epi both ways
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    q, p = quotient(m, theta)
    assert is_epimorphism(p)
    assert epi_by_separation(p)
    # injective non-surjective inclusion: not epi, both ways
    sub = random_swap_substructure(rng, LogicId.MBC, A2, max_universe=3)
    while sub.malg.size >= 5:
        sub = random_swap_substructure(rng, LogicId.MBC, A2, max_universe=3)
    inc = MaMap(sub.malg, m, tuple(
        full_swap(LogicId.MBC, A2).index_of[z] for z in sub.snapshots))
    assert is_homomorphism(inc)
    assert not is_epimorphism(inc)
    assert not epi_by_separation(inc)


def test_ma_product_empty_terminal_and_unary():
    one = ma_terminal(SIG1)
    assert one.size == 1 and one.cell("g", (0, 0)) == (0,)
    empty, projs = ma_product([], signature=SIG1)
    assert empty == one and projs == []
    with pytest.raises(ValueError):
        ma_product([])
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


def test_ma_product_cap():
    m = m5()
    with pytest.raises(CellCapExceeded):
        ma_product([m] * 8, cap=10 ** 4)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_cell_cap_rejects_malformed_environment(monkeypatch, value):
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", value)
    with pytest.raises(ValueError, match="SWAPKIT_MAX_CELLS must be a "
                                         "positive integer"):
        cell_cap()


def test_cell_cap_reads_environment(monkeypatch):
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "1234")
    assert cell_cap() == 1234
    monkeypatch.delenv("SWAPKIT_MAX_CELLS")
    assert cell_cap() == 10 ** 6


def test_direct_image_identity_and_inclusion():
    m = m5()
    img, onto, inc = direct_image(identity_map(m))
    assert img == m and onto.mapping == inc.mapping == tuple(range(5))
    rng = random.Random(7)
    sub = random_swap_substructure(rng, LogicId.MBC, A2, max_universe=4)
    embedding = tuple(full_swap(LogicId.MBC, A2).index_of[z]
                      for z in sub.snapshots)
    inc_map = MaMap(sub.malg, m, embedding)
    img2, onto2, _ = direct_image(inc_map)
    # preimages of an injective map are singletons: image cells = source cells
    assert onto2.mapping == tuple(range(sub.malg.size))
    assert img2.tables == sub.malg.tables


def test_direct_image_of_quotient_map_is_quotient():
    m = m5()
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    q, p = quotient(m, theta)
    img, _onto, _inc = direct_image(p)
    assert img == q


def test_epi_mono_factorization():
    m = m5()
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    q, p = quotient(m, theta)
    onto, inc = epi_mono_factorize(p)
    assert is_epimorphism(onto)
    assert is_homomorphism(inc) and len(set(inc.mapping)) == inc.source.size
    assert compose_maps(inc, onto).mapping == p.mapping
    # injective source map: the epi part is an isomorphism
    ident = identity_map(m)
    onto2, _ = epi_mono_factorize(ident)
    assert is_isomorphism(onto2)


def test_multicongruence_identity_and_counterexample_partition():
    m = m5()
    assert is_multicongruence(EquivRel.identity(m), m)
    theta = EquivRel.from_blocks([[0, 3], [1, 2, 4]], 5, labels=("a", "b"))
    assert is_multicongruence(theta, m)
    # exhaustive check decides the singleton-T partition: block {T} cannot
    # chase the undesignated outputs required by designated inputs
    other = EquivRel.from_blocks([[0], [1, 2, 3, 4]], 5)
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
        rel = EquivRel.from_blocks(blocks, 5)
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
    q, p = quotient(m, EquivRel.identity(m))
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
        quotient(m, EquivRel.from_blocks([[0], [1, 2, 3, 4]], 5))


def test_constant_operators_full_pipeline():
    sig = Signature(constants=("e",), binary=("g",))
    full_cell = {(i, j): (0, 1, 2) for i in range(3) for j in range(3)}
    m = malg_from_sets(sig, ("a", "b", "c"), {"e": {(): (0, 1)}, "g": full_cell})

    # constants must land in one block for a multicongruence
    merged = EquivRel.from_blocks([[0, 1], [2]], 3)
    split = EquivRel.from_blocks([[0], [1], [2]], 3)
    assert is_multicongruence(merged, m)
    assert not is_multicongruence(split, m)

    q, p = quotient(m, merged)
    assert q.cell("e", ()) == (0,)
    assert is_full_homomorphism(p)

    prod, projs = ma_product([m, m])
    assert len(prod.cell("e", ())) == 4
    for proj in projs:
        assert is_full_homomorphism(proj)

    img, onto, inc = direct_image(identity_map(m))
    assert img.cell("e", ()) == (0, 1)

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
        rel = EquivRel.from_blocks(blocks, 5)
        if not is_multicongruence(rel, m):
            continue
        q, _ = quotient(m, rel)
        found += 1
        for op, _a in q.signature.operators():
            assert all(q.cell(op, args)
                       for args in product(range(q.size), repeat=_a))
    assert found > 0
