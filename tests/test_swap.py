import random
from itertools import product

import pytest

from swapkit.boolalg import A2, all_ba_homs, identity_hom, powerset_algebra
from swapkit.formula import parse
from swapkit.logics import CHAIN, LogicId
from swapkit.multialg import (is_full_homomorphism, is_homomorphism,
                              is_isomorphism, is_multicongruence,
                              is_submultialgebra, ma_product, quotient)
from swapkit.swap import (SwapStructure, characterize, duality_star,
                          find_swap_decoding, full_swap, is_swap_for,
                          kalman_classic, kalman_star, kleene_law_failures,
                          mbc_quotient_counterexample, product_iso,
                          random_swap_substructure, represent, universe,
                          validates)
from helpers import malg_from_sets, sets_of

L = LogicId
P2 = powerset_algebra(2)


def test_universe_mbc_over_a2_is_the_named_five():
    assert universe(L.MBC, A2) == ((1, 0, 1), (1, 1, 0), (1, 0, 0),
                                   (0, 1, 1), (0, 1, 0))


def test_universe_pairs_over_a2():
    assert universe(L.MBCCIW, A2) == ((1, 0), (1, 1), (0, 1))
    assert universe(L.CPLE, A2) == ((1, 0), (0, 1))
    assert universe(L.LFI1O, A2) == universe(L.MBCCIW, A2)


def test_universe_cple_plus_is_all_triples():
    assert len(universe(L.CPLE_PLUS, A2)) == 8
    assert len(universe(L.CPLE_PLUS, P2)) == 64


def test_universe_sizes_two_atoms():
    # per-atom counting: three (z1,z2) bit patterns, z3 constrained
    assert len(universe(L.MBC, P2)) == 25
    assert len(universe(L.MBCCIW, P2)) == 9
    assert len(universe(L.CPLE, P2)) == 4


def test_full_swap_cells_match_defining_clauses_randomly():
    rng = random.Random(1)
    for logic in L:
        for algebra in (A2, P2):
            b = full_swap(logic, algebra)
            assert is_swap_for(logic, b)
            # spot: every binary cell is exactly the first-coordinate class
            if logic in (L.CPLE_PLUS, L.MBC, L.MBCCIW):
                for _ in range(20):
                    i = rng.randrange(b.malg.size)
                    j = rng.randrange(b.malg.size)
                    cell = b.malg.cell("&", (i, j))
                    want = algebra.meet(b.snapshots[i][0], b.snapshots[j][0])
                    assert {b.snapshots[u][0] for u in cell} == {want}
                    assert all(z in b.index_of for z in
                               (b.snapshots[u] for u in cell))


def test_full_swap_respects_the_cell_cap(monkeypatch):
    from swapkit.multialg import CellCapExceeded
    # Ci over four atoms: 81 snapshots, 3 * 81**2 + 2 * 81 = 19845 cells;
    # nothing else builds it, so the cache cannot answer first
    P4 = powerset_algebra(4)
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "19844")
    with pytest.raises(CellCapExceeded, match="would need 19845 cells"):
        full_swap(L.CI, P4)
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "19845")
    b = full_swap(L.CI, P4)
    assert b.malg.size == 81 and b.malg.cell_count() == 19845


def test_full_mbc_tested_against_mbcciw_fails():
    # the snapshot (1,0,0) breaks the forced third coordinate
    assert not is_swap_for(L.MBCCIW, full_swap(L.MBC, A2))


def test_full_cple_plus_tested_against_mbc_fails():
    assert not is_swap_for(L.MBC, full_swap(L.CPLE_PLUS, A2))


def test_pair_candidates_test_against_triple_logics():
    b = full_swap(L.MBCCIW, A2)
    assert is_swap_for(L.MBC, b)
    assert is_swap_for(L.CPLE_PLUS, b)
    assert not is_swap_for(L.MBCCI, b)  # consistency cells not pinned


def test_full_structures_nest_as_submultialgebras():
    # CPLe inside Ci inside mbCci inside mbCciw, snapshot for snapshot
    pair_chain = [L.CPLE, L.CI, L.MBCCI, L.MBCCIW]
    for smaller, larger in zip(pair_chain, pair_chain[1:]):
        b_small = full_swap(smaller, A2)
        b_large = full_swap(larger, A2)
        emb = [b_large.index_of[z] for z in b_small.snapshots]
        assert is_submultialgebra(b_small.malg, b_large.malg, emb), \
            (smaller, larger)
    # pairs re-encode as triples to land inside the five-valued structure,
    # which sits inside the unconstrained one
    b3 = full_swap(L.MBCCIW, A2)
    m5 = full_swap(L.MBC, A2)
    emb = [m5.index_of[(z[0], z[1], A2.comp(A2.meet(z[0], z[1])))]
           for z in b3.snapshots]
    assert is_submultialgebra(b3.malg, m5.malg, emb)
    top = full_swap(L.CPLE_PLUS, A2)
    emb = [top.index_of[z] for z in m5.snapshots]
    assert is_submultialgebra(m5.malg, top.malg, emb)


def test_class_chain_on_full_structures():
    for algebra in (A2, P2):
        for logic in L:
            b = full_swap(logic, algebra)
            stats = [is_swap_for(lg, b) for lg in CHAIN]
            assert all(not x or y for x, y in zip(stats, stats[1:]))
            assert stats[-1]  # everything lands in the base class


def test_pi1_image_is_subalgebra_on_substructures():
    rng = random.Random(8)
    for _ in range(40):
        logic = rng.choice(list(L))
        b = random_swap_substructure(rng, logic, P2, max_universe=12)
        image = {z[0] for z in b.snapshots}
        A = b.algebra
        assert A.bot in image
        for x in image:
            for y in image:
                assert A.meet(x, y) in image
                assert A.join(x, y) in image
                assert A.imp(x, y) in image


def test_validates_ax10_and_gentle_explosion_on_full_mbc():
    b = full_swap(L.MBC, A2)
    assert validates(b, parse("A | ~A"))
    assert validates(b, parse("@A -> (A -> (~A -> B))"))


def test_validates_ciw_fails_on_full_mbc():
    assert not validates(full_swap(L.MBC, A2), parse("@A | (A & ~A)"))


def test_validates_consistency_or_on_ciore():
    assert validates(full_swap(L.CIORE, A2), parse("(@A | @B) <-> @(A & B)"))


def test_characterize_examples():
    assert characterize(L.MBC, full_swap(L.MBC, A2))
    assert not characterize(L.MBC, full_swap(L.CPLE_PLUS, A2))
    assert characterize(L.MBCCI, full_swap(L.CI, A2))
    assert characterize(L.CPLE_PLUS, full_swap(L.CPLE_PLUS, P2))


def test_characterize_memo_is_order_free_and_per_structure():
    logics = list(L)
    rng = random.Random(23)
    for _ in range(24):
        logic = rng.choice(logics)
        algebra = rng.choice((A2, P2))
        seed = rng.getrandbits(32)
        forward = random_swap_substructure(random.Random(seed), logic,
                                           algebra, max_universe=8)
        expected = [is_swap_for(lg, forward) for lg in logics]
        assert [characterize(lg, forward) for lg in logics] == expected
        backward = random_swap_substructure(random.Random(seed), logic,
                                            algebra, max_universe=8)
        assert backward._validity is None
        assert [characterize(lg, backward)
                for lg in reversed(logics)] == expected[::-1]
    # structures that differ on a schema keep separate answers
    assert characterize(L.CIORE, full_swap(L.CIORE, A2))
    assert not characterize(L.CIORE, full_swap(L.MBC, A2))
    assert characterize(L.CIORE, full_swap(L.CIORE, A2))


def test_characterize_matches_structural_on_closed_restrictions():
    from swapkit.swap import closed_subuniverse_restrictions
    for logic in (L.MBCCIW, L.CI, L.LFI1O):
        for cand in closed_subuniverse_restrictions(logic, A2):
            for test_logic in L:
                assert characterize(test_logic, cand) == \
                    is_swap_for(test_logic, cand)


def test_characterize_agreement_under_single_cell_mutations():
    # perturb one cell of a full structure (shrink it, or splice in another
    # carrier element) and check the structural and axiomatic membership
    # tests still move together for every logic
    from swapkit.formula import LOGIC_SIGNATURE
    rng = random.Random(9)
    for logic_src in (L.MBC, L.MBCCIW, L.MBCCI, L.CI, L.LFI1O, L.CIORE):
        full = full_swap(logic_src, A2)
        for _ in range(30):
            tables = sets_of(full.malg)
            op = rng.choice(["&", "|", "->", "~", "@"])
            args = rng.choice(list(tables[op]))
            cell = set(tables[op][args])
            if rng.random() < 0.5 and len(cell) > 1:
                cell.remove(rng.choice(sorted(cell)))
            else:
                cell.add(rng.randrange(full.malg.size))
            tables[op][args] = tuple(sorted(cell))
            malg = malg_from_sets(LOGIC_SIGNATURE, full.malg.labels, tables)
            cand = SwapStructure(logic_src, A2, malg, full.snapshots)
            for logic in L:
                assert characterize(logic, cand) == is_swap_for(logic, cand), \
                    (logic_src, op, args, tables[op][args], logic)


# ----------------------------------------------------------------------
# Functor
# ----------------------------------------------------------------------

def test_kalman_star_identity():
    lifted = kalman_star(L.MBC, identity_hom(A2))
    assert lifted.mapping == tuple(range(5))


def test_kalman_star_componentwise():
    h = all_ba_homs(P2, A2)[0]
    lifted = kalman_star(L.MBC, h)
    src = full_swap(L.MBC, P2)
    tgt = full_swap(L.MBC, A2)
    for i, z in enumerate(src.snapshots):
        assert tgt.snapshots[lifted.mapping[i]] == tuple(h(c) for c in z)
    assert is_homomorphism(lifted)


def test_kalman_star_preserves_injectivity():
    for h in all_ba_homs(A2, powerset_algebra(3)):
        if len(set(h.mapping)) == h.source.size:
            for logic in (L.MBC, L.CI, L.LFI1O):
                lifted = kalman_star(logic, h)
                assert len(set(lifted.mapping)) == lifted.source.size


def test_kalman_star_rejects_non_hom():
    from swapkit.boolalg import BaHom
    bad = BaHom(A2, A2, (1, 0))  # swaps bottom and top
    with pytest.raises(ValueError):
        kalman_star(L.MBC, bad)


def test_product_iso_single_factor():
    iso, _, _, _ = product_iso(L.MBC, [A2])
    assert is_isomorphism(iso)


def test_product_iso_two_factors_full_check():
    iso, prod, projs, alg = product_iso(L.MBC, [A2, A2])
    assert prod.size == 25 and alg == P2
    assert is_isomorphism(iso)
    # preservation clauses hold with equality because the map is full
    assert is_full_homomorphism(iso)


def test_products_of_substructures_stay_in_class():
    rng = random.Random(6)
    for _ in range(10):
        b1 = random_swap_substructure(rng, L.MBC, A2)
        b2 = random_swap_substructure(rng, L.MBC, A2)
        prod_malg, _ = ma_product([b1.malg, b2.malg])
        snaps = []
        for i, j in product(range(b1.malg.size), range(b2.malg.size)):
            z, w = b1.snapshots[i], b2.snapshots[j]
            snaps.append(tuple((zc | (wc << 1)) for zc, wc in zip(z, w)))
        cand = SwapStructure(L.MBC, P2, prod_malg, snaps)
        assert is_swap_for(L.MBC, cand)


def test_substructures_stay_in_class_and_are_submultialgebras():
    rng = random.Random(12)
    for logic in L:
        for _ in range(10):
            b = random_swap_substructure(rng, logic, A2)
            assert is_swap_for(logic, b)
            full = full_swap(logic, A2)
            embedding = [full.index_of[z] for z in b.snapshots]
            assert is_submultialgebra(b.malg, full.malg, embedding)


# ----------------------------------------------------------------------
# Representation
# ----------------------------------------------------------------------

def test_represent_single_atom_is_bijective():
    result = represent(L.MBC, full_swap(L.MBC, A2))
    assert result.index_size == 1
    assert sorted(result.hmap.mapping) == list(range(5))
    assert is_homomorphism(result.hmap)


def test_represent_two_atoms_injective_hom():
    result = represent(L.MBC, full_swap(L.MBC, P2))
    assert result.index_size == 2
    assert result.product.size == 25
    assert len(set(result.hmap.mapping)) == 25
    assert is_homomorphism(result.hmap)


def test_represent_random_ci_substructures():
    rng = random.Random(3)
    for _ in range(10):
        b = random_swap_substructure(rng, L.CI, P2)
        result = represent(L.CI, b)
        assert len(set(result.hmap.mapping)) == b.malg.size
        assert is_homomorphism(result.hmap)


def test_represent_rejects_degenerate_and_non_members():
    with pytest.raises(ValueError):
        represent(L.MBC, full_swap(L.MBC, powerset_algebra(0)))
    with pytest.raises(ValueError):
        represent(L.MBCCI, full_swap(L.MBCCIW, A2))


# ----------------------------------------------------------------------
# Pair construction and duality
# ----------------------------------------------------------------------

def test_kalman_classic_n3():
    K = kalman_classic(A2)
    assert [K.label(z) for z in K.carrier] == ["F", "f", "T"]
    assert K.neg(K.center) == K.center
    assert kleene_law_failures(K) == []


def test_kalman_involution_two_atoms():
    K = kalman_classic(P2)
    for z in K.carrier:
        assert K.neg(K.neg(z)) == z


def test_nelson_arrow_defines_the_three_valued_implication():
    # x ->J y := (x -> y) & (~y -> ~x), evaluated over the pairs
    K = kalman_classic(A2)
    F, f, T = K.carrier

    def imp_j(x, y):
        return K.meet(K.arrow(x, y), K.arrow(K.neg(y), K.neg(x)))

    table = {(T, T): T, (T, f): f, (T, F): F,
             (f, T): T, (f, f): T, (f, F): f,
             (F, T): T, (F, f): T, (F, F): T}
    for (x, y), want in table.items():
        assert imp_j(x, y) == want


def test_duality_star_constants_and_bijection():
    star = duality_star(A2)
    assert star[(0, 0)] == (1, 1)   # center to t
    assert star[(1, 0)] == (0, 1)   # T to F
    assert star[(0, 1)] == (1, 0)   # F to T
    for n in (1, 2, 3):
        A = powerset_algebra(n)
        st = duality_star(A)
        assert set(st.values()) == set(universe(L.MBCCIW, A))
        assert len(set(st.values())) == len(st)


def test_cple_full_structures_are_boolean_algebras():
    # read single-valued, the structure is the backing algebra in disguise:
    # first projection is an isomorphism, negation becomes complement and
    # the consistency operator is constantly top
    for n in (1, 2, 3):
        A = powerset_algebra(n)
        b = full_swap(L.CPLE, A)
        first = {i: z[0] for i, z in enumerate(b.snapshots)}
        assert sorted(first.values()) == list(A.elements())
        for op, ba_op in (("&", A.meet), ("|", A.join), ("->", A.imp)):
            for i in range(b.malg.size):
                for j in range(b.malg.size):
                    (u,) = b.malg.cell(op, (i, j))
                    assert first[u] == ba_op(first[i], first[j])
        for i in range(b.malg.size):
            (u,) = b.malg.cell("~", (i,))
            assert first[u] == A.comp(first[i])
            (u,) = b.malg.cell("@", (i,))
            assert first[u] == A.top


def test_characterize_agreement_on_full_structures_three_atoms():
    A3 = powerset_algebra(3)
    for src in L:
        cand = full_swap(src, A3)
        assert is_swap_for(src, cand)
        for logic in L:
            assert characterize(logic, cand) == is_swap_for(logic, cand), \
                (src, logic)


# ----------------------------------------------------------------------
# Quotient counterexample
# ----------------------------------------------------------------------

def test_quotient_counterexample_end_to_end():
    m5, theta, quot, proj = mbc_quotient_counterexample()
    assert is_multicongruence(theta, m5.malg)
    assert all(quot.cell(op, args) == (0, 1)
               for op, arity in quot.signature.operators()
               for args in product(range(quot.size), repeat=arity))
    assert is_full_homomorphism(proj)
    assert find_swap_decoding(L.MBC, quot, A2) is None
    assert find_swap_decoding(L.MBC, quot, P2) is None
    # the obstruction is logic-independent: x -> x forces both first
    # coordinates to 1, against the required zero in the first projection
    assert find_swap_decoding(L.CPLE_PLUS, quot, A2) is None


def test_identity_quotient_still_decodes():
    m5, _, _, _ = mbc_quotient_counterexample()
    from swapkit.multialg import EquivRel
    q, _ = quotient(m5.malg, EquivRel.identity(m5.malg))
    assert find_swap_decoding(L.MBC, q, A2) is not None
