import random
import re
from itertools import product

import pytest

from swapkit.boolalg import A2, identity_hom, powerset_algebra
from swapkit.formula import LOGIC_SIGNATURE, Signature, parse
from swapkit.logics import CHAIN, LogicId
from swapkit.multialg import (MultiAlg, is_full_homomorphism, is_homomorphism,
                              is_isomorphism, is_multicongruence,
                              is_submultialgebra, ma_product, quotient)
from swapkit import swap
from swapkit.swap import (CACHE_SIZE, KalmanAlgebra, SwapStructure,
                          characterize, closed_subuniverse_restrictions,
                          duality_star, find_swap_decoding, full_swap,
                          is_swap_for, kalman_star, kleene_law_failures,
                          mbc_quotient_counterexample, power_of_a2,
                          product_iso, random_swap_substructure, represent,
                          universe, validates)
from helpers import (all_ba_homs, clause_cell, lattice_from_order,
                     malg_from_sets, rock_paper_scissors, sets_of)

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


def _admitted_by_clauses(logic, algebra, z) -> bool:
    """The universe clauses of the module docstring, written out again."""
    top = algebra.top
    z1, z2 = z[0], z[1]
    z3 = z[2] if len(z) == 3 else top & ~(z1 & z2)
    if logic is L.CPLE_PLUS:
        return True
    if logic is L.CPLE:
        return z2 == top & ~z1 and z3 == top
    return z1 | z2 == top and (z1 & z2 & z3 == 0 if logic is L.MBC else
                               z3 == top & ~(z1 & z2))


@pytest.mark.parametrize("atoms", range(5))
def test_universe_is_every_admitted_tuple_in_ascending_order(atoms):
    # beyond A2 the universe is built as a power of the one over A2; over
    # A2 it is in the named order instead
    A = powerset_algebra(atoms)
    for logic in L:
        width = 2 if logic.pair_mode else 3
        want = [z for z in product(A.elements(), repeat=width)
                if _admitted_by_clauses(logic, A, z)]
        got = universe(logic, A)
        assert (sorted(got) if atoms == 1 else list(got)) == want, logic


def test_swap_caches_share_one_bound_above_every_logic_to_three_atoms():
    for cached in (universe, swap._full_structure, power_of_a2):
        assert cached.cache_info().maxsize == CACHE_SIZE
    assert CACHE_SIZE > len(L) * 3


def test_full_swap_cells_match_defining_clauses_randomly():
    # every cell over A2, 200 random cells over P2, against the clauses
    # written out independently in helpers.clause_cell
    rng = random.Random(1)
    for logic in L:
        for algebra in (A2, P2):
            b = full_swap(logic, algebra)
            assert is_swap_for(logic, b)
            cells = [(op, args) for op, arity in LOGIC_SIGNATURE.operators()
                     for args in product(range(b.malg.size), repeat=arity)]
            if algebra is P2:
                cells = rng.sample(cells, min(200, len(cells)))
            for op, args in cells:
                assert set(b.malg.cell(op, args)) == clause_cell(
                    logic, algebra, b.snapshots, op, args), (logic, op, args)


@pytest.mark.parametrize("max_universe", [0, -1])
def test_draws_refuse_a_universe_bound_below_one(monkeypatch, max_universe):
    from swapkit.multialg import CellCapExceeded
    # 0 once meant "no bound" and slipped past the check that an unbounded
    # draw makes: mbC over A2 needs 85 cells
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "84")
    rng = random.Random(3)
    with pytest.raises(ValueError, match="max_universe must be at least 1") \
            as refused:
        random_swap_substructure(rng, L.MBC, A2, max_universe=max_universe)
    assert not isinstance(refused.value, CellCapExceeded)
    assert rng.random() == random.Random(3).random()  # nothing was drawn
    monkeypatch.delenv("SWAPKIT_MAX_CELLS")
    assert random_swap_substructure(random.Random(3), L.MBC, A2,
                                    max_universe=1).malg.size


#: sha256 prefix of ``_sampler_record()``; any change to a draw, to the RNG
#: calls a draw makes, to a closed restriction or to a membership verdict
#: changes it
SAMPLER_DIGEST = "165ffbaaf713ef27"


def _sampler_record():
    """Every draw of a fixed grid (snapshots, labels, tables and the next
    random number), every closed restriction over A2, and the verdicts of
    the one- and two-atom draws against every logic, as text."""
    lines = []
    for logic in L:
        for atoms in (1, 2, 3):
            A = powerset_algebra(atoms)
            for max_universe in (None, 8, 24):
                seeds = 6
                if max_universe is None and atoms == 3:
                    # a draw from the whole 3-atom universe takes seconds
                    # for CPLe+ and a quarter of a second for mbC
                    seeds = {L.CPLE_PLUS: 0, L.MBC: 1}.get(logic, seeds)
                for seed in range(seeds):
                    rng = random.Random(seed)
                    b = random_swap_substructure(rng, logic, A, max_universe)
                    lines.append(repr((logic.name, atoms, max_universe, seed,
                                       b.snapshots, b.malg.labels,
                                       list(b.malg.tables.items()),
                                       rng.getrandbits(32))))
                    if atoms < 3:
                        lines.append(repr([is_swap_for(lg, b) for lg in L]))
        for cand in closed_subuniverse_restrictions(logic, A2):
            lines.append(repr((logic.name, cand.snapshots, cand.malg.labels,
                               list(cand.malg.tables.items()))))
    return "\n".join(lines)


def test_draws_restrictions_and_verdicts_match_the_recorded_digest():
    import hashlib
    digest = hashlib.sha256(_sampler_record().encode()).hexdigest()[:16]
    assert digest == SAMPLER_DIGEST


#: sha256 prefix of ``_lift_record()``; any change to a product isomorphism,
#: a representation, a lifted homomorphism or a multicongruence verdict
#: changes it
LIFT_DIGEST = "06c5fee89d06d59d"


def _partitions(elements):
    """Every partition of a list, as a list of blocks."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for blocks in _partitions(rest):
        yield [[first]] + blocks
        for k in range(len(blocks)):
            yield blocks[:k] + [[first] + blocks[k]] + blocks[k + 1:]


def _lift_record():
    """The product isomorphisms of every logic over the structures-workload
    families and (3,) up to 125 elements, the representations of the full
    structures over 1-3 atoms and of seeded draws (pair and triple
    encodings crossed), every lifted homomorphism between 1- and 2-atom
    algebras, and the multicongruence verdict and quotient of every
    partition of the five-element mbC structure, as text."""
    from swapkit.multialg import EquivRel
    lines = []
    algebras = [powerset_algebra(n) for n in (1, 2, 3)]
    for logic in L:
        per_atom = len(universe(logic, A2))
        for family in ((1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (3,)):
            if per_atom ** sum(family) > 125:
                continue
            iso, _, _, alg = product_iso(
                logic, [algebras[n - 1] for n in family])
            lines.append(repr((logic.name, family, alg.atoms, iso.mapping)))
        for A in algebras:
            result = represent(logic, full_swap(logic, A))
            lines.append(repr((logic.name, A.atoms, result.index_size,
                               result.hmap.mapping)))
            for seed in range(20):
                b = random_swap_substructure(random.Random(seed), logic, A,
                                             max_universe=24)
                result = represent(logic, b)
                lines.append(repr((logic.name, A.atoms, seed,
                                   result.hmap.mapping)))
        for src in algebras[:2]:
            for tgt in algebras[:2]:
                for h in all_ba_homs(src, tgt):
                    lines.append(repr((logic.name, h.mapping,
                                       kalman_star(logic, h).mapping)))
    for A in algebras:
        # a pair structure read as triples, represented for a pair logic,
        # and read as pairs, represented for a triple logic
        pairs = full_swap(L.MBCCIW, A)
        triples = SwapStructure(
            L.MBC, A, pairs.malg,
            [(z[0], z[1], A.comp(A.meet(z[0], z[1]))) for z in pairs.snapshots])
        for logic, cand in ((L.MBCCIW, triples), (L.MBC, pairs)):
            lines.append(repr((logic.name, A.atoms,
                               represent(logic, cand).hmap.mapping)))
    m5 = full_swap(L.MBC, A2).malg
    for blocks in _partitions(list(range(m5.size))):
        theta = EquivRel.from_blocks(
            blocks, m5.size, [f"b{b}" for b in range(len(blocks))])
        verdict = is_multicongruence(theta, m5)
        quot = quotient(m5, theta)[0] if verdict else None
        lines.append(repr((blocks, verdict,
                           quot and list(quot.tables.items()))))
    return "\n".join(lines)


def test_lifts_and_quotients_match_the_recorded_digest():
    import hashlib
    digest = hashlib.sha256(_lift_record().encode()).hexdigest()[:16]
    assert digest == LIFT_DIGEST


def test_exhaustive_searches_count_before_enumerating(monkeypatch):
    # 10 atoms: 4**10 pairs or 8**10 triples to filter; only the per-atom
    # universe over A2 may be enumerated
    from swapkit import swap
    seen = []

    def counted(logic, algebra):
        seen.append(algebra.atoms)
        return universe(logic, algebra)

    monkeypatch.setattr(swap, "universe", counted)
    P10 = powerset_algebra(10)
    with pytest.raises(ValueError, match="capped at 10"):
        next(swap.closed_subuniverse_restrictions(L.MBCCIW, P10))
    m5 = full_swap(L.MBC, A2)
    with pytest.raises(ValueError, match="keep the instances small"):
        find_swap_decoding(L.MBC, m5.malg, P10)
    assert seen and set(seen) == {1}


def test_full_mbc_tested_against_mbcciw_fails():
    # the snapshot (1,0,0) breaks the forced third coordinate
    assert not is_swap_for(L.MBCCIW, full_swap(L.MBC, A2))


def test_full_cple_plus_tested_against_mbc_fails():
    assert not is_swap_for(L.MBC, full_swap(L.CPLE_PLUS, A2))


def test_a_snapshot_outside_the_algebra_is_in_no_class():
    # (1, 0, 3) meets the mbC universe clause bitwise but is no snapshot
    # over A2: each logic's full structure lacks it, so none admits it
    full = full_swap(L.MBC, A2)
    snaps = [(1, 0, 3), *full.snapshots[1:]]
    cand = SwapStructure(L.MBC, A2, full.malg, snaps)
    assert [is_swap_for(logic, cand) for logic in L] == [False] * len(L)
    assert not characterize(L.MBC, cand)


def test_a_swap_structure_needs_the_logic_signature():
    negation_only = Signature(unary=("~",))
    malg = MultiAlg(negation_only, ["T", "F"], {"~": [0b10, 0b01]})
    with pytest.raises(ValueError, match=re.escape(repr(negation_only))):
        SwapStructure(L.MBC, A2, malg, [(1, 0), (0, 1)])


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


def test_characterization_agrees_with_membership_at_three_atoms():
    # one atom past criterion 4: every full structure over 8 to 512
    # snapshots, closed restrictions and random draws of each logic
    from swapkit.verify import characterization_agreement
    ok, lines = characterization_agreement(
        seed=11, atom_counts=(3,), samples_per_logic=50, big_universe_samples=40)
    assert ok, "\n".join(lines)
    assert len(lines) == 1 + 2 * len(L)


def test_characterize_checks_the_base_class_once_per_candidate(monkeypatch):
    import swapkit.swap as swap
    rng = random.Random(5)
    for logic in L:
        cand = random_swap_substructure(rng, logic, P2, max_universe=8)
        expected = [is_swap_for(lg, cand) for lg in L]
        calls = []

        def counted(lg, structure, check=swap.is_swap_for):
            calls.append(lg)
            return check(lg, structure)

        monkeypatch.setattr(swap, "is_swap_for", counted)
        assert [characterize(lg, cand) for lg in L] == expected
        assert calls == [L.CPLE_PLUS]
        monkeypatch.undo()


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


def test_characterize_agreement_under_single_cell_mutations():
    # perturb one cell of a full structure (shrink it, or splice in another
    # carrier element) and check the structural and axiomatic membership
    # tests still move together for every logic
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
        assert tgt.snapshots[lifted.mapping[i]] == tuple(h.mapping[c] for c in z)
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


def test_represent_does_not_recheck_the_full_structure(monkeypatch):
    import swapkit.swap as swap

    def refuse(logic, cand):
        raise AssertionError("is_swap_for was called")

    monkeypatch.setattr(swap, "is_swap_for", refuse)
    for logic in (L.MBC, L.CPLE_PLUS):
        result = represent(logic, full_swap(logic, P2))
        assert len(set(result.hmap.mapping)) == result.hmap.source.size
    # every other structure, a full one of another logic too, is checked
    with pytest.raises(AssertionError, match="is_swap_for was called"):
        represent(L.MBCCI, full_swap(L.MBCCIW, A2))
    with pytest.raises(AssertionError, match="is_swap_for was called"):
        represent(L.CI, random_swap_substructure(random.Random(3), L.CI, P2))


# ----------------------------------------------------------------------
# Pair construction and duality
# ----------------------------------------------------------------------

def test_kalman_classic_n3():
    K = KalmanAlgebra(A2)
    assert [K.label(z) for z in K.carrier] == ["F", "f", "T"]
    assert K.neg(K.center) == K.center
    assert kleene_law_failures(K) == []


def test_kalman_carrier_is_every_disjoint_pair_in_layer_order():
    for n in range(5):
        A = powerset_algebra(n)
        want = sorted(((a, b) for a in A.elements() for b in A.elements()
                       if a & b == 0), key=lambda z: (z[0], -z[1]))
        assert KalmanAlgebra(A).carrier == tuple(want)


def test_kleene_law_failures_respects_the_cell_cap(monkeypatch):
    from swapkit.multialg import CellCapExceeded
    K = KalmanAlgebra(P2)  # 9 pairs, 729 triples
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "728")
    with pytest.raises(CellCapExceeded, match="would visit 729 triples"):
        kleene_law_failures(K)
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "729")
    assert kleene_law_failures(K) == []


def _by_position(op):
    """A pair-algebra operation that acts as op on carrier positions."""
    return lambda self, z, w: self.carrier[op(self.index_of[z],
                                              self.index_of[w])]


#: M3 with a chain of four above its top, to cover the nine pairs over P2
_DIAMOND_AND_TAIL = lattice_from_order(
    [{0}, {0, 1}, {0, 2}, {0, 3}] + [set(range(y + 1)) for y in range(4, 9)])


@pytest.mark.parametrize("algebra, patches, want", [
    (A2, {"meet": _by_position(lambda x, y: x)},
     ["commutativity", "de-morgan", "bounds"]),
    (A2, {"meet": _by_position(rock_paper_scissors)},
     ["associativity", "absorption", "distributivity", "de-morgan", "bounds",
      "kleene"]),
    (A2, {"join": KalmanAlgebra.meet},
     ["absorption", "de-morgan", "bounds", "kleene"]),
    (P2, {"meet": _by_position(lambda x, y: _DIAMOND_AND_TAIL[0][x][y]),
          "join": _by_position(lambda x, y: _DIAMOND_AND_TAIL[1][x][y])},
     ["distributivity", "de-morgan", "kleene"]),
    (A2, {"neg": lambda self, z: z}, ["de-morgan", "kleene", "center"]),
], ids=["commutativity", "associativity", "absorption", "distributivity",
        "negation"])
def test_kleene_law_failures_names_each_broken_law(monkeypatch, algebra,
                                                   patches, want):
    K = KalmanAlgebra(algebra)
    for name, method in patches.items():
        monkeypatch.setattr(KalmanAlgebra, name, method)
    assert kleene_law_failures(K) == want


def test_kalman_involution_two_atoms():
    K = KalmanAlgebra(P2)
    for z in K.carrier:
        assert K.neg(K.neg(z)) == z


def test_nelson_arrow_defines_the_three_valued_implication():
    # x ->J y := (x -> y) & (~y -> ~x), evaluated over the pairs
    K = KalmanAlgebra(A2)
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
    identity = EquivRel(tuple(range(m5.malg.size)), m5.malg.labels)
    q, _ = quotient(m5.malg, identity)
    assert find_swap_decoding(L.MBC, q, A2) is not None
