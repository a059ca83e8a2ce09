import random

import pytest

from swapkit.boolalg import (A2, CilError, ImplicationUndefined, NotALattice,
                             NotClassical, algebra_atoms, all_ba_homs,
                             atom_embedding, ba_product, boolean_law_failures,
                             cil_from_boolalg, compose_ba, duplicate,
                             identity_hom, is_ba_hom, is_cil_hom, make_cil,
                             powerset_algebra, universal_extension)
from helpers import (DIAMOND, PENTAGON, find_algebra_isomorphism,
                     rock_paper_scissors)


def test_powerset_sizes_and_degenerate():
    assert powerset_algebra(1).size == 2
    one = powerset_algebra(0)
    assert one.size == 1 and one.bot == one.top
    with pytest.raises(ValueError):
        powerset_algebra(17)


def test_powerset_identity_law():
    A = powerset_algebra(2)
    assert all(A.meet(A.top, x) == x for x in A.elements())


def test_boolean_law_suite_up_to_four_atoms():
    for n in range(5):
        A = powerset_algebra(n)
        assert boolean_law_failures(A.size, A.meet, A.join, A.bot, A.top,
                                    A.comp) == []


def test_ba_product_of_two_a2_is_powerset_two():
    prod, projs = ba_product([A2, A2])
    assert prod == powerset_algebra(2)
    # independent oracle: exhaust all bijections with the 4-element algebra
    assert find_algebra_isomorphism(prod, powerset_algebra(2)) is not None
    for h in projs:
        assert is_ba_hom(h)


def test_ba_product_empty_and_unary():
    prod, _ = ba_product([])
    assert prod.size == 1
    A = powerset_algebra(2)
    prod, (proj,) = ba_product([A])
    assert find_algebra_isomorphism(prod, A) is not None
    assert is_ba_hom(proj) and len(set(proj.mapping)) == prod.size


def test_atom_embedding_a2_is_identity():
    (h,) = atom_embedding(A2)
    assert h.mapping == (0, 1)


def test_atom_embedding_atom_membership():
    A = powerset_algebra(2)
    h0, h1 = atom_embedding(A)
    x = 0b01  # the first atom alone
    assert (h0(x), h1(x)) == (1, 0)


def test_atom_embedding_injective_three_atoms():
    A = powerset_algebra(3)
    homs = atom_embedding(A)
    assert all(is_ba_hom(h) for h in homs)
    images = {tuple(h(x) for h in homs) for x in A.elements()}
    assert len(images) == A.size


def test_atom_embedding_rejects_degenerate():
    with pytest.raises(ValueError):
        atom_embedding(powerset_algebra(0))


def test_all_ba_homs_small_counts():
    # homs correspond to maps from target atoms to source atoms
    assert len(all_ba_homs(A2, powerset_algebra(2))) == 1
    assert len(all_ba_homs(powerset_algebra(2), A2)) == 2
    assert len(all_ba_homs(powerset_algebra(2), powerset_algebra(2))) == 4
    for h in all_ba_homs(powerset_algebra(2), powerset_algebra(2)):
        assert is_ba_hom(h)


def test_compose_ba_is_hom():
    rng = random.Random(3)
    A, B, C = powerset_algebra(2), powerset_algebra(3), powerset_algebra(1)
    for _ in range(20):
        g = rng.choice(all_ba_homs(A, B))
        f = rng.choice(all_ba_homs(B, C))
        assert is_ba_hom(compose_ba(f, g))


# ----------------------------------------------------------------------
# Classical implicative lattices
# ----------------------------------------------------------------------

def _chain(n):
    labels = [str(i) for i in range(n)]
    meet = [[min(i, j) for j in range(n)] for i in range(n)]
    join = [[max(i, j) for j in range(n)] for i in range(n)]
    return labels, meet, join


def test_two_chain_is_classical():
    L = make_cil(*_chain(2))
    assert L.imp(1, 0) == 0
    assert L.imp(0, 0) == 1 and L.imp(0, 1) == 1 and L.imp(1, 1) == 1


def test_three_chain_fails_classicality_at_middle():
    # on the chain 0 < m < 1: m -> 0 = 0, and m | 0 = m != 1
    with pytest.raises(NotClassical) as err:
        make_cil(*_chain(3))
    assert err.value.witness == (1, 0)


def test_bad_tables_rejected():
    with pytest.raises(CilError):
        make_cil(["a", "b"], [[0, 0], [0, 0]], [[0, 1], [1, 0]])


# ----------------------------------------------------------------------
# Broken operations: each lattice law fails on a table made to break it
# ----------------------------------------------------------------------

def _calls(table):
    return lambda x, y: table[x][y]


@pytest.mark.parametrize("size, meet, join, want", [
    (2, lambda x, y: x, max, ["commutativity", "complementation"]),
    (3, rock_paper_scissors, max,
     ["associativity", "absorption", "distributivity", "identity",
      "complementation"]),
    (2, min, min, ["absorption", "identity", "complementation"]),
    (5, _calls(DIAMOND[0]), _calls(DIAMOND[1]), ["distributivity"]),
], ids=["commutativity", "associativity", "absorption", "distributivity"])
def test_boolean_law_failures_names_each_broken_law(size, meet, join, want):
    assert boolean_law_failures(size, meet, join, 0, size - 1) == want


_NON_ASSOCIATIVE = [[rock_paper_scissors(x, y) for y in range(3)]
                    for x in range(3)]


@pytest.mark.parametrize("labels, meet, join, error, message", [
    ("ab", [[0, 0], [1, 1]], [[0, 1], [0, 1]], NotALattice,
     "commutativity fails"),
    ("abc", _NON_ASSOCIATIVE, _NON_ASSOCIATIVE, NotALattice,
     "associativity fails"),
    ("ab", [[0, 0], [0, 1]], [[0, 0], [0, 1]], NotALattice,
     "absorption fails"),
    # non-distributive lattices pass as lattices and fail at the implication
    ("01234", *DIAMOND, ImplicationUndefined,
     "1 -> 0: supremum of the candidate set escapes the set"),
    ("01234", *PENTAGON, ImplicationUndefined,
     "2 -> 1: supremum of the candidate set escapes the set"),
], ids=["non-commutative", "non-associative", "non-absorptive", "M3", "N5"])
def test_make_cil_rejects_broken_tables(labels, meet, join, error, message):
    with pytest.raises(CilError) as err:
        make_cil(list(labels), meet, join)
    assert type(err.value) is error
    assert str(err.value) == message


def test_powerset_as_cil_matches_boolean_implication():
    A = powerset_algebra(2)
    L = cil_from_boolalg(A)
    for x in A.elements():
        for y in A.elements():
            assert L.imp(x, y) == A.imp(x, y)


def test_every_accepted_cil_with_bottom_is_boolean():
    # finite lattices always have bottoms, so acceptance implies Boolean laws
    for n in (1, 2, 3):
        L = cil_from_boolalg(powerset_algebra(n))
        bot = L.bottom()
        assert bot is not None
        assert boolean_law_failures(
            L.size, L.meet, L.join, bot, L.top,
            lambda x: L.imp(x, bot)) == []


# ----------------------------------------------------------------------
# Duplication
# ----------------------------------------------------------------------

def test_duplicate_two_chain_clauses():
    L = make_cil(*_chain(2))
    D = duplicate(L)
    one_tag1 = 2 * 1 + 1   # (1,1) = top
    one_tag0 = 2 * 1       # (1,0) = bottom
    zero_tag0 = 2 * 0
    assert D.top == one_tag1 and D.bot == one_tag0
    # (1,1) & (1,0) = (1 -> 1, 0) = (1,0)
    assert D.meet(one_tag1, one_tag0) == one_tag0
    # (0,0) | (1,1) = (0 -> 1, 1) = (1,1)
    assert D.join(zero_tag0, one_tag1) == one_tag1


def test_duplicate_passes_boolean_suite_up_to_eight():
    for n in (1, 2, 3):
        L = cil_from_boolalg(powerset_algebra(n))
        duplicate(L)  # constructor asserts the Boolean laws


def test_duplicate_two_element_is_four_element_boolean():
    L = cil_from_boolalg(powerset_algebra(1))
    D = duplicate(L)
    assert D.size == 4
    assert find_algebra_isomorphism(D, powerset_algebra(2)) is not None


def test_duplicate_embedding_is_injective_cil_hom():
    L = cil_from_boolalg(powerset_algebra(2))
    D = duplicate(L)
    assert len(set(D.embed)) == L.size
    assert is_cil_hom(L, D, D.embed)


def test_universal_extension_triangle_and_complement():
    # identity of the two-element lattice into the two-element algebra
    L = make_cil(*_chain(2))
    h = [0, 1]
    star = universal_extension(L, A2, h)
    assert is_ba_hom(star)
    D = star.source
    for a in range(L.size):
        assert star.mapping[D.embed[a]] == h[a]           # triangle commutes
        assert star.mapping[D.embed[a] ^ 1] == A2.comp(h[a])


def test_universal_extension_rejects_non_hom():
    L = cil_from_boolalg(powerset_algebra(1))
    # constant-to-top preserves the bottom-free lattice signature (every
    # preservation equation collapses to top = top), so it must extend
    assert is_cil_hom(L, A2, [1, 1])
    universal_extension(L, A2, [1, 1])
    # a genuine non-homomorphism, found by brute force, must be rejected
    bad = None
    for bits in range(4):
        mapping = [bits & 1, bits >> 1]
        if not is_cil_hom(L, A2, mapping):
            bad = mapping
            break
    assert bad is not None
    with pytest.raises(CilError):
        universal_extension(L, A2, bad)


def test_universal_extension_unique_for_small_cases():
    L = make_cil(*_chain(2))
    h = [0, 1]
    star = universal_extension(L, A2, h)
    D = star.source
    matches = [g for g in all_ba_homs(D, A2)
               if all(g.mapping[D.embed[a]] == h[a] for a in range(L.size))]
    assert len(matches) == 1 and matches[0].mapping == star.mapping

    L2 = cil_from_boolalg(powerset_algebra(1))
    B = powerset_algebra(2)
    for h2 in ([0, 3], [0, 1], [0, 2]):
        if not is_cil_hom(L2, B, h2):
            continue
        star2 = universal_extension(L2, B, h2)
        D2 = star2.source
        matches = [g for g in all_ba_homs(D2, B)
                   if all(g.mapping[D2.embed[a]] == h2[a] for a in range(L2.size))]
        assert len(matches) == 1 and matches[0].mapping == star2.mapping


def test_algebra_atoms_of_duplication():
    L = make_cil(*_chain(2))
    D = duplicate(L)
    assert len(algebra_atoms(D)) == 2


def test_json_exports():
    assert powerset_algebra(2).to_json() == {"atoms": 2}
    L = cil_from_boolalg(powerset_algebra(1))
    j = L.to_json()
    assert j["carrier"] == ["0", "1"]
    assert j["meet"] == [[0, 0], [0, 1]]
    assert identity_hom(A2).to_json() == {"map": [0, 1]}
