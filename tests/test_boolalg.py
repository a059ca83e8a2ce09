import random

import pytest

from swapkit.boolalg import (A2, algebra_atoms, atom_embedding, ba_product,
                             compose_ba, is_ba_hom, powerset_algebra)
from swapkit.swap import _lattice_law_failures
from helpers import (DIAMOND, all_ba_homs, find_algebra_isomorphism,
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
        E = A.elements()
        assert _lattice_law_failures(E, A.meet, A.join) == []
        assert all(A.meet(x, A.top) == x and A.join(x, A.bot) == x
                   for x in E)
        assert all(A.meet(x, A.comp(x)) == A.bot
                   and A.join(x, A.comp(x)) == A.top for x in E)


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
    assert (h0.mapping[x], h1.mapping[x]) == (1, 0)


def test_atom_embedding_injective_three_atoms():
    A = powerset_algebra(3)
    homs = atom_embedding(A)
    assert all(is_ba_hom(h) for h in homs)
    images = {tuple(h.mapping[x] for h in homs) for x in A.elements()}
    assert len(images) == A.size


def test_atom_embedding_rejects_degenerate():
    with pytest.raises(ValueError):
        atom_embedding(powerset_algebra(0))


def test_algebra_atoms_are_the_minimal_nonzero_elements():
    for n in range(5):
        A = powerset_algebra(n)
        nonzero = [x for x in A.elements() if x != A.bot]
        minimal = [x for x in nonzero
                   if all(A.meet(x, y) in (A.bot, x) for y in nonzero)]
        assert algebra_atoms(A) == minimal


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
# Broken operations: each lattice law fails on a table made to break it
# ----------------------------------------------------------------------

def _calls(table):
    return lambda x, y: table[x][y]


@pytest.mark.parametrize("size, meet, join, want", [
    (2, lambda x, y: x, max, ["commutativity"]),
    (3, rock_paper_scissors, max,
     ["associativity", "absorption", "distributivity"]),
    (2, min, min, ["absorption"]),
    (5, _calls(DIAMOND[0]), _calls(DIAMOND[1]), ["distributivity"]),
], ids=["commutativity", "associativity", "absorption", "distributivity"])
def test_boolean_law_failures_names_each_broken_law(size, meet, join, want):
    assert _lattice_law_failures(range(size), meet, join) == want
