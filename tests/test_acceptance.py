"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its time budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import random
import time
from itertools import product
from pathlib import Path

from swapkit.boolalg import A2, powerset_algebra
from swapkit.cli import run
from swapkit.formula import parse
from swapkit.hilbert import SCHEMAS, check_proof, derives_ciw_bottom, parse_proof
from swapkit.logics import LogicId
from swapkit.multialg import is_full_homomorphism, is_multicongruence
from swapkit.nmatrix import (characteristic_matrix, decide_logic,
                             extended_closure, induced_valuation,
                             is_bivaluation, is_legal_valuation, Bivaluation)
from swapkit.swap import (find_swap_decoding, full_swap,
                          mbc_quotient_counterexample)
from swapkit.verify import (characterization_agreement, class_chain_check,
                            duality_suite, kalman_suite, representation_suite)
from helpers import random_bivaluation, random_formula, random_legal_valuation, random_proof

L = LogicId
GOLDEN = Path(__file__).parent / "golden"


class Budget:
    def __init__(self, number: int, title: str, seconds: float):
        self.number = number
        self.title = title
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.title}): {status} "
              f"in {elapsed:.2f}s (budget {self.seconds:g}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded its {self.seconds:g}s budget"


def cells(structure, op, *args):
    labels = structure.malg.labels
    key = tuple(structure.malg.labels.index(a) for a in args)
    return {labels[u] for u in structure.malg.cell(op, key)}


def grid_matches(structure, op, grid):
    names = structure.malg.labels
    binary = isinstance(grid[0][0], list)
    for i, row in enumerate(grid):
        if binary:
            for j, want in enumerate(row):
                if cells(structure, op, names[i], names[j]) != set(want):
                    return False
        elif cells(structure, op, names[i]) != set(row):
            return False
    return True


D5 = ["T", "t", "t0"]
ND5 = ["F", "f0"]


def test_criterion_1_m5_tables():
    with Budget(1, "mbC table reproduction", 1.0):
        buf = io.StringIO()
        assert run(["tables", "mbc"], out=buf) == 0
        assert buf.getvalue() == (GOLDEN / "tables_mbc.txt").read_text()

        m5 = full_swap(L.MBC, A2)
        assert m5.malg.labels == ("T", "t", "t0", "F", "f0")
        names = m5.malg.labels
        designated = {names[i] for i, z in enumerate(m5.snapshots) if z[0] == 1}
        assert designated == set(D5)
        block = {"D": D5, "ND": ND5}
        # the five tables in designated/undesignated block form
        and_grid = [["D"] * 3 + ["ND"] * 2] * 3 + [["ND"] * 5] * 2
        or_grid = [["D"] * 5] * 3 + [["D"] * 3 + ["ND"] * 2] * 2
        imp_grid = [["D"] * 3 + ["ND"] * 2] * 3 + [["D"] * 5] * 2
        neg_col = ["ND", "D", "ND", "D", "D"]
        circ_col = ["D", "ND", "ND", "D", "ND"]
        for op, grid in (("&", and_grid), ("|", or_grid), ("->", imp_grid)):
            for i, row in enumerate(grid):
                for j, want in enumerate(row):
                    assert cells(m5, op, names[i], names[j]) == set(block[want])
        for op, col in (("~", neg_col), ("@", circ_col)):
            for i, want in enumerate(col):
                assert cells(m5, op, names[i]) == set(block[want])


def test_criterion_2_three_valued_tables():
    with Budget(2, "three-valued table reproduction", 1.0):
        tT, F, T, t = ["t", "T"], ["F"], ["T"], ["t"]
        base_and = [[tT, tT, F], [tT, tT, F], [F, F, F]]
        base_or = [[tT, tT, tT], [tT, tT, tT], [tT, tT, F]]
        base_imp = [[tT, tT, F], [tT, tT, F], [tT, tT, tT]]

        s = full_swap(L.MBCCIW, A2)
        assert s.malg.labels == ("T", "t", "F")
        assert grid_matches(s, "&", base_and)
        assert grid_matches(s, "|", base_or)
        assert grid_matches(s, "->", base_imp)
        assert grid_matches(s, "~", [F, tT, tT])
        assert grid_matches(s, "@", [tT, F, tT])

        s = full_swap(L.MBCCI, A2)
        assert grid_matches(s, "&", base_and)
        assert grid_matches(s, "~", [F, tT, tT])
        assert grid_matches(s, "@", [T, F, T])

        s = full_swap(L.CI, A2)
        assert grid_matches(s, "&", base_and)
        assert grid_matches(s, "~", [F, tT, T])
        assert grid_matches(s, "@", [T, F, T])

        s = full_swap(L.LFI1O, A2)
        assert grid_matches(s, "&", [[T, t, F], [t, t, F], [F, F, F]])
        assert grid_matches(s, "|", [[T, T, T], [T, t, t], [T, t, F]])
        assert grid_matches(s, "->", [[T, t, F], [T, t, F], [T, T, T]])
        assert grid_matches(s, "~", [F, t, T])
        assert grid_matches(s, "@", [T, F, T])

        s = full_swap(L.CIORE, A2)
        assert grid_matches(s, "&", [[T, T, F], [T, t, F], [F, F, F]])
        assert grid_matches(s, "|", [[T, T, T], [T, t, T], [T, T, F]])
        assert grid_matches(s, "->", [[T, T, F], [T, t, F], [T, T, T]])
        assert grid_matches(s, "~", [F, t, T])
        assert grid_matches(s, "@", [T, F, T])


def test_criterion_3_decision_suite():
    with Budget(3, "decision suite", 5.0):
        p, q = parse("p"), parse("q")
        np_, cp = parse("~p"), parse("@p")
        assert not decide_logic(L.MBC, [p, np_], q).holds                   # (a)
        assert decide_logic(L.MBC, [cp, p, np_], q).holds                   # (b)
        assert decide_logic(L.MBC, [], parse("p | ~p")).holds               # (c)
        ciw = parse("@p | (p & ~p)")                                        # (d)
        assert not decide_logic(L.MBC, [], ciw).holds
        assert decide_logic(L.MBCCIW, [], ciw).holds
        ci = parse("~@p -> (p & ~p)")                                       # (e)
        assert not decide_logic(L.MBCCIW, [], ci).holds
        assert decide_logic(L.MBCCI, [], ci).holds
        cf = parse("~~p -> p")                                              # (f)
        assert not decide_logic(L.MBCCI, [], cf).holds
        assert decide_logic(L.CI, [], cf).holds
        assert decide_logic(L.CPLE, [], cp).holds                           # (g)
        for name in ("ce", "neg_or", "neg_and", "neg_imp"):                 # (h)
            assert decide_logic(L.LFI1O, [], SCHEMAS[name]).holds, name
        for name in ("ce", "co1", "co2", "co3"):
            assert decide_logic(L.CIORE, [], SCHEMAS[name]).holds, name


def test_criterion_4_characterization_equivalence():
    with Budget(4, "characterization equivalence", 60.0):
        ok, lines = characterization_agreement(
            seed=2026, atom_counts=(1, 2), samples_per_logic=200,
            big_universe_samples=40)
        assert ok, "\n".join(lines)


def test_criterion_5_representation_theorems():
    with Budget(5, "representation theorems", 120.0):
        ok, lines = representation_suite(
            seed=2026, full_atoms=3, randoms_per_logic=50)
        assert ok, "\n".join(lines)


def test_criterion_6_quotient_counterexample():
    with Budget(6, "quotient counterexample", 1.0):
        m5, theta, quot, proj = mbc_quotient_counterexample()
        blocks = [{m5.malg.labels[x] for x in block} for block in theta.blocks()]
        assert blocks == [{"T", "F"}, {"t", "t0", "f0"}]
        assert is_multicongruence(theta, m5.malg)
        assert all(quot.cell(op, args) == (0, 1)
                   for op, arity in quot.signature.operators()
                   for args in product(range(quot.size), repeat=arity))
        assert is_full_homomorphism(proj)
        assert find_swap_decoding(L.MBC, quot, A2) is None
        assert find_swap_decoding(L.MBC, quot, powerset_algebra(2)) is None


def test_criterion_7_kalman_functor_laws():
    with Budget(7, "functor laws", 90.0):
        ok, lines = kalman_suite(seed=2026, pairs=100, max_atoms=3)
        assert ok, "\n".join(lines)
        ok, lines = class_chain_check(seed=2026, samples=40)
        assert ok, "\n".join(lines)


def test_criterion_8_duality_and_twist():
    with Budget(8, "duality and twist identities", 30.0):
        ok, lines = duality_suite(max_atoms=3)
        assert ok, "\n".join(lines)


def test_criterion_9_bivaluation_bridge():
    with Budget(9, "bivaluation bridge", 120.0):
        rng = random.Random(2026)
        for logic in (L.MBC, L.LFI1O, L.CIORE):
            for _ in range(1000):
                base = [random_formula(rng, ["p", "q"], 3)]
                b = random_bivaluation(rng, logic, base)
                assert is_bivaluation(b)
                pv = induced_valuation(b)
                assert is_legal_valuation(pv)
                assert all(pv.designates(f) == (b.values[f] == 1)
                           for f in pv.domain)
            matrix = characteristic_matrix(logic)
            for _ in range(1000):
                base = [random_formula(rng, ["p", "q"], 3)]
                dom = extended_closure(base)
                pv = random_legal_valuation(rng, matrix, dom)
                mu = {f: int(pv.designates(f)) for f in dom}
                assert is_bivaluation(Bivaluation(logic, tuple(base), mu))


def test_criterion_10_proof_checker_soundness():
    with Budget(10, "proof checker soundness", 60.0):
        proofs_dir = Path(__file__).parent / "proofs"
        for path in sorted(proofs_dir.glob("*.proof")):
            proof = parse_proof(path.read_text())
            logic = L.LFI1O if "neg_or" in path.name else L.MBC
            result = check_proof(logic, proof)
            assert result.ok, (path.name, result.reason)
            assert decide_logic(logic, list(proof.premises),
                                result.conclusion).holds, path.name
        bottom = derives_ciw_bottom(L.MBC)
        result = check_proof(L.MBC, bottom)
        assert result.ok
        assert decide_logic(L.MBC, list(bottom.premises),
                            result.conclusion).holds
        rng = random.Random(2026)
        agreements = 0
        for _ in range(110):
            logic = rng.choice([lg for lg in L if lg is not L.CPLE_PLUS])
            proof = random_proof(rng, logic, max_steps=12)
            result = check_proof(logic, proof)
            assert result.ok, result.reason
            assert decide_logic(logic, list(proof.premises),
                                result.conclusion).holds
            agreements += 1
        assert agreements >= 100
