import random
from pathlib import Path

import pytest

from swapkit.formula import parse, to_text
from swapkit.hilbert import (SCHEMAS, Axiom, ModusPonens, Premise, Proof,
                             axioms_of, check_proof, derives_ciw_bottom,
                             parse_proof)
from swapkit.logics import LogicId
from swapkit.nmatrix import decide_logic
from helpers import random_proof

L = LogicId
PROOFS = Path(__file__).parent / "proofs"


def load(name):
    return parse_proof((PROOFS / name).read_text())


def test_axiom_counts():
    assert len(axioms_of(L.CPLE_PLUS)) == 9
    assert len(axioms_of(L.MBC)) == 11
    assert axioms_of(L.MBC)[-2:] == ("Ax10", "bc1")
    assert "cons" in axioms_of(L.CPLE)
    assert set(axioms_of(L.CIORE)) >= {"ce", "co1", "co2", "co3"}
    assert set(axioms_of(L.LFI1O)) >= {"ce", "neg_or", "neg_and", "neg_imp"}


def test_biconditional_axioms_stored_desugared():
    assert to_text(SCHEMAS["co1"]) == "(@A | @B -> @(A & B)) & (@(A & B) -> @A | @B)"
    assert SCHEMAS["co1"] == parse("(@A | @B) <-> @(A & B)")


def test_simple_weakening_proof():
    proof = load("deduction_chain.proof")
    result = check_proof(L.CPLE_PLUS, proof)
    assert result.ok
    assert result.conclusion == parse("q -> p")


def test_bottom_fixture_checks_in_mbc_and_extensions():
    proof = load("bottom.proof")
    for logic in (L.MBC, L.MBCCIW, L.MBCCI, L.CI, L.CPLE, L.LFI1O, L.CIORE):
        result = check_proof(logic, proof)
        assert result.ok, (logic, result.reason)
        assert result.conclusion == parse("q")


def test_bottom_fixture_fails_in_cple_plus():
    # bc1 is not available below mbC
    result = check_proof(L.CPLE_PLUS, load("bottom.proof"))
    assert not result.ok and "bc1" in result.reason


def test_derives_ciw_bottom_generated():
    for logic in (L.MBC, L.CI, L.CIORE):
        proof = derives_ciw_bottom(logic)
        result = check_proof(logic, proof)
        assert result.ok
        assert result.conclusion == parse("q")
    # semantic cross-check through the characteristic matrix
    assert decide_logic(L.MBC, [parse("(p & ~p) & @p")], parse("q")).holds
    with pytest.raises(ValueError):
        derives_ciw_bottom(L.CPLE_PLUS)


def test_non_instance_axiom_rejected():
    proof = Proof((), (Axiom("Ax1", parse("p -> q")),))
    result = check_proof(L.MBC, proof)
    assert not result.ok and result.step == 0
    assert "not an instance" in result.reason


def test_bad_references_rejected():
    proof = Proof((parse("p"),), (Premise(0), ModusPonens(0, 1)))
    result = check_proof(L.MBC, proof)
    assert not result.ok and "earlier" in result.reason
    proof = Proof((), (Premise(0),))
    assert not check_proof(L.MBC, proof).ok


def test_mp_shape_mismatch():
    proof = Proof((parse("p"), parse("q")),
                  (Premise(0), Premise(1), ModusPonens(0, 1)))
    result = check_proof(L.MBC, proof)
    assert not result.ok and result.step == 2


def test_mp_roles_resolve_in_either_order():
    base = (Premise(0), Axiom("Ax1", parse("p -> (q -> p)")))
    for mp in (ModusPonens(0, 1), ModusPonens(1, 0)):
        result = check_proof(L.MBC, Proof((parse("p"),), base + (mp,)))
        assert result.ok and result.conclusion == parse("q -> p")


def test_biconditional_projection_fixtures():
    for name in ("neg_or_left.proof", "neg_or_right.proof"):
        result = check_proof(L.LFI1O, load(name))
        assert result.ok
        # the conclusions are the two implications of the biconditional
        assert decide_logic(L.LFI1O, [], result.conclusion).holds


def test_axiom_set_monotone_where_sets_nest():
    rng = random.Random(3)
    logics = list(L)
    for _ in range(40):
        weaker = rng.choice(logics)
        stronger = rng.choice(logics)
        if not set(axioms_of(weaker)) <= set(axioms_of(stronger)):
            continue
        proof = random_proof(rng, weaker, max_steps=10)
        if check_proof(weaker, proof).ok:
            assert check_proof(stronger, proof).ok


def test_proof_file_roundtrip():
    # the file is the generated derivation, written out step by step
    assert load("bottom.proof") == derives_ciw_bottom(L.MBC)


def test_proof_file_errors():
    with pytest.raises(ValueError):
        parse_proof("axiom Ax1")
    with pytest.raises(ValueError):
        parse_proof("mp 1")
    with pytest.raises(ValueError):
        parse_proof("banana p -> q")


def test_proof_file_fields_split_on_any_blanks():
    bottom = (PROOFS / "bottom.proof").read_text()
    tabbed = bottom.replace("axiom Ax4 ", "axiom\tAx4\t").replace(
        "premise ", "premise\t").replace("mp ", "mp \t ")
    assert tabbed != bottom
    assert parse_proof(tabbed) == parse_proof(bottom)
    assert parse_proof("premise\tp\naxiom Ax1\tp -> (q -> p)\nmp 1 2\n") == \
        parse_proof("premise p\naxiom Ax1 p -> (q -> p)\nmp 1 2\n")


@pytest.mark.parametrize("digits", ["\u00b2 1", "1 \u0661", "\uff11 2"])
def test_step_numbers_are_ascii_digits(digits):
    with pytest.raises(ValueError) as exc:
        parse_proof("premise p\nmp " + digits + "\n")
    assert str(exc.value) == "line 2: mp needs two step numbers"


@pytest.mark.parametrize("bad_line", ["premise (q &", "axiom Ax1 (q &"])
def test_formula_errors_name_their_line(bad_line):
    text = "# a comment\npremise p\n\n" + bad_line + "\nmp 1 1\n"
    with pytest.raises(ValueError) as exc:
        parse_proof(text)
    assert str(exc.value) == "line 4: unexpected end of input (at offset 4)"


def test_fuzzed_proofs_check_and_are_sound():
    rng = random.Random(17)
    checked = 0
    for _ in range(120):
        logic = rng.choice([lg for lg in L if lg is not L.CPLE_PLUS])
        proof = random_proof(rng, logic, max_steps=12)
        result = check_proof(logic, proof)
        assert result.ok, result.reason
        checked += 1
        verdict = decide_logic(logic, list(proof.premises), result.conclusion)
        assert verdict.holds
    assert checked >= 100
