import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapkit.boolalg import A2, powerset_algebra
from swapkit.formula import (Binary, Unary, Var, circ, conj, disj, imp, neg,
                             parse, subformula_closure)
from swapkit.logics import LogicId
from swapkit.nmatrix import (Bivaluation, PartialValuation,
                             UnsupportedLogicError, characteristic_matrix, characteristic_structure,
                             clause_failures, decide,
                             decide_logic, extended_closure,
                             induced_valuation, is_bivaluation,
                             is_legal_valuation, nmatrix_of)
from swapkit.swap import full_swap, random_swap_substructure
from helpers import (extend_valuation, random_bivaluation, random_formula,
                     random_legal_valuation, substitute)

L = LogicId
p, q = Var("p"), Var("q")


def labels_of(matrix, indices):
    return {matrix.malg.labels[i] for i in indices}


def test_designated_sets():
    m5 = nmatrix_of(full_swap(L.MBC, A2))
    assert labels_of(m5, m5.designated) == {"T", "t", "t0"}
    m3 = nmatrix_of(full_swap(L.MBCCIW, A2))
    assert labels_of(m3, m3.designated) == {"T", "t"}
    mc = nmatrix_of(full_swap(L.CPLE_PLUS, A2))
    assert len(mc.designated) == 4


def test_nmatrix_rejects_degenerate_backing():
    with pytest.raises(ValueError):
        nmatrix_of(full_swap(L.MBC, powerset_algebra(0)))
    # the structure itself still reports its designated positions
    assert full_swap(L.MBC, powerset_algebra(0)).designated == (0,)


def test_characteristic_structure_is_the_cached_full_structure():
    # one cache: the full structure over A2 that full_swap returns
    for logic in L:
        if logic is L.CPLE_PLUS:
            with pytest.raises(UnsupportedLogicError):
                characteristic_structure(logic)
        else:
            assert characteristic_structure(logic) is full_swap(logic, A2)


def test_decide_paraconsistency_and_gentle_explosion():
    m5 = nmatrix_of(full_swap(L.MBC, A2))
    v = decide(m5, [p, neg(p)], q)
    assert not v.holds
    assert is_legal_valuation(v.countermodel)
    assert v.countermodel.designates(p)
    assert v.countermodel.designates(neg(p))
    assert not v.countermodel.designates(q)
    assert decide(m5, [circ(p), p, neg(p)], q).holds
    assert decide(m5, [], parse("p | ~p")).holds


def test_decide_neg_conjunction_de_morgan_in_lfi1():
    m = nmatrix_of(full_swap(L.LFI1O, A2))
    assert decide(m, [], parse("~(p & q) <-> (~p | ~q)")).holds


def test_countermodels_are_deterministic_and_minimal():
    m5 = nmatrix_of(full_swap(L.MBC, A2))
    got = decide(m5, [p, neg(p)], q).countermodel.to_json()
    assert got == {"p": "t", "~p": "T", "q": "F"}
    again = decide(m5, [p, neg(p)], q).countermodel.to_json()
    assert got == again


def test_goal_that_is_a_premise_holds():
    m5 = nmatrix_of(full_swap(L.MBC, A2))
    assert decide(m5, [p], p).holds


@pytest.mark.parametrize("text", [" & ".join(["p"] * 10 ** 5),
                                  "~" * 10 ** 4 + "p"],
                         ids=["and-chain", "nested-neg"])
def test_decide_deep_formulas_at_the_default_recursion_limit(text):
    goal = parse(text)
    verdict = decide_logic(L.MBC, [], goal)
    assert not verdict.holds
    assert is_legal_valuation(verdict.countermodel)
    matrix = characteristic_matrix(L.MBC)
    assert verdict.countermodel.values[goal] not in matrix.designated


def test_queries_leave_no_cyclic_garbage():
    import gc
    premises, goal = [parse("p"), parse("@q")], parse("~p -> (q | ~q)")
    gc.collect()
    gc.disable()
    try:
        for _ in range(300):
            decide_logic(L.MBC, premises, goal)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_query_compile_cache_is_bounded_and_reused():
    from swapkit.nmatrix import _compile
    matrix = characteristic_matrix(L.MBC)
    maxsize = _compile.cache_info().maxsize
    goal = Var("fresh")
    for _ in range(3 * maxsize):
        goal = neg(goal)
        decide(matrix, [p], goal)
        info = _compile.cache_info()
        assert info.currsize <= maxsize
    hits = _compile.cache_info().hits
    decide(characteristic_matrix(L.CI), [p], goal)
    assert _compile.cache_info().hits == hits + 1


#: Formulas over two variables, so that subformulas are often shared.
FORMULAS = st.recursive(
    st.sampled_from((p, q)),
    lambda sub: st.one_of(st.builds(neg, sub), st.builds(circ, sub),
                          st.builds(conj, sub, sub), st.builds(disj, sub, sub),
                          st.builds(imp, sub, sub)),
    max_leaves=10)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(FORMULAS, max_size=3), FORMULAS)
def test_compile_lists_the_closure_and_each_nodes_slots(premises, goal):
    from swapkit.nmatrix import _BIT, _compile
    query = _compile(tuple(premises), goal)
    closure = subformula_closure(premises + [goal])
    assert query.closure == closure
    index = {f: i for i, f in enumerate(closure)}
    slots = [set() for _ in closure]
    for f in closure:
        children = ((f.child,) if isinstance(f, Unary)
                    else (f.left, f.right) if isinstance(f, Binary) else ())
        assert query.ops[index[f]] == (f.op if children else None)
        assert query.kids[index[f]] == tuple(index[c] for c in children)
        for slot, child in enumerate(children):
            slots[index[child]].add((f.op, slot))
    for i, want in enumerate(slots):
        got = [pair for pair, bit in _BIT.items() if query.slots[i] & bit]
        assert got == sorted(want)
    assert query.premises == [index[f] for f in premises]
    assert query.goal == index[goal]


def test_a_matrix_keeps_one_memo_per_slot_set():
    from swapkit.nmatrix import Nmatrix, _Picks, _compile
    shared = characteristic_matrix(L.MBC)
    matrix = Nmatrix(shared.malg, shared.designated)  # with no memos yet
    queries = [([], parse("p | ~p")), ([parse("p"), parse("~p")], q),
               ([parse("@p & p")], parse("~(p -> q) | @q"))]
    bits = set()
    for premises, goal in queries:
        decide(matrix, premises, goal)
        bits.update(_compile(tuple(premises), goal).slots)
    assert set(matrix._picks) == bits
    assert all(type(memo) is _Picks for memo in matrix._picks.values())
    memos = dict(matrix._picks)
    decide(matrix, *queries[-1])
    assert matrix._picks.keys() == memos.keys()
    assert all(matrix._picks[b] is memos[b] for b in bits)


def test_deep_countermodel_renders_in_time_linear_in_its_text():
    deep = "~" * 3000 + "p"
    countermodel = decide_logic(L.MBC, [], parse(deep)).countermodel
    started = time.perf_counter()
    rendered = countermodel.to_json()
    elapsed = time.perf_counter() - started
    assert len(rendered) == 3001 and rendered[deep] == "F"
    # one to_text walk per node took about 1.2 s on a 2-vCPU host
    assert elapsed < 0.3, elapsed


def test_decide_logic_separations():
    ciw = parse("@p | (p & ~p)")
    verdict = decide_logic(L.MBC, [], ciw)
    assert not verdict.holds
    # the witness: p lands on the designated snapshot whose negation and
    # consistency claims are both undesignatable
    assert verdict.countermodel.to_json()["p"] == "t0"
    assert decide_logic(L.MBCCIW, [], ciw).holds
    ci = parse("~@p -> (p & ~p)")
    assert not decide_logic(L.MBCCIW, [], ci).holds
    assert decide_logic(L.MBCCI, [], ci).holds
    cf = parse("~~p -> p")
    assert not decide_logic(L.MBCCI, [], cf).holds
    assert decide_logic(L.CI, [], cf).holds
    assert decide_logic(L.CPLE, [], parse("@p")).holds
    assert not decide_logic(L.CI, [], parse("@p")).holds


def test_decide_logic_refuses_cple_plus():
    with pytest.raises(UnsupportedLogicError):
        decide_logic(L.CPLE_PLUS, [], p)


def assert_a2_agrees_with(atoms, rng, queries, **mode):
    """Each seeded query over ``p`` and ``q`` gets the same verdict over
    every logic's full structure over A2 as over the one over ``atoms``
    atoms, searched there in ``mode``; both verdicts occur for each logic."""
    for logic in L:
        small = nmatrix_of(full_swap(logic, A2))
        large = nmatrix_of(full_swap(logic, powerset_algebra(atoms)))
        held = 0
        for _ in range(queries):
            premises = [random_formula(rng, ["p", "q"], 2)
                        for _ in range(rng.randrange(3))]
            goal = random_formula(rng, ["p", "q"], 3)
            verdict = decide(small, premises, goal).holds
            assert decide(large, premises, goal, **mode).holds == verdict
            held += verdict
        assert 0 < held < queries, logic


def test_the_structure_over_a2_agrees_with_the_one_over_two_atoms():
    """For every logic, CPLe+ included, a query holds over the full structure
    over A2 exactly when it holds over the one over two atoms (up to 64
    values).  A countermodel over a larger algebra maps to one over A2
    through the lift of an atom evaluation that sends the goal's first
    coordinate to 0; the other direction embeds A2 in the larger algebra."""
    assert_a2_agrees_with(2, random.Random(7), 100, least=False)


def test_the_structure_over_a2_agrees_with_the_one_over_three_atoms():
    """The same over three atoms, where the full structures have 8 to 512
    values: too many for any oracle.  The ordered search decides the larger
    side; the verdict-only one takes seconds on one of these queries over
    the 512-value CPLe+ structure, whose masks are wide."""
    assert_a2_agrees_with(3, random.Random(23), 30)


@pytest.mark.parametrize("values, domain", [
    ({p: 99}, None), ({p: -1}, None), ({p: "x"}, None), ({p: True}, None),
    ({p: 99, neg(p): 0}, None), ({p: -1, neg(p): 0}, None),
    # p is in the domain without a value
    ({neg(p): 3}, (p, neg(p))),
    # ~T is {F, f0}
    ({p: 0, neg(p): 0}, None),
    # q has no value
    ({p: 0, conj(p, q): 0}, (p, conj(p, q))),
    # T & T is {T, t, t0}
    ({p: 0, q: 0, conj(p, q): 3}, None)],
    ids=["99", "-1", "text", "bool", "99-child", "-1-child", "missing",
         "neg-outside-its-cell", "and-child-missing", "and-outside-its-cell"])
def test_legality_rejects_values_outside_the_carrier(values, domain):
    m5 = nmatrix_of(full_swap(L.MBC, A2))
    pv = PartialValuation(m5, domain or tuple(values), values)
    assert not is_legal_valuation(pv)


def test_extension_property():
    rng = random.Random(2)
    m5 = nmatrix_of(full_swap(L.MBC, A2))
    for _ in range(50):
        base = [random_formula(rng, ["p", "q"], 3)]
        pv = random_legal_valuation(rng, m5, subformula_closure(base))
        assert is_legal_valuation(pv)
        bigger = [random_formula(rng, ["p", "q", "r"], 4)]
        ext = extend_valuation(pv, bigger)
        assert is_legal_valuation(ext)
        for f in pv.domain:
            assert ext.values[f] == pv.values[f]


def test_soundness_axioms_and_mp_per_logic():
    from swapkit.hilbert import SCHEMAS, axioms_of
    for logic in L:
        if logic is L.CPLE_PLUS:
            continue
        matrix = characteristic_matrix(logic)
        for name in axioms_of(logic):
            schema = SCHEMAS[name]
            assert decide(matrix, [], schema).holds, (logic, name)
        # MP preserves designation, exhaustively over the matrix
        for a in matrix.designated:
            for b in range(matrix.malg.size):
                for i in matrix.malg.cell("->", (a, b)):
                    if i in matrix.designated:
                        assert b in matrix.designated


def test_first_projection_of_legal_valuations_is_boolean_evaluation():
    # the soundness mechanism: composing a legal valuation with the first
    # projection evaluates the positive connectives inside the algebra
    from swapkit.formula import Binary
    from swapkit.swap import BINARY_BA, full_swap
    rng = random.Random(14)
    P2 = powerset_algebra(2)
    b = full_swap(L.CPLE_PLUS, P2)
    matrix = nmatrix_of(b)
    for _ in range(25):
        fs = [random_formula(rng, ["p", "q", "r"], 4)]
        dom = subformula_closure(fs)
        pv = random_legal_valuation(rng, matrix, dom)
        for f in dom:
            if isinstance(f, Binary):
                z = b.snapshots[pv.values[f]][0]
                zl = b.snapshots[pv.values[f.left]][0]
                zr = b.snapshots[pv.values[f.right]][0]
                assert z == BINARY_BA[f.op](P2, zl, zr)


def test_positive_axioms_validate_in_every_swap_matrix():
    from swapkit.hilbert import SCHEMAS, axioms_of
    from swapkit.swap import full_swap, random_swap_substructure
    rng = random.Random(15)
    positive = [(n, SCHEMAS[n]) for n in axioms_of(L.CPLE_PLUS)]
    structures = [full_swap(lg, A2) for lg in L]
    structures += [full_swap(L.CPLE_PLUS, powerset_algebra(2))]
    structures += [random_swap_substructure(rng, L.CPLE_PLUS, A2)
                   for _ in range(5)]
    for b in structures:
        matrix = nmatrix_of(b)
        for name, schema in positive:
            assert decide(matrix, [], schema).holds, (b, name)
        # modus ponens preserves designation in every swap matrix
        for a in matrix.designated:
            for c in range(matrix.malg.size):
                for i in matrix.malg.cell("->", (a, c)):
                    if i in matrix.designated:
                        assert c in matrix.designated


def test_monotonicity_of_consequence():
    rng = random.Random(4)
    m5 = nmatrix_of(full_swap(L.MBC, A2))
    for _ in range(30):
        gamma = [random_formula(rng, ["p", "q"], 2)]
        goal = random_formula(rng, ["p", "q"], 3)
        if decide(m5, gamma, goal).holds:
            extra = random_formula(rng, ["p", "q", "r"], 2)
            assert decide(m5, gamma + [extra], goal).holds


def test_structurality_random_substitutions():
    rng = random.Random(6)
    for logic in (L.MBC, L.CI, L.LFI1O):
        matrix = characteristic_matrix(logic)
        for _ in range(20):
            schema = random_formula(rng, ["A", "B"], 3)
            if decide(matrix, [], schema).holds:
                binding = {"A": random_formula(rng, ["x", "y"], 3),
                           "B": random_formula(rng, ["x", "y"], 3)}
                inst = substitute(schema, binding)
                assert decide(matrix, [], inst).holds


def test_decide_agrees_with_brute_force_enumeration():
    from helpers import brute_force_least_countermodel
    rng = random.Random(77)
    checked = 0
    matrices = [characteristic_matrix(lg)
                for lg in (L.MBC, L.MBCCIW, L.CI, L.LFI1O, L.CIORE)]
    while checked < 60:
        matrix = rng.choice(matrices)
        premises = [random_formula(rng, ["p", "q"], 2)
                    for _ in range(rng.randrange(3))]
        goal = random_formula(rng, ["p", "q"], 3)
        try:
            exists = brute_force_least_countermodel(
                matrix, premises, goal, limit=300_000) is not None
        except RuntimeError:
            continue
        verdict = decide(matrix, premises, goal)
        assert verdict.holds == (not exists)
        if not verdict.holds:
            cm = verdict.countermodel
            assert is_legal_valuation(cm)
            assert all(cm.designates(p) for p in premises)
            assert not cm.designates(goal)
        checked += 1


def test_decide_agrees_with_brute_force_on_substructures():
    from helpers import brute_force_least_countermodel
    from swapkit.nmatrix import nmatrix_of as build
    rng = random.Random(78)
    checked = 0
    while checked < 25:
        b = random_swap_substructure(rng, rng.choice(list(L)), A2)
        try:
            matrix = build(b)
        except ValueError:
            continue
        premises = [random_formula(rng, ["p", "q"], 2)
                    for _ in range(rng.randrange(2))]
        goal = random_formula(rng, ["p", "q"], 3)
        try:
            exists = brute_force_least_countermodel(
                matrix, premises, goal, limit=300_000) is not None
        except RuntimeError:
            continue
        assert decide(matrix, premises, goal).holds == (not exists)
        checked += 1


def test_decide_on_random_substructure_matrices():
    # cells shrink, so consequence can only grow; spot-check legality plumbing
    rng = random.Random(9)
    for _ in range(10):
        b = random_swap_substructure(rng, L.MBC, A2)
        matrix = nmatrix_of(b)
        v = decide(matrix, [p, neg(p)], q)
        if not v.holds:
            assert is_legal_valuation(v.countermodel)


# ----------------------------------------------------------------------
# Bivaluations
# ----------------------------------------------------------------------

def test_bivaluation_valid_mbc_fragment():
    base = (p,)
    dom = extended_closure(base)
    mu = {p: 1, neg(p): 1, circ(p): 0, neg(circ(p)): 1}
    b = Bivaluation(L.MBC, base, {f: mu.get(f, 0) for f in dom})
    assert is_bivaluation(b)


def test_bivaluation_vneg_violation():
    base = (p,)
    dom = extended_closure(base)
    values = {f: 0 for f in dom}
    b = Bivaluation(L.MBC, base, values)
    assert not is_bivaluation(b)
    assert any("vNeg" in s for s in clause_failures(L.MBC, values, dom))


def test_bivaluation_lfi1_de_morgan_violation():
    base = (parse("p & q"),)
    dom = extended_closure(base)
    values = {f: 0 for f in dom}
    values[p] = values[q] = 1
    values[parse("p & q")] = 1
    values[neg(parse("p & q"))] = 1   # vDM wants a disjunct to be negated
    values[circ(parse("p & q"))] = 0
    assert any("vDM_and" in s
               for s in clause_failures(L.LFI1O, values, dom))


def test_bivaluation_domain_not_closed():
    b = Bivaluation(L.MBC, (p,), {p: 1})
    with pytest.raises(ValueError):
        is_bivaluation(b)


def test_induced_valuation_examples():
    base = (p,)
    dom = extended_closure(base)

    def build(logic, mu):
        vals = dict(mu)
        vals[neg(circ(p))] = 1 - vals[circ(p)]
        for f in dom:
            vals.setdefault(f, 1)
        return Bivaluation(logic, base, vals)

    b = build(L.MBC, {p: 1, neg(p): 0, circ(p): 1})
    pv = induced_valuation(b)
    assert pv.matrix.malg.labels[pv.values[p]] == "T"

    b = build(L.MBC, {p: 1, neg(p): 1, circ(p): 0})
    pv = induced_valuation(b)
    assert pv.matrix.malg.labels[pv.values[p]] == "t"

    b = build(L.LFI1O, {p: 0, neg(p): 1, circ(p): 1})
    pv = induced_valuation(b)
    assert pv.matrix.malg.labels[pv.values[p]] == "F"


def test_bivaluation_bridge_random_fragments():
    rng = random.Random(10)
    for logic in (L.MBC, L.LFI1O, L.CIORE):
        for _ in range(100):
            base = [random_formula(rng, ["p", "q"], 3)]
            b = random_bivaluation(rng, logic, base)
            assert is_bivaluation(b)
            pv = induced_valuation(b)
            assert is_legal_valuation(pv)
            for f in pv.domain:
                assert pv.designates(f) == (b.values[f] == 1)


def test_valuations_project_to_bivaluations():
    rng = random.Random(11)
    for logic in (L.MBC, L.LFI1O, L.CIORE):
        matrix = characteristic_matrix(logic)
        for _ in range(100):
            base = [random_formula(rng, ["p", "q"], 3)]
            dom = extended_closure(base)
            pv = random_legal_valuation(rng, matrix, dom)
            mu = {f: int(pv.designates(f)) for f in dom}
            b = Bivaluation(logic, tuple(base), mu)
            assert is_bivaluation(b)
