import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapkit.formula import (Binary, ParseError, Signature, Unary, Var, circ,
                             conj, disj, imp, match_schema, neg, parse,
                             subformula_closure, to_text, to_texts)
from helpers import (naive_subformulas, random_formula, reference_parse,
                     substitute)

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_atomic():
    assert parse("p") == p


def test_parse_gentle_explosion_instance():
    # @p -> (p -> (~p -> q)), instantiating the gentle-explosion schema
    got = parse("@p -> (p -> (~p -> q))")
    assert got == imp(circ(p), imp(p, imp(neg(p), q)))


def test_parse_precedence_and_over_or():
    assert parse("p & q | r") == disj(conj(p, q), r)


def test_parse_unary_binds_tightest():
    assert parse("~p & q") == conj(neg(p), q)
    assert parse("~(p & q)") == neg(conj(p, q))
    assert parse("~~p") == neg(neg(p))


def test_imp_right_associative():
    assert parse("p -> q -> r") == imp(p, imp(q, r))


def test_iff_desugars():
    assert parse("p <-> q") == conj(imp(p, q), imp(q, p))
    # the AST never contains a biconditional node
    assert "<->" not in to_text(parse("p <-> q"))


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("p & ")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("p $ q")
    with pytest.raises(ParseError):
        parse("(p & q")
    with pytest.raises(ParseError):
        parse("p q")


@pytest.mark.parametrize("text, message", [
    # a lexical error anywhere wins over an earlier syntax error
    ("& $", "unexpected character '$' (at offset 2)"),
    ("p <- q", "unexpected character '<' (at offset 2)"),
    ("pQ", "bad identifier 'pQ' (at offset 0)"),
    # an identifier where an operator belongs is trailing, not bad
    ("p Qx", "trailing input 'Qx' (at offset 2)"),
    ("   ", "unexpected end of input (at offset 3)"),
    ("(p", "expected ')' (at offset 2)"),
])
def test_parse_error_precedence(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


#: Token soup for the parser oracle: good and bad identifiers, every
#: operator, parentheses, blanks and, rarely, a stray character.  The last
#: row is what a tokenizer could misread: a digit or underscore around an
#: identifier, operator prefixes, non-ASCII letters and digits, and blanks
#: other than a space.
PARSER_TOKENS = ("p", "q", "p", "q", "x_1", "A", "B2", "pQ", "Ab", "~", "@",
                 "&", "&", "|", "|", "->", "->", "<->", "(", "(", ")", ")",
                 " ", " ", "  ", "$", "-",
                 "1p", "_p", "p1", "P_", "<", "<-", "\u00e9", "\u00b2",
                 "\u0661", "\t", "\n", "\xa0")


def _parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.position


def _formula_tokens():
    """Token lists of well-formed formulas, some parentheses redundant."""
    return st.recursive(
        st.sampled_from([["p"], ["q"], ["A"]]),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["~", "@"]), sub).map(
                lambda t: [t[0], *t[1]]),
            st.tuples(sub, st.sampled_from(["&", "|", "->", "<->"]), sub).map(
                lambda t: [*t[0], " ", t[1], " ", *t[2]]),
            sub.map(lambda t: ["(", *t, ")"])),
        max_leaves=8)


def _near_misses():
    """A well-formed formula with one token replaced or deleted."""
    return st.tuples(_formula_tokens(), st.integers(0, 40),
                     st.sampled_from(PARSER_TOKENS + ("",))).map(
        lambda t: t[0][:t[1] % len(t[0])] + [t[2]]
        + t[0][t[1] % len(t[0]) + 1:])


@settings(derandomize=True, deadline=None, max_examples=2000)
@given(st.one_of(st.lists(st.sampled_from(PARSER_TOKENS), max_size=24),
                 _formula_tokens(), _near_misses()))
def test_parse_matches_reference_parser(tokens):
    # the same formula, or the same error text and offset, as recursive
    # descent over the grammar
    text = "".join(tokens)
    assert _parse_outcome(parse, text) == _parse_outcome(reference_parse, text)


def test_signature_disjoint_arities():
    with pytest.raises(ValueError):
        Signature(unary=("~",), binary=("~", "&"))


def test_roundtrip_random_asts():
    rng = random.Random(7)
    for _ in range(400):
        f = random_formula(rng, ["p", "q", "r", "s"], 8)
        assert parse(to_text(f)) == f


#: Small formulas over three variables, for the renderer's oracle test.
FORMULAS = st.recursive(
    st.sampled_from((p, q, r)),
    lambda sub: st.one_of(
        st.builds(lambda op, a: op(a), st.sampled_from((neg, circ)), sub),
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from((conj, disj, imp)), sub, sub)),
    max_leaves=12)


@settings(derandomize=True, max_examples=300)
@given(st.lists(FORMULAS, min_size=1, max_size=3).flatmap(
    lambda formulas: st.tuples(
        st.just(formulas),
        st.permutations(subformula_closure(formulas)))))
def test_to_texts_matches_to_text_on_every_closure_node(case):
    formulas, shuffled = case
    closure = subformula_closure(formulas)
    texts = to_texts(closure)
    assert list(texts) == closure
    assert all(texts[g] == to_text(g) for g in closure)
    # parents before children: every node is rendered on its own
    assert to_texts(closure[::-1]) == texts
    # any order: nodes rendered on their own and parents built from them
    # meet in one call
    assert to_texts(shuffled) == texts
    assert list(to_texts(shuffled)) == shuffled


def test_subformula_closure_direct_listing():
    got = subformula_closure([parse("p | ~p")])
    assert got == [p, neg(p), disj(p, neg(p))]


def test_subformula_closure_dedups():
    assert subformula_closure([p, p]) == [p]


def test_subformula_closure_against_naive_recomputation():
    f = parse("@p -> q")
    got = subformula_closure([f])
    assert set(got) == naive_subformulas(f)
    assert len(got) == len(set(got))
    rng = random.Random(21)
    for _ in range(100):
        fs = [random_formula(rng, ["a", "b", "c"], 5) for _ in range(3)]
        got = subformula_closure(fs)
        want = set()
        for g in fs:
            want |= naive_subformulas(g)
        assert set(got) == want
        # children first
        position = {g: i for i, g in enumerate(got)}
        for g in got:
            if isinstance(g, Unary):
                assert position[g.child] < position[g]
            elif isinstance(g, Binary):
                assert position[g.left] < position[g]
                assert position[g.right] < position[g]


def test_match_schema_simple():
    schema = parse("A -> (B -> A)")
    assert match_schema(schema, parse("p -> (q -> p)")) == {"A": p, "B": q}


def test_match_schema_shape_mismatch():
    assert match_schema(parse("A -> (B -> A)"), parse("p -> q")) is None


def test_match_schema_repeated_metavariable():
    schema = parse("A | ~A")
    assert match_schema(schema, parse("(p & q) | ~(p & q)")) == {"A": conj(p, q)}
    assert match_schema(schema, parse("(p & q) | ~(p & r)")) is None


def test_formula_corpus_file_roundtrips():
    # one UTF-8 formula per line, the on-disk exchange format
    from pathlib import Path
    lines = (Path(__file__).parent / "formulas.txt").read_text("utf-8")
    count = 0
    for line in lines.splitlines():
        if not line.strip():
            continue
        f = parse(line)
        assert parse(to_text(f)) == f
        count += 1
    assert count >= 10


def test_match_schema_roundtrip_random():
    rng = random.Random(5)
    schema = parse("(A -> (B -> C)) -> ((A -> B) -> (A -> C))")
    for _ in range(200):
        binding = {m: random_formula(rng, ["x", "y"], 4) for m in "ABC"}
        inst = substitute(schema, binding)
        assert match_schema(schema, inst) == binding


# ----------------------------------------------------------------------
# Hash-consed nodes and deep inputs, at the default recursion limit
# ----------------------------------------------------------------------

def test_equal_constructions_are_the_same_node():
    assert Var("p") is p
    assert conj(neg(p), q) is Binary("&", Unary("~", Var("p")), Var("q"))
    assert parse("p <-> q") is parse("(p -> q) & (q -> p)")
    assert neg(p) is not circ(p) and conj(p, q) is not conj(q, p)
    assert repr(parse("~p & (q | r)")) == "parse('~p & (q | r)')"


def test_nodes_are_immutable():
    f = conj(p, q)
    with pytest.raises(AttributeError):
        f.left = r
    with pytest.raises(AttributeError):
        del f.left
    with pytest.raises(AttributeError):
        p.name = "q"
    assert f.left is p and p.name == "p"
    with pytest.raises(TypeError):
        Unary("~")


def test_dropping_a_million_node_formula_frees_it():
    import gc
    import weakref
    from swapkit.formula import Formula
    before = len(Formula._live)
    gc.disable()  # reference counting alone must free every node
    try:
        f = Var("fresh")
        for _ in range(10 ** 6):
            f = neg(f)
        assert len(Formula._live) == before + 10 ** 6 + 1
        root = weakref.ref(f)
        del f
        assert root() is None and len(Formula._live) == before
    finally:
        gc.enable()


@pytest.mark.parametrize("make, field", [
    (lambda: Var(3), "Var.name"),
    (lambda: Var("pQ"), "Var.name"),
    (lambda: Unary("&", p), "Unary.op"),
    (lambda: Binary("~", p, q), "Binary.op"),
    (lambda: Unary("~", "p"), "Unary.child"),
    (lambda: Binary("&", p, "q"), "Binary.right"),
    (lambda: Unary("~", [p]), "Unary.child"),
], ids=["name-not-str", "name-not-identifier", "unary-op", "binary-op",
        "unary-child", "binary-child", "unhashable-child"])
def test_constructors_check_their_fields(make, field):
    # every node prints as text that parses back to it
    with pytest.raises(TypeError, match=field):
        make()


def test_the_base_class_is_not_constructed():
    from swapkit.formula import Formula
    for fields in [("x",), (), ("~", p)]:
        with pytest.raises(TypeError, match="abstract"):
            Formula(*fields)


def test_intern_table_holds_only_live_nodes():
    import gc
    from swapkit.formula import Formula
    parse("p & q")  # nodes a first parse may leave in caches elsewhere
    before = len(Formula._live)
    gc.disable()  # reference counting alone must empty the table
    try:
        for i in range(10 ** 4):
            f = parse(f"~(x{i} -> @y{i}) | x{i}")
            del f
        assert len(Formula._live) == before
    finally:
        gc.enable()


def test_a_dropped_formula_is_found_again_after_reparsing():
    import weakref
    text = "@(dropped & ~again) -> dropped"
    first = weakref.ref(parse(text))
    assert first() is None
    again = parse(text)
    assert parse(text) is again and to_text(again) == text


def test_dead_entries_never_leak_back():
    from swapkit.formula import Formula, _forget, _Ref
    key = (Var, "ghost")
    ghost = object.__new__(Var)
    stale = Formula._live[key] = _Ref(ghost)  # no callback: stays when dead
    stale.key = key
    del ghost
    assert stale() is None
    node = Var("ghost")
    assert isinstance(node, Var) and node.name == "ghost"
    assert Var("ghost") is node and Formula._live[key]() is node
    _forget(stale)  # a late callback of the dead node keeps the new entry
    assert Formula._live[key]() is node
    del node
    assert key not in Formula._live
    assert all(ref() is not None for ref in list(Formula._live.values()))


def _left_chain(op, n):
    return f" {op} ".join(["p"] * n)


@pytest.mark.parametrize("text", [
    _left_chain("&", 10 ** 5),                        # left-grouped
    _left_chain("->", 10 ** 4),                       # right-grouped
    "p | (" * (10 ** 4 - 1) + "p" + ")" * (10 ** 4 - 1),
    "~@" * (10 ** 4 // 2) + "p",
], ids=["and-chain", "imp-chain", "nested-or", "neg-circ"])
def test_deep_formulas_round_trip(text):
    f = parse(text)
    assert parse(to_text(f)) is f


def test_match_and_substitute_deep_bindings():
    schema = parse("(A -> (B -> C)) -> ((A -> B) -> ~C)")
    binding = {"A": parse("~" * 10 ** 4 + "p"),
               "B": parse(_left_chain("&", 10 ** 4)),
               "C": parse(_left_chain("->", 10 ** 4))}
    inst = substitute(schema, binding)
    assert match_schema(schema, inst) == binding
    assert match_schema(parse("A -> A"), imp(binding["A"], binding["B"])) is None


def test_copies_and_pickles_are_the_interned_node_at_any_depth():
    deep = parse("~" * 3000 + "p")
    assert copy.copy(deep) is deep and copy.deepcopy(deep) is deep
    assert pickle.loads(pickle.dumps(deep)) is deep
    f = parse("@P -> (p & ~q | r)")
    assert copy.deepcopy([f, f])[1] is f
    assert pickle.loads(pickle.dumps((f, neg(f)))) == (f, neg(f))
