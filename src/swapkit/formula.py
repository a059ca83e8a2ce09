"""Propositional formulas over the five-connective signature.

The object language has three binary connectives (``&``, ``|``, ``->``) and
two unary ones: a paraconsistent negation ``~`` and a consistency marker
``@``.  ``<->`` is accepted by the parser as sugar for the conjunction of the
two implications and never appears in an AST.

Formulas are immutable trees, hash-consed: constructing a node returns the
live node with the same class and fields if there is one, so equal formulas
are the same object, ``==`` is ``is`` and hashing takes constant time at any
depth.  The intern table, ``Formula._live``, is a plain dict from
``(class, *fields)`` to a weak reference to the node, so the table keeps no
node alive; when a node dies, its reference's callback drops the entry,
unless a new node with the same key has taken it over.  Finding a live node
costs one dict lookup and one reference call; a node's fields are checked
only when it is made.

Every walk over a formula uses an explicit stack, so size is bounded by
memory and time, not by the interpreter's recursion limit.  A *schema* is
just a formula whose variables are uppercase metavariables; lowercase
identifiers are object variables.
"""

from __future__ import annotations

import re
import weakref
from typing import Iterable, Optional

from ._frozen import Value

NEG = "~"
CIRC = "@"
AND = "&"
OR = "|"
IMP = "->"
IFF = "<->"

UNARY_OPS = (NEG, CIRC)
BINARY_OPS = (AND, OR, IMP)


class Signature(Value):
    """Operator symbols grouped by arity; the groups must not overlap."""

    __slots__ = ("constants", "unary", "binary")

    def __init__(self, constants: tuple[str, ...] = (),
                 unary: tuple[str, ...] = (), binary: tuple[str, ...] = ()):
        groups = (set(constants), set(unary), set(binary))
        if sum(len(g) for g in groups) != len(set().union(*groups)):
            raise ValueError("arity groups must be pairwise disjoint")
        super().__init__(constants, unary, binary)

    def arity_of(self, op: str) -> int:
        if op in self.binary:
            return 2
        if op in self.unary:
            return 1
        if op in self.constants:
            return 0
        raise KeyError(op)

    def operators(self) -> list[tuple[str, int]]:
        return (
            [(c, 0) for c in self.constants]
            + [(u, 1) for u in self.unary]
            + [(b, 2) for b in self.binary]
        )


#: The logic signature: no constants, ~ and @ unary, & | -> binary.
LOGIC_SIGNATURE = Signature(unary=UNARY_OPS, binary=BINARY_OPS)


class _Ref(weakref.ref):
    """A weak reference to an interned node, carrying the node's table key."""

    __slots__ = ("key",)


#: (class, *fields) -> a weak reference to the live node with those fields
_LIVE: dict[tuple, _Ref] = {}


def _forget(ref: _Ref, live: dict = _LIVE) -> None:
    """Drop a dead node's entry, unless a new node with the same key has
    replaced it already."""
    if live.get(ref.key) is ref:
        del live[ref.key]


class Formula:
    """A formula node; ``Var``, ``Unary`` and ``Binary`` are the kinds."""

    __slots__ = ("__weakref__",)
    _live = _LIVE
    #: (name, slot setter, test, what the test asks for) of each field, in
    #: slot order; none on this abstract base
    _fields: tuple = ()

    def __init_subclass__(cls, rules: tuple) -> None:
        """``rules`` holds a (test, what it asks for) pair per slot."""
        cls._fields = tuple((name, getattr(cls, name).__set__, test, wanted)
                            for name, (test, wanted)
                            in zip(cls.__slots__, rules))

    def __new__(cls, *fields):
        key = (cls, *fields)
        try:
            ref = _LIVE.get(key)
        except TypeError:  # an unhashable field, which the checks name
            ref = None
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        # a new node: check each field as it is set
        if not cls._fields:
            raise TypeError("Formula is abstract: make a Var, Unary or Binary")
        if len(fields) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes fields {cls.__slots__}")
        node = object.__new__(cls)
        for (name, put, test, wanted), value in zip(cls._fields, fields):
            if not test(value):
                raise TypeError(f"{cls.__name__}.{name} must be {wanted}, "
                                f"got {value!r}")
            put(node, value)
        ref = _LIVE[key] = _Ref(node, _forget)
        ref.key = key
        return node

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"parse({to_text(self)!r})"

    def __reduce__(self):
        """Copy and pickle a formula as its text: both walks are iterative,
        so any depth survives, and the copy is the interned node itself."""
        return parse, (to_text(self),)


#: The identifiers the parser accepts: object variables and metavariables.
_NAME_RE = re.compile(r"[a-z][a-z0-9_]*|[A-Z][A-Z0-9_]*")


def _is_name(value) -> bool:
    return isinstance(value, str) and _NAME_RE.fullmatch(value) is not None


_is_formula = Formula.__instancecheck__  # isinstance(value, Formula)
_NAME = (_is_name, "an identifier the parser accepts")
_CHILD = (_is_formula, "a Formula")


class Var(Formula, rules=(_NAME,)):
    __slots__ = ("name",)


class Unary(Formula, rules=((UNARY_OPS.__contains__, f"one of {UNARY_OPS}"),
                            _CHILD)):
    __slots__ = ("op", "child")


class Binary(Formula, rules=((BINARY_OPS.__contains__, f"one of {BINARY_OPS}"),
                             _CHILD, _CHILD)):
    __slots__ = ("op", "left", "right")


def neg(f: Formula) -> Unary:
    return Unary(NEG, f)


def circ(f: Formula) -> Unary:
    return Unary(CIRC, f)


def conj(a: Formula, b: Formula) -> Binary:
    return Binary(AND, a, b)


def disj(a: Formula, b: Formula) -> Binary:
    return Binary(OR, a, b)


def imp(a: Formula, b: Formula) -> Binary:
    return Binary(IMP, a, b)


def iff(a: Formula, b: Formula) -> Binary:
    """The parse-time expansion of ``a <-> b``."""
    return conj(imp(a, b), imp(b, a))


def is_metavariable(name: str) -> bool:
    return name[0].isupper()


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax error carrying the byte offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


#: One token after optional blanks, in one of four groups: an operator or
#: parenthesis, an identifier the parser accepts, any other identifier, or
#: a stray character.
_TOKEN_RE = re.compile(rf"""\s*(?:
    (->|<->|[~@&|()])
  | ({_NAME_RE.pattern})(?![A-Za-z0-9_])
  | ([A-Za-z][A-Za-z0-9_]*)
  | (\S))""", re.VERBOSE)

#: The token after the last one: every group empty.
_END = ("", "", "", "")

#: Binding strength of the binary operators; ``<->`` occurs only in text.
_PREC = {IMP: 1, IFF: 1, OR: 2, AND: 3}

#: Tokens that may open an operand.
_PREFIXES = frozenset((NEG, CIRC, "("))


def parse(text: str) -> Formula:
    """Operator precedence over the grammar

        formula := disj (('->' | '<->') formula)?      right-associative
        disj    := conj ('|' conj)*                    left-associative
        conj    := unary ('&' unary)*                  left-associative
        unary   := ('~' | '@') unary | atom
        atom    := ident | '(' formula ')'

    with a stack of operands and one of pending operators and parentheses.
    The whole text is lexed before parsing starts, so a stray character is
    reported wherever it is, ahead of any syntax error before it.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append(_END)
    operands: list[Formula] = []
    pending: list[str] = []
    opened = 0
    want_operand = True
    for token in tokens:
        op, name, _, _ = token
        if want_operand:
            if name:
                operand = Var(name)
                while pending and pending[-1] in UNARY_OPS:
                    operand = Unary(pending.pop(), operand)
                operands.append(operand)
                want_operand = False
                continue
            if op in _PREFIXES:
                pending.append(op)
                opened += op == "("
                continue
            raise _syntax_error(text, tokens, token, "operand")
        # An operand ended: apply the pending operators binding at least as
        # tightly as this token (more tightly if it groups right); a token
        # that is no binary operator ends the innermost group.
        prec = _PREC.get(op, 0)
        floor = prec + (prec < 2)
        while pending and _PREC.get(pending[-1], 0) >= floor:
            top = pending.pop()
            right = operands.pop()
            left = operands[-1]
            operands[-1] = (iff(left, right) if top == IFF
                            else Binary(top, left, right))
        if prec:
            pending.append(op)
            want_operand = True
        elif not opened:
            if token is not _END:
                raise _syntax_error(text, tokens, token, "trailing")
            return operands[0]
        elif op != ")":
            raise _syntax_error(text, tokens, token, "close")
        else:
            pending.pop()
            opened -= 1
            while pending and pending[-1] in UNARY_OPS:
                operands[-1] = Unary(pending.pop(), operands[-1])


def _syntax_error(text: str, tokens: list[tuple[str, ...]],
                  token: tuple[str, ...], context: str) -> ParseError:
    """The error to raise when ``parse`` cannot use ``token``: the first
    stray character in the text if there is one, else what ``context``
    (an operand, input after the formula, or a closing parenthesis
    expected) says about the token."""
    starts = [m.start(m.lastindex) for m in _TOKEN_RE.finditer(text)]
    starts.append(len(text))
    for tok, start in zip(tokens, starts):
        if tok[3]:
            return ParseError(f"unexpected character {tok[3]!r}", start)
    pos = starts[next(i for i, tok in enumerate(tokens) if tok is token)]
    op, name, bad, _ = token
    if context == "close":
        return ParseError("expected ')'", pos)
    if context == "trailing":
        return ParseError(f"trailing input {op or name or bad!r}", pos)
    if bad:
        return ParseError(f"bad identifier {bad!r}", pos)
    return ParseError(f"unexpected token {op!r}" if op
                      else "unexpected end of input", pos)


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def to_text(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(to_text(f)) is f``."""
    out: list[str] = []
    # (node, least precedence it may show unparenthesized) or text to write
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, min_prec = item
        if isinstance(g, Var):
            out.append(g.name)
        elif isinstance(g, Unary):
            out.append(g.op)
            stack.append((g.child, 4))
        else:
            prec = _PREC[g.op]
            if prec < min_prec:
                out.append("(")
                stack.append(")")
            # the child on the side it groups toward may share its precedence
            right = g.op == IMP
            stack.append((g.right, prec + (not right)))
            stack.append(f" {g.op} ")
            stack.append((g.left, prec + right))
    return "".join(out)


def to_texts(formulas: Iterable[Formula]) -> dict[Formula, str]:
    """``to_text`` of each formula, keyed by formula.

    A compound whose children came earlier in the input is built from their
    texts, with the parentheses ``to_text`` would put around them, so a
    children-first closure renders in time linear in its output instead of
    one walk per node; any other formula is rendered by ``to_text``.
    """
    text: dict[Formula, str] = {}

    def operand(g: Formula, min_prec: int) -> str:
        if isinstance(g, Binary) and _PREC[g.op] < min_prec:
            return f"({text[g]})"
        return text[g]

    for f in formulas:
        if f in text:
            continue
        if isinstance(f, Unary) and f.child in text:
            text[f] = f.op + operand(f.child, 4)
        elif isinstance(f, Binary) and f.left in text and f.right in text:
            prec = _PREC[f.op]
            right = f.op == IMP
            text[f] = (f"{operand(f.left, prec + right)} {f.op} "
                       f"{operand(f.right, prec + (not right))}")
        else:
            text[f] = to_text(f)
    return text


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------

def subformula_closure(formulas: Iterable[Formula]) -> list[Formula]:
    """Every subformula of every input exactly once, children first."""
    seen: dict[Formula, None] = {}
    # (node, whether its children are done), the next to visit on top
    stack = [(f, False) for f in reversed(list(formulas))]
    while stack:
        f, done = stack.pop()
        if f in seen:
            continue
        if done or isinstance(f, Var):
            seen[f] = None
        elif isinstance(f, Unary):
            stack += ((f, True), (f.child, False))
        else:
            stack += ((f, True), (f.right, False), (f.left, False))
    return list(seen)


def match_schema(schema: Formula, candidate: Formula) -> Optional[dict[str, Formula]]:
    """The substitution sending ``schema`` to ``candidate``, if one exists.

    Metavariables (uppercase) may bind any formula; a metavariable repeated
    in the schema must bind identical subtrees.  Object variables match only
    themselves.
    """
    binding: dict[str, Formula] = {}
    stack = [(schema, candidate)]
    while stack:
        s, c = stack.pop()
        if isinstance(s, Var):
            if is_metavariable(s.name):
                if binding.setdefault(s.name, c) is not c:
                    return None
            elif s is not c:
                return None
        elif type(c) is not type(s) or s.op != c.op:
            return None
        elif isinstance(s, Unary):
            stack.append((s.child, c.child))
        else:
            stack.append((s.right, c.right))
            stack.append((s.left, c.left))
    return binding
