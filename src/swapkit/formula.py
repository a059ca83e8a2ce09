"""Propositional formulas over the five-connective signature.

The object language has three binary connectives (``&``, ``|``, ``->``) and
two unary ones: a paraconsistent negation ``~`` and a consistency marker
``@``.  ``<->`` is accepted by the parser as sugar for the conjunction of the
two implications and never appears in an AST.

Formulas are immutable trees, hash-consed: constructing a node returns the
live node with the same class and fields if there is one, so equal formulas
are the same object, ``==`` is ``is`` and hashing takes constant time at any
depth.  Every walk over a formula uses an explicit stack, so size is bounded
by memory and time, not by the interpreter's recursion limit.  A *schema* is
just a formula whose variables are uppercase metavariables; lowercase
identifiers are object variables.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional

NEG = "~"
CIRC = "@"
AND = "&"
OR = "|"
IMP = "->"
IFF = "<->"

UNARY_OPS = (NEG, CIRC)
BINARY_OPS = (AND, OR, IMP)


@dataclass(frozen=True)
class Signature:
    """Operator symbols grouped by arity; the groups must not overlap."""

    constants: tuple[str, ...] = ()
    unary: tuple[str, ...] = ()
    binary: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        groups = (set(self.constants), set(self.unary), set(self.binary))
        if sum(len(g) for g in groups) != len(set().union(*groups)):
            raise ValueError("arity groups must be pairwise disjoint")

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


class Formula:
    """A formula node; ``Var``, ``Unary`` and ``Binary`` are the kinds."""

    __slots__ = ("__weakref__",)
    #: (class, *fields) -> the live node with those fields
    _live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes fields {cls.__slots__}")
        key = (cls, *fields)
        node = cls._live.get(key)
        if node is None:
            node = cls._live[key] = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
        return node

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"parse({to_text(self)!r})"


class Var(Formula):
    __slots__ = ("name",)


class Unary(Formula):
    __slots__ = ("op", "child")


class Binary(Formula):
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


_TOKEN_RE = re.compile(r"\s*(->|<->|[~@&|()]|[A-Za-z][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        tok = m.group(1)
        kind = "ident" if tok[0].isalpha() else tok
        tokens.append((kind, tok, m.start(1)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


#: Binding strength of the binary operators; ``<->`` occurs only in text.
_PREC = {IMP: 1, IFF: 1, OR: 2, AND: 3}


def parse(text: str) -> Formula:
    """Operator precedence over the grammar

        formula := disj (('->' | '<->') formula)?      right-associative
        disj    := conj ('|' conj)*                    left-associative
        conj    := unary ('&' unary)*                  left-associative
        unary   := ('~' | '@') unary | atom
        atom    := ident | '(' formula ')'

    with a stack of operands and one of pending operators and parentheses.
    """
    operands: list[Formula] = []
    pending: list[str] = []
    opened = 0
    want_operand = True
    for kind, tok, pos in _tokenize(text):
        if want_operand:
            if kind in UNARY_OPS or kind == "(":
                pending.append(kind)
                opened += kind == "("
                continue
            if kind != "ident":
                raise ParseError(f"unexpected token {tok!r}" if tok
                                 else "unexpected end of input", pos)
            if not re.fullmatch(r"[a-z][a-z0-9_]*|[A-Z][A-Z0-9_]*", tok):
                raise ParseError(f"bad identifier {tok!r}", pos)
            operands.append(Var(tok))
            want_operand = False
        else:
            # An operand ended: apply the pending operators binding at least
            # as tightly as this token (more tightly if it groups right); a
            # token that is no binary operator ends the innermost group.
            prec = _PREC.get(kind, 0)
            floor = prec + (prec < 2)
            while pending and _PREC.get(pending[-1], 0) >= floor:
                op = pending.pop()
                right, left = operands.pop(), operands.pop()
                operands.append(iff(left, right) if op == IFF
                                else Binary(op, left, right))
            if prec:
                pending.append(kind)
                want_operand = True
                continue
            if not opened:
                if kind != "end":
                    raise ParseError(f"trailing input {tok!r}", pos)
                return operands[0]
            if kind != ")":
                raise ParseError("expected ')'", pos)
            pending.pop()
            opened -= 1
        while pending and pending[-1] in UNARY_OPS:
            operands.append(Unary(pending.pop(), operands.pop()))


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


def substitute(schema: Formula, binding: dict[str, Formula]) -> Formula:
    """Apply a metavariable substitution to a schema."""
    image: dict[Formula, Formula] = {}
    for s in subformula_closure([schema]):
        if isinstance(s, Var):
            image[s] = binding[s.name] if is_metavariable(s.name) else s
        elif isinstance(s, Unary):
            image[s] = Unary(s.op, image[s.child])
        else:
            image[s] = Binary(s.op, image[s.left], image[s.right])
    return image[schema]
