"""Propositional formulas over the five-connective signature.

The object language has three binary connectives (``&``, ``|``, ``->``) and
two unary ones: a paraconsistent negation ``~`` and a consistency marker
``@``.  ``<->`` is accepted by the parser as sugar for the conjunction of the
two implications and never appears in an AST.

Formulas are immutable trees.  A *schema* is just a formula whose variables
are uppercase metavariables; lowercase identifiers are object variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Formula"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Unary, Binary]


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


class _Parser:
    """Recursive descent over the grammar

        formula := disj (('->' | '<->') formula)?      right-associative
        disj    := conj ('|' conj)*                    left-associative
        conj    := unary ('&' unary)*                  left-associative
        unary   := ('~' | '@') unary | atom
        atom    := ident | '(' formula ')'
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_formula(self) -> Formula:
        left = self.parse_disj()
        kind, _, _ = self.peek()
        if kind == IMP:
            self.next()
            return imp(left, self.parse_formula())
        if kind == IFF:
            self.next()
            return iff(left, self.parse_formula())
        return left

    def parse_disj(self) -> Formula:
        f = self.parse_conj()
        while self.peek()[0] == OR:
            self.next()
            f = disj(f, self.parse_conj())
        return f

    def parse_conj(self) -> Formula:
        f = self.parse_unary()
        while self.peek()[0] == AND:
            self.next()
            f = conj(f, self.parse_unary())
        return f

    def parse_unary(self) -> Formula:
        kind, _, pos = self.peek()
        if kind == NEG:
            self.next()
            return neg(self.parse_unary())
        if kind == CIRC:
            self.next()
            return circ(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind, text, pos = self.next()
        if kind == "ident":
            if not re.fullmatch(r"[a-z][a-z0-9_]*|[A-Z][A-Z0-9_]*", text):
                raise ParseError(f"bad identifier {text!r}", pos)
            return Var(text)
        if kind == "(":
            f = self.parse_formula()
            kind2, _, pos2 = self.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return f
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    f = parser.parse_formula()
    kind, tok, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", pos)
    return f


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

_PREC = {IMP: 1, OR: 2, AND: 3}


def to_text(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(to_text(f)) == f``."""
    return _render(f, 0)


def _render(f: Formula, min_prec: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Unary):
        return f.op + _render(f.child, 4)
    prec = _PREC[f.op]
    if f.op == IMP:
        # right-associative: left child needs strictly higher precedence
        body = f"{_render(f.left, prec + 1)} -> {_render(f.right, prec)}"
    else:
        # left-associative: right child needs strictly higher precedence
        body = f"{_render(f.left, prec)} {f.op} {_render(f.right, prec + 1)}"
    return f"({body})" if prec < min_prec else body


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------

def subformula_closure(formulas: Iterable[Formula]) -> list[Formula]:
    """Every subformula of every input exactly once, children first."""
    seen: dict[Formula, None] = {}

    def walk(f: Formula) -> None:
        if f in seen:
            return
        if isinstance(f, Unary):
            walk(f.child)
        elif isinstance(f, Binary):
            walk(f.left)
            walk(f.right)
        seen[f] = None

    for f in formulas:
        walk(f)
    return list(seen)


def match_schema(schema: Formula, candidate: Formula) -> Optional[dict[str, Formula]]:
    """The substitution sending ``schema`` to ``candidate``, if one exists.

    Metavariables (uppercase) may bind any formula; a metavariable repeated
    in the schema must bind identical subtrees.  Object variables match only
    themselves.
    """
    binding: dict[str, Formula] = {}

    def walk(s: Formula, c: Formula) -> bool:
        if isinstance(s, Var):
            if is_metavariable(s.name):
                if s.name in binding:
                    return binding[s.name] == c
                binding[s.name] = c
                return True
            return s == c
        if isinstance(s, Unary):
            return isinstance(c, Unary) and s.op == c.op and walk(s.child, c.child)
        return (isinstance(c, Binary) and s.op == c.op
                and walk(s.left, c.left) and walk(s.right, c.right))

    return binding if walk(schema, candidate) else None


def substitute(schema: Formula, binding: dict[str, Formula]) -> Formula:
    """Apply a metavariable substitution to a schema."""
    if isinstance(schema, Var):
        if is_metavariable(schema.name):
            return binding[schema.name]
        return schema
    if isinstance(schema, Unary):
        return Unary(schema.op, substitute(schema.child, binding))
    return Binary(schema.op, substitute(schema.left, binding),
                  substitute(schema.right, binding))
