"""Axiom schemas and Hilbert-style proof checking.

Each logic carries an ordered list of named schemas; modus ponens is the only
rule.  The checker verifies, never searches: a step is a premise reference,
a claimed axiom instance (validated against the schema by matching, with
repeated metavariables forced to bind equal subtrees), or an MP application
naming both earlier steps.

Biconditional axioms are stored desugared, so an instance must be presented
as the conjunction of the two implications.
"""

from __future__ import annotations

from typing import Optional, Union

from ._frozen import Value
from .formula import (Binary, Formula, IMP, ParseError, match_schema, parse,
                      to_text)
from .logics import LogicId

_SCHEMA_SOURCES: tuple[tuple[str, str], ...] = (
    ("Ax1", "A -> (B -> A)"),
    ("Ax2", "(A -> (B -> C)) -> ((A -> B) -> (A -> C))"),
    ("Ax3", "A -> (B -> (A & B))"),
    ("Ax4", "(A & B) -> A"),
    ("Ax5", "(A & B) -> B"),
    ("Ax6", "A -> (A | B)"),
    ("Ax7", "B -> (A | B)"),
    ("Ax8", "(A -> C) -> ((B -> C) -> ((A | B) -> C))"),
    ("Ax9", "(A -> B) | A"),
    ("Ax10", "A | ~A"),
    ("bc1", "@A -> (A -> (~A -> B))"),
    ("ciw", "@A | (A & ~A)"),
    ("ci", "~@A -> (A & ~A)"),
    ("cf", "~~A -> A"),
    ("cons", "@A"),
    ("ce", "A -> ~~A"),
    ("neg_or", "~(A | B) <-> (~A & ~B)"),
    ("neg_and", "~(A & B) <-> (~A | ~B)"),
    ("neg_imp", "~(A -> B) <-> (A & ~B)"),
    ("co1", "(@A | @B) <-> @(A & B)"),
    ("co2", "(@A | @B) <-> @(A | B)"),
    ("co3", "(@A | @B) <-> @(A -> B)"),
)

SCHEMAS: dict[str, Formula] = {name: parse(src) for name, src in _SCHEMA_SOURCES}

_POSITIVE = ("Ax1", "Ax2", "Ax3", "Ax4", "Ax5", "Ax6", "Ax7", "Ax8", "Ax9")

_AXIOM_NAMES: dict[LogicId, tuple[str, ...]] = {
    LogicId.CPLE_PLUS: _POSITIVE,
    LogicId.MBC: _POSITIVE + ("Ax10", "bc1"),
    LogicId.MBCCIW: _POSITIVE + ("Ax10", "bc1", "ciw"),
    LogicId.MBCCI: _POSITIVE + ("Ax10", "bc1", "ciw", "ci"),
    LogicId.CI: _POSITIVE + ("Ax10", "bc1", "ciw", "ci", "cf"),
    LogicId.CPLE: _POSITIVE + ("Ax10", "bc1", "cons"),
    LogicId.LFI1O: _POSITIVE + ("Ax10", "bc1", "ciw", "ci", "cf",
                                "ce", "neg_or", "neg_and", "neg_imp"),
    LogicId.CIORE: _POSITIVE + ("Ax10", "bc1", "ciw", "ci", "cf",
                                "ce", "co1", "co2", "co3"),
}

#: Schemas that cut each class of swap structures out of the base class,
#: used by the characterization checks on the semantic side.
DEFINING_SCHEMAS: dict[LogicId, tuple[str, ...]] = {
    LogicId.CPLE_PLUS: (),
    LogicId.MBC: ("Ax10", "bc1"),
    LogicId.MBCCIW: ("Ax10", "bc1", "ciw"),
    LogicId.MBCCI: ("Ax10", "bc1", "ci"),
    LogicId.CI: ("Ax10", "bc1", "ci", "cf"),
    LogicId.CPLE: ("Ax10", "bc1", "cons"),
    LogicId.LFI1O: ("Ax10", "bc1", "ci", "cf", "ce", "neg_or", "neg_and", "neg_imp"),
    LogicId.CIORE: ("Ax10", "bc1", "ci", "cf", "ce", "co1", "co2", "co3"),
}


def axioms_of(logic: LogicId) -> tuple[str, ...]:
    """The names of the logic's axiom schemas, in order."""
    return _AXIOM_NAMES[logic]


def resolve_axiom_name(name: str) -> Optional[str]:
    lowered = name.lower()
    for canonical in SCHEMAS:
        if canonical.lower() == lowered:
            return canonical
    return None


# ----------------------------------------------------------------------
# Proofs
# ----------------------------------------------------------------------

class Premise(Value):
    __slots__ = ("index",)  # into the proof's premises


class Axiom(Value):
    __slots__ = ("name", "formula")


class ModusPonens(Value):
    # step indices, 0-based; roles resolved during checking
    __slots__ = ("first", "second")


Step = Union[Premise, Axiom, ModusPonens]


class Proof(Value):
    __slots__ = ("premises", "steps")


class ProofCheck:
    __slots__ = ("ok", "formulas", "step", "reason")

    def __init__(self, ok: bool, formulas: list[Formula],
                 step: Optional[int] = None, reason: Optional[str] = None):
        self.ok = ok
        self.formulas = formulas
        self.step = step  # 0-based index of the failing step
        self.reason = reason

    @property
    def conclusion(self) -> Formula:
        if not self.ok:
            raise ValueError("proof did not check")
        return self.formulas[-1]


def check_proof(logic: LogicId, proof: Proof) -> ProofCheck:
    axioms = axioms_of(logic)
    formulas: list[Formula] = []

    def err(i: int, reason: str) -> ProofCheck:
        return ProofCheck(False, formulas, i, reason)

    if not proof.steps:
        return ProofCheck(False, [], None, "empty proof")

    for i, step in enumerate(proof.steps):
        if isinstance(step, Premise):
            if not 0 <= step.index < len(proof.premises):
                return err(i, f"premise #{step.index + 1} does not exist")
            formulas.append(proof.premises[step.index])
        elif isinstance(step, Axiom):
            canonical = resolve_axiom_name(step.name)
            if canonical is None or canonical not in axioms:
                return err(i, f"axiom {step.name!r} not available in {logic.display}")
            if match_schema(SCHEMAS[canonical], step.formula) is None:
                return err(i, f"{to_text(step.formula)} is not an instance of {canonical}")
            formulas.append(step.formula)
        elif isinstance(step, ModusPonens):
            a, b = step.first, step.second
            if not (0 <= a < i and 0 <= b < i):
                return err(i, "modus ponens must reference earlier steps")
            conclusion = _mp_conclusion(formulas[a], formulas[b])
            if conclusion is None:
                return err(i, "modus ponens shape mismatch: neither step is an "
                              "implication whose antecedent is the other")
            formulas.append(conclusion)
        else:  # pragma: no cover - exhaustiveness guard
            return err(i, f"unknown step kind {step!r}")
    return ProofCheck(True, formulas)


def _mp_conclusion(x: Formula, y: Formula) -> Optional[Formula]:
    if isinstance(y, Binary) and y.op == IMP and y.left == x:
        return y.right
    if isinstance(x, Binary) and x.op == IMP and x.left == y:
        return x.right
    return None


def derives_ciw_bottom(logic: LogicId) -> Proof:
    """A checkable derivation of a fresh variable q from (p & ~p) & @p.

    Works for every logic whose axiom set contains the conjunction
    projections and the gentle-explosion schema.
    """
    axioms = axioms_of(logic)
    for needed in ("Ax4", "Ax5", "bc1"):
        if needed not in axioms:
            raise ValueError(f"{logic.display} lacks {needed}; no bottom derivation")
    bottom = parse("(p & ~p) & @p")
    steps: tuple[Step, ...] = (
        Premise(0),                                            # 0: (p&~p)&@p
        Axiom("Ax4", parse("((p & ~p) & @p) -> (p & ~p)")),    # 1
        ModusPonens(0, 1),                                     # 2: p&~p
        Axiom("Ax5", parse("((p & ~p) & @p) -> @p")),          # 3
        ModusPonens(0, 3),                                     # 4: @p
        Axiom("Ax4", parse("(p & ~p) -> p")),                  # 5
        ModusPonens(2, 5),                                     # 6: p
        Axiom("Ax5", parse("(p & ~p) -> ~p")),                 # 7
        ModusPonens(2, 7),                                     # 8: ~p
        Axiom("bc1", parse("@p -> (p -> (~p -> q))")),         # 9
        ModusPonens(4, 9),                                     # 10: p -> (~p -> q)
        ModusPonens(6, 10),                                    # 11: ~p -> q
        ModusPonens(8, 11),                                    # 12: q
    )
    return Proof((bottom,), steps)


# ----------------------------------------------------------------------
# Proof file format: one step per line, 1-based references, '#' comments.
# Fields are separated by any run of blanks (spaces or tabs); the formula
# takes the rest of the line, and step numbers are ASCII digits.
#   premise <formula>
#   axiom <name> <formula>
#   mp <i> <j>
# ----------------------------------------------------------------------

def parse_proof(text: str) -> Proof:
    premises: list[Formula] = []
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *tail = line.split(maxsplit=1)
        rest = tail[0] if tail else ""
        if head == "premise":
            premises.append(_parse_on_line(lineno, rest))
            steps.append(Premise(len(premises) - 1))
        elif head == "axiom":
            name_body = rest.split(maxsplit=1)
            if len(name_body) != 2:
                raise ValueError(f"line {lineno}: axiom needs a name and a formula")
            name, body = name_body
            steps.append(Axiom(name, _parse_on_line(lineno, body)))
        elif head == "mp":
            parts = rest.split()
            if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
                raise ValueError(f"line {lineno}: mp needs two step numbers")
            i, j = (int(p) - 1 for p in parts)
            steps.append(ModusPonens(i, j))
        else:
            raise ValueError(f"line {lineno}: unknown step kind {head!r}")
    return Proof(tuple(premises), tuple(steps))


def _parse_on_line(lineno: int, text: str) -> Formula:
    try:
        return parse(text)
    except ParseError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
