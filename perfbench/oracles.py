"""Formula trees and the benchmark's own correctness oracles for `decide`.

Formulas are nested tuples: ``("v", name)``, ``(op, child)`` for ``~`` and
``@``, ``(op, left, right)`` for ``&``, ``|`` and ``->``.  The benchmark
renders them to text for the program and checks the program's verdicts
against a matrix given as `MultiAlg.to_json()` plus its designated indices,
without calling the decision engine:

* `countermodel_errors` checks a failing verdict's countermodel: one value
  per closure node, each compound inside the cell of its children's values,
  every premise designated and the goal undesignated;
* `brute_force` enumerates every legal valuation of the closure in
  lexicographic order, with no pruning, and returns the least countermodel;
* `digest` hashes verdicts in order, for comparison with recorded values.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

UNARY = ("~", "@")
BINARY = ("&", "|", "->")
_PREC = {"->": 1, "|": 2, "&": 3}


def full_text(t) -> str:
    """Fully parenthesised text, the form the program is given."""
    if t[0] == "v":
        return t[1]
    if t[0] in UNARY:
        return t[0] + full_text(t[1])
    return f"({full_text(t[1])} {t[0]} {full_text(t[2])})"


def min_text(t, min_prec: int = 0) -> str:
    """Minimal-parenthesis text: `&` and `|` group left, `->` groups right,
    unary operators bind tightest.  Countermodels are keyed by this form."""
    if t[0] == "v":
        return t[1]
    if t[0] in UNARY:
        return t[0] + min_text(t[1], 4)
    prec = _PREC[t[0]]
    if t[0] == "->":
        body = f"{min_text(t[1], prec + 1)} -> {min_text(t[2], prec)}"
    else:
        body = f"{min_text(t[1], prec)} {t[0]} {min_text(t[2], prec + 1)}"
    return f"({body})" if prec < min_prec else body


def closure(formulas: Sequence) -> list:
    """Distinct subformulas, children before parents, left before right."""
    seen: dict = {}

    def walk(t) -> None:
        if t in seen:
            return
        for child in t[1:] if t[0] != "v" else ():
            walk(child)
        seen[t] = None

    for t in formulas:
        walk(t)
    return list(seen)


class Matrix:
    """A finite Nmatrix read from the program's public JSON export."""

    def __init__(self, malg_json: dict, designated: Sequence[int]):
        self.labels = list(malg_json["carrier"])
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.designated = frozenset(designated)
        self.cells = {
            op: {tuple(int(a) for a in key.split(",")): tuple(cell)
                 for key, cell in spec["table"].items()}
            for op, spec in malg_json["ops"].items()}

    def cell(self, t, values: dict) -> tuple[int, ...]:
        if t[0] == "v":
            return tuple(range(len(self.labels)))
        return self.cells[t[0]][tuple(values[c] for c in t[1:])]


def countermodel_errors(matrix: Matrix, premises: Sequence, goal,
                        verdict: dict) -> list[str]:
    """Reasons a verdict's countermodel is not a legal refutation."""
    model = verdict.get("countermodel")
    if verdict.get("holds") is not False:
        return [] if verdict.get("holds") is True and model is None \
            else ["malformed verdict"]
    if not isinstance(model, dict):
        return ["failing verdict without a countermodel"]
    nodes = closure(list(premises) + [goal])
    keys = [min_text(t) for t in nodes]
    if sorted(model) != sorted(keys):
        return ["countermodel domain is not the subformula closure"]
    errors = []
    values = {}
    for t, key in zip(nodes, keys):
        value = matrix.index.get(model[key])
        if value is None:
            return [f"unknown value {model[key]!r} at {key}"]
        values[t] = value
    for t, key in zip(nodes, keys):
        if values[t] not in matrix.cell(t, values):
            errors.append(f"{key} = {model[key]} is outside its cell")
    for p in premises:
        if values[p] not in matrix.designated:
            errors.append(f"premise {min_text(p)} is not designated")
    if values[goal] in matrix.designated:
        errors.append(f"goal {min_text(goal)} is designated")
    return errors


def brute_force_cost(matrix: Matrix, premises: Sequence, goal) -> int:
    """Upper bound on the leaves `brute_force` visits."""
    k = len(matrix.labels)
    widest = max(len(c) for table in matrix.cells.values()
                 for c in table.values())
    cost = 1
    for t in closure(list(premises) + [goal]):
        cost *= k if t[0] == "v" else widest
    return cost


def brute_force(matrix: Matrix, premises: Sequence, goal) -> dict:
    """The verdict, by enumerating all legal valuations of the closure in
    lexicographic order and stopping at the first countermodel."""
    nodes = closure(list(premises) + [goal])
    premise_set = set(premises)
    values: dict = {}

    def extend(i: int) -> bool:
        if i == len(nodes):
            return (all(values[p] in matrix.designated for p in premise_set)
                    and values[goal] not in matrix.designated)
        t = nodes[i]
        for u in matrix.cell(t, values):
            values[t] = u
            if extend(i + 1):
                return True
        del values[t]
        return False

    if not extend(0):
        return {"holds": True, "countermodel": None}
    return {"holds": False,
            "countermodel": {min_text(t): matrix.labels[values[t]]
                             for t in nodes}}


def digest(verdicts: Sequence[dict]) -> str:
    h = hashlib.sha256()
    for v in verdicts:
        h.update(json.dumps(v, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def first_difference(a: dict, b: dict) -> Optional[str]:
    """A short description of how two verdict JSONs differ, or None."""
    if a == b and list((a.get("countermodel") or {}).items()) == \
            list((b.get("countermodel") or {}).items()):
        return None
    return f"{json.dumps(a)} != {json.dumps(b)}"
