"""Text and JSON export of swap-structure truth tables.

Three renderings, matching how the tables are usually displayed:

* structures over the two-element algebra in triple mode print D/ND blocks
  (every cell is exactly the designated or the undesignated set);
* fully deterministic structures print bare value labels;
* anything else prints cells as brace-wrapped sets.
"""

from __future__ import annotations

from .formula import AND, CIRC, IMP, NEG, OR
from .multialg import arg_tuples, mask_of, members
from .swap import SwapStructure

OP_ORDER = (AND, OR, IMP, NEG, CIRC)


def _cell_text(structure: SwapStructure, cell: int,
               block: bool, bare: bool) -> str:
    labels = structure.malg.labels
    if block:
        designated = mask_of(structure.designated)
        if cell == designated:
            return "D"
        if cell == (1 << structure.malg.size) - 1 & ~designated:
            return "ND"
    if bare and cell & (cell - 1) == 0:
        return labels[cell.bit_length() - 1]
    # sets print in reverse carrier order: {t,T}, {f0,F}
    return "{" + ",".join(labels[u] for u in reversed(members(cell))) + "}"


def _grid_line(texts: list[str], widths: list[int]) -> str:
    cells = " ".join(t.ljust(w) for t, w in zip(texts[1:], widths[1:]))
    return f"{texts[0].ljust(widths[0])} | {cells}".rstrip()


def render_tables(structure: SwapStructure) -> str:
    labels = structure.malg.labels
    k = structure.malg.size
    block = not structure.logic.pair_mode and structure.algebra.atoms == 1
    bare = all(cell & (cell - 1) == 0
               for table in structure.malg.tables.values()
               for cell in set(table))

    lines = [
        f"logic: {structure.logic.display}",
        f"atoms: {structure.algebra.atoms}",
        "carrier: " + " ".join(labels),
        "designated: " + " ".join(labels[i] for i in structure.designated),
    ]

    # one grid per operator; a unary table is one column with an empty header
    for op in OP_ORDER:
        table = structure.malg.tables[op]
        unary = structure.malg.signature.arity_of(op) == 1
        headers = [op] + ([""] if unary else list(labels))
        columns = len(headers) - 1
        body = [[labels[i]] + [_cell_text(structure, cell, block, bare)
                               for cell in table[i * columns:(i + 1) * columns]]
                for i in range(k)]
        widths = [max(len(r[c]) for r in [headers] + body)
                  for c in range(columns + 1)]
        rule = "-" * (widths[0] + 1) + "+" + "-" * (sum(widths[1:]) + columns)
        lines += ["", _grid_line(headers, widths), rule]
        lines += [_grid_line(r, widths) for r in body]
    return "\n".join(lines) + "\n"


def tables_json(structure: SwapStructure) -> dict:
    labels = structure.malg.labels
    ops = {}
    for op in OP_ORDER:
        arity = structure.malg.signature.arity_of(op)
        ops[op] = {",".join(labels[a] for a in args):
                   [labels[u] for u in members(cell)]
                   for args, cell in zip(arg_tuples(len(labels), arity),
                                         structure.malg.tables[op])}
    return {
        "logic": structure.logic.display,
        "atoms": structure.algebra.atoms,
        "carrier": list(labels),
        "designated": [labels[i] for i in structure.designated],
        "ops": ops,
    }
