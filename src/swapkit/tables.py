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


def _designated(structure: SwapStructure) -> tuple[int, ...]:
    top = structure.algebra.top
    return tuple(i for i, z in enumerate(structure.snapshots) if z[0] == top)


def _cell_text(structure: SwapStructure, cell: int,
               block: bool, bare: bool) -> str:
    labels = structure.malg.labels
    if block:
        designated = mask_of(_designated(structure))
        if cell == designated:
            return "D"
        if cell == (1 << structure.malg.size) - 1 & ~designated:
            return "ND"
    if bare and cell & (cell - 1) == 0:
        return labels[cell.bit_length() - 1]
    # sets print in reverse carrier order: {t,T}, {f0,F}
    return "{" + ",".join(labels[u] for u in reversed(members(cell))) + "}"


def render_tables(structure: SwapStructure) -> str:
    labels = structure.malg.labels
    k = structure.malg.size
    block = not structure.pair_mode and structure.algebra.atoms == 1
    bare = all(cell & (cell - 1) == 0
               for table in structure.malg.tables.values()
               for cell in set(table))

    lines = [
        f"logic: {structure.logic.display}",
        f"atoms: {structure.algebra.atoms}",
        "carrier: " + " ".join(labels),
        "designated: " + " ".join(labels[i] for i in _designated(structure)),
    ]

    def cell_text(cell: int) -> str:
        return _cell_text(structure, cell, block, bare)

    for op in OP_ORDER:
        table = structure.malg.tables[op]
        lines.append("")
        if op in (NEG, CIRC):
            body = [[labels[i], cell_text(table[i])] for i in range(k)]
            widths = [max(len(r[c]) for r in body + [[op, op]]) for c in (0, 1)]
            head = f"{op.ljust(widths[0])} |"
            lines.append(head)
            lines.append("-" * (widths[0] + 1) + "+" + "-" * (widths[1] + 1))
            for row in body:
                lines.append(f"{row[0].ljust(widths[0])} | {row[1]}")
        else:
            body = [[labels[i]] + [cell_text(cell) for cell in
                                   table[i * k:(i + 1) * k]]
                    for i in range(k)]
            headers = [op] + list(labels)
            widths = [max(len(headers[c]), max(len(r[c]) for r in body))
                      for c in range(k + 1)]
            lines.append(" | ".join([headers[0].ljust(widths[0]),
                                     " ".join(h.ljust(w) for h, w in
                                              zip(headers[1:], widths[1:])).rstrip()]))
            lines.append("-" * (widths[0] + 1) + "+" +
                         "-" * (sum(widths[1:]) + len(widths[1:])))
            for row in body:
                lines.append(" | ".join([row[0].ljust(widths[0]),
                                         " ".join(v.ljust(w) for v, w in
                                                  zip(row[1:], widths[1:])).rstrip()]))
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
        "designated": [labels[i] for i in _designated(structure)],
        "ops": ops,
    }
