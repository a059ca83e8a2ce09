"""Command-line interface.

Exit codes: 0 for success / "holds", 1 for a failed verdict or verification,
2 for usage and input errors, and, with nothing printed, for an output closed
by its reader.

Proof checking, the verification suites and table rendering are imported by
the commands that use them, so that the others do not pay for loading them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boolalg import powerset_algebra
from .formula import parse, to_text
from .logics import LogicId, parse_logic
from .multialg import (arg_tuples, is_full_homomorphism, is_homomorphism,
                       is_multicongruence)
from .nmatrix import decide_logic
from .swap import (KalmanAlgebra, _check_kleene_triples, duality_star,
                   find_swap_decoding, full_swap, kleene_law_failures,
                   mbc_quotient_counterexample, represent, universe)

#: The names of ``verify.SUITES``, sorted, known without importing verify.
SUITE_NAMES = ("characterization", "class-chain", "duality", "kalman",
               "representation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapkit",
        description="Finite swap-structure semantics for the mbC family of "
                    "paraconsistent logics: tables, decision, proof checking "
                    "and structure verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="print the truth tables of a full structure")
    p.add_argument("logic")
    p.add_argument("--atoms", type=int, default=1)

    p = sub.add_parser("decide", help="decide a consequence claim")
    p.add_argument("logic")
    p.add_argument("goal")
    p.add_argument("-p", "--premise", action="append", default=[])

    p = sub.add_parser("check-proof", help="check a Hilbert-style proof file")
    p.add_argument("logic")
    p.add_argument("file")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("kalman", help="show the pair construction and its duality")
    p.add_argument("--atoms", type=int, default=1)

    p = sub.add_parser("represent", help="build and verify the power embedding")
    p.add_argument("logic")
    p.add_argument("--atoms", type=int, default=1)

    sub.add_parser("quotient-demo",
                   help="the two-block quotient that leaves the mbC class")
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        handler = _HANDLERS[args.command]
        return handler(args, out)
    except BrokenPipeError:  # the reader closed stdout: nowhere to report
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    except MemoryError:
        print("error: out of memory (lower --atoms or SWAPKIT_MAX_CELLS)",
              file=out)
        return 2


def main() -> None:
    sys.exit(run())


def _dump(payload, out) -> None:
    json.dump(payload, out, indent=2)
    print(file=out)


def _cmd_tables(args, out) -> int:
    from .tables import render_tables, tables_json
    logic = parse_logic(args.logic)
    structure = full_swap(logic, powerset_algebra(args.atoms))
    if args.json:
        _dump(tables_json(structure), out)
    else:
        out.write(render_tables(structure))
    return 0


def _cmd_decide(args, out) -> int:
    logic = parse_logic(args.logic)
    premises = [parse(p) for p in args.premise]
    goal = parse(args.goal)
    verdict = decide_logic(logic, premises, goal)
    if args.json:
        _dump(verdict.to_json(), out)
    else:
        for p in premises:
            print(f"premise: {to_text(p)}", file=out)
        print(f"goal: {to_text(goal)}", file=out)
        if verdict.holds:
            print("verdict: holds", file=out)
        else:
            print("verdict: does not hold", file=out)
            print("countermodel:", file=out)
            for text, label in verdict.countermodel.to_json().items():
                print(f"  {text} = {label}", file=out)
    return 0 if verdict.holds else 1


def _cmd_check_proof(args, out) -> int:
    from .hilbert import check_proof, parse_proof
    logic = parse_logic(args.logic)
    with open(args.file, encoding="utf-8") as fh:
        proof = parse_proof(fh.read())
    result = check_proof(logic, proof)
    if args.json:
        payload = {"ok": result.ok}
        if result.ok:
            payload["conclusion"] = to_text(result.conclusion)
        else:
            payload["step"] = None if result.step is None else result.step + 1
            payload["reason"] = result.reason
        _dump(payload, out)
    elif result.ok:
        print(f"ok: {to_text(result.conclusion)} follows from "
              f"{len(proof.premises)} premise(s) in {logic.display}", file=out)
    else:
        where = "" if result.step is None else f" at step {result.step + 1}"
        print(f"invalid{where}: {result.reason}", file=out)
    return 0 if result.ok else 1


def _cmd_verify(args, out) -> int:
    from .verify import SUITES
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    all_ok = True
    payload = {}
    for name in names:
        ok, lines = SUITES[name](args.seed)
        all_ok &= ok
        payload[name] = {"ok": ok, "lines": lines}
        if not args.json:
            print(f"suite {name}: {'pass' if ok else 'FAIL'}", file=out)
            for line in lines:
                print("  " + line, file=out)
    if args.json:
        _dump(payload, out)
    return 0 if all_ok else 1


def _cmd_kalman(args, out) -> int:
    algebra = powerset_algebra(args.atoms)
    _check_kleene_triples(args.atoms)  # by count, before any pair is built
    K = KalmanAlgebra(algebra)
    failures = kleene_law_failures(K)
    star = duality_star(algebra)
    bijective = sorted(star.values()) == sorted(universe(LogicId.MBCCIW, algebra))
    if args.json:
        _dump({
            "atoms": args.atoms,
            "carrier": [K.label(z) for z in K.carrier],
            "center": K.label(K.center),
            "negation": {K.label(z): K.label(K.neg(z)) for z in K.carrier},
            "kleene_failures": failures,
            "duality_bijective": bijective,
        }, out)
    else:
        print(f"pair construction over {args.atoms} atom(s): "
              f"{K.size} pairs with meet zero", file=out)
        print("carrier: " + " ".join(K.label(z) for z in K.carrier), file=out)
        print(f"center: {K.label(K.center)} (its own negation)", file=out)
        for z in K.carrier:
            print(f"  ~{K.label(z)} = {K.label(K.neg(z))}", file=out)
        print(f"kleene laws: {'all hold' if not failures else failures}", file=out)
        print(f"duality onto the pair universe: "
              f"{'bijective' if bijective else 'BROKEN'}", file=out)
    return 0 if not failures and bijective else 1


def _cmd_represent(args, out) -> int:
    logic = parse_logic(args.logic)
    structure = full_swap(logic, powerset_algebra(args.atoms))
    result = represent(logic, structure)
    injective = len(set(result.hmap.mapping)) == structure.malg.size
    hom = is_homomorphism(result.hmap)
    if args.json:
        _dump({
            "logic": logic.display,
            "atoms": args.atoms,
            "carrier": structure.malg.size,
            "factors": result.index_size,
            "product_carrier": result.product.size,
            "injective": injective,
            "homomorphism": hom,
        }, out)
    else:
        print(f"{logic.display} over {args.atoms} atom(s): "
              f"{structure.malg.size} snapshots", file=out)
        print(f"embedding into the {result.index_size}-fold power of the "
              f"two-element structure ({result.product.size} elements)", file=out)
        print(f"injective: {injective}", file=out)
        print(f"homomorphism: {hom}", file=out)
    return 0 if injective and hom else 1


def _cmd_quotient_demo(args, out) -> int:
    from .tables import OP_ORDER
    m5, theta, quot, proj = mbc_quotient_counterexample()
    labels = m5.malg.labels
    blocks = [" ".join(labels[x] for x in block) for block in theta.blocks()]
    congruent = is_multicongruence(theta, m5.malg)
    cells_trivial = all(cell == 0b11
                        for table in quot.tables.values() for cell in table)
    full_hom = is_full_homomorphism(proj)
    decoding = find_swap_decoding(LogicId.MBC, quot, m5.algebra)
    escaped = decoding is None
    ok = congruent and cells_trivial and full_hom and escaped
    if args.json:
        _dump({
            "blocks": blocks,
            "multicongruence": congruent,
            "all_cells_trivial": cells_trivial,
            "projection_full_homomorphism": full_hom,
            "swap_structure_for_mbC": not escaped,
        }, out)
        return 0 if ok else 1
    print("partition of the five-value carrier:", file=out)
    for name, members in zip(theta.block_labels, blocks):
        print(f"  {name} = {{{members}}}", file=out)
    print(f"multicongruence: {congruent}", file=out)
    print("quotient cells:", file=out)
    qlabels = quot.labels
    for op in OP_ORDER:
        arity = quot.signature.arity_of(op)
        for targs in arg_tuples(quot.size, arity):
            arg_text = ",".join(qlabels[a] for a in targs)
            cell = quot.cell(op, targs)
            cell_text = "{" + ",".join(qlabels[u] for u in cell) + "}"
            print(f"  {op}({arg_text}) = {cell_text}", file=out)
    print(f"projection is a full homomorphism: {full_hom}", file=out)
    if escaped:
        print("no snapshot decoding works: the quotient is not a swap "
              "structure for mbC", file=out)
    else:
        print("unexpected: a decoding was found", file=out)
    return 0 if ok else 1


_HANDLERS = {
    "tables": _cmd_tables,
    "decide": _cmd_decide,
    "check-proof": _cmd_check_proof,
    "verify": _cmd_verify,
    "kalman": _cmd_kalman,
    "represent": _cmd_represent,
    "quotient-demo": _cmd_quotient_demo,
}


if __name__ == "__main__":
    main()
