"""The swapkit command line's behaviours, one case per command line.

A case gives the argv, the expected exit code and, optionally, extra
environment variables and the expected stdout: a golden file (a ``Path``),
an exact text, a compiled regex that must be found in it, or ``None`` to
leave it unchecked. Every case runs in the inherited environment without
``SWAPKIT_MAX_CELLS``, plus its own variables, and its stderr must never hold
a traceback.

The unit tests run every case in-process through ``swapkit.cli.run``. Run
them against an installed program, one process at a time, with::

    python tests/cli_cases.py swapkit
    PYTHONPATH=src python tests/cli_cases.py python3 -m swapkit.cli
"""

import difflib
import os
import re
import shlex
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PROOFS = ROOT / "tests" / "proofs"
CLI_PROOFS = PROOFS / "cli"

Case = namedtuple("Case", "argv code stdout env", defaults=(None, None))

#: Passing verify output: no check in it failed.
NO_FAIL = re.compile(r"\A(?!.*FAIL)", re.S)
PROVED = "ok: q follows from 1 premise(s) in mbC\n"
BAD_LINE_4 = "error: line 4: unexpected end of input (at offset 4)\n"
MISSING = CLI_PROOFS / "missing.proof"

CASES = [
    *(Case(["tables", logic], 0, GOLDEN / f"tables_{logic}.txt")
      for logic in ("mbc", "mbcciw", "mbcci", "ci", "lfi1o", "ciore", "cple")),
    # logic names are case-free, and j3 names LFI1o
    Case(["tables", "j3"], 0, GOLDEN / "tables_lfi1o.txt"),
    Case(["tables", "LFI1O"], 0, GOLDEN / "tables_lfi1o.txt"),
    # the one-snapshot structure over no atoms designates its snapshot
    Case(["tables", "mbc", "--atoms", "0"], 0, re.compile(
        r"\Alogic: mbC\natoms: 0\ncarrier: \(0,0,0\)\ndesignated: \(0,0,0\)\n")),
    Case(["tables", "mbc", "--json"], 0, GOLDEN / "tables_mbc.json"),
    # a refuted query exits 1 and prints its least countermodel
    Case(["decide", "mbc", "-p", "p", "-p", "~p", "q"], 1,
         GOLDEN / "decide_explosion.txt"),
    Case(["decide", "mbc", "-p", "@p", "-p", "p", "-p", "~p", "q"], 0,
         "premise: @p\npremise: p\npremise: ~p\ngoal: q\nverdict: holds\n"),
    Case(["decide", "mbc", "-p", "p", "-p", "~p", "q", "--json"], 1,
         '{\n  "holds": false,\n  "countermodel": {\n    "p": "t",\n'
         '    "~p": "T",\n    "q": "F"\n  }\n}\n'),
    # a syntax error, a stray character or a bad logic exits 2 with one line
    Case(["decide", "mbc", "p &"], 2,
         "error: unexpected end of input (at offset 3)\n"),
    Case(["decide", "mbc", "p & (q"], 2, "error: expected ')' (at offset 6)\n"),
    Case(["decide", "mbc", "1p | q"], 2,
         "error: unexpected character '1' (at offset 0)\n"),
    Case(["decide", "nosuchlogic", "p"], 2,
         "error: unknown logic 'nosuchlogic' (known: ci, ciore, cple, cple+, "
         "cplep, j3, lfi1, lfi1o, mbc, mbcci, mbcciw)\n"),
    # refused by name; decided only over a chosen structure
    Case(["decide", "cple+", "p"], 2,
         "error: cple+ is not decided by name: its eight-valued structure over "
         "A2 is not adopted as its characteristic matrix; decide over a chosen "
         "structure instead\n"),
    # a tab and a newline are blanks between tokens
    Case(["decide", "mbc", "p\t|\n~p"], 0, "goal: p | ~p\nverdict: holds\n"),
    # depth is bounded by memory and time, not by the recursion limit
    *(Case(["decide", "mbc", deep], 1,
           re.compile(re.escape(f"  {deep} = F\n") + r"\Z"))
      for deep in ("~" * 300 + "p", "~" * 3000 + "p")),
    # the cell cap refuses before anything is built: cple+ over four atoms
    # has 4096 snapshots; mbC over two atoms needs 3 * 25**2 + 2 * 25 cells
    Case(["tables", "cple+", "--atoms", "4"], 2,
         "error: full CPLe+ structure over 4 atoms would need 50339840 cells, "
         "above the cap 1000000 (set SWAPKIT_MAX_CELLS to raise it)\n"),
    Case(["tables", "mbc", "--atoms", "2"], 2,
         "error: full mbC structure over 2 atoms would need 1925 cells, above "
         "the cap 1924 (set SWAPKIT_MAX_CELLS to raise it)\n",
         {"SWAPKIT_MAX_CELLS": "1924"}),
    Case(["tables", "mbc", "--atoms", "2"], 0, re.compile(r"\Alogic: mbC\n"),
         {"SWAPKIT_MAX_CELLS": "1925"}),
    Case(["represent", "mbc", "--atoms", "2"], 2,
         "error: SWAPKIT_MAX_CELLS must be a positive integer, got 'abc'\n",
         {"SWAPKIT_MAX_CELLS": "abc"}),
    # above the default cap: 1.17M cells, each table read from rows into one copy
    Case(["represent", "mbc", "--atoms", "4"], 0,
         re.compile(r"^homomorphism: True$", re.M),
         {"SWAPKIT_MAX_CELLS": "2000000"}),
    # 3**5 and 3**12 pairs pass the cap, their triples do not, and are not
    # built; 3**16 pairs do not
    Case(["kalman", "--atoms", "5"], 2,
         "error: Kleene laws over 5 atoms would visit 14348907 triples, above "
         "the cap 1000000 (set SWAPKIT_MAX_CELLS to raise it)\n"),
    Case(["kalman", "--atoms", "12"], 2,
         "error: Kleene laws over 12 atoms would visit 150094635296999121 "
         "triples, above the cap 1000000 (set SWAPKIT_MAX_CELLS to raise it)\n"),
    Case(["kalman", "--atoms", "16"], 2,
         "error: pair construction over 16 atoms would need 43046721 pairs, "
         "above the cap 1000000 (set SWAPKIT_MAX_CELLS to raise it)\n"),
    Case(["check-proof", "mbc", str(PROOFS / "bottom.proof")], 0, PROVED),
    Case(["check-proof", "mbc", str(PROOFS / "bottom.proof"), "--json"], 0,
         '{\n  "ok": true,\n  "conclusion": "q"\n}\n'),
    Case(["check-proof", "cple+", str(PROOFS / "bottom.proof")], 1,
         "invalid at step 10: axiom 'bc1' not available in CPLe+\n"),
    Case(["check-proof", "mbc", str(CLI_PROOFS / "not_an_instance.proof")], 1,
         "invalid at step 1: p -> q is not an instance of Ax1\n"),
    Case(["check-proof", "mbc", str(MISSING)], 2,
         f"error: [Errno 2] No such file or directory: {str(MISSING)!r}\n"),
    # fields split on any blanks: a tab follows each axiom name
    Case(["check-proof", "mbc", str(CLI_PROOFS / "tabs.proof")], 0, PROVED),
    # a superscript two is no step number
    Case(["check-proof", "mbc", str(CLI_PROOFS / "superscript_step.proof")], 2,
         "error: line 2: mp needs two step numbers\n"),
    # a bad formula names its line, whether premise or axiom instance
    Case(["check-proof", "mbc", str(CLI_PROOFS / "bad_premise.proof")], 2,
         BAD_LINE_4),
    Case(["check-proof", "mbc", str(CLI_PROOFS / "bad_axiom.proof")], 2,
         BAD_LINE_4),
    Case(["quotient-demo"], 0, GOLDEN / "quotient_demo.txt"),
    Case(["quotient-demo", "--json"], 0, GOLDEN / "quotient_demo.json"),
    Case(["kalman"], 0, GOLDEN / "kalman.txt"),
    Case(["kalman", "--json"], 0, GOLDEN / "kalman.json"),
    Case(["represent", "mbc", "--atoms", "2"], 0, GOLDEN / "represent_mbc2.txt"),
    Case(["represent", "mbc", "--atoms", "2", "--json"], 0,
         GOLDEN / "represent_mbc2.json"),
    # the 125-element power and its 125-wide homomorphism check
    Case(["represent", "mbc", "--atoms", "3"], 0, GOLDEN / "represent_mbc3.txt"),
    # the largest 3-factor power under the default cap: 512 elements
    Case(["represent", "cple+", "--atoms", "3"], 0,
         GOLDEN / "represent_cpleplus3.txt"),
    Case(["represent", "ciore", "--json"], 0,
         '{\n  "logic": "Ciore",\n  "atoms": 1,\n  "carrier": 3,\n'
         '  "factors": 1,\n  "product_carrier": 3,\n  "injective": true,\n'
         '  "homomorphism": true\n}\n'),
    Case(["verify", "all", "--seed", "0"], 0, GOLDEN / "verify_all_seed0.txt"),
    Case(["verify", "duality", "--seed", "0"], 0, GOLDEN / "verify_duality.txt"),
    Case(["verify", "duality", "--seed", "0", "--json"], 0,
         GOLDEN / "verify_duality.json"),
    Case(["verify", "duality", "--json"], 0, GOLDEN / "verify_duality.json"),
    # draws, membership and closed restrictions at seeds no golden pins
    *(Case(["verify", suite, "--seed", "1"], 0, NO_FAIL)
      for suite in ("class-chain", "duality", "kalman")),
    Case(["verify", "all", "--seed", "7"], 0, NO_FAIL),
    Case(["--help"], 0, GOLDEN / "help.txt", {"COLUMNS": "80"}),
    Case(["verify", "--help"], 0, GOLDEN / "help_verify.txt", {"COLUMNS": "80"}),
    # argparse's usage errors go to stderr
    Case(["tables"], 2, ""),
    Case(["no-such-command"], 2, ""),
]


def name(case):
    """The case as a shell line, with paths relative to the repository."""
    env = [f"{key}={value}" for key, value in (case.env or {}).items()]
    text = shlex.join(env + case.argv).replace(f"{ROOT}{os.sep}", "")
    return text if len(text) <= 60 else f"{text[:50]}... ({len(text)} chars)"


def check(case, invoke):
    """Run ``case`` through ``invoke(argv, env) -> (code, stdout, stderr)``
    and return what is wrong with the result, or None."""
    env = {key: value for key, value in os.environ.items()
           if key != "SWAPKIT_MAX_CELLS"}
    code, out, err = invoke(case.argv, {**env, **(case.env or {})})
    want = case.stdout
    if isinstance(want, Path):
        want = want.read_text(encoding="utf-8")
    if "Traceback" in err:
        return f"a traceback on stderr:\n{err}"
    if code != case.code:
        return f"exit {code}, expected {case.code}\n{out[:500]}{err[:500]}"
    if isinstance(want, re.Pattern):
        if not want.search(out):
            return f"stdout does not match {want.pattern[:80]!r}:\n{out[:500]}"
    elif want is not None and out != want:
        diff = difflib.unified_diff(want.splitlines(True), out.splitlines(True),
                                    "expected", "stdout")
        return "stdout differs:\n" + "".join(diff)[:2000]
    return None


def program(prefix):
    """An invoke that runs ``prefix + argv`` as a process and waits for it."""
    def invoke(argv, env):
        proc = subprocess.run([*prefix, *argv], env=env, capture_output=True,
                              encoding="utf-8")
        return proc.returncode, proc.stdout, proc.stderr
    return invoke


def main(prefix):
    if not prefix:
        print("usage: python tests/cli_cases.py PROGRAM [ARG...]")
        return 2
    invoke, failed = program(prefix), 0
    for case in CASES:
        problem = check(case, invoke)
        if problem:
            failed += 1
            print(f"FAIL {name(case)}: {problem}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
