import contextlib
import io
import json
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_cases import CASES, CLI_PROOFS, GOLDEN, PROOFS, check, program
from cli_cases import name as case_name
from swapkit.cli import run
from swapkit.formula import to_text
from helpers import empty_structure_caches, traced
from test_formula import FORMULAS, PARSER_TOKENS


def capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def in_process(argv, env):
    """Run ``cli.run`` under ``env`` alone, capturing stdout and stderr,
    from empty structure caches as in a new process."""
    empty_structure_caches()
    saved = dict(os.environ)
    out, err = io.StringIO(), io.StringIO()
    try:
        os.environ.clear()
        os.environ.update(env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=case_name)
def test_cli_case(case):
    assert check(case, in_process) is None


#: The cases refused by the cell cap: each refuses before it builds, far
#: below what building would take (about 100 MB for ``kalman --atoms 12``)
CAPPED = [case for case in CASES
          if case.code == 2 and "SWAPKIT_MAX_CELLS" in str(case.stdout)]


@pytest.mark.parametrize("case", CAPPED, ids=case_name)
def test_cell_cap_refusals_build_nothing(case):
    problem, peak, _ = traced(lambda: check(case, in_process))
    assert problem is None and peak < 2 << 20


#: The cases run again as new processes: each one with its own environment
#: (the cell caps among them), a golden and a refuted query
FRESH = [case for case in CASES if case.env or case.argv in (
    ["tables", "mbc"], ["decide", "mbc", "-p", "p", "-p", "~p", "q"])]
PYTHON_M = program([sys.executable, "-m", "swapkit.cli"])


@pytest.mark.parametrize("case", FRESH, ids=case_name)
def test_cli_case_in_a_fresh_process(case):
    assert check(case, PYTHON_M) is None


@pytest.mark.parametrize("invoke", [in_process, PYTHON_M],
                         ids=["in_process", "python_m"])
def test_check_reports_a_wrong_code_or_stdout(invoke):
    case = FRESH[0]
    assert check(case._replace(code=1), invoke).startswith("exit 0, expected 1")
    assert check(case._replace(stdout="logic: mbC\n"), invoke).startswith(
        "stdout differs")


def test_json_goldens():
    # every JSON golden parses, and a --json case pins it to its command
    pinned = {case.stdout: case for case in CASES if "--json" in case.argv
              and case.stdout in set(GOLDEN.glob("*.json"))}
    assert pinned.keys() == set(GOLDEN.glob("*.json"))
    for golden, case in sorted(pinned.items()):
        json.loads(golden.read_text(encoding="utf-8"))
        assert check(case, in_process) is None, golden.name


def test_kalman_json():
    code, text = capture(["kalman", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["carrier"] == ["F", "f", "T"]
    assert payload["negation"]["f"] == "f"
    assert payload["kleene_failures"] == []
    assert payload["duality_bijective"] is True


def test_the_tab_proof_holds_tabs():
    assert "axiom Ax4\t" in (CLI_PROOFS / "tabs.proof").read_text()


def test_every_logic_name_and_alias_resolves():
    from swapkit.logics import LogicId, parse_logic
    names = {logic.value: logic for logic in LogicId}
    names.update(cplep=LogicId.CPLE_PLUS, lfi1=LogicId.LFI1O, j3=LogicId.LFI1O)
    for name, logic in names.items():
        for spelling in (name, name.upper(), name.title(), f"  {name}\t"):
            assert parse_logic(spelling) is logic
    with pytest.raises(ValueError) as exc:
        parse_logic("nosuchlogic")
    assert str(exc.value) == (
        "unknown logic 'nosuchlogic' (known: ci, ciore, cple, cple+, cplep, "
        "j3, lfi1, lfi1o, mbc, mbcci, mbcciw)")


def test_long_chain_as_premise_and_goal():
    chain = " & ".join(["p"] * 10 ** 5)
    code, text = capture(["decide", "mbc", "-p", chain, chain])
    assert code == 0 and text.endswith("verdict: holds\n")


def test_goal_among_premises_holds_at_once():
    # no valuation designates the premise and leaves the goal undesignated;
    # the search must not walk the paths below the goal to find that out
    import time
    deep = "~" * 300 + "p"
    started = time.perf_counter()
    code, text = capture(["decide", "mbc", "-p", deep, deep])
    elapsed = time.perf_counter() - started
    assert code == 0 and text.endswith("verdict: holds\n")
    assert elapsed < 0.5, elapsed


def test_out_of_memory_is_one_line(monkeypatch):
    from swapkit import cli

    def exhausted(args, out):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "tables", exhausted)
    code, text = capture(["tables", "mbc"])
    assert code == 2
    assert text == "error: out of memory (lower --atoms or SWAPKIT_MAX_CELLS)\n"


#: The fuzzed commands' arguments: every logic name, atom counts in and out
#: of range, formulas (token soup, well formed, or nested to depth 2000),
#: proof paths (missing, a directory, a valid proof) and bad cell caps.
FUZZ_LOGICS = st.sampled_from(("mbc", "mbcciw", "mbcci", "ci", "cple",
                               "lfi1o", "ciore", "cple+"))
FUZZ_ATOMS = st.sampled_from((*map(str, range(-5, 3)), "17", "40",
                              str(10 ** 30)))
FUZZ_FORMULAS = st.one_of(
    st.lists(st.sampled_from(PARSER_TOKENS), max_size=12).map("".join),
    FORMULAS.map(to_text),
    st.sampled_from((10, 2000)).map(lambda depth: "~" * depth + "p"))
FUZZ_ARGV = st.one_of(
    st.tuples(st.just("decide"), FUZZ_LOGICS, FUZZ_FORMULAS,
              st.lists(st.tuples(st.just("-p"), FUZZ_FORMULAS), max_size=2)
              ).map(lambda t: [*t[:3], *(x for pair in t[3] for x in pair)]),
    st.tuples(st.sampled_from(("tables", "represent")), FUZZ_LOGICS,
              st.just("--atoms"), FUZZ_ATOMS).map(list),
    FUZZ_ATOMS.map(lambda atoms: ["kalman", "--atoms", atoms]),
    st.tuples(st.just("check-proof"), FUZZ_LOGICS, st.sampled_from(
        (str(PROOFS / "missing.proof"), str(PROOFS),
         str(PROOFS / "bottom.proof")))).map(list),
    st.sampled_from(("-1", "0", "x")).map(
        lambda seed: ["verify", "duality", "--seed", seed]))


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FUZZ_ARGV, st.booleans(),
       st.sampled_from((None, "", "0", "-3", "abc", "1e3")))
def test_fuzzed_commands_exit_0_1_or_2_with_one_line_errors(
        monkeypatch, capsys, argv, as_json, cap):
    # never a traceback, and an error is one line
    if cap is None:
        monkeypatch.delenv("SWAPKIT_MAX_CELLS", raising=False)
    else:
        monkeypatch.setenv("SWAPKIT_MAX_CELLS", cap)
    code, text = capture(argv + ["--json"] * as_json)
    stdout, stderr = capsys.readouterr()
    assert code in (0, 1, 2), text
    assert "Traceback" not in text + stdout + stderr
    if "error:" in text:
        assert text.startswith("error: ") and text.count("\n") == 1, text


def test_verify_suite_names_match_the_suites():
    from swapkit import cli, verify
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_cold_import_loads_only_what_every_command_needs():
    # the benchmark's tracer finds formula, nmatrix, swap and multialg in
    # sys.modules right after `import swapkit.cli`; proofs, the suites,
    # table rendering and dataclasses load only where they are used
    import subprocess
    import sys
    probe = ("import sys, swapkit.cli; "
             "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert {"swapkit.formula", "swapkit.nmatrix", "swapkit.swap",
            "swapkit.multialg"} <= loaded
    assert not loaded & {"dataclasses", "swapkit.hilbert", "swapkit.verify",
                         "swapkit.tables"}


class _ClosedPipe(io.StringIO):
    """An output whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_output_exits_2_without_writing_to_it():
    assert run(["tables", "mbc", "--json"], out=_ClosedPipe()) == 2
    assert run(["decide", "mbc", "~p"], out=_ClosedPipe()) == 2


def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path):
    import subprocess
    import sys
    # about 4 MB of JSON, far more than a pipe buffers, so a write fails
    argv = [sys.executable, "-m", "swapkit.cli", "tables", "cple+",
            "--atoms", "2", "--json"]
    with open(tmp_path / "err.txt", "w") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert code == 2
    assert (tmp_path / "err.txt").read_text() == ""


#: The traced peak, in bytes, that ``represent mbc --atoms 4`` stays under.
#: Measured at 1.2 MiB with binary tables held as shared rows; 63.5 MiB
#: when each table was flat.
REPRESENT_4_PEAK = 4 << 20


def test_four_atom_representation_stays_small(monkeypatch):
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "2000000")
    empty_structure_caches()
    out = io.StringIO()
    code, peak, _held = traced(
        lambda: run(["represent", "mbc", "--atoms", "4"], out=out))
    print(f"represent mbc --atoms 4: traced peak {peak / 2 ** 20:.1f} MiB")
    assert code == 0 and "homomorphism: True" in out.getvalue()
    assert peak < REPRESENT_4_PEAK
