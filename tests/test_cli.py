import contextlib
import io
import json
from pathlib import Path

import pytest

from swapkit.cli import run

GOLDEN = Path(__file__).parent / "golden"


def capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def assert_golden(name, argv, expected_code=0):
    code, text = capture(argv)
    assert code == expected_code, text
    assert text == (GOLDEN / name).read_text()


def test_tables_golden():
    assert_golden("tables_mbc.txt", ["tables", "mbc"])
    assert_golden("tables_mbcciw.txt", ["tables", "mbcciw"])
    assert_golden("tables_mbcci.txt", ["tables", "mbcci"])
    assert_golden("tables_ci.txt", ["tables", "ci"])
    assert_golden("tables_lfi1o.txt", ["tables", "lfi1o"])
    assert_golden("tables_ciore.txt", ["tables", "ciore"])
    assert_golden("tables_cple.txt", ["tables", "cple"])


def test_tables_print_the_degenerate_structure():
    # the one-snapshot structure over no atoms designates its snapshot; only
    # its matrix, which tables never builds, is refused
    code, text = capture(["tables", "mbc", "--atoms", "0"])
    assert code == 0
    assert text.splitlines()[:4] == ["logic: mbC", "atoms: 0",
                                     "carrier: (0,0,0)",
                                     "designated: (0,0,0)"]


def test_tables_logic_aliases():
    _, via_alias = capture(["tables", "j3"])
    _, direct = capture(["tables", "LFI1O"])
    assert via_alias == direct


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


def test_tables_json_roundtrip():
    code, text = capture(["tables", "mbc", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["carrier"] == ["T", "t", "t0", "F", "f0"]
    assert payload["designated"] == ["T", "t", "t0"]
    assert payload["ops"]["~"]["T"] == ["F", "f0"]
    assert payload["ops"]["&"]["T,F"] == ["F", "f0"]


def test_decide_golden_and_exit_codes():
    assert_golden("decide_explosion.txt",
                  ["decide", "mbc", "-p", "p", "-p", "~p", "q"],
                  expected_code=1)
    code, _ = capture(["decide", "mbc", "-p", "@p", "-p", "p", "-p", "~p", "q"])
    assert code == 0
    code, text = capture(["decide", "mbc", "-p", "p", "-p", "~p", "q", "--json"])
    assert code == 1
    payload = json.loads(text)
    assert payload == {"holds": False,
                       "countermodel": {"p": "t", "~p": "T", "q": "F"}}


def test_decide_usage_errors():
    code, text = capture(["decide", "mbc", "p &"])
    assert code == 2 and "error" in text
    code, text = capture(["decide", "nosuchlogic", "p"])
    assert code == 2
    code, text = capture(["decide", "cple+", "p"])
    assert code == 2  # refused by name; decided only over a chosen structure


def test_deeply_nested_formulas():
    # depth is bounded by memory and time, not by the interpreter's
    # recursion limit: depth 3000 is decided like depth 300
    for depth in (300, 3000):
        deep = "~" * depth + "p"
        code, text = capture(["decide", "mbc", deep])
        assert code == 1 and text.endswith(f"  {deep} = F\n")


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


def test_cell_cap_stops_full_structures_before_building(monkeypatch):
    # cple+ over four atoms has 4096 snapshots, about 50M cells
    monkeypatch.delenv("SWAPKIT_MAX_CELLS", raising=False)
    code, text = capture(["tables", "cple+", "--atoms", "4"])
    assert code == 2
    assert text == ("error: full CPLe+ structure over 4 atoms would need "
                    "50339840 cells, above the cap 1000000 (set "
                    "SWAPKIT_MAX_CELLS to raise it)\n")


def test_small_cell_cap_is_enforced_in_a_fresh_process():
    import os
    import subprocess
    import sys
    # mbC over two atoms: 25 snapshots, 3 * 25**2 + 2 * 25 = 1925 cells
    argv = [sys.executable, "-m", "swapkit.cli", "tables", "mbc", "--atoms", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env={**os.environ, "SWAPKIT_MAX_CELLS": "1924"})
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1
    assert "would need 1925 cells, above the cap 1924" in proc.stdout
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env={**os.environ, "SWAPKIT_MAX_CELLS": "1925"})
    assert proc.returncode == 0 and proc.stdout.startswith("logic: mbC\n")


def test_out_of_memory_is_one_line(monkeypatch):
    from swapkit import cli

    def exhausted(args, out):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "tables", exhausted)
    code, text = capture(["tables", "mbc"])
    assert code == 2
    assert text == "error: out of memory (lower --atoms or SWAPKIT_MAX_CELLS)\n"


def test_malformed_cell_cap_is_a_usage_error():
    import os
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "swapkit.cli", "represent", "mbc", "--atoms", "2"],
        capture_output=True, text=True,
        env={**os.environ, "SWAPKIT_MAX_CELLS": "abc"})
    assert proc.returncode == 2
    assert proc.stdout == ("error: SWAPKIT_MAX_CELLS must be a positive "
                           "integer, got 'abc'\n")


def test_check_proof_paths(tmp_path):
    good = Path(__file__).parent / "proofs" / "bottom.proof"
    code, text = capture(["check-proof", "mbc", str(good)])
    assert code == 0 and text.startswith("ok: q")
    code, text = capture(["check-proof", "cple+", str(good)])
    assert code == 1 and "bc1" in text
    bad = tmp_path / "bad.proof"
    bad.write_text("axiom Ax1 p -> q\n")
    code, text = capture(["check-proof", "mbc", str(bad)])
    assert code == 1 and "not an instance" in text
    code, text = capture(["check-proof", "mbc", str(tmp_path / "missing.proof")])
    assert code == 2
    code, text = capture(["check-proof", "mbc", str(good), "--json"])
    payload = json.loads(text)
    assert payload == {"ok": True, "conclusion": "q"}


@pytest.mark.parametrize("bad_line", ["premise (q &", "axiom Ax1 (q &"])
def test_check_proof_names_the_line_of_a_bad_formula(tmp_path, bad_line):
    bad = tmp_path / "bad.proof"
    bad.write_text("premise p\nmp 1 1\n# note\n" + bad_line + "\n")
    code, text = capture(["check-proof", "mbc", str(bad)])
    assert code == 2
    assert text == "error: line 4: unexpected end of input (at offset 4)\n"


def test_quotient_demo_golden():
    assert_golden("quotient_demo.txt", ["quotient-demo"])


def test_kalman_golden():
    assert_golden("kalman.txt", ["kalman"])


def test_represent_command():
    assert_golden("represent_mbc2.txt", ["represent", "mbc", "--atoms", "2"])
    # the 125-element power and its 125-wide homomorphism check
    assert_golden("represent_mbc3.txt", ["represent", "mbc", "--atoms", "3"])
    # the largest 3-factor power under the default cap: 512 elements
    assert_golden("represent_cpleplus3.txt",
                  ["represent", "cple+", "--atoms", "3"])
    code, text = capture(["represent", "ciore", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["injective"] and payload["homomorphism"]
    assert payload["carrier"] == 3 and payload["factors"] == 1


def test_json_goldens():
    assert_golden("kalman.json", ["kalman", "--json"])
    assert_golden("represent_mbc2.json",
                  ["represent", "mbc", "--atoms", "2", "--json"])
    assert_golden("quotient_demo.json", ["quotient-demo", "--json"])
    assert_golden("verify_duality.json",
                  ["verify", "duality", "--seed", "0", "--json"])
    assert_golden("tables_mbc.json", ["tables", "mbc", "--json"])


def test_verify_all_golden():
    assert_golden("verify_all_seed0.txt", ["verify", "all", "--seed", "0"])


def test_verify_golden_and_json():
    assert_golden("verify_duality.txt", ["verify", "duality", "--seed", "0"])
    code, text = capture(["verify", "duality", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["duality"]["ok"] is True


def test_quotient_demo_json():
    code, text = capture(["quotient-demo", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["multicongruence"] is True
    assert payload["all_cells_trivial"] is True
    assert payload["projection_full_homomorphism"] is True
    assert payload["swap_structure_for_mbC"] is False


def test_kalman_refuses_large_algebras_before_checking(monkeypatch):
    # 3**5 = 243 pairs, 14348907 triples for the three-variable laws
    monkeypatch.delenv("SWAPKIT_MAX_CELLS", raising=False)
    code, text = capture(["kalman", "--atoms", "5"])
    assert code == 2
    assert text == ("error: Kleene laws over 5 atoms would visit 14348907 "
                    "triples, above the cap 1000000 (set SWAPKIT_MAX_CELLS "
                    "to raise it)\n")


def test_kalman_refuses_too_many_pairs_at_once(monkeypatch):
    # 3**16 = 43046721 pairs: refused by a count, before any is built
    monkeypatch.delenv("SWAPKIT_MAX_CELLS", raising=False)
    code, text = capture(["kalman", "--atoms", "16"])
    assert code == 2
    assert text == ("error: pair construction over 16 atoms would need "
                    "43046721 pairs, above the cap 1000000 (set "
                    "SWAPKIT_MAX_CELLS to raise it)\n")


def test_kalman_refuses_triples_before_building_pairs(monkeypatch):
    # 3**12 = 531441 pairs pass the cap; their triples do not
    from swapkit.swap import KalmanAlgebra

    def refuse(self, algebra):
        raise AssertionError("pair carrier built")

    monkeypatch.delenv("SWAPKIT_MAX_CELLS", raising=False)
    monkeypatch.setattr(KalmanAlgebra, "__init__", refuse)
    code, text = capture(["kalman", "--atoms", "12"])
    assert code == 2
    assert text == ("error: Kleene laws over 12 atoms would visit "
                    "150094635296999121 triples, above the cap 1000000 (set "
                    "SWAPKIT_MAX_CELLS to raise it)\n")


def test_kalman_json():
    code, text = capture(["kalman", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["carrier"] == ["F", "f", "T"]
    assert payload["negation"]["f"] == "f"
    assert payload["kleene_failures"] == []
    assert payload["duality_bijective"] is True


def test_verify_suites_pass():
    for suite in ("class-chain", "duality", "kalman"):
        code, text = capture(["verify", suite, "--seed", "1"])
        assert code == 0, text
        assert "FAIL" not in text


@pytest.mark.parametrize("name, argv", [("help.txt", ["--help"]),
                                        ("help_verify.txt", ["verify", "--help"])])
def test_help_goldens(monkeypatch, name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    assert buf.getvalue() == (GOLDEN / name).read_text()


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


def test_usage_error_exit_code():
    code, _ = capture(["tables"])
    assert code == 2
    code, _ = capture(["no-such-command"])
    assert code == 2


def test_cli_subprocess_invocation():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "swapkit.cli",
         "decide", "mbc", "-p", "p", "-p", "~p", "q"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "countermodel" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "swapkit.cli", "tables", "mbc"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "tables_mbc.txt").read_text()


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
