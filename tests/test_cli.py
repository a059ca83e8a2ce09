import io
import json
from pathlib import Path

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


def test_tables_logic_aliases():
    _, via_alias = capture(["tables", "j3"])
    _, direct = capture(["tables", "LFI1O"])
    assert via_alias == direct


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
    assert code == 2  # no single finite characteristic matrix


def test_deeply_nested_formulas():
    # depth 300 is decided; depth 3000 is past the interpreter's recursion
    # limit and must end in a one-line error, not a traceback
    deep = "~" * 300 + "p"
    code, text = capture(["decide", "mbc", deep])
    assert code == 1 and text.endswith(f"  {deep} = F\n")
    code, text = capture(["decide", "mbc", "~" * 3000 + "p"])
    assert (code, text) == (2, "error: formula nested too deeply\n")


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


def test_quotient_demo_golden():
    assert_golden("quotient_demo.txt", ["quotient-demo"])


def test_kalman_golden():
    assert_golden("kalman.txt", ["kalman"])


def test_represent_command():
    assert_golden("represent_mbc2.txt", ["represent", "mbc", "--atoms", "2"])
    code, text = capture(["represent", "ciore", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["injective"] and payload["homomorphism"]
    assert payload["carrier"] == 3 and payload["factors"] == 1


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
