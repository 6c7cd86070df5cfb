"""CLI behavior: exit codes, formats, round trips."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import qstrings
from oracles import Gauss, poly_div, series_from_json_terms
from qstrings.cli import build_parser, main
from qstrings.series import format_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_f121(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "f(1,2,1; q,q; 1)", "--order", "8")
        assert code == 0
        assert out.startswith("1 - 2q - q^2 + 2q^3")
        assert out.strip().endswith("+ O(q^8)")

    def test_zero_series(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "m(-1, q^2, q)", "--order", "12")
        assert code == 0
        assert out.strip() == "0 + O(q^12)"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "J[1,2")
        assert code == 2
        assert "^" in err

    def test_eval_error_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "eval", "1/j(q,q)")
        assert code == 3

    @pytest.mark.parametrize("order, want", [("1", "q^(-2) + O(q^1)"),
                                             ("1/2", "q^(-2) + O(q^(1/2))")])
    def test_divisor_starting_above_the_order(self, capsys, order, want):
        code, out, _ = run_cli(capsys, "eval", "1/eta(48)", "--order", order)
        assert code == 0
        assert out.strip() == want

    def test_cancelled_divisor_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "eval", "1/(eta(1)-eta(1))", "--order", "1")
        assert code == 3
        assert "ZeroLeadingTerm" in err

    def test_quotient_of_exact_polynomials(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "q^2/(1-q)", "--order", "6")
        assert code == 0
        assert out.strip() == "q^2 + q^3 + q^4 + q^5 + O(q^6)"

    def test_json_round_trip(self, capsys):
        order = F(10)
        code, out, _ = run_cli(capsys, "eval", "J[1]^2", "--order", "10",
                               "--format", "json")
        assert code == 0
        records = json.loads(out)
        rebuilt = series_from_json_terms(records, order)
        code2, out2, _ = run_cli(capsys, "eval", "J[1]^2", "--order", "10")
        assert format_series(rebuilt) == out2.strip()

    @pytest.mark.parametrize("expr, num, divisor", [
        ("1/(2+q)", {F(0): 1}, {F(0): 2, F(1): 1}),
        ("1/((1+i)+q)", {F(0): 1}, {F(0): Gauss(F(1), F(1)), F(1): 1}),
        ("(2+q)^(-2)", {F(0): 1}, {F(0): 4, F(1): 4, F(2): 1}),
    ])
    def test_non_unit_divisor_at_order_200(self, capsys, expr, num, divisor):
        code, out, _ = run_cli(capsys, "eval", expr, "--order", "200", "--format", "json")
        assert code == 0
        got = series_from_json_terms(json.loads(out), F(200)).terms
        want = poly_div({e: Gauss.of(c) for e, c in num.items()},
                        {e: Gauss.of(c) for e, c in divisor.items()}, F(200))
        assert {e: Gauss(c.re, c.im) for e, c in got.items()} == want
        assert len(want) == 200

    @pytest.mark.parametrize("expr", ["f(1,2,1; q,q; -1)", "f(1,2,1; q,q; 0)",
                                      "g(2; q,q; -1,-1; -1)"])
    def test_nonpositive_base_exit_3(self, expr):
        # a separate process with a timeout: the walk at a negative base used
        # to run forever, which must fail this test rather than hang the suite
        src = str(Path(qstrings.__file__).resolve().parents[1])
        r = subprocess.run([sys.executable, "-m", "qstrings.cli", "eval", expr, "--order", "5"],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 3
        assert "base must be positive" in r.stderr

    def test_mixed_gaussian_coefficient_text(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "(1+i/2)*q - (3/2)*i*q^2", "--order", "3")
        assert code == 0
        assert out.strip() == "(1+(1/2)i)q + (-3/2)iq^2 + O(q^3)"

    def test_fractional_lattice_eval(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "eta(1)^(-2) * eta(1/2)",
                               "--order", "3")
        assert code == 0
        assert "q^(-1/16)" in out


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_main_serves_after_argparse_exit(self, capsys):
        for argv in (["eval", "q", "--order", "-1"], ["nosuch"], ["eval"]):
            with pytest.raises(SystemExit):
                main(argv)
        code, out, _ = run_cli(capsys, "eval", "1 + q", "--order", "3", "--format", "json")
        assert code == 0 and out.startswith("[")
        # no option of an earlier call carries over
        code, out, _ = run_cli(capsys, "eval", "1 + q", "--order", "3")
        assert code == 0 and out.strip() == "1 + q + O(q^3)"
        code, out, _ = run_cli(capsys, "eval", "1 + q")
        assert code == 0 and out.strip() == "1 + q + O(q^30)"


class TestString:
    def test_level2(self, capsys):
        code, out, _ = run_cli(capsys, "string", "--N", "2", "--ell", "1",
                               "--m", "1", "--order", "8")
        assert code == 0
        assert out.splitlines()[0] == "s = 0"

    def test_normalized_level4(self, capsys):
        code, out, _ = run_cli(capsys, "string", "--N", "4", "--ell", "2", "--m", "2",
                               "--normalized", "--order", "6")
        assert code == 0
        assert out.splitlines()[1].startswith("1 + 2q + 6q^2")

    def test_parity_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "string", "--N", "2", "--ell", "1", "--m", "2")
        assert code == 4

    def test_out_of_range_reduces(self, capsys):
        code, out, err = run_cli(capsys, "string", "--N", "2", "--ell", "0",
                                 "--m", "6", "--order", "6")
        assert code == 0
        assert "canonical label" in err

    def test_prefactor_shown_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "string", "--N", "3", "--ell", "0", "--m", "2",
                               "--order", "3")
        assert out.splitlines()[0] == "s = -49/120"


class TestVerifyAndList:
    def test_verify_suite_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "notation")
        assert code == 0
        assert "8/8 passed" in out

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "kp_examples",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert all(r["status"] == "pass" for r in rows)

    def test_verify_filter_and_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--filter", "f131", "--order", "12")
        assert code == 0
        assert "3/3 passed" in out

    def test_list_filter(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--filter", "f131")
        assert code == 0
        assert "3 cases" in out

    def test_list_json(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "json",
                               "--filter", "kp/KP")
        rows = json.loads(out)
        assert {r["case_id"] for r in rows} == {
            "kp/KP2A", "kp/KP3A", "kp/KP3B", "kp/KP3C", "kp/KP4B"
        }


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def golden_argv(key):
    """The CLI arguments behind a golden.json key (the arguments joined by spaces)."""
    cmd, rest = key.split(" ", 1)
    if cmd == "eval":
        expr, opts = rest.split(" --", 1)
        return [cmd, expr, *("--" + opts).split()]
    return key.split()


def test_hecke_path_outputs_match_golden_digests(capsys):
    # the benchmark's expected stdout digest for every request it knows: the
    # jtheta, appell, hecke, eta, J-quotient and theta_side evals and every
    # string function, at orders 20 to 200
    golden = json.loads(GOLDEN.read_text())
    keys = [k for k in golden if k != "_run"]
    assert sum(k.startswith("eval ") for k in keys) == 141
    assert sum(k.startswith("string ") for k in keys) == 240
    wrong = []
    for key in keys:
        code = main(golden_argv(key))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if code != 0 or digest != golden[key]["sha256"]:
            wrong.append(key)
    assert not wrong, wrong
