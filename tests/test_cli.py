"""Integration tests for the command-line interface."""

import dataclasses
import io
import json
import subprocess
import sys

import pytest

from gencong import arith, cli, reduction
from gencong.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from gencong.reduction import TheoremCheck, build_chain


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_summary(text):
    """Pull s, m_s, reduced_exponent, residue out of the text renderer."""
    values = {}
    for line in text.splitlines():
        if " = " in line and not line.startswith("d_"):
            key, _, value = line.partition(" = ")
            values[key.strip()] = value.strip()
    return values


class TestReduceCommand:
    def test_worked_example_text(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "6", "105765")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "d_0 = (6, 105765) = 3   m_0 = 105765 / 3 = 35255"
        assert lines[1] == "d_1 = (3, 35255) = 1   m_1 = 35255 / 1 = 35255"
        assert "s = 1" in lines
        assert "m_s = 35255" in lines
        assert "phi(m_s) = 25600" in lines

    def test_worked_example_json(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "6", "105765", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {
            "a": "6",
            "m": "105765",
            "steps": [
                {"i": 0, "d": "3", "m_rem": "35255"},
                {"i": 1, "d": "1", "m_rem": "35255"},
            ],
            "s": 1,
            "m_s": "35255",
            "phi_m_s": "25600",
        }

    def test_coprime_pair(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "5", "12")
        assert code == EXIT_OK
        assert "s = 0" in out and "m_s = 12" in out

    def test_negative_modulus_output_identical(self, capsys):
        _, out_plus, _ = run_cli(capsys, "reduce", "2", "4")
        _, out_minus, _ = run_cli(capsys, "reduce", "2", "-4")
        assert out_plus == out_minus
        _, json_plus, _ = run_cli(capsys, "reduce", "2", "4", "--json")
        _, json_minus, _ = run_cli(capsys, "reduce", "2", "-4", "--json")
        assert json_plus == json_minus

    def test_zero_modulus_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "6", "0")
        assert code == EXIT_DOMAIN
        assert "m != 0" in err

    def test_malformed_operands(self, capsys):
        for bad in ("abc", "1_0", "0x10", "1.5", "--", "−5"):
            code, _, err = run_cli(capsys, "reduce", bad, "7")
            assert code == EXIT_USAGE, bad
            assert "error" in err

    def test_wrong_arity(self, capsys):
        assert run_cli(capsys, "reduce", "6")[0] == EXIT_USAGE
        assert run_cli(capsys, "reduce", "6", "7", "8")[0] == EXIT_USAGE

    def test_trace_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "6", "105765", "--trace")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--trace" in err


class TestPowCommand:
    def test_worked_example_text(self, capsys):
        code, out, _ = run_cli(capsys, "pow", "6", "25604", "105765")
        assert code == EXIT_OK
        summary = parse_summary(out)
        assert summary["reduced_exponent"] == "4"
        assert summary["residue"] == "1296"
        assert "d_0" not in out

    def test_trace_adds_table_and_congruence(self, capsys):
        code, out, _ = run_cli(capsys, "pow", "6", "25604", "105765", "--trace")
        assert code == EXIT_OK
        assert "d_0 = (6, 105765) = 3   m_0 = 105765 / 3 = 35255" in out
        assert "6^25604 ≡ 6^4 (mod 105765)" in out

    def test_worked_example_json(self, capsys):
        code, out, _ = run_cli(capsys, "pow", "6", "25604", "105765", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["reduced_exponent"] == "4"
        assert payload["residue"] == "1296"
        assert payload["s"] == 1
        assert payload["m_s"] == "35255"

    def test_zero_exponent(self, capsys):
        _, out, _ = run_cli(capsys, "pow", "7", "0", "13")
        assert parse_summary(out)["residue"] == "1"

    def test_exponent_below_chain_depth(self, capsys):
        _, out, _ = run_cli(capsys, "pow", "2", "999999999999999999999999", "4")
        summary = parse_summary(out)
        assert summary["reduced_exponent"] == "2"
        assert summary["residue"] == "0"

    def test_negative_base(self, capsys):
        code, out, _ = run_cli(capsys, "pow", "-6", "25604", "105765", "--trace")
        assert code == EXIT_OK
        assert parse_summary(out)["residue"] == str(pow(-6, 25604, 105765))
        assert "(-6)^25604" in out

    def test_negative_exponent_rejected(self, capsys):
        for exponent in ("-3", "-05", "-" + "0" * 400 + "1"):
            code, _, err = run_cli(capsys, "pow", "2", exponent, "5")
            assert code == EXIT_USAGE
            assert "non-negative" in err

    def test_text_and_json_agree(self, capsys):
        cases = [(6, 25604, 105765), (2, 80, 4), (0, 0, 9), (-15, 33, 24), (10, 10**30, 34)]
        for a, exponent, m in cases:
            _, text, _ = run_cli(capsys, "pow", str(a), str(exponent), str(m))
            _, raw, _ = run_cli(capsys, "pow", str(a), str(exponent), str(m), "--json")
            summary = parse_summary(text)
            payload = json.loads(raw)
            assert summary["s"] == str(payload["s"])
            assert summary["m_s"] == payload["m_s"]
            assert summary["reduced_exponent"] == payload["reduced_exponent"]
            assert summary["residue"] == payload["residue"]

    def test_batch_mode(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("6 25604 105765\n\n7 0 13\n"))
        code, out, _ = run_cli(capsys, "pow")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["residue"] == "1296"
        assert second["residue"] == "1"

    def test_trace_and_json_are_exclusive(self, capsys):
        code, out, err = run_cli(capsys, "pow", "6", "25604", "105765", "--trace", "--json")
        assert code == EXIT_USAGE
        assert out == ""
        assert "not allowed with argument --trace" in err

    def test_trace_rejected_in_batch_mode(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("6 25604 105765\n"))
        code, out, err = run_cli(capsys, "pow", "--trace")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--trace needs operands" in err

    def test_batch_mode_bad_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("6 25604\n"))
        code, out, err = run_cli(capsys, "pow")
        assert code == EXIT_USAGE
        assert err == ""
        assert json.loads(out) == {
            "line": 1, "error": "batch line must be 'a N m', got '6 25604'", "code": EXIT_USAGE,
        }

    def test_batch_mode_keeps_going_after_bad_lines(self, capsys, monkeypatch):
        stdin = "6 25604 105765\n\n5 3 0\nx 1 5\n7 0 13\n2 -1 5\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, _ = run_cli(capsys, "pow")
        assert code == EXIT_DOMAIN  # the highest code of any line
        records = [json.loads(line) for line in out.splitlines()]
        assert [r.get("residue") for r in records] == ["1296", None, None, "1", None]
        assert [(r.get("line"), r.get("code")) for r in records] == [
            (None, None), (3, EXIT_DOMAIN), (4, EXIT_USAGE), (None, None), (6, EXIT_USAGE),
        ]


class TestTotientCommand:
    def test_plain_value(self, capsys):
        code, out, _ = run_cli(capsys, "totient", "35255")
        assert code == EXIT_OK
        assert out.strip() == "25600"

    def test_one(self, capsys):
        assert run_cli(capsys, "totient", "1")[1].strip() == "1"

    def test_json_includes_factorization(self, capsys):
        code, out, _ = run_cli(capsys, "totient", "12", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "n": "12",
            "phi": "4",
            "factors": [
                {"prime": "2", "exponent": 2},
                {"prime": "3", "exponent": 1},
            ],
        }

    def test_text_mode_does_not_factorize(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("text mode needs no factor list")

        monkeypatch.setattr(cli, "factorize", refuse)
        code, out, _ = run_cli(capsys, "totient", "12")
        assert code == EXIT_OK
        assert out == "4\n"

    def test_nonpositive_is_domain_error(self, capsys):
        for bad in ("0", "-5"):
            for flags in ((), ("--json",)):
                code, _, err = run_cli(capsys, "totient", bad, *flags)
                assert code == EXIT_DOMAIN, (bad, flags)
                assert "n >= 1" in err

    def test_factorizes_once_in_each_mode(self, capsys, monkeypatch):
        n = 1000000016000000063  # (10**9 + 7) * (10**9 + 9)
        calls, factorize = [], arith.factorize

        def counting(m):
            calls.append(m)
            return factorize(m)

        monkeypatch.setattr(arith, "factorize", counting)
        monkeypatch.setattr(cli, "factorize", counting)
        for flags in ((), ("--json",)):
            arith.totient.cache_clear()
            calls.clear()
            code, out, _ = run_cli(capsys, "totient", str(n), *flags)
            assert code == EXIT_OK
            assert "1000000014000000048" in out
            assert calls == [n], flags


class TestVerifyCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "0..50", "--m", "1..50")
        assert code == EXIT_OK
        assert out.strip() == "2550 checked, 0 failures"

    def test_negative_ranges(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "-10..10", "--m", "-10..-1")
        assert code == EXIT_OK
        assert out.strip() == "210 checked, 0 failures"

    def test_worked_example_pair(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "6..6", "--m", "105765..105765")
        assert code == EXIT_OK
        assert out.strip() == "1 checked, 0 failures"

    def test_zero_modulus_skipped(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "1..1", "--m", "-2..2")
        assert code == EXIT_OK
        assert out.strip() == "4 checked, 0 failures"

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "0..10", "--m", "1..10", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"checked": 110, "failures": 0, "witnesses": []}

    def test_missing_ranges(self, capsys):
        assert run_cli(capsys, "verify")[0] == EXIT_USAGE
        assert run_cli(capsys, "verify", "--a", "0..10")[0] == EXIT_USAGE

    def test_invalid_ranges(self, capsys):
        assert run_cli(capsys, "verify", "--a", "10..0", "--m", "1..5")[0] == EXIT_USAGE
        assert run_cli(capsys, "verify", "--a", "0..x", "--m", "1..5")[0] == EXIT_USAGE
        assert run_cli(capsys, "verify", "--a", "1..2", "--m", "0..0")[0] == EXIT_USAGE

    def test_cap_enforced_and_adjustable(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--a", "0..100", "--m", "1..100", "--cap", "10000")
        assert code == EXIT_USAGE
        assert "safety cap" in err
        code, out, _ = run_cli(capsys, "verify", "--a", "0..99", "--m", "1..99", "--cap", "10000")
        assert code == EXIT_OK
        assert out.strip() == "9900 checked, 0 failures"

    def test_range_longer_than_maxsize_hits_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--a", "0..99999999999999999999", "--m", "1..2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == ("gencong: error: 200000000000000000000 pairs exceed the safety cap of "
                       "1000000; raise --cap to allow this\n")

    def test_cap_below_one_rejected(self, capsys):
        for cap in ("-5", "0"):
            code, out, err = run_cli(capsys, "verify", "--a", "0..2", "--m", "1..2", "--cap", cap)
            assert code == EXIT_USAGE, cap
            assert out == ""
            assert f"--cap must be at least 1, got {cap}" in err
        code, out, _ = run_cli(capsys, "verify", "--a", "0..0", "--m", "1..1", "--cap", "1")
        assert code == EXIT_OK
        assert out.strip() == "1 checked, 0 failures"

    def test_failure_prints_witness_and_exits_3(self, capsys, monkeypatch):
        chain = build_chain(3, 9)
        fake = TheoremCheck(ok=False, lhs=1, rhs=2, chain=chain)
        monkeypatch.setattr(reduction, "verify_theorem", lambda a, m: fake)
        code, out, _ = run_cli(capsys, "verify", "--a", "3..3", "--m", "9..9")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL a=3 m=9" in out
        assert "1 checked, 1 failures" in out
        # the witness is the FAIL line, then the chain exactly as `reduce` prints it
        reduce_out = run_cli(capsys, "reduce", "3", "9")[1]
        assert out.splitlines()[:-1] == ["FAIL a=3 m=9: lhs=1 rhs=2", *reduce_out.splitlines()]
        code, out, _ = run_cli(capsys, "verify", "--a", "3..3", "--m", "9..9", "--json")
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads(out)
        assert payload["failures"] == 1
        assert payload["witnesses"][0]["lhs"] == "1"

    def test_failure_after_class_representative_gets_own_witness(self, capsys, monkeypatch):
        # a = 1 and a = 2 share the class gcd(a, 9) = 1; the representative
        # a = 1 passes but hands on a wrong phi_ms, so only a = 2 fails
        def wrong_phi(a, m):
            return TheoremCheck(ok=True, lhs=0, rhs=0,
                                chain=dataclasses.replace(build_chain(a, m), phi_ms=5))

        monkeypatch.setattr(reduction, "verify_theorem", wrong_phi)
        code, out, _ = run_cli(capsys, "verify", "--a", "1..2", "--m", "9..9")
        assert code == EXIT_VERIFY_FAILED
        reduce_out = run_cli(capsys, "reduce", "2", "9")[1]
        assert out.splitlines() == ["FAIL a=2 m=9: lhs=5 rhs=1", *reduce_out.splitlines(),
                                    "2 checked, 1 failures"]
        code, out, _ = run_cli(capsys, "verify", "--a", "1..2", "--m", "9..9", "--json")
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads(out)
        assert (payload["checked"], payload["failures"]) == (2, 1)
        reduce_json = json.loads(run_cli(capsys, "reduce", "2", "9", "--json")[1])
        assert payload["witnesses"] == [{**reduce_json, "lhs": "5", "rhs": "1"}]
        assert payload["witnesses"][0]["a"] == "2"


class TestSelftestCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == EXIT_OK
        assert "5/5 checks passed" in out
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"]) == 5

    def test_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_selftest_checks", lambda: [("stub", False)])
        code, out, _ = run_cli(capsys, "selftest")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL - stub" in out


class TestParsing:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_usage_errors_never_exit_2(self, capsys):
        # argparse's default error path exits 2, which is reserved for
        # domain errors here
        code, _, _ = run_cli(capsys, "pow", "--bogus-flag")
        assert code == EXIT_USAGE

    def test_library_value_error_is_domain_error(self, capsys, monkeypatch):
        def broken(a, m):
            raise ValueError("stub domain check")

        monkeypatch.setattr(cli, "build_chain", broken)
        code, out, err = run_cli(capsys, "reduce", "6", "105765")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "gencong: error: stub domain check\n"

    def test_huge_operands_accepted(self, capsys):
        exponent = "9" * 5000
        code, out, _ = run_cli(capsys, "pow", "6", exponent, "105765")
        assert code == EXIT_OK
        assert int(parse_summary(out)["residue"]) == pow(6, 10**5000 - 1, 105765)

    def test_million_digit_exponent_on_stdin(self, capsys, monkeypatch):
        # argv cannot carry an operand this long; batch stdin can
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"6 {'9' * 10**6} 105765\n"))
        code, out, _ = run_cli(capsys, "pow")
        assert code == EXIT_OK
        assert json.loads(out)["residue"] == str(pow(6, 10**10**6 - 1, 105765))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int/str conversion limit on this Python")
    def test_int_str_limit_scoped_to_main(self, capsys):
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4321)
            code, out, _ = run_cli(capsys, "pow", "6", "9" * 5000, "105765")
            assert code == EXIT_OK
            assert sys.get_int_max_str_digits() == 4321
            assert int(parse_summary(out)["residue"]) == pow(6, 10**5000 - 1, 105765)
            m_long = "1" + "0" * 4400  # 4,401 digits: int() of it needs the lift
            code, out, _ = run_cli(capsys, "reduce", "7", m_long)
            assert code == EXIT_OK
            assert sys.get_int_max_str_digits() == 4321
            assert parse_summary(out)["m_s"] == m_long
        finally:
            sys.set_int_max_str_digits(saved)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gencong", "pow", "6", "25604", "105765"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "residue = 1296" in proc.stdout

    def test_python_dash_m_error_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gencong", "reduce", "6", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_DOMAIN

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # far more output than a pipe buffers, so writes fail once the
        # reader has gone, as in `gencong pow < requests | head -1`
        requests = tmp_path / "requests.txt"
        requests.write_text("6 25604 105765\n" * 20000)
        with requests.open() as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "gencong", "pow"],
                stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            assert '"residue": "1296"' in proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert "Traceback" not in err
        assert "Exception ignored" not in err
