"""Integration tests for the command-line interface."""

import codecs
import io
import json
import os
import re
import select
import string
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAKE_PRIME
from gencong import arith, cli, reduction
from gencong.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from gencong.reduction import CHUNK_DIGITS, TheoremCheck, build_chain, solve


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


    def test_certificate_failure_prints_no_residue_and_exits_3(self, capsys, take_for_prime):
        n = str(take_for_prime(FAKE_PRIME))
        for extra in ((), ("--json",), ("--trace",)):
            code, out, err = run_cli(capsys, "pow", "6", "25604", n, *extra)
            assert code == EXIT_VERIFY_FAILED, extra
            assert out == ""
            assert err.startswith("gencong: error: fold certificate failed"), err

    def test_batch_answers_the_lines_after_a_certificate_failure(self, capsys, monkeypatch,
                                                                 take_for_prime):
        n = take_for_prime(FAKE_PRIME)
        stdin = f"6 25604 105765\n2 {'9' * 400} {n}\n5 3 0\n7 0 13\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, "pow")
        assert code == EXIT_VERIFY_FAILED  # the highest code of any line
        assert err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert [r.get("residue") for r in records] == ["1296", None, None, "1"]
        assert [(r.get("line"), r.get("code")) for r in records] == [
            (None, None), (2, EXIT_VERIFY_FAILED), (3, EXIT_DOMAIN), (None, None),
        ]
        assert records[1]["error"] == (f"fold certificate failed: a^phi(m_s) mod m_s != 1 for "
                                       f"m_s = {n}, so phi(m_s) = {n - 1} is wrong")

    def test_batch_stream_bytes(self, capsys, monkeypatch):
        # error records, m = +-1, negative a and m, chains with s >= 3 and
        # N < s, each line exactly as json.dumps laid it out
        stdin = ("6 25604 105765\n-6 25604 -105765\n5 7 1\n-5 7 -1\n12 100 -4096\n"
                 "2 1 8\n\n5 3 0\nx 1 5\n2 -1 5\n1 2\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, _ = run_cli(capsys, "pow")
        assert code == EXIT_DOMAIN
        assert out.splitlines() == [
            '{"a": "6", "m": "105765", "steps": [{"i": 0, "d": "3", "m_rem": "35255"}, '
            '{"i": 1, "d": "1", "m_rem": "35255"}], "s": 1, "m_s": "35255", '
            '"phi_m_s": "25600", "reduced_exponent": "4", "residue": "1296"}',
            '{"a": "-6", "m": "105765", "steps": [{"i": 0, "d": "3", "m_rem": "35255"}, '
            '{"i": 1, "d": "1", "m_rem": "35255"}], "s": 1, "m_s": "35255", '
            '"phi_m_s": "25600", "reduced_exponent": "4", "residue": "1296"}',
            '{"a": "5", "m": "1", "steps": [{"i": 0, "d": "1", "m_rem": "1"}], "s": 0, '
            '"m_s": "1", "phi_m_s": "1", "reduced_exponent": "0", "residue": "0"}',
            '{"a": "-5", "m": "1", "steps": [{"i": 0, "d": "1", "m_rem": "1"}], "s": 0, '
            '"m_s": "1", "phi_m_s": "1", "reduced_exponent": "0", "residue": "0"}',
            '{"a": "12", "m": "4096", "steps": [{"i": 0, "d": "4", "m_rem": "1024"}, '
            '{"i": 1, "d": "4", "m_rem": "256"}, {"i": 2, "d": "4", "m_rem": "64"}, '
            '{"i": 3, "d": "4", "m_rem": "16"}, {"i": 4, "d": "4", "m_rem": "4"}, '
            '{"i": 5, "d": "4", "m_rem": "1"}, {"i": 6, "d": "1", "m_rem": "1"}], "s": 6, '
            '"m_s": "1", "phi_m_s": "1", "reduced_exponent": "6", "residue": "0"}',
            '{"a": "2", "m": "8", "steps": [{"i": 0, "d": "2", "m_rem": "4"}, '
            '{"i": 1, "d": "2", "m_rem": "2"}, {"i": 2, "d": "2", "m_rem": "1"}, '
            '{"i": 3, "d": "1", "m_rem": "1"}], "s": 3, "m_s": "1", "phi_m_s": "1", '
            '"reduced_exponent": "1", "residue": "2"}',
            '{"line": 8, "error": "modulus must be nonzero (the congruence requires m != 0)", '
            '"code": 2}',
            '{"line": 9, "error": "a must be a decimal integer, got \'x\'", "code": 1}',
            '{"line": 10, "error": "N must be non-negative", "code": 1}',
            '{"line": 11, "error": "batch line must be \'a N m\', got \'1 2\'", "code": 1}',
        ]
        assert out.endswith("}\n")


class _Reads(io.RawIOBase):
    """A byte stream whose reads hand out ``pieces`` in order, at most one a read."""

    def __init__(self, pieces):
        self.pieces = list(pieces)

    def readable(self):
        return True

    def readinto(self, buffer):
        piece = self.pieces.pop(0) if self.pieces else b""
        if len(piece) > len(buffer):  # longer than the read asked for: the rest comes next
            piece, rest = piece[:len(buffer)], piece[len(buffer):]
            self.pieces.insert(0, rest)
        buffer[:len(piece)] = piece
        return len(piece)


def _byte_stdin(pieces, encoding="utf-8"):
    """A stdin like ``sys.stdin``: text over a byte buffer, read as ``pieces`` arrive."""
    return io.TextIOWrapper(io.BufferedReader(_Reads(pieces)), encoding=encoding, newline="\n")


def _cut(data, *ends):
    return [data[i:j] for i, j in zip((0, *ends), (*ends, len(data)))]


N_100K = "7" * 100_000

#: Batch stdin as bytes, each cut where a read would split what a line reader
#: never splits: a ``\r\n``, a lone ``\r`` (which, as in ``sys.stdin`` on POSIX,
#: ends no line; ``split()`` takes it for whitespace), a UTF-8 character,
#: a byte that is not UTF-8, a 100,000-digit ``N``, blank lines, a last
#: line with no newline and one that ends inside a UTF-8 character.
READ_CASES = {
    "crlf": _cut(b"2 3 5\r\n2 3 7\r\n", 6, 7),
    "lone cr": _cut(b"2 3 5\r2 3 7\n7 0 13\r\n2 3 11\r", 6, 12, 18),
    "utf-8 char": _cut("2　3 5\n2 ٣ 5\n6 25604 105765\n".encode(), 2, 3, 10, 11),
    "bad byte": _cut(b"2 3 5\n\xff 3 5\n2 3 7\n", 6, 7),
    "100,000 digits": _cut(f"6 {N_100K} 105765\n2 3 5\n6 {N_100K}\n".encode(),
                           *range(1000, 200_030, 9_999)),
    "blank lines": _cut(b"\n\n2 3 5\n \n\n5 3 0\n\n", 1, 4, 9, 11),
    "no final newline": _cut(b"2 3 5\n2 3 7", 3, 8),
    "cut-off char": _cut("2 3 5\n2 3 7\n　".encode()[:-1], 7),
}


def _in_utf16(pieces):
    """``pieces`` as UTF-16 with its BOM, each cut moved to an odd byte: inside a code unit."""
    data = b"".join(pieces).decode().encode("utf-16")
    return _cut(data, *(2 * end + 1 for end in accumulate(map(len, pieces[:-1]))))


#: Each case as cut, in UTF-8; and in UTF-16 but for the two that are not
#: UTF-8, which have no UTF-16 form.
READ_PARAMS = [pytest.param(pieces, "utf-8", id=name) for name, pieces in READ_CASES.items()] + [
    pytest.param(_in_utf16(pieces), "utf-16", id=f"{name}, utf-16")
    for name, pieces in READ_CASES.items() if name not in ("bad byte", "cut-off char")]


class TestBatchReads:
    """Batch stdin read ``read1`` at a time gives the records a line reader gives."""

    @pytest.mark.parametrize("pieces, encoding", READ_PARAMS)
    def test_records_do_not_depend_on_where_reads_end(self, capsys, monkeypatch, pieces,
                                                      encoding):
        data = b"".join(pieces)
        text = data.decode(encoding, "surrogateescape")
        results = []
        # as cut, in one piece, a byte a read for the first 400, and through a line reader
        for stdin in (_byte_stdin(pieces, encoding), _byte_stdin([data], encoding),
                      _byte_stdin([data[i:i + 1] for i in range(min(len(data), 400))]
                                  + [data[400:]], encoding),
                      io.StringIO(text)):
            monkeypatch.setattr(sys, "stdin", stdin)
            results.append(run_cli(capsys, "pow"))
        assert results[0][1].count("\n") >= 2
        assert results[1:] == results[:1] * 3
        # the text's lines, and no empty one after a last \n
        lines = [line for read in cli._waiting_lines(_byte_stdin(pieces, encoding))
                 for line in read]
        assert [line.removesuffix("\n") for line in lines] == text.removesuffix("\n").split("\n")

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
    def test_the_records_of_one_read_are_one_write_flushed_before_the_next_read(
            self, capsys, monkeypatch, encoding):
        encode = codecs.getincrementalencoder(encoding)().encode  # one BOM, before the first
        stdin = _byte_stdin([encode("2 3 5\n2 3 7\n\n2 3"), encode(" 11\n6 25604 105765\n"),
                             encode("5 3 0\n")], encoding)
        raw = stdin.buffer.raw
        calls = []

        class Recorder:
            def write(self, text):
                calls.append(("write", len(raw.pieces), text.count("\n")))
                return len(text)

            def flush(self):
                calls.append(("flush", len(raw.pieces), 0))

        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["pow"]) == EXIT_DOMAIN
        # (call, reads still to come, records written); main flushes once more at the end
        assert calls == [("write", 2, 2), ("flush", 2, 0), ("write", 1, 2), ("flush", 1, 0),
                         ("write", 0, 1), ("flush", 0, 0), ("flush", 0, 0)]


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

    def test_cap_counts_only_the_pairs_checked(self, capsys):
        # m = 0 is skipped, so --m -1..1 with one base is 2 pairs, not 3
        code, out, err = run_cli(capsys, "verify", "--a", "0..0", "--m", "-1..1", "--cap", "2")
        assert (code, out, err) == (EXIT_OK, "2 checked, 0 failures\n", "")
        code, out, err = run_cli(capsys, "verify", "--a", "0..0", "--m", "-1..1", "--cap", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("gencong: error: 2 pairs exceed the safety cap of 1; "
                       "raise --cap to allow this\n")

    def test_range_longer_than_maxsize_hits_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--a", "0..99999999999999999999", "--m", "1..2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == ("gencong: error: 200000000000000000000 pairs exceed the safety cap of "
                       "1000000; raise --cap to allow this\n")

    def test_range_of_more_than_maxsize_bases_refused(self, capsys):
        # the sweep counts the bases with len(), which stops at sys.maxsize:
        # one base more is a usage error, not a traceback, and exactly that
        # many are swept on one period per modulus
        cap = str(2 * sys.maxsize)
        code, out, err = run_cli(capsys, "verify", "--a", f"0..{sys.maxsize}", "--m", "1..1",
                                 "--cap", cap)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"gencong: error: --a range holds {sys.maxsize + 1} bases, more than "
                       f"the {sys.maxsize} verify can count\n")
        code, out, _ = run_cli(capsys, "verify", "--a", f"1..{sys.maxsize}", "--m", "1..1",
                               "--cap", cap)
        assert code == EXIT_OK
        assert out == f"{sys.maxsize} checked, 0 failures\n"

    def test_cap_below_one_rejected(self, capsys):
        for cap in ("-5", "0"):
            code, out, err = run_cli(capsys, "verify", "--a", "0..2", "--m", "1..2", "--cap", cap)
            assert code == EXIT_USAGE, cap
            assert out == ""
            assert f"--cap must be at least 1, got {cap}" in err
        code, out, _ = run_cli(capsys, "verify", "--a", "0..0", "--m", "1..1", "--cap", "1")
        assert code == EXIT_OK
        assert out.strip() == "1 checked, 0 failures"

    def test_cap_takes_the_operands_syntax(self, capsys):
        for cap in ("\u0663", "1_000", " 5", "+5", "5 ", "x"):
            code, out, err = run_cli(capsys, "verify", "--a", "0..1", "--m", "1..2", "--cap", cap)
            assert code == EXIT_USAGE, cap
            assert out == ""
            assert err == f"gencong: error: argument --cap: invalid int value: {cap!r}\n"

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
        assert out == (  # bytes as json.dumps laid them out
            '{"checked": 1, "failures": 1, "witnesses": [{"a": "3", "m": "9", "steps": '
            '[{"i": 0, "d": "3", "m_rem": "3"}, {"i": 1, "d": "3", "m_rem": "1"}, '
            '{"i": 2, "d": "1", "m_rem": "1"}], "s": 2, "m_s": "1", "phi_m_s": "1", '
            '"lhs": "1", "rhs": "2"}]}\n'
        )

    def test_failure_after_class_representative_gets_own_witness(self, capsys, monkeypatch):
        # a = 1 and a = 2 share the class gcd(a, 9) = 1; the representative
        # a = 1 passes but hands on a wrong phi_ms, so only a = 2 fails
        def wrong_phi(a, m):
            return TheoremCheck(ok=True, lhs=0, rhs=0,
                                chain=build_chain(a, m)._replace(phi_ms=5))

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
        assert out == (
            '{"checked": 2, "failures": 1, "witnesses": [{"a": "2", "m": "9", "steps": '
            '[{"i": 0, "d": "1", "m_rem": "9"}], "s": 0, "m_s": "9", "phi_m_s": "6", '
            '"lhs": "5", "rhs": "1"}]}\n'
        )


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


#: Every character below U+3001 that ``str.split()`` splits on (29 of them).
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


@st.composite
def batch_lines(draw):
    """0-5 fields of digits, ``-`` and letters, some on each side of
    ``CHUNK_DIGITS`` long, joined by 1-3 whitespace characters, with optional
    leading and trailing runs."""
    field_chars = string.digits + "-" + string.ascii_letters
    fields = draw(st.lists(
        st.text(field_chars, min_size=1, max_size=8)
        | st.text(field_chars, min_size=CHUNK_DIGITS - 8, max_size=CHUNK_DIGITS + 8),
        max_size=5))
    line = draw(st.text(WHITESPACE, max_size=3))
    for i, field in enumerate(fields):
        line += (draw(st.text(WHITESPACE, min_size=1, max_size=3)) if i else "") + field
    return line + draw(st.text(WHITESPACE, max_size=3))


class TestParsing:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_usage_errors_never_exit_2(self, capsys):
        # a usage error exits 1; 2 is reserved for domain errors
        code, _, _ = run_cli(capsys, "pow", "--bogus-flag")
        assert code == EXIT_USAGE

    def test_option_prefixes_are_refused(self, capsys):
        assert run_cli(capsys, "pow", "--js", "2", "3", "5") == (
            EXIT_USAGE, "", "gencong: error: unrecognized arguments: --js\n")

    def test_options_may_come_between_operands(self, capsys):
        between = run_cli(capsys, "pow", "2", "--json", "3", "5")
        assert between == run_cli(capsys, "pow", "2", "3", "5", "--json")
        assert between[0] == EXIT_OK
        assert json.loads(between[1])["residue"] == "3"

    def test_library_value_error_is_domain_error(self, capsys, monkeypatch):
        def broken(a, m):
            raise ValueError("stub domain check")

        monkeypatch.setattr(cli, "build_chain", broken)
        code, out, err = run_cli(capsys, "reduce", "6", "105765")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "gencong: error: stub domain check\n"

    def test_bad_exponent_is_reported_in_operand_order(self, capsys):
        # the library scans N; the CLI still names N before m
        for m in ("0", "x", "105765", "-0"):
            for n in ("x", "1_0", "", "0" * 400 + "x"):
                code, out, err = run_cli(capsys, "pow", "6", n, m)
                assert (code, out) == (EXIT_USAGE, ""), (n, m)
                assert err == f"gencong: error: N must be a decimal integer, got {n!r}\n"
            code, _, err = run_cli(capsys, "pow", "6", "-5", m)
            assert (code, err) == (EXIT_USAGE, "gencong: error: N must be non-negative\n")
        assert run_cli(capsys, "pow", "x", "x", "x")[2].startswith("gencong: error: a must")
        assert run_cli(capsys, "pow", "6", "5", "x")[2].startswith("gencong: error: m must")
        assert run_cli(capsys, "pow", "6", "-00", "0")[0] == EXIT_DOMAIN

    def test_bad_exponent_is_reported_before_m_s_is_factored(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        m = sympy.nextprime(2**40) * sympy.nextprime(2**41)
        arith.totient.cache_clear()
        monkeypatch.setattr(arith, "factorize", refuse)
        for n in ("x", "1_0", "9" * 400 + "x"):
            code, out, err = run_cli(capsys, "pow", "2", n, str(m))
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"gencong: error: N must be a decimal integer, got {n!r}\n"

    @settings(max_examples=500, deadline=None)
    @given(st.text() | st.from_regex(r"-?[0-9]+", fullmatch=True))
    @example("")
    @example("-")
    @example("--5")
    @example("+5")
    @example(" 5")
    @example("5\n")
    @example("1_0")
    @example("-0")
    @example("٣")  # a non-ASCII decimal digit
    @example("²")  # a digit to str.isdigit() alone
    @example("\udcff")  # a lone surrogate, as surrogateescape reads a bad byte
    def test_is_integer_matches_the_operand_regex(self, text):
        assert cli._is_integer(text) == bool(re.fullmatch(r"-?[0-9]+", text))

    def test_valid_exponent_is_not_scanned_by_the_cli(self, capsys, monkeypatch):
        scanned = []
        real = cli._is_integer

        def recording(text):
            scanned.append(text)
            return real(text)

        monkeypatch.setattr(cli, "_is_integer", recording)
        exponent = "7" * 1000
        code, out, _ = run_cli(capsys, "pow", "6", exponent, "105765")
        assert code == EXIT_OK
        assert int(parse_summary(out)["residue"]) == pow(6, int(exponent), 105765)
        assert scanned == ["6", "105765"]  # a and m; N is checked by solve alone

    @settings(max_examples=500, deadline=None)
    @given(batch_lines())
    @example("1 2 3 4\n")
    @example(f"6 {'9' * CHUNK_DIGITS} 105765 1\n")
    @example(f"  6\x1c{'9' * CHUNK_DIGITS}\u3000105765  \n")
    @example(f"6 {'9' * CHUNK_DIGITS}\n")
    @example("9" * (CHUNK_DIGITS + 1))
    def test_batch_fields_split_as_str_split_up_to_three_fields(self, raw):
        fields = cli._batch_fields(raw)
        expected = raw.split()
        if len(expected) <= 3:
            assert fields == expected
        else:  # never a valid 'a N m': _solve_pow refuses it
            assert len(fields) > 3 or (len(fields) == 3 and any(map(str.isspace, fields[1])))

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


def dumped_chain(chain, **fields):
    """The chain object built field by field and laid out by stdlib ``json``."""
    payload = {
        "a": str(chain.a_input),
        "m": str(chain.m_norm),
        "steps": [{"i": step.index, "d": str(step.d), "m_rem": str(step.m_rem)}
                  for step in chain.steps],
        "s": chain.s,
        "m_s": str(chain.m_s),
        "phi_m_s": str(chain.phi_ms),
    }
    payload.update((key, str(value)) for key, value in fields.items())
    return json.dumps(payload)


def shared_power_operands(primes, exponents_a, exponents_m):
    """``(a, m)`` sharing a power of a small prime, so chains run deep; ``m_s <= 10**6``."""
    signs = st.sampled_from((1, -1))
    return st.builds(
        lambda p, e_a, e_m, u, c, sign_a, sign_m: (sign_a * p**e_a * u, sign_m * p**e_m * c),
        st.sampled_from(primes), exponents_a, exponents_m,
        st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6),
        signs, signs,
    )


class TestChainJsonLayout:
    """``_chain_json`` and the records built on it write what ``json.dumps`` would, byte for byte."""

    def assert_layouts(self, a, exponent, m, lhs, rhs):
        chain, reduced, residue = solve(a, exponent, m)
        assert cli._chain_json(chain) == dumped_chain(chain)
        assert (cli._pow_json(chain, reduced, residue)
                == dumped_chain(chain, reduced_exponent=reduced, residue=residue))
        assert (cli._witness_json(TheoremCheck(ok=False, lhs=lhs, rhs=rhs, chain=chain))
                == dumped_chain(chain, lhs=lhs, rhs=rhs))

    @settings(max_examples=300, deadline=None)
    @given(shared_power_operands((2, 3, 5, 7, 997), st.integers(0, 6), st.integers(0, 60)),
           st.integers(min_value=0, max_value=10**40), st.integers(), st.integers())
    @example((-5, 1), 7, 0, 0)
    @example((-12, -1), 0, 1, 2)
    @example((2, 2**60), 3, 10**30, -1)
    def test_matches_json_dumps(self, operands, exponent, lhs, rhs):
        a, m = operands
        self.assert_layouts(a, exponent, m, lhs, rhs)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int/str conversion limit on this Python")
    @settings(max_examples=8, deadline=None)
    @given(shared_power_operands((2,), st.integers(5000, 15000), st.integers(14300, 15000)),
           st.integers(min_value=10**4400, max_value=10**4500))
    def test_operands_past_the_int_str_limit(self, operands, huge):
        sys.set_int_max_str_digits(0)  # as main does; the conftest fixture restores it
        a, m = operands
        self.assert_layouts(a, str(huge), m, huge, -huge)


class _BadDescriptor(io.StringIO):
    """A stream on a closed descriptor: every write fails with EBADF."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")


class TestClosedStreams:
    """Python sets ``sys.stdout``, ``sys.stdin`` or ``sys.stderr`` to None when fd 1, 0 or 2 is
    closed at start; a stream made on a descriptor closed later fails its writes instead."""

    @pytest.mark.parametrize("argv", [["pow", "2", "3", "5"], ["totient", "12", "--json"], ["pow"]],
                             ids=["text", "json", "batch"])
    def test_closed_stdout_exits_141_before_any_arithmetic(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("arithmetic ran with stdout closed")

        monkeypatch.setattr(cli, "solve", refuse)
        monkeypatch.setattr(cli, "factorize", refuse)
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 3 5\n"))
        monkeypatch.setattr(sys, "stdout", None)
        assert main(argv) == EXIT_BROKEN_PIPE
        assert capsys.readouterr().err == ""

    def test_batch_mode_on_a_closed_stdin_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        assert run_cli(capsys, "pow") == (
            EXIT_USAGE, "", "gencong: error: batch mode reads stdin, which is closed\n")

    @pytest.mark.parametrize("stderr", [None, _BadDescriptor()], ids=["none", "ebadf"])
    @pytest.mark.parametrize("argv, code", [(["reduce", "6", "0"], EXIT_DOMAIN),
                                            (["reduce", "x", "0"], EXIT_USAGE)],
                             ids=["domain", "usage"])
    def test_closed_stderr_keeps_the_exit_code(self, capsys, monkeypatch, stderr, argv, code):
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(argv) == code
        assert capsys.readouterr().out == ""


class TestModuleEntryPoint:
    def test_import_leaves_json_unloaded(self):
        # records are f-strings; only error records and the totient and
        # selftest JSON import json, so a plain batch never pays for it
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, gencong.cli; print('json' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    @pytest.mark.parametrize("argv", [["pow", "2", "3", "5"], ["totient", "12"]],
                             ids=["pow", "totient"])
    def test_a_text_call_loads_no_parser_and_no_json(self, argv):
        # argparse's import (with gettext and locale) and parsers cost about
        # 6 ms a call before any arithmetic; json is loaded for JSON output only
        src = Path(cli.__file__).resolve().parents[1]
        script = ("import sys; before = set(sys.modules); import gencong.cli; "
                  f"code = gencong.cli.main({argv!r}); loaded = set(sys.modules) - before; "
                  "print(code, sorted(loaded & {'argparse', 'gettext', 'locale', 'json'}))")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

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

    def test_batch_answers_the_lines_after_an_undecodable_byte(self):
        # a strict UTF-8 stdin would raise on 0xff and drop every line after it
        proc = subprocess.run(
            [sys.executable, "-m", "gencong", "pow"],
            input=b"2 3 5\n\xff 3 5\n2 3 7\n", capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        first, second, third = (json.loads(line) for line in proc.stdout.splitlines())
        assert (first["residue"], third["residue"]) == ("3", "1")
        assert second == {"line": 2, "error": "a must be a decimal integer, got '\\udcff'",
                          "code": EXIT_USAGE}
        assert proc.stderr == b""

    @pytest.mark.parametrize("unbuffered, encoding", [(None, None), ("1", None), (None, "utf-16")],
                             ids=["buffered", "unbuffered", "utf-16"])
    def test_a_caller_that_waits_for_each_answer_gets_it(self, unbuffered, encoding):
        # with stdout a pipe, block buffering once held every record until
        # stdin closed, so a caller that writes a line and reads its answer
        # hung; a UTF-16 stdin is read as it arrives too
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        if encoding:
            env["PYTHONIOENCODING"] = encoding
        encoding = encoding or "utf-8"
        encode = codecs.getincrementalencoder(encoding)().encode  # a BOM before the first line
        proc = subprocess.Popen([sys.executable, "-m", "gencong", "pow"], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            for request, residue in (("6 25604 105765\n", "1296"), ("7 0 13\n", "1")):
                proc.stdin.write(encode(request))
                proc.stdin.flush()
                answer = b""  # a UTF-16 \n is two bytes, so read until the text ends a line
                while not answer.decode(encoding, "ignore").endswith("\n"):
                    assert select.select([proc.stdout], [], [], 10)[0], "no answer within 10 s"
                    answer += os.read(proc.stdout.fileno(), 1 << 16)
                assert json.loads(answer.decode(encoding))["residue"] == residue
            proc.stdin.close()
            assert proc.wait(timeout=10) == EXIT_OK
        finally:
            proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
    def test_an_encoding_whose_newline_is_not_one_byte_gives_the_same_records(self, encoding):
        # U+0A66 is the bytes 66 0a in UTF-16: a cut at byte 0x0a would split it;
        # utf-8-sig starts with a BOM, which is not part of the first line
        stdin = "6 25604 105765\r\n\n2 \u0a66 5\n5 3 0\n2 3 7"
        outputs = [subprocess.run([sys.executable, "-m", "gencong", "pow"],
                                  input=stdin.encode(name), capture_output=True,
                                  env={**os.environ, "PYTHONIOENCODING": name})
                   for name in ("utf-8", encoding)]
        assert [(p.returncode, p.stderr) for p in outputs] == [(EXIT_DOMAIN, b"")] * 2
        assert outputs[1].stdout.decode(encoding) == outputs[0].stdout.decode()
        assert outputs[0].stdout.count(b"\n") == 4

    @pytest.mark.parametrize("command, code, err", [
        ("pow 2 3 5 >&-", EXIT_BROKEN_PIPE, ""),
        ("pow <&-", EXIT_USAGE, "gencong: error: batch mode reads stdin, which is closed\n"),
        # the error line cannot be written, and the exit code is still the error's
        ("reduce 6 0 2>&-", EXIT_DOMAIN, ""),
        ("reduce x 0 2>&-", EXIT_USAGE, ""),
    ], ids=["stdout", "stdin", "stderr-domain", "stderr-usage"])
    def test_a_stream_closed_at_start_ends_without_a_traceback(self, command, code, err):
        proc = subprocess.run(["sh", "-c", f'"$0" -m gencong {command}', sys.executable],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)

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
