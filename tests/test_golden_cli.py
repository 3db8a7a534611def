"""Golden corpus: exit code, stdout and stderr of ``cli.main`` for fixed inputs.

Every command, ``--json``, ``--trace``, negative operands, batch mode and
the usage (1) and domain (2) error exits are recorded in ``golden_cli.json``;
exit 3 needs a broken library and is covered in ``test_cli.py``.  Refactors
must leave every case byte-identical; an intended output change re-records
the corpus with

    PYTHONPATH=src python tests/test_golden_cli.py

and the diff of the data file shows exactly what changed.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from gencong.cli import main

CORPUS = pathlib.Path(__file__).with_name("golden_cli.json")

BATCH_STDIN = (
    "6 25604 105765\n"
    "\n"
    "   \n"
    "2 0 -1\n"
    "3 5 1\n"
    "2 1 4\n"
    "-6 25604 105765\n"
    "  7   0   13  \n"
    "10 1000000000000000000000000000000 -34\n"
)

#: Exponents for the string fold, which converts decimals of more than 300
#: digits in 300-digit chunks: batch lines of exactly 300, 301 and 600 digits,
#: and a 700-digit N behind leading zeros.
N_400 = "1234567890" * 40
N_LONG = "000" + "9876543210" * 70
BOUNDARY_STDIN = "".join(f"6 {('31415926535897932384' * 30)[:k]} 105765\n" for k in (300, 301, 600))

#: A 4,401-digit modulus, past CPython's default 4,300-digit int/str limit,
#: which ``main`` lifts for its own call.
M_LONG = "1" + "0" * 4400

#: (argv, stdin) for every recorded case.
INPUTS = [
    (["reduce", "6", "105765"], ""),
    (["reduce", "6", "105765", "--json"], ""),
    (["reduce", "2", "4"], ""),
    (["reduce", "2", "-4"], ""),
    (["reduce", "2", "-4", "--json"], ""),
    (["reduce", "-12", "18"], ""),
    (["reduce", "0", "7", "--json"], ""),
    (["reduce", "6", "0"], ""),
    (["reduce", "abc", "7"], ""),
    (["reduce", "6"], ""),
    (["pow", "6", "25604", "105765"], ""),
    (["pow", "6", "25604", "105765", "--json"], ""),
    (["pow", "6", "25604", "105765", "--trace"], ""),
    (["pow", "-6", "25604", "105765", "--trace"], ""),
    (["pow", "-6", "25604", "105765", "--trace", "--json"], ""),
    (["pow", "2", "0", "-1"], ""),
    (["pow", "2", "0", "-1", "--json"], ""),
    (["pow", "2", "1", "4", "--trace"], ""),
    (["pow", "2", "999999999999999999999999", "4"], ""),
    (["pow", "0", "0", "9", "--json"], ""),
    (["pow", "-15", "33", "-24", "--trace"], ""),
    (["pow", "6", "9" * 5000, "105765"], ""),
    (["pow", "2", "-3", "5"], ""),
    (["pow", "2", "3", "0"], ""),
    (["pow", "1", "2"], ""),
    (["pow", "--bogus-flag"], ""),
    (["pow"], BATCH_STDIN),
    (["pow", "--json"], "6 25604 105765\n2 0 1\n"),
    (["pow"], "6 25604 105765\n6 25604\n7 0 13\n"),
    (["pow"], "7 0 13\n5 3 0\n"),
    (["pow"], "2 -1 5\n"),
    (["pow"], "x 1 5\n"),
    (["totient", "35255"], ""),
    (["totient", "12", "--json"], ""),
    (["totient", "1", "--json"], ""),
    (["totient", "0"], ""),
    (["totient", "-5"], ""),
    (["totient", "1", "2"], ""),
    (["totient", "x"], ""),
    (["verify", "--a", "0..50", "--m", "1..50"], ""),
    (["verify", "--a", "0..10", "--m", "1..10", "--json"], ""),
    (["verify", "--a", "-10..-1", "--m", "-5..5", "--json"], ""),
    (["verify", "--a", "-10..10", "--m", "-10..-1"], ""),
    (["verify", "--a", "6..6", "--m", "105765..105765"], ""),
    (["verify"], ""),
    (["verify", "--a", "10..0", "--m", "1..5"], ""),
    (["verify", "--a", "0..x", "--m", "1..5"], ""),
    (["verify", "--a", "1..2", "--m", "0..0"], ""),
    (["verify", "--a", "0..100", "--m", "1..100", "--cap", "10000"], ""),
    (["verify", "--a", "0..2", "--m", "1..2", "--cap", "x"], ""),
    (["selftest"], ""),
    (["selftest", "--json"], ""),
    ([], ""),
    (["frobnicate"], ""),
    # appended, so the cases above keep their test ids
    (["pow", "6", "0025604", "105765", "--trace"], ""),
    (["pow", "2", "-0", "5"], ""),
    (["pow", "2", "-00", "5", "--json"], ""),
    (["pow", "2", "00", "4"], ""),
    (["pow", "3", N_400, "1"], ""),
    (["pow", "3", N_400, "-1"], ""),
    (["pow", "12", N_LONG, "-105765", "--trace"], ""),
    (["pow", "2", "0" * 700 + "3", "1024", "--json"], ""),
    (["pow"], BOUNDARY_STDIN),
    (["verify", "--a", "-40..40", "--m", "-40..40", "--json"], ""),
    (["verify", "--a", "0..0", "--m", "1..60"], ""),
    (["verify", "--a", "-300..300", "--m", "1..300"], ""),
    (["reduce", M_LONG, M_LONG], ""),
    (["reduce", "-" + "3" * 4400, "12"], ""),
    (["pow", "7", "25604", "-" + M_LONG, "--json"], ""),
    (["totient", M_LONG], ""),
    (["verify", "--a", "0..1", "--m", f"{M_LONG}..{M_LONG}"], ""),
]


def run_case(argv, stdin):
    """Exit code, stdout and stderr of one ``main(argv)`` call on ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return {"argv": argv, "stdin": stdin, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _case_id(case):
    return " ".join(case["argv"])[:48] or "<no args>"


CASES = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d} {_case_id(c)}" for i, c in enumerate(CASES)])
def test_cli_output_is_byte_identical(case):
    assert run_case(case["argv"], case["stdin"]) == case


def test_corpus_covers_every_input():
    assert [(c["argv"], c["stdin"]) for c in CASES] == INPUTS


if __name__ == "__main__":
    CORPUS.write_text(json.dumps([run_case(argv, stdin) for argv, stdin in INPUTS], indent=1,
                                 ensure_ascii=False) + "\n", encoding="utf-8")
