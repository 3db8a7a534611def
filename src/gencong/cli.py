"""Command-line front end: reduce, pow, totient, verify, selftest.

Operands are decimal integer strings of arbitrary length (optional leading
minus).  Exit codes: 0 success, 1 usage/parse error, 2 domain error (a
``ValueError`` from the library, e.g. zero modulus), 3 verification failure,
141 stdout closed early (as a shell reports a writer killed by SIGPIPE).

Each subparser carries its handler (``set_defaults(handler=cmd_...)``), so
the parser is the one list of subcommands.  A handler takes the parsed
``argparse.Namespace`` and returns through ``_emit``, the one place that
picks text or JSON (batch mode streams JSON lines itself, with an error
record for each line it cannot answer).  Powers go through
``reduction.solve``, as in the library, with ``N`` passed as its digit
string so it is folded in linear time and never converted to an int.
``verify`` goes through ``reduction.verify_sweep``, which builds one chain
per ``(m, gcd(a, m))`` class and evaluates both sides for every pair; a
failing pair's witness is its own chain, and under ``--json`` it is the
``reduce`` JSON object plus ``lhs``/``rhs``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Callable, Iterable

from .arith import Factorization, factorize, totient
from .reduction import (
    ReductionChain,
    build_chain,
    mod_pow,  # noqa: F401  re-exported; bench/test_bench.py traces cli.mod_pow
    reduced_pow,
    solve,
    verify_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY_FAILED = 3
EXIT_BROKEN_PIPE = 141

#: verify refuses range products above this unless --cap raises it.
DEFAULT_VERIFY_CAP = 10**6

_INTEGER_RE = re.compile(r"-?[0-9]+")
_RANGE_RE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")


class CliError(Exception):
    """Command failure carrying its process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit with code 2
        raise CliError(EXIT_USAGE, message)


def _parse_int(text: str, name: str) -> int:
    if not _INTEGER_RE.fullmatch(text):
        raise CliError(EXIT_USAGE, f"{name} must be a decimal integer, got {text!r}")
    return int(text)


def _parse_range(text: str, flag: str) -> range:
    match = _RANGE_RE.fullmatch(text)
    if not match:
        raise CliError(EXIT_USAGE, f"{flag} expects LO..HI, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise CliError(EXIT_USAGE, f"{flag} range {text} is empty")
    return range(lo, hi + 1)


def _summary_lines(chain: ReductionChain) -> list[str]:
    return [
        f"s = {chain.s}",
        f"m_s = {chain.m_s}",
        f"phi(m_s) = {chain.phi_ms}",
    ]


def _chain_lines(chain: ReductionChain) -> list[str]:
    """The chain as text: the worked trace's table, one step per line, then the summary."""
    lines = []
    arg_a, arg_m = chain.a_input, chain.m_norm
    for step in chain.steps:
        lines.append(
            f"d_{step.index} = ({arg_a}, {arg_m}) = {step.d}   "
            f"m_{step.index} = {arg_m} / {step.d} = {step.m_rem}"
        )
        arg_a, arg_m = step.d, step.m_rem
    return lines + _summary_lines(chain)


def _chain_payload(chain: ReductionChain) -> dict:
    return {
        "a": str(chain.a_input),
        "m": str(chain.m_norm),
        "steps": [
            {"i": step.index, "d": str(step.d), "m_rem": str(step.m_rem)}
            for step in chain.steps
        ],
        "s": chain.s,
        "m_s": str(chain.m_s),
        "phi_m_s": str(chain.phi_ms),
    }


def _pow_payload(chain: ReductionChain, reduced: int, residue: int) -> dict:
    return {**_chain_payload(chain), "reduced_exponent": str(reduced), "residue": str(residue)}


def _factorization_payload(f: Factorization) -> dict:
    factors = [{"prime": str(p), "exponent": e} for p, e in f.factors]
    return {"n": str(f.n), "phi": str(f.phi), "factors": factors}


def _congruence_line(a: int, exponent: str, reduced: int, m: int) -> str:
    base = f"({a})" if a < 0 else str(a)
    return f"{base}^{exponent} ≡ {base}^{reduced} (mod {m})"


def _exit_code(err: CliError | ValueError) -> int:
    """A ``CliError`` carries its code; a ``ValueError`` is a library domain check."""
    return err.code if isinstance(err, CliError) else EXIT_DOMAIN


def _emit(args: argparse.Namespace, payload: Callable[[], dict],
          lines: Callable[[], list[str]], code: int = EXIT_OK) -> int:
    """Print ``payload()`` as JSON under ``--json``, else ``lines()`` as text; return ``code``."""
    print(json.dumps(payload()) if args.json else "\n".join(lines()))
    return code


def cmd_reduce(args: argparse.Namespace) -> int:
    if len(args.operands) != 2:
        raise CliError(EXIT_USAGE, "reduce expects operands: a m")
    chain = build_chain(_parse_int(args.operands[0], "a"), _parse_int(args.operands[1], "m"))
    return _emit(args, lambda: _chain_payload(chain), lambda: _chain_lines(chain))


def _parse_pow_operands(fields: Iterable[str]) -> tuple[int, str, int]:
    """``(a, N, m)`` with ``N`` as its digits, leading zeros stripped (``-0`` is ``0``).

    ``N`` stays a string: ``solve`` folds it without the quadratic ``int()``.
    """
    a_text, n_text, m_text = fields
    a = _parse_int(a_text, "a")
    if not _INTEGER_RE.fullmatch(n_text):
        raise CliError(EXIT_USAGE, f"N must be a decimal integer, got {n_text!r}")
    digits = n_text.lstrip("-").lstrip("0") or "0"
    if n_text.startswith("-") and digits != "0":
        raise CliError(EXIT_USAGE, "N must be non-negative")
    return a, digits, _parse_int(m_text, "m")


def cmd_pow(args: argparse.Namespace) -> int:
    if not args.operands:
        if args.trace:
            raise CliError(EXIT_USAGE, "--trace needs operands a N m; batch mode prints JSON only")
        return _pow_batch()
    if len(args.operands) != 3:
        raise CliError(EXIT_USAGE, "pow expects operands: a N m (or none to read them from stdin)")
    a, exponent, m = _parse_pow_operands(args.operands)
    chain, reduced, residue = solve(a, exponent, m)
    return _emit(args, lambda: _pow_payload(chain, reduced, residue), lambda: [
        *(_chain_lines(chain) if args.trace else _summary_lines(chain)),
        f"reduced_exponent = {reduced}", f"residue = {residue}",
        *([_congruence_line(a, exponent, reduced, chain.m_norm)] if args.trace else []),
    ])


def _pow_batch() -> int:
    """One 'a N m' request per stdin line; one JSON object per output line.

    A line that fails prints ``{"line": k, "error": ..., "code": ...}`` (``k``
    counts stdin lines from 1) and the batch goes on; the exit code is the
    highest code of any line.
    """
    worst = EXIT_OK
    for line_no, raw in enumerate(sys.stdin, 1):
        fields = raw.split()
        if not fields:
            continue
        try:
            if len(fields) != 3:
                raise CliError(EXIT_USAGE, f"batch line must be 'a N m', got {raw.strip()!r}")
            record = _pow_payload(*solve(*_parse_pow_operands(fields)))
        except (CliError, ValueError) as err:
            code = _exit_code(err)
            worst = max(worst, code)
            record = {"line": line_no, "error": str(err), "code": code}
        print(json.dumps(record))
    return worst


def cmd_totient(args: argparse.Namespace) -> int:
    if len(args.operands) != 1:
        raise CliError(EXIT_USAGE, "totient expects one operand: n")
    n = _parse_int(args.operands[0], "n")
    return _emit(args, lambda: _factorization_payload(factorize(n)), lambda: [str(totient(n))])


def cmd_verify(args: argparse.Namespace) -> int:
    if args.cap < 1:
        raise CliError(EXIT_USAGE, f"--cap must be at least 1, got {args.cap}")
    if args.a is None or args.m is None:
        raise CliError(EXIT_USAGE, "verify requires --a LO..HI and --m LO..HI")
    a_range = _parse_range(args.a, "--a")
    m_range = _parse_range(args.m, "--m")
    if all(m == 0 for m in m_range):
        raise CliError(EXIT_USAGE, "--m range contains no nonzero modulus")
    # stop - start, not len(): len() overflows past sys.maxsize
    total = (a_range.stop - a_range.start) * (m_range.stop - m_range.start)
    if total > args.cap:
        raise CliError(
            EXIT_USAGE,
            f"{total} pairs exceed the safety cap of {args.cap}; raise --cap to allow this",
        )
    checked, failures = verify_sweep(a_range, m_range)
    return _emit(args, lambda: {
        "checked": checked,
        "failures": len(failures),
        "witnesses": [{**_chain_payload(c.chain), "lhs": str(c.lhs), "rhs": str(c.rhs)}
                      for c in failures],
    }, lambda: [
        *(line for c in failures for line in (
            f"FAIL a={c.chain.a_input} m={c.chain.m_input}: lhs={c.lhs} rhs={c.rhs}",
            *_chain_lines(c.chain))),
        f"{checked} checked, {len(failures)} failures",
    ], EXIT_VERIFY_FAILED if failures else EXIT_OK)


def _selftest_checks() -> list[tuple[str, bool]]:
    chain, reduced, residue = solve(6, 25604, 105765)
    return [
        (
            "worked example: chain of (6, 105765)",
            (chain.s, chain.m_s, chain.phi_ms) == (1, 35255, 25600),
        ),
        (
            "worked example: 6^25604 mod 105765",
            (reduced, residue) == (4, 1296),
        ),
        ("totient(35255) = 25600", totient(35255) == 25600),
        (
            "congruence holds for |a| <= m <= 40",
            not any(verify_sweep(range(-m, m + 1), (m,))[1] for m in range(1, 41)),
        ),
        (
            "reduced powers match direct evaluation",
            all(
                reduced_pow(a, exponent, m) == pow(a, exponent, m)
                for m in range(1, 30)
                for a in range(m)
                for exponent in range(20)
            ),
        ),
    ]


def cmd_selftest(args: argparse.Namespace) -> int:
    results = _selftest_checks()
    failed = [name for name, ok in results if not ok]
    passed = len(results) - len(failed)
    return _emit(args, lambda: {
        "checks": [{"name": name, "ok": ok} for name, ok in results],
        "passed": passed,
        "failed": len(failed),
    }, lambda: [
        *(f"{'ok' if ok else 'FAIL'} - {name}" for name, ok in results),
        f"{passed}/{len(results)} checks passed",
    ], EXIT_VERIFY_FAILED if failed else EXIT_OK)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gencong",
        description="Reduce huge modular exponents via gcd reduction chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="print the chain (steps, s, m_s, phi) for a and m")
    p_reduce.add_argument("operands", nargs="*", metavar="OPERAND", help="a m")
    p_reduce.add_argument("--json", action="store_true", help="emit a JSON object")
    p_reduce.set_defaults(handler=cmd_reduce)

    p_pow = sub.add_parser("pow", help="compute a^N mod m by exponent reduction")
    p_pow.add_argument("operands", nargs="*", metavar="OPERAND",
                       help="a N m; omit to read one request per stdin line")
    p_pow_format = p_pow.add_mutually_exclusive_group()
    p_pow_format.add_argument("--json", action="store_true", help="emit a JSON object")
    p_pow_format.add_argument("--trace", action="store_true",
                              help="also print the chain table and the congruence line "
                                   "(text only, needs operands)")
    p_pow.set_defaults(handler=cmd_pow)

    p_tot = sub.add_parser("totient", help="print phi(n)")
    p_tot.add_argument("operands", nargs="*", metavar="OPERAND", help="n")
    p_tot.add_argument("--json", action="store_true",
                       help="emit a JSON object with the factorization")
    p_tot.set_defaults(handler=cmd_totient)

    p_verify = sub.add_parser("verify", help="check the congruence over ranges of a and m")
    p_verify.add_argument("--a", metavar="LO..HI", help="inclusive range of bases")
    p_verify.add_argument("--m", metavar="LO..HI", help="inclusive range of moduli (m = 0 skipped)")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_VERIFY_CAP, metavar="K",
                          help=f"maximum number of pairs, at least 1 (default {DEFAULT_VERIFY_CAP})")
    p_verify.add_argument("--json", action="store_true", help="emit a JSON summary")
    p_verify.set_defaults(handler=cmd_verify)

    p_self = sub.add_parser("selftest", help="run the built-in regression checks")
    p_self.add_argument("--json", action="store_true", help="emit a JSON summary")
    p_self.set_defaults(handler=cmd_selftest)

    return parser


def _merge_range_values(argv: list[str]) -> list[str]:
    """Join --a/--m with their values so ranges like -10..-1 survive argparse."""
    merged = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("--a", "--m"):
            value = next(tokens, None)
            merged.append(token if value is None else f"{token}={value}")
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # operands are arbitrary-length decimals: lift the conversion cap for
    # this call only, so a library caller's own limit survives it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_range_values(list(argv)))
        code = args.handler(args)
        sys.stdout.flush()  # a reader that has gone away shows here, not at exit
        return code
    except (CliError, ValueError) as err:
        print(f"gencong: error: {err}", file=sys.stderr)
        return _exit_code(err)
    except BrokenPipeError:  # e.g. `| head -1`; fd 1 -> devnull so the exit flush can't fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return EXIT_BROKEN_PIPE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
