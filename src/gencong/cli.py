"""Command-line front end: reduce, pow, totient, verify, selftest.

Operands are decimal integer strings of arbitrary length: one or more
ASCII digits after an optional ``-``.  ``_is_integer`` checks every operand
but ``pow``'s ``N``, whose digits after any ``-`` go through the library's
``_checked_exponent``: the one scan of them, so a long ``N`` is folded in
linear time and never converted to an int.  Exit codes: 0 success, 1
usage/parse error (also batch mode on a closed stdin), 2 domain error (a
``ValueError`` from the library, e.g. zero modulus), 3 verification failure
(including a ``CertificateError`` from ``solve``), 141 stdout closed, early
or before the call starts (as a shell reports a writer killed by SIGPIPE).
A closed stderr drops the error line and keeps the error's exit code.

``_COMMANDS`` is the one list of commands, with each one's handler,
operands, options and help; ``_parse_args`` reads argv against it in one
pass, in argparse's words but without argparse's 6 ms of import and set-up.
A handler takes the parsed namespace and returns through ``_emit``, the one
place that picks text or JSON (batch mode streams JSON lines itself, with
an error record for each line it cannot answer, and writes the records of
each 32-KiB read of stdin, in any encoding, at once, flushed before the
next read).  Powers go through ``reduction.solve``, as in the library, with
the operands checked in the order ``a``, ``N``, ``m``.  A batch line longer
than ``CHUNK_DIGITS`` characters finds ``N`` between its first and last
fields (``_batch_fields``), so splitting it does not scan ``N`` either;
only a failed line is split whole, to report a wrong field count.
``verify`` goes through ``reduction.verify_sweep``, which checks every
pair exactly at a cost of ``min(#bases, |m|)`` residues per modulus; each
failing pair's witness is its own chain, and under ``--json`` the
``reduce`` JSON object plus ``lhs``/``rhs``.  The ``--cap`` count leaves
out the pairs with ``m = 0``, which the sweep skips; an ``--a`` range of
more than ``sys.maxsize`` bases, which the sweep cannot count, is a usage
error.

Records are f-strings laid out exactly as ``json.dumps`` would lay them
out.  ``_chain_json`` is the one serializer of a chain: ``reduce --json``
prints it as is, and ``_pow_json`` (a ``pow --json`` object or a batch
line) and ``_witness_json`` (a ``verify`` witness) hand it their extra
members as one pre-formatted tail.  The ``json`` module is imported only
where it is used, by ``_dumps``: for a batch error record and for the
``totient`` and ``selftest`` ``--json`` output.  So importing the CLI, or
printing text, does not load it.
"""

from __future__ import annotations

import codecs
import os
import sys
from types import SimpleNamespace
from typing import Callable, Iterable

from .arith import Factorization, factorize, totient
from .reduction import (
    CHUNK_DIGITS,
    CertificateError,
    ReductionChain,
    TheoremCheck,
    _checked_exponent,
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

#: verify refuses sweeps of more pairs than this unless --cap raises it.
DEFAULT_VERIFY_CAP = 10**6


class CliError(Exception):
    """Command failure carrying its process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _is_integer(text: str) -> bool:
    """The operand syntax: one or more ASCII digits after an optional ``-``."""
    digits = text[1:] if text[:1] == "-" else text
    return digits.isascii() and digits.isdigit()  # isdigit() alone admits "٣" and "²"


def _parse_int(text: str, name: str) -> int:
    if not _is_integer(text):
        raise CliError(EXIT_USAGE, f"{name} must be a decimal integer, got {text!r}")
    return int(text)


def _is_operand(token: str) -> bool:
    """argparse's rule: ``-``, a token not led by ``-`` or holding a space, or a
    negative number (``-5``, ``-.5``); any other token led by ``-`` is an option."""
    whole, dot, fraction = token[1:].partition(".")
    return token[:1] != "-" or token == "-" or " " in token or (
        (fraction or not dot) and (whole + fraction).isdecimal())


def _parse_range(text: str, flag: str) -> range:
    lo_text, _, hi_text = text.partition("..")
    if not (_is_integer(lo_text) and _is_integer(hi_text)):
        raise CliError(EXIT_USAGE, f"{flag} expects LO..HI, got {text!r}")
    lo, hi = int(lo_text), int(hi_text)
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


def _chain_json(chain: ReductionChain, tail: str = "") -> str:
    """The ``reduce --json`` object, with ``tail`` inserted before its closing brace.

    ``tail`` is pre-formatted members, each ``, "key": "value"``, as
    :func:`_pow_json` and :func:`_witness_json` write them.  Laid out exactly
    as ``json.dumps`` would; every value is an integer, so nothing needs
    escaping.
    """
    a, _, m_norm, steps, s, m_s, phi_ms, _ = chain
    rows = ", ".join([f'{{"i": {i}, "d": "{d}", "m_rem": "{m_rem}"}}' for i, d, m_rem in steps])
    return (f'{{"a": "{a}", "m": "{m_norm}", "steps": [{rows}], '
            f'"s": {s}, "m_s": "{m_s}", "phi_m_s": "{phi_ms}"{tail}}}')


def _pow_json(chain: ReductionChain, reduced: int, residue: int) -> str:
    """The ``pow --json`` object and a batch line: the chain, the folded exponent, the residue."""
    return _chain_json(chain, f', "reduced_exponent": "{reduced}", "residue": "{residue}"')


def _witness_json(check: TheoremCheck) -> str:
    """A ``verify --json`` witness: the failing pair's chain and both sides."""
    return _chain_json(check.chain, f', "lhs": "{check.lhs}", "rhs": "{check.rhs}"')


def _dumps(payload: dict) -> str:
    """``json.dumps(payload)``, loading ``json`` only when a record needs it (module docstring)."""
    import json
    return json.dumps(payload)


def _factorization_payload(f: Factorization) -> dict:
    factors = [{"prime": str(p), "exponent": e} for p, e in f.factors]
    return {"n": str(f.n), "phi": str(f.phi), "factors": factors}


def _congruence_line(chain: ReductionChain, n_text: str, reduced: int) -> str:
    """``pow --trace``'s last line, with ``N`` as typed less its leading ``-`` and zeros."""
    base = f"({chain.a_input})" if chain.a_input < 0 else str(chain.a_input)
    return f"{base}^{n_text.lstrip('-0') or '0'} ≡ {base}^{reduced} (mod {chain.m_norm})"


def _exit_code(err: CliError | ValueError | CertificateError) -> int:
    """A ``CliError`` carries its code; a ``ValueError`` is a library domain
    check, and a ``CertificateError`` a failed check of the library's result."""
    if isinstance(err, CertificateError):
        return EXIT_VERIFY_FAILED
    return err.code if isinstance(err, CliError) else EXIT_DOMAIN


def _emit(args: SimpleNamespace, payload: Callable[[], str],
          lines: Callable[[], list[str]], code: int = EXIT_OK) -> int:
    """Print ``payload()``, JSON text, under ``--json``, else ``lines()``; return ``code``."""
    print(payload() if args.json else "\n".join(lines()))
    return code


def cmd_reduce(args: SimpleNamespace) -> int:
    if len(args.operands) != 2:
        raise CliError(EXIT_USAGE, "reduce expects operands: a m")
    chain = build_chain(_parse_int(args.operands[0], "a"), _parse_int(args.operands[1], "m"))
    return _emit(args, lambda: _chain_json(chain), lambda: _chain_lines(chain))


def _solve_pow(fields: Iterable[str]) -> tuple[ReductionChain, int, int]:
    """``solve(a, N, m)`` for the operands ``a N m``, checked in that order; ``-0`` is ``0``.

    ``N`` is checked once, by the library's ``_checked_exponent`` on its
    digits after any ``-``, and ``solve`` folds a long one without ``int()``.
    On a long batch line ``N`` is everything between the first and last
    fields (``_batch_fields``), so whitespace inside it means the line had
    four or more fields; that always fails here, and ``_pow_batch`` then
    reports the field count instead.
    """
    a_text, n_text, m_text = fields
    a = _parse_int(a_text, "a")
    negative = n_text[:1] == "-"
    try:
        exponent = _checked_exponent(n_text[1:] if negative else n_text)
    except ValueError:
        raise CliError(EXIT_USAGE, f"N must be a decimal integer, got {n_text!r}") from None
    if negative and exponent:
        raise CliError(EXIT_USAGE, "N must be non-negative")
    return solve(a, exponent, _parse_int(m_text, "m"))


def cmd_pow(args: SimpleNamespace) -> int:
    if not args.operands:
        if args.trace:
            raise CliError(EXIT_USAGE, "--trace needs operands a N m; batch mode prints JSON only")
        return _pow_batch()
    if len(args.operands) != 3:
        raise CliError(EXIT_USAGE, "pow expects operands: a N m (or none to read them from stdin)")
    chain, reduced, residue = _solve_pow(args.operands)
    return _emit(
        args, lambda: _pow_json(chain, reduced, residue), lambda: [
            *(_chain_lines(chain) if args.trace else _summary_lines(chain)),
            f"reduced_exponent = {reduced}", f"residue = {residue}",
            *([_congruence_line(chain, args.operands[1], reduced)] if args.trace else []),
        ])


def _batch_fields(raw: str) -> list[str]:
    """The fields of a batch line: ``raw.split()`` wherever that has at most three.

    A line longer than ``CHUNK_DIGITS`` is split once from the left and once
    from the right, so only ``a`` and ``m`` are searched for whitespace and
    ``solve``'s check stays the one scan of ``N``.  A line of four or more
    fields then keeps whitespace inside ``N``, which always fails there; only
    then does :func:`_pow_batch` split the whole line, to report its field count.
    """
    if len(raw) <= CHUNK_DIGITS:
        return raw.split()
    fields = raw.split(None, 1)
    return fields[:1] + fields[1].rsplit(None, 1) if len(fields) == 2 else fields


def _waiting_lines(stdin) -> Iterable[list[str]]:
    """Stdin's lines, one list per piece of text that ends a line.

    A stdin over a byte buffer gives one piece per ``read1`` of up to 32 KiB,
    decoded as it comes in stdin's encoding, with ``surrogateescape``; a
    stream with no byte buffer gives its lines.  Each piece is cut at its last
    ``\\n``, the only end of a line, as in ``sys.stdin`` on POSIX; a line that
    spans pieces is joined once.
    """
    pieces, read1 = stdin, getattr(getattr(stdin, "buffer", None), "read1", None)
    if read1 is not None:
        decode = codecs.getincrementaldecoder(stdin.encoding)("surrogateescape").decode
        pieces = map(decode, iter(lambda: read1(1 << 15), b""))
    head = []
    for text in pieces:
        end = text.rfind("\n") + 1
        if not end:
            head.append(text)
            continue
        region = "".join([*head, text[:end]]) if head else text[:end]
        head = [text[end:]] if end < len(text) else []
        # a region of one line (a long N) is passed on with no split copy
        yield [region] if text.find("\n") + 1 == end else region[:-1].split("\n")
    # the final decode ends a sequence cut off by the end of input; it holds no \n
    if tail := "".join([*head, decode(b"", True) if read1 else ""]):
        yield [tail]


def _pow_batch() -> int:
    """One 'a N m' request per stdin line; one JSON object per output line.

    A line that fails prints ``{"line": k, "error": ..., "code": ...}`` (``k``
    counts stdin lines from 1) and the batch goes on; the exit code is the
    highest code of any line.  The records of one read's lines are written at
    once and flushed before the next read, so a caller that waits for each
    answer gets it in any buffering mode.  A byte that is not UTF-8 fails its
    own line only.
    """
    if sys.stdin is None:  # fd 0 was closed when Python started
        raise CliError(EXIT_USAGE, "batch mode reads stdin, which is closed")
    worst, line_no = EXIT_OK, 0
    write, flush = sys.stdout.write, sys.stdout.flush
    for lines in _waiting_lines(sys.stdin):
        records = []
        for raw in lines:
            line_no += 1
            fields = _batch_fields(raw)
            if not fields:
                continue
            try:
                chain, reduced, residue = _solve_pow(fields)  # unpacking refuses other than 3 fields
                records.append(_pow_json(chain, reduced, residue))
            except (CliError, ValueError, CertificateError) as err:
                if len(raw.split()) != 3:  # the field count is reported before any operand
                    err = CliError(EXIT_USAGE, f"batch line must be 'a N m', got {raw.strip()!r}")
                code = _exit_code(err)
                worst = max(worst, code)
                records.append(_dumps({"line": line_no, "error": str(err), "code": code}))
        if records:
            write("\n".join(records) + "\n")
            flush()
    return worst


def cmd_totient(args: SimpleNamespace) -> int:
    if len(args.operands) != 1:
        raise CliError(EXIT_USAGE, "totient expects one operand: n")
    n = _parse_int(args.operands[0], "n")
    return _emit(args, lambda: _dumps(_factorization_payload(factorize(n))),
                 lambda: [str(totient(n))])


def cmd_verify(args: SimpleNamespace) -> int:
    if args.cap < 1:
        raise CliError(EXIT_USAGE, f"--cap must be at least 1, got {args.cap}")
    if args.a is None or args.m is None:
        raise CliError(EXIT_USAGE, "verify requires --a LO..HI and --m LO..HI")
    a_range = _parse_range(args.a, "--a")
    m_range = _parse_range(args.m, "--m")
    if all(m == 0 for m in m_range):
        raise CliError(EXIT_USAGE, "--m range contains no nonzero modulus")
    # the pairs the sweep checks, m = 0 skipped; stop - start, not len(),
    # which overflows past sys.maxsize
    bases = a_range.stop - a_range.start
    total = bases * (m_range.stop - m_range.start - (0 in m_range))
    if total > args.cap:
        raise CliError(
            EXIT_USAGE,
            f"{total} pairs exceed the safety cap of {args.cap}; raise --cap to allow this",
        )
    if bases > sys.maxsize:  # verify_sweep counts the bases with len()
        raise CliError(EXIT_USAGE, f"--a range holds {bases} bases, more than the "
                                   f"{sys.maxsize} verify can count")
    checked, failures = verify_sweep(a_range, m_range)
    return _emit(args, lambda: (
        f'{{"checked": {checked}, "failures": {len(failures)}, "witnesses": ['
        + ", ".join(map(_witness_json, failures)) + "]}"
    ), lambda: [
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


def cmd_selftest(args: SimpleNamespace) -> int:
    results = _selftest_checks()
    failed = [name for name, ok in results if not ok]
    passed = len(results) - len(failed)
    return _emit(args, lambda: _dumps({
        "checks": [{"name": name, "ok": ok} for name, ok in results],
        "passed": passed,
        "failed": len(failed),
    }), lambda: [
        *(f"{'ok' if ok else 'FAIL'} - {name}" for name, ok in results),
        f"{passed}/{len(results)} checks passed",
    ], EXIT_VERIFY_FAILED if failed else EXIT_OK)


#: command -> (handler, summary, operands' help or None, flags, options that
#: take a value).  A flag maps to its help; a command's flags exclude each other.
#: An option maps to (metavar, default, help), and takes an int if its default is one.
_COMMANDS = {
    "reduce": (cmd_reduce, "print the chain (steps, s, m_s, phi) for a and m", "a m",
               {"--json": "emit a JSON object"}, {}),
    "pow": (cmd_pow, "compute a^N mod m by exponent reduction",
            "a N m; omit to read one request per stdin line",
            {"--json": "emit a JSON object",
             "--trace": "also print the chain table and the congruence line (text only,\n"
                        "              needs operands)"}, {}),
    "totient": (cmd_totient, "print phi(n)", "n",
                {"--json": "emit a JSON object with the factorization"}, {}),
    "verify": (cmd_verify, "check the congruence over ranges of a and m", None,
               {"--json": "emit a JSON summary"},
               {"--a": ("LO..HI", None, "inclusive range of bases"),
                "--m": ("LO..HI", None, "inclusive range of moduli (m = 0 skipped)"),
                "--cap": ("K", DEFAULT_VERIFY_CAP,
                          f"maximum number of pairs, at least 1 (default {DEFAULT_VERIFY_CAP})")}),
    "selftest": (cmd_selftest, "run the built-in regression checks", None,
                 {"--json": "emit a JSON summary"}, {}),
}


def _print_help(args: SimpleNamespace) -> int:
    """``-h``: the help of ``args.command`` (of ``gencong`` if ``None``), as argparse wrote it."""
    if args.command is None:
        names = "{" + ",".join(_COMMANDS) + "}"
        print(f"usage: gencong [-h] {names} ...\n\n"
              "Reduce huge modular exponents via gcd reduction chains.\n\n"
              f"positional arguments:\n  {names}\n"
              + "".join(f"    {name:<20}{row[1]}\n" for name, row in _COMMANDS.items())
              + "\noptions:\n  -h, --help            show this help message and exit")
        return EXIT_OK
    _, _, operands, flags, options = _COMMANDS[args.command]
    usage = "".join(f" [{option} {metavar}]" for option, (metavar, _, _) in options.items())
    rows = {"-h, --help": "show this help message and exit", **{
        f"{option} {metavar}": text for option, (metavar, _, text) in options.items()}, **flags}
    print(f"usage: gencong {args.command} [-h]{usage} [{' | '.join(flags)}]"
          + (f" [OPERAND ...]\n\npositional arguments:\n  OPERAND     {operands}" if operands else "")
          + "\n\noptions:" + "".join(f"\n  {row:<10}  {text}" for row, text in rows.items()))
    return EXIT_OK


def _parse_args(argv: Iterable[str]) -> SimpleNamespace:
    """The namespace a handler reads, from one pass over ``argv`` against ``_COMMANDS``.

    Options may come anywhere after the command up to ``--``, as ``--opt value``
    or ``--opt=value``.  Errors are argparse's, in its order: unrecognized ones last.
    """
    tokens = iter(argv)
    extras: list[str] = []
    for command in tokens:
        if command in ("-h", "--help"):
            return SimpleNamespace(handler=_print_help, command=None)
        if _is_operand(command):
            break
        extras.append(command)
    else:
        raise CliError(EXIT_USAGE, "the following arguments are required: command")
    if command not in _COMMANDS:
        raise CliError(EXIT_USAGE, f"argument command: invalid choice: {command!r} "
                                   f"(choose from {', '.join(map(repr, _COMMANDS))})")
    handler, _, operand_help, flags, options = _COMMANDS[command]
    args = SimpleNamespace(handler=handler, operands=[],
                           **{flag[2:]: False for flag in flags},
                           **{option[2:]: default for option, (_, default, _) in options.items()})
    operands = args.operands if operand_help else extras
    for token in tokens:
        option, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            return SimpleNamespace(handler=_print_help, command=command)
        if token in flags:
            for other in flags:
                if other != token and getattr(args, other[2:]):
                    raise CliError(EXIT_USAGE, f"argument {token}: not allowed with argument {other}")
            setattr(args, token[2:], True)
        elif option in options:
            if not eq and (value := next(tokens, None)) is None:
                raise CliError(EXIT_USAGE, f"argument {option}: expected one argument")
            takes_int = isinstance(options[option][1], int)
            if takes_int and not _is_integer(value):
                raise CliError(EXIT_USAGE, f"argument {option}: invalid int value: {value!r}")
            setattr(args, option[2:], int(value) if takes_int else value)
        elif token == "--":
            operands.extend(tokens)
        else:
            (operands if _is_operand(token) else extras).append(token)
    if extras:
        raise CliError(EXIT_USAGE, f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    # operands are arbitrary-length decimals: lift the conversion cap for
    # this call only, so a library caller's own limit survives it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if sys.stdout is None:  # fd 1 was closed when Python started: nothing can be printed
            return EXIT_BROKEN_PIPE
        code = args.handler(args)
        sys.stdout.flush()  # a reader that has gone away shows here, not at exit
        return code
    except (CliError, ValueError, CertificateError) as err:
        # with fd 2 closed (`2>&-`), sys.stderr is None, or a stream whose
        # writes fail with EBADF; the exit code still tells what failed
        try:
            if sys.stderr is not None:  # print(file=None) would write to stdout
                print(f"gencong: error: {err}", file=sys.stderr)
        except OSError:
            pass
        return _exit_code(err)
    except BrokenPipeError:  # e.g. `| head -1`; fd 1 -> devnull so the exit flush can't fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return EXIT_BROKEN_PIPE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
