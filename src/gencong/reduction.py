"""Exponent reduction for modular powers, valid even when gcd(a, m) != 1.

For any integers a and m != 0, repeatedly splitting the modulus by gcds
produces a depth s and a reduced modulus m_s coprime to a such that

    a**(phi(m_s) + s) == a**s   (mod m)

This generalizes Euler's theorem: coprime inputs give s == 0 and m_s == |m|,
recovering a**phi(m) == 1 (mod m).  Folding a huge exponent N down to
s + ((N - s) mod phi(m_s)) therefore leaves the residue unchanged, which is
what makes powers with thousand-digit exponents cheap.

The chain is tight.  For a prime ``p`` with ``v_p(a) = alpha > 0`` and
``v_p(m) = e``, each step removes ``min(alpha, rest)`` from the p-part of
the modulus, so ``s = max ceil(e / alpha)`` over the primes of
``gcd(a, m)``: 0 when that gcd is 1, and 1 for ``a == 0``, ``|m| > 1``.
That is exactly the pre-period of ``k -> a**k mod |m|``, since the p-part of
``a**k`` vanishes mod ``p**e`` exactly from ``k * alpha >= e`` on.  And
``m_s`` is the largest divisor of ``m`` coprime to ``a``, so the exact
period is the order of ``a`` mod ``m_s``, which divides phi(m_s).

One modular power certifies a fold for a given ``a``, whatever produced the
period ``P`` used in place of phi(m_s).  ``|m| / m_s = prod(c_i**(i+1))``
over the chain's cofactors, and each ``c_i`` divides ``d_0``, which divides
``a``; so ``|m| / m_s`` divides ``a**s``, while ``gcd(a, m_s) == 1``.  By the
Chinese remainder theorem, ``a**(s + k*P) == a**s (mod |m|)`` for every
``k >= 0`` exactly when ``a**P == 1 (mod m_s)``.

Only the part ``u`` of ``m_s = t * u`` past the trial primes needs that
power, ``t`` being made of the primes below ``_TRIAL_BOUND``.  Trial
division finds ``t``'s primes and exponents exactly, so phi(t) divides the
computed phi(m_s) whatever ``is_prime`` did on ``u``, and ``gcd(a, t) == 1``
gives ``a**phi_ms == 1 (mod t)``; by the Chinese remainder theorem the power
modulo ``u`` decides.  When ``u < psi_13`` every prime test on its factors
was a proof, so :func:`solve` checks ``a**phi_ms == 1 (mod u)`` only when
``u >= psi_13``, where ``is_prime`` rests on the Baillie-PSW test, and raises
:class:`CertificateError` instead of returning a residue it cannot vouch for.

Sign conventions: phi(m) == phi(-m) and congruence mod m equals congruence
mod -m, so the chain is always built on |m|; gcds are taken positive.

Exponents may also be given as decimal strings, which are folded chunk by
chunk and never converted to one integer: before 3.12, CPython converts a
decimal string to int in time quadratic in its length.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from typing import NamedTuple

from .arith import _PRIMORIAL, _PSI_13, mod_pow, totient

__all__ = [
    "CertificateError",
    "ReductionChain",
    "ReductionStep",
    "TheoremCheck",
    "build_chain",
    "cofactors",
    "reduce_exponent",
    "reduced_pow",
    "solve",
    "verify_sweep",
    "verify_theorem",
]

#: Digits per ``int()`` call when folding a decimal-string exponent; longer
#: chunks pay the quadratic conversion, shorter ones more Python-level steps.
CHUNK_DIGITS = 300

#: Bases per block in :func:`verify_sweep`: the sweep holds one block's
#: residues at a time, and evaluates each distinct one once per block.
_SWEEP_BLOCK = 4096


class CertificateError(ArithmeticError):
    """``a**phi_ms != 1 (mod m_s)``: the totient of ``m_s`` is wrong for this ``a``.

    Only a prime test that accepted a composite factor of ``m_s`` can cause
    it; :func:`solve` then returns no residue.
    """


class ReductionStep(NamedTuple):
    """One chain row: ``d`` divides the running modulus, ``m_rem`` is the quotient."""

    index: int
    d: int
    m_rem: int


class ReductionChain(NamedTuple):
    """Full gcd chain for ``(a, m)``, ending at the first step with ``d == 1``.

    ``s`` is the index of that terminal step, ``m_s`` its modulus, and
    ``phi_ms = phi(m_s)``.  ``a0 = a_input / d_0`` is the part of ``a``
    coprime to ``m_s``.  Instances are immutable and safe to share between
    threads.
    """

    a_input: int
    m_input: int
    m_norm: int
    steps: tuple[ReductionStep, ...]
    s: int
    m_s: int
    phi_ms: int
    a0: int


class TheoremCheck(NamedTuple):
    """Witness for one congruence check: both sides evaluated directly.

    ``lhs = a**(phi_ms + s) mod |m|`` and ``rhs = a**s mod |m|`` for the
    ``a``, ``m``, ``s`` and ``phi_ms`` of ``chain``; ``ok`` is their
    equality.  A False ``ok`` indicates an implementation bug, so the full
    chain is carried for the report.
    """

    ok: bool
    lhs: int
    rhs: int
    chain: ReductionChain

    def __bool__(self) -> bool:
        # a non-empty tuple is always truthy; the check is as true as ``ok``
        return self.ok


def build_chain(a: int, m: int) -> ReductionChain:
    """Run the gcd-splitting iteration for ``(a, m)``, ``m != 0``.

    Starting from ``A = a``, ``M = |m|``: take ``d = gcd(A, M)`` and
    ``M' = M / d``; stop at the first ``d == 1`` with ``s`` its step index
    and ``m_s = M'``, else continue from ``A = d``, ``M = M'``.  The chain
    beyond ``a_input``/``a0`` depends on ``a`` only through ``gcd(|a|, |m|)``.
    """
    if m == 0:
        raise ValueError("modulus must be nonzero (the congruence requires m != 0)")
    m_norm = abs(m)
    steps: list[ReductionStep] = []
    current_a, current_m, i = a, m_norm, 0
    while True:
        d = gcd(current_a, current_m)
        current_m //= d
        steps.append(ReductionStep(i, d, current_m))
        if d == 1:
            return ReductionChain(a, m, m_norm, tuple(steps), i, current_m,
                                  totient(current_m), a // steps[0].d)
        current_a, i = d, i + 1


def cofactors(chain: ReductionChain) -> list[int]:
    """Per-step quotients ``c_i = d_i / d_{i+1}`` for ``i < s``.

    They certify the chain structurally: ``m_norm == m_s * prod(c_i**(i+1))``.
    Empty when ``s == 0``.
    """
    steps = chain.steps
    return [steps[i].d // steps[i + 1].d for i in range(chain.s)]


def verify_theorem(a: int, m: int) -> TheoremCheck:
    """Check ``a**(phi(m_s)+s) == a**s (mod |m|)`` by direct evaluation.

    Holds for every ``a`` and ``m != 0``; a falsy result means the library
    itself is broken.
    """
    chain = build_chain(a, m)
    lhs = mod_pow(a, chain.phi_ms + chain.s, chain.m_norm)
    rhs = mod_pow(a, chain.s, chain.m_norm)
    return TheoremCheck(ok=lhs == rhs, lhs=lhs, rhs=rhs, chain=chain)


def verify_sweep(a_values: Sequence[int],
                 m_values: Sequence[int]) -> tuple[int, list[TheoremCheck]]:
    """Check the congruence for every pair ``(a, m)`` with ``m != 0``.

    Returns the number of pairs checked and the falsy checks, in a-major
    order.  Both sides depend on ``a`` only through ``r = a mod |m|``:
    ``pow(a, e, |m|) == pow(r, e, |m|)`` and ``gcd(a, m) == gcd(r, m)``, so
    every pair's verdict is its residue's.  For each modulus the bases are
    read in blocks of :data:`_SWEEP_BLOCK`, and both sides are evaluated
    once for each distinct residue of the block.  The chain depends on ``a``
    only through ``g = gcd(a, m)``, so the first pair of each class
    ``(m, g)`` goes through :func:`verify_theorem`, and every later residue
    is checked with that class's exponents ``phi_ms + s`` and ``s``.  Each
    pair whose residue fails gets its own chain as the witness.  Memory
    holds one block and one modulus's classes at a time, whatever the
    ranges; ``a_values`` is sliced anew for each modulus, so it must be a
    sequence, not a one-shot iterator.
    """
    if iter(a_values) is a_values:
        raise TypeError("a_values must be a sequence such as a range, not an iterator")
    checked = 0
    failures: list[tuple[int, TheoremCheck]] = []
    for m in m_values:
        if m == 0:
            continue
        m_norm = abs(m)
        exponents: dict[int, tuple[int, int]] = {}  # g -> (phi_ms + s, s)
        offset = 0  # pairs seen for this m; not len(a_values), which overflows past sys.maxsize
        while block := a_values[offset:offset + _SWEEP_BLOCK]:
            residues = [a % m_norm for a in block]
            for r in dict.fromkeys(residues):
                g = gcd(r, m_norm)
                known = exponents.get(g)
                if known is None:
                    check = verify_theorem(block[residues.index(r)], m)
                    exponents[g] = (check.chain.phi_ms + check.chain.s, check.chain.s)
                    lhs, rhs = check.lhs, check.rhs
                else:
                    high, low = known
                    lhs = pow(r, high, m_norm)
                    rhs = pow(r, low, m_norm)
                if lhs != rhs:
                    failures += ((offset + j, TheoremCheck(
                        ok=False, lhs=lhs, rhs=rhs, chain=build_chain(block[j], m)))
                        for j, x in enumerate(residues) if x == r)
            offset += len(block)
        checked += offset
    failures.sort(key=lambda failure: failure[0])  # stable: m order kept within one a
    return checked, [check for _, check in failures]


def reduce_exponent(chain: ReductionChain, exponent: int | str) -> int:
    """Fold ``exponent`` to an equivalent one below ``s + phi(m_s)``.

    ``a**N == a**E (mod |m|)`` for the returned ``E``: exponents at least
    ``s`` reduce to ``s + ((N - s) mod phi(m_s))``; smaller ones pass through
    unchanged (they are below ``log2(|m|)``, so direct evaluation is cheap).

    ``exponent`` is a non-negative int or a string of ASCII digits (leading
    zeros allowed).  A string longer than :data:`CHUNK_DIGITS` digits is
    folded in linear time, by Horner's rule over chunks of that many digits.
    """
    if isinstance(exponent, str) and not isinstance(exponent, _Digits):
        exponent = _checked_exponent(exponent)
    if isinstance(exponent, _Digits):
        # N >= 10**CHUNK_DIGITS, far past s <= log2|m| + 1
        return chain.s + (_mod_decimal(exponent, chain.phi_ms) - chain.s) % chain.phi_ms
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if exponent < chain.s:
        return exponent
    return chain.s + (exponent - chain.s) % chain.phi_ms


class _Digits(str):
    """The digits of an exponent too long for ``int()``, checked, leading zeros stripped."""


def _checked_exponent(text: str) -> int | _Digits:
    """``text``, checked to be ASCII decimal digits, as an int or, past
    :data:`CHUNK_DIGITS` digits, as :class:`_Digits` to fold without ``int()``."""
    # isascii() is O(1); bytes.isdigit() is the scan, 3-4x a regex's speed
    if not (text.isascii() and text.encode().isdigit()):
        raise ValueError(f"exponent must be ASCII decimal digits, got {text[:40]!r}")
    digits = text.lstrip("0")
    return _Digits(digits) if len(digits) > CHUNK_DIGITS else int(digits or "0")


def _mod_decimal(digits: str, modulus: int) -> int:
    """``int(digits) % modulus`` without building ``int(digits)``."""
    scale = pow(10, CHUNK_DIGITS, modulus)
    head = len(digits) % CHUNK_DIGITS or CHUNK_DIGITS
    residue = int(digits[:head]) % modulus
    for start in range(head, len(digits), CHUNK_DIGITS):
        residue = (residue * scale + int(digits[start:start + CHUNK_DIGITS])) % modulus
    return residue


def _past_trial_primes(n: int) -> int:
    """``n`` with every power of a trial prime divided out."""
    g = gcd(n, _PRIMORIAL)
    while g > 1:  # squaring g doubles the powers taken out in each round
        n //= g
        g = gcd(n, g * g)
    return n


def solve(a: int, exponent: int | str, m: int) -> tuple[ReductionChain, int, int]:
    """``(chain, reduced_exponent, residue)`` for ``a**exponent mod |m|``.

    The residue lies in ``[0, |m|)`` and equals ``a**reduced_exponent``
    mod ``|m|``.  It agrees with naive modular exponentiation on all inputs,
    but the work is bounded by ``|m|`` and the exponent's digit count, so
    an exponent given as a decimal string of millions of digits is fine.

    A string exponent is checked before the chain is built, so a malformed
    one fails before ``m_s`` is factored.  When ``m_s`` has a part past the
    trial primes of at least psi_13, the fold is certified first (module
    docstring): if ``a**phi_ms`` is not 1 modulo that part,
    :class:`CertificateError` is raised.
    """
    if isinstance(exponent, str):
        exponent = _checked_exponent(exponent)
    chain = build_chain(a, m)
    reduced = reduce_exponent(chain, exponent)
    if chain.m_s >= _PSI_13:
        u = _past_trial_primes(chain.m_s)
        if u >= _PSI_13 and pow(a, chain.phi_ms, u) != 1:
            raise CertificateError(f"fold certificate failed: a^phi(m_s) mod m_s != 1 for "
                                   f"m_s = {chain.m_s}, so phi(m_s) = {chain.phi_ms} is wrong")
    return chain, reduced, mod_pow(a, reduced, chain.m_norm)


def reduced_pow(a: int, exponent: int | str, m: int) -> int:
    """``a**exponent mod |m|`` in ``[0, |m|)``: the residue of :func:`solve`."""
    return solve(a, exponent, m)[2]
