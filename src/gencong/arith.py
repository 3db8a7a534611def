"""Exact integer primitives: primality, factorization, totient, powmod.

Everything operates on arbitrary-precision ints, is pure and deterministic,
and never touches floating point.  ``is_prime`` is a proof below psi_13 and
Baillie-PSW past it: a strong base-2 test and an extra strong Lucas test.
``factorize`` splits a composite past trial division by Pollard's P-1
method, stage 1 to its own bound ``_PM1_B1`` and a stage 2 that pairs
``kD - j`` with ``kD + j`` up to ``_PM1_B2``, both planned by ``_pm1_plan()``
on the first split.  When a P-1 gcd is n itself, the step that found it is
redone one prime power or one multiplication at a time, and Pollard-Brent
rho runs only when a single one of those finds every prime of n, or when
neither stage finds one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count
from typing import NamedTuple

__all__ = [
    "Factorization",
    "factorize",
    "is_prime",
    "mod_pow",
    "totient",
]

def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


#: Trial division peels off the primes below this bound before a cofactor is
#: split, and one gcd with their product finds the ones that divide n.
_TRIAL_BOUND = 1009
_TRIAL_PRIMES = _sieve(_TRIAL_BOUND)
_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)
_PRIMORIAL = math.prod(_TRIAL_PRIMES)
#: P-1's stage 1 finds a prime p when every prime power dividing p - 1 is below
#: _PM1_B1.  Stage 2 allows one more prime factor of p - 1, from _PM1_B1 up to
#: _PM1_B2, in giant steps of _PM1_D = 2*3*5*7 (24 j < _PM1_D / 2 are coprime to it).
_PM1_B1 = 600
_PM1_B2 = 15000
_PM1_D = 210

#: is_prime is a proof below this bound and BPSW from it on, where no
#: counterexample is known but none is proven impossible.
_PSI_13 = 3317044064679887385961981

#: (psi_k, k): psi_k (OEIS A014233; Jaeschke 1993, Sorenson-Webster 2017) is the
#: least strong pseudoprime to all of the first k primes, which therefore decide
#: every odd n < psi_k.  Rows k = 1, 8, 10, 11 would add nothing: the trial
#: screen decides psi_1 < _TRIAL_BOUND**2, psi_8 == psi_7, psi_11 == psi_9.
_PSI_BOUNDS = (
    (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12), (_PSI_13, 13),
)


class Factorization(NamedTuple):
    """Prime factorization ``n == prod(p**e)``, primes strictly increasing.

    ``factors`` is empty exactly when ``n == 1``.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def phi(self) -> int:
        """Euler's totient of ``n``: ``n * prod(1 - 1/p)`` over its primes."""
        result = self.n
        for p, _ in self.factors:
            result = result // p * (p - 1)
        return result


def _is_composite_witness(a: int, d: int, r: int, n: int) -> bool:
    """True if base ``1 < a < n - 1`` proves odd ``n`` composite (``n - 1 == d * 2**r``)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``: 0 exactly when ``gcd(a, n) > 1``."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_extra_strong_lucas_prp(n: int) -> bool:
    """Extra strong Lucas probable-prime test of odd ``n > 2`` (Grantham 2001).

    ``P`` is the first of 3, 4, 5, ... with Jacobi symbol ``((P*P - 4)/n) == -1``
    and ``Q = 1``, so only ``V`` is needed.  With ``n + 1 == d * 2**r``, ``n``
    passes when ``V_d == ±2`` and ``U_d == 0``, or when some
    ``V_(d * 2**j) == 0``, ``j <= r - 2`` (all mod n).  A perfect square has no
    such ``P``, so it is rejected first.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    P = 3
    while (symbol := _jacobi(P * P - 4, n)) != -1:
        if symbol == 0 and (P * P - 4) % n:  # 1 < gcd(P*P - 4, n) < n
            return False
        P += 1
    d, r = n + 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # ladder over d's bits from the top: (V_k, V_(k+1)), k = 0, to 2k or 2k + 1
    V, W = 2, P
    for bit in bin(d)[2:]:
        if bit == "1":
            V, W = (V * W - P) % n, (W * W - 2) % n
        else:
            V, W = (V * V - 2) % n, (V * W - P) % n
    # (P*P - 4) * U_d == 2 * V_(d+1) - P * V_d, and P*P - 4 is a unit mod n
    if V in (2, n - 2) and (2 * W - P * V) % n == 0:
        return True
    for _ in range(r - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def is_prime(n: int) -> bool:
    """Primality test: a proof below ``psi_13 ~ 3.3e24``, Baillie-PSW past it.

    One gcd with the product of the trial primes decides every
    ``n < _TRIAL_BOUND**2``.  Above that, below ``psi_k`` Miller-Rabin with
    the first k primes as bases decides n.  From ``psi_13`` on, n must pass a
    strong base-2 test and an extra strong Lucas test (Baillie-Wagstaff 1980,
    Grantham 2001): no composite is known to pass both, but none is proven
    not to, which is why ``reduction.solve`` certifies its fold past this
    bound.
    """
    if n < 2:
        return False
    if math.gcd(n, _PRIMORIAL) != 1:
        return n in _TRIAL_PRIME_SET
    if n < _TRIAL_BOUND**2:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, k in _PSI_BOUNDS:
        if n < bound:
            return not any(_is_composite_witness(a, d, r, n) for a in _TRIAL_PRIMES[:k])
    return not _is_composite_witness(2, d, r, n) and _is_extra_strong_lucas_prp(n)


def _pollard_brent(n: int) -> int:
    """Nontrivial factor of an odd composite n via Brent's cycle variant.

    Deterministic: the polynomial constant c is retried in order 1, 2, ...
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise AssertionError("unreachable")


@lru_cache(maxsize=None)
def _pm1_plan() -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """P-1's stage 1 exponent and prime powers and stage 2's rows, built on first use.

    The prime powers are each prime's largest power below ``_PM1_B1``, and
    the exponent, 857 bits, is their product ``lcm(1 .. _PM1_B1 - 1)``.  Row
    k holds each j for which ``k * _PM1_D - j`` or ``k * _PM1_D + j`` is a
    prime in ``[_PM1_B1, _PM1_B2]``: every such prime q is ``k * _PM1_D ± j``
    for exactly one k and one ``0 < j < _PM1_D / 2`` coprime to ``_PM1_D``.
    """
    primes = _sieve(_PM1_B2 + 1)
    powers = []
    for p in primes:
        if p >= _PM1_B1:
            break
        q = p
        while q * p < _PM1_B1:
            q *= p
        powers.append(q)
    rows: list[set[int]] = [set() for _ in range((_PM1_B2 + _PM1_D // 2) // _PM1_D + 1)]
    for q in primes[len(powers):]:
        k = (q + _PM1_D // 2) // _PM1_D
        rows[k].add(abs(q - k * _PM1_D))
    return math.prod(powers), tuple(powers), tuple(tuple(sorted(row)) for row in rows)


def _split(n: int) -> int:
    """Nontrivial factor of an odd composite n: Pollard P-1 stages 1 and 2, else rho.

    Stage 1 (Pollard 1974) takes ``gcd(x - 1, n)`` with ``x = 2**E mod n``
    and E the plan's exponent, a multiple of every prime ``p | n`` whose
    ``p - 1`` divides E.  When that gcd is 1, stage 2 (Montgomery 1987) goes
    on from x with ``V_i = x**i + x**-i`` and ``D = _PM1_D``: baby steps
    ``V_j`` for odd ``j < D / 2``, giant steps ``W_k = V_kD`` by
    ``W_(k+1) = W_k * V_D - W_(k-1)``, and for each j of row k the
    accumulator takes ``W_k - V_j == x**-kD * (x**(kD-j) - 1) * (x**(kD+j) - 1)``.
    So one multiplication covers both ``kD ± j``, and stage 2 finds a p
    whose ``p - 1`` is a divisor of E times one prime from ``_PM1_B1`` up to
    ``_PM1_B2``.  Its gcd is taken after each giant step, up to the first
    one above 1.  When a gcd is n itself, the step is redone from where it
    started with a gcd after each prime power of stage 1 or each
    multiplication of the row, up to the first gcd above 1.  When that is
    still n (every prime of n found at once, as for the square of a base-2
    Wieferich prime), or stage 2 finds nothing, Brent's rho splits n instead.
    """
    exponent, powers, rows = _pm1_plan()
    x = pow(2, exponent, n)
    g = math.gcd(x - 1, n)
    if g == n:
        x = 2
        for q in powers:
            x = pow(x, q, n)
            if (g := math.gcd(x - 1, n)) != 1:
                break
    elif g == 1:
        v1 = (x + pow(x, -1, n)) % n
        v2 = (v1 * v1 - 2) % n
        baby, before, v = [0] * (_PM1_D // 2 + 1), v1, v1
        for j in range(1, _PM1_D // 2 + 1, 2):  # V_(j+2) = V_j * V_2 - V_(j-2), V_-1 = V_1
            baby[j], before, v = v, v, (v * v2 - before) % n
        giant = (before * before - 2) % n  # V_D = V_(D/2)**2 - 2
        before, w, acc = giant, 2, 1  # W_-1 = V_-D = V_D and W_0 = 2
        for row in rows:
            start = acc
            for j in row:
                acc = acc * (w - baby[j]) % n
            g = math.gcd(acc, n)
            if g == n:
                for j in row:
                    start = start * (w - baby[j]) % n
                    if (g := math.gcd(start, n)) != 1:
                        break
            if g != 1:
                break
            before, w = w, (w * giant - before) % n
    return g if 1 < g < n else _pollard_brent(n)


def factorize(n: int) -> Factorization:
    """Factor ``n >= 1``: trial division, then one loop over the cofactors.

    Trial division by the primes below ``_TRIAL_BOUND`` stops once none
    divides ``n`` or at the first ``p * p > n``, which leaves ``n`` prime.
    Once ``p * p`` exceeds the product of the trial primes left to divide
    out, that product is one prime, so it is taken next.  The loop splits
    each cofactor ``is_prime`` does not prove, by Pollard P-1's two stages
    and, when they find nothing, by rho (``_split``), and divides each one it
    proves out of the pending cofactors to its full power.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    original = n
    exponents: dict[int, int] = {}
    small = math.gcd(n, _PRIMORIAL)  # the trial primes that divide n
    for p in _TRIAL_PRIMES:
        if small == 1 or p * p > n:
            break
        if p * p > small:  # small is a product of trial primes >= p, so one prime
            p = small
        if small % p == 0:
            small //= p
            while n % p == 0:
                exponents[p] = exponents.get(p, 0) + 1
                n //= p
    pending = [n] if n > 1 else []
    while pending:
        q = pending.pop()
        if not is_prime(q):
            d = _split(q)
            pending += q // d, d  # the split's factor is popped, and so tested, before its cofactor
            continue
        rest, k = [], 1  # q is past the trial primes: divide it out to its full power
        for r in pending:
            while r % q == 0:
                r //= q
                k += 1
            if r > 1:
                rest.append(r)
        exponents[q], pending = k, rest
    return Factorization(original, tuple(sorted(exponents.items())))


@lru_cache(maxsize=4096)
def totient(n: int) -> int:
    """Euler's totient of ``n >= 1``, cached: ``factorize(n).phi``."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    return factorize(n).phi


def mod_pow(base: int, exp: int, m: int) -> int:
    """``base**exp mod m`` in ``[0, m)`` by builtin ``pow``; ``0**0 == 1``.

    The modulus must be positive: congruence mod 0 is the equality relation
    and is deliberately unsupported.
    """
    if m < 1:
        raise ValueError("mod_pow requires a positive modulus")
    if exp < 0:
        raise ValueError("mod_pow requires a non-negative exponent")
    return pow(base, exp, m)
