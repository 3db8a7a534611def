"""Exact integer primitives: primality, factorization, totient, powmod.

Everything operates on arbitrary-precision ints, is pure and deterministic,
and never touches floating point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

__all__ = [
    "Factorization",
    "MILLER_RABIN_ROUNDS",
    "factorize",
    "is_prime",
    "mod_pow",
    "totient",
]

#: Extra Miller-Rabin rounds for inputs beyond the last psi_k bound; error
#: probability at most 4**-MILLER_RABIN_ROUNDS per call.
MILLER_RABIN_ROUNDS = 24


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


#: Trial division peels these off before the rho splitter sees a cofactor.
_TRIAL_PRIMES = _sieve(1000)

#: (psi_k, k): psi_k (OEIS A014233; Jaeschke 1993, Sorenson-Webster 2017) is the
#: least strong pseudoprime to all of the first k primes, which therefore decide
#: every odd n < psi_k.  Rows k = 1, 8, 10, 11 would add nothing: psi_1 < 101**2
#: is left to the trial screen, psi_8 == psi_7 and psi_11 == psi_10 == psi_9.
_PSI_BOUNDS = (
    (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12), (3317044064679887385961981, 13),
)


@dataclass(frozen=True, slots=True)
class Factorization:
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


def is_prime(n: int) -> bool:
    """Primality test, deterministic for all n below ~3.3e24.

    Below ``psi_k`` the bases are the first k primes; past ``psi_13`` they gain
    MILLER_RABIN_ROUNDS pseudo-random ones seeded from n, so calls agree.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES[:25]:  # primes below 100
        if n % p == 0:
            return n == p
    if n < 10201:  # 101**2: nothing below 100 divides n
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, k in _PSI_BOUNDS:
        if n < bound:
            bases = _TRIAL_PRIMES[:k]
            break
    else:
        rng = random.Random(n)
        bases = _TRIAL_PRIMES[:13] + tuple(
            rng.randrange(2, n - 1) for _ in range(MILLER_RABIN_ROUNDS)
        )
    return not any(_is_composite_witness(a, d, r, n) for a in bases)


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
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError("unreachable")


def _split(n: int) -> list[int]:
    """Prime factors of n, the cofactor left when trial division stops.

    Trial division stops at the first prime ``p`` with ``p * p > n``, leaving
    ``n`` prime (``factorize(4 * 293)`` passes 293), or after the last trial
    prime, leaving ``n`` with no factor below the trial bound.
    """
    if is_prime(n):
        return [n]
    d = _pollard_brent(n)
    return _split(d) + _split(n // d)


def factorize(n: int) -> Factorization:
    """Factor ``n >= 1``: trial division below 1000, then rho splitting."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    original = n
    exponents: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            n //= p
    if n > 1:
        for q in _split(n):
            exponents[q] = exponents.get(q, 0) + 1
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
