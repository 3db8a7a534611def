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

#: Extra Miller-Rabin rounds for inputs beyond the deterministic witness
#: table; error probability at most 4**-MILLER_RABIN_ROUNDS per call.
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

# Deterministic witness sets for odd n below each bound; the last row covers
# everything past 2**64 up to ~3.3e24 (miller-rabin.appspot.com tables).
_MR_WITNESS_TABLE: tuple[tuple[int, tuple[int, ...]], ...] = (
    (341531, (9345883071009581737,)),
    (1050535501, (336781006125, 9639812373923155)),
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851,
     (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977,
     (2, 123635709730000, 9233062284813009, 43835965440333360, 761179012939631437,
      1263739024124850375)),
    (18446744073709551616, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


@dataclass(frozen=True, slots=True)
class Factorization:
    """Prime factorization ``n == prod(p**e)``, primes strictly increasing.

    ``factors`` is empty exactly when ``n == 1``.
    """

    n: int
    factors: tuple[tuple[int, int], ...]


def _is_composite_witness(a: int, d: int, r: int, n: int) -> bool:
    """True if base ``a`` proves odd ``n`` composite (``n - 1 == d * 2**r``)."""
    a %= n
    if a < 2 or a == n - 1:
        return False
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

    Larger inputs get the strongest witness set plus MILLER_RABIN_ROUNDS
    pseudo-random bases seeded from n, so repeated calls agree.
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
    for bound, bases in _MR_WITNESS_TABLE:
        if n < bound:
            break
    else:
        rng = random.Random(n)
        bases = _MR_WITNESS_TABLE[-1][1] + tuple(
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
    """Prime factors of n, which must have no factor below the trial bound."""
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
    """Euler's totient of ``n >= 1``: ``n * prod(1 - 1/p)`` over primes p | n."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    for p, _ in factorize(n).factors:
        result = result // p * (p - 1)
    return result


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
