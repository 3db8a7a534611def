"""Exact integer primitives: primality, factorization, totient, powmod.

Everything operates on arbitrary-precision ints, is pure and deterministic,
and never touches floating point.  ``is_prime`` is a proof below psi_13 and
Baillie-PSW past it.  ``factorize`` divides out the primes below
``_TRIAL_BOUND`` and splits each composite cofactor past them.  Past the
trial bound both run in the engine module ``_large``, imported by the first
number trial division does not decide.  ``totient`` keeps its 512 most
recent values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, count
from typing import NamedTuple

__all__ = [
    "Factorization",
    "factorize",
    "is_prime",
    "mod_pow",
    "totient",
]

def _sieve(limit: int) -> bytearray:
    """One flag per ``i < limit``: 1 when i is prime, else 0."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return flags


#: Trial division peels off the primes below this bound before a cofactor is
#: split, and one gcd with their product finds the ones that divide n.
_TRIAL_BOUND = 1009
_TRIAL_PRIMES = tuple(compress(count(), _sieve(_TRIAL_BOUND)))
_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)
_PRIMORIAL = math.prod(_TRIAL_PRIMES)
#: is_prime is a proof below this bound and BPSW from it on, where no
#: counterexample is known but none is proven impossible.
_PSI_13 = 3317044064679887385961981

#: Builds a record from its fields in order, as ``tuple.__new__(Cls, fields)``,
#: without the Python-level ``__new__`` that ``typing.NamedTuple`` generates,
#: which costs about twice as much.  The instance is the same as ``Cls(*fields)``.
_new_record = tuple.__new__


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
    from ._large import _is_prime
    return _is_prime(n)


def factorize(n: int) -> Factorization:
    """Factor ``n >= 1``: trial division, then one loop over the cofactors.

    Trial division by the primes below ``_TRIAL_BOUND`` stops once none
    divides ``n`` or at the first ``p * p > n``, which leaves ``n`` prime.
    Once ``p * p`` exceeds the product of the trial primes left to divide
    out, that product is one prime, so it is taken next.  The loop splits
    each cofactor ``is_prime`` does not prove with ``_large._split``, and
    divides each one it proves out of the pending cofactors to its full power.
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
            from ._large import _split
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
    return _new_record(Factorization, (original, tuple(sorted(exponents.items()))))


@lru_cache(maxsize=512)
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
