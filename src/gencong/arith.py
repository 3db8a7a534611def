"""Exact integer primitives: primality, factorization, totient, powmod.

Everything operates on arbitrary-precision ints, is pure and deterministic,
and never touches floating point.  ``is_prime`` is a proof below psi_13 and
Baillie-PSW past it: a strong base-2 test and an extra strong Lucas test.
``factorize`` splits a composite past trial division by the first gcd
strictly between 1 and n of a fixed order of attempts (``_split``):
Pollard's P-1 method, stage 1 to its own bound ``_PM1_B1`` and a stage 2
that pairs ``kD - j`` with ``kD + j`` up to ``_PM1_B2``; the exact integer
roots of a perfect power; and Lenstra's elliptic-curve method (ECM) on
Montgomery curves, one curve at a time, with a fixed schedule of bounds.
P-1's plan and each ECM level's come from one builder, ``_plan(B1, B2, D)``,
on first use and are kept; their stage-2 rows take one byte per ``kD ± j``.
``totient`` keeps its 512 most recent values.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, compress, count
from operator import itemgetter
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
#: P-1's stage 1 finds a prime p when every prime power dividing p - 1 is below
#: _PM1_B1.  Stage 2 allows one more prime factor of p - 1, from _PM1_B1 up to
#: _PM1_B2, in giant steps of _PM1_D = 2*3*5*7 (24 j < _PM1_D / 2 are coprime to it).
_PM1_B1 = 600
_PM1_B2 = 15000
_PM1_D = 210
#: ECM's curve c runs at level L = c // _ECM_CURVES, with stage 1 bound
#: B1 = _ECM_B1 * 2**L, stage 2 bound _ECM_B2 * B1, and giant step _ECM_D[L]
#: (the last entry from level 5 on).
_ECM_B1 = 60
_ECM_B2 = 60
_ECM_CURVES = 8
_ECM_D = (90, 90, 210, 210, 210, 2310)

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


@lru_cache(maxsize=None)
def _plan(b1: int, b2: int, d: int) -> tuple[int, tuple[int, ...], tuple[int, ...], int, tuple[bytes, ...]]:
    """Stage 1's exponent and prime powers, and stage 2's offsets, ``k0`` and rows.

    P-1 and every ECM level take their plan from here, each on first use.
    Stage 1's prime powers are each prime's largest power below b1, increasing,
    and the exponent is their product ``lcm(1 .. b1 - 1)``.  Stage 2's offsets
    are the ``0 < j < d / 2`` coprime to d, increasing (240 for d = 2310).
    With b1 past d's primes, each prime q in ``[b1, b2]`` is ``k * d ± j``
    for exactly one k and offset j.  Row i holds, one byte each and
    increasing, the positions of the j with a prime ``(k0 + i) * d ± j``, read
    off the sieve's flags within ``d / 2`` of ``(k0 + i) * d``.  ``k0`` is the
    least k with a q, so no giant step before the first row is taken.
    """
    h = d // 2
    flags = _sieve(b2 + h + 1)
    powers = []
    for p in compress(range(b1), flags):
        q = p
        while q * p < b1:
            q *= p
        powers.append(q)
    babies = tuple(j for j in range(1, h, 2) if math.gcd(j, d) == 1)
    at_babies = itemgetter(*babies)
    flags[:b1], flags[b2 + 1 :] = bytes(b1), bytes(h)
    k0, rows = (flags.index(1) + h) // d, []
    for c in range(k0 * d, flags.rindex(1) + h + 1, d):
        below, above = flags[c - h + 1 : c + 1], flags[c : c + h]  # flag j is c - j, c + j
        either = int.from_bytes(below, "big") | int.from_bytes(above, "little")
        rows.append(bytes(compress(count(), at_babies(either.to_bytes(h, "little")))))
    return math.prod(powers), tuple(powers), babies, k0, tuple(rows)


def _stage_2(n: int, rows: tuple[bytes, ...], giants: list[int], baby: list[int]) -> int:
    """The first gcd above 1 of ``prod(giants[i] - baby[j])`` over ``j in rows[i]``, else 1.

    ``baby[j]`` is for the plan's j-th baby offset.  The gcd with n is taken
    after each row, so the gcd returned may be n itself.
    """
    acc = 1
    for row, w in zip(rows, giants):
        for j in row:
            acc = acc * (w - baby[j]) % n
        if (g := math.gcd(acc, n)) != 1:
            return g
    return 1


def _x_add(X1: int, Z1: int, X2: int, Z2: int, Xd: int, Zd: int, n: int) -> tuple[int, int]:
    """``P1 + P2`` in x-only ``(X:Z)`` form on a Montgomery curve, given ``P1 - P2 = (Xd:Zd)``."""
    u, v = (X1 - Z1) * (X2 + Z2), (X1 + Z1) * (X2 - Z2)
    return Zd * (u + v) ** 2 % n, Xd * (u - v) ** 2 % n


def _x_double(X: int, Z: int, a24: int, n: int) -> tuple[int, int]:
    """``2P`` in x-only ``(X:Z)`` form on the Montgomery curve with ``(A + 2) / 4 == a24``."""
    s, t = (X + Z) ** 2, (X - Z) ** 2
    return s * t % n, (s - t) * (t + a24 * (s - t)) % n


def _ladder(k: int, X: int, Z: int, a24: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """``([k]P, [k+1]P)`` for ``P = (X:Z)`` and ``k >= 1``, by Montgomery's ladder over k's bits.

    ``(R0, R1)`` starts at ``(P, 2P)``, keeps ``R1 - R0 == P``, and a bit takes
    it to ``(2R0, R0 + R1)`` by ``_x_double`` and ``_x_add`` written out, with
    the pair swapped before and after a 1 bit, which gives ``(R0 + R1, 2R1)``.
    """
    X0, Z0, (X1, Z1) = X, Z, _x_double(X, Z, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            X0, Z0, X1, Z1 = X1, Z1, X0, Z0
        s0, d0, s1, d1 = X0 + Z0, X0 - Z0, X1 + Z1, X1 - Z1
        u, v = d0 * s1, s0 * d1
        X1, Z1 = Z * (u + v) ** 2 % n, X * (u - v) ** 2 % n
        s, t = s0 * s0, d0 * d0
        X0, Z0 = s * t % n, (s - t) * (t + a24 * (s - t)) % n
        if bit == "1":
            X0, Z0, X1, Z1 = X1, Z1, X0, Z0
    return (X0, Z0), (X1, Z1)


def _progression(P0: tuple[int, int], P1: tuple[int, int], S: tuple[int, int],
                 count: int, n: int) -> list[tuple[int, int]]:
    """The first ``count`` of ``P0, P1, P1 + S, P1 + 2S, ...``, given ``P1 - P0 == S``.

    Each point is the last plus S by differential addition, the one before the difference.
    """
    (X0, Z0), (X1, Z1), (XS, ZS) = P0, P1, S
    sS, dS = XS + ZS, XS - ZS
    points = [P0, P1]
    for _ in range(count - 2):  # _x_add written out: as calls, ECM took 6% longer
        e, f = (X1 - Z1) * sS, (X1 + Z1) * dS
        X0, Z0, X1, Z1 = X1, Z1, Z0 * (e + f) ** 2 % n, X0 * (e - f) ** 2 % n
        points.append((X1, Z1))
    return points[:count]


def _ecm_curve(n: int, sigma: int) -> int:
    """The gcd with n that ECM curve ``sigma`` finds; 1 or n itself splits nothing.

    The curve is Montgomery's ``B y**2 = x**3 + A x**2 + x`` (Math. Comp. 48,
    1987) in Suyama's parametrization, whose group order mod p is a multiple
    of 12: with ``u = sigma**2 - 5`` and ``v = 4 sigma``, the point is
    ``(u**3 : v**3)`` and ``(A + 2) / 4 = (v - u)**3 (3u + v) / (16 u**3 v)``.
    The curve's level, ``(sigma - 6) // _ECM_CURVES``, sets the bounds of its
    ``_plan``.  Stage 1 takes each prime power q of the plan by a ladder over
    ``q // 2`` and one ``_x_add`` (odd q) or ``_x_double`` (even q), and
    ``gcd(Z, n)`` after each.  Stage 2 lists the baby steps ``Q, 3Q, 5Q, ...``
    and the giant steps ``kDQ`` from the plan's k0 on as two ``_progression``s,
    turns their x-coordinates into ``X / Z`` with one inversion (Montgomery's
    trick), and hands them to
    ``_stage_2``: ``x(kDQ) - x(jQ)`` is 0 mod p exactly when the order of Q
    mod p divides ``kD - j`` or ``kD + j``.
    """
    level = (sigma - 6) // _ECM_CURVES
    b1, d = _ECM_B1 << level, _ECM_D[min(level, len(_ECM_D) - 1)]
    _, powers, babies, k0, rows = _plan(b1, _ECM_B2 * b1, d)
    u, v = sigma * sigma - 5, 4 * sigma
    if (g := math.gcd(den := 16 * u**3 * v, n)) != 1:
        return g
    a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
    X, Z = u**3 % n, v**3 % n
    for q in powers:
        (X0, Z0), (X1, Z1) = _ladder(q >> 1, X, Z, a24, n)
        X, Z = _x_add(X1, Z1, X0, Z0, X, Z, n) if q & 1 else _x_double(X0, Z0, a24, n)
        if (g := math.gcd(Z, n)) != 1:
            return g
    Q2 = _x_double(X, Z, a24, n)
    baby = _progression((X, Z), _x_add(*Q2, X, Z, X, Z, n), Q2, d // 4 + 1, n)  # (2i + 1)Q at i
    QD = _x_double(*baby[-1], a24, n)  # D / 2 is odd, so DQ = 2 (D/2)Q
    giants = _progression(*_ladder(k0, *QD, a24, n), QD, len(rows), n)
    xs, zs = map(list, zip(*[baby[j // 2] for j in babies], *giants))
    prods = [1, *accumulate(zs, lambda a, b: a * b % n)]  # prods[i] = prod(zs[:i]) mod n
    if (g := math.gcd(prods[-1], n)) != 1:
        return g
    inv = pow(prods[-1], -1, n)  # 1 / prods[i + 1], then 1 / prods[i] = zs[i] / prods[i + 1]
    for i in range(len(zs) - 1, -1, -1):
        xs[i] = xs[i] * inv * prods[i] % n
        inv = inv * zs[i] % n
    return _stage_2(n, rows, xs[len(babies):], xs)  # xs[i] is x(jQ) for the i-th offset j


def _iroot(n: int, k: int) -> int:
    """``floor(n ** (1/k))`` for ``n >= 1`` in integers: ``math.isqrt``, else Newton's method."""
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # above the root; Newton's steps fall to it
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _gcds(n: int) -> Iterator[int]:
    """The gcds with n that ``_split`` tries, in its order; any may be 1 or n.

    P-1's stage 1 (Pollard 1974) is ``gcd(x - 1, n)`` with ``x = 2**E mod n``
    and E the exponent of P-1's ``_plan``, a multiple of every prime
    ``p | n`` whose ``p - 1`` divides E.  Stage 2 (Montgomery 1987), taken
    when that gcd is 1, goes on from x with ``V_i = x**i + x**-i`` and
    ``D = _PM1_D``: baby steps ``V_j`` for odd ``j < D / 2``, giant steps
    ``W_k = V_kD`` by ``W_(k+1) = W_k * V_D - W_(k-1)`` from the plan's
    ``k0`` on, and for each j of row k ``_stage_2`` takes
    ``W_k - V_j == x**-kD * (x**(kD-j) - 1) * (x**(kD+j) - 1)``.  So one
    multiplication covers both ``kD ± j``, and stage 2 finds a p whose
    ``p - 1`` is a divisor of E times one prime from ``_PM1_B1`` up to
    ``_PM1_B2``.  A root attempt gives n's exact k-th root, or 1 if there is
    none, for each prime k with ``1009**k <= n`` (n's primes are past the
    trial bound).  The ECM curves ``sigma = 6, 7, 8, ...`` follow without end.
    """
    exponent, _, babies, k0, rows = _plan(_PM1_B1, _PM1_B2, _PM1_D)
    x = pow(2, exponent, n)
    yield (g := math.gcd(x - 1, n))
    if g == 1:
        v1 = (x + pow(x, -1, n)) % n
        v2 = (v1 * v1 - 2) % n
        baby, before, v = [0] * (_PM1_D // 2 + 1), v1, v1
        for j in range(1, _PM1_D // 2 + 1, 2):  # V_(j+2) = V_j * V_2 - V_(j-2), V_-1 = V_1
            baby[j], before, v = v, v, (v * v2 - before) % n
        giant = (before * before - 2) % n  # V_D = V_(D/2)**2 - 2
        before, w, giants = giant, 2, []  # W_-1 = V_-D = V_D and W_0 = 2
        for _ in range(k0 + len(rows)):  # the rows need W_k from k0 on
            giants.append(w)
            before, w = w, (w * giant - before) % n
        yield _stage_2(n, rows, giants[k0:], [baby[j] for j in babies])
    for k in _TRIAL_PRIMES:
        if _TRIAL_BOUND**k > n:
            break
        yield r if (r := _iroot(n, k)) ** k == n else 1
    for sigma in count(6):
        yield _ecm_curve(n, sigma)


def _split(n: int) -> int:
    """Nontrivial factor of an odd composite n: the first gcd of ``_gcds`` in ``(1, n)``.

    The order is P-1 stage 1, P-1 stage 2 when stage 1's gcd is 1, the exact
    roots, then ECM (Lenstra, Ann. Math. 126, 1987) one curve at a time.  A
    gcd of n found every prime of n at once, as P-1 does for the square of a
    base-2 Wieferich prime, and goes on to the next attempt as a gcd of 1
    does.  Modulo a prime power nearly every curve's gcd is n, which is why
    the roots come before ECM.
    """
    return next(g for g in _gcds(n) if 1 < g < n)


def factorize(n: int) -> Factorization:
    """Factor ``n >= 1``: trial division, then one loop over the cofactors.

    Trial division by the primes below ``_TRIAL_BOUND`` stops once none
    divides ``n`` or at the first ``p * p > n``, which leaves ``n`` prime.
    Once ``p * p`` exceeds the product of the trial primes left to divide
    out, that product is one prime, so it is taken next.  The loop splits
    each cofactor ``is_prime`` does not prove with ``_split``, and divides
    each one it proves out of the pending cofactors to its full power.
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
