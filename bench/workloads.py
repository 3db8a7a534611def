"""Seeded workload generators with independently computed expected results.

Each generator turns a seed into the exact argv and stdin bytes one pass
feeds the CLI, plus what the output must be.  Expected residues come from
builtin ``pow(a, N, |m|)`` and this module's own prime generation; nothing
here imports gencong, so the check cannot share a defect with the program.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@dataclass(frozen=True)
class Workload:
    """One generated workload: what a pass feeds the CLI and what it must print.

    ``expected`` holds ``(a, |m|, residue)`` per stdin line for ``pow``
    workloads and is empty for ``verify``, whose check is the pair count
    ``records``.  ``layers`` names the traced seams that must record calls.
    """

    name: str
    argv: tuple[str, ...]
    stdin: bytes
    records: int
    expected: tuple[tuple[int, int, int], ...]
    layers: frozenset[str]


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    """Miller-Rabin with the first 13 prime bases (exact below 3.3e24) plus 16 random ones."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _SMALL_PRIMES + tuple(rng.randrange(2, n - 1) for _ in range(16 if n.bit_length() > 81 else 0))
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(n, rng):
            return n


def _signed(rng: random.Random, n: int) -> int:
    return -n if rng.random() < 0.5 else n


def _pow_workload(name, rows, layers) -> Workload:
    """Build a ``pow`` batch workload from ``(a, N_decimal, m)`` rows."""
    stdin = "".join(f"{a} {n_text} {m}\n" for a, n_text, m in rows).encode()
    expected = tuple((a, abs(m), pow(a, int(n_text), abs(m))) for a, n_text, m in rows)
    return Workload(name, ("pow",), stdin, len(rows), expected, frozenset(layers))


_POW_LAYERS = ("cli.parse", "reduction.build_chain", "reduction.reduce_exponent",
               "arith.totient", "arith.factorize", "arith.is_prime", "arith.mod_pow")

#: Decimal digits of every bigexp exponent: large enough that parsing dominates.
BIGEXP_DIGITS = 100_000
BIGEXP_LINES = 12


def bigexp(seed: int) -> Workload:
    """12 lines, each a 100,000-digit N and a base sharing a prime power with m.

    ``m = p**e * q * w`` with ``q`` a prime above the trial-division bound,
    so every line also reaches ``is_prime``.
    """
    rng = random.Random(f"bigexp:{seed}")
    rows = []
    for _ in range(BIGEXP_LINES):
        p = rng.choice((2, 3, 5, 7))
        m = p ** rng.randint(1, 4) * _random_prime(rng, rng.randint(11, 13)) * rng.randint(1, 30)
        a = p ** rng.randint(1, 3) * rng.randint(1, 10**6)
        n_text = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=BIGEXP_DIGITS - 1))
        rows.append((_signed(rng, a), n_text, _signed(rng, m)))
    return _pow_workload("bigexp", rows, _POW_LAYERS)


BATCH_LINES = 20_000


def _smallest_prime_factor(n: int) -> int:
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n


def batch_mixed(seed: int) -> Workload:
    """20,000 lines with distinct moduli ``|m| < 10**6`` of either sign.

    About half of the bases carry a power of a prime dividing a composite
    ``m`` (chain depth ``s >= 1``); 2% of exponents are below 3 so ``N < s``
    occurs; ``m = 1`` and ``m = -1`` are both present.  The distinct moduli
    outnumber the 4096-entry totient cache, so it almost always misses.
    """
    rng = random.Random(f"batch-mixed:{seed}")
    moduli = [1, -1] + [_signed(rng, m) for m in rng.sample(range(2, 10**6), BATCH_LINES - 2)]
    rng.shuffle(moduli)
    rows = []
    for m in moduli:
        a = rng.randint(1, 10**12)
        spf = _smallest_prime_factor(abs(m))
        if spf < abs(m) and rng.random() < 0.5:
            a = spf ** rng.randint(1, 4) * rng.randint(1, 10**6)
        if rng.random() < 0.02:
            n = rng.randint(0, 2)
        else:
            bits = rng.randint(64, 256)
            n = rng.getrandbits(bits) | (1 << (bits - 1))
        rows.append((_signed(rng, a), str(n), m))
    return _pow_workload("batch-mixed", rows, _POW_LAYERS)


VERIFY_A_WIDTH = 301
VERIFY_M_HI = 300


def verify_sweep(seed: int) -> Workload:
    """``verify`` over 301 consecutive bases (start drawn from the seed) and m = 1..300."""
    rng = random.Random(f"verify-sweep:{seed}")
    lo = rng.randint(-250, -50)
    argv = ("verify", "--a", f"{lo}..{lo + VERIFY_A_WIDTH - 1}", "--m", f"1..{VERIFY_M_HI}")
    layers = ("cli.parse", "reduction.build_chain", "reduction.verify_theorem",
              "arith.totient", "arith.factorize", "arith.is_prime", "arith.mod_pow")
    return Workload("verify-sweep", argv, b"", VERIFY_A_WIDTH * VERIFY_M_HI, (),
                    frozenset(layers))


FACTOR_LINES = 480


def factor_hard(seed: int) -> Workload:
    """480 lines whose ``m_s`` has no factor below the trial-division bound.

    Seven lines in eight have ``m_s = p * q`` with ``p`` of 22 or 23 bits
    (alternating with the line, so each seed gets the same mix) and ``q`` of
    28-34 bits; Pollard-Brent's cost follows the smaller prime, and many
    small ``p`` keep the seed-to-seed spread of the total cost near 3%.
    Every eighth line has one ~100-bit prime ``m_s``, past the deterministic
    Miller-Rabin table.  Each ``m`` also carries a small prime power shared
    with ``a``.
    """
    rng = random.Random(f"factor-hard:{seed}")
    rows = []
    for i in range(FACTOR_LINES):
        p = rng.choice((2, 3, 5, 7))
        if i % 8 == 7:
            m_s = _random_prime(rng, rng.randint(96, 104))
        else:
            m_s = _random_prime(rng, 22 + i % 2) * _random_prime(rng, rng.randint(28, 34))
        u = rng.randint(1, 10**9)
        while math.gcd(u, m_s) != 1:
            u += 1
        a = p ** rng.randint(1, 3) * u
        m = p ** rng.randint(1, 3) * m_s
        n = rng.getrandbits(128) | (1 << 127)
        rows.append((_signed(rng, a), str(n), _signed(rng, m)))
    return _pow_workload("factor-hard", rows, _POW_LAYERS)


GENERATORS = {
    "bigexp": bigexp,
    "batch-mixed": batch_mixed,
    "verify-sweep": verify_sweep,
    "factor-hard": factor_hard,
}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; the same pair always gives the same bytes."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)  # bigexp's oracle converts 10**5-digit decimals
    try:
        return GENERATORS[name](seed)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
