"""Tests for primality, factorization, totient, and powmod."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_extra_strong_lucas_prp

from gencong import _large, arith
from gencong.arith import Factorization, factorize, is_prime, mod_pow, totient
from gencong.reduction import verify_sweep


def naive_mod_pow(base, exp, m):
    """Repeated multiplication, the obvious oracle."""
    acc = 1 % m
    for _ in range(exp):
        acc = acc * base % m
    return acc


def naive_totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


#: OEIS A014233: psi_k, the least odd composite that is a strong pseudoprime
#: to each of the first k primes, for k = 1..13.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def is_strong_probable_prime(n, base):
    """One Miller-Rabin round written out from the definition."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def chernick_carmichaels(count):
    """The first ``count`` Carmichael numbers (6k+1)(12k+1)(18k+1) with all three factors prime."""
    found = []
    for k in range(1, 10**6):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            found.append(math.prod(factors))
            if len(found) == count:
                return found
    raise AssertionError("too few Chernick numbers")


#: Primes on both sides of the trial bound: 997 is the largest trial prime
#: and 1009 the smallest prime above it.
NEAR_TRIAL_BOUND = tuple(sympy.primerange(900, 1100))
#: P-1's stage 1 exponent lcm(1 .. B1 - 1), the primes below B1, and the
#: primes stage 2 covers
STAGE_1_EXPONENT = math.lcm(*range(1, _large._PM1_B1))
STAGE_1_PRIMES = tuple(sympy.primerange(2, _large._PM1_B1))
STAGE_2_PRIMES = tuple(sympy.primerange(_large._PM1_B1, _large._PM1_B2 + 1))


def next_safe_prime(n):
    """The least prime q > n with (q - 1) / 2 prime."""
    q = sympy.nextprime(n)
    while not sympy.isprime(q // 2):
        q = sympy.nextprime(q)
    return q


#: Safe primes of 17 to 35 bits, each (q - 1) / 2 past P-1's stage 2 bound
SAFE_PRIMES = tuple(next_safe_prime(2 * _large._PM1_B2 * 4**k) for k in range(1, 11))


def p_minus_1_ready(p):
    """Whether p - 1 is B1-powersmooth times at most one prime in [B1, B2], by sympy.

    None when a prime below B1 divides p - 1 to a power at or past B1: stage 1
    leaves that prime over, and stage 2 may find it in a composite kD ± j.
    """
    large = [(r, e) for r, e in sympy.factorint(p - 1).items() if r**e >= _large._PM1_B1]
    if any(r < _large._PM1_B1 for r, _ in large):
        return None
    return not large or (len(large) == 1 and large[0][1] == 1 and large[0][0] <= _large._PM1_B2)


#: (powers of primes below 1000) x (0 to 3 primes above 1000, repeats allowed)
trial_powers_times_large_primes = st.builds(
    lambda powers, large: math.prod(p**e for p, e in powers) * math.prod(large),
    st.lists(st.tuples(st.sampled_from(tuple(sympy.primerange(2, 1000))), st.integers(1, 12)),
             max_size=6),
    st.lists(st.integers(min_value=1000, max_value=10**9).map(sympy.nextprime), min_size=1,
             max_size=3).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=3)),
)


def factorize_counted(n, names=("is_prime", "_split")):
    """``factorize(n)``'s factors as a dict, and its calls to each of ``names``.

    ``is_prime`` is counted in arith, and the engine's functions in ``_large``.
    """
    calls = dict.fromkeys(names, 0)
    homes = {name: arith if name == "is_prime" else _large for name in calls}
    real = {name: getattr(homes[name], name) for name in calls}

    def counted(name):
        def wrapper(*args):
            calls[name] += 1
            return real[name](*args)
        return wrapper

    for name in calls:
        setattr(homes[name], name, counted(name))
    try:
        factors = factorize(n)
    finally:
        for name, original in real.items():
            setattr(homes[name], name, original)
    return dict(factors.factors), calls


def largest_power_below(p, bound):
    q = p
    while q * p < bound:
        q *= p
    return q


def assert_rows_cover_each_prime_once(b1, b2, D, babies, k0, rows):
    """Stage 2's rows cover [b1, b2]: each prime there is k * D - j or k * D + j
    for exactly one entry (k, j), and no entry is without one.  Row i is giant
    step k0 + i, holds one byte per entry, a position in ``babies``, which are
    the j < D / 2 coprime to D, and the first row is not empty."""
    assert babies == tuple(j for j in range(1, D // 2) if math.gcd(j, D) == 1)
    assert all(isinstance(row, bytes) for row in rows) and rows[0]
    entries = [(k0 + i, babies[pos]) for i, row in enumerate(rows) for pos in row]
    primes = set(sympy.primerange(b1, b2 + 1))
    covered = sorted(q for k, j in entries for q in (k * D - j, k * D + j) if q in primes)
    assert covered == sorted(primes)
    assert all(k * D - j in primes or k * D + j in primes for k, j in entries)


def plain_trial_cofactor(n):
    """What trial division by every prime below 1000, until ``p * p > n``, leaves."""
    for p in sympy.primerange(2, 1000):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
    return n


class TestIsPrime:
    def test_small_against_sieve(self):
        # past 1009**2 == 1018081, where the trial screen stops deciding alone
        limit = 1_100_000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        for n in range(limit + 1):
            assert is_prime(n) == bool(sieve[n]), n

    def test_negative_and_edge(self):
        for n in (-7, -2, -1, 0, 1):
            assert not is_prime(n)

    def test_known_primes(self):
        for p in (2, 3, 5, 101, 641, 7919, 104729, 2**31 - 1, 2**61 - 1, 2**89 - 1,
                  10**18 + 9, 4294967311, 2305843009213693951):
            assert is_prime(p), p

    def test_known_composites(self):
        # Carmichael numbers and strong pseudoprimes to small bases
        for n in (341, 561, 1105, 1729, 2047, 41041, 825265, 3215031751,
                  3825123056546413051, 2**32 + 1, (2**31 - 1) * (2**61 - 1)):
            assert not is_prime(n), n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**13))
    def test_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    def test_psi_k_is_composite(self):
        # psi_k fools its first k prime bases, so a bound tested with <= or a
        # row with too few bases calls it prime
        primes = list(sympy.primerange(2, 42))
        for k, psi in enumerate(PSI, start=1):
            assert not sympy.isprime(psi)
            assert all(is_strong_probable_prime(psi, p) for p in primes[:k]), k
            assert not is_prime(psi), k

    def test_prime_below_psi_k(self):
        for psi in PSI:
            assert is_prime(sympy.prevprime(psi)), psi

    def test_psi_k_neighbourhood_matches_sympy(self):
        for psi in PSI:
            for n in range(psi - 2, psi + 3):
                assert is_prime(n) == sympy.isprime(n), n

    def test_carmichael_numbers(self):
        # Korselt: squarefree, and p - 1 | n - 1 for each prime p | n
        small = [n for n in range(3, 120_000, 2)
                 if len(f := sympy.factorint(n)) > 1 and set(f.values()) == {1}
                 and all((n - 1) % (p - 1) == 0 for p in f)]
        assert small[:4] == [561, 1105, 1729, 2465]
        for n in small + chernick_carmichaels(12):
            assert not is_prime(n), n
            assert not sympy.isprime(n), n

    def test_squares_and_products_near_trial_bound(self):
        for i, p in enumerate(NEAR_TRIAL_BOUND):
            for q in NEAR_TRIAL_BOUND[i:]:
                for n in (p * q - 2, p * q - 1, p * q, p * q + 1, p * q + 2):
                    assert is_prime(n) == sympy.isprime(n), n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=10**13, max_value=34 * 10**23))
    def test_matches_sympy_up_to_psi_13(self, n):
        # the range of the larger psi_k bounds, past test_matches_sympy;
        # nextprime puts a prime through the Miller-Rabin rounds every time
        assert is_prime(n) == sympy.isprime(n)
        assert is_prime(sympy.nextprime(n))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=PSI[-1], max_value=2**256))
    def test_matches_sympy_past_psi_13(self, n):
        # the Baillie-PSW branch, for a random n and for the prime after it
        assert is_prime(n) == sympy.isprime(n)
        assert is_prime(sympy.nextprime(n))


def bpsw(n):
    """``is_prime``'s branch past psi_13, called on any odd ``n > 3``."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return not _large._is_composite_witness(2, d, r, n) and _large._is_extra_strong_lucas_prp(n)


odd_20_to_200_bits = st.integers(min_value=20, max_value=200).flatmap(
    lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
).map(lambda n: n | 1)
odd_squares = st.integers(min_value=3, max_value=2**100).map(lambda k: (k | 1) ** 2)


class TestBailliePSW:
    """The test ``is_prime`` runs past psi_13, called directly at any size."""

    @settings(max_examples=400, deadline=None)
    @given(odd_20_to_200_bits | odd_20_to_200_bits.map(sympy.nextprime)
           | st.tuples(odd_20_to_200_bits, odd_20_to_200_bits).map(
               lambda pair: sympy.nextprime(pair[0] // 2**10) * sympy.nextprime(pair[1] // 2**10)))
    def test_matches_sympy(self, n):
        assert bpsw(n) == sympy.isprime(n)

    def test_rejects_every_strong_base_2_pseudoprime_below_a_million(self):
        limit = 10**6
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
        pseudoprimes = [n for n in range(3, limit, 2)
                        if not sieve[n] and is_strong_probable_prime(n, 2)]
        # OEIS A001262: 46 of them below 10**6, the first 2047 = 23 * 89
        assert pseudoprimes[:5] == [2047, 3277, 4033, 4681, 8321]
        assert len(pseudoprimes) == 46
        for n in pseudoprimes:
            assert not bpsw(n), n

    def test_is_prime_past_psi_13_needs_both_halves(self, monkeypatch):
        # each half alone rejects this composite, so dropping either from
        # is_prime's last branch is seen
        n = 1_000_000_000_039 * 10_000_000_000_037
        assert n > PSI[-1]
        with monkeypatch.context() as patch:
            patch.setattr(_large, "_is_extra_strong_lucas_prp", lambda n: True)
            assert not is_prime(n)
        with monkeypatch.context() as patch:
            patch.setattr(_large, "_is_composite_witness", lambda *args: False)
            assert not is_prime(n)
        # and a strong base-2 pseudoprime past psi_13 is left to the Lucas half
        assert is_strong_probable_prime(PSI[-1], 2) and not is_prime(PSI[-1])

    def test_lucas_half_matches_sympy(self):
        # the first extra strong Lucas pseudoprimes (OEIS A217719) pass it, as
        # in sympy, and the base-2 half rejects each of them
        for n in (989, 3239, 5777, 10877, 27971, 29681):
            assert _large._is_extra_strong_lucas_prp(n), n
            assert not sympy.isprime(n) and not bpsw(n), n
        for n in range(3, 40_001, 2):
            assert _large._is_extra_strong_lucas_prp(n) == is_extra_strong_lucas_prp(n), n

    def test_lucas_half_screens_squares_before_searching_p(self, monkeypatch):
        # no P has Jacobi symbol -1 on a square: the search would run to
        # P = 2**61 - 3 on this one before a gcd ended it
        def no_search(a, n):
            raise AssertionError(f"searched P on the square {n}")

        monkeypatch.setattr(_large, "_jacobi", no_search)
        assert not _large._is_extra_strong_lucas_prp((2**61 - 1) ** 2)

    @settings(max_examples=300, deadline=None)
    @given(odd_20_to_200_bits | odd_squares)
    def test_lucas_half_matches_sympy_on_large_odd_n(self, n):
        # odd squares too, which have no such P and must be screened out first
        assert _large._is_extra_strong_lucas_prp(n) == is_extra_strong_lucas_prp(n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-(10**30), max_value=10**30), odd_20_to_200_bits)
    def test_jacobi_matches_sympy(self, a, n):
        assert _large._jacobi(a, n) == sympy.jacobi_symbol(a, n)


class TestFactorize:
    def test_rejects_nonpositive(self):
        for n in (0, -1, -12):
            with pytest.raises(ValueError):
                factorize(n)

    def test_one_has_no_factors(self):
        assert factorize(1) == Factorization(n=1, factors=())

    def test_frozen_values(self):
        assert factorize(105765).factors == ((3, 1), (5, 1), (11, 1), (641, 1))
        assert factorize(35255).factors == ((5, 1), (11, 1), (641, 1))
        assert factorize(64).factors == ((2, 6),)
        assert factorize(2**32 + 1).factors == ((641, 1), (6700417, 1))
        assert factorize(2**20).factors == ((2, 20),)
        assert factorize(999999999989).factors == ((999999999989, 1),)

    def test_round_trip_small(self):
        for n in range(1, 5000):
            result = factorize(n)
            product = 1
            previous = 1
            for p, e in result.factors:
                assert is_prime(p)
                assert e >= 1
                assert p > previous
                previous = p
                product *= p**e
            assert product == n == result.n

    def test_trial_division_boundary_matches_sympy(self):
        # 997 is the largest trial prime and 1009 the smallest prime above it
        for n in (994009, 1018081, 1005973, 997, 1009, 994009 * 1009,
                  2 * 997, 997 * 1013, 3 * 991 * 997 * 1013):
            assert dict(factorize(n).factors) == sympy.factorint(n), n

    def test_semiprime_with_large_factors(self):
        p, q = 2147483647, 2305843009213693951
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12))
    def test_matches_sympy(self, n):
        assert dict(factorize(n).factors) == sympy.factorint(n)

    @settings(max_examples=200, deadline=None)
    @given(trial_powers_times_large_primes)
    def test_trial_powers_times_large_primes_match_sympy(self, n):
        assert dict(factorize(n).factors) == sympy.factorint(n)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(min_value=1, max_value=10**15), trial_powers_times_large_primes))
    @example(2 * 997)  # the last trial prime dividing n is taken without the ones below it
    @example(997 * 1013)
    @example(3 * 991 * 997 * 1013)
    def test_first_cofactor_tested_is_that_of_plain_trial_division(self, n):
        # trial division by every prime below 1000 until p * p > n leaves
        # this cofactor; it must be the first number factorize hands is_prime
        seen = []
        real_is_prime = arith.is_prime
        arith.is_prime = lambda m: seen.append(m) or real_is_prime(m)
        try:
            factorize(n)
        finally:
            arith.is_prime = real_is_prime
        rest = plain_trial_cofactor(n)
        assert seen[:1] == ([rest] if rest > 1 else [])  # later entries are its splits

    @settings(max_examples=200, deadline=None)
    @given(trial_powers_times_large_primes)
    def test_cofactor_loop_tests_each_node_once_and_splits_each_composite_once(self, n):
        # the split tree of a cofactor of omega distinct primes has omega
        # leaves and omega - 1 splits: each of its 2 * omega - 1 nodes is
        # tested once and each inner node split once.  A repeated prime is
        # divided out to its full power once proved, which can only save calls.
        factors, calls = factorize_counted(n)
        cofactor = sympy.factorint(plain_trial_cofactor(n))
        omega = sum(cofactor.values())
        most = {"is_prime": max(2 * omega - 1, 0), "_split": max(omega - 1, 0)}
        if all(e == 1 for e in cofactor.values()):
            assert calls == most
        else:
            assert all(calls[name] <= most[name] for name in calls)
        assert factors == sympy.factorint(n)

    def test_proved_prime_is_divided_out_to_its_full_power(self):
        # P-1 finds 1013 in 1013**80, since 1012 = 2**2 * 11 * 23 divides its
        # exponent and 1013 does not; 1013 is proved once and divided out of
        # its cofactor
        factors, calls = factorize_counted(1013**80)
        assert factors == {1013: 80}
        assert calls == {"is_prime": 2, "_split": 1}  # 159 and 79 one prime at a time

    def test_p_minus_1_exponent_is_lcm_below_b1(self):
        # lcm(1 .. B1 - 1) is the product of each prime's largest power below B1
        exponent, powers, *_ = _large._plan(_large._PM1_B1, _large._PM1_B2, _large._PM1_D)
        assert powers == tuple(largest_power_below(p, _large._PM1_B1) for p in STAGE_1_PRIMES)
        assert exponent == math.prod(powers) == STAGE_1_EXPONENT

    @pytest.mark.parametrize("n", [
        1093**2,  # base-2 Wieferich primes: 2**(p-1) == 1 mod p**2, so the first
        3511**2,  # prime power that brings the gcd above 1 brings it to n
    ])
    def test_p_minus_1_gcd_of_n_on_a_prime_square_splits_by_its_root(self, n):
        # ECM's gcd is n on nearly every curve modulo a prime power, so the root comes first
        factors, calls = factorize_counted(n, ("_split", "_ecm_curve"))
        assert factors == sympy.factorint(n)
        assert calls == {"_split": 1, "_ecm_curve": 0}

    def test_p_minus_1_splits_without_ecm(self):
        # 1020 = 2**2 * 3 * 5 * 17 divides the exponent; 2038 = 2 * 1019 does not
        factors, calls = factorize_counted(1021 * 2039, ("_split", "_ecm_curve"))
        assert factors == {1021: 1, 2039: 1}
        assert calls == {"_split": 1, "_ecm_curve": 0}

    @pytest.mark.parametrize("q", [
        33554519,  # a safe prime: 33554518 = 2 * 16777259, past B2
    ])
    def test_p_minus_1_stage_2_splits_without_ecm(self, q):
        # stage 1's gcd is 1 and 2026 = 2 * 1013: stage 2 finds 2027 at q = 1013
        factors, calls = factorize_counted(2027 * q, ("_split", "_ecm_curve"))
        assert factors == {2027: 1, q: 1}
        assert calls == {"_split": 1, "_ecm_curve": 0}

    @pytest.mark.parametrize("p, q", [
        # 1020 = 2**2 * 3 * 5 * 17 and 1030 = 2 * 5 * 103 both divide the
        # exponent, so stage 1's gcd is n
        (1021, 1031),
        # 2026 = 2 * 1013 and 6366 = 2 * 3 * 1061: 1013 = 5 * 210 - 37 and
        # 1061 = 5 * 210 + 11 share giant step 5, whose row's gcd is n
        (2027, 6367),
        # 6078 = 2 * 3 * 1013: both primes turn up in the one multiplication
        # for q = 1013
        (2027, 6079),
    ])
    def test_p_minus_1_stage_2_falls_back_to_ecm_when_the_gcd_is_n(self, p, q):
        factors, calls = factorize_counted(p * q, ("_split", "_ecm_curve"))
        assert factors == {p: 1, q: 1}
        assert calls["_split"] == 1 and calls["_ecm_curve"] >= 1

    @pytest.mark.parametrize("b1, b2, D, offsets", [
        pytest.param(600, 15000, 210, 24, id="p_minus_1"),
        # ECM's levels, with ids level-B1-D
        pytest.param(60, 3600, 90, 12, id="0-60-90"),
        pytest.param(120, 7200, 90, 12, id="1-120-90"),
        pytest.param(240, 14400, 210, 24, id="2-240-210"),
        pytest.param(1920, 115200, 2310, 240, id="5-1920-2310"),
    ])
    def test_ecm_plan_covers_each_prime_past_stage_1_once(self, b1, b2, D, offsets):
        exponent, powers, babies, k0, rows = _large._plan(b1, b2, D)
        assert powers == tuple(largest_power_below(p, b1) for p in sympy.primerange(2, b1))
        assert exponent == math.lcm(*range(1, b1))
        assert len(babies) == offsets
        assert_rows_cover_each_prime_once(b1, b2, D, babies, k0, rows)

    @pytest.mark.parametrize("level, b1, D", [(0, 60, 90), (1, 120, 90), (2, 240, 210),
                                              (4, 960, 210), (5, 1920, 2310), (9, 30720, 2310)])
    def test_ecm_curve_takes_the_plan_of_its_level(self, monkeypatch, level, b1, D):
        class Asked(Exception):
            pass

        def plan(*bounds):
            raise Asked(*bounds)  # stops the curve before any arithmetic

        monkeypatch.setattr(_large, "_plan", plan)
        with pytest.raises(Asked) as asked:
            _large._ecm_curve(1019 * 1021, 6 + _large._ECM_CURVES * level)
        assert asked.value.args == (b1, 60 * b1, D)

    def test_level_8_ecm_plan_build_stays_within_its_memory_bounds(self):
        # level 8's rows cover the 71,054 primes in [15,360, 921,600]; as
        # tuples of ints they kept 1.9 MiB, and their build peaked at 7.1 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            plan = _large._plan.__wrapped__(15360, 921600, 2310)  # built afresh, not from the cache
            kept, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(plan[2]) == 240
        assert kept < 0.25 * 2**20
        assert peak < 2.5 * 2**20

    def test_cli_import_leaves_the_factoring_engine_unloaded(self):
        # the engine (BPSW past the trial bound, P-1, ECM) is imported by the
        # first number trial division does not decide, so its plans are unbuilt too
        src = Path(arith.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, gencong.cli; print('gencong._large' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(STAGE_2_PRIMES),
           st.lists(st.sampled_from(STAGE_1_PRIMES), max_size=3, unique=True),
           st.sampled_from(SAFE_PRIMES))
    def test_p_minus_1_stage_2_finds_one_prime_past_stage_1(self, r, smooth, q):
        # p - 1 = 2 * r * t with 2 * t dividing lcm(1 .. B1 - 1), so x = 2**E has
        # order 1 or r mod p; q is a safe prime with (q - 1) / 2 past B2, so
        # x has order (q - 1) / 2 mod q and neither stage finds q
        p = next(p for c in itertools.count(1)
                 if STAGE_1_EXPONENT % (2 * (t := math.prod(smooth) * c)) == 0
                 and sympy.isprime(p := 2 * r * t + 1))
        factors, calls = factorize_counted(p * q, ("_split", "_ecm_curve"))
        assert factors == sympy.factorint(p * q)
        assert calls == {"_split": 1, "_ecm_curve": 0}

    def test_p_minus_1_spares_ecm_exactly_when_one_prime_is_ready(self):
        # sympy's factorint of p - 1 decides readiness; P-1 finds a ready prime
        # and no other, so ECM runs only when neither prime is ready.  Pairs
        # with both ready (one step may find both) or either undecided are skipped.
        def random_prime(rng, bits):
            while not sympy.isprime(p := rng.getrandbits(bits) | 1 << (bits - 1) | 1):
                pass
            return p

        rng = random.Random(19)
        seen = {False: 0, True: 0}
        while sum(seen.values()) < 100:
            p, q = (random_prime(rng, rng.randint(20, 34)) for _ in range(2))
            ready = p_minus_1_ready(p), p_minus_1_ready(q)
            if p == q or None in ready or all(ready):
                continue
            factors, calls = factorize_counted(p * q, ("_split", "_ecm_curve"))
            assert factors == {p: 1, q: 1}
            assert calls["_split"] == 1 and (calls["_ecm_curve"] == 0) == any(ready), (p, q)
            seen[any(ready)] += 1
        assert min(seen.values()) >= 20, seen

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2**19, 2**34 - 42), st.integers(2**19, 2**34 - 42))
    def test_product_of_two_20_to_34_bit_primes_matches_sympy(self, a, b):
        # factor-hard's shape; P-1 splits some of these, ECM the rest.
        # 2**34 - 41 is the largest 34-bit prime, so nextprime stays in range
        n = sympy.nextprime(a) * sympy.nextprime(b)
        assert dict(factorize(n).factors) == sympy.factorint(n)


#: Primes of 11 to 48 bits, all past the trial bound
primes_11_to_48_bits = st.integers(10, 47).flatmap(
    lambda b: st.integers(2**b, 2**(b + 1) - 1)).map(sympy.nextprime)


def affine_multiple(k, point, A, B, p):
    """``[k]point`` on ``B y**2 = x**3 + A x**2 + x`` over F_p by affine double-and-add.

    None is the point at infinity.
    """
    def add(P, Q):
        if P is None or Q is None:
            return P if Q is None else Q
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if x1 == x2:
            slope = (3 * x1 * x1 + 2 * A * x1 + 1) * pow(2 * B * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (B * slope * slope - A - x1 - x2) % p
        return x3, (slope * (x1 - x3) - y1) % p

    result = None
    for bit in bin(k)[2:]:
        result = add(result, result)
        if bit == "1":
            result = add(result, point)
    return result


class TestEcm:
    @pytest.mark.parametrize("scale", [1, 5])
    def test_ladder_matches_affine_double_and_add(self, scale):
        # (7, 1) lies on B y**2 = x**3 + 5 x**2 + x with B = 7**3 + 5 * 7**2 + 7;
        # the ladder takes the point as (7 * scale : scale)
        p, A, x0 = 1000003, 5, 7
        B = (x0**3 + A * x0**2 + x0) % p
        assert B * (A * A - 4) % p
        a24 = (A + 2) * pow(4, -1, p) % p
        for k in range(1, 501):
            for j, (X, Z) in enumerate(_large._ladder(k, x0 * scale, scale, a24, p)):
                expected = affine_multiple(k + j, (x0, 1), A, B, p)  # [k]P, then [k+1]P
                if expected is None:
                    assert Z % p == 0, (k, j)
                else:
                    assert Z % p and X * pow(Z, -1, p) % p == expected[0], (k, j)

    def test_each_stage_finds_exactly_the_primes_whose_point_order_it_covers(self):
        # Suyama's point Q for sigma = 6 has order o mod p, found here without
        # arith: #E = p + 1 + (B/p) * sum of (f(x)/p) over x, then o is #E with
        # each prime taken out that still leaves a multiple of Q at infinity.
        # Stage 1's point has order o' = o / gcd(o, lcm(1 .. B1 - 1)).  Run
        # modulo p itself, the curve finds p when o' == 1 (stage 1) or o' is a
        # prime in [B1, B2] (stage 2), and finds nothing when a prime factor
        # of o' is past B2 + D.  Other p are skipped.  o' = 3907 for 46691.
        sigma, b1, b2, d = 6, 60, 3600, 90
        stage_1 = math.lcm(*range(1, b1))

        def reduced_order(p):
            u, v = sigma * sigma - 5, 4 * sigma
            A = ((v - u) ** 3 * (3 * u + v) * pow(4 * u**3 * v, -1, p) - 2) % p
            x0 = u**3 * pow(v**3, -1, p) % p
            B = (x0**3 + A * x0**2 + x0) % p  # so (x0, 1) lies on B y**2 = f(x)
            assert B and (A * A - 4) % p
            squares = {x * x % p for x in range(1, p)}
            chi = [0] + [1 if x in squares else -1 for x in range(1, p)]  # Legendre symbols
            order = p + 1 + chi[B] * sum(chi[(x**3 + A * x * x + x) % p] for x in range(p))
            for r in sympy.primefactors(order):
                while order % r == 0 and affine_multiple(order // r, (x0, 1), A, B, p) is None:
                    order //= r
            return order // math.gcd(order, stage_1)

        seen = Counter()
        for p in tuple(sympy.primerange(1009, 16000))[::16] + (46691,):
            o = reduced_order(p)
            if o == 1 or (sympy.isprime(o) and b1 <= o <= b2):
                kind, expected = ("stage 1" if o == 1 else "stage 2"), p
            elif max(sympy.primefactors(o)) > b2 + d:
                kind, expected = "neither", 1
            else:
                continue
            assert _large._ecm_curve(p, sigma) == expected, (p, o)
            seen[kind] += 1
        assert seen["stage 1"] >= 10 and seen["stage 2"] >= 20 and seen["neither"] >= 1, seen

    def test_ecm_curve_singular_mod_a_prime_returns_that_prime(self):
        # sigma = 34 gives u = 34**2 - 5 = 1151, a prime, so the curve's
        # denominator 16 u**3 v has no inverse mod 1151 * 1153
        assert _large._ecm_curve(1151 * 1153, 34) == 1151

    def test_every_product_of_two_primes_in_1009_1400_splits_within_4_curves(self):
        # from B1 = 120 on, one ladder over all of stage 1 would find both
        # primes on most curves; a gcd per prime power keeps them apart
        primes = tuple(sympy.primerange(1009, 1400))
        for p, q in itertools.combinations(primes, 2):
            assert any(_large._ecm_curve(p * q, sigma) in (p, q) for sigma in range(6, 10)), (p, q)

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 13])
    def test_integer_root_is_exact_past_float_range(self, k):
        for r in (1009, 2**64 + 13, 3**700 + 2):
            assert _large._iroot(r**k, k) == r
            assert _large._iroot(r**k - 1, k) == r - 1
            assert _large._iroot(r**k + 1, k) == r

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.tuples(primes_11_to_48_bits, st.integers(2, 4)).map(lambda t: [t[0]] * t[1]),
        st.tuples(primes_11_to_48_bits, st.integers(2, 3), primes_11_to_48_bits).map(
            lambda t: [t[0]] * t[1] + [t[2]]),
        st.lists(primes_11_to_48_bits, min_size=3, max_size=3),
    ))
    @example([1093] * 3)
    @example([1093, 1093, 2027])
    def test_prime_powers_and_products_of_three_primes(self, primes):
        # the primes sympy drew are the answer; sympy.factorint would take
        # several times as long as factorize to find them again
        assert dict(factorize(math.prod(primes)).factors) == Counter(primes)

    def test_product_of_two_56_bit_primes(self):
        # neither P-1 stage finds either prime; ECM takes 49 curves, up to level 6
        p, q = 39107566017797881, 67083317485586657
        factors, calls = factorize_counted(p * q, ("_split", "_ecm_curve"))
        assert factors == {p: 1, q: 1}
        assert calls["_split"] == 1 and calls["_ecm_curve"] >= 1


class TestTotient:
    def test_frozen_values(self):
        assert totient(1) == 1
        assert totient(2) == 1
        assert totient(12) == 4
        assert totient(35255) == 25600
        assert totient(10**9) == 400000000

    def test_rejects_nonpositive(self):
        for n in (0, -1, -35255):
            with pytest.raises(ValueError):
                totient(n)

    def test_brute_force_small(self):
        for n in range(1, 2001):
            assert totient(n) == naive_totient(n), n

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**10))
    def test_matches_sympy(self, n):
        assert totient(n) == sympy.totient(n)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4))
    def test_multiplicative_on_coprime_pairs(self, a, b):
        if math.gcd(a, b) == 1:
            assert totient(a * b) == totient(a) * totient(b)

    def test_cache_covers_every_modulus_a_sweep_reuses(self):
        # the sweep's 90,300 pairs reduce to 300 distinct m_s; each misses
        # the cache once, and a second pass over the same sweep misses none
        totient.cache_clear()
        assert verify_sweep(range(-150, 151), range(1, 301)) == (90300, [])
        assert totient.cache_info().misses == 300
        verify_sweep(range(-150, 151), range(1, 301))
        assert totient.cache_info().misses == 300


class TestModPow:
    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 0)
        with pytest.raises(ValueError):
            mod_pow(2, 3, -5)
        with pytest.raises(ValueError):
            mod_pow(2, -1, 5)

    def test_conventions(self):
        assert mod_pow(0, 0, 7) == 1
        assert mod_pow(0, 0, 1) == 0
        assert mod_pow(5, 0, 13) == 1
        assert mod_pow(7, 0, 5) == 1
        assert mod_pow(0, 9, 13) == 0
        assert mod_pow(2, 10, 4) == 0
        assert mod_pow(-1, 3, 5) == 4

    def test_worked_example(self):
        assert mod_pow(6, 4, 105765) == 1296
        assert mod_pow(6, 25604, 105765) == naive_mod_pow(6, 25604, 105765)

    def test_naive_oracle_sweep(self):
        for m in range(1, 40):
            for base in range(-m, m + 1):
                acc = 1 % m
                for exp in range(25):
                    assert mod_pow(base, exp, m) == acc
                    acc = acc * base % m

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=0, max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
    )
    def test_matches_builtin_pow(self, base, exp, m):
        assert mod_pow(base, exp, m) == pow(base, exp, m)

    def test_huge_exponent_is_fast(self):
        exp = (1 << 40000) - 1
        assert mod_pow(3, exp, 1000003) == pow(3, exp, 1000003)
