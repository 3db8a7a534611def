"""Tests for primality, factorization, totient, and powmod."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_extra_strong_lucas_prp

from gencong import arith
from gencong.arith import Factorization, factorize, is_prime, mod_pow, totient


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
TRIAL_PRIMES = tuple(sympy.primerange(2, 1009))
#: lcm(1..1008), P-1's stage 1 exponent, and the primes its stage 2 covers
STAGE_1_EXPONENT = math.lcm(*range(1, 1009))
STAGE_2_PRIMES = tuple(sympy.primerange(arith._TRIAL_BOUND, arith._PM1_B2 + 1))


def next_safe_prime(n):
    """The least prime q > n with (q - 1) / 2 prime."""
    q = sympy.nextprime(n)
    while not sympy.isprime(q // 2):
        q = sympy.nextprime(q)
    return q


#: Safe primes of 17 to 35 bits, each (q - 1) / 2 past P-1's stage 2 bound
SAFE_PRIMES = tuple(next_safe_prime(2**k) for k in range(16, 35, 2))

#: (powers of primes below 1000) x (0 to 3 primes above 1000, repeats allowed)
trial_powers_times_large_primes = st.builds(
    lambda powers, large: math.prod(p**e for p, e in powers) * math.prod(large),
    st.lists(st.tuples(st.sampled_from(tuple(sympy.primerange(2, 1000))), st.integers(1, 12)),
             max_size=6),
    st.lists(st.integers(min_value=1000, max_value=10**9).map(sympy.nextprime), min_size=1,
             max_size=3).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=3)),
)


def factorize_counted(n, names=("is_prime", "_split")):
    """``factorize(n)``'s factors as a dict, and its calls to each of ``names`` in arith."""
    calls = dict.fromkeys(names, 0)
    real = {name: getattr(arith, name) for name in calls}

    def counted(name):
        def wrapper(m):
            calls[name] += 1
            return real[name](m)
        return wrapper

    for name in calls:
        setattr(arith, name, counted(name))
    try:
        factors = dict(factorize(n).factors)
    finally:
        for name, function in real.items():
            setattr(arith, name, function)
    return factors, calls


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
    return not arith._is_composite_witness(2, d, r, n) and arith._is_extra_strong_lucas_prp(n)


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
            patch.setattr(arith, "_is_extra_strong_lucas_prp", lambda n: True)
            assert not is_prime(n)
        with monkeypatch.context() as patch:
            patch.setattr(arith, "_is_composite_witness", lambda *args: False)
            assert not is_prime(n)
        # and a strong base-2 pseudoprime past psi_13 is left to the Lucas half
        assert is_strong_probable_prime(PSI[-1], 2) and not is_prime(PSI[-1])

    def test_lucas_half_matches_sympy(self):
        # the first extra strong Lucas pseudoprimes (OEIS A217719) pass it, as
        # in sympy, and the base-2 half rejects each of them
        for n in (989, 3239, 5777, 10877, 27971, 29681):
            assert arith._is_extra_strong_lucas_prp(n), n
            assert not sympy.isprime(n) and not bpsw(n), n
        for n in range(3, 40_001, 2):
            assert arith._is_extra_strong_lucas_prp(n) == is_extra_strong_lucas_prp(n), n

    def test_lucas_half_screens_squares_before_searching_p(self, monkeypatch):
        # no P has Jacobi symbol -1 on a square: the search would run to
        # P = 2**61 - 3 on this one before a gcd ended it
        def no_search(a, n):
            raise AssertionError(f"searched P on the square {n}")

        monkeypatch.setattr(arith, "_jacobi", no_search)
        assert not arith._is_extra_strong_lucas_prp((2**61 - 1) ** 2)

    @settings(max_examples=300, deadline=None)
    @given(odd_20_to_200_bits | odd_squares)
    def test_lucas_half_matches_sympy_on_large_odd_n(self, n):
        # odd squares too, which have no such P and must be screened out first
        assert arith._is_extra_strong_lucas_prp(n) == is_extra_strong_lucas_prp(n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-(10**30), max_value=10**30), odd_20_to_200_bits)
    def test_jacobi_matches_sympy(self, a, n):
        assert arith._jacobi(a, n) == sympy.jacobi_symbol(a, n)


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
    def test_cofactor_loop_tests_each_node_once_and_runs_rho_once_per_composite(self, n):
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

    def test_p_minus_1_exponent_is_lcm_below_trial_bound(self):
        # lcm(1..1008) is the product of each prime's largest power below 1009
        def largest_power_below(p, bound):
            q = p
            while q * p < bound:
                q *= p
            return q

        assert arith._pm1_plan()[0] == math.prod(
            largest_power_below(p, 1009) for p in sympy.primerange(2, 1009))

    @pytest.mark.parametrize("n", [
        1021 * 1031,  # 1020 and 1030 both divide the exponent: the gcd is n
        1093**2,  # base-2 Wieferich primes: 2**(p-1) == 1 mod p**2, so the gcd is n
        3511**2,
    ])
    def test_p_minus_1_falls_back_to_rho_when_the_gcd_is_n(self, n):
        factors, calls = factorize_counted(n, ("_split", "_pollard_brent"))
        assert factors == sympy.factorint(n)
        assert calls == {"_split": 1, "_pollard_brent": 1}

    def test_p_minus_1_splits_without_rho(self):
        # 1020 = 2**2 * 3 * 5 * 17 divides the exponent; 2038 = 2 * 1019 does not
        factors, calls = factorize_counted(1021 * 2039, ("_split", "_pollard_brent"))
        assert factors == {1021: 1, 2039: 1}
        assert calls == {"_split": 1, "_pollard_brent": 0}

    @pytest.mark.parametrize("q", [
        33554519,  # a safe prime: 33554518 = 2 * 16777259, past B2
        6367,  # 6366 = 2 * 3 * 1061 turns up one giant step after 1013
    ])
    def test_p_minus_1_stage_2_splits_without_rho(self, q):
        # stage 1's gcd is 1 and 2026 = 2 * 1013: stage 2 finds 2027 at q = 1013
        # and stops there
        factors, calls = factorize_counted(2027 * q, ("_split", "_pollard_brent"))
        assert factors == {2027: 1, q: 1}
        assert calls == {"_split": 1, "_pollard_brent": 0}

    def test_p_minus_1_stage_2_falls_back_to_rho_when_the_gcd_is_n(self):
        # 2026 = 2 * 1013 and 6078 = 2 * 3 * 1013: both primes turn up at q = 1013
        factors, calls = factorize_counted(2027 * 6079, ("_split", "_pollard_brent"))
        assert factors == {2027: 1, 6079: 1}
        assert calls == {"_split": 1, "_pollard_brent": 1}

    def test_p_minus_1_stage_2_rows_cover_each_prime_past_stage_1_once(self):
        # stage 1 covers the primes below the trial bound, stage 2 the rest up to B2
        D, rows = arith._PM1_D, arith._pm1_plan()[1]
        assert all(0 < j < D and math.gcd(j, D) == 1 for row in rows for j in row)
        covered = sorted(k * D - j for k, row in enumerate(rows) for j in row)
        assert covered == list(STAGE_2_PRIMES)

    def test_cli_import_leaves_the_p_minus_1_plan_unbuilt(self):
        src = Path(arith.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import gencong.cli, gencong.arith as a; "
             "print(a._pm1_plan.cache_info().currsize)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(STAGE_2_PRIMES),
           st.lists(st.sampled_from(TRIAL_PRIMES), max_size=3, unique=True),
           st.sampled_from(SAFE_PRIMES))
    def test_p_minus_1_stage_2_finds_one_prime_past_stage_1(self, r, smooth, q):
        # p - 1 = 2 * r * t with 2 * t dividing lcm(1..1008), so x = 2**E has
        # order 1 or r mod p; q is a safe prime with (q - 1) / 2 past B2, so
        # x has order (q - 1) / 2 mod q and neither stage finds q
        p = next(p for c in itertools.count(1)
                 if STAGE_1_EXPONENT % (2 * (t := math.prod(smooth) * c)) == 0
                 and sympy.isprime(p := 2 * r * t + 1))
        factors, calls = factorize_counted(p * q, ("_split", "_pollard_brent"))
        assert factors == sympy.factorint(p * q)
        assert calls == {"_split": 1, "_pollard_brent": 0}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2**19, 2**34 - 42), st.integers(2**19, 2**34 - 42))
    def test_product_of_two_20_to_34_bit_primes_matches_sympy(self, a, b):
        # factor-hard's shape; P-1 splits some of these, rho the rest.
        # 2**34 - 41 is the largest 34-bit prime, so nextprime stays in range
        n = sympy.nextprime(a) * sympy.nextprime(b)
        assert dict(factorize(n).factors) == sympy.factorint(n)


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
