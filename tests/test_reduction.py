"""Tests for reduction chains, the congruence, and exponent folding."""

import math
import sys

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAKE_PRIME
from gencong import arith, reduction
from gencong.arith import Factorization, factorize, mod_pow, totient
from gencong.reduction import (
    CHUNK_DIGITS,
    CertificateError,
    ReductionChain,
    ReductionStep,
    TheoremCheck,
    build_chain,
    cofactors,
    reduce_exponent,
    reduced_pow,
    solve,
    verify_sweep,
    verify_theorem,
)

nonzero_moduli = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda m: m != 0)
bases = st.integers(min_value=-(10**9), max_value=10**9)


def pre_period_and_period(r, m):
    """Brute-force cycle detection on ``k -> r**k mod m``, from ``k = 0``."""
    first_seen, x = {}, 1 % m
    for k in range(m + 1):  # at most m values, so one repeats by k = m
        if x in first_seen:
            return first_seen[x], k - first_seen[x]
        first_seen[x] = k
        x = x * r % m
    raise AssertionError("unreachable")


def closed_form_depth(a, m):
    """``max ceil(v_p(m) / v_p(a))`` over the primes p of ``gcd(a, m)``, by sympy."""
    g = math.gcd(a, m)
    if a == 0:
        return int(g > 1)
    m_exponents, a_exponents = sympy.factorint(abs(m)), sympy.factorint(abs(a))
    return max((-(-m_exponents[p] // a_exponents[p]) for p in sympy.factorint(g)), default=0)


#: Small primes, so a and m often share one, and large ones, so |m| reaches 10**40
LEMMA_PRIMES = (2, 3, 5, 7, 11, 13, 997, 1009, 2**31 - 1, 2**61 - 1)


def product_up_to(powers, bound=10**40):
    """The product of the ``(p, e)`` powers, each cut to the largest that stays within ``bound``."""
    n = 1
    for p, e in powers:
        while e and n * p <= bound:
            n, e = n * p, e - 1
    return n


def lemma_ints(max_exponent):
    return st.builds(product_up_to, st.lists(
        st.tuples(st.sampled_from(LEMMA_PRIMES), st.integers(1, max_exponent)), max_size=5))


signs = st.sampled_from((1, -1))


class TestBuildChain:
    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError):
            build_chain(6, 0)

    def test_worked_example(self):
        chain = build_chain(6, 105765)
        assert chain.steps == (
            ReductionStep(index=0, d=3, m_rem=35255),
            ReductionStep(index=1, d=1, m_rem=35255),
        )
        assert (chain.s, chain.m_s, chain.phi_ms) == (1, 35255, 25600)
        assert chain.a0 == 2
        assert chain.m_norm == 105765

    def test_coprime_pair_stops_immediately(self):
        chain = build_chain(5, 12)
        assert chain.steps == (ReductionStep(index=0, d=1, m_rem=12),)
        assert (chain.s, chain.m_s, chain.phi_ms) == (0, 12, 4)

    def test_prime_power_walks_down(self):
        chain = build_chain(2, 4)
        assert [(st.d, st.m_rem) for st in chain.steps] == [(2, 2), (2, 1), (1, 1)]
        assert (chain.s, chain.m_s) == (2, 1)

    def test_zero_base(self):
        chain = build_chain(0, 7)
        assert [(st.d, st.m_rem) for st in chain.steps] == [(7, 1), (1, 1)]
        assert (chain.s, chain.m_s) == (1, 1)
        assert build_chain(0, 1).s == 0

    def test_negative_base_takes_positive_gcds(self):
        assert build_chain(-6, 105765).steps == build_chain(6, 105765).steps
        chain = build_chain(-12, 18)
        assert [(st.d, st.m_rem) for st in chain.steps] == [(6, 3), (3, 1), (1, 1)]
        assert (chain.s, chain.m_s, chain.a0) == (2, 1, -2)

    def test_power_of_two_depth(self):
        for k in range(1, 12):
            assert build_chain(2, 2**k).s == k

    def test_negative_modulus_normalizes(self):
        plus, minus = build_chain(6, 105765), build_chain(6, -105765)
        assert minus.m_input == -105765
        assert (minus.m_norm, minus.steps, minus.s, minus.m_s) == (
            plus.m_norm,
            plus.steps,
            plus.s,
            plus.m_s,
        )

    @settings(max_examples=400, deadline=None)
    @given(bases, nonzero_moduli)
    def test_structural_invariants(self, a, m):
        chain = build_chain(a, m)
        assert chain.m_norm == abs(m)
        assert chain.m_norm % chain.m_s == 0
        assert math.gcd(a, chain.m_s) == 1
        assert chain.steps[-1].d == 1
        assert all(step.d >= 2 for step in chain.steps[:-1])
        assert chain.s == len(chain.steps) - 1
        assert chain.phi_ms == totient(chain.m_s)
        assert chain.a0 * chain.steps[0].d == a
        assert chain.s <= chain.m_norm.bit_length()

    @settings(max_examples=300, deadline=None)
    @given(bases, nonzero_moduli)
    def test_cofactor_product_rebuilds_modulus(self, a, m):
        chain = build_chain(a, m)
        ratios = cofactors(chain)
        assert len(ratios) == chain.s
        rebuilt = chain.m_s
        for i, c in enumerate(ratios):
            rebuilt *= c ** (i + 1)
        assert rebuilt == chain.m_norm

    @settings(max_examples=200, deadline=None)
    @given(bases, nonzero_moduli, st.integers(min_value=-5, max_value=5))
    def test_base_shift_keeps_chain(self, a, m, k):
        chain = build_chain(a, m)
        for other in (a + k * chain.m_norm, a % chain.m_norm):
            shifted = build_chain(other, m)
            assert (shifted.steps, shifted.s, shifted.m_s) == (
                chain.steps,
                chain.s,
                chain.m_s,
            )

    def test_iteration_bound_all_moduli_to_4096(self):
        # every possible d_0 for a given m is a divisor of m, and a = d
        # realizes it, so divisors cover all chain shapes
        for m in range(1, 4097):
            bound = (m.bit_length() - 1) + 2
            for d in range(1, m + 1):
                if m % d == 0:
                    assert len(build_chain(d, m).steps) <= bound, (d, m)

    def test_cofactors_worked_example(self):
        assert cofactors(build_chain(6, 105765)) == [3]
        assert cofactors(build_chain(5, 12)) == []
        assert cofactors(build_chain(2, 4)) == [1, 2]


class TestChainIsTight:
    def test_depth_is_the_pre_period_and_m_s_carries_the_period(self):
        # r**k mod m depends on a only through r = a mod |m|, and the chain
        # only through gcd(a, m), so every residue covers criterion 2's pairs
        for m in range(1, 301):
            divisors = sympy.divisors(m)
            for r in range(m):
                chain = build_chain(r, m)
                pre_period, period = pre_period_and_period(r, m)
                assert pre_period == chain.s, (r, m)
                assert chain.m_s == max(d for d in divisors if math.gcd(d, r) == 1), (r, m)
                assert period == (sympy.n_order(r, chain.m_s) if chain.m_s > 1 else 1), (r, m)
                assert chain.phi_ms % period == 0, (r, m)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.just(0), lemma_ints(4)), lemma_ints(133), signs, signs)
    @example(0, 1, 1, 1)  # |m| == 1: s == 0
    @example(0, 2**61 - 1, 1, 1)  # a == 0, |m| > 1: s == 1
    @example(3**5 * 7, 2**130, -1, 1)  # coprime: s == 0
    @example(2 * 3**2, 2**7 * 3**9 * 997, 1, -1)  # max(ceil(7/1), ceil(9/2)) == 7
    def test_depth_is_the_closed_form(self, a, m, sign_a, sign_m):
        a, m = sign_a * a, sign_m * m
        assert build_chain(a, m).s == closed_form_depth(a, m)


class TestVerifyTheorem:
    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError):
            verify_theorem(1, 0)

    def test_worked_example(self):
        check = verify_theorem(6, 105765)
        assert check.ok and bool(check)
        assert (check.chain.s, check.chain.m_s, check.chain.phi_ms) == (1, 35255, 25600)
        assert check.lhs == check.rhs == mod_pow(6, 1, 105765)

    def test_both_sides_are_direct_powers(self):
        check = verify_theorem(12, 18)
        assert check.lhs == mod_pow(12, check.chain.phi_ms + check.chain.s, 18)
        assert check.rhs == mod_pow(12, check.chain.s, 18)

    def test_frozen_witnesses(self):
        check = verify_theorem(2, 6)
        assert (check.chain.s, check.chain.m_s, check.chain.phi_ms) == (1, 3, 2)
        assert check.lhs == check.rhs == 2
        check = verify_theorem(5, 12)
        assert (check.chain.s, check.chain.m_s, check.chain.phi_ms) == (0, 12, 4)
        assert check.lhs == check.rhs == 1
        check = verify_theorem(2, 4)
        assert (check.chain.s, check.chain.m_s, check.chain.phi_ms) == (2, 1, 1)
        assert check.lhs == check.rhs == 0

    def test_small_exhaustive(self):
        for m in range(1, 60):
            for a in range(-m, m + 1):
                assert verify_theorem(a, m).ok

    @settings(max_examples=400, deadline=None)
    @given(bases, nonzero_moduli)
    def test_holds_everywhere(self, a, m):
        assert verify_theorem(a, m).ok


class TestRecords:
    def test_failed_check_is_falsy(self):
        # a non-empty tuple is truthy, so verify_sweep's `if not check`
        # relies on TheoremCheck.__bool__ returning ok
        chain = build_chain(3, 9)
        assert bool(TheoremCheck(ok=False, lhs=1, rhs=2, chain=chain)) is False
        assert bool(TheoremCheck(ok=True, lhs=0, rhs=0, chain=chain)) is True

    def test_fields_are_read_only(self):
        records = [build_chain(6, 105765), build_chain(6, 105765).steps[0],
                   verify_theorem(6, 105765), factorize(105765)]
        for record in records:
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], 0)

    def test_equal_records_hash_equal(self):
        first, second = verify_theorem(6, 105765), verify_theorem(6, 105765)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert hash(build_chain(12, 18)) == hash(build_chain(12, 18))
        assert hash(ReductionStep(0, 3, 35255)) == hash(ReductionStep(index=0, d=3, m_rem=35255))
        assert hash(Factorization(64, ((2, 6),))) == hash(factorize(64))

    @settings(max_examples=200, deadline=None)
    @given(bases, nonzero_moduli, st.integers(min_value=1, max_value=10**15))
    @example(6, 105765, 105765)
    @example(-12, 18, 1)
    def test_records_equal_their_keyword_built_twins(self, a, m, n):
        # build_chain and factorize fill records by position with tuple.__new__;
        # twins built by keyword from independent values pin each field's place
        chain, factors = build_chain(a, m), factorize(n)
        steps, current_a, current_m = [], a, abs(m)
        while not steps or steps[-1].d != 1:
            d = math.gcd(current_a, current_m)
            current_a, current_m = d, current_m // d
            steps.append(ReductionStep(index=len(steps), d=d, m_rem=current_m))
        twin = ReductionChain(a_input=a, m_input=m, m_norm=abs(m), steps=tuple(steps),
                              s=len(steps) - 1, m_s=current_m,
                              phi_ms=int(sympy.totient(current_m)), a0=a // steps[0].d)
        assert (chain, factors) == (twin, Factorization(
            n=n, factors=tuple(sorted(sympy.factorint(n).items()))))
        assert type(chain) is ReductionChain and type(factors) is Factorization
        assert {type(step) for step in chain.steps} == {ReductionStep}
        for record in (chain, *chain.steps, factors):
            assert type(record)(**record._asdict()) == record
            for name in record._fields:
                changed = record._replace(**{name: -1})
                assert type(changed) is type(record) and getattr(changed, name) == -1
                assert changed._replace(**{name: getattr(record, name)}) == record

    def test_factorization_phi(self):
        assert Factorization(n=1, factors=()).phi == 1
        assert factorize(105765).phi == 51200
        assert Factorization(n=2**20, factors=((2, 20),)).phi == 2**19
        assert factorize(2**32 + 1).phi == 640 * 6700416


class TestReduceExponent:
    def test_rejects_negative(self):
        chain = build_chain(6, 105765)
        with pytest.raises(ValueError):
            reduce_exponent(chain, -1)

    @pytest.mark.parametrize("exponent", [-1, "-1", "x"])
    def test_bad_exponent_fails_before_m_s_is_factored(self, monkeypatch, exponent):
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        m = sympy.nextprime(2**40) * sympy.nextprime(2**41)
        arith.totient.cache_clear()
        monkeypatch.setattr(arith, "factorize", refuse)
        with pytest.raises(ValueError):
            solve(2, exponent, m)

    def test_worked_example(self):
        chain = build_chain(6, 105765)
        assert reduce_exponent(chain, 25604) == 4

    def test_small_exponents_pass_through(self):
        chain = build_chain(2, 4)
        assert chain.s == 2
        assert reduce_exponent(chain, 0) == 0
        assert reduce_exponent(chain, 1) == 1
        assert reduce_exponent(chain, 2) == 2
        assert reduce_exponent(chain, 3) == 2

    def test_result_bounds(self):
        chain = build_chain(6, 105765)
        for exponent in (0, 1, 5, 25604, 10**40):
            reduced = reduce_exponent(chain, exponent)
            if exponent < chain.s:
                assert reduced == exponent
            else:
                assert chain.s <= reduced < chain.s + chain.phi_ms

    @settings(max_examples=300, deadline=None)
    @given(bases, nonzero_moduli, st.integers(min_value=0, max_value=10**40))
    def test_reduction_preserves_residue(self, a, m, exponent):
        chain = build_chain(a, m)
        reduced = reduce_exponent(chain, exponent)
        assert pow(a, reduced, chain.m_norm) == pow(a, exponent, chain.m_norm)


class TestSolve:
    def test_worked_example(self):
        chain, reduced, residue = solve(6, 25604, 105765)
        assert (chain.a_input, chain.m_input) == (6, 105765)
        assert (chain.s, chain.m_s, chain.phi_ms) == (1, 35255, 25600)
        assert (reduced, residue) == (4, 1296)
        assert residue == pow(6, reduced, 105765)


class TestReducedPow:
    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            reduced_pow(2, 3, 0)
        with pytest.raises(ValueError):
            reduced_pow(2, -1, 5)

    def test_worked_example(self):
        assert reduced_pow(6, 25604, 105765) == 1296

    def test_frozen_values(self):
        assert reduced_pow(2, 10, 4) == 0
        assert reduced_pow(5, 3, 12) == 5
        assert reduced_pow(7, 0, 13) == 1

    def test_sign_invariance(self):
        for a, exponent, m in ((6, 25604, 105765), (2, 10, 4), (-7, 13, 30)):
            assert reduced_pow(a, exponent, -m) == reduced_pow(a, exponent, m)

    def test_naive_oracle_sweep(self):
        for m in range(1, 30):
            for a in range(-m, m + 1):
                acc = 1 % m
                for exponent in range(20):
                    assert reduced_pow(a, exponent, m) == acc
                    acc = acc * a % m

    @settings(max_examples=500, deadline=None)
    @given(bases, nonzero_moduli, st.integers(min_value=0, max_value=10**50))
    def test_matches_builtin_pow(self, a, m, exponent):
        assert reduced_pow(a, exponent, m) == pow(a, exponent, abs(m))

    def test_huge_exponent_small_modulus(self):
        exponent = 10**10000 + 12345
        assert reduced_pow(2, exponent, 4) == 0
        assert reduced_pow(6, exponent, 105765) == pow(6, exponent, 105765)


K = CHUNK_DIGITS

#: Bases sharing a prime power with a structured modulus m = +-p**e * q, so
#: the chain is up to about 10 steps deep.
structured_pairs = st.builds(
    lambda p, e, f, u, q, sign_a, sign_m: (sign_a * p**f * u, sign_m * p**e * q),
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
)

#: Decimal strings with leading zeros whose value is either small (around s)
#: or K-1, K, K+1, 2K or any other number of digits up to 3K.
digit_counts = st.sampled_from((K - 1, K, K + 1, 2 * K)) | st.integers(min_value=1, max_value=3 * K)
decimal_texts = st.builds(
    lambda zeros, body: "0" * zeros + body,
    st.integers(min_value=0, max_value=2 * K),
    st.integers(min_value=0, max_value=12).map(str)
    | digit_counts.flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n)),
)


class TestDecimalStringExponent:
    @settings(max_examples=400, deadline=None)
    @given(structured_pairs, decimal_texts)
    @example((2, 1024), "0" * (3 * K) + "3")  # padded past K, value below s = 10
    @example((2, 1024), "0" * (3 * K) + "10")  # N = s
    @example((3, 1), "7" * (2 * K))  # m = 1, phi = 1
    def test_matches_int_path(self, pair, text):
        a, m = pair
        chain = build_chain(a, m)
        assert reduce_exponent(chain, text) == reduce_exponent(chain, int(text))
        assert solve(a, text, m)[2] == pow(a, int(text), abs(m))

    @pytest.mark.parametrize("digits", [K - 1, K, K + 1, 2 * K, 2 * K + 1])
    def test_chunk_boundaries(self, digits):
        text = ("31415926535897932384" * (digits // 20 + 1))[:digits]
        for a, m in ((6, 105765), (2, 1024), (-14, -7**5 * 1009)):
            chain = build_chain(a, m)
            assert reduce_exponent(chain, text) == reduce_exponent(chain, int(text))
            assert reduce_exponent(chain, "000" + text) == reduce_exponent(chain, int(text))

    @pytest.mark.parametrize("text", ["-5", " 5", "5 ", "5\n", "1_0", "", "+5", "0x5", "1.0",
                                      "\u0663", "\uff15", "12\u0663"])
    def test_malformed_strings_rejected(self, text):
        chain = build_chain(6, 105765)
        with pytest.raises(ValueError):
            reduce_exponent(chain, text)
        with pytest.raises(ValueError):
            solve(6, text, 105765)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int/str conversion limit on this Python")
    def test_million_digits_never_become_an_int(self):
        # int() of more than 4300 digits raises under the default limit
        sys.set_int_max_str_digits(4300)
        chain = build_chain(6, 105765)
        reduced = reduce_exponent(chain, "9" * 10**6)
        n_mod_phi = (pow(10, 10**6, chain.phi_ms) - 1) % chain.phi_ms  # N = 10**(10**6) - 1
        assert reduced == chain.s + (n_mod_phi - chain.s) % chain.phi_ms


class TestFoldCertificate:
    """One power, ``a**P mod m_s``, decides whether a period ``P`` folds ``a**N mod |m|``."""

    @settings(max_examples=500, deadline=None)
    @given(structured_pairs, st.none() | st.integers(min_value=0, max_value=10**7))
    @example((2, 1024), 3)  # m_s = 1: every P folds, and 1 % m_s == 0
    @example((6, 105765), 25600 // 2)  # a proper divisor of phi(m_s)
    def test_one_power_decides_the_fold(self, pair, period):
        a, m = pair
        chain = build_chain(a, m)
        period = chain.phi_ms if period is None else period
        certified = pow(a, period, chain.m_s) == 1 % chain.m_s
        base = pow(a, chain.s, chain.m_norm)
        folds = [pow(a, chain.s + k * period, chain.m_norm) == base for k in (1, 2, 3)]
        assert certified == all(folds) == folds[0]
        if period == chain.phi_ms:
            assert certified

    def test_wrong_totient_past_psi_13_raises(self, take_for_prime):
        n = take_for_prime(FAKE_PRIME)
        for a, m in ((2, n), (-2, -n), (6, 12 * n), (3**5, 3 * n)):
            chain = build_chain(a, m)
            assert chain.m_s == n and chain.phi_ms == n - 1  # what a prime n would give
            with pytest.raises(CertificateError, match="fold certificate failed"):
                solve(a, "9" * 400, m)
            with pytest.raises(CertificateError):
                reduced_pow(a, 12345, m)
            with pytest.raises(ArithmeticError):  # its documented base class
                solve(a, 0, m)

    def test_right_totient_past_psi_13_passes(self):
        n = FAKE_PRIME
        for a, m in ((2, n), (-2, -n), (6, 12 * n), (3**5, 3 * n)):
            assert solve(a, "9" * 400, m)[2] == pow(a, 10**400 - 1, abs(m))

    def test_checked_from_psi_13_on_and_only_for_this_base(self, take_for_prime):
        # psi_13 = 1287836182261 * 2575672364521 is a Fermat pseudoprime to
        # every base below 43, so for those a**(psi_13 - 1) == 1 certifies the
        # wrong phi for this a, and the residue is right anyway; 43 and 47
        # expose it
        psi_13 = take_for_prime(3317044064679887385961981)
        assert build_chain(2, psi_13).phi_ms == psi_13 - 1
        for a in (2, 6, 41, -42):
            assert solve(a, "9" * 400, psi_13)[2] == pow(a, 10**400 - 1, psi_13)
        for a in (43, 47, 2 * 43):
            with pytest.raises(CertificateError):
                solve(a, 5, psi_13)

    def test_wrong_totient_past_the_trial_primes_raises(self, take_for_prime):
        # m_s = 2**200 * FAKE_PRIME: the power is taken modulo FAKE_PRIME alone,
        # which still exposes its wrong totient
        n = take_for_prime(FAKE_PRIME)
        for a, m in ((3, 2**200 * n), (-5, -(2**200) * n), (7 * 11, 2**200 * 7 * n)):
            chain = build_chain(a, m)
            assert chain.m_s == 2**200 * n and chain.phi_ms == 2**199 * (n - 1)
            with pytest.raises(CertificateError):
                solve(a, 12345, m)

    def test_no_power_when_only_trial_primes_reach_psi_13(self, monkeypatch):
        # m_s = 2**100 * 1000003 >= psi_13, but its part past the trial primes
        # is proven prime, so phi(m_s) is exact and no certificate is taken
        powers = []
        monkeypatch.setattr(reduction, "pow", lambda *args: powers.append(args) or pow(*args),
                            raising=False)
        m = 3**4 * 2**100 * 1000003
        chain, reduced, residue = solve(3 * 7, 10**40 + 1, m)
        assert chain.m_s == 2**100 * 1000003 >= reduction._PSI_13
        assert residue == pow(21, 10**40 + 1, m)
        assert powers == []


class TestChainDependsOnlyOnGcd:
    """``verify_sweep`` builds one chain per ``(m, gcd(a, m))``; this is why that is sound."""

    @settings(max_examples=400, deadline=None)
    @given(structured_pairs, st.booleans(), st.integers(min_value=0, max_value=10**6),
           st.sampled_from((1, -1)))
    @example((0, 2**10 * 3), False, 0, -1)
    @example((-(2**3) * 9, -(2**10) * 3), False, 5, 1)
    def test_equal_gcd_gives_equal_chain(self, pair, zero_base, t, sign):
        a, m = pair
        if zero_base:
            a = 0
        g = math.gcd(a, m)
        other = sign * g * (1 + t * (abs(m) // g))  # gcd(other, m) == g by construction
        assert math.gcd(other, m) == g
        chain, twin = build_chain(a, m), build_chain(other, m)
        assert (twin.steps, twin.s, twin.m_s, twin.phi_ms, twin.m_norm) == (
            chain.steps,
            chain.s,
            chain.m_s,
            chain.phi_ms,
            chain.m_norm,
        )


def _pairwise_failures(a_values, m_values):
    """The falsy ``verify_theorem`` results of a plain a-major double loop."""
    checks = (verify_theorem(a, m) for a in a_values for m in m_values if m != 0)
    return [check for check in checks if not check]


def _wrong_totient(monkeypatch):
    """Halve ``totient`` on multiples of 7 and 9, so that some residues fail and some pass."""
    real = reduction.totient
    monkeypatch.setattr(reduction, "totient",
                        lambda n: real(n) // 2 if n % 7 == 0 or n % 9 == 0 else real(n))


def _count_powers(monkeypatch):
    """Record each builtin ``pow`` and ``mod_pow`` call made by ``reduction``; return the list."""
    calls = []
    for name, real in (("pow", pow), ("mod_pow", reduction.mod_pow)):
        monkeypatch.setattr(reduction, name, lambda *args, real=real: calls.append(args)
                            or real(*args), raising=False)
    return calls


small_ranges = st.builds(range, st.integers(-60, 60), st.integers(-60, 60),
                         st.integers(-7, 7).filter(bool))
base_tuples = st.lists(st.integers(-5, 5) | st.integers(-200, 200), max_size=40).map(tuple)
moduli_tuples = st.lists(st.integers(-40, 40), max_size=8).map(tuple)


class TestVerifySweep:
    def test_passing_ranges(self):
        assert verify_sweep(range(-30, 31), range(-30, 31)) == (61 * 60, [])
        assert verify_sweep(range(0, 1), range(1, 61)) == (60, [])
        assert verify_sweep((6,), (105765,)) == (1, [])
        assert verify_sweep(range(5), (0,)) == (0, [])
        assert verify_sweep((), (7,)) == (0, [])

    def test_rejects_a_one_shot_iterator(self):
        # the bases are visited once per modulus, so an iterator would be
        # exhausted after the first one and the count silently short
        with pytest.raises(TypeError):
            verify_sweep(iter(range(3)), (5, 6))

    def test_matches_pairwise_checks_under_a_wrong_totient(self, monkeypatch):
        real = reduction.totient
        monkeypatch.setattr(reduction, "totient", lambda n: 5 if n == 9 else real(n))
        a_values, m_values = range(-20, 21), range(-27, 28)
        expected = _pairwise_failures(a_values, m_values)
        assert 0 < len(expected) < len(a_values) * (len(m_values) - 1)
        # some failing pairs are not the first of their class
        assert len(expected) > len({(c.chain.m_input, c.chain.steps[0].d) for c in expected})
        assert verify_sweep(a_values, m_values) == (len(a_values) * (len(m_values) - 1), expected)

    def test_one_verify_theorem_call_per_class(self, monkeypatch):
        calls = []
        real = reduction.verify_theorem
        monkeypatch.setattr(reduction, "verify_theorem",
                            lambda a, m: calls.append((a, m)) or real(a, m))
        a_values, m_values = range(-50, 51), range(1, 41)
        assert verify_sweep(a_values, m_values) == (101 * 40, [])
        classes = {(m, math.gcd(a, m)) for a in a_values for m in m_values}
        assert len(calls) == len(classes)
        assert {(m, math.gcd(a, m)) for a, m in calls} == classes
        # each class is checked through a residue, not a base of the range
        assert all(0 <= r < abs(m) for r, m in calls)

    @pytest.mark.parametrize("block", [1, 7, reduction._SWEEP_BLOCK])
    @settings(max_examples=150, deadline=None)
    @given(small_ranges | base_tuples, small_ranges | moduli_tuples)
    @example(range(-20, 21), range(-27, 28))
    @example((5, 5, -4, 5, 14, 5), (9, -9, 0, 9))
    # nine periods of 9: witnesses past the first period, and those of a
    # repeated and a negated modulus, in a-major order
    @example(range(-40, 41), (9, 9, -9, 7))
    # residue 3 mod 7 without its mirror 4, which fails under the wrong totient
    @example((3, 10, 17, -4), (7, -7, 9))
    # m_s of 1 (bases 6, 12) and 2 (bases 3, 15, -3): phi_ms + s and s differ in parity
    @example((6, 12, 3, 15, -3), (18, -18, 36))
    # ranges one short of |m|, exactly |m| and one past it: in a block of at
    # least |m| bases, only the last two are read from their bounds
    @example(range(-4, 4), (9, -9))
    @example(range(-4, 5), (9, -9))
    @example(range(-4, 6), (9, -9))
    # steps 1, -1 and 7 are coprime to 9; step 3 holds the coset 0 mod 3
    @example(range(-10, 10), (9, -9))
    @example(range(10, -10, -1), (9, -9))
    @example(range(-30, 40, 7), (9, -9))
    @example(range(-30, 30, 3), (9, -9))
    # odd bases: the coset 1 mod 2, its own mirror, of 10 and 18 but all of 4
    @example(range(-9, 30, 2), (10, -10, 4, 18))
    # the coset 5 mod 7 of 14, whose mirrors 2 mod 7 are absent
    @example(range(-30, 60, 7), (14, -14))
    def test_matches_pairwise_checks_across_blocks(self, block, a_values, m_values):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _wrong_totient(monkeypatch)
            monkeypatch.setattr(reduction, "_SWEEP_BLOCK", block)
            expected = _pairwise_failures(a_values, m_values)
            pairs = len(a_values) * sum(m != 0 for m in m_values)
            assert verify_sweep(a_values, m_values) == (pairs, expected)

    @pytest.mark.parametrize("a_values, m, blocks", [
        (range(-4, 5), 9, [(range(9), range(5))]),
        (range(10, -10, -1), 9, [(range(9), range(5))]),
        (range(-30, 40, 7), -9, [(range(9), range(5))]),
        (range(-4, 5), 1, [(range(1), range(1))]),
        (range(-30, 30, 3), 9, [(range(0, 9, 3), range(0, 5, 3))]),
        (range(-9, 30, 2), 10, [(range(1, 10, 2), range(1, 6, 2))]),
        (range(-30, 60, 7), 14, [(range(5, 14, 7), range(5, 14, 7))]),
        (range(0, 10**6), 40001, [(range(40001), range(20001))]),
        (range(-4, 4), 9, [(dict.fromkeys((5, 6, 7, 8, 0, 1, 2, 3)), [5, 0, 1, 2, 3])]),
        (range(-30, -24, 3), 9, [(dict.fromkeys((6, 0)), [6, 0])]),
        ((4, 5, 4, 7), 9, [(dict.fromkeys((4, 5, 7)), [4, 7])]),
    ], ids=["length |m|", "step -1", "step 7, m < 0", "m = 1", "step 3", "coset 1 mod 2",
            "coset without mirrors", "|m| past the block", "length |m| - 1",
            "step 3, one short of a period", "tuple"])
    def test_residue_blocks(self, a_values, m, blocks):
        # a range that holds a period of its residues is one coset, read
        # from its bounds; a shorter range or a tuple is reduced in blocks
        assert list(reduction._residue_blocks(a_values, abs(m))) == blocks

    def test_a_failing_residue_recurs_across_covering_blocks(self, monkeypatch):
        # 14 consecutive bases, two periods mod 7: one period decides the
        # verdicts, and residues 3, 5 and 6, which fail under the wrong
        # totient, get witnesses in both periods, in a-major order
        _wrong_totient(monkeypatch)
        a_values, m_values = range(-4, 10), (7, -7)
        checked, failures = verify_sweep(a_values, m_values)
        assert (checked, failures) == (28, _pairwise_failures(a_values, m_values))
        assert [(c.chain.a_input, c.chain.m_input) for c in failures] == [
            (a, m) for a in (-4, -2, -1, 3, 5, 6) for m in m_values]

    @pytest.mark.parametrize("a_values, m_values, pairs", [
        (range(-50000, 50000), range(1, 11), sum(m // 2 + 1 for m in range(1, 11))),
        (range(-2000, 2001), range(1, 101), sum(m // 2 + 1 for m in range(1, 101))),
        (range(0, 10**6), (4001,), 2001),
        (range(0, 10**6), (40001,), 20001),
        (range(1, 10**5, 3), (9999,), 3333),
    ], ids=["10^6 pairs", "m <= 100", "245 blocks of 4001", "|m| past the block",
            "step 3, no mirrors"])
    def test_powers_follow_the_residue_pairs(self, monkeypatch, a_values, m_values, pairs):
        # each modulus is decided once, on one period of the range's residues:
        # two powers per ± pair (r, m - r), whether by verify_theorem or the
        # sweep, not per base nor per block.  Mod 9999 the bases 1 mod 3 are
        # 3333 residues, none the mirror of another
        calls = _count_powers(monkeypatch)
        assert verify_sweep(a_values, m_values) == (len(a_values) * len(m_values), [])
        assert len(calls) <= 2 * pairs

    def test_a_sweep_with_no_failures_never_walks_the_range(self):
        # 2 * 10**15 bases per modulus: the witness scan is skipped, so this
        # ends, and the count is still every pair
        assert verify_sweep(range(-10**15, 10**15), range(1, 31)) == (6 * 10**16, [])
