"""Shared fixtures for the test suite."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _restore_int_str_digit_limit():
    """Undo any change a test makes to the int/str conversion limit.

    A test that lifts the limit and leaves it lifted would let later tests
    pass only when run after it.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(saved)


#: A composite past psi_13 (p and q are primes of 40 and 44 bits), so
#: ``reduction.solve`` certifies any fold modulo it.
FAKE_PRIME = 1_000_000_000_039 * 10_000_000_000_037


@pytest.fixture
def take_for_prime(monkeypatch):
    """``take_for_prime(n)`` makes ``arith.is_prime`` accept the composite ``n``.

    ``totient(n)`` then comes out as ``n - 1``, which is wrong.  The totient
    cache is cleared when ``n`` is taken and after the test, so no wrong
    value outlives it.
    """
    from gencong import arith

    real = arith.is_prime
    taken = set()

    def take(n):
        taken.add(n)
        arith.totient.cache_clear()
        return n

    monkeypatch.setattr(arith, "is_prime", lambda n: n in taken or real(n))
    yield take
    arith.totient.cache_clear()
