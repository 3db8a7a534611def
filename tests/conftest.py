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
