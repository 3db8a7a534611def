"""Modular powers with astronomically large exponents via gcd reduction chains.

For any integers a and m != 0 the reduction chain d_0 = gcd(a, |m|),
m_0 = |m| / d_0, d_i = gcd(d_{i-1}, m_{i-1}), m_i = m_{i-1} / d_i terminates
at the first index s with d_s = 1, and then

    a^(phi(m_s) + s) == a^s  (mod m).

This drops the coprimality hypothesis of the classical phi-exponent
congruence: exponents of a^N mod m fold down to s + ((N - s) mod phi(m_s))
for any base whatsoever.
"""

from .arith import Factorization, factorize, is_prime, mod_pow, totient
from .reduction import (
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

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "ReductionChain",
    "ReductionStep",
    "TheoremCheck",
    "build_chain",
    "cofactors",
    "factorize",
    "is_prime",
    "mod_pow",
    "reduce_exponent",
    "reduced_pow",
    "solve",
    "totient",
    "verify_sweep",
    "verify_theorem",
    "__version__",
]
