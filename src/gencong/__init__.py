"""Modular powers with astronomically large exponents via gcd reduction chains.

For any integers a and m != 0 the reduction chain d_0 = gcd(a, |m|),
m_0 = |m| / d_0, d_i = gcd(d_{i-1}, m_{i-1}), m_i = m_{i-1} / d_i terminates
at the first index s with d_s = 1, and then

    a^(phi(m_s) + s) == a^s  (mod m).

This drops the coprimality hypothesis of the classical phi-exponent
congruence: exponents of a^N mod m fold down to s + ((N - s) mod phi(m_s))
for any base whatsoever.
"""

from . import arith, reduction
from .arith import *  # noqa: F403  republishes arith.__all__
from .reduction import *  # noqa: F403  republishes reduction.__all__

__version__ = "0.1.0"

__all__ = [*arith.__all__, *reduction.__all__, "__version__"]
