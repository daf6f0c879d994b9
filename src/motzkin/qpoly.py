"""Chebyshev-style polynomials, the ratio function phi and dimensions.

Two families are used throughout:

    P_0 = P_1 = 1,        P_{m+1}(x) = P_m(x) - x * P_{m-1}(x)
    Q_0 = 1, Q_1 = y,     Q_{m+1}(y) = y * Q_m(y) - Q_{m-1}(y)

related by Q_m(y) = y**m * P_m(y**-2).  With y = 1/lam - 1 the ratio

    phi(m) = (1/lam) * Q_{m-1}(y) / Q_m(y),     phi(0) = 0

is exactly rational in lam and increases to phi_infinity = q / lam, where
q in (0, 1] solves q + 1/q = y.  Everything here requires lam <= 1/3,
i.e. y >= 2, which keeps the Q values positive and q real.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParameterError

_MAX_INDEX = 10**4


def as_fraction(value) -> Fraction:
    """An exact rational from a Fraction, int or str; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ParameterError(f"expected an exact rational, got {value!r}")


def _check_index(m: int) -> None:
    if not 0 <= m <= _MAX_INDEX:
        raise ParameterError(f"index {m} out of range 0..{_MAX_INDEX}")


def chebyshev_P(m: int, x) -> Fraction:
    """P_m(x) for exact rational x."""
    _check_index(m)
    x = as_fraction(x)
    prev, cur = Fraction(1), Fraction(1)
    for _ in range(m - 1):
        prev, cur = cur, cur - x * prev
    return cur if m >= 1 else prev


def chebyshev_Q(m: int, y) -> Fraction:
    """Q_m(y) for exact rational y."""
    _check_index(m)
    y = as_fraction(y)
    prev, cur = Fraction(1), y
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, y * cur - prev
    return cur


def validate_lam(lam) -> Fraction:
    """Check lam is an exact rational in (0, 1/3] and return it as a Fraction."""
    lam = as_fraction(lam)
    if not 0 < lam <= Fraction(1, 3):
        raise ParameterError(
            f"lam must lie in (0, 1/3], got {lam}"
        )
    return lam



def phi(m: int, lam) -> Fraction:
    """The exact ratio phi(m); phi(0) = 0."""
    _check_index(m)
    lam = validate_lam(lam)
    if m == 0:
        return Fraction(0)
    y = 1 / lam - 1
    return (1 / lam) * chebyshev_Q(m - 1, y) / chebyshev_Q(m, y)


def q_parameter(lam) -> float:
    """The root q in (0, 1] of q + 1/q = 1/lam - 1."""
    lam = validate_lam(lam)
    y = float(1 / lam - 1)
    return (y - math.sqrt(y * y - 4.0)) / 2.0


def phi_infinity(lam) -> float:
    """Limit of phi(m) as m grows: q / lam."""
    lam = validate_lam(lam)
    return q_parameter(lam) / float(lam)


class PhiFunction:
    """phi for a fixed lam, with caching and the limiting value attached."""

    def __init__(self, lam):
        self.lam = validate_lam(lam)
        self._cache: dict[int, Fraction] = {}

    def __call__(self, m: int) -> Fraction:
        if m not in self._cache:
            self._cache[m] = phi(m, self.lam)
        return self._cache[m]

    @property
    def infinity(self) -> float:
        return phi_infinity(self.lam)

    @property
    def q(self) -> float:
        return q_parameter(self.lam)

    def __repr__(self) -> str:
        return f"PhiFunction(lam={self.lam})"


def is_generic(lam, kmax: int) -> bool:
    """True when P_k((1/lam - 1)**-2) != 0 for every 1 <= k <= kmax."""
    lam = as_fraction(lam)
    if lam <= 0 or lam >= 1:
        raise ParameterError(f"lam must lie in (0, 1), got {lam}")
    _check_index(kmax)
    y = 1 / lam - 1
    if y == 0:
        raise ParameterError("lam = 1/2 ... 1 gives y <= 0; not supported")
    x = 1 / y**2
    return all(chebyshev_P(k, x) != 0 for k in range(1, kmax + 1))


def dim_subproduct(n: int, k: int) -> int:
    """Dimension of the k-th space of the subproduct system over an
    n-dimensional base: d_0 = 1, d_1 = n - 1, d_{k+1} = (n-1) d_k - d_{k-1}.

    Raises ParameterError when the recursion hits a non-positive value,
    which happens for n = 2.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    _check_index(k)
    prev, cur = 1, n - 1
    if k == 0:
        return prev
    for j in range(k - 1):
        prev, cur = cur, (n - 1) * cur - prev
        if cur <= 0:
            raise ParameterError(
                f"dimension sequence for n={n} hits {cur} at k={j + 2}"
            )
    return cur
