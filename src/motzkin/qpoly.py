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
import operator
from collections import Counter
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice

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


def _recurrence(v0: Fraction, v1: Fraction, s, t) -> Iterator[Fraction]:
    """v_0, v_1, v_2, ... with v_{m+1} = s v_m - t v_{m-1}."""
    while True:
        yield v0
        v0, v1 = v1, s * v1 - t * v0


def chebyshev_P(m: int, x) -> Fraction:
    """P_m(x) for exact rational x."""
    _check_index(m)
    return next(islice(_recurrence(Fraction(1), Fraction(1), 1, as_fraction(x)), m, None))


def chebyshev_Q(m: int, y) -> Fraction:
    """Q_m(y) for exact rational y."""
    _check_index(m)
    y = as_fraction(y)
    return next(islice(_recurrence(Fraction(1), y, y, 1), m, None))


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
    """phi for a fixed lam, with the limiting value attached.  It keeps
    phi(0..m) and Q_0..Q_m at y = 1/lam - 1 for the largest m asked so far,
    and extends both from one run of the recurrence of Q, so each value is
    computed once and equals that of `phi`."""

    def __init__(self, lam):
        self.lam = validate_lam(lam)
        y = 1 / self.lam - 1
        self._more_q = _recurrence(Fraction(1), y, y, 1)
        self._q = [next(self._more_q)]
        self._values = [Fraction(0)]

    def __call__(self, m: int) -> Fraction:
        _check_index(m)
        q, values = self._q, self._values
        while len(values) <= m:
            q.append(next(self._more_q))
            values.append((1 / self.lam) * q[-2] / q[-1])
        return values[m]

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
    values = _recurrence(Fraction(1), Fraction(1), 1, 1 / y**2)
    return all(v != 0 for v in islice(values, 1, kmax + 1))


def dim_sequence(n: int, kmax: int) -> Iterator[int]:
    """Yield d_0, ..., d_kmax, the dimensions of the spaces of the
    subproduct system over an n-dimensional base, in one pass of
    d_{-1} = 0, d_0 = 1, d_{k+1} = (n-1) d_k - d_{k-1}.

    Raises ParameterError when the recursion hits a non-positive value,
    which happens for n = 2.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    _check_index(kmax)
    prev, cur = 0, 1
    yield cur
    for k in range(1, kmax + 1):
        prev, cur = cur, (n - 1) * cur - prev
        if cur <= 0:
            raise ParameterError(f"dimension sequence for n={n} hits {cur} at k={k}")
        yield cur


def charge_characters(charges: Iterable[tuple[int, ...]]) -> Iterator[dict]:
    """Yield chi_0, chi_1, ...: charge -> multiplicity on each level of the
    subproduct system over coordinates of the given charges, in one pass
    of chi_{-1} = 0, chi_0 = {0: 1}, chi_{k+1} = chi_1 chi_k - chi_{k-1}.

    Charges are tuples of ints.  chi_1 is the character of the coordinates
    less one charge 0 (the line of b), and the product is the convolution
    of charges, so that the totals of chi_k follow `dim_sequence`.  Only
    charges of nonzero multiplicity are kept.
    """
    chi1 = Counter(charges)
    zero = (0,) * len(next(iter(chi1)))
    chi1[zero] -= 1
    prev, cur = {}, {zero: 1}
    while True:
        yield cur
        nxt = Counter({c: -m for c, m in prev.items()})
        for c1, m1 in chi1.items():
            for c2, m2 in cur.items():
                nxt[tuple(map(operator.add, c1, c2))] += m1 * m2
        prev, cur = cur, {c: m for c, m in nxt.items() if m}


def dim_subproduct(n: int, k: int) -> int:
    """d_k, the last value of ``dim_sequence(n, k)``."""
    return list(dim_sequence(n, k))[-1]
