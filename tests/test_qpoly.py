"""Tests for the polynomial layer."""

import math
from fractions import Fraction
from itertools import islice

import pytest

from motzkin.errors import ParameterError
from motzkin.qpoly import (
    PhiFunction,
    chebyshev_P,
    chebyshev_Q,
    charge_characters,
    dim_sequence,
    dim_subproduct,
    is_generic,
    phi,
    phi_infinity,
    q_parameter,
)

THIRD = Fraction(1, 3)
QUARTER = Fraction(1, 4)


def test_q_values_at_lam_quarter():
    # y = 3 gives the even-index Fibonacci numbers.
    y = Fraction(3)
    assert [chebyshev_Q(m, y) for m in range(6)] == [1, 3, 8, 21, 55, 144]


def test_q_values_at_lam_third():
    # y = 2 gives Q_m = m + 1.
    for m in range(12):
        assert chebyshev_Q(m, 2) == m + 1


def test_p_q_relation():
    # Q_m(y) == y**m * P_m(1/y**2) for several rationals y.
    for y in (Fraction(2), Fraction(3), Fraction(7, 2)):
        for m in range(21):
            assert chebyshev_Q(m, y) == y**m * chebyshev_P(m, 1 / y**2)


def test_phi_closed_form_lam_third():
    for m in range(1, 31):
        assert phi(m, THIRD) == Fraction(3 * m, m + 1)
    assert phi(0, THIRD) == 0


def test_phi_values_lam_quarter():
    assert phi(1, QUARTER) == Fraction(4, 3)
    assert phi(3, QUARTER) == Fraction(32, 21)
    assert phi(4, QUARTER) == Fraction(84, 55)


def test_phi_equals_p_ratio():
    # The same ratio written through the P family.
    for lam in (THIRD, QUARTER, Fraction(1, 5)):
        y = 1 / lam - 1
        x = 1 / y**2
        for m in range(1, 21):
            expected = (
                (1 / lam)
                / (1 / lam - 1)
                * chebyshev_P(m - 1, x)
                / chebyshev_P(m, x)
            )
            assert phi(m, lam) == expected


def test_phi_monotone_and_convergent():
    for lam in (THIRD, QUARTER):
        limit = phi_infinity(lam)
        values = [phi(m, lam) for m in range(1, 40)]  # exact Fractions
        assert all(a < b for a, b in zip(values, values[1:]))
        assert float(values[-1]) <= limit + 1e-12
    # Convergence is geometric for lam < 1/3 (q < 1) ...
    assert abs(phi_infinity(QUARTER) - float(phi(30, QUARTER))) < 1e-3
    # ... but only O(1/m) at lam = 1/3, where q = 1.
    assert phi_infinity(THIRD) - float(phi(30, THIRD)) == pytest.approx(3 / 31)


def test_phi_infinity_identities():
    # q solves q + 1/q = 1/lam - 1 and lam * phi_infinity = q.
    for lam in (THIRD, QUARTER, Fraction(1, 6)):
        q = q_parameter(lam)
        y = float(1 / lam - 1)
        assert abs(q + 1 / q - y) < 1e-12
        assert abs(float(lam) * phi_infinity(lam) - q) < 1e-12
        # phi_infinity solves the fixed point equation x = 1/(1/lam - x)... via
        # q**2 + q + 1 = q / lam.
        assert abs(q * q + q + 1 - phi_infinity(lam)) < 1e-12
    assert q_parameter(THIRD) == pytest.approx(1.0)
    assert phi_infinity(THIRD) == pytest.approx(3.0)
    assert phi_infinity(QUARTER) == pytest.approx(4 * q_parameter(QUARTER))
    assert phi_infinity(QUARTER) == pytest.approx(1.5278640450004204, abs=1e-12)


def test_phi_function_wrapper():
    f = PhiFunction(QUARTER)
    assert f(0) == 0
    assert f(1) == Fraction(4, 3)
    assert f(1) is f(1)  # cached
    assert f.infinity == pytest.approx(phi_infinity(QUARTER))
    assert f.q == pytest.approx(q_parameter(QUARTER))


def test_phi_function_matches_phi():
    # Queried out of order, m = 60 first, the kept Q values give phi's values.
    for lam in (THIRD, QUARTER, Fraction(2, 9), Fraction(3, 13)):
        f = PhiFunction(lam)
        for m in [60, *range(60), 17, 60]:
            assert f(m) == phi(m, lam)
    with pytest.raises(ParameterError):
        PhiFunction(QUARTER)(10**4 + 1)


def test_is_generic_matches_every_p():
    # lam = 1/2 has P_2 = 0; the others have no zero up to P_12.
    for lam in (THIRD, QUARTER, Fraction(1, 2), Fraction(2, 5), Fraction(3, 4), Fraction(3, 13)):
        x = 1 / (1 / lam - 1) ** 2
        p = [Fraction(1), Fraction(1)]
        while len(p) <= 12:
            p.append(p[-1] - x * p[-2])
        for kmax in (0, 1, 2, 3, 12):
            assert is_generic(lam, kmax) == all(v != 0 for v in p[1:kmax + 1])


def test_lam_domain():
    with pytest.raises(ParameterError):
        phi(1, Fraction(1, 2))
    with pytest.raises(ParameterError):
        phi_infinity(Fraction(2, 5))
    with pytest.raises(ParameterError):
        phi(1, Fraction(0))


def test_is_generic():
    assert is_generic(THIRD, 10)
    assert is_generic(QUARTER, 10)
    # lam = 1/2 means y = 1, x = 1 and P_2(1) = 0.
    assert not is_generic(Fraction(1, 2), 2)
    assert is_generic(Fraction(1, 2), 1)


def test_dim_subproduct_tables():
    assert [dim_subproduct(3, k) for k in range(7)] == [1, 2, 3, 4, 5, 6, 7]
    assert [dim_subproduct(4, k) for k in range(7)] == [1, 3, 8, 21, 55, 144, 377]
    assert dim_subproduct(4, 2) == (4 - 1) ** 2 - 1


def test_dim_subproduct_degenerate():
    assert dim_subproduct(2, 1) == 1
    with pytest.raises(ParameterError):
        dim_subproduct(2, 2)
    with pytest.raises(ParameterError):
        dim_subproduct(1, 1)


def test_dim_sequence():
    for n in (3, 4, 5, 9):
        assert list(dim_sequence(n, 12)) == [dim_subproduct(n, k) for k in range(13)]
    assert list(dim_sequence(2, 1)) == [1, 1]
    with pytest.raises(ParameterError, match="hits 0 at k=2"):
        list(dim_sequence(2, 5))
    for n, kmax in ((3, -1), (1, 3)):
        with pytest.raises(ParameterError):
            list(dim_sequence(n, kmax))


def test_charge_characters():
    # The coordinate charges of iii n=4 (one free orbit), iii n=5 r=2 (none)
    # and iii n=6 (two); the line of b has charge 0.
    cases = {
        4: [(0,), (1,), (-1,), (0,)],
        5: [(0,)] * 5,
        6: [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0), (0, 0)],
    }
    for n, charges in cases.items():
        chi = list(islice(charge_characters(charges), 9))
        assert [sum(c.values()) for c in chi] == list(dim_sequence(n, 8))
        for c in chi:
            assert all(m > 0 and c[tuple(-x for x in q)] == m for q, m in c.items())
    four = list(islice(charge_characters(cases[4]), 3))
    assert four == [
        {(0,): 1},
        {(-1,): 1, (0,): 1, (1,): 1},
        {(-2,): 1, (-1,): 2, (0,): 2, (1,): 2, (2,): 1},
    ]
    assert next(islice(charge_characters(cases[5]), 6, None)) == {(0,): dim_subproduct(5, 6)}
