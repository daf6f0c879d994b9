"""Tests for the Jones-Wenzl tower.

The width-2 idempotent is frozen against a fully hand-computed form:
expanding the recursion gives, for any lam,

    g_2 = 1 - p_1 - p_2 - c*u + c*(cap + cup) + (1 - 2*lam)/(1 - lam) * e0

with c = lam/(1-lam), u the bare cup-cap, cap/cup the half diagrams and
e0 the all-isolated diagram.
"""

from fractions import Fraction

import pytest

from motzkin import (
    Element,
    LimitError,
    ParameterError,
    adjoint,
    conditional_expectation,
    embed,
    generator,
    identity,
)
from motzkin.jones_wenzl import (
    JWCache,
    cup_element,
    jones_wenzl,
    jw_report,
    qk_element,
    uniqueness_probe,
)
from motzkin.qpoly import PhiFunction, phi

LAMS = (Fraction(1, 3), Fraction(1, 4))


def test_g1():
    for lam in LAMS:
        g1 = jones_wenzl(1, lam)
        assert g1 == identity(1, lam=lam) - generator(1, "p", 1, lam=lam)


def test_g2_frozen_form():
    for lam in LAMS:
        c = lam / (1 - lam)
        terms = {
            (2, 3, 0, 1): Fraction(1),          # identity
            (-1, 3, -1, 1): Fraction(-1),       # p1
            (2, -1, 0, -1): Fraction(-1),       # p2
            (1, 0, 3, 2): -c,                   # cup over cap
            (-1, -1, 3, 2): c,                  # cap only
            (1, 0, -1, -1): c,                  # cup only
            (-1, -1, -1, -1): (1 - 2 * lam) / (1 - lam),
        }
        expected = Element(2, lam, terms)
        assert jones_wenzl(2, lam) == expected


def test_reports_up_to_width_4():
    for lam in LAMS:
        for k in (1, 2, 3, 4):
            report = jw_report(k, lam)
            assert report.ok, (k, lam, report)
            assert report.identity_coefficient == 1
            # The top-p annihilation is reported, not required.
            assert isinstance(report.kills_top_p, bool)


def test_expectation_coefficients():
    phi = PhiFunction(Fraction(1, 4))
    for k in (1, 2, 3):
        report = jw_report(k, Fraction(1, 4))
        assert report.expectation_coefficient == 1 / phi(k)
    assert jw_report(1, Fraction(1, 3)).expectation_coefficient == Fraction(2, 3)


def test_qk_is_projection():
    for lam in LAMS:
        for k in (1, 2, 3):
            q, x = qk_element(k, lam)
            assert q * q == q
            assert adjoint(q) == q
            assert x == embed(jones_wenzl(k, lam)) * cup_element(k, lam)


def test_recursion_through_qk():
    lam = Fraction(1, 4)
    for k in (1, 2, 3):
        lhs = jones_wenzl(k + 1, lam)
        rhs = embed(jones_wenzl(k, lam)) * (
            identity(k + 1, lam=lam) - generator(k + 1, "p", k + 1, lam=lam)
        ) - qk_element(k, lam)[0]
        assert lhs == rhs


def test_cup_identities():
    # With x = i(g_k) * c_k: phi(k) lam x x* = q_k and
    # phi(k) lam x* x = i(g_{k-1}) p_k p_{k+1}; both avoid any square roots.
    for lam in LAMS:
        phi = PhiFunction(lam)
        for k in (1, 2, 3):
            g = embed(jones_wenzl(k, lam))
            x = g * cup_element(k, lam)
            assert (x * adjoint(x)).scale(phi(k) * lam) == qk_element(k, lam)[0]
            rhs = (
                embed(jones_wenzl(k - 1, lam), 2)
                * generator(k + 1, "p", k, lam=lam)
                * generator(k + 1, "p", k + 1, lam=lam)
            )
            assert (adjoint(x) * x).scale(phi(k) * lam) == rhs


def test_expectation_contracts_tower():
    for lam in LAMS:
        phi = PhiFunction(lam)
        for k in (1, 2, 3, 4):
            lhs = conditional_expectation(jones_wenzl(k, lam))
            assert lhs == jones_wenzl(k - 1, lam).scale(1 / phi(k))


def test_uniqueness_probe():
    for lam in LAMS:
        for k in (1, 2, 3):
            probe = uniqueness_probe(k, lam)
            assert probe.solution_dimension == 1
            assert probe.contains_jw
            assert probe.ok
    with pytest.raises(LimitError):
        uniqueness_probe(4, Fraction(1, 4))


def test_cache_reuse_and_clear():
    cache = JWCache()
    g = cache.element(3, Fraction(1, 4))
    assert cache.element(3, Fraction(1, 4)) is g
    cache.clear()
    assert cache.element(3, Fraction(1, 4)) is not g
    assert cache.element(3, Fraction(1, 4)) == g


def test_float_lam_rejected():
    # lam is exact everywhere: a float is refused by the tower as by phi.
    with pytest.raises(ParameterError):
        jones_wenzl(2, 0.25)
    with pytest.raises(ParameterError):
        phi(2, 0.25)
