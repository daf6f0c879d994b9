"""Tests for the Jones-Wenzl tower.

The width-2 idempotent is frozen against a fully hand-computed form:
expanding the recursion gives, for any lam,

    g_2 = 1 - p_1 - p_2 - c*u + c*(cap + cup) + (1 - 2*lam)/(1 - lam) * e0

with c = lam/(1-lam), u the bare cup-cap, cap/cup the half diagrams and
e0 the all-isolated diagram.
"""

import importlib
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from motzkin import (
    Element,
    LimitError,
    ParameterError,
    StructureError,
    adjoint,
    conditional_expectation,
    embed,
    generator,
    identity,
)
from motzkin.config import MAX_WIDTH
from motzkin.diagram_core import _sum_dtype, enumerate_basis
from motzkin.jones_wenzl import (
    JWCache,
    _probe_rows,
    _rational_rank,
    cup_element,
    jones_wenzl,
    jw_report,
    qk_element,
    uniqueness_probe,
)
from motzkin.qpoly import PhiFunction, phi

# The package re-exports the function jones_wenzl under the module's name.
jw = importlib.import_module("motzkin.jones_wenzl")

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
            assert report.terms == len(jones_wenzl(k, lam).terms)
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


def test_qk_failures_keep_their_messages(monkeypatch):
    # qk_element checks its identities after one batch of products; each
    # identity made false still raises its own text.
    lam = Fraction(1, 4)
    wrong_phi = JWCache()
    wrong_phi._phi[lam] = lambda m: Fraction(1)
    with pytest.raises(StructureError, match=r"^q_2 is not a self-adjoint idempotent$"):
        qk_element(2, lam, wrong_phi)
    with monkeypatch.context() as patch:
        patch.setattr(jw, "cup_element", lambda k, lam: identity(k + 1, lam=lam))
        with pytest.raises(StructureError, match=r"^x x\* does not recover q_2$"):
            qk_element(2, lam, JWCache())
    real = jw.embed
    monkeypatch.setattr(jw, "embed", lambda x, h=1: real(x, h).scale(h))
    with pytest.raises(StructureError, match=r"^x\* x does not recover g_1 p_2 p_3$"):
        qk_element(2, lam, JWCache())


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


def _fraction_rank(rows):
    """Rank by Gaussian elimination in Fractions: the elimination
    `_rational_rank` used before it worked on integer rows."""
    rows = [row[:] for row in rows if any(v != 0 for v in row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        prow = [v / pv for v in rows[rank]]
        rows[rank] = prow
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        col += 1
    return rank


def _probe_rows_one_by_one(k, lam, g):
    # Reference: each constraint applied to each basis diagram by its own
    # product, as the probe was built before its products were batched.
    basis = enumerate_basis(k)
    index = {d: j for j, d in enumerate(basis)}
    constraints = []
    for i in range(1, k):
        p = generator(k, "p", i, lam=lam)
        constraints.append(lambda y, p=p: p * y)
        constraints.append(lambda y, p=p: y * p)
    constraints.append(lambda y: g * y - y)
    constraints.append(lambda y: y * g - y)
    constraints.append(lambda y: adjoint(y) - y)
    images = [[c(Element.from_diagram(d, lam)) for c in constraints] for d in basis]
    rows = []
    for ci in range(len(constraints)):
        out = {}
        for j in range(len(basis)):
            for diag, coeff in images[j][ci].terms.items():
                out.setdefault(index[diag], [Fraction(0)] * len(basis))[j] = coeff
        rows.extend(out.values())
    return rows, basis


def _column_scales(rows, ncols):
    """The lcm of the denominators in each column of Fraction rows."""
    return [lcm(*(row[j].denominator for row in rows)) for j in range(ncols)]


def test_probe_rows_match_one_product_at_a_time():
    # The batched integer rows are the one-by-one Fraction rows with each
    # column scaled by the lcm of its denominators.
    for lam in (Fraction(1, 3), Fraction(2, 9), Fraction(3, 13)):
        for k in (1, 2, 3):
            g = jones_wenzl(k, lam)
            rows, basis, scale = _probe_rows(k, lam, g)
            ref, ref_basis = _probe_rows_one_by_one(k, lam, g)
            assert basis == ref_basis
            assert scale == _column_scales(ref, len(basis))
            assert all(type(v) is int for row in rows for v in row)
            assert rows == [[v * s for v, s in zip(row, scale)] for row in ref]


def test_integer_rank_matches_fraction_elimination():
    for lam in (Fraction(1, 4), Fraction(3, 13), Fraction(1, 3)):
        for k in (1, 2, 3):
            g = jones_wenzl(k, lam)
            rows, basis, _ = _probe_rows(k, lam, g)
            rank = _rational_rank(rows)
            assert rank == _fraction_rank(_probe_rows_one_by_one(k, lam, g)[0])
            assert rank == len(basis) - 1
    rng = random.Random(3113)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        # Rows built from a few random ones, so that many are dependent.
        seeds = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(ncols)]
            for _ in range(rng.randint(1, 4))
        ]
        rows = []
        for _ in range(nrows):
            row = [Fraction(0)] * ncols
            for seed in seeds:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
                row = [a + c * b for a, b in zip(row, seed)]
            rows.append(row)
        # Integer rows as the probe builds them: each column times the lcm
        # of its denominators, and times a random positive factor.
        scale = [s * rng.randint(1, 4) for s in _column_scales(rows, ncols)]
        ints = [[int(v * s) for v, s in zip(row, scale)] for row in rows]
        assert _rational_rank(ints) == _fraction_rank(rows)


def test_integer_rank_with_repeated_rows():
    # `_rational_rank` drops rows that repeat up to sign and a common
    # factor; the rank of systems with rows duplicated, negated and scaled
    # must still be the rank of the system.
    rng = random.Random(3114)
    for _ in range(200):
        ncols = rng.randint(1, 8)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 8) if rows else 0):
            row = rng.choice(rows)
            rows.insert(rng.randint(0, len(rows)), [rng.choice((-3, -1, 1, 2, 7)) * v for v in row])
        assert _rational_rank(rows) == _fraction_rank([[Fraction(v) for v in row] for row in rows])
    # Rows of one sign, the other sign and a multiple leave rank one.
    assert _rational_rank([[2, -4, 0], [-1, 2, 0], [3, -6, 0], [0, 0, 0]]) == 1
    g = jones_wenzl(3, Fraction(1, 4))
    rows, basis, _ = _probe_rows(3, Fraction(1, 4), g)
    assert _rational_rank(rows + [[-v for v in row] for row in rows]) == len(basis) - 1


@pytest.mark.slow
def test_width_six_exact():
    # g_6 * i(g_5) composes 3876 * 728 term pairs.
    lam = Fraction(1, 4)
    cache = JWCache()
    g6 = jones_wenzl(MAX_WIDTH, lam, cache)
    padded = embed(jones_wenzl(MAX_WIDTH - 1, lam, cache))
    assert len(g6.terms) == 3876
    assert g6.identity_coefficient() == 1
    assert g6 * padded == g6
    assert adjoint(g6) == g6
    # The product's integer sums stayed in int64.
    a1, a2 = list(g6._num.values()), list(padded._num.values())
    assert _sum_dtype(a1, a2, lam, MAX_WIDTH) is np.int64


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
