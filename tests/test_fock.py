"""Tests for the subproduct system and its Toeplitz operators."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from motzkin.errors import LimitError, ParameterError
from motzkin.fock import (
    build_subproduct,
    coassociativity_residuals,
    cuntz_pimsner_residual,
    gauge_average,
    ideal_generator,
    matrix_unit_dimension,
    operator_family,
    orthonormal_basis,
    projection_rank,
    reverse_identity,
    subproduct_projection,
    toeplitz_residuals,
    word_vectors,
)
from motzkin.jones_wenzl import jones_wenzl
from motzkin.qpoly import PhiFunction, dim_subproduct
from motzkin.representation import (
    MotzkinPair,
    build_example_pair,
    evaluate_element,
    p_matrix,
)

QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)


@lru_cache(maxsize=None)
def _pair(n):
    if n == 4:
        return build_example_pair("iii", 4, 1, QUARTER)
    return build_example_pair("i", 3, 0, THIRD)


@lru_cache(maxsize=None)
def _system(n, levels):
    return build_subproduct(_pair(n), levels)


def _ambient_projections(pair, levels):
    """Reference: the level projections from the n^k x d_k ambient frames.

    Y is contracted against the whole ambient frame B_k, and the range of
    each compressed projection is read off an SVD.
    """
    n = pair.n
    Q = np.eye(n) - p_matrix(pair)
    vA2 = pair.vA().reshape(n, n)
    phi = PhiFunction(pair.lam)
    B = np.ones((1, 1), dtype=complex)
    out = [B @ B.conj().T]
    for k in range(levels):
        d_k, d_next = B.shape[1], dim_subproduct(n, k + 1)
        G = np.kron(Q, np.eye(d_k)).astype(complex)
        if phi(k):
            B3 = B.reshape(n, n ** (k - 1), d_k)
            Y = np.einsum("ip,pAr->irA", vA2, B3.conj()).reshape(n * d_k, -1)
            G -= float(phi(k)) * (Y @ Y.conj().T)
        B_hat = np.linalg.svd(G)[0][:, :d_next].reshape(n, d_k, d_next)
        B = np.einsum("Ar,urs->uAs", B, B_hat).reshape(n ** (k + 1), d_next)
        out.append(B @ B.conj().T)
    return out


def _reference_limit_relations(system, m, coefficient):
    """Reference: eq4o-eq6o at level m with the given coefficient, each
    relation written out on its own, independent of the shared evaluator."""
    pair = system.pair
    n, a, lam = pair.n, pair.a, float(pair.lam)
    fam = operator_family(pair)
    blocks = {
        kind: system.creation_blocks(fam.vectors[idx])
        for idx, kind in enumerate(fam.kinds)
    }
    eye_m = np.eye(system.dims[m])

    def bar(j):
        return n + 1 - j

    def phase(aexp):
        return complex(np.exp(2j * np.pi * aexp / (2 * fam.r)))

    def down_up(kind_left, kind_right):
        return blocks[kind_left][m - 1] @ blocks[kind_right][m - 1].conj().T

    res = {}
    for j in fam.interior:
        for i in fam.interior:
            lhs = blocks[("v", j)][m].conj().T @ blocks[("v", i)][m]
            rhs = (i == j) * eye_m - coefficient * np.conj(a[i - 1]) * a[
                j - 1
            ] * down_up(("v", bar(j)), ("v", bar(i)))
            res[f"eq4o[i={i},j={j}]"] = float(np.linalg.norm(lhs - rhs))
    for j in fam.interior:
        for s in range(1, 2 * fam.r):
            js = fam.j_list[s - 1]
            lhs = blocks[("v", j)][m].conj().T @ blocks[("w", s)][m]
            rhs = (
                -coefficient
                * np.conj(a[js - 1])
                * a[j - 1]
                * phase(s)
                * down_up(("v", bar(j)), ("w", s))
            )
            res[f"eq5o[j={j},s={s}]"] = float(np.linalg.norm(lhs - rhs))
    for s in range(1, 2 * fam.r):
        for sp in range(1, 2 * fam.r):
            lhs = blocks[("w", sp)][m].conj().T @ blocks[("w", s)][m]
            rhs = (s == sp) * eye_m - coefficient * lam * phase(
                s - sp
            ) * down_up(("w", sp), ("w", s))
            res[f"eq6o[s={s},s'={sp}]"] = float(np.linalg.norm(lhs - rhs))
    return res


class TestBuild:
    def test_dimensions(self):
        sys4 = _system(4, 6)
        assert sys4.dims == [1, 3, 8, 21, 55, 144, 377]
        assert sys4.total_dimension == 609
        sys3 = _system(3, 6)
        assert sys3.dims == [1, 2, 3, 4, 5, 6, 7]
        assert sys3.total_dimension == 28

    def test_construction_is_clean(self):
        for n in (3, 4):
            sys = _system(n, 6)
            assert max(sys.idempotent_residuals) < 1e-12
            assert max(sys.rounding_magnitudes) == 0.0

    def test_frames_are_isometries(self):
        for n in (3, 4):
            sys = _system(n, 5)
            for k in range(6):
                B = sys.basis(k)
                assert B.shape == (n**k, sys.dims[k])
                gram = B.conj().T @ B
                assert np.linalg.norm(gram - np.eye(sys.dims[k])) < 1e-12

    def test_matches_central_idempotent(self):
        # The recursion must reproduce the evaluated projection exactly.
        for n in (3, 4):
            sys = _system(n, 5)
            pair = _pair(n)
            for k in (1, 2, 3):
                G = sys.projection(k)
                GJ = evaluate_element(pair, jones_wenzl(k, pair.lam))
                assert np.linalg.norm(G - GJ) < 1e-10, (n, k)

    def test_ranks_and_gaps(self):
        for n, expected in ((3, [1, 2, 3, 4, 5]), (4, [1, 3, 8, 21, 55])):
            sys = _system(n, 5)
            for k, want in enumerate(expected):
                rank, gap = projection_rank(sys, k)
                assert rank == want == dim_subproduct(n, k)
                assert gap >= 1e3

    def test_matches_ambient_recursion(self):
        # A diagonal unitary turns the real n = 4 pair into a complex one,
        # which separates V from its transpose and conjugate.
        real = _pair(4)
        u = np.exp(1j * np.array([0.3, 1.1, -0.7, 2.0]))
        rotated = MotzkinPair(n=4, lam=real.lam, a=real.a * u * u[::-1], b=real.b * u)
        cases = [
            (_pair(3), 5),
            (real, 5),
            (rotated, 4),
            (build_example_pair("iii", 5, 2, Fraction(1, 5)), 4),
        ]
        for pair, levels in cases:
            sys = build_subproduct(pair, levels)
            for k, P in enumerate(_ambient_projections(pair, levels)):
                assert np.linalg.norm(sys.projection(k) - P) < 1e-12, (pair.n, k)

    def test_stores_compressed_frames_only(self):
        # Until a frame is asked for, nothing stored is taller than n d_4.
        sys = build_subproduct(_pair(4), 5)
        rows = []
        for value in vars(sys).values():
            if isinstance(value, (list, dict)):
                items = value.values() if isinstance(value, dict) else value
                rows += [a.shape[0] for a in items if isinstance(a, np.ndarray)]
        assert max(rows) == 4 * sys.dims[4]
        assert sys.basis(5).shape == (4**5, 144)

    @pytest.mark.slow
    def test_level_seven(self):
        sys = build_subproduct(_pair(4), 7)
        assert sys.dims[-1] == 987
        assert max(sys.idempotent_residuals) < 1e-12
        assert toeplitz_residuals(sys).ok

    def test_coassociativity(self):
        for n in (3, 4):
            res = coassociativity_residuals(_system(n, 5), 4)
            assert res
            assert max(res.values()) < 1e-10

    def test_level_bounds(self):
        sys = _system(4, 5)
        with pytest.raises(ParameterError):
            sys.basis(6)
        with pytest.raises(ParameterError):
            sys.compressed_projection(0)
        with pytest.raises(LimitError):
            _system(4, 6).projection(6)  # 4**6 above the full-matrix cap
        with pytest.raises(ParameterError):
            build_subproduct(_pair(4), -1)

    def test_pair_level_entry_points(self):
        # The one-shot functions accept a bare pair or a built system.
        pair = _pair(4)
        sys = _system(4, 5)
        for k in (1, 2, 3):
            assert np.allclose(subproduct_projection(pair, k), sys.projection(k))
            assert np.allclose(subproduct_projection(sys, k), sys.projection(k))
        B1 = orthonormal_basis(pair, 1)
        assert B1.shape == (4, 3)
        assert np.abs(B1.conj().T @ pair.b).max() < 1e-12
        assert np.allclose(orthonormal_basis(sys, 2), sys.basis(2))


class TestOperatorFamily:
    def test_structure(self):
        fam4 = operator_family(_pair(4))
        assert fam4.labels == ["w1", "v2", "v3"]
        assert fam4.j_list == [1, 4] and fam4.interior == [2, 3]
        w1 = fam4.vector("w", 1)
        assert np.allclose(w1, [-(2**-0.5), 0.0, 0.0, 2**-0.5])
        fam3 = operator_family(_pair(3))
        assert fam3.labels == ["v1", "v3"]
        assert fam3.r == 0 and fam3.interior == [1, 3]

    def test_orthonormal_and_perp_to_b(self):
        for n in (3, 4):
            pair = _pair(n)
            fam = operator_family(pair)
            gram = fam.vectors @ fam.vectors.conj().T
            assert np.linalg.norm(gram - np.eye(n - 1)) < 1e-12
            assert np.abs(fam.vectors @ pair.b.conj()).max() < 1e-12

    def test_rejects_nonstandard_b(self):
        pair = _pair(4)
        twisted = MotzkinPair(
            n=4,
            lam=pair.lam,
            a=pair.a,
            b=np.array([2**-0.5, 0.0, 0.0, -(2**-0.5)], dtype=complex),
        )
        with pytest.raises(ParameterError):
            operator_family(twisted)


class TestToeplitzRelations:
    def test_residuals(self):
        for n in (3, 4):
            rep = toeplitz_residuals(_system(n, 5))
            assert rep.ok
            assert rep.max_residual < 1e-9
            assert rep.skipped == ["eq2[m=5]"]
            assert any("skipped (truncation)" in line for line in rep.lines())

    def test_label_coverage(self):
        rep4 = toeplitz_residuals(_system(4, 5))
        labels = set(rep4.residuals)
        assert "eq1[levels]" in labels and "eq1[weight]" in labels
        assert {f"eq2[m={m}]" for m in range(5)} <= labels
        assert {f"eq3[m={m}]" for m in range(4)} <= labels
        assert "eq4[i=2,j=3,m=1]" in labels
        assert "eq5[j=2,s=1,m=0]" in labels
        assert "eq6[s=1,s'=1,m=4]" in labels
        # the n = 3 family has no orbit directions, hence no w-relations
        rep3 = toeplitz_residuals(_system(3, 5))
        assert not any(lbl.startswith(("eq5", "eq6")) for lbl in rep3.residuals)
        assert "eq4[i=1,j=3,m=2]" in rep3.residuals

    def test_toeplitz_matrix_blocks(self):
        sys = _system(4, 4)
        fam = operator_family(_pair(4))
        S = sys.toeplitz_matrix(fam.vectors[0])
        offs = sys.level_offsets()
        blk = S[offs[2] : offs[3], offs[1] : offs[2]]
        assert np.allclose(blk, sys.creation_blocks(fam.vectors[0])[1])
        # strictly level-raising
        assert np.linalg.norm(gauge_average(sys, S)) == 0.0

    def test_gauge_average(self):
        sys = _system(3, 4)
        D = sys.total_dimension
        rng = np.random.default_rng(7)
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        avg = gauge_average(sys, X)
        offs = sys.level_offsets()
        for m in range(sys.levels + 1):
            sl = slice(offs[m], offs[m + 1])
            assert np.allclose(avg[sl, sl], X[sl, sl])
        assert abs(np.linalg.norm(avg) ** 2 + np.linalg.norm(X - avg) ** 2
                   - np.linalg.norm(X) ** 2) < 1e-8
        with pytest.raises(ParameterError):
            gauge_average(sys, np.eye(3))


class TestWords:
    def test_absorption(self):
        # A word applied to the vacuum is the compressed elementary tensor.
        for n in (3, 4):
            sys = _system(n, 4)
            fam = operator_family(_pair(n))
            count = len(fam.labels)
            for k in (1, 2, 3):
                psi = word_vectors(sys, fam, k)
                B = sys.basis(k)
                for col in range(count**k):
                    word, rest = [], col
                    for _ in range(k):
                        word.append(rest // count ** (k - len(word) - 1) % count)
                        rest %= count ** (k - len(word))
                    tensor = np.ones(1, dtype=complex)
                    for letter in word:
                        tensor = np.kron(tensor, fam.vectors[letter])
                    assert np.linalg.norm(psi[:, col] - B.conj().T @ tensor) < 1e-10

    def test_matrix_unit_dimensions(self):
        for n, squares in ((4, [1, 9, 64, 441]), (3, [1, 4, 9, 16])):
            sys = _system(n, 4)
            for k, want in enumerate(squares):
                rep = matrix_unit_dimension(sys, k)
                assert rep.ok
                assert rep.measured == want
                assert rep.rank == sys.dims[k]


class TestReverseIdentity:
    def test_constants_and_residuals(self):
        sys3 = _system(3, 5)
        rep = reverse_identity(sys3, 2)
        assert rep.constant == Fraction(1, 2)
        assert rep.residual < 1e-10
        sys4 = _system(4, 5)
        assert reverse_identity(sys4, 2).constant == Fraction(2, 3)
        for sys in (sys3, sys4):
            for k in (2, 3, 4):
                rep = reverse_identity(sys, k)
                assert rep.ok and rep.residual < 1e-10

    def test_closed_form(self):
        # The exact rational constant agrees with the two-sided ratio of
        # q-powers; at the boundary parameter q = 1 it is lam (k+1)/k.
        for n in (3, 4):
            sys = _system(n, 5)
            for k in (2, 3, 4):
                rep = reverse_identity(sys, k)
                assert rep.closed_form_error < 1e-12, (n, k)
        assert reverse_identity(_system(3, 5), 2).closed_form == 0.5

    def test_bounds(self):
        with pytest.raises(ParameterError):
            reverse_identity(_system(3, 4), 0)
        with pytest.raises(ParameterError):
            reverse_identity(_system(3, 4), 5)


class TestIdealGenerator:
    def test_frozen_vectors(self):
        rep4 = ideal_generator(_system(4, 4))
        xi = rep4.vector.reshape(4, 4)
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 3] = -0.25
        want[0, 3] = want[3, 0] = 0.25
        want[1, 2] = want[2, 1] = 0.5
        assert np.linalg.norm(xi - want) < 1e-12
        assert abs(rep4.norm - np.sqrt(3) / 2) < 1e-12
        rep3 = ideal_generator(_system(3, 4))
        xi3 = rep3.vector.reshape(3, 3)
        want3 = np.zeros((3, 3))
        want3[0, 2] = want3[2, 0] = 3**-0.5
        assert np.linalg.norm(xi3 - want3) < 1e-12

    def test_checks_pass(self):
        for n in (3, 4):
            rep = ideal_generator(_system(n, 4))
            assert rep.ok
            assert max(rep.alignment, rep.annihilation, rep.complement) < 1e-10

    def test_accepts_bare_pair(self):
        from_pair = ideal_generator(_pair(4))
        from_system = ideal_generator(_system(4, 4))
        assert from_pair.ok
        assert np.allclose(from_pair.vector, from_system.vector)

    def test_needs_two_levels(self):
        with pytest.raises(ParameterError):
            ideal_generator(build_subproduct(_pair(3), 1))


class TestAsymptotics:
    def test_strictly_decreasing(self):
        sys = _system(4, 6)
        residuals = [cuntz_pimsner_residual(sys, m).residual for m in range(1, 5)]
        assert all(x > y for x, y in zip(residuals, residuals[1:]))

    def test_defect_rate(self):
        # At the boundary parameter the coefficient defect is 3/(m+1) and
        # the relation residual stays within a fixed multiple of it.
        sys = _system(3, 6)
        for m in range(1, 5):
            rep = cuntz_pimsner_residual(sys, m)
            assert abs(rep.defect - 3.0 / (m + 1)) < 1e-12
            assert rep.ratio < 1.0
            assert rep.residual > 0

    def test_level_bounds(self):
        with pytest.raises(ParameterError):
            cuntz_pimsner_residual(_system(3, 4), 4)

    def test_partner_order_on_two_orbit_pairs(self):
        # With r = 2 there are three Fourier directions, so eq6 relates
        # distinct partners s != s'.
        sys = build_subproduct(build_example_pair("iii", 5, 2, Fraction(1, 5)), 4)
        rep = toeplitz_residuals(sys)
        assert rep.ok
        assert "eq6[s=1,s'=2,m=1]" in rep.residuals
        residuals = [cuntz_pimsner_residual(sys, m).residual for m in (1, 2, 3)]
        assert all(x > y for x, y in zip(residuals, residuals[1:]))

    def test_matches_reference_relations(self):
        # The limiting relations and the Toeplitz eq4-eq6 are the same
        # relations with coefficient phi_inf and phi(m) respectively.
        cases = [
            build_subproduct(_pair(4), 4),
            build_subproduct(build_example_pair("iii", 5, 2, Fraction(1, 5)), 4),
        ]
        for sys in cases:
            toeplitz = toeplitz_residuals(sys).residuals
            for m in range(1, sys.levels):
                got = cuntz_pimsner_residual(sys, m).residuals
                ref = _reference_limit_relations(sys, m, sys.phi.infinity)
                assert list(got) == list(ref)
                for label, value in ref.items():
                    assert abs(got[label] - value) <= 1e-14, (sys.pair.n, m, label)
                ref = _reference_limit_relations(sys, m, float(sys.phi(m)))
                for label, value in ref.items():
                    label = label.replace("o[", "[")[:-1] + f",m={m}]"
                    assert abs(toeplitz[label] - value) <= 1e-14, (sys.pair.n, label)
