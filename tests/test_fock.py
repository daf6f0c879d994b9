"""Tests for the subproduct system and its Toeplitz operators."""

import dataclasses
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from motzkin import fock
from motzkin.errors import LimitError, ParameterError
from motzkin.fock import (
    build_subproduct,
    coassociativity_residuals,
    cuntz_pimsner_residual,
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


def _ungraded_frames(pair, levels):
    """Reference: the ambient frames from the ungraded recursion, one dense
    complex eigh of G^ on all of C^n (x) H_k per level."""
    n = pair.n
    Q = np.eye(n) - p_matrix(pair)
    V = pair.vA().reshape(n, n)
    phi = PhiFunction(pair.lam)
    hats, frames = [None], [np.ones((1, 1), dtype=complex)]
    dims = [1]
    for k in range(levels):
        d_k = dims[k]
        G = np.kron(Q, np.eye(d_k)).astype(complex)
        if phi(k):
            H = hats[k].reshape(n, dims[k - 1], d_k)
            Z = np.einsum("qts,jq->tjs", H, V.conj()).reshape(dims[k - 1], n * d_k)
            G -= float(phi(k)) * (Z.conj().T @ Z)
        evals, vecs = np.linalg.eigh((G + G.conj().T) / 2.0)
        hats.append(vecs[:, evals > 0.5])
        dims.append(hats[-1].shape[1])
        H = hats[-1].reshape(n, d_k, dims[-1])
        frames.append((frames[-1] @ H).reshape(-1, dims[-1]))
    return frames


def _projection_distance(B1, B2):
    """||B1 B1^* - B2 B2^*||_F for isometries, as the two one-sided
    residuals ||(1 - P_1) B_2|| and ||(1 - P_2) B_1||, free of the
    cancellation in 2 d - 2 ||B1^* B2||^2."""
    return float(
        np.hypot(
            np.linalg.norm(B2 - B1 @ (B1.conj().T @ B2)),
            np.linalg.norm(B1 - B2 @ (B2.conj().T @ B1)),
        )
    )


# A diagonal unitary turns the real n = 4 pair into a complex one, which
# separates V from its transpose and conjugate.
_ROTATION = np.exp(1j * np.array([0.3, 1.1, -0.7, 2.0]))


def _rotated_pair4():
    real = _pair(4)
    u = _ROTATION
    return MotzkinPair(n=4, lam=real.lam, a=real.a * u * u[::-1], b=real.b * u)


def _dense_grading_residuals(system, fam):
    """Reference: eq1[levels] and eq1[weight] on the dense D x D creation
    operators of the truncated Fock space, D = system.total_dimension."""
    n, N = system.pair.n, system.levels
    S_full = [system.toeplitz_matrix(v) for v in fam.vectors]
    offs = system.level_offsets()
    res = {}
    worst = 0.0
    for m in range(N + 1):
        rows = slice(offs[m], offs[m + 1])
        cols = slice(offs[m - 1], offs[m]) if m else slice(0, 0)
        for S in S_full:
            # E_m S - S E_{m-1}: row block m minus column block m - 1; the
            # block where the two strips cross cancels.
            top, side = S[rows].copy(), S[:, cols].copy()
            top[:, cols] = 0.0
            side[rows] = 0.0
            worst = max(worst, float(np.hypot(np.linalg.norm(top), np.linalg.norm(side))))
    res["eq1[levels]"] = worst
    weight = np.concatenate(
        [np.full(system.dims[m], 1.0 + 1.0 / ((1 + n) * (1 + m))) for m in range(N + 1)]
    )
    shifted = np.concatenate(
        [np.full(system.dims[m], 1.0 + 1.0 / ((1 + n) * (2 + m))) for m in range(N + 1)]
    )
    res["eq1[weight]"] = max(
        float(np.linalg.norm(weight[:, None] * S - S * shifted[None, :])) for S in S_full
    )
    return res


def _grading_cases():
    """(system, family) for the grading checks: i n=3 and iii n=4 to level 5,
    iii n=5 r=2 to level 4, and the complex rotation of the n=4 pair with
    the family rotated along."""
    fam4 = operator_family(_pair(4))
    rotated = dataclasses.replace(fam4, vectors=fam4.vectors * _ROTATION)
    pair5 = build_example_pair("iii", 5, 2, Fraction(1, 5))
    return [
        (_system(3, 5), operator_family(_pair(3))),
        (_system(4, 5), fam4),
        (build_subproduct(pair5, 4), operator_family(pair5)),
        (build_subproduct(_rotated_pair4(), 5), rotated),
    ]


def _charge_operator(weights, k):
    """The diagonal of the total charge on (C^n)^k, one column per charge
    coordinate."""
    n = weights.shape[0]
    total = np.zeros((n**k, weights.shape[1]))
    for slot in range(k):
        idx = np.arange(n**k) // n ** (k - 1 - slot) % n
        total += weights[idx]
    return total


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
        # The recursion must reproduce the evaluated projection exactly;
        # g_5 at n = 4 has 728 terms on 1024 x 1024.
        cases = [
            (_pair(3), 4),
            (_pair(4), 5),
            (build_example_pair("ii", 5, 1, Fraction(1, 5)), 4),
            (build_example_pair("iii", 5, 2, Fraction(1, 5)), 4),
        ]
        for pair, kmax in cases:
            sys = build_subproduct(pair, kmax)
            for k in range(1, kmax + 1):
                G = sys.projection(k)
                GJ = evaluate_element(pair, jones_wenzl(k, pair.lam))
                assert np.linalg.norm(G - GJ) < 1e-10, (pair.n, k)

    def test_ranks_and_gaps(self):
        for n, expected in ((3, [1, 2, 3, 4, 5]), (4, [1, 3, 8, 21, 55])):
            sys = _system(n, 5)
            for k, want in enumerate(expected):
                rank, gap = projection_rank(sys, k)
                assert rank == want == dim_subproduct(n, k)
                assert gap >= 1e3

    def test_matches_ambient_recursion(self):
        cases = [
            (_pair(3), 5),
            (_pair(4), 5),
            (_rotated_pair4(), 4),
            (build_example_pair("iii", 5, 2, Fraction(1, 5)), 4),
        ]
        for pair, levels in cases:
            sys = build_subproduct(pair, levels)
            for k, P in enumerate(_ambient_projections(pair, levels)):
                assert np.linalg.norm(sys.projection(k) - P) < 1e-12, (pair.n, k)

    def test_graded_matches_ungraded(self):
        # One eigh per charge block gives the levels of one dense eigh on
        # all of C^n (x) H_k: no free orbit (n = 5 with r = 2), one (n = 3,
        # n = 4 real and complex, n = 5 with r = 1) and two (n = 6).
        cases = [
            (_pair(3), 6),
            (_pair(4), 6),
            (_rotated_pair4(), 5),
            (build_example_pair("ii", 5, 1, Fraction(1, 5)), 4),
            (build_example_pair("iii", 5, 2, Fraction(1, 5)), 4),
            (build_example_pair("iii", 6, 1, Fraction(1, 8)), 4),
        ]
        for pair, levels in cases:
            sys = build_subproduct(pair, levels)
            frames = _ungraded_frames(pair, levels)
            assert sys.dims == [B.shape[1] for B in frames]
            for k, B in enumerate(frames):
                assert _projection_distance(sys.basis(k), B) < 1e-12, (pair.n, k)

    def test_charge_blocks(self):
        # Every frame column has a definite charge, and the compressed
        # projection is exactly zero between rows of different charge.
        w4 = np.array([[0], [1], [-1], [0]])
        w6 = np.array([[0, 0], [1, 0], [0, 1], [0, -1], [-1, 0], [0, 0]])
        cases = [
            (_pair(4), w4, 5),
            (_rotated_pair4(), w4, 5),
            (build_example_pair("iii", 6, 1, Fraction(1, 8)), w6, 3),
        ]
        for pair, weights, levels in cases:
            sys = build_subproduct(pair, levels)
            n = pair.n
            charges = []
            for k in range(levels + 1):
                B, D = sys.basis(k), _charge_operator(weights, k)
                c = np.rint(np.einsum("ij,ic,ij->jc", B.conj(), D, B).real)
                for col in range(weights.shape[1]):
                    assert np.linalg.norm(D[:, [col]] * B - B * c[:, col]) < 1e-12
                charges.append(c)
            for k in range(1, levels + 1):
                rows = (weights[:, None, :] + charges[k - 1][None]).reshape(n * sys.dims[k - 1], -1)
                off = (rows[:, None, :] != rows[None, :, :]).any(axis=2)
                P = sys.compressed_projection(k)
                assert off.any() and not P[off].any(), (n, k)
                sizes = np.unique(rows, axis=0, return_counts=True)[1]
                assert sorted(sys.charge_block_sizes[k]) == sorted(sizes), (n, k)
        # n = 4: the rows of C^4 (x) H_{k-1} carry the charges -k .. k,
        # listed in increasing order.
        assert build_subproduct(_pair(4), 3).charge_block_sizes == [
            [], [1, 2, 1], [1, 3, 4, 3, 1], [1, 4, 7, 8, 7, 4, 1]
        ]
        # Without a free orbit each level is one block.
        sys = build_subproduct(build_example_pair("iii", 5, 2, Fraction(1, 5)), 3)
        assert sys.charge_block_sizes == [[]] + [[5 * d] for d in sys.dims[:-1]]

    def test_arithmetic_follows_the_pair(self):
        assert build_subproduct(_pair(4), 2).hat_bases[2].dtype == np.float64
        assert build_subproduct(_rotated_pair4(), 2).hat_bases[2].dtype == np.complex128

    def test_creation_blocks_are_cached(self):
        sys = build_subproduct(_pair(4), 4)
        u = operator_family(_pair(4)).vectors[1]
        first, again = sys.creation_blocks(u), sys.creation_blocks(u.copy())
        assert all(x is y for x, y in zip(first, again))
        assert not first[2].flags.writeable
        H = sys.hat_bases[3].reshape(4, sys.dims[2], sys.dims[3])
        assert np.allclose(first[2], np.tensordot(u.conj(), H, axes=(0, 0)).conj().T)

    def test_size_guard(self, monkeypatch):
        # The estimate before level 4 of the real n = 4 pair, in entries of
        # 8 bytes: 1018 stored (hat frames 4 x 3, 12 x 8 and 32 x 21, and
        # projection blocks of squared sizes 6, 36 and 196), the hat frame
        # 84 x 55, the level-2 frame reordered to 8 x 84, the charge blocks
        # [1, 5, 11, 16, 18, 16, 11, 5, 1] (1130), and five 18 x 18
        # workspaces: 9060 entries.
        monkeypatch.setattr(fock, "FOCK_MAX_BYTES", 8 * 9060 - 1)
        with pytest.raises(
            LimitError,
            match=r"level 4 would hold about 0 MiB \(hat frame 84 x 55, 9 charge "
            r"blocks of up to 18 rows\), above the bound 0 MiB",
        ):
            build_subproduct(_pair(4), 5)
        monkeypatch.setattr(fock, "FOCK_MAX_BYTES", 8 * 9060)
        with pytest.raises(LimitError, match="level 5 would hold"):
            build_subproduct(_pair(4), 5)
        assert build_subproduct(_pair(4), 4).dims[-1] == 55

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
    def test_level_eight(self):
        sys = build_subproduct(_pair(4), 8)
        assert sys.dims[-1] == 2584
        assert max(sys.idempotent_residuals) < 1e-12
        assert projection_rank(sys, 8)[0] == 2584

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

    def test_grading_matches_dense_reference(self):
        # The block form reads eq1 off the creation blocks; the dense form
        # builds every D x D operator.  Both give exactly 0.
        for system, fam in _grading_cases():
            rep = toeplitz_residuals(system, fam)
            dense = _dense_grading_residuals(system, fam)
            assert list(rep.residuals)[:2] == ["eq1[levels]", "eq1[weight]"]
            for label, value in dense.items():
                assert repr(rep.residuals[label]) == repr(value) == "0.0", label

    def test_battery_reads_creation_blocks_only(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the battery built a dense Fock-space operator")

        system = _system(4, 6)
        expected = toeplitz_residuals(system).residuals
        monkeypatch.setattr(fock.SubproductSystem, "toeplitz_matrix", refuse)
        monkeypatch.setattr(fock.SubproductSystem, "level_offsets", refuse)
        # With the creation blocks cached, the battery holds less than one
        # dense operator on the D = 609 dimensional truncated Fock space.
        tracemalloc.start()
        try:
            rep = toeplitz_residuals(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.residuals == expected
        assert peak < 16 * system.total_dimension**2

    def test_creation_blocks_of_a_real_frame(self):
        # A complex u against a real hat frame: the blocks are those of the
        # complex contraction, and the frame is never copied to complex.
        system = build_subproduct(_pair(4), 6)
        u = np.array([0.3, 0.5j, -0.2 + 0.1j, 0.7])
        frames = system.hat_bases[1:]
        assert all(H.dtype == np.float64 for H in frames)
        tracemalloc.start()
        try:
            blocks = system.creation_blocks(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(blk.nbytes for blk in blocks)
        assert peak - stored < 16 * frames[-1].size
        for k, (H, blk) in enumerate(zip(frames, blocks)):
            H = H.reshape(4, system.dims[k], system.dims[k + 1]).astype(complex)
            reference = np.tensordot(u.conj(), H, axes=(0, 0)).conj().T
            assert blk.dtype == complex and blk.shape == reference.shape
            assert np.abs(blk - reference).max() <= 1e-15

    def test_toeplitz_matrix_blocks(self):
        sys = _system(4, 4)
        fam = operator_family(_pair(4))
        S = sys.toeplitz_matrix(fam.vectors[0])
        offs = sys.level_offsets()
        blk = S[offs[2] : offs[3], offs[1] : offs[2]]
        assert np.allclose(blk, sys.creation_blocks(fam.vectors[0])[1])
        # strictly level-raising: every level-diagonal block vanishes
        for m in range(sys.levels + 1):
            assert not S[offs[m] : offs[m + 1], offs[m] : offs[m + 1]].any()


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
