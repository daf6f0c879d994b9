"""Tests for the subproduct system and its Toeplitz operators."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, strategies as st

from motzkin import fock
from motzkin.config import TOL_CHECK, TOL_TOEPLITZ
from motzkin.errors import LimitError, ParameterError, StructureError
from motzkin.fock import (
    build_subproduct,
    coassociativity_residuals,
    cuntz_pimsner_residual,
    ideal_generator,
    matrix_unit_dimension,
    operator_family,
    projection_rank,
    reverse_identity,
    subproduct_projection,
    toeplitz_residuals,
    word_vectors,
)
from motzkin.jones_wenzl import jones_wenzl
from motzkin.qpoly import PhiFunction, charge_characters, dim_subproduct
from motzkin.representation import (
    MotzkinPair,
    build_example_pair,
    evaluate_element,
    p_matrix,
    validate_pair,
)

QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)
_SRC = Path(fock.__file__).resolve().parents[1]


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


def _dense_hat(system, k):
    """The (n d_{k-1}) x d_k hat frame of level k, assembled dense in the
    dtype of its charge blocks ``system.frames[k]``; every other entry is
    zero."""
    n, below = system.pair.n, system.dims[k - 1]
    lower, upper = system.sectors[k - 1], system.sectors[k]
    parts = [(t, i, c, F) for t, slots in system.frames[k].items() for i, (c, F) in slots.items()]
    H = np.zeros((n, below, system.dims[k]), np.result_type(*(F for *_, F in parts)))
    for t, i, c, F in parts:
        H[i, lower[c], upper[t]] = F
    return H.reshape(n * below, -1)


def _eigh_add_level(self, k, a, b, blocks):
    """Reference level step, in place of `SubproductSystem._add_level`: form
    each charge block of G^ = (1 - b b^*) (x) 1 - phi(k) Z^* Z, symmetrise
    it, total its idempotent residual from G^2 - G, diagonalise it with
    eigh and keep the eigenvectors above 1/2, written as the blocks of
    ``frames``.  The blocks are derived from the sectors built so far, not
    from the plan ``blocks``, and the level's dimension is checked against
    `dim_subproduct`, not against chi."""
    n, d_k = self.pair.n, self.dims[k]
    d_next = dim_subproduct(n, k + 1)
    weights = np.array(self.charges)
    Q = np.eye(n) - np.outer(b, b.conj())
    lower = self.sectors[k]
    col_charges = np.repeat(
        np.array(list(lower), dtype=np.int64),
        [cols.stop - cols.start for cols in lower.values()],
        axis=0,
    )
    row_charges = (weights[:, None, :] + col_charges[None, :, :]).reshape(n * d_k, -1)
    order = np.lexsort(row_charges.T[::-1])
    ranked = row_charges[order]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    members = np.split(order, starts[1:])
    sizes = [rows.size for rows in members]

    phik = float(self.phi(k))
    if phik:
        H = _dense_hat(self, k).reshape(n, self.dims[k - 1], d_k)
        Z = (a.conj()[:, None, None] * H[::-1]).transpose(1, 0, 2)
        Z = Z.reshape(self.dims[k - 1], n * d_k)
    frame, sectors = {}, {}
    res2, found, drift, off_spectrum = 0.0, 0, 0.0, False
    kept_min, dropped_max = np.inf, 0.0
    for charge, rows in zip(map(tuple, ranked[starts].tolist()), members):
        slot, col = np.divmod(rows, d_k)
        G = Q[slot[:, None], slot] * (col[:, None] == col[None, :])
        if phik:
            below = self.sectors[k - 1].get(charge, slice(0, 0))
            Zb = Z[below, rows]
            G -= phik * (Zb.conj().T @ Zb)
        G = (G + G.conj().T) / 2.0
        res2 += float(np.linalg.norm(G @ G - G)) ** 2
        evals, vecs = np.linalg.eigh(G)
        snapped = np.round(evals)
        drift = max(drift, float(np.abs(evals - snapped).max(initial=0.0)))
        off_spectrum |= not ((snapped == 0.0) | (snapped == 1.0)).all()
        keep = evals > 0.5
        kept_min = min(kept_min, float(evals[keep].min(initial=np.inf)))
        dropped_max = max(dropped_max, float(evals[~keep].max(initial=0.0)))
        count = int(keep.sum())
        if count:
            kept = vecs[:, keep].astype(self.dtype)
            frame[charge] = {
                i: (tuple(np.subtract(charge, weights[i]).tolist()), kept[slot == i])
                for i in np.unique(slot).tolist()
            }
            sectors[charge] = slice(found, found + count)
        found += count
    res = float(np.sqrt(res2))
    if res > fock.TOL_CONSTRUCT and (drift > fock._SNAP_TOL or off_spectrum):
        raise fock._level_failure(
            self.pair,
            f"level {k + 1}: compressed projection has spectrum "
            f"away from {{0, 1}} (drift {drift:.3e})",
        )
    if found != d_next:
        raise fock._level_failure(
            self.pair,
            f"level {k + 1} basis: extracted {found} independent "
            f"directions, expected {d_next}",
        )
    self.idempotent_residuals.append(res)
    self.rounding_magnitudes.append(drift if res > fock.TOL_CONSTRUCT else 0.0)
    self.spectral_gaps.append(kept_min / dropped_max if dropped_max > 0 else np.inf)
    self.charge_block_sizes.append(sizes)
    self.dims.append(d_next)
    self.frames.append(frame)
    self.sectors.append(sectors)



def _eigh_build(pair, levels):
    """The system of ``pair`` to ``levels`` built by the eigh reference step."""
    with mock.patch.object(fock.SubproductSystem, "_add_level", _eigh_add_level):
        return build_subproduct(pair, levels)


def _build_verdict(build, pair, levels):
    """("built", the levels with recorded rounding) or ("refused", the
    StructureError text without its drift figure)."""
    try:
        system = build(pair, levels)
    except StructureError as err:
        return "refused", re.sub(r"drift [^)]*", "drift", str(err))
    return "built", [k for k, r in enumerate(system.rounding_magnitudes) if r > 0]


def _perturbed_pairs():
    """(label, pair): the four standard pairs off the pair conditions by
    eps d, d standard normal, added to a, to b on its support, or to both,
    three draws each, for eps = 1e-3, 1e-6 and 1e-9."""
    pairs = [
        _pair(4),
        build_example_pair("ii", 5, 1, Fraction(1, 5)),
        build_example_pair("iii", 5, 2, Fraction(1, 5)),
        _pair(3),
    ]
    for base in pairs:
        for eps in (1e-3, 1e-6, 1e-9):
            for seed in range(3):
                da, db = np.random.default_rng(seed).standard_normal((2, base.n))
                changes = {"a": base.a + eps * da, "b": base.b + eps * db * (base.b != 0)}
                for part in ("a", "b", "ab"):
                    pair = dataclasses.replace(base, **{x: changes[x] for x in part})
                    yield (base.n, eps, seed, part), pair


# The least spectral gap a level can be built with (`projection_rank`).
_GAP_FLOOR = (1 - fock._SNAP_TOL) / fock._SNAP_TOL


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


def _rotated_system(levels):
    """The rotated pair built to ``levels``, with the n = 4 family rotated
    along, v_j included: `operator_family` of the rotated pair has the same
    w_1 but keeps each v_j a coordinate vector."""
    system = build_subproduct(_rotated_pair4(), levels)
    fam4 = operator_family(_pair(4))
    system.family = dataclasses.replace(fam4, vectors=fam4.vectors * _ROTATION)
    return system


def _with_family(system, fam):
    """A fresh build of ``system``'s pair and levels whose family is ``fam``."""
    fresh = build_subproduct(system.pair, system.levels)
    fresh.family = fam
    return fresh


def _orthonormal_basis(pair, k):
    """The n^k x d_k isometry onto level k, from levels 0 .. k of the pair."""
    return build_subproduct(pair, k).basis(k)


def _interior(fam):
    """The 1-based coordinates off the orbit, one per "v" direction."""
    return [index for kind, index in fam.kinds if kind == "v"]


def _level_offsets(system):
    """Where each level starts in the truncated Fock space, and its end."""
    return np.concatenate([[0], np.cumsum(system.dims)]).tolist()


def _toeplitz_matrix(system, u):
    """Reference: the creation operator of u as one dense D x D matrix on
    the truncated Fock space, D = system.total_dimension."""
    offs = _level_offsets(system)
    D = system.total_dimension
    blocks = system.creation_blocks(u)
    S = np.zeros((D, D), dtype=np.result_type(float, *blocks))
    for k, blk in enumerate(blocks):
        S[offs[k + 1] : offs[k + 2], offs[k] : offs[k + 1]] = blk
    return S


def _reference_systems():
    """The systems of several reference comparisons: i n=3 and iii n=4 to
    level 5, iii n=5 r=2 to level 4, and the complex rotation of the n=4
    pair with the family rotated along."""
    pair5 = build_example_pair("iii", 5, 2, Fraction(1, 5))
    return [_system(3, 5), _system(4, 5), build_subproduct(pair5, 4), _rotated_system(5)]


@lru_cache(maxsize=None)
def _recursion_systems():
    """iii n=4 to level 7, ii n=5 to 5, iii n=5 r=2 to 4, i n=3 to 7,
    iii n=6 to 5 and the rotated n=4 pair to 5."""
    cases = [
        (_pair(4), 7),
        (build_example_pair("ii", 5, 1, Fraction(1, 5)), 5),
        (build_example_pair("iii", 5, 2, Fraction(1, 5)), 4),
        (_pair(3), 7),
        (build_example_pair("iii", 6, 1, Fraction(1, 8)), 5),
        (_rotated_pair4(), 5),
    ]
    return [build_subproduct(pair, levels) for pair, levels in cases]


def _ambient_coassociativity(system):
    """Reference: residuals of (G_p (x) 1) G_k = G_k and (1 (x) G_q) G_k = G_k
    on the ambient frames, for k = 2 .. min(4, K), K the largest built level
    with n^K <= 1024, and every split p + q = k, keyed (p, k) and (q, k).
    Each is taken on the frame: with G_k = B_k B_k^* and B_k an isometry,
    ||X G_k - G_k|| equals ||X B_k - B_k||."""
    n = system.pair.n
    kmax = min(system.levels, 4)
    while n**kmax > 1024:
        kmax -= 1
    bases = [system.basis(k) for k in range(kmax + 1)]
    out = {}
    for k in range(2, kmax + 1):
        B_k, d_k = bases[k], system.dims[k]
        for p in range(1, k):
            q = k - p
            B_p, B_q = bases[p], bases[q]
            X = B_k.reshape(n**p, n**q * d_k)
            out["left", p, k] = float(np.linalg.norm(B_p @ (B_p.conj().T @ X) - X))
            X = B_k.reshape(n**p, n**q, d_k)
            out["right", q, k] = float(np.linalg.norm(B_q @ (B_q.conj().T @ X) - X))
    return out


def _dense_coassociativity(system):
    """Reference: the residuals of `coassociativity_residuals` from the dense
    hat frames, for any frame blocks.  R_k is held as d_{k-1} x n x d_k:
    R_1 = B^_1, X_k = (1 (x) R_{k-1}) B^_k, R_k = (B^_{k-1}^* (x) 1) X_k, and
    left[k=k] = ||X_k - (B^_{k-1} (x) 1) R_k||."""
    n, dims = system.pair.n, system.dims
    R, out = _dense_hat(system, 1).reshape(1, n, dims[1]), {}
    for k in range(2, system.levels + 1):
        H = _dense_hat(system, k).reshape(n, dims[k - 1], dims[k])
        below = _dense_hat(system, k - 1).reshape(n, dims[k - 2], dims[k - 1])
        X = np.einsum("ajr,irs->iajs", R, H)
        R = np.einsum("iau,iajs->ujs", below.conj(), X)
        out[f"left[k={k}]"] = float(np.linalg.norm(X - np.einsum("iau,ujs->iajs", below, R)))
    return out


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
    for j in _interior(fam):
        for i in _interior(fam):
            lhs = blocks[("v", j)][m].conj().T @ blocks[("v", i)][m]
            rhs = (i == j) * eye_m - coefficient * np.conj(a[i - 1]) * a[
                j - 1
            ] * down_up(("v", bar(j)), ("v", bar(i)))
            res[f"eq4o[i={i},j={j}]"] = float(np.linalg.norm(lhs - rhs))
    for j in _interior(fam):
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
                assert gap >= _GAP_FLOOR

    def test_ranks_read_the_build(self, monkeypatch):
        # Rank and gap were recorded by the build; reading them runs no
        # eigensolver and no SVD.
        systems = [_system(3, 5), _system(4, 5), build_subproduct(_rotated_pair4(), 4)]

        def refuse(*args, **kwargs):
            raise AssertionError("a solver was called after the build")

        for solver in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(fock.np.linalg, solver, refuse)
        for sys in systems:
            for k in range(sys.levels + 1):
                rank, gap = projection_rank(sys, k)
                assert rank == sys.dims[k] and gap == sys.spectral_gaps[k] >= _GAP_FLOOR

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
        # One SVD per charge block gives the levels of one dense eigh on
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
        # projection B^_k B^_k^* is exactly zero between rows of different
        # charge.
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
                H = _dense_hat(sys, k)
                P = H @ H.conj().T
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

    def test_hat_frames_vanish_on_b(self):
        # The b rows of every hat frame are zero: H_k lies in H_1 (x) H_{k-1}.
        for sys in _recursion_systems():
            n, b = sys.pair.n, sys.pair.b
            for k in range(2, sys.levels + 1):
                H = _dense_hat(sys, k).reshape(n, sys.dims[k - 1], sys.dims[k])
                assert np.linalg.norm(np.tensordot(b.conj(), H, axes=(0, 0))) <= 1e-12, (n, k)

    def test_sector_sizes_follow_the_dimension_recursion(self):
        # chi_k, charge -> column count of sectors[k], satisfies
        # chi_{k+1} = chi_1 chi_k - chi_{k-1} exactly, the product being the
        # convolution of charges.
        for sys in _recursion_systems():
            chi = [
                {c: cols.stop - cols.start for c, cols in sectors.items()}
                for sectors in sys.sectors
            ]
            assert chi == list(islice(charge_characters(sys.charges), sys.levels + 1))
            for k in range(1, sys.levels):
                want = {}
                for c1, m1 in chi[1].items():
                    for c2, m2 in chi[k].items():
                        c = tuple(np.add(c1, c2).tolist())
                        want[c] = want.get(c, 0) + m1 * m2
                for c, m in chi[k - 1].items():
                    want[c] = want.get(c, 0) - m
                assert {c: m for c, m in want.items() if m} == chi[k + 1], (sys.pair.n, k)

    def test_perturbed_pair_verdicts(self):
        # iii n=4 off the pair conditions by d = eps (1, -0.5, 0.25, 0.75),
        # added to a, or to b on its support.  The b rows of the build
        # refuse the perturbed b at level 1.
        base = _pair(4)
        d = np.array([1.0, -0.5, 0.25, 0.75])

        def perturbed(eps):
            return {
                "b": dataclasses.replace(base, b=base.b + eps * d * (base.b != 0)),
                "a": dataclasses.replace(base, a=base.a + eps * d),
            }

        level = {"b": 1, "a": 2}
        for name, pair in perturbed(1e-3).items():
            with pytest.raises(
                StructureError,
                match=rf"^level {level[name]}: compressed projection has spectrum away from \{{0, 1\}}",
            ):
                build_subproduct(pair, 5)
        for name, pair in perturbed(1e-9).items():
            sys = build_subproduct(pair, 5)
            assert sys.dims == [1, 3, 8, 21, 55, 144]
            assert sys.rounding_magnitudes[level[name]] > 0, name

    def test_matches_eigh_reference(self):
        # One SVD per block against the form-and-eigh reference step: the same
        # levels, sectors and blocks, the same projections and battery values
        # to 1e-13, and every gap above the snap bound.
        for system in _reference_systems() + _relation_systems():
            pair, levels = system.pair, system.levels
            ref = _eigh_build(pair, levels)
            ref.family = system.family
            label = (pair.n, levels)
            assert system.dims == ref.dims, label
            assert system.sectors == ref.sectors, label
            assert system.charge_block_sizes == ref.charge_block_sizes, label
            for k in range(levels + 1):
                if pair.n**k <= 1024:
                    diff = np.linalg.norm(system.projection(k) - ref.projection(k))
                    assert diff <= 1e-13, (label, k)
            got, want = _battery(system), _battery(ref)
            got.update(coassociativity_residuals(system))
            want.update(coassociativity_residuals(ref))
            assert got.keys() == want.keys(), label
            for key, value in got.items():
                assert abs(value - want[key]) <= 1e-13, (label, key)
            assert min(system.spectral_gaps + ref.spectral_gaps) >= _GAP_FLOOR, label

    def test_perturbed_pairs_match_eigh_reference(self):
        # The build and the eigh reference accept and refuse the same
        # perturbed pairs, at the same level with the same text, and record
        # rounding at the same levels.  Every pair at eps = 1e-3 is refused
        # and none at 1e-9.
        verdicts = {}
        for label, pair in _perturbed_pairs():
            got = _build_verdict(build_subproduct, pair, 4)
            assert got == _build_verdict(_eigh_build, pair, 4), label
            verdicts.setdefault(label[1], []).append(got[0])
        assert set(verdicts[1e-3]) == {"refused"}
        assert set(verdicts[1e-9]) == {"built"}

    def test_gaps_clear_the_snap_bound(self):
        # Every gap the build records, at a clean level or at one it rounded
        # onto {0, 1}, is at least (1 - _SNAP_TOL) / _SNAP_TOL, so
        # `projection_rank` has no gap to refuse.
        systems, rounded = list(_recursion_systems()), 0
        for _, pair in _perturbed_pairs():
            try:
                system = build_subproduct(pair, 4)
            except StructureError:
                continue
            systems.append(system)
            rounded += max(system.rounding_magnitudes) > 0
        assert rounded
        for system in systems:
            assert min(system.spectral_gaps) >= _GAP_FLOOR, system.pair.n

    def test_refuses_a_block_off_the_character(self, monkeypatch):
        # Each block must keep chi_{k+1}(c) columns, not only the level d_k.
        true = fock.charge_characters

        def moved(charges):
            for k, chi in enumerate(true(charges)):
                yield {**chi, (0,): 1, (3,): 1} if k == 2 else chi

        monkeypatch.setattr(fock, "charge_characters", moved)
        with pytest.raises(
            StructureError, match=r"^level 2: charge \(0,\) keeps 2 directions, expected 1$"
        ):
            build_subproduct(_pair(4), 3)

    def test_arithmetic_follows_the_pair(self):
        assert _dense_hat(build_subproduct(_pair(4), 2), 2).dtype == np.float64
        assert _dense_hat(build_subproduct(_rotated_pair4(), 2), 2).dtype == np.complex128

    def test_creation_blocks_are_cached(self):
        # The family's sector blocks are read once per system, read-only, for
        # the relation checks; creation_blocks assembles fresh ones per call.
        sys = build_subproduct(_pair(4), 4)
        u = operator_family(_pair(4)).vectors[1]
        first, again = sys.creation_blocks(u), sys.creation_blocks(u.copy())
        assert all(x is not y and np.array_equal(x, y) for x, y in zip(first, again))
        cuts = sys._relations[1]
        assert cuts is sys._relations[1]
        for k, blk in enumerate(first):
            assert blk.flags.writeable and cuts[k][("v", 2)]
            for t, (c, A) in cuts[k][("v", 2)].items():
                assert not A.flags.writeable
                assert np.array_equal(A.conj().T, blk[sys.sectors[k + 1][t], sys.sectors[k][c]])
        H = _dense_hat(sys, 3).reshape(4, sys.dims[2], sys.dims[3])
        assert np.allclose(first[2], np.tensordot(u.conj(), H, axes=(0, 0)).conj().T)

    def test_size_guard(self, monkeypatch):
        # The count for level 4 of the n = 4 pair, from chi alone: the
        # frames of levels 1 .. 4 (4 + 22 + 122 + 714 = 862 entries,
        # sum_t rows_t chi_j(t) each, and 4 + 12 + 20 + 28 = 64 block slots
        # of 800 bytes), and the largest of the charge blocks
        # [1, 5, 11, 16, 18, 16, 11, 5, 1], 18 rows under M of 5 + 2 rows:
        # 2 * 18^2 + 3 * 7 * 18 + 6 * 7^2 = 1320 entries.  With 8 bytes an
        # entry and 1.375 MiB for the first SVD that is 1510448 bytes; a complex
        # pair of the same shape counts 16 bytes an entry.  A refused count
        # builds no level.
        def refuse(*args):
            raise AssertionError("a level was built past the size check")

        need = 8 * (862 + 1320) + 800 * 64 + 11 * 2**17
        assert fock._plan_levels(fock._charge_weights(_pair(4)), 4, 8)[1] == need == 1510448
        monkeypatch.setattr(fock, "FOCK_MAX_BYTES", need - 1)
        with monkeypatch.context() as m:
            m.setattr(fock.SubproductSystem, "_add_level", refuse)
            with pytest.raises(
                LimitError,
                match=r"^level 4 would hold about 1 MiB \(hat frame 84 x 55, 9 charge "
                r"blocks of up to 18 rows\), above the bound 1 MiB$",
            ):
                build_subproduct(_pair(4), 5)
        monkeypatch.setattr(fock, "FOCK_MAX_BYTES", need)
        with pytest.raises(LimitError, match="^level 5 would hold"):
            build_subproduct(_pair(4), 5)
        assert build_subproduct(_pair(4), 4).dims[-1] == 55
        with pytest.raises(LimitError, match="^level 4 would hold"):
            build_subproduct(_rotated_pair4(), 4)
        monkeypatch.setattr(fock, "FOCK_MAX_BYTES", need + 8 * (862 + 1320))
        assert build_subproduct(_rotated_pair4(), 4).dims[-1] == 55

    def test_level_count_refused_before_level_one(self, monkeypatch):
        # Levels 12 of the n = 4 pair are refused at level 10, by the count
        # from chi, before any level is built.  On i n = 3 the frames stay
        # tiny, d_k = k + 1, but each level k adds 3 k block slots
        # of Python objects: the count refuses level 666.
        def refuse(*args):
            raise AssertionError("a level was built past the size check")

        monkeypatch.setattr(fock.SubproductSystem, "_add_level", refuse)
        with pytest.raises(
            LimitError,
            match=r"^level 10 would hold about 801 MiB \(hat frame 27060 x 17711, "
            r"21 charge blocks of up to 3624 rows\), above the bound 512 MiB$",
        ):
            build_subproduct(_pair(4), 12)
        with pytest.raises(
            LimitError,
            match=r"^level 666 would hold about 513 MiB \(hat frame 1998 x 667, "
            r"1333 charge blocks of up to 2 rows\), above the bound 512 MiB$",
        ):
            build_subproduct(_pair(3), 100000)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_size_count_bounds_measured_growth(self):
        # In a fresh process with one BLAS thread, the count for the last
        # level lies between the peak RSS growth of the build and 1.5 times
        # it.  tracemalloc would not see LAPACK's workspace.  The peak is
        # VmHWM: a child's ru_maxrss starts at its parent's peak.
        script = textwrap.dedent(
            """
            import json, sys
            from fractions import Fraction
            from motzkin import fock
            from motzkin.representation import build_example_pair

            def peak():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))

            family, n, levels = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
            pair = build_example_pair(family, n, 1, Fraction(1, n))
            estimate = fock._plan_levels(fock._charge_weights(pair), levels, 8)[1]
            before = peak()
            fock.build_subproduct(pair, levels)
            print(json.dumps([1024 * (peak() - before), estimate]))
            """
        )
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {**os.environ, **dict.fromkeys(threads, "1")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
        for family, n, levels in [("iii", 4, 7), ("iii", 4, 8), ("ii", 5, 5), ("ii", 5, 6)]:
            out = subprocess.run(
                [sys.executable, "-c", script, family, str(n), str(levels)],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            growth, estimate = json.loads(out)
            assert growth <= estimate <= 1.5 * growth, (family, n, levels, growth, estimate)

    def test_stores_compressed_frames_only(self):
        # Each frame is stored once, as its charge blocks: every coordinate
        # direction's block in the relation set-up is a read-only view of
        # the frame, and after the subproduct-axiom check, the ideal
        # generator and ambient projections and frames, nothing the system
        # holds, the set-up included, is taller than its largest charge
        # block.  The rotated pair is given the n = 4 family, whose v
        # directions are coordinate vectors, on its complex frames.
        fam4 = operator_family(_pair(4))
        for system in _recursion_systems():
            sys = build_subproduct(system.pair, system.levels)
            if sys.pair.dtype.kind == "c":
                sys.family = fam4
            coassociativity_residuals(sys)
            ideal_generator(sys)
            sys.projection(2)
            table, cuts = sys._relations
            for x in table:
                for k, cut in enumerate(cuts):
                    assert cut[x], (sys.pair.n, x, k)
                    for t, (_, A) in cut[x].items():
                        assert not A.flags.writeable
                        if x[0] == "v":
                            F = sys.frames[k + 1][t][x[1] - 1][1]
                            assert np.shares_memory(A, F), (sys.pair.n, x, k, t)
            rows = [a.shape[0] for a in _held_arrays(vars(sys)) if a.ndim]
            assert max(rows) <= max(map(max, sys.charge_block_sizes[1:])), sys.pair.n
        pair5 = build_example_pair("ii", 5, 1, Fraction(1, 5))
        for pair, levels, d in [(_pair(4), 5, 144), (pair5, 4, 209), (_pair(3), 5, 6)]:
            sys = build_subproduct(pair, levels)
            coassociativity_residuals(sys)
            ideal_generator(sys)
            sys.projection(2)
            assert sys.basis(levels).shape == (pair.n**levels, d)
            rows = [a.shape[0] for a in _held_arrays(vars(sys)) if a.ndim]
            assert max(rows) <= max(map(max, sys.charge_block_sizes[1:])), pair.n

    @pytest.mark.slow
    def test_level_eight(self):
        sys = build_subproduct(_pair(4), 8)
        assert sys.dims[-1] == 2584
        assert max(sys.idempotent_residuals) < 1e-12
        assert projection_rank(sys, 8)[0] == 2584
        assert toeplitz_residuals(sys).ok
        limits = [cuntz_pimsner_residual(sys, m).residual for m in range(1, 8)]
        assert all(x > y > 0 for x, y in zip(limits, limits[1:]))
        assert all(reverse_identity(sys, k).ok for k in range(1, 9))
        res = coassociativity_residuals(sys)
        assert list(res) == [f"left[k={k}]" for k in range(2, 9)]
        assert max(res.values()) < 1e-12

    @pytest.mark.slow
    def test_level_nine(self):
        # The count from chi admits level 9 (about 128 MiB) under the default
        # bound, and every relation and the subproduct axiom hold there.
        sys = build_subproduct(_pair(4), 9)
        assert sys.dims[-1] == 6765
        assert max(sys.idempotent_residuals) < 1e-12
        assert toeplitz_residuals(sys).ok
        limits = [cuntz_pimsner_residual(sys, m).residual for m in range(1, 9)]
        assert all(x > y > 0 for x, y in zip(limits, limits[1:]))
        assert all(reverse_identity(sys, k).ok for k in range(1, 10))
        assert all(matrix_unit_dimension(sys, k).ok for k in range(5))
        res = coassociativity_residuals(sys)
        assert list(res) == [f"left[k={k}]" for k in range(2, 10)]
        assert max(res.values()) < TOL_CHECK

    @pytest.mark.slow
    def test_level_eight_memory(self):
        # Each frame is stored once, as its charge blocks, and the family's
        # blocks are read off it: after the build and a cold battery the
        # system holds about 12.5 MiB (159.6 MiB with dense hat frames and
        # dense creation blocks).
        tracemalloc.start()
        try:
            sys = build_subproduct(_pair(4), 8)
            toeplitz_residuals(sys)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sys.dims[-1] == 2584
        assert held <= 24 * 2**20

    @pytest.mark.slow
    def test_level_seven(self):
        sys = build_subproduct(_pair(4), 7)
        assert sys.dims[-1] == 987
        assert max(sys.idempotent_residuals) < 1e-12
        assert toeplitz_residuals(sys).ok

    def test_coassociativity(self):
        for n in (3, 4):
            res = coassociativity_residuals(_system(n, 5))
            assert res
            assert max(res.values()) < 1e-10

    def test_coassociativity_levels(self):
        # One residual per built level k = 2 .. L, with no cap on n^k.
        pair6 = build_example_pair("iii", 6, 1, Fraction(1, 8))
        cases = [
            (build_subproduct(_pair(4), 3), 3),
            (_system(4, 6), 6),
            (build_subproduct(pair6, 4), 4),  # 6^4 = 1296
        ]
        for sys, levels in cases:
            res = coassociativity_residuals(sys)
            assert list(res) == [f"left[k={k}]" for k in range(2, levels + 1)]
            assert max(res.values()) < TOL_CHECK
        assert coassociativity_residuals(_system(4, 1)) == {}

    def test_coassociativity_matches_ambient(self):
        # left[k] equals the ambient left[p=k-1,k] wherever n^k <= 1024, and
        # every ambient residual, left or right, lies under
        # sqrt(sum_{j<=k} left[k=j]^2) up to round-off.
        for sys in _reference_systems() + _recursion_systems():
            res, label = coassociativity_residuals(sys), (sys.pair.n, sys.levels)
            bound = np.sqrt(np.cumsum([0.0, 0.0] + [v * v for v in res.values()]))
            ambient = _ambient_coassociativity(sys)
            assert ambient, label
            for (side, p, k), value in ambient.items():
                assert value <= bound[k] + 1e-13, (label, side, p, k)
                if side == "left" and p == k - 1:
                    assert abs(res[f"left[k={k}]"] - value) <= 1e-13, (label, k)

    def test_coassociativity_matches_dense_frames(self):
        # The sector-by-sector residuals equal the same products on the dense
        # hat frames: on the true frames, and on frames of random entries
        # with one slot block of level 2 dropped, so that a block of X_3 is
        # zero where B^_2 (x) 1 is not.
        rng = np.random.default_rng(1)
        for sys in _reference_systems():
            scrambled = _scrambled(sys, rng)
            slots = next(iter(scrambled.frames[2].values()))
            slots.pop(min(slots))
            for frames in (sys, scrambled):
                got, want = coassociativity_residuals(frames), _dense_coassociativity(frames)
                assert got.keys() == want.keys()
                for key, value in want.items():
                    assert abs(got[key] - value) <= 1e-13 * max(1.0, value), (sys.pair.n, key)

    def test_level_bounds(self, monkeypatch):
        sys = _system(4, 5)
        with pytest.raises(ParameterError):
            sys.basis(6)
        # The level projection has the dimension bound of every dense
        # operator on (C^n)^k.
        assert sys.projection(5).shape == (1024, 1024)
        monkeypatch.setenv("MOTZKIN_MAX_DIM", "1023")
        with pytest.raises(LimitError, match=r"n\*\*k = 1024 exceeds the configured bound 1023"):
            sys.projection(5)
        with pytest.raises(ParameterError):
            build_subproduct(_pair(4), -1)

    def test_pair_level_entry_points(self):
        # The one-shot functions build the levels they need from a pair.
        pair = _pair(4)
        sys = _system(4, 5)
        for k in (1, 2, 3):
            assert np.allclose(subproduct_projection(pair, k), sys.projection(k))
        B1 = _orthonormal_basis(pair, 1)
        assert B1.shape == (4, 3)
        assert np.abs(B1.conj().T @ pair.b).max() < 1e-12
        assert np.allclose(_orthonormal_basis(pair, 2), sys.basis(2))


def _uniform_pair(n, support, lam, theta=None, psi=0.0, shares=None):
    """A pair whose b is e^{i theta_j} / sqrt(m) on the m points of
    ``support`` (bar-closed, 0-based) and zero elsewhere, with a as the
    compatibility condition forces it on the support:
    sqrt(lam) e^{i (theta_j + theta_jbar - psi)}.  Off the support a takes
    the phase theta_i: sqrt(lam) on a middle point, and on each free orbit
    {i, ibar}, i < ibar, sqrt(y) on i and lam / sqrt(y) on ibar, y the larger
    root of y + lam^2 / y = budget.  The budgets split 1 - lam (m + 1 for a
    free middle point) in proportion to ``shares`` (even by default) above
    2 lam each; where that is impossible y = lam / 2, so that ||a|| > 1 and
    `validate_pair` refuses the pair."""
    lamf, m = float(lam), len(support)
    theta = np.zeros(n) if theta is None else np.asarray(theta, dtype=float)
    a, b = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    for j in support:
        b[j] = np.exp(1j * theta[j]) / np.sqrt(m)
        a[j] = np.sqrt(lamf) * np.exp(1j * (theta[j] + theta[n - 1 - j] - psi))
    middle = [(n - 1) // 2] if n % 2 and (n - 1) // 2 not in support else []
    for i in middle:
        a[i] = np.sqrt(lamf) * np.exp(1j * theta[i])
    free = [i for i in range(n // 2) if i not in support]
    shares = np.ones(len(free)) if shares is None else np.asarray(shares, dtype=float)
    total = 1 - lamf * (m + len(middle))
    spare = total - 2 * lamf * len(free)
    for i, share in zip(free, shares):
        y = lamf / 2
        if spare >= 0:
            budget = 2 * lamf + spare * share / shares.sum()
            y = (budget + np.sqrt(max(budget * budget - 4 * lamf * lamf, 0.0))) / 2
        a[i] = np.sqrt(y) * np.exp(1j * theta[i])
        a[n - 1 - i] = lamf / np.sqrt(y) * np.exp(1j * theta[i])
    return MotzkinPair(n=n, lam=Fraction(lam), a=a, b=b)


def _moved_pair(phase=0.0):
    """iii n=6 r=1 lam=1/8 with b moved to the orbit {1, 4} by a permutation
    that commutes with bar, and b's entries there times e^{+-i phase}."""
    pair = build_example_pair("iii", 6, 1, Fraction(1, 8))
    perm = [1, 0, 2, 3, 5, 4]
    b = pair.b[perm] * np.exp(1j * phase * np.array([0, 1, 0, 0, -1, 0]))
    return MotzkinPair(n=6, lam=pair.lam, a=pair.a[perm], b=b)


_NAMED_PAIRS = {
    "odd support n=5": lambda: _uniform_pair(5, [0, 2, 4], Fraction(1, 6)),
    "odd support n=7": lambda: _uniform_pair(7, [0, 3, 6], Fraction(1, 9)),
    "moved orbit": _moved_pair,
    "moved orbit with phases": lambda: _moved_pair(0.4),
    "signed b n=4": lambda: dataclasses.replace(_pair(4), b=np.array([1, 0, 0, -1]) / np.sqrt(2)),
    "phases r=2": lambda: _uniform_pair(
        5, [0, 1, 3, 4], Fraction(1, 5), theta=[0.4, -1.3, 0.0, 2.2, 0.9], psi=0.7
    ),
}

_LAMBDAS = [Fraction(1, d) for d in range(3, 11)] + [Fraction(2, 7), Fraction(2, 9), Fraction(3, 10)]


@st.composite
def _uniform_pairs(draw):
    """Pairs from `_uniform_pair` with n = 3 .. 7, a random bar-closed
    support (the middle point may belong to it), random phases, lam from a
    grid of rationals <= 1/3 and uneven free-orbit budgets; `validate_pair`
    refuses those whose budgets cannot be met."""
    n = draw(st.integers(3, 7))
    orbits = draw(st.sets(st.integers(0, (n - 1) // 2), min_size=1))
    support = sorted({j for i in orbits for j in (i, n - 1 - i)})
    angle = st.floats(-np.pi, np.pi)
    theta, psi = draw(st.lists(angle, min_size=n, max_size=n)), draw(angle)
    free = len([i for i in range(n // 2) if i not in orbits])
    shares = draw(st.lists(st.floats(0.1, 1.0), min_size=free, max_size=free))
    return _uniform_pair(n, support, draw(st.sampled_from(_LAMBDAS)), theta, psi, shares)


def _check_family_rule(system):
    """The family of ``system`` follows the rule: w_1 .. w_{m-1} on the m
    points of the support of b, then v_j off it; and the Toeplitz battery,
    the reverse identity, the ideal generator, the matrix units and the
    subproduct axiom pass at every built level."""
    pair, fam = system.pair, system.family
    support = [j + 1 for j in np.flatnonzero(np.abs(pair.b) > TOL_CHECK)]
    assert fam.j_list == support and fam.r == len(support) // 2
    off = [j for j in range(1, pair.n + 1) if j not in support]
    assert fam.kinds == [("w", s) for s in range(1, len(support))] + [("v", j) for j in off]
    assert toeplitz_residuals(system).ok
    for k in range(1, system.levels + 1):
        assert reverse_identity(system, k).ok
        assert matrix_unit_dimension(system, k).ok
    assert ideal_generator(system).ok
    assert max(coassociativity_residuals(system).values()) < TOL_CHECK


class TestOperatorFamily:
    def test_one_family_per_system(self, monkeypatch):
        system = build_subproduct(_pair(4), 4)
        fam = system.family
        assert system.family is fam and fam.kinds == operator_family(_pair(4)).kinds

        def refuse(*args, **kwargs):
            raise AssertionError("the family was computed again")

        monkeypatch.setattr(fock, "operator_family", refuse)
        toeplitz_residuals(system)
        cuntz_pimsner_residual(system, 2)
        reverse_identity(system, 3)
        matrix_unit_dimension(system, 2)
        ideal_generator(system)

    def test_exact_orbit_phases(self):
        # e^{2 pi i aexp / m} is exactly +-1 wherever m divides 2 aexp.
        cases = [(2, 1, -1), (2, -1, -1), (2, 2, 1), (4, 2, -1), (4, -4, 1), (3, 3, 1), (3, -6, 1),
                 (6, 3, -1), (1, 1, 1)]
        for m, aexp, sign in cases:
            phase = fock._orbit_phase(m, aexp)
            assert phase.real == sign and phase.imag == 0.0
        assert abs(fock._orbit_phase(4, 1) - 1j) < 1e-15
        assert abs(fock._orbit_phase(3, -1) - np.exp(-2j * np.pi / 3)) < 1e-15
        # So the m = 2 Fourier direction of the n = 4 pair is real.
        assert not operator_family(_pair(4)).vector("w", 1).imag.any()

    def test_structure(self):
        fam4 = operator_family(_pair(4))
        assert fam4.labels == ["w1", "v2", "v3"]
        assert fam4.j_list == [1, 4] and _interior(fam4) == [2, 3]
        w1 = fam4.vector("w", 1)
        assert np.allclose(w1, [-(2**-0.5), 0.0, 0.0, 2**-0.5])
        fam3 = operator_family(_pair(3))
        assert fam3.labels == ["v1", "v3"]
        assert fam3.r == 0 and _interior(fam3) == [1, 3]

    def test_orthonormal_and_perp_to_b(self):
        for n in (3, 4):
            pair = _pair(n)
            fam = operator_family(pair)
            gram = fam.vectors @ fam.vectors.conj().T
            assert np.linalg.norm(gram - np.eye(n - 1)) < 1e-12
            assert np.abs(fam.vectors @ pair.b.conj()).max() < 1e-12

    def test_rejects_nonuniform_modulus(self):
        # iii n=5 r=2 with |b| scaled by 1.2 on {0, 4} and renormalised on
        # {1, 3}: a valid pair, but the family needs |b| uniform.
        pair = build_example_pair("iii", 5, 2, Fraction(1, 5))
        b = np.array([0.6, np.sqrt(0.14), 0.0, np.sqrt(0.14), 0.6])
        uneven = dataclasses.replace(pair, b=b)
        assert validate_pair(uneven).ok
        with pytest.raises(ParameterError, match=r"^\|b\| is not uniform over its support$"):
            operator_family(uneven)
        # A support that bar does not preserve (never that of a valid pair).
        lopsided = dataclasses.replace(pair, b=np.eye(5)[0])
        with pytest.raises(ParameterError, match=r"^support of b is \[0\], not closed under bar$"):
            operator_family(lopsided)

    @pytest.mark.parametrize("name", sorted(_NAMED_PAIRS))
    def test_named_pairs(self, name):
        # Pairs off the standard families: the family follows the rule and
        # the whole battery passes at level 4, where the limiting residual
        # falls in m.
        pair = _NAMED_PAIRS[name]()
        assert validate_pair(pair).ok
        system = build_subproduct(pair, 4)
        _check_family_rule(system)
        limits = [cuntz_pimsner_residual(system, m).residual for m in (1, 2, 3)]
        assert limits[0] > limits[1] > limits[2], limits

    @given(pair=_uniform_pairs(), levels=st.integers(2, 3))
    def test_generated_pairs(self, pair, levels):
        # Every drawn pair that validate_pair accepts has a family, and the
        # whole battery passes on it.  The rejected share is shown by
        # --hypothesis-show-statistics.
        valid = validate_pair(pair).ok
        event("validate_pair accepts" if valid else "validate_pair refuses")
        assume(valid)
        _check_family_rule(build_subproduct(pair, levels))


def _reference_syzygy(system, fam):
    """Reference: eq3 at every level, the Fourier and the interior
    two-step compositions written out apart, each with its own weight."""
    n, a = system.pair.n, system.pair.a
    blocks = {
        kind: system.creation_blocks(fam.vectors[idx])
        for idx, kind in enumerate(fam.kinds)
    }
    a1 = a[fam.j_list[0] - 1] if fam.r else 0.0
    res = {}
    for m in range(system.levels - 1):
        acc = np.zeros((system.dims[m + 2], system.dims[m]), dtype=complex)
        for s in range(1, 2 * fam.r):
            wb = blocks[("w", s)]
            phase = complex(np.exp(2j * np.pi * -s / (2 * fam.r)))
            acc += a1 * phase * (wb[m + 1] @ wb[m])
        for j in _interior(fam):
            acc += a[j - 1] * (blocks[("v", j)][m + 1] @ blocks[("v", n + 1 - j)][m])
        res[f"eq3[m={m}]"] = float(np.linalg.norm(acc))
    return res


def _reference_reverse_residual(system, fam, k):
    """Reference: the reverse identity at level k - 1, each direction
    weighted by the squared a-modulus of the bar of its home coordinate."""
    pair = system.pair
    acc = np.zeros((system.dims[k - 1],) * 2, dtype=complex)
    for idx, (kind, label) in enumerate(fam.kinds):
        home = label if kind == "v" else fam.j_list[label - 1]
        bl = system.creation_blocks(fam.vectors[idx])[k - 1]
        acc += abs(pair.a[pair.n - home]) ** 2 * (bl.conj().T @ bl)
    lam = pair.lam
    constant = float(1 - lam - lam * lam * system.phi(k - 1))
    return float(np.linalg.norm(acc - constant * np.eye(system.dims[k - 1])))


def _reference_ideal_vector(pair, fam):
    """Reference: xi with the Fourier and the interior terms written out."""
    n, a = pair.n, pair.a
    xi = np.zeros(n * n, dtype=complex)
    if fam.r:
        a1 = a[fam.j_list[0] - 1]
        for s in range(1, 2 * fam.r):
            w = fam.vector("w", s)
            xi += a1 * complex(np.exp(2j * np.pi * -s / (2 * fam.r))) * np.kron(w, w)
    for j in _interior(fam):
        xi += a[j - 1] * np.kron(fam.vector("v", j), fam.vector("v", n + 1 - j))
    return xi


def _relation_systems():
    """i n=3 and iii n=4 (lam 1/4 and 1/5) to level 5, ii n=5 and
    iii n=5 r=2 to level 4."""
    return [
        _system(3, 5),
        _system(4, 5),
        build_subproduct(build_example_pair("iii", 4, 1, Fraction(1, 5)), 5),
        build_subproduct(build_example_pair("ii", 5, 1, Fraction(1, 5)), 4),
        build_subproduct(build_example_pair("iii", 5, 2, Fraction(1, 5)), 4),
    ]


class TestRelationTable:
    def test_weights_and_partners(self):
        # pi is an involution, and conj(alpha_x) alpha_{pi x} = lam is the
        # pairing condition of the pair for every direction.  The shifts of
        # x and pi x cancel, and w_s shifts by nothing.
        for system in _relation_systems():
            pair = system.pair
            fam = operator_family(pair)
            table = fock._relation_table(system, fam)
            assert list(table) == fam.kinds
            for x, (alpha, px, shift) in table.items():
                assert table[px][1] == x
                assert px == (x if x[0] == "w" else ("v", pair.n + 1 - x[1]))
                assert abs(np.conj(alpha) * table[px][0] - float(pair.lam)) <= 1e-15
                assert shift == tuple(-w for w in table[px][2])
                home = x[1] if x[0] == "v" else fam.j_list[0]
                assert shift == system.charges[home - 1]

    def test_matches_written_out_relations(self):
        # eq3, the reverse identity and xi against the weights written out
        # per kind of direction.
        for system in _relation_systems():
            fam = operator_family(system.pair)
            got = toeplitz_residuals(system).residuals
            for label, value in _reference_syzygy(system, fam).items():
                assert abs(got[label] - value) <= 1e-15, (system.pair.n, label)
            for k in range(1, system.levels + 1):
                ref = _reference_reverse_residual(system, fam, k)
                assert abs(reverse_identity(system, k).residual - ref) <= 1e-15
            ref = _reference_ideal_vector(system.pair, fam)
            assert np.abs(ideal_generator(system).vector - ref).max() <= 1e-15


def _held_arrays(obj):
    """Every array reachable from ``obj`` through dicts, lists and tuples,
    and the base of every view among them."""
    if isinstance(obj, np.ndarray):
        yield obj
        yield from _held_arrays(obj.base)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _held_arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _held_arrays(value)


def _complex_creation_blocks(system, u):
    """Reference: the creation blocks of u by the dense contraction of the
    hat frames copied to complex, whatever the dtypes of frame and vector."""
    n = system.pair.n
    u = np.asarray(u, dtype=complex).reshape(n)
    out = []
    for k in range(system.levels):
        H = _dense_hat(system, k + 1).reshape(n, system.dims[k], system.dims[k + 1])
        out.append(np.tensordot(u.conj(), H.astype(complex), axes=(0, 0)).conj().T)
    return out


def _complex_frames(system):
    """A fresh build of ``system`` with its family, every frame block copied
    to complex."""
    fresh = _with_family(system, system.family)
    fresh.frames = [
        {
            t: {i: (c, F.astype(complex)) for i, (c, F) in slots.items()}
            for t, slots in frame.items()
        }
        for frame in fresh.frames
    ]
    return fresh


def _scrambled(system, rng):
    """A fresh build of ``system``'s pair and levels whose every frame block
    is replaced by standard-normal entries of the same shape, before any
    relation check reads it."""
    fresh = build_subproduct(system.pair, system.levels)
    fresh.frames = [
        {
            t: {i: (c, rng.standard_normal(F.shape)) for i, (c, F) in slots.items()}
            for t, slots in frame.items()
        }
        for frame in fresh.frames
    ]
    return fresh


def _battery(system):
    """Every value of the Toeplitz and limiting relations, the reverse
    identity and the matrix units on a system, keyed by report and label."""
    rep = toeplitz_residuals(system)
    out = {("toeplitz", label): v for label, v in rep.residuals.items()}
    for m in range(1, system.levels):
        rep = cuntz_pimsner_residual(system, m)
        out.update({("limit", m, label): v for label, v in rep.residuals.items()})
    for k in range(1, system.levels + 1):
        rep = dataclasses.asdict(reverse_identity(system, k))
        out.update({("reverse", k, name): v for name, v in rep.items()})
    for k in range(min(system.levels, 4) + 1):
        rep = dataclasses.asdict(matrix_unit_dimension(system, k))
        out.update({("units", k, name): v for name, v in rep.items()})
    return out


def _dense_commutation_residuals(system, table, blocks, m, coefficient):
    """Reference: eq4 to eq6 at level m on the whole creation blocks, every
    ordered pair (x, y) formed on its own against a dense identity."""
    eye_m = np.eye(system.dims[m])
    v = [x for x in table if x[0] == "v"]
    w = [x for x in table if x[0] == "w"]
    relations = (
        [("eq4", f"i={y[1]},j={x[1]}", x, y) for x in v for y in v]
        + [("eq5", f"j={x[1]},s={y[1]}", x, y) for x in v for y in w]
        + [("eq6", f"s={y[1]},s'={x[1]}", x, y) for y in w for x in w]
    )
    for eq, index, x, y in relations:
        (alpha_x, px, _), (alpha_y, py, _) = table[x], table[y]
        lhs = blocks[x][m].conj().T @ blocks[y][m]
        rhs = (x == y) * eye_m
        if m:
            rhs = rhs - coefficient * np.conj(alpha_y) * alpha_x * (
                blocks[px][m - 1] @ blocks[py][m - 1].conj().T
            )
        yield eq, index, float(np.linalg.norm(lhs - rhs))


def _dense_relations(system):
    """Reference: the Toeplitz battery, the limiting relations and the
    reverse identity on the whole creation blocks, keyed by report, level
    and label."""
    N, fam = system.levels, system.family
    table = fock._relation_table(system, fam)
    blocks = {
        kind: system.creation_blocks(fam.vectors[idx])
        for idx, kind in enumerate(fam.kinds)
    }
    res = {}
    for m in range(1, N):
        lhs = sum(bl[m - 1] @ bl[m - 1].conj().T for bl in blocks.values())
        res[f"eq2[m={m}]"] = float(np.linalg.norm(lhs - np.eye(system.dims[m])))
    for m in range(N - 1):
        acc = sum(
            alpha * (blocks[x][m + 1] @ blocks[px][m]) for x, (alpha, px, _) in table.items()
        )
        res[f"eq3[m={m}]"] = float(np.linalg.norm(acc))
    for m in range(N):
        for eq, index, value in _dense_commutation_residuals(
            system, table, blocks, m, float(system.phi(m))
        ):
            res[f"{eq}[{index},m={m}]"] = value
    out = {("toeplitz", label): value for label, value in res.items()}
    for m in range(1, N):
        for eq, index, value in _dense_commutation_residuals(
            system, table, blocks, m, system.phi.infinity
        ):
            out["limit", m, f"{eq}o[{index}]"] = value
    lam = system.pair.lam
    for k in range(1, N + 1):
        acc = sum(
            abs(table[px][0]) ** 2 * (blocks[x][k - 1].conj().T @ blocks[x][k - 1])
            for x, (_, px, _) in table.items()
        )
        constant = float(1 - lam - lam * lam * system.phi(k - 1))
        out["reverse", k] = float(
            np.linalg.norm(acc - constant * np.eye(system.dims[k - 1]))
        )
    return out


class TestChargeSectors:
    def test_sectors_match_dense_reference(self):
        # The per-sector products against the same relations on the whole
        # creation blocks: keys and order equal, values at round-off.  The
        # partner-closed parts {w1} and {v2, v3} of the n = 4 family leave
        # sectors that no direction reaches, where only the identity of a
        # relation is left.
        fam4 = operator_family(_pair(4))
        parts = [
            dataclasses.replace(fam4, kinds=fam4.kinds[:1], vectors=fam4.vectors[:1]),
            dataclasses.replace(fam4, kinds=fam4.kinds[1:], vectors=fam4.vectors[1:]),
        ]
        cases = (
            _reference_systems()
            + _relation_systems()
            + [_with_family(_system(4, 5), part) for part in parts]
        )
        for system in cases:
            got = {
                ("toeplitz", label): value
                for label, value in toeplitz_residuals(system).residuals.items()
            }
            for m in range(1, system.levels):
                residuals = cuntz_pimsner_residual(system, m).residuals
                got.update({("limit", m, label): value for label, value in residuals.items()})
            for k in range(1, system.levels + 1):
                got["reverse", k] = reverse_identity(system, k).residual
            reference = _dense_relations(system)
            assert list(got) == list(reference)
            for key, value in reference.items():
                assert abs(got[key] - value) <= 1e-13, (system.pair.n, key)

    def test_sectors_tile_levels(self):
        # Each level's sectors are nonempty column ranges, in charge order,
        # that tile 0 .. d_k, and each is labelled with the charge of its
        # frame columns.  Every creation block of every family direction
        # is exactly zero outside the blocks from sector c to sector
        # c + w_x: the per-sector sums rest on this.
        for system in _reference_systems() + _relation_systems():
            pair, fam = system.pair, system.family
            weights = np.array(system.charges)
            for k, sectors in enumerate(system.sectors):
                assert list(sectors) == sorted(sectors)
                bounds = [(cols.start, cols.stop) for cols in sectors.values()]
                assert bounds[0][0] == 0 and bounds[-1][1] == system.dims[k]
                assert all(start < stop for start, stop in bounds)
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
                B, D = system.basis(k), _charge_operator(weights, k)
                charges = np.einsum("ij,ic,ij->jc", B.conj(), D, B).real
                labels = np.repeat(
                    np.array(list(sectors)), [stop - start for start, stop in bounds], axis=0
                )
                assert np.abs(charges - labels).max() < 1e-12, (pair.n, k)
            table = fock._relation_table(system, fam)
            for (x, (_, _, shift)), u in zip(table.items(), fam.vectors):
                for k, blk in enumerate(system.creation_blocks(u)):
                    allowed = np.zeros(blk.shape, dtype=bool)
                    for c, cols in system.sectors[k].items():
                        rows = system.sectors[k + 1].get(tuple(np.add(c, shift).tolist()))
                        if rows is not None:
                            allowed[rows, cols] = True
                    assert not blk[~allowed].any(), (pair.n, x, k)

    def test_rejects_a_direction_across_charges(self):
        # v_2 + v_3 on the n = 4 pair has support of charge +1 and -1; w_1
        # under the label v_2 has charge 0 against the -1 of its partner v_3.
        fam = operator_family(_pair(4))
        mixed, unpaired = fam.vectors.copy(), fam.vectors.copy()
        mixed[1] = (fam.vector("v", 2) + fam.vector("v", 3)) / np.sqrt(2)
        unpaired[1] = fam.vector("w", 1)
        cases = [
            (mixed, r"direction v2 spans the charges \[\(-1,\), \(1,\)\]"),
            (unpaired, "direction v2 and its partner v3 carry charges that do not cancel"),
        ]
        for vectors, message in cases:
            system = _with_family(_system(4, 5), dataclasses.replace(fam, vectors=vectors))
            for call in (
                lambda: toeplitz_residuals(system),
                lambda: cuntz_pimsner_residual(system, 2),
                lambda: reverse_identity(system, 3),
            ):
                with pytest.raises(ParameterError, match=message):
                    call()

    def test_battery_memory_per_sector(self):
        # With the creation blocks cached, the battery holds no product
        # larger than one sector block: at n = 4 levels 6 its tracemalloc
        # peak is about 0.3 D^2 bytes (D = 609).
        system = _system(4, 6)

        def battery():
            toeplitz_residuals(system)
            for m in range(1, system.levels):
                cuntz_pimsner_residual(system, m)
            for k in range(1, system.levels + 1):
                reverse_identity(system, k)

        battery()
        tracemalloc.start()
        try:
            battery()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < system.total_dimension**2 // 2


class TestToeplitzRelations:
    def test_residuals(self):
        for n in (3, 4):
            rep = toeplitz_residuals(_system(n, 5))
            assert rep.ok
            assert rep.max_residual < 1e-9
            assert rep.skipped == ["eq2[m=5]"]

    def test_label_coverage(self):
        rep4 = toeplitz_residuals(_system(4, 5))
        labels = set(rep4.residuals)
        assert not any(lbl.startswith("eq1") for lbl in labels)
        assert {lbl for lbl in labels if lbl.startswith("eq2")} == {
            f"eq2[m={m}]" for m in range(1, 5)
        }
        assert {f"eq3[m={m}]" for m in range(4)} <= labels
        assert "eq4[i=2,j=3,m=1]" in labels
        assert "eq5[j=2,s=1,m=0]" in labels
        assert "eq6[s=1,s'=1,m=4]" in labels
        # the n = 3 family has no orbit directions, hence no w-relations
        rep3 = toeplitz_residuals(_system(3, 5))
        assert not any(lbl.startswith(("eq5", "eq6")) for lbl in rep3.residuals)
        assert "eq4[i=1,j=3,m=2]" in rep3.residuals

    def test_every_residual_can_fail(self):
        # On frames of random entries, every subproduct-axiom, Toeplitz,
        # limiting and reverse residual exceeds its tolerance (TOL_TOEPLITZ
        # for the limiting ones, which have none of their own), and every
        # limiting residual moves off its value on the true frames by more
        # than that.  The only exceptions are the m = 0 eq4 and eq5 keys
        # between directions of different charge: S_x^* S_y takes the vacuum
        # to sector w_y - w_x of level 0, which is empty, so they hold by the
        # grading alone.
        rng, checked = np.random.default_rng(0), 0
        for system in _recursion_systems():
            try:
                operator_family(system.pair)
            except ParameterError:
                continue
            checked += 1
            n, scrambled = system.pair.n, _scrambled(system, rng)
            for label, value in coassociativity_residuals(scrambled).items():
                assert value > TOL_CHECK, (n, label, value)
            rep = toeplitz_residuals(scrambled)
            table = scrambled._relations[0]
            graded = {
                f"eq4[i={y[1]},j={x[1]},m=0]" if y[0] == "v" else f"eq5[j={x[1]},s={y[1]},m=0]"
                for x in table
                for y in table
                if x[0] == "v" and table[x][2] != table[y][2]
            }
            assert {rep.residuals[label] for label in graded} <= {0.0}
            for label, value in rep.residuals.items():
                assert label in graded or value > rep.tol, (n, label, value)
            for m in range(1, system.levels):
                true = cuntz_pimsner_residual(system, m).residuals
                for label, value in cuntz_pimsner_residual(scrambled, m).residuals.items():
                    moved = abs(value - true[label])
                    assert min(value, moved) > TOL_TOEPLITZ, (n, m, label, value)
            for k in range(1, system.levels + 1):
                rev = reverse_identity(scrambled, k)
                assert rev.residual > rev.tol, (n, k, rev.residual)
        assert checked == 6

    def test_battery_reads_creation_blocks_only(self):
        system = _system(4, 6)
        expected = toeplitz_residuals(system).residuals
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

    def test_battery_memory_on_real_blocks(self):
        # The real n = 4 pair has real directions, so the battery runs on
        # float64 blocks: with them cached it holds less than 6 D^2 bytes.
        system = _system(4, 6)
        toeplitz_residuals(system)
        tracemalloc.start()
        try:
            toeplitz_residuals(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * system.total_dimension**2

    def test_creation_blocks_of_a_real_frame(self):
        # A complex u against a real hat frame: the blocks are those of the
        # complex contraction, and the frame is never copied to complex.
        system = build_subproduct(_pair(4), 6)
        u = np.array([0.3, 0.5j, -0.2 + 0.1j, 0.7])
        for frame in system.frames:
            assert all(F.dtype == np.float64 for slots in frame.values() for _, F in slots.values())
        frames = [_dense_hat(system, k) for k in range(1, system.levels + 1)]
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

    def test_creation_blocks_of_a_real_frame_and_real_u(self):
        # A real u against a real hat frame: float64 blocks equal to the
        # complex contraction, with far less than a copy of the frame made.
        system = build_subproduct(_pair(4), 6)
        u = np.array([0.3, 0.5, -0.2, 0.7], dtype=complex)
        frames = [_dense_hat(system, k) for k in range(1, system.levels + 1)]
        tracemalloc.start()
        try:
            blocks = system.creation_blocks(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(blk.nbytes for blk in blocks)
        assert peak - stored < frames[-1].nbytes // 4
        for blk, reference in zip(blocks, _complex_creation_blocks(system, u)):
            assert blk.dtype == np.float64 and blk.shape == reference.shape
            assert np.abs(blk - reference).max() <= 1e-15

    def test_block_dtypes(self):
        # float64 exactly where both the frame and the direction are real.
        real = [
            _system(3, 5),
            _system(4, 5),
            build_subproduct(build_example_pair("ii", 5, 1, Fraction(1, 5)), 4),
        ]
        for system in real:
            fam = system.family
            for u in fam.vectors:
                assert {blk.dtype for blk in system.creation_blocks(u)} == {np.dtype(float)}
        system = build_subproduct(build_example_pair("iii", 5, 2, Fraction(1, 5)), 4)
        dtypes = {
            label: {blk.dtype for blk in system.creation_blocks(u)}
            for label, u in zip(system.family.labels, system.family.vectors)
        }
        c, f = {np.dtype(complex)}, {np.dtype(float)}
        assert dtypes == {"w1": c, "w2": f, "w3": c, "v3": f}
        system = _rotated_system(5)
        for u in system.family.vectors:
            assert {blk.dtype for blk in system.creation_blocks(u)} == c

    def test_creation_blocks_match_dense_contraction(self):
        # Assembled from the frames' charge blocks, against the contraction
        # of u with the whole dense hat frame: every family vector, a random
        # real and a random complex u, on every system of the recursion
        # tests.  float64 exactly where both the frame and u are real.
        rng = np.random.default_rng(7)
        for system in _recursion_systems():
            n = system.pair.n
            if system.dtype.kind == "c":
                family = operator_family(_pair(4)).vectors * _ROTATION
            else:
                family = operator_family(system.pair).vectors
            real_u, complex_u = rng.standard_normal(n), [1, 1j] @ rng.standard_normal((2, n))
            for u in [*family, real_u, complex_u]:
                real = system.dtype.kind == "f" and not np.imag(u).any()
                want = np.dtype(float if real else complex)
                blocks = system.creation_blocks(u)
                for blk, reference in zip(blocks, _complex_creation_blocks(system, u)):
                    assert blk.dtype == want and blk.shape == reference.shape
                    assert np.abs(blk - reference).max() <= 1e-15, n

    def test_real_blocks_match_complex_reference(self):
        # Every report built on the blocks, against the same report built
        # on frames copied to complex, so that every block is complex.  The
        # relation set-up is cached with the system, so the reference runs
        # on fresh builds.
        for system in _reference_systems() + _relation_systems():
            values = _battery(system)
            system = _complex_frames(system)
            reference = _battery(system)
            cuts = system._relations[1]
            blocks = [A for cut in cuts for views in cut.values() for _, A in views.values()]
            assert blocks and all(A.dtype == complex for A in blocks)
            assert list(values) == list(reference)
            for key, value in reference.items():
                assert abs(values[key] - value) <= 1e-13, (system.pair.n, key)

    def test_toeplitz_matrix_blocks(self):
        sys = _system(4, 4)
        fam = operator_family(_pair(4))
        S = _toeplitz_matrix(sys, fam.vectors[0])
        offs = _level_offsets(sys)
        blk = S[offs[2] : offs[3], offs[1] : offs[2]]
        assert np.allclose(blk, sys.creation_blocks(fam.vectors[0])[1])
        # strictly level-raising: every level-diagonal block vanishes
        for m in range(sys.levels + 1):
            assert not S[offs[m] : offs[m + 1], offs[m] : offs[m + 1]].any()


class TestWords:
    def test_absorption(self):
        # A word applied to the vacuum is the compressed elementary tensor:
        # on real families, on the complex w_s of iii n=5 r=2 against real
        # frames, and on the rotated family against complex frames.
        pair5 = build_example_pair("iii", 5, 2, Fraction(1, 5))
        for sys in (_system(3, 4), _system(4, 4), build_subproduct(pair5, 4), _rotated_system(4)):
            fam = sys.family
            count = len(fam.labels)
            for k in (1, 2, 3):
                psi = word_vectors(sys, k)
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
        pair5 = build_example_pair("iii", 5, 2, Fraction(1, 5))
        cases = (
            (_system(4, 4), [1, 9, 64, 441]),
            (_system(3, 4), [1, 4, 9, 16]),
            (build_subproduct(pair5, 4), [1, 16, 225, 3136]),
            (_rotated_system(4), [1, 9, 64, 441]),
        )
        for sys, squares in cases:
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
            build_subproduct(build_example_pair("ii", 5, 1, Fraction(1, 5)), 4),
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
