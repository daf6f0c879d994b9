"""Subproduct system and Toeplitz operators generated by a Motzkin pair.

The levelwise spaces H_k sit inside (C^n)^{(x) k}, and H_{k+1} sits inside
C^n (x) H_k.  Each level is therefore carried as a hat frame: an isometry
onto H_{k+1} inside C^n (x) H_k, written in the coordinates of the level
below.  All operator algebra happens in the compressed dimensions n d_k;
the n^k-sized ambient frames and projections are built only on request,
by `SubproductSystem.basis` and `SubproductSystem.projection` or, from a
bare pair, by `orthonormal_basis` and `subproduct_projection`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .config import (
    FOCK_MAX_BYTES,
    FULL_MATRIX_DIM,
    RANK_GAP,
    TOL_CHECK,
    TOL_CONSTRUCT,
    TOL_RANK,
    TOL_TOEPLITZ,
)
from .errors import LimitError, ParameterError, StructureError
from .qpoly import PhiFunction, dim_subproduct
from .representation import MotzkinPair, p_matrix, validate_pair

_SNAP_TOL = 1e-6


class SubproductSystem:
    """The levels H_k, k = 0 .. levels, in compressed coordinates.

    Stored after construction, for every level k >= 1:

    - ``hat_bases[k]``, the (n d_{k-1}) x d_k hat frame B^_k, an isometry
      onto H_k inside C^n (x) H_{k-1};
    - ``dims``, ``idempotent_residuals``, ``rounding_magnitudes``,
      ``spectral_gaps`` and ``charge_block_sizes``, recorded while the level
      is built (see below); ``projection_rank`` reads the gap from here;
    - ``sectors[k]``, the charge sectors of level k: the frame columns are
      written in charge order, so each charge is one column range, and
      the dict maps each charge (a tuple) to its slice, in charge order.

    The compressed projection itself is not kept.  No stored array has
    more than n d_{levels-1} rows.  The n^k x d_k ambient frame
    B_k = (1 (x) B_{k-1}) B^_k (``basis``) and the full projection
    B_k B_k^* (``projection``) are built on request; the frames are cached,
    and so are the creation blocks of every vector asked for.

    The recursion: conjugated into C^n (x) H_k, the level-(k+1) projection
    is

        G^ = (1 - P) (x) 1  -  phi(k) Y Y^*

    with P the rank-one projection onto the distinguished unit vector b and
    Y the compression of the pair vector acting on the two leftmost slots.
    Since H_k lies in C^n (x) H_{k-1} and B_{k-1} is an isometry, Y Y^*
    needs only B^_k: it is (V (x) 1) H^* H (V (x) 1)^*, where H is B^_k with
    its C^n slot moved to the columns, a d_{k-1} x (n d_k) matrix, and V is
    the pair vector as an n x n matrix.  The level-(k+1) frame is spanned by
    the eigenvectors of G^ with eigenvalue above 1/2.

    Charge grading: every bar-orbit {i, ibar} with i != ibar and b zero on
    both points carries its own U(1) charge, +1 on i and -1 on ibar; the
    other coordinates have charge 0.  Then 1 - P and V have charge 0 for
    every a, so G^ commutes with the total charge on C^n (x) H_k.  Every
    frame column has a definite charge, and G^ is formed and diagonalised
    one charge block at a time (a pair without free orbits is one block),
    in a single pass that keeps only the block in hand.  Its idempotent
    residual, spectral rounding and spectral gap (smallest eigenvalue
    above 1/2 over largest below) are those of the whole matrix; spectral
    rounding is recorded, and checked, only where the idempotent residual
    exceeds TOL_CONSTRUCT.  The arithmetic is in the pair's ``dtype``: real
    when a and b have no imaginary part, complex otherwise.  Before each
    level the bytes it needs (the hat frames so far, the new one, and the
    largest block with its eigensolver workspace) are estimated, and a
    level above FOCK_MAX_BYTES raises LimitError.

    A direction's creation operator is kept only as its blocks between
    consecutive levels (``creation_blocks``); no operator on the whole
    truncated Fock space is formed.  The blocks are float64 when the frames
    are real and the vector has no imaginary part, complex128 otherwise;
    every relation residual and word vector built from them keeps their
    dtype.  The operator family of the pair (``family``) is read off b on
    first use and kept.

    Each frame is fixed only up to a unitary on C^{d_k}.  Hat frames and
    creation blocks depend on that choice; projections, ranks, spectra and
    residuals do not.
    """

    def __init__(self, pair: MotzkinPair, levels: int):
        if levels < 0:
            raise ParameterError(f"need levels >= 0, got {levels}")
        n = pair.n
        self.pair = pair
        self.levels = levels
        self.phi = PhiFunction(pair.lam)
        self.dtype = pair.dtype
        self.dims: list[int] = [1]
        self.hat_bases: list[np.ndarray | None] = [None]
        self.idempotent_residuals: list[float] = [0.0]
        self.rounding_magnitudes: list[float] = [0.0]
        self.spectral_gaps: list[float] = [np.inf]
        self.charge_block_sizes: list[list[int]] = [[]]
        self._bases: dict[int, np.ndarray] = {0: np.ones((1, 1), dtype=self.dtype)}
        self._creation: dict[bytes, list[np.ndarray]] = {}

        a, b = pair.vectors()
        Q = np.eye(n) - np.outer(b, b.conj())
        weights = _charge_weights(pair)
        self.sectors: list[dict[tuple[int, ...], slice]] = [
            {(0,) * weights.shape[1]: slice(0, 1)}
        ]
        for k in range(levels):
            self._add_level(k, Q, a, weights)

    def _add_level(self, k: int, Q, a, weights) -> None:
        """Build level k + 1 from level k in one pass over the charge blocks:
        form each block, total its idempotent residual, diagonalise it and
        fill the hat frame from its eigenvectors above 1/2, in charge order.

        The rows of C^n (x) H_k are grouped by one stable sort of their
        charges, so each block lists its rows in increasing order."""
        n, d_k = self.pair.n, self.dims[k]
        d_next = dim_subproduct(n, k + 1)
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
        self._check_level_bytes(k + 1, d_next, sizes)

        phik = float(self.phi(k))
        if phik:
            # Z = H (V (x) 1)^*, so that Y Y^* = Z^* Z; V holds a_j at (j, jbar).
            H = self.hat_bases[k].reshape(n, self.dims[k - 1], d_k)
            Z = (a.conj()[:, None, None] * H[::-1]).transpose(1, 0, 2)
            Z = Z.reshape(self.dims[k - 1], n * d_k)
        hat = np.zeros((n * d_k, d_next), dtype=self.dtype)
        sectors = {}
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
            if found + count <= d_next:
                hat[rows, found : found + count] = vecs[:, keep]
            if count:
                sectors[charge] = slice(found, found + count)
            found += count
        res = float(np.sqrt(res2))
        if res > TOL_CONSTRUCT and (drift > _SNAP_TOL or off_spectrum):
            raise _level_failure(
                self.pair,
                f"level {k + 1}: compressed projection has spectrum "
                f"away from {{0, 1}} (drift {drift:.3e})",
            )
        if found != d_next:
            raise _level_failure(
                self.pair,
                f"level {k + 1} basis: extracted {found} independent "
                f"directions, expected {d_next}",
            )
        self.idempotent_residuals.append(res)
        self.rounding_magnitudes.append(drift if res > TOL_CONSTRUCT else 0.0)
        self.spectral_gaps.append(kept_min / dropped_max if dropped_max > 0 else np.inf)
        self.charge_block_sizes.append(sizes)
        self.dims.append(d_next)
        self.hat_bases.append(hat)
        self.sectors.append(sectors)

    def _check_level_bytes(self, k: int, d_k: int, sizes: list[int]) -> None:
        """Refuse level k when the system with it would exceed FOCK_MAX_BYTES:
        the hat frames stored so far, the level's own hat frame, the
        level-(k-1) frame reordered for the Y Y^* term, and five arrays the
        size of the largest block (the block itself, the eigensolver's copy,
        eigenvectors and workspace, and the temporaries of its idempotent
        residual).  Only one block is alive at a time."""
        hats = [0] + [h.size for h in self.hat_bases[1:]]
        rows = sum(sizes)
        entries = (
            sum(hats)
            + hats[-1]  # the frame below, reordered as Z
            + rows * d_k
            + 5 * max(sizes) ** 2
        )
        need = entries * self.dtype.itemsize
        if need > FOCK_MAX_BYTES:
            raise LimitError(
                f"level {k} would hold about {need / 2**20:.0f} MiB "
                f"(hat frame {rows} x {d_k}, {len(sizes)} charge blocks of up "
                f"to {max(sizes)} rows), above the bound "
                f"{FOCK_MAX_BYTES / 2**20:.0f} MiB"
            )

    # -- frames and projections ------------------------------------------

    def basis(self, k: int) -> np.ndarray:
        """The n^k x d_k isometry onto level k, built on first use."""
        self._check_level(k)
        if k not in self._bases:
            H = self.hat_bases[k].reshape(self.pair.n, self.dims[k - 1], self.dims[k])
            self._bases[k] = (self.basis(k - 1) @ H).reshape(-1, self.dims[k])
        return self._bases[k]

    def projection(self, k: int) -> np.ndarray:
        """The full n^k x n^k orthogonal projection onto level k."""
        self._check_level(k)
        n = self.pair.n
        if n**k > FULL_MATRIX_DIM:
            raise LimitError(
                f"full projection at level {k} has size n**k = {n ** k}, "
                f"above the cap {FULL_MATRIX_DIM}"
            )
        B = self.basis(k)
        return B @ B.conj().T

    def _check_level(self, k: int) -> None:
        if not 0 <= k <= self.levels:
            raise ParameterError(
                f"level {k} outside the built range 0..{self.levels}"
            )

    @cached_property
    def family(self) -> OperatorFamily:
        """The operator family of the pair, computed on first use."""
        return operator_family(self.pair)

    # -- Fock-space bookkeeping ------------------------------------------

    @property
    def total_dimension(self) -> int:
        return sum(self.dims)

    # -- creation operators ----------------------------------------------

    def creation_blocks(self, u: np.ndarray) -> list[np.ndarray]:
        """Blocks of the creation operator of u: level k -> level k + 1.

        Block k is d_{k+1} x d_k; in level coordinates the operator sends
        xi to the compression of u (x) xi, that is B^_{k+1}^* (u (x) xi).
        The frames never change after the build, so the blocks of each
        vector are computed once and cached; they are read-only.  A real
        frame is never copied to complex: against a real u (imaginary part
        exactly zero) its blocks are float64, and against a complex u the
        real and imaginary parts of u are contracted with it apart.  A
        complex frame gives complex128 blocks.
        """
        n = self.pair.n
        u = np.asarray(u, dtype=complex).reshape(n)
        key = u.tobytes()
        if key not in self._creation:
            out = []
            for k in range(self.levels):
                H = self.hat_bases[k + 1].reshape(n, self.dims[k], self.dims[k + 1])
                if np.iscomplexobj(H):
                    blk = np.tensordot(u.conj(), H, axes=(0, 0)).conj()
                elif not u.imag.any():
                    blk = np.tensordot(u.real, H, axes=(0, 0))
                else:
                    blk = np.empty(H.shape[1:], dtype=complex)
                    blk.real = np.tensordot(u.real, H, axes=(0, 0))
                    blk.imag = np.tensordot(u.imag, H, axes=(0, 0))
                blk = blk.T
                blk.flags.writeable = False
                out.append(blk)
            self._creation[key] = out
        return list(self._creation[key])


def _charge_weights(pair: MotzkinPair) -> np.ndarray:
    """The charge vector of each coordinate, one row per index.

    Each bar-orbit {i, ibar} with i != ibar on which b vanishes is a free
    orbit with its own coordinate, +1 on i and -1 on ibar; the support of
    b and a self-paired middle index have charge 0.  A pair without free
    orbits gets one coordinate that is zero everywhere.
    """
    n = pair.n
    free = [i for i in range(n // 2) if pair.b[i] == 0 and pair.b[n - 1 - i] == 0]
    weights = np.zeros((n, max(len(free), 1)), dtype=np.int64)
    for c, i in enumerate(free):
        weights[i, c], weights[n - 1 - i, c] = 1, -1
    return weights


def _level_failure(pair: MotzkinPair, message: str) -> StructureError:
    """The error of a failed level build, naming the conditions of
    `validate_pair` that the pair violates, if any."""
    report = validate_pair(pair)
    broken = [
        f"{name} {value:.3e}" for name, value in report.residuals.items() if value > report.tol
    ]
    if broken:
        message += f"; the pair violates {', '.join(broken)} (tol {report.tol:.0e})"
    return StructureError(message)


def build_subproduct(pair: MotzkinPair, levels: int) -> SubproductSystem:
    return SubproductSystem(pair, levels)


def subproduct_projection(pair: MotzkinPair, k: int) -> np.ndarray:
    """The full n^k x n^k projection onto level k, building levels 0 .. k
    of the pair on the spot."""
    return SubproductSystem(pair, k).projection(k)


def orthonormal_basis(pair: MotzkinPair, k: int) -> np.ndarray:
    """The n^k x d_k isometry whose columns span level k, building levels
    0 .. k of the pair on the spot."""
    return SubproductSystem(pair, k).basis(k)


def projection_rank(system: SubproductSystem, k: int):
    """(rank, spectral gap) of the level-k projection.

    Both were recorded by the build: the rank is d_k, the number of
    eigenvalues above 1/2 of the compressed projection, and the gap is the
    smallest of them over the largest one below 1/2 (infinite when none is
    positive).  A gap below RANK_GAP raises StructureError.
    """
    system._check_level(k)
    measured_gap = float(system.spectral_gaps[k])
    if measured_gap < RANK_GAP:
        raise StructureError(
            f"level {k}: no clear spectral gap (ratio {measured_gap:.3e})"
        )
    return system.dims[k], measured_gap


def coassociativity_residuals(system: SubproductSystem) -> dict[str, float]:
    """Residuals of (G_p (x) 1) G_k = G_k and (1 (x) G_q) G_k = G_k.

    Taken for k = 2 .. min(4, K), with K the largest built level whose
    ambient dimension n^K is at most FULL_MATRIX_DIM, and every split
    p + q = k.  With G_k = B_k B_k^* and B_k an isometry, ||X G_k - G_k||
    equals ||X B_k - B_k||, so each residual is taken on the frame and X
    acts through B_p or B_q without forming a Kronecker product.
    """
    n = system.pair.n
    kmax = min(system.levels, 4)
    while n**kmax > FULL_MATRIX_DIM:
        kmax -= 1
    out: dict[str, float] = {}
    for k in range(2, kmax + 1):
        B_k = system.basis(k)
        d_k = system.dims[k]
        for p in range(1, k):
            q = k - p
            B_p, B_q = system.basis(p), system.basis(q)
            X = B_k.reshape(n**p, n**q * d_k)
            out[f"left[p={p},k={k}]"] = float(
                np.linalg.norm(B_p @ (B_p.conj().T @ X) - X)
            )
            X = B_k.reshape(n**p, n**q, d_k)
            out[f"right[q={q},k={k}]"] = float(
                np.linalg.norm(B_q @ (B_q.conj().T @ X) - X)
            )
    return out


# ---------------------------------------------------------------------------
# The distinguished operator family


@dataclass
class OperatorFamily:
    """The n - 1 creation-operator directions attached to a pair.

    Coordinates whose b-weight vanishes contribute plain basis vectors
    ("v" kind, labelled by their 1-based coordinate).  The support of b is
    a bar-closed orbit of size 2r carrying a discrete Fourier basis; the
    2r - 1 combinations orthogonal to b contribute the "w" kind, labelled
    by their frequency s = 1 .. 2r - 1.
    """

    n: int
    r: int
    j_list: list[int] = field(default_factory=list)  # 1-based orbit coordinates
    kinds: list[tuple[str, int]] = field(default_factory=list)
    vectors: np.ndarray | None = None

    @property
    def labels(self) -> list[str]:
        return [f"{kind}{index}" for kind, index in self.kinds]

    def vector(self, kind: str, index: int) -> np.ndarray:
        return self.vectors[self.kinds.index((kind, index))]


def _orbit_phase(r: int, aexp) -> complex:
    """e^{i pi aexp / r}, exactly +-1 when r divides aexp."""
    if aexp % r == 0:
        return complex((-1) ** (aexp // r))
    return complex(np.exp(2j * np.pi * aexp / (2 * r)))


def operator_family(pair: MotzkinPair) -> OperatorFamily:
    """Read the operator family off the support pattern of b: the
    coordinates where |b_i| exceeds TOL_CHECK."""
    n = pair.n
    support = [i for i in range(n) if abs(pair.b[i]) > TOL_CHECK]
    eye = np.eye(n, dtype=complex)
    if len(support) == 1:
        mid = support[0]
        if abs(pair.b[mid] - 1.0) > 1e-9:
            raise ParameterError("b concentrates on one coordinate but is not 1 there")
        kinds = [("v", j) for j in range(1, n + 1) if j - 1 != mid]
        return OperatorFamily(n=n, r=0, kinds=kinds, vectors=eye[[j - 1 for _, j in kinds]])

    if len(support) % 2:
        raise ParameterError("support of b must be a single point or bar-symmetric")
    r = len(support) // 2
    expected = list(range(r)) + list(range(n - r, n))
    if support != expected:
        raise ParameterError(
            f"support of b is {support}, not the outer orbit {expected}"
        )
    if np.abs(pair.b[support] - 1.0 / np.sqrt(2 * r)).max() > 1e-9:
        raise ParameterError("b is not uniform over its orbit")

    fam = OperatorFamily(n=n, r=r, j_list=[j + 1 for j in support])
    vecs = []
    for s in range(1, 2 * r):
        w = np.zeros(n, dtype=complex)
        for kpos, j in enumerate(fam.j_list, start=1):
            w[j - 1] = _orbit_phase(r, kpos * s) / np.sqrt(2 * r)
        fam.kinds.append(("w", s))
        vecs.append(w)
    for j in range(r + 1, n - r + 1):
        fam.kinds.append(("v", j))
        vecs.append(eye[j - 1])
    fam.vectors = np.stack(vecs)

    gram = fam.vectors @ fam.vectors.conj().T
    if np.linalg.norm(gram - np.eye(n - 1)) > 1e-9:
        raise StructureError("operator family is not orthonormal")
    if np.abs(fam.vectors @ pair.b.conj()).max() > 1e-9:
        raise StructureError("operator family is not orthogonal to b")
    return fam


# ---------------------------------------------------------------------------
# Toeplitz relations


@dataclass
class ToeplitzReport:
    levels: int
    tol: float
    residuals: dict[str, float]
    skipped: list[str]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_residual < self.tol


def _family_blocks(system: SubproductSystem, fam: OperatorFamily):
    return {
        kind: system.creation_blocks(fam.vectors[idx])
        for idx, kind in enumerate(fam.kinds)
    }


def _relation_setup(system: SubproductSystem, fam: OperatorFamily | None, levels):
    """What every relation check reads: the `_relation_table` of ``fam``
    (``system.family`` when None), the creation blocks of its directions,
    and their `_sector_blocks` at each level in ``levels``."""
    if fam is None:
        fam = system.family
    table = _relation_table(system.pair, fam)
    blocks = _family_blocks(system, fam)
    cuts = {k: _sector_blocks(system, blocks, table, k) for k in levels}
    return table, blocks, cuts


def _relation_table(pair: MotzkinPair, fam: OperatorFamily) -> dict:
    """Each direction's weight alpha_x, partner pi(x) and charge shift w_x,
    in family order: v_j has weight a_j and partner v_jbar; w_s has weight
    a_{j_1} e^{-i pi s / r} and is its own partner (a is constant on the
    orbit of b).  A weight whose imaginary part is exactly zero is a real
    float, so that it keeps real creation blocks real.

    The shift is the charge (see `SubproductSystem`) of the coordinates on
    which the direction's vector in ``fam`` is nonzero: S_x maps charge c
    to charge c + w_x.  A direction whose support spans two charges, or a
    partner pair whose shifts do not cancel, raises ParameterError, since
    the relations are then not products of charge sectors."""
    a = pair.a
    weights = _charge_weights(pair).tolist()
    table = {}
    for (kind, index), support in zip(fam.kinds, (fam.vectors != 0).tolist()):
        if kind == "v":
            alpha, partner = a[index - 1], ("v", pair.n + 1 - index)
        else:
            alpha = a[fam.j_list[0] - 1] * _orbit_phase(fam.r, -index)
            partner = (kind, index)
        shifts = {tuple(w) for w, on in zip(weights, support) if on}
        if len(shifts) > 1:
            raise ParameterError(
                f"direction {kind}{index} spans the charges {sorted(shifts)}; "
                "each direction must carry one charge"
            )
        alpha = complex(alpha)
        table[kind, index] = (
            alpha.real if alpha.imag == 0 else alpha,
            partner,
            shifts.pop() if shifts else (0,) * len(weights[0]),
        )
    for (kind, index), (_, px, shift) in table.items():
        if any(map(operator.add, shift, table[px][2])):
            raise ParameterError(
                f"direction {kind}{index} and its partner {px[0]}{px[1]} "
                "carry charges that do not cancel"
            )
    return table


def _sector_blocks(system: SubproductSystem, blocks: dict, table: dict, k: int) -> dict:
    """The level-k creation blocks of the family cut into charge sectors.

    Maps each direction x to {t: (c, block)} over the sectors c of level k
    whose image t = c + w_x is a sector of level k + 1; block is the part
    of the creation block from c to t, a view of the cached block.  Every
    other entry of the creation block is exactly zero, so every product
    of creation operators is a sum over these views."""
    lower, upper = system.sectors[k], system.sectors[k + 1]
    out = {}
    for x, (_, _, shift) in table.items():
        blk = blocks[x][k]
        out[x] = {}
        for c, cols in lower.items():
            t = tuple(map(operator.add, c, shift))
            if t in upper:
                out[x][t] = c, blk[upper[t], cols]
    return out


def _accumulate(acc: dict, key, term: np.ndarray) -> None:
    """acc[key] += term, in place when the dtypes agree; term is a fresh
    array, so it may be stored as it is."""
    held = acc.get(key)
    if held is None:
        acc[key] = term
    elif held.dtype == term.dtype:
        held += term
    else:
        acc[key] = held + term


def _sector_norm(acc: dict, sectors: dict, value: float, rhs: dict | None = None) -> float:
    """The Frobenius norm of the operator whose block on the columns of
    sector c is acc[c] - (value 1 - rhs[c]), over the sectors of one
    level; a missing acc[c] or rhs[c] counts as zero.  The blocks are
    formed in place, rhs[c] - value 1 first and acc[c] added to it, so
    that they round as the dense acc - (value 1 - rhs) does."""
    rhs = rhs or {}
    total = 0.0
    for c, cols in sectors.items():
        S = rhs.get(c)
        if S is not None:
            if value:
                S.flat[:: S.shape[1] + 1] -= value
            _accumulate(acc, c, S)
        R = acc.get(c)
        if R is None:
            total += value * value * (cols.stop - cols.start)
            continue
        if value and S is None:
            R.flat[:: R.shape[1] + 1] -= value
        total += float(np.vdot(R, R).real)
    return float(np.sqrt(total))


def _commutation_residuals(
    system: SubproductSystem,
    table: dict,
    cuts: dict,
    m: int,
    coefficient: float,
):
    """Yield (relation, indices, residual) for eq4, eq5 and eq6 at level m.

    Each relation reads

        S_x^* S_y = [x = y] - c alpha_x conj(alpha_y) S_{pi x} S_{pi y}^*

    on level m, with the weights, partners and shifts of
    `_relation_table`: eq4 takes x = v_j, y = v_i, eq5 x = v_j, y = w_s
    and eq6 x = w_s', y = w_s.  The Toeplitz relations take c = phi(m);
    the limiting relations take c = phi_inf.

    Both sides map sector c of level m to sector c + w_y - w_x through
    the sector c + w_y of levels m + 1 and m - 1, so each residual is the
    root of the summed squared norms of one block per level-m sector,
    formed from the views in ``cuts`` (level -> `_sector_blocks`).  The
    residual of (y, x) is the adjoint of that of (x, y), so each unordered
    eq4 and eq6 pair is formed once and its norm reported under both keys.
    """
    v = [x for x in table if x[0] == "v"]
    w = [x for x in table if x[0] == "w"]
    relations = (
        [("eq4", f"i={y[1]},j={x[1]}", x, y) for x in v for y in v]
        + [("eq5", f"j={x[1]},s={y[1]}", x, y) for x in v for y in w]
        + [("eq6", f"s={y[1]},s'={x[1]}", x, y) for y in w for x in w]
    )
    up = cuts[m]
    done: dict = {}
    for eq, index, x, y in relations:
        value = done.get((y, x))
        if value is None:
            (alpha_x, px, _), (alpha_y, py, _) = table[x], table[y]
            lhs: dict = {}
            for mid, (c, Y) in up[y].items():
                if mid in up[x]:
                    lhs[c] = up[x][mid][1].conj().T @ Y
            rhs: dict = {}
            if m:
                coef = coefficient * np.conj(alpha_y) * alpha_x
                from_px = {mid: P for mid, P in cuts[m - 1][px].values()}
                for c, (mid, Q) in cuts[m - 1][py].items():
                    if mid in from_px:
                        rhs[c] = coef * (from_px[mid] @ Q.conj().T)
            value = done[x, y] = _sector_norm(lhs, system.sectors[m], float(x == y), rhs)
        yield eq, index, value


def toeplitz_residuals(
    system: SubproductSystem,
    fam: OperatorFamily | None = None,
    *,
    tol: float = TOL_TOEPLITZ,
) -> ToeplitzReport:
    """Frobenius residuals of the defining Toeplitz-operator relations.

    All relations are checked blockwise per level m of the truncated Fock
    space; compositions that would leave the truncation are dropped from
    the level range, and the range-sum relation at the top level is
    reported as skipped rather than silently tested against a cut-off sum.
    A system without level 1 has no creation block to check and raises
    ParameterError.  eq3 to eq6 read the weights and partners of
    `_relation_table`.

    eq2 to eq6 are formed one charge sector at a time from the views of
    `_sector_blocks`: S_x S_x^*, the eq3 sum and the eq4 to eq6 relations
    each have one block per sector of the level they act on, and each
    residual is the root of the summed squared block norms.
    """
    n, N = system.pair.n, system.levels
    if N < 1:
        raise ParameterError(f"need levels >= 1 for a relation to check, got {N}")
    phi = system.phi
    table, blocks, cuts = _relation_setup(system, fam, range(N))
    res: dict[str, float] = {}
    skipped: list[str] = []

    # Covariance with the level grading: f S = S (f o shift) for the level
    # indicators and for one strictly positive weight function.  Block k of
    # S maps level k to level k + 1, so on it E_m S - S E_{m-1} is
    # [k + 1 = m] - [k = m - 1] times the block and f S - S (f o shift) is
    # f(k + 1) - (f o shift)(k) times it; each residual is read off the
    # block norms.
    k = np.arange(N)
    weight = 1.0 + 1.0 / ((1 + n) * (1 + (k + 1)))
    shifted = 1.0 + 1.0 / ((1 + n) * (2 + k))
    norms = [np.array([np.linalg.norm(blk) for blk in bl]) for bl in blocks.values()]
    res["eq1[levels]"] = max(
        float(np.linalg.norm(((k + 1 == m).astype(float) - (k == m - 1)) * s))
        for m in range(N + 1)
        for s in norms
    )
    res["eq1[weight]"] = max(float(np.linalg.norm((weight - shifted) * s)) for s in norms)

    # Range sum: sum_i S_i S_i^* is the identity off the vacuum.
    res["eq2[m=0]"] = 0.0
    for m in range(1, N):
        acc: dict = {}
        for views in cuts[m - 1].values():
            for t, (_, V) in views.items():
                _accumulate(acc, t, V @ V.conj().T)
        res[f"eq2[m={m}]"] = _sector_norm(acc, system.sectors[m], 1.0)
    skipped.append(f"eq2[m={N}]")

    # The quadratic syzygy: sum_x alpha_x S_x S_{pi x} vanishes.
    for m in range(N - 1):
        acc = {}
        for x, (alpha, px, _) in table.items():
            into = cuts[m][px]
            for mid, W in cuts[m + 1][x].values():
                if mid in into:
                    c, V = into[mid]
                    _accumulate(acc, c, alpha * (W @ V))
        res[f"eq3[m={m}]"] = _sector_norm(acc, system.sectors[m], 0.0)

    # Commutation relations between annihilation and creation parts.
    for m in range(N):
        for eq, index, value in _commutation_residuals(
            system, table, cuts, m, float(phi(m))
        ):
            res[f"{eq}[{index},m={m}]"] = value

    return ToeplitzReport(levels=N, tol=tol, residuals=res, skipped=skipped)


# ---------------------------------------------------------------------------
# Matrix units spanned by vacuum words


@dataclass
class MatrixUnitReport:
    k: int
    space_dim: int
    rank: int
    expected: int
    measured: int

    @property
    def ok(self) -> bool:
        return self.measured == self.expected


def word_vectors(
    system: SubproductSystem, fam: OperatorFamily, k: int
) -> np.ndarray:
    """Level-k coordinates of all words of length k applied to the vacuum.

    Column order is lexicographic in the word, leftmost letter most
    significant; letters are positions in ``fam.labels``.
    """
    system._check_level(k)
    count = len(fam.labels)
    if count**k > 2048:
        raise LimitError(
            f"{count ** k} words at length {k}, above the cap 2048"
        )
    blocks = _family_blocks(system, fam).values()
    psi = np.ones((1, 1))
    for level in range(k):
        psi = np.hstack([bl[level] @ psi for bl in blocks])
    return psi


def matrix_unit_dimension(
    system: SubproductSystem,
    k: int,
    fam: OperatorFamily | None = None,
) -> MatrixUnitReport:
    """Dimension of the span of outer products of vacuum words at level k.

    The words psi_alpha span all of H_k, so the outer products
    psi_alpha psi_beta^* span the full matrix algebra on it: the measured
    value is rank(Psi)^2 against the expected d_k^2, with the singular
    values of Psi counted above TOL_RANK relative to the largest.
    """
    if fam is None:
        fam = system.family
    psi = word_vectors(system, fam, k)
    if k == 0:
        rank = 1
    else:
        svals = np.linalg.svd(psi, compute_uv=False)
        rank = int(np.sum(svals > TOL_RANK * svals[0]))
    d_k = system.dims[k]
    return MatrixUnitReport(
        k=k,
        space_dim=d_k,
        rank=rank,
        expected=d_k * d_k,
        measured=rank * rank,
    )


# ---------------------------------------------------------------------------
# The reverse-weighted identity


@dataclass
class ReverseIdentityReport:
    k: int
    constant: Fraction
    closed_form: float
    closed_form_error: float
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual < self.tol and self.closed_form_error < self.tol


def reverse_identity(
    system: SubproductSystem,
    k: int,
    fam: OperatorFamily | None = None,
    *,
    tol: float = TOL_CHECK,
) -> ReverseIdentityReport:
    """sum_x |alpha_{pi x}|^2 S_x^* S_x = 1 - lam - lam^2 phi(k-1) at level
    k - 1, with the weights and partners of `_relation_table`.

    The exact rational constant is also compared against its closed form
    lam (q^{k+1} - q^{-k-1}) / (q^k - q^{-k}), which reads lam (k+1)/k in
    the q -> 1 limit.
    """
    if not 1 <= k <= system.levels:
        raise ParameterError(f"need 1 <= k <= {system.levels}, got {k}")
    table, _, cuts = _relation_setup(system, fam, [k - 1])
    lam = system.pair.lam
    constant = 1 - lam - lam * lam * system.phi(k - 1)
    q = system.phi.q
    if abs(q - 1.0) < 1e-12:
        closed = float(lam) * (k + 1) / k
    else:
        closed = float(lam) * (q ** (k + 1) - q ** (-k - 1)) / (q**k - q**-k)
    acc: dict = {}
    for x, (_, px, _) in table.items():
        weight = abs(table[px][0]) ** 2
        for c, V in cuts[k - 1][x].values():
            _accumulate(acc, c, weight * (V.conj().T @ V))
    residual = _sector_norm(acc, system.sectors[k - 1], float(constant))
    return ReverseIdentityReport(
        k=k,
        constant=constant,
        closed_form=closed,
        closed_form_error=abs(float(constant) - closed),
        residual=residual,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# The generator of the defining ideal at degree two


@dataclass
class IdealReport:
    vector: np.ndarray
    norm: float
    alignment: float
    annihilation: float
    complement: float
    tol: float

    @property
    def ok(self) -> bool:
        return max(self.alignment, self.annihilation, self.complement) < self.tol


def ideal_generator(
    system: SubproductSystem,
    fam: OperatorFamily | None = None,
    *,
    tol: float = TOL_CHECK,
) -> IdealReport:
    """The degree-two vector cutting H_2 out of H_1 (x) H_1.

    Assembled as xi = sum_x alpha_x x (x) pi x from `_relation_table`; the
    report checks that it equals the pair vector compressed off b on both
    slots, that the level-2 projection kills it, and that H_2 is exactly
    the orthogonal complement of its line inside H_1 (x) H_1.  The system
    needs at least two levels.
    """
    pair = system.pair
    if system.levels < 2:
        raise ParameterError("need at least two levels")
    if fam is None:
        fam = system.family
    n = pair.n
    xi = np.zeros(n * n, dtype=complex)
    for x, (alpha, px, _) in _relation_table(pair, fam).items():
        xi += alpha * np.kron(fam.vector(*x), fam.vector(*px))

    Q = np.eye(n) - p_matrix(pair)
    compressed = np.kron(Q, Q) @ pair.vA()
    alignment = float(np.linalg.norm(xi - compressed))

    G2 = system.projection(2)
    annihilation = float(np.linalg.norm(G2 @ xi))

    xin = xi / np.linalg.norm(xi)
    complement = float(
        np.linalg.norm(G2 - (np.kron(Q, Q) - np.outer(xin, xin.conj())))
    )
    return IdealReport(
        vector=xi,
        norm=float(np.linalg.norm(xi)),
        alignment=alignment,
        annihilation=annihilation,
        complement=complement,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Distance to the relations with the limiting coefficient


@dataclass
class AsymptoticReport:
    level: int
    residuals: dict[str, float]
    defect: float

    @property
    def residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def ratio(self) -> float:
        return self.residual / self.defect if self.defect else float("inf")


def cuntz_pimsner_residual(
    system: SubproductSystem,
    m: int,
    fam: OperatorFamily | None = None,
) -> AsymptoticReport:
    """Residuals at level m of the commutation relations with phi replaced
    by its limit phi_inf.

    The exact relations hold with the level-dependent phi(m); substituting
    the limit leaves an error controlled by |phi(m) - phi_inf|, which decays
    in m, so the creation operators satisfy the limiting relations
    asymptotically.
    """
    if not 1 <= m <= system.levels - 1:
        raise ParameterError(
            f"need 1 <= m <= {system.levels - 1}, got {m}"
        )
    phi_inf = system.phi.infinity
    table, _, cuts = _relation_setup(system, fam, (m - 1, m))
    res = {
        f"{eq}o[{index}]": value
        for eq, index, value in _commutation_residuals(
            system, table, cuts, m, phi_inf
        )
    }

    defect = abs(float(system.phi(m)) - phi_inf)
    return AsymptoticReport(level=m, residuals=res, defect=defect)
