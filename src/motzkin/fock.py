"""Subproduct system and Toeplitz operators generated by a Motzkin pair.

The levelwise spaces H_k sit inside (C^n)^{(x) k}, and H_{k+1} sits inside
C^n (x) H_k.  Each level is therefore carried as a hat frame: an isometry
onto H_{k+1} inside C^n (x) H_k, written in the coordinates of the level
below.  All operator algebra happens in the compressed dimensions n d_k;
the n^k-sized ambient frames and projections are built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

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
    - the level-k projection conjugated into C^n (x) H_{k-1}, as its charge
      blocks (see below and ``compressed_projection``);
    - ``dims``, ``idempotent_residuals`` and ``rounding_magnitudes``;
      ``charge_block_sizes`` is read off the projection blocks.

    No stored array has more than n d_{levels-1} rows.  The n^k x d_k
    ambient frame B_k = (1 (x) B_{k-1}) B^_k (``basis``) and the full
    projection B_k B_k^* (``projection``) are built on request; the frames
    are cached, and so are the creation blocks of every vector asked for.

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
    frame column has a definite charge, G^ is formed and diagonalised one
    charge block at a time (a pair without free orbits is one block), and
    only the blocks of each compressed projection are stored.  Its
    idempotent residual and spectral rounding are those of the whole
    matrix.  The arithmetic is in the pair's ``dtype``: real when a and b
    have no imaginary part, complex otherwise.  Before each level the bytes
    it needs (the system so far, the new hat frame, its projection blocks
    and the largest block's eigensolver workspace) are estimated, and a
    level above FOCK_MAX_BYTES raises LimitError.

    Each frame is fixed only up to a unitary on C^{d_k}.  Hat frames,
    compressed projections and creation blocks depend on that choice;
    projections, ranks, spectra and residuals do not.
    """

    def __init__(self, pair: MotzkinPair, levels: int, *, tol: float = TOL_CONSTRUCT):
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
        # Per level: (rows, block) for each charge block of the compressed
        # projection, and the charge vector of every frame column.
        self._projection_blocks: list[list[tuple[np.ndarray, np.ndarray]]] = [[]]
        self._charges = [np.zeros((1, 1), dtype=np.int64)]
        self._bases: dict[int, np.ndarray] = {0: np.ones((1, 1), dtype=self.dtype)}
        self._creation: dict[bytes, list[np.ndarray]] = {}

        a, b = pair.vectors()
        Q = np.eye(n) - np.outer(b, b.conj())
        weights = _charge_weights(pair)
        for k in range(levels):
            self._add_level(k, Q, a, weights, tol)

    def _add_level(self, k: int, Q, a, weights, tol: float) -> None:
        """Build level k + 1 from level k, one charge block at a time."""
        n, d_k = self.pair.n, self.dims[k]
        d_next = dim_subproduct(n, k + 1)
        row_charges = (weights[:, None, :] + self._charges[k][None, :, :]).reshape(n * d_k, -1)
        charges, group = np.unique(row_charges, axis=0, return_inverse=True)
        members = [np.flatnonzero(group.reshape(-1) == g) for g in range(len(charges))]
        self._check_level_bytes(k + 1, d_next, [rows.size for rows in members])

        phik = float(self.phi(k))
        if phik:
            # Z = H (V (x) 1)^*, so that Y Y^* = Z^* Z; V holds a_j at (j, jbar).
            H = self.hat_bases[k].reshape(n, self.dims[k - 1], d_k)
            Z = (a.conj()[:, None, None] * H[::-1]).transpose(1, 0, 2)
            Z = Z.reshape(self.dims[k - 1], n * d_k)
        blocks, res2 = [], 0.0
        for charge, rows in zip(charges, members):
            slot, col = np.divmod(rows, d_k)
            G = Q[np.ix_(slot, slot)] * (col[:, None] == col[None, :])
            if phik:
                below = np.flatnonzero((self._charges[k - 1] == charge).all(axis=1))
                Zb = Z[np.ix_(below, rows)]
                G -= phik * (Zb.conj().T @ Zb)
            G = (G + G.conj().T) / 2.0
            res2 += float(np.linalg.norm(G @ G - G)) ** 2
            blocks.append((rows, G))
        res = float(np.sqrt(res2))
        self.idempotent_residuals.append(res)

        # One eigh per block; the kept eigenvectors fill the hat frame.
        hat = np.zeros((n * d_k, d_next), dtype=self.dtype)
        frame_charges = []
        found, drift, off_spectrum = 0, 0.0, False
        for (rows, G), charge in zip(blocks, charges):
            evals, vecs = np.linalg.eigh(G)
            if res > tol:
                snapped = np.round(evals)
                drift = max(drift, float(np.abs(evals - snapped).max(initial=0.0)))
                off_spectrum |= not np.isin(snapped, (0.0, 1.0)).all()
                G[...] = (vecs * snapped) @ vecs.conj().T
            keep = evals > 0.5
            count = int(keep.sum())
            if found + count <= d_next:
                hat[rows, found : found + count] = vecs[:, keep]
            found += count
            frame_charges += [charge] * count
        if res > tol and (drift > _SNAP_TOL or off_spectrum):
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
        self.rounding_magnitudes.append(drift if res > tol else 0.0)
        self.dims.append(d_next)
        self.hat_bases.append(hat)
        self._projection_blocks.append(blocks)
        self._charges.append(
            np.array(frame_charges, dtype=np.int64).reshape(d_next, weights.shape[1])
        )

    def _check_level_bytes(self, k: int, d_k: int, sizes: list[int]) -> None:
        """Refuse level k when the system with it would exceed FOCK_MAX_BYTES:
        what is stored so far, the level's hat frame and projection blocks,
        the level-(k-1) frame reordered for the Y Y^* term, and five arrays
        the size of the largest block (the eigensolver's copy, eigenvectors
        and workspace, and the temporaries of forming the block and its
        idempotent residual)."""
        hats = [0] + [h.size for h in self.hat_bases[1:]]
        stored = sum(hats) + sum(
            G.size for blocks in self._projection_blocks for _, G in blocks
        )
        rows = sum(sizes)
        entries = (
            stored
            + hats[-1]  # the frame below, reordered as Z
            + rows * d_k
            + sum(s * s for s in sizes)
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

    def compressed_projection(self, k: int) -> np.ndarray:
        """The projection at level k >= 1, conjugated into C^n (x) H_{k-1},
        assembled from its charge blocks; every entry off them is zero.

        Its entries depend on the frame chosen for level k - 1; its
        spectrum does not.
        """
        self._check_level(k)
        if k == 0:
            raise ParameterError("level 0 has no compressed form")
        size = self.pair.n * self.dims[k - 1]
        out = np.zeros((size, size), dtype=self.dtype)
        for rows, G in self._projection_blocks[k]:
            out[np.ix_(rows, rows)] = G
        return out

    def _check_level(self, k: int) -> None:
        if not 0 <= k <= self.levels:
            raise ParameterError(
                f"level {k} outside the built range 0..{self.levels}"
            )

    # -- Fock-space bookkeeping ------------------------------------------

    @property
    def charge_block_sizes(self) -> list[list[int]]:
        """Row counts of the charge blocks of every compressed projection."""
        return [[rows.size for rows, _ in blocks] for blocks in self._projection_blocks]

    @property
    def total_dimension(self) -> int:
        return sum(self.dims)

    def level_offsets(self) -> list[int]:
        offs = [0]
        for d in self.dims:
            offs.append(offs[-1] + d)
        return offs

    # -- creation operators ----------------------------------------------

    def creation_blocks(self, u: np.ndarray) -> list[np.ndarray]:
        """Blocks of the creation operator of u: level k -> level k + 1.

        Block k is d_{k+1} x d_k; in level coordinates the operator sends
        xi to the compression of u (x) xi, that is B^_{k+1}^* (u (x) xi).
        The frames never change after the build, so the blocks of each
        vector are computed once and cached; they are read-only.  A real
        frame is contracted with the real and imaginary parts of u apart,
        so that it is never copied to complex.
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
                else:
                    blk = np.empty(H.shape[1:], dtype=complex)
                    blk.real = np.tensordot(u.real, H, axes=(0, 0))
                    blk.imag = np.tensordot(u.imag, H, axes=(0, 0))
                blk = blk.T
                blk.flags.writeable = False
                out.append(blk)
            self._creation[key] = out
        return list(self._creation[key])

    def toeplitz_matrix(self, u: np.ndarray) -> np.ndarray:
        """The creation operator of u on the truncated Fock space."""
        offs = self.level_offsets()
        D = self.total_dimension
        S = np.zeros((D, D), dtype=complex)
        for k, blk in enumerate(self.creation_blocks(u)):
            S[offs[k + 1] : offs[k + 2], offs[k] : offs[k + 1]] = blk
        return S


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
        f"{f.name} {getattr(report, f.name):.3e}"
        for f in fields(report)
        if f.name != "tol" and getattr(report, f.name) > report.tol
    ]
    if broken:
        message += f"; the pair violates {', '.join(broken)} (tol {report.tol:.0e})"
    return StructureError(message)


def build_subproduct(
    pair: MotzkinPair, levels: int, *, tol: float = TOL_CONSTRUCT
) -> SubproductSystem:
    return SubproductSystem(pair, levels, tol=tol)


def _as_system(
    source, levels: int | None = None, *, tol: float = TOL_CONSTRUCT
) -> SubproductSystem:
    """Pass a system through, or build one up to ``levels`` from a pair."""
    if isinstance(source, SubproductSystem):
        return source
    if levels is None:
        raise ParameterError("levels is required when starting from a pair")
    return SubproductSystem(source, levels, tol=tol)


def subproduct_projection(
    source: MotzkinPair | SubproductSystem, k: int, *, tol: float = TOL_CONSTRUCT
) -> np.ndarray:
    """The full n^k x n^k projection onto level k.

    Accepts either a built system or a bare pair (the levels up to k are
    then constructed on the spot).
    """
    return _as_system(source, k, tol=tol).projection(k)


def orthonormal_basis(
    source: MotzkinPair | SubproductSystem, k: int, *, tol: float = TOL_CONSTRUCT
) -> np.ndarray:
    """The n^k x d_k isometry whose columns span level k."""
    return _as_system(source, k, tol=tol).basis(k)


def projection_rank(system: SubproductSystem, k: int, *, gap: float = RANK_GAP):
    """(rank, spectral gap) of the level-k projection.

    The spectrum is the union of the spectra of the stored charge blocks.
    The rank counts eigenvalues in decreasing order up to the first drop by
    a factor ``gap``; a projection of rank r shows eigenvalue 1 exactly r
    times, so the measured rank must agree with d_k.
    """
    if k == 0:
        return 1, float("inf")
    system._check_level(k)
    evals = np.concatenate(
        [np.linalg.eigvalsh(G) for _, G in system._projection_blocks[k]]
    )
    evals = np.sort(evals)[::-1]
    evals = np.clip(evals, 0.0, None)
    r = int(np.sum(evals > 0.5))
    if r < evals.size and evals[r] > 0:
        measured_gap = float(evals[r - 1] / evals[r])
    else:
        measured_gap = float("inf")
    if measured_gap < gap:
        raise StructureError(
            f"level {k}: no clear spectral gap (ratio {measured_gap:.3e})"
        )
    return r, measured_gap


def coassociativity_residuals(
    system: SubproductSystem, kmax: int | None = None
) -> dict[str, float]:
    """Residuals of (G_p (x) 1) G_k = G_k and (1 (x) G_q) G_k = G_k.

    With G_k = B_k B_k^* and B_k an isometry, ||X G_k - G_k|| equals
    ||X B_k - B_k||, so each residual is taken on the frame and X acts
    through B_p or B_q without forming a Kronecker product.
    """
    n = system.pair.n
    limit = system.levels
    while n**limit > FULL_MATRIX_DIM:
        limit -= 1
    if kmax is None:
        kmax = min(limit, 4)
    if kmax > limit:
        raise LimitError(
            f"full projections available up to level {limit}, asked for {kmax}"
        )
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

    @property
    def interior(self) -> list[int]:
        """The 1-based coordinates off the orbit, one per "v" direction."""
        return [index for kind, index in self.kinds if kind == "v"]

    def vector(self, kind: str, index: int) -> np.ndarray:
        return self.vectors[self.kinds.index((kind, index))]


def _orbit_phase(r: int, aexp) -> complex:
    return complex(np.exp(2j * np.pi * aexp / (2 * r)))


def operator_family(pair: MotzkinPair, *, tol: float = TOL_CHECK) -> OperatorFamily:
    """Read the operator family off the support pattern of b."""
    n = pair.n
    support = [i for i in range(n) if abs(pair.b[i]) > tol]
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

    def lines(self) -> list[str]:
        out = [f"{label}: {value:.3e}" for label, value in self.residuals.items()]
        out.extend(f"{label}: skipped (truncation)" for label in self.skipped)
        return out


def _family_blocks(system: SubproductSystem, fam: OperatorFamily):
    return {
        kind: system.creation_blocks(fam.vectors[idx])
        for idx, kind in enumerate(fam.kinds)
    }


def _bar(n: int, j: int) -> int:
    return n + 1 - j


def _commutation_residuals(
    system: SubproductSystem,
    fam: OperatorFamily,
    blocks: dict,
    m: int,
    coefficient: float,
):
    """Yield (relation, indices, residual) for eq4, eq5 and eq6 at level m.

    Each relation reads S_x^* S_y = [x = y] - c w S_x' S_y'^* on level m,
    with S_x' the partner of S_x and w a fixed weight from the pair.  The
    Toeplitz relations take c = phi(m); the limiting relations take
    c = phi_inf.
    """
    pair = system.pair
    n, a, lam = pair.n, pair.a, float(pair.lam)
    eye_m = np.eye(system.dims[m])

    def down_up(kind_left, kind_right):
        if m == 0:
            return 0.0
        return blocks[kind_left][m - 1] @ blocks[kind_right][m - 1].conj().T

    for j in fam.interior:
        for i in fam.interior:
            lhs = blocks[("v", j)][m].conj().T @ blocks[("v", i)][m]
            rhs = (i == j) * eye_m - coefficient * np.conj(a[i - 1]) * a[
                j - 1
            ] * down_up(("v", _bar(n, j)), ("v", _bar(n, i)))
            yield "eq4", f"i={i},j={j}", float(np.linalg.norm(lhs - rhs))
    for j in fam.interior:
        for s in range(1, 2 * fam.r):
            js = fam.j_list[s - 1]
            lhs = blocks[("v", j)][m].conj().T @ blocks[("w", s)][m]
            rhs = (
                -coefficient
                * np.conj(a[js - 1])
                * a[j - 1]
                * _orbit_phase(fam.r, s)
                * down_up(("v", _bar(n, j)), ("w", s))
            )
            yield "eq5", f"j={j},s={s}", float(np.linalg.norm(lhs - rhs))
    for s in range(1, 2 * fam.r):
        for sp in range(1, 2 * fam.r):
            lhs = blocks[("w", sp)][m].conj().T @ blocks[("w", s)][m]
            rhs = (s == sp) * eye_m - coefficient * lam * _orbit_phase(
                fam.r, s - sp
            ) * down_up(("w", sp), ("w", s))
            yield "eq6", f"s={s},s'={sp}", float(np.linalg.norm(lhs - rhs))


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
    """
    pair = system.pair
    n, N = pair.n, system.levels
    if fam is None:
        fam = operator_family(pair)
    phi = system.phi
    a = pair.a
    blocks = _family_blocks(system, fam)
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
    for m in range(N):
        if m == 0:
            lhs = np.zeros((1, 1), dtype=complex)
            rhs = np.zeros((1, 1), dtype=complex)
        else:
            lhs = sum(bl[m - 1] @ bl[m - 1].conj().T for bl in blocks.values())
            rhs = np.eye(system.dims[m])
        res[f"eq2[m={m}]"] = float(np.linalg.norm(lhs - rhs))
    skipped.append(f"eq2[m={N}]")

    # The quadratic syzygy: the weighted two-step composition vanishes.
    a1 = a[fam.j_list[0] - 1] if fam.r else 0.0
    for m in range(N - 1):
        acc = np.zeros((system.dims[m + 2], system.dims[m]), dtype=complex)
        for s in range(1, 2 * fam.r):
            wb = blocks[("w", s)]
            acc += a1 * _orbit_phase(fam.r, -s) * (wb[m + 1] @ wb[m])
        for j in fam.interior:
            acc += a[j - 1] * (blocks[("v", j)][m + 1] @ blocks[("v", _bar(n, j))][m])
        res[f"eq3[m={m}]"] = float(np.linalg.norm(acc))

    # Commutation relations between annihilation and creation parts.
    for m in range(N):
        for eq, index, value in _commutation_residuals(
            system, fam, blocks, m, float(phi(m))
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
    psi = np.ones((1, 1), dtype=complex)
    for level in range(k):
        psi = np.hstack([bl[level] @ psi for bl in blocks])
    return psi


def matrix_unit_dimension(
    system: SubproductSystem,
    k: int,
    fam: OperatorFamily | None = None,
    *,
    tol: float = TOL_RANK,
) -> MatrixUnitReport:
    """Dimension of the span of outer products of vacuum words at level k.

    The words psi_alpha span all of H_k, so the outer products
    psi_alpha psi_beta^* span the full matrix algebra on it: the measured
    value is rank(Psi)^2 against the expected d_k^2.
    """
    if fam is None:
        fam = operator_family(system.pair)
    psi = word_vectors(system, fam, k)
    if k == 0:
        rank = 1
    else:
        svals = np.linalg.svd(psi, compute_uv=False)
        rank = int(np.sum(svals > tol * svals[0]))
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
    """sum_i |a_ibar|^2 S_i^* S_i = (1 - lam - lam^2 phi(k-1)) at level k - 1.

    Each operator direction carries the squared a-modulus of the bar of its
    home coordinate (the Fourier directions sit on the orbit, where that
    modulus is lam).  The exact rational constant is also compared against
    its closed form lam (q^{k+1} - q^{-k-1}) / (q^k - q^{-k}), which reads
    lam (k+1)/k in the q -> 1 limit.
    """
    if not 1 <= k <= system.levels:
        raise ParameterError(f"need 1 <= k <= {system.levels}, got {k}")
    pair = system.pair
    if fam is None:
        fam = operator_family(pair)
    n = pair.n
    acc = np.zeros((system.dims[k - 1],) * 2, dtype=complex)
    for (kind, label), bl in _family_blocks(system, fam).items():
        home = label if kind == "v" else fam.j_list[label - 1]
        weight = abs(pair.a[_bar(n, home) - 1]) ** 2
        acc += weight * (bl[k - 1].conj().T @ bl[k - 1])
    lam = pair.lam
    constant = 1 - lam - lam * lam * system.phi(k - 1)
    q = system.phi.q
    if abs(q - 1.0) < 1e-12:
        closed = float(lam) * (k + 1) / k
    else:
        closed = float(lam) * (q ** (k + 1) - q ** (-k - 1)) / (q**k - q**-k)
    residual = float(
        np.linalg.norm(acc - float(constant) * np.eye(system.dims[k - 1]))
    )
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
    system: MotzkinPair | SubproductSystem,
    fam: OperatorFamily | None = None,
    *,
    tol: float = TOL_CHECK,
) -> IdealReport:
    """The degree-two vector cutting H_2 out of H_1 (x) H_1.

    Assembled from the operator family; the report checks that it equals
    the pair vector compressed off b on both slots, that the level-2
    projection kills it, and that H_2 is exactly the orthogonal complement
    of its line inside H_1 (x) H_1.  A bare pair is accepted, in which case
    the two levels needed for the checks are built here.
    """
    if isinstance(system, MotzkinPair):
        system = SubproductSystem(system, 2)
    pair = system.pair
    if system.levels < 2:
        raise ParameterError("need at least two levels")
    if fam is None:
        fam = operator_family(pair)
    n = pair.n
    a = pair.a
    xi = np.zeros(n * n, dtype=complex)
    if fam.r:
        a1 = a[fam.j_list[0] - 1]
        for s in range(1, 2 * fam.r):
            w = fam.vector("w", s)
            xi += a1 * _orbit_phase(fam.r, -s) * np.kron(w, w)
    for j in fam.interior:
        xi += a[j - 1] * np.kron(fam.vector("v", j), fam.vector("v", _bar(n, j)))

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
    if fam is None:
        fam = operator_family(system.pair)
    if not 1 <= m <= system.levels - 1:
        raise ParameterError(
            f"need 1 <= m <= {system.levels - 1}, got {m}"
        )
    phi_inf = system.phi.infinity
    res = {
        f"{eq}o[{index}]": value
        for eq, index, value in _commutation_residuals(
            system, fam, _family_blocks(system, fam), m, phi_inf
        )
    }

    defect = abs(float(system.phi(m)) - phi_inf)
    return AsymptoticReport(level=m, residuals=res, defect=defect)
