"""Subproduct system and Toeplitz operators generated by a Motzkin pair.

The levelwise spaces H_k sit inside (C^n)^{(x) k}, and H_{k+1} sits inside
C^n (x) H_k.  Each level is therefore carried as a hat frame, an isometry
onto H_{k+1} inside C^n (x) H_k in the coordinates of the level below,
stored once as its (charge sector, slot) blocks.  All operator algebra,
the check of the subproduct axiom included, happens in the compressed
dimensions; the n^k-sized ambient frames and projections are built anew on
each request, by `SubproductSystem.basis` and `SubproductSystem.projection`
or, from a pair, by `subproduct_projection`, and none is kept.

Each system has one operator family, ``SubproductSystem.family``, and every
relation check reads the set-up the system builds from it once: the
relation table and the family's sector blocks, read off the frames.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .config import FOCK_MAX_BYTES, TOL_CHECK, TOL_CONSTRUCT, TOL_RANK, TOL_TOEPLITZ
from .errors import LimitError, ParameterError, StructureError
from .qpoly import PhiFunction, charge_characters
from .representation import MotzkinPair, _check_dim, p_matrix, validate_pair

_SNAP_TOL = 1e-6


class SubproductSystem:
    """The levels H_k, k = 0 .. levels, in compressed coordinates.

    Stored after construction, for every level k >= 1:

    - ``frames[k]``, the hat frame B^_k, an isometry onto H_k inside
      C^n (x) H_{k-1}, as its only nonzero blocks: frames[k][t] maps each
      slot i to (c, F), F the read-only d_{k-1}(c) x d_k(t) block on the
      rows (i, sector c = t - w_i of level k - 1), w_i the charge of
      coordinate i, and the columns of sector t.  F is also the block of
      S_{e_i}^* from sector t to sector c;
    - ``dims``, ``idempotent_residuals``, ``rounding_magnitudes``,
      ``spectral_gaps`` and ``charge_block_sizes``, recorded while the level
      is built (see below); ``projection_rank`` reads the gap from here;
    - ``sectors[k]``, the charge sectors of level k: the frame columns are
      written in charge order, so each charge is one column range, and
      the dict maps each charge (a tuple) to its slice, in charge order.

    No compressed projection is formed or kept, and no stored array is
    taller than the largest charge block.  The n^k x d_k ambient frame
    B_k = (1 (x) B_{k-1}) B^_k (``basis``) and the full projection B_k B_k^*
    (``projection``) are built anew on each call and not kept.

    The recursion: conjugated into C^n (x) H_k, the level-(k+1) projection
    is G^ = (1 - b b^*) (x) 1 - phi(k) Y Y^*, with b the distinguished unit
    vector and Y the compression of the pair vector acting on the two
    leftmost slots.  Since H_k lies in C^n (x) H_{k-1} and B_{k-1} is an
    isometry, Y Y^* = Z^* Z for Z = H (V (x) 1)^*, where H is B^_k with its
    C^n slot moved to the columns, a d_{k-1} x (n d_k) matrix, and V is the
    pair vector as an n x n matrix.  So G^ = 1 - M^* M exactly, for any a
    and b, with M the rows of b^* (x) 1 over those of sqrt(phi(k)) Z: G^
    has spectrum 1 - sigma^2 on the right singular vectors of M and 1 on
    the rest; the level-(k+1) frame is spanned by those above 1/2.

    Charge grading: every bar-orbit {i, ibar} with i != ibar and b zero on both
    points (a free orbit) carries its own U(1) charge, +1 on i and -1 on ibar;
    the other coordinates have charge 0 (``charges``, `_charge_weights`).  Then
    b and V have charge 0 for every a, so G^ commutes with the total charge on
    C^n (x) H_k.  Every frame column has a definite charge; M is taken one
    charge block of columns at a time, one SVD each (a pair without free orbits
    is one block), and the block of charge c must keep chi_{k+1}(c) columns
    (`charge_characters`).  So every level's blocks and bytes follow from chi
    before level 1 is built (`_plan_levels`), and a level count past
    FOCK_MAX_BYTES raises LimitError at once.  The idempotent residual,
    spectral rounding and spectral gap (smallest eigenvalue above 1/2 over
    largest below) are read off the spectrum of G^ gathered over the blocks;
    spectral rounding is recorded, and checked, only where the idempotent
    residual exceeds TOL_CONSTRUCT.  The arithmetic is in the pair's
    ``dtype``: real when a and b have no imaginary part, complex otherwise.

    A creation operator S_u is kept only as blocks between consecutive
    levels: S_u^* is sum_i conj(u_i) times the slot-i blocks of the frame
    above (`_adjoint_blocks`).  The relation checks read the family's blocks
    (``_relations``) and ``creation_blocks`` assembles dense ones, float64
    when the frames are real and u has no imaginary part, complex128
    otherwise.  The operator family (``family``) is read off b on first use.

    Each frame is fixed only up to a unitary on C^{d_k}.  Hat frames and
    creation blocks depend on that choice; projections, ranks, spectra and
    residuals do not.
    """

    def __init__(self, pair: MotzkinPair, levels: int):
        if levels < 0:
            raise ParameterError(f"need levels >= 0, got {levels}")
        if not pair.b.any():  # chi_1 would remove a line of b at charge 0
            raise _level_failure(pair, "b is zero, so level 1 has no line of b to remove")
        self.pair = pair
        self.levels = levels
        self.phi = PhiFunction(pair.lam)
        self.dtype = pair.dtype
        self.charges = _charge_weights(pair)
        self.dims: list[int] = [1]
        self.frames: list[dict] = [{}]
        self.sectors: list[dict[tuple, slice]] = [{(0,) * len(self.charges[0]): slice(0, 1)}]
        self.idempotent_residuals: list[float] = [0.0]
        self.rounding_magnitudes: list[float] = [0.0]
        self.spectral_gaps: list[float] = [np.inf]
        self.charge_block_sizes: list[list[int]] = [[]]

        a, b = pair.vectors()
        for k, blocks in enumerate(_plan_levels(self.charges, levels, self.dtype.itemsize)[0]):
            self._add_level(k, a, b, blocks)

    @np.errstate(over="ignore", invalid="ignore")
    def _add_level(self, k: int, a, b, blocks: list[_Block]) -> None:
        """Build level k + 1 from its plan: one SVD per charge block of M fills the
        frame in charge order; then the spectrum and each block's kept columns.
        A pair near the float range gives an inf or NaN spectrum, which fails
        the spectrum check without a warning."""
        n = self.pair.n
        phik = float(self.phi(k))
        bc, coef = b.conj(), np.sqrt(phik) * a.conj()
        frame, sectors, squares, counts, found = {}, {}, [], [], 0
        for t, slots, rows, width, height, _ in blocks:
            # The rows of b^* (x) 1; b_i = 0 on every slot whose sector is not t.
            M = np.hstack([bc[i] * np.eye(width, size) for i, _, size in slots])
            if phik and height:
                # Z[s, (i, j)] = conj(a_i) H[ibar, s, j]: V holds a_i at (i, ibar),
                # and the slot-ibar block of sector c_i has the rows of sector t.
                Z = np.hstack([coef[i] * self.frames[k][c][n - 1 - i][1] for i, c, _ in slots])
                M = np.vstack([M, Z])
            V, sigma = np.linalg.svd(M.conj().T)[:2]
            sq = np.concatenate([sigma**2, np.zeros(rows - sigma.size)])
            squares.append(sq)
            keep = np.flatnonzero(sq < 0.5)
            columns = V[:, keep]
            del M, V  # so that no block's arrays outlive it (`_Block.transient`)
            if keep.size:
                columns.flags.writeable = False
                ends = accumulate(size for *_, size in slots)
                frame[t] = {i: (c, columns[e - size : e]) for (i, c, size), e in zip(slots, ends)}
                sectors[t] = slice(found, found + keep.size)
            counts.append(keep.size)
            found += keep.size
        sq = np.concatenate(squares)
        evals = 1.0 - sq
        res = float(np.linalg.norm(sq * evals))
        snapped = np.round(evals)
        drift = float(np.abs(evals - snapped).max(initial=0.0))
        if res > TOL_CONSTRUCT and (drift > _SNAP_TOL or not np.isin(snapped, (0, 1)).all()):
            raise _level_failure(
                self.pair,
                f"level {k + 1}: compressed projection has spectrum "
                f"away from {{0, 1}} (drift {drift:.3e})",
            )
        for block, count in zip(blocks, counts):
            if count != block.keep:
                raise _level_failure(
                    self.pair, f"level {k + 1}: charge {block.charge} keeps {count} "
                    f"directions, expected {block.keep}"
                )
        low = float(evals[sq >= 0.5].max(initial=0.0))
        high = float(evals[sq < 0.5].min(initial=np.inf))
        self.idempotent_residuals.append(res)
        self.rounding_magnitudes.append(drift if res > TOL_CONSTRUCT else 0.0)
        self.spectral_gaps.append(high / low if low else np.inf)
        self.charge_block_sizes.append([block.rows for block in blocks])
        self.dims.append(found)
        self.frames.append(frame)
        self.sectors.append(sectors)

    # -- frames and projections ------------------------------------------

    def basis(self, k: int) -> np.ndarray:
        """The n^k x d_k isometry B_k onto level k, built from the frames on each call."""
        self._check_level(k)
        B = np.ones((1, 1), dtype=self.dtype)
        for j in range(1, k + 1):
            lower = self.sectors[j - 1]
            H = np.zeros((self.pair.n, self.dims[j - 1], self.dims[j]), dtype=self.dtype)
            for t, cols in self.sectors[j].items():
                for i, (c, F) in self.frames[j][t].items():
                    H[i, lower[c], cols] = F
            B = (B @ H).reshape(-1, self.dims[j])
        return B

    def projection(self, k: int) -> np.ndarray:
        """The full n^k x n^k orthogonal projection onto level k, within the
        dimension bound of every dense operator on (C^n)^k (`_check_dim`)."""
        self._check_level(k)
        _check_dim(self.pair.n, k)
        B = self.basis(k)
        return B @ B.conj().T

    def _check_level(self, k: int) -> None:
        if not 0 <= k <= self.levels:
            raise ParameterError(
                f"level {k} outside the built range 0..{self.levels}"
            )

    @cached_property
    def family(self) -> OperatorFamily:
        """The operator family of the pair, `operator_family` on first use;
        it raises ParameterError only for a pair whose |b| is not uniform on
        its support.

        Every relation check and word vector reads this family.  Another
        one (a rotated family, a partner-closed part of this one) is set by
        assigning ``system.family`` before the first relation check: the
        set-up built from it then is kept for the life of the system."""
        return operator_family(self.pair)

    @cached_property
    def _relations(self):
        """(table, cuts) from ``family``, on first use: the `_relation_table`,
        and cuts[k] (k < levels) maps each direction x to {t: (c, A)}, A the
        read-only block of S_x^* from sector t of level k + 1 to sector
        c = t - w_x of level k (`_adjoint_blocks`), off which S_x is zero: a
        view of the frame for a coordinate direction."""
        table = _relation_table(self, self.family)
        cuts = [{} for _ in range(self.levels)]
        for x, u in zip(table, self.family.vectors):
            u = u if u.imag.any() else u.real
            for k, cut in enumerate(cuts):
                blocks = _adjoint_blocks(self.frames[k + 1], u)
                cut[x] = {t: (c, A) for (t, c), A in blocks.items()}
                for _, A in cut[x].values():
                    A.flags.writeable = False
        return table, cuts

    # -- Fock-space bookkeeping ------------------------------------------

    @property
    def total_dimension(self) -> int:
        return sum(self.dims)

    # -- creation operators ----------------------------------------------

    def creation_blocks(self, u: np.ndarray) -> list[np.ndarray]:
        """Blocks of the creation operator of u: level k -> level k + 1.

        Block k is d_{k+1} x d_k; in level coordinates the operator sends
        xi to the compression of u (x) xi, that is B^_{k+1}^* (u (x) xi).
        Each call assembles fresh dense blocks from the frames' charge
        blocks (`_adjoint_blocks`), float64 when the frames are real and u
        has no imaginary part and complex128 otherwise.
        """
        u = np.asarray(u, dtype=complex).reshape(self.pair.n)
        u = u if u.imag.any() else u.real
        out = []
        for k in range(self.levels):
            blk = np.zeros((self.dims[k + 1], self.dims[k]), dtype=np.result_type(self.dtype, u))
            for (t, c), A in _adjoint_blocks(self.frames[k + 1], u).items():
                blk[self.sectors[k + 1][t], self.sectors[k][c]] = A.conj().T
            out.append(blk)
        return out


def _adjoint_blocks(frame: dict, u: np.ndarray) -> dict:
    """The blocks of S_u^* from level k + 1 to level k, ``frame`` being
    frames[k + 1]: (t, c) -> sum_i conj(u_i) F_i over the slots i with
    u_i != 0 and frame[t][i] = (c, F_i).  A term with u_i = 1 is
    F_i itself, so a coordinate direction's blocks are views of the frame."""
    out, u = {}, u.tolist()
    for t, slots in frame.items():
        for i, (c, F) in slots.items():
            if u[i]:
                term = F if u[i] == 1 else u[i].conjugate() * F
                out[t, c] = out[t, c] + term if (t, c) in out else term
    return out


def _charge_weights(pair: MotzkinPair) -> list[tuple[int, ...]]:
    """The charge w_i of each coordinate i, one component per free orbit (see
    `SubproductSystem`); a pair without free orbits gets one, zero everywhere."""
    free = [i for i in range(pair.n // 2) if pair.b[i] == 0 and pair.b[-1 - i] == 0]
    return [tuple((i == j) - (i == pair.n - 1 - j) for j in free) or (0,) for i in range(pair.n)]


class _Block(NamedTuple):
    """One charge block t of a level step k -> k + 1, read off chi alone."""
    charge: tuple  # t
    slots: list  # (i, c, chi_k(c)) for each slot i, c = t - w_i a sector of level k
    rows: int  # the sum of chi_k(c) over the slots
    width: int  # chi_k(t), the rows of b^* (x) 1 in M
    height: int  # chi_{k-1}(t), the rows of sqrt(phi(k)) Z in M
    keep: int  # chi_{k+1}(t), the columns the block must keep

    @property
    def transient(self) -> int:
        """Entries alive besides the frames during the block's SVD, s rows under
        m rows of M: the left factor twice (LAPACK's and the returned one), M
        thrice (its parts, itself, LAPACK's copy), LAPACK's right factor and work."""
        s, m = self.rows, self.width + self.height
        return 2 * s * s + 3 * m * s + 6 * m * m


_FIRST_SVD_BYTES = 11 * 2**17  # buffers and heap of a process's first SVD, 1.3 MiB measured
_SLOT_BYTES = 800  # Python objects per block slot: its plan entry and its stored view


def _plan_levels(charges: list, levels: int, itemsize: int) -> list[list[_Block]]:
    """(plans, bytes): the charge blocks of each level step k -> k + 1, k < levels,
    read off chi_k (`charge_characters`) alone, and the bytes the build would
    peak at, before any level is built.  A level counts the frames up to it
    (sum_t rows_t chi_j(t) entries of ``itemsize`` bytes and _SLOT_BYTES per
    block slot, for level j), its costliest block's transient arrays and
    _FIRST_SVD_BYTES: 1.0 - 1.4 times the peak RSS growth of a fresh process,
    from source or bytecode, building n = 4 levels 7 - 9, ii n = 5 levels 5 - 7
    or iii n = 5 r = 2 levels 5 - 6.  The first level over FOCK_MAX_BYTES raises
    LimitError, and an empty level ParameterError."""
    chi = charge_characters(charges)
    plans, held, need, below, here = [], 0, 0, {}, next(chi)
    for k, above in zip(range(1, levels + 1), chi):
        if not above:  # only n = 2 reaches an empty level, at k = 2 (`dim_sequence`)
            raise ParameterError(f"dimension sequence for n={len(charges)} hits 0 at k={k}")
        by_charge: dict = {}
        for i, w in enumerate(charges):
            for c, size in here.items():
                by_charge.setdefault(tuple(map(operator.add, w, c)), []).append((i, c, size))
        blocks = []
        for t, slots in sorted(by_charge.items()):
            size = sum(s for *_, s in slots)
            blocks.append(_Block(t, slots, size, here.get(t, 0), below.get(t, 0), above.get(t, 0)))
        held += itemsize * sum(block.rows * block.keep for block in blocks)
        held += _SLOT_BYTES * sum(len(block.slots) for block in blocks)
        need = held + itemsize * max(block.transient for block in blocks) + _FIRST_SVD_BYTES
        if need > FOCK_MAX_BYTES:
            raise LimitError(
                f"level {k} would hold about {need / 2**20:.0f} MiB (hat frame "
                f"{len(charges) * sum(here.values())} x {sum(above.values())}, {len(blocks)} "
                f"charge blocks of up to {max(block.rows for block in blocks)} rows), "
                f"above the bound {FOCK_MAX_BYTES / 2**20:.0f} MiB"
            )
        plans.append(blocks)
        below, here = here, above
    return plans, need


def _level_failure(pair: MotzkinPair, message: str) -> StructureError:
    """The error of a failed level build, naming the conditions of
    `validate_pair` that the pair violates, if any."""
    report = validate_pair(pair)
    broken = [
        f"{name} {value:.3e}" for name, value in report.residuals.items()
        if not value <= report.tol  # a NaN residual is broken too
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


def projection_rank(system: SubproductSystem, k: int):
    """(rank, spectral gap) of the level-k projection.

    Both were recorded by the build: the rank is d_k, the number of
    eigenvalues above 1/2 of the compressed projection, and the gap is the
    smallest of them over the largest one below 1/2 (infinite when none is
    positive).

    Every built level has a gap of at least (1 - _SNAP_TOL) / _SNAP_TOL,
    about 1e6, so none is refused here.  The build accepts a level only
    when the idempotent residual ||e (1 - e)|| over the eigenvalues e is at
    most TOL_CONSTRUCT, or when every e lies within _SNAP_TOL of 0 or 1.
    In the first case each e in [0, 1/2] has e (1 - e) >= e / 2, so
    e <= 2 TOL_CONSTRUCT, and each e above 1/2 is at least
    1 - 2 TOL_CONSTRUCT; 2 TOL_CONSTRUCT is below _SNAP_TOL.  In the second
    case the kept e are at least 1 - _SNAP_TOL and the others at most
    _SNAP_TOL.
    """
    system._check_level(k)
    return system.dims[k], float(system.spectral_gaps[k])


def coassociativity_residuals(system: SubproductSystem) -> dict[str, float]:
    """One residual of the subproduct axiom per built level k = 2 .. L, read off
    the frames sector by sector.  R_1 = B^_1, X_k = (1 (x) R_{k-1}) B^_k and
    R_k = (B^_{k-1}^* (x) 1) X_k = (B_{k-1}^* (x) 1) B_k, held as the frames
    are: R[t][j] = (t - w_j, block).  left[k=k] is ||X_k - (B^_{k-1} (x) 1) R_k||,
    the part of (1 - G_{k-1} (x) 1) B_k inside C^n (x) H_{k-2} (x) C^n, taken as
    a difference, as ||R_k^* R_k - 1|| would show a defect e only as e^2.  The
    part outside is (1 (x) (1 - G_{k-2} (x) 1) B_{k-1}) B^_k, so in operator norm
    ||(G_{k-1} (x) 1) G_k - G_k|| <= E_k = sqrt(sum_{j<=k} left[k=j]^2); for
    p < k - 1 the bounds add along H_k < H_{k-1} (x) C^n < .. < H_p (x) C^{n(k-p)}.
    (1 (x) G_q) G_k = G_k holds by construction: B_k = (1 (x) B_{k-1}) B^_k and
    the frames are isometries."""
    R, out = system.frames[1] if system.levels else {}, {}
    for k in range(2, system.levels + 1):
        below, R_next, total = system.frames[k - 1], {}, 0.0
        for t, slots in system.frames[k].items():
            for j, w in enumerate(system.charges):
                s = tuple(map(operator.sub, t, w))
                X = {i: R[c][j][1] @ F for i, (c, F) in slots.items() if j in R.get(c, {})}
                H = below.get(s, {})
                common = X.keys() & H.keys()
                if common:
                    R_next.setdefault(t, {})[j] = (s, sum(H[i][1].conj().T @ X[i] for i in common))
                for i in X.keys() | (H.keys() if common else ()):
                    D = X.get(i, 0) - (H[i][1] @ R_next[t][j][1] if i in H else 0)
                    total += float(np.vdot(D, D).real)
        out[f"left[k={k}]"] = float(np.sqrt(total))
        R = R_next
    return out


# ---------------------------------------------------------------------------
# The distinguished operator family


@dataclass
class OperatorFamily:
    """The n - 1 creation-operator directions attached to a pair.

    The support S of b, its m points j_1 < .. < j_m (``j_list``, 1-based),
    is closed under bar, and |b| is uniform on it.  S carries the discrete
    Fourier basis times b's unit phases b^ = b / |b|: the "w" kind
    w_s = sum_k b^_{j_k} e^{2 pi i k s / m} e_{j_k} / sqrt(m), labelled by
    its frequency s = 1 .. m - 1, are the combinations orthogonal to
    w_0 = b.  Coordinates off S contribute plain basis vectors ("v" kind,
    labelled by their 1-based coordinate).  ``r`` is m // 2.
    """

    n: int
    r: int
    j_list: list[int] = field(default_factory=list)  # 1-based support of b
    kinds: list[tuple[str, int]] = field(default_factory=list)
    vectors: np.ndarray | None = None

    @property
    def labels(self) -> list[str]:
        return [f"{kind}{index}" for kind, index in self.kinds]

    def vector(self, kind: str, index: int) -> np.ndarray:
        return self.vectors[self.kinds.index((kind, index))]


def _orbit_phase(m: int, aexp) -> complex:
    """e^{2 pi i aexp / m}, exactly +-1 when m divides 2 aexp."""
    if 2 * aexp % m == 0:
        return complex((-1) ** (2 * aexp // m))
    return complex(np.exp(2j * np.pi * aexp / m))


def operator_family(pair: MotzkinPair) -> OperatorFamily:
    """Read the operator family (see `OperatorFamily`) off b.  Its support,
    the coordinates where |b_i| exceeds TOL_CHECK, must be closed under bar
    and |b| uniform on it; otherwise ParameterError."""
    n, b = pair.n, pair.b
    support = [i for i in range(n) if abs(b[i]) > TOL_CHECK]
    if support != [n - 1 - i for i in reversed(support)]:
        raise ParameterError(f"support of b is {support}, not closed under bar")
    moduli = np.abs(b[support])
    if support and np.ptp(moduli) > 1e-9:
        raise ParameterError("|b| is not uniform over its support")

    m = len(support)
    unit = b[support] / moduli
    fam = OperatorFamily(n=n, r=m // 2, j_list=[j + 1 for j in support])
    vecs = []
    for s in range(1, m):
        w = np.zeros(n, dtype=complex)
        for kpos, (j, phase) in enumerate(zip(support, unit), start=1):
            w[j] = phase * (_orbit_phase(m, kpos * s) / np.sqrt(m))
        fam.kinds.append(("w", s))
        vecs.append(w)
    eye = np.eye(n, dtype=complex)
    for j in range(n):
        if j not in support:
            fam.kinds.append(("v", j + 1))
            vecs.append(eye[j])
    fam.vectors = np.stack(vecs)

    gram = fam.vectors @ fam.vectors.conj().T
    if np.linalg.norm(gram - np.eye(len(vecs))) > 1e-9:
        raise StructureError("operator family is not orthonormal")
    if np.abs(fam.vectors @ b.conj()).max() > 1e-9:
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


def _relation_table(system: SubproductSystem, fam: OperatorFamily) -> dict:
    """Each direction's weight alpha_x, partner pi(x) and charge shift w_x,
    in family order: v_j has weight a_j and partner v_jbar; w_s has weight
    a_{j_1} conj(b^_{j_1} b^_{j_1bar}) e^{-2 pi i s / m}, b^ = b / |b| on the
    m points of the support of b, and is its own partner (the compatibility
    condition of the pair makes a_j conj(b^_j b^_jbar) constant there).  A
    weight whose imaginary part is exactly zero is a real float, so that it
    keeps real creation blocks real.

    The shift is the charge (``system.charges``) of the coordinates on
    which the direction's vector in ``fam`` is nonzero: S_x maps charge c
    to charge c + w_x.  A direction whose support spans two charges, or a
    partner pair whose shifts do not cancel, raises ParameterError, since
    the relations are then not products of charge sectors."""
    pair, charges = system.pair, system.charges
    n, a, b = pair.n, pair.a, pair.b
    table = {}
    for (kind, index), support in zip(fam.kinds, (fam.vectors != 0).tolist()):
        if kind == "v":
            alpha, partner = a[index - 1], ("v", n + 1 - index)
        else:
            j, jbar = fam.j_list[0] - 1, n - fam.j_list[0]
            unit = b[j] / abs(b[j]) * (b[jbar] / abs(b[jbar]))
            alpha = a[j] * np.conj(unit) * _orbit_phase(len(fam.j_list), -index)
            partner = (kind, index)
        shifts = {w for w, on in zip(charges, support) if on}
        if len(shifts) > 1:
            raise ParameterError(
                f"direction {kind}{index} spans the charges {sorted(shifts)}; "
                "each direction must carry one charge"
            )
        alpha = complex(alpha)
        table[kind, index] = (
            alpha.real if alpha.imag == 0 else alpha,
            partner,
            shifts.pop() if shifts else (0,) * len(charges[0]),
        )
    for (kind, index), (_, px, shift) in table.items():
        if any(map(operator.add, shift, table[px][2])):
            raise ParameterError(
                f"direction {kind}{index} and its partner {px[0]}{px[1]} "
                "carry charges that do not cancel"
            )
    return table


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
    formed from the blocks of S^* in ``cuts`` (``SubproductSystem._relations``).
    The residual of (y, x) is the adjoint of that of (x, y), so each
    unordered eq4 and eq6 pair is formed once and its norm reported under
    both keys.
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
                    lhs[c] = up[x][mid][1] @ Y.conj().T
            rhs: dict = {}
            if m:
                coef = coefficient * np.conj(alpha_y) * alpha_x
                from_px = {mid: P for mid, P in cuts[m - 1][px].values()}
                for c, (mid, Q) in cuts[m - 1][py].items():
                    if mid in from_px:
                        rhs[c] = coef * (from_px[mid].conj().T @ Q)
            value = done[x, y] = _sector_norm(lhs, system.sectors[m], float(x == y), rhs)
        yield eq, index, value


def toeplitz_residuals(
    system: SubproductSystem, *, tol: float = TOL_TOEPLITZ
) -> ToeplitzReport:
    """Frobenius residuals of the defining Toeplitz-operator relations.

    All relations are checked blockwise per level m of the truncated Fock
    space; compositions that would leave the truncation are dropped from
    the level range, and the range-sum relation at the top level is
    reported as skipped rather than silently tested against a cut-off sum.
    A system without level 1 has no creation block to check and raises
    ParameterError.  eq3 to eq6 read the weights and partners of
    `_relation_table`.

    Covariance with the level grading (eq1) holds by construction and has
    no residual: every S_x is stored only as blocks from level k to level
    k + 1.  The range sum (eq2) excludes the vacuum, so it runs over
    m = 1 .. N - 1.

    eq2 to eq6 are formed one charge sector at a time from the family's
    blocks of S_x^* (``SubproductSystem._relations``): S_x S_x^*, the eq3
    sum and the eq4 to eq6 relations each have one block per sector of the
    level they act on, and each residual is the root of the summed squared
    block norms.
    """
    N = system.levels
    if N < 1:
        raise ParameterError(f"need levels >= 1 for a relation to check, got {N}")
    phi = system.phi
    table, cuts = system._relations
    res: dict[str, float] = {}

    # Range sum: sum_i S_i S_i^* is the identity off the vacuum.
    for m in range(1, N):
        acc: dict = {}
        for views in cuts[m - 1].values():
            for t, (_, A) in views.items():
                _accumulate(acc, t, A.conj().T @ A)
        res[f"eq2[m={m}]"] = _sector_norm(acc, system.sectors[m], 1.0)

    # The quadratic syzygy: sum_x alpha_x S_x S_{pi x} vanishes.
    for m in range(N - 1):
        acc = {}
        for x, (alpha, px, _) in table.items():
            into = cuts[m][px]
            for mid, W in cuts[m + 1][x].values():
                if mid in into:
                    c, V = into[mid]
                    _accumulate(acc, c, alpha * (W.conj().T @ V.conj().T))
        res[f"eq3[m={m}]"] = _sector_norm(acc, system.sectors[m], 0.0)

    # Commutation relations between annihilation and creation parts.
    for m in range(N):
        for eq, index, value in _commutation_residuals(
            system, table, cuts, m, float(phi(m))
        ):
            res[f"{eq}[{index},m={m}]"] = value

    return ToeplitzReport(levels=N, tol=tol, residuals=res, skipped=[f"eq2[m={N}]"])


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


def word_vectors(system: SubproductSystem, k: int) -> np.ndarray:
    """Level-k coordinates of all words of length k applied to the vacuum.

    Column order is lexicographic in the word, leftmost letter most
    significant; letters are positions in ``system.family.labels``.
    """
    system._check_level(k)
    count = len(system.family.labels)
    if count**k > 2048:
        raise LimitError(
            f"{count ** k} words at length {k}, above the cap 2048"
        )
    cuts = system._relations[1]
    psi = np.ones((1, 1))
    for level in range(k):
        lower, upper = system.sectors[level], system.sectors[level + 1]
        views = list(cuts[level].values())
        dtype = np.result_type(psi, *(A for view in views for _, A in view.values()))
        out = np.zeros((len(views), system.dims[level + 1], psi.shape[1]), dtype)
        for x, view in enumerate(views):
            for t, (c, A) in view.items():
                out[x, upper[t]] = A.conj().T @ psi[lower[c]]
        psi = np.hstack(out)
    return psi


def matrix_unit_dimension(system: SubproductSystem, k: int) -> MatrixUnitReport:
    """Dimension of the span of outer products of vacuum words at level k.

    The words psi_alpha span all of H_k, so the outer products
    psi_alpha psi_beta^* span the full matrix algebra on it: the measured
    value is rank(Psi)^2 against the expected d_k^2, with the singular
    values of Psi counted above TOL_RANK relative to the largest.
    """
    psi = word_vectors(system, k)
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
    system: SubproductSystem, k: int, *, tol: float = TOL_CHECK
) -> ReverseIdentityReport:
    """sum_x |alpha_{pi x}|^2 S_x^* S_x = 1 - lam - lam^2 phi(k-1) at level
    k - 1, with the weights and partners of `_relation_table`.

    The exact rational constant is also compared against its closed form
    lam (q^{k+1} - q^{-k-1}) / (q^k - q^{-k}), which reads lam (k+1)/k in
    the q -> 1 limit.
    """
    if not 1 <= k <= system.levels:
        raise ParameterError(f"need 1 <= k <= {system.levels}, got {k}")
    table, cuts = system._relations
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
            _accumulate(acc, c, weight * (V @ V.conj().T))
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


def ideal_generator(system: SubproductSystem, *, tol: float = TOL_CHECK) -> IdealReport:
    """The degree-two vector cutting H_2 out of H_1 (x) H_1.

    Assembled as xi = sum_x alpha_x x (x) pi x from the system's relation
    table (``SubproductSystem._relations``); the report checks that it
    equals the pair vector compressed off b on both slots, that the
    level-2 projection kills it, and that H_2 is exactly the orthogonal
    complement of its line inside H_1 (x) H_1.  The system needs at least
    two levels.
    """
    pair = system.pair
    if system.levels < 2:
        raise ParameterError("need at least two levels")
    fam = system.family
    n = pair.n
    xi = np.zeros(n * n, dtype=complex)
    for x, (alpha, px, _) in system._relations[0].items():
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


def cuntz_pimsner_residual(system: SubproductSystem, m: int) -> AsymptoticReport:
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
    table, cuts = system._relations
    res = {
        f"{eq}o[{index}]": value
        for eq, index, value in _commutation_residuals(
            system, table, cuts, m, phi_inf
        )
    }

    defect = abs(float(system.phi(m)) - phi_inf)
    return AsymptoticReport(level=m, residuals=res, defect=defect)
