"""Operators on tensor powers built from a Motzkin pair.

A Motzkin pair over C^n consists of a vector v_A = sum_i a_i v_i (x) v_ibar
in C^n (x) C^n and a unit vector v = sum_i b_i v_i, where ibar = n+1-i,
subject to

    conj(a_i) a_ibar = lam       for every i,
    ||a|| = ||b|| = 1,
    conj(a_j) conj(b_i) b_jbar = conj(a_ibar) conj(b_j) b_ibar   for all i, j.

Such a pair turns the diagram generators into concrete matrices: p becomes
the rank-one projection onto v, t the rank-one projection onto v_A, and l
routes its through strand while capping the free column with v.  Inner
products are linear in the first variable throughout.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .config import SPAN_MAX_BYTES, TOL_CHECK, TOL_CONSTRUCT, TOL_RANK, max_rep_dimension
from .diagram_core import Element, MotzkinDiagram, _row_keys
from .errors import LimitError, ParameterError, StructureError
from .qpoly import validate_lam


@dataclass(frozen=True, eq=False)
class MotzkinPair:
    """The data (n, lam, a, b) of a Motzkin pair.

    `a` and `b` are stored as read-only complex arrays, copied from the
    arguments, and the pair is frozen: a changed pair is a new one, made
    with `dataclasses.replace`.  Pairs compare and hash by identity.  The
    operators the pair defines are built in `dtype`, fixed at
    construction: float64 when a and b have no imaginary part, complex128
    otherwise.
    """

    n: int
    lam: Fraction
    a: np.ndarray
    b: np.ndarray
    dtype: np.dtype = field(init=False, repr=False)

    def __post_init__(self):
        lam = validate_lam(self.lam)
        a = np.array(self.a, dtype=complex).reshape(-1)
        b = np.array(self.b, dtype=complex).reshape(-1)
        if self.n < 2:
            raise ParameterError(f"need n >= 2, got {self.n}")
        if a.shape != (self.n,) or b.shape != (self.n,):
            raise ParameterError("a and b must both have length n")
        a.flags.writeable = b.flags.writeable = False
        dtype = np.dtype(complex if a.imag.any() or b.imag.any() else float)
        for name, value in (("lam", lam), ("a", a), ("b", b), ("dtype", dtype)):
            object.__setattr__(self, name, value)

    def bar(self, i: int) -> int:
        """The index reversal i -> n-1-i (0-based)."""
        return self.n - 1 - i

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) in `dtype`: their real parts for a real pair."""
        if self.dtype.kind == "c":
            return self.a, self.b
        return self.a.real, self.b.real

    def vA(self) -> np.ndarray:
        """The vector sum_i a_i e_i (x) e_ibar, as a length n**2 array."""
        a, _ = self.vectors()
        m = np.zeros((self.n, self.n), dtype=a.dtype)
        for i in range(self.n):
            m[i, self.bar(i)] = a[i]
        return m.reshape(-1)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda": str(self.lam),
            "a": [[float(z.real), float(z.imag)] for z in self.a],
            "b": [[float(z.real), float(z.imag)] for z in self.b],
        }

    @classmethod
    def from_json_dict(cls, data) -> "MotzkinPair":
        """Read the form `to_json_dict` writes; malformed data raises
        ParameterError."""
        if not isinstance(data, dict):
            raise ParameterError("pair json must be an object")
        missing = [key for key in ("n", "lambda", "a", "b") if key not in data]
        if missing:
            raise ParameterError(f"pair json lacks {', '.join(missing)}")
        n = data["n"]
        if type(n) is not int:
            raise ParameterError(f"pair json: n must be an integer, got {n!r}")
        try:
            lam = Fraction(data["lambda"])
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ParameterError(
                f"pair json: lambda {data['lambda']!r} is not a rational number"
            ) from None
        return cls(n=n, lam=lam, a=_json_vector(data, "a", n), b=_json_vector(data, "b", n))


def _json_vector(data: dict, key: str, n: int) -> np.ndarray:
    entries = data[key]
    if not isinstance(entries, list) or len(entries) != n:
        raise ParameterError(f"pair json: {key} must be a list of n = {n} [re, im] pairs")
    numeric = all(
        isinstance(entry, list) and len(entry) == 2 and all(type(x) in (int, float) for x in entry)
        for entry in entries
    )
    try:
        values = np.array(entries, dtype=float).reshape(n, 2) if numeric else None
    except OverflowError:  # an integer beyond the float range
        values = None
    if values is None or not np.isfinite(values).all():
        raise ParameterError(f"pair json: every entry of {key} must be a finite [re, im] pair")
    return values[:, 0] + 1j * values[:, 1]


@dataclass
class PairReport:
    """Residuals of the defining and derived conditions of a pair."""

    norm_a: float
    norm_b: float
    pairing: float            # max_i |conj(a_i) a_ibar - lam|
    compatibility: float      # the (i, j) condition linking a and b
    modulus_symmetry: float   # max_j ||b_j| - |b_jbar||
    a_symmetry_on_support: float
    weighted_sum: float       # |sum_k conj(a_kbar) a_k |b_k|^2 - lam|
    extended: float           # the triple-index consequence
    tol: float

    @property
    def residuals(self) -> dict[str, float]:
        """Every residual field, name -> value, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "tol"}

    @property
    def ok(self) -> bool:
        return max(self.residuals.values()) <= self.tol


def validate_pair(pair: MotzkinPair, tol: float = TOL_CONSTRUCT) -> PairReport:
    n, lam = pair.n, float(pair.lam)
    a, b = pair.a, pair.b
    bar = pair.bar
    abar = a[::-1]

    norm_a = abs(np.vdot(a, a).real - 1.0)
    norm_b = abs(np.vdot(b, b).real - 1.0)
    pairing = float(np.abs(a.conj() * abar - lam).max())

    compat = 0.0
    for i in range(n):
        for j in range(n):
            lhs = a[j].conj() * b[i].conj() * b[bar(j)]
            rhs = a[bar(i)].conj() * b[j].conj() * b[bar(i)]
            compat = max(compat, abs(lhs - rhs))

    modulus = float(np.abs(np.abs(b) - np.abs(b[::-1])).max())

    support = np.abs(b) > tol
    a_sym = 0.0
    for j in range(n):
        if support[j]:
            a_sym = max(a_sym, abs(a[j] - a[bar(j)]))

    weighted = abs(np.sum(abar.conj() * a * np.abs(b) ** 2) - lam)

    extended = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = lam * a[i].conj() * b[k].conj() * b[bar(i)]
                rhs = (
                    a[j].conj()
                    * a[bar(j)]
                    * a[bar(k)].conj()
                    * b[i].conj()
                    * b[bar(k)]
                )
                extended = max(extended, abs(lhs - rhs))

    return PairReport(
        norm_a=norm_a,
        norm_b=norm_b,
        pairing=pairing,
        compatibility=compat,
        modulus_symmetry=modulus,
        a_symmetry_on_support=a_sym,
        weighted_sum=float(weighted),
        extended=extended,
        tol=tol,
    )


def build_example_pair(family: str, n: int, r: int = 0, lam=Fraction(1, 4)) -> MotzkinPair:
    """Construct one of the standard families of Motzkin pairs.

    family "i":   n odd, v concentrated on the middle coordinate (r ignored).
    family "ii":  r = 1, v spread over the two extreme coordinates.
    family "iii": general 1 <= r <= n/2, v uniform over the first and last
                  r coordinates.

    The a-vector is real positive: sqrt(lam) on the support of v (and on a
    self-paired middle index), and on each remaining orbit {i, ibar} the
    larger root y of y + lam**2/y = budget, with the budget spread evenly.
    """
    lam = validate_lam(lam)
    lamf = float(lam)
    if family not in ("i", "ii", "iii"):
        raise ParameterError(f"unknown family {family!r}")
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")

    if family == "i":
        if n % 2 == 0:
            raise ParameterError("family i needs odd n")
        if r not in (0, None):
            raise ParameterError("family i does not take r")
        r = 0
    else:
        if family == "ii":
            if r in (0, None):
                r = 1
            if r != 1:
                raise ParameterError("family ii means r = 1")
        if not 1 <= r <= n // 2:
            raise ParameterError(f"need 1 <= r <= n/2, got r={r}")

    b = np.zeros(n, dtype=complex)
    if family == "i":
        b[(n - 1) // 2] = 1.0
    else:
        b[:r] = 1.0 / np.sqrt(2 * r)
        b[n - r:] = 1.0 / np.sqrt(2 * r)

    a = np.zeros(n, dtype=complex)
    sqlam = np.sqrt(lamf)
    a[:r] = sqlam
    if r:
        a[n - r:] = sqlam
    middle_self = None
    if n % 2 == 1:
        middle_self = (n - 1) // 2
        a[middle_self] = sqlam

    # Indices r .. n-r-1 excluding a self-paired middle form bar-orbits.
    # The budget arithmetic is exact so that a boundary case (budget equal
    # to 2*lam, a double root) does not pick up square-root noise.
    left = [i for i in range(r, (n - (n % 2)) // 2) if i != middle_self]
    npairs = len(left)
    used = 2 * r * lam + (lam if middle_self is not None else 0)
    if npairs == 0:
        if used != 1:
            raise ParameterError(
                f"no free orbits and the fixed moduli sum to {used}, not 1"
            )
    else:
        budget = Fraction(1 - used, npairs)
        disc = budget * budget - 4 * lam * lam
        if disc < 0:
            raise ParameterError(
                f"infeasible parameters: each free orbit would get {budget}, "
                f"but needs at least {2 * lam}"
            )
        y = (float(budget) + np.sqrt(float(disc))) / 2.0
        for i in left:
            a[i] = np.sqrt(y)
            a[n - 1 - i] = lamf / np.sqrt(y)

    return MotzkinPair(n=n, lam=lam, a=a, b=b)


# ---------------------------------------------------------------------------
# Generator blocks and their action on the tensor power


def _check_dim(n: int, k: int) -> int:
    """n**k, or LimitError past max_rep_dimension().  A power of over 2**15
    bits, past any bound, is not formed and shows as n**k in the message."""
    bound = max_rep_dimension()
    dim = n**k if k * (n - 1).bit_length() <= 2**15 else None
    if dim is not None and dim <= bound:
        return dim
    shown = f"{n}**{k}"
    if dim is not None:
        with suppress(ValueError):  # more digits than Python prints
            shown = str(dim)
    raise LimitError(
        f"dimension n**k = {shown} exceeds the configured bound "
        f"{bound} (raise MOTZKIN_MAX_DIM to override)"
    )


def p_matrix(pair: MotzkinPair) -> np.ndarray:
    """Rank-one projection onto v on C^n."""
    _, b = pair.vectors()
    return np.outer(b, b.conj())


def t_matrix(pair: MotzkinPair) -> np.ndarray:
    """Rank-one projection onto v_A on C^n (x) C^n."""
    vA = pair.vA()
    return np.outer(vA, vA.conj())


def l_matrix(pair: MotzkinPair) -> np.ndarray:
    """The two-column matrix of l: routes the second slot to the first and
    caps the free ends with v."""
    n = pair.n
    L = np.zeros((n * n, n * n), dtype=pair.dtype)
    Lr = L.reshape(n, n, n, n)
    P = p_matrix(pair)
    for j in range(n):
        Lr[j, :, :, j] = P
    return L


def _generator_bases(pair: MotzkinPair) -> dict[str, np.ndarray]:
    """The block each generator applies to its own slots: n x n for p,
    n^2 x n^2 for l, r and t.  LimitError if an entry leaves the
    floating-point range."""
    with np.errstate(over="ignore", invalid="ignore"):
        L = l_matrix(pair)
        # t, lam times the bare cup-cap, evaluates to the projection onto v_A.
        bases = {"p": p_matrix(pair), "l": L, "r": L.conj().T, "t": t_matrix(pair)}
    if not all(np.isfinite(x).all() for x in bases.values()):
        raise LimitError("operator entries leave the floating-point range")
    return bases


def _apply_local(X: np.ndarray, n: int, base: np.ndarray, i: int) -> np.ndarray:
    """(1 (x) B (x) 1) @ X, where B = base acts on the tensor slots i, i+1,
    ... (1-based) of the row index of X.

    The rows of X are reshaped so that B's slots form the middle axis, and B
    multiplies that axis batched over the slots before it; no Kronecker
    product is formed, and the cost is rows * cols * base.shape[0].
    """
    rows, cols = X.shape
    out = np.matmul(base, X.reshape(n ** (i - 1), base.shape[0], -1))
    return out.reshape(rows, cols)


# ---------------------------------------------------------------------------
# Direct diagram evaluation


def _half(key: tuple[int, ...], b: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """The n**k x n**t matrix of a half-diagram with t through strands.

    Row index: the k tensor slots of the row.  Column index: one slot per
    through strand, left to right.  An isolated point contributes b, an
    arc the n x n matrix `arc` and a through strand a delta between its
    slot and its column slot.
    """
    n, k = len(b), len(key)
    through = [i for i, j in enumerate(key) if j == k]
    axes = k + len(through)
    out = np.ones((1,) * axes, dtype=b.dtype)

    def on_axes(arr, positions):
        shape = [1] * axes
        for ax in positions:
            shape[ax] = n
        return arr.reshape(shape)

    for i, j in enumerate(key):
        if j == -1:
            out = out * on_axes(b, [i])
        elif j == k:
            out = out * on_axes(np.eye(n), [i, k + through.index(i)])
        elif j > i:
            out = out * on_axes(arc, [i, j])
    return out.reshape(n**k, n ** len(through))


def evaluate_diagram(pair: MotzkinPair, diagram: MotzkinDiagram) -> np.ndarray:
    """The matrix of a single diagram: T @ B^*, with T and B the matrices
    of its top and bottom halves (`_half`), arcs scaled by lam**-1/2.

    Planar through strands keep their order, so the t through strands
    contract column slot m of T with column slot m of B.  Arcs and isolated
    points are factors of the halves; how deeply arcs nest does not enter.
    """
    return evaluate_element(pair, Element.from_diagram(diagram, pair.lam))


def evaluate_element(pair: MotzkinPair, x: Element) -> np.ndarray:
    """Linear extension of evaluate_diagram (coefficients become floats,
    each numerator / denominator as `float` of its Fraction would give).

    The terms are grouped by their number t of through strands.  With T_t
    the distinct top halves side by side, B_t the distinct bottom halves
    and C_t the coefficient of each (top, bottom) pair, the element is
    sum_t T_t (C_t (x) 1_{n**t}) B_t^*: each half is built once and each
    group is one matrix product.
    """
    n, k = pair.n, x.width
    dim = _check_dim(n, k)
    _, b = pair.vectors()
    arc = float(pair.lam) ** -0.5 * pair.vA().reshape(n, n)
    groups: dict[int, tuple[dict, dict, list]] = {}
    for d, v in x._num.items():
        top, bottom = _row_keys(d.pairing, k)
        tops, bottoms, entries = groups.setdefault(top.count(k), ({}, {}, []))
        entries.append(
            (tops.setdefault(top, len(tops)), bottoms.setdefault(bottom, len(bottoms)), v / x._den)
        )
    out = np.zeros((dim, dim), dtype=pair.dtype)
    for tops, bottoms, entries in groups.values():
        C = np.zeros((len(tops), len(bottoms)))
        for i, j, c in entries:
            C[i, j] = c
        # dim x halves x n**t; C^T sums the top halves paired with each bottom.
        T = np.stack([_half(key, b, arc) for key in tops], axis=1)
        B = np.stack([_half(key, b, arc) for key in bottoms], axis=1)
        out += np.matmul(C.T, T).reshape(dim, -1) @ B.reshape(dim, -1).conj().T
    return out


# ---------------------------------------------------------------------------
# Spanning dimension


MAX_SPAN_ROUNDS = 12
# Arrays the size of one generator's image that the closure holds on top
# of its basis and images: while the SVD runs, its copy of the operators
# kept and two right factors (LAPACK's and the returned one).  The
# operators kept replace the image itself, which is counted with the images.
_SPAN_WORK_IMAGES = 3


def _check_span_bytes(dim: int, row_bytes: int, basis: int, images: int, size: int) -> None:
    """Refuse a step of the span closure that would hold more than SPAN_MAX_BYTES.

    The step starts from `basis` orthonormal directions and holds `images`
    images of `size` operators each, and the SVD work of one image.  An
    operator takes `row_bytes`: dim**2 entries of the pair's dtype when
    dense, its block entries (`span_dimension`) as a row.  The basis can
    grow by as many operators as the images hold; its rows are written into
    pages of their own, while the images freed along the way stay with the
    allocator, so both are counted in full.
    """
    operators = basis + (2 * images + _SPAN_WORK_IMAGES) * size
    need = row_bytes * operators
    if need > SPAN_MAX_BYTES:
        raise LimitError(
            f"span closure at n**k = {dim} would hold {operators} operators, "
            f"about {need / 2**20:.0f} MiB, above the bound "
            f"{SPAN_MAX_BYTES / 2**20:.0f} MiB"
        )


def _support_blocks(ops: list[np.ndarray]) -> list[np.ndarray]:
    """The connected components, each ascending, of the graph linking i and
    j when some operator of `ops` has a nonzero (i, j) or (j, i) entry."""
    linked = np.any([x != 0 for x in ops], axis=0)
    linked |= linked.T
    label = np.arange(dim := len(linked))
    while True:  # every index takes its smallest neighbour's label
        new = np.where(linked, label, dim).min(axis=1)
        if (new == label).all():
            return [np.flatnonzero(label == r) for r in np.flatnonzero(label == np.arange(dim))]
        label = new


def _apply_blocks(G: list[np.ndarray], X: np.ndarray, slices: list[slice]) -> np.ndarray:
    """G @ X on rows of block entries, G given by its blocks: a matmul each."""
    out = np.empty_like(X)
    for block, at in zip(G, slices):
        m = len(block)
        np.matmul(block, X[:, at].reshape(-1, m, m), out=out[:, at].reshape(-1, m, m))
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a real or complex matrix, without a
    temporary of its size."""
    squares = np.einsum("ij,ij->i", x.real, x.real)
    if np.iscomplexobj(x):
        squares += np.einsum("ij,ij->i", x.imag, x.imag)
    return np.sqrt(squares)


def span_dimension(pair: MotzkinPair, k: int) -> tuple[int, int]:
    """Dimension of the algebra generated by the generator matrices at
    width k, found by closing the span under left multiplication.

    The span starts at the identity and the generators.  Each round applies
    every generator to the directions the previous round added (a direction
    found earlier maps into the span already), and keeps what is new of
    each image in one SVD; an image is built twice, first for the round's
    largest candidate norm, which sets the rank cut.  Returns (dimension,
    rounds), `rounds` counting the sweeps until the span stops growing.
    LimitError refuses a pair whose operators leave the floating-point
    range, and anything that could pass SPAN_MAX_BYTES before it is built:
    the dense identity and generators together, then each image alone.

    The identity and the generators are block-diagonal over the components
    of their joint support (`_support_blocks`), so every product of them is
    exactly 0.0 off these blocks, its entries being finite.  An operator is
    the row of its block entries, with the norms and inner products of its
    full flattening.  The orthonormal basis is one array allocated once,
    never copied, of which only the rows written become resident.
    """
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    n = pair.n
    dim = _check_dim(n, k)
    gens = [(name, i) for i in range(1, k) for name in "lrt"] + [("p", i) for i in range(1, k + 1)]
    _check_span_bytes(dim, pair.dtype.itemsize * dim * dim, 0, 1 + len(gens), 1)
    bases = _generator_bases(pair)
    eye = np.eye(dim, dtype=pair.dtype)
    dense = [eye] + [_apply_local(eye, n, bases[name], i) for name, i in gens]
    components = _support_blocks(dense)
    ends = list(accumulate(I.size**2 for I in components))
    slices = [slice(end - I.size**2, end) for I, end in zip(components, ends)]
    ops = [[x[np.ix_(I, I)] for I in components] for x in dense]
    del eye, dense
    basis = np.empty((SPAN_MAX_BYTES // (pair.dtype.itemsize * ends[-1]), ends[-1]), pair.dtype)
    # The first round applies the identity and the generators to the identity.
    found, rows, apply = 0, np.concatenate([x.reshape(-1) for x in ops[0]])[None], ops
    for rounds in range(MAX_SPAN_ROUNDS + 1):
        _check_span_bytes(dim, basis[0].nbytes, found, 1, len(rows))
        with np.errstate(over="ignore"):
            cut = TOL_RANK * max(_row_norms(_apply_blocks(G, rows, slices)).max() for G in apply)
        if not np.isfinite(cut):
            raise LimitError("operator entries leave the floating-point range")
        old = found
        for G in apply:
            _check_span_bytes(dim, basis[0].nbytes, found, 1, len(rows))
            x = _apply_blocks(G, rows, slices)
            for _ in range(2):
                # x -= (x B^*) B, with the conjugate taken on x, not on B.
                B = basis[:found]
                x -= (x.conj() @ B.T).conj() @ B
            x = x[_row_norms(x) > cut]
            _, s, vh = np.linalg.svd(x, full_matrices=False)
            del x  # the byte count allows one image's SVD at a time
            new = vh[s > cut]
            basis[found : found + len(new)] = new
            found += len(new)
            del vh, new
        if found == old:
            return old, rounds
        rows, apply = basis[old:found], ops[1:]
    raise LimitError(f"span did not stabilise in {MAX_SPAN_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# Conditional expectation on the operator side


def rep_conditional_expectation(pair: MotzkinPair, X: np.ndarray) -> np.ndarray:
    """Push an operator on the (k+1)-fold power down to the k-fold power.

    Sandwiching X (x) 1 between t on the last two slots and p on the last
    slot gives M (x) w w^*, with M = sum_i |a_i|^2 X[(., i), (., i)] the
    partial trace of X weighted by t and w = (1 (x) P) v_A.  It must factor
    as what (x) P (x) P, that is w w^* = |<b (x) b, w>|^2 (b (x) b)(b (x) b)^*;
    the factorisation is verified to TOL_CHECK, relative to the sizes of M
    and w, and what / lam = |<v_A, b (x) b>|^2 M / lam
    is returned, matching the diagram-side conditional expectation under
    evaluation.  Nothing of size n^(k+2) is formed, so the dimension bound
    is checked on X, of size n^(k+1).
    """
    n = pair.n
    lam = float(pair.lam)
    dim = X.shape[0]
    k = round(np.log(dim) / np.log(n)) - 1
    if n ** (k + 1) != dim or X.shape != (dim, dim):
        raise ParameterError(f"operator shape {X.shape} is not a power of n={n}")
    _check_dim(n, k + 1)

    a, b = pair.vectors()
    dk = n**k
    M = np.einsum("i,IiJi->IJ", a.conj() * a, X.reshape(dk, n, dk, n))
    bb = np.kron(b, b)
    w = np.kron(np.eye(n), p_matrix(pair)) @ pair.vA()
    weight = abs(np.vdot(bb, w)) ** 2
    norm_M = float(np.linalg.norm(M))
    residual = norm_M * float(
        np.linalg.norm(np.outer(w, w.conj()) - weight * np.outer(bb, bb.conj()))
    )
    scale = max(1.0, norm_M * float(np.linalg.norm(w)) ** 2)
    if residual > TOL_CHECK * scale:
        raise StructureError(
            f"sandwich did not factor through the last two slots "
            f"(residual {residual:.3e})"
        )
    return weight * M / lam
