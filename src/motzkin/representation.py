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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import TOL_CHECK, TOL_CONSTRUCT, TOL_RANK, max_rep_dimension
from .diagram_core import (
    Element,
    MotzkinDiagram,
    presentation_relations,
)
from .errors import LimitError, ParameterError, StructureError
from .qpoly import validate_lam


@dataclass
class MotzkinPair:
    """The data (n, lam, a, b) of a Motzkin pair; arrays are complex."""

    n: int
    lam: Fraction
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.lam = validate_lam(self.lam)
        self.a = np.asarray(self.a, dtype=complex).reshape(-1)
        self.b = np.asarray(self.b, dtype=complex).reshape(-1)
        if self.n < 2:
            raise ParameterError(f"need n >= 2, got {self.n}")
        if self.a.shape != (self.n,) or self.b.shape != (self.n,):
            raise ParameterError("a and b must both have length n")

    def bar(self, i: int) -> int:
        """The index reversal i -> n-1-i (0-based)."""
        return self.n - 1 - i

    def vA(self) -> np.ndarray:
        """The vector sum_i a_i e_i (x) e_ibar, as a length n**2 array."""
        m = np.zeros((self.n, self.n), dtype=complex)
        for i in range(self.n):
            m[i, self.bar(i)] = self.a[i]
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
    def ok(self) -> bool:
        return (
            max(
                self.norm_a,
                self.norm_b,
                self.pairing,
                self.compatibility,
                self.modulus_symmetry,
                self.a_symmetry_on_support,
                self.weighted_sum,
                self.extended,
            )
            <= self.tol
        )


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
# Generator matrices


def _check_dim(n: int, k: int) -> int:
    dim = n**k
    if dim > max_rep_dimension():
        raise LimitError(
            f"dimension n**k = {dim} exceeds the configured bound "
            f"{max_rep_dimension()} (raise MOTZKIN_MAX_DIM to override)"
        )
    return dim


def p_matrix(pair: MotzkinPair) -> np.ndarray:
    """Rank-one projection onto v on C^n."""
    return np.outer(pair.b, pair.b.conj())


def t_matrix(pair: MotzkinPair) -> np.ndarray:
    """Rank-one projection onto v_A on C^n (x) C^n."""
    vA = pair.vA()
    return np.outer(vA, vA.conj())


def l_matrix(pair: MotzkinPair) -> np.ndarray:
    """The two-column matrix of l: routes the second slot to the first and
    caps the free ends with v."""
    n = pair.n
    L = np.zeros((n * n, n * n), dtype=complex)
    Lr = L.reshape(n, n, n, n)
    P = p_matrix(pair)
    for j in range(n):
        Lr[j, :, :, j] = P
    return L


_SITES = {"p": 1, "l": 2, "r": 2, "t": 2}


def _check_index(k: int, name: str, i: int | None) -> None:
    if name == "id":
        return
    if i is None:
        raise ParameterError(f"generator {name!r} needs an index")
    if name not in _SITES:
        raise ParameterError(f"unknown generator {name!r}")
    hi = k - _SITES[name] + 1
    if not 1 <= i <= hi:
        raise ParameterError(f"index {i} of {name!r} out of range 1..{hi}")


def _generator_base(pair: MotzkinPair, name: str) -> np.ndarray:
    """The block a generator applies to its own slots: n x n for p,
    n^2 x n^2 for l, r and t."""
    if name == "p":
        return p_matrix(pair)
    if name == "t":
        # t is lam times the bare cup-cap; evaluated, that is exactly the
        # rank-one projection onto v_A.
        return t_matrix(pair)
    L = l_matrix(pair)
    return L if name == "l" else L.conj().T


def generator_operator(pair: MotzkinPair, k: int, name: str, i: int | None = None) -> np.ndarray:
    """The matrix of the generator on the k-fold tensor power of C^n."""
    n = pair.n
    _check_dim(n, k)
    if name == "id":
        return np.eye(n**k, dtype=complex)
    _check_index(k, name, i)
    left = np.eye(n ** (i - 1), dtype=complex)
    right = np.eye(n ** (k - i - _SITES[name] + 1), dtype=complex)
    return np.kron(np.kron(left, _generator_base(pair, name)), right)


def _apply_local(X: np.ndarray, n: int, base: np.ndarray, i: int, dag: bool = False) -> np.ndarray:
    """(1 (x) B (x) 1) @ X, where B = base (or its adjoint when `dag`) acts
    on the tensor slots i, i+1, ... (1-based) of the row index of X.

    The rows of X are reshaped so that B's slots form the middle axis, and B
    multiplies that axis batched over the slots before it; no Kronecker
    product is formed, and the cost is rows * cols * base.shape[0].
    """
    if dag:
        base = base.conj().T
    rows, cols = X.shape
    out = np.matmul(base, X.reshape(n ** (i - 1), base.shape[0], -1))
    return out.reshape(rows, cols)


def _parse_word_token(token) -> tuple[str, int | None, bool]:
    if isinstance(token, tuple):
        if len(token) == 2:
            return (token[0], token[1], False)
        return token
    s = str(token)
    dag = s.endswith("'")
    if dag:
        s = s[:-1]
    name = s.rstrip("0123456789")
    digits = s[len(name):]
    return (name, int(digits) if digits else None, dag)


def _flat_tokens(word) -> list[tuple[str, int | None, bool]]:
    """A word as (name, index, dagger) triples.  An ("adj", word) token
    becomes the reversed inner word with every dagger flipped."""
    out = []
    for token in word:
        if isinstance(token, tuple) and token[0] == "adj":
            inner = _flat_tokens(token[1])
            out.extend((name, i, not dag) for name, i, dag in reversed(inner))
        else:
            out.append(_parse_word_token(token))
    return out


def _word_product(n: int, width: int, bases: dict, tokens) -> np.ndarray:
    """The product of the tokens on the width-fold power of C^n, applied
    right to left to the identity one generator at a time."""
    out = np.eye(n**width, dtype=complex)
    for name, i, dag in reversed(tokens):
        if name != "id":
            out = _apply_local(out, n, bases[name], i, dag)
    return out


def evaluate_word(pair: MotzkinPair, k: int, word) -> np.ndarray:
    """Product of generator matrices; tokens like "l1", "t2", "p1'", "id",
    tuples (name, index) or (name, index, dagger), or ("adj", word)."""
    n = pair.n
    _check_dim(n, k)
    tokens = _flat_tokens(word)
    for name, i, _ in tokens:
        _check_index(k, name, i)
    names = {name for name, _, _ in tokens} - {"id"}
    bases = {name: _generator_base(pair, name) for name in names}
    return _word_product(n, k, bases, tokens)


# ---------------------------------------------------------------------------
# Direct diagram evaluation


def evaluate_diagram(pair: MotzkinPair, diagram: MotzkinDiagram) -> np.ndarray:
    """The matrix of a single diagram, assembled from its strand features.

    Every through strand, arc and isolated point contributes one factor on
    its own tensor axes (a delta, the scaled pair vector, or b), and the
    matrix is their product; how deeply arcs nest does not enter.
    """
    n, k = pair.n, diagram.width
    _check_dim(n, k)
    p = diagram.pairing

    lam = float(pair.lam)
    root = lam**-0.5
    vA2 = pair.vA().reshape(n, n)
    shape = (n,) * (2 * k)
    X = np.ones(shape, dtype=complex)

    def mul_axes(arr, axes):
        target = [1] * (2 * k)
        for ax in axes:
            target[ax] = n
        X_view = arr.reshape(target)
        return X_view

    out = X
    for i in range(k):
        j = p[i]
        if j == -1:
            out = out * mul_axes(pair.b, [i])
        elif j >= k:
            out = out * mul_axes(np.eye(n), [i, j])
        elif j > i:
            out = out * mul_axes(root * vA2, [i, j])
    for i in range(k, 2 * k):
        j = p[i]
        if j == -1:
            out = out * mul_axes(pair.b.conj(), [i])
        elif j > i:
            out = out * mul_axes(root * vA2.conj(), [i, j])
    return out.reshape(n**k, n**k)


def evaluate_element(pair: MotzkinPair, x: Element) -> np.ndarray:
    """Linear extension of evaluate_diagram (coefficients become floats)."""
    n, k = pair.n, x.width
    out = np.zeros((n**k, n**k), dtype=complex)
    for d, c in x.terms.items():
        out += float(c) * evaluate_diagram(pair, d)
    return out


# ---------------------------------------------------------------------------
# Relation residuals and spanning dimension


def relation_residuals(pair: MotzkinPair, k: int) -> dict[str, float]:
    """Frobenius residual of every defining relation instance at width k.

    Each relation is evaluated on the window of w consecutive slots its
    words touch.  Every word is the identity outside that window, so the
    residual on the k-fold power is the window residual times n**((k-w)/2).
    """
    n = pair.n
    _check_dim(n, k)
    lam = float(pair.lam)
    bases = {name: _generator_base(pair, name) for name in _SITES}
    out: dict[str, float] = {}
    for label, lhs, rhs in presentation_relations(k):
        terms = [
            (sign * lam**power, _flat_tokens(word))
            for sign, side in ((1, lhs), (-1, rhs))
            for power, word in side
        ]
        touched = [
            (i, i + _SITES[name] - 1) for _, word in terms for name, i, _ in word
        ]
        lo = min(first for first, _ in touched)
        w = max(last for _, last in touched) - lo + 1
        total = np.zeros((n**w, n**w), dtype=complex)
        for coeff, word in terms:
            local = [(name, i - lo + 1, dag) for name, i, dag in word]
            total += coeff * _word_product(n, w, bases, local)
        out[label] = float(np.linalg.norm(total)) * n ** ((k - w) / 2)
    return out


def span_dimension(
    pair: MotzkinPair,
    k: int,
    tol: float = TOL_RANK,
    max_rounds: int = 12,
) -> tuple[int, int]:
    """Dimension of the algebra generated by the generator matrices at
    width k, found by closing the span under left multiplication.

    Returns (dimension, rounds), where `rounds` counts the closure sweeps
    needed before the span stops growing.
    """
    n = pair.n
    dim = _check_dim(n, k)
    gens = [np.eye(dim, dtype=complex)]
    for i in range(1, k):
        for name in ("l", "r", "t"):
            gens.append(generator_operator(pair, k, name, i))
    for i in range(1, k + 1):
        gens.append(generator_operator(pair, k, "p", i))

    basis: list[np.ndarray] = []      # orthonormal vectorised operators
    members: list[np.ndarray] = []    # the matrices they came from

    def try_add(candidates: list[np.ndarray]) -> int:
        vecs = [c.reshape(-1) for c in candidates]
        norms = [float(np.linalg.norm(v)) for v in vecs]
        scale = max(norms) if norms else 1.0
        added = 0
        residuals = []
        for v in vecs:
            w = v.copy()
            for q in basis:
                w -= np.vdot(q, w) * q
            residuals.append(w)
        live = list(range(len(vecs)))
        while live:
            pick = max(live, key=lambda idx: (np.linalg.norm(residuals[idx]), -idx))
            w = residuals[pick]
            nw = float(np.linalg.norm(w))
            if nw <= tol * scale:
                break
            q = w / nw
            basis.append(q)
            members.append(candidates[pick])
            added += 1
            live.remove(pick)
            for idx in live:
                residuals[idx] = residuals[idx] - np.vdot(q, residuals[idx]) * q
        return added

    try_add(gens)
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        new = [g @ m for g in gens[1:] for m in list(members)]
        if try_add(new) == 0:
            break
    else:
        raise LimitError(f"span did not stabilise in {max_rounds} rounds")
    return len(basis), rounds


# ---------------------------------------------------------------------------
# Conditional expectation on the operator side


def rep_conditional_expectation(
    pair: MotzkinPair,
    X: np.ndarray,
    tol: float = TOL_CHECK,
) -> np.ndarray:
    """Push an operator on the (k+1)-fold power down to the k-fold power.

    Sandwiching X (x) 1 between t on the last two slots and p on the last
    slot factorises as what (x) P (x) P; the structural factorisation is
    verified and `what / lam` is returned, matching the diagram-side
    conditional expectation under evaluation.
    """
    n = pair.n
    lam = float(pair.lam)
    dim = X.shape[0]
    k = round(np.log(dim) / np.log(n)) - 1
    if n ** (k + 1) != dim or X.shape != (dim, dim):
        raise ParameterError(f"operator shape {X.shape} is not a power of n={n}")
    _check_dim(n, k + 2)

    P = p_matrix(pair)
    T = t_matrix(pair)
    D = n ** (k + 2)
    X1 = (X[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(D, D)
    # Z = (1 (x) P)(1 (x) T) X1 (1 (x) T)(1 (x) P).  T and P are self-adjoint,
    # so the right-hand factors act on the rows of the adjoint.
    Y = _apply_local(_apply_local(X1, n, T, k + 1), n, P, k + 2)
    Z = _apply_local(_apply_local(Y.conj().T, n, T, k + 1), n, P, k + 2).conj().T

    dk = n**k
    Zr = Z.reshape(dk, n, n, dk, n, n)
    b = pair.b
    what = np.einsum(
        "s,t,IstJuv,u,v->IJ",
        b.conj(), b.conj(), Zr, b, b, optimize=True,
    )
    # what (x) P (x) P, entry by entry as np.kron would form it.
    rebuilt = (
        what[:, None, None, :, None, None]
        * P[None, :, None, None, :, None]
        * P[None, None, :, None, None, :]
    ).reshape(D, D)
    residual = float(np.linalg.norm(Z - rebuilt))
    scale = max(1.0, float(np.linalg.norm(Z)))
    if residual > tol * scale:
        raise StructureError(
            f"sandwich did not factor through the last two slots "
            f"(residual {residual:.3e})"
        )
    return what / lam
