"""The tower of Jones-Wenzl idempotents inside the Motzkin algebras.

The tower starts at g_1 = 1 - p_1 (width 1) and climbs by

    g_{k+1} = i(g_k) (1 - p_{k+1}) - phi(k) i(g_k) t_k i(g_k)

inside width k+1, where i is the right-embedding and phi is the exact
rational ratio from ``qpoly``.  Every g_k is a self-adjoint idempotent
that kills p_1 .. p_{k-1} on both sides, and the rightmost-column
conditional expectation contracts the tower: E(g_k) = g_{k-1} / phi(k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import MAX_WIDTH
from .diagram_core import (
    Element,
    adjoint,
    conditional_expectation,
    embed,
    generator,
    identity,
    juxtapose,
    reflect,
)
from .errors import LimitError, ParameterError, StructureError
from .qpoly import PhiFunction, as_fraction, chebyshev_P


class JWCache:
    """Memoises the tower g_1, g_2, ... for each lam."""

    def __init__(self):
        self._elements: dict[tuple[int, Fraction], Element] = {}
        self._phi: dict[Fraction, PhiFunction] = {}

    def phi(self, lam: Fraction) -> PhiFunction:
        if lam not in self._phi:
            self._phi[lam] = PhiFunction(lam)
        return self._phi[lam]

    def element(self, k: int, lam) -> Element:
        lam = as_fraction(lam)
        if k < 0:
            raise ParameterError(f"need k >= 0, got {k}")
        if k > MAX_WIDTH:
            raise LimitError(f"width {k} exceeds the configured bound {MAX_WIDTH}")
        key = (k, lam)
        if key in self._elements:
            return self._elements[key]
        phi = self.phi(lam)
        if k == 0:
            g = identity(0, lam=lam)
        elif k == 1:
            g = identity(1, lam=lam) - generator(1, "p", 1, lam=lam)
        else:
            m = k - 1
            prev = embed(self.element(m, lam))
            one = identity(k, lam=lam)
            p_top = generator(k, "p", k, lam=lam)
            t_top = generator(k, "t", m, lam=lam)
            g = prev * (one - p_top) - (prev * t_top * prev).scale(phi(m))
        self._elements[key] = g
        return g

    def clear(self) -> None:
        self._elements.clear()
        self._phi.clear()


_default_cache = JWCache()


def jones_wenzl(k: int, lam, cache: JWCache | None = None) -> Element:
    """The Jones-Wenzl idempotent g_k as an exact width-k element."""
    return (cache or _default_cache).element(k, lam)


def qk_element(k: int, lam, cache: JWCache | None = None) -> tuple[Element, Element]:
    """The width-(k+1) projection q_k = phi(k) i(g_k) t_k i(g_k), paired
    with the rational core x = i(g_k) * c_k of the partial isometry that
    carries q_k onto i(g_{k-1}) p_k p_{k+1}.

    The genuine partial isometry is sqrt(phi(k) lam) * x; to stay in exact
    arithmetic the scalar is squared away and the checks performed here are

        phi(k) lam (x x*) = q_k
        phi(k) lam (x* x) = i(g_{k-1}) p_k p_{k+1}

    together with q_k being a self-adjoint idempotent.  A failure of any of
    these exact identities raises StructureError.
    """
    cache = cache or _default_cache
    lam = as_fraction(lam)
    c = cache.phi(lam)(k)
    g = embed(cache.element(k, lam))
    t = generator(k + 1, "t", k, lam=lam)
    q = (g * t * g).scale(c)
    if q * q != q or adjoint(q) != q:
        raise StructureError(f"q_{k} is not a self-adjoint idempotent")
    x = g * cup_element(k, lam)
    if (x * adjoint(x)).scale(c * lam) != q:
        raise StructureError(f"x x* does not recover q_{k}")
    target = (
        embed(cache.element(k - 1, lam), 2)
        * generator(k + 1, "p", k, lam=lam)
        * generator(k + 1, "p", k + 1, lam=lam)
    )
    if (adjoint(x) * x).scale(c * lam) != target:
        raise StructureError(f"x* x does not recover g_{k - 1} p_{k} p_{k + 1}")
    return q, x


def cup_element(k: int, lam) -> Element:
    """The width-(k+1) diagram with a top arc on the last two columns,
    both bottom points of those columns isolated, and verticals elsewhere."""
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    w = k + 1
    arr = [-1] * (2 * w)
    for c in range(k - 1):
        arr[c], arr[w + c] = w + c, c
    arr[k - 1], arr[k] = k, k - 1
    return Element(w, lam, {tuple(arr): Fraction(1)})


@dataclass
class JWReport:
    """Exact verification results for one g_k."""

    width: int
    lam: Fraction
    idempotent: bool
    self_adjoint: bool
    reflect_invariant: bool
    annihilation: bool          # g_k p_i = p_i g_k = 0 for i <= k-1
    kills_top_p: bool           # informational: whether g_k p_k = 0 too
    expectation_coefficient: Fraction
    expectation_ok: bool        # E(g_k) = g_{k-1} / phi(k), both formulas
    symmetric_recursion: bool   # mirrored recursion gives the same element
    absorption: bool            # g_k absorbs lower idempotents on both sides
    identity_coefficient: Fraction

    @property
    def ok(self) -> bool:
        return (
            self.idempotent
            and self.self_adjoint
            and self.reflect_invariant
            and self.annihilation
            and self.expectation_ok
            and self.symmetric_recursion
            and self.absorption
            and self.identity_coefficient == 1
        )


def jw_report(k: int, lam, cache: JWCache | None = None) -> JWReport:
    """Run the exact property suite for g_k."""
    cache = cache or _default_cache
    lam = as_fraction(lam)
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    phi = cache.phi(lam)
    g = cache.element(k, lam)

    idempotent = (g * g) == g
    self_adjoint = adjoint(g) == g
    reflect_invariant = reflect(g) == g

    annihilation = True
    for i in range(1, k):
        p = generator(k, "p", i, lam=lam)
        if not (g * p).is_zero() or not (p * g).is_zero():
            annihilation = False
    p_top = generator(k, "p", k, lam=lam)
    kills_top_p = (g * p_top).is_zero() and (p_top * g).is_zero()

    # E(g_k) = mu * g_{k-1} where mu = 1/phi(k), equivalently
    # mu = (1/lam - 1) P_k(x) / ((1/lam) P_{k-1}(x)) with x = 1/(1/lam-1)**2.
    mu = 1 / phi(k)
    y = 1 / lam - 1
    x = 1 / y**2
    mu_poly = (y * chebyshev_P(k, x)) / ((1 / lam) * chebyshev_P(k - 1, x))
    expectation_ok = mu == mu_poly and conditional_expectation(g) == cache.element(
        k - 1, lam
    ).scale(mu)

    if k == 1:
        symmetric_recursion = True
    else:
        m = k - 1
        left = juxtapose(identity(1, lam=lam), cache.element(m, lam))
        head = identity(k, lam=lam) - generator(k, "p", 1, lam=lam)
        t1 = generator(k, "t", 1, lam=lam)
        mirrored = left * head - (left * t1 * left).scale(phi(m))
        symmetric_recursion = mirrored == g

    absorption = True
    for q in range(1, k):
        gq = cache.element(q, lam)
        right_pad = juxtapose(gq, identity(k - q, lam=lam))
        left_pad = juxtapose(identity(k - q, lam=lam), gq)
        if g * right_pad != g or g * left_pad != g:
            absorption = False
            break

    return JWReport(
        width=k,
        lam=lam,
        idempotent=idempotent,
        self_adjoint=self_adjoint,
        reflect_invariant=reflect_invariant,
        annihilation=annihilation,
        kills_top_p=kills_top_p,
        expectation_coefficient=mu,
        expectation_ok=expectation_ok,
        symmetric_recursion=symmetric_recursion,
        absorption=absorption,
        identity_coefficient=g.identity_coefficient(),
    )


# ---------------------------------------------------------------------------
# Uniqueness probe


def _rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix of Fractions by plain Gaussian elimination."""
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


@dataclass
class UniquenessReport:
    width: int
    lam: Fraction
    solution_dimension: int
    contains_jw: bool

    @property
    def ok(self) -> bool:
        return self.solution_dimension == 1 and self.contains_jw


def uniqueness_probe(k: int, lam, cache: JWCache | None = None) -> UniquenessReport:
    """Dimension of {y : p_i y = y p_i = 0 (i < k), g_k y = y g_k = y, y* = y}.

    The space should be exactly the line through g_k.  Exact rational
    elimination; limited to k <= 3 to keep the system small.
    """
    if not 1 <= k <= 3:
        raise LimitError("uniqueness probe is limited to 1 <= k <= 3")
    cache = cache or _default_cache
    lam = as_fraction(lam)
    g = cache.element(k, lam)

    from .diagram_core import enumerate_basis

    basis = enumerate_basis(k)
    index = {d: j for j, d in enumerate(basis)}
    nb = len(basis)

    constraints = []
    for i in range(1, k):
        p = generator(k, "p", i, lam=lam)
        constraints.append(lambda y, p=p: p * y)
        constraints.append(lambda y, p=p: y * p)
    constraints.append(lambda y: g * y - y)
    constraints.append(lambda y: y * g - y)
    constraints.append(lambda y: adjoint(y) - y)

    rows: list[list[Fraction]] = []
    images = []
    for d in basis:
        e = Element.from_diagram(d, lam)
        images.append([c(e) for c in constraints])
    ncons = len(constraints)
    for ci in range(ncons):
        # Rows indexed by output diagram; columns by input basis diagram.
        out: dict[int, list[Fraction]] = {}
        for j in range(nb):
            for diag, coeff in images[j][ci].terms.items():
                out.setdefault(index[diag], [Fraction(0)] * nb)[j] = coeff
        rows.extend(out.values())

    rank = _rational_rank(rows)
    dim = nb - rank

    gv = [g.coefficient(d) for d in basis]
    contains = all(c == 0 for c in _apply_rows(rows, gv))
    return UniquenessReport(
        width=k, lam=lam, solution_dimension=dim, contains_jw=contains
    )


def _apply_rows(rows: list[list[Fraction]], vec: list[Fraction]):
    for row in rows:
        yield sum(a * b for a, b in zip(row, vec))
