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
from math import gcd, lcm
from operator import mul

from .diagram_core import (
    Element,
    _check_width,
    adjoint,
    conditional_expectation,
    embed,
    enumerate_basis,
    generator,
    identity,
    juxtapose,
    products,
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
        _check_width(k)
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
            head, middle = products([(prev, one - p_top), (prev, t_top)])
            g = head - (middle * prev).scale(phi(m))
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
    gt, x = products([(g, t), (g, cup_element(k, lam))])
    q = (gt * g).scale(c)
    # The three checks' products in one kernel pass, then checked in turn.
    xs = adjoint(x)
    qq, xx, xsx = products([(q, q), (x, xs), (xs, x)])
    if qq != q or adjoint(q) != q:
        raise StructureError(f"q_{k} is not a self-adjoint idempotent")
    if xx.scale(c * lam) != q:
        raise StructureError(f"x x* does not recover q_{k}")
    target = (
        embed(cache.element(k - 1, lam), 2)
        * generator(k + 1, "p", k, lam=lam)
        * generator(k + 1, "p", k + 1, lam=lam)
    )
    if xsx.scale(c * lam) != target:
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

    self_adjoint = adjoint(g) == g
    reflect_invariant = reflect(g) == g

    # g p_i and p_i g for i = 1 .. k in one kernel pass; i = k is informational.
    ps = [generator(k, "p", i, lam=lam) for i in range(1, k + 1)]
    kills = [z.is_zero() for z in products([pair for p in ps for pair in ((g, p), (p, g))])]
    annihilation, kills_top_p = all(kills[:-2]), all(kills[-2:])

    # E(g_k) = mu * g_{k-1} where mu = 1/phi(k), equivalently
    # mu = (1/lam - 1) P_k(x) / ((1/lam) P_{k-1}(x)) with x = 1/(1/lam-1)**2.
    mu = 1 / phi(k)
    y = 1 / lam - 1
    x = 1 / y**2
    mu_poly = (y * chebyshev_P(k, x)) / ((1 / lam) * chebyshev_P(k - 1, x))
    expectation_ok = mu == mu_poly and conditional_expectation(g) == cache.element(
        k - 1, lam
    ).scale(mu)

    # g g goes in one kernel pass with the mirrored recursion's first products.
    if k == 1:
        square, symmetric_recursion = g * g, True
    else:
        m = k - 1
        left = juxtapose(identity(1, lam=lam), cache.element(m, lam))
        head = identity(k, lam=lam) - generator(k, "p", 1, lam=lam)
        t1 = generator(k, "t", 1, lam=lam)
        square, left_head, left_t1 = products([(g, g), (left, head), (left, t1)])
        symmetric_recursion = left_head - (left_t1 * left).scale(phi(m)) == g
    idempotent = square == g

    pads = []
    for q in range(1, k):
        gq, one = cache.element(q, lam), identity(k - q, lam=lam)
        pads += [juxtapose(gq, one), juxtapose(one, gq)]
    absorption = all(h == g for h in products([(g, pad) for pad in pads]))

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


def _primitive(ints: list[int]) -> list[int]:
    """`ints` divided by the gcd of its entries."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _rational_rank(rows: list[list[int]]) -> int:
    """Rank of a matrix of integers by fraction-free Gaussian elimination.

    A pivot row `prow` with pivot `pv` clears the entry f of a row below it
    as pv*row - f*prow; every row, given or new, is divided by the gcd of
    its entries.  A given row that repeats another up to sign, once
    divided, is dropped before elimination.
    """
    work = [_primitive(row) for row in rows if any(row)]
    signed = (row if next(filter(None, row)) > 0 else [-v for v in row] for row in work)
    work = [list(row) for row in dict.fromkeys(map(tuple, signed))]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(work):
        pivot = next(
            (r for r in range(rank, len(work)) if work[r][col] != 0), None
        )
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        pv = prow[col]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f != 0:
                work[r] = _primitive([pv * a - f * b for a, b in zip(work[r], prow)])
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
    rows, basis, scale = _probe_rows(k, lam, g)
    dim = len(basis) - _rational_rank(rows)

    # Column j is scaled by scale[j]: g is a solution if the rows kill g_j / scale[j].
    common = lcm(*scale)
    gv = [g._num.get(d, 0) * (common // s) for d, s in zip(basis, scale)]
    contains = all(sum(map(mul, row, gv)) == 0 for row in rows)
    return UniquenessReport(
        width=k, lam=lam, solution_dimension=dim, contains_jw=contains
    )


def _probe_rows(k: int, lam: Fraction, g: Element) -> tuple[list[list[int]], list, list[int]]:
    """The linear system of `uniqueness_probe` as integer rows, the basis
    of width k that numbers its columns, and the scale of each column.

    Column j holds the images of basis diagram y_j times scale[j], the lcm
    of their denominators; scaling a column keeps the rank."""
    basis = enumerate_basis(k)
    index = {d: j for j, d in enumerate(basis)}
    # Per basis diagram y: p_i y and y p_i (i < k), g y and y g, all in one
    # kernel pass and popped as read; then g y - y, y g - y and y* - y.
    factors = [generator(k, "p", i, lam=lam) for i in range(1, k)] + [g]
    ys = [Element.from_diagram(d, lam) for d in basis]
    done = products([pair for y in ys for f in factors for pair in ((f, y), (y, f))])[::-1]
    # One dict per constraint: rows by output diagram, columns by basis diagram.
    outs: list[dict[int, list[int]]] = [{} for _ in range(2 * len(factors) + 1)]
    scale = []
    for j, y in enumerate(ys):
        image = [done.pop() for _ in range(2 * len(factors))]
        image[-2:] = [image[-2] - y, image[-1] - y, adjoint(y) - y]
        scale.append(lcm(*(z._den for z in image)))
        for out, z in zip(outs, image):
            f = scale[j] // z._den
            for diag, num in z._num.items():
                out.setdefault(index[diag], [0] * len(basis))[j] = num * f
    return [row for out in outs for row in out.values()], basis, scale
