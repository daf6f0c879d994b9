"""Exact diagram calculus for the Motzkin algebra.

A Motzkin diagram of width k is a planar partial matching of k points on
the top edge and k points on the bottom edge of a rectangle.  Points are
indexed 0..k-1 along the top (left to right) and k..2k-1 along the bottom
(left to right); ``pairing[i]`` is the partner of point i, or -1 if the
point is isolated.  Planarity means the strands can be drawn inside the
rectangle without crossings, equivalently the matching is non-crossing in
the boundary's cyclic order.

Elements of the algebra are Fraction-linear combinations of diagrams of a
common width.  Stacking x over y multiplies them: closed loops formed in
the middle contribute a factor delta = 1/lam each, and strands that dead-end
on an unmatched middle point are simply erased.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Collection, Iterator, Sequence

import numpy as np

from .config import MAX_TERMS, MAX_WIDTH
from .errors import LimitError, ParameterError
from .qpoly import as_fraction

Pairing = tuple[int, ...]

# Number of adjacent columns each generator other than "id" occupies.
_SITES = {"p": 1, "l": 2, "r": 2, "t": 2}


def motzkin_number(m: int) -> int:
    """Number of Motzkin paths of length m (and of planar partial matchings
    of m cyclically ordered points)."""
    if m < 0:
        raise ParameterError(f"motzkin_number needs m >= 0, got {m}")
    vals = [1, 1]
    while len(vals) <= m:
        n = len(vals) - 1
        nxt = vals[n] + sum(vals[j] * vals[n - 1 - j] for j in range(n))
        vals.append(nxt)
    return vals[m]


def _boundary_order(width: int) -> list[int]:
    """Point indices in cyclic boundary order: top left-to-right, then
    bottom right-to-left."""
    return list(range(width)) + list(range(2 * width - 1, width - 1, -1))


def _is_planar(pairing: Sequence[int], width: int) -> bool:
    order = _boundary_order(width)
    slot = [0] * (2 * width)
    for s, p in enumerate(order):
        slot[p] = s
    stack: list[int] = []
    for p in order:
        q = pairing[p]
        if q < 0:
            continue
        if slot[q] > slot[p]:
            stack.append(p)
        else:
            if not stack or stack[-1] != q:
                return False
            stack.pop()
    return not stack


class MotzkinDiagram:
    """A single planar partial matching of 2*width boundary points."""

    __slots__ = ("width", "pairing", "_hash")

    def __init__(self, pairing: Sequence[int]):
        pairing = tuple(int(v) for v in pairing)
        if len(pairing) % 2:
            raise ParameterError("pairing must list an even number of points")
        width = len(pairing) // 2
        n = 2 * width
        for i, j in enumerate(pairing):
            if j == -1:
                continue
            if not 0 <= j < n or j == i or pairing[j] != i:
                raise ParameterError(
                    f"pairing {pairing} is not an involution at point {i}"
                )
        if not _is_planar(pairing, width):
            raise ParameterError(f"pairing {pairing} has crossing strands")
        self.width = width
        self.pairing = pairing
        self._hash = hash(pairing)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MotzkinDiagram)
            and self.pairing == other.pairing
        )

    def __repr__(self) -> str:
        return f"MotzkinDiagram({list(self.pairing)})"

    def to_json_dict(self) -> dict:
        return {"width": self.width, "pairing": list(self.pairing)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MotzkinDiagram":
        d = cls(data["pairing"])
        if d.width != data.get("width", d.width):
            raise ParameterError("diagram width does not match its pairing")
        return d


def _wrap(pairing: Pairing) -> MotzkinDiagram:
    # Internal fast path: trusts that `pairing` is already valid.
    d = MotzkinDiagram.__new__(MotzkinDiagram)
    d.width = len(pairing) // 2
    d.pairing = pairing
    d._hash = hash(pairing)
    return d


def enumerate_basis(k: int) -> list[MotzkinDiagram]:
    """All Motzkin diagrams of width k, sorted by pairing tuple.

    The list has motzkin_number(2k) entries.
    """
    if k < 0:
        raise ParameterError(f"width must be >= 0, got {k}")
    if k > MAX_WIDTH:
        raise LimitError(f"width {k} exceeds the configured bound {MAX_WIDTH}")
    order = _boundary_order(k)

    def matchings(seq: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        # Non-crossing partial matchings of the points in `seq`, which is
        # kept in cyclic-boundary order throughout the recursion.
        if not seq:
            yield ()
            return
        x, rest = seq[0], seq[1:]
        for m in matchings(rest):
            yield m
        for t in range(len(rest)):
            y = rest[t]
            inside, outside = rest[:t], rest[t + 1:]
            for mi in matchings(inside):
                for mo in matchings(outside):
                    yield mi + mo + ((x, y),)

    pairings = []
    for m in matchings(tuple(order)):
        arr = [-1] * (2 * k)
        for a, b in m:
            arr[a], arr[b] = b, a
        pairings.append(tuple(arr))
    pairings.sort()
    assert len(pairings) == motzkin_number(2 * k)
    return [_wrap(p) for p in pairings]


# ---------------------------------------------------------------------------
# Composition of diagrams

# Term pairs of a product are composed this many at a time.  Each working
# array of a block then stays under 100 kB at every width up to MAX_WIDTH,
# below the size at which the C allocator maps fresh pages for it.  Blocks
# of 2048 and 4096 pairs made g_5 * i(g_4) slower and raised the peak
# resident memory by 2-5 MB.
_BLOCK_PAIRS = 512


@lru_cache(maxsize=MAX_WIDTH + 1)
def _width_tables(k: int) -> tuple[np.ndarray, ...]:
    """Index tables of `_compose_rows` and the place values of `_decode`
    at width k; they depend on k alone and are never written to."""
    # The state each entry x of a pairing leads to, at position x (x = -1
    # reads the last position).  In the top diagram an entry x >= k is the
    # middle node x-k, left downwards; in the bottom one an entry x < k is
    # the middle node x, left upwards.  Outer point x is x - 2k and the
    # dead end -(2k+1); these index the absorbing tail from the end.
    via_top = np.array([x - k if x >= k else x - 2 * k for x in range(2 * k)]
                       + [-2 * k - 1])
    via_bottom = np.array([x + k if x < k else x - 2 * k for x in range(2 * k)]
                          + [-2 * k - 1])
    tail = np.arange(-2 * k - 1, 0)
    place = (2 * k + 1) ** np.arange(2 * k, dtype=np.int64)
    tables = (via_top, via_bottom, tail, place)
    for table in tables:
        table.flags.writeable = False
    return tables


def _compose_rows(top: np.ndarray, bottom: np.ndarray, k: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stack top[b] over bottom[b] for every row b of two (B, 2k) integer
    arrays of pairings.  Return the (B,) codes of the result pairings (see
    `_decode`) and the (B,) numbers of closed loops.

    Middle node m is the bottom point k+m of the top diagram glued to the
    top point m of the bottom one.  Row b has 2k states, "down at m" (at
    2kb + m, leave m through the bottom diagram) and "up at m" (at
    2kb + k + m, leave through the top diagram).  One flat transition table
    holds them all, followed by 2k+1 absorbing states shared by every row:
    the dead end and the outer points (top points as in the top diagram,
    bottom points as in the bottom one).  No walk meets a middle node twice
    without closing, so every walk ends within k steps, and ceil(log2 k)
    squarings of the table carry each state to its end.  A state still on
    a middle node then lies on a closed loop, which is two directed cycles
    (one per orientation); the squarings also track the least state seen,
    which picks one state per cycle.
    """
    via_top, via_bottom, tail, place = _width_tables(k)
    rows = len(top)
    t = via_top[top]
    b = via_bottom[bottom]
    # Each row's middle-state transitions, then the state each outer point
    # leads to; middle states move to the row's place in the flat table.
    local = np.concatenate((b[:, :k], t[:, k:], t[:, :k], b[:, k:]), axis=1)
    offset = np.arange(rows)[:, None] * (2 * k)
    flat = np.where(local >= 0, local + offset, local)
    table = np.concatenate((flat[:, :2 * k].ravel(), tail))
    states = np.arange(len(table))
    least = states
    for _ in range(max(k - 1, 0).bit_length()):  # 2**steps >= k
        least = np.minimum(least, least.take(table))
        table = table.take(table)
    heads = (least == states) & (table >= 0)
    loops = heads[:2 * k * rows].reshape(rows, 2 * k).sum(axis=1) // 2
    return (table.take(flat[:, 2 * k:]) + (2 * k + 1)) @ place, loops


def _decode(codes: np.ndarray, k: int) -> list[Pairing]:
    """The pairings with the given codes.  A code holds point i's partner
    plus one (0 when isolated) as digit i in base 2k+1."""
    digits = codes[:, None] // _width_tables(k)[3] % (2 * k + 1) - 1
    return [tuple(row) for row in digits.tolist()]


def _numerators(coeffs: Collection[Fraction]) -> tuple[list[int], int]:
    """`coeffs` as integers over their least common denominator, and that
    denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _sum_dtype(a1: list[int], a2: list[int], lam: Fraction, k: int) -> type:
    """np.int64 when no sum of `_product_terms` over numerators a1 and a2 at
    width k can reach 2**62 in size, else object (Python ints)."""
    big = max(lam.numerator, lam.denominator) ** (k // 2)
    bound = max(map(abs, a1)) * max(map(abs, a2)) * big * len(a1) * len(a2)
    return np.int64 if bound < 2**62 else object


def _group(code: np.ndarray, value: np.ndarray, first: np.ndarray):
    """Sum `value` over equal `code`s; keep the least `first` of each code."""
    order = code.argsort(kind="stable")
    code = code[order]
    head = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
    return (code[head], np.add.reduceat(value[order], head),
            np.minimum.reduceat(first[order], head))


def _product_terms(x: "Element", y: "Element") -> dict:
    """The terms of x * y, composing every term pair with `_compose_rows`,
    _BLOCK_PAIRS pairs at a time.

    With lam = p/q, coefficients a1/d1 and a2/d2, and at most L = k // 2
    loops at width k, a pair that closes l loops adds a1 a2 q^l p^(L-l)
    over the common denominator d1 d2 p^L.  These integer sums are exact:
    in int64 where `_sum_dtype` allows, otherwise in Python ints.  A
    block is reduced to its distinct results before the next is composed,
    and the result terms come in the order in which the pairs (x's terms
    outer, y's inner) first reach them.
    """
    k = x.width
    if k > MAX_WIDTH:
        # Result codes (see `_decode`) fit in int64 only up to width 7.
        raise LimitError(f"width {k} exceeds the configured bound {MAX_WIDTH}")
    n1, n2 = len(x.terms), len(y.terms)
    if not n1 or not n2:
        return {}
    a1, d1 = _numerators(x.terms.values())
    a2, d2 = _numerators(y.terms.values())
    p, q = x.lam.numerator, x.lam.denominator
    most = k // 2
    dtype = _sum_dtype(a1, a2, x.lam, k)
    a1 = np.array(a1, dtype=dtype)
    a2 = np.array(a2, dtype=dtype)
    weight = np.array([q**l * p ** (most - l) for l in range(most + 1)], dtype=dtype)
    top = np.array([d.pairing for d in x.terms], dtype=np.intp).reshape(n1, 2 * k)
    bottom = np.array([d.pairing for d in y.terms], dtype=np.intp).reshape(n2, 2 * k)

    found: list[tuple] = []
    held, limit = 0, 4 * _BLOCK_PAIRS
    for start in range(0, n1 * n2, _BLOCK_PAIRS):
        pair = np.arange(start, min(start + _BLOCK_PAIRS, n1 * n2))
        i, j = np.divmod(pair, n2)
        code, loops = _compose_rows(top[i], bottom[j], k)
        found.append(_group(code, a1[i] * a2[j] * weight[loops], pair))
        held += len(found[-1][0])
        if held > limit:
            found = [_group(*map(np.concatenate, zip(*found)))]
            held = len(found[0][0])
            limit = max(limit, 2 * held)
    if len(found) > 1:
        found = [_group(*map(np.concatenate, zip(*found)))]
    code, total, first = found[0]
    if len(code) > MAX_TERMS:
        raise LimitError(f"product has more than {MAX_TERMS} terms")
    keep = np.flatnonzero(total)
    keep = keep[first[keep].argsort()]
    den = d1 * d2 * p**most
    return {
        _wrap(pairing): Fraction(num, den)
        for pairing, num in zip(_decode(code[keep], k), total[keep].tolist())
    }


# ---------------------------------------------------------------------------
# Elements


class Element:
    """A Fraction-linear combination of Motzkin diagrams of one width.

    `lam` is the algebra parameter; a closed loop formed during
    multiplication is worth delta = 1/lam.
    """

    __slots__ = ("width", "lam", "terms")

    def __init__(self, width: int, lam, terms: dict | None = None):
        self.width = int(width)
        self.lam = as_fraction(lam)
        if self.lam <= 0:
            raise ParameterError(f"lam must be positive, got {self.lam}")
        clean: dict[MotzkinDiagram, Fraction] = {}
        if terms:
            for d, c in terms.items():
                c = as_fraction(c)
                if c == 0:
                    continue
                if not isinstance(d, MotzkinDiagram):
                    d = MotzkinDiagram(d)
                if d.width != self.width:
                    raise ParameterError(
                        f"diagram of width {d.width} in an element of width {self.width}"
                    )
                clean[d] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, width: int, lam: Fraction, terms: dict) -> "Element":
        # Internal fast path: trusts that `terms` maps diagrams of this
        # width to nonzero Fractions and that `lam` is a positive Fraction.
        e = cls.__new__(cls)
        e.width, e.lam, e.terms = width, lam, terms
        return e

    @classmethod
    def zero(cls, width: int, lam) -> "Element":
        return cls(width, lam, {})

    @classmethod
    def from_diagram(cls, diagram: MotzkinDiagram, lam, coeff=1) -> "Element":
        return cls(diagram.width, lam, {diagram: as_fraction(coeff)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, diagram: MotzkinDiagram) -> Fraction:
        return self.terms.get(diagram, Fraction(0))

    def identity_coefficient(self) -> Fraction:
        k = self.width
        return self.coefficient(_wrap(tuple(range(k, 2 * k)) + tuple(range(k))))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.width == other.width
            and self.lam == other.lam
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("Element is not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return f"Element(width={self.width}, 0)"
        parts = [
            f"{c}*{list(d.pairing)}"
            for d, c in sorted(self.terms.items(), key=lambda t: t[0].pairing)
        ]
        body = " + ".join(parts[:6])
        if len(parts) > 6:
            body += f" + ... ({len(parts)} terms)"
        return f"Element(width={self.width}, {body})"

    # -- linear structure ---------------------------------------------

    def _check_compatible(self, other: "Element") -> None:
        if not isinstance(other, Element):
            raise ParameterError(f"expected an Element, got {other!r}")
        if self.width != other.width:
            raise ParameterError(
                f"width mismatch: {self.width} vs {other.width}"
            )
        if self.lam != other.lam:
            raise ParameterError(f"lam mismatch: {self.lam} vs {other.lam}")

    def __add__(self, other: "Element") -> "Element":
        self._check_compatible(other)
        acc = dict(self.terms)
        for d, c in other.terms.items():
            s = acc.get(d, Fraction(0)) + c
            if s == 0:
                acc.pop(d, None)
            else:
                acc[d] = s
        return Element._trusted(self.width, self.lam, acc)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._trusted(
            self.width, self.lam, {d: -c for d, c in self.terms.items()}
        )

    def scale(self, scalar) -> "Element":
        c = as_fraction(scalar)
        if c == 0:
            return Element.zero(self.width, self.lam)
        return Element._trusted(
            self.width, self.lam, {d: c * v for d, v in self.terms.items()}
        )

    def __rmul__(self, scalar) -> "Element":
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    # -- multiplication -----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        return Element._trusted(self.width, self.lam, _product_terms(self, other))

    def adjoint(self) -> "Element":
        return adjoint(self)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        items = sorted(self.terms.items(), key=lambda t: t[0].pairing)
        return {
            "width": self.width,
            "lambda": str(self.lam),
            "terms": [
                {"pairing": list(d.pairing), "coeff": str(c)} for d, c in items
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Element":
        width = int(data["width"])
        lam = Fraction(data["lambda"])
        terms: dict[MotzkinDiagram, Fraction] = {}
        for item in data.get("terms", []):
            d = MotzkinDiagram(item["pairing"])
            if d.width != width:
                raise ParameterError("term width does not match element width")
            terms[d] = terms.get(d, Fraction(0)) + Fraction(item["coeff"])
        return cls(width, lam, terms)


def _relabel(p: Pairing, point_map: Sequence[int], out: list[int]) -> list[int]:
    """Copy the strands of p into `out`, sending point i to point_map[i]."""
    for i, j in enumerate(p):
        if j >= 0:
            out[point_map[i]] = point_map[j]
    return out


def _relabel_terms(x: Element, point_map: Sequence[int]) -> dict:
    return {
        _wrap(tuple(_relabel(d.pairing, point_map, [-1] * (2 * x.width)))): c
        for d, c in x.terms.items()
    }


def adjoint(x: Element) -> Element:
    """Flip every diagram upside down (coefficients are real, so left alone)."""
    k = x.width
    flip = list(range(k, 2 * k)) + list(range(k))
    return Element._trusted(k, x.lam, _relabel_terms(x, flip))


def reflect(x: Element) -> Element:
    """Mirror every diagram left-to-right."""
    k = x.width
    mirror = list(range(k - 1, -1, -1)) + list(range(2 * k - 1, k - 1, -1))
    return Element._trusted(k, x.lam, _relabel_terms(x, mirror))


def embed(x: Element, h: int = 1) -> Element:
    """Add h vertical strands on the right: the standard inclusion into
    width x.width + h."""
    if h < 0:
        raise ParameterError(f"embed needs h >= 0, got {h}")
    if h == 0:
        return x
    return juxtapose(x, identity(h, lam=x.lam))


def juxtapose(x: Element, y: Element) -> Element:
    """Place x to the left of y, giving an element of width x.width + y.width."""
    if x.lam != y.lam:
        raise ParameterError(f"lam mismatch: {x.lam} vs {y.lam}")
    p, q = x.width, y.width
    w = p + q
    if w > MAX_WIDTH:
        raise LimitError(f"width {w} exceeds the configured bound {MAX_WIDTH}")
    left = list(range(p)) + list(range(w, w + p))
    right = list(range(p, w)) + list(range(w + p, 2 * w))
    terms: dict[MotzkinDiagram, Fraction] = {}
    for d1, c1 in x.terms.items():
        base = _relabel(d1.pairing, left, [-1] * (2 * w))
        for d2, c2 in y.terms.items():
            key = _wrap(tuple(_relabel(d2.pairing, right, list(base))))
            c = c1 * c2
            prev = terms.get(key)
            terms[key] = c if prev is None else prev + c
    return Element._trusted(
        w, x.lam, {d: c for d, c in terms.items() if c != 0}
    )


def conditional_expectation(x: Element) -> Element:
    """Close the rightmost column and multiply by lam; maps width k to k-1.

    On the identity it returns the identity one width down.
    """
    k = x.width
    if k == 0:
        raise ParameterError("conditional expectation needs width >= 1")
    lam = x.lam
    delta = 1 / lam
    w = k - 1

    def m(i: int) -> int:
        # Index map after dropping points k-1 (top right) and 2k-1 (bottom right).
        return i if i < k - 1 else i - 1

    acc: dict[Pairing, Fraction] = {}
    for d, c in x.terms.items():
        p = d.pairing
        a, b = p[k - 1], p[2 * k - 1]
        new = [-1] * (2 * w)
        for i, j in enumerate(p):
            if i in (k - 1, 2 * k - 1) or j < 0:
                continue
            if j in (k - 1, 2 * k - 1):
                continue
            new[m(i)] = m(j)
        coeff = c * lam
        if a == 2 * k - 1:
            # The closed column forms a loop.
            coeff *= delta
        elif a >= 0 and b >= 0:
            new[m(a)], new[m(b)] = m(b), m(a)
        # If exactly one of a, b is matched, the closure dies on the
        # isolated side and the surviving end becomes isolated: nothing
        # to add.  If both are isolated nothing happens either.
        key = tuple(new)
        prev = acc.get(key)
        acc[key] = coeff if prev is None else prev + coeff
    return Element._trusted(
        w, lam, {_wrap(p): c for p, c in acc.items() if c != 0}
    )


# ---------------------------------------------------------------------------
# Generators


def identity(k: int, *, lam) -> Element:
    pairing = tuple(range(k, 2 * k)) + tuple(range(k))
    return Element(k, lam, {_wrap(pairing): Fraction(1)})


def _check_generator(k: int, name: str, i: int | None) -> None:
    """'id' needs no index.  'l', 'r' and 't' need 1 <= i <= k-1; 'p' needs
    1 <= i <= k."""
    if name == "id":
        return
    if name not in _SITES:
        raise ParameterError(f"unknown generator {name!r}")
    if i is None:
        raise ParameterError(f"generator {name!r} needs an index")
    hi = k - _SITES[name] + 1
    if not 1 <= i <= hi:
        raise ParameterError(f"index {i} of {name!r} out of range 1..{hi}")


def generator(k: int, name: str, i: int | None = None, *, lam) -> Element:
    """The generator `name` with (1-based) index i inside width k; 't'
    carries its defining coefficient lam."""
    if k < 0 or k > MAX_WIDTH:
        raise ParameterError(f"width {k} out of range 0..{MAX_WIDTH}")
    _check_generator(k, name, i)
    if name == "id":
        return identity(k, lam=lam)
    arr = list(range(k, 2 * k)) + list(range(k))
    c = i - 1  # 0-based column
    if name == "p":
        arr[c] = -1
        arr[k + c] = -1
        coeff = Fraction(1)
    elif name == "l":
        arr[c], arr[k + c + 1] = k + c + 1, c
        arr[c + 1] = -1
        arr[k + c] = -1
        coeff = Fraction(1)
    elif name == "r":
        arr[c + 1], arr[k + c] = k + c, c + 1
        arr[c] = -1
        arr[k + c + 1] = -1
        coeff = Fraction(1)
    else:  # "t"
        arr[c], arr[c + 1] = c + 1, c
        arr[k + c], arr[k + c + 1] = k + c + 1, k + c
        coeff = as_fraction(lam)
    return Element(k, lam, {_wrap(tuple(arr)): coeff})


# ---------------------------------------------------------------------------
# Presentation


def presentation_relations(k: int) -> Iterator[tuple[str, list, list]]:
    """Yield (label, lhs, rhs) for every defining relation instance at width k.

    lhs and rhs are lists of (lam_power, word) pairs; a word is a tuple of
    tokens (name, index, dagger).  The relation asserts
    sum lam**p * word == sum lam**p * word.
    """

    def L(i, dag=False):
        return ("l", i, dag)

    def T(i, dag=False):
        return ("t", i, dag)

    one = 0  # lam power zero

    for i in range(1, k):
        yield (f"(0)[i={i}]", [(one, (T(i),))], [(one, (T(i, True),))])
        yield (f"(1)[i={i}]", [(one, (L(i), L(i)))], [(one, (L(i), L(i), L(i)))])
        yield (f"(3)[i={i}]", [(one, (L(i), L(i, True), L(i)))], [(one, (L(i),))])
        yield (f"(7)[i={i}]", [(one, (T(i), T(i)))], [(one, (T(i),))])
        yield (f"(9)[i={i}]", [(one, (T(i), L(i)))], [(one, (T(i), L(i, True)))])
        yield (f"(12)[i={i}]", [(one, (T(i), L(i), T(i)))], [(1, (T(i),))])
    for i in range(1, k - 1):
        yield (
            f"(2a)[i={i}]",
            [(one, (L(i), L(i + 1), L(i)))],
            [(one, (L(i), L(i + 1)))],
        )
        yield (
            f"(2b)[i={i}]",
            [(one, (L(i + 1), L(i), L(i + 1)))],
            [(one, (L(i), L(i + 1)))],
        )
        yield (
            f"(4a)[i={i}]",
            [(one, (L(i + 1), L(i, True), L(i)))],
            [(one, (L(i + 1), L(i, True)))],
        )
        yield (
            f"(5)[i={i}]",
            [(one, (L(i), L(i, True)))],
            [(one, (L(i + 1, True), L(i + 1)))],
        )
        yield (
            f"(8a)[i={i}]",
            [(one, (T(i), T(i + 1), T(i)))],
            [(2, (T(i),))],
        )
        yield (
            f"(8b)[i={i}]",
            [(one, (T(i + 1), T(i), T(i + 1)))],
            [(2, (T(i + 1),))],
        )
        yield (
            f"(10)[i={i}]",
            [(1, (T(i), L(i + 1, True)))],
            [(one, (T(i), T(i + 1), L(i)))],
        )
        yield (
            f"(11)[i={i}]",
            [(one, (L(i, True), L(i + 1, True), T(i)))],
            [(one, (T(i + 1), L(i, True), L(i + 1, True)))],
        )
    for i in range(2, k):
        yield (
            f"(4b)[i={i}]",
            [(one, (L(i), L(i, True), L(i - 1)))],
            [(one, (L(i, True), L(i - 1)))],
        )
    for i in range(1, k):
        for j in range(i + 2, k):
            for x in (L(i), L(i, True), T(i)):
                for y in (L(j), L(j, True), T(j)):
                    desc = f"(6)[{x[0]}{i}{'*' if x[2] else ''},{y[0]}{j}{'*' if y[2] else ''}]"
                    yield (desc, [(one, (x, y))], [(one, (y, x))])


def _token_element(k: int, lam, token) -> Element:
    name, idx, dag = token
    g = generator(k, name, idx, lam=lam)
    return adjoint(g) if dag else g


def _word_element(k: int, lam, word) -> Element:
    if not word:
        return identity(k, lam=lam)
    out = _token_element(k, lam, word[0])
    for token in word[1:]:
        out = out * _token_element(k, lam, token)
    return out


def _side_element(k: int, lam, side) -> Element:
    lam = as_fraction(lam)
    total = Element.zero(k, lam)
    for power, word in side:
        total = total + _word_element(k, lam, word).scale(lam**power)
    return total


@dataclass
class PresentationReport:
    width: int
    lam: Fraction
    checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_presentation(k: int, lam) -> PresentationReport:
    """Verify every defining relation exactly at width k; all arithmetic
    is exact, so a pass is a proof for this width and lam.  Widths below
    2 have no relation to check and raise ParameterError."""
    if k < 2:
        raise ParameterError(f"need k >= 2 for a relation to check, got {k}")
    lam = as_fraction(lam)
    checked = 0
    failures = []
    for label, lhs, rhs in presentation_relations(k):
        checked += 1
        if _side_element(k, lam, lhs) != _side_element(k, lam, rhs):
            failures.append(label)
    return PresentationReport(width=k, lam=lam, checked=checked, failures=failures)
