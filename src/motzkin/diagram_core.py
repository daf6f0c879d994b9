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
from typing import Iterable, Iterator, Sequence

from .config import MAX_TERMS, MAX_WIDTH
from .errors import LimitError, ParameterError
from .qpoly import as_fraction

Pairing = tuple[int, ...]

_GENERATOR_NAMES = ("id", "l", "r", "t", "p")


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

    def is_identity(self) -> bool:
        k = self.width
        return all(self.pairing[i] == k + i for i in range(k))

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


def _follow(p1: Pairing, p2: Pairing, k: int, m: int, via_upper: bool,
            visited: list[bool]) -> tuple[int, int] | None:
    """Walk the glued middle row starting at middle node m.

    `via_upper` means the edge that brought us here belonged to the upper
    factor, so the next edge to use is the lower factor's.  Returns
    (0, a) when the walk exits at top point a of the upper factor,
    (1, c) when it exits at bottom column c of the lower factor, or None
    when the strand dies on an unmatched middle point.
    """
    while True:
        visited[m] = True
        if via_upper:
            j = p2[m]
            if j < 0:
                return None
            if j >= k:
                return (1, j - k)
            m, via_upper = j, False
        else:
            j = p1[k + m]
            if j < 0:
                return None
            if j < k:
                return (0, j)
            m, via_upper = j - k, True


def _compose_pairings(p1: Pairing, p2: Pairing, k: int) -> tuple[Pairing, int]:
    """Stack p1 over p2; return (result pairing, number of closed loops)."""
    res = [-1] * (2 * k)
    visited = [False] * k
    for i in range(k):
        j = p1[i]
        if j < 0:
            continue
        if j < k:
            res[i] = j
            continue
        end = _follow(p1, p2, k, j - k, True, visited)
        if end is None:
            continue
        kind, a = end
        if kind == 0:
            res[i], res[a] = a, i
        else:
            res[i], res[k + a] = k + a, i
    for c in range(k):
        j = p2[k + c]
        if j < 0 or res[k + c] >= 0:
            continue
        if j >= k:
            res[k + c] = j
            continue
        end = _follow(p1, p2, k, j, False, visited)
        if end is None:
            continue
        kind, a = end
        assert kind == 1, "strand from the bottom row cannot exit at the top twice"
        res[k + c], res[k + a] = k + a, k + c
    loops = 0
    for m in range(k):
        if visited[m]:
            continue
        if p1[k + m] < 0 or p2[m] < 0:
            # Middle path with a free end: erased without any factor.
            _mark_dead(p1, p2, k, m, visited)
            continue
        cur, via = m, True
        is_cycle = False
        while True:
            visited[cur] = True
            j = p2[cur] if via else p1[k + cur]
            if j < 0:
                break
            nxt = j if via else j - k
            assert 0 <= nxt < k
            if visited[nxt]:
                is_cycle = True
                break
            cur, via = nxt, not via
        if is_cycle:
            loops += 1
        else:
            _mark_dead(p1, p2, k, m, visited)
    return tuple(res), loops


def _mark_dead(p1: Pairing, p2: Pairing, k: int, m: int,
               visited: list[bool]) -> None:
    # Mark every middle node reachable from m (in both directions).
    for start_via in (True, False):
        cur, via = m, start_via
        while True:
            visited[cur] = True
            j = p2[cur] if via else p1[k + cur]
            if j < 0:
                break
            nxt = j if via else j - k
            if not 0 <= nxt < k or visited[nxt]:
                break
            cur, via = nxt, not via


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
        return self._with_terms(acc)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return self._with_terms({d: -c for d, c in self.terms.items()})

    def scale(self, scalar) -> "Element":
        c = as_fraction(scalar)
        if c == 0:
            return Element.zero(self.width, self.lam)
        return self._with_terms({d: c * v for d, v in self.terms.items()})

    def __rmul__(self, scalar) -> "Element":
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    def _with_terms(self, terms: dict) -> "Element":
        e = Element.__new__(Element)
        e.width = self.width
        e.lam = self.lam
        e.terms = terms
        return e

    # -- multiplication -----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        k = self.width
        delta = 1 / self.lam
        acc: dict[Pairing, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                pairing, loops = _compose_pairings(d1.pairing, d2.pairing, k)
                c = c1 * c2
                if loops:
                    c *= delta**loops
                prev = acc.get(pairing)
                acc[pairing] = c if prev is None else prev + c
        if len(acc) > MAX_TERMS:
            raise LimitError(f"product has more than {MAX_TERMS} terms")
        terms = {_wrap(p): c for p, c in acc.items() if c != 0}
        return self._with_terms(terms)

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


def multiply(x: Element, y: Element) -> Element:
    return x * y


def adjoint(x: Element) -> Element:
    """Flip every diagram upside down (coefficients are real, so left alone)."""
    k = x.width

    def flip(i: int) -> int:
        return i + k if i < k else i - k

    terms = {}
    for d, c in x.terms.items():
        p = d.pairing
        new = [-1] * (2 * k)
        for i, j in enumerate(p):
            if j >= 0:
                new[flip(i)] = flip(j)
        terms[_wrap(tuple(new))] = c
    out = Element.__new__(Element)
    out.width, out.lam, out.terms = k, x.lam, terms
    return out


def _shift_pairing(p: Pairing, k: int, top_off: int, bot_off: int,
                   new_width: int, out: list[int]) -> None:
    # Copy pairing p of width k into `out` (width new_width), placing its
    # top points at columns top_off.. and bottom points at columns bot_off..
    def m(i: int) -> int:
        return i + top_off if i < k else new_width + (i - k) + bot_off

    for i, j in enumerate(p):
        if j >= 0:
            out[m(i)] = m(j)


def embed(x: Element, h: int = 1) -> Element:
    """Add h vertical strands on the right: the standard inclusion into
    width x.width + h."""
    if h < 0:
        raise ParameterError(f"embed needs h >= 0, got {h}")
    if h == 0:
        return x
    k, w = x.width, x.width + h
    if w > MAX_WIDTH:
        raise LimitError(f"width {w} exceeds the configured bound {MAX_WIDTH}")
    terms = {}
    for d, c in x.terms.items():
        new = [-1] * (2 * w)
        _shift_pairing(d.pairing, k, 0, 0, w, new)
        for j in range(k, w):
            new[j], new[w + j] = w + j, j
        terms[_wrap(tuple(new))] = c
    out = Element.__new__(Element)
    out.width, out.lam, out.terms = w, x.lam, terms
    return out


def juxtapose(x: Element, y: Element) -> Element:
    """Place x to the left of y, giving an element of width x.width + y.width."""
    if x.lam != y.lam:
        raise ParameterError(f"lam mismatch: {x.lam} vs {y.lam}")
    p, q = x.width, y.width
    w = p + q
    if w > MAX_WIDTH:
        raise LimitError(f"width {w} exceeds the configured bound {MAX_WIDTH}")
    terms: dict[MotzkinDiagram, Fraction] = {}
    for d1, c1 in x.terms.items():
        base = [-1] * (2 * w)
        _shift_pairing(d1.pairing, p, 0, 0, w, base)
        for d2, c2 in y.terms.items():
            new = list(base)
            _shift_pairing(d2.pairing, q, p, p, w, new)
            key = _wrap(tuple(new))
            c = c1 * c2
            prev = terms.get(key)
            terms[key] = c if prev is None else prev + c
    out = Element.__new__(Element)
    out.width, out.lam = w, x.lam
    out.terms = {d: c for d, c in terms.items() if c != 0}
    return out


def reflect(x: Element) -> Element:
    """Mirror every diagram left-to-right."""
    k = x.width

    def m(i: int) -> int:
        return k - 1 - i if i < k else 3 * k - 1 - i

    terms = {}
    for d, c in x.terms.items():
        new = [-1] * (2 * k)
        for i, j in enumerate(d.pairing):
            if j >= 0:
                new[m(i)] = m(j)
        terms[_wrap(tuple(new))] = c
    out = Element.__new__(Element)
    out.width, out.lam, out.terms = k, x.lam, terms
    return out


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
    out = Element.__new__(Element)
    out.width, out.lam = w, lam
    out.terms = {_wrap(p): c for p, c in acc.items() if c != 0}
    return out


# ---------------------------------------------------------------------------
# Generators


def identity(k: int, *, lam) -> Element:
    pairing = tuple(range(k, 2 * k)) + tuple(range(k))
    return Element(k, lam, {_wrap(pairing): Fraction(1)})


def generator(k: int, name: str, i: int | None = None, *, lam) -> Element:
    """The generator `name` with (1-based) index i inside width k.

    'id' needs no index.  'l', 'r' and 't' need 1 <= i <= k-1; 'p' needs
    1 <= i <= k.  't' carries its defining coefficient lam.
    """
    if k < 0 or k > MAX_WIDTH:
        raise ParameterError(f"width {k} out of range 0..{MAX_WIDTH}")
    if name not in _GENERATOR_NAMES:
        raise ParameterError(f"unknown generator {name!r}")
    if name == "id":
        return identity(k, lam=lam)
    if i is None:
        raise ParameterError(f"generator {name!r} needs an index")
    hi = k if name == "p" else k - 1
    if not 1 <= i <= hi:
        raise ParameterError(f"index {i} of {name!r} out of range 1..{hi}")
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

    def T(i):
        return ("t", i, False)

    one = 0  # lam power zero

    for i in range(1, k):
        yield (f"(0)[i={i}]", [(one, (T(i),))], [(one, (("adj", (T(i),)),))])
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
    if token[0] == "adj":
        inner = _word_element(k, lam, token[1])
        return adjoint(inner)
    name, idx, dag = token
    g = generator(k, name, idx, lam=lam)
    return adjoint(g) if dag else g


def _word_element(k: int, lam, word) -> Element:
    out = identity(k, lam=lam)
    for token in word:
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
    is done in Fractions, so a pass is a proof for this width and lam."""
    lam = as_fraction(lam)
    checked = 0
    failures = []
    for label, lhs, rhs in presentation_relations(k):
        checked += 1
        if _side_element(k, lam, lhs) != _side_element(k, lam, rhs):
            failures.append(label)
    return PresentationReport(width=k, lam=lam, checked=checked, failures=failures)
