"""Exact diagram calculus for the Motzkin algebra.

A Motzkin diagram of width k is a planar partial matching of k points on
the top edge and k points on the bottom edge of a rectangle.  Points are
indexed 0..k-1 along the top (left to right) and k..2k-1 along the bottom
(left to right); ``pairing[i]`` is the partner of point i, or -1 if the
point is isolated.  Planarity means the strands can be drawn inside the
rectangle without crossings, equivalently the matching is non-crossing in
the boundary's cyclic order.

Elements of the algebra are rational combinations of diagrams of a common
width, held as integer numerators over one positive denominator with no
factor common to all of them.  Stacking x over y multiplies them: closed
loops formed in the middle contribute a factor delta = 1/lam each, and
strands that dead-end on an unmatched middle point are simply erased.

Products are composed by table lookups on half-diagrams.  A diagram is its
top and bottom rows, each a half-diagram of arcs, isolated points and
through strands, and the through strands of the two rows meet in order
(Benkart-Halverson, Motzkin algebras, 2014).  Stacking x over y glues x's
bottom half to y's top half; that middle alone decides the closed loops and
where each side's through strands end, and those ends turn x's top and y's
bottom into the result's halves.  Per width, a middle table and a
substitution table hold these facts, indexed by half-diagram numbers; both
start empty and are filled only where a product first needs an entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

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


def _check_width(k: int) -> None:
    if k > MAX_WIDTH:
        raise LimitError(f"width {k} exceeds the configured bound {MAX_WIDTH}")


def enumerate_basis(k: int) -> list[MotzkinDiagram]:
    """All Motzkin diagrams of width k, sorted by pairing tuple.

    The list has motzkin_number(2k) entries.
    """
    if k < 0:
        raise ParameterError(f"width must be >= 0, got {k}")
    _check_width(k)
    # Every top half beside every bottom half with as many through strands.
    tables = _half_tables(k)
    through = tables.through.sum(axis=1)
    top, bottom = (through[:, None] == through).nonzero()
    pairings = sorted(map(tuple, tables.pairings(top, bottom).tolist()))
    assert len(pairings) == motzkin_number(2 * k)
    return [_wrap(p) for p in pairings]


# ---------------------------------------------------------------------------
# Composition of diagrams

# Term pairs of a product are composed this many at a time; each working
# array of a block is one int64 or one object pointer per pair, 16 kB.
# Against blocks of 512 pairs, these compose g_6 * g_6 in 2.3-2.4 s CPU,
# not 3.4-3.9, for a traced peak of uniqueness_probe(3) of 509 KiB, not
# 349; blocks of 4096 gain little more and peak at 626 KiB.
_BLOCK_PAIRS = 2048


@lru_cache(maxsize=MAX_WIDTH + 1)
def _width_tables(k: int) -> tuple[np.ndarray, ...]:
    """Index tables of `_compose_rows` at width k; they depend on k alone
    and are never written to."""
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
    tables = (via_top, via_bottom, tail)
    for table in tables:
        table.flags.writeable = False
    return tables


def _compose_rows(top: np.ndarray, bottom: np.ndarray, k: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stack top[b] over bottom[b] for every row b of two (B, 2k) integer
    arrays of pairings.  Return the (B, 2k) result pairings and the (B,)
    numbers of closed loops.

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
    via_top, via_bottom, tail = _width_tables(k)
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
    # The dead end reads -1 and outer point x reads x.
    return table.take(flat[:, 2 * k:]) + 2 * k, loops


def _row_keys(pairing, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The top and bottom rows of a diagram as half-diagrams.

    A half-diagram lists, for each of the k points of a row, -1 for an
    isolated point, the position of its partner for an arc on that row,
    and k for a through strand.
    """
    top = tuple(j if j < k else k for j in pairing[:k])
    bottom = tuple(-1 if j == -1 else (j - k if j >= k else k) for j in pairing[k:])
    return top, bottom


def _half_diagrams(k: int) -> list[tuple[int, ...]]:
    """Every half-diagram of width k (see `_row_keys`), sorted.  No arc
    crosses another or spans a through strand."""
    found: list[tuple[int, ...]] = []

    def grow(row: list, opened: list[int]) -> None:
        i = len(row)
        if i == k:
            if not opened:
                found.append(tuple(row))
            return
        grow(row + [-1], opened)
        if not opened:
            grow(row + [k], opened)
        if len(opened) < k - i - 1:
            grow(row + [None], opened + [i])
        if opened:
            j = opened[-1]
            grow(row[:j] + [i] + row[j + 1:] + [j], opened[:-1])

    grow([], [])
    return sorted(found)


def _unfilled(values: np.ndarray) -> bool:
    """Whether a table lookup met an entry that is still -1.  (argmin
    skips the Python wrapper of min, which costs a few µs a call.)"""
    return len(values) > 0 and values[values.argmin()] < 0


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an integer array.  (np.unique would
    import numpy.ma, about 13 ms, in every process that multiplies.)"""
    values = np.sort(values)
    head = np.ones(len(values), dtype=bool)
    head[1:] = values[1:] != values[:-1]
    return values[head]


class _HalfTables:
    """The half-diagrams of width k and the tables that compose by them.

    A diagram is its pair (top, bottom) of half-diagram indices, coded as
    top * size + bottom; the t through strands of the top half meet those
    of the bottom half in order.  Stacking x over y glues x's bottom half
    to y's top half.  That middle decides the closed loops and the fate of
    each side's through strands: a dead end, an arc to another strand of
    the same side, or a through strand of the result.  A fate is written
    as a half-diagram on the strands' first t points, so the middle table
    maps (x's bottom, y's top) to a loop count and two half indices, and
    the substitution table maps (half, fate) to the result's half: x's top
    with x's fates, and y's bottom with y's.

    Both tables start empty (-1) and are filled, vectorised, only where a
    call meets an entry first.  A missing middle entry is read off
    `_compose_rows` on canonical representatives: x's top and y's bottom
    are replaced by rows of bare through strands on their first points, so
    the result's rows are the fates.  A missing substitution puts the fate
    of each through point in its place.  The dictionaries give each
    diagram's code and the one `MotzkinDiagram` per code that every
    product reuses.
    """

    def __init__(self, k: int):
        halves = _half_diagrams(k)
        self.k, self.size = k, len(halves)
        self.halves = np.array(halves, dtype=np.intp).reshape(self.size, k)
        # The halves as bottom rows of a pairing, their arcs moved by k, and
        # where their through strands are.
        self.lower = np.where((self.halves >= 0) & (self.halves < k), self.halves + k, self.halves)
        self.through = self.halves == k
        self.index = {half: i for i, half in enumerate(halves)}
        # Each half read as k digits in base k+2, most significant first,
        # gives increasing keys in the sorted order.
        self.place = (k + 2) ** np.arange(k - 1, -1, -1)
        self.keys = (self.halves + 1) @ self.place
        # The canonical half with as many through strands as each half.
        canon = [self.index[(k,) * t + (-1,) * (k - t)] for t in range(k + 1)]
        self.canon = np.array(canon, dtype=np.intp)[self.through.sum(axis=1)]
        # Loop counts (at most k // 2) and half indices (below 2**15 up to
        # width 9) in the least dtypes that hold them.
        cells = self.size**2
        self.loops = np.full(cells, -1, dtype=np.int8)
        self.fate_top = np.full(cells, -1, dtype=np.int16)
        self.fate_bottom = np.full(cells, -1, dtype=np.int16)
        self.subst = np.full(cells, -1, dtype=np.int16)
        self.made = np.full(cells, -1, dtype=np.int8)  # 0 once `diagrams` holds the code
        self.codes: dict[Pairing, int] = {}
        self.diagrams: dict[int, MotzkinDiagram] = {}

    def codes_of(self, diagrams: Iterable[MotzkinDiagram]) -> list[int]:
        """The codes of `diagrams`, in order."""
        out = []
        for d in diagrams:
            code = self.codes.get(d.pairing)
            if code is None:
                top, bottom = _row_keys(d.pairing, self.k)
                code = self.codes[d.pairing] = self.index[top] * self.size + self.index[bottom]
                self.diagrams.setdefault(code, d)
                self.made[code] = 0
            out.append(code)
        return out

    def diagrams_for(self, codes: np.ndarray) -> dict[int, MotzkinDiagram]:
        """The diagram dictionary, holding every code in `codes`."""
        made = self.made.take(codes)
        if _unfilled(made):
            new = _distinct(codes[made < 0])
            for code, row in zip(new.tolist(), self.pairings(*np.divmod(new, self.size)).tolist()):
                pairing = tuple(row)
                self.codes[pairing], self.diagrams[code] = code, _wrap(pairing)
            self.made[new] = 0
        return self.diagrams

    def pairings(self, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
        """The (B, 2k) pairings of the diagrams with the given halves."""
        k = self.k
        out = np.concatenate((self.halves[top], self.lower[bottom]), axis=1)
        # The m-th through point of a top half meets the m-th of its bottom.
        row_t, col_t = self.through[top].nonzero()
        row_b, col_b = self.through[bottom].nonzero()
        out[row_t, col_t] = col_b + k
        out[row_b, col_b + k] = col_t
        return out

    def _half_index(self, rows: np.ndarray) -> np.ndarray:
        return self.keys.searchsorted((rows + 1) @ self.place)

    def middle(self, cells: np.ndarray) -> tuple[np.ndarray, ...]:
        """Loop counts and x's and y's fates for the (B,) cells
        x_bottom * size + y_top."""
        loops = self.loops.take(cells)
        if _unfilled(loops):
            new = _distinct(cells[loops < 0])
            x_bottom, y_top = np.divmod(new, self.size)
            k, n = self.k, len(new)
            both = self.pairings(np.concatenate((self.canon[x_bottom], y_top)),
                                 np.concatenate((x_bottom, self.canon[y_top])))
            result, loops = _compose_rows(both[:n], both[n:], k)
            # The rows of the results, as half-diagrams, are the fates.
            low = result[:, k:]
            fates = self._half_index(np.concatenate((
                np.minimum(result[:, :k], k), np.where(low >= k, low - k, np.where(low >= 0, k, -1)))))
            # The loop count goes in last: it marks the cell as filled.
            self.fate_top[new], self.fate_bottom[new], self.loops[new] = fates[:n], fates[n:], loops
            loops = self.loops.take(cells)
        return loops, self.fate_top.take(cells), self.fate_bottom.take(cells)

    def substitute(self, cells: np.ndarray) -> np.ndarray:
        """The halves of the (B,) cells half * size + fate, as int16."""
        out = self.subst.take(cells)
        if _unfilled(out):
            new = _distinct(cells[out < 0])
            half, fate = np.divmod(new, self.size)
            k, rows, fates = self.k, self.halves[half], self.halves[fate]
            # The m-th through point of a row takes entry m of its fate: a
            # dead end (-1), a through strand (k) or an arc to the m'-th.
            row, col = (rows == k).nonzero()
            first = row.searchsorted(row)
            end = fates[row, np.arange(len(row)) - first]
            partner = col[first + np.where((end >= 0) & (end < k), end, 0)]
            rows[row, col] = np.where((end < 0) | (end == k), end, partner)
            self.subst[new] = self._half_index(rows)
            out = self.subst.take(cells)
        return out


@lru_cache(maxsize=MAX_WIDTH + 1)
def _half_tables(k: int) -> _HalfTables:
    return _HalfTables(k)


def _compose_halves(tables: _HalfTables, x_top: np.ndarray, x_bottom: np.ndarray,
                    y_top: np.ndarray, y_bottom: np.ndarray
                    ) -> tuple[np.ndarray, ...]:
    """Stack x over y for (B,) arrays of half indices: the results' (B,)
    top and bottom halves (int16) and loop counts, by table lookups."""
    size = tables.size
    loops, fate_x, fate_y = tables.middle(x_bottom * size + y_top)
    halves = tables.substitute(np.concatenate((x_top * size + fate_x, y_bottom * size + fate_y)))
    return halves[:len(loops)], halves[len(loops):], loops


def _sum_dtype(a1: list[int], a2: list[int], lam: Fraction, k: int) -> type:
    """np.int64 when no sum of `products` over numerators a1 and a2 at
    width k can reach 2**62 in size, else object (Python ints)."""
    big = max(lam.numerator, lam.denominator) ** (k // 2)
    bound = max(map(abs, a1)) * max(map(abs, a2)) * big * len(a1) * len(a2)
    return np.int64 if bound < 2**62 else object


def _group(key: np.ndarray, value: np.ndarray, first: np.ndarray):
    """Sum `value` over equal `key`s; keep the least `first` of each key.

    Neither result reads the order within a key (the sums are of exact
    integers and the least `first` is a minimum), so the sort need not be
    stable."""
    order = key.argsort()
    key = key[order]
    head = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
    return (key[head], np.add.reduceat(value[order], head),
            np.minimum.reduceat(first[order], head))


def products(pairs: Sequence[tuple["Element", "Element"]]) -> list["Element"]:
    """[x * y for x, y in pairs], for elements of one width and lam, in one
    blocked pass of `_compose_halves` over the term pairs of every product.

    Product r's term pairs (x's terms outer, y's inner) follow those of
    product r-1, and _BLOCK_PAIRS of them are composed at a time.  With lam =
    p/q, coefficients a1/d1 and a2/d2, and at most L = k // 2 loops at width
    k, a pair that closes l loops adds a1 a2 q^l p^(L-l) over its product's
    denominator d1 d2 p^L.  These integer sums are exact: in int64 where
    `_sum_dtype` allows for every product, otherwise in Python ints.  Sums
    are grouped by the key (r * h + top) * h + bottom, for the result's
    halves among the h half-diagrams of width k, and a block is reduced to
    its distinct keys before the next is composed.  Terms come in the order
    their pairs first reach them, which `_group` keeps as each key's least
    pair index, so no grouping sort has to be stable; one gcd reduces each
    product."""
    if not pairs:
        return []
    x0 = pairs[0][0]
    for x, y in pairs:
        x0._check_compatible(x)
        x._check_compatible(y)
    k, lam = x0.width, x0.lam
    _check_width(k)
    tables = _half_tables(k)
    # Keys stay below len(pairs) * h**2, in int64 for over 10**12 products
    # at width 8 (h = 2123), so no call is split.
    size = tables.size
    p, q, most = lam.numerator, lam.denominator, k // 2
    a1, a2, ends, table, dens, dtype = [], [], [0], [], [], np.int64
    codes1, codes2 = [], []
    for r, (x, y) in enumerate(pairs):
        c1, c2 = list(x._num.values()), list(y._num.values())
        if c1 and c2:
            if _sum_dtype(c1, c2, lam, k) is object:
                dtype = object
            codes1 += tables.codes_of(x._num)
            codes2 += tables.codes_of(y._num)
        else:
            c1 = c2 = []  # a zero product keeps no rows and no numerators
        # Pair s of product r composes x term (s + shift) // n2 with y term
        # y0 + (s + shift) % n2, and r * h leads its keys.
        table.append((len(a1) * len(c2) - ends[-1], len(c2) or 1, len(a2), r * size))
        ends.append(ends[-1] + len(c1) * len(c2))
        dens.append(x._den * y._den * p**most)
        a1 += c1
        a2 += c2
    del c1, c2  # the numerators live on in a1 and a2 alone
    if not ends[-1]:
        return [Element._trusted(k, lam, {}, 1) for _ in pairs]
    weight = np.array([q**l * p ** (most - l) for l in range(most + 1)], dtype=dtype)
    top1, bottom1 = np.divmod(np.array(codes1, dtype=np.intp), size)
    top2, bottom2 = np.divmod(np.array(codes2, dtype=np.intp), size)
    a1, a2 = np.array(a1, dtype=dtype), np.array(a2, dtype=dtype)
    end, table = np.array(ends[1:]), np.array(table)

    found: list[tuple] = []
    held, limit = 0, 4 * _BLOCK_PAIRS
    for start in range(0, ends[-1], _BLOCK_PAIRS):
        pair = np.arange(start, min(start + _BLOCK_PAIRS, ends[-1]))
        shift, n2, y0, lead = table.take(end.searchsorted(pair, side="right"), axis=0).T
        i, j = np.divmod(pair + shift, n2)
        j += y0
        top, bottom, loops = _compose_halves(tables, top1.take(i), bottom1.take(i),
                                             top2.take(j), bottom2.take(j))
        # lead is intp, so the int16 halves are widened before any product.
        found.append(_group((lead + top) * size + bottom, a1[i] * a2[j] * weight[loops], pair))
        held += len(found[-1][0])
        if held > limit:
            found = [_group(*map(np.concatenate, zip(*found)))]
            held = len(found[0][0])
            limit = max(limit, 2 * held)
    if len(found) > 1:
        found = [_group(*map(np.concatenate, zip(*found)))]
    key, total, first = found[0]
    span = size**2
    if len(key) > MAX_TERMS and np.bincount(key // span).max() > MAX_TERMS:
        raise LimitError(f"product has more than {MAX_TERMS} terms")
    keep = total.nonzero()[0]
    keep = keep[first[keep].argsort()]
    product, code = np.divmod(key[keep], span)
    total = total[keep]
    diagrams = tables.diagrams_for(code)
    out, lo = [], 0
    for den, hi in zip(dens, np.searchsorted(product, np.arange(1, len(pairs) + 1)).tolist()):
        terms = zip(code[lo:hi].tolist(), total[lo:hi].tolist())
        out.append(Element._reduced(k, lam, {diagrams[c]: num for c, num in terms}, den))
        lo = hi
    return out


# ---------------------------------------------------------------------------
# Elements


class Element:
    """A rational combination of Motzkin diagrams of one width.

    `lam` is the algebra parameter; a closed loop formed during
    multiplication is worth delta = 1/lam.  Diagram d has the coefficient
    `_num[d] / _den` (see the module docstring); `terms` views them as Fractions.
    """

    __slots__ = ("width", "lam", "_num", "_den", "_terms")

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
        den = self._den = lcm(*(c.denominator for c in clean.values()))
        self._num = {d: c.numerator * (den // c.denominator) for d, c in clean.items()}
        self._terms = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, width: int, lam: Fraction, num: dict, den: int) -> "Element":
        # Internal fast path: trusts that `num` and `den` are canonical for
        # this width (nonzero numerators, gcd 1) and `lam` a positive Fraction.
        e = cls.__new__(cls)
        e.width, e.lam, e._num, e._den, e._terms = width, lam, num, den, None
        return e

    @classmethod
    def _reduced(cls, width: int, lam: Fraction, num: dict, den: int) -> "Element":
        # As `_trusted`, with `num` and `den` first divided by their gcd.
        g = gcd(den, *num.values())
        if g > 1:
            num = {d: v // g for d, v in num.items()}
            den //= g
        return cls._trusted(width, lam, num, den)

    @classmethod
    def zero(cls, width: int, lam) -> "Element":
        return cls(width, lam, {})

    @classmethod
    def from_diagram(cls, diagram: MotzkinDiagram, lam, coeff=1) -> "Element":
        return cls(diagram.width, lam, {diagram: as_fraction(coeff)})

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> MappingProxyType:
        """The coefficients as a read-only {diagram: Fraction} mapping."""
        if self._terms is None:
            den = self._den
            self._terms = MappingProxyType({d: Fraction(v, den) for d, v in self._num.items()})
        return self._terms

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, diagram: MotzkinDiagram) -> Fraction:
        return Fraction(self._num.get(diagram, 0), self._den)

    def identity_coefficient(self) -> Fraction:
        k = self.width
        return self.coefficient(_wrap(tuple(range(k, 2 * k)) + tuple(range(k))))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.width == other.width
            and self.lam == other.lam
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        raise TypeError("Element is not hashable")

    def __repr__(self) -> str:
        if not self._num:
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
        if self.lam is not other.lam and self.lam != other.lam:
            raise ParameterError(f"lam mismatch: {self.lam} vs {other.lam}")

    def _combine(self, other: "Element", sign: int) -> "Element":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, sign * (den // other._den)
        acc = {d: v * f1 for d, v in self._num.items()} if f1 > 1 else dict(self._num)
        for d, v in other._num.items():
            s = acc.get(d, 0) + v * f2
            if s:
                acc[d] = s
            else:
                del acc[d]
        return Element._reduced(self.width, self.lam, acc, den)

    def __add__(self, other: "Element") -> "Element":
        return self._combine(other, 1)

    def __sub__(self, other: "Element") -> "Element":
        return self._combine(other, -1)

    def __neg__(self) -> "Element":
        return Element._trusted(
            self.width, self.lam, {d: -v for d, v in self._num.items()}, self._den
        )

    def scale(self, scalar) -> "Element":
        c = as_fraction(scalar)
        if c == 0:
            return Element._trusted(self.width, self.lam, {}, 1)
        a, b = c.numerator, c.denominator
        num = {d: a * v for d, v in self._num.items()}
        return Element._reduced(self.width, self.lam, num, self._den * b)

    def __rmul__(self, scalar) -> "Element":
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    # -- multiplication -----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return products([(self, other)])[0]

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


def _relabel_terms(x: Element, point_map: Sequence[int]) -> Element:
    k = x.width
    return Element._trusted(k, x.lam, {
        _wrap(tuple(_relabel(d.pairing, point_map, [-1] * (2 * k)))): v
        for d, v in x._num.items()
    }, x._den)


def adjoint(x: Element) -> Element:
    """Flip every diagram upside down (coefficients are real, so left alone)."""
    k = x.width
    return _relabel_terms(x, list(range(k, 2 * k)) + list(range(k)))


def reflect(x: Element) -> Element:
    """Mirror every diagram left-to-right."""
    k = x.width
    return _relabel_terms(x, list(range(k - 1, -1, -1)) + list(range(2 * k - 1, k - 1, -1)))


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
    _check_width(w)
    left = list(range(p)) + list(range(w, w + p))
    right = list(range(p, w)) + list(range(w + p, 2 * w))
    # Distinct term pairs give distinct diagrams, so no two terms merge.
    num: dict[MotzkinDiagram, int] = {}
    for d1, c1 in x._num.items():
        base = _relabel(d1.pairing, left, [-1] * (2 * w))
        for d2, c2 in y._num.items():
            num[_wrap(tuple(_relabel(d2.pairing, right, list(base))))] = c1 * c2
    return Element._reduced(w, x.lam, num, x._den * y._den)


def conditional_expectation(x: Element) -> Element:
    """Close the rightmost column and multiply by lam; maps width k to k-1.

    On the identity it returns the identity one width down.
    """
    k = x.width
    if k == 0:
        raise ParameterError("conditional expectation needs width >= 1")
    lam = x.lam
    w = k - 1

    def m(i: int) -> int:
        # Index map after dropping points k-1 (top right) and 2k-1 (bottom right).
        return i if i < k - 1 else i - 1

    # Over den * q for lam = p/q, a term v/den adds v*p (times lam), or v*q
    # when the closed column forms a loop (times lam * delta = 1).
    acc: dict[Pairing, int] = {}
    for d, v in x._num.items():
        pairing = d.pairing
        a, b = pairing[k - 1], pairing[2 * k - 1]
        new = [-1] * (2 * w)
        for i, j in enumerate(pairing):
            if i in (k - 1, 2 * k - 1) or j < 0:
                continue
            if j in (k - 1, 2 * k - 1):
                continue
            new[m(i)] = m(j)
        if a == 2 * k - 1:
            coeff = v * lam.denominator
        else:
            coeff = v * lam.numerator
            if a >= 0 and b >= 0:
                new[m(a)], new[m(b)] = m(b), m(a)
        # If exactly one of a, b is matched, the closure dies on the
        # isolated side and the surviving end becomes isolated: nothing
        # to add.  If both are isolated nothing happens either.
        key = tuple(new)
        acc[key] = acc.get(key, 0) + coeff
    return Element._reduced(
        w, lam, {_wrap(p): c for p, c in acc.items() if c}, x._den * lam.denominator
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
        raise ParameterError(f"generator {name!r} needs an index, e.g. {name}1")
    hi = k - _SITES[name] + 1
    if not 1 <= i <= hi:
        raise ParameterError(f"{name}{i} does not fit in width {k} (need 1 <= i <= {hi})")


def generator(k: int, name: str, i: int | None = None, *, lam) -> Element:
    """The generator `name` with (1-based) index i inside width k; 't'
    carries its defining coefficient lam."""
    if k < 0:
        raise ParameterError(f"width {k} out of range 0..{MAX_WIDTH}")
    _check_width(k)
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
