"""Tests for the exact diagram calculus."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motzkin import (
    Element,
    LimitError,
    MotzkinDiagram,
    ParameterError,
    adjoint,
    check_presentation,
    conditional_expectation,
    embed,
    enumerate_basis,
    generator,
    identity,
    juxtapose,
    motzkin_number,
    reflect,
)
from motzkin import diagram_core, expression
from motzkin.diagram_core import (
    _BLOCK_PAIRS,
    _SITES,
    _compose_halves,
    _compose_rows,
    _half_diagrams,
    _half_tables,
    _sum_dtype,
    presentation_relations,
    products,
)

LAM = Fraction(1, 3)


def _brute_force_pairings(k):
    """Independent enumeration: every partial matching of the 2k boundary
    points, filtered by the interleaving criterion in cyclic order."""
    order = list(range(k)) + list(range(2 * k - 1, k - 1, -1))
    slot = {p: s for s, p in enumerate(order)}

    def all_matchings(points):
        if not points:
            yield []
            return
        x = points[0]
        rest = points[1:]
        for m in all_matchings(rest):
            yield m
        for idx, y in enumerate(rest):
            for m in all_matchings(rest[:idx] + rest[idx + 1:]):
                yield m + [(x, y)]

    found = set()
    for m in all_matchings(list(range(2 * k))):
        spans = sorted((min(slot[a], slot[b]), max(slot[a], slot[b])) for a, b in m)
        crossing = any(
            a < c < b < d
            for i, (a, b) in enumerate(spans)
            for (c, d) in spans[i + 1:]
        )
        if crossing:
            continue
        arr = [-1] * (2 * k)
        for a, b in m:
            arr[a], arr[b] = b, a
        found.add(tuple(arr))
    return found


def test_motzkin_numbers():
    assert [motzkin_number(m) for m in range(11)] == [
        1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188,
    ]


def test_enumerate_counts():
    for k, expected in [(0, 1), (1, 2), (2, 9), (3, 51), (4, 323), (5, 2188)]:
        basis = enumerate_basis(k)
        assert len(basis) == expected
        assert len({d.pairing for d in basis}) == expected


def test_enumerate_matches_brute_force():
    for k in range(5):
        assert {d.pairing for d in enumerate_basis(k)} == _brute_force_pairings(k)


def test_enumerate_sorted_and_valid():
    for k in (2, 3):
        basis = enumerate_basis(k)
        pairings = [d.pairing for d in basis]
        assert pairings == sorted(pairings)
        for d in basis:
            MotzkinDiagram(d.pairing)  # re-validates involution + planarity


def test_crossing_rejected():
    # Top points 0,1 each strand to the "wrong" bottom point: crossing.
    with pytest.raises(ParameterError):
        MotzkinDiagram([3, 2, 1, 0])
    # Not an involution.
    with pytest.raises(ParameterError):
        MotzkinDiagram([1, 0, 3, 3])


def test_nested_cup_is_planar():
    # Top arcs (0,3),(1,2) with bottom arcs (0,3),(1,2): valid nesting.
    d = MotzkinDiagram([3, 2, 1, 0, 7, 6, 5, 4])
    assert d.width == 4


def _gen(k, name, i):
    return generator(k, name, i, lam=LAM)


class TestGeneratorDiagrams:
    def test_l_shape(self):
        l1 = _gen(2, "l", 1)
        (d, c), = l1.terms.items()
        assert c == 1
        assert d.pairing == (3, -1, -1, 0)

    def test_r_is_adjoint_of_l(self):
        for k in (2, 3, 4):
            for i in range(1, k):
                assert _gen(k, "r", i) == adjoint(_gen(k, "l", i))

    def test_t_carries_lam(self):
        t1 = _gen(2, "t", 1)
        (d, c), = t1.terms.items()
        assert c == LAM
        assert d.pairing == (1, 0, 3, 2)

    def test_p_shape(self):
        p2 = _gen(3, "p", 2)
        (d, c), = p2.terms.items()
        assert d.pairing == (3, -1, 5, 0, -1, 2)

    def test_index_ranges(self):
        with pytest.raises(ParameterError):
            _gen(2, "l", 2)
        with pytest.raises(ParameterError):
            _gen(2, "p", 3)
        with pytest.raises(ParameterError):
            _gen(2, "t", 0)


class TestProducts:
    def test_loop_factor(self):
        # The bare cup-cap u = t/lam squares to delta * u.
        u = _gen(2, "t", 1).scale(1 / LAM)
        delta = 1 / LAM
        assert u * u == u.scale(delta)

    def test_structure_identities(self):
        for k in (2, 3, 4):
            for i in range(1, k):
                l = _gen(k, "l", i)
                assert _gen(k, "r", i) * l == _gen(k, "p", i)
                assert l * adjoint(l) == _gen(k, "p", i + 1)

    def test_dead_strand_has_coefficient_one(self):
        # p1 * l1 kills both strands of l1 without any loop factor: the
        # through strand dies on p1's isolated bottom point and the vertical
        # of p1 dies on l1's isolated top point.
        k = 2
        prod = _gen(k, "p", 1) * _gen(k, "l", 1)
        (d, c), = prod.terms.items()
        assert c == 1
        assert d.pairing == (-1, -1, -1, -1)

    def test_identity_neutral(self):
        one = identity(3, lam=LAM)
        for d in enumerate_basis(3):
            x = Element.from_diagram(d, LAM)
            assert one * x == x
            assert x * one == x

    def test_associativity_sampled(self):
        basis = enumerate_basis(2)
        for a in basis:
            for b in basis[::2]:
                for c in basis[::3]:
                    xa = Element.from_diagram(a, LAM)
                    xb = Element.from_diagram(b, LAM)
                    xc = Element.from_diagram(c, LAM)
                    assert (xa * xb) * xc == xa * (xb * xc)

    def test_adjoint_antihomomorphism(self):
        basis = enumerate_basis(3)
        for a in basis[::5]:
            for b in basis[::7]:
                xa = Element.from_diagram(a, LAM)
                xb = Element.from_diagram(b, LAM)
                assert adjoint(xa * xb) == adjoint(xb) * adjoint(xa)
                assert adjoint(adjoint(xa)) == xa


class TestStructureMaps:
    def test_embed_is_homomorphism(self):
        basis = enumerate_basis(2)
        for a in basis[::2]:
            for b in basis[::3]:
                xa = Element.from_diagram(a, LAM)
                xb = Element.from_diagram(b, LAM)
                assert embed(xa * xb) == embed(xa) * embed(xb)

    def test_embed_identity(self):
        assert embed(identity(2, lam=LAM), 2) == identity(4, lam=LAM)

    def test_juxtapose_with_identity_is_embed(self):
        for d in enumerate_basis(2)[::4]:
            x = Element.from_diagram(d, LAM)
            assert juxtapose(x, identity(1, lam=LAM)) == embed(x)

    def test_juxtapose_shifts_generators(self):
        assert juxtapose(identity(1, lam=LAM), _gen(2, "t", 1)) == _gen(3, "t", 2)
        assert juxtapose(identity(2, lam=LAM), _gen(2, "l", 1)) == _gen(4, "l", 3)

    def test_reflect_involution_and_homomorphism(self):
        # The left-right mirror preserves the stacking order, so it is an
        # algebra automorphism (of order two).
        basis = enumerate_basis(2)
        for a in basis:
            x = Element.from_diagram(a, LAM)
            assert reflect(reflect(x)) == x
        for a in basis[::2]:
            for b in basis[::3]:
                xa = Element.from_diagram(a, LAM)
                xb = Element.from_diagram(b, LAM)
                assert reflect(xa * xb) == reflect(xa) * reflect(xb)

    def test_reflect_generators(self):
        assert reflect(_gen(3, "t", 1)) == _gen(3, "t", 2)
        assert reflect(_gen(3, "p", 1)) == _gen(3, "p", 3)


class TestConditionalExpectation:
    def test_identity_and_p(self):
        for k in (1, 2, 3, 4):
            assert conditional_expectation(identity(k, lam=LAM)) == identity(
                k - 1, lam=LAM
            )
            assert conditional_expectation(_gen(k, "p", k)) == identity(
                k - 1, lam=LAM
            ).scale(LAM)

    def test_g1(self):
        g1 = identity(1, lam=LAM) - _gen(1, "p", 1)
        assert conditional_expectation(g1) == identity(0, lam=LAM).scale(1 - LAM)

    def test_linear(self):
        basis = enumerate_basis(2)
        xa = Element.from_diagram(basis[3], LAM)
        xb = Element.from_diagram(basis[7], LAM)
        lhs = conditional_expectation(xa + xb.scale(Fraction(2, 5)))
        rhs = conditional_expectation(xa) + conditional_expectation(xb).scale(
            Fraction(2, 5)
        )
        assert lhs == rhs

    def test_module_property_sampled(self):
        # E(embed(a) * x * embed(b)) == a * E(x) * b
        lam = Fraction(1, 4)
        small = enumerate_basis(1)
        big = enumerate_basis(2)
        for da in small:
            for db in small:
                for dx in big[::4]:
                    a = Element.from_diagram(da, lam)
                    b = Element.from_diagram(db, lam)
                    x = Element.from_diagram(dx, lam)
                    lhs = conditional_expectation(embed(a) * x * embed(b))
                    rhs = a * conditional_expectation(x) * b
                    assert lhs == rhs

    def test_commutes_with_adjoint(self):
        for d in enumerate_basis(3)[::6]:
            x = Element.from_diagram(d, LAM)
            assert conditional_expectation(adjoint(x)) == adjoint(
                conditional_expectation(x)
            )


def test_presentation_exact():
    for k in (2, 3, 4):
        for lam in (Fraction(1, 3), Fraction(1, 4)):
            report = check_presentation(k, lam)
            assert report.ok, report.failures
            assert report.checked > 0


def test_presentation_counts_grow():
    c2 = check_presentation(2, LAM).checked
    c4 = check_presentation(4, LAM).checked
    assert c2 < c4


def _token_element(k, lam, token):
    name, idx, dag = token
    g = generator(k, name, idx, lam=lam)
    return adjoint(g) if dag else g


def _word_element(k, lam, word):
    # Reference: a token word multiplied out left to right, as the
    # presentation was checked before the exact interpreter read the words
    # as trees.
    if not word:
        return identity(k, lam=lam)
    out = _token_element(k, lam, word[0])
    for token in word[1:]:
        out = out * _token_element(k, lam, token)
    return out


def _side_element(k, lam, side):
    total = Element.zero(k, lam)
    for power, word in side:
        total = total + _word_element(k, lam, word).scale(lam**power)
    return total


@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(1, 4), Fraction(3, 13)])
def test_presentation_matches_token_words(lam):
    for k in range(2, 7):
        failures = [
            label
            for label, lhs, rhs in presentation_relations(k)
            if _side_element(k, lam, lhs) != _side_element(k, lam, rhs)
        ]
        report = check_presentation(k, lam)
        assert (report.checked, report.failures) == (len(list(presentation_relations(k))), failures)


def test_presentation_reports_a_false_relation(monkeypatch):
    # t1 t1 = lam t1 is false (t1 is idempotent), and it is the only failure.
    t1 = ("t", 1, False)
    false = ("(7)[i=1] with rhs lam*t1", [(0, (t1, t1))], [(1, (t1,))])
    real = expression.presentation_relations
    monkeypatch.setattr(expression, "presentation_relations", lambda k: [*real(k), false])
    report = check_presentation(4, LAM)
    assert report.failures == [false[0]]
    assert report.checked == len(list(real(4))) + 1


def test_presentation_one_kernel_pass_per_depth(monkeypatch):
    # Every word of every relation at width 6 goes through one forest: one
    # `products` call per tree depth, so the kernel pass `_compose_halves`
    # runs once per block of each depth, not once per word.
    calls = []
    real = diagram_core._compose_halves
    monkeypatch.setattr(diagram_core, "_compose_halves", lambda *args: calls.append(1) or real(*args))
    assert check_presentation(6, LAM).ok
    words = [w for _, lhs, rhs in presentation_relations(6) for side in (lhs, rhs) for _, w in side]
    depths = max(map(len, words)) - 1
    blocks = -(-sum(len(w) - 1 for w in words) // _BLOCK_PAIRS)
    assert (depths, blocks, len(words)) == (2, 1, 240) and len(calls) <= depths * blocks


@pytest.mark.parametrize("k", range(2, 7))
def test_presentation_relations_token_form(k):
    # bench/worker.py (relation_gflop) walks these words token by token, so
    # a change of their form has to show here first.
    labels = []
    for label, lhs, rhs in presentation_relations(k):
        labels.append(label)
        for side in (lhs, rhs):
            assert isinstance(side, list)
            for power, word in side:
                assert type(power) is int and isinstance(word, tuple)
                for token in word:
                    assert isinstance(token, tuple) and len(token) == 3
                    name, index, dagger = token
                    assert name in _SITES and type(index) is int and type(dagger) is bool
    assert len(labels) == len(set(labels))


def test_incompatible_elements_rejected():
    with pytest.raises(ParameterError):
        identity(2, lam=LAM) * identity(3, lam=LAM)
    with pytest.raises(ParameterError):
        identity(2, lam=LAM) + identity(2, lam=Fraction(1, 4))


def test_serialization_round_trip():
    x = _gen(3, "t", 1) * _gen(3, "l", 2) - identity(3, lam=LAM).scale(
        Fraction(2, 7)
    )
    data = x.to_json_dict()
    assert data["lambda"] == "1/3"
    y = Element.from_json_dict(data)
    assert y == x


# ---------------------------------------------------------------------------
# Reference compositions and products.  `_compose_pairings` is the single
# strand walker and `_ref_multiply` the Fraction double loop that
# `Element.__mul__` used before the batched kernel; the three-walker
# `_ref_compose_pairings` below came before the single walker.  All are
# kept verbatim to check the batched kernel against.


def _walk(p1, p2, k, seen, m, down):
    """Follow the glued middle row of p1 over p2 from middle node m.

    Middle node m is the bottom point k+m of p1 glued to the top point m
    of p2.  The walk leaves m through p2 when `down` and through p1
    otherwise, then alternates, marking each node it passes in `seen`.
    Returns the outer point reached (top points numbered as in p1, bottom
    points as in p2), -1 at a dead end, or None when it closes back on m.
    """
    start = m
    while True:
        seen[m] = True
        if down:
            j = p2[m]
            if not 0 <= j < k:
                return j
        else:
            j = p1[k + m]
            if j < k:
                return j
            j -= k
        if j == start:
            return None
        m, down = j, not down


def _compose_pairings(p1, p2, k):
    """Stack p1 over p2; return (result pairing, number of closed loops)."""
    res = [-1] * (2 * k)
    seen = [False] * k
    for i in range(k):
        j = p1[i]
        if j >= k:
            j = _walk(p1, p2, k, seen, j - k, True)
        if j >= 0:
            res[i], res[j] = j, i
    for c in range(k, 2 * k):
        if res[c] >= 0:
            continue
        j = p2[c]
        if 0 <= j < k:
            j = _walk(p1, p2, k, seen, j, False)
        if j >= 0:
            res[c], res[j] = j, c
    # What is left unseen lies on closed loops or on middle paths with two
    # dead ends; such a path never closes, so it is erased with no factor.
    loops = 0
    for m in range(k):
        if not seen[m] and _walk(p1, p2, k, seen, m, True) is None:
            loops += 1
    return tuple(res), loops


def _ref_multiply(x, y):
    """x * y by composing each term pair and adding Fractions, as a list of
    (pairing, coefficient) in the order the double loop first meets them."""
    delta = 1 / x.lam
    acc = {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            pairing, loops = _compose_pairings(d1.pairing, d2.pairing, x.width)
            c = c1 * c2
            if loops:
                c *= delta**loops
            prev = acc.get(pairing)
            acc[pairing] = c if prev is None else prev + c
    return [(p, c) for p, c in acc.items() if c != 0]


def _batched_pairs(pairs, k):
    """Compose (p1, p2) pairs with the half-diagram kernel, as walker
    output, block by block; `_compose_rows` on the same block and the
    tables' own pairings must agree with it."""
    tables = _half_tables(k)
    out = []
    for start in range(0, len(pairs), _BLOCK_PAIRS):
        block = pairs[start:start + _BLOCK_PAIRS]
        x, y = (np.divmod(np.array(tables.codes_of(MotzkinDiagram(p[side]) for p in block),
                                   dtype=np.intp), tables.size) for side in (0, 1))
        assert tables.pairings(*x).tolist() == [list(a) for a, _ in block]
        top, bottom, loops = _compose_halves(tables, *x, *y)
        rows, walked = _compose_rows(tables.pairings(*x), tables.pairings(*y), k)
        assert tables.pairings(top, bottom).tolist() == rows.tolist()
        assert loops.tolist() == walked.tolist()
        out += zip(map(tuple, rows.tolist()), loops.tolist())
    return out


def _ref_follow(p1, p2, k, m, via_upper, visited):
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


def _ref_mark_dead(p1, p2, k, m, visited):
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


def _ref_compose_pairings(p1, p2, k):
    res = [-1] * (2 * k)
    visited = [False] * k
    for i in range(k):
        j = p1[i]
        if j < 0:
            continue
        if j < k:
            res[i] = j
            continue
        end = _ref_follow(p1, p2, k, j - k, True, visited)
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
        end = _ref_follow(p1, p2, k, j, False, visited)
        if end is None:
            continue
        kind, a = end
        assert kind == 1
        res[k + c], res[k + a] = k + a, k + c
    loops = 0
    for m in range(k):
        if visited[m]:
            continue
        if p1[k + m] < 0 or p2[m] < 0:
            _ref_mark_dead(p1, p2, k, m, visited)
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
            _ref_mark_dead(p1, p2, k, m, visited)
    return tuple(res), loops


class TestCompositionReference:
    def test_every_pair_up_to_width_four(self):
        for k in range(5):
            basis = [d.pairing for d in enumerate_basis(k)]
            pairs = [(a, b) for a in basis for b in basis]
            expected = [_ref_compose_pairings(a, b, k) for a, b in pairs]
            assert [_compose_pairings(a, b, k) for a, b in pairs] == expected
            assert _batched_pairs(pairs, k) == expected

    @pytest.mark.parametrize("k", [5, 6])
    def test_random_pairs(self, k):
        rng = random.Random(20141 + k)
        basis = [d.pairing for d in enumerate_basis(k)]
        pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(20000)]
        expected = [_ref_compose_pairings(a, b, k) for a, b in pairs]
        assert [_compose_pairings(a, b, k) for a, b in pairs] == expected
        assert _batched_pairs(pairs, k) == expected
        # The sample reaches products with no loop and with several loops.
        assert {0, 1, 2} <= {loops for _, loops in expected}


def _random_element(rng, basis, lam, size):
    terms = {
        d: Fraction(rng.randint(-30, 30), rng.randint(1, 40))
        for d in rng.sample(basis, min(size, len(basis)))
    }
    return Element(basis[0].width, lam, terms)


class TestBatchedProduct:
    """`Element.__mul__` against the Fraction double loop: the same terms,
    coefficients and term order."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_fraction_loop(self, k):
        rng = random.Random(7000 + k)
        basis = enumerate_basis(k)
        for lam in (Fraction(1, 4), Fraction(3, 13)):
            for size1, size2 in ((1, 1), (3, 40), (60, 60)):
                x = _random_element(rng, basis, lam, size1)
                y = _random_element(rng, basis, lam, size2)
                got = x * y
                assert [(d.pairing, c) for d, c in got.terms.items()] == _ref_multiply(x, y)

    def test_more_pairs_than_one_block(self):
        lam = Fraction(2, 9)
        rng = random.Random(7100)
        basis = enumerate_basis(4)
        x = _random_element(rng, basis, lam, 200)
        y = _random_element(rng, basis, lam, 150)
        got = x * y
        assert [(d.pairing, c) for d, c in got.terms.items()] == _ref_multiply(x, y)

    def test_large_lambda_takes_python_ints(self):
        # A 30-digit numerator and denominator overflow the int64 bound.
        lam = Fraction(10**29 + 3, 3 * 10**29 + 7)
        rng = random.Random(7200)
        for k in (2, 4, 5):
            basis = enumerate_basis(k)
            x = _random_element(rng, basis, lam, 30)
            y = _random_element(rng, basis, lam, 30)
            a1, a2 = list(x._num.values()), list(y._num.values())
            assert _sum_dtype(a1, a2, lam, k) is object
            got = x * y
            assert [(d.pairing, c) for d, c in got.terms.items()] == _ref_multiply(x, y)
        u = _gen(2, "t", 1).scale(1 / lam)
        assert u * u == u.scale(1 / lam)

    def test_batches_match_fraction_loop(self):
        # Batches mix empty, one-term and many-term elements; the first
        # _BLOCK_PAIRS products of one pair each end a block exactly, the 900
        # pairs of the next cross a block edge, random products follow until
        # more than four blocks are full, so merges happen, and the large-lam
        # batch sums in Python ints.
        for k, lam, seed in ((3, LAM, 1), (3, Fraction(3, 13), 2), (4, Fraction(2, 9), 3),
                             (6, LAM, 4), (4, Fraction(10**29 + 3, 3 * 10**29 + 7), 5)):
            rng = random.Random(7300 + seed)
            basis = enumerate_basis(k)
            pool = [_random_element(rng, basis, lam, size) for size in (0, 1, 1, 2, 7, 30, 30)]
            pairs = [(pool[1], pool[2])] * _BLOCK_PAIRS + [(pool[5], pool[6])]
            while sum(len(x.terms) * len(y.terms) for x, y in pairs[_BLOCK_PAIRS:]) < 4 * _BLOCK_PAIRS:
                pairs.append((rng.choice(pool), rng.choice(pool)))
            ends = np.cumsum([len(x.terms) * len(y.terms) for x, y in pairs])
            assert _BLOCK_PAIRS in ends and ends[-1] > 4 * _BLOCK_PAIRS
            assert [[(d.pairing, c) for d, c in z.terms.items()] for z in products(pairs)] == [
                _ref_multiply(x, y) for x, y in pairs
            ]

    def test_zero_factor_with_huge_numbers(self):
        # A product with an empty factor is zero, and the numbers of its other
        # factor never reach an int64 array: not a tiny lam's p^(k/2) weights,
        # nor a 21-digit coefficient, nor in a batch of zero products alone.
        tiny = Fraction(1, 10**20)
        for k in (2, 3, 4):
            zero = Element.zero(k, tiny)
            t1 = generator(k, "t", 1, lam=tiny)
            assert (t1 * zero).is_zero() and (zero * t1).is_zero()
            assert all(z.is_zero() for z in products([(t1, zero), (zero, t1), (zero, zero)]))
            big = _gen(k, "t", 1).scale(10**20)
            assert (big * Element.zero(k, LAM)).is_zero()
            assert products([(big, Element.zero(k, LAM)), (_gen(k, "t", 1), big)]) == [
                Element.zero(k, LAM), _gen(k, "t", 1) * big
            ]
        x = Element(4, tiny, {d: 10**20 + j for j, d in enumerate(enumerate_basis(4)[:5])})
        pairs = [(x, Element.zero(4, tiny)), (x, x), (Element.zero(4, tiny), x)]
        assert [[(d.pairing, c) for d, c in z.terms.items()] for z in products(pairs)] == [
            _ref_multiply(a, b) for a, b in pairs
        ]

    def test_batch_keys_need_no_split(self, monkeypatch):
        # A product's keys span h**2 values for the h half-diagrams of its
        # width, so int64 keys hold over 10**12 products even at width 8,
        # where the pairing codes (2k+1)**(2k) of the transition-table kernel
        # overflow on their own.  A batch of products of 12 term pairs each,
        # over two blocks, runs in one kernel pass per block and gives the
        # same products.
        assert [len(_half_diagrams(k)) for k in range(9)] == [1, 2, 5, 13, 35, 96, 267, 750, 2123]
        assert 2**63 // 2123**2 > 10**12 and 17**16 > 2**63
        assert _half_tables(6).size == 267
        rng = random.Random(7500)
        basis = enumerate_basis(2)
        pairs = [(_random_element(rng, basis, LAM, 4), _random_element(rng, basis, LAM, 3))
                 for _ in range(_BLOCK_PAIRS // 12 + 20)]
        calls = []
        real = diagram_core._compose_halves
        monkeypatch.setattr(diagram_core, "_compose_halves", lambda *args: calls.append(1) or real(*args))
        got = products(pairs)
        assert len(calls) == -(-len(pairs) * 12 // _BLOCK_PAIRS) == 2
        assert [[(d.pairing, c) for d, c in z.terms.items()] for z in got] == [
            _ref_multiply(x, y) for x, y in pairs
        ]

    def test_group_matches_stable_grouping(self):
        # `_group` sorts its keys unstably.  Its results must equal those of
        # the stable sort: the distinct keys, their exact sums (int64 and
        # Python ints alike) and each key's least `first`, whether `first`
        # rises with the input, as in `products`, or not.
        def stable(key, value, first):
            order = key.argsort(kind="stable")
            key = key[order]
            head = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
            return (key[head], np.add.reduceat(value[order], head),
                    np.minimum.reduceat(first[order], head))

        rng = np.random.default_rng(7600)
        for size, distinct in ((1, 1), (17, 3), (2048, 40), (8192, 700), (5000, 4999)):
            key = rng.integers(0, distinct, size) * 977 + 5
            for first in (np.arange(size), rng.permutation(size)):
                for value in (rng.integers(-2**40, 2**40, size),
                              np.array([int(v) * 10**30 for v in rng.integers(-9, 9, size)], dtype=object)):
                    got, want = diagram_core._group(key, value, first), stable(key, value, first)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.tolist() == b.tolist()

    def test_batch_refuses_mixed_elements(self):
        x2, x3 = identity(2, lam=LAM), identity(3, lam=LAM)
        assert products([]) == []
        with pytest.raises(ParameterError, match="width mismatch: 2 vs 3"):
            products([(x2, x2), (x3, x3)])
        with pytest.raises(ParameterError, match="width mismatch: 2 vs 3"):
            products([(x2, x3)])
        with pytest.raises(ParameterError, match="lam mismatch"):
            products([(x2, x2), (x2, identity(2, lam=Fraction(1, 4)))])

    def test_width_above_bound_refused(self):
        # Width 7 is one past MAX_WIDTH; the exact layer refuses it, as
        # enumerate_basis and juxtapose do.
        x = Element(7, LAM, {tuple(range(7, 14)) + tuple(range(7)): 1})
        with pytest.raises(LimitError):
            x * x

    def test_width_zero_and_zero_elements(self):
        one = identity(0, lam=LAM)
        assert one * one == one
        assert one.scale(3) * one.scale(Fraction(2, 7)) == one.scale(Fraction(6, 7))
        assert (one * one).terms == {MotzkinDiagram([]): Fraction(1)}
        for k in (0, 1, 3):
            zero = Element.zero(k, LAM)
            x = identity(k, lam=LAM) - identity(k, lam=LAM).scale(2)
            assert (zero * x).is_zero()
            assert (x * zero).is_zero()
            assert (zero * zero).is_zero()
        # Pairs that cancel inside one product leave no term behind.
        g1 = identity(1, lam=LAM) - _gen(1, "p", 1)
        assert (g1 * _gen(1, "p", 1)).is_zero()
        assert (g1 * g1) == g1


@lru_cache(maxsize=None)
def _basis(k):
    return enumerate_basis(k)


_COEFFS = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
    st.integers(10**20, 10**21),
)


@st.composite
def _product_batches(draw):
    """A batch of products at one width 0..6 and lam, behind a run of
    one-term products whose length moves the batch across a block edge."""
    k = draw(st.integers(0, 6))
    lam = draw(st.sampled_from([LAM, Fraction(3, 13), Fraction(10**29 + 3, 3 * 10**29 + 7)]))
    basis = _basis(k)
    index = st.integers(0, len(basis) - 1)

    def element():
        picks = draw(st.lists(index, max_size=min(40, len(basis)), unique=True))
        return Element(k, lam, {basis[i]: draw(_COEFFS) for i in picks})

    pool = [element() for _ in range(draw(st.integers(1, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                          min_size=1, max_size=5))
    one = Element(k, lam, {basis[draw(index)]: draw(_COEFFS)})
    return [(one, one)] * draw(st.integers(0, _BLOCK_PAIRS)) + pairs


@given(_product_batches())
def test_products_match_fraction_loop(pairs):
    # Pairings, Fractions and term order of every product equal the double
    # loop's, with empty factors, Python-int sums and block edges anywhere.
    expected = {}
    for x, y in pairs:
        if (id(x), id(y)) not in expected:
            expected[id(x), id(y)] = _ref_multiply(x, y)
    assert [[(d.pairing, c) for d, c in z.terms.items()] for z in products(pairs)] == [
        expected[id(x), id(y)] for x, y in pairs
    ]


# Coefficients of either sign, 21-digit integers and Fractions among them.
_SIGNED = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
    st.integers(-10**21, 10**21),
    st.builds(Fraction, st.integers(-10**21, 10**21), st.integers(1, 10**21)),
)


def _assert_canonical(x):
    # Integer numerators, none zero, over a positive denominator that
    # shares no factor with all of them; `terms` is a read-only view.
    assert type(x._den) is int and x._den >= 1
    assert all(type(v) is int and v != 0 for v in x._num.values())
    assert gcd(x._den, *x._num.values()) == 1
    assert isinstance(x.terms, MappingProxyType)
    assert all(type(c) is Fraction for c in x.terms.values())


def _ref_sum(a, b):
    """a + b for {pairing: Fraction} dicts, in the order Fraction
    elements kept their terms."""
    acc = dict(a)
    for key, c in b.items():
        s = acc.get(key, Fraction(0)) + c
        if s == 0:
            acc.pop(key, None)
        else:
            acc[key] = s
    return acc


def _ref_moved(terms, width, *maps):
    """Juxtaposition of the Fraction dicts `terms` (one per map): each
    pairing's point i goes to its map's entry i in a diagram of `width`,
    and coefficients multiply."""
    acc = {(): Fraction(1)}
    for part, point_map in zip(terms, maps):
        step = {}
        for done, c1 in acc.items():
            for pairing, c2 in part.items():
                new = list(done) or [-1] * (2 * width)
                for i, j in enumerate(pairing):
                    if j >= 0:
                        new[point_map[i]] = point_map[j]
                key = tuple(new)
                step[key] = step.get(key, Fraction(0)) + c1 * c2
        acc = step
    return {key: c for key, c in acc.items() if c != 0}


def _ref_expectation(terms, k, lam):
    """conditional_expectation on a Fraction dict, term by term."""
    def m(i):
        return i if i < k - 1 else i - 1

    acc = {}
    for pairing, c in terms.items():
        a, b = pairing[k - 1], pairing[2 * k - 1]
        new = [-1] * (2 * k - 2)
        for i, j in enumerate(pairing):
            if i not in (k - 1, 2 * k - 1) and j >= 0 and j not in (k - 1, 2 * k - 1):
                new[m(i)] = m(j)
        coeff = c * lam
        if a == 2 * k - 1:
            coeff *= 1 / lam
        elif a >= 0 and b >= 0:
            new[m(a)], new[m(b)] = m(b), m(a)
        key = tuple(new)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return {key: c for key, c in acc.items() if c != 0}


@st.composite
def _linear_cases(draw, k):
    """lam, Fraction dicts x and y of width k (y cancels some of x's
    terms), z of width k2 <= 6 - k, a scalar and h <= 6 - k."""
    lam = draw(st.sampled_from([LAM, Fraction(3, 13), Fraction(10**29 + 3, 3 * 10**29 + 7)]))

    def terms(width):
        basis = _basis(width)
        picks = draw(st.lists(st.integers(0, len(basis) - 1), min_size=min(3, len(basis)),
                              max_size=min(30, len(basis)), unique=True))
        return {basis[i].pairing: draw(_SIGNED) for i in picks}

    x, y = terms(k), terms(k)
    if x:
        for key in draw(st.lists(st.sampled_from(list(x)), max_size=10, unique=True)):
            y[key] = -x[key]
    k2 = draw(st.integers(0, 6 - k))
    scalar = draw(st.one_of(_SIGNED, st.just(-1), st.just(0)))
    return lam, x, y, k2, terms(k2), scalar, draw(st.integers(0, 6 - k))


@pytest.mark.parametrize("k", range(7))
@given(data=st.data())
def test_integer_form_matches_fraction_dicts(k, data):
    # Every operation gives the pairings, Fractions and term order of the
    # same operation on Fraction dicts, and every result is canonical.
    lam, x, y, k2, z, scalar, h = data.draw(_linear_cases(k))
    ref_x, ref_y, ref_z = ({key: Fraction(c) for key, c in t.items() if c != 0} for t in (x, y, z))

    def check(got, width, ref):
        _assert_canonical(got)
        assert got.width == width and got.lam == lam
        assert [(d.pairing, c) for d, c in got.terms.items()] == list(ref.items())

    X, Y, Z = Element(k, lam, x), Element(k, lam, y), Element(k2, lam, z)
    check(X, k, ref_x)
    check(Y, k, ref_y)
    check(Z, k2, ref_z)
    negated = {key: -c for key, c in ref_y.items()}
    check(X + Y, k, _ref_sum(ref_x, ref_y))
    check(X - Y, k, _ref_sum(ref_x, negated))
    check(-Y, k, negated)
    check(X - X, k, {})
    check(X.scale(scalar), k, {key: scalar * c for key, c in ref_x.items()} if scalar else {})
    assert (X == Y) == (ref_x == ref_y)
    assert X + Y == Y + X and X == Element(k, lam, dict(reversed(x.items())))
    flip = list(range(k, 2 * k)) + list(range(k))
    mirror = list(range(k - 1, -1, -1)) + list(range(2 * k - 1, k - 1, -1))
    check(adjoint(X), k, _ref_moved([ref_x], k, flip))
    check(reflect(X), k, _ref_moved([ref_x], k, mirror))
    w = k + k2
    left = list(range(k)) + list(range(w, w + k))
    right = list(range(k, w)) + list(range(w + k, 2 * w))
    check(juxtapose(X, Z), w, _ref_moved([ref_x, ref_z], w, left, right))
    bars = {tuple(range(h, 2 * h)) + tuple(range(h)): Fraction(1)}
    left, right = list(range(k)) + list(range(k + h, 2 * k + h)), list(range(k, k + h)) + list(range(2 * k + h, 2 * (k + h)))
    check(embed(X, h), k + h, _ref_moved([ref_x, bars], k + h, left, right))
    if k:
        check(conditional_expectation(X), k - 1, _ref_expectation(ref_x, k, lam))
    for (a, b), got in zip(((X, Y), (Y, X), (X, X)), products([(X, Y), (Y, X), (X, X)])):
        check(got, k, dict(_ref_multiply(a, b)))


def test_terms_is_read_only():
    x = _gen(2, "t", 1) + _gen(2, "l", 1).scale(Fraction(1, 2))
    assert x.terms is x.terms
    with pytest.raises(TypeError):
        x.terms[MotzkinDiagram([2, 3, 0, 1])] = Fraction(1)
    assert x.coefficient(MotzkinDiagram([1, 0, 3, 2])) == LAM
    assert x.coefficient(MotzkinDiagram([2, 3, 0, 1])) == 0


def test_tables_fill_lazily():
    # Importing the package builds no half-diagram table, and a width-2
    # product fills entries of width 2 only.
    script = textwrap.dedent(
        """
        import motzkin
        from motzkin.diagram_core import _half_tables
        print(_half_tables.cache_info().currsize)
        t1 = motzkin.generator(2, "t", 1, lam="1/3")
        assert t1 * t1 == t1
        print(_half_tables.cache_info().currsize)
        print([int((_half_tables(k).loops >= 0).sum() + (_half_tables(k).subst >= 0).sum())
               for k in (5, 6)], (_half_tables(2).loops >= 0).sum() > 0)
        """
    )
    src = str(Path(diagram_core.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split("\n") == ["0", "1", "[0, 0] True", ""]
