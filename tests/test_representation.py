"""Tests for the Motzkin-pair operator layer."""

import dataclasses
import functools
import struct
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motzkin import expression, representation
from motzkin.config import TOL_CHECK, TOL_RANK
from motzkin.diagram_core import (
    _SITES,
    Element,
    MotzkinDiagram,
    adjoint,
    conditional_expectation,
    enumerate_basis,
    generator as diagram_generator,
    identity,
    motzkin_number,
    presentation_relations,
)
from motzkin.errors import LimitError, ParameterError, StructureError
from motzkin.expression import Gen, _word_tree, evaluate_operator, relation_residuals
from motzkin.jones_wenzl import jones_wenzl
from motzkin.representation import (
    MotzkinPair,
    _apply_local,
    build_example_pair,
    evaluate_diagram,
    evaluate_element,
    l_matrix,
    p_matrix,
    rep_conditional_expectation,
    span_dimension,
    t_matrix,
    validate_pair,
)
from test_fock import _NAMED_PAIRS

QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)


def _pair4():
    return build_example_pair("iii", 4, 1, QUARTER)


def _pair3():
    return build_example_pair("i", 3, 0, THIRD)


PAIRS = [_pair4(), _pair3()]


def _pair5():
    return build_example_pair("ii", 5, 1, Fraction(1, 5))


def _rotated(pair, seed=0):
    # The pair moved by the diagonal unitary u on C^n: a and b turn complex,
    # and every operator X on the k-fold power becomes U X U*, U = u^(x)k.
    u = np.exp(1j * np.random.default_rng(seed).uniform(-np.pi, np.pi, pair.n))
    return MotzkinPair(n=pair.n, lam=pair.lam, a=pair.a * u * u[::-1], b=pair.b * u), u


def _gen(pair, k, name, i):
    # One generator through the operator interpreter.
    return evaluate_operator(Gen(name, i), k, pair)


def _word(pair, k, word):
    # A word of (name, index, dagger) tokens through the operator interpreter.
    return evaluate_operator(_word_tree(word), k, pair)


def _dense_generator(pair, k, name, i):
    # Reference: the generator as a Kronecker product on the whole power.
    L = l_matrix(pair)
    base = {"p": p_matrix(pair), "t": t_matrix(pair), "l": L, "r": L.conj().T}[name]
    left = np.eye(pair.n ** (i - 1), dtype=complex)
    right = np.eye(pair.n**k // (left.shape[0] * base.shape[0]), dtype=complex)
    return np.kron(np.kron(left, base), right)


class TestExamplePairs:
    def test_frozen_values(self):
        p4 = _pair4()
        assert np.allclose(p4.a, 0.5)
        assert np.allclose(p4.b, [2**-0.5, 0.0, 0.0, 2**-0.5])
        p3 = _pair3()
        assert np.allclose(p3.a, 3**-0.5)
        assert np.allclose(p3.b, [0.0, 1.0, 0.0])

    def test_compares_by_identity(self):
        # Two equal-valued pairs are distinct objects; a pair hashes.
        p, q = _pair4(), build_example_pair("iii", 4, 1, QUARTER)
        assert (p == q) is False and p != q
        assert p == p
        assert {p: "p", q: "q"}[q] == "q"

    def test_families_validate(self):
        cases = [
            ("i", 3, 0, THIRD),
            ("i", 5, 0, Fraction(1, 5)),
            ("ii", 4, 1, Fraction(1, 5)),
            ("iii", 4, 1, QUARTER),
            ("iii", 6, 2, Fraction(1, 6)),
            ("iii", 4, 2, QUARTER),
            ("iii", 5, 1, Fraction(1, 5)),
        ]
        for family, n, r, lam in cases:
            pair = build_example_pair(family, n, r, lam)
            report = validate_pair(pair)
            assert report.ok, (family, n, r, lam, report)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            build_example_pair("i", 4, 0, QUARTER)  # family i needs odd n
        with pytest.raises(ParameterError):
            build_example_pair("iii", 4, 3, QUARTER)  # r too large
        with pytest.raises(ParameterError):
            build_example_pair("iii", 4, 2, Fraction(1, 5))  # moduli cannot sum to 1
        with pytest.raises(ParameterError):
            build_example_pair("x", 4, 1, QUARTER)
        with pytest.raises(ParameterError):
            MotzkinPair(n=3, lam=Fraction(2, 5), a=np.ones(3), b=np.ones(3))

    def test_derived_reverse_vector(self):
        # sum_i a_i conj(b_ibar) v_i is proportional to v with modulus sqrt(lam).
        for pair in PAIRS:
            w = pair.a * pair.b[::-1].conj()
            c = np.vdot(pair.b, w)  # <w, b> with b unit
            assert abs(abs(c) - float(pair.lam) ** 0.5) < 1e-12
            assert np.linalg.norm(w - c * pair.b) < 1e-12

    def test_json_round_trip(self):
        pair = _pair4()
        data = pair.to_json_dict()
        back = MotzkinPair.from_json_dict(data)
        assert back.n == pair.n and back.lam == pair.lam
        assert np.allclose(back.a, pair.a) and np.allclose(back.b, pair.b)


class TestGeneratorOperators:
    def test_p_t_are_projections(self):
        for pair in PAIRS:
            P = p_matrix(pair)
            T = t_matrix(pair)
            assert np.linalg.norm(P @ P - P) < 1e-14
            assert np.linalg.norm(P - P.conj().T) < 1e-14
            assert np.linalg.norm(T @ T - T) < 1e-14
            assert np.linalg.norm(T - T.conj().T) < 1e-14

    def test_t_compression_identity(self):
        # (1 (x) P) t (1 (x) P) = lam (P (x) P)
        for pair in PAIRS:
            n = pair.n
            P = p_matrix(pair)
            T = t_matrix(pair)
            IP = np.kron(np.eye(n), P)
            lhs = IP @ T @ IP
            rhs = float(pair.lam) * np.kron(P, P)
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_zigzag(self):
        for pair in PAIRS:
            n = pair.n
            vA2 = pair.vA().reshape(n, n)
            M = np.einsum("ml,jm->lj", vA2, vA2.conj())
            assert np.linalg.norm(M - float(pair.lam) * np.eye(n)) < 1e-12

    def test_l_structure(self):
        for pair in PAIRS:
            n = pair.n
            L = l_matrix(pair)
            Lr = L.reshape(n, n, n, n)
            P = p_matrix(pair)
            for j in range(n):
                assert np.allclose(Lr[j, :, :, j], P)
            R = _gen(pair, 2, "r", 1)
            assert np.allclose(R, L.conj().T)

    def test_exact_generator_identities(self):
        for pair in PAIRS:
            for k in (2, 3):
                for i in range(1, k):
                    l = _gen(pair, k, "l", i)
                    r = _gen(pair, k, "r", i)
                    p = _gen(pair, k, "p", i)
                    p_next = _gen(pair, k, "p", i + 1)
                    assert np.linalg.norm(r @ l - p) < 1e-12
                    assert np.linalg.norm(l @ l.conj().T - p_next) < 1e-12

    def test_dimension_guard(self):
        pair = _pair4()
        with pytest.raises(LimitError):
            _gen(pair, 7, "p", 1)
        with pytest.raises(LimitError):
            span_dimension(pair, 7)

    @pytest.mark.parametrize("value", ["abc", "", "0", "-5", "1.5"])
    def test_dimension_bound_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("MOTZKIN_MAX_DIM", value)
        with pytest.raises(ParameterError, match="MOTZKIN_MAX_DIM"):
            _gen(_pair4(), 2, "p", 1)
        with pytest.raises(ParameterError, match="MOTZKIN_MAX_DIM"):
            span_dimension(_pair4(), 2)

    def test_dimension_bound_override(self, monkeypatch):
        monkeypatch.setenv("MOTZKIN_MAX_DIM", "15")
        with pytest.raises(LimitError):
            _gen(_pair4(), 2, "p", 1)
        with pytest.raises(LimitError):
            span_dimension(_pair4(), 2)
        monkeypatch.setenv("MOTZKIN_MAX_DIM", "16")
        assert _gen(_pair4(), 2, "p", 1).shape == (16, 16)
        assert span_dimension(_pair4(), 2) == (9, 2)


def _dense_word(pair, k, word):
    # The product of full n**k x n**k generator matrices, left to right.
    out = np.eye(pair.n**k, dtype=complex)
    for name, idx, dag in word:
        m = _dense_generator(pair, k, name, idx)
        out = out @ (m.conj().T if dag else m)
    return out


def _dense_relation_residuals(pair, k):
    # Reference: every relation evaluated on the whole k-fold power.
    lam = float(pair.lam)
    out = {}
    for label, lhs, rhs in presentation_relations(k):
        total = np.zeros((pair.n**k, pair.n**k), dtype=complex)
        for power, word in lhs:
            total += lam**power * _dense_word(pair, k, word)
        for power, word in rhs:
            total -= lam**power * _dense_word(pair, k, word)
        out[label] = float(np.linalg.norm(total))
    return out


def _word_product(n, width, bases, tokens, dtype):
    # Reference: a word of (name, index, dagger) tokens applied right to left
    # to the identity one generator at a time, as relation residuals were
    # evaluated before the operator interpreter read the words as trees.
    out = np.eye(n**width, dtype=dtype)
    for name, i, dag in reversed(tokens):
        if name != "id":
            base = bases[name]
            out = representation._apply_local(out, n, base.conj().T if dag else base, i)
    return out


def _word_relation_residuals(pair, k):
    # Reference: the relation windows evaluated with `_word_product`.
    n = pair.n
    lam = float(pair.lam)
    bases = representation._generator_bases(pair)
    out = {}
    for label, lhs, rhs in presentation_relations(k):
        terms = [
            (sign * lam**power, word)
            for sign, side in ((1, lhs), (-1, rhs))
            for power, word in side
        ]
        touched = [(i, i + _SITES[name] - 1) for _, word in terms for name, i, _ in word]
        lo = min(first for first, _ in touched)
        w = max(last for _, last in touched) - lo + 1
        total = np.zeros((n**w, n**w), dtype=pair.dtype)
        for coeff, word in terms:
            local = [(name, i - lo + 1, dag) for name, i, dag in word]
            total += coeff * _word_product(n, w, bases, local, pair.dtype)
        out[label] = float(np.linalg.norm(total)) * n ** ((k - w) / 2)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _unmemoised_relation_residuals(pair, k):
    # Reference: `relation_residuals` with every instance evaluated on its
    # own touched slots, as it was before one norm was kept per distinct
    # local relation, and with no guard.
    n = pair.n
    lam = float(pair.lam)
    blocks = representation._generator_bases(pair)
    out = {}
    for label, lhs, rhs in expression.presentation_relations(k):
        slots = {i + m for _, word in lhs + rhs for name, i, _ in word for m in range(_SITES[name])}
        rank = {slot: r for r, slot in enumerate(sorted(slots), 1)}
        s = len(slots)
        terms = []
        for op, side in ((np.add, lhs), (np.subtract, rhs)):
            for power, word in side:
                tree = _word_tree([(name, rank[i], dag) for name, i, dag in word])
                value = expression._act(tree, s, pair, blocks, None)
                terms.append((op, power, expression._widen(value, n, 1, s)))
        (_, p, a), (_, q, b), *more = terms
        twin = None if more or p != q else expression._twin(a, b)
        if twin is None:
            total = np.zeros((n**s, n**s), dtype=pair.dtype)
            for op, power, core in terms:
                core = expression._dense(core)
                op(total, lam**power * core if power else core, out=total)
        norm = float(np.linalg.norm(total)) if twin is None else 0.0 * twin
        out[label] = norm * n ** ((k - s) / 2)
    return out


def _assert_same_hex(pair, k):
    # `relation_residuals` keeps the keys, order and bits of the reference.
    res, ref = relation_residuals(pair, k), _unmemoised_relation_residuals(pair, k)
    assert list(res) == list(ref), (pair.n, k)
    assert [v.hex() for v in res.values()] == [v.hex() for v in ref.values()], (pair.n, k)


def _perturbed(pair):
    # The pair with its a-vector moved off the relations.
    return dataclasses.replace(pair, a=pair.a + np.array([0.1, 0.0, 0.05j, 0.0]))


def _assert_same_bits(pair, k):
    # Every residual keeps its key, its place and its bits.
    res = relation_residuals(pair, k)
    ref = _word_relation_residuals(pair, k)
    assert list(res) == list(ref), (pair.n, k)
    bits = [struct.pack("<d", v) for v in res.values()]
    assert bits == [struct.pack("<d", v) for v in ref.values()], (pair.n, k)


def _assert_matches_dense(pair, k):
    res = relation_residuals(pair, k)
    ref = _dense_relation_residuals(pair, k)
    assert list(res) == list(ref)
    for label, value in ref.items():
        assert abs(res[label] - value) <= 1e-12 * max(1.0, value), (pair.n, k, label)
    return res


class TestRelations:
    def test_residuals_small(self):
        for pair in PAIRS:
            for k in (2, 3):
                res = relation_residuals(pair, k)
                assert res, "no relations checked"
                worst = max(res.values())
                assert worst < 1e-10, (pair.n, k, worst)

    @pytest.mark.parametrize("k", [1, 0])
    def test_no_relation_below_width_two(self, k):
        with pytest.raises(ParameterError, match=f"need k >= 2 for a relation to check, got {k}"):
            relation_residuals(_pair4(), k)

    def test_window_matches_dense_reference(self):
        cases = [
            (build_example_pair("i", 3, 0, THIRD), (2, 3, 4, 5)),
            (build_example_pair("iii", 4, 1, QUARTER), (2, 3, 4)),
            (build_example_pair("ii", 5, 1, Fraction(1, 5)), (2, 3)),
            (build_example_pair("iii", 5, 2, Fraction(1, 5)), (2, 3)),
        ]
        for pair, ks in cases:
            for k in ks:
                res = _assert_matches_dense(pair, k)
                assert max(res.values()) < 1e-10, (pair.n, k)

    def test_interpreter_matches_word_products_bit_for_bit(self):
        # The token walk applies every block to the identity on the whole
        # window.  The interpreter Kronecker-multiplies a block beside a
        # value onto its core, and applies one that meets it as the walk
        # does, so each entry is the same product.
        n4 = build_example_pair("iii", 4, 1, QUARTER)
        cases = [
            (build_example_pair("i", 3, 0, THIRD), (2, 3, 4, 5, 6)),
            (n4, (2, 3, 4, 5)),
            (build_example_pair("ii", 5, 1, Fraction(1, 5)), (2, 3, 4)),
            (build_example_pair("iii", 5, 2, Fraction(1, 5)), (2, 3, 4)),
            (_rotated(n4)[0], (2, 3, 4)),
        ]
        for pair, ks in cases:
            for k in ks:
                _assert_same_bits(pair, k)

    @pytest.mark.slow
    def test_interpreter_matches_word_products_at_width_six(self):
        # The reference forms the far commutations (6) on all six slots.
        _assert_same_bits(_pair4(), 6)

    def test_one_evaluation_per_local_relation(self, monkeypatch):
        # The battery keeps one norm per distinct local relation.  Every
        # residual must keep its bits, on the battery and on variants of its
        # relations that differ from them only in a lam-power or a dagger.
        def with_variants(k):
            for label, lhs, rhs in presentation_relations(k):
                yield label, lhs, rhs
                (power, word), *rest = lhs
                yield label + "+", [(power + 1, word), *rest], rhs
                (name, i, dag), *tail = word
                yield label + "'", [(power, ((name, i, not dag), *tail)), *rest], rhs

        rotated = [_rotated(pair, seed)[0] for seed, (pair, _) in enumerate(STANDARD_SPANS)]
        # The standard pairs run to width 26 in the next test.
        for pair in [make() for make in _NAMED_PAIRS.values()] + rotated:
            for k in range(2, 9):
                _assert_same_hex(pair, k)
        # The variants of the far commutations (6) are formed densely.
        monkeypatch.setattr(expression, "presentation_relations", with_variants)
        for pair in rotated:
            for k in (2, 3, 4, 5):
                _assert_same_hex(pair, k)

    def test_window_sees_violations(self):
        # A perturbed a-vector breaks the pair; the window evaluation must
        # report the same O(1) residuals as the whole-space evaluation.
        pair = _perturbed(_pair4())
        for k in (2, 3, 4):
            res = _assert_matches_dense(pair, k)
            assert max(res.values()) > 0.1

    def test_far_commutations_see_the_slot_order(self, monkeypatch):
        # Every far commutation is exactly 0.0.  With a block inserted on the
        # wrong side of the core it meets, those of unlike generators fail.
        far = {label: v for label, v in relation_residuals(_pair4(), 4).items() if "(6)" in label}
        assert len(far) == 9 and set(far.values()) == {0.0}
        apply = expression._apply

        def wrong_side(X, n, block, first, last):
            if X is not None and first <= last < X[0]:
                return first, X[1], (expression._widen(X, n, last + 1, X[1]), block)
            return apply(X, n, block, first, last)

        monkeypatch.setattr(expression, "_apply", wrong_side)
        far = {label: v for label, v in relation_residuals(_pair4(), 4).items() if "(6)" in label}
        kinds = {label: [(x[0], x.endswith("*")) for x in label[4:-1].split(",")] for label in far}
        unlike = [label for label, (x, y) in kinds.items() if x != y]
        assert len(unlike) == 6
        assert all(far[label] > TOL_CHECK for label in unlike), far

    def test_twin_cores(self):
        # Two sides that are one Kronecker product of equal factors cancel;
        # the bound on their entries makes the cancelled residual NaN when
        # the product would leave the floating-point range.
        a, b = np.array([[2.0, -3.0]]), np.array([[0.5], [4.0]])
        assert expression._twin((a, b), (a.copy(), b.copy())) == 12.0
        assert expression._twin((a, b), (b, a)) is None
        assert expression._twin((a, b), expression._dense((a, b))) is None
        huge = np.array([[1e200]])
        assert np.isnan(0.0 * expression._twin((huge, huge), (huge, huge)))

    @pytest.mark.slow
    def test_one_evaluation_per_local_relation_to_width_26(self):
        # Past the widths the old guard admitted for n = 5: the standard
        # pairs, a rotated and a perturbed one, every residual by its bits.
        pairs = [p for p, _ in STANDARD_SPANS]
        for pair in pairs + [_rotated(_pair4())[0], _perturbed(_pair4())]:
            for k in range(2, 27):
                _assert_same_hex(pair, k)

    def test_battery_guard(self):
        # The battery forms no n**k x n**k operator: n = 4 reaches width 8.
        # It evaluates 24 local relations at every width, so width 27 runs
        # too, each instance within TOL_CHECK times the norm of the identity
        # on the other slots of a 2-slot window.  Its largest window,
        # n**min(k, 4), is held to the dimension bound, and its instances to
        # RELATION_MAX_INSTANCES, counted in closed form: a width past that
        # is refused at once.
        assert max(relation_residuals(_pair4(), 8).values()) < TOL_CHECK
        res = relation_residuals(_pair4(), 27)
        assert len(res) == expression.relation_count(27)
        assert max(res.values()) < TOL_CHECK * 4 ** ((27 - 2) / 2)
        pair16 = build_example_pair("iii", 16, 1, Fraction(1, 16))
        window = r"relation window n\*\*4 = 65536 exceeds the configured bound 4096"
        with pytest.raises(LimitError, match=window):
            relation_residuals(pair16, 4)
        for k in (150, 10**6, 10**20):
            start = time.process_time()
            battery = f"relation battery at width {k} has more than 100000 instances"
            with pytest.raises(LimitError, match=battery):
                relation_residuals(_pair4(), k)
            assert time.process_time() - start < 0.5

    def test_battery_guard_keeps_every_width_of_the_dimension_bound(self):
        # Every power the dense cap admits passes, and so does every width
        # up to the instance bound once the window n**4 fits.
        for n in range(2, 4097):
            k = 2
            while n**k <= 4096:
                expression._check_battery(n, k)
                k += 1
        for n in range(2, 9):
            expression._check_battery(n, 149)
            with pytest.raises(LimitError, match="relation battery at width 150"):
                expression._check_battery(n, 150)

    @pytest.mark.parametrize("k", range(2, 41))
    def test_battery_guard_counts_every_window(self, monkeypatch, k):
        # The closed form counts the instances presentation_relations(k)
        # yields, one window each, and the guard reads it exactly: a bound
        # of that count passes and one less refuses.
        count = expression.relation_count(k)
        assert count == len(list(presentation_relations(k)))
        monkeypatch.setattr(expression, "RELATION_MAX_INSTANCES", count)
        expression._check_battery(3, k)
        monkeypatch.setattr(expression, "RELATION_MAX_INSTANCES", count - 1)
        with pytest.raises(LimitError, match="relation battery"):
            expression._check_battery(3, k)


_LETTERS = ("l", "r", "t", "p")


@st.composite
def _words(draw):
    k = draw(st.integers(2, 4))
    word = []
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(_LETTERS))
        hi = k if name == "p" else k - 1
        word.append((name, draw(st.integers(1, hi)), draw(st.booleans())))
    return k, word


class TestWordEvaluation:
    @given(pair=st.sampled_from(PAIRS), kw=_words())
    def test_local_matches_dense_and_diagrams(self, pair, kw):
        k, word = kw
        mat = _word(pair, k, word)
        dense = np.eye(pair.n**k, dtype=complex)
        elem = identity(k, lam=pair.lam)
        for name, i, dag in word:
            g = _dense_generator(pair, k, name, i)
            dense = dense @ (g.conj().T if dag else g)
            d = diagram_generator(k, name, i, lam=pair.lam)
            elem = elem * (adjoint(d) if dag else d)
        assert np.linalg.norm(mat - dense) < 1e-12
        assert np.linalg.norm(mat - evaluate_element(pair, elem)) < 1e-12

    def test_adjoint_token_and_id(self):
        pair = _pair4()
        word = [("p", 2, True), ("l", 1, True), ("id", None, False), ("t", 2, False)]
        expected = _word(pair, 3, [("p", 2, False), ("l", 1, True), ("t", 2, False)])
        assert np.linalg.norm(_word(pair, 3, word) - expected) < 1e-14
        swapped = _word(pair, 3, [("l", 1, True), ("p", 2, False), ("t", 2, False)])
        assert np.linalg.norm(swapped - expected) > 0.1
        assert np.array_equal(_word(pair, 3, []), np.eye(64))

    def test_index_and_size_checks(self):
        pair = _pair4()
        for token in (("t", 3, False), ("p", 4, False), ("x", 1, False), ("l", None, False)):
            with pytest.raises(ParameterError):
                _word(pair, 3, [token])
        with pytest.raises(LimitError):
            _word(pair, 7, [("p", 1, False)])


def _broadcast_diagram(pair, diagram):
    # Reference: every through strand, arc and isolated point is one factor
    # on its own axes of an (n,)*2k array, multiplied in by broadcasting.
    n, k = pair.n, diagram.width
    p = diagram.pairing
    root = float(pair.lam) ** -0.5
    vA2 = pair.vA().reshape(n, n)
    out = np.ones((n,) * (2 * k), dtype=complex)

    def on_axes(arr, axes):
        target = [1] * (2 * k)
        for ax in axes:
            target[ax] = n
        return arr.reshape(target)

    for i in range(k):
        j = p[i]
        if j == -1:
            out = out * on_axes(pair.b, [i])
        elif j >= k:
            out = out * on_axes(np.eye(n), [i, j])
        elif j > i:
            out = out * on_axes(root * vA2, [i, j])
    for i in range(k, 2 * k):
        j = p[i]
        if j == -1:
            out = out * on_axes(pair.b.conj(), [i])
        elif j > i:
            out = out * on_axes(root * vA2.conj(), [i, j])
    return out.reshape(n**k, n**k)


def _evaluate_by_fractions(pair, x):
    """evaluate_element with each coefficient converted as float(Fraction)
    from `x.terms`: the conversion the integer form must reproduce."""
    n, k = pair.n, x.width
    _, b = pair.vectors()
    arc = float(pair.lam) ** -0.5 * pair.vA().reshape(n, n)
    groups = {}
    for d, c in x.terms.items():
        top, bottom = representation._row_keys(d.pairing, k)
        tops, bottoms, entries = groups.setdefault(top.count(k), ({}, {}, []))
        entries.append(
            (tops.setdefault(top, len(tops)), bottoms.setdefault(bottom, len(bottoms)), float(c))
        )
    out = np.zeros((n**k, n**k), dtype=pair.dtype)
    for tops, bottoms, entries in groups.values():
        C = np.zeros((len(tops), len(bottoms)))
        for i, j, c in entries:
            C[i, j] = c
        T = np.stack([representation._half(key, b, arc) for key in tops], axis=1)
        B = np.stack([representation._half(key, b, arc) for key in bottoms], axis=1)
        out += np.matmul(C.T, T).reshape(n**k, -1) @ B.reshape(n**k, -1).conj().T
    return out


class TestDiagramEvaluation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_halves_match_broadcast_reference(self, k):
        real = _pair4()
        for pair in (real, _rotated(real)[0]):
            for d in enumerate_basis(k):
                err = np.linalg.norm(evaluate_diagram(pair, d) - _broadcast_diagram(pair, d))
                assert err <= 1e-12, (pair.dtype, d.pairing)

    def test_numerators_convert_as_fractions(self):
        # Each coefficient becomes numerator / denominator, the bits of
        # float(Fraction), so g_k's operator is the Fraction path's exactly.
        for lam in ("1/4", "1/5", "1/6", "2/9", "3/13"):
            pair = build_example_pair("iii", 4, 1, Fraction(lam))
            for k in (1, 2, 3, 4):
                g = jones_wenzl(k, pair.lam)
                assert np.array_equal(evaluate_element(pair, g), _evaluate_by_fractions(pair, g))

    def test_generators_match(self):
        for pair in PAIRS:
            for k in (2, 3):
                for name in ("l", "r", "t", "p"):
                    hi = k if name == "p" else k - 1
                    for i in range(1, hi + 1):
                        d = diagram_generator(k, name, i, lam=pair.lam)
                        assert (
                            np.linalg.norm(
                                evaluate_element(pair, d)
                                - _gen(pair, k, name, i)
                            )
                            < 1e-12
                        )

    def test_word_products_match_linear_extension(self):
        words = [
            [("t", 1, False), ("l", 1, False)],
            [("l", 1, False), ("l", 2, False)],
            [("t", 1, False), ("t", 2, False), ("t", 1, False)],
            [("r", 1, False), ("l", 1, False), ("p", 2, False)],
            [("l", 2, False), ("r", 1, False), ("t", 2, False)],
            [("p", 1, False), ("t", 2, False), ("l", 1, True)],
        ]
        for pair in PAIRS:
            k = 3
            for word in words:
                mat = _word(pair, k, word)
                elem = Element.from_diagram(
                    MotzkinDiagram(tuple(range(k, 2 * k)) + tuple(range(k))),
                    pair.lam,
                )
                for name, idx, dag in word:
                    g = diagram_generator(k, name, idx, lam=pair.lam)
                    if dag:
                        g = adjoint(g)
                    elem = elem * g
                lin = evaluate_element(pair, elem)
                assert np.linalg.norm(mat - lin) < 1e-10, (pair.n, word)

    def test_homomorphism_at_nesting_depth_two(self):
        # Width 6 is the first width with an arc nested two deep: the
        # rainbow (0,5),(1,4),(2,3) on one row.  A diagonal unitary makes
        # the second pair complex.
        real = _pair3()
        u = np.exp(1j * np.array([0.3, 1.1, -0.7]))
        rotated = MotzkinPair(n=3, lam=real.lam, a=real.a * u * u[::-1], b=real.b * u)
        basis = enumerate_basis(6)
        deep = [
            d for d in basis
            if d.pairing[:3] == (5, 4, 3) or d.pairing[6:9] == (11, 10, 9)
        ]
        rng = np.random.default_rng(5)
        for pair in (real, rotated):
            for _ in range(6):
                x = deep[rng.integers(len(deep))]
                y = basis[rng.integers(len(basis))]
                if rng.integers(2):
                    x, y = y, x
                product = evaluate_diagram(pair, x) @ evaluate_diagram(pair, y)
                xy = Element.from_diagram(x, pair.lam) * Element.from_diagram(y, pair.lam)
                err = np.linalg.norm(evaluate_element(pair, xy) - product)
                assert err <= 1e-12 * max(1.0, np.linalg.norm(product)), (x, y)

    def test_single_nesting_supported(self):
        pair = _pair3()
        pairing = [5, 4, -1, -1, 1, 0] + [-1] * 6
        mat = evaluate_diagram(pair, MotzkinDiagram(pairing))
        assert mat.shape == (729, 729)
        assert np.isfinite(mat).all()

    def test_depth_one_supported(self):
        pair = _pair4()
        # width 4: nested arcs (0,3),(1,2) on both rows: depth one only.
        d = MotzkinDiagram([3, 2, 1, 0, 7, 6, 5, 4])
        mat = evaluate_diagram(pair, d)
        assert mat.shape == (256, 256)
        assert np.isfinite(mat).all()


class TestRealArithmetic:
    # A real pair and its diagonal-unitary rotation define the same
    # representation up to U = u^(x)k; the real one is evaluated in float64.

    def test_operators_follow_the_pair(self, monkeypatch):
        windows, images = [], []
        apply_local = representation._apply_local

        def spy(record):
            def apply(*args):
                out = apply_local(*args)
                record.append(out.dtype)
                return out
            return apply

        # The relation windows go through the operator interpreter, the
        # span images through the representation layer.
        monkeypatch.setattr(expression, "_apply_local", spy(windows))
        monkeypatch.setattr(representation, "_apply_local", spy(images))
        g3 = jones_wenzl(3, QUARTER)
        d = enumerate_basis(3)[7]
        word = [("l", 1, True), ("t", 2, False), ("p", 3, False)]
        cases = [(_pair4(), np.float64), (_pair5(), np.float64), (_rotated(_pair4())[0], np.complex128)]
        for pair, want in cases:
            assert pair.dtype == want
            windows.clear()
            images.clear()
            relation_residuals(pair, 3)
            span_dimension(pair, 2)
            assert windows and set(windows) == {np.dtype(want)}
            assert images and set(images) == {np.dtype(want)}
            for X in (
                p_matrix(pair),
                t_matrix(pair),
                l_matrix(pair),
                _word(pair, 3, word),
                _word(pair, 3, []),
                evaluate_diagram(pair, d),
                evaluate_element(pair, g3),
                rep_conditional_expectation(pair, evaluate_element(pair, g3)),
            ):
                assert X.dtype == want

    @pytest.mark.parametrize("make, k", [(_pair4, 4), (_pair5, 3)])
    def test_rotation_keeps_residuals(self, make, k):
        real = make()
        res = relation_residuals(real, k)
        rot = relation_residuals(_rotated(real)[0], k)
        assert list(res) == list(rot)
        assert max(res.values()) < TOL_CHECK and max(rot.values()) < TOL_CHECK

    @pytest.mark.parametrize("make, k", [(_pair4, 3), (_pair5, 2)])
    def test_rotation_keeps_span(self, make, k):
        real = make()
        assert span_dimension(real, k) == span_dimension(_rotated(real)[0], k)

    @pytest.mark.parametrize("make, k", [(_pair4, 4), (_pair5, 3)])
    def test_rotation_conjugates_elements(self, make, k):
        real = make()
        rotated, u = _rotated(real)
        g = jones_wenzl(k, real.lam)
        E = evaluate_element(real, g)
        uk = functools.reduce(np.kron, [u] * k)
        expected = uk[:, None] * E * uk.conj()[None, :]
        assert E.dtype == np.float64
        assert np.linalg.norm(evaluate_element(rotated, g) - expected) < 1e-12


def _span_ops(pair, k):
    # The identity and every generator on the whole power, dense.
    names = [(name, i) for i in range(1, k) for name in ("l", "r", "t")]
    names += [("p", i) for i in range(1, k + 1)]
    return [np.eye(pair.n**k, dtype=complex)] + [_dense_generator(pair, k, *g) for g in names]


def _span_blocks(pair, k):
    return representation._support_blocks(_span_ops(pair, k))


def _reference_span_dimension(pair, k, tol=TOL_RANK, max_rounds=12):
    # Reference: the span closed under dense generator products, one
    # greedy Gram-Schmidt pick at a time.
    gens = _span_ops(pair, k)

    basis = []
    members = []

    def try_add(candidates):
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


def _random_pair(rng, n):
    # A pair of random unit vectors: no Motzkin conditions hold.
    a, b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return MotzkinPair(n, QUARTER, a / np.linalg.norm(a), b / np.linalg.norm(b))


STANDARD_SPANS = [
    (build_example_pair("i", 3, 0, THIRD), (1, 2, 3)),
    (build_example_pair("iii", 4, 1, QUARTER), (1, 2, 3)),
    (build_example_pair("ii", 5, 1, Fraction(1, 5)), (1, 2)),
    (build_example_pair("iii", 5, 2, Fraction(1, 5)), (1, 2)),
]


def _refuse_to_apply(*args):
    raise AssertionError("a generator image was built past the byte budget")


class TestSpanDimension:
    def test_width_two(self):
        for pair in PAIRS:
            dim, rounds = span_dimension(pair, 2)
            assert dim == motzkin_number(4) == 9
            assert rounds <= 8

    def test_needs_a_width(self):
        for k in (0, -1):
            with pytest.raises(ParameterError, match="need k >= 1"):
                span_dimension(_pair4(), k)

    def test_byte_budget(self, monkeypatch):
        # n=4, k=3: the identity and the 9 generator images are 10 dense
        # operators of 64**2 entries, 8 bytes each for the real pair and 16
        # for its complex rotation.  The first check counts the basis,
        # twice the images (they may all turn into basis rows) and three
        # images' worth of SVD work: 0 + 2*10 + 3 = 23 operators.  After
        # it every operator is a row of the 924 entries of its blocks, and
        # each image is counted alone before it is built.  The rounds add
        # 10, 27 and 14 directions; the last image of 27 operators is built
        # on a basis of 51 rows, 51 + 2*27 + 3*27 = 186, the most the
        # closure counts.
        for pair in (_pair4(), _rotated(_pair4())[0]):
            column = pair.dtype.itemsize * 64**2
            monkeypatch.setattr(representation, "SPAN_MAX_BYTES", 23 * column - 1)
            with monkeypatch.context() as m:
                m.setattr(representation, "_apply_local", _refuse_to_apply)
                with pytest.raises(LimitError, match="would hold 23 operators"):
                    span_dimension(pair, 3)
            row = pair.dtype.itemsize * 924
            monkeypatch.setattr(representation, "SPAN_MAX_BYTES", 185 * row)
            with pytest.raises(LimitError, match="would hold 186 operators"):
                span_dimension(pair, 3)
            monkeypatch.setattr(representation, "SPAN_MAX_BYTES", 186 * row)
            assert span_dimension(pair, 3) == (51, 3), pair.dtype

    def test_matches_reference_on_standard_families(self):
        for pair, ks in STANDARD_SPANS:
            for k in ks:
                span = span_dimension(pair, k)
                assert span == _reference_span_dimension(pair, k), (pair.n, k)
                assert span[0] == motzkin_number(2 * k)

    def test_matches_reference_off_the_motzkin_conditions(self):
        rng = np.random.default_rng(2024)
        cases = [(2, 2), (2, 3), (3, 2), (3, 2), (4, 2)]
        base = _pair4()
        perturbed = dataclasses.replace(base, a=base.a + np.array([0.1, 0.0, 0.05j, 0.0]))
        pairs = [(_random_pair(rng, n), k) for n, k in cases] + [(perturbed, 2)]
        for pair, k in pairs:
            # A random pair is one block; the perturbed one keeps b's zeros.
            assert (len(_span_blocks(pair, k)) == 1) == (pair is not perturbed), (pair.n, k)
            span = span_dimension(pair, k)
            assert span == _reference_span_dimension(pair, k), (pair.n, k)
            assert span[0] > motzkin_number(2 * k)

    @pytest.mark.parametrize("make, k", [(_pair4, 2), (_pair4, 3), (_pair5, 2)])
    def test_matches_reference_on_rotated_pairs(self, make, k):
        # The diagonal rotation keeps every support, so the complex pair has
        # the blocks of the real one.
        real, rotated = make(), _rotated(make())[0]
        blocks = _span_blocks(rotated, k)
        assert len(blocks) > 1
        assert all(np.array_equal(I, J) for I, J in zip(blocks, _span_blocks(real, k)))
        assert span_dimension(rotated, k) == _reference_span_dimension(rotated, k)

    def test_standard_families_have_several_blocks(self):
        for pair, ks in STANDARD_SPANS:
            for k in ks[1:]:
                blocks = _span_blocks(pair, k)
                assert len(blocks) > 1, (pair.n, k)
                assert sorted(np.concatenate(blocks).tolist()) == list(range(pair.n**k))

    @pytest.mark.parametrize(
        "make, k",
        [(_pair4, 3), (_pair3, 3), (lambda: _rotated(_pair5())[0], 2)],
        ids=["n4-k3", "n3-k3", "rotated-n5-k2"],
    )
    def test_closure_is_zero_off_the_blocks(self, monkeypatch, make, k):
        # Every basis operator goes through `_apply_blocks` as a row of its
        # blocks' entries.  Scattered to the whole power and multiplied by
        # each dense generator, it is exactly 0.0 off the blocks; on them,
        # each image is the product of the scattered blocks.
        pair = make()
        calls = []
        apply_blocks = representation._apply_blocks

        def spy(G, X, slices):
            out = apply_blocks(G, X, slices)
            calls.append((G, X.copy(), out.copy(), slices))
            return out

        monkeypatch.setattr(representation, "_apply_blocks", spy)
        dim = span_dimension(pair, k)[0]
        blocks = _span_blocks(pair, k)
        D = pair.n**k
        on = np.zeros((D, D), dtype=bool)
        for I in blocks:
            on[np.ix_(I, I)] = True

        def scatter(parts):
            dense = np.zeros((D, D), dtype=parts[0].dtype)
            for I, part in zip(blocks, parts):
                dense[np.ix_(I, I)] = part.reshape(I.size, I.size)
            return dense

        ops = _span_ops(pair, k)
        rows = []
        for G, X, out, slices in calls:
            for x, y in zip(X, out):
                assert np.allclose(scatter(G) @ scatter([x[at] for at in slices]),
                                   scatter([y[at] for at in slices]), atol=1e-13)
            if not rows or not np.array_equal(X, rows[-1]):
                rows.append(X)
        rows = np.vstack(rows)
        assert len(rows) == 1 + dim  # the identity and every basis direction
        for row in rows:
            X = scatter([row[at] for at in calls[0][3]])
            for G in ops[1:]:
                assert not (G @ X)[~on].any()

    def test_equals_rank_of_evaluated_basis(self):
        # l, r, t and p generate the Motzkin algebra, so the generated span
        # is the span of the evaluated basis diagrams.
        for pair, ks in STANDARD_SPANS:
            for k in ks:
                stack = np.array(
                    [evaluate_diagram(pair, d).reshape(-1) for d in enumerate_basis(k)]
                )
                s = np.linalg.svd(stack, compute_uv=False)
                rank = int(np.sum(s > TOL_RANK * s[0]))
                assert rank == span_dimension(pair, k)[0] == motzkin_number(2 * k), (pair.n, k)


def _sandwich_conditional_expectation(pair, X, tol=TOL_CHECK):
    # Reference: the sandwich (1 (x) P)(1 (x) T)(X (x) 1)(1 (x) T)(1 (x) P)
    # on the whole (k+2)-fold power, factored as what (x) P (x) P.
    n = pair.n
    dim = X.shape[0]
    k = round(np.log(dim) / np.log(n)) - 1
    P, T = p_matrix(pair), t_matrix(pair)
    D = n ** (k + 2)
    X1 = (X[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(D, D)
    Y = _apply_local(_apply_local(X1, n, T, k + 1), n, P, k + 2)
    Z = _apply_local(_apply_local(Y.conj().T, n, T, k + 1), n, P, k + 2).conj().T
    dk = n**k
    _, b = pair.vectors()
    what = np.einsum(
        "s,t,IstJuv,u,v->IJ",
        b.conj(), b.conj(), Z.reshape(dk, n, n, dk, n, n), b, b, optimize=True,
    )
    rebuilt = (
        what[:, None, None, :, None, None]
        * P[None, :, None, None, :, None]
        * P[None, None, :, None, None, :]
    ).reshape(D, D)
    residual = float(np.linalg.norm(Z - rebuilt))
    if residual > tol * max(1.0, float(np.linalg.norm(Z))):
        raise StructureError(f"sandwich residual {residual:.3e}")
    return what / float(pair.lam)


class TestRepConditionalExpectation:
    def test_matches_sandwich(self):
        # The weighted partial trace against the sandwich on the (k+2)-fold
        # power, for random complex operators.
        rng = np.random.default_rng(7)
        pairs = [
            _pair3(),
            _pair4(),
            _pair5(),
            build_example_pair("iii", 5, 2, Fraction(1, 5)),
            _rotated(_pair4())[0],
        ]
        for pair in pairs:
            for k in (0, 1, 2):
                dim = pair.n ** (k + 1)
                X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                got = rep_conditional_expectation(pair, X)
                want = _sandwich_conditional_expectation(pair, X)
                assert np.abs(got - want).max() < 1e-13, (pair.n, k)

    def test_unit_and_p(self):
        for pair in PAIRS:
            for k in (0, 1, 2):
                n = pair.n
                X = np.eye(n ** (k + 1), dtype=complex)
                assert (
                    np.linalg.norm(
                        rep_conditional_expectation(pair, X) - np.eye(n**k)
                    )
                    < 1e-10
                )
                Xp = _gen(pair, k + 1, "p", k + 1)
                assert (
                    np.linalg.norm(
                        rep_conditional_expectation(pair, Xp)
                        - float(pair.lam) * np.eye(n**k)
                    )
                    < 1e-10
                )

    def test_matches_diagram_expectation(self):
        for pair in PAIRS:
            for k in (1, 2):
                for d in enumerate_basis(k + 1)[::3]:
                    x = Element.from_diagram(d, pair.lam)
                    lhs = rep_conditional_expectation(
                        pair, evaluate_element(pair, x)
                    )
                    rhs = evaluate_element(pair, conditional_expectation(x))
                    assert np.linalg.norm(lhs - rhs) < 1e-9, (pair.n, d.pairing)

    def test_factorisation_check(self):
        # For a valid pair the sandwich factors for every operator.  With
        # a_1 != a_4 the vector sum_i a_i conj(b_ibar) e_i is no longer
        # parallel to v, the sandwich does not factor, and the check says so.
        pair = _pair4()
        X = np.random.default_rng(0).standard_normal((16, 16))
        rep_conditional_expectation(pair, X)
        bad = MotzkinPair(4, pair.lam, pair.a + [0.1, 0, 0, 0], pair.b)
        for Y in (X, np.eye(16)):
            with pytest.raises(StructureError):
                rep_conditional_expectation(bad, Y)

    def test_jones_wenzl_expectation(self):
        # E must contract the evaluated tower with the exact coefficient.
        for pair in PAIRS:
            for k in (1, 2):
                g_next = evaluate_element(pair, jones_wenzl(k + 1, pair.lam))
                g = evaluate_element(pair, jones_wenzl(k, pair.lam))
                from motzkin.qpoly import PhiFunction

                mu = 1 / PhiFunction(pair.lam)(k + 1)
                lhs = rep_conditional_expectation(pair, g_next)
                assert np.linalg.norm(lhs - float(mu) * g) < 1e-9
