"""Tests for the Motzkin-pair operator layer."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motzkin.diagram_core import (
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
from motzkin.jones_wenzl import jones_wenzl
from motzkin.representation import (
    MotzkinPair,
    build_example_pair,
    evaluate_diagram,
    evaluate_element,
    evaluate_word,
    generator_operator,
    l_matrix,
    p_matrix,
    rep_conditional_expectation,
    relation_residuals,
    span_dimension,
    t_matrix,
    validate_pair,
)

QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)


def _pair4():
    return build_example_pair("iii", 4, 1, QUARTER)


def _pair3():
    return build_example_pair("i", 3, 0, THIRD)


PAIRS = [_pair4(), _pair3()]


class TestExamplePairs:
    def test_frozen_values(self):
        p4 = _pair4()
        assert np.allclose(p4.a, 0.5)
        assert np.allclose(p4.b, [2**-0.5, 0.0, 0.0, 2**-0.5])
        p3 = _pair3()
        assert np.allclose(p3.a, 3**-0.5)
        assert np.allclose(p3.b, [0.0, 1.0, 0.0])

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
            R = generator_operator(pair, 2, "r", 1)
            assert np.allclose(R, L.conj().T)

    def test_exact_generator_identities(self):
        for pair in PAIRS:
            for k in (2, 3):
                for i in range(1, k):
                    l = generator_operator(pair, k, "l", i)
                    r = generator_operator(pair, k, "r", i)
                    p = generator_operator(pair, k, "p", i)
                    p_next = generator_operator(pair, k, "p", i + 1)
                    assert np.linalg.norm(r @ l - p) < 1e-12
                    assert np.linalg.norm(l @ l.conj().T - p_next) < 1e-12

    def test_dimension_guard(self):
        pair = _pair4()
        with pytest.raises(LimitError):
            generator_operator(pair, 7, "p", 1)


def _dense_word(pair, k, word):
    # The product of full n**k x n**k generator matrices, left to right.
    out = np.eye(pair.n**k, dtype=complex)
    for token in word:
        if token[0] == "adj":
            out = out @ _dense_word(pair, k, token[1]).conj().T
            continue
        name, idx, dag = token
        m = generator_operator(pair, k, name, idx)
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

    def test_window_sees_violations(self):
        # A perturbed a-vector breaks the pair; the window evaluation must
        # report the same O(1) residuals as the whole-space evaluation.
        pair = _pair4()
        pair.a = pair.a + np.array([0.1, 0.0, 0.05j, 0.0])
        for k in (2, 3, 4):
            res = _assert_matches_dense(pair, k)
            assert max(res.values()) > 0.1

    def test_dimension_guard(self):
        with pytest.raises(LimitError):
            relation_residuals(_pair4(), 7)


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
        mat = evaluate_word(pair, k, word)
        dense = np.eye(pair.n**k, dtype=complex)
        elem = identity(k, lam=pair.lam)
        for name, i, dag in word:
            g = generator_operator(pair, k, name, i)
            dense = dense @ (g.conj().T if dag else g)
            d = diagram_generator(k, name, i, lam=pair.lam)
            elem = elem * (adjoint(d) if dag else d)
        assert np.linalg.norm(mat - dense) < 1e-12
        assert np.linalg.norm(mat - evaluate_element(pair, elem)) < 1e-12

    def test_adjoint_token_and_id(self):
        pair = _pair4()
        word = [("adj", (("l", 1, False), ("p", 2, True))), "id", "t2"]
        expected = evaluate_word(pair, 3, ["p2", "l1'", "t2"])
        assert np.linalg.norm(evaluate_word(pair, 3, word) - expected) < 1e-14
        swapped = evaluate_word(pair, 3, ["l1'", "p2", "t2"])
        assert np.linalg.norm(swapped - expected) > 0.1

    def test_index_and_size_checks(self):
        pair = _pair4()
        for word in (["t3"], ["p4"], ["x1"], ["l"]):
            with pytest.raises(ParameterError):
                evaluate_word(pair, 3, word)
        with pytest.raises(LimitError):
            evaluate_word(pair, 7, ["p1"])


class TestDiagramEvaluation:
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
                                - generator_operator(pair, k, name, i)
                            )
                            < 1e-12
                        )

    def test_word_products_match_linear_extension(self):
        words = [
            ["t1", "l1"],
            ["l1", "l2"],
            ["t1", "t2", "t1"],
            ["r1", "l1", "p2"],
            ["l2", "r1", "t2"],
            ["p1", "t2", "l1'"],
        ]
        for pair in PAIRS:
            k = 3
            for word in words:
                mat = evaluate_word(pair, k, word)
                elem = Element.from_diagram(
                    MotzkinDiagram(tuple(range(k, 2 * k)) + tuple(range(k))),
                    pair.lam,
                )
                for token in word:
                    name = token.rstrip("'0123456789")
                    idx = int(token.rstrip("'")[len(name):])
                    g = diagram_generator(k, name, idx, lam=pair.lam)
                    if token.endswith("'"):
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


class TestSpanDimension:
    def test_width_two(self):
        for pair in PAIRS:
            dim, rounds = span_dimension(pair, 2)
            assert dim == motzkin_number(4) == 9
            assert rounds <= 8


class TestRepConditionalExpectation:
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
                Xp = generator_operator(pair, k + 1, "p", k + 1)
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
