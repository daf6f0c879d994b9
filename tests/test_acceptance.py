"""Acceptance battery: one test per headline guarantee of the package.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
the verbose test listing) and asserts the guarantee at its stated
tolerance and time budget.
"""

import time
from fractions import Fraction
from functools import lru_cache

from motzkin.cli import run_command
from motzkin.diagram_core import enumerate_basis
from motzkin.expression import (
    check_presentation,
    evaluate,
    parse_expression,
    pretty,
    relation_residuals,
)
from motzkin.fock import (
    build_subproduct,
    cuntz_pimsner_residual,
    ideal_generator,
    matrix_unit_dimension,
    projection_rank,
    reverse_identity,
    toeplitz_residuals,
)
from motzkin.jones_wenzl import jw_report
from motzkin.qpoly import PhiFunction, chebyshev_P, chebyshev_Q
from motzkin.representation import build_example_pair, span_dimension

QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


@lru_cache(maxsize=None)
def _pair(n):
    if n == 4:
        return build_example_pair("iii", 4, 1, QUARTER)
    return build_example_pair("i", 3, 0, THIRD)


@lru_cache(maxsize=None)
def _system(n, levels):
    return build_subproduct(_pair(n), levels)


def test_criterion_01_basis_counts():
    t0 = time.perf_counter()
    counts = [len(enumerate_basis(k)) for k in range(1, 6)]
    elapsed = time.perf_counter() - t0
    ok = counts == [2, 9, 51, 323, 2188] and elapsed < 10.0
    _report(1, ok, f"diagram counts k=1..5 are {counts} in {elapsed:.1f}s")


def test_criterion_02_presentation_exact():
    t0 = time.perf_counter()
    results = []
    for lam in (THIRD, QUARTER):
        for k in (2, 3, 4):
            rep = check_presentation(k, lam)
            results.append(rep.ok)
    elapsed = time.perf_counter() - t0
    ok = all(results) and elapsed < 30.0
    _report(
        2, ok, f"all defining relations hold exactly, k<=4, both parameters "
        f"({elapsed:.1f}s)"
    )


def test_criterion_03_tower_idempotents():
    flags = []
    for k in range(1, 6):
        rep = jw_report(k, QUARTER)
        flags.append(
            rep.idempotent
            and rep.self_adjoint
            and rep.annihilation
            and rep.expectation_ok
            and rep.symmetric_recursion
        )
    ok = all(flags)
    _report(3, ok, "idempotent tower verified exactly up to width 5")


def test_criterion_04_projection_ranks():
    results = []
    for n, expected in ((3, [1, 2, 3, 4, 5]), (4, [1, 3, 8, 21, 55])):
        system = _system(n, 5)
        for k, want in enumerate(expected):
            rank, gap = projection_rank(system, k)
            results.append(rank == want and gap >= 1e3)
    ok = all(results)
    _report(4, ok, "level projections have the predicted ranks with gap >= 1e3")


def test_criterion_05_representation_relations():
    worst = 0.0
    for n in (3, 4):
        res = relation_residuals(_pair(n), 3)
        worst = max(worst, max(res.values()))
    ok = worst < 1e-10
    _report(5, ok, f"operator relation residuals at width 3: max {worst:.2e}")


def test_criterion_06_span_dimensions():
    results = []
    for n in (3, 4):
        pair = _pair(n)
        for k, want in ((2, 9), (3, 51)):
            dim, rounds = span_dimension(pair, k)
            results.append(dim == want and rounds <= 8)
    ok = all(results)
    _report(6, ok, "generated-algebra dimensions are 9 (k=2) and 51 (k=3)")


def test_criterion_07_toeplitz_relations():
    oks, worst = [], 0.0
    for n in (3, 4):
        system = _system(n, 5)
        rep = toeplitz_residuals(system, tol=1e-9)
        oks.append(rep.ok)
        oks.append(all(f"eq2[m={m}]" in rep.residuals for m in range(1, 5)))
        worst = max(worst, rep.max_residual)
        ide = ideal_generator(system, tol=1e-10)
        oks.append(ide.annihilation < 1e-10)
    ok = all(oks)
    _report(
        7, ok, f"Toeplitz relations on 5 levels: max residual {worst:.2e}, "
        "quadratic generator annihilated"
    )


def test_criterion_08_matrix_units():
    system = _system(4, 3)
    measured = [matrix_unit_dimension(system, k).measured for k in range(4)]
    ok = measured == [1, 9, 64, 441]
    _report(8, ok, f"vacuum-word matrix-unit dimensions {measured}")


def test_criterion_09_phi_identities():
    oks = []
    phi3 = PhiFunction(THIRD)
    oks.append(all(phi3(m) == Fraction(3 * m, m + 1) for m in range(1, 31)))
    phi4 = PhiFunction(QUARTER)
    oks.append(abs(float(phi4(30)) - phi4.infinity) < 1e-3)
    oks.append(abs(float(QUARTER) * phi4.infinity - phi4.q) < 1e-12)
    for lam in (THIRD, QUARTER, Fraction(1, 5)):
        phi = PhiFunction(lam)
        y = 1 / lam - 1
        x = 1 / y**2
        # both ratio forms of the same rational function, compared exactly
        oks.append(
            all(
                phi(m)
                == (1 / lam) * chebyshev_P(m - 1, x) / (y * chebyshev_P(m, x))
                for m in range(1, 21)
            )
        )
        oks.append(
            all(chebyshev_Q(m, y) == y**m * chebyshev_P(m, x) for m in range(21))
        )
    ok = all(oks)
    _report(9, ok, "ratio-function identities hold (exact and limiting)")


def test_criterion_10_reverse_identity():
    oks = []
    for n in (3, 4):
        system = _system(n, 5)
        for k in (2, 3, 4):
            rep = reverse_identity(system, k, tol=1e-10)
            oks.append(rep.ok and rep.closed_form_error < 1e-10)
    oks.append(reverse_identity(_system(3, 5), 2).constant == Fraction(1, 2))
    ok = all(oks)
    _report(
        10,
        ok,
        "reverse-weighted identity and its q-form constant, exactly 1/2 "
        "at the boundary",
    )


def test_criterion_11_limit_relation_asymptotics():
    sys4 = _system(4, 6)
    residuals = [cuntz_pimsner_residual(sys4, m).residual for m in range(1, 5)]
    decreasing = all(x > y for x, y in zip(residuals, residuals[1:]))
    sys3 = _system(3, 6)
    bounded = True
    for m in range(1, 5):
        rep = cuntz_pimsner_residual(sys3, m)
        bounded = bounded and abs(rep.defect - 3.0 / (m + 1)) < 1e-12
        bounded = bounded and rep.ratio < 1.0
    ok = decreasing and bounded
    _report(
        11, ok, "limiting-relation residuals decrease with the level and track "
        "the coefficient defect"
    )


def test_criterion_12_cli(capsys):
    corpus = [
        "t1*t1 - t1",
        "E(t1) + p1",
        "(t1 + t2)*l1",
        "g2*p1",
        "1/2*t1 + 1/3*t2",
        "l1*l1' - p2",
        "-t1 + t2",
        "E(E(id))",
        "t1'^2",
        "id - g2",
    ]
    round_trip = all(pretty(parse_expression(s)) == s for s in corpus)
    zero = evaluate("t1*t1 - t1", 2, QUARTER).is_zero()
    eval_code = run_command(["eval", "t1*t1 - t1", "--k", "2"])
    t0 = time.perf_counter()
    battery_code = run_command(["check-all"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    ok = round_trip and zero and eval_code == 0 and battery_code == 0 and elapsed < 300
    _report(
        12, ok, f"expression round-trip, eval exit 0, full battery in {elapsed:.1f}s"
    )
