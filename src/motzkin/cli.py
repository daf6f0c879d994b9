"""Command-line interface.

``run_command`` runs one command line and returns its exit code; the
expressions of ``motzkin eval`` are read by ``motzkin.expression``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import TOL_CHECK, TOL_TOEPLITZ
from .diagram_core import enumerate_basis, motzkin_number
from .errors import (
    LimitError,
    MotzkinError,
    ParameterError,
    ParseError,
    StructureError,
)
from .expression import (
    check_presentation,
    evaluate,
    evaluate_operator,
    local_residuals,
    parse_expression,
    pretty,
    relation_count,
    relation_residuals,
)
from .fock import (
    MatrixUnitReport,
    SubproductSystem,
    build_subproduct,
    coassociativity_residuals,
    cuntz_pimsner_residual,
    ideal_generator,
    matrix_unit_dimension,
    projection_rank,
    reverse_identity,
    toeplitz_residuals,
)
from .jones_wenzl import jw_report
from .qpoly import PhiFunction, dim_sequence
from .representation import (
    MotzkinPair,
    build_example_pair,
    span_dimension,
    validate_pair,
)

# ---------------------------------------------------------------------------
# Output helpers


def _round_float(x: float):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        return repr(x)
    return float(format(x, ".12e"))


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round_float(obj.real), _round_float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args, payload, lines=None) -> int:
    """Write the payload as json, or its text lines for --format csv and for
    check-all, which has no --format; return the exit code, 1 exactly when
    the payload carries "ok": false."""
    if getattr(args, "format", None) == "json":
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    elif lines is None:
        raise ParameterError("this command has no csv form; use --format json")
    else:
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if payload.get("ok", True) else 1


def _report_payload(report, **extra) -> dict:
    """A report's fields, the extras and ``ok``.

    The field ``lam`` (or an extra ``lam``) is written as ``"lambda"``.
    """
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    payload.update(extra)
    if "lam" in payload:
        payload["lambda"] = payload.pop("lam")
    payload["ok"] = report.ok
    return payload


def _load_pair(args) -> MotzkinPair:
    infile = getattr(args, "infile", None)
    if infile:
        try:
            with open(infile) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read {infile}: {exc.strerror}") from None
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"{infile} is not valid json: {exc}") from None
        return MotzkinPair.from_json_dict(data)
    r = 0 if args.family == "i" else args.r
    return build_example_pair(args.family, args.n, r, args.lam)


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns the exit code `_emit` sets)


def _cmd_dims(args) -> int:
    # Python converts ints of at most this many digits to text (0: any, as
    # before 3.10.7, which has no such limit).
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = 10**digits
    dims = []
    for k, d in enumerate(dim_sequence(args.n, args.kmax)):
        if digits and d >= top:
            raise LimitError(f"d_{k} has more than {digits} digits, too long to print")
        dims.append(d)
    # Converting thousands of digits to text is slow: build only the form asked for.
    csv_lines = [",".join(map(str, dims))] if args.format == "csv" else None
    return _emit(args, {"n": args.n, "dims": dims}, csv_lines)


def _cmd_basis(args) -> int:
    diagrams = enumerate_basis(args.k)
    payload = {
        "width": args.k,
        "count": len(diagrams),
        "pairings": [list(d.pairing) for d in diagrams],
    }
    csv_lines = [",".join(map(str, d.pairing)) for d in diagrams] if args.format == "csv" else None
    return _emit(args, payload, csv_lines)


def _cmd_presentation(args) -> int:
    return _emit(args, _report_payload(check_presentation(args.k, args.lam)))


def _cmd_jw(args) -> int:
    return _emit(args, _report_payload(jw_report(args.k, args.lam)))


def _cmd_pair_validate(args) -> int:
    pair = _load_pair(args)
    report = validate_pair(pair, tol=args.tol)
    return _emit(args, _report_payload(report, n=pair.n, lam=pair.lam))


def _cmd_pair_make(args) -> int:
    return _emit(args, _load_pair(args).to_json_dict())


def _cmd_rep_check(args) -> int:
    # Each local relation of width min(k, 4) is held to --tol.
    pair = _load_pair(args)
    local = local_residuals(pair, args.k, min(args.k, 4))
    worst_label = max(local, key=lambda label: local[label][1])
    top_local = max(norm for norm, _ in local.values())
    return _emit(
        args,
        {
            "n": pair.n,
            "width": args.k,
            "checked": relation_count(args.k),
            "max_residual": local[worst_label][1],
            "worst": worst_label,
            "max_local_residual": top_local,
            "tol": args.tol,
            "ok": top_local < args.tol,
        },
    )


def _faithful_payload(pair: MotzkinPair, k: int) -> dict:
    """The span dimension at width k, held to M_{2k}."""
    dim, rounds = span_dimension(pair, k)
    expected = motzkin_number(2 * k)
    return {
        "n": pair.n,
        "width": k,
        "span_dimension": dim,
        "expected": expected,
        "rounds": rounds,
        "ok": dim == expected,
    }


def _cmd_rep_faithful(args) -> int:
    return _emit(args, _faithful_payload(_load_pair(args), args.k))


def _fock_build_payload(system: SubproductSystem) -> dict:
    """The built levels with their ranks; coassociativity is the verdict."""
    ranks = []
    for k in range(system.levels + 1):
        rank, gap = projection_rank(system, k)
        ranks.append({"level": k, "rank": rank, "gap": gap})
    coassoc = coassociativity_residuals(system)
    return {
        "n": system.pair.n,
        "lambda": system.pair.lam,
        "levels": system.levels,
        "dims": system.dims,
        "total_dimension": system.total_dimension,
        "idempotent_residuals": system.idempotent_residuals,
        "rounding_magnitudes": system.rounding_magnitudes,
        "charge_block_sizes": system.charge_block_sizes,
        "ranks": ranks,
        "coassociativity": coassoc,
        "ok": max(coassoc.values(), default=0.0) < TOL_CHECK,
    }


def _cmd_fock_build(args) -> int:
    return _emit(args, _fock_build_payload(build_subproduct(_load_pair(args), args.levels)))


def _cmd_fock_toeplitz(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, args.levels)
    report = toeplitz_residuals(system, tol=args.tol)
    return _emit(
        args, _report_payload(report, n=pair.n, lam=pair.lam, max_residual=report.max_residual)
    )


def _matrix_units_payload(system: SubproductSystem, kmax: int) -> dict:
    """One row of `MatrixUnitReport` fields per level k <= kmax; ok when
    every level spans its full matrix algebra."""
    reports = [matrix_unit_dimension(system, k) for k in range(min(kmax, system.levels) + 1)]
    return {
        "n": system.pair.n,
        "rows": [asdict(rep) for rep in reports],
        "ok": all(rep.ok for rep in reports),
    }


def _cmd_fock_matrix_units(args) -> int:
    if args.kmax < 0:
        raise ParameterError(f"need kmax >= 0, got {args.kmax}")
    payload = _matrix_units_payload(build_subproduct(_load_pair(args), args.levels), args.kmax)
    csv_lines = [",".join(f.name for f in fields(MatrixUnitReport))]
    csv_lines += [",".join(map(str, row.values())) for row in payload["rows"]]
    return _emit(args, payload, csv_lines)


def _cmd_fock_reverse(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, max(args.k, 1))
    report = reverse_identity(system, args.k, tol=args.tol)
    return _emit(args, _report_payload(report, n=pair.n, lam=pair.lam))


def _cmd_fock_ideal(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, 2)
    report = ideal_generator(system, tol=args.tol)
    return _emit(args, _report_payload(report, n=pair.n, lam=pair.lam))


def _cp_payload(system: SubproductSystem, mmax: int) -> dict:
    """The limiting-relation residuals at levels 1..mmax; ok when they
    decrease in the level."""
    reports = [cuntz_pimsner_residual(system, m) for m in range(1, mmax + 1)]
    rows = [
        {
            "m": rep.level,
            "residual": rep.residual,
            "defect": rep.defect,
            "ratio": rep.ratio,
        }
        for rep in reports
    ]
    return {
        "n": system.pair.n,
        "lambda": system.pair.lam,
        "rows": rows,
        "ok": all(x.residual > y.residual for x, y in zip(reports, reports[1:])),
    }


def _cmd_fock_cp(args) -> int:
    if args.mmax < 2:
        raise ParameterError(f"need mmax >= 2 to compare levels, got {args.mmax}")
    return _emit(args, _cp_payload(build_subproduct(_load_pair(args), args.levels), args.mmax))


def _cmd_eval(args) -> int:
    node = parse_expression(args.expression, args.k)
    if args.rep:
        pair = _load_pair(args)
        mat = evaluate_operator(node, args.k, pair)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(mat))
        if not np.isfinite(norm):
            raise LimitError("the norm of the result overflows")
        payload = {
            "n": pair.n,
            "lambda": pair.lam,
            "width": args.k,
            "shape": list(mat.shape),
            "norm": norm,
            "is_zero": norm < TOL_CHECK,
            "pretty": pretty(node),
        }
        return _emit(args, payload)
    element = evaluate(node, args.k, args.lam)
    payload = element.to_json_dict()
    payload["is_zero"] = element.is_zero()
    payload["pretty"] = pretty(node)
    csv_lines = [
        "{},{}".format(t["coeff"], ",".join(map(str, t["pairing"])))
        for t in payload["terms"]
    ]
    return _emit(args, payload, csv_lines)


def _cmd_check_all(args) -> int:
    lam4 = Fraction(1, 4)
    lam3 = Fraction(1, 3)
    pair4 = build_example_pair("iii", 4, 1, lam4)
    pair3 = build_example_pair("i", 3, 0, lam3)
    checks: list[tuple[str, bool, str]] = []

    def check(name, compute) -> None:
        """Run one check, compute() -> (ok, detail); a MotzkinError fails
        it with the error text and the battery goes on."""
        try:
            ok, detail = compute()
        except MotzkinError as exc:
            ok, detail = False, str(exc)
        checks.append((name, ok, detail))

    def basis_counts():
        counts = [len(enumerate_basis(k)) for k in range(1, 5)]
        return counts == [motzkin_number(2 * k) for k in range(1, 5)], str(counts)

    check("basis counts", basis_counts)

    for lam in (lam3, lam4):
        for k in (2, 3, 4):
            check(
                f"presentation k={k} lambda={lam}",
                lambda: ((rep := check_presentation(k, lam)).ok, f"{rep.checked} relations"),
            )

    phi = PhiFunction(lam3)
    check(
        "phi closed form",
        lambda: (
            all(phi(m) == Fraction(3 * m, m + 1) for m in range(1, 21)),
            "3m/(m+1) at the boundary parameter",
        ),
    )

    for lam in (lam3, lam4):
        for k in (2, 3, 4):
            check(f"jw k={k} lambda={lam}", lambda: (jw_report(k, lam).ok, "exact"))

    for pair in (pair4, pair3):
        check(
            f"pair n={pair.n}",
            lambda: ((rep := validate_pair(pair)).ok, f"tol {rep.tol}"),
        )
        for k in (2, 3):
            check(
                f"relations n={pair.n} k={k}",
                lambda: (
                    (worst := max(relation_residuals(pair, k).values())) < TOL_CHECK,
                    f"max residual {worst:.2e}",
                ),
            )
        check(
            f"span n={pair.n} k=2",
            lambda: (
                (span := _faithful_payload(pair, 2))["ok"] and span["rounds"] <= 8,
                f"dim {span['span_dimension']} in {span['rounds']} rounds",
            ),
        )

    for pair in (pair4, pair3):
        built = []

        def system():
            """The pair's levels 0..6, built on first use; a failed build
            fails every check that reads it."""
            if not built:
                built.append(build_subproduct(pair, 6))
            return built[0]

        check(
            f"coassociativity n={pair.n}",
            lambda: (
                (levels := _fock_build_payload(system()))["ok"],
                f"max {max(levels['coassociativity'].values()):.2e}",
            ),
        )
        check(
            f"toeplitz n={pair.n}",
            lambda: (
                (rep := toeplitz_residuals(system())).ok,
                f"max residual {rep.max_residual:.2e}",
            ),
        )
        check(
            f"matrix units n={pair.n}",
            lambda: (_matrix_units_payload(system(), 3)["ok"], "k <= 3"),
        )
        check(
            f"reverse identity n={pair.n}",
            lambda: (
                all(reverse_identity(system(), k).ok for k in (2, 3, 4)),
                "k = 2..4",
            ),
        )
        check(
            f"ideal generator n={pair.n}",
            lambda: ((ide := ideal_generator(system())).ok, f"norm {ide.norm:.6f}"),
        )
        check(
            f"limit relations n={pair.n}",
            lambda: (_cp_payload(system(), 4)["ok"], "residuals decrease in the level"),
        )

    expr = "t1*t1 - t1"
    check(
        "expression round trip",
        lambda: (
            pretty(parse_expression(expr)) == expr and evaluate(expr, 2, lam4).is_zero(),
            expr,
        ),
    )
    check(
        "expression through operators",
        lambda: (
            (rep_norm := float(np.linalg.norm(evaluate_operator("r1*l1 - p1", 2, pair4))))
            < TOL_CHECK,
            f"norm {rep_norm:.2e}",
        ),
    )

    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks]
    passed = sum(ok for _, ok, _ in checks)
    lines.append(
        f"{passed}/{len(checks)} checks passed"
        if passed < len(checks)
        else f"all {len(checks)} checks passed"
    )
    return _emit(args, {"ok": passed == len(checks)}, lines)


# ---------------------------------------------------------------------------
# Argument parsing


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"not a finite positive number: {text!r}")
    return value


def _add_output_args(sub, default_format="json"):
    sub.add_argument("--format", choices=("json", "csv"), default=default_format)
    sub.add_argument("--out", default=None, help="write output to this file")


def _add_lambda_arg(sub):
    sub.add_argument(
        "--lambda", dest="lam", type=_fraction_arg, default=Fraction(1, 4),
        metavar="P/Q",
    )


def _add_pair_args(sub):
    sub.add_argument("--family", choices=("i", "ii", "iii"), default="iii")
    sub.add_argument("--n", type=int, default=4)
    sub.add_argument("--r", type=int, default=1)
    _add_lambda_arg(sub)
    sub.add_argument(
        "--in",
        dest="infile",
        default=None,
        help="read the pair from this json file instead",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkin",
        description="Exact and numeric computations around the Motzkin "
        "planar algebra and its operator realizations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension sequence of the subproduct levels")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=6)
    _add_output_args(p, default_format="csv")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("basis", help="list the diagram basis at a width")
    p.add_argument("--k", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("presentation", help="verify the defining relations exactly")
    p.add_argument("--k", type=int, required=True)
    _add_lambda_arg(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_presentation)

    p = sub.add_parser("jw", help="build and verify a tower idempotent")
    p.add_argument("--k", type=int, required=True)
    _add_lambda_arg(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_jw)

    p = sub.add_parser("pair", help="work with Motzkin pairs")
    pair_sub = p.add_subparsers(dest="pair_command", required=True)
    q = pair_sub.add_parser("validate", help="residuals of the pair conditions")
    _add_pair_args(q)
    q.add_argument("--tol", type=_tol_arg, default=TOL_CHECK)
    _add_output_args(q)
    q.set_defaults(func=_cmd_pair_validate)
    q = pair_sub.add_parser("make", help="construct a standard pair as json")
    _add_pair_args(q)
    _add_output_args(q)
    q.set_defaults(func=_cmd_pair_make)

    p = sub.add_parser("rep", help="operator representation checks")
    rep_sub = p.add_subparsers(dest="rep_command", required=True)
    q = rep_sub.add_parser("check", help="relation residuals in the representation")
    _add_pair_args(q)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--tol", type=_tol_arg, default=TOL_CHECK)
    _add_output_args(q)
    q.set_defaults(func=_cmd_rep_check)
    q = rep_sub.add_parser(
        "faithful", help="dimension of the algebra generated at a width"
    )
    _add_pair_args(q)
    q.add_argument("--k", type=int, default=2)
    _add_output_args(q)
    q.set_defaults(func=_cmd_rep_faithful)

    p = sub.add_parser("fock", help="subproduct system and Toeplitz operators")
    fock_sub = p.add_subparsers(dest="fock_command", required=True)

    q = fock_sub.add_parser("build", help="construct the levels and report ranks")
    _add_pair_args(q)
    q.add_argument("--levels", type=int, default=5)
    _add_output_args(q)
    q.set_defaults(func=_cmd_fock_build)

    q = fock_sub.add_parser("toeplitz", help="residuals of the operator relations")
    _add_pair_args(q)
    q.add_argument("--levels", type=int, default=5)
    q.add_argument("--tol", type=_tol_arg, default=TOL_TOEPLITZ)
    _add_output_args(q)
    q.set_defaults(func=_cmd_fock_toeplitz)

    q = fock_sub.add_parser(
        "matrix-units", help="span dimensions of vacuum-word outer products"
    )
    _add_pair_args(q)
    q.add_argument("--levels", type=int, default=4)
    q.add_argument("--kmax", type=int, default=3)
    _add_output_args(q, default_format="csv")
    q.set_defaults(func=_cmd_fock_matrix_units)

    q = fock_sub.add_parser("reverse", help="the reverse-weighted identity")
    _add_pair_args(q)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--tol", type=_tol_arg, default=TOL_CHECK)
    _add_output_args(q)
    q.set_defaults(func=_cmd_fock_reverse)

    q = fock_sub.add_parser("ideal", help="the degree-two ideal generator")
    _add_pair_args(q)
    q.add_argument("--tol", type=_tol_arg, default=TOL_CHECK)
    _add_output_args(q)
    q.set_defaults(func=_cmd_fock_ideal)

    q = fock_sub.add_parser(
        "cp-asymptotics", help="residuals of the limiting relations by level"
    )
    _add_pair_args(q)
    q.add_argument("--levels", type=int, default=6)
    q.add_argument("--mmax", type=int, default=4)
    _add_output_args(q)
    q.set_defaults(func=_cmd_fock_cp)

    p = sub.add_parser("eval", help="evaluate a diagram-algebra expression")
    p.add_argument("expression")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--rep",
        action="store_true",
        help="evaluate through a pair's operators instead of diagrams",
    )
    _add_pair_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-all", help="run the whole verification battery")
    p.set_defaults(func=_cmd_check_all)

    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"structure check failed: {exc}", file=sys.stderr)
        return 1
    except MotzkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
