"""Command-line interface and the expression language it evaluates.

Expressions combine generators at a fixed diagram width with rational
scalars, products, sums, adjoints ('), powers (^) and the width-lowering
expectation E(...); ``parse_expression``, ``evaluate`` and ``run_command``
are importable for programmatic use.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import MAX_EXPONENT, MAX_NESTING, TOL_CHECK, TOL_TOEPLITZ
from .diagram_core import (
    Element,
    adjoint,
    check_presentation,
    conditional_expectation,
    embed,
    enumerate_basis,
    generator,
    identity,
    motzkin_number,
)
from .errors import (
    LimitError,
    MotzkinError,
    ParameterError,
    ParseError,
    StructureError,
)
from .fock import (
    build_subproduct,
    coassociativity_residuals,
    cuntz_pimsner_residual,
    ideal_generator,
    matrix_unit_dimension,
    projection_rank,
    reverse_identity,
    subproduct_projection,
    toeplitz_residuals,
)
from .jones_wenzl import jones_wenzl, jw_report
from .qpoly import PhiFunction, dim_subproduct, validate_lam
from .representation import (
    MotzkinPair,
    build_example_pair,
    generator_operator,
    relation_residuals,
    rep_conditional_expectation,
    span_dimension,
    validate_pair,
)

# ---------------------------------------------------------------------------
# Expression language


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Gen:
    name: str
    index: int | None


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Adj:
    operand: object


@dataclass(frozen=True)
class Pow:
    operand: object
    exponent: int


@dataclass(frozen=True)
class Expect:
    operand: object


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z]+\d*)|(?P<op>[+\-*()'^])"
)
_GEN_RE = re.compile(r"(id|t|l|r|p|g)(\d*)\Z")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


def _number(text: str, offset: int) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text}", offset) from None
    except ValueError:  # more digits than int() converts
        raise ParseError(f"number of {len(text)} characters is too long", offset) from None


def _children(node) -> tuple:
    if isinstance(node, (Add, Sub, Mul)):
        return (node.left, node.right)
    if isinstance(node, (Neg, Adj, Pow, Expect)):
        return (node.operand,)
    return ()


def _check_depth(node, offset: int) -> None:
    # Iterative, because the recursive interpreters are what the bound protects.
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", offset)
        stack.extend((child, depth + 1) for child in _children(node))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, "", len(self.text))

    def _accept_op(self, *ops: str):
        kind, value, _ = self._peek()
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def _expect_op(self, op: str):
        kind, value, offset = self._peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.pos += 1

    def parse(self):
        node = self._expr()
        kind, value, offset = self._peek()
        if kind is not None:
            raise ParseError(f"unexpected {value!r}", offset)
        _check_depth(node, offset)
        return node

    def _expr(self):
        if self._accept_op("-"):
            node = Neg(self._term())
        else:
            node = self._term()
        while True:
            op = self._accept_op("+", "-")
            if op is None:
                return node
            rhs = self._term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)

    def _term(self):
        node = self._factor()
        while self._accept_op("*"):
            node = Mul(node, self._factor())
        return node

    def _factor(self):
        node = self._atom()
        while True:
            if self._accept_op("'"):
                node = Adj(node)
                continue
            if self._accept_op("^"):
                kind, value, offset = self._peek()
                if kind != "num" or "/" in value:
                    raise ParseError("expected an integer exponent", offset)
                self.pos += 1
                node = Pow(node, int(_number(value, offset)))
                continue
            return node

    def _group(self, offset: int):
        # The expression after an opening parenthesis at `offset`.
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING} levels", offset)
        node = self._expr()
        self._expect_op(")")
        self.depth -= 1
        return node

    def _atom(self):
        kind, value, offset = self._peek()
        if kind == "num":
            self.pos += 1
            return Num(_number(value, offset))
        if kind == "op" and value == "(":
            self.pos += 1
            return self._group(offset)
        if kind == "name":
            self.pos += 1
            if value == "E":
                paren = self._peek()[2]
                self._expect_op("(")
                return Expect(self._group(paren))
            m = _GEN_RE.match(value)
            if m is None:
                raise ParseError(f"unknown name {value!r}", offset)
            name, digits = m.groups()
            return Gen(name, int(digits) if digits else None)
        raise ParseError("expected a number, generator or parenthesis", offset)


def parse_expression(text: str, width: int | None = None):
    """Parse an expression into its syntax tree.

    When a width is supplied the tree is also elaborated against it: every
    generator index is range-checked at the width it will be evaluated at,
    with E(...) raising the width of its argument by one.
    """
    node = _Parser(text).parse()
    if width is not None:
        if width < 1:
            raise ParameterError(f"need width >= 1, got {width}")
        _check_widths(node, width)
    return node


def _check_widths(node, k: int) -> None:
    if isinstance(node, Gen):
        _check_gen(node, k)
    elif isinstance(node, (Neg, Adj, Pow)):
        _check_widths(node.operand, k)
    elif isinstance(node, (Add, Sub, Mul)):
        _check_widths(node.left, k)
        _check_widths(node.right, k)
    elif isinstance(node, Expect):
        _check_widths(node.operand, k + 1)


def _needs_parens_in_sum(node) -> bool:
    return isinstance(node, (Add, Sub, Neg))


def _needs_parens_in_product(node) -> bool:
    return isinstance(node, (Add, Sub, Neg))


def _postfix_operand(node) -> str:
    if isinstance(node, (Gen, Num, Expect, Adj, Pow)):
        return pretty(node)
    return f"({pretty(node)})"


def pretty(node) -> str:
    """Render a syntax tree back to canonical text."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Gen):
        suffix = "" if node.index is None else str(node.index)
        return node.name + suffix
    if isinstance(node, Neg):
        inner = pretty(node.operand)
        if _needs_parens_in_sum(node.operand):
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, (Add, Sub)):
        op = " + " if isinstance(node, Add) else " - "
        left = pretty(node.left)
        right = pretty(node.right)
        if _needs_parens_in_sum(node.right):
            right = f"({right})"
        return left + op + right
    if isinstance(node, Mul):
        left = pretty(node.left)
        if _needs_parens_in_product(node.left):
            left = f"({left})"
        right = pretty(node.right)
        if _needs_parens_in_product(node.right) or isinstance(node.right, Mul):
            right = f"({right})"
        return f"{left}*{right}"
    if isinstance(node, Adj):
        return _postfix_operand(node.operand) + "'"
    if isinstance(node, Pow):
        return f"{_postfix_operand(node.operand)}^{node.exponent}"
    if isinstance(node, Expect):
        return f"E({pretty(node.operand)})"
    raise ParameterError(f"not a syntax node: {node!r}")


def _check_gen(node: Gen, k: int) -> None:
    name, i = node.name, node.index
    if name == "id":
        if i is not None and i != k:
            raise ParameterError(f"id{i} inside an expression of width {k}")
    elif name == "g":
        if i is not None and not 1 <= i <= k:
            raise ParameterError(
                f"g{i} does not fit in width {k} (need 1 <= i <= {k})"
            )
    elif i is None:
        raise ParameterError(f"generator {name!r} needs an index, e.g. {name}1")
    else:
        hi = k if name == "p" else k - 1
        if not 1 <= i <= hi:
            raise ParameterError(
                f"{name}{i} does not fit in width {k} (need 1 <= i <= {hi})"
            )


def _eval_gen(node: Gen, k: int, lam) -> Element:
    _check_gen(node, k)
    name, i = node.name, node.index
    if name == "id":
        return identity(k, lam=lam)
    if name == "g":
        i = k if i is None else i
        return embed(jones_wenzl(i, lam), k - i)
    return generator(k, name, i, lam=lam)


def _exponent(node: Pow) -> int:
    if node.exponent > MAX_EXPONENT:
        raise ParameterError(
            f"exponent {node.exponent} exceeds the bound {MAX_EXPONENT}"
        )
    return node.exponent


def _eval(node, k: int, lam) -> Element:
    if isinstance(node, Num):
        return identity(k, lam=lam).scale(node.value)
    if isinstance(node, Gen):
        return _eval_gen(node, k, lam)
    if isinstance(node, Neg):
        return -_eval(node.operand, k, lam)
    if isinstance(node, Add):
        return _eval(node.left, k, lam) + _eval(node.right, k, lam)
    if isinstance(node, Sub):
        return _eval(node.left, k, lam) - _eval(node.right, k, lam)
    if isinstance(node, Mul):
        return _eval(node.left, k, lam) * _eval(node.right, k, lam)
    if isinstance(node, Adj):
        return adjoint(_eval(node.operand, k, lam))
    if isinstance(node, Pow):
        exponent = _exponent(node)
        out = identity(k, lam=lam)
        base = _eval(node.operand, k, lam)
        while exponent:
            if exponent & 1:
                out = out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return out
    if isinstance(node, Expect):
        return conditional_expectation(_eval(node.operand, k + 1, lam))
    raise ParameterError(f"not a syntax node: {node!r}")


def evaluate(expr, width: int, lam) -> Element:
    """Evaluate an expression (text or tree) to an element at the width.

    E(...) evaluates its argument one width higher and contracts back, so
    nested expectations reach correspondingly wider diagrams.
    """
    node = parse_expression(expr) if isinstance(expr, str) else expr
    if width < 1:
        raise ParameterError(f"need width >= 1, got {width}")
    return _eval(node, width, validate_lam(lam))


def _eval_operator(node, k: int, pair) -> np.ndarray:
    n = pair.n
    if isinstance(node, Num):
        return float(node.value) * np.eye(n**k, dtype=complex)
    if isinstance(node, Gen):
        _check_gen(node, k)
        if node.name == "g":
            i = k if node.index is None else node.index
            G = subproduct_projection(pair, i)
            return np.kron(G, np.eye(n ** (k - i), dtype=complex))
        return generator_operator(pair, k, node.name, node.index)
    if isinstance(node, Neg):
        return -_eval_operator(node.operand, k, pair)
    if isinstance(node, Add):
        return _eval_operator(node.left, k, pair) + _eval_operator(node.right, k, pair)
    if isinstance(node, Sub):
        return _eval_operator(node.left, k, pair) - _eval_operator(node.right, k, pair)
    if isinstance(node, Mul):
        return _eval_operator(node.left, k, pair) @ _eval_operator(node.right, k, pair)
    if isinstance(node, Adj):
        return _eval_operator(node.operand, k, pair).conj().T
    if isinstance(node, Pow):
        exponent = _exponent(node)
        return np.linalg.matrix_power(_eval_operator(node.operand, k, pair), exponent)
    if isinstance(node, Expect):
        return rep_conditional_expectation(
            pair, _eval_operator(node.operand, k + 1, pair)
        )
    raise ParameterError(f"not a syntax node: {node!r}")


def evaluate_operator(expr, width: int, pair: MotzkinPair) -> np.ndarray:
    """Evaluate an expression to a concrete operator on the tensor power.

    The same tree that ``evaluate`` reads off diagrammatically is run
    through the pair's representation instead: generator atoms become their
    matrices, g<i> the level-i projection padded on the right, and E(...)
    the operator-level expectation.  The scalar lam of the expression is
    the pair's lam.  A result with an infinite or undefined entry raises
    LimitError.
    """
    node = parse_expression(expr) if isinstance(expr, str) else expr
    if width < 1:
        raise ParameterError(f"need width >= 1, got {width}")
    with np.errstate(over="ignore", invalid="ignore"):
        mat = _eval_operator(node, width, pair)
    if not np.isfinite(mat).all():
        raise LimitError("operator entries leave the floating-point range")
    return mat


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


def _emit(args, payload, csv_lines=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        if csv_lines is None:
            raise ParameterError("this command has no csv form; use --format json")
        text = "\n".join(csv_lines) + "\n"
    else:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_report(args, report, **extra) -> int:
    """Emit a report's fields, the extras and ``ok``; return the exit code.

    The field ``lam`` (or an extra ``lam``) is written as ``"lambda"``.
    """
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    payload.update(extra)
    if "lam" in payload:
        payload["lambda"] = payload.pop("lam")
    payload["ok"] = report.ok
    _emit(args, payload)
    return 0 if report.ok else 1


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
# Subcommand implementations (each returns the process exit code)


def _cmd_dims(args) -> int:
    dims = [dim_subproduct(args.n, k) for k in range(args.kmax + 1)]
    _emit(args, {"n": args.n, "dims": dims}, [",".join(map(str, dims))])
    return 0


def _cmd_basis(args) -> int:
    diagrams = enumerate_basis(args.k)
    payload = {
        "width": args.k,
        "count": len(diagrams),
        "pairings": [list(d.pairing) for d in diagrams],
    }
    csv_lines = [",".join(map(str, d.pairing)) for d in diagrams]
    _emit(args, payload, csv_lines)
    return 0


def _cmd_presentation(args) -> int:
    return _emit_report(args, check_presentation(args.k, args.lam))


def _cmd_jw(args) -> int:
    report = jw_report(args.k, args.lam)
    return _emit_report(args, report, terms=len(jones_wenzl(args.k, args.lam).terms))


def _cmd_pair_validate(args) -> int:
    pair = _load_pair(args)
    report = validate_pair(pair, tol=args.tol)
    return _emit_report(args, report, n=pair.n, lam=pair.lam)


def _cmd_pair_make(args) -> int:
    r = 0 if args.family == "i" else args.r
    pair = build_example_pair(args.family, args.n, r, args.lam)
    _emit(args, pair.to_json_dict())
    return 0


def _cmd_rep_check(args) -> int:
    pair = _load_pair(args)
    residuals = relation_residuals(pair, args.k)
    worst_label = max(residuals, key=residuals.get)
    worst = residuals[worst_label]
    ok = worst < args.tol
    _emit(
        args,
        {
            "n": pair.n,
            "width": args.k,
            "checked": len(residuals),
            "max_residual": worst,
            "worst": worst_label,
            "tol": args.tol,
            "ok": ok,
        },
    )
    return 0 if ok else 1


def _cmd_rep_faithful(args) -> int:
    pair = _load_pair(args)
    dim, rounds = span_dimension(pair, args.k)
    expected = motzkin_number(2 * args.k)
    ok = dim == expected
    _emit(
        args,
        {
            "n": pair.n,
            "width": args.k,
            "span_dimension": dim,
            "expected": expected,
            "rounds": rounds,
            "ok": ok,
        },
    )
    return 0 if ok else 1


def _cmd_fock_build(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, args.levels)
    ranks = []
    ok = True
    for k in range(args.levels + 1):
        try:
            rank, gap = projection_rank(system, k)
        except StructureError:
            ok = False
            break
        ranks.append({"level": k, "rank": rank, "gap": gap})
        ok = ok and rank == system.dims[k]
    coassoc = coassociativity_residuals(system)
    worst_co = max(coassoc.values(), default=0.0)
    ok = ok and worst_co < TOL_CHECK and len(ranks) == args.levels + 1
    payload = {
        "n": pair.n,
        "lambda": pair.lam,
        "levels": args.levels,
        "dims": system.dims,
        "total_dimension": system.total_dimension,
        "idempotent_residuals": system.idempotent_residuals,
        "rounding_magnitudes": system.rounding_magnitudes,
        "ranks": ranks,
        "coassociativity": coassoc,
        "ok": ok,
    }
    _emit(args, payload)
    return 0 if ok else 1


def _cmd_fock_toeplitz(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, args.levels)
    report = toeplitz_residuals(system, tol=args.tol)
    return _emit_report(
        args, report, n=pair.n, lam=pair.lam, max_residual=report.max_residual
    )


def _cmd_fock_matrix_units(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, args.levels)
    rows = []
    ok = True
    for k in range(min(args.kmax, args.levels) + 1):
        rep = matrix_unit_dimension(system, k)
        rank_g, _ = projection_rank(system, k)
        rows.append(
            {
                "k": k,
                "space_dim": rep.space_dim,
                "rank": rank_g,
                "expected": rep.expected,
                "measured": rep.measured,
            }
        )
        ok = ok and rep.ok and rank_g == rep.space_dim
    csv_lines = ["k,space_dim,rank,expected,measured"]
    csv_lines += [
        f"{r['k']},{r['space_dim']},{r['rank']},{r['expected']},{r['measured']}"
        for r in rows
    ]
    _emit(args, {"n": pair.n, "rows": rows, "ok": ok}, csv_lines)
    return 0 if ok else 1


def _cmd_fock_reverse(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, max(args.k, 1))
    report = reverse_identity(system, args.k, tol=args.tol)
    return _emit_report(args, report, n=pair.n, lam=pair.lam)


def _cmd_fock_ideal(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, 2)
    report = ideal_generator(system, tol=args.tol)
    return _emit_report(args, report, n=pair.n, lam=pair.lam)


def _cmd_fock_cp(args) -> int:
    pair = _load_pair(args)
    system = build_subproduct(pair, args.levels)
    rows = []
    for m in range(1, args.mmax + 1):
        rep = cuntz_pimsner_residual(system, m)
        rows.append(
            {
                "m": m,
                "residual": rep.residual,
                "defect": rep.defect,
                "ratio": rep.ratio,
            }
        )
    residuals = [r["residual"] for r in rows]
    ok = all(x > y for x, y in zip(residuals, residuals[1:]))
    _emit(args, {"n": pair.n, "lambda": pair.lam, "rows": rows, "ok": ok})
    return 0 if ok else 1


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
        _emit(args, payload)
        return 0
    element = evaluate(node, args.k, args.lam)
    payload = element.to_json_dict()
    payload["is_zero"] = element.is_zero()
    payload["pretty"] = pretty(node)
    csv_lines = [
        "{},{}".format(t["coeff"], ",".join(map(str, t["pairing"])))
        for t in payload["terms"]
    ]
    _emit(args, payload, csv_lines)
    return 0


def _cmd_check_all(args) -> int:
    lam4 = Fraction(1, 4)
    lam3 = Fraction(1, 3)
    pair4 = build_example_pair("iii", 4, 1, lam4)
    pair3 = build_example_pair("i", 3, 0, lam3)
    checks: list[tuple[str, bool, str]] = []

    counts = [len(enumerate_basis(k)) for k in range(1, 5)]
    checks.append(
        (
            "basis counts",
            counts == [motzkin_number(2 * k) for k in range(1, 5)],
            str(counts),
        )
    )

    for lam in (lam3, lam4):
        for k in (2, 3, 4):
            rep = check_presentation(k, lam)
            checks.append(
                (
                    f"presentation k={k} lambda={lam}",
                    rep.ok,
                    f"{rep.checked} relations",
                )
            )

    phi = PhiFunction(lam3)
    checks.append(
        (
            "phi closed form",
            all(phi(m) == Fraction(3 * m, m + 1) for m in range(1, 21)),
            "3m/(m+1) at the boundary parameter",
        )
    )

    for lam in (lam3, lam4):
        for k in (2, 3, 4):
            rep = jw_report(k, lam)
            checks.append((f"jw k={k} lambda={lam}", rep.ok, "exact"))

    for pair in (pair4, pair3):
        rep = validate_pair(pair)
        checks.append((f"pair n={pair.n}", rep.ok, f"tol {rep.tol}"))
        for k in (2, 3):
            residuals = relation_residuals(pair, k)
            worst = max(residuals.values())
            checks.append(
                (
                    f"relations n={pair.n} k={k}",
                    worst < TOL_CHECK,
                    f"max residual {worst:.2e}",
                )
            )
        dim, rounds = span_dimension(pair, 2)
        checks.append(
            (
                f"span n={pair.n} k=2",
                dim == 9 and rounds <= 8,
                f"dim {dim} in {rounds} rounds",
            )
        )

    for pair in (pair4, pair3):
        system = build_subproduct(pair, 6)
        ranks_ok = all(
            projection_rank(system, k)[0] == system.dims[k]
            for k in range(min(5, system.levels) + 1)
        )
        checks.append(
            (f"subproduct ranks n={pair.n}", ranks_ok, str(system.dims[:6]))
        )
        co = max(coassociativity_residuals(system).values())
        checks.append(
            (f"coassociativity n={pair.n}", co < TOL_CHECK, f"max {co:.2e}")
        )
        rep = toeplitz_residuals(system)
        checks.append(
            (
                f"toeplitz n={pair.n}",
                rep.ok,
                f"max residual {rep.max_residual:.2e}",
            )
        )
        mu_ok = all(
            matrix_unit_dimension(system, k).ok for k in range(4)
        )
        checks.append((f"matrix units n={pair.n}", mu_ok, "k <= 3"))
        rev_ok = all(reverse_identity(system, k).ok for k in (2, 3, 4))
        checks.append((f"reverse identity n={pair.n}", rev_ok, "k = 2..4"))
        ide = ideal_generator(system)
        checks.append(
            (f"ideal generator n={pair.n}", ide.ok, f"norm {ide.norm:.6f}")
        )
        cps = [cuntz_pimsner_residual(system, m).residual for m in range(1, 5)]
        checks.append(
            (
                f"limit relations n={pair.n}",
                all(x > y for x, y in zip(cps, cps[1:])),
                "residuals decrease in the level",
            )
        )

    expr = "t1*t1 - t1"
    checks.append(
        (
            "expression round trip",
            pretty(parse_expression(expr)) == expr
            and evaluate(expr, 2, lam4).is_zero(),
            expr,
        )
    )
    rep_norm = float(np.linalg.norm(evaluate_operator("r1*l1 - p1", 2, pair4)))
    checks.append(
        (
            "expression through operators",
            rep_norm < TOL_CHECK,
            f"norm {rep_norm:.2e}",
        )
    )

    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}")
    print(
        f"{len(checks) - failures}/{len(checks)} checks passed"
        if failures
        else f"all {len(checks)} checks passed"
    )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


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
    q.add_argument("--tol", type=float, default=TOL_CHECK)
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
    q.add_argument("--tol", type=float, default=TOL_CHECK)
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
    q.add_argument("--tol", type=float, default=TOL_TOEPLITZ)
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
    q.add_argument("--tol", type=float, default=TOL_CHECK)
    _add_output_args(q)
    q.set_defaults(func=_cmd_fock_reverse)

    q = fock_sub.add_parser("ideal", help="the degree-two ideal generator")
    _add_pair_args(q)
    q.add_argument("--tol", type=float, default=TOL_CHECK)
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
