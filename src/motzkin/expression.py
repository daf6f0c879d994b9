"""The expression language and its two interpreters.

Expressions combine generators at a fixed diagram width with rational
scalars, products, sums, adjoints ('), powers (^) and the width-lowering
expectation E(...).  ``evaluate`` reads a syntax tree into an exact
``Element`` and ``evaluate_operator`` into an operator on the tensor power
of C^n.  The defining relations are checked through the same two
interpreters: ``check_presentation`` and ``relation_residuals``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .config import MAX_EXPONENT, MAX_NESTING
from .diagram_core import (
    _SITES,
    Element,
    _check_generator,
    adjoint,
    conditional_expectation,
    embed,
    generator,
    identity,
    presentation_relations,
    products,
)
from .errors import LimitError, ParameterError, ParseError
from .fock import subproduct_projection
from .jones_wenzl import jones_wenzl
from .qpoly import as_fraction, validate_lam
from .representation import (
    MotzkinPair,
    _apply_local,
    _check_dim,
    _generator_bases,
    rep_conditional_expectation,
)

# ---------------------------------------------------------------------------
# Syntax trees and their text form


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


def _word_tree(word):
    """A word of (name, index, dagger) tokens, the form
    `presentation_relations` yields, as a left-nested product of generators
    and their adjoints; the empty word is the identity."""
    leaves = [Adj(Gen(name, i)) if dag else Gen(name, i) for name, i, dag in word]
    return reduce(Mul, leaves) if leaves else Gen("id", None)


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
    for child in _children(node):
        _check_widths(child, k + 1 if isinstance(node, Expect) else k)


def _needs_parens(node) -> bool:
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
        if _needs_parens(node.operand):
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, (Add, Sub)):
        op = " + " if isinstance(node, Add) else " - "
        left = pretty(node.left)
        right = pretty(node.right)
        if _needs_parens(node.right):
            right = f"({right})"
        return left + op + right
    if isinstance(node, Mul):
        left = pretty(node.left)
        if _needs_parens(node.left):
            left = f"({left})"
        right = pretty(node.right)
        if _needs_parens(node.right) or isinstance(node.right, Mul):
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
    else:
        _check_generator(k, name, i)


def _exponent(node: Pow) -> int:
    if node.exponent > MAX_EXPONENT:
        raise ParameterError(
            f"exponent {node.exponent} exceeds the bound {MAX_EXPONENT}"
        )
    return node.exponent


# ---------------------------------------------------------------------------
# The two interpreters


def _eval_all(nodes: list, k: int, lam) -> list[Element]:
    """The elements of `nodes` at width k: the left children of all their
    products as one list, then the right ones, then one `products` call, so a
    forest costs one kernel pass per tree depth; equal nodes of another kind
    are read once.  A single tree is read left subtree first."""
    muls = [node for node in nodes if isinstance(node, Mul)]
    if muls:
        left = _eval_all([node.left for node in muls], k, lam)
        right = _eval_all([node.right for node in muls], k, lam)
        done = iter(products(list(zip(left, right))))
    value = dict.fromkeys(node for node in nodes if not isinstance(node, Mul))
    value = {node: _eval_node(node, k, lam) for node in value}
    return [next(done) if isinstance(node, Mul) else value[node] for node in nodes]


def _eval(node, k: int, lam) -> Element:
    return _eval_all([node], k, lam)[0]


def _eval_node(node, k: int, lam) -> Element:
    if isinstance(node, Num):
        return identity(k, lam=lam).scale(node.value)
    if isinstance(node, Gen):
        _check_gen(node, k)
        if node.name == "id":
            return identity(k, lam=lam)
        if node.name == "g":
            i = k if node.index is None else node.index
            return embed(jones_wenzl(i, lam), k - i)
        return generator(k, node.name, node.index, lam=lam)
    if isinstance(node, Neg):
        return -_eval(node.operand, k, lam)
    if isinstance(node, Add):
        return _eval(node.left, k, lam) + _eval(node.right, k, lam)
    if isinstance(node, Sub):
        return _eval(node.left, k, lam) - _eval(node.right, k, lam)
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


def _local(node, k: int, pair: MotzkinPair, blocks: dict):
    """(block, first slot) of a scalar (a 1 x 1 block), a generator, g<i>
    (the level-i projection on the first i slots) or an adjoint of these;
    None for other nodes."""
    if isinstance(node, Adj):
        inner = _local(node.operand, k, pair, blocks)
        return None if inner is None else (inner[0].conj().T, inner[1])
    if isinstance(node, Num):
        return np.full((1, 1), float(node.value)), 1
    if not isinstance(node, Gen):
        return None
    _check_gen(node, k)
    if node.name == "id":
        return np.ones((1, 1)), 1
    if node.name == "g":
        return subproduct_projection(pair, k if node.index is None else node.index), 1
    return blocks[node.name], node.index


def _act(node, k: int, pair: MotzkinPair, blocks: dict, X):
    """node @ X on the k-fold power of C^n, X = None standing for the
    identity.  Products apply their factors to X from right to left and
    local nodes act on their own slots; a dense n**k x n**k operator is
    formed only for E(...), for powers and for the adjoint of a compound
    node."""
    if isinstance(node, Mul):
        return _act(node.left, k, pair, blocks, _act(node.right, k, pair, blocks, X))
    if isinstance(node, Add):
        return _act(node.left, k, pair, blocks, X) + _act(node.right, k, pair, blocks, X)
    if isinstance(node, Sub):
        return _act(node.left, k, pair, blocks, X) - _act(node.right, k, pair, blocks, X)
    if isinstance(node, Neg):
        return -_act(node.operand, k, pair, blocks, X)
    local = _local(node, k, pair, blocks)
    if local is not None:
        if X is None:
            X = np.eye(_check_dim(pair.n, k), dtype=pair.dtype)
        return _apply_local(X, pair.n, *local)
    if isinstance(node, Adj):
        dense = _act(node.operand, k, pair, blocks, None).conj().T
    elif isinstance(node, Pow):
        exponent = _exponent(node)
        dense = np.linalg.matrix_power(_act(node.operand, k, pair, blocks, None), exponent)
    elif isinstance(node, Expect):
        dense = rep_conditional_expectation(pair, _act(node.operand, k + 1, pair, blocks, None))
    else:
        raise ParameterError(f"not a syntax node: {node!r}")
    return dense if X is None else dense @ X


def evaluate_operator(expr, width: int, pair: MotzkinPair) -> np.ndarray:
    """Evaluate an expression to a concrete operator on the tensor power.

    The same tree that ``evaluate`` reads off diagrammatically is run
    through the pair's representation instead: generator atoms act as their
    blocks on their own slots, g<i> as the level-i projection on the first
    i slots, and E(...) as the operator-level expectation.  The scalar lam
    of the expression is the pair's lam.  A result with an infinite or
    undefined entry raises LimitError.
    """
    node = parse_expression(expr) if isinstance(expr, str) else expr
    if width < 1:
        raise ParameterError(f"need width >= 1, got {width}")
    with np.errstate(over="ignore", invalid="ignore"):
        mat = _act(node, width, pair, _generator_bases(pair), None)
    if not np.isfinite(mat).all():
        raise LimitError("operator entries leave the floating-point range")
    return mat


# ---------------------------------------------------------------------------
# The defining relations through both interpreters


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
    is exact, so a pass is a proof for this width and lam.  The word trees
    of every relation go through `_eval_all` as one forest, one kernel pass
    per tree depth.  Widths below 2 have no relation to check and raise
    ParameterError."""
    if k < 2:
        raise ParameterError(f"need k >= 2 for a relation to check, got {k}")
    lam = as_fraction(lam)
    relations = list(presentation_relations(k))
    words = [word for _, lhs, rhs in relations for side in (lhs, rhs) for _, word in side]
    values = iter(_eval_all([_word_tree(word) for word in words], k, lam))

    def side(terms) -> Element:
        return sum((next(values).scale(lam**power) for power, _ in terms), Element.zero(k, lam))

    failures = [label for label, lhs, rhs in relations if side(lhs) != side(rhs)]
    return PresentationReport(width=k, lam=lam, checked=len(relations), failures=failures)


@np.errstate(over="ignore", invalid="ignore")
def relation_residuals(pair: MotzkinPair, k: int) -> dict[str, float]:
    """Frobenius residual of every defining relation instance at width k.

    Each relation is evaluated on the window of w consecutive slots its
    words touch.  Every word is the identity outside that window, so the
    residual on the k-fold power is the window residual times n**((k-w)/2).
    Widths below 2 have no relation to check and raise ParameterError; a
    pair whose generators or residuals leave the floating-point range
    raises LimitError, the generators before any window is built.
    """
    if k < 2:
        raise ParameterError(f"need k >= 2 for a relation to check, got {k}")
    n = pair.n
    _check_dim(n, k)
    lam = float(pair.lam)
    blocks = _generator_bases(pair)
    out: dict[str, float] = {}
    for label, lhs, rhs in presentation_relations(k):
        terms = [
            (sign * lam**power, word)
            for sign, side in ((1, lhs), (-1, rhs))
            for power, word in side
        ]
        touched = [
            (i, i + _SITES[name] - 1) for _, word in terms for name, i, _ in word
        ]
        lo = min(first for first, _ in touched)
        w = max(last for _, last in touched) - lo + 1
        total = np.zeros((n**w, n**w), dtype=pair.dtype)
        for coeff, word in terms:
            local = _word_tree([(name, i - lo + 1, dag) for name, i, dag in word])
            total += coeff * _act(local, w, pair, blocks, None)
        out[label] = float(np.linalg.norm(total)) * n ** ((k - w) / 2)
    if not np.isfinite(list(out.values())).all():
        raise LimitError("operator entries leave the floating-point range")
    return out
