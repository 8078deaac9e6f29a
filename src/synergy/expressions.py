"""A small analytic expression language: parsing, one walk (`jet`) for
values, gradients and Hessians, exact symbolic partial derivatives, and
power series (exact polynomial expansion and truncated Taylor expansion,
one series walker for both).

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := number | 'x' nat | ident | func '(' expr ')' | '(' expr ')' | '-' atom
    func   := 'sin' | 'cos' | 'exp'

Implicit multiplication is rejected. Named constants must be bound at parse
time; unbound identifiers are errors. Parentheses, function calls and unary
minus nest at most MAX_NESTING levels deep. Every expression built from these
primitives is real-analytic, so its derivatives, symbolic or carried by
the jet, and its truncated power-series expansion are total.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import Point
from .exceptions import CapExceededError, DimensionMismatchError, ParseError
from .polynomials import (
    MultiIndex,
    SparsePolynomial,
    compose,
    product,
    scalar_power,
    term_sum,
)

TAYLOR_MAX_ORDER = 12
TAYLOR_MAX_FEATURES = 6
# Keeps the recursive parser and tree walkers well inside Python's stack limit.
MAX_NESTING = 100

FUNCTIONS = ("sin", "cos", "exp")


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int  # >= 0


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


_ZERO = Const(0.0)
_ONE = Const(1.0)


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    const = 0.0
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    kept: list[Expr] = []
    for t in flat:
        if isinstance(t, Const):
            const += t.value
        else:
            kept.append(t)
    if const != 0.0 or not kept:
        kept.append(Const(const))
    return kept[0] if len(kept) == 1 else Add(tuple(kept))


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    const = 1.0
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    kept: list[Expr] = []
    for f in flat:
        if isinstance(f, Const):
            const *= f.value
        else:
            kept.append(f)
    if const == 0.0:
        return _ZERO
    if const != 1.0 or not kept:
        kept.insert(0, Const(const))
    return kept[0] if len(kept) == 1 else Mul(tuple(kept))


def neg(arg: Expr) -> Expr:
    if isinstance(arg, Const):
        return Const(-arg.value)
    return Neg(arg)


def power(base: Expr, exponent: int) -> Expr:
    if exponent < 0:
        raise ValueError("exponent must be a natural number")
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(scalar_power(base.value, exponent))
    return Pow(base, exponent)


def _scalar_call(func: str, value: float) -> float:
    """`func` at a float as numpy maps an array: exp beyond the float range
    is inf, and sin or cos of an infinity is nan, where `math` raises."""
    try:
        return getattr(math, func)(value)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def call(func: str, arg: Expr) -> Expr:
    # a constant folds as `evaluate` maps an array
    if isinstance(arg, Const):
        return Const(_scalar_call(func, arg.value))
    return Call(func, arg)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)
_VARIABLE = re.compile(r"^x(\d+)$")
_NATURAL = re.compile(r"^\d+$")


class _Token(NamedTuple):
    kind: str  # number | name | op | end
    text: str
    position: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(src):
        match = _TOKEN.match(src, pos)
        if match is None or match.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(src) - len(stripped))
        kind = match.lastgroup  # the one alternative that matched
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, n: int, bindings: Mapping[str, float]):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.n = n
        self.bindings = bindings
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, text: str) -> None:
        token = self.advance()
        if token.kind != "op" or token.text != text:
            raise ParseError(f"expected {text!r}", token.position)

    def nest(self, token: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", token.position)

    def parse(self) -> Expr:
        expr = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected {token.text!r}", token.position)
        return expr

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            term = self.term()
            terms.append(term if op == "+" else neg(term))
        return add(*terms)

    def term(self) -> Expr:
        factors = [self.factor()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            factors.append(self.factor())
        return mul(*factors)

    def factor(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            token = self.advance()
            if token.kind != "number" or not _NATURAL.match(token.text):
                raise ParseError("exponent must be a natural number", token.position)
            return power(base, int(token.text))
        return base

    def atom(self) -> Expr:
        token = self.advance()
        if token.kind == "number":
            return Const(float(token.text))
        if token.kind == "name":
            variable = _VARIABLE.match(token.text)
            if variable:
                index = int(variable.group(1))
                if not 1 <= index <= self.n:
                    raise ParseError(
                        f"variable x{index} outside x1..x{self.n}", token.position
                    )
                return Var(index)
            if token.text in FUNCTIONS:
                self.nest(token)
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                self.depth -= 1
                return call(token.text, arg)
            if token.text in self.bindings:
                return Const(float(self.bindings[token.text]))
            raise ParseError(f"unknown identifier {token.text!r}", token.position)
        if token.kind == "op":
            if token.text == "(":
                self.nest(token)
                inner = self.expr()
                self.expect_op(")")
                self.depth -= 1
                return inner
            if token.text == "-":
                self.nest(token)
                inner = self.atom()
                self.depth -= 1
                return neg(inner)
        raise ParseError(f"unexpected {token.text or 'end of input'!r}", token.position)


def parse(src: str, n: int, bindings: Mapping[str, float] | None = None) -> Expr:
    """Parse expression text over variables x1..xn with optional constant bindings."""
    return _Parser(src, n, bindings or {}).parse()


# ---------------------------------------------------------------------------
# Evaluation, printing, differentiation
# ---------------------------------------------------------------------------

def _apply(func: str, value):
    if isinstance(value, np.ndarray):
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp}[func](value)
    return _scalar_call(func, value)


def _confine(d, rows: int, columns: int | None = None):
    """Set to exact zeros, in place, the rows of the derivative block `d`
    outside the bitmask `rows`, and its columns outside `columns`."""
    for axis, support in enumerate((rows, columns)):
        if support is not None:
            off = [r for r in range(d.shape[axis]) if not support >> r & 1]
            d[(slice(None),) * axis + (off,)] = 0.0


@lru_cache(maxsize=None)
def _unit(m: int, row: int) -> np.ndarray:
    """A variable's gradient rows (m, 1): 1 in row `row`, 0 elsewhere.
    Shared by every walk, so read-only."""
    unit = np.zeros((m, 1))
    unit[row] = 1.0
    unit.flags.writeable = False
    return unit


def _scaled(c, support: int, g, h):
    """c·g and c·h for a node's gradient rows g (m, …) and Hessian h
    (m, m, …), None where they are, zero outside the rows (and columns) of
    the bitmask `support`; those stay exact zeros where a non-finite c would
    make them 0·inf = nan."""
    g = None if g is None else c * g
    h = None if h is None else c * h
    block = h if g is None else g
    if block is not None and support != (1 << len(block)) - 1 and not (
        math.isfinite(c) if isinstance(c, float) else np.isfinite(c).all()
    ):
        if g is not None:
            _confine(g, support)
        if h is not None:
            _confine(h, support, support)
    return g, h


def _outer(a, rows: int, b, columns: int):
    """a ⊗ b for gradient blocks zero outside `rows` and `columns`, kept zero
    outside them where a non-finite entry of one factor meets a zero of the
    other."""
    if a is None or b is None:
        return None
    out = a[:, None] * b[None]
    if (rows & columns) != (1 << len(a)) - 1 and not np.isfinite(out).all():
        _confine(out, rows, columns)
    return out


def _sum(*parts):
    """The parts that are not None added left to right; None if all are."""
    total = None
    for part in parts:
        if part is not None:
            total = part if total is None else total + part
    return total


def jet(expr: Expr, y: Sequence, active: Sequence[int], order: int):
    """The value of `expr` at a point with, up to `order` (0, 1 or 2), its
    gradient rows (m, …) and Hessian (m, m, …) in the m features `active`
    (1-based), each broadcasting against the value, and the bitmask of the
    rows of `active` the node holds; components may be scalars or numpy
    arrays. A derivative is None where it is structurally zero: at a node
    holding no active feature, or above `order`. Rows and columns of
    features a node does not hold are exact zeros, even where a factor is
    infinite. Children are walked in parsed order, folded into their parent
    one at a time."""
    if isinstance(expr, Const):
        return expr.value, None, None, 0
    if isinstance(expr, Var):
        if expr.index > len(y):
            raise DimensionMismatchError(
                f"expression uses x{expr.index} but point has {len(y)} components"
            )
        if order and expr.index in active:
            row = active.index(expr.index)
            return y[expr.index - 1], _unit(len(active), row), None, 1 << row
        return y[expr.index - 1], None, None, 0
    if isinstance(expr, Neg):
        v, g, h, s = jet(expr.arg, y, active, order)
        return -v, *_scaled(-1.0, s, g, h), s
    if isinstance(expr, Add):
        v, g, h, s = jet(expr.terms[0], y, active, order)
        for term in expr.terms[1:]:
            tv, tg, th, ts = jet(term, y, active, order)
            if order:
                g, h, s = _sum(g, tg), _sum(h, th), s | ts
            v = v + tv
        return v, g, h, s
    if isinstance(expr, Mul):
        v, g, h, s = jet(expr.factors[0], y, active, order)
        for factor in expr.factors[1:]:
            b, gb, hb, sb = jet(factor, y, active, order)
            if order:
                bg, bh = _scaled(b, s, g, h)
                vgb, vhb = _scaled(v, sb, gb, hb)
                if order > 1:
                    # g ⊗ gb and its transpose gb ⊗ g
                    cross = _outer(g, s, gb, sb)
                    h = _sum(bh, cross, None if cross is None else cross.swapaxes(0, 1), vhb)
                g, s = _sum(bg, vgb), s | sb
            v = v * b
        return v, g, h, s
    v, g, h, s = jet(_children(expr)[0], y, active, order)
    if g is None:
        value = _apply(expr.func, v) if isinstance(expr, Call) else scalar_power(v, expr.exponent)
        return value, None, None, 0
    if isinstance(expr, Call):
        phi = _derivative_cycle(expr.func, v)
    else:
        k = expr.exponent
        phi = [math.perm(k, j) * scalar_power(v, k - j) for j in range(order + 1)]
    # the chain rule with f^(j) = phi[j % len(phi)]: f'·∇a and f'·Ha + f''·∇a∇aᵀ
    d1g, d1h = _scaled(phi[1 % len(phi)], s, g, h)
    if order > 1:
        _, curvature = _scaled(phi[2 % len(phi)], s, None, _outer(g, s, g, s))
        d1h = _sum(d1h, curvature)
    return phi[0], d1g, d1h, s


def evaluate(expr: Expr, y: Sequence):
    """Evaluate at a point of scalars or numpy arrays: the order-0 `jet`."""
    return jet(expr, y, (), 0)[0]


def _children(expr: Expr) -> tuple[Expr, ...]:
    """The operands of a node, in parsed order."""
    if isinstance(expr, (Const, Var)):
        return ()
    if isinstance(expr, (Neg, Call)):
        return (expr.arg,)
    if isinstance(expr, Pow):
        return (expr.base,)
    if isinstance(expr, Add):
        return expr.terms
    if isinstance(expr, Mul):
        return expr.factors
    raise TypeError(f"unknown node {expr!r}")


def tree_size(expr: Expr, memo: dict[int, int]) -> int:
    """Nodes `jet`, and so `evaluate`, visits walking `expr` as a tree. A
    subtree shared by several parents is counted once per use but sized
    once, through `memo`, keyed by node identity: the count costs one step
    per distinct node, however large the tree."""
    size = memo.get(id(expr))
    if size is None:
        size = 1 + sum(tree_size(child, memo) for child in _children(expr))
        memo[id(expr)] = size
    return size


def _print_atom(expr: Expr) -> str:
    text = to_text(expr)
    if isinstance(expr, (Var, Call)):
        return text
    if isinstance(expr, Const) and expr.value >= 0:
        return text
    return f"({text})"


def to_text(expr: Expr) -> str:
    """Render to the surface grammar; parsing the result reproduces the node."""
    if isinstance(expr, Const):
        return repr(expr.value) if expr.value >= 0 else f"(-{abs(expr.value)!r})"
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Neg):
        return f"(-{_print_atom(expr.arg)})"
    if isinstance(expr, Add):
        parts = [to_text(expr.terms[0])]
        for term in expr.terms[1:]:
            if isinstance(term, Neg):
                parts.append(f" - {_print_atom(term.arg)}")
            elif isinstance(term, Const) and term.value < 0:
                parts.append(f" - {abs(term.value)!r}")
            else:
                parts.append(f" + {to_text(term)}")
        return "".join(parts)
    if isinstance(expr, Mul):
        return "*".join(
            f"({to_text(f)})" if isinstance(f, Add) else _print_atom(f)
            for f in expr.factors
        )
    if isinstance(expr, Pow):
        base = to_text(expr.base)
        if not isinstance(expr.base, (Var, Call)):
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, Call):
        return f"{expr.func}({to_text(expr.arg)})"
    raise TypeError(f"unknown node {expr!r}")


def partial(expr: Expr, i: int) -> Expr:
    """Exact symbolic derivative with respect to x_i: no production path
    calls it; the tests check `jet` and the quadrature oracles against it."""
    if isinstance(expr, (Const,)):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE if expr.index == i else _ZERO
    if isinstance(expr, Neg):
        return neg(partial(expr.arg, i))
    if isinstance(expr, Add):
        return add(*(partial(t, i) for t in expr.terms))
    if isinstance(expr, Mul):
        pieces = []
        for j, factor in enumerate(expr.factors):
            d = partial(factor, i)
            if d is _ZERO or (isinstance(d, Const) and d.value == 0.0):
                continue
            rest = expr.factors[:j] + expr.factors[j + 1 :]
            pieces.append(mul(d, *rest))
        return add(*pieces) if pieces else _ZERO
    if isinstance(expr, Pow):
        d = partial(expr.base, i)
        return mul(Const(float(expr.exponent)), power(expr.base, expr.exponent - 1), d)
    if isinstance(expr, Call):
        d = partial(expr.arg, i)
        if expr.func == "sin":
            outer: Expr = call("cos", expr.arg)
        elif expr.func == "cos":
            outer = neg(call("sin", expr.arg))
        else:
            outer = call("exp", expr.arg)
        return mul(outer, d)
    raise TypeError(f"unknown node {expr!r}")


def is_polynomial(expr: Expr) -> bool:
    """Whether `expr` holds no sin, cos or exp call."""
    return not isinstance(expr, Call) and all(map(is_polynomial, _children(expr)))


def _derivative_cycle(func: str, a0):
    """The derivatives of sin, cos or exp at a0, a float or an array, over
    one period (4, 4 and 1), each taken as `evaluate` takes it."""
    if func == "exp":
        return (_apply("exp", a0),)
    sin, cos = _apply("sin", a0), _apply("cos", a0)
    return (sin, cos, -sin, -cos) if func == "sin" else (cos, -sin, -cos, sin)


def _split(
    series: dict[MultiIndex, float], zero: MultiIndex
) -> tuple[float, dict[MultiIndex, float]]:
    """The constant term of a series and the series without it."""
    return series.get(zero, 0.0), {m: c for m, c in series.items() if m != zero}


def _series(e: Expr, center: Point, order: int | None) -> dict[MultiIndex, float]:
    """Power series of `e` in (y - center), as exponent vector -> coefficient.

    With `order` None this is the exact expansion of a polynomial expression:
    the degree cap is checked before every product and power, which are
    expanded by repeated convolution. With an integer `order` every term of
    total degree above it is dropped as soon as it would arise, and powers and
    sin/cos/exp compose their argument's series with their own Taylor
    coefficients at its constant term.
    """
    n = len(center)
    zero = (0,) * n
    if isinstance(e, Const):
        return {zero: e.value} if e.value != 0.0 else {}
    if isinstance(e, Var):
        if e.index > n:
            raise DimensionMismatchError(
                f"expression uses x{e.index} but center has {n} components"
            )
        out = {}
        if order is None or order >= 1:
            out[tuple(1 if j == e.index - 1 else 0 for j in range(n))] = 1.0
        if center[e.index - 1] != 0.0:
            out[zero] = float(center[e.index - 1])  # a numpy center's items are not floats
        return out
    if isinstance(e, Neg):
        return {m: -c for m, c in _series(e.arg, center, order).items()}
    if isinstance(e, Add):
        return term_sum(_series(t, center, order).items() for t in e.terms)
    if isinstance(e, Mul):
        return product([(_series(f, center, order), 1) for f in e.factors], zero, order)
    if isinstance(e, Pow):
        base = _series(e.base, center, order)
        k = e.exponent
        if order is None:
            return product([(base, k)], zero, None)
        a0, rest = _split(base, zero)
        weights = [math.comb(k, j) * scalar_power(a0, k - j) for j in range(min(k, order) + 1)]
        return compose(rest, weights, zero, order)
    if isinstance(e, Call):
        if order is None:
            raise ValueError(f"{e.func} has no exact polynomial expansion")
        a0, rest = _split(_series(e.arg, center, order), zero)
        cycle = _derivative_cycle(e.func, a0)
        weights = [cycle[j % len(cycle)] / math.factorial(j) for j in range(order + 1)]
        return compose(rest, weights, zero, order)
    raise TypeError(f"unknown node {e!r}")


def to_polynomial(expr: Expr, center: Point) -> SparsePolynomial | None:
    """Exact expansion in powers of (y - center), or None when transcendental.

    Recenters by substituting y_i = (y_i - center_i) + center_i and expanding.
    The degree cap applies to every intermediate product and power before it
    is expanded, so terms that would cancel later still count.

    The expansion's exponent vectors are valid by construction, so its terms
    take `SparsePolynomial._exact`'s checks only, and are sorted there.
    """
    if not is_polynomial(expr):
        return None
    return SparsePolynomial._exact(center, _series(expr, center, None))


def taylor(expr: Expr, center: Point, order: int) -> SparsePolynomial:
    """Degree-`order` Taylor polynomial at `center`.

    Polynomial expressions are expanded exactly and truncated. Transcendental
    expressions are expanded in truncated power-series arithmetic by the same
    walk as `to_polynomial`: every product drops the terms above total degree
    `order`, and sin, cos, exp and powers apply their univariate Taylor
    coefficients at the argument's constant term to the rest of its series.
    No derivative is taken. These are capped at order 12 and 6 features.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    exact = to_polynomial(expr, center)
    if exact is not None:
        return exact.truncate(order)
    if order > TAYLOR_MAX_ORDER:
        raise CapExceededError(f"taylor order capped at {TAYLOR_MAX_ORDER}")
    if len(center) > TAYLOR_MAX_FEATURES:
        raise CapExceededError(
            f"taylor of transcendental expressions capped at {TAYLOR_MAX_FEATURES} features"
        )
    return SparsePolynomial._exact(center, _series(expr, center, order))


def from_polynomial(p: SparsePolynomial) -> Expr:
    """Expression tree evaluating identically to the polynomial."""
    terms = []
    for m, c in zip(p.exponent_array.tolist(), p.coefficients.tolist()):
        factors: list[Expr] = [Const(c)]
        for i, e in enumerate(m):
            if e:
                base: Expr = Var(i + 1)
                if p.center[i] != 0.0:
                    base = add(base, Const(-p.center[i]))
                factors.append(power(base, e))
        terms.append(mul(*factors))
    return add(*terms) if terms else _ZERO
