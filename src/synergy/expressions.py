"""A small analytic expression language: parsing, evaluation, exact symbolic
partial derivatives, and power series (exact polynomial expansion and
truncated Taylor expansion, one series walker for both).

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := number | 'x' nat | ident | func '(' expr ')' | '(' expr ')' | '-' atom
    func   := 'sin' | 'cos' | 'exp'

Implicit multiplication is rejected. Named constants must be bound at parse
time; unbound identifiers are errors. Parentheses, function calls and unary
minus nest at most MAX_NESTING levels deep. Every expression built from these
primitives is real-analytic, so symbolic differentiation and truncated
power-series expansion are total.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import Point
from .exceptions import CapExceededError, DimensionMismatchError, ParseError
from .polynomials import (
    MAX_TERMS,
    MAX_TOTAL_DEGREE,
    MultiIndex,
    SparsePolynomial,
    exponent_rows,
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
        return Const(base.value**exponent)
    return Pow(base, exponent)


def call(func: str, arg: Expr) -> Expr:
    if isinstance(arg, Const):
        return Const(getattr(math, func)(arg.value))
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
    return getattr(math, func)(value)


def evaluate(expr: Expr, y: Sequence):
    """Evaluate at a point; components may be scalars or numpy arrays."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.index > len(y):
            raise DimensionMismatchError(
                f"expression uses x{expr.index} but point has {len(y)} components"
            )
        return y[expr.index - 1]
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, y)
    if isinstance(expr, Add):
        total = evaluate(expr.terms[0], y)
        for term in expr.terms[1:]:
            total = total + evaluate(term, y)
        return total
    if isinstance(expr, Mul):
        total = evaluate(expr.factors[0], y)
        for factor in expr.factors[1:]:
            total = total * evaluate(factor, y)
        return total
    if isinstance(expr, Pow):
        return evaluate(expr.base, y) ** expr.exponent
    if isinstance(expr, Call):
        return _apply(expr.func, evaluate(expr.arg, y))
    raise TypeError(f"unknown node {expr!r}")


def tree_size(expr: Expr, memo: dict[int, int]) -> int:
    """Nodes `evaluate` visits walking `expr` as a tree. A subtree shared
    by several parents is counted once per use but sized once, through
    `memo`, keyed by node identity: the count costs one step per distinct
    node, however large the tree."""
    size = memo.get(id(expr))
    if size is None:
        if isinstance(expr, (Neg, Call)):
            children: tuple[Expr, ...] = (expr.arg,)
        elif isinstance(expr, Pow):
            children = (expr.base,)
        elif isinstance(expr, Add):
            children = expr.terms
        elif isinstance(expr, Mul):
            children = expr.factors
        else:
            children = ()
        size = 1 + sum(tree_size(child, memo) for child in children)
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
    """Exact symbolic derivative with respect to x_i."""
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
    if isinstance(expr, Call):
        return False
    if isinstance(expr, (Const, Var)):
        return True
    if isinstance(expr, Neg):
        return is_polynomial(expr.arg)
    if isinstance(expr, Add):
        return all(is_polynomial(t) for t in expr.terms)
    if isinstance(expr, Mul):
        return all(is_polynomial(f) for f in expr.factors)
    if isinstance(expr, Pow):
        return is_polynomial(expr.base)
    raise TypeError(f"unknown node {expr!r}")


def _convolve(
    a: dict[MultiIndex, float], b: dict[MultiIndex, float], order: int | None
) -> dict[MultiIndex, float]:
    """Series product, pairs in dict order; with an `order`, every pair of
    total degree above it is skipped. Exact products (order None) are checked
    against the degree cap before they are expanded, so none is skipped."""
    limit = MAX_TOTAL_DEGREE if order is None else order
    b_items = [(mb, cb, sum(mb)) for mb, cb in b.items()]
    out: dict[MultiIndex, float] = {}
    for ma, ca in a.items():
        room = limit - sum(ma)
        for mb, cb, degree in b_items:
            if degree > room:
                continue
            key = tuple(map(operator.add, ma, mb))
            out[key] = out.get(key, 0.0) + ca * cb
            if len(out) > MAX_TERMS:
                raise CapExceededError("polynomial expansion exceeds the term cap")
    return {m: c for m, c in out.items() if c != 0.0}


# Exact products of at least this many term pairs run on exponent-code arrays;
# the dict loop of _convolve is quicker on smaller ones.
ARRAY_MIN_PAIRS = 100
# The most term pairs an array product forms at once.
PAIR_BLOCK = 1 << 16


def _array_product(
    a_codes: np.ndarray, a_coefs: np.ndarray, b_codes: np.ndarray, b_coefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_convolve(a, b, None) on exponent codes, bit for bit: the pairs in
    (a term, b term) order, each product rounded once and summed from 0.0 in
    pair order, the keys in order of first appearance, zeros dropped. The
    pairs are formed PAIR_BLOCK at a time."""
    keys = np.empty(0, np.int64)  # in order of first appearance
    sums = np.empty(0)
    seen = np.empty(0, np.int64)  # the keys sorted, and their slots in `keys`
    seen_slots = np.empty(0, np.intp)
    total = len(a_codes) * len(b_codes)
    for start in range(0, total, PAIR_BLOCK):
        i, j = np.divmod(np.arange(start, min(start + PAIR_BLOCK, total)), len(b_codes))
        unique, first, inverse = np.unique(
            a_codes[i] + b_codes[j], return_index=True, return_inverse=True
        )
        at = np.searchsorted(seen, unique)
        known = at < len(seen)
        known[known] = seen[at[known]] == unique[known]
        fresh = ~known
        slots = np.empty(len(unique), np.intp)
        slots[known] = seen_slots[at[known]]
        new = np.flatnonzero(fresh)
        new = new[np.argsort(first[new])]
        slots[new] = np.arange(len(keys), len(keys) + len(new))
        keys = np.concatenate([keys, unique[new]])
        if len(keys) > MAX_TERMS:
            raise CapExceededError("polynomial expansion exceeds the term cap")
        sums = np.concatenate([sums, np.zeros(len(new))])
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as the loop makes them
            np.add.at(sums, slots[inverse], a_coefs[i] * b_coefs[j])
        if start + PAIR_BLOCK < total:
            seen = np.insert(seen, at[fresh], unique[fresh])
            seen_slots = np.insert(seen_slots, at[fresh], slots[fresh])
    nonzero = sums != 0.0
    return keys[nonzero], sums[nonzero]


def _exact_product(
    factors: Sequence[dict[MultiIndex, float]], zero: MultiIndex
) -> dict[MultiIndex, float]:
    """The product of `factors` from {zero: 1.0}, one _convolve(·, ·, None)
    per factor, bit for bit and in the same dict order.

    A step of ARRAY_MIN_PAIRS pairs or more runs on exponent codes instead
    (see _radices), unless the product's codes would not fit in int64. The
    running product stays as arrays from such a step on.
    """
    out = {zero: 1.0}
    arrays = None  # the running product as (codes, coefficients) after an array step
    radices = None  # found at the first large step; [] when codes cannot hold the product
    encoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # by identity: a power repeats its base
    for f in factors:
        large = (len(out) if arrays is None else len(arrays[0])) * len(f) >= ARRAY_MIN_PAIRS
        if large and radices is None:
            radices = _radices(factors, len(zero))
            weights = np.array([math.prod(radices[i + 1:]) for i in range(len(radices))], np.int64)
        if large and radices:
            if arrays is None:
                arrays = _encode(out, weights)
            if id(f) not in encoded:
                encoded[id(f)] = _encode(f, weights)
            arrays = _array_product(*arrays, *encoded[id(f)])
        else:
            if arrays is not None:
                out, arrays = _decode(*arrays, weights, radices), None
            out = _convolve(out, f, None)
    return out if arrays is None else _decode(*arrays, weights, radices)


def _radices(factors: Sequence[dict[MultiIndex, float]], n: int) -> list[int]:
    """The radices of the product's exponent codes: one int64 per exponent
    vector, feature 1 its most significant digit, each feature's radix one
    more than its largest exponent in the product, so adding codes multiplies
    monomials without a carry.

    Empty when the codes would not fit in int64, or when a coefficient is not
    a Python int or float (float64 holds those as the loop's float
    arithmetic rounds them)."""
    distinct = {id(f): f for f in factors}
    if not all(set(map(type, f.values())) <= {int, float} for f in distinct.values()):
        return []
    tops = {key: exponent_rows(f, n).max(axis=0, initial=0) for key, f in distinct.items()}
    radices = (1 + sum(tops[id(f)] for f in factors)).tolist()
    return radices if math.prod(radices) <= np.iinfo(np.int64).max else []


def _encode(terms: dict[MultiIndex, float], weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exponent codes and the coefficients of `terms`, in dict order."""
    codes = exponent_rows(terms, len(weights)) @ weights
    return codes, np.fromiter(terms.values(), float, len(terms))


def _decode(
    codes: np.ndarray, coefs: np.ndarray, weights: np.ndarray, radices: Sequence[int]
) -> dict[MultiIndex, float]:
    """The terms of exponent codes and their coefficients, in array order."""
    digits = codes[:, None] // weights % np.array(radices, np.int64)
    return dict(zip(map(tuple, digits.tolist()), coefs.tolist()))


def _degree(terms: dict[MultiIndex, float]) -> int:
    return max((sum(m) for m in terms), default=0)


def _require_degree(degree: int) -> None:
    if degree > MAX_TOTAL_DEGREE:
        raise CapExceededError(f"total degree {degree} exceeds cap {MAX_TOTAL_DEGREE}")


# Derivatives of sin, cos and exp at a0, repeating with period 4, 4 and 1.
_DERIVATIVE_CYCLES = {
    "sin": lambda a0: (math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0)),
    "cos": lambda a0: (math.cos(a0), -math.sin(a0), -math.cos(a0), math.sin(a0)),
    "exp": lambda a0: (math.exp(a0),),
}


def _split(
    series: dict[MultiIndex, float], zero: MultiIndex
) -> tuple[float, dict[MultiIndex, float]]:
    """The constant term of a series and the series without it."""
    return series.get(zero, 0.0), {m: c for m, c in series.items() if m != zero}


def _compose(
    rest: dict[MultiIndex, float], weights: Sequence[float], zero: MultiIndex, order: int
) -> dict[MultiIndex, float]:
    """Sum of weights[j]·rest^j over ascending j: a univariate function with
    Taylor coefficients `weights` at a series' constant term, applied to the
    rest of that series. Each power of `rest` is built once, and the sum stops
    early when one is empty."""
    out: dict[MultiIndex, float] = {}
    power = {zero: 1.0}
    for j, weight in enumerate(weights):
        if j:
            power = _convolve(power, rest, order)
            if not power:
                break
        if weight != 0.0:
            for m, c in power.items():
                out[m] = out.get(m, 0.0) + weight * c
    return {m: c for m, c in out.items() if c != 0.0}


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
        out = {}
        if order is None or order >= 1:
            out[tuple(1 if j == e.index - 1 else 0 for j in range(n))] = 1.0
        if center[e.index - 1] != 0.0:
            out[zero] = center[e.index - 1]
        return out
    if isinstance(e, Neg):
        return {m: -c for m, c in _series(e.arg, center, order).items()}
    if isinstance(e, Add):
        out = {}
        for t in e.terms:
            for m, c in _series(t, center, order).items():
                out[m] = out.get(m, 0.0) + c
        return {m: c for m, c in out.items() if c != 0.0}
    if isinstance(e, Mul):
        factors = [_series(f, center, order) for f in e.factors]
        if order is None:
            _require_degree(sum(_degree(f) for f in factors))
            return _exact_product(factors, zero)
        out = {zero: 1.0}
        for f in factors:
            out = _convolve(out, f, order)
        return out
    if isinstance(e, Pow):
        base = _series(e.base, center, order)
        k = e.exponent
        if order is None:
            _require_degree(_degree(base) * k)
            return _exact_product([base] * k, zero)
        a0, rest = _split(base, zero)
        weights = [math.comb(k, j) * a0 ** (k - j) for j in range(min(k, order) + 1)]
        return _compose(rest, weights, zero, order)
    if isinstance(e, Call):
        if order is None:
            raise ValueError(f"{e.func} has no exact polynomial expansion")
        a0, rest = _split(_series(e.arg, center, order), zero)
        cycle = _DERIVATIVE_CYCLES[e.func](a0)
        weights = [cycle[j % len(cycle)] / math.factorial(j) for j in range(order + 1)]
        return _compose(rest, weights, zero, order)
    raise TypeError(f"unknown node {e!r}")


def to_polynomial(expr: Expr, center: Point) -> SparsePolynomial | None:
    """Exact expansion in powers of (y - center), or None when transcendental.

    Recenters by substituting y_i = (y_i - center_i) + center_i and expanding.
    The degree cap applies to every intermediate product and power before it
    is expanded, so terms that would cancel later still count.

    The expansion's exponent vectors are valid by construction and it drops
    every zero, so the terms are only sorted and checked for float, finite
    coefficients, a finite center and the term cap; on a failure the
    validating constructor raises its usual error.
    """
    if not is_polynomial(expr):
        return None
    return SparsePolynomial._exact(center, _series(expr, center, None), ordered=False)


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
    return SparsePolynomial(center, _series(expr, center, order))


def from_polynomial(p: SparsePolynomial) -> Expr:
    """Expression tree evaluating identically to the polynomial."""
    terms = []
    for m, c in p.terms.items():
        factors: list[Expr] = [Const(c)]
        for i, e in enumerate(m):
            if e:
                base: Expr = Var(i + 1)
                if p.center[i] != 0.0:
                    base = add(base, Const(-p.center[i]))
                factors.append(power(base, e))
        terms.append(mul(*factors))
    return add(*terms) if terms else _ZERO
