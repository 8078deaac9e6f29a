import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from synergy import expressions as ex
from synergy import polynomials
from synergy.exceptions import CapExceededError, NonFiniteError, ParseError
from synergy.polynomials import SparsePolynomial
from tests.conftest import reference_taylor


def _random_expr(rng, n, depth=0):
    roll = rng.uniform()
    if depth >= 3 or roll < 0.25:
        if rng.uniform() < 0.5:
            return ex.Const(float(rng.uniform(-2, 2)))
        return ex.Var(int(rng.integers(1, n + 1)))
    if roll < 0.45:
        return ex.add(*(_random_expr(rng, n, depth + 1) for _ in range(2)))
    if roll < 0.65:
        return ex.mul(*(_random_expr(rng, n, depth + 1) for _ in range(2)))
    if roll < 0.75:
        return ex.neg(_random_expr(rng, n, depth + 1))
    if roll < 0.85:
        return ex.power(_random_expr(rng, n, depth + 1), int(rng.integers(0, 4)))
    func = str(rng.choice(ex.FUNCTIONS))
    return ex.call(func, ex.mul(ex.Const(0.5), _random_expr(rng, n, depth + 1)))


def test_parse_quadratic_has_four_addends():
    tree = ex.parse("2*x1 - 3*x2 + x1*x3 - 15", 3)
    assert isinstance(tree, ex.Add)
    assert len(tree.terms) == 4


def test_parse_with_bindings():
    tree = ex.parse(
        "a + b*x1^2 + c*sin(x2) + d*x1*x2^2",
        2,
        {"a": 1.5, "b": 2.0, "c": -1.0, "d": 0.5},
    )
    assert ex.evaluate(tree, (0.0, 0.0)) == pytest.approx(1.5)


def test_parse_rejects_negative_power():
    with pytest.raises(ParseError):
        ex.parse("x1^(-1)", 1)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        ex.parse("2 x1", 1)


def test_parse_rejects_unknown_identifier_and_reports_offset():
    with pytest.raises(ParseError) as info:
        ex.parse("2*x1 + beta", 1)
    assert info.value.position == 7


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(ParseError):
        ex.parse("x4", 3)


def test_evaluate_worked_example():
    tree = ex.parse("2*x1 - 3*x2 + x1*x3 - 15", 3)
    assert ex.evaluate(tree, (1.0, 1.0, 1.0)) == -15.0
    assert ex.evaluate(ex.parse("sin(x1)", 1), (0.0,)) == 0.0


def test_evaluate_power_beyond_the_float_range_is_the_signed_infinity():
    # Python's float power raises OverflowError there; evaluate takes the
    # infinity the power rounds to, as SparsePolynomial.evaluate does
    assert ex.evaluate(ex.parse("(sin(x1) + 2)^2000", 1), (1.0,)) == math.inf
    assert ex.evaluate(ex.parse("(sin(x1) - 3)^2001", 1), (1.0,)) == -math.inf
    assert ex.evaluate(ex.parse("(sin(x1) - 3)^2000", 1), (1.0,)) == math.inf


def test_evaluate_agrees_with_polynomial_path(rng):
    for _ in range(15):
        tree = ex.parse("x1^3 - 2*x1*x2 + 0.5*x2^2 - 4", 2)
        p = ex.to_polynomial(tree, (0.0, 0.0))
        y = rng.uniform(-2, 2, 2)
        assert ex.evaluate(tree, y) == pytest.approx(p.evaluate(y), rel=1e-12)


def test_partial_of_sine():
    tree = ex.parse("c*sin(x2)", 2, {"c": 2.5})
    d = ex.partial(tree, 2)
    x = (0.3, 0.9)
    assert ex.evaluate(d, x) == pytest.approx(2.5 * math.cos(0.9))
    assert ex.evaluate(ex.partial(tree, 1), x) == 0.0


def test_partial_power_rule():
    tree = ex.parse("x1^100*x2", 2)
    d = ex.partial(tree, 1)
    assert ex.evaluate(d, (1.0, 3.0)) == pytest.approx(300.0)


def test_partial_matches_finite_differences(rng):
    h = 1e-5
    for trial in range(15):
        n = 3
        tree = _random_expr(np.random.default_rng(trial), n)
        x = rng.uniform(-1, 1, n)
        for i in range(1, n + 1):
            bump = np.zeros(n)
            bump[i - 1] = h
            numeric = (
                ex.evaluate(tree, x + bump) - ex.evaluate(tree, x - bump)
            ) / (2 * h)
            exact = ex.evaluate(ex.partial(tree, i), x)
            assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-5)


def test_partials_commute_by_evaluation(rng):
    for trial in range(10):
        tree = _random_expr(np.random.default_rng(trial + 100), 3)
        d12 = ex.partial(ex.partial(tree, 1), 2)
        d21 = ex.partial(ex.partial(tree, 2), 1)
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            assert ex.evaluate(d12, x) == pytest.approx(
                ex.evaluate(d21, x), rel=1e-9, abs=1e-9
            )


def test_jet_matches_symbolic_partials(rng):
    """The walk's gradient and Hessian rows agree with the symbolic partial
    trees on a batch of points, in any subset of the features; a derivative
    it leaves as None is symbolically zero, and its value is `evaluate`'s."""
    for trial in range(40):
        tree = _random_expr(np.random.default_rng(trial + 200), 3)
        y = [rng.uniform(-1, 1, 7) for _ in range(3)]
        active = [i for i in (1, 2, 3) if rng.uniform() < 0.7]
        value, gradient, hessian, _ = ex.jet(tree, y, active, 2)
        assert np.array_equal(np.broadcast_to(value, (7,)), np.broadcast_to(ex.evaluate(tree, y), (7,)))
        assert ex.jet(tree, y, active, 1)[2] is None
        for r, i in enumerate(active):
            d_i = ex.partial(tree, i)
            expected = np.broadcast_to(ex.evaluate(d_i, y), (7,))
            row = np.zeros(7) if gradient is None else np.broadcast_to(gradient[r], (7,))
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-12)
            for s, j in enumerate(active):
                expected = np.broadcast_to(ex.evaluate(ex.partial(d_i, j), y), (7,))
                row = np.zeros(7) if hessian is None else np.broadcast_to(hessian[r, s], (7,))
                np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-12)


def test_jet_keeps_features_a_node_does_not_hold_at_zero():
    """exp(-exp(x2)) is 0 and its x2-derivative 0·inf = nan where exp(x2)
    overflows. The rows and columns of x1 and x3 stay exact zeros through
    every product, so only x2's entries are nan; the x1 + x3 part keeps its
    exact derivatives."""
    y = [np.array([0.5, -1.0]), np.array([1000.0, 800.0]), np.array([2.0, 3.0])]
    for text in ("x1 + exp(-exp(x2))*x3", "exp(-exp(x2))*x3 + x1", "x3*exp(-exp(x2)) + x1"):
        with np.errstate(over="ignore", invalid="ignore"):
            _, gradient, hessian, _ = ex.jet(ex.parse(text, 3), y, [1, 2, 3], 2)
        assert gradient[0].tolist() == [1.0, 1.0] and gradient[2].tolist() == [0.0, 0.0]
        assert np.isnan(gradient[1]).all()
        finite = np.isfinite(hessian)
        assert finite.tolist() == [[[True] * 2] * 3, [[True] * 2, [False] * 2, [False] * 2],
                                   [[True] * 2, [False] * 2, [True] * 2]]
        assert (hessian[finite] == 0.0).all()


def test_to_polynomial_worked_example():
    tree = ex.parse("2*x1 - 3*x2 + x1*x3 - 15", 3)
    p = ex.to_polynomial(tree, (0.0, 0.0, 0.0))
    assert p.terms == {
        (1, 0, 0): 2.0,
        (0, 1, 0): -3.0,
        (1, 0, 1): 1.0,
        (0, 0, 0): -15.0,
    }


def test_to_polynomial_signals_transcendental():
    assert ex.to_polynomial(ex.parse("sin(x1)", 1), (0.0,)) is None


def test_to_polynomial_recenters_exactly(rng):
    tree = ex.parse("x1^2*x2 - 3*x1 + 7", 2)
    center = (0.5, -1.5)
    p = ex.to_polynomial(tree, center)
    assert p.center == center
    for _ in range(100):
        y = rng.uniform(-2, 2, 2)
        assert p.evaluate(y) == pytest.approx(ex.evaluate(tree, y), rel=1e-10, abs=1e-10)


def test_to_polynomial_bounds_degree_before_expanding():
    center = (0.25, -0.5)
    at_cap = ex.to_polynomial(ex.parse("(x1+1)^128", 2), center)
    assert at_cap.degree() == 128
    cancelling = ("(x1+1)^200 - (x1+1)^200", "x1^100*x2^29 - x2^29*x1^100")
    for text in ("(x1+1)^5000", "((x1*x2)^8)^9", *cancelling):
        with pytest.raises(CapExceededError, match="exceeds cap 128"):
            ex.to_polynomial(ex.parse(text, 2), center)


def test_taylor_sine():
    p = ex.taylor(ex.parse("sin(x1)", 1), (0.0,), 3)
    assert p.terms == pytest.approx({(1,): 1.0, (3,): -1.0 / 6.0})


def test_taylor_of_polynomial_is_identity():
    tree = ex.parse("x1^4 - 2*x1*x2 + 3", 2)
    p = ex.to_polynomial(tree, (0.0, 0.0))
    assert ex.taylor(tree, (0.0, 0.0), p.degree()) == p


def test_constant_folding_matches_array_evaluation():
    """ex.power and ex.call fold a constant to what `evaluate` gives on an
    array holding it: the signed infinity beyond the float range, inf for an
    overflowing exp, nan for sin or cos of an infinity."""
    def same(a, b):
        return a == b or math.isnan(a) and math.isnan(b)

    for value in (10.0, -10.0, 0.5, 1e300, -1e300, -math.inf, math.inf, math.nan):
        for exponent in (2, 400, 401):
            with np.errstate(over="ignore"):
                expected = ex.evaluate(ex.Pow(ex.Var(1), exponent), [np.array([value])])[0]
            assert same(ex.power(ex.Const(value), exponent).value, expected)
    # arguments whose results are exact, so math and numpy agree
    exact = (0.0, -math.inf, math.inf, math.nan)
    for func, value in [(f, v) for f in ex.FUNCTIONS for v in exact] + [("exp", 1000.0)]:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = ex.evaluate(ex.Call(func, ex.Var(1)), [np.array([value])])[0]
        assert same(ex.call(func, ex.Const(value)).value, expected)


def test_taylor_of_monomial_is_exact():
    p = ex.taylor(ex.parse("x1^2*x2", 2), (0.0, 0.0), 5)
    assert p.terms == {(2, 1): 1.0}


def test_taylor_converges_near_center():
    tree = ex.parse("exp(x1*x2)", 2)
    y = (0.3, 0.2)
    errors = []
    for order in (2, 4, 6, 8):
        p = ex.taylor(tree, (0.0, 0.0), order)
        errors.append(abs(p.evaluate(y) - ex.evaluate(tree, y)))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-8


def test_taylor_caps():
    sine = ex.parse("sin(x1)", 1)
    with pytest.raises(CapExceededError):
        ex.taylor(sine, (0.0,), 13)
    with pytest.raises(CapExceededError):
        ex.taylor(ex.parse("sin(x1*x7)", 7), (0.0,) * 7, 4)


def _random_analytic(rng, n, depth=0):
    """A random expression with at least one sin, cos or exp at its root
    level, built from sums, products, negations and small powers."""
    roll = rng.uniform()
    if depth >= 2 or roll < 0.2:
        if rng.uniform() < 0.4:
            return ex.Const(float(rng.uniform(-1.5, 1.5)))
        return ex.Var(int(rng.integers(1, n + 1)))
    if roll < 0.4:
        return ex.add(*(_random_analytic(rng, n, depth + 1) for _ in range(2)))
    if roll < 0.6:
        return ex.mul(*(_random_analytic(rng, n, depth + 1) for _ in range(2)))
    if roll < 0.7:
        return ex.neg(_random_analytic(rng, n, depth + 1))
    if roll < 0.8:
        return ex.power(_random_analytic(rng, n, depth + 1), int(rng.integers(2, 5)))
    func = str(rng.choice(ex.FUNCTIONS))
    return ex.call(func, ex.mul(ex.Const(0.7), _random_analytic(rng, n, depth + 1)))


def _assert_same_series(p, q, rel=1e-12):
    scale = max(abs(c) for c in q.terms.values())
    for m in set(p.terms) | set(q.terms):
        assert abs(p.terms.get(m, 0.0) - q.terms.get(m, 0.0)) <= rel * scale, m


def test_taylor_matches_nested_differentiation():
    rng = np.random.default_rng(515)
    checked = 0
    while checked < 80:
        n = int(rng.integers(1, 4))
        func = str(rng.choice(ex.FUNCTIONS))
        tree = ex.add(
            ex.call(func, _random_analytic(rng, n)),
            ex.mul(_random_analytic(rng, n), _random_analytic(rng, n)),
        )
        if ex.is_polynomial(tree):
            continue
        center = tuple(float(v) for v in rng.uniform(-0.8, 0.8, n))
        order = int(rng.integers(0, 7))
        expected = reference_taylor(tree, center, order)
        if not expected.terms:
            continue
        _assert_same_series(ex.taylor(tree, center, order), expected)
        checked += 1


def test_taylor_closed_forms():
    p = ex.taylor(ex.parse("exp(x1*x2)", 2), (0.0, 0.0), 12)
    assert p.terms == {(j, j): 1.0 / math.factorial(j) for j in range(7)}
    c = 0.7
    sine = ex.taylor(ex.parse("sin(x1)", 1), (c,), 5)
    assert sine.terms == pytest.approx(
        {(j,): d / math.factorial(j)
         for j, d in enumerate([math.sin(c), math.cos(c), -math.sin(c), -math.cos(c),
                                math.sin(c), math.cos(c)])},
        rel=1e-15,
    )
    cosine = ex.taylor(ex.parse("cos(x1)", 1), (c,), 5)
    assert cosine.terms == pytest.approx(
        {(j,): d / math.factorial(j)
         for j, d in enumerate([math.cos(c), -math.sin(c), -math.cos(c), math.sin(c),
                                math.cos(c), -math.sin(c)])},
        rel=1e-15,
    )
    # e^sin(x) = 1 + x + x^2/2 - x^4/8 - x^5/15 - x^6/240 + O(x^7)
    nested = ex.taylor(ex.parse("exp(sin(x1))", 1), (0.0,), 6)
    assert nested.terms == pytest.approx(
        {(0,): 1.0, (1,): 1.0, (2,): 0.5, (4,): -1 / 8, (5,): -1 / 15, (6,): -1 / 240},
        rel=1e-14, abs=1e-16,
    )
    tree = ex.parse("x3^2*exp(0.2*x2) + sin(x1*x2) - cos(x1 + x3) + x2", 3)
    center = (0.4, -0.3, 0.9)
    constant = ex.taylor(tree, center, 0)
    assert constant.terms == {(0, 0, 0): pytest.approx(ex.evaluate(tree, center), rel=1e-15)}


def test_taylor_takes_no_derivatives(monkeypatch):
    def refuse(expr, i):
        raise AssertionError("taylor differentiated symbolically")

    monkeypatch.setattr(ex, "partial", refuse)
    p = ex.taylor(ex.parse("sin(x1*x2) + exp(x3)", 3), (0.0, 0.0, 0.0), 4)
    assert p.terms == pytest.approx(
        {(1, 1, 0): 1.0, (0, 0, 0): 1.0, (0, 0, 1): 1.0, (0, 0, 2): 0.5,
         (0, 0, 3): 1 / 6, (0, 0, 4): 1 / 24},
        rel=1e-15,
    )


@pytest.mark.parametrize(
    "text, n", [("sin(x1)^1000000", 1), ("cos(x1+x2)^100000000", 2)]
)
def test_taylor_of_huge_powers_is_quick(text, n):
    tree = ex.parse(text, n)
    center = (0.0,) * n
    started = time.perf_counter()
    p = ex.taylor(tree, center, 6)
    assert time.perf_counter() - started < 1.0
    expected = reference_taylor(tree, center, 6)
    assert set(p.terms) == set(expected.terms)
    if expected.terms:
        _assert_same_series(p, expected)


def test_taylor_overflow_is_never_a_non_finite_coefficient():
    """A series leaving the float range is a named NonFiniteError, never a
    bare OverflowError or ValueError from `math`, nor a polynomial holding an
    infinity."""
    cases = [
        # exp at the center is beyond the float range
        ("exp(x1)", (1000.0,)),
        # the product of two finite series overflows
        ("exp(x1)*exp(x1)", (700.0,)),
        # the base's constant term cubed is beyond the float range
        ("(x1 + sin(x1))^3", (1e200,)),
        # sin and cos of an infinite constant term are nan
        ("sin(x1*x1)", (1e300,)),
    ]
    for text, center in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="non-finite coefficient"):
                ex.taylor(ex.parse(text, 1), center, 3)


def test_scalar_evaluate_follows_the_array_rules():
    """At a scalar point, exp beyond the float range is inf and sin or cos
    of an infinity is nan, as numpy maps an array, where `math` raises."""
    cases = [("exp(x1)", 1000.0), ("sin(x1)", math.inf), ("cos(x1^2)", -1e300),
             ("exp(x1)*sin(x1)", 710.0), ("(exp(x1) + 1)^3", 300.0)]
    for text, value in cases:
        tree = ex.parse(text, 1)
        scalar = ex.evaluate(tree, (value,))
        with np.errstate(over="ignore", invalid="ignore"):
            array = ex.evaluate(tree, (np.array([value]),))
        assert isinstance(scalar, float)
        assert np.array_equal([scalar], array, equal_nan=True)
        assert not math.isfinite(scalar)


def test_print_parse_is_fixed_point(rng):
    corpus = [
        "2*x1 - 3*x2 + x1*x3 - 15",
        "-x1 + (x2 - 1)*(x2 + 1)",
        "sin(x1)*cos(x2) - exp(0.5*x3)",
        "x1^100*x2",
        "-(x1 - x2)^3",
    ]
    trees = [ex.parse(src, 3) for src in corpus]
    trees += [_random_expr(np.random.default_rng(t), 3) for t in range(25)]
    for tree in trees:
        assert ex.parse(ex.to_text(tree), 3) == tree


def test_from_polynomial_roundtrip(rng):
    p = SparsePolynomial((0.5, -0.25), {(2, 1): 1.5, (0, 3): -0.5, (0, 0): 2.0})
    tree = ex.from_polynomial(p)
    for _ in range(20):
        y = rng.uniform(-1, 1, 2)
        assert ex.evaluate(tree, y) == pytest.approx(p.evaluate(y), rel=1e-12, abs=1e-12)


# --- exact products on exponent-code arrays ----------------------------------

LOOP_ONLY = 10**18  # an array crossover no product reaches


def _expand(monkeypatch, expr, center, min_pairs):
    """The exact series of `expr`, with every product step of at least
    `min_pairs` term pairs on the array kernel: 0 sends every step there,
    LOOP_ONLY keeps every step on the dict loop of _convolve."""
    monkeypatch.setattr(polynomials, "ARRAY_MIN_PAIRS", min_pairs)
    return ex._series(expr, center, None)


def _assert_identical(a, b):
    assert list(a.items()) == list(b.items())
    assert [c.hex() for c in a.values()] == [c.hex() for c in b.values()]


def _random_sum(rng, n, size):
    """A sum of `size` scaled monomials of degree 0 to 2 over features 1..n."""
    terms = []
    for _ in range(size):
        factors = [ex.Const(float(rng.uniform(-2, 2)))]
        factors += [ex.Var(int(i)) for i in rng.integers(1, n + 1, int(rng.integers(0, 3)))]
        terms.append(ex.Mul(tuple(factors)))
    return ex.Add(tuple(terms))


def _random_product(rng, n):
    if rng.uniform() < 0.5:
        return ex.Pow(_random_sum(rng, n, int(rng.integers(1, 7))), int(rng.integers(2, 7)))
    return ex.Mul(tuple(_random_sum(rng, n, int(rng.integers(1, 7)))
                        for _ in range(int(rng.integers(2, 5)))))


def test_array_products_are_the_dict_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(1603)
    for n in range(1, 13):
        for _ in range(6):
            expr = _random_product(rng, n)
            center = tuple(float(v) for v in rng.uniform(-1, 1, n) * (rng.uniform(size=n) < 0.6))
            loop = _expand(monkeypatch, expr, center, LOOP_ONLY)
            for min_pairs in (0, 40, polynomials.ARRAY_MIN_PAIRS):
                _assert_identical(_expand(monkeypatch, expr, center, min_pairs), loop)


def test_array_products_cancel_to_the_same_exact_zeros(monkeypatch):
    expr = ex.parse("(x1 - x2)^3 * (x1 + x2)^3 - (x1^2 - x2^2)^3 + 0.1*(x1 + x2)^6", 2)
    for center in ((0.0, 0.0), (0.3, -0.7)):
        loop = _expand(monkeypatch, expr, center, LOOP_ONLY)
        _assert_identical(_expand(monkeypatch, expr, center, 0), loop)
    bare = ex.parse("(x1 - x2)^3 * (x1 + x2)^3 - (x1^2 - x2^2)^3", 2)
    assert _expand(monkeypatch, bare, (0.0, 0.0), 0) == {}


def test_array_products_overflow_with_the_loops_error(monkeypatch):
    expr = ex.parse("(1e200*x1 - 3e200*x2 + x3)^2 + (x1 + x2)^2", 3)
    errors = []
    for min_pairs in (LOOP_ONLY, 0):
        monkeypatch.setattr(polynomials, "ARRAY_MIN_PAIRS", min_pairs)
        # and silently: a numpy warning would reach stderr
        with pytest.raises(NonFiniteError) as caught, warnings.catch_warnings():
            warnings.simplefilter("error")
            ex.to_polynomial(expr, (0.5, 0.0, -1.0))
        errors.append(str(caught.value))
    assert errors[0] == errors[1] and "non-finite coefficient" in errors[0]


def test_array_products_larger_than_one_block(monkeypatch):
    expr = ex.parse("(x1 + 2*x2 - x3 + 0.5*x4 + 1)^5 * (x1 - x4 + 0.25)^3", 4)
    center = (0.1, -0.2, 0.0, 0.3)
    loop = _expand(monkeypatch, expr, center, LOOP_ONLY)
    for block in (1, 7, 64):
        monkeypatch.setattr(polynomials, "ARRAY_BLOCK", block)
        _assert_identical(_expand(monkeypatch, expr, center, 0), loop)


def test_codes_too_wide_for_int64_take_the_loop(monkeypatch):
    n = 24
    base = ex._series(ex.parse(" + ".join(f"{i}*x{i}^3" for i in range(1, n + 1)), n),
                      (0.0,) * n, None)
    zero = (0,) * n
    monkeypatch.setattr(polynomials, "ARRAY_MIN_PAIRS", LOOP_ONLY)
    loop = polynomials.product([(base, 2)], zero, None)

    def refuse(*arrays):
        raise AssertionError("a code of 7^24 values went to the array kernel")

    monkeypatch.setattr(polynomials, "ARRAY_MIN_PAIRS", 0)
    monkeypatch.setattr(polynomials, "_array_product", refuse)
    _assert_identical(polynomials.product([(base, 2)], zero, None), loop)
    assert len(loop) == n * (n + 1) // 2


@pytest.mark.parametrize("min_pairs", [LOOP_ONLY, 0])
def test_array_products_keep_the_term_and_degree_caps(monkeypatch, min_pairs):
    monkeypatch.setattr(polynomials, "ARRAY_MIN_PAIRS", min_pairs)
    monkeypatch.setattr(polynomials, "ARRAY_BLOCK", 16)
    monkeypatch.setattr(polynomials, "MAX_TERMS", 100)
    with pytest.raises(CapExceededError, match="^polynomial expansion exceeds the term cap$"):
        ex.to_polynomial(ex.parse("(x1 + x2 + x3 + x4 + 1)^5", 4), (0.0,) * 4)
    assert len(ex.to_polynomial(ex.parse("(x1 + x2 + x3 + 1)^4", 3), (0.0,) * 3).terms) == 35
    center = (0.25, -0.5)
    for text in ("(x1+1)^5000", "(x1+1)^200 - (x1+1)^200", "((x1*x2)^8)^9"):
        with pytest.raises(CapExceededError, match="^total degree .* exceeds cap 128$"):
            ex.to_polynomial(ex.parse(text, 2), center)


@pytest.mark.parametrize("min_pairs", [LOOP_ONLY, 0])
def test_product_steps_are_capped_by_their_pair_count(monkeypatch, min_pairs):
    """A product step of more than MAX_PRODUCT_PAIRS term pairs raises,
    naming its count, exact (on either route) or truncated, and so does a
    power step of a truncated composition; a step of exactly the cap runs."""
    monkeypatch.setattr(polynomials, "ARRAY_MIN_PAIRS", min_pairs)
    # two cubes of 35 terms each, all of degree <= 3
    cubes = ex.parse("(x1 + x2 + x3 + x4 + 1)^3 * (x1 - x2 + x3 - x4 + 2)^3", 4)
    monkeypatch.setattr(polynomials, "MAX_PRODUCT_PAIRS", 35 * 35 - 1)
    for order in (None, 6):
        with pytest.raises(
            CapExceededError, match="^a product step of 1225 term pairs exceeds cap 1224$"
        ):
            ex._series(cubes, (0.0,) * 4, order)
    # the 11th power of a 4-term sum (364 terms) times the sum: 1,456 pairs
    with pytest.raises(CapExceededError, match="^a product step of 1456 term pairs"):
        ex.taylor(ex.parse("sin(x1 + x2 + x3 + x4)", 4), (0.5,) * 4, 12)
    monkeypatch.setattr(polynomials, "MAX_PRODUCT_PAIRS", 35 * 35)
    for order in (None, 6):
        assert len(ex._series(cubes, (0.0,) * 4, order)) == 170  # 40 terms cancel


def test_to_polynomial_stores_what_the_validated_construction_stores(monkeypatch):
    expr = ex.parse("(0.3*x1 - 0.7*x2 + 0.45*x3)^5 + x3*(x1 - 2)^2 - 4", 3)
    center = (0.25, 0.5, -0.3)
    p = ex.to_polynomial(expr, center)
    validated = SparsePolynomial(center, _expand(monkeypatch, expr, center, LOOP_ONLY))
    assert p.center == validated.center
    _assert_identical(p.terms, validated.terms)
    # an integer center gives a float coefficient too
    shifted = ex.to_polynomial(ex.Var(1), (2,))
    assert list(shifted.terms.items()) == [((0,), 2.0), ((1,), 1.0)]
    assert type(shifted.terms[(0,)]) is float



def test_taylor_stores_what_the_validated_construction_stores():
    """`taylor` trusts its series (`SparsePolynomial._exact`); it stores the
    terms the constructor makes of them, all floats, for a numpy center too."""
    expr = ex.parse("sin(x1*x2) + exp(x2 - x3)*x1 - 0.5*cos(x3)^2", 3)
    for center in ((0.25, -0.5, 0.75), tuple(np.array([0.25, -0.5, 0.75]))):
        p = ex.taylor(expr, center, 6)
        validated = SparsePolynomial(center, ex._series(expr, center, 6))
        assert p.center == validated.center
        _assert_identical(p.terms, validated.terms)
        assert all(type(c) is float for c in p.terms.values())

# --- the series walker, pinned bit for bit ------------------------------------

# taylor of sin/cos/exp mixes whose arguments vanish at the center (so no libm
# value but sin(0), cos(0) and exp(0) enters), and to_polynomial of
# cancelling products at nonzero centers: each case's terms, in order, with
# their coefficients as float.hex
SERIES_BITS = json.loads((Path(__file__).parent / "data" / "series-bits.json").read_text())


@pytest.mark.parametrize("case", SERIES_BITS, ids=lambda case: case["expr"])
def test_series_terms_are_pinned_bit_for_bit(case):
    center = tuple(case["center"])
    expr = ex.parse(case["expr"], len(center))
    if case["order"] is None:
        p = ex.to_polynomial(expr, center)
    else:
        p = ex.taylor(expr, center, case["order"])
    assert [[list(m), c.hex()] for m, c in p.terms.items()] == case["terms"]
