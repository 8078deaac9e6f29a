import math
import time

import numpy as np
import pytest

from synergy import expressions as ex
from synergy import grad_numeric
from synergy.core import Instance
from synergy.exceptions import CapExceededError
from synergy.grad_exact import integrated_gradients, integrated_hessian
from synergy.grad_numeric import (
    MAX_QUADRATURE_POINTS,
    QuadratureConfig,
    ig_quadrature,
    ih2_quadrature,
)
from tests.conftest import ih2_tensor_grid, make_polynomial, oracle_corpus


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes=1)
    with pytest.raises(ValueError):
        QuadratureConfig(panels=0)


def test_config_caps_nodes_times_panels():
    assert QuadratureConfig(nodes=256, panels=4).nodes == 256
    QuadratureConfig(nodes=MAX_QUADRATURE_POINTS, panels=1)
    for nodes, panels in ((MAX_QUADRATURE_POINTS + 1, 1), (257, 4), (10**8, 4)):
        with pytest.raises(ValueError, match="exceeds the cap"):
            QuadratureConfig(nodes=nodes, panels=panels)


def test_ig_quadrature_quadratic_example():
    tree = ex.parse("2*x1 - 3*x2 + x1*x3 - 15", 3)
    inst = Instance(x=(1.0, 1.0, 1.0), baseline=(0.0, 0.0, 0.0))
    report = ig_quadrature(tree, inst)
    # the x1*x3 synergy splits between features 1 and 3: 2 + 0.5 and 0.5
    assert report.value((1,)) == pytest.approx(2.5, abs=1e-12)
    assert report.value((2,)) == pytest.approx(-3.0, abs=1e-12)
    assert report.value((3,)) == pytest.approx(0.5, abs=1e-12)
    assert report.total() == pytest.approx(0.0, abs=1e-12)
    assert report.value(()) == -15.0


def test_ig_quadrature_sine_fundamental_theorem():
    tree = ex.parse("c*sin(x2)", 2, {"c": 1.75})
    inst = Instance(x=(0.4, math.pi / 2), baseline=(0.0, 0.0))
    report = ig_quadrature(tree, inst)
    assert report.value((2,)) == pytest.approx(1.75, abs=1e-10)
    assert report.value((1,)) == 0.0


def test_ig_quadrature_matches_exact_on_polynomials(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        p = make_polynomial(rng, n, degree=10, density=0.2)
        x = tuple(rng.uniform(-1, 1, n))
        inst = Instance(x=x, baseline=p.center)
        numeric = ig_quadrature(ex.from_polynomial(p), inst)
        exact = integrated_gradients(p, x)
        for coalition, value in exact.entries.items():
            assert numeric.entries[coalition] == pytest.approx(
                value, rel=1e-8, abs=1e-10
            )


def test_ih2_quadrature_matches_exact_on_polynomials(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        p = make_polynomial(rng, n, degree=8, density=0.25)
        x = tuple(rng.uniform(-1, 1, n))
        inst = Instance(x=x, baseline=p.center)
        numeric = ih2_quadrature(ex.from_polynomial(p), inst)
        exact = integrated_hessian(p, x, 2)
        assert numeric.max_abs_difference(exact) < 1e-8


def test_ih2_quadrature_product_monomial():
    tree = ex.parse("x1*x2", 2)
    inst = Instance(x=(0.7, -1.2), baseline=(0.0, 0.0))
    report = ih2_quadrature(tree, inst)
    value = 0.7 * -1.2
    assert report.value((1, 2)) == pytest.approx(value / 2, abs=1e-12)
    assert report.value((1,)) == pytest.approx(value / 4, abs=1e-12)
    assert report.value((2,)) == pytest.approx(value / 4, abs=1e-12)
    assert report.total() == pytest.approx(value, abs=1e-12)


def test_ih2_quadrature_completeness_transcendental():
    tree = ex.parse("exp(0.5*x1)*sin(x2) + x1*cos(x2)", 2)
    inst = Instance(x=(0.8, -0.6), baseline=(0.0, 0.0))
    report = ih2_quadrature(tree, inst)
    target = ex.evaluate(tree, inst.x) - ex.evaluate(tree, inst.baseline)
    assert report.total() == pytest.approx(target, abs=1e-7)


@pytest.mark.parametrize("panels", [1, 4])
@pytest.mark.parametrize("nodes", [2, 64, 1024])
def test_log_weight_rule_is_gauss(nodes, panels):
    """Every node inside (0, 1), every weight positive, and the moments
    int_0^1 u^d (-ln u) du = 1/(d+1)^2 exact to 1e-13 for d < 2*nodes."""
    u, w = grad_numeric._log_weight_rule(nodes, panels)
    assert u.size == w.size == nodes * panels
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.all(np.diff(u) > 0.0)
    assert np.all(w > 0.0)
    for d in range(min(2 * nodes, 128)):
        assert float(w @ u**d) == pytest.approx(1.0 / (d + 1) ** 2, rel=1e-13, abs=0.0)


def test_ih2_log_weight_rule_matches_tensor_grid_on_oracle_corpus():
    """The acceptance corpus of degree-8 polynomials: the integrands have
    degree <= 7 in s and in t, so the 16-node tensor grid is exact there up
    to rounding, like the default 64 x 4 one."""
    worst = 0.0
    for p, x in oracle_corpus(11)[2]:
        inst = Instance(x=x, baseline=p.center)
        tree = ex.from_polynomial(p)
        reference = ih2_tensor_grid(tree, inst, QuadratureConfig(nodes=16, panels=1))
        worst = max(worst, ih2_quadrature(tree, inst).max_abs_difference(reference))
    assert worst <= 1e-10


@pytest.mark.parametrize(
    "text, x, baseline",
    [
        ("exp(0.5*x1)*sin(x2) + x1*cos(x2)", (0.8, -0.6), (0.0, 0.0)),
        ("sin(3*x1*x2) + exp(x1)*cos(2*x2)", (1.3, -0.9), (0.2, 0.4)),
        ("exp(x1*x2*x3) - cos(x1 + x3)", (0.9, 0.7, -1.1), (0.0, 0.0, 0.0)),
        ("sin(x1)^3*exp(-x2) + cos(5*x1)*x2^2", (2.0, 1.5), (-0.5, 0.0)),
        ("x1*sin(x2*x3)*exp(cos(x1))", (1.1, -0.8, 1.6), (0.3, 0.0, -0.2)),
    ],
)
def test_ih2_log_weight_rule_matches_tensor_grid_on_transcendental(text, x, baseline):
    tree = ex.parse(text, len(x))
    inst = Instance(x=x, baseline=baseline)
    reference = ih2_tensor_grid(tree, inst)
    assert ih2_quadrature(tree, inst).max_abs_difference(reference) <= 1e-10


def test_ig_quadrature_completeness_transcendental():
    tree = ex.parse("exp(x1*x2) - 1 + 0.3*sin(x1)", 2)
    inst = Instance(x=(0.9, 0.4), baseline=(0.0, 0.0))
    report = ig_quadrature(tree, inst)
    target = ex.evaluate(tree, inst.x) - ex.evaluate(tree, inst.baseline)
    assert report.total() == pytest.approx(target, abs=1e-7)


def test_quadrature_error_decreases_with_node_doubling():
    """On a polynomial path integrand the error drops monotonically (within a
    1e-12 floor) as nodes double, and hits exactness once 2*nodes - 1 covers
    the path degree."""
    p = make_polynomial(np.random.default_rng(4), 2, degree=11, density=0.6)
    x = (0.9, -0.8)
    inst = Instance(x=x, baseline=p.center)
    tree = ex.from_polynomial(p)
    exact = integrated_gradients(p, x)
    errors = []
    for nodes in (2, 4, 8, 16):
        numeric = ig_quadrature(tree, inst, QuadratureConfig(nodes=nodes, panels=1))
        errors.append(numeric.max_abs_difference(exact))
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous + 1e-12
    # integrand degree along the path is at most 10, so 6 nodes suffice
    assert errors[-1] < 1e-12
    assert errors[-2] < 1e-12


def test_quadrature_skips_features_at_baseline():
    tree = ex.parse("x1*x2 + x1", 2)
    inst = Instance(x=(0.5, 0.0), baseline=(0.0, 0.0))
    report = ig_quadrature(tree, inst)
    assert report.value((2,)) == 0.0
    assert report.total() == pytest.approx(0.5, abs=1e-12)


def test_quadrature_work_cap_counts_tree_nodes_times_samples(monkeypatch):
    # the walk visits the 3 nodes of x1*x2 on 256 points, carrying 1 + 2
    # rows (value, gradient) for ig and 1 + 2 + 4 (and the Hessian) for ih2
    tree = ex.parse("x1*x2", 2)
    inst = Instance(x=(0.7, -1.2), baseline=(0.0, 0.0))
    for engine, work in ((ig_quadrature, 3 * 3 * 256), (ih2_quadrature, 3 * 7 * 256)):
        monkeypatch.setattr(grad_numeric, "MAX_QUADRATURE_WORK", work)
        engine(tree, inst)
        monkeypatch.setattr(grad_numeric, "MAX_QUADRATURE_WORK", work - 1)
        with pytest.raises(CapExceededError, match="quadrature work"):
            engine(tree, inst)


def test_quadrature_work_cap_rejects_nested_input_before_sampling(monkeypatch):
    # 164 nodes, 1 + 63 + 63^2 rows, 1024 samples: 6.8e8 units of work
    text = "sin(" * 100 + "+".join(f"x{i}" for i in range(1, 64)) + ")" * 100
    tree = ex.parse(text, 63)
    inst = Instance(x=(0.5,) * 63, baseline=(0.0,) * 63)
    config = QuadratureConfig(nodes=256, panels=4)
    assert ex.tree_size(tree, {}) * 4033 * 1024 > grad_numeric.MAX_QUADRATURE_WORK

    def refuse(*args):
        raise AssertionError("built the rule or sampled an input over the work cap")

    monkeypatch.setattr(grad_numeric, "jet", refuse)
    monkeypatch.setattr(grad_numeric, "_log_weight_rule", refuse)
    with pytest.raises(CapExceededError, match="exceeds the cap"):
        ih2_quadrature(tree, inst, config)


def test_ih2_quadrature_runs_deeply_nested_sine():
    """One walk carries the derivatives, so the 100-level nested sine, whose
    symbolic second partials held 2.2 million nodes, runs at once; at 40
    levels it reads the values the symbolic integrands gave."""
    inst = Instance(x=(0.5, 0.3), baseline=(0.0, 0.0))
    for depth, expected in ((40, (0.03287466169412683, 0.06574932338825366)), (100, None)):
        tree = ex.parse("sin(" * depth + "x1*x2" + ")" * depth, 2)
        start = time.perf_counter()
        report = ih2_quadrature(tree, inst)
        assert time.perf_counter() - start < 1.0
        values = [report.value(c) for c in ((1,), (1, 2), (2,))]
        assert all(map(math.isfinite, values))
        target = ex.evaluate(tree, inst.x) - ex.evaluate(tree, inst.baseline)
        assert report.total() == pytest.approx(target, abs=1e-12)
        if expected is not None:
            assert values == [expected[0], expected[1], expected[0]]
