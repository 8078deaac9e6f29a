import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synergy import axioms, set_methods
from synergy import expressions as ex
from synergy.axioms import (
    SuiteConfig,
    _permute_trial,
    _pure_synergy_trial,
    _random_polynomial,
    _random_trial,
    check_baseline_test,
    check_completeness,
    check_continuity,
    check_interaction_distribution,
    check_linearity,
    check_null_feature,
    check_symmetry,
    check_uniqueness_support,
    run_suite,
)
from synergy.core import Instance, InteractionReport
from synergy.exceptions import NonFiniteError
from synergy.methods import SUITE_METHODS, Method
from synergy.polynomials import SparsePolynomial, multi_indices


def _scaled_shapley(table, k, factor=0.9):
    report = set_methods.shapley(table)
    entries = {c: factor * v for c, v in report.entries.items()}
    entries[()] = report.entries[()]
    return InteractionReport.from_entries(report.n, 1, entries)


BROKEN_COMPLETENESS = Method("broken", "table", 1, _scaled_shapley)


def _leaky_shapley(table, k):
    report = set_methods.shapley(table)
    entries = dict(report.entries)
    entries[(1,)] = entries[(1,)] + 0.05
    return InteractionReport.from_entries(report.n, 1, entries)


BROKEN_NULL = Method("leaky", "table", 1, _leaky_shapley)


def test_completeness_passes_for_shapley():
    result = check_completeness("shapley", trials=50, seed=1)
    assert result.status == "pass"
    assert result.max_residual < 1e-10


def test_completeness_catches_planted_fault():
    result = check_completeness(BROKEN_COMPLETENESS, trials=20, seed=1)
    assert result.status == "fail"
    assert result.witness is not None
    assert result.witness["kind"] == "table"


def test_completeness_quadrature_on_transcendental():
    result = check_completeness("ig-quad", trials=25, seed=2)
    assert result.status == "pass"
    assert result.max_residual < 1e-7


def test_linearity_exact_and_quadrature():
    assert check_linearity("ih", trials=30, seed=3).status == "pass"
    assert check_linearity("ig-quad", trials=10, seed=3).status == "pass"


def test_null_feature_passes_and_catches_fault():
    assert check_null_feature("sop", trials=30, seed=4).status == "pass"
    result = check_null_feature(BROKEN_NULL, trials=20, seed=4)
    assert result.status == "fail"
    assert result.witness["coalition"] == [1]


def test_symmetry_pass():
    assert check_symmetry("shapley-taylor", trials=30, seed=5).status == "pass"
    assert check_symmetry("sop", trials=30, seed=5).status == "pass"


def test_baseline_test_expected_failures_have_witnesses():
    failing = check_baseline_test("ih", trials=30, seed=6)
    assert failing.status == "fail"
    assert failing.ok  # documented violator
    assert failing.witness["coalition"]
    passing = check_baseline_test("ih-aug", trials=30, seed=6)
    assert passing.status == "pass" and passing.ok


def test_interaction_distribution_matrix():
    assert check_interaction_distribution("shapley-taylor", 30, seed=7).status == "pass"
    assert check_interaction_distribution("sop", 30, seed=7).status == "pass"
    assert check_interaction_distribution("rs-aug", 30, seed=7).status == "fail"
    assert check_interaction_distribution("ih-aug", 30, seed=7).status == "fail"
    na = check_interaction_distribution("shapley", 30, seed=7)
    assert na.status == "not-applicable" and na.ok


def test_continuity_against_quadrature_reference():
    probe = ex.parse("exp(x1*x2) - 1", 2)
    inst = Instance(x=(0.5, 0.5), baseline=(0.0, 0.0))
    result = check_continuity("ig", probe, inst, max_order=10, k=1)
    assert result.status == "pass"
    assert result.details["mode"] == "quadrature-reference"
    residuals = result.details["residuals"]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < 1e-6


def test_continuity_on_polynomial_input_is_immediate():
    probe = ex.parse("x1^3*x2 - 2*x1", 2)
    inst = Instance(x=(0.5, -0.75), baseline=(0.0, 0.0))
    result = check_continuity("ig", probe, inst, max_order=8, k=1)
    assert result.status == "pass"
    # truncations at or past the degree are the polynomial itself
    assert result.details["residuals"][-1] == result.details["residuals"][-2]


def test_continuity_self_convergence_mode():
    probe = ex.parse("sin(x1)*sin(x2)", 2)
    inst = Instance(x=(0.5, 0.5), baseline=(0.0, 0.0))
    result = check_continuity("sop", probe, inst, max_order=12, k=2)
    assert result.details["mode"] == "cauchy-self-convergence"
    assert result.status == "pass"


def test_continuity_names_a_series_beyond_the_float_range():
    """The methods without a quadrature reference go straight to `taylor`,
    whose series at this baseline leaves the float range."""
    probe = ex.parse("exp(x1*x2) - 1", 2)
    inst = Instance(x=(1001.0, 1.0), baseline=(1000.0, 1.0))
    for method in ("ih-aug", "sop"):
        with pytest.raises(NonFiniteError, match="non-finite coefficient"):
            check_continuity(method, probe, inst, max_order=4, k=2)


def test_uniqueness_support():
    result = check_uniqueness_support(trials=50, seed=8)
    assert result.status == "pass"
    assert result.max_residual < 1e-10


def test_suite_is_deterministic():
    config = SuiteConfig(seed=77, trials=10, methods=("shapley", "rs"))
    first = run_suite(config).to_json_dict()
    second = run_suite(config).to_json_dict()
    assert first == second


def test_suite_draws_and_witnesses_are_pinned():
    """`check --seed 2024 --trials 20`, cell by cell, against recorded values.

    Table and polynomial cells are pinned whole: residual and witness fix the
    random draw order and the witness rule. Quadrature cells and continuity
    (measured against the quadrature engine) keep only status and trials,
    because LAPACK and SIMD sin/cos/exp may differ in the last bits between
    machines.
    """
    path = Path(__file__).parent / "data" / "suite_seed2024_trials20.json"
    recorded = json.loads(path.read_text())
    cells = run_suite(SuiteConfig(seed=2024, trials=20)).to_json_dict()["results"]
    assert len(cells) == len(recorded)
    for cell, expected in zip(cells, recorded):
        assert {key: cell[key] for key in expected} == expected


def _random_polynomial_one_draw_at_a_time(rng, n, degree=6, density=0.3, exclude=None):
    """One rng.uniform() per candidate multi-index and, after each hit, its
    coefficient: the stream `_random_polynomial` fetches in blocks (reference)."""
    terms = {}
    for m in multi_indices(n, degree):
        if exclude is not None and m[exclude - 1] > 0:
            continue
        if rng.uniform() < density:
            terms[m] = float(rng.uniform(-1, 1))
    if not terms:
        fallback = 1 if exclude != 1 else 2
        unit = tuple(1 if i == fallback - 1 else 0 for i in range(n))
        terms[unit] = float(rng.uniform(-1, 1))
    return SparsePolynomial((0.0,) * n, terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("density", [0.3, 0.02])
def test_random_polynomial_replays_the_one_draw_stream(n, density):
    """Same terms, in the same order, and the same generator afterwards: a
    buffered 32-bit half left by an earlier integers() call survives, and the
    integers, uniform and permutation draws that follow are unchanged. The
    low density reaches the no-term fallback."""
    for seed in range(20):
        for exclude in (None, *range(1, n + 1)):
            runs = []
            for draw in (_random_polynomial_one_draw_at_a_time, _random_polynomial):
                rng = np.random.default_rng([seed, n])
                rng.integers(1, n + 1)
                assert rng.bit_generator.state["has_uint32"] == 1
                p = draw(rng, n, density=density, exclude=exclude)
                after = (
                    rng.integers(0, 2**40, size=3).tolist(),
                    rng.integers(1, n + 1),
                    rng.uniform(-1, 1),
                    rng.permutation(n).tolist(),
                )
                runs.append((list(p.terms.items()), after))
            assert runs[0] == runs[1]


class _OneDraw:
    """A generator stand-in whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)

    def uniform(self, low, high):
        return low + (high - low) * self.u


@pytest.mark.parametrize("density", [0.3, 0.6])
def test_random_polynomial_drops_a_zero_coefficient(density):
    """A draw of exactly 0.5 makes the coefficient -1 + 2 * 0.5 = 0.0, as a
    term (density 0.6) or as the fallback's (0.3); it is dropped, as the
    constructor drops it."""
    poly = _random_polynomial(_OneDraw(0.5), 3, density=density)
    assert poly.terms == {} and len(poly.coefficients) == 0


def test_trusted_trial_polynomials_equal_the_validated_construction():
    """The harness builds its polynomial trials (random, low-density
    fallback, permuted, pure-synergy) through the trusted
    `SparsePolynomial._exact`; each holds the terms, in the order and to the
    bit, that the validating constructor makes of the same mapping."""
    checked = 0
    for seed in range(300):
        rng = np.random.default_rng([seed, 20])
        method = SUITE_METHODS[("ig", "ih", "ih-aug", "sop")[seed % 4]]
        trial, _ = _random_trial(method, rng, null_feature=seed % 2 == 1)
        permutation = [int(v) for v in rng.permutation(range(1, trial.n + 1))]
        pure, _ = _pure_synergy_trial(method, rng, within_order=seed % 3 == 0)
        sparse = _random_polynomial(rng, int(rng.integers(2, 5)), density=0.02)
        for poly in (
            trial.function, _permute_trial(trial, permutation).function, pure.function, sparse
        ):
            built = SparsePolynomial(poly.center, dict(poly.terms))
            assert poly.center == built.center
            assert list(poly.terms) == list(built.terms)
            assert [c.hex() for c in poly.terms.values()] == [
                c.hex() for c in built.terms.values()
            ]
            checked += 1
    assert checked == 1200


CELLS = [check_completeness, check_linearity, check_null_feature, check_symmetry,
         check_baseline_test, check_interaction_distribution]


@pytest.mark.parametrize("small", [False, True], ids=["one-batch", "small-batches"])
@pytest.mark.parametrize(
    "method", ["shapley", "shapley-taylor", "rs", "rs-aug", "ig", "ih", "ih-aug", "sop"]
)
def test_batched_cells_equal_trial_by_trial_cells(monkeypatch, method, small):
    """A cell whose method carries a shared-kernel rule runs its trials in
    batches; the same record without the rule runs `run` trial by trial.
    Both give the same result, residual and witness to the bit, whether a
    batch holds every trial or the trials are split into many batches.
    Uniqueness support batches its two full-order rules the same way."""
    if small:
        monkeypatch.setattr(axioms, "_BATCH_TRIALS", 7)
    batched = SUITE_METHODS[method]
    one_by_one = replace(batched, rule=None)
    for seed, check in enumerate(CELLS):
        # at tolerance 0 every cell with a residual fails and describes its witness
        got = check(batched, 30, seed=seed, tol=0.0).to_json_dict()
        assert got == check(one_by_one, 30, seed=seed, tol=0.0).to_json_dict()
    if method == "shapley":
        got = check_uniqueness_support(40, seed=3, tol=0.0)
        registry = {m: replace(SUITE_METHODS[m], rule=None) for m in ("shapley-taylor", "rs-aug")}
        monkeypatch.setattr(axioms, "REGISTRY", registry)
        assert got == check_uniqueness_support(40, seed=3, tol=0.0)


def test_a_method_without_a_rule_runs_once_per_report():
    """A record with no shared-kernel rule has its `run` called for every
    report a trial needs, in draw order, and scores as the batched rule."""
    calls = []

    def counted(table, k):
        calls.append((table, k))
        return set_methods.shapley_taylor(table, k)

    spy = Method("shapley-taylor", "table", None, counted)
    expected = {check_completeness: 12, check_linearity: 36, check_symmetry: 24,
                check_baseline_test: 12}
    for check, count in expected.items():
        calls.clear()
        result = check(spy, 12, seed=9)
        assert len(calls) == count
        assert result == check("shapley-taylor", 12, seed=9)
    calls.clear()
    check_completeness(spy, 5, seed=9)
    drawn = [axioms._random_trial(spy, axioms._rng(9, t))[0].function for t in range(5)]
    assert [table for table, _ in calls] == drawn


def test_suite_honors_expected_failures():
    config = SuiteConfig(
        seed=3, trials=15, methods=("rs", "ih"), axioms=("baseline-test",)
    )
    result = run_suite(config)
    assert result.ok
    assert all(r.status == "fail" for r in result.results)


def test_suite_flags_unexpected_failure():
    registry = dict(SUITE_METHODS)
    registry["shapley"] = Method("shapley", "table", 1, _scaled_shapley)
    config = SuiteConfig(seed=3, trials=10, methods=("shapley",), axioms=("completeness",))
    result = run_suite(config, methods=registry)
    assert not result.ok


def test_suite_tolerance_overrides():
    config = SuiteConfig(
        seed=5,
        trials=10,
        methods=("shapley",),
        axioms=("completeness",),
        tolerance_overrides={"completeness": 1e-30},
    )
    result = run_suite(config)
    assert not result.ok  # machine noise now counts as failure


def test_suite_config_json_roundtrip():
    payload = {
        "seed": 9,
        "trials": 25,
        "methods": ["shapley", "ig"],
        "axioms": ["completeness"],
        "tolerance_overrides": {"completeness": 1e-9},
    }
    config = SuiteConfig.from_json_dict(payload)
    assert config.seed == 9
    assert config.methods == ("shapley", "ig")
    result = run_suite(config)
    assert result.ok
