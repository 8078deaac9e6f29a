import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synergy import axioms, grad_exact, set_methods
from synergy import expressions as ex
from synergy.axioms import (
    AXIOMS,
    CheckResult,
    SuiteConfig,
    Trial,
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
    expected_status,
    run_suite,
)
from synergy.combinatorics import coalition_count
from synergy.core import Instance, InteractionReport, report_from_values
from synergy.exceptions import NonFiniteError, SynergyError
from synergy.methods import REGISTRY, SUITE_METHODS, Method
from synergy.polynomials import SparsePolynomial, multi_indices, term_sum
from synergy.set_methods import SetFunctionTable, mobius, permute_table, pure_synergy_table


def _scaled_shapley(table, k, factor=0.9):
    report = set_methods.shapley(table)
    entries = {c: factor * v for c, v in report.entries.items()}
    entries[()] = report.entries[()]
    return report_from_values(report.n, 1, entries)


BROKEN_COMPLETENESS = Method("broken", "table", 1, _scaled_shapley)


def _leaky_shapley(table, k):
    report = set_methods.shapley(table)
    entries = dict(report.entries)
    entries[(1,)] = entries[(1,)] + 0.05
    return report_from_values(report.n, 1, entries)


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


# The expected status of every suite cell, one row per method, one column
# per axiom in AXIOMS order.
EXPECTED_MATRIX = {
    "shapley": ["pass", "pass", "pass", "pass", "pass", "n/a", "n/a"],
    "shapley-taylor": ["pass", "pass", "pass", "pass", "pass", "pass", "n/a"],
    "rs": ["pass", "pass", "pass", "pass", "fail", "fail", "n/a"],
    "rs-aug": ["pass", "pass", "pass", "pass", "pass", "fail", "n/a"],
    "ig": ["pass", "pass", "pass", "pass", "pass", "n/a", "pass"],
    "ih": ["pass", "pass", "pass", "pass", "fail", "fail", "pass"],
    "ih-aug": ["pass", "pass", "pass", "pass", "pass", "fail", "pass"],
    "sop": ["pass", "pass", "pass", "pass", "pass", "pass", "pass"],
    "ig-quad": ["pass", "pass", "pass", "pass", "pass", "n/a", "n/a"],
    "ih-quad": ["pass", "pass", "pass", "pass", "fail", "fail", "n/a"],
}


def test_expected_status_matrix_is_pinned():
    assert {
        m: [expected_status(mut, axiom) for axiom in AXIOMS] for m, mut in SUITE_METHODS.items()
    } == EXPECTED_MATRIX
    assert list(SUITE_METHODS) == list(EXPECTED_MATRIX)


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


CELLS = [check_completeness, check_linearity, check_null_feature, check_symmetry,
         check_baseline_test, check_interaction_distribution]


# one method per kind: table, polynomial and analytic
DRAW_METHODS = ("shapley-taylor", "ih", "ih-quad")
DRAWS = Path(__file__).parent / "data" / "golden" / "draws-seed2024.json"


def _recorded_draws(monkeypatch):
    """Per cell, `describe()` of every trial each draw requests, in request
    order, for the first 20 trials of every (axiom, kind) cell and of
    uniqueness support at seed 2024. The draws run through the harness's own
    trial loop, so its generators are the ones pinned."""
    cells = []
    trial_result = axioms._trial_result

    def recording(method_id, axiom, expected, trials, seed, tol, draw):
        described = []
        cells.append({"method": method_id, "axiom": axiom, "trials": described})

        def logged(rng):
            needed, score = draw(rng)
            described.append([trial.describe() for _, trial in needed])
            return needed, score

        return trial_result(method_id, axiom, expected, trials, seed, tol, logged)

    monkeypatch.setattr(axioms, "_trial_result", recording)
    for check in CELLS:
        for method in DRAW_METHODS:
            check(method, 20, seed=2024)
    check_uniqueness_support(20, seed=2024)
    return json.loads(json.dumps(cells))


def test_draws_are_pinned(monkeypatch):
    """Every drawn bit of every kind of trial, analytic ones included, which
    no check golden covers: n, k, table values, polynomial terms, expression
    text and x, to the last bit (JSON floats round-trip exactly). The draws
    are pure PCG64 arithmetic, so the file holds on every platform."""
    recorded = [json.loads(line) for line in DRAWS.read_text().splitlines()]
    assert _recorded_draws(monkeypatch) == recorded


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
    """Same terms, in the same order, and the same generator afterwards, for
    the array draw and its term-map reference alike: a buffered 32-bit half
    left by an earlier integers() call survives, and the integers, uniform
    and permutation draws that follow are unchanged. The low density
    reaches the no-term fallback."""
    for seed in range(20):
        for exclude in (None, *range(1, n + 1)):
            runs = []
            for draw in (_random_polynomial_one_draw_at_a_time, _random_polynomial,
                         _dict_random_polynomial):
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
            assert runs[0] == runs[1] == runs[2]


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
    fallback, permuted, combined, pure-synergy) as term arrays, without a
    term dict; each holds read-only int64 rows and float64 coefficients,
    and the terms, in the order and to the bit, that the validating
    constructor makes of the same mapping."""
    checked = 0
    for seed in range(300):
        rng = np.random.default_rng([seed, 20])
        method = SUITE_METHODS[("ig", "ih", "ih-aug", "sop")[seed % 4]]
        trial, _ = _random_trial(method, rng, null_feature=seed % 2 == 1)
        permutation = [int(v) for v in rng.permutation(range(1, trial.n + 1))]
        pure, _ = _pure_synergy_trial(method, rng, within_order=seed % 3 == 0)
        sparse = _random_polynomial(rng, int(rng.integers(2, 5)), density=0.02)
        other = _random_polynomial(rng, trial.n)
        combined = axioms._combine(trial, replace(trial, function=other), -1.5, 0.25).function
        for poly in (
            trial.function, _permute_trial(trial, permutation).function, pure.function, sparse,
            combined,
        ):
            assert "terms" not in poly.__dict__
            rows, coefficients = poly.exponent_array, poly.coefficients
            assert rows.dtype == np.int64 and rows.shape == (len(coefficients), poly.n)
            assert coefficients.dtype == np.float64
            assert not rows.flags.writeable and not coefficients.flags.writeable
            built = SparsePolynomial(poly.center, dict(poly.terms))
            assert poly.center == built.center
            assert list(poly.terms) == list(built.terms)
            assert [c.hex() for c in poly.terms.values()] == [
                c.hex() for c in built.terms.values()
            ]
            checked += 1
    assert checked == 1500


def test_drawing_and_scoring_trials_builds_no_term_dict():
    """Completeness, linearity and symmetry batches of every polynomial
    method, drawn, run and scored as a cell runs them, read each trial's
    term arrays only: no trial polynomial builds its term dict."""
    for method in ("ig", "ih", "ih-aug", "sop"):
        mut = SUITE_METHODS[method]
        for draw in (axioms._completeness, axioms._linearity, axioms._symmetry):
            drawn = [draw(mut, np.random.default_rng([seed, 28])) for seed in range(40)]
            requests = [request for needed, _ in drawn for request in needed]
            rows = iter(axioms._rows(requests))
            for needed, score in drawn:
                score(*(next(rows) for _ in needed))
            for _, trial in requests:
                assert "terms" not in trial.function.__dict__


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
    rngs = [np.random.default_rng([9, t]) for t in range(5)]
    drawn = [axioms._random_trial(spy, rng)[0].function for rng in rngs]
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


# ---------------------------------------------------------------------------
# Reference harness: the checks trial by trial on term maps and report
# entries, as the harness ran them before its trials and scores moved to
# arrays. Table and polynomial kinds, the ones whose methods carry a rule.
# ---------------------------------------------------------------------------

def _dict_random_polynomial(rng, n, degree=6, density=0.3, exclude=None):
    """`_random_polynomial` on term maps: the same blocks of the one-draw
    stream, each hit's multi-index and coefficient kept in a dict."""
    candidates = [m for m in multi_indices(n, degree) if exclude is None or not m[exclude - 1]]
    terms = {}
    decided, hit = 0, None
    while decided < len(candidates) or hit is not None:
        for u in rng.random(len(candidates) - decided + (hit is not None)).tolist():
            if hit is not None:
                terms[hit] = -1.0 + 2.0 * u
                hit = None
                continue
            if u < density:
                hit = candidates[decided]
            decided += 1
    if not terms:
        fallback = 1 if exclude != 1 else 2
        unit = tuple(1 if i == fallback - 1 else 0 for i in range(n))
        terms[unit] = float(rng.uniform(-1, 1))
    return SparsePolynomial((0.0,) * n, terms)


def _reference_function(kind, rng, n, exclude=None):
    if kind == "polynomial":
        return _dict_random_polynomial(rng, n, exclude=exclude)
    values = rng.uniform(-1, 1, size=1 << n)
    if exclude is not None:
        pairs = values.reshape(-1, 2, 1 << (exclude - 1))
        pairs[:, 1] = pairs[:, 0]
    return SetFunctionTable(n, values)


def _reference_trial(mut, rng, null_feature=False):
    n = int(rng.integers(*axioms._TRIAL_SIZES[mut.kind]))
    k = axioms._pick_order(mut, rng, n)
    i = int(rng.integers(1, n + 1)) if null_feature else None
    function = _reference_function(mut.kind, rng, n, exclude=i)
    if mut.kind == "table":
        return Trial("table", k, function), i
    return Trial(mut.kind, k, function, tuple(float(v) for v in rng.uniform(-1, 1, size=n))), i


def _reference_pure_synergy_trial(mut, rng, within_order):
    n = int(rng.integers(4, 6)) if mut.kind == "table" else int(rng.integers(3, 6))
    k = axioms._pick_order(mut, rng, n)
    if within_order:
        size = 1 if k == 1 else int(rng.integers(2, k + 1))
    else:
        size = int(rng.integers(1, n + 1))
    members = tuple(sorted((1 + rng.choice(n, size=size, replace=False)).tolist()))
    if mut.kind == "table":
        table = pure_synergy_table(n, members, axioms._signed_uniform(rng))
        return Trial("table", k, table), members
    exponents = {i: int(rng.integers(1, 4)) for i in members}
    m = tuple(exponents.get(i, 0) for i in range(1, n + 1))
    x = tuple(axioms._signed_uniform(rng) for _ in range(n))
    poly = SparsePolynomial((0.0,) * n, {m: axioms._signed_uniform(rng)})
    return Trial("polynomial", k, poly, x), members


def _reference_combine(trial_a, trial_b, a, b):
    f, g = trial_a.function, trial_b.function
    if trial_a.kind == "table":
        return replace(trial_a, function=SetFunctionTable(trial_a.n, a * f.values + b * g.values))
    return replace(trial_a, function=f.scale(a) + g.scale(b))


def _reference_permute_trial(trial, permutation):
    if trial.kind == "table":
        return replace(trial, function=permute_table(trial.function, permutation))

    def image(values):
        out = [0] * trial.n
        for i, v in enumerate(values):
            out[permutation[i] - 1] = v
        return tuple(out)

    poly = trial.function
    function = SparsePolynomial(poly.center, {image(m): c for m, c in poly.terms.items()})
    return replace(trial, function=function, x=image(trial.x))


def _gap(u, v):
    return abs(u - v) / max(1.0, abs(u), abs(v))


def _reference_report(mut, trial):
    if trial.kind == "table":
        return mut.run(trial.function, trial.k)
    return mut.run(trial.function, trial.x, trial.k)


def _reference_completeness(mut, rng):
    trial, _ = _reference_trial(mut, rng)
    target = trial.difference()

    def score(report):
        residual = abs(report.total() - target) / max(1.0, abs(target))
        return residual, lambda: trial.describe() | {"target": target}

    return ((mut, trial),), score


def _reference_linearity(mut, rng):
    trial, _ = _reference_trial(mut, rng)
    other = replace(trial, function=_reference_function(trial.kind, rng, trial.n))
    a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))

    def score(combined, left, right):
        left, right = left.entries, right.entries
        residual = max(
            _gap(value, a * left[c] + b * right[c])
            for c, value in combined.entries.items()
        )
        return residual, lambda: trial.describe() | {"a": a, "b": b}

    return ((mut, _reference_combine(trial, other, a, b)), (mut, trial), (mut, other)), score


def _reference_null_feature(mut, rng):
    trial, i = _reference_trial(mut, rng, null_feature=True)

    def score(report):
        residual, coalition = axioms._peak(
            (abs(v), c) for c, v in report.entries.items() if i in c
        )
        return residual, lambda: trial.describe() | {
            "null_feature": i,
            "coalition": list(coalition),
        }

    return ((mut, trial),), score


def _reference_symmetry(mut, rng):
    trial, _ = _reference_trial(mut, rng)
    permutation = (rng.permutation(trial.n) + 1).tolist()

    def score(base, image):
        base, image = base.entries, image.entries
        residual = max(
            _gap(value, image[tuple(sorted(permutation[i - 1] for i in c))])
            for c, value in base.items()
        )
        return residual, lambda: trial.describe() | {"permutation": permutation}

    return ((mut, trial), (mut, _reference_permute_trial(trial, permutation))), score


def _reference_pure_synergy(within_order):
    def draw(mut, rng):
        trial, members = _reference_pure_synergy_trial(mut, rng, within_order)

        def score(report):
            entries = report.entries
            residual, coalition = axioms._peak(
                (abs(v), c)
                for c, v in entries.items()
                if set(c) < set(members) and len(c) < trial.k
            )
            return residual, lambda: trial.describe() | {
                "synergy": list(members),
                "coalition": list(coalition),
                "value": entries[coalition],
            }

        return ((mut, trial),), score

    return draw


def _reference_uniqueness(rng):
    n = int(rng.integers(2, 6))
    trial = Trial("table", n, SetFunctionTable(n, rng.uniform(-1, 1, size=1 << n)))

    def score(st, rsa):
        synergies = mobius(trial.function)
        rsa = rsa.entries
        residual, coalition = axioms._peak(
            (max(abs(v - synergies.at(c)), abs(rsa[c] - synergies.at(c))), c)
            for c, v in st.entries.items()
        )
        return residual, lambda: {
            "n": n,
            "values": trial.function.values.tolist(),
            "coalition": list(coalition),
        }

    return tuple((REGISTRY[m], trial) for m in ("shapley-taylor", "rs-aug")), score


REFERENCE_DRAWS = {
    "completeness": _reference_completeness,
    "linearity": _reference_linearity,
    "null-feature": _reference_null_feature,
    "symmetry": _reference_symmetry,
    "baseline-test": _reference_pure_synergy(True),
    "interaction-distribution": _reference_pure_synergy(False),
}
CHECKS_BY_AXIOM = dict(zip(REFERENCE_DRAWS, CELLS))


def _scored(residual, witness):
    """A trial's residual and, where it is above 0, its described witness."""
    return residual, witness() if residual > 0 else None


def _reference_check(mut, axiom, trials, seed, draw):
    """The result of a cell at tolerance 0, every witness described, and
    each trial's score, from its own generator default_rng([seed, t])."""
    worst, witness, scores = 0.0, None, []
    for t in range(trials):
        needed, score = draw(np.random.default_rng([seed, t]))
        residual, described = score(*(_reference_report(mut, trial) for mut, trial in needed))
        scores.append(_scored(residual, described))
        if residual > worst:
            worst, witness = residual, described
    result = CheckResult(
        method=mut.id if mut else "(all-full-order)",
        axiom=axiom,
        status="pass" if worst <= 0.0 else "fail",
        expected=expected_status(mut, axiom) if mut else "pass",
        max_residual=worst,
        trials=trials,
        witness=witness() if worst > 0.0 else None,
    )
    return json.dumps([result.to_json_dict(), scores])


def _harness_check(monkeypatch, run):
    """`run()`'s result as a JSON dict, and each trial's score as the
    harness's own trial loop gives it."""
    scores = []
    trial_result = axioms._trial_result

    def recording(*args):
        *head, draw = args

        def logged(rng):
            needed, score = draw(rng)

            def scored(*rows):
                residual, witness = score(*rows)
                scores.append(_scored(residual, witness))
                return residual, witness

            return needed, scored

        return trial_result(*head, logged)

    with monkeypatch.context() as patch:
        patch.setattr(axioms, "_trial_result", recording)
        result = run()
    return json.dumps([result.to_json_dict(), scores])


REFERENCE_TRIALS = 200


@pytest.mark.parametrize(
    "method", ["shapley", "shapley-taylor", "rs", "rs-aug", "ig", "ih", "ih-aug", "sop"]
)
def test_cells_equal_the_reference_harness_trial_by_trial(monkeypatch, method):
    """Every scored axiom of every ruled method, 200 trials each (200
    generator seeds per cell), at tolerance 0 so that every witness is
    described: the result and each trial's residual and witness equal the
    reference's to the bit, whether a batch holds 128 trials or 7."""
    mut = SUITE_METHODS[method]
    for cell, (axiom, draw) in enumerate(REFERENCE_DRAWS.items()):
        if expected_status(mut, axiom) == "n/a":
            continue
        seed = 1000 * cell + 17
        expected = _reference_check(
            mut, axiom, REFERENCE_TRIALS, seed, lambda rng: draw(mut, rng)
        )
        for batch in (128, 7):
            monkeypatch.setattr(axioms, "_BATCH_TRIALS", batch)
            got = _harness_check(
                monkeypatch,
                lambda: CHECKS_BY_AXIOM[axiom](method, REFERENCE_TRIALS, seed=seed, tol=0.0),
            )
            assert got == expected, (axiom, batch)


def test_uniqueness_support_equals_the_reference_harness(monkeypatch):
    expected = _reference_check(
        None, "uniqueness-support", REFERENCE_TRIALS, 5, _reference_uniqueness
    )
    for batch in (128, 7):
        monkeypatch.setattr(axioms, "_BATCH_TRIALS", batch)
        got = _harness_check(
            monkeypatch, lambda: check_uniqueness_support(REFERENCE_TRIALS, seed=5, tol=0.0)
        )
        assert got == expected


FLAT = Method(
    "flat", "table", None, lambda table, k: InteractionReport(
        table.n, k, np.ones(coalition_count(table.n, k))
    )
)


@pytest.mark.parametrize("check", [check_null_feature, check_baseline_test,
                                   check_interaction_distribution])
def test_a_tie_names_the_first_trial_and_the_first_coalition_in_layout_order(check):
    """A report that scores every coalition 1.0 ties every candidate
    coalition of every trial: the witness is trial 0 and, of its
    coalitions, the first in layout order (size, then lexicographic), as
    the reference harness names it."""
    got = check(FLAT, 6, seed=4, tol=0.0)
    axiom = got.axiom
    expected = _reference_check(FLAT, axiom, 6, 4, lambda rng: REFERENCE_DRAWS[axiom](FLAT, rng))
    assert json.dumps(got.to_json_dict()) == json.dumps(json.loads(expected)[0])
    (_, trial), = REFERENCE_DRAWS[axiom](FLAT, np.random.default_rng([4, 0]))[0]
    assert got.max_residual == 1.0
    assert got.witness["values"] == trial.function.values.tolist()
    if axiom == "null-feature":
        assert got.witness["coalition"] == [got.witness["null_feature"]]
    else:  # the empty coalition is a proper subset of every synergy
        assert got.witness["coalition"] == [] and got.witness["value"] == 1.0


def test_a_uniqueness_tie_names_the_first_trial_and_the_empty_coalition(monkeypatch):
    """Against an all-zero synergy table, full-order reports that score every
    coalition 1.0 tie everywhere: the witness is trial 0's table and the
    empty coalition, the first in layout order."""
    monkeypatch.setitem(axioms.REGISTRY, "shapley-taylor", FLAT)
    monkeypatch.setitem(axioms.REGISTRY, "rs-aug", FLAT)
    monkeypatch.setattr(axioms, "mobius", lambda table: set_methods.SynergyTable(
        table.n, np.zeros(1 << table.n)
    ))
    result = check_uniqueness_support(5, seed=2, tol=0.0)
    (_, trial), _ = _reference_uniqueness(np.random.default_rng([2, 0]))[0]
    assert result.max_residual == 1.0
    assert result.witness == {
        "n": trial.n, "values": trial.function.values.tolist(), "coalition": []
    }


def test_the_first_non_finite_row_in_draw_order_raises(monkeypatch):
    """A batched row that is not finite raises the error its report would,
    naming its first non-finite coalition, and the request that raises is
    the first such one in draw order, not in kernel-call order. At seed 0
    the shapley completeness trials have n = 5, 4, 5: the n = 5 group runs
    first, yet the n = 4 row of trial 1 comes before trial 2's."""
    mut = SUITE_METHODS["shapley"]
    assert [
        _reference_trial(mut, np.random.default_rng([0, t]))[0].n for t in range(3)
    ] == [5, 4, 5]
    kernel = set_methods._superset_rule
    planted = {5: [(1, 2)], 4: [(0, 1)]}  # n -> (row of its group, slot): trials 2 and 1

    def leaky(values, n, k, rule):
        out = kernel(values, n, k, rule)
        for row, slot in planted.get(n, ()):
            out[row, slot] = np.inf
        return out

    monkeypatch.setattr(set_methods, "_superset_rule", leaky)
    with pytest.raises(NonFiniteError) as raised:
        check_completeness(mut, 3, seed=0)
    assert str(raised.value) == "non-finite value for coalition (1,)"
    planted.clear()
    planted[5] = [(1, 1), (0, 3)]  # one group: trial 0's row raises, not trial 2's
    with pytest.raises(NonFiniteError) as raised:
        check_completeness(mut, 3, seed=0)
    assert str(raised.value) == "non-finite value for coalition (3,)"


def test_a_non_finite_polynomial_row_names_its_coalition(monkeypatch):
    kernel = grad_exact._array_termwise

    def leaky(polys, points, k, rule):
        out = kernel(polys, points, k, rule)
        out[-1, 2] = -np.inf
        out[-1, 1] = np.nan
        return out

    monkeypatch.setattr(grad_exact, "_array_termwise", leaky)
    with pytest.raises(NonFiniteError, match=r"^non-finite value for coalition \(1,\)$"):
        check_linearity("ih", 4, seed=3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_completeness("shapley", -5, seed=1), "trials must be an integer >= 1, got -5"),
        (lambda: check_linearity("ih", 0), "trials must be an integer >= 1, got 0"),
        (lambda: check_uniqueness_support(0), "trials must be an integer >= 1, got 0"),
        (lambda: check_symmetry("rs", 2.5), "trials must be an integer >= 1, got 2.5"),
        (lambda: check_null_feature("sop", True), "trials must be an integer >= 1, got True"),
        (lambda: check_completeness("shapley", 5, seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda: check_baseline_test("ih", 5, seed=1.0), "seed must be an integer >= 0, got 1.0"),
        (lambda: check_completeness("shapley", 5, tol=math.nan), "tol must be a finite number >= 0, got nan"),
        (lambda: check_interaction_distribution("sop", 5, tol=-1e-9),
         "tol must be a finite number >= 0, got -1e-09"),
        (lambda: check_uniqueness_support(5, tol=math.inf), "tol must be a finite number >= 0, got inf"),
        (lambda: check_continuity("ig", ex.parse("x1", 1), Instance((1.0,), (0.0,)), tol="0"),
         "tol must be a finite number >= 0, got '0'"),
        (lambda: SuiteConfig(trials=0), "trials must be an integer >= 1, got 0"),
        (lambda: SuiteConfig(seed=-3), "seed must be an integer >= 0, got -3"),
        (lambda: SuiteConfig(trials=2.5), "trials must be an integer >= 1, got 2.5"),
        (lambda: SuiteConfig(tolerance_overrides={"symmetry": math.nan}),
         "tolerance_overrides['symmetry'] must be a finite number >= 0, got nan"),
    ],
    ids=["negative-trials", "zero-trials", "uniqueness-zero-trials", "fractional-trials",
         "boolean-trials", "negative-seed", "float-seed", "nan-tol", "negative-tol",
         "uniqueness-infinite-tol", "continuity-string-tol", "config-zero-trials",
         "config-negative-seed", "config-fractional-trials", "config-nan-override"],
)
def test_check_arguments_are_refused_by_one_validator(call, message):
    """Each library check and the suite config refuse trials below 1, a
    negative seed, a tolerance that is not a finite number >= 0, and counts
    that are not integers, with a SynergyError naming the argument."""
    with pytest.raises(SynergyError) as raised:
        call()
    assert str(raised.value) == message


def test_integral_numpy_counts_are_taken_as_ints():
    result = check_completeness("shapley", np.int64(3), seed=np.uint8(1))
    assert result.trials == 3 and type(result.trials) is int
    assert result == check_completeness("shapley", 3, seed=1)


def test_a_report_of_another_order_than_its_trial_is_refused():
    """Scores index a trial's rows by its P_k, so a method whose `run`
    returns a report of another order is named, not misread."""
    first_order = Method("first-order", "table", None, lambda table, k: set_methods.shapley(table))
    with pytest.raises(SynergyError, match=r"^method 'first-order' gave a report of P_1 over "
                                           r"n=\d for a trial of P_[23] over n=\d$"):
        check_completeness(first_order, 5, seed=1)


@pytest.mark.parametrize(
    "a, b",
    [(1.0, -2.0), (0.0, 0.75), (-0.5, 0.0), (1e-300, 1e-300), (-1.25, 0.5)],
    ids=["cancel", "a-zero", "b-zero", "underflow", "plain"],
)
def test_combined_polynomial_is_scale_plus_add_to_the_bit(a, b):
    """A combination a*F + b*G of polynomial trials, F.scale(a) + G.scale(b)
    on the term arrays, holds the terms of the term-map reference, in order
    and to the bit: each scaled map with its zero products dropped, the two
    summed from 0.0 by term_sum, zeros dropped after the sum. So shared
    vectors that cancel exactly, a factor of zero, and products that
    underflow are dropped as the maps drop them."""
    f = SparsePolynomial((0.0, 0.0), {(0, 1): 0.5, (1, 0): 1e-20, (1, 1): -0.75, (2, 0): 0.3})
    g = SparsePolynomial((0.0, 0.0), {(0, 0): 2.0, (0, 1): 0.25, (1, 1): 0.1, (3, 0): -1e-20})
    combined = axioms._combine(
        Trial("polynomial", 2, f, (0.5, -0.5)), Trial("polynomial", 2, g, (0.5, -0.5)), a, b
    ).function
    scaled = [
        [(m, c * factor) for m, c in poly.terms.items() if c * factor != 0.0]
        for poly, factor in ((f, a), (g, b))
    ]
    expected = SparsePolynomial(f.center, term_sum(scaled))
    assert [(m, c.hex()) for m, c in combined.terms.items()] == [
        (m, c.hex()) for m, c in expected.terms.items()
    ]
