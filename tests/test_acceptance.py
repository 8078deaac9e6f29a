"""Acceptance suite: the release-gating criteria, each pinned to a fixed
tolerance, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s`.
"""
import json
import time

import numpy as np

from synergy import expressions as ex
from synergy.axioms import (
    SuiteConfig,
    check_continuity,
    run_suite,
)
from synergy.combinatorics import (
    binomial,
    monomial_mass,
    surjective_sequence_count,
)
from synergy.core import Instance
from synergy.grad_exact import (
    integrated_gradients,
    integrated_hessian,
    integrated_hessian_pairwise,
    sum_of_powers,
    sum_of_powers_nested,
)
from synergy.grad_numeric import ih2_quadrature
from synergy.methods import REGISTRY
from synergy.polynomials import SparsePolynomial
from synergy.set_methods import (
    SetFunctionTable,
    augmented_recursive_shapley,
    build_table,
    mobius,
    mobius_inverse,
    recursive_shapley,
    recursive_shapley_nested,
    shapley,
    shapley_taylor,
)
from tests.conftest import make_table, oracle_corpus

PUBLIC_METHOD_IDS = tuple(m.id for m in REGISTRY.values() if not m.oracle)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_quadratic_regression_example():
    start = time.perf_counter()
    tree = ex.parse("2*x1 - 3*x2 + x1*x3 - 15", 3)
    inst = Instance(x=(1.0, 1.0, 1.0), baseline=(0.0, 0.0, 0.0))
    table = build_table(inst, lambda point: ex.evaluate(tree, point))
    report = shapley_taylor(table, 2)
    elapsed = time.perf_counter() - start
    expected = {(): -15.0, (1,): 2.0, (2,): -3.0, (1, 3): 1.0}
    residual = max(
        abs(value - expected.get(coalition, 0.0))
        for coalition, value in report.entries.items()
    )
    ok = residual <= 1e-12 and elapsed < 1.0
    _verdict(
        "criterion 1: quadratic-regression shapley-taylor k=2",
        ok,
        f"max residual {residual:.2e} (tol 1e-12), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_shapley_vs_ig_contrast():
    p = SparsePolynomial((0.0, 0.0), {(100, 1): 1.0})
    x = (2.0, 2.0)
    inst = Instance(x=x, baseline=(0.0, 0.0))
    shap = shapley(build_table(inst, p.evaluate))
    ig = integrated_gradients(p, x)
    total = 2.0**101

    def rel(a, b):
        return abs(a - b) / abs(b)

    residual = max(
        rel(shap.value((1,)), 2.0**100),
        rel(shap.value((2,)), 2.0**100),
        rel(ig.value((1,)), (100 / 101) * total),
        rel(ig.value((2,)), (1 / 101) * total),
        rel(shap.total(), total),
        rel(ig.total(), total),
    )
    ok = residual <= 1e-9
    _verdict(
        "criterion 2: shapley-vs-ig contrast on x1^100*x2",
        ok,
        f"max relative residual {residual:.2e} (tol 1e-9)",
    )


def test_criterion_3_mobius_worked_example():
    rng = np.random.default_rng(2024)
    worst_forward = worst_roundtrip = 0.0
    for _ in range(1000):
        alpha, beta, gamma, delta = rng.uniform(-1, 1, 4)
        table = SetFunctionTable(2, [alpha, beta, gamma, delta])
        synergies = mobius(table)
        expected = [alpha, beta - alpha, gamma - alpha, delta - beta - gamma + alpha]
        worst_forward = max(
            worst_forward, float(np.abs(synergies.values - expected).max())
        )
        back = mobius_inverse(synergies)
        worst_roundtrip = max(
            worst_roundtrip, float(np.abs(back.values - table.values).max())
        )
    ok = worst_forward <= 1e-12 and worst_roundtrip <= 1e-12
    _verdict(
        "criterion 3: mobius worked example, 1000 random tables",
        ok,
        f"forward residual {worst_forward:.2e}, round-trip {worst_roundtrip:.2e} (tol 1e-12)",
    )


def test_criterion_4_synergy_decomposition_example(capsys):
    from synergy.cli import main

    rng = np.random.default_rng(7)
    a, b, c, d = 1.5, 2.0, -1.0, 0.5
    worst = 0.0
    for _ in range(20):
        x1, x2 = rng.uniform(-1, 1, 2)
        code = main(
            [
                "decompose",
                "--expr", "a + b*x1^2 + c*sin(x2) + d*x1*x2^2",
                "--x", f"{x1},{x2}",
                "--let", f"a={a}", "--let", f"b={b}",
                "--let", f"c={c}", "--let", f"d={d}",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        entries = {
            tuple(e["coalition"]): e["value"] for e in json.loads(out)["entries"]
        }
        closed_forms = {
            (): a,
            (1,): b * x1**2,
            (2,): c * np.sin(x2),
            (1, 2): d * x1 * x2**2,
        }
        for coalition, expected in closed_forms.items():
            worst = max(worst, abs(entries[coalition] - expected))
    ok = worst <= 1e-10
    with capsys.disabled():
        _verdict(
            "criterion 4: decompose reproduces the four synergy pieces",
            ok,
            f"max residual over 20 points {worst:.2e} (tol 1e-10)",
        )


def test_criterion_5_oracle_equivalences():
    start = time.perf_counter()
    rs_cases, sop_cases, ih_cases = oracle_corpus(11)

    worst_rs = 0.0
    for table, k in rs_cases:
        diff = recursive_shapley(table, k).max_abs_difference(
            recursive_shapley_nested(table, k)
        )
        worst_rs = max(worst_rs, diff)

    worst_sop = 0.0
    for p, x, k in sop_cases:
        diff = sum_of_powers(p, x, k).max_abs_difference(
            sum_of_powers_nested(p, x, k)
        )
        worst_sop = max(worst_sop, diff)

    worst_ih = 0.0
    for p, x in ih_cases:
        inst = Instance(x=x, baseline=p.center)
        generic = integrated_hessian(p, x, 2)
        closed = integrated_hessian_pairwise(p, x)
        quadrature = ih2_quadrature(ex.from_polynomial(p), inst)
        worst_ih = max(
            worst_ih,
            generic.max_abs_difference(closed),
            generic.max_abs_difference(quadrature),
        )

    elapsed = time.perf_counter() - start
    ok = worst_rs <= 1e-9 and worst_sop <= 1e-9 and worst_ih <= 1e-8 and elapsed < 300
    _verdict(
        "criterion 5: oracle equivalences (rs, sop, ih2)",
        ok,
        f"rs {worst_rs:.2e} (tol 1e-9), sop {worst_sop:.2e} (tol 1e-9), "
        f"ih2 {worst_ih:.2e} (tol 1e-8), runtime {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_axiom_suite():
    result = run_suite(SuiteConfig(seed=2024, trials=1000))
    status = {(r.method, r.axiom): r.status for r in result.results}
    problems = []
    for method in PUBLIC_METHOD_IDS:
        for axiom in ("completeness", "linearity", "null-feature", "symmetry"):
            if status[(method, axiom)] != "pass":
                problems.append(f"{method}/{axiom}={status[(method, axiom)]}")
    for method, expected in (
        ("shapley-taylor", "pass"),
        ("rs-aug", "pass"),
        ("ih-aug", "pass"),
        ("sop", "pass"),
        ("rs", "fail"),
        ("ih", "fail"),
    ):
        if status[(method, "baseline-test")] != expected:
            problems.append(f"{method}/baseline-test != {expected}")
    witnesses = {
        r.method: r.witness
        for r in result.results
        if r.axiom == "baseline-test" and r.status == "fail"
    }
    for violator in ("rs", "ih"):
        if witnesses.get(violator) is None:
            problems.append(f"{violator} baseline-test failure lacks a witness")
    distribution_pass = {
        r.method
        for r in result.results
        if r.axiom == "interaction-distribution"
        and r.status == "pass"
        and r.method in PUBLIC_METHOD_IDS
    }
    if distribution_pass != {"shapley-taylor", "sop"}:
        problems.append(f"interaction-distribution passes: {sorted(distribution_pass)}")
    ok = not problems and result.ok
    _verdict(
        "criterion 6: axiom suite, 1000 trials per cell",
        ok,
        "all expected statuses matched" if ok else "; ".join(problems),
    )


def test_criterion_7_uniqueness_support():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        table = make_table(rng, n)
        synergies = mobius(table)
        st = shapley_taylor(table, n)
        rsa = augmented_recursive_shapley(table, n)
        for coalition, value in st.entries.items():
            target = synergies.at(coalition)
            worst = max(
                worst, abs(value - target), abs(rsa.entries[coalition] - target)
            )
    ok = worst <= 1e-10
    _verdict(
        "criterion 7: full-order uniqueness support",
        ok,
        f"max residual over 200 tables {worst:.2e} (tol 1e-10)",
    )


def test_criterion_8_continuity_of_taylor_truncations():
    probe = ex.parse("exp(x1*x2) - 1", 2)
    inst = Instance(x=(0.5, 0.5), baseline=(0.0, 0.0))
    result = check_continuity("ig", probe, inst, max_order=10, k=1)
    residuals = result.details["residuals"]
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    ok = result.status == "pass" and decreasing and residuals[-1] < 1e-6
    _verdict(
        "criterion 8: taylor-truncation continuity of ig",
        ok,
        f"residuals over L=2..10: {[f'{r:.1e}' for r in residuals]} (final < 1e-6)",
    )


def test_criterion_9_combinatorial_identities():
    ok = True
    for s in range(1, 6):
        for k in range(1, 5):
            total = sum(
                binomial(s, t) * surjective_sequence_count(k, t)
                for t in range(1, min(s, k) + 1)
            )
            ok = ok and total == s**k
    rng = np.random.default_rng(23)
    for size in range(1, 6):
        for k in range(1, 5):
            for _ in range(5):
                m = tuple(int(v) for v in rng.integers(1, 6, size=size))
                total = 0
                for mask in range(1, 1 << size):
                    subset = tuple(i + 1 for i in range(size) if mask >> i & 1)
                    total += monomial_mass(k, subset, m)
                ok = ok and total == sum(m) ** k
    _verdict(
        "criterion 9: exact combinatorial identities",
        ok,
        "surjection-count and monomial-mass partitions of |S|^k and |m|^k are exact",
    )
