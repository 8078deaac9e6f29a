"""Method-agnostic axiom checker.

Feeds seeded random instances to any registered method and asserts the
axioms: completeness, linearity, null feature, symmetry, the baseline test
for interactions, interaction distribution, and Taylor-truncation continuity.
The expected pass/fail matrix is data, not check logic: two methods (rs, ih)
are documented violators of the baseline test, and only the top-distributing
methods satisfy interaction distribution.

All randomness derives from a master seed by counter, so every report is
reproducible from (seed, config).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import expressions as ex
from . import set_methods
from .core import Instance, InteractionReport, json_field
from .exceptions import SynergyError
from .expressions import Expr
from .grad_numeric import DEFAULT_CONFIG, QuadratureConfig
from .methods import REGISTRY, SUITE_METHODS, Method
from .polynomials import SparsePolynomial, multi_indices
from .set_methods import SetFunctionTable, mobius, permute_table, pure_synergy_table

AXIOMS = (
    "completeness",
    "linearity",
    "null-feature",
    "symmetry",
    "baseline-test",
    "interaction-distribution",
    "continuity",
)

SUITE_QUAD_CONFIG = QuadratureConfig(nodes=32, panels=2)

_ALL_PASS = {m: "pass" for m in SUITE_METHODS}

EXPECTED_STATUS: dict[str, dict[str, str]] = {
    "completeness": dict(_ALL_PASS),
    "linearity": dict(_ALL_PASS),
    "null-feature": dict(_ALL_PASS),
    "symmetry": dict(_ALL_PASS),
    "baseline-test": dict(_ALL_PASS, rs="fail", ih="fail", **{"ih-quad": "fail"}),
    "interaction-distribution": {
        "shapley": "n/a",
        "ig": "n/a",
        "ig-quad": "n/a",
        "shapley-taylor": "pass",
        "sop": "pass",
        "rs": "fail",
        "rs-aug": "fail",
        "ih": "fail",
        "ih-aug": "fail",
        "ih-quad": "fail",
    },
    "continuity": {
        m: ("pass" if method.kind == "polynomial" else "n/a")
        for m, method in SUITE_METHODS.items()
    },
}

# Residual thresholds: exact arithmetic paths, quadrature-backed paths, and
# Taylor-truncation-limited paths, per axiom.
TOLERANCES: dict[str, dict[str, float]] = {
    "completeness": {"table": 1e-10, "polynomial": 1e-10, "analytic": 1e-7},
    "linearity": {"table": 1e-9, "polynomial": 1e-10, "analytic": 1e-8},
    "null-feature": {"table": 1e-11, "polynomial": 1e-11, "analytic": 1e-8},
    "symmetry": {"table": 1e-10, "polynomial": 1e-10, "analytic": 1e-8},
    "baseline-test": {"table": 1e-10, "polynomial": 1e-10, "analytic": 1e-8},
    "interaction-distribution": {"table": 1e-10, "polynomial": 1e-10, "analytic": 1e-8},
    "continuity": {"polynomial": 1e-6},
}


@dataclass(frozen=True)
class Trial:
    kind: str
    k: int
    table: SetFunctionTable | None = None
    poly: SparsePolynomial | None = None
    x: tuple[float, ...] | None = None
    expr: Expr | None = None
    instance: Instance | None = None

    @property
    def n(self) -> int:
        if self.kind == "table":
            return self.table.n
        if self.kind == "polynomial":
            return self.poly.n
        return self.instance.n

    def difference(self) -> float:
        """F(x) - F(baseline) for this trial's function."""
        if self.kind == "table":
            return float(self.table.values[-1] - self.table.values[0])
        if self.kind == "polynomial":
            return self.poly.evaluate(self.x) - self.poly.constant_term()
        return float(
            ex.evaluate(self.expr, self.instance.x)
            - ex.evaluate(self.expr, self.instance.baseline)
        )

    def describe(self) -> dict:
        out: dict = {"kind": self.kind, "k": self.k, "n": self.n}
        if self.kind == "table":
            out["values"] = self.table.values.tolist()
        elif self.kind == "polynomial":
            out["polynomial"] = self.poly.to_json_dict()
            out["x"] = list(self.x)
        else:
            out["expr"] = ex.to_text(self.expr)
            out["x"] = list(self.instance.x)
        return out


@dataclass(frozen=True)
class CheckResult:
    method: str
    axiom: str
    status: str  # pass | fail | not-applicable
    expected: str  # pass | fail | n/a
    max_residual: float
    trials: int
    witness: dict | None = None
    details: dict | None = None

    @property
    def ok(self) -> bool:
        if self.expected == "n/a":
            return self.status == "not-applicable"
        return self.status == self.expected

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method,
            "axiom": self.axiom,
            "status": self.status,
            "expected": self.expected,
            "max_residual": self.max_residual,
            "trials": self.trials,
            "ok": self.ok,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details is not None:
            out["details"] = self.details
        return out


# ---------------------------------------------------------------------------
# Random instance generation (per-trial rng derived from the master seed)
# ---------------------------------------------------------------------------

def _rng(seed: int, counter: int) -> np.random.Generator:
    return np.random.default_rng([seed, counter])


def _pick_order(mut: Method, rng: np.random.Generator, n: int) -> int:
    if mut.order is not None:
        return mut.order
    return int(rng.integers(2, min(3, n) + 1))


def _random_polynomial(
    rng: np.random.Generator,
    n: int,
    degree: int = 6,
    density: float = 0.3,
    exclude: int | None = None,
) -> SparsePolynomial:
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


def _random_analytic(
    rng: np.random.Generator, n: int, exclude: int | None = None
) -> Expr:
    allowed = [i for i in range(1, n + 1) if i != exclude]
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        coefficient = ex.Const(float(rng.uniform(-1, 1)))
        a = int(rng.choice(allowed))
        b = int(rng.choice(allowed))
        if rng.uniform() < 0.5:
            func = str(rng.choice(ex.FUNCTIONS))
            arg = ex.mul(ex.Const(float(rng.uniform(-1, 1))), ex.Var(a), ex.Var(b))
            terms.append(ex.mul(coefficient, ex.call(func, arg)))
        else:
            terms.append(
                ex.mul(
                    coefficient,
                    ex.power(ex.Var(a), int(rng.integers(1, 4))),
                    ex.power(ex.Var(b), int(rng.integers(0, 3))),
                )
            )
    return ex.add(*terms)


def _signed_uniform(rng: np.random.Generator, low=0.25, high=1.0) -> float:
    return float(rng.uniform(low, high) * rng.choice([-1.0, 1.0]))


def _random_trial(mut: Method, rng: np.random.Generator) -> Trial:
    if mut.kind == "table":
        n = int(rng.integers(3, 6))
        k = _pick_order(mut, rng, n)
        table = SetFunctionTable(n, rng.uniform(-1, 1, size=1 << n))
        return Trial("table", k, table=table)
    if mut.kind == "polynomial":
        n = int(rng.integers(2, 5))
        k = _pick_order(mut, rng, n)
        poly = _random_polynomial(rng, n)
        x = tuple(float(v) for v in rng.uniform(-1, 1, size=n))
        return Trial("polynomial", k, poly=poly, x=x)
    n = int(rng.integers(2, 4))
    k = _pick_order(mut, rng, n)
    expr = _random_analytic(rng, n)
    inst = Instance(
        x=tuple(float(v) for v in rng.uniform(-1, 1, size=n)),
        baseline=(0.0,) * n,
    )
    return Trial("analytic", k, expr=expr, instance=inst)


def _null_feature_trial(
    mut: Method, rng: np.random.Generator
) -> tuple[Trial, int]:
    if mut.kind == "table":
        n = int(rng.integers(3, 6))
        k = _pick_order(mut, rng, n)
        i = int(rng.integers(1, n + 1))
        bit = 1 << (i - 1)
        values = rng.uniform(-1, 1, size=1 << n)
        for mask in range(1 << n):
            if mask & bit:
                values[mask] = values[mask ^ bit]
        return Trial("table", k, table=SetFunctionTable(n, values)), i
    if mut.kind == "polynomial":
        n = int(rng.integers(2, 5))
        k = _pick_order(mut, rng, n)
        i = int(rng.integers(1, n + 1))
        poly = _random_polynomial(rng, n, exclude=i)
        x = tuple(float(v) for v in rng.uniform(-1, 1, size=n))
        return Trial("polynomial", k, poly=poly, x=x), i
    n = int(rng.integers(2, 4))
    k = _pick_order(mut, rng, n)
    i = int(rng.integers(1, n + 1))
    expr = _random_analytic(rng, n, exclude=i)
    inst = Instance(
        x=tuple(float(v) for v in rng.uniform(-1, 1, size=n)),
        baseline=(0.0,) * n,
    )
    return Trial("analytic", k, expr=expr, instance=inst), i


def _pure_synergy_trial(
    mut: Method, rng: np.random.Generator, within_order: bool
) -> tuple[Trial, tuple[int, ...]]:
    """A pure interaction of a random coalition, plus that coalition.

    `within_order` constrains the coalition size to at most the trial's k
    (the baseline-test regime, biased to sizes >= 2 where violations can
    appear); otherwise any size up to n is fair game.
    """
    if mut.kind == "table":
        n = int(rng.integers(4, 6))
    elif mut.kind == "polynomial":
        n = int(rng.integers(3, 6))
    else:
        n = 3
    k = _pick_order(mut, rng, n)
    if within_order:
        size = 1 if k == 1 else int(rng.integers(2, k + 1))
    else:
        size = int(rng.integers(1, n + 1))
    members = tuple(
        sorted(int(v) for v in rng.choice(range(1, n + 1), size=size, replace=False))
    )
    if mut.kind == "table":
        table = pure_synergy_table(n, members, _signed_uniform(rng))
        return Trial("table", k, table=table), members
    exponents = {i: int(rng.integers(1, 4)) for i in members}
    m = tuple(exponents.get(i, 0) for i in range(1, n + 1))
    x = tuple(_signed_uniform(rng) for _ in range(n))
    if mut.kind == "polynomial":
        poly = SparsePolynomial((0.0,) * n, {m: _signed_uniform(rng)})
        return Trial("polynomial", k, poly=poly, x=x), members
    monomial = ex.mul(
        ex.Const(_signed_uniform(rng)),
        *(ex.power(ex.Var(i), exponents[i]) for i in members),
    )
    anchor = members[0]
    wobble = ex.add(
        ex.Const(1.0), ex.mul(ex.Const(0.25), ex.call("sin", ex.Var(anchor)))
    )
    expr = ex.mul(monomial, wobble)
    inst = Instance(x=x, baseline=(0.0,) * n)
    return Trial("analytic", k, expr=expr, instance=inst), members


def _combine(trial_a: Trial, trial_b: Trial, a: float, b: float) -> Trial:
    if trial_a.kind == "table":
        values = a * trial_a.table.values + b * trial_b.table.values
        return replace(trial_a, table=SetFunctionTable(trial_a.n, values))
    if trial_a.kind == "polynomial":
        return replace(trial_a, poly=trial_a.poly.scale(a) + trial_b.poly.scale(b))
    combined = ex.add(
        ex.mul(ex.Const(a), trial_a.expr), ex.mul(ex.Const(b), trial_b.expr)
    )
    return replace(trial_a, expr=combined)


def _permute_trial(trial: Trial, permutation: Sequence[int]) -> Trial:
    if trial.kind == "table":
        return replace(trial, table=permute_table(trial.table, permutation))
    if trial.kind == "polynomial":
        n = trial.n
        terms = {}
        for m, c in trial.poly.terms.items():
            image = [0] * n
            for i in range(n):
                image[permutation[i] - 1] = m[i]
            terms[tuple(image)] = c
        x = [0.0] * n
        for i in range(n):
            x[permutation[i] - 1] = trial.x[i]
        return replace(
            trial, poly=SparsePolynomial(trial.poly.center, terms), x=tuple(x)
        )

    def relabel(e: Expr) -> Expr:
        if isinstance(e, ex.Var):
            return ex.Var(permutation[e.index - 1])
        if isinstance(e, ex.Const):
            return e
        if isinstance(e, ex.Neg):
            return ex.Neg(relabel(e.arg))
        if isinstance(e, ex.Add):
            return ex.Add(tuple(relabel(t) for t in e.terms))
        if isinstance(e, ex.Mul):
            return ex.Mul(tuple(relabel(f) for f in e.factors))
        if isinstance(e, ex.Pow):
            return ex.Pow(relabel(e.base), e.exponent)
        return ex.Call(e.func, relabel(e.arg))

    n = trial.n
    x = [0.0] * n
    for i in range(n):
        x[permutation[i] - 1] = trial.instance.x[i]
    inst = Instance(x=tuple(x), baseline=trial.instance.baseline)
    return replace(trial, expr=relabel(trial.expr), instance=inst)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _resolve(mut) -> Method:
    if isinstance(mut, Method):
        return mut
    if mut not in SUITE_METHODS:
        raise SynergyError(f"unknown method {mut!r}")
    return SUITE_METHODS[mut]


def _report(mut: Method, trial: Trial) -> InteractionReport:
    if mut.kind == "table":
        return mut.run(trial.table, trial.k)
    if mut.kind == "polynomial":
        return mut.run(trial.poly, trial.x, trial.k)
    return mut.run(trial.expr, trial.instance, SUITE_QUAD_CONFIG)


def _tolerance(mut: Method, axiom: str, override: float | None) -> float:
    if override is not None:
        return override
    return TOLERANCES[axiom][mut.kind]


def _finish(
    method_id: str,
    axiom: str,
    max_residual: float,
    tol: float,
    trials: int,
    witness: dict | None,
    details: dict | None = None,
) -> CheckResult:
    status = "pass" if max_residual <= tol else "fail"
    return CheckResult(
        method=method_id,
        axiom=axiom,
        status=status,
        expected=EXPECTED_STATUS[axiom].get(method_id, "pass"),
        max_residual=max_residual,
        trials=trials,
        witness=witness if status == "fail" else None,
        details=details,
    )


def check_completeness(mut, trials: int, seed: int = 0, tol: float | None = None) -> CheckResult:
    """Nonempty-coalition scores must sum to F(x) - F(baseline)."""
    mut = _resolve(mut)
    tol = _tolerance(mut, "completeness", tol)
    worst, witness = 0.0, None
    for t in range(trials):
        trial = _random_trial(mut, _rng(seed, t))
        report = _report(mut, trial)
        target = trial.difference()
        residual = abs(report.total() - target) / max(1.0, abs(target))
        if residual > worst:
            worst, witness = residual, trial.describe() | {"target": target}
    return _finish(mut.id, "completeness", worst, tol, trials, witness)


def check_linearity(mut, trials: int, seed: int = 0, tol: float | None = None) -> CheckResult:
    """Report of a*F + b*G must equal a*report(F) + b*report(G) entrywise."""
    mut = _resolve(mut)
    tol = _tolerance(mut, "linearity", tol)
    worst, witness = 0.0, None
    for t in range(trials):
        rng = _rng(seed, t)
        trial_a = _random_trial(mut, rng)
        if trial_a.kind == "table":
            trial_b = replace(
                trial_a,
                table=SetFunctionTable(trial_a.n, rng.uniform(-1, 1, size=1 << trial_a.n)),
            )
        elif trial_a.kind == "polynomial":
            trial_b = replace(trial_a, poly=_random_polynomial(rng, trial_a.n))
        else:
            trial_b = replace(trial_a, expr=_random_analytic(rng, trial_a.n))
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combined = _report(mut, _combine(trial_a, trial_b, a, b))
        left = _report(mut, trial_a)
        right = _report(mut, trial_b)
        residual = 0.0
        for coalition, value in combined.entries.items():
            mix = a * left.entries[coalition] + b * right.entries[coalition]
            residual = max(
                residual, abs(value - mix) / max(1.0, abs(value), abs(mix))
            )
        if residual > worst:
            worst, witness = residual, trial_a.describe() | {"a": a, "b": b}
    return _finish(mut.id, "linearity", worst, tol, trials, witness)


def check_null_feature(mut, trials: int, seed: int = 0, tol: float | None = None) -> CheckResult:
    """Coalitions containing a feature the function ignores must score zero."""
    mut = _resolve(mut)
    tol = _tolerance(mut, "null-feature", tol)
    worst, witness = 0.0, None
    for t in range(trials):
        trial, i = _null_feature_trial(mut, _rng(seed, t))
        report = _report(mut, trial)
        for coalition, value in report.entries.items():
            if i in coalition and abs(value) > worst:
                worst = abs(value)
                witness = trial.describe() | {"null_feature": i, "coalition": list(coalition)}
    return _finish(mut.id, "null-feature", worst, tol, trials, witness)


def check_symmetry(mut, trials: int, seed: int = 0, tol: float | None = None) -> CheckResult:
    """Relabeling features must relabel the report: I_S(F) = I_piS(pi F)."""
    mut = _resolve(mut)
    tol = _tolerance(mut, "symmetry", tol)
    worst, witness = 0.0, None
    for t in range(trials):
        rng = _rng(seed, t)
        trial = _random_trial(mut, rng)
        permutation = [int(v) for v in rng.permutation(range(1, trial.n + 1))]
        base = _report(mut, trial)
        image = _report(mut, _permute_trial(trial, permutation))
        residual = 0.0
        for coalition, value in base.entries.items():
            mapped = tuple(sorted(permutation[i - 1] for i in coalition))
            other = image.entries[mapped]
            residual = max(
                residual, abs(value - other) / max(1.0, abs(value), abs(other))
            )
        if residual > worst:
            worst, witness = residual, trial.describe() | {"permutation": permutation}
    return _finish(mut.id, "symmetry", worst, tol, trials, witness)


def check_baseline_test(
    mut, trials: int, seed: int = 0, tol: float | None = None
) -> CheckResult:
    """Pure interactions of size <= k must give zero to every proper subset."""
    mut = _resolve(mut)
    tol = _tolerance(mut, "baseline-test", tol)
    worst, witness = 0.0, None
    for t in range(trials):
        rng = _rng(seed, t)
        trial, members = _pure_synergy_trial(mut, rng, within_order=True)
        report = _report(mut, trial)
        member_set = set(members)
        for coalition, value in report.entries.items():
            if set(coalition) < member_set and abs(value) > worst:
                worst = abs(value)
                witness = trial.describe() | {
                    "synergy": list(members),
                    "coalition": list(coalition),
                    "value": value,
                }
    return _finish(mut.id, "baseline-test", worst, tol, trials, witness)


def check_interaction_distribution(
    mut, trials: int, seed: int = 0, tol: float | None = None
) -> CheckResult:
    """Pure interactions of any size must give zero to proper subsets of size < k."""
    mut = _resolve(mut)
    expected = EXPECTED_STATUS["interaction-distribution"].get(mut.id, "pass")
    if expected == "n/a" or mut.order == 1:
        return CheckResult(
            method=mut.id,
            axiom="interaction-distribution",
            status="not-applicable",
            expected="n/a",
            max_residual=0.0,
            trials=0,
        )
    tol = _tolerance(mut, "interaction-distribution", tol)
    worst, witness = 0.0, None
    for t in range(trials):
        rng = _rng(seed, t)
        trial, members = _pure_synergy_trial(mut, rng, within_order=False)
        report = _report(mut, trial)
        member_set = set(members)
        for coalition, value in report.entries.items():
            if (
                set(coalition) < member_set
                and len(coalition) < trial.k
                and abs(value) > worst
            ):
                worst = abs(value)
                witness = trial.describe() | {
                    "synergy": list(members),
                    "coalition": list(coalition),
                    "value": value,
                }
    return _finish(mut.id, "interaction-distribution", worst, tol, trials, witness)


def check_continuity(
    mut,
    expr: Expr,
    instance: Instance,
    max_order: int = 10,
    k: int | None = None,
    tol: float | None = None,
) -> CheckResult:
    """Reports of Taylor truncations must converge as the order grows.

    A method with a quadrature engine in the registry (integrated gradients,
    and the integrated Hessian at order 2) is measured against that engine
    at the default rule; other methods have no independent oracle and fall
    back to the Cauchy criterion on successive truncations, which the result
    records openly.
    """
    mut = _resolve(mut)
    if mut.kind != "polynomial":
        return CheckResult(
            method=mut.id,
            axiom="continuity",
            status="not-applicable",
            expected="n/a",
            max_residual=0.0,
            trials=0,
        )
    tol = tol if tol is not None else TOLERANCES["continuity"]["polynomial"]
    order = k if k is not None else (mut.order or 2)
    reference: InteractionReport | None = None
    quadrature = REGISTRY.get(mut.quadrature)
    if quadrature is not None and (mut.order or order) == quadrature.order:
        reference = quadrature.run(expr, instance, DEFAULT_CONFIG)
    levels = list(range(2, max_order + 1, 2))
    reports = {}
    for level in levels:
        truncated = ex.taylor(expr, instance.baseline, level)
        reports[level] = mut.run(truncated, instance.x, order)
    if reference is not None:
        residuals = [reports[level].max_abs_difference(reference) for level in levels]
        mode = "quadrature-reference"
    else:
        residuals = [
            reports[levels[i]].max_abs_difference(reports[levels[i + 1]])
            for i in range(len(levels) - 1)
        ]
        mode = "cauchy-self-convergence"
    decayed = all(
        residuals[i + 1] <= residuals[i] + 1e-12 for i in range(len(residuals) - 1)
    )
    final = residuals[-1]
    status = "pass" if (final <= tol and decayed) else "fail"
    details = {
        "mode": mode,
        "orders": levels,
        "residuals": residuals,
        "k": order,
        "expr": ex.to_text(expr),
    }
    return CheckResult(
        method=mut.id,
        axiom="continuity",
        status=status,
        expected=EXPECTED_STATUS["continuity"].get(mut.id, "pass"),
        max_residual=final,
        trials=len(levels),
        witness=details if status == "fail" else None,
        details=details,
    )


def check_uniqueness_support(
    trials: int, seed: int = 0, tol: float = 1e-10
) -> CheckResult:
    """Any full-order method satisfying the four core axioms must coincide with
    the synergy table: assert shapley-taylor(k=n), the Möbius transform, and
    augmented recursive Shapley (k=n) agree entrywise."""
    worst, witness = 0.0, None
    for t in range(trials):
        rng = _rng(seed, t)
        n = int(rng.integers(2, 6))
        table = SetFunctionTable(n, rng.uniform(-1, 1, size=1 << n))
        synergies = mobius(table)
        st = set_methods.shapley_taylor(table, n)
        rsa = set_methods.augmented_recursive_shapley(table, n)
        for coalition, value in st.entries.items():
            target = synergies.at(coalition)
            residual = max(abs(value - target), abs(rsa.entries[coalition] - target))
            if residual > worst:
                worst = residual
                witness = {"n": n, "values": table.values.tolist(), "coalition": list(coalition)}
    status = "pass" if worst <= tol else "fail"
    return CheckResult(
        method="(all-full-order)",
        axiom="uniqueness-support",
        status=status,
        expected="pass",
        max_residual=worst,
        trials=trials,
        witness=witness if status == "fail" else None,
    )


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

CONTINUITY_PROBE = "exp(x1*x2) - 1"


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 2024
    trials: int = 1000
    methods: tuple[str, ...] | None = None  # None = all registered
    axioms: tuple[str, ...] | None = None
    tolerance_overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SynergyError(f"trials must be >= 1, got {self.trials}")
        for key, tol in self.tolerance_overrides.items():
            real = isinstance(tol, (int, float)) and not isinstance(tol, bool)
            if not (real and 0 <= tol < np.inf):
                raise SynergyError(
                    f"tolerance_overrides[{key!r}] must be a finite number >= 0, got {tol!r}"
                )

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SuiteConfig":
        what = "suite config"
        return cls(
            seed=json_field(payload, "seed", what, int, 2024),
            trials=json_field(payload, "trials", what, int, 1000),
            methods=json_field(payload, "methods", what, _names, None),
            axioms=json_field(payload, "axioms", what, _names, None),
            tolerance_overrides=json_field(payload, "tolerance_overrides", what, dict, {}),
        )


def _names(value) -> tuple[str, ...]:
    if isinstance(value, str) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of names, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SuiteResult:
    seed: int
    trials: int
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "results": [r.to_json_dict() for r in self.results],
        }


_CHECKS = {
    "completeness": check_completeness,
    "linearity": check_linearity,
    "null-feature": check_null_feature,
    "symmetry": check_symmetry,
    "baseline-test": check_baseline_test,
    "interaction-distribution": check_interaction_distribution,
}


def run_suite(
    config: SuiteConfig = SuiteConfig(),
    methods: Mapping[str, Method] | None = None,
) -> SuiteResult:
    """Run every selected check over every selected method, deterministically.

    Quadrature-backed engines run a tenth of the configured trials (they are
    oracles, and two orders of magnitude slower than the exact paths).
    """
    registry = methods if methods is not None else SUITE_METHODS
    selected_methods = (
        config.methods if config.methods is not None else tuple(registry)
    )
    selected_axioms = config.axioms if config.axioms is not None else AXIOMS
    known = set(_CHECKS) | {"continuity", "uniqueness-support"}
    unknown = [a for a in selected_axioms if a not in known]
    if unknown:
        raise SynergyError(f"unknown axiom {unknown[0]!r}")
    unknown = [m for m in selected_methods if m not in registry]
    if unknown:
        raise SynergyError(f"unknown method {unknown[0]!r}")
    results: list[CheckResult] = []
    cell = 0
    for axiom in selected_axioms:
        if axiom == "uniqueness-support":
            continue  # global check, appended below
        for method_id in selected_methods:
            mut = registry[method_id]
            cell += 1
            override = config.tolerance_overrides.get(
                f"{method_id}:{axiom}", config.tolerance_overrides.get(axiom)
            )
            if axiom == "continuity":
                if mut.kind != "polynomial":
                    results.append(check_continuity(mut, None, None))
                    continue
                probe = ex.parse(CONTINUITY_PROBE, 2)
                inst = Instance(x=(0.5, 0.5), baseline=(0.0, 0.0))
                results.append(
                    check_continuity(mut, probe, inst, max_order=12, k=mut.order or 2, tol=override)
                )
                continue
            trials = config.trials
            if mut.kind == "analytic":
                trials = max(25, config.trials // 10)
            results.append(
                _CHECKS[axiom](mut, trials, seed=config.seed + 7919 * cell, tol=override)
            )
    if config.axioms is None or "uniqueness-support" in selected_axioms:
        results.append(
            check_uniqueness_support(min(config.trials, 200), seed=config.seed)
        )
    return SuiteResult(seed=config.seed, trials=config.trials, results=tuple(results))
