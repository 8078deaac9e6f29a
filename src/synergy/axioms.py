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
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import expressions as ex
from . import grad_exact, set_methods
from .core import Instance, InteractionReport, as_int, json_field
from .exceptions import SynergyError
from .expressions import Expr
from .grad_numeric import DEFAULT_CONFIG, QuadratureConfig
from .methods import REGISTRY, SUITE_METHODS, Method
from .polynomials import MultiIndex, SparsePolynomial, multi_indices
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
    """One random instance. `function` is a SetFunctionTable (table kind), a
    SparsePolynomial centred at 0 or an Expr with baseline 0, evaluated at
    `x` (empty for a table)."""

    kind: str
    k: int
    function: SetFunctionTable | SparsePolynomial | Expr
    x: tuple[float, ...] = ()

    @property
    def n(self) -> int:
        return self.function.n if self.kind == "table" else len(self.x)

    def difference(self) -> float:
        """F(x) - F(baseline) for this trial's function."""
        if self.kind == "table":
            return float(self.function.values[-1] - self.function.values[0])
        if self.kind == "polynomial":
            return self.function.evaluate(self.x) - self.function.constant_term()
        return float(
            ex.evaluate(self.function, self.x)
            - ex.evaluate(self.function, (0.0,) * self.n)
        )

    def describe(self) -> dict:
        out: dict = {"kind": self.kind, "k": self.k, "n": self.n}
        if self.kind == "table":
            return out | {"values": self.function.values.tolist()}
        if self.kind == "polynomial":
            out["polynomial"] = self.function.to_json_dict()
        else:
            out["expr"] = ex.to_text(self.function)
        return out | {"x": list(self.x)}


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


@lru_cache(maxsize=64)
def _candidate_indices(n: int, degree: int, exclude: int | None) -> tuple[MultiIndex, ...]:
    """The multi-indices a random polynomial may use, in draw order."""
    return tuple(m for m in multi_indices(n, degree) if exclude is None or not m[exclude - 1])


def _random_polynomial(
    rng: np.random.Generator,
    n: int,
    degree: int = 6,
    density: float = 0.3,
    exclude: int | None = None,
) -> SparsePolynomial:
    """Each candidate multi-index draws u = rng.uniform() and, if u < density,
    a coefficient rng.uniform(-1, 1) = -1.0 + 2.0*u' right after it.

    That stream is fetched with rng.random in blocks no longer than the draws
    still certain to be consumed (one per undecided candidate, plus a pending
    coefficient), so it matches the one-draw-at-a-time loop and leaves the
    generator where that loop would: random() and uniform() take the same
    64-bit draws and leave the buffered 32-bit half alone.
    """
    candidates = _candidate_indices(n, degree, exclude)
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
    # the candidates are in lexicographic order, so the terms are sorted
    return SparsePolynomial._exact((0.0,) * n, {m: c for m, c in terms.items() if c != 0.0})


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


# Feature counts [low, high) of a random trial, per method kind.
_TRIAL_SIZES = {"table": (3, 6), "polynomial": (2, 5), "analytic": (2, 4)}


def _random_function(
    kind: str, rng: np.random.Generator, n: int, exclude: int | None = None
) -> SetFunctionTable | SparsePolynomial | Expr:
    """A random function of `kind` on n features that ignores feature `exclude`."""
    if kind == "polynomial":
        return _random_polynomial(rng, n, exclude=exclude)
    if kind == "analytic":
        return _random_analytic(rng, n, exclude=exclude)
    values = rng.uniform(-1, 1, size=1 << n)
    if exclude is not None:
        # the middle axis is bit exclude-1: copy F(S) onto F(S + exclude)
        pairs = values.reshape(-1, 2, 1 << (exclude - 1))
        pairs[:, 1] = pairs[:, 0]
    return SetFunctionTable(n, values)


def _random_trial(
    mut: Method, rng: np.random.Generator, null_feature: bool = False
) -> tuple[Trial, int | None]:
    """A random trial and, if asked for, the feature its function ignores.

    Draw order: n, k, the null feature, the function, then x.
    """
    n = int(rng.integers(*_TRIAL_SIZES[mut.kind]))
    k = _pick_order(mut, rng, n)
    i = int(rng.integers(1, n + 1)) if null_feature else None
    function = _random_function(mut.kind, rng, n, exclude=i)
    if mut.kind == "table":
        return Trial("table", k, function), i
    x = tuple(float(v) for v in rng.uniform(-1, 1, size=n))
    return Trial(mut.kind, k, function, x), i


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
        return Trial("table", k, table), members
    exponents = {i: int(rng.integers(1, 4)) for i in members}
    m = tuple(exponents.get(i, 0) for i in range(1, n + 1))
    x = tuple(_signed_uniform(rng) for _ in range(n))
    if mut.kind == "polynomial":
        function = SparsePolynomial._exact((0.0,) * n, {m: _signed_uniform(rng)})
    else:
        monomial = ex.mul(
            ex.Const(_signed_uniform(rng)),
            *(ex.power(ex.Var(i), exponents[i]) for i in members),
        )
        wobble = ex.add(
            ex.Const(1.0), ex.mul(ex.Const(0.25), ex.call("sin", ex.Var(members[0])))
        )
        function = ex.mul(monomial, wobble)
    return Trial(mut.kind, k, function, x), members


def _combine(trial_a: Trial, trial_b: Trial, a: float, b: float) -> Trial:
    f, g = trial_a.function, trial_b.function
    if trial_a.kind == "table":
        function = SetFunctionTable(trial_a.n, a * f.values + b * g.values)
    elif trial_a.kind == "polynomial":
        function = f.scale(a) + g.scale(b)
    else:
        function = ex.add(ex.mul(ex.Const(a), f), ex.mul(ex.Const(b), g))
    return replace(trial_a, function=function)


def _permute_trial(trial: Trial, permutation: Sequence[int]) -> Trial:
    if trial.kind == "table":
        return replace(trial, function=permute_table(trial.function, permutation))

    def image(values):
        out = [0] * trial.n
        for i, v in enumerate(values):
            out[permutation[i] - 1] = v
        return tuple(out)

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

    if trial.kind == "polynomial":
        poly = trial.function
        function = SparsePolynomial._exact(
            poly.center, {image(m): c for m, c in poly.terms.items()}, ordered=False
        )
    else:
        function = relabel(trial.function)
    return replace(trial, function=function, x=image(trial.x))


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
    if trial.kind == "table":
        return mut.run(trial.function, trial.k)
    if trial.kind == "polynomial":
        return mut.run(trial.function, trial.x, trial.k)
    inst = Instance(x=trial.x, baseline=(0.0,) * trial.n)
    return mut.run(trial.function, inst, SUITE_QUAD_CONFIG)


def _reports(requests: Sequence[tuple[Method, Trial]]) -> list[InteractionReport]:
    """The report of each (method, trial) request, in order.

    Requests whose method carries a shared-kernel rule are grouped by (kind,
    rule, n, k), and each group runs as one kernel call: tables stacked as
    rows, polynomials laid end to end. Every other request runs its
    method's `run` on its own, in request order. The reports are built in
    request order, so the first one whose values are not finite raises."""
    groups: dict[tuple, list[int]] = {}
    for i, (mut, trial) in enumerate(requests):
        if mut.rule is not None:
            groups.setdefault((mut.kind, mut.rule, trial.n, trial.k), []).append(i)
    rows = {}
    for (kind, rule, n, k), members in groups.items():
        trials = [requests[i][1] for i in members]
        if kind == "table":
            tables = np.stack([trial.function.values for trial in trials])
            values = set_methods._superset_rule(tables, n, k, rule)
        else:
            polys, points = [trial.function for trial in trials], [trial.x for trial in trials]
            values = grad_exact._array_termwise(polys, points, k, rule)
        rows.update(zip(members, values))
    return [
        InteractionReport(trial.n, trial.k, rows[i]) if i in rows else _report(mut, trial)
        for i, (mut, trial) in enumerate(requests)
    ]


def _peak(scored) -> tuple[float, object]:
    """The largest of (residual, key) pairs and the first key reaching it."""
    worst, where = 0.0, None
    for residual, key in scored:
        if residual > worst:
            worst, where = residual, key
    return worst, where


def _gap(u: float, v: float) -> float:
    return abs(u - v) / max(1.0, abs(u), abs(v))


def _not_applicable(mut: Method, axiom: str) -> CheckResult:
    return CheckResult(
        method=mut.id,
        axiom=axiom,
        status="not-applicable",
        expected="n/a",
        max_residual=0.0,
        trials=0,
    )


# Trials a cell draws, and runs the kernels of, at a time: memory stays
# bounded however many trials a cell runs.
_BATCH_TRIALS = 128


def _trial_result(
    method_id: str, axiom: str, expected: str, trials: int, seed: int, tol: float, draw
) -> CheckResult:
    """The trial loop, in two phases per batch of trials. First
    `draw(rng)` draws each seeded trial and names the (method, trial)
    requests whose reports it needs, with a scorer; then every request of
    the batch runs (see `_reports`), and each scorer takes its trial's
    reports, in the order it named them, and gives the trial's residual and
    a witness thunk. The witness is the first trial with the largest
    residual, described only when the check fails."""

    def scored():
        for start in range(0, trials, _BATCH_TRIALS):
            drawn = [draw(_rng(seed, t)) for t in range(start, min(trials, start + _BATCH_TRIALS))]
            reports = iter(_reports([request for needed, _ in drawn for request in needed]))
            for needed, score in drawn:
                yield score(*(next(reports) for _ in needed))

    worst, witness = _peak(scored())
    status = "pass" if worst <= tol else "fail"
    return CheckResult(
        method=method_id,
        axiom=axiom,
        status=status,
        expected=expected,
        max_residual=worst,
        trials=trials,
        witness=witness() if status == "fail" and witness is not None else None,
    )


def _run_trials(mut, axiom: str, trials: int, seed: int, tol: float | None, draw) -> CheckResult:
    """One method x axiom cell: `draw(mut, rng)` per trial, at the axiom's tolerance."""
    mut = _resolve(mut)
    return _trial_result(
        mut.id,
        axiom,
        EXPECTED_STATUS[axiom].get(mut.id, "pass"),
        trials,
        seed,
        TOLERANCES[axiom][mut.kind] if tol is None else tol,
        lambda rng: draw(mut, rng),
    )


def _completeness(mut: Method, rng: np.random.Generator):
    trial, _ = _random_trial(mut, rng)
    target = trial.difference()

    def score(report):
        residual = abs(report.total() - target) / max(1.0, abs(target))
        return residual, lambda: trial.describe() | {"target": target}

    return ((mut, trial),), score


def _linearity(mut: Method, rng: np.random.Generator):
    trial, _ = _random_trial(mut, rng)
    other = replace(trial, function=_random_function(trial.kind, rng, trial.n))
    a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))

    def score(combined, left, right):
        left, right = left.entries, right.entries
        residual = max(
            (_gap(value, a * left[c] + b * right[c]) for c, value in combined.entries.items()),
            default=0.0,
        )
        return residual, lambda: trial.describe() | {"a": a, "b": b}

    return ((mut, _combine(trial, other, a, b)), (mut, trial), (mut, other)), score


def _null_feature(mut: Method, rng: np.random.Generator):
    trial, i = _random_trial(mut, rng, null_feature=True)

    def score(report):
        residual, coalition = _peak((abs(v), c) for c, v in report.entries.items() if i in c)
        return residual, lambda: trial.describe() | {
            "null_feature": i,
            "coalition": list(coalition),
        }

    return ((mut, trial),), score


def _symmetry(mut: Method, rng: np.random.Generator):
    trial, _ = _random_trial(mut, rng)
    permutation = [int(v) for v in rng.permutation(range(1, trial.n + 1))]

    def score(base, image):
        base, image = base.entries, image.entries
        residual = max(
            (
                _gap(value, image[tuple(sorted(permutation[i - 1] for i in c))])
                for c, value in base.items()
            ),
            default=0.0,
        )
        return residual, lambda: trial.describe() | {"permutation": permutation}

    return ((mut, trial), (mut, _permute_trial(trial, permutation))), score


def _pure_synergy(within_order: bool):
    """Draw: a pure interaction must give zero to its proper subsets of size < k."""

    def draw(mut: Method, rng: np.random.Generator):
        trial, members = _pure_synergy_trial(mut, rng, within_order)
        member_set = set(members)

        def score(report):
            entries = report.entries
            residual, coalition = _peak(
                (abs(v), c)
                for c, v in entries.items()
                if set(c) < member_set and len(c) < trial.k
            )
            return residual, lambda: trial.describe() | {
                "synergy": list(members),
                "coalition": list(coalition),
                "value": entries[coalition],
            }

        return ((mut, trial),), score

    return draw


def check_completeness(mut, trials: int, seed: int = 0, tol: float | None = None) -> CheckResult:
    """Nonempty-coalition scores must sum to F(x) - F(baseline)."""
    return _run_trials(mut, "completeness", trials, seed, tol, _completeness)


def check_linearity(mut, trials: int, seed: int = 0, tol: float | None = None) -> CheckResult:
    """Report of a*F + b*G must equal a*report(F) + b*report(G) entrywise."""
    return _run_trials(mut, "linearity", trials, seed, tol, _linearity)


def check_null_feature(mut, trials: int, seed: int = 0, tol: float | None = None) -> CheckResult:
    """Coalitions containing a feature the function ignores must score zero."""
    return _run_trials(mut, "null-feature", trials, seed, tol, _null_feature)


def check_symmetry(mut, trials: int, seed: int = 0, tol: float | None = None) -> CheckResult:
    """Relabeling features must relabel the report: I_S(F) = I_piS(pi F)."""
    return _run_trials(mut, "symmetry", trials, seed, tol, _symmetry)


def check_baseline_test(
    mut, trials: int, seed: int = 0, tol: float | None = None
) -> CheckResult:
    """Pure interactions of size <= k must give zero to every proper subset."""
    return _run_trials(mut, "baseline-test", trials, seed, tol, _pure_synergy(True))


def check_interaction_distribution(
    mut, trials: int, seed: int = 0, tol: float | None = None
) -> CheckResult:
    """Pure interactions of any size must give zero to proper subsets of size < k."""
    mut = _resolve(mut)
    axiom = "interaction-distribution"
    if EXPECTED_STATUS[axiom].get(mut.id, "pass") == "n/a" or mut.order == 1:
        return _not_applicable(mut, axiom)
    return _run_trials(mut, axiom, trials, seed, tol, _pure_synergy(False))


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
        return _not_applicable(mut, "continuity")
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
    details = {
        "mode": mode,
        "orders": levels,
        "residuals": residuals,
        "k": order,
        "expr": ex.to_text(expr),
    }
    status = "pass" if (final <= tol and decayed) else "fail"
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

    full_order = (REGISTRY["shapley-taylor"], REGISTRY["rs-aug"])

    def draw(rng: np.random.Generator):
        n = int(rng.integers(2, 6))
        trial = Trial("table", n, SetFunctionTable(n, rng.uniform(-1, 1, size=1 << n)))

        def score(st, rsa):
            synergies = mobius(trial.function)
            rsa = rsa.entries
            residual, coalition = _peak(
                (max(abs(v - synergies.at(c)), abs(rsa[c] - synergies.at(c))), c)
                for c, v in st.entries.items()
            )
            return residual, lambda: {
                "n": n,
                "values": trial.function.values.tolist(),
                "coalition": list(coalition),
            }

        return tuple((mut, trial) for mut in full_order), score

    return _trial_result(
        "(all-full-order)", "uniqueness-support", "pass", trials, seed, tol, draw
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
        if self.seed < 0:
            raise SynergyError(f"seed must be >= 0, got {self.seed}")
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
            seed=json_field(payload, "seed", what, as_int, 2024),
            trials=json_field(payload, "trials", what, as_int, 1000),
            methods=json_field(payload, "methods", what, _names, None),
            axioms=json_field(payload, "axioms", what, _names, None),
            tolerance_overrides=json_field(payload, "tolerance_overrides", what, _object, {}),
        )


def _object(value) -> dict:
    if not isinstance(value, Mapping):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return dict(value)


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
                probe = ex.parse(CONTINUITY_PROBE, 2)
                inst = Instance(x=(0.5, 0.5), baseline=(0.0, 0.0))
                results.append(check_continuity(mut, probe, inst, max_order=12, tol=override))
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
