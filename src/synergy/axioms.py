"""Method-agnostic axiom checker.

Feeds seeded random instances to any registered method and asserts the
axioms: completeness, linearity, null feature, symmetry, the baseline test
for interactions, interaction distribution, and Taylor-truncation continuity.
The expected matrix is one rule, `expected_status`, not check logic: the
documented failures, plus two kinds of cell that do not apply.

All randomness derives from a master seed by counter, so every report is
reproducible from (seed, config).

The harness works on arrays: a polynomial trial holds its exponent rows and
coefficients, and the batched kernels' value rows are scored as they come,
in layout order, through cached index arrays. A report object comes only
from a method without a shared-kernel rule, or raises the error of a row
that is not finite.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import expressions as ex
from . import grad_exact, set_methods
from .core import (
    Coalition,
    Instance,
    InteractionReport,
    _lex_order,
    as_int,
    coalition_layout,
    json_field,
    sequential_sum,
)
from .exceptions import SynergyError
from .expressions import Expr
from .grad_numeric import DEFAULT_CONFIG, QuadratureConfig
from .methods import REGISTRY, SUITE_METHODS, Method
from .polynomials import SparsePolynomial, canonical_order, exponent_rows, multi_indices
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

# rs and ih violate the baseline test, and only the top-distributing
# methods satisfy interaction distribution.
EXPECTED_FAILURES = {
    "baseline-test": {"rs", "ih", "ih-quad"},
    "interaction-distribution": {"rs", "rs-aug", "ih", "ih-aug", "ih-quad"},
}


def expected_status(mut: Method, axiom: str) -> str:
    """pass, fail or n/a: interaction distribution does not apply at order
    1, nor continuity off the polynomial kind."""
    if (axiom == "interaction-distribution" and mut.order == 1) or (
        axiom == "continuity" and mut.kind != "polynomial"
    ):
        return "n/a"
    return "fail" if mut.id in EXPECTED_FAILURES.get(axiom, ()) else "pass"


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
    SparsePolynomial centred at 0 (the harness draws it as term arrays) or
    an Expr with baseline 0, evaluated at `x` (empty for a table)."""

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

def _pick_order(mut: Method, rng: np.random.Generator, n: int) -> int:
    if mut.order is not None:
        return mut.order
    return int(rng.integers(2, min(3, n) + 1))


@lru_cache(maxsize=64)
def _candidates(n: int, degree: int, exclude: int | None) -> np.ndarray:
    """The exponent rows a random polynomial may use, in draw order
    (lexicographic), as a read-only array."""
    rows = exponent_rows(multi_indices(n, degree), n)
    if exclude is not None:
        rows = rows[rows[:, exclude - 1] == 0]
    rows.setflags(write=False)
    return rows


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
    64-bit draws and leave the buffered 32-bit half alone. The hits are
    kept as indices into the candidate rows, which are in lexicographic
    order, so the terms are sorted.
    """
    candidates = _candidates(n, degree, exclude)
    hits, draws = [], []  # the candidates hit, and the u' of their coefficients
    decided, pending = 0, False
    while decided < len(candidates) or pending:
        for u in rng.random(len(candidates) - decided + pending).tolist():
            if pending:
                draws.append(u)
                pending = False
                continue
            if u < density:
                hits.append(decided)
                pending = True
            decided += 1
    if hits:
        rows, coefficients = candidates.take(hits, axis=0), -1.0 + 2.0 * np.array(draws)
    else:  # x1, or x2 where feature 1 is the null feature
        rows = np.zeros((1, n), np.int64)
        rows[0, 0 if exclude != 1 else 1] = 1
        coefficients = np.array([float(rng.uniform(-1, 1))])
    if not coefficients.all():  # a draw of exactly 0.5
        nonzero = coefficients != 0.0
        rows, coefficients = rows[nonzero], coefficients[nonzero]
    return SparsePolynomial._from_arrays((0.0,) * n, rows, coefficients)


def _random_analytic(
    rng: np.random.Generator, n: int, exclude: int | None = None
) -> Expr:
    allowed = [i for i in range(1, n + 1) if i != exclude]
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        coefficient = ex.Const(float(rng.uniform(-1, 1)))
        a = allowed[rng.integers(len(allowed))]
        b = allowed[rng.integers(len(allowed))]
        if rng.uniform() < 0.5:
            func = ex.FUNCTIONS[rng.integers(len(ex.FUNCTIONS))]
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
    return float(rng.uniform(low, high) * (-1.0, 1.0)[rng.integers(2)])


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
    return Trial(mut.kind, k, function, tuple(rng.uniform(-1, 1, size=n).tolist())), i


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
    members = tuple(sorted((1 + rng.choice(n, size=size, replace=False)).tolist()))
    if mut.kind == "table":
        table = pure_synergy_table(n, members, _signed_uniform(rng))
        return Trial("table", k, table), members
    exponents = {i: int(rng.integers(1, 4)) for i in members}
    m = tuple(exponents.get(i, 0) for i in range(1, n + 1))
    x = tuple(_signed_uniform(rng) for _ in range(n))
    if mut.kind == "polynomial":
        function = SparsePolynomial._from_arrays(
            (0.0,) * n, np.array([m], np.int64), np.array([_signed_uniform(rng)])
        )
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
    return Trial(trial_a.kind, trial_a.k, function, trial_a.x)


def _permute_trial(trial: Trial, permutation: Sequence[int]) -> Trial:
    """The trial with feature i relabelled permutation[i-1]."""
    if trial.kind == "table":
        return Trial("table", trial.k, permute_table(trial.function, permutation))
    source = np.argsort(permutation)  # position j of an image takes position source[j]
    x = tuple(trial.x[i] for i in source.tolist())

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
        rows = poly.exponent_array[:, source]
        order = canonical_order(rows)
        function = SparsePolynomial._from_arrays(poly.center, rows[order], poly.coefficients[order])
    else:
        function = relabel(trial.function)
    return Trial(trial.kind, trial.k, function, x)


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


def _rows(requests: Sequence[tuple[Method, Trial]]) -> list[np.ndarray]:
    """The report values of each (method, trial) request, in layout order,
    in request order.

    Requests whose method carries a shared-kernel rule are grouped by (kind,
    rule, n, k), and each group runs as one kernel call: tables stacked as
    rows, polynomials laid end to end. Their rows are used as the kernel
    gives them, with no report object. Every other request runs its
    method's `run` on its own, in request order. The rows are taken in
    request order too, and a batched row that is not finite goes through
    the report constructor there, so the first such request raises the
    report's NonFiniteError."""
    groups: dict[tuple, list[int]] = {}
    for i, (mut, trial) in enumerate(requests):
        if mut.rule is not None:
            groups.setdefault((mut.kind, mut.rule, trial.n, trial.k), []).append(i)
    rows: list = [None] * len(requests)
    nonfinite = {}
    for (kind, rule, n, k), members in groups.items():
        trials = [requests[i][1] for i in members]
        if kind == "table":
            tables = np.stack([trial.function.values for trial in trials])
            values = set_methods._superset_rule(tables, n, k, rule)
        else:
            polys, points = [trial.function for trial in trials], [trial.x for trial in trials]
            values = grad_exact._array_termwise(polys, points, k, rule)
        for i, row in zip(members, values):
            rows[i] = row
        for j in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist():
            nonfinite[members[j]] = values[j]
    for i, (mut, trial) in enumerate(requests):
        if i in nonfinite:
            InteractionReport(trial.n, trial.k, nonfinite[i])  # raises its NonFiniteError
        if rows[i] is None:
            rows[i] = _unbatched_row(mut, trial)
    return rows


def _unbatched_row(mut: Method, trial: Trial) -> np.ndarray:
    """The values of `mut.run`'s report on a trial, which must cover the
    trial's P_k."""
    report = _report(mut, trial)
    if (report.n, report.order) != (trial.n, trial.k):
        raise SynergyError(
            f"method {mut.id!r} gave a report of P_{report.order} over n={report.n} "
            f"for a trial of P_{trial.k} over n={trial.n}"
        )
    return report.values


def _peak(scored) -> tuple[float, object]:
    """The largest of (residual, key) pairs and the first key reaching it."""
    worst, where = 0.0, None
    for residual, key in scored:
        if residual > worst:
            worst, where = residual, key
    return worst, where


def _largest_gap(u: np.ndarray, v: np.ndarray) -> float:
    """The largest |u - v| / max(1, |u|, |v|) over two value rows."""
    gaps = np.abs(u - v) / np.maximum(np.maximum(np.abs(u), np.abs(v)), 1.0)
    return max(gaps.tolist())


def _peak_slot(row: np.ndarray, slots: np.ndarray) -> tuple[float, int | None]:
    """_peak of the |values| of a row at some slots, keyed by slot: the slots
    are visited in the order given, layout order, so a tie names the first."""
    return _peak(zip(np.abs(row[slots]).tolist(), slots.tolist()))


def _index(slots: Iterable[int]) -> np.ndarray:
    """Slots as a read-only index array."""
    array = np.fromiter(slots, np.intp)
    array.setflags(write=False)
    return array


# Per-(n, k) index arrays over the layout of P_k, each read-only and in
# layout order (see core.coalition_layout).

@lru_cache(maxsize=256)
def _slots_holding(n: int, k: int, feature: int) -> np.ndarray:
    """The slots of the coalitions that hold `feature`."""
    return _index(s for s, c in enumerate(coalition_layout(n, k)[0]) if feature in c)


@lru_cache(maxsize=64)
def _member_bits(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per slot, its coalition's features as a row of n bits, feature i in
    column i-1; and per subset encoding of at most k features, its slot."""
    _, masks = coalition_layout(n, k)
    bits = (masks[:, None] >> np.arange(n)) & 1
    slots = np.zeros(1 << n, np.intp)
    slots[masks] = np.arange(len(masks))
    return bits, slots


def _image_slots(n: int, k: int, permutation: Sequence[int]) -> np.ndarray:
    """Per slot, the slot of its coalition's image, feature i sent to
    permutation[i-1]."""
    bits, slots = _member_bits(n, k)
    return slots[bits @ (1 << (np.array(permutation) - 1))]


@lru_cache(maxsize=1024)
def _proper_subset_slots(n: int, k: int, members: Coalition) -> np.ndarray:
    """The slots of the proper subsets of `members` below size k."""
    within = set(members)
    return _index(
        s for s, c in enumerate(coalition_layout(n, k)[0]) if len(c) < k and set(c) < within
    )


def _not_applicable(mut: Method, axiom: str) -> CheckResult:
    return CheckResult(
        method=mut.id,
        axiom=axiom,
        status="not-applicable",
        expected="n/a",
        max_residual=0.0,
        trials=0,
    )


def _validated(trials, seed, tolerances: Mapping[str, object]) -> tuple[int | None, int | None]:
    """The one check of the harness's arguments, shared by every `check_*`
    and `SuiteConfig`: trials and seed as ints, once they and the named
    tolerances pass; None is an argument not given. A SynergyError names the
    first that is not an integer >= 1 (trials), an integer >= 0 (seed) or a
    finite number >= 0 (each tolerance)."""
    counts = []
    for name, value, low in (("trials", trials, 1), ("seed", seed, 0)):
        integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if value is not None and not (integral and value >= low):
            raise SynergyError(f"{name} must be an integer >= {low}, got {value!r}")
        counts.append(None if value is None else int(value))
    for name, tol in tolerances.items():
        real = isinstance(tol, (int, float)) and not isinstance(tol, bool)
        if not (real and 0 <= tol < np.inf):
            raise SynergyError(f"{name} must be a finite number >= 0, got {tol!r}")
    return counts[0], counts[1]


# Trials a cell draws, and runs the kernels of, at a time: memory stays
# bounded however many trials a cell runs.
_BATCH_TRIALS = 128


def _trial_result(
    method_id: str, axiom: str, expected: str, trials: int, seed: int, tol: float, draw
) -> CheckResult:
    """The trial loop, in two phases per batch of trials. First
    `draw(rng)` draws each seeded trial and names the (method, trial)
    requests whose value rows it needs, with a scorer; then every request
    of the batch runs (see `_rows`), and each scorer takes its trial's
    rows, in the order it named them, and gives the trial's residual and a
    witness thunk. The witness is the first trial with the largest
    residual, described only when the check fails."""

    # imported with the first cell, not with the package: start-up compiles
    # and runs only what building the parser needs
    from .seeding import generators

    def scored():
        for start in range(0, trials, _BATCH_TRIALS):
            stop = min(trials, start + _BATCH_TRIALS)
            drawn = [draw(rng) for rng in generators(seed, start, stop)]
            rows = iter(_rows([request for needed, _ in drawn for request in needed]))
            for needed, score in drawn:
                yield score(*(next(rows) for _ in needed))

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
    """One method x axiom cell: `draw(mut, rng)` per trial at the axiom's tolerance, or n/a."""
    trials, seed = _validated(trials, seed, {} if tol is None else {"tol": tol})
    mut = _resolve(mut)
    expected = expected_status(mut, axiom)
    if expected == "n/a":
        return _not_applicable(mut, axiom)
    return _trial_result(
        mut.id,
        axiom,
        expected,
        trials,
        seed,
        TOLERANCES[axiom][mut.kind] if tol is None else tol,
        lambda rng: draw(mut, rng),
    )


def _completeness(mut: Method, rng: np.random.Generator):
    trial, _ = _random_trial(mut, rng)
    target = trial.difference()
    lex = _lex_order(trial.n, trial.k)[1:]

    def score(row):
        # the nonempty coalitions in lexicographic order, as report.total() sums them
        total = sequential_sum(row[lex])
        residual = abs(total - target) / max(1.0, abs(target))
        return residual, lambda: trial.describe() | {"target": target}

    return ((mut, trial),), score


def _linearity(mut: Method, rng: np.random.Generator):
    trial, _ = _random_trial(mut, rng)
    other = Trial(trial.kind, trial.k, _random_function(trial.kind, rng, trial.n), trial.x)
    a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))

    def score(combined, left, right):
        residual = _largest_gap(combined, a * left + b * right)
        return residual, lambda: trial.describe() | {"a": a, "b": b}

    return ((mut, _combine(trial, other, a, b)), (mut, trial), (mut, other)), score


def _null_feature(mut: Method, rng: np.random.Generator):
    trial, i = _random_trial(mut, rng, null_feature=True)

    def score(row):
        residual, slot = _peak_slot(row, _slots_holding(trial.n, trial.k, i))
        return residual, lambda: trial.describe() | {
            "null_feature": i,
            "coalition": list(coalition_layout(trial.n, trial.k)[0][slot]),
        }

    return ((mut, trial),), score


def _symmetry(mut: Method, rng: np.random.Generator):
    trial, _ = _random_trial(mut, rng)
    permutation = (rng.permutation(trial.n) + 1).tolist()

    def score(base, image):
        residual = _largest_gap(base, image[_image_slots(trial.n, trial.k, permutation)])
        return residual, lambda: trial.describe() | {"permutation": permutation}

    return ((mut, trial), (mut, _permute_trial(trial, permutation))), score


def _pure_synergy(within_order: bool):
    """Draw: a pure interaction must give zero to its proper subsets of size < k."""

    def draw(mut: Method, rng: np.random.Generator):
        trial, members = _pure_synergy_trial(mut, rng, within_order)

        def score(row):
            residual, slot = _peak_slot(row, _proper_subset_slots(trial.n, trial.k, members))
            return residual, lambda: trial.describe() | {
                "synergy": list(members),
                "coalition": list(coalition_layout(trial.n, trial.k)[0][slot]),
                "value": float(row[slot]),
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
    return _run_trials(mut, "interaction-distribution", trials, seed, tol, _pure_synergy(False))


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
    _validated(None, None, {} if tol is None else {"tol": tol})
    mut = _resolve(mut)
    if expected_status(mut, "continuity") == "n/a":
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
        expected=expected_status(mut, "continuity"),
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

    trials, seed = _validated(trials, seed, {"tol": tol})
    full_order = (REGISTRY["shapley-taylor"], REGISTRY["rs-aug"])

    def draw(rng: np.random.Generator):
        n = int(rng.integers(2, 6))
        trial = Trial("table", n, SetFunctionTable(n, rng.uniform(-1, 1, size=1 << n)))

        def score(st, rsa):
            synergies = mobius(trial.function).values[coalition_layout(n, n)[1]]
            residuals = np.maximum(np.abs(st - synergies), np.abs(rsa - synergies))
            residual, coalition = _peak(zip(residuals.tolist(), coalition_layout(n, n)[0]))
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
        overrides = self.tolerance_overrides.items()
        _validated(
            self.trials, self.seed, {f"tolerance_overrides[{key!r}]": tol for key, tol in overrides}
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
