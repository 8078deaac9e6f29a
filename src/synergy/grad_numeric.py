"""Quadrature oracle for the path-integral methods on analytic expressions.

Integrals run along the straight baseline-to-input path only. Integrands use
exact symbolic partial derivatives; composite Gauss-Legendre quadrature is the
single source of numeric error. Summation order is fixed (ascending node, then
panel) for deterministic output. The integrands' tree sizes times their sample
counts are capped (MAX_QUADRATURE_WORK) before anything is sampled.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable
from itertools import combinations, combinations_with_replacement

import numpy as np

from .core import Instance, InteractionReport
from .exceptions import CapExceededError, NonFiniteError
from .expressions import Expr, evaluate, partial, tree_size
from .grad_exact import _empty_entries


# Nodes times panels: the 1-D rule's length. ih2 samples its square per
# feature pair, so this also bounds that grid (1024^2 doubles = 8 MiB).
MAX_QUADRATURE_POINTS = 1024


@dataclass(frozen=True)
class QuadratureConfig:
    nodes: int = 64
    panels: int = 4

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.nodes * self.panels > MAX_QUADRATURE_POINTS:
            raise ValueError(
                f"nodes * panels = {self.nodes * self.panels} exceeds the cap "
                f"{MAX_QUADRATURE_POINTS}"
            )


DEFAULT_CONFIG = QuadratureConfig()

# Tree nodes that evaluate visits, times the samples it visits them on, summed
# over the integrands of one quadrature call. The largest call in the tests
# and benchmark workloads does 1.6e8 (ih2 of a 49-term degree-6 polynomial);
# a call at the cap takes about 8 s on a 2-vCPU Xeon VM.
MAX_QUADRATURE_WORK = 2 * 10**9


def _require_work(integrands: Iterable[Expr], samples: int) -> None:
    """Raise before any sampling when evaluating every integrand on `samples`
    points would exceed MAX_QUADRATURE_WORK node visits."""
    memo: dict[int, int] = {}
    work = samples * sum(tree_size(e, memo) for e in integrands)
    if work > MAX_QUADRATURE_WORK:
        raise CapExceededError(
            f"quadrature work {work:.3g} node evaluations exceeds the cap "
            f"{MAX_QUADRATURE_WORK:.3g}"
        )


@lru_cache(maxsize=32)
def _unit_interval_rule(nodes: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    raw_nodes, raw_weights = np.polynomial.legendre.leggauss(nodes)
    points = []
    weights = []
    width = 1.0 / panels
    for panel in range(panels):
        left = panel * width
        points.append(left + (raw_nodes + 1.0) * (width / 2.0))
        weights.append(raw_weights * (width / 2.0))
    return np.concatenate(points), np.concatenate(weights)


def _path_points(inst: Instance, t: np.ndarray) -> list[np.ndarray]:
    return [
        inst.baseline[i] + t * (inst.x[i] - inst.baseline[i]) for i in range(inst.n)
    ]


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"non-finite sample in {what}")
    return values


def ig_quadrature(
    expr: Expr, inst: Instance, config: QuadratureConfig = DEFAULT_CONFIG
) -> InteractionReport:
    """Integrated gradients via quadrature of the path derivative per feature."""
    n = inst.n
    t, w = _unit_interval_rule(config.nodes, config.panels)
    path = _path_points(inst, t)
    deltas = [inst.x[i] - inst.baseline[i] for i in range(n)]
    partials = {i: partial(expr, i) for i in range(1, n + 1) if deltas[i - 1] != 0.0}
    _require_work(partials.values(), t.size)
    entries = _empty_entries(n, 1)
    entries[()] = float(evaluate(expr, inst.baseline))
    for i, derivative in partials.items():
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(evaluate(derivative, path), dtype=float)
        samples = np.broadcast_to(values, t.shape)
        entries[(i,)] = deltas[i - 1] * float(w @ _finite(samples, f"dF/dx{i}"))
    return InteractionReport(n=n, order=1, entries=entries)


def ih2_quadrature(
    expr: Expr, inst: Instance, config: QuadratureConfig = DEFAULT_CONFIG
) -> InteractionReport:
    """Order-2 integrated-Hessian interactions via tensor-product quadrature
    over the twice-scaled path; the main effect sums its two integrals."""
    n = inst.n
    t, w = _unit_interval_rule(config.nodes, config.panels)
    st = np.multiply.outer(t, t)
    weights = np.multiply.outer(w, w)
    grid = [
        inst.baseline[i] + st * (inst.x[i] - inst.baseline[i]) for i in range(n)
    ]
    deltas = [inst.x[i] - inst.baseline[i] for i in range(n)]

    def sample(e: Expr, what: str) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(evaluate(e, grid), dtype=float)
        return _finite(np.broadcast_to(values, st.shape), what)

    active = [i for i in range(1, n + 1) if deltas[i - 1] != 0.0]
    first_partials = {i: partial(expr, i) for i in active}
    second_partials = {
        (i, j): partial(first_partials[i], j)
        for i, j in combinations_with_replacement(active, 2)
    }
    _require_work([*first_partials.values(), *second_partials.values()], st.size)
    entries = _empty_entries(n, 2)
    entries[()] = float(evaluate(expr, inst.baseline))
    for i, j in combinations(active, 2):
        cross = second_partials[(i, j)]
        integral = float(np.sum(weights * st * sample(cross, f"d2F/dx{i}dx{j}")))
        entries[(i, j)] = 2.0 * deltas[i - 1] * deltas[j - 1] * integral
    for i in active:
        gradient_part = float(np.sum(weights * sample(first_partials[i], f"dF/dx{i}")))
        curvature = second_partials[(i, i)]
        curvature_part = float(
            np.sum(weights * st * sample(curvature, f"d2F/dx{i}^2"))
        )
        entries[(i,)] = (
            deltas[i - 1] * gradient_part + deltas[i - 1] ** 2 * curvature_part
        )
    return InteractionReport(n=n, order=2, entries=entries)
