"""Quadrature oracle for the path-integral methods on analytic expressions.

Integrals run along the straight baseline-to-input path only. Integrands use
exact symbolic partial derivatives; composite Gauss-Legendre quadrature is the
single source of numeric error. Summation order is fixed (ascending node, then
panel) for deterministic output.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import Instance, InteractionReport
from .exceptions import NonFiniteError
from .expressions import Expr, evaluate, partial
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
    entries = _empty_entries(n, 1)
    entries[()] = float(evaluate(expr, inst.baseline))
    for i in range(1, n + 1):
        delta = inst.x[i - 1] - inst.baseline[i - 1]
        if delta == 0.0:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(evaluate(partial(expr, i), path), dtype=float)
        samples = np.broadcast_to(values, t.shape)
        entries[(i,)] = delta * float(w @ _finite(samples, f"dF/dx{i}"))
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

    entries = _empty_entries(n, 2)
    entries[()] = float(evaluate(expr, inst.baseline))
    first_partials = {i: partial(expr, i) for i in range(1, n + 1)}
    for i, j in combinations(range(1, n + 1), 2):
        if deltas[i - 1] == 0.0 or deltas[j - 1] == 0.0:
            continue
        cross = partial(first_partials[i], j)
        integral = float(np.sum(weights * st * sample(cross, f"d2F/dx{i}dx{j}")))
        entries[(i, j)] = 2.0 * deltas[i - 1] * deltas[j - 1] * integral
    for i in range(1, n + 1):
        if deltas[i - 1] == 0.0:
            continue
        gradient_part = float(np.sum(weights * sample(first_partials[i], f"dF/dx{i}")))
        curvature = partial(first_partials[i], i)
        curvature_part = float(
            np.sum(weights * st * sample(curvature, f"d2F/dx{i}^2"))
        )
        entries[(i,)] = (
            deltas[i - 1] * gradient_part + deltas[i - 1] ** 2 * curvature_part
        )
    return InteractionReport(n=n, order=2, entries=entries)
