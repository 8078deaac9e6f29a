"""Quadrature oracle for the path-integral methods on analytic expressions.

Integrals run along the straight baseline-to-input path only. Integrands are
the exact gradient and Hessian rows that one forward-mode walk
(`expressions.jet`) carries along the path; the quadrature rule is the
single source of numeric error. `ig` uses composite Gauss-Legendre on
[0, 1]. The order-2 integrated Hessian is a double integral over s, t whose
integrands depend on s and t only through u = st, so it is the 1-D integral
of g(u)(-ln u) over [0, 1]: one composite Gauss rule for the weight -ln u,
sampled on the same 1-D path as `ig`. Summation order is fixed for
deterministic output. The walk's nodes times its rows times the samples are
capped (MAX_QUADRATURE_WORK) before anything is sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import Instance, InteractionReport, report_from_values
from .exceptions import CapExceededError, NonFiniteError
from .expressions import Expr, evaluate, jet, tree_size


# Nodes times panels: the length of either 1-D rule, so the samples per
# integrand.
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

# A call's work is the nodes `jet` visits times its rows (1 + m for ig,
# 1 + m + m^2 for ih2, m the features off their baseline) times the samples.
# The largest call in the tests and benchmark workloads does 2.7e6; on a
# 2-vCPU Xeon VM one at the cap takes 0.4-1.5 s and peaks at 36-500 MB.
MAX_QUADRATURE_WORK = 2 * 10**8


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


def _log_moments(left: float, width: float, count: int) -> np.ndarray:
    """Modified moments m_l = int_0^1 p_l(v) (-ln(left + width*v)) dv for
    l < count, against the orthonormal shifted Legendre polynomials
    p_l(v) = sqrt(2l+1) P_l(2v - 1).

    On [0, h] the weight is -ln h - ln v, whose moments are -ln h (l = 0)
    plus the closed form (-1)^l sqrt(2l+1)/(l(l+1)) of -ln v. On a panel
    off zero, with z = (2*left + width)/width > 1, they are
    (-1)^l (Q_{l-1}(z) - Q_{l+1}(z))/sqrt(2l+1) in the Legendre functions of
    the second kind, which decay in l: their ratios come from the backward
    recurrence (Miller's algorithm, started 40 terms beyond the last one
    needed), their products may underflow to 0 harmlessly.
    """
    l = np.arange(1, count, dtype=float)
    sign = (-1.0) ** l
    moments = np.empty(count)
    if left == 0.0:
        moments[0] = 1.0 - math.log(width)
        moments[1:] = sign * np.sqrt(2.0 * l + 1.0) / (l * (l + 1.0))
        return moments
    ratio = width / left
    moments[0] = 1.0 - math.log(left + width) - math.log1p(ratio) / ratio
    z = 1.0 + 2.0 / ratio
    ratios = np.empty(count + 40)  # ratios[n - 1] = Q_n(z) / Q_{n-1}(z)
    r = 0.0
    for n in range(count + 40, 0, -1):
        r = n / ((2 * n + 1) * z - (n + 1) * r)
        ratios[n - 1] = r
    q = 0.5 * math.log1p(ratio) * np.cumprod(np.concatenate(([1.0], ratios[:count])))
    moments[1:] = sign * (q[:-2] - q[2:]) / np.sqrt(2.0 * l + 1.0)
    return moments


def _gauss_rule(moments: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [0, 1] for the weight with the given Legendre modified
    moments (2*nodes of them).

    Gautschi's modified Chebyshev algorithm (Orthogonal Polynomials:
    Computation and Approximation, 2004, sec. 2.1.7) gives the weight's
    recurrence coefficients alpha_k, beta_k. It runs on the mixed moments
    <q_k, p_l> of the orthonormal polynomials q_k of the weight against the
    orthonormal Legendre p_l, which stay of order one where the monic ones
    overflow. The nodes are the eigenvalues of the Jacobi matrix (Golub and
    Welsch, Math. Comp. 23, 1969); the weights are the Christoffel numbers
    at them, which spares the eigenvectors (LAPACK's eigh with vectors runs
    10-100 times slower than eigvalsh at 64-128 nodes on a multithreaded
    OpenBLAS).
    """
    size = 2 * nodes
    l = np.arange(1, size + 1, dtype=float)
    # u p_l = b[l+1] p_{l+1} + p_l / 2 + b[l] p_{l-1}
    b = np.concatenate(([0.0], l / (2.0 * np.sqrt(4.0 * l * l - 1.0))))
    alpha = np.empty(nodes)
    beta = np.empty(nodes)
    beta[0] = moments[0]
    previous = np.zeros(size)
    current = moments / math.sqrt(moments[0])
    alpha[0] = 0.5 + b[1] * current[1] / current[0]
    root_beta = 0.0
    for k in range(nodes - 1):
        lo, hi = k + 1, size - k - 1
        following = np.zeros(size)
        following[lo:hi] = (
            b[lo + 1 : hi + 1] * current[lo + 1 : hi + 1]
            + (0.5 - alpha[k]) * current[lo:hi]
            + b[lo:hi] * current[lo - 1 : hi - 1]
            - root_beta * previous[lo:hi]
        )
        beta[k + 1] = b[k + 1] * following[k + 1] / current[k]
        root_beta = math.sqrt(beta[k + 1])
        previous, current = current, following / root_beta
        alpha[k + 1] = 0.5 + (
            b[k + 2] * current[k + 2] - root_beta * previous[k + 1]
        ) / current[k + 1]
    root_beta = np.sqrt(beta)
    jacobi = np.diag(alpha) + np.diag(root_beta[1:], 1) + np.diag(root_beta[1:], -1)
    points = np.linalg.eigvalsh(jacobi)
    # Christoffel numbers 1 / sum_k q_k(x)^2, with q_k by their recurrence
    # x q_k = root_beta[k+1] q_{k+1} + alpha[k] q_k + root_beta[k] q_{k-1}
    q_previous = np.zeros(nodes)
    q = np.full(nodes, 1.0 / root_beta[0])
    squares = q * q
    for k in range(nodes - 1):
        q_next = ((points - alpha[k]) * q - root_beta[k] * q_previous) / root_beta[k + 1]
        q_previous, q = q, q_next
        squares += q * q
    return points, 1.0 / squares


@lru_cache(maxsize=32)
def _log_weight_rule(nodes: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule for int_0^1 g(u) (-ln u) du: on each panel
    [a, a + h], the `nodes`-point Gauss rule for the weight -ln(a + h*v) on
    [0, 1], scaled by h. On the first panel that weight is -ln h - ln v, so
    one rule carries both h*(-ln h)*int g and h*int g*(-ln v). Every panel is
    exact for g of degree < 2*nodes. Points ascend: panel by panel, nodes
    ascending within each."""
    width = 1.0 / panels
    points = []
    weights = []
    for panel in range(panels):
        left = panel * width
        x, w = _gauss_rule(_log_moments(left, width, 2 * nodes), nodes)
        points.append(left + width * x)
        weights.append(width * w)
    return np.concatenate(points), np.concatenate(weights)


def _path_jet(
    expr: Expr, inst: Instance, active: list[int], order: int, config: QuadratureConfig
):
    """The rule t, w of ig (order 1) or ih2 (order 2), then F's gradient (m, t.size) and
    Hessian (m, m, t.size) in `active` along b + t(x - b), once the work cap allows."""
    m, samples = len(active), config.nodes * config.panels
    rows = 1 + m + (m * m if order > 1 else 0)
    nodes = tree_size(expr, {})
    work = nodes * rows * samples
    if work > MAX_QUADRATURE_WORK:
        raise CapExceededError(
            f"quadrature work {work:.4g} ({nodes} nodes x {rows} jet rows on {samples} "
            f"samples) exceeds the cap {MAX_QUADRATURE_WORK:.4g}"
        )
    t, w = (_log_weight_rule if order > 1 else _unit_interval_rule)(config.nodes, config.panels)
    path = [b + t * (a - b) for a, b in zip(inst.x, inst.baseline)]
    with np.errstate(over="ignore", invalid="ignore"):
        _, *derivatives, _ = jet(expr, path, active, order)
    return t, w, *(
        np.broadcast_to(0.0 if d is None else d, (m,) * k + t.shape)
        for k, d in enumerate(derivatives, 1)
    )


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"non-finite sample in {what}")
    return values


def ig_quadrature(
    expr: Expr, inst: Instance, config: QuadratureConfig = DEFAULT_CONFIG
) -> InteractionReport:
    """Integrated gradients via quadrature of the path derivative per feature."""
    n = inst.n
    deltas = [inst.x[i] - inst.baseline[i] for i in range(n)]
    active = [i for i in range(1, n + 1) if deltas[i - 1] != 0.0]
    _, w, gradient, _ = _path_jet(expr, inst, active, 1, config)
    entries = {(): float(evaluate(expr, inst.baseline))}
    for r, i in enumerate(active):
        entries[(i,)] = deltas[i - 1] * float(w @ _finite(gradient[r], f"dF/dx{i}"))
    return report_from_values(n, 1, entries)


def ih2_quadrature(
    expr: Expr, inst: Instance, config: QuadratureConfig = DEFAULT_CONFIG
) -> InteractionReport:
    """Order-2 integrated-Hessian interactions; the main effect sums its two
    integrals. The double path integrals over s, t are taken as 1-D
    integrals in u = st with the weight -ln u (`_log_weight_rule`)."""
    n = inst.n
    deltas = [inst.x[i] - inst.baseline[i] for i in range(n)]
    active = [i for i in range(1, n + 1) if deltas[i - 1] != 0.0]
    u, w, gradient, hessian = _path_jet(expr, inst, active, 2, config)
    wu = w * u
    entries = {(): float(evaluate(expr, inst.baseline))}
    for (r, i), (s, j) in combinations(enumerate(active), 2):
        integral = float(wu @ _finite(hessian[r, s], f"d2F/dx{i}dx{j}"))
        entries[(i, j)] = 2.0 * deltas[i - 1] * deltas[j - 1] * integral
    for r, i in enumerate(active):
        gradient_part = float(w @ _finite(gradient[r], f"dF/dx{i}"))
        curvature_part = float(wu @ _finite(hessian[r, r], f"d2F/dx{i}^2"))
        entries[(i,)] = (
            deltas[i - 1] * gradient_part + deltas[i - 1] ** 2 * curvature_part
        )
    return report_from_values(n, 2, entries)
