"""The method registry: every attribution and interaction engine, once.

Each record carries what the CLI and the axiom suite need to run an engine:

- ``kind`` names its input. A ``table`` method runs ``run(table, k)`` on the
  2^n masked-point table. A ``polynomial`` method runs ``run(poly, x, k)`` on
  a sparse polynomial centred at the baseline. An ``analytic`` method runs
  ``run(expr, inst, config)`` by quadrature on any expression.
- ``order`` is the only k the method supports, or None for any k.
- ``oracle`` marks an independent reference engine that only ``compare``
  accepts.
- ``quadrature`` names the analytic engine that computes the same report on
  a transcendental expression (at that engine's order).
- ``rule`` names the shared kernel rule ``run`` applies at k, where it has
  one: a weight row of ``set_methods._superset_rule`` (table kind) or a
  termwise rule of ``grad_exact._array_termwise`` (polynomial kind). The
  axiom harness runs such a record's trials through that kernel in batches,
  not through ``run``.

The runners reach the kernels through their module attributes, so a caller
that redirects a kernel there also redirects its registry entry.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from . import grad_exact, grad_numeric, set_methods


@dataclass(frozen=True)
class Method:
    id: str
    kind: str  # table | polynomial | analytic
    order: int | None  # the only supported k, or None for any k
    run: Callable
    oracle: bool = False
    quadrature: str | None = None
    rule: str | None = None


REGISTRY: dict[str, Method] = {
    m.id: m
    for m in (
        Method("shapley", "table", 1, lambda table, k: set_methods.shapley(table), rule="rs"),
        Method("shapley-taylor", "table", None, set_methods.shapley_taylor,
               rule="shapley-taylor"),
        Method("rs", "table", None, set_methods.recursive_shapley, rule="rs"),
        Method("rs-aug", "table", None, set_methods.augmented_recursive_shapley, rule="rs-aug"),
        Method(
            "ig", "polynomial", 1,
            lambda poly, x, k: grad_exact.integrated_gradients(poly, x),
            quadrature="ig-quad", rule="ih",
        ),
        Method("ih", "polynomial", None, grad_exact.integrated_hessian, quadrature="ih2-quad",
               rule="ih"),
        Method("ih-aug", "polynomial", None, grad_exact.augmented_integrated_hessian,
               rule="ih-aug"),
        Method("sop", "polynomial", None, grad_exact.sum_of_powers, rule="sop"),
        Method(
            "shapley-marginal", "table", 1,
            lambda table, k: set_methods.shapley_from_marginals(table),
            oracle=True,
        ),
        Method("st-marginal", "table", None, set_methods.shapley_taylor_from_marginals, oracle=True),
        Method("rs-nested", "table", None, set_methods.recursive_shapley_nested, oracle=True),
        Method("sop-nested", "polynomial", None, grad_exact.sum_of_powers_nested, oracle=True),
        Method(
            "ih2-closed", "polynomial", 2,
            lambda poly, x, k: grad_exact.integrated_hessian_pairwise(poly, x),
            oracle=True,
        ),
        Method("ig-quad", "analytic", 1, grad_numeric.ig_quadrature, oracle=True),
        Method("ih2-quad", "analytic", 2, grad_numeric.ih2_quadrature, oracle=True),
    )
}

# The axiom suite's cells: every public method, then the quadrature route of
# each method that has one, named "<id>-quad" (so "ih-quad" is "ih2-quad").
SUITE_METHODS: dict[str, Method] = {
    **{m.id: m for m in REGISTRY.values() if not m.oracle},
    **{
        f"{m.id}-quad": replace(REGISTRY[m.quadrature], id=f"{m.id}-quad")
        for m in REGISTRY.values()
        if m.quadrature is not None
    },
}
