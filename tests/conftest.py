"""Shared generators for the test suite. Everything is seeded explicitly."""
import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from synergy import expressions as ex
from synergy.combinatorics import coalition_count
from synergy.core import report_from_values
from synergy.grad_numeric import DEFAULT_CONFIG
from synergy.polynomials import SparsePolynomial, multi_indices
from synergy.set_methods import SetFunctionTable


def make_polynomial(rng, n, degree=5, density=0.3):
    terms = {}
    for total in range(degree + 1):
        for slots in combinations_with_replacement(range(n), total):
            m = [0] * n
            for s in slots:
                m[s] += 1
            if rng.uniform() < density:
                terms[tuple(m)] = float(rng.uniform(-1, 1))
    if not terms:
        terms[(1,) + (0,) * (n - 1)] = float(rng.uniform(0.5, 1))
    return SparsePolynomial((0.0,) * n, terms)


def coalition_members(mask):
    """Sorted 1-based members of a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def report_from_json_dict(payload):
    """The report a report's JSON payload describes (its n is its number of
    singletons); its rows must cover P_order exactly, each once."""
    entries = {
        tuple(int(i) for i in item["coalition"]): float(item["value"])
        for item in payload["entries"]
    }
    n = sum(1 for c in entries if len(c) == 1)
    order = int(payload["order"])
    if len(payload["entries"]) != len(entries) or len(entries) != coalition_count(n, order):
        raise ValueError(
            f"{len(payload['entries'])} rows do not cover the "
            f"{coalition_count(n, order)} coalitions of P_{order} over n={n} once each"
        )
    return report_from_values(n, order, entries)


def make_table(rng, n):
    return SetFunctionTable(n, rng.uniform(-1, 1, size=1 << n))


def oracle_corpus(seed=11):
    """The inputs of acceptance criterion 5, drawn in its order from one
    generator: 200 (table, k) for rs, 100 (polynomial, x, k) for sop and 100
    (polynomial, x) for the order-2 integrated Hessian."""
    rng = np.random.default_rng(seed)
    rs_cases = []
    for _ in range(200):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        rs_cases.append((make_table(rng, n), k))
    sop_cases = []
    for _ in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        p = make_polynomial(rng, n, degree=5)
        sop_cases.append((p, tuple(rng.uniform(-1, 1, n)), k))
    ih_cases = []
    for _ in range(100):
        n = int(rng.integers(2, 4))
        p = make_polynomial(rng, n, degree=8, density=0.25)
        ih_cases.append((p, tuple(rng.uniform(-1, 1, n))))
    return rs_cases, sop_cases, ih_cases


def ih2_tensor_grid(expr, inst, config=DEFAULT_CONFIG):
    """Order-2 integrated Hessian as the double integral over (s, t) in
    [0, 1]^2 by the tensor product of composite Gauss-Legendre rules, every
    integrand sampled on the (nodes * panels)^2 grid of st (reference for
    the 1-D log-weight rule of `ih2_quadrature`)."""
    raw_nodes, raw_weights = np.polynomial.legendre.leggauss(config.nodes)
    width = 1.0 / config.panels
    t = np.concatenate(
        [p * width + (raw_nodes + 1.0) * width / 2 for p in range(config.panels)]
    )
    w = np.tile(raw_weights * width / 2, config.panels)
    st = np.multiply.outer(t, t)
    weights = np.multiply.outer(w, w)
    deltas = [a - b for a, b in zip(inst.x, inst.baseline)]
    grid = [b + st * d for b, d in zip(inst.baseline, deltas)]

    def integral(e, scale):
        values = np.broadcast_to(np.asarray(ex.evaluate(e, grid), dtype=float), st.shape)
        return float(np.sum(weights * scale * values))

    active = [i for i in range(1, inst.n + 1) if deltas[i - 1] != 0.0]
    firsts = {i: ex.partial(expr, i) for i in active}
    entries = {c: 0.0 for size in (1, 2) for c in combinations(range(1, inst.n + 1), size)}
    entries[()] = float(ex.evaluate(expr, inst.baseline))
    for i, j in combinations(active, 2):
        cross = integral(ex.partial(firsts[i], j), st)
        entries[(i, j)] = 2.0 * deltas[i - 1] * deltas[j - 1] * cross
    for i in active:
        gradient = integral(firsts[i], 1.0)
        curvature = integral(ex.partial(firsts[i], i), st)
        entries[(i,)] = deltas[i - 1] * gradient + deltas[i - 1] ** 2 * curvature
    return report_from_values(inst.n, 2, entries)


def shapley_with_frozen(table, j, frozen):
    """Shapley value of feature j with feature `frozen` held at its input value
    (reference for the frozen-feature oracles)."""
    n = table.n
    if n < 2:
        raise ValueError("needs at least two features")
    values = table.values
    bit_j = 1 << (j - 1)
    bit_i = 1 << (frozen - 1)
    total = 0.0
    for s in range(1 << n):
        if s & (bit_i | bit_j):
            continue
        weight = (
            math.factorial(s.bit_count())
            * math.factorial(n - s.bit_count() - 2)
            / math.factorial(n - 1)
        )
        total += weight * (values[s | bit_i | bit_j] - values[s | bit_i])
    return total


def reference_taylor(expr, center, order):
    """Taylor polynomial by nested symbolic differentiation: one derivative
    tree per exponent vector, each the partial of its parent, evaluated at
    the center and divided by the factorials (reference for the series
    walker behind `taylor`)."""
    n = len(center)
    derivatives = {(0,) * n: expr}
    terms = {}
    # lexicographic order: each vector's parent (one less at its first
    # nonzero position) comes before it
    for m in multi_indices(n, order):
        if m not in derivatives:
            j = next(i for i, e in enumerate(m) if e > 0)
            parent = m[:j] + (m[j] - 1,) + m[j + 1 :]
            derivatives[m] = ex.partial(derivatives[parent], j + 1)
        coefficient = ex.evaluate(derivatives[m], center)
        for e in m:
            coefficient /= math.factorial(e)
        if coefficient != 0.0:
            terms[m] = coefficient
    return SparsePolynomial(center, terms)


@pytest.fixture
def rng():
    return np.random.default_rng(20240614)


@pytest.fixture
def random_polynomial():
    return make_polynomial


@pytest.fixture
def random_table():
    return make_table
