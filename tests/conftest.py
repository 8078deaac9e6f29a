"""Shared generators for the test suite. Everything is seeded explicitly."""
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from synergy import expressions as ex
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


def make_table(rng, n):
    return SetFunctionTable(n, rng.uniform(-1, 1, size=1 << n))


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
