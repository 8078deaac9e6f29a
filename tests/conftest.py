"""Shared generators for the test suite. Everything is seeded explicitly."""
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from synergy.polynomials import SparsePolynomial
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240614)


@pytest.fixture
def random_polynomial():
    return make_polynomial


@pytest.fixture
def random_table():
    return make_table
