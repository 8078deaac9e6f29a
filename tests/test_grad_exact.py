import warnings
from functools import lru_cache
from itertools import combinations, compress, product

import numpy as np
import pytest

from synergy import grad_exact, polynomials
from synergy.combinatorics import coalition_count, enumerate_coalitions, monomial_mass
from synergy.core import Instance, InteractionReport, coalition_slot
from synergy.exceptions import CapExceededError, DimensionMismatchError, NonFiniteError
from synergy.grad_exact import (
    _array_termwise,
    _shares,
    _termwise,
    augmented_integrated_hessian,
    ig_polynomial,
    integrated_gradients,
    integrated_hessian,
    integrated_hessian_pairwise,
    sum_of_powers,
    sum_of_powers_nested,
)
from synergy.polynomials import SparsePolynomial, overflowed_power, support
from synergy.set_methods import (
    augmented_recursive_shapley,
    build_table,
    recursive_shapley,
    shapley,
    shapley_taylor,
    shapley_taylor_frozen,
)
from tests.conftest import make_polynomial, shapley_with_frozen

MONO_100_1 = SparsePolynomial((0.0, 0.0), {(100, 1): 1.0})
X1X2_IN_3 = SparsePolynomial((0.0, 0.0, 0.0), {(1, 1, 0): 1.0})


def test_ig_splits_by_exponent_share():
    report = integrated_gradients(MONO_100_1, (2.0, 2.0))
    assert report.value((1,)) == pytest.approx((100 / 101) * 2.0**101, rel=1e-12)
    assert report.value((2,)) == pytest.approx((1 / 101) * 2.0**101, rel=1e-12)


def test_ig_of_constant_is_empty_set_only():
    p = SparsePolynomial((0.0, 0.0), {(0, 0): 3.0})
    report = integrated_gradients(p, (1.0, 1.0))
    assert report.value(()) == 3.0
    assert report.total() == 0.0


def test_shapley_vs_ig_contrast_both_complete():
    inst = Instance(x=(2.0, 2.0), baseline=(0.0, 0.0))
    table = build_table(inst, MONO_100_1.evaluate)
    shap = shapley(table)
    ig = integrated_gradients(MONO_100_1, (2.0, 2.0))
    assert shap.value((1,)) == pytest.approx(2.0**100, rel=1e-9)
    assert shap.value((2,)) == pytest.approx(2.0**100, rel=1e-9)
    assert shap.total() == pytest.approx(2.0**101, rel=1e-9)
    assert ig.total() == pytest.approx(2.0**101, rel=1e-9)


def test_ih_monomial_masses_order_two():
    p = SparsePolynomial((0.0, 0.0), {(3, 2): 1.0})
    x = (0.8, -0.6)
    value = p.evaluate(x)
    report = integrated_hessian(p, x, 2)
    assert report.value((1, 2)) == pytest.approx(2 * 3 * 2 / 25 * value, rel=1e-12)
    assert report.value((1,)) == pytest.approx(9 / 25 * value, rel=1e-12)
    assert report.value((2,)) == pytest.approx(4 / 25 * value, rel=1e-12)


def test_ih_violates_baseline_test_on_pair_monomial():
    report = integrated_hessian(X1X2_IN_3, (1.0, 1.0, 1.0), 2)
    assert report.value((1,)) == pytest.approx(0.25)
    assert report.value((2,)) == pytest.approx(0.25)
    assert report.value((1, 2)) == pytest.approx(0.5)


def test_ih_matches_nested_ig_over_covering_sequences(rng):
    """The order-k scores equal the sum of nested symbolic integrated-gradients
    applications over every sequence covering the coalition."""
    from itertools import combinations

    from synergy.combinatorics import enumerate_sequences

    for _ in range(8):
        n = 4
        k = int(rng.integers(2, 4))
        p = make_polynomial(rng, n, degree=5)
        x = tuple(rng.uniform(-1, 1, n))
        report = integrated_hessian(p, x, k)
        for size in range(1, k + 1):
            for coalition in combinations(range(1, n + 1), size):
                total = 0.0
                for sequence in enumerate_sequences(k, coalition):
                    nested = p
                    for i in sequence:
                        nested = ig_polynomial(nested, i)
                    total += nested.evaluate(x)
                assert report.value(coalition) == pytest.approx(
                    total, rel=1e-10, abs=1e-12
                )


def test_ih_completeness(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        p = make_polynomial(rng, n, degree=8)
        x = tuple(rng.uniform(-1, 1, n))
        report = integrated_hessian(p, x, k)
        target = p.evaluate(x) - p.constant_term()
        assert report.total() == pytest.approx(target, rel=1e-9, abs=1e-9)


def test_augmented_ih_restores_baseline_test():
    report = augmented_integrated_hessian(X1X2_IN_3, (1.0, 1.0, 1.0), 2)
    assert report.value((1, 2)) == pytest.approx(1.0)
    assert report.value((1,)) == 0.0
    assert report.value((2,)) == 0.0


def test_augmented_ih_matches_plain_on_oversized_support():
    p = SparsePolynomial((0.0,) * 4, {(1, 2, 1, 1): 0.7})
    x = (0.5, -0.5, 0.25, 1.0)
    plain = integrated_hessian(p, x, 2)
    augmented = augmented_integrated_hessian(p, x, 2)
    assert plain.max_abs_difference(augmented) == 0.0


def test_augmented_ih_two_computation_paths_agree(rng):
    """Distribution rule vs. the explicit pin-then-redistribute construction."""
    for _ in range(15):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        p = make_polynomial(rng, n, degree=6)
        x = tuple(rng.uniform(-1, 1, n))
        rule = augmented_integrated_hessian(p, x, k)
        pieces = p.synergy_split()
        residual_terms = {}
        for coalition, piece in pieces.items():
            if len(coalition) > k:
                residual_terms.update(piece.terms)
        residual = SparsePolynomial(p.center, residual_terms)
        redistributed = integrated_hessian(residual, x, k)
        for coalition, value in rule.entries.items():
            piece = pieces.get(coalition)
            direct = piece.evaluate(x) if piece is not None and len(coalition) <= k else 0.0
            if not coalition:
                direct = p.constant_term()
            composed = direct + redistributed.entries[coalition]
            assert value == pytest.approx(composed, rel=1e-10, abs=1e-10)


def test_sum_of_powers_worked_example():
    p = SparsePolynomial((0.0, 0.0, 0.0), {(1, 2, 3): 1.0})
    report = sum_of_powers(p, (1.0, 1.0, 1.0), 2)
    assert report.value((1, 2)) == pytest.approx(0.25)
    assert report.value((1, 3)) == pytest.approx(1.0 / 3.0)
    assert report.value((2, 3)) == pytest.approx(5.0 / 12.0)
    assert report.total() == pytest.approx(1.0)
    assert report.value((1,)) == 0.0


def test_sum_of_powers_exact_support_gets_everything():
    p = SparsePolynomial((0.0, 0.0), {(2, 3): 1.5})
    x = (0.5, 2.0)
    report = sum_of_powers(p, x, 2)
    assert report.value((1, 2)) == pytest.approx(p.evaluate(x))
    assert report.value((1,)) == 0.0


def test_sum_of_powers_order_one_is_ig(rng):
    for _ in range(10):
        p = make_polynomial(rng, 3)
        x = tuple(rng.uniform(-1, 1, 3))
        assert sum_of_powers(p, x, 1).max_abs_difference(
            integrated_gradients(p, x)
        ) == 0.0


def test_sum_of_powers_nested_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        p = make_polynomial(rng, n, degree=5)
        x = tuple(rng.uniform(-1, 1, n))
        a = sum_of_powers(p, x, k)
        b = sum_of_powers_nested(p, x, k)
        assert a.max_abs_difference(b) < 1e-9


def test_ig_polynomial_stores_what_the_validated_construction_stores():
    """The shares c * m_i / |m|, in the polynomial's term order, a share that
    underflows to zero dropped, as the constructor drops it."""
    p = SparsePolynomial(
        (0.5, -1.0), {(1, 1): 5e-324, (2, 1): 3.0, (0, 2): 1.5, (3, 0): -1e-300}
    )
    for i in (1, 2):
        shares = {m: c * m[i - 1] / sum(m) for m, c in p.terms.items() if m[i - 1]}
        built = ig_polynomial(p, i)
        validated = SparsePolynomial(p.center, shares)
        assert list(built.terms.items()) == list(validated.terms.items())
    assert (1, 1) not in ig_polynomial(p, 1).terms


def test_sum_of_powers_nested_order_one_is_the_ig_construction(monkeypatch):
    """At k = 1 the oracle evaluates each feature's integrated-gradients
    polynomial, so it catches a fault in the production share rows."""
    p = SparsePolynomial(
        (0.5, -1.0, 0.0), {(0, 0, 0): 1.5, (1, 1, 0): 3.0, (2, 1, 1): 0.25, (0, 1, 3): -0.5}
    )
    x = (1.5, 0.25, -2.0)
    oracle = sum_of_powers_nested(p, x, 1)
    assert oracle.values.tolist() == [1.5] + [
        ig_polynomial(p, i).evaluate(x) for i in (1, 2, 3)
    ]
    assert sum_of_powers(p, x, 1).max_abs_difference(oracle) < 1e-12
    shares = grad_exact._shares
    monkeypatch.setattr(
        grad_exact, "_shares", lambda rule, k, exponents: tuple(
            1.25 * share for share in shares(rule, k, exponents)
        )
    )
    assert sum_of_powers(p, x, 1).max_abs_difference(oracle) > 0.1
    assert sum_of_powers_nested(p, x, 1) == oracle


def test_sum_of_powers_nested_pair_uses_frozen_shapley(rng):
    """For k=2 the frozen Shapley-Taylor collapses to the frozen Shapley."""
    p = make_polynomial(rng, 4, degree=4)
    x = tuple(rng.uniform(-1, 1, 4))
    inst = Instance(x=x, baseline=p.center)
    report = sum_of_powers_nested(p, x, 2)
    for pair in ((1, 2), (2, 3), (1, 4)):
        i, j = pair
        via_shapley = 0.0
        for a, b in ((i, j), (j, i)):
            table = build_table(inst, ig_polynomial(p, a).evaluate)
            via_shapley += shapley_with_frozen(table, b, a)
        assert report.value(pair) == pytest.approx(via_shapley, rel=1e-10, abs=1e-10)


def test_sum_of_powers_nested_caps():
    p = SparsePolynomial((0.0,) * 7, {(1,) * 7: 1.0})
    with pytest.raises(CapExceededError):
        sum_of_powers_nested(p, (1.0,) * 7, 2)


def test_ih_pairwise_closed_form_matches_generic(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = make_polynomial(rng, n, degree=8)
        x = tuple(rng.uniform(-1, 1, n))
        a = integrated_hessian(p, x, 2)
        b = integrated_hessian_pairwise(p, x)
        assert a.max_abs_difference(b) < 1e-10


def test_ih_pairwise_equals_recursive_ig_identity(rng):
    """Pairwise score = IG_i(IG_j(F)) + IG_j(IG_i(F)); main = IG_i(IG_i(F))."""
    for _ in range(10):
        p = make_polynomial(rng, 3, degree=6)
        x = tuple(rng.uniform(-1, 1, 3))
        report = integrated_hessian_pairwise(p, x)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            nested = ig_polynomial(ig_polynomial(p, j), i).evaluate(x)
            nested += ig_polynomial(ig_polynomial(p, i), j).evaluate(x)
            assert report.value((i, j)) == pytest.approx(nested, rel=1e-10, abs=1e-12)
        for i in (1, 2, 3):
            main = ig_polynomial(ig_polynomial(p, i), i).evaluate(x)
            assert report.value((i,)) == pytest.approx(main, rel=1e-10, abs=1e-12)


def test_exact_methods_null_feature_is_structural(rng):
    p = make_polynomial(rng, 4, degree=5)
    dropped = SparsePolynomial(
        p.center, {m: c for m, c in p.terms.items() if m[2] == 0}
    )
    x = tuple(rng.uniform(-1, 1, 4))
    for report in (
        integrated_gradients(dropped, x),
        integrated_hessian(dropped, x, 2),
        augmented_integrated_hessian(dropped, x, 2),
        sum_of_powers(dropped, x, 2),
    ):
        for coalition, value in report.entries.items():
            if 3 in coalition:
                assert value == 0.0


def test_exact_methods_linearity(rng):
    p = make_polynomial(rng, 3)
    q = make_polynomial(rng, 3)
    x = tuple(rng.uniform(-1, 1, 3))
    a, b = 1.7, -0.4
    combined = p.scale(a) + q.scale(b)
    for method in (
        lambda poly: integrated_gradients(poly, x),
        lambda poly: integrated_hessian(poly, x, 2),
        lambda poly: augmented_integrated_hessian(poly, x, 2),
        lambda poly: sum_of_powers(poly, x, 2),
    ):
        mixed = method(combined)
        left = method(p)
        right = method(q)
        for coalition, value in mixed.entries.items():
            expected = a * left.entries[coalition] + b * right.entries[coalition]
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)


def _row_coalitions(k, members):
    """The coalitions a share row runs over: subsets of `members` of size
    min(k, |members|) down to 1, each size in lexicographic order."""
    return [
        subset
        for size in range(min(k, len(members)), 0, -1)
        for subset in combinations(members, size)
    ]


@lru_cache(maxsize=4096)
def _slots(n, k, members):
    """Layout slots in P_k over 1..n of the subsets of `members` of size
    min(k, |members|) down to 1, each size in lexicographic order: the
    coalitions an unpinned share row runs over."""
    return tuple(
        coalition_slot(n, k, subset)
        for size in range(min(k, len(members)), 0, -1)
        for subset in combinations(members, size)
    )


def _term_loop(p, x, k, rule):
    """The termwise scatter one term at a time, in term order, into the
    report's values in layout order: each monomial's value c * (x - center)^m,
    its factors multiplied in feature order by Python's power (the signed
    infinity beyond the float range), added unscaled to its pinned support
    or times each share of its row to the row's slots (reference)."""
    n = p.n
    shifted = [x[i] - p.center[i] for i in range(n)]
    features = range(1, n + 1)
    values = [0.0] * coalition_count(n, k)
    for m, value in p.terms.items():
        # the support and its positive exponents, in feature order
        coalition = tuple(compress(features, m))
        exponents = tuple(filter(None, m))
        for i, e in zip(coalition, exponents):
            try:
                value *= shifted[i - 1] ** e
            except OverflowError:
                value *= overflowed_power(shifted[i - 1], e)
        if not coalition or (rule != "ih" and len(coalition) <= k):
            values[coalition_slot(n, k, coalition)] += value
            continue
        # zip stops where the row does: sop's row is the leading size-k block
        for slot, share in zip(_slots(n, k, coalition), _shares(rule, k, exponents)):
            values[slot] += value * share
    return values


def test_slot_rows_are_layout_positions_of_the_row_coalitions():
    for n in range(1, 8):
        for k in range(1, n + 1):
            layout = enumerate_coalitions(n, k)
            for size in range(1, n + 1):
                for members in combinations(range(1, n + 1), size):
                    expected = tuple(layout.index(c) for c in _row_coalitions(k, members))
                    assert _slots(n, k, members) == expected


def test_ih_share_rows_equal_composition_masses():
    """The Möbius-transform row matches the composition sum of the order-k
    expansion, exactly, on every small exponent tuple."""
    for size in range(1, 5):
        members = tuple(range(1, size + 1))
        for exponents in product(range(1, 5), repeat=size):
            degree = sum(exponents)
            for k in range(1, 6):
                coalitions = _row_coalitions(k, members)
                assert sorted(coalitions) == sorted(
                    subset
                    for width in range(1, min(k, size) + 1)
                    for subset in combinations(members, width)
                )
                expected = tuple(
                    monomial_mass(k, subset, exponents) / degree**k for subset in coalitions
                )
                assert _shares("ih", k, exponents) == expected


def test_gradient_rules_equal_binary_rules_on_multilinear_polynomials():
    """With every exponent 0 or 1 a monomial's exponent shares are its
    support sizes, so each gradient rule is its binary counterpart."""
    rng = np.random.default_rng(77)
    for n in range(1, 8):
        for _ in range(3):
            terms = {
                m: float(rng.uniform(-1, 1))
                for m in product((0, 1), repeat=n)
                if rng.uniform() < 0.6
            }
            p = SparsePolynomial(tuple(rng.uniform(-0.5, 0.5, n)), terms)
            x = tuple(np.array(p.center) + rng.uniform(-1, 1, n))
            table = build_table(Instance(x=x, baseline=p.center), p.evaluate)
            pairs = [(shapley(table), integrated_gradients(p, x))]
            for k in range(1, n + 1):
                pairs += [
                    (recursive_shapley(table, k), integrated_hessian(p, x, k)),
                    (augmented_recursive_shapley(table, k),
                     augmented_integrated_hessian(p, x, k)),
                    (shapley_taylor(table, k), sum_of_powers(p, x, k)),
                ]
            for binary, gradient in pairs:
                assert binary.max_abs_difference(gradient) < 1e-12


def _bits(values):
    """The IEEE bit patterns of floats, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _termwise_three_passes(p, x, k, rule):
    """The termwise scatter reading each multi-index three times, for the
    value, the support and the positive exponents, into a dict keyed by
    coalition (reference)."""
    shifted = [x[i] - p.center[i] for i in range(p.n)]
    entries = dict.fromkeys(enumerate_coalitions(p.n, k), 0.0)
    for m in sorted(p.terms):
        value = p.terms[m]
        for i, e in enumerate(m):
            if e:
                value *= shifted[i] ** e
        members = support(m)
        if not members or (rule != "ih" and len(members) <= k):
            entries[members] += value
            continue
        shares = _shares(rule, k, tuple(e for e in m if e))
        for subset, share in zip(_row_coalitions(k, members), shares):
            entries[subset] += value * share
    return entries


def test_termwise_is_bit_identical_to_the_three_pass_loop():
    rng = np.random.default_rng(1106)
    for n in range(1, 7):
        for _ in range(4):
            p = make_polynomial(rng, n, degree=6)
            p = SparsePolynomial(tuple(rng.uniform(-1, 1, n)), p.terms)
            x = tuple(rng.uniform(-2, 2, n))
            for rule in ("ih", "ih-aug", "sop"):
                for k in range(1, n + 1):
                    got = _termwise(p, x, k, rule)
                    expected = _termwise_three_passes(p, x, k, rule)
                    assert list(got.entries) == list(expected)
                    assert _bits(got.values) == _bits(list(expected.values()))


def _synergy_split_values(p, x):
    """The synergy decomposition at x by splitting: one polynomial per
    support, each evaluated at x, in layout order and zero where no monomial
    has that support (reference)."""
    values = dict.fromkeys(enumerate_coalitions(p.n, p.n), 0.0)
    for coalition, piece in p.synergy_split().items():
        values[coalition] = piece.evaluate(x)
    return list(values.values())


def test_full_order_ih_aug_is_the_synergy_split_bit_for_bit():
    """decompose's polynomial route, ih-aug at k = n, matches the
    split-and-evaluate route bit for bit, signed zeros included."""
    rng = np.random.default_rng(1207)
    for n in range(1, 9):
        polys = [make_polynomial(rng, n, degree=6 if n <= 5 else 4) for _ in range(6)]
        polys += [SparsePolynomial((0.0,) * n, {}), SparsePolynomial((0.0,) * n, {(0,) * n: -2.5})]
        for p in polys:
            center = rng.uniform(-1, 1, n)
            x = rng.uniform(-2, 2, n)
            # features at the center give +-0.0 factors: x == center, or -0.0
            # against a center of 0.0
            at_center = rng.uniform(size=n) < 0.25
            x[at_center] = center[at_center]
            signed = rng.uniform(size=n) < 0.25
            center[signed], x[signed] = 0.0, -0.0
            flip = {m: -c if rng.uniform() < 0.5 else c for m, c in p.terms.items()}
            p = SparsePolynomial(tuple(center.tolist()), flip)
            x = tuple(x.tolist())
            got = augmented_integrated_hessian(p, x, n)
            assert _bits(got.values) == _bits(_synergy_split_values(p, x))


def _pairwise_by_terms(p, x):
    """The order-2 closed form term by term, each reduced monomial rebuilt
    from its exponent vector, into a dict keyed by coalition (reference)."""
    entries = dict.fromkeys(enumerate_coalitions(p.n, 2), 0.0)
    shifted = [x[i] - p.center[i] for i in range(p.n)]

    def reduced_monomial(m, drop):
        value = 1.0
        for i, e in enumerate(m):
            e -= drop.get(i + 1, 0)
            if e:
                value *= shifted[i] ** e
        return value

    for m in sorted(p.terms):
        c = p.terms[m]
        total_degree = sum(m)
        if total_degree == 0:
            entries[()] += c
            continue
        members = support(m)
        inv_square = 1.0 / total_degree**2
        for i, j in combinations(members, 2):
            weight = 2.0 * m[i - 1] * m[j - 1] * inv_square
            base = reduced_monomial(m, {i: 1, j: 1})
            entries[(i, j)] += c * weight * shifted[i - 1] * shifted[j - 1] * base
        for i in members:
            e = m[i - 1]
            first = e * inv_square * reduced_monomial(m, {i: 1}) * shifted[i - 1]
            second = 0.0
            if e >= 2:
                second = (
                    e * (e - 1) * inv_square * reduced_monomial(m, {i: 2}) * shifted[i - 1] ** 2
                )
            entries[(i,)] += c * (first + second)
    return list(entries.values())


def _pairwise_corpus(rng):
    """Random polynomials with nonzero centers (points given as floats and
    as numpy scalars), plus exponent gaps, single-feature terms, signed
    zeros, a sparse 30-feature polynomial and the constant-only and empty
    polynomials."""
    for case in range(60):
        n = int(rng.integers(2, 9))
        degree, density = int(rng.integers(1, 9)), float(rng.uniform(0.05, 0.5))
        p = make_polynomial(rng, n, degree=degree, density=density)
        terms = dict(p.terms)
        if case % 3 == 0:
            # feature n only at exponent 3, alone and in a pair
            terms = {m[:-1] + (0,): c for m, c in terms.items()}
            terms[(0,) * (n - 1) + (3,)] = 0.7
            terms[(1,) + (0,) * (n - 2) + (3,)] = -1.3
        if case % 4 == 0:
            terms[(0,) * (n - 1) + (2,)] = 0.9
        center = rng.uniform(-1, 1, n)
        point = rng.uniform(-2, 2, n)
        at_center = rng.uniform(size=n) < 0.2
        point[at_center] = center[at_center]
        signed = rng.uniform(size=n) < 0.2
        center[signed], point[signed] = 0.0, -0.0
        x = tuple(point.tolist()) if case % 2 else tuple(point)
        yield SparsePolynomial(tuple(center.tolist()), terms), x
    wide = {}
    for _ in range(40):
        m = [0] * 30
        for f in rng.choice(30, size=int(rng.integers(1, 7)), replace=False):
            m[f] = int(rng.integers(1, 4))
        wide[tuple(m)] = float(rng.uniform(-1, 1))
    yield SparsePolynomial(tuple(rng.uniform(-1, 1, 30).tolist()), wide), tuple(
        rng.uniform(-2, 2, 30).tolist()
    )
    yield SparsePolynomial((0.5, -1.0, 2.0), {(0, 0, 0): -2.5}), (1.0, 2.0, 3.0)
    yield SparsePolynomial((0.5, -1.0), {}), (1.0, 2.0)
    yield SparsePolynomial((0.0, 0.0), {(5, 0): 1.5, (0, 1): -1.0}), (1.25, -0.75)


def test_pairwise_oracle_is_bit_identical_to_the_term_loop():
    rng = np.random.default_rng(1303)
    for p, x in _pairwise_corpus(rng):
        got = integrated_hessian_pairwise(p, x)
        assert _bits(got.values) == _bits(_pairwise_by_terms(p, x))


def test_pairwise_oracle_blocks_sum_in_term_order(monkeypatch):
    """Blocks of one term each, or of a few terms, carry every coalition's
    sum across blocks bit for bit."""
    for block in (1, 16):
        monkeypatch.setattr(polynomials, "ARRAY_BLOCK", block)
        rng = np.random.default_rng(1304)
        for p, x in _pairwise_corpus(rng):
            if len(p.terms) > 60:
                continue
            got = integrated_hessian_pairwise(p, x)
            assert _bits(got.values) == _bits(_pairwise_by_terms(p, x))


def _sum_of_powers_nested_per_member(p, x, k):
    """The k >= 2 construction with a fresh table per (coalition, member)
    (reference)."""
    inst = Instance(x=tuple(float(v) for v in x), baseline=p.center)
    pieces = p.synergy_split()
    values = [p.constant_term()]
    for members in enumerate_coalitions(p.n, k)[1:]:
        if len(members) < k:
            piece = pieces.get(members)
            values.append(piece.evaluate(x) if piece is not None else 0.0)
            continue
        total = 0.0
        for i in members:
            table = build_table(inst, ig_polynomial(p, i).evaluate)
            total += shapley_taylor_frozen(table, members, i)
        values.append(total)
    return values


def test_sum_of_powers_nested_builds_one_table_per_feature(monkeypatch):
    built = []

    def spy(inst, f):
        built.append(build_table(inst, f))
        return built[-1]

    monkeypatch.setattr(grad_exact, "build_table", spy)
    rng = np.random.default_rng(1305)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, min(3, n) + 1))
        p = make_polynomial(rng, n, degree=5)
        p = SparsePolynomial(tuple(rng.uniform(-1, 1, n).tolist()), p.terms)
        x = tuple(rng.uniform(-2, 2, n).tolist())
        built.clear()
        got = sum_of_powers_nested(p, x, k)
        assert _bits(got.values) == _bits(_sum_of_powers_nested_per_member(p, x, k))
        inst = Instance(x=x, baseline=p.center)
        assert built == [build_table(inst, ig_polynomial(p, i).evaluate) for i in range(1, n + 1)]


def _array_corpus(rng):
    """Random polynomials with nonzero centers for n = 1…12, each with and
    without a constant term and with features at the center, and sparse
    40-feature polynomials with supports of up to 7 features (k <= 2)."""
    for n in range(1, 13):
        for case in range(2):
            degree = 6 if n <= 4 else 4 if n <= 8 else 3
            p = make_polynomial(rng, n, degree=degree, density=float(rng.uniform(0.2, 0.6)))
            terms = dict(p.terms)
            constant = (0,) * n
            if case:
                terms.pop(constant, None)
            else:
                terms[constant] = float(rng.uniform(-1, 1))
            center = rng.uniform(-1, 1, n)
            point = rng.uniform(-2, 2, n)
            at_center = rng.uniform(size=n) < 0.2
            point[at_center] = center[at_center]
            yield SparsePolynomial(tuple(center.tolist()), terms), tuple(point.tolist()), min(n, 4)
    for _ in range(2):
        wide = {}
        for _ in range(300):
            m = [0] * 40
            for f in rng.choice(40, size=int(rng.integers(1, 8)), replace=False):
                m[f] = int(rng.integers(1, 4))
            wide[tuple(m)] = float(rng.uniform(-1, 1))
        yield (
            SparsePolynomial(tuple(rng.uniform(-1, 1, 40).tolist()), wide),
            tuple(rng.uniform(-2, 2, 40).tolist()),
            2,
        )


@pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
def test_array_termwise_is_the_term_loop_bit_for_bit(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(polynomials, "ARRAY_BLOCK", block)
    rng = np.random.default_rng(1701)
    for p, x, top in _array_corpus(rng):
        if block is not None and p.n > 4:
            continue  # small blocks: many per polynomial already at n <= 4
        for rule in ("ih", "ih-aug", "sop"):
            for k in range(1, top + 1):
                got = _termwise(p, x, k, rule)
                assert _bits(got.values) == _bits(_term_loop(p, x, k, rule))


def test_array_termwise_on_the_empty_and_constant_polynomials():
    for terms in ({}, {(0, 0, 0): -2.5}):
        p = SparsePolynomial((0.5, -1.0, 2.0), terms)
        x = (1.0, -0.0, 3.0)
        for rule in ("ih", "ih-aug", "sop"):
            got = _termwise(p, x, 2, rule)
            assert _bits(got.values) == _bits(_term_loop(p, x, 2, rule))


# 40-feature supports, each with one exponent 2: one radix 3 digit per
# position, 3^40 > 2^63, so their exponent codes would not fit in int64
WIDE_TERMS = {tuple(2 if f == j else 1 for f in range(40)): 1.0 / (j + 1) for j in range(40)}


def test_exponent_codes_too_wide_for_int64_take_the_array_route():
    p = SparsePolynomial((0.1,) * 40, WIDE_TERMS)
    x = tuple(np.linspace(-1.1, 1.2, 40).tolist())
    for rule, k in (("ih", 1), ("ih", 2), ("sop", 2)):
        got = _termwise(p, x, k, rule)
        assert _bits(got.values) == _bits(_term_loop(p, x, k, rule))


OVERFLOW_CASES = [
    # c * x1^128 overflows in the product
    ({(128, 0): 1e300, (1, 1): 1.0, (0, 2): 0.5}, (10.0, 2.0)),
    # x1^128 itself is beyond the float range, negative: -inf
    ({(127, 1): 1.0, (1, 0): 2.0}, (-1e3, 2.0)),
    # +inf and -inf into the same coalition: nan
    ({(120, 1): 1e300, (121, 1): 1e300, (0, 1): 1.0}, (10.0, 0.5)),
    # an infinite power times an exact zero factor: nan
    ({(127, 1): 1.0, (2, 2): 1.0}, (1e3, 0.0)),
]


@pytest.mark.parametrize(
    "terms, x", OVERFLOW_CASES,
    ids=["product-inf", "power-inf", "inf-minus-inf", "inf-times-zero"],
)
def test_overflow_gives_the_loops_error_on_both_routes(capfd, terms, x):
    """The array route and the test-side term loop name the same
    non-finite coalition, and neither warns."""
    p = SparsePolynomial((0.0, 0.0), terms)
    for rule, k in (("ih", 1), ("ih", 2), ("ih-aug", 2), ("sop", 1)):
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (
                lambda: _termwise(p, x, k, rule),
                lambda: InteractionReport(2, k, _term_loop(p, x, k, rule)),
            ):
                with pytest.raises(NonFiniteError) as raised:
                    route()
                messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("non-finite value for coalition")
    assert capfd.readouterr() == ("", "")


def _batch_corpus(rng, n):
    """n-feature polynomials of mixed term counts and nonzero centers, with
    the empty and constant-only polynomials, an overflowing power and a
    polynomial held as its arrays among them, each with its point."""
    cases = []
    for density in (0.05, 0.3, 0.7):
        p = make_polynomial(rng, n, degree=5, density=density)
        center = tuple(rng.uniform(-1, 1, n).tolist())
        cases.append((SparsePolynomial(center, p.terms), tuple(rng.uniform(-2, 2, n).tolist())))
    cases.append((SparsePolynomial((0.5,) * n, {}), (1.0,) * n))
    cases.append((SparsePolynomial((0.0,) * n, {(0,) * n: -2.5}), (0.25,) * n))
    # a power beyond the float range: one row holds infinities and nans
    overflow = {(127,) + (1,) * min(n - 1, 1) + (0,) * max(n - 2, 0): 1.0, (2,) * n: 1.0}
    cases.append((SparsePolynomial((0.0,) * n, overflow), (1e3,) + (0.0,) * (n - 1)))
    loaded = make_polynomial(rng, n, degree=4, density=0.5)
    payload = {"n": n, "center": [0.25] * n,
               "terms": [{"m": list(m), "c": c} for m, c in loaded.terms.items()]}
    cases.append((SparsePolynomial.from_json_dict(payload), tuple(rng.uniform(-2, 2, n).tolist())))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order.tolist()]


@pytest.mark.parametrize("block", [7, None], ids=["7", "default"])
def test_a_batch_of_polynomials_gives_each_ones_own_bits(monkeypatch, block):
    """Each row of a batch is the polynomial's values on its own and the
    test-side term loop's, bit for bit, infinities and nans included, for
    all four rules, blocks spanning polynomials included."""
    if block is not None:
        monkeypatch.setattr(polynomials, "ARRAY_BLOCK", block)
    rng = np.random.default_rng(2101)
    for n in range(1, 5):
        cases = _batch_corpus(rng, n)
        polys, points = [p for p, _ in cases], [x for _, x in cases]
        for rule, ks in (("ih", range(1, n + 1)), ("ih-aug", range(1, n + 1)),
                         ("sop", range(1, n + 1)), ("ih", [1])):  # ig is ih at k = 1
            for k in ks:
                rows = _array_termwise(polys, points, k, rule)
                assert rows.shape == (len(polys), coalition_count(n, k))
                for row, p, x in zip(rows, polys, points):
                    assert _bits(row) == _bits(_array_termwise([p], [x], k, rule)[0])
                    assert _bits(row) == _bits(_term_loop(p, x, k, rule))


def test_a_batch_of_too_wide_polynomials_gives_each_ones_own_bits():
    """40-feature polynomials whose exponent codes would not fit in int64,
    batched with one whose codes fit."""
    rng = np.random.default_rng(2102)
    narrow = {tuple(int(v) for v in rng.integers(0, 2, 40)): 0.5 for _ in range(30)}
    polys = [
        SparsePolynomial((0.1,) * 40, WIDE_TERMS),
        SparsePolynomial((0.0,) * 40, narrow),
        SparsePolynomial((-0.2,) * 40, {m: -c for m, c in WIDE_TERMS.items()}),
    ]
    points = [tuple(rng.uniform(-1.2, 1.2, 40).tolist()) for _ in polys]
    for rule, k in (("ih", 1), ("ih", 2), ("ih-aug", 2), ("sop", 2)):
        rows = _array_termwise(polys, points, k, rule)
        for row, p, x in zip(rows, polys, points):
            assert _bits(row) == _bits(_term_loop(p, x, k, rule))


def test_a_batch_checks_each_point_against_its_polynomial():
    p = SparsePolynomial((0.0, 0.0), {(1, 1): 1.0})
    with pytest.raises(DimensionMismatchError):
        _array_termwise([p, p], [(1.0, 2.0), (1.0,)], 1, "ih")


@pytest.mark.parametrize("x", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)], ids=["short", "long"])
def test_the_pairwise_oracle_checks_the_point_length(x):
    p = SparsePolynomial((0.0,) * 3, {(1, 1, 0): 2.0, (0, 1, 1): 1.0})
    with pytest.raises(DimensionMismatchError, match=f"point has {len(x)} components, expected 3"):
        integrated_hessian_pairwise(p, x)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("x", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)], ids=["short", "long"])
def test_the_nested_sop_oracle_checks_the_point_length(x, k):
    p = SparsePolynomial((0.0,) * 3, {(1, 1, 0): 2.0, (0, 1, 1): 1.0})
    with pytest.raises(DimensionMismatchError):
        sum_of_powers_nested(p, x, k)


def test_powers_beyond_the_float_range_are_signed_infinities():
    table = grad_exact._power_table([-1e3], np.array([0, 3, 127, 128, 3]), 129)
    assert table[[0, 3, 127, 128]].tolist() == [1.0, -1e9, -np.inf, np.inf]
    assert table[[1, 2, 4]].tolist() == [1.0, 1.0, 1.0]  # not taken
    # rows of two bases, width 5: each takes only its own positions
    table = grad_exact._power_table([2.0, -1e3], np.array([3, 5, 7, 8, 3]), 5)
    assert table.tolist() == [1.0, 1.0, 1.0, 8.0, 1.0, 1.0, 1.0, 1e6, -1e9, 1.0]


def test_kernels_read_the_form_a_polynomial_is_stored_in():
    """On a loaded polynomial the array kernels read its arrays and never
    build its term dict, and give the bits they give on the validated
    construction of the same terms."""
    rng = np.random.default_rng(8)
    vectors = [m for m in polynomials.multi_indices(4, 7) if any(m)][:300]
    payload = {"n": 4, "center": [0.5, -0.25, 0.0, 1.0],
               "terms": [{"m": list(m), "c": float(c)}
                         for m, c in zip(vectors, rng.uniform(-1, 1, len(vectors)))]}
    x = (1.5, 0.25, -1.0, 0.5)
    loaded = SparsePolynomial.from_json_dict(payload)
    reports = [
        integrated_gradients(loaded, x),
        integrated_hessian(loaded, x, 2),
        augmented_integrated_hessian(loaded, x, 3),
        sum_of_powers(loaded, x, 3),
        integrated_hessian_pairwise(loaded, x),
    ]
    assert "terms" not in loaded.__dict__
    built = SparsePolynomial(loaded.center, dict(loaded.terms))
    for report, again in zip(reports, (
        integrated_gradients(built, x),
        integrated_hessian(built, x, 2),
        augmented_integrated_hessian(built, x, 3),
        sum_of_powers(built, x, 3),
        integrated_hessian_pairwise(built, x),
    )):
        assert _bits(report.values) == _bits(again.values)
