import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synergy.combinatorics import (
    binomial,
    coalition_count,
    enumerate_coalitions,
    enumerate_sequences,
)
from synergy.core import Instance, masked_point
from synergy.exceptions import CapExceededError
from synergy.expressions import evaluate, parse
from synergy.polynomials import SparsePolynomial
from synergy import set_methods
from synergy.set_methods import (
    SetFunctionTable,
    SynergyTable,
    _shapley_retabulated,
    _superset_rule,
    _shapley_retabulated_at_full,
    augmented_recursive_shapley,
    build_table,
    discrete_derivative,
    mobius,
    mobius_inverse,
    permute_table,
    pure_synergy_table,
    recursive_shapley,
    recursive_shapley_nested,
    shapley,
    shapley_from_marginals,
    shapley_taylor,
    shapley_taylor_from_marginals,
    shapley_taylor_frozen,
)
from tests.conftest import coalition_members, make_table, shapley_with_frozen


def _mobius_direct(table):
    """Literal alternating-sum transform, the n <= 4 oracle for the DP."""
    n = table.n
    out = np.zeros(1 << n)
    for s in range(1 << n):
        t = s
        while True:
            out[s] += (-1) ** (s.bit_count() - t.bit_count()) * table.values[t]
            if t == 0:
                break
            t = (t - 1) & s
    return out


def test_build_table_quadratic_example():
    tree = parse("2*x1 - 3*x2 + x1*x3 - 15", 3)
    inst = Instance(x=(1.0, 1.0, 1.0), baseline=(0.0, 0.0, 0.0))
    table = build_table(inst, lambda p: evaluate(tree, p))
    assert table.values.tolist() == [-15.0, -13.0, -18.0, -16.0, -15.0, -12.0, -18.0, -15.0]
    assert table.at(()) == -15.0
    assert table.at((1,)) == -13.0
    assert table.at((1, 3)) == -12.0
    assert table.at((1, 2, 3)) == -15.0


def test_build_table_constant_and_degenerate():
    inst = Instance(x=(1.0, 2.0), baseline=(0.0, 0.0))
    constant = build_table(inst, lambda p: 4.5)
    assert (constant.values == 4.5).all()
    collapsed = build_table(
        Instance(x=(0.5, 0.5), baseline=(0.5, 0.5)), lambda p: p[0] + p[1]
    )
    assert (collapsed.values == 1.0).all()


def test_table_cap():
    with pytest.raises(CapExceededError):
        SetFunctionTable(21, np.zeros(1 << 21))


def test_build_table_rejects_non_finite_evaluation():
    from synergy.exceptions import NonFiniteError

    inst = Instance(x=(1.0,), baseline=(0.0,))
    with pytest.raises(NonFiniteError):
        build_table(inst, lambda p: np.where(p[0] != 0.0, np.inf, 0.0))


def test_build_table_calls_f_once_on_two_element_columns():
    inst = Instance(x=(1.0, 2.0, 3.0, 4.0), baseline=(-1.0, -2.0, -3.0, -4.0))
    calls = []

    def f(columns):
        calls.append(columns)
        return columns[0] + 10 * columns[1] + 100 * columns[2] + 1000 * columns[3]

    table = build_table(inst, f)
    assert len(calls) == 1
    (columns,) = calls
    assert len(columns) == 4
    for i, column in enumerate(columns):
        assert column.size == 2 and column.shape[4 - 1 - i] == 2
        assert column.ravel().tolist() == [inst.baseline[i], inst.x[i]]
    for mask in range(1 << 4):
        point = masked_point(inst, coalition_members(mask))
        assert table.values[mask] == point[0] + 10 * point[1] + 100 * point[2] + 1000 * point[3]


def _random_expression(rng, n, terms, max_support):
    """Text of a sum of sin/cos/exp/power terms, each over a few features."""
    pieces = []
    for _ in range(terms):
        support = rng.choice(n, size=int(rng.integers(1, max_support + 1)), replace=False)
        factors = [f"x{i + 1}" for i in sorted(support)]
        coefficient = f"{rng.uniform(-2, 2):.6f}"
        kind = int(rng.integers(5))
        if kind == 0:
            inner = "*".join(factors)
            pieces.append(f"{coefficient}*{inner}^{int(rng.integers(1, 6))}")
        elif kind == 1:
            inner = " + ".join(factors)
            pieces.append(f"{coefficient}*({inner} + 0.5)^{int(rng.integers(2, 6))}")
        else:
            func = ("sin", "cos", "exp")[kind - 2]
            pieces.append(f"{coefficient}*{func}({rng.uniform(-1, 1):.6f}*{'*'.join(factors)})")
    return " + ".join(pieces)


def _assert_matches_masked_points(tree, inst, table, masks):
    expected = np.array(
        [evaluate(tree, masked_point(inst, coalition_members(int(m)))) for m in masks]
    )
    scale = np.abs(expected).max()
    np.testing.assert_allclose(table.values[masks], expected, rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize("seed", range(12))
def test_build_table_matches_scalar_evaluation_at_masked_points(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    tree = parse(_random_expression(rng, n, int(rng.integers(1, 9)), min(n, 3)), n)
    inst = Instance(x=tuple(rng.uniform(-1.5, 1.5, n)), baseline=tuple(rng.uniform(-0.5, 0.5, n)))
    table = build_table(inst, lambda p: evaluate(tree, p))
    _assert_matches_masked_points(tree, inst, table, np.arange(1 << n))


def test_build_table_n20_sparse_interactions():
    rng = np.random.default_rng(2020)
    n = 20
    tree = parse(_random_expression(rng, n, 40, 3), n)
    inst = Instance(x=tuple(rng.uniform(-1, 1, n)), baseline=tuple(rng.uniform(-0.2, 0.2, n)))
    table = build_table(inst, lambda p: evaluate(tree, p))
    masks = np.concatenate([[0, (1 << n) - 1], rng.integers(0, 1 << n, size=62)])
    _assert_matches_masked_points(tree, inst, table, masks)


def test_table_json_roundtrip(rng):
    table = make_table(rng, 3)
    back = SetFunctionTable.from_json_dict(table.to_json_dict())
    assert back == table


def test_mobius_two_features_closed_form(rng):
    for _ in range(50):
        alpha, beta, gamma, delta = rng.uniform(-1, 1, 4)
        synergies = mobius(SetFunctionTable(2, [alpha, beta, gamma, delta]))
        expected = [alpha, beta - alpha, gamma - alpha, delta - beta - gamma + alpha]
        assert synergies.values == pytest.approx(expected, abs=1e-12)


def test_mobius_of_constant_is_baseline_only():
    synergies = mobius(SetFunctionTable(3, np.full(8, 2.5)))
    assert synergies.values[0] == 2.5
    assert (synergies.values[1:] == 0.0).all()


def test_mobius_inverse_closed_form():
    alpha, beta, gamma, delta = 0.3, -0.7, 1.1, 0.25
    synergies = SynergyTable(
        2, [alpha, beta - alpha, gamma - alpha, delta - beta - gamma + alpha]
    )
    assert mobius_inverse(synergies).values == pytest.approx(
        [alpha, beta, gamma, delta], abs=1e-12
    )
    assert (mobius_inverse(SynergyTable(2, np.zeros(4))).values == 0.0).all()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
def test_mobius_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    table = make_table(rng, n)
    back = mobius_inverse(mobius(table))
    assert np.abs(back.values - table.values).max() < 1e-12


def test_mobius_roundtrip_n12():
    rng = np.random.default_rng(99)
    table = make_table(rng, 12)
    back = mobius_inverse(mobius(table))
    assert np.abs(back.values - table.values).max() < 1e-12


def test_mobius_matches_direct_sum_oracle(rng):
    for n in range(1, 5):
        table = make_table(rng, n)
        assert mobius(table).values == pytest.approx(_mobius_direct(table), abs=1e-12)


def test_shapley_splits_high_degree_monomial_equally():
    p = SparsePolynomial((0.0, 0.0), {(100, 1): 1.0})
    inst = Instance(x=(2.0, 2.0), baseline=(0.0, 0.0))
    report = shapley(build_table(inst, p.evaluate))
    assert report.value((1,)) == pytest.approx(2.0**100, rel=1e-12)
    assert report.value((2,)) == pytest.approx(2.0**100, rel=1e-12)


def test_shapley_null_feature_is_exact_zero(rng):
    n = 4
    values = rng.uniform(-1, 1, 1 << n)
    bit = 1 << 1  # feature 2 ignored
    for mask in range(1 << n):
        if mask & bit:
            values[mask] = values[mask ^ bit]
    report = shapley(SetFunctionTable(n, values))
    assert report.value((2,)) == 0.0


def test_shapley_agrees_with_marginal_formula(rng):
    for _ in range(25):
        table = make_table(rng, int(rng.integers(2, 7)))
        a = shapley(table)
        b = shapley_from_marginals(table)
        assert a.max_abs_difference(b) < 1e-10


def test_binary_rules_at_order_one_equal_shapley(rng):
    for n in range(1, 9):
        for _ in range(3):
            table = make_table(rng, n)
            reference = shapley(table)
            for rule in (shapley_taylor, recursive_shapley, augmented_recursive_shapley):
                assert rule(table, 1).max_abs_difference(reference) < 1e-12


def test_rules_agree_with_marginal_formulas_at_n10(rng):
    table = make_table(rng, 10)
    assert shapley(table).max_abs_difference(shapley_from_marginals(table)) < 1e-9
    for k in (2, 3):
        a = shapley_taylor(table, k)
        b = shapley_taylor_from_marginals(table, k)
        assert a.max_abs_difference(b) < 1e-9


def test_averaging_sum_cap_counts_every_term(rng, monkeypatch):
    """The averaging sum's count: C(n, k)·2^n terms at order k plus
    C(n, j)·2^j at each j < k. A call at the cap runs; one term less and
    it is refused before any derivative is taken."""
    table = make_table(rng, 6)
    terms = (binomial(6, 3) << 6) + sum(binomial(6, j) << j for j in range(3))
    assert terms == 1353
    monkeypatch.setattr(set_methods, "MAX_AVERAGING_TERMS", terms)
    report = shapley_taylor_from_marginals(table, 3)
    assert report.max_abs_difference(shapley_taylor(table, 3)) < 1e-12
    monkeypatch.setattr(set_methods, "MAX_AVERAGING_TERMS", terms - 1)
    monkeypatch.setattr(set_methods, "discrete_derivative", None)
    with pytest.raises(CapExceededError, match="averaging sum of 1353 terms .n=6, k=3. exceeds"):
        shapley_taylor_from_marginals(table, 3)


def test_shapley_taylor_distribution_on_pure_synergy():
    # oversized synergy: split equally over size-k subsets of S
    table = pure_synergy_table(4, (1, 2, 3), 0.9)
    report = shapley_taylor(table, 2)
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert report.value(pair) == pytest.approx(0.9 / 3, abs=1e-12)
    assert report.value((1,)) == 0.0
    assert report.value((1, 4)) == 0.0
    # synergy within reach: everything lands on S itself
    small = pure_synergy_table(4, (1, 2), 0.7)
    report = shapley_taylor(small, 2)
    assert report.value((1, 2)) == pytest.approx(0.7, abs=1e-12)
    assert report.value((1,)) == 0.0
    assert report.value((3, 4)) == 0.0


def test_shapley_taylor_top_order_equals_mobius(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        table = make_table(rng, n)
        report = shapley_taylor(table, n)
        synergies = mobius(table)
        for coalition, value in report.entries.items():
            assert value == pytest.approx(synergies.at(coalition), abs=1e-10)


def test_shapley_taylor_agrees_with_marginal_formula(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        table = make_table(rng, n)
        a = shapley_taylor(table, k)
        b = shapley_taylor_from_marginals(table, k)
        assert a.max_abs_difference(b) < 1e-10


def test_recursive_shapley_weights():
    report = recursive_shapley(pure_synergy_table(3, (1, 2), 1.0), 3)
    assert report.value((1, 2)) == pytest.approx(0.75, abs=1e-12)  # 6 / 2^3
    report = recursive_shapley(pure_synergy_table(3, (1, 2, 3), 1.0), 2)
    assert report.value((1, 2)) == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_recursive_shapley_violates_baseline_test():
    # the documented witness: a size-3 synergy leaks onto its subsets at k=2
    report = recursive_shapley(pure_synergy_table(3, (1, 2, 3), 1.0), 2)
    assert abs(report.value((1, 2))) > 0.1
    fixed = augmented_recursive_shapley(pure_synergy_table(3, (1, 2), 1.0), 2)
    assert fixed.value((1,)) == 0.0
    assert fixed.value((1, 2)) == pytest.approx(1.0, abs=1e-12)


def test_recursive_shapley_completeness(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        table = make_table(rng, n)
        report = recursive_shapley(table, k)
        target = table.values[-1] - table.values[0]
        assert report.total() == pytest.approx(target, rel=1e-9, abs=1e-9)


def test_nested_oracle_matches_distribution_rule(rng):
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        table = make_table(rng, n)
        a = recursive_shapley(table, k)
        b = recursive_shapley_nested(table, k)
        assert a.max_abs_difference(b) < 1e-9


def test_nested_oracle_order_one_is_shapley(rng):
    table = make_table(rng, 4)
    assert recursive_shapley_nested(table, 1).max_abs_difference(shapley(table)) < 1e-12


def test_nested_oracle_outside_support_is_zero():
    report = recursive_shapley_nested(pure_synergy_table(4, (1, 2), 0.8), 2)
    assert report.value((3,)) == pytest.approx(0.0, abs=1e-14)
    assert report.value((1, 3)) == pytest.approx(0.0, abs=1e-14)


def _retabulated_by_vectors(values, n, i):
    """The retabulation of each 2^n table along the first axis, as one
    whole-table update per coalition w without feature i, w ascending
    (reference)."""
    bit = 1 << (i - 1)
    masks = np.arange(1 << n)
    out = np.zeros(values.shape)
    for w in range(1 << n):
        if w & bit:
            continue
        weight = 1.0 / (n * binomial(n - 1, w.bit_count()))
        out += weight * (values[(w | bit) & masks] - values[w & masks])
    return out


def _nested_by_vectors(table, k):
    """The nested construction with every sequence retabulated in full by
    the loop above, all sequences of one length at a time (reference)."""
    n, full = table.n, (1 << table.n) - 1
    tables = {(): table.values}
    prefixes = [()]
    for _ in range(k):
        stacked = np.stack([tables[prefix] for prefix in prefixes], axis=1)
        for i in range(1, n + 1):
            tables.update(
                (prefix + (i,), column)
                for prefix, column in zip(prefixes, _retabulated_by_vectors(stacked, n, i).T)
            )
        prefixes = [prefix + (i,) for prefix in prefixes for i in range(1, n + 1)]
    values = [float(table.values[0])]
    for members in enumerate_coalitions(n, k)[1:]:
        total = 0.0
        for sequence in enumerate_sequences(k, members):
            total += tables[sequence][full]
        values.append(total)
    return values


def _signed_zero_table(rng, n):
    """Values in {-1, -0.0, 0.0, 0.5, uniform}, so marginal contributions
    take both signed zeros and repeat exactly."""
    pool = np.array([-1.0, -0.0, 0.0, 0.5])
    values = np.where(
        rng.uniform(size=1 << n) < 0.6,
        pool[rng.integers(0, 4, 1 << n)],
        rng.uniform(-1, 1, 1 << n),
    )
    return SetFunctionTable(n, values)


def test_retabulation_is_bit_identical_to_the_vector_loop():
    rng = np.random.default_rng(1301)
    for n in range(1, 7):
        for _ in range(4):
            values = _signed_zero_table(rng, n).values
            for i in range(1, n + 1):
                expected = _retabulated_by_vectors(values, n, i).view(np.int64)
                got = _shapley_retabulated(values, n, i)
                assert np.array_equal(got.view(np.int64), expected)
                at_full = np.float64(_shapley_retabulated_at_full(values, n, i))
                assert at_full.view(np.int64) == expected[-1]


def _shapley_by_marginal_loop(table):
    """Shapley by one weighted marginal contribution per coalition w
    without the feature, w ascending, summed from 0.0 (reference)."""
    n, values = table.n, table.values
    out = [float(values[0])]
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        total = 0.0
        for w in range(1 << n):
            if not w & bit:
                total += 1.0 / (n * binomial(n - 1, w.bit_count())) * (values[w | bit] - values[w])
        out.append(float(total))
    return out


def test_marginal_shapley_is_bit_identical_to_the_marginal_loop():
    rng = np.random.default_rng(1306)
    for n in range(1, 11):
        for table in (_signed_zero_table(rng, n), make_table(rng, n)):
            got = shapley_from_marginals(table).values.tolist()
            assert list(map(float.hex, got)) == list(map(float.hex, _shapley_by_marginal_loop(table)))


def _frozen_by_complement_loop(table, members, frozen):
    """The frozen-feature Shapley-Taylor score on the full table: the
    derivative of S minus `frozen` on top of T plus `frozen`, for each T
    outside S, T descending, weighted 1/C(n-2, |T|) (reference)."""
    n = table.n
    s_mask = sum(1 << (j - 1) for j in members)
    bit = 1 << (frozen - 1)
    complement = (1 << n) - 1 ^ s_mask
    total = 0.0
    t = complement
    while True:
        weight = 1.0 / binomial(n - 2, t.bit_count())
        total += weight * discrete_derivative(table, s_mask ^ bit, t | bit)
        if t == 0:
            break
        t = (t - 1) & complement
    return total * (len(members) - 1) / (n - 1)


def test_frozen_shapley_taylor_is_bit_identical_to_the_complement_loop():
    rng = np.random.default_rng(1307)
    for n in range(2, 7):
        for table in (_signed_zero_table(rng, n), make_table(rng, n)):
            for members in enumerate_coalitions(n, n)[n + 1:]:
                for i in members:
                    got = shapley_taylor_frozen(table, members, i)
                    assert float(got).hex() == float(_frozen_by_complement_loop(table, members, i)).hex()


def test_nested_oracle_is_bit_identical_to_full_retabulations():
    rng = np.random.default_rng(1302)
    for n in range(1, 7):
        for k in range(1, n + 1):
            table = _signed_zero_table(rng, n)
            got = recursive_shapley_nested(table, k).values.view(np.int64)
            assert np.array_equal(got, np.array(_nested_by_vectors(table, k)).view(np.int64))


def test_nested_oracle_caps():
    with pytest.raises(CapExceededError):
        recursive_shapley_nested(SetFunctionTable(7, np.zeros(128)), 2)


def test_augmented_matches_plain_on_oversized_synergies(rng):
    table = pure_synergy_table(5, (1, 2, 3, 4), 1.3)
    plain = recursive_shapley(table, 2)
    augmented = augmented_recursive_shapley(table, 2)
    assert plain.max_abs_difference(augmented) < 1e-12


def test_augmented_completeness(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        table = make_table(rng, n)
        report = augmented_recursive_shapley(table, k)
        target = table.values[-1] - table.values[0]
        assert report.total() == pytest.approx(target, rel=1e-9, abs=1e-9)


def test_permute_table_matches_relabelling_loop(rng):
    for n in range(1, 7):
        table = make_table(rng, n)
        for _ in range(10):
            permutation = [int(v) + 1 for v in rng.permutation(n)]
            expected = np.empty(1 << n)
            for mask in range(1 << n):
                image = sum(1 << (permutation[i] - 1) for i in range(n) if mask >> i & 1)
                expected[image] = table.values[mask]
            assert np.array_equal(permute_table(table, permutation).values, expected)


def test_methods_are_symmetric_under_relabeling(rng):
    table = make_table(rng, 4)
    permutation = [3, 1, 4, 2]
    image = permute_table(table, permutation)
    base = shapley_taylor(table, 2)
    mapped = shapley_taylor(image, 2)
    for coalition, value in base.entries.items():
        target = tuple(sorted(permutation[i - 1] for i in coalition))
        assert mapped.value(target) == pytest.approx(value, abs=1e-12)


def test_discrete_derivative_is_synergy_at_empty_context(rng):
    table = make_table(rng, 4)
    synergies = mobius(table)
    for mask in range(1 << 4):
        assert discrete_derivative(table, mask, 0) == pytest.approx(
            synergies.values[mask], abs=1e-12
        )


def test_frozen_shapley_taylor_matches_frozen_shapley_for_pairs(rng):
    for _ in range(10):
        table = make_table(rng, 4)
        for i, j in ((1, 2), (2, 4)):
            a = shapley_taylor_frozen(table, (i, j), i)
            b = shapley_with_frozen(table, j, i)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_pure_synergy_table_structure():
    """The table is `value` on the supersets of `members` and 0.0 elsewhere:
    to the bit, the Möbius inverse of the one synergy, for every member set
    up to six features; a value of -0.0 keeps its sign on the supersets,
    where the inverse's sums give +0.0 on all but the empty coalition."""
    table = pure_synergy_table(3, (1, 3), 2.0)
    for mask in range(8):
        expected = 2.0 if (mask & 0b101) == 0b101 else 0.0
        assert table.values[mask] == expected
    for n in range(1, 7):
        for mask in range(1 << n):
            members = [i + 1 for i in range(n) if mask >> i & 1]
            for value in (0.37, -0.81, 1e-300, -5e-324):
                synergies = np.zeros(1 << n)
                synergies[mask] = value
                reference = mobius_inverse(SynergyTable(n, synergies))
                assert pure_synergy_table(n, members, value).values.tobytes() == (
                    reference.values.tobytes()
                )
            table = pure_synergy_table(n, members, -0.0).values
            synergies = np.zeros(1 << n)
            synergies[mask] = -0.0
            reference = mobius_inverse(SynergyTable(n, synergies)).values
            assert np.array_equal(table, reference)
            assert np.signbit(table).tolist() == ((np.arange(1 << n) & mask) == mask).tolist()
            assert np.signbit(reference).tolist() == [mask == 0] + [False] * ((1 << n) - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_tables_give_each_table_its_own_bits(n):
    """The distribution rules on same-n tables stacked as rows give each row
    the bits of its table's report alone, for all four binary rules and
    every k, and leave the stacked tables as they were."""
    rng = np.random.default_rng(2100 + n)
    tables = [make_table(rng, n) for _ in range(6)]
    tables += [SetFunctionTable(n, np.zeros(1 << n)), pure_synergy_table(n, range(1, n + 1), -1.5)]
    stacked = np.stack([table.values for table in tables])
    before = stacked.copy()
    rules = [("rs", shapley, [1])] + [
        (rule, method, range(1, n + 1))
        for rule, method in (
            ("shapley-taylor", shapley_taylor),
            ("rs", recursive_shapley),
            ("rs-aug", augmented_recursive_shapley),
        )
    ]
    for rule, method, orders in rules:
        for k in orders:
            rows = _superset_rule(stacked, n, k, rule)
            assert rows.shape == (len(tables), coalition_count(n, k))
            for row, table in zip(rows, tables):
                alone = method(table) if method is shapley else method(table, k)
                assert row.view(np.uint64).tolist() == alone.values.view(np.uint64).tolist()
    assert np.array_equal(stacked, before)
