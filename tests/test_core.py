import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synergy.combinatorics import enumerate_coalitions
from synergy.core import (
    Instance,
    InteractionReport,
    coalition_layout,
    coalition_mask,
    coalition_slot,
    coalition_slots,
    comparison_to_csv,
    comparison_to_json,
    masked_point,
    report_from_values,
    sequential_sum,
)
from synergy.set_methods import SynergyTable
from synergy.exceptions import (
    DimensionMismatchError,
    InvalidCoalitionError,
    NonFiniteError,
)
from tests.conftest import coalition_members, report_from_json_dict


def test_masked_point_case_split():
    inst = Instance(x=(1.0, 1.0, 1.0), baseline=(0.0, 0.0, 0.0))
    assert masked_point(inst, (1, 3)) == (1.0, 0.0, 1.0)


def test_masked_point_extremes():
    inst = Instance(x=(2.0, -1.0, 0.5), baseline=(0.1, 0.2, 0.3))
    assert masked_point(inst, ()) == inst.baseline
    assert masked_point(inst, (1, 2, 3)) == inst.x


def test_masked_point_rejects_bad_index():
    inst = Instance(x=(1.0,), baseline=(0.0,))
    with pytest.raises(InvalidCoalitionError):
        masked_point(inst, (2,))
    with pytest.raises(InvalidCoalitionError):
        masked_point(inst, (0,))


def test_masked_point_exhaustive_agreement():
    rng = np.random.default_rng(3)
    inst = Instance(x=tuple(rng.uniform(-1, 1, 4)), baseline=tuple(rng.uniform(-1, 1, 4)))
    for mask in range(1 << 4):
        members = coalition_members(mask)
        point = masked_point(inst, members)
        for i in range(4):
            expected = inst.x[i] if (i + 1) in members else inst.baseline[i]
            assert point[i] == expected


def test_masked_point_idempotent():
    inst = Instance(x=(1.0, 2.0, 3.0), baseline=(0.0, 0.0, 0.0))
    once = masked_point(inst, (2,))
    again = masked_point(Instance(x=once, baseline=inst.baseline), (2,))
    assert once == again


@pytest.mark.parametrize(
    "x, baseline, error, message",
    [
        ((0.5, 0.5), (0.0,), DimensionMismatchError, "x has 2 features but baseline has 1"),
        ((float("nan"), 1.0), (0.0, 0.0), NonFiniteError, r"x\[1\]=nan is not finite"),
        ((1.0,), (float("inf"),), NonFiniteError, r"baseline\[1\]=inf is not finite"),
        ((), (), DimensionMismatchError, "instance needs at least one feature"),
        ((0.0,) * 64, (0.0,) * 64, DimensionMismatchError, "n=64 exceeds the 63-feature cap"),
    ],
    ids=["length-mismatch", "nan-x", "infinite-baseline", "no-features", "above-cap"],
)
def test_instance_rejects_bad_points(x, baseline, error, message):
    with pytest.raises(error, match=message):
        Instance(x=x, baseline=baseline)


def test_validate_instance_accepts():
    """An instance of finite points of one length, up to the cap, checks
    itself on construction and passes."""
    inst = Instance(x=(0.5,) * 63, baseline=(0.0,) * 63)
    assert inst.n == 63


def test_coalition_mask_roundtrip():
    assert coalition_members(coalition_mask((3, 1), 4)) == (1, 3)
    assert coalition_mask((), 4) == 0


def test_report_requires_full_coverage():
    with pytest.raises(InvalidCoalitionError, match=r"coalition \(3,\) outside P_1 over 1..2"):
        report_from_values(2, 1, {(3,): 1.0})
    with pytest.raises(InvalidCoalitionError, match="holds 3 values"):
        InteractionReport(2, 1, [0.0, 1.0])


def test_report_value_reads_the_layout_slot():
    report = report_from_values(4, 2, {(1, 3): 1.5, (2,): -3.0, (): 7.0})
    assert [report.value(c) for c in ((3, 1), (2,), (), (2, 4))] == [1.5, -3.0, 7.0, 0.0]
    for coalition in ((5,), (2, 2), (1, 2, 3), (0,)):
        with pytest.raises(InvalidCoalitionError, match="outside P_2 over 1..4"):
            report.value(coalition)
    assert "_entry_map" not in report.__dict__


def test_report_rejects_non_finite():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteError, match=r"non-finite value for coalition \(1,\)"):
            report_from_values(1, 1, {(1,): value})
        with pytest.raises(NonFiniteError, match=r"non-finite value for coalition \(1, 2\)"):
            report_from_values(2, 2, {(2, 1): value})
        with pytest.raises(NonFiniteError, match=r"non-finite value for coalition \(\)"):
            InteractionReport(1, 1, [value, 0.0])


def test_report_values_are_a_read_only_copy():
    values = np.array([1.0, 2.0, 3.0])
    report = InteractionReport(2, 1, values)
    values[0] = 9.0
    assert report.values.tolist() == [1.0, 2.0, 3.0]
    assert report.values.dtype == np.float64
    with pytest.raises(ValueError):
        report.values[0] = 0.0
    with pytest.raises(TypeError):
        report.entries[()] = 0.0
    assert pickle.loads(pickle.dumps(report)) == report


@pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (6, 6), (9, 3), (12, 4), (21, 2), (40, 2), (63, 1)])
def test_vectorised_slots_are_the_scalar_slots(n, k):
    """Every coalition of P_k, grouped by size, ranks where the layout puts
    it, by the checked scalar call and the array call alike, beyond the
    20-feature table scale too, whatever the shape of the array holding the
    coalitions."""
    coalitions, _ = coalition_layout(n, k)
    for size in range(k + 1):
        block = [c for c in coalitions if len(c) == size]
        members = np.array(block, np.int64).reshape(len(block), size)
        expected = [coalition_slot(n, k, c) for c in block]
        assert expected == [coalitions.index(c) for c in block]
        assert coalition_slots(n, members).tolist() == expected
        assert coalition_slots(n, members[:, None]).tolist() == [[slot] for slot in expected]


def test_report_json_schema_is_lexicographic():
    report = report_from_values(3, 2, {(1, 3): 1.0, (2,): -3.0, (1,): 2.0, (): -15.0})
    payload = report.to_json_dict()
    coalitions = [tuple(e["coalition"]) for e in payload["entries"]]
    assert coalitions == sorted(coalitions)
    assert coalitions[0] == ()
    back = report_from_json_dict(json.loads(report.to_json()))
    assert back == report


def test_report_csv_layout():
    report = report_from_values(3, 2, {(1, 3): 1.0, (): -15.0})
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "coalition;value"
    assert lines[1] == "-;-15.0"
    assert "1+3;1.0" in lines


# floats whose repr takes each form: signed zero, subnormal, exponent
# notation on both sides, the largest double
EDGE_VALUES = (-0.0, 5e-324, 1e-7, 1e16, 1.7976931348623157e308, 0.1, -2.5, 1 / 3, 0.0)


def _edge_values(rng, count):
    return rng.choice(np.array(EDGE_VALUES), count)


def _sorted_csv(header, rows):
    """CSV reference: one line per coalition in sorted() order."""
    lines = [header]
    for c, values in sorted(rows.items()):
        label = "+".join(str(i) for i in c) if c else "-"
        lines.append(";".join([label, *map(repr, values)]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(8))
def test_writers_match_json_dumps_byte_for_byte(n):
    rng = np.random.default_rng(n)
    synergies = SynergyTable(n, _edge_values(rng, 1 << n))
    assert synergies.to_json() == json.dumps(synergies.to_json_dict(), indent=2)
    for k in range(n + 1):
        left = InteractionReport.from_masks(n, k, _edge_values(rng, 1 << n))
        right = InteractionReport.from_masks(n, k, _edge_values(rng, 1 << n))
        assert left.to_json() == json.dumps(left.to_json_dict(), indent=2)
        assert left.to_csv() == _sorted_csv(
            "coalition;value", {c: (v,) for c, v in left.entries.items()}
        )
        diffs = {c: abs(left.entries[c] - right.entries[c]) for c in left.entries}
        max_diff = max(diffs.values())
        payload = {
            "order": k,
            "left": "rs",
            "right": "rs-nested",
            "entries": [
                {"coalition": list(c), "left": left.entries[c], "right": right.entries[c],
                 "abs_diff": diffs[c]}
                for c in sorted(left.entries)
            ],
            "max_abs_diff": max_diff,
        }
        names = ("rs", "rs-nested")
        assert comparison_to_json(left, right, names) == json.dumps(payload, indent=2)
        rows = {c: (left.entries[c], right.entries[c], diffs[c]) for c in left.entries}
        assert comparison_to_csv(left, right, names) == (
            _sorted_csv("coalition;rs;rs-nested;abs_diff", rows) + f"max_abs_diff;;;{max_diff!r}\n"
        )


def test_comparison_beyond_float_range_is_rejected():
    left = report_from_values(1, 1, {(1,): 1e308})
    right = report_from_values(1, 1, {(1,): -1e308})
    for write in (comparison_to_json, comparison_to_csv):
        with pytest.raises(NonFiniteError):
            write(left, right, ("a", "b"))
    with pytest.raises(InvalidCoalitionError):
        comparison_to_json(left, report_from_values(2, 1, {}), ("a", "b"))


def test_report_from_masks_matches_per_mask_build():
    rng = np.random.default_rng(8)
    for n in range(9):
        values = rng.uniform(-1, 1, 1 << n)
        for k in range(n + 1):
            coalitions = enumerate_coalitions(n, k)
            report = InteractionReport.from_masks(n, k, values)
            expected = {c: float(values[coalition_mask(c, n)]) for c in coalitions}
            assert report.entries == expected
            assert list(report.entries) == coalitions


def test_report_total_skips_empty_set():
    report = report_from_values(2, 1, {(): 5.0, (1,): 1.0, (2,): 2.0})
    assert report.total() == 3.0


def test_report_total_adds_left_to_right():
    # uncompensated: 1e16 + 1.0 rounds back to 1e16, so the total is 0.0 (a
    # compensated sum, such as the builtin sum from Python 3.12 on, gives 1.0)
    report = report_from_values(3, 1, {(): 5.0, (1,): 1e16, (2,): 1.0, (3,): -1e16})
    assert report.total() == 0.0


def test_sequential_sum_of_a_vector_is_the_cumulative_sum():
    """The Python loop that sums a vector gives the bits of the cumulative
    sum from 0.0 that sums each column of a matrix."""
    rng = np.random.default_rng(2718)
    vectors = [np.array([1e16, 1.0, -1e16]), np.array([-0.0]), np.array([-0.0, -0.0]),
               np.empty(0), np.array([np.inf, -np.inf]), np.array([1.0, np.nan, np.inf])]
    for size in (1, 2, 7, 100):
        for _ in range(20):
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
            special = rng.random(size)
            values[special < 0.1] = -0.0
            values[(special >= 0.1) & (special < 0.13)] = np.inf
            values[(special >= 0.13) & (special < 0.16)] = -np.inf
            values[(special >= 0.16) & (special < 0.18)] = np.nan
            vectors.append(values)
    for values in vectors:
        total = sequential_sum(values)
        assert type(total) is float
        with np.errstate(invalid="ignore"):  # inf - inf
            cumulative = float(np.cumsum(np.concatenate([[0.0], values]))[-1])
            column = sequential_sum(values[:, None])
        assert column.shape == (1,)
        assert total.hex() == cumulative.hex() == float(column[0]).hex()
    assert sequential_sum(np.array([1e16, 1.0, -1e16])) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=63))
def test_masked_point_members_property(n, raw_mask):
    mask = raw_mask & ((1 << n) - 1)
    inst = Instance(x=tuple(float(i + 1) for i in range(n)), baseline=(0.0,) * n)
    point = masked_point(inst, coalition_members(mask))
    assert all(
        point[i] == (inst.x[i] if mask >> i & 1 else 0.0) for i in range(n)
    )
