"""Shared vocabulary: feature points, problem instances, coalitions, reports.

Feature indices are 1-based everywhere a user can see them (coalitions,
JSON, CSV); subsets are encoded internally as bitmasks with bit i-1 for
feature i. All types are immutable values. The layout of a report, P_k in
canonical order (size, then lexicographic), is decided here alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .combinatorics import MAX_FEATURES, MAX_TABLE_FEATURES, enumerate_coalitions
from .exceptions import (
    DimensionMismatchError,
    InvalidCoalitionError,
    NonFiniteError,
    OutOfBoxError,
    SynergyError,
)

Point = tuple[float, ...]
Coalition = tuple[int, ...]


def as_point(values: Iterable[float]) -> Point:
    return tuple(float(v) for v in values)


def as_int(value: Any) -> int:
    """`value` as an int: a TypeError unless it is a number with an integral value."""
    try:
        result = int(value)
    except (ValueError, OverflowError):
        result = None
    if result is None or result != value:
        raise TypeError(f"expected an integer, got {value!r}")
    return result


def as_real(value: Any) -> float:
    """`value` as a float: a TypeError unless it is a number (a string is not)."""
    if not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def as_reals(values: Any) -> np.ndarray:
    """`values` as a float array: a TypeError unless every item is a number."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf" and not (
        array.dtype.kind == "O" and all(isinstance(v, (int, float)) for v in array.flat)
    ):
        raise TypeError(f"expected numbers, got {array.dtype.name} items")
    return array.astype(float)


_REQUIRED = object()


def json_field(
    payload: Any, name: str, what: str, convert: Callable = lambda v: v, default: Any = _REQUIRED
) -> Any:
    """`convert(payload[name])` from a parsed JSON object describing `what`.

    A payload that is not an object, a missing field without a default, and
    a value of the wrong type (a TypeError from `convert`) raise a
    SynergyError that names the field.
    """
    if not isinstance(payload, Mapping):
        raise SynergyError(f"{what} must be a JSON object, got {type(payload).__name__}")
    if name not in payload:
        if default is _REQUIRED:
            raise SynergyError(f"{what} has no {name!r} field")
        return default
    try:
        return convert(payload[name])
    except TypeError as err:
        raise SynergyError(f"{what} field {name!r}: {err}") from None


@dataclass(frozen=True)
class Instance:
    """An input point, its baseline, and an optional bounding box.

    The box is a pair (lower, upper) of corner points; omit it for an
    unbounded domain.
    """

    x: Point
    baseline: Point
    box: tuple[Point, Point] | None = None

    @property
    def n(self) -> int:
        return len(self.x)


def validate_instance(inst: Instance) -> None:
    """Raise unless dimensions agree, every coordinate is finite and both
    points sit inside the box."""
    n = len(inst.x)
    if n < 1:
        raise DimensionMismatchError("instance needs at least one feature")
    if n > MAX_FEATURES:
        raise DimensionMismatchError(f"n={n} exceeds the {MAX_FEATURES}-feature cap")
    if len(inst.baseline) != n:
        raise DimensionMismatchError(
            f"x has {n} features but baseline has {len(inst.baseline)}"
        )
    points = [("x", inst.x), ("baseline", inst.baseline)]
    if inst.box is not None:
        lower, upper = inst.box
        if len(lower) != n or len(upper) != n:
            raise DimensionMismatchError("box corners must match the feature count")
        points += [("box lower", lower), ("box upper", upper)]
    for label, point in points:
        for i, value in enumerate(point):
            if not math.isfinite(value):
                raise NonFiniteError(f"{label}[{i + 1}]={value} is not finite")
    if inst.box is not None:
        for label, point in (("x", inst.x), ("baseline", inst.baseline)):
            for i, value in enumerate(point):
                if not lower[i] <= value <= upper[i]:
                    raise OutOfBoxError(
                        f"{label}[{i + 1}]={value} outside [{lower[i]}, {upper[i]}]"
                    )


def coalition_mask(members: Iterable[int], n: int) -> int:
    """Bitmask for a 1-based index set; rejects indices outside 1..n."""
    mask = 0
    for i in members:
        if not 1 <= i <= n:
            raise InvalidCoalitionError(f"feature index {i} outside 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def masked_point(inst: Instance, members: Iterable[int]) -> Point:
    """The point taking input values on the coalition and baseline values elsewhere."""
    n = inst.n
    mask = coalition_mask(members, n)
    return tuple(
        inst.x[i] if mask >> i & 1 else inst.baseline[i] for i in range(n)
    )


def format_coalition(members: Coalition) -> str:
    """CSV label of a coalition: members joined by '+', or '-' when empty."""
    return "+".join(map(str, members)) if members else "-"


@lru_cache(maxsize=256)
def coalition_layout(n: int, k: int) -> tuple[tuple[Coalition, ...], np.ndarray | None]:
    """P_k over 1..n: its coalitions in canonical order (size, then
    lexicographic) and, for n within the table cap, their subset encodings
    as a read-only array (else None). Needs 0 <= k <= n; the count is capped."""
    coalitions = tuple(enumerate_coalitions(n, k))
    if n > MAX_TABLE_FEATURES:
        return coalitions, None
    # combinations() emits by position, so over the feature bits it walks
    # the coalitions in step
    bits = [1 << i for i in range(n)]
    sums = chain([0], *(map(sum, combinations(bits, size)) for size in range(1, k + 1)))
    masks = np.fromiter(sums, dtype=np.int64, count=len(coalitions))
    masks.setflags(write=False)
    return coalitions, masks


def zero_entries(n: int, k: int) -> dict[Coalition, float]:
    """A fresh accumulator holding 0.0 for every coalition of P_k, in layout order."""
    return dict.fromkeys(coalition_layout(n, k)[0], 0.0)


# ---------------------------------------------------------------------------
# Writers. Every JSON form is the text json.dumps(payload, indent=2) gives,
# written from value arrays in layout order without building the payload:
# float.__repr__ is the JSON form of a finite float. Rows are listed in
# lexicographic coalition order, the order sorted() gives their tuples.
# ---------------------------------------------------------------------------

# Layouts above this many coalitions rebuild their row text on every call,
# so one large report does not stay in memory.
_TEXT_CACHE_MAX_ROWS = 1 << 16


@lru_cache(maxsize=16)
def _lex_order(n: int, k: int) -> np.ndarray:
    """Layout positions of P_k's coalitions, in lexicographic order."""
    coalitions, _ = coalition_layout(n, k)
    order = np.array(sorted(range(len(coalitions)), key=coalitions.__getitem__), dtype=np.intp)
    order.setflags(write=False)
    return order


def _build_json_row_heads(n: int, k: int, field: str) -> tuple[str, ...]:
    """Per coalition of P_k in lexicographic order, the text of an "entries"
    row up to the value of its first field `field`, the previous row's close
    included."""
    coalitions, _ = coalition_layout(n, k)
    heads = []
    close = ""
    for i in _lex_order(n, k).tolist():
        members = coalitions[i]
        listed = "[\n        " + ",\n        ".join(map(str, members)) + "\n      ]"
        listed = listed if members else "[]"
        heads.append(f'{close}    {{\n      "coalition": {listed},\n      "{field}": ')
        close = "\n    },\n"
    return tuple(heads)


_cached_json_row_heads = lru_cache(maxsize=16)(_build_json_row_heads)


def _json_rows(n: int, k: int, columns: Mapping[str, np.ndarray]) -> Iterator[str]:
    """The pieces of an indent-2 "entries" list body: per coalition, its
    members, then each column's value under the column's name."""
    build = (
        _cached_json_row_heads
        if len(coalition_layout(n, k)[0]) <= _TEXT_CACHE_MAX_ROWS
        else _build_json_row_heads
    )
    order = _lex_order(n, k)
    parts = []
    for name, values in columns.items():
        parts.append(repeat(f',\n      "{name}": ') if parts else build(n, k, name))
        parts.append(map(float.__repr__, values[order].tolist()))
    return chain(chain.from_iterable(zip(*parts)), ("\n    }",))


def _csv_lines(n: int, k: int, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """The CSV lines 'label;value;...' of P_k's coalitions, without line ends."""
    coalitions, _ = coalition_layout(n, k)
    order = _lex_order(n, k)
    labels = map(format_coalition, map(coalitions.__getitem__, order.tolist()))
    values = (map(float.__repr__, column[order].tolist()) for column in columns)
    return map(";".join, zip(labels, *values))


@dataclass(frozen=True)
class InteractionReport:
    """Scores for every coalition of size <= order over n features.

    The entry map must cover exactly the subsets of {1..n} of size <= order,
    the empty set included, and every value must be finite. It is stored in
    layout order.
    """

    n: int
    order: int
    entries: Mapping[Coalition, float] = field(compare=True)

    def __post_init__(self) -> None:
        expected, _ = coalition_layout(self.n, self.order)
        try:
            entries = {c: float(self.entries[c]) for c in expected}
        except KeyError:
            entries = None
        if entries is None or len(entries) != len(self.entries):
            keys = set(self.entries)
            raise InvalidCoalitionError(
                f"report keys must cover P_{self.order} exactly (missing="
                f"{sorted(set(expected) - keys)[:3]}, extra={sorted(keys - set(expected))[:3]})"
            )
        for coalition, value in entries.items():
            if not math.isfinite(value):
                raise NonFiniteError(f"non-finite value for coalition {coalition}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_masks(cls, n: int, order: int, values: np.ndarray) -> "InteractionReport":
        """The report taking values[S] for each coalition S, from a 2^n array
        in the subset encoding."""
        coalitions, masks = coalition_layout(n, order)
        return cls(n=n, order=order, entries=dict(zip(coalitions, values[masks].tolist())))

    def value(self, members: Iterable[int]) -> float:
        return self.entries[tuple(sorted(members))]

    def total(self) -> float:
        """Sum over all nonempty coalitions (the completeness quantity)."""
        return sum(v for c, v in sorted(self.entries.items()) if c)

    def max_abs_difference(self, other: "InteractionReport") -> float:
        if set(self.entries) != set(other.entries):
            raise InvalidCoalitionError("reports cover different coalition sets")
        return max(abs(self.entries[c] - other.entries[c]) for c in self.entries)

    def _values(self) -> np.ndarray:
        """The entry values in layout order."""
        return np.fromiter(self.entries.values(), float, len(self.entries))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "entries": [
                {"coalition": list(c), "value": self.entries[c]}
                for c in sorted(self.entries)
            ],
        }

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2)."""
        head = f'{{\n  "order": {self.order},\n  "entries": [\n'
        rows = _json_rows(self.n, self.order, {"value": self._values()})
        return "".join(chain((head,), rows, ("\n  ]\n}",)))

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "InteractionReport":
        entries = {
            tuple(int(i) for i in item["coalition"]): float(item["value"])
            for item in payload["entries"]
        }
        n = sum(1 for c in entries if len(c) == 1)
        return cls(n=n, order=int(payload["order"]), entries=entries)

    def to_csv(self) -> str:
        lines = _csv_lines(self.n, self.order, [self._values()])
        return "\n".join(chain(("coalition;value",), lines, ("",)))


def report_from_values(
    n: int, order: int, values: Mapping[Coalition, float]
) -> InteractionReport:
    """Build a report, filling unmentioned coalitions of P_order with zero."""
    entries = zero_entries(n, order)
    for coalition, value in values.items():
        key = tuple(sorted(coalition))
        if key not in entries:
            raise InvalidCoalitionError(f"coalition {key} outside P_{order} over 1..{n}")
        entries[key] = float(value)
    return InteractionReport(n=n, order=order, entries=entries)


def _differences(
    left: InteractionReport, right: InteractionReport
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Both reports' values in layout order, |left - right| and its maximum."""
    if (left.n, left.order) != (right.n, right.order):
        raise InvalidCoalitionError("reports cover different coalition sets")
    lv, rv = left._values(), right._values()
    with np.errstate(over="ignore"):
        diffs = np.abs(lv - rv)
    max_diff = float(diffs.max())
    if not math.isfinite(max_diff):
        raise NonFiniteError("the two reports differ by more than the float range")
    return lv, rv, diffs, max_diff


def comparison_to_json(
    left: InteractionReport, right: InteractionReport, names: tuple[str, str]
) -> str:
    """Two reports side by side with their absolute differences, as indent-2 JSON."""
    lv, rv, diffs, max_diff = _differences(left, right)
    head = (
        f'{{\n  "order": {left.order},\n  "left": {json.dumps(names[0])},\n'
        f'  "right": {json.dumps(names[1])},\n  "entries": [\n'
    )
    rows = _json_rows(left.n, left.order, {"left": lv, "right": rv, "abs_diff": diffs})
    return "".join(chain((head,), rows, (f'\n  ],\n  "max_abs_diff": {max_diff!r}\n}}',)))


def comparison_to_csv(
    left: InteractionReport, right: InteractionReport, names: tuple[str, str]
) -> str:
    """Two reports side by side with their absolute differences, as CSV."""
    lv, rv, diffs, max_diff = _differences(left, right)
    lines = _csv_lines(left.n, left.order, [lv, rv, diffs])
    head = f"coalition;{names[0]};{names[1]};abs_diff"
    return "\n".join(chain((head,), lines, (f"max_abs_diff;;;{max_diff!r}", "")))
