"""Shared vocabulary: feature points, problem instances, coalitions, reports.

Feature indices are 1-based everywhere a user can see them (coalitions,
JSON, CSV); subsets are encoded internally as bitmasks with bit i-1 for
feature i. All types are immutable values. The layout of a report, P_k in
canonical order (size, then lexicographic), is decided here alone.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import chain, combinations, repeat
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .combinatorics import (
    MAX_FEATURES,
    MAX_TABLE_FEATURES,
    coalition_count,
    enumerate_coalitions,
)
from .exceptions import (
    DimensionMismatchError,
    InvalidCoalitionError,
    NonFiniteError,
    SynergyError,
)

Point = tuple[float, ...]
Coalition = tuple[int, ...]


def as_int(value: Any) -> int:
    """`value` as an int: a TypeError unless it is an integral number, not a boolean."""
    try:
        result = None if isinstance(value, bool) else int(value)
    except (ValueError, OverflowError):
        result = None
    if result is None or result != value:
        raise TypeError(f"expected an integer, got {value!r}")
    return result


def as_real(value: Any) -> float:
    """`value` as a float: a TypeError unless it is a real number (a string is not)."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range; its digits stay unprinted
        raise TypeError("expected a number within the float range") from None


def as_reals(values: Any) -> np.ndarray:
    """`values` as a float array: a TypeError unless every item is a number."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf" and not (
        array.dtype.kind == "O" and all(isinstance(v, (int, float)) for v in array.flat)
    ):
        raise TypeError(f"expected numbers, got {array.dtype.name} items")
    try:
        return array.astype(float)
    except OverflowError:  # an int beyond the float range
        raise TypeError("expected numbers within the float range") from None


def sequential_sum(terms: np.ndarray) -> np.ndarray | float:
    """0.0 + terms[0] + terms[1] + ... along the first axis, one row at a
    time: a Python float loop for a vector, a cumulative sum otherwise
    (accumulate never reorders or pairs up its additions; its result is a
    copy, so it does not keep the running sums alive)."""
    if terms.ndim == 1:
        total = 0.0
        for term in terms.tolist():
            total += term
        return total
    rows = np.concatenate([np.zeros((1,) + terms.shape[1:]), terms])
    return np.cumsum(rows, axis=0)[-1].copy()


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
    """An input point and its baseline, checked on construction: 1..63
    features, as many baseline coordinates as input ones, every coordinate
    finite."""

    x: Point
    baseline: Point

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise DimensionMismatchError("instance needs at least one feature")
        if n > MAX_FEATURES:
            raise DimensionMismatchError(f"n={n} exceeds the {MAX_FEATURES}-feature cap")
        if len(self.baseline) != n:
            raise DimensionMismatchError(
                f"x has {n} features but baseline has {len(self.baseline)}"
            )
        for label, point in (("x", self.x), ("baseline", self.baseline)):
            for i, value in enumerate(point):
                if not math.isfinite(value):
                    raise NonFiniteError(f"{label}[{i + 1}]={value} is not finite")

    @property
    def n(self) -> int:
        return len(self.x)


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


# Layouts, and the caches built from them, above this many coalitions are
# rebuilt on every call, so one large report does not stay in memory.
_CACHE_MAX_ROWS = 1 << 16


def _small_layouts_cached(maxsize: int):
    """Decorator: cache `build(n, k, ...)` only for P_k of at most
    _CACHE_MAX_ROWS coalitions; larger layouts are built on every call."""

    def decorate(build):
        cached = lru_cache(maxsize=maxsize)(build)

        @wraps(build)
        def get(n: int, k: int, *rest):
            return (cached if coalition_count(n, k) <= _CACHE_MAX_ROWS else build)(n, k, *rest)

        get.cache_info, get.cache_clear = cached.cache_info, cached.cache_clear
        return get

    return decorate


@_small_layouts_cached(maxsize=256)
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


@lru_cache(maxsize=4096)
def coalition_slot(n: int, k: int, members: Coalition) -> int:
    """Position of a coalition (ascending 1-based members) in the layout of
    P_k over 1..n: checked against P_k, then counted by `coalition_slots`,
    without building the layout."""
    coalition_count(n, k)  # checks n and k
    size = len(members)
    if (
        size > k
        or any(a >= b for a, b in zip(members, members[1:]))
        or (members and not 1 <= members[0] <= members[-1] <= n)
    ):
        raise InvalidCoalitionError(f"coalition {members} outside P_{k} over 1..{n}")
    return int(coalition_slots(n, np.array(members, np.int64)))


@lru_cache(maxsize=64)
def _binomial_table(n: int, k: int) -> np.ndarray:
    """C(a, b) at [b, a] for b in 0..k and a in 0..n, as a read-only int64
    array (every entry fits: n is at most MAX_FEATURES = 63)."""
    table = np.array([[math.comb(a, b) for a in range(n + 1)] for b in range(k + 1)], np.int64)
    table.setflags(write=False)
    return table


def coalition_slots(n: int, members: np.ndarray, offset: np.ndarray | int = 0) -> np.ndarray:
    """The layout position of every coalition along the last axis of an int
    array, each one's 1-based members ascending: a coalition's slot is the
    same in every P_k that holds it. Each slot is shifted by `offset`,
    which broadcasts against the leading axes. The coalitions are not
    checked: each must hold distinct features of 1..n.

    A slot is the last slot of its coalition's size, less the coalitions of
    that size after it: those that share its first i members and whose
    next member is above its (i+1)-th."""
    size = members.shape[-1]
    counts = _binomial_table(n, size)
    later = np.zeros(members.shape[:-1], np.int64)
    for i in range(size):
        later += counts[size - i].take(n - members[..., i])
    return (offset + (coalition_count(n, size) - 1)) - later


# ---------------------------------------------------------------------------
# Writers. Every JSON form is the text json.dumps(payload, indent=2) gives,
# written from value arrays in layout order without building the payload:
# float.__repr__ is the JSON form of a finite float. Rows are listed in
# lexicographic coalition order, the order sorted() gives their tuples.
# ---------------------------------------------------------------------------

@_small_layouts_cached(maxsize=16)
def _lex_order(n: int, k: int) -> np.ndarray:
    """Layout positions of P_k's coalitions, in lexicographic order."""
    coalitions, _ = coalition_layout(n, k)
    order = np.array(sorted(range(len(coalitions)), key=coalitions.__getitem__), dtype=np.intp)
    order.setflags(write=False)
    return order


@_small_layouts_cached(maxsize=16)
def _json_row_heads(n: int, k: int, field: str) -> tuple[str, ...]:
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


def _json_rows(n: int, k: int, columns: Mapping[str, np.ndarray]) -> Iterator[str]:
    """The pieces of an indent-2 "entries" list body: per coalition, its
    members, then each column's value under the column's name."""
    order = _lex_order(n, k)
    parts = []
    for name, values in columns.items():
        parts.append(repeat(f',\n      "{name}": ') if parts else _json_row_heads(n, k, name))
        parts.append(map(float.__repr__, values[order].tolist()))
    return chain(chain.from_iterable(zip(*parts)), ("\n    }",))


def _csv_lines(n: int, k: int, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """The CSV lines 'label;value;...' of P_k's coalitions, without line ends."""
    coalitions, _ = coalition_layout(n, k)
    order = _lex_order(n, k)
    labels = map(format_coalition, map(coalitions.__getitem__, order.tolist()))
    values = (map(float.__repr__, column[order].tolist()) for column in columns)
    return map(";".join, zip(labels, *values))


@dataclass(frozen=True, eq=False)
class InteractionReport:
    """Scores for every coalition of size <= order over n features.

    `values` holds one finite score per coalition of P_order, the empty set
    included, in layout order (`coalition_layout`); the report keeps its own
    read-only float64 copy. Every other form of a report is built from it.
    """

    n: int
    order: int
    values: np.ndarray

    def __post_init__(self) -> None:
        count = coalition_count(self.n, self.order)
        values = np.array(self.values, dtype=float)
        if values.shape != (count,):
            raise InvalidCoalitionError(
                f"a report of P_{self.order} over n={self.n} holds {count} values, "
                f"got an array of shape {values.shape}"
            )
        if not np.isfinite(values).all():
            first = int(np.flatnonzero(~np.isfinite(values))[0])
            coalition = coalition_layout(self.n, self.order)[0][first]
            raise NonFiniteError(f"non-finite value for coalition {coalition}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_masks(cls, n: int, order: int, values: np.ndarray) -> "InteractionReport":
        """The report taking values[S] for each coalition S, from a 2^n array
        in the subset encoding."""
        _, masks = coalition_layout(n, order)
        return cls(n, order, values[masks])

    @cached_property
    def _entry_map(self) -> dict[Coalition, float]:
        coalitions, _ = coalition_layout(self.n, self.order)
        return dict(zip(coalitions, self.values.tolist()))

    @property
    def entries(self) -> Mapping[Coalition, float]:
        """Coalition -> score in layout order: a read-only view of a map
        built on first use."""
        return MappingProxyType(self._entry_map)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionReport):
            return NotImplemented
        return (self.n, self.order) == (other.n, other.order) and np.array_equal(
            self.values, other.values
        )

    def value(self, members: Iterable[int]) -> float:
        """The score of one coalition, read from its layout slot."""
        return float(self.values[coalition_slot(self.n, self.order, tuple(sorted(members)))])

    def total(self) -> float:
        """Sum over all nonempty coalitions (the completeness quantity), in
        lexicographic coalition order, left to right from 0.0."""
        return float(sequential_sum(self.values[_lex_order(self.n, self.order)[1:]]))

    def max_abs_difference(self, other: "InteractionReport") -> float:
        if (self.n, self.order) != (other.n, other.order):
            raise InvalidCoalitionError("reports cover different coalition sets")
        with np.errstate(over="ignore"):
            return float(np.abs(self.values - other.values).max())

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
        rows = _json_rows(self.n, self.order, {"value": self.values})
        return "".join(chain((head,), rows, ("\n  ]\n}",)))

    def to_csv(self) -> str:
        lines = _csv_lines(self.n, self.order, [self.values])
        return "\n".join(chain(("coalition;value",), lines, ("",)))


def report_from_values(
    n: int, order: int, values: Mapping[Coalition, float]
) -> InteractionReport:
    """Build a report, filling unmentioned coalitions of P_order with zero."""
    array = np.zeros(coalition_count(n, order))
    for coalition, value in values.items():
        array[coalition_slot(n, order, tuple(sorted(coalition)))] = float(value)
    return InteractionReport(n, order, array)


def _differences(
    left: InteractionReport, right: InteractionReport
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Both reports' values in layout order, |left - right| and its maximum."""
    if (left.n, left.order) != (right.n, right.order):
        raise InvalidCoalitionError("reports cover different coalition sets")
    lv, rv = left.values, right.values
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
