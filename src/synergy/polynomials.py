"""Sparse multivariate polynomials centered at a baseline point.

A polynomial is a finite map from exponent vectors m to coefficients c,
representing F(y) = sum_m c_m * prod_i (y_i - center_i)^m_i, with the
convention that a zero exponent contributes the factor 1 even at the center.
It is stored as its terms' arrays: the exponent vectors as int64 rows and the
coefficients as float64, in canonical order (ascending exponent vectors).
Zero coefficients are never stored.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .combinatorics import MAX_FEATURES
from .core import Coalition, Point, as_int, as_real, json_field
from .exceptions import CapExceededError, DimensionMismatchError, NonFiniteError, SynergyError

MAX_TOTAL_DEGREE = 128
MAX_TERMS = 10**6
# The most term pairs one product step may form: checked before the step
# forms any, so an expansion too large to finish in seconds fails at once.
MAX_PRODUCT_PAIRS = 10**7

MultiIndex = tuple[int, ...]


@lru_cache(maxsize=256)
def multi_indices(n: int, max_total: int) -> tuple[MultiIndex, ...]:
    """Every length-n exponent vector of total degree <= max_total, in
    lexicographic order: a vector sorts after every vector it dominates."""
    if n == 0:
        return ((),)
    return tuple(
        (e,) + rest for e in range(max_total + 1) for rest in multi_indices(n - 1, max_total - e)
    )


def support(m: MultiIndex) -> Coalition:
    """1-based positions of the nonzero exponents."""
    return tuple(i + 1 for i, e in enumerate(m) if e > 0)


def exponent_rows(vectors: Sequence[Sequence], n: int) -> np.ndarray:
    """Length-n exponent vectors as the rows of an int64 array."""
    flat = np.fromiter(chain.from_iterable(vectors), np.int64, len(vectors) * n)
    return flat.reshape(len(vectors), n)


def canonical_order(rows: np.ndarray) -> np.ndarray:
    """The stable order that sorts exponent rows lexicographically, the
    canonical term order: of two equal rows, the first stays first."""
    if not rows.shape[1]:  # rows of no features are all equal
        return np.arange(len(rows))
    return np.lexsort(rows.T[::-1])


def _sorted_arrays(terms: Mapping[MultiIndex, float], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponent rows and coefficients of a term map of distinct
    length-n vectors, in canonical order."""
    rows = exponent_rows(list(terms), n)
    order = canonical_order(rows)
    return rows.take(order, axis=0), np.fromiter(terms.values(), float, len(terms))[order]


# Term-map arithmetic (exponent vector -> coefficient), for the series walker.

def _require_degree(degree: int) -> None:
    """The degree cap, on a term or on a product before it is expanded."""
    if degree > MAX_TOTAL_DEGREE:
        raise CapExceededError(f"total degree {degree} exceeds cap {MAX_TOTAL_DEGREE}")


def _require_pairs(count: int) -> None:
    """The pair cap, on a product step before it forms any pair."""
    if count > MAX_PRODUCT_PAIRS:
        raise CapExceededError(
            f"a product step of {count} term pairs exceeds cap {MAX_PRODUCT_PAIRS}"
        )


def overflowed_power(u: float, e: int) -> float:
    """The signed infinity u ** e rounds to when it is beyond the float range."""
    return -np.inf if u < 0 and e % 2 else np.inf


def scalar_power(u: float, e: int) -> float:
    """u ** e by Python's power, or the signed infinity it rounds to beyond
    the float range, where Python's power raises."""
    try:
        return u**e
    except OverflowError:
        return overflowed_power(u, e)


# Exact products of at least this many term pairs run on exponent-code arrays;
# the dict loop of _convolve is quicker on smaller ones.
ARRAY_MIN_PAIRS = 100
# The most term pairs (product) or (term, coalition) parts
# (grad_exact._array_termwise) an array kernel forms at once; read per call.
ARRAY_BLOCK = 1 << 16


def term_sum(parts: Iterable[Iterable[tuple[MultiIndex, float]]]) -> dict[MultiIndex, float]:
    """The sum of term maps given as (exponent vector, coefficient) pairs:
    each key's coefficients added from 0.0 in the order given, the keys in
    order of first appearance, zeros dropped after the sum."""
    out: dict[MultiIndex, float] = {}
    for part in parts:
        for m, c in part:
            out[m] = out.get(m, 0.0) + c
    return {m: c for m, c in out.items() if c != 0.0}


def _convolve(
    a: dict[MultiIndex, float], b: dict[MultiIndex, float], order: int | None
) -> dict[MultiIndex, float]:
    """Series product, pairs in dict order; with an `order`, every pair of
    total degree above it is skipped. Exact products (order None) are checked
    against the degree cap before they are expanded, so none is skipped.
    Every pair counts against MAX_PRODUCT_PAIRS, a skipped one too."""
    _require_pairs(len(a) * len(b))
    limit = MAX_TOTAL_DEGREE if order is None else order
    b_items = [(mb, cb, sum(mb)) for mb, cb in b.items()]
    out: dict[MultiIndex, float] = {}
    for ma, ca in a.items():
        room = limit - sum(ma)
        for mb, cb, degree in b_items:
            if degree > room:
                continue
            key = tuple(map(operator.add, ma, mb))
            out[key] = out.get(key, 0.0) + ca * cb
            if len(out) > MAX_TERMS:
                raise CapExceededError("polynomial expansion exceeds the term cap")
    return {m: c for m, c in out.items() if c != 0.0}


def product(
    factors: Sequence[tuple[dict[MultiIndex, float], int]], zero: MultiIndex, order: int | None
) -> dict[MultiIndex, float]:
    """The product from {zero: 1.0} of each factor in turn, taken as many
    times as its count, one _convolve(·, ·, order) per step. An exact
    product (order None) is checked against the degree cap first, and from
    its first step of ARRAY_MIN_PAIRS pairs or more on runs on exponent codes
    (see _radices), bit for bit, unless its codes would not fit in int64.
    An exact power is also capped at MAX_TOTAL_DEGREE factors, so one of a
    constant base fails at once rather than multiplying it out. Each step
    is checked against MAX_PRODUCT_PAIRS before it forms a pair."""
    if order is None:
        _require_degree(sum(max(map(sum, f), default=0) * count for f, count in factors))
        power = max((count for _, count in factors), default=0)
        if power > MAX_TOTAL_DEGREE:
            raise CapExceededError(f"exponent {power} exceeds cap {MAX_TOTAL_DEGREE}")
    out = {zero: 1.0}
    arrays = None  # the running product as (codes, coefficients) from its first array step
    radices = None  # found at the first large step; [] when codes cannot hold the product
    for f, count in factors:
        encoded = None
        for _ in range(count):
            if radices is None and order is None and len(out) * len(f) >= ARRAY_MIN_PAIRS:
                radices = _radices(factors, len(zero))
                if radices:
                    weights = code_weights(tuple(radices))
                    arrays = _encode(out, weights)
            if arrays is None:
                out = _convolve(out, f, order)
            else:
                encoded = encoded or _encode(f, weights)
                arrays = _array_product(*arrays, *encoded)
    return out if arrays is None else _decode(*arrays, weights, radices)


def _array_product(
    a_codes: np.ndarray, a_coefs: np.ndarray, b_codes: np.ndarray, b_coefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_convolve(a, b, None) on exponent codes, bit for bit: the pairs in
    (a term, b term) order, each product rounded once and summed from 0.0 in
    pair order, the keys in order of first appearance, zeros dropped. The
    pairs are formed ARRAY_BLOCK at a time, once MAX_PRODUCT_PAIRS is checked."""
    _require_pairs(len(a_codes) * len(b_codes))
    keys = np.empty(0, np.int64)  # in order of first appearance
    sums = np.empty(0)
    seen = np.empty(0, np.int64)  # the keys sorted, and their slots in `keys`
    seen_slots = np.empty(0, np.intp)
    total = len(a_codes) * len(b_codes)
    for start in range(0, total, ARRAY_BLOCK):
        i, j = np.divmod(np.arange(start, min(start + ARRAY_BLOCK, total)), len(b_codes))
        unique, first, inverse = np.unique(
            a_codes[i] + b_codes[j], return_index=True, return_inverse=True
        )
        at = np.searchsorted(seen, unique)
        known = at < len(seen)
        known[known] = seen[at[known]] == unique[known]
        fresh = ~known
        slots = np.empty(len(unique), np.intp)
        slots[known] = seen_slots[at[known]]
        new = np.flatnonzero(fresh)
        new = new[np.argsort(first[new])]
        slots[new] = np.arange(len(keys), len(keys) + len(new))
        keys = np.concatenate([keys, unique[new]])
        if len(keys) > MAX_TERMS:
            raise CapExceededError("polynomial expansion exceeds the term cap")
        sums = np.concatenate([sums, np.zeros(len(new))])
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as the loop makes them
            np.add.at(sums, slots[inverse], a_coefs[i] * b_coefs[j])
        if start + ARRAY_BLOCK < total:
            seen = np.insert(seen, at[fresh], unique[fresh])
            seen_slots = np.insert(seen_slots, at[fresh], slots[fresh])
    nonzero = sums != 0.0
    return keys[nonzero], sums[nonzero]


def _radices(factors: Sequence[tuple[dict[MultiIndex, float], int]], n: int) -> list[int]:
    """The radices of the product's exponent codes: one int64 per exponent
    vector, feature 1 its most significant digit, each feature's radix one
    more than its largest exponent in the product, so adding codes multiplies
    monomials without a carry.

    Empty when the codes would not fit in int64, or when a coefficient is not
    a Python int or float (float64 holds those as the loop's float
    arithmetic rounds them)."""
    if not all(set(map(type, f.values())) <= {int, float} for f, _ in factors):
        return []
    tops = (exponent_rows(f, n).max(axis=0, initial=0) * count for f, count in factors)
    radices = (1 + sum(tops)).tolist()
    return radices if code_weights(tuple(radices)) is not None else []


@lru_cache(maxsize=1024)
def code_weights(radices: tuple[int, ...]) -> np.ndarray | None:
    """The place values, read-only, of mixed-radix int64 codes with these
    radices, the first digit most significant: codes of digit rows below
    their radices sort as the rows do. None when the codes would not fit in
    int64."""
    weights, scale = [], 1
    for radix in reversed(radices):
        weights.append(scale)
        scale *= radix
    if scale >= 2**63:
        return None
    weights = np.array(weights[::-1], np.int64)
    weights.setflags(write=False)
    return weights


def _encode(terms: dict[MultiIndex, float], weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exponent codes and the coefficients of `terms`, in dict order."""
    codes = exponent_rows(terms, len(weights)) @ weights
    return codes, np.fromiter(terms.values(), float, len(terms))


def _decode(
    codes: np.ndarray, coefs: np.ndarray, weights: np.ndarray, radices: Sequence[int]
) -> dict[MultiIndex, float]:
    """The terms of exponent codes and their coefficients, in array order."""
    return _term_dict(codes[:, None] // weights % np.array(radices, np.int64), coefs)


def compose(
    rest: dict[MultiIndex, float], weights: Sequence[float], zero: MultiIndex, order: int
) -> dict[MultiIndex, float]:
    """Sum of weights[j]·rest^j over ascending j, truncated at total degree
    `order`: a univariate function with Taylor coefficients `weights` at a
    series' constant term, applied to the rest of that series. Each power of
    `rest` is built once, and the sum stops early when one is empty."""

    def powers():
        power = {zero: 1.0}
        while power:
            yield power
            power = _convolve(power, rest, order)

    # zip asks for the next power only after the next weight
    return term_sum(
        [(m, weight * c) for m, c in power.items()]
        for weight, power in zip(weights, powers())
        if weight != 0.0
    )


def _valid_terms(
    exponents: Sequence[Sequence], coefficients: Sequence, n: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The nonzero terms of a polynomial file's parallel exponent vectors and
    coefficients, checked in one array pass: their exponent rows (int64) and
    coefficients (float64), in canonical order. Exponent codes
    (see code_weights) give the order and find repeated vectors.

    None when the pass does not take the input, which the loader then reads
    term by term: an exponent that is not an integer, a coefficient not an
    int or a float, an invalid term, a vector not of length n or repeating
    another, codes beyond int64, or more than MAX_TERMS terms."""
    if len(exponents) > MAX_TERMS:
        return None
    try:
        # the exponents must read back as written: a fraction, a string or a
        # ragged row makes an array of another dtype or shape
        rows = np.array(exponents) if len(exponents) else np.empty((0, n), np.int64)
        if rows.shape != (len(exponents), n) or rows.size and rows.dtype.kind != "i":
            return None
        rows = rows.astype(np.int64, copy=False)  # rows of no features read as float
        if not set(map(type, coefficients)) <= {int, float}:
            return None
        values = np.fromiter(map(float, coefficients), float, len(coefficients))
    except (TypeError, ValueError, OverflowError):  # ragged rows; beyond int64 or float
        return None
    # bound every exponent (a negative one reads as a huge unsigned) before
    # the row sums, so they cannot wrap
    tops = rows.view(np.uint64).max(axis=0, initial=0).tolist()
    if max(tops, default=0) > MAX_TOTAL_DEGREE:
        return None
    # a row sum can pass the cap only where the column maxima's sum does
    if sum(tops) > MAX_TOTAL_DEGREE and rows.sum(axis=1).max() > MAX_TOTAL_DEGREE:
        return None
    if not np.isfinite(values).all():
        return None
    if len(rows) > 1:
        weights = code_weights(tuple(top + 1 for top in tops))
        if weights is None:
            return None
        codes = rows @ weights
        if not (codes[1:] > codes[:-1]).all():  # out of order, or a vector repeats
            order = np.argsort(codes, kind="stable")
            if (np.diff(codes[order]) == 0).any():
                return None
            rows, values = rows[order], values[order]
    if not values.all():  # a zero coefficient, -0.0 too
        nonzero = values != 0.0
        rows, values = rows[nonzero], values[nonzero]
    return rows, values


def _exponent(value: Any) -> int:
    """An exponent as an int: a TypeError unless it is an integral number (a
    boolean reads as 0 or 1)."""
    return int(value) if isinstance(value, bool) else as_int(value)


def _term_dict(rows: np.ndarray, coefficients: np.ndarray) -> dict[MultiIndex, float]:
    """The terms of exponent rows and coefficients, in row order."""
    return dict(zip(map(tuple, rows.tolist()), coefficients.tolist()))


def _finite(center: Point) -> Point:
    if not all(map(math.isfinite, center)):
        raise NonFiniteError(f"polynomial center {tuple(center)} is not finite")
    return center


@dataclass(frozen=True, init=False, eq=False)
class SparsePolynomial:
    """A polynomial is its center and two read-only arrays in canonical
    order: the exponent vectors as the rows of an int64 array
    (`exponent_array`) and their nonzero float64 `coefficients`. `terms` is
    a read-only map view of the arrays, built on first read.

    Each source of terms has one way in, and every way ends in the arrays:

    - a caller's mapping, through this constructor: checked term by term,
      which names the first offending term;
    - a polynomial file, through `from_json_dict`: checked in one array pass
      (`_valid_terms`), or, where the pass does not take it, read term by
      term into a mapping for this constructor;
    - a term map the program builds valid by construction, through
      `_exact`, which checks only what float arithmetic can break;
    - term arrays already in canonical order, through `_from_arrays`, which
      checks only the center;
    - the operators' float arithmetic on the arrays, through `_derived`:
      zeros dropped, an overflow the validating constructor's error."""

    center: Point
    exponent_array: np.ndarray
    coefficients: np.ndarray

    def __init__(self, center: Point, terms: Mapping[MultiIndex, float]) -> None:
        n = len(_finite(center))
        checked = {}
        for m, c in terms.items():
            try:
                key = tuple(map(_exponent, m))
            except TypeError as err:
                raise SynergyError(f"exponent vector {m!r}: {err}") from None
            if len(key) != n:
                raise DimensionMismatchError(
                    f"exponent vector {key} does not match dimension {n}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            _require_degree(sum(key))
            try:
                value = as_real(c)
            except TypeError as err:
                raise SynergyError(f"coefficient for {key}: {err}") from None
            if not math.isfinite(value):
                raise NonFiniteError(f"non-finite coefficient for {key}")
            if key in checked:
                raise SynergyError(f"polynomial repeats the exponent vector {key}")
            checked[key] = value
        clean = {m: c for m, c in checked.items() if c != 0.0}
        if len(clean) > MAX_TERMS:
            raise CapExceededError(f"{len(clean)} terms exceed cap {MAX_TERMS}")
        self._hold(center, *_sorted_arrays(clean, n))

    def _hold(self, center: Point, rows: np.ndarray, values: np.ndarray) -> "SparsePolynomial":
        """Store the center and the two arrays, made read-only."""
        rows.setflags(write=False)
        values.setflags(write=False)
        self.__dict__.update(center=center, exponent_array=rows, coefficients=values)
        return self

    def __reduce__(self):
        """A copy or an unpickled polynomial is built anew from its arrays."""
        return SparsePolynomial._from_arrays, (self.center, self.exponent_array, self.coefficients)

    @classmethod
    def _from_arrays(
        cls, center: Point, exponents: np.ndarray, coefficients: np.ndarray
    ) -> "SparsePolynomial":
        """The trusted constructor for terms held as arrays: int64 exponent
        rows of the center's length, distinct, within the degree cap and in
        canonical order, and their finite, nonzero float64 coefficients. Only
        the center is checked; both arrays are stored as given."""
        return object.__new__(cls)._hold(_finite(center), exponents, coefficients)

    @classmethod
    def _exact(cls, center: Point, terms: dict[MultiIndex, float]) -> "SparsePolynomial":
        """The trusted constructor for term maps the program builds valid by
        construction: distinct exponent vectors of ints, of the center's
        length, within the degree cap, and no zero coefficient. Only what
        float arithmetic can break is checked, and the terms are put in
        canonical order. On a non-float or non-finite coefficient or more
        than MAX_TERMS terms, the validating constructor takes the terms as
        given and raises its error."""
        values = terms.values()
        if (
            len(terms) > MAX_TERMS
            or not set(map(type, values)) <= {float}
            or not all(map(math.isfinite, values))
        ):
            return cls(center, terms)
        return cls._from_arrays(center, *_sorted_arrays(terms, len(center)))

    def _derived(self, arithmetic: Callable[[], tuple]) -> "SparsePolynomial":
        """The polynomial at this center of the exponent rows, in canonical
        order, and coefficients `arithmetic` makes of valid terms, zeros
        dropped. It runs with overflow raised, the one way finite operands
        give a non-finite value; on one, or on more than MAX_TERMS terms, the
        validating constructor raises its error on the same terms."""
        try:
            with np.errstate(over="raise"):
                exponents, coefficients = arithmetic()
            overflowed = False
        except FloatingPointError:
            with np.errstate(over="ignore"):
                exponents, coefficients = arithmetic()
            overflowed = True
        keep = coefficients != 0.0
        exponents, coefficients = exponents.compress(keep, axis=0), coefficients[keep]
        if overflowed or len(coefficients) > MAX_TERMS:
            return SparsePolynomial(self.center, _term_dict(exponents, coefficients))
        return SparsePolynomial._from_arrays(self.center, exponents, coefficients)

    def _take(self, index) -> "SparsePolynomial":
        """The polynomial of the terms at `index`, in term order."""
        return self._from_arrays(self.center, self.exponent_array[index], self.coefficients[index])

    @cached_property
    def terms(self) -> Mapping[MultiIndex, float]:
        """The terms as a read-only map from exponent vector to coefficient,
        in canonical order."""
        return MappingProxyType(_term_dict(self.exponent_array, self.coefficients))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return (
            self.center == other.center
            and np.array_equal(self.exponent_array, other.exponent_array)
            and np.array_equal(self.coefficients, other.coefficients)
        )

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def term_count(self) -> int:
        return len(self.coefficients)

    def degree(self) -> int:
        return int(self.exponent_array.sum(axis=1).max(initial=0))

    def constant_term(self) -> float:
        rows = self.exponent_array  # the zero vector sorts first
        return float(self.coefficients[0]) if len(rows) and not rows[0].any() else 0.0

    def evaluate(self, y: Sequence[float]) -> float:
        if len(y) != self.n:
            raise DimensionMismatchError(
                f"point has {len(y)} components, polynomial has {self.n}"
            )
        shifted = [y[i] - self.center[i] for i in range(self.n)]
        # out-of-place products and sums: on broadcast column arrays (see
        # set_methods.build_table) the result's shape grows term by term
        total = 0.0
        for m, value in zip(self.exponent_array.tolist(), self.coefficients.tolist()):
            for i, e in enumerate(m):
                if e:
                    value = value * scalar_power(shifted[i], e)
            total = total + value
        return total

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        """The sorted merge of both term arrays: a vector of both gets
        (its coefficient here) + (its coefficient in `other`), as term_sum
        adds them from 0.0, and zeros are dropped after the sum."""
        if self.center != other.center:
            raise ValueError("cannot add polynomials with different centers")

        def merged() -> tuple[np.ndarray, np.ndarray]:
            rows = np.concatenate([self.exponent_array, other.exponent_array])
            values = np.concatenate([self.coefficients, other.coefficients])
            order = canonical_order(rows)  # this term first where both hold a vector
            rows, values = rows.take(order, axis=0), values.take(order)
            shared = (rows[1:] == rows[:-1]).all(axis=1).nonzero()[0]
            values[shared] += values[shared + 1]
            values[shared + 1] = 0.0  # the second row of a vector goes with the zeros
            return rows, values

        return self._derived(merged)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "SparsePolynomial":
        factor = float(factor)
        if not math.isfinite(factor):  # the validating constructor's error on the products
            products = _term_dict(self.exponent_array, self.coefficients * factor)
            return SparsePolynomial(self.center, products)
        return self._derived(lambda: (self.exponent_array, self.coefficients * factor))

    def truncate(self, max_degree: int) -> "SparsePolynomial":
        """Drop every term of total degree above max_degree."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        return self._take(self.exponent_array.sum(axis=1) <= max_degree)

    def synergy_split(self) -> dict[Coalition, "SparsePolynomial"]:
        """Group terms by support: each piece is a pure interaction of its coalition."""
        pieces: dict[Coalition, list[int]] = {}
        for t, m in enumerate(self.exponent_array.tolist()):
            pieces.setdefault(support(m), []).append(t)
        return {coalition: self._take(terms) for coalition, terms in pieces.items()}

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "center": list(self.center),
            "terms": [
                {"m": m, "c": c}
                for m, c in zip(self.exponent_array.tolist(), self.coefficients.tolist())
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SparsePolynomial":
        n = json_field(payload, "n", "polynomial", as_int)
        if not 0 <= n <= MAX_FEATURES:
            raise CapExceededError(f"polynomial field 'n': {n} is outside 0..{MAX_FEATURES}")
        center = json_field(
            payload, "center", "polynomial", lambda v: tuple(map(as_real, v)), (0.0,) * n
        )
        if len(center) != n:
            raise DimensionMismatchError("center length does not match n")
        items = json_field(payload, "terms", "polynomial", list)
        try:
            valid = _valid_terms([item["m"] for item in items], [item["c"] for item in items], n)
        except (KeyError, TypeError):  # an item without "m" or "c", or not an object
            valid = None
        if valid is not None:
            return cls._from_arrays(center, *valid)
        # a term the one pass does not take: read term by term, which names
        # the first offending field or repeated vector
        terms = {}
        for item in items:
            m = json_field(item, "m", "polynomial term", lambda m: tuple(map(_exponent, m)))
            c = json_field(item, "c", "polynomial term", as_real)
            if m in terms:
                raise SynergyError(f"polynomial repeats the exponent vector {m}")
            terms[m] = c
        return cls(center, terms)
