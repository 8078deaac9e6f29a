"""Closed-form gradient-based methods on sparse polynomials.

Monomials centered at the baseline are pure interactions of their support, so
each method is a termwise rule sending a monomial's value at x to coalitions
of its support. Every reduction runs in the polynomial's term order (ascending
exponent vectors, see `SparsePolynomial`), so output is bit-reproducible.
A power beyond the float range is the signed infinity, so such a term makes
the report name a non-finite coalition.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from typing import Iterator, Sequence

import numpy as np

from . import polynomials
from .combinatorics import binomial, coalition_count, require_order
from .core import Instance, InteractionReport, coalition_layout, coalition_slots
from .exceptions import CapExceededError, DimensionMismatchError
from .polynomials import SparsePolynomial, scalar_power
from .set_methods import (
    ORACLE_MAX_FEATURES,
    build_table,
    shapley_taylor_frozen,
)

SOP_ORACLE_MAX_ORDER = 3


@lru_cache(maxsize=256)
def _row_subsets(size: int, k: int, rule: str) -> tuple[np.ndarray, ...]:
    """Positions, within a support of `size` features, of the coalitions an
    unpinned share row runs over, in row order: one (count, width) array per
    width, widths descending, each in lexicographic order. `sop`'s row is
    the size-k block."""
    widths = [k] if rule == "sop" else range(min(k, size), 0, -1)
    return tuple(np.array(list(combinations(range(size), w)), np.intp) for w in widths)


@lru_cache(maxsize=4096)
def _shares(rule: str, k: int, exponents: tuple[int, ...]) -> tuple[float, ...]:
    """Fraction of an unpinned monomial's value per coalition of its row,
    in `_row_subsets` order.

    `ih` (and `ih-aug` above size k) gives S mass(S) / |m|^k, where mass is
    the Möbius transform of U -> m(U)^k on the support lattice and m(U) the
    exponent sum on U; `sop`'s row is the size-k block only, m(S) / |m| over
    the C(s-1, k-1) size-k subsets through each feature. Weights stay exact
    integers until the one division.
    """
    size, degree = len(exponents), sum(exponents)
    row = [subset for block in _row_subsets(size, k, rule) for subset in block.tolist()]
    if rule == "sop":
        scale = binomial(size - 1, k - 1) * degree
        return tuple(sum(exponents[i] for i in subset) / scale for subset in row)
    # the row's subsets and the empty one as bit masks over support
    # positions: the family is closed under removing an element, so the
    # per-bit Möbius sweep stays in it
    masks = [sum(1 << i for i in subset) for subset in row] + [0]
    mass = {mask: sum(e for i, e in enumerate(exponents) if mask >> i & 1) ** k for mask in masks}
    for bit in (1 << i for i in range(size)):
        for mask in masks:
            if mask & bit:
                mass[mask] -= mass[mask ^ bit]
    return tuple(mass[mask] / degree**k for mask in masks[:-1])


def _termwise(p: SparsePolynomial, x: Sequence[float], k: int, rule: str) -> InteractionReport:
    """The report of one polynomial under a termwise rule: `_array_termwise`
    on a batch of one."""
    return InteractionReport(p.n, k, _array_termwise([p], [x], k, rule)[0])


def _stacked(polys: Sequence[SparsePolynomial]) -> tuple[np.ndarray, np.ndarray]:
    """The exponent rows and coefficients of the polynomials' terms, end to
    end in polynomial order. Polynomials that all hold their term dicts are
    read from those in one pass, without building their arrays; otherwise
    each one's arrays are read."""
    stored = [p.stored_terms for p in polys]
    if None in stored:  # a loaded polynomial holds its arrays only
        if len(polys) == 1:
            return polys[0].exponent_array, polys[0].coefficients
        return (
            np.concatenate([p.exponent_array for p in polys]),
            np.concatenate([p.coefficients for p in polys]),
        )
    count = sum(map(len, stored))
    exponents = polynomials.exponent_rows(list(chain.from_iterable(stored)), polys[0].n)
    return exponents, np.fromiter(chain.from_iterable(t.values() for t in stored), float, count)


def _term_values(
    exponents: np.ndarray, coefficients: np.ndarray, owner: np.ndarray, shifted: list
) -> np.ndarray:
    """Each term's c * (x - center)^m, where row `owner[t]` of `shifted`
    holds x - center of term t's polynomial: per feature, one power table
    per polynomial of the exponents its terms take there, multiplied into
    the coefficients feature by feature, an exact 1.0 where a term's
    exponent is 0."""
    values = np.array(coefficients)
    width = int(exponents.max(initial=0)) + 1
    rows = owner * width  # where each term's polynomial starts in a table
    for f in np.flatnonzero(exponents.any(axis=0)).tolist():
        at = rows + exponents[:, f]
        taken = np.zeros(len(shifted) * width, dtype=bool)
        taken[at] = True
        taken[::width] = False  # exponent 0
        table = np.ones(len(taken))
        for position in np.flatnonzero(taken).tolist():
            j, e = divmod(position, width)
            table[position] = scalar_power(shifted[j][f], e)
        values *= table[at]
    return values


def _support_groups(exponents: np.ndarray, k: int, rule: str) -> list[tuple]:
    """The terms grouped by support size s, each group as (its term indices
    ascending, its supports as a (terms, s) array of 1-based features, the
    support positions of its row's coalitions as `_row_subsets` gives them,
    its distinct share rows, the share row of each term). A pinned group's
    row is the support itself, its one share an exact 1.0. An unpinned
    group's rows are fetched once per distinct positive-exponent pattern,
    found by mixed-radix int64 codes, or by the rows themselves where those
    codes would not fit."""
    n = exponents.shape[1]
    # the positive exponents and their features, term-major, features ascending
    flat = np.flatnonzero(exponents > 0)
    term = flat // n
    feature = flat - term * n
    positive = exponents.ravel().take(flat)
    sizes = np.bincount(term, minlength=len(exponents))
    starts = np.cumsum(sizes) - sizes
    groups = []
    for s in np.flatnonzero(np.bincount(sizes)).tolist():
        terms = np.flatnonzero(sizes == s)
        at = starts[terms, None] + np.arange(s)
        members = feature[at] + 1
        if s == 0 or (rule != "ih" and s <= k):
            pinned = (np.arange(s)[None],), np.ones((1, 1)), np.zeros(len(terms), np.intp)
            groups.append((terms, members, *pinned))
            continue
        patterns = positive[at]
        # one digit per support position, the last one least significant
        weights = polynomials.code_weights(tuple((patterns.max(axis=0) + 1).tolist()))
        keys = patterns if weights is None else patterns @ weights
        _, first, inverse = np.unique(
            keys, axis=0 if weights is None else None, return_index=True, return_inverse=True
        )
        shares = np.array(
            [_shares(rule, k, tuple(pattern)) for pattern in patterns[first].tolist()]
        )
        groups.append((terms, members, _row_subsets(s, k, rule), shares, inverse))
    return groups


def _array_termwise(
    polys: Sequence[SparsePolynomial], points: Sequence[Sequence[float]], k: int, rule: str
) -> np.ndarray:
    """Report values of a termwise rule on same-n polynomials, each at its
    point: one row per polynomial, in layout order. Each monomial's value
    c * (x - center)^m is scattered over its share row; constants, and
    supports of size <= k under `ih-aug` and `sop`, are pinned to their
    support.

    The terms of all the polynomials are laid end to end, and each term's
    parts (its value times each share of its row) term-major, each
    polynomial's slots offset by its index times the layout size. They are
    added by an unbuffered `np.add.at`, polynomials.ARRAY_BLOCK parts at a
    time, so every slot sums its own polynomial's parts from 0.0 in term
    order. A term adds to each coalition at most once, so the order of
    coalitions within a row does not change the result."""
    n = polys[0].n
    require_order(n, k)
    for x in points:
        if len(x) != n:
            raise DimensionMismatchError(f"point has {len(x)} components, expected {n}")
    shifted = [[x[i] - p.center[i] for i in range(n)] for p, x in zip(polys, points)]
    exponents, coefficients = _stacked(polys)
    owner = np.repeat(np.arange(len(polys)), [p.term_count for p in polys])
    groups = _support_groups(exponents, k, rule)
    count = coalition_count(n, k)
    offsets = owner * count
    lengths = np.empty(len(exponents), np.int64)
    for terms, _, _, shares, _ in groups:
        lengths[terms] = shares.shape[1]
    ends = np.cumsum(lengths)  # parts up to each term
    values = np.zeros(len(polys) * count)
    # Python float arithmetic overflows to inf and nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        term_values = _term_values(exponents, coefficients, owner, shifted)
        for start, stop in _blocks(ends, polynomials.ARRAY_BLOCK):
            done = ends[start - 1] if start else 0
            slots = np.empty(ends[stop - 1] - done, np.int64)
            parts = np.empty(len(slots))
            for terms, members, subsets, shares, inverse in groups:
                a, b = np.searchsorted(terms, (start, stop)).tolist()
                if a == b:
                    continue
                width = shares.shape[1]
                at = (ends[terms[a:b]] - width - done)[:, None] + np.arange(width)
                supports, offset = members[a:b], offsets[terms[a:b], None]
                slots[at] = np.concatenate(
                    [coalition_slots(n, supports[:, positions], offset) for positions in subsets],
                    axis=1,
                )
                parts[at] = term_values[terms[a:b], None] * shares[inverse[a:b]]
            # unbuffered: each slot adds its parts one at a time, in order
            np.add.at(values, slots, parts)
    return values.reshape(len(polys), count)


def _blocks(ends: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """Consecutive term ranges [start, stop) of at most `limit` parts each,
    or of one term, where ends[t] counts the parts of terms 0..t."""
    start = 0
    while start < len(ends):
        done = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, done + limit, side="right")), start + 1)
        yield start, stop
        start = stop


def integrated_gradients(p: SparsePolynomial, x: Sequence[float]) -> InteractionReport:
    """Path-integral attribution: a monomial sends the share m_i / |m| to feature i."""
    return _termwise(p, x, 1, "ih")


def integrated_hessian(p: SparsePolynomial, x: Sequence[float], k: int) -> InteractionReport:
    """Order-k nested path-integral interaction: monomial mass spread over all
    nonempty subsets of the support in proportion to expansion coefficients."""
    return _termwise(p, x, k, "ih")


def augmented_integrated_hessian(
    p: SparsePolynomial, x: Sequence[float], k: int
) -> InteractionReport:
    """Order-k variant pinning monomials with support size <= k to their support.

    At k = n it pins every monomial, so each coalition gets the value at x of
    its synergy: the sum of the monomials with that support."""
    return _termwise(p, x, k, "ih-aug")


def sum_of_powers(p: SparsePolynomial, x: Sequence[float], k: int) -> InteractionReport:
    """Top-distributing gradient method: oversized monomial supports land only
    on their size-k subsets, weighted by the subset's share of the exponents.

    Order 1 is integrated gradients."""
    return _termwise(p, x, k, "sop")


def ig_polynomial(p: SparsePolynomial, i: int) -> SparsePolynomial:
    """Integrated-gradients attribution to feature i as a polynomial in y."""
    if not 1 <= i <= p.n:
        raise ValueError(f"feature index {i} outside 1..{p.n}")
    terms = ((m, c * m[i - 1] / sum(m)) for m, c in p.terms.items() if m[i - 1] > 0)
    # a share can underflow to zero
    return SparsePolynomial._exact(p.center, {m: c for m, c in terms if c != 0.0})


def sum_of_powers_nested(
    p: SparsePolynomial, x: Sequence[float], k: int
) -> InteractionReport:
    """Construction oracle: apply integrated gradients per feature symbolically,
    tabulate the result, and run the frozen-feature Shapley-Taylor on it.

    At order 1 the construction stops at the first step: feature i gets its
    integrated-gradients polynomial evaluated at x. Each feature's table is
    built once per call, on first use. Oracle scale only (n <= 6, k <= 3)."""
    require_order(p.n, k)
    if p.n > ORACLE_MAX_FEATURES or k > SOP_ORACLE_MAX_ORDER:
        raise CapExceededError(
            f"nested oracle capped at n <= {ORACLE_MAX_FEATURES}, k <= {SOP_ORACLE_MAX_ORDER}"
        )
    entries = {(): p.constant_term()}
    if k == 1:
        for i in range(1, p.n + 1):
            entries[(i,)] = ig_polynomial(p, i).evaluate(x)
        return InteractionReport.from_entries(p.n, k, entries)
    inst = Instance(x=tuple(float(v) for v in x), baseline=p.center)
    pieces = p.synergy_split()
    tables = {}
    for members in coalition_layout(p.n, k)[0][1:]:
        if len(members) < k:
            piece = pieces.get(members)
            entries[members] = piece.evaluate(x) if piece is not None else 0.0
            continue
        total = 0.0
        for i in members:
            if i not in tables:
                tables[i] = build_table(inst, ig_polynomial(p, i).evaluate)
            total += shapley_taylor_frozen(tables[i], members, i)
        entries[members] = total
    return InteractionReport.from_entries(p.n, k, entries)


# Blocks of the pairwise oracle hold at most this many (term, coalition)
# parts, or one term, which bounds its memory on any polynomial.
_PAIRWISE_BLOCK_PARTS = 1 << 12


def integrated_hessian_pairwise(p: SparsePolynomial, x: Sequence[float]) -> InteractionReport:
    """Order-2 interactions by direct termwise reduction of the s,t double
    integrals (the pairwise form and the two-part main-effect form).

    Per term m (constant aside), with u_i = x_i - center_i, w = 1 / |m|^2
    and r(m') the product of u_f^m'_f over features f in order:
    pair (i, j) of its support gets c (2 m_i m_j w) u_i u_j r(m - e_i - e_j),
    feature i gets c ((m_i w) r(m - e_i) u_i + (m_i (m_i - 1) w) r(m - 2 e_i) u_i^2)
    (the second part 0.0 when m_i < 2), each product left to right. Each
    coalition sums its parts from 0.0 in term order."""
    n = p.n
    values = np.zeros(coalition_count(n, 2))
    shifted = [x[i] - p.center[i] for i in range(n)]
    exponents = p.exponent_array
    coefficients = p.coefficients
    # the zero exponent vector sorts first and is the only term sent to ()
    if len(exponents) and not exponents[0].any():
        values[0] = 0.0 + coefficients[0]
        exponents, coefficients = exponents[1:], coefficients[1:]
    sizes = np.count_nonzero(exponents, axis=1)
    ends = np.cumsum(sizes * (sizes + 1) // 2)  # parts up to each term
    # Python float arithmetic overflows to inf and nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in _blocks(ends, _PAIRWISE_BLOCK_PARTS):
            slots, parts = _pairwise_parts(
                exponents[start:stop], coefficients[start:stop], shifted
            )
            # unbuffered: each slot adds its parts one at a time, in order
            np.add.at(values, slots, parts)
    return InteractionReport(n, 2, values)


def _powers(u: float, columns: Sequence[np.ndarray], top: int, square: bool) -> np.ndarray:
    """u ** e by Python's power, as the scalar reduction takes it (the
    signed infinity beyond the float range), at each e > 0 in `columns` (and
    at 2 if `square`), in an array indexed by exponent 0..top; 1.0 at every
    exponent not taken, which is never read but as the exact factor of
    exponent 0."""
    taken = np.zeros(top + 1, dtype=bool)
    for column in columns:
        taken[column] = True
    if square:
        taken[2] = True
    table = np.ones(top + 1)
    for e in np.flatnonzero(taken[1:]).tolist():
        table[e + 1] = scalar_power(u, e + 1)
    return table


def _pairwise_parts(
    exponents: np.ndarray, coefficients: np.ndarray, shifted: list
) -> tuple[np.ndarray, np.ndarray]:
    """Layout slots and values of the parts a block of terms sends in
    `integrated_hessian_pairwise`: the pairs, then the features, each
    term-major."""
    n = exponents.shape[1]
    inv_square = 1.0 / exponents.sum(axis=1) ** 2
    # (term, feature) parts, term-major with features ascending, and the
    # (term, pair) parts: each feature part with every later one of its term
    row, i = np.nonzero(exponents)
    e = exponents[row, i]
    later = np.searchsorted(row, row, side="right") - np.arange(len(row)) - 1
    first = np.repeat(np.arange(len(row)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    pair_row, a, b = row[first], i[first], i[second]
    twice = e >= 2
    twice_row, i2, e2 = row[twice], i[twice], e[twice]
    # reduced monomials r(m - e_a - e_b), r(m - e_i) and r(m - 2 e_i),
    # multiplied feature by feature in order; the factor at exponent 0 is
    # an exact 1.0
    pair_r, single_r, twice_r = np.ones(len(a)), np.ones(len(i)), np.ones(len(i2))
    square = np.ones(n)
    for f in np.flatnonzero(exponents.any(axis=0)).tolist():
        column = exponents[:, f]
        reduced = (
            column[pair_row] - (a == f) - (b == f),
            column[row] - (i == f),
            column[twice_row] - 2 * (i2 == f),
        )
        has_square = bool((i2 == f).any())
        powers = _powers(shifted[f], reduced, max(int(column.max()), 2), has_square)
        pair_r *= powers[reduced[0]]
        single_r *= powers[reduced[1]]
        twice_r *= powers[reduced[2]]
        square[f] = powers[2]
    u = np.array(shifted, dtype=float)
    weight = 2.0 * exponents[pair_row, a] * exponents[pair_row, b] * inv_square[pair_row]
    pair_parts = coefficients[pair_row] * weight * u[a] * u[b] * pair_r
    main = e * inv_square[row] * single_r * u[i]
    curvature = np.zeros(len(i))
    curvature[twice] = e2 * (e2 - 1) * inv_square[twice_row] * twice_r * square[i2]
    single_parts = coefficients[row] * (main + curvature)
    slots = np.concatenate(
        [coalition_slots(n, np.stack([a, b], axis=1) + 1), coalition_slots(n, i[:, None] + 1)]
    )
    return slots, np.concatenate([pair_parts, single_parts])
