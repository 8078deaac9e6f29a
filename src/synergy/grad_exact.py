"""Closed-form gradient-based methods on sparse polynomials.

Monomials centered at the baseline are pure interactions of their support, so
each method is a termwise rule sending a monomial's value at x to coalitions
of its support. Reduction order is fixed (sorted exponent vectors) so output
is bit-reproducible.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress
from typing import Sequence

from .combinatorics import binomial, coalition_count, require_order
from .core import (
    Coalition,
    Instance,
    InteractionReport,
    coalition_layout,
    coalition_slot,
)
from .exceptions import CapExceededError, DimensionMismatchError
from .polynomials import MultiIndex, SparsePolynomial, support
from .set_methods import (
    ORACLE_MAX_FEATURES,
    build_table,
    shapley_taylor_frozen,
)

SOP_ORACLE_MAX_ORDER = 3


# A share row depends on the rule, k and the monomial's positive exponents,
# never on where its support sits, so the report slots a row runs over and
# its shares are cached apart.

@lru_cache(maxsize=4096)
def _slots(n: int, k: int, members: Coalition) -> tuple[int, ...]:
    """Layout slots in P_k over 1..n of the subsets of `members` of size
    min(k, |members|) down to 1, each size in lexicographic order: the
    coalitions an unpinned share row runs over."""
    return tuple(
        coalition_slot(n, k, subset)
        for size in range(min(k, len(members)), 0, -1)
        for subset in combinations(members, size)
    )


@lru_cache(maxsize=4096)
def _shares(rule: str, k: int, exponents: tuple[int, ...]) -> tuple[float, ...]:
    """Fraction of an unpinned monomial's value per coalition of `_slots`.

    `ih` (and `ih-aug` above size k) gives S mass(S) / |m|^k, where mass is
    the Möbius transform of U -> m(U)^k on the support lattice and m(U) the
    exponent sum on U; `sop`'s row is the size-k block only, m(S) / |m| over
    the C(s-1, k-1) size-k subsets through each feature. Weights stay exact
    integers until the one division.
    """
    size, degree = len(exponents), sum(exponents)
    if rule == "sop":
        scale = binomial(size - 1, k - 1) * degree
        return tuple(sum(parts) / scale for parts in combinations(exponents, k))
    # subsets of size <= k as bit masks over support positions: the family is
    # closed under removing an element, so the per-bit Möbius sweep stays in it
    masks = [
        sum(1 << i for i in subset)
        for width in range(min(k, size), -1, -1)
        for subset in combinations(range(size), width)
    ]
    mass = {mask: sum(e for i, e in enumerate(exponents) if mask >> i & 1) ** k for mask in masks}
    for bit in (1 << i for i in range(size)):
        for mask in masks:
            if mask & bit:
                mass[mask] -= mass[mask ^ bit]
    return tuple(mass[mask] / degree**k for mask in masks[:-1])


def _termwise(p: SparsePolynomial, x: Sequence[float], k: int, rule: str) -> InteractionReport:
    """Scatter each monomial's value c * (x - center)^m over its share row, in
    sorted term order, into the report's values in layout order. A term adds
    to each coalition at most once, so the order of coalitions within a row
    does not change the result."""
    n = p.n
    require_order(n, k)
    if len(x) != n:
        raise DimensionMismatchError(f"point has {len(x)} components, expected {n}")
    shifted = [x[i] - p.center[i] for i in range(n)]
    features = range(1, n + 1)
    values = [0.0] * coalition_count(n, k)
    for m, value in sorted(p.terms.items()):
        # the support and its positive exponents, in feature order
        coalition = tuple(compress(features, m))
        exponents = tuple(filter(None, m))
        for i, e in zip(coalition, exponents):
            value *= shifted[i - 1] ** e
        # constants, and supports of size <= k under ih-aug and sop, are pinned
        if not coalition or (rule != "ih" and len(coalition) <= k):
            values[coalition_slot(n, k, coalition)] += value
            continue
        shares = _shares(rule, k, exponents)
        # zip stops where the row does: sop's row is the leading size-k block
        for slot, share in zip(_slots(n, k, coalition), shares):
            values[slot] += value * share
    return InteractionReport(n, k, values)


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
    terms = {}
    for m, c in p.terms.items():
        if m[i - 1] > 0:
            terms[m] = c * m[i - 1] / sum(m)
    return SparsePolynomial(p.center, terms)


def sum_of_powers_nested(
    p: SparsePolynomial, x: Sequence[float], k: int
) -> InteractionReport:
    """Construction oracle: apply integrated gradients per feature symbolically,
    tabulate the result, and run the frozen-feature Shapley-Taylor on it.

    Oracle scale only (n <= 6, k <= 3)."""
    require_order(p.n, k)
    if p.n > ORACLE_MAX_FEATURES or k > SOP_ORACLE_MAX_ORDER:
        raise CapExceededError(
            f"nested oracle capped at n <= {ORACLE_MAX_FEATURES}, k <= {SOP_ORACLE_MAX_ORDER}"
        )
    if k == 1:
        return integrated_gradients(p, x)
    inst = Instance(x=tuple(float(v) for v in x), baseline=p.center)
    pieces = p.synergy_split()
    entries = {(): p.constant_term()}
    for members in coalition_layout(p.n, k)[0][1:]:
        if len(members) < k:
            piece = pieces.get(members)
            entries[members] = piece.evaluate(x) if piece is not None else 0.0
            continue
        total = 0.0
        for i in members:
            attribution = ig_polynomial(p, i)
            table = build_table(inst, attribution.evaluate)
            total += shapley_taylor_frozen(table, members, i)
        entries[members] = total
    return InteractionReport.from_entries(p.n, k, entries)


def integrated_hessian_pairwise(p: SparsePolynomial, x: Sequence[float]) -> InteractionReport:
    """Order-2 interactions by direct termwise reduction of the s,t double
    integrals (the pairwise form and the two-part main-effect form)."""
    entries = dict.fromkeys(coalition_layout(p.n, 2)[0], 0.0)
    shifted = [x[i] - p.center[i] for i in range(p.n)]

    def reduced_monomial(m: MultiIndex, drop: dict[int, int]) -> float:
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
        inv_square = 1.0 / total_degree**2  # each s,t integral gives 1/|m| per axis
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
                    e
                    * (e - 1)
                    * inv_square
                    * reduced_monomial(m, {i: 2})
                    * shifted[i - 1] ** 2
                )
            entries[(i,)] += c * (first + second)
    return InteractionReport.from_entries(p.n, 2, entries)
