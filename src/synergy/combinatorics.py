"""Exact integer combinatorics behind the distribution rules.

Everything here is computed in arbitrary-precision integer arithmetic;
callers convert to float only when forming the final distribution weight.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .exceptions import CapExceededError

MAX_FEATURES = 63
MAX_TABLE_FEATURES = 20
# The 20-feature table scale: every coalition of a full-size table.
MAX_COALITIONS = 1 << MAX_TABLE_FEATURES
# The oracles' scale: the nesting constructions and their sequences.
ORACLE_MAX_FEATURES = 6


def binomial(n: int, r: int) -> int:
    """C(n, r) as an exact integer; raises if r is outside 0..n."""
    if r < 0 or r > n:
        raise ValueError(f"binomial({n}, {r}): r must be in 0..n")
    return math.comb(n, r)


def multinomial(k: int, parts: Sequence[int]) -> int:
    """k! / prod(parts_i!) for parts summing to k."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be non-negative")
    if sum(parts) != k:
        raise ValueError(f"multinomial parts must sum to k={k}, got {sum(parts)}")
    out = math.factorial(k)
    for p in parts:
        out //= math.factorial(p)
    return out


def surjective_sequence_count(k: int, t: int) -> int:
    """Number of length-k sequences over a t-element set using every element.

    Inclusion-exclusion: sum_j (-1)^j C(t, j) (t-j)^k. Zero whenever t > k.
    """
    if k < 1 or t < 1:
        raise ValueError("surjective_sequence_count requires k >= 1 and t >= 1")
    if t > k:
        return 0
    total = 0
    for j in range(t + 1):
        total += (-1) ** j * math.comb(t, j) * (t - j) ** k
    return total


def _positive_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial_mass(k: int, support: Sequence[int], exponents: Sequence) -> int | float:
    """Mass of the order-k expansion of (sum exponents)^k landing exactly on `support`.

    `support` holds 1-based positions into `exponents`. The result is the sum
    over compositions l of k into positive parts on those positions of
    multinomial(k, l) * prod exponents[i]^l_i. Empty support gives 0 for k >= 1.
    Integer exponents keep the arithmetic exact.
    """
    if k < 1:
        raise ValueError("monomial_mass requires k >= 1")
    members = tuple(support)
    if not members:
        return 0
    if len(members) > k:
        return 0
    total = 0
    for parts in _positive_compositions(k, len(members)):
        weight = multinomial(k, parts)
        for pos, power in zip(members, parts):
            weight = weight * exponents[pos - 1] ** power
        total = total + weight
    return total


def require_order(n: int, k: int) -> None:
    """Reject an interaction order outside 1..n."""
    if not 1 <= k <= n:
        raise ValueError(f"order k must satisfy 1 <= k <= n, got k={k}, n={n}")


@lru_cache(maxsize=1024)
def coalition_count(n: int, k: int) -> int:
    """|P_k| over {1..n}, the subsets of size <= k; raises when k is outside
    0..n, n is above the feature cap or the count above MAX_COALITIONS."""
    if not 0 <= k <= n:
        raise ValueError(f"order k must satisfy 0 <= k <= n, got k={k}, n={n}")
    if n > MAX_FEATURES:
        raise CapExceededError(f"n={n} exceeds the {MAX_FEATURES}-feature cap")
    count = sum(math.comb(n, size) for size in range(k + 1))
    if count > MAX_COALITIONS:
        raise CapExceededError(
            f"P_{k} over n={n} holds {count} coalitions, which exceeds the cap "
            f"{MAX_COALITIONS}"
        )
    return count


def enumerate_coalitions(n: int, k: int) -> list[tuple[int, ...]]:
    """All subsets of {1..n} of size <= k, ordered by size then lexicographically;
    raises before building any when there are more than MAX_COALITIONS."""
    coalition_count(n, k)
    out: list[tuple[int, ...]] = [()]
    for size in range(1, k + 1):
        out.extend(combinations(range(1, n + 1), size))
    return out


def enumerate_sequences(k: int, members: Sequence[int]) -> list[tuple[int, ...]]:
    """Every length-k sequence over `members` hitting each member at least once.

    Oracle-scale only (k <= 6): the result size is surjective_sequence_count(k, |members|).
    """
    if k > ORACLE_MAX_FEATURES:
        raise CapExceededError(
            f"sequence enumeration capped at k <= {ORACLE_MAX_FEATURES}, got {k}"
        )
    pool = tuple(members)
    if not pool or len(pool) > k:
        return []
    need = frozenset(pool)
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]) -> None:
        if len(prefix) == k:
            if need.issubset(prefix):
                out.append(prefix)
            return
        # prune: remaining slots must still be able to cover the unseen members
        missing = len(need.difference(prefix))
        if missing > k - len(prefix):
            return
        for element in pool:
            extend(prefix + (element,))

    extend(())
    return out
