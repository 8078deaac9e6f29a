"""Binary-feature engine: set-function tables over the masked-point lattice,
the Möbius/synergy decomposition, and the methods built on it.

Every method here routes through the synergy table and a closed-form
distribution rule. The independent oracles state each original sum once:
Shapley's marginal sum (`shapley-marginal`, each `rs-nested` step) and the
Shapley-Taylor averaging sum (`st-marginal`, the frozen `sop-nested` step).

Tables hold the 2^n values F(x_S) indexed by the subset encoding
sum_{i in S} 2^(i-1); index 0 is the baseline, index 2^n - 1 the input.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .combinatorics import (
    MAX_TABLE_FEATURES,
    ORACLE_MAX_FEATURES,
    binomial,
    enumerate_sequences,
    require_order,
    surjective_sequence_count,
)
from .core import (
    Coalition,
    Instance,
    InteractionReport,
    as_int,
    as_reals,
    coalition_layout,
    coalition_mask,
    json_field,
    sequential_sum,
)
from .exceptions import CapExceededError, DimensionMismatchError, NonFiniteError


@dataclass(frozen=True, eq=False)
class _LatticeTable:
    """2^n values in the subset encoding, held as a read-only float64 copy."""

    n: int
    values: np.ndarray

    _label = "table"  # names the table in the length error

    def __post_init__(self) -> None:
        array = np.array(self.values, dtype=float)
        array.setflags(write=False)
        if array.shape != (1 << self.n,):
            raise DimensionMismatchError(
                f"{self._label} for n={self.n} needs {1 << self.n} values, got {array.shape}"
            )
        object.__setattr__(self, "values", array)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.n == other.n
            and np.array_equal(self.values, other.values)
        )

    def at(self, members: Iterable[int]) -> float:
        return float(self.values[coalition_mask(members, self.n)])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "values": self.values.tolist()}


class SetFunctionTable(_LatticeTable):
    """All 2^n evaluations of a function at the masked points of one instance."""

    def __post_init__(self) -> None:
        if self.n > MAX_TABLE_FEATURES:
            raise CapExceededError(
                f"tables are capped at n <= {MAX_TABLE_FEATURES}, got {self.n}"
            )
        super().__post_init__()
        if not np.isfinite(self.values).all():
            raise NonFiniteError("table contains a non-finite value")

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SetFunctionTable":
        n = json_field(payload, "n", "table", as_int)
        return cls(n, json_field(payload, "values", "table", as_reals))


class SynergyTable(_LatticeTable):
    """Möbius transform of a set-function table: values[S] = synergy of S at x."""

    _label = "synergy table"

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2); a value
        that is not finite raises NonFiniteError."""
        if not np.isfinite(self.values).all():
            raise NonFiniteError("synergy table contains a non-finite value")
        values = ",\n    ".join(map(float.__repr__, self.values.tolist()))
        return f'{{\n  "n": {self.n},\n  "values": [\n    {values}\n  ]\n}}'


def build_table(
    inst: Instance, f: Callable[[tuple[np.ndarray, ...]], object]
) -> SetFunctionTable:
    """Evaluate f at every masked point, ascending subset encoding, in one call.

    f receives a tuple of n arrays, one per feature, broadcastable to the
    grid (2,)*n: component i is [baseline[i], x[i]] laid along axis n-1-i,
    so the C-order ravel of the grid is the subset encoding. f must return
    an array or scalar broadcastable to that grid; elementwise numpy
    arithmetic (as `expressions.evaluate` and `SparsePolynomial.evaluate`
    do) qualifies, and a subexpression over features S then costs 2^|S|
    elements, not 2^n.
    """
    n = inst.n
    if n > MAX_TABLE_FEATURES:
        raise CapExceededError(f"build_table capped at n <= {MAX_TABLE_FEATURES}")
    columns = tuple(
        np.array([inst.baseline[i], inst.x[i]], dtype=float).reshape(
            (1,) * (n - 1 - i) + (2,) + (1,) * i
        )
        for i in range(n)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.asarray(f(columns), dtype=float)
    values = np.broadcast_to(grid, (2,) * n).reshape(-1)
    if not np.isfinite(values).all():
        raise NonFiniteError("function produced a non-finite value on the lattice")
    return SetFunctionTable(n, values)


def _sweep(values: np.ndarray, n: int, combine, supersets: bool = False) -> np.ndarray:
    """One pass per bit 0..n-1 over a copy of `values`, 2^n values or several
    2^n blocks end to end: every coalition without the bit is paired with
    the coalition that adds it, in the same block, and `combine` updates the
    larger one from the smaller (subset direction) or the smaller from the
    larger (superset direction)."""
    a = np.array(values, dtype=float)
    for bit_index in range(n):
        pairs = a.reshape(-1, 2, 1 << bit_index)
        without, with_ = pairs[:, 0], pairs[:, 1]
        if supersets:
            combine(without, with_, out=without)
        else:
            combine(with_, without, out=with_)
    return a


def mobius(table: SetFunctionTable) -> SynergyTable:
    """Alternating-sum transform via the O(n 2^n) in-place subset recursion."""
    return SynergyTable(table.n, _sweep(table.values, table.n, np.subtract))


def mobius_inverse(synergies: SynergyTable) -> SetFunctionTable:
    """Zeta transform: values[S] = sum of synergies over subsets of S."""
    return SetFunctionTable(synergies.n, _sweep(synergies.values, synergies.n, np.add))


def _report(table: SetFunctionTable, k: int, fill) -> InteractionReport:
    coalitions, masks = coalition_layout(table.n, k)
    return InteractionReport(table.n, k, list(map(fill, coalitions, masks.tolist())))


# ---------------------------------------------------------------------------
# Distribution-rule implementations (production path)
#
# Every rule is one row of per-size weights on the same superset sum of the
# synergy table:
#     entry[S] = own(|S|) syn[S] + spread(|S|) sum_{T ⊇ S} w(|T|) syn[T],
# with entry[∅] = F(baseline).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _sizes(n: int) -> np.ndarray:
    """|S| for every subset encoding S in 0..2^n - 1."""
    sizes = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])
    sizes.setflags(write=False)
    return sizes


@lru_cache(maxsize=256)
def _weight_rows(rule: str, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, own, spread) of one rule, each indexed by coalition size 0..n."""
    w, own, spread = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)
    for size in range(1, n + 1):
        if rule == "shapley-taylor":
            w[size] = 1 / binomial(size, k) if size >= k else 0.0
            own[size] = size < k
            spread[size] = size == k
        else:
            w[size] = 1 / size**k if rule == "rs" or size > k else 0.0
            own[size] = rule == "rs-aug"
            spread[size] = surjective_sequence_count(k, size)
    for row in (w, own, spread):
        row.setflags(write=False)
    return w, own, spread


def _superset_rule(values: np.ndarray, n: int, k: int, rule: str) -> np.ndarray:
    """One rule's report values, in layout order, on same-n tables: `values`
    is one table's 2^n array, or the rows of a (tables, 2^n) array laid end
    to end, and the result has one row per table. A sweep pairs coalitions
    within one 2^n block only, so each row has the bits of its table alone,
    and one table is used as given, with no copy of its own."""
    require_order(n, k)
    w, own, spread = _weight_rows(rule, n, k)
    syn = _sweep(values, n, np.subtract)
    sizes = _sizes(n)
    sums = _sweep(w[sizes] * syn, n, np.add, supersets=True)
    entry = own[sizes] * syn + spread[sizes] * sums
    entry[..., 0] = values[..., 0]
    return entry[..., coalition_layout(n, k)[1]]


def _rule_report(table: SetFunctionTable, k: int, rule: str) -> InteractionReport:
    return InteractionReport(table.n, k, _superset_rule(table.values, table.n, k, rule))


def shapley(table: SetFunctionTable) -> InteractionReport:
    """Shapley attribution: each synergy split equally among its members."""
    return _rule_report(table, 1, "rs")


def shapley_taylor(table: SetFunctionTable, k: int) -> InteractionReport:
    """Shapley-Taylor index: top-distributing synergy rule."""
    return _rule_report(table, k, "shapley-taylor")


def recursive_shapley(table: SetFunctionTable, k: int) -> InteractionReport:
    """Recursive Shapley: synergy of S sends weight N^k_|T| / |S|^k to each T within S."""
    return _rule_report(table, k, "rs")


def augmented_recursive_shapley(table: SetFunctionTable, k: int) -> InteractionReport:
    """Recursive Shapley with synergies of size <= k pinned to their own group."""
    return _rule_report(table, k, "rs-aug")


# ---------------------------------------------------------------------------
# Averaging-formula oracles (independent of the Möbius route)
# ---------------------------------------------------------------------------

def discrete_derivative(table: SetFunctionTable, s_mask: int, t_mask: int) -> float:
    """Inclusion-exclusion contrast of adding S on top of T:
    sum_{W subseteq S} (-1)^(|S|-|W|) F(x_{W union T})."""
    values = table.values
    size = s_mask.bit_count()
    total = 0.0
    w = s_mask
    while True:
        total += (-1) ** (size - w.bit_count()) * values[w | t_mask]
        if w == 0:
            break
        w = (w - 1) & s_mask
    return total


def _marginal_terms(n: int, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature i's Shapley marginal sum at the input point, as columns with
    one row per coalition w without feature i, w ascending: the table
    positions w | bit and w, and the weight 1/(n C(n-1, |w|))."""
    bit = 1 << (i - 1)
    low = np.arange(1 << (n - 1))[:, None]
    w = low + (low & -bit)  # low with a 0 put in at the bit
    weights = np.array([1.0 / (n * binomial(n - 1, size)) for size in range(n)])
    return w | bit, w, weights[_sizes(n)[w]]


def shapley_from_marginals(table: SetFunctionTable) -> InteractionReport:
    """Shapley via the classical average-of-marginal-contributions formula:
    the input-point entry of the nested oracle's marginal sum per feature."""
    n, values = table.n, table.values
    shares = [float(values[0])]
    for i in range(1, n + 1):
        hi, lo, weights = _marginal_terms(n, i)
        shares.append(float(sequential_sum(weights * (values[hi] - values[lo]))[0]))
    return InteractionReport(n, 1, shares)


def _shapley_taylor_entry(table: SetFunctionTable, mask: int, k: int, held: int = 0) -> float:
    """Order-k Shapley-Taylor score of the coalition `mask` (|S| <= k) by its
    averaging formula over the n features outside `held`, which stay at
    their input value: the synergy of S below order k; at order k, k/n times
    the derivatives of S on top of each T outside S, T descending, weighted
    1/C(n-1, |T|)."""
    if mask.bit_count() < k:
        return discrete_derivative(table, mask, held)
    n = table.n - held.bit_count()
    complement = (1 << table.n) - 1 ^ mask ^ held
    total = 0.0
    t = complement
    while True:
        weight = 1.0 / binomial(n - 1, t.bit_count())
        total += weight * discrete_derivative(table, mask, t | held)
        if t == 0:
            break
        t = (t - 1) & complement
    return total * k / n


# Terms the Shapley-Taylor averaging sum may add up in one call, each one
# Python step of 300-480 ns on a 2-vCPU Xeon VM: a call at the cap takes
# 0.6-1.0 s. The test suite's largest call (n = 10, k = 3) adds 1.2·10^5.
MAX_AVERAGING_TERMS = 2 * 10**6


def shapley_taylor_from_marginals(table: SetFunctionTable, k: int) -> InteractionReport:
    """Shapley-Taylor via its discrete-derivative averaging formula.

    It adds C(n, k)·2^n terms at order k (2^(n-k) derivatives of 2^k terms
    per coalition) and C(n, j)·2^j below it, at each order j < k; more than
    MAX_AVERAGING_TERMS are refused before the first."""
    n = table.n
    require_order(n, k)
    terms = (binomial(n, k) << n) + sum(binomial(n, j) << j for j in range(k))
    if terms > MAX_AVERAGING_TERMS:
        raise CapExceededError(
            f"Shapley-Taylor averaging sum of {terms} terms (n={n}, k={k}) exceeds the cap "
            f"{MAX_AVERAGING_TERMS}"
        )
    return _report(table, k, lambda members, mask: _shapley_taylor_entry(table, mask, k))


@lru_cache(maxsize=32)
def _retabulation_plan(n: int, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_marginal_terms` at every mask of the lattice, one column per mask:
    (w | bit) & mask and w & mask, and the weights. Only the nested oracle
    builds one, so it is cached at oracle scale."""
    hi, lo, weights = _marginal_terms(n, i)
    masks = np.arange(1 << n)
    plan = (hi & masks, lo & masks, weights)
    for array in plan:
        array.setflags(write=False)
    return plan


def _shapley_retabulated(values: np.ndarray, n: int, i: int) -> np.ndarray:
    """Table of the function y -> Shap_i(y, F) over the same masked lattice.

    Each entry is the sum from 0.0 of the weighted marginal contributions of
    feature i, coalitions w ascending, added one at a time."""
    hi, lo, weights = _retabulation_plan(n, i)
    return sequential_sum(weights * (values[hi] - values[lo]))


def _shapley_retabulated_at_full(values: np.ndarray, n: int, i: int) -> float:
    """The input-point entry of `_shapley_retabulated`, by the same sum."""
    hi, lo, weights = _retabulation_plan(n, i)
    return float(sequential_sum(weights[:, 0] * (values[hi[:, -1]] - values[lo[:, -1]])))


def recursive_shapley_nested(table: SetFunctionTable, k: int) -> InteractionReport:
    """Literal nested-Shapley construction, summed over covering sequences.

    Oracle scale only (n <= 6, any k); shares retabulations across sequences
    through a prefix cache, and takes only the input-point entry of each
    sequence's last one."""
    require_order(table.n, k)
    if table.n > ORACLE_MAX_FEATURES:
        raise CapExceededError(f"nested oracle capped at n <= {ORACLE_MAX_FEATURES}")
    n = table.n
    cache: dict[tuple[int, ...], np.ndarray] = {(): table.values}

    def retabulate(prefix: tuple[int, ...]) -> np.ndarray:
        if prefix not in cache:
            cache[prefix] = _shapley_retabulated(retabulate(prefix[:-1]), n, prefix[-1])
        return cache[prefix]

    def fill(members: Coalition, mask: int) -> float:
        if not members:
            return float(table.values[0])
        total = 0.0
        # every covering sequence has length k, so none is a prefix of another
        for sequence in enumerate_sequences(k, members):
            total += _shapley_retabulated_at_full(retabulate(sequence[:-1]), n, sequence[-1])
        return total

    return _report(table, k, fill)


def shapley_taylor_frozen(
    table: SetFunctionTable, members: Sequence[int], frozen: int
) -> float:
    """Order-(|S|-1) Shapley-Taylor score of S minus `frozen`, with `frozen`
    held at its input value throughout: `st-marginal`'s sum on the table
    held there."""
    n = table.n
    if n < 2:
        raise ValueError("needs at least two features")
    s_mask = coalition_mask(members, n)
    bit_i = 1 << (frozen - 1)
    if not s_mask & bit_i:
        raise ValueError("frozen feature must belong to the coalition")
    return _shapley_taylor_entry(table, s_mask ^ bit_i, len(tuple(members)) - 1, bit_i)


def permute_table(table: SetFunctionTable, permutation: Sequence[int]) -> SetFunctionTable:
    """Relabel features: new[pi(S)] = old[S], with permutation[i-1] = pi(i)."""
    n = table.n
    if sorted(permutation) != list(range(1, n + 1)):
        raise ValueError("permutation must rearrange 1..n")
    # on the (2,)*n grid view feature i lives on axis n - i, so new axis
    # n - pi(i) takes old axis n - i
    source = [0] * n
    for i, image in enumerate(permutation, start=1):
        source[n - image] = n - i
    return SetFunctionTable(
        n, np.transpose(table.values.reshape((2,) * n), source).reshape(-1)
    )


def pure_synergy_table(n: int, members: Sequence[int], value: float) -> SetFunctionTable:
    """Table of the pure interaction that is `value` when all of `members`
    are present and 0.0 otherwise: the bits of the Möbius inverse of that one
    synergy, but for -0.0, which its sums make +0.0 off the empty coalition."""
    mask = coalition_mask(members, n)
    return SetFunctionTable(n, np.where(np.arange(1 << n) & mask == mask, value, 0.0))
