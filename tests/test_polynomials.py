import copy
import math
import numbers
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synergy import expressions as ex
from synergy.core import Instance, as_int, as_real, json_field
from synergy.exceptions import (
    CapExceededError,
    DimensionMismatchError,
    NonFiniteError,
    SynergyError,
)
from synergy.polynomials import (
    MAX_TOTAL_DEGREE,
    SparsePolynomial,
    _valid_terms,
    multi_indices,
    support,
)
from synergy.set_methods import build_table, mobius
from tests.conftest import make_polynomial

QUADRATIC = SparsePolynomial(
    (0.0, 0.0, 0.0),
    {(1, 0, 0): 2.0, (0, 1, 0): -3.0, (1, 0, 1): 1.0, (0, 0, 0): -15.0},
)


def test_evaluate_worked_example():
    assert QUADRATIC.evaluate((1.0, 1.0, 1.0)) == -15.0


def test_evaluate_high_degree_monomial():
    p = SparsePolynomial((0.0, 0.0), {(100, 1): 1.0})
    assert p.evaluate((2.0, 2.0)) == 2.0**101


def test_evaluate_beyond_the_float_range_is_the_signed_infinity():
    # Python's float power raises OverflowError there; evaluate takes the
    # infinity the power rounds to, as the gradient rules do
    p = SparsePolynomial((0.0, 0.0), {(127, 0): 1.0})
    assert p.evaluate((-1e3, 2.0)) == -math.inf
    assert p.evaluate((1e3, 2.0)) == math.inf
    assert SparsePolynomial((0.0, 0.0), {(128, 0): -2.0}).evaluate((-1e3, 2.0)) == -math.inf


def test_evaluate_empty():
    p = SparsePolynomial((0.0, 0.0), {})
    assert p.evaluate((3.0, 4.0)) == 0.0


def test_add_cancellation_drops_terms():
    assert not (QUADRATIC + QUADRATIC.scale(-1.0)).terms
    assert not QUADRATIC.scale(0.0).terms


def test_add_requires_matching_center():
    other = SparsePolynomial((1.0, 0.0, 0.0), {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        QUADRATIC + other


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_evaluation_is_additive(seed):
    rng = np.random.default_rng(seed)
    p = make_polynomial(rng, 3)
    q = make_polynomial(rng, 3)
    y = rng.uniform(-1, 1, 3)
    assert (p + q).evaluate(y) == pytest.approx(
        p.evaluate(y) + q.evaluate(y), rel=1e-12, abs=1e-12
    )


def _partial(p, i):
    """The exact partial derivative of `p` with respect to feature i
    (1-based), built by the trusted constructor: taking e_i from every key
    keeps their order."""
    if not 1 <= i <= p.n:
        raise ValueError(f"feature index {i} outside 1..{p.n}")
    out = {}
    for m, c in p.terms.items():
        e = m[i - 1]
        if e:
            key = m[: i - 1] + (e - 1,) + m[i:]
            out[key] = out.get(key, 0.0) + c * e
    return SparsePolynomial._exact(p.center, out)


def test_partial_power_rule():
    p = SparsePolynomial((0.0, 0.0), {(100, 1): 1.0})
    assert _partial(p, 1).terms == {(99, 1): 100.0}
    assert not _partial(SparsePolynomial((0.0, 0.0), {(1, 0): 2.0}), 2).terms


def test_partial_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(10):
        p = make_polynomial(rng, 3)
        x = rng.uniform(-1, 1, 3)
        for i in range(1, 4):
            bump = np.zeros(3)
            bump[i - 1] = h
            numeric = (p.evaluate(x + bump) - p.evaluate(x - bump)) / (2 * h)
            exact = _partial(p, i).evaluate(x)
            assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_partials_commute_exactly(rng):
    for _ in range(10):
        p = make_polynomial(rng, 3)
        assert _partial(_partial(p, 1), 2).terms == _partial(_partial(p, 2), 1).terms


def test_truncate():
    assert QUADRATIC.truncate(1).terms == {
        (1, 0, 0): 2.0,
        (0, 1, 0): -3.0,
        (0, 0, 0): -15.0,
    }
    assert QUADRATIC.truncate(QUADRATIC.degree()) == QUADRATIC
    assert QUADRATIC.truncate(0).terms == {(0, 0, 0): -15.0}


def test_truncate_is_projection(rng):
    p = make_polynomial(rng, 4, degree=6)
    once = p.truncate(3)
    assert once.truncate(3) == once


def test_synergy_split_worked_example():
    pieces = QUADRATIC.synergy_split()
    assert set(pieces) == {(), (1,), (2,), (1, 3)}
    assert pieces[()].terms == {(0, 0, 0): -15.0}
    assert pieces[(1,)].terms == {(1, 0, 0): 2.0}
    assert pieces[(2,)].terms == {(0, 1, 0): -3.0}
    assert pieces[(1, 3)].terms == {(1, 0, 1): 1.0}


def test_synergy_split_single_monomial():
    p = SparsePolynomial((0.0, 0.0), {(1, 2): 1.0})
    assert set(p.synergy_split()) == {(1, 2)}


def test_synergy_split_resums_to_original(rng):
    p = make_polynomial(rng, 4)
    total = SparsePolynomial(p.center, {})
    for piece in p.synergy_split().values():
        total = total + piece
    assert total == p


def test_split_matches_set_function_synergy(rng):
    """Polynomial-level split evaluated at x equals the Möbius synergy of the
    tabulated function, coalition by coalition."""
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = make_polynomial(rng, n, degree=5)
        x = tuple(rng.uniform(-1, 1, n))
        inst = Instance(x=x, baseline=p.center)
        synergies = mobius(build_table(inst, p.evaluate))
        pieces = p.synergy_split()
        for mask in range(1 << n):
            members = tuple(i + 1 for i in range(n) if mask >> i & 1)
            piece = pieces.get(members)
            expected = piece.evaluate(x) if piece is not None else 0.0
            got = synergies.values[mask]
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_support():
    assert support((0, 2, 1)) == (2, 3)
    assert support((0, 0)) == ()


def test_multi_indices_are_every_vector_in_lexicographic_order():
    for n in range(4):
        for max_total in range(5):
            vectors = multi_indices(n, max_total)
            assert list(vectors) == sorted(set(vectors))
            assert len(vectors) == math.comb(n + max_total, n)
            assert all(sum(m) <= max_total and len(m) == n for m in vectors)


def test_degree_cap():
    with pytest.raises(CapExceededError):
        SparsePolynomial((0.0,), {(129,): 1.0})


def test_json_roundtrip():
    payload = QUADRATIC.to_json_dict()
    assert payload["n"] == 3
    assert SparsePolynomial.from_json_dict(payload) == QUADRATIC


def test_zero_coefficients_are_dropped():
    p = SparsePolynomial((0.0, 0.0), {(1, 0): 0.0, (0, 1): 2.0, (1, 1): -0.0})
    assert p.terms == {(0, 1): 2.0}


def _terms_checked_one_by_one(n, terms):
    """The terms a polynomial keeps, checked term by term in insertion order,
    or the error for the first offending one (reference): every exponent an
    integral number (a boolean reads as 0 or 1), every coefficient a real
    number within the float range, and no two keys naming one vector."""
    checked = {}
    for m, c in terms.items():
        try:
            exponents = list(m)
        except TypeError as error:
            raise SynergyError(f"exponent vector {m!r}: {error}") from None
        for e in exponents:
            if not (isinstance(e, numbers.Real) and math.isfinite(e) and e == math.floor(e)):
                raise SynergyError(f"exponent vector {m!r}: expected an integer, got {e!r}")
        key = tuple(math.floor(e) for e in exponents)
        if len(key) != n:
            raise DimensionMismatchError(f"exponent vector {key} does not match dimension {n}")
        if any(e < 0 for e in key):
            raise ValueError(f"negative exponent in {key}")
        if sum(key) > MAX_TOTAL_DEGREE:
            raise CapExceededError(f"total degree {sum(key)} exceeds cap {MAX_TOTAL_DEGREE}")
        if not isinstance(c, numbers.Real):
            raise SynergyError(f"coefficient for {key}: expected a number, got {c!r}")
        try:
            value = float(c)
        except OverflowError:
            raise SynergyError(f"coefficient for {key}: expected a number within the float range")
        if not math.isfinite(value):
            raise NonFiniteError(f"non-finite coefficient for {key}")
        if key in checked:
            raise SynergyError(f"polynomial repeats the exponent vector {key}")
        checked[key] = value
    return {m: c for m, c in checked.items() if c != 0.0}


def _outcome(build):
    try:
        return "ok", build()
    except Exception as error:  # compared by class and message
        return type(error), str(error)


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 0): 1.0, (1, 2, 3): 2.0},  # wrong length
        {(1, 0): 1.0, (1,): 2.0},  # ragged
        {(0, 1): 1.0, (1, -1): 2.0},  # negative exponent
        {(129, 0): 1.0},
        {(128, 0): 1.0, (64, 65): 1.0},  # each exponent in range, the sum not
        {(10**30, 0): 1.0},
        {(2**62, 2**62): 1.0},  # an int64 row sum would wrap to negative
        {(2**63, 0): 1.0},
        {(0, 1): float("nan")},
        {(0, 1): 1.0, (1, 1): float("-inf")},
        {(0, 1): float("inf"), (1, -1): 1.0},  # the first offending term wins
        {(1, -1): 1.0, (0, 1): float("inf")},
        {(1, 1): "x"},
        {(1, "a"): 1.0},
        {(float("nan"), 0): 1.0},
        {7: 1.0},
        {(1.5, 0): 1.0},  # a fraction is not read as its floor
        {(1.5, 0): 1.0, (1, 0): 2.0},  # nor merged with the vector it would floor to
        {("2", 0): 1.0},  # a string is not a number
        {(float("inf"), 0): 1.0},
        {(1, 0): "1"},
        {(1, 0): None},
        {(1, 0): 10**400},  # an int beyond the float range
        {(1, 0): 1.0, b"\x01\x00": 2.0},  # two keys naming one vector
    ],
)
def test_invalid_terms_raise_the_per_term_error(terms):
    expected = _outcome(lambda: _terms_checked_one_by_one(2, terms))
    assert expected[0] != "ok"
    assert _outcome(lambda: SparsePolynomial((0.0, 0.0), terms).terms) == expected


@pytest.mark.parametrize(
    "terms, kept",
    [
        ({(np.int64(1), np.int32(2)): 1.5, (np.uint8(0), 1): 2.0}, {(1, 2): 1.5, (0, 1): 2.0}),
        ({(1.0, 2.0): 1.5, (True, 0): 2}, {(1, 2): 1.5, (1, 0): 2.0}),
        ({(1, 0): 0.0, (0, 1): 2.0, (1, 1): -0.0}, {(0, 1): 2.0}),
        ({(1, 1): np.float32(0.5), (2, 0): 3}, {(1, 1): 0.5, (2, 0): 3.0}),
        ({(128, 0): 1.0, (64, 64): -1.0}, {(128, 0): 1.0, (64, 64): -1.0}),
        ({}, {}),
    ],
)
def test_valid_terms_are_kept_as_the_per_term_check_keeps_them(terms, kept):
    clean = SparsePolynomial((0.0, 0.0), terms).terms
    assert clean == _terms_checked_one_by_one(2, terms) == kept
    assert list(clean) == sorted(kept)
    assert all(type(e) is int for m in clean for e in m)
    assert all(type(c) is float for c in clean.values())


def test_zero_feature_polynomial_keeps_its_constant():
    assert SparsePolynomial((), {(): 2.5}).terms == {(): 2.5}
    assert SparsePolynomial((), {(): 0.0}).terms == {}


def _file_terms_one_by_one(payload):
    """The terms a polynomial file gives, read term by term: each exponent
    vector must read back as written, each coefficient be a number, and no
    vector repeat; then the constructor's checks (reference)."""
    terms = {}
    for item in payload["terms"]:
        try:
            m = tuple(map(int, item["m"]))
            if m != tuple(item["m"]):
                raise TypeError
            c = as_real(item["c"])
        except (KeyError, TypeError, ValueError):
            json_field(item, "m", "polynomial term", lambda m: tuple(map(as_int, m)))
            json_field(item, "c", "polynomial term", as_real)
            raise
        if m in terms:
            raise SynergyError(f"polynomial repeats the exponent vector {m}")
        terms[m] = c
    return SparsePolynomial((0.0,) * payload["n"], terms).terms


def _term(m, c):
    return {"m": m, "c": c}


@pytest.mark.parametrize(
    "terms",
    [
        [_term([1, 0], 1.5), _term([0, 2], -2), _term([0, 0], 0.0), _term([3, 1], -0.0)],
        [_term([1.0, 0], 1.5), _term([True, 2], 2.5)],  # integral floats, booleans
        [_term([1, 0], True), _term([0, 1], 10**20)],
        [],
        [_term([1, 0], 1.0), _term([1, 0], 2.0)],  # repeated vector
        [_term([1, 0], 0.0), _term([1, 0.0], 2.0)],
        [_term([1, 0.5], 1.0)],
        [_term([1, "1"], 1.0)],
        [_term("10", 1.0)],
        [_term([1, 0], "1.5")],
        [_term([1, 0], None)],
        [_term([1, 0, 0], 1.0)],
        [_term([1, -1], 1.0)],
        [_term([100, 29], 1.0)],
        [_term([2**63, 0], 1.0)],
        [_term([1, 0], float("nan"))],
        [_term([1, 0], 10**400)],
        [{"m": [1, 0]}],
        [{"c": 1.0}],
        [[1, 0]],
    ],
)
def test_file_loader_keeps_what_the_term_by_term_read_keeps(terms):
    payload = {"n": 2, "terms": terms}
    expected = _outcome(lambda: _file_terms_one_by_one(payload))
    got = _outcome(lambda: SparsePolynomial.from_json_dict(payload).terms)
    assert got == expected
    if got[0] == "ok":
        assert list(got[1]) == list(expected[1])
        assert all(type(e) is int for m in got[1] for e in m)
        assert all(type(c) is float for c in got[1].values())


@pytest.mark.parametrize(
    "pairs",
    [
        [((1, 0), 1.5), ((0, 2), -2), ((0, 0), 0.0), ((3, 1), -0.0)],
        [((True, 2), 2.5), ((2.0, False), 1.0), ((0, 1), True)],  # booleans, integral floats
        [((np.int64(1), np.uint8(2)), np.float32(0.5)), ((0, 1), np.float64(2.0))],
        [((2, 1), 1.0), ((0, 1), 4.0), ((1, 0), 10**20)],  # unsorted
        [],
        [((1.5, 0), 1.0)],
        [((1.5, 0), 1.0), ((1, 0), 2.0)],
        [(("2", 0), 1.0)],
        [((float("inf"), 0), 1.0)],
        [((float("nan"), 0), 1.0)],
        [((1, 0), "1")],
        [((1, 0), None)],
        [((1, 0), 10**400)],
        [((1, 0), float("inf"))],
        [((1, -1), 1.0)],
        [((1, 0, 0), 1.0)],
        [((129, 0), 1.0)],
    ],
)
def test_constructor_and_loader_take_the_same_terms(pairs):
    """A mapping given to the constructor and the same terms in a file keep
    the same terms and arrays, or fail with the same error class."""
    center = (0.5, -1.0)
    payload = {"n": 2, "center": list(center),
               "terms": [_term(list(m), c) for m, c in pairs]}
    built = _outcome(lambda: SparsePolynomial(center, dict(pairs)))
    loaded = _outcome(lambda: SparsePolynomial.from_json_dict(payload))
    assert built[0] == loaded[0]
    if built[0] == "ok":
        assert _stored(built[1]) == _stored(loaded[1])
        assert np.array_equal(built[1].exponent_array, loaded[1].exponent_array)
        assert built[1].coefficients.tobytes() == loaded[1].coefficients.tobytes()


def test_file_loader_reads_a_large_file_like_the_term_by_term_read():
    rng = np.random.default_rng(12)
    vectors = multi_indices(6, 8)
    picked = rng.choice(len(vectors), size=2000, replace=False)
    payload = {
        "n": 6,
        "center": rng.uniform(-1, 1, 6).tolist(),
        "terms": [_term(list(vectors[i]), float(rng.uniform(-1, 1))) for i in picked],
    }
    poly = SparsePolynomial.from_json_dict(payload)
    expected = _file_terms_one_by_one(payload)
    assert list(poly.terms.items()) == list(expected.items())
    assert poly.center == tuple(payload["center"])


def _descending_terms(n, max_total, seed):
    """Every exponent vector up to max_total, descending, with random
    nonzero coefficients."""
    rng = np.random.default_rng(seed)
    vectors = multi_indices(n, max_total)[::-1]
    return {m: float(c) for m, c in zip(vectors, rng.uniform(0.5, 2.0, len(vectors)))}


def test_array_path_stores_terms_in_ascending_exponent_order():
    terms = _descending_terms(3, 4, seed=1)
    assert _valid_terms(list(terms), list(terms.values()), 3) is not None
    payload = {"n": 3, "terms": [_term(list(m), c) for m, c in terms.items()]}
    poly = SparsePolynomial.from_json_dict(payload)
    assert list(poly.terms) == sorted(terms)
    assert poly.terms == terms


def test_per_term_path_stores_terms_in_ascending_exponent_order():
    # a boolean coefficient sends the file term by term, as a mapping always goes
    terms = {(2, 1): 1.0, (0, 1): True, (1, 0): 2.0}
    items = [_term(list(m), c) for m, c in terms.items()]
    assert _valid_terms([t["m"] for t in items], [t["c"] for t in items], 2) is None
    expected = [((0, 1), 1.0), ((1, 0), 2.0), ((2, 1), 1.0)]
    assert list(SparsePolynomial((0.0, 0.0), terms).terms.items()) == expected
    assert list(SparsePolynomial.from_json_dict({"n": 2, "terms": items}).terms.items()) == expected


@pytest.mark.parametrize("coefficient", [1.25, True], ids=["one-pass", "term-by-term"])
def test_loader_and_filters_store_what_the_validated_construction_stores(coefficient):
    """from_json_dict, to_polynomial, taylor, truncate and synergy_split skip
    the second validation; each stores the terms and arrays, in the order,
    that the constructor stores."""
    terms = _descending_terms(3, 5, seed=2)
    terms[next(iter(terms))] = coefficient  # a boolean sends the file term by term
    center = (0.25, -0.5, 1.0)
    payload = {"n": 3, "center": list(center),
               "terms": [{"m": list(m), "c": c} for m, c in terms.items()]}
    poly = SparsePolynomial.from_json_dict(payload)
    assert list(poly.terms) == sorted(terms)
    assert len(poly.synergy_split()) == 2**3
    sources = [
        (poly, terms),
        (ex.to_polynomial(ex.parse("(x1 - 2*x2 + x3)^3 + x1*x3 - 0.5", 3), center), None),
        (ex.taylor(ex.parse("sin(x1 + x2) * exp(x3) + x2^2", 3), center, 5), None),
    ]
    for poly, terms in sources:
        terms = dict(poly.terms) if terms is None else terms

        def validated(keep):
            return SparsePolynomial(center, {m: c for m, c in terms.items() if keep(m)})

        assert _stored(poly) == _stored(validated(lambda m: True))
        for degree in range(6):
            cut = poly.truncate(degree)
            assert _stored(cut) == _stored(validated(lambda m: sum(m) <= degree))
        pieces = poly.synergy_split()
        assert list(pieces) == list(dict.fromkeys(map(support, poly.terms)))
        for coalition, piece in pieces.items():
            assert _stored(piece) == _stored(validated(lambda m: support(m) == coalition))


def _stored(poly):
    """Everything a polynomial holds: its center, its terms in order with
    their bits, and the bytes, dtype, shape and read-only flag of both
    arrays."""
    arrays = [
        (a.tobytes(), a.dtype, a.shape, a.flags.writeable)
        for a in (poly.exponent_array, poly.coefficients)
    ]
    return poly.center, list(poly.terms.items()), [c.hex() for c in poly.terms.values()], arrays


def test_arithmetic_stores_what_the_validated_construction_stores():
    """scale, + and the test-side partial skip the second validation; each
    stores the terms and arrays, in the order, that the constructor stores:
    underflow and cancellation dropped, new keys from the right operand
    sorted in. The operands include to_polynomial and taylor outputs."""
    center = (0.25, -0.5, 1.0)
    p = SparsePolynomial(center, _descending_terms(3, 4, seed=3))
    sparse = SparsePolynomial(center, {m: c for m, c in _descending_terms(3, 5, seed=4).items()
                                       if sum(m) % 2})
    tiny = SparsePolynomial(center, {(0, 0, 0): 1e-300, (1, 0, 0): 1.0, (0, 2, 1): 3e-310})
    expanded = ex.to_polynomial(ex.parse("(x1 - 2*x2 + x3)^3 + x1*x3 - 0.5", 3), center)
    series = ex.taylor(ex.parse("cos(x1 * x2) + exp(x3 - x1)", 3), center, 4)
    for poly in (expanded, series):
        assert _stored(poly) == _stored(SparsePolynomial(center, dict(poly.terms)))
    for poly in (p, sparse, tiny, expanded, series):
        for factor in (-1.0, 0.0, 2.5, 1e-30, np.float64(0.3), 3):
            scaled = {m: c * factor for m, c in poly.terms.items()}
            assert _stored(poly.scale(factor)) == _stored(SparsePolynomial(center, scaled))
        for i in (1, 2, 3):
            derivative = {}
            for m, c in poly.terms.items():
                if m[i - 1]:
                    key = m[: i - 1] + (m[i - 1] - 1,) + m[i:]
                    derivative[key] = derivative.get(key, 0.0) + c * m[i - 1]
            assert _stored(_partial(poly, i)) == _stored(SparsePolynomial(center, derivative))
    for left, right in ((p, sparse), (sparse, p), (p, p.scale(-1.0)), (tiny, p), (p, p),
                        (expanded, series), (series, p), (expanded, expanded.scale(-1.0))):
        merged = dict(left.terms)
        for m, c in right.terms.items():
            merged[m] = merged.get(m, 0.0) + c
        assert _stored(left + right) == _stored(SparsePolynomial(center, merged))
    assert (p - p).terms == {} and tiny.scale(1e-30).terms == {(1, 0, 0): 1e-30}


def test_arithmetic_overflow_raises_the_validated_construction_error():
    p = SparsePolynomial((0.0, 0.0), {(0, 0): 1.0, (1, 0): 1e300, (0, 1): -1e300})
    for overflowing, unchecked in (
        (lambda: p.scale(1e10), {m: c * 1e10 for m, c in p.terms.items()}),
        (lambda: p.scale(float("nan")), {m: c * float("nan") for m, c in p.terms.items()}),
        (lambda: p.scale(-float("inf")), {m: c * -float("inf") for m, c in p.terms.items()}),
        (lambda: p + p.scale(1.7976931348623157e8),
         {m: c + c * 1.7976931348623157e8 for m, c in p.terms.items()}),
    ):
        with pytest.raises(NonFiniteError) as caught:
            SparsePolynomial(p.center, unchecked)
        with pytest.raises(NonFiniteError) as again:
            overflowing()
        assert str(again.value) == str(caught.value)
    big = SparsePolynomial((0.0,), {(128,): 1e307})
    with pytest.raises(NonFiniteError, match=r"^non-finite coefficient for \(127,\)$"):
        _partial(big, 1)


def test_exponent_array_holds_the_terms_in_order():
    """The exponent rows a polynomial keeps from its array pass, or builds
    on first use, are its terms' vectors in term order, read-only, whether
    the input was sorted, unsorted, or held zero coefficients."""
    rng = np.random.default_rng(33)
    descending = _descending_terms(3, 4, seed=2)
    with_zeros = {**descending, (1, 1, 1): 0.0, (0, 0, 2): -0.0}
    payloads = [
        {"n": 3, "terms": [_term(list(m), c) for m, c in terms.items()]}
        for terms in (descending, dict(sorted(descending.items())), with_zeros)
    ]
    polys = [SparsePolynomial.from_json_dict(payload) for payload in payloads]
    polys += [SparsePolynomial((0.0,) * 3, terms) for terms in (descending, with_zeros)]
    polys += [polys[0].truncate(2), make_polynomial(rng, 4), polys[0].scale(2.0)]
    polys += [SparsePolynomial((0.0, 0.0), {}), SparsePolynomial((), {(): 1.5})]
    for poly in polys:
        rows = poly.exponent_array
        assert rows.dtype == np.int64 and rows.shape == (len(poly.terms), poly.n)
        assert list(map(tuple, rows.tolist())) == list(poly.terms)
        assert not rows.flags.writeable
        assert poly.exponent_array is rows


@st.composite
def polynomial_files(draw):
    """Polynomial file payloads the loader accepts: terms in random order,
    of up to 320 distinct vectors, with zero and -0.0 coefficients, integer
    coefficients, boolean or integral-float exponents, no features, or
    exponent codes too wide for int64."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([3, 5, 2, 10, 4, 1, 0]))
    wide = n == 10
    vectors = multi_indices(n, 3 if wide else 8)
    size = min(draw(st.sampled_from([40, 320, 7, 1, 0])), len(vectors))
    picked = [list(vectors[i]) for i in rng.permutation(len(vectors))[:size]]
    if wide:
        # one exponent of 100 per feature: the codes would need 101^10 > 2^63
        picked += [[100 * (j == i) for j in range(n)] for i in range(n)]
    coefficients = rng.uniform(-2.0, 2.0, len(picked)).tolist()
    for i in rng.choice(len(picked), size=len(picked) // 4, replace=False).tolist():
        coefficients[i] = draw(st.sampled_from([0.0, -0.0, 3, -(10**20), 2**53 + 1]))
    exponents = draw(st.sampled_from(["int", "bool", "float"]))
    for m in picked[:3]:
        if exponents == "bool":
            m[:] = [bool(e) if e < 2 else e for e in m]
        elif exponents == "float":
            m[:] = [float(e) for e in m]
    return {
        "n": n,
        "center": rng.uniform(-1.0, 1.0, n).tolist(),
        "terms": [{"m": m, "c": c} for m, c in zip(picked, coefficients)],
    }


@settings(derandomize=True, max_examples=120, deadline=None)
@given(polynomial_files())
def test_loader_stores_what_the_validating_constructor_stores(payload):
    """Whether the one array pass takes a file or hands it to the term-by-term
    check, the loader stores the terms, exponent rows and coefficients that
    SparsePolynomial(center, {tuple(m): c}) stores, bit for bit."""
    loaded = SparsePolynomial.from_json_dict(payload)
    built = SparsePolynomial(
        tuple(payload["center"]), {tuple(t["m"]): t["c"] for t in payload["terms"]}
    )
    for poly in (loaded, built):
        assert not poly.exponent_array.flags.writeable
        assert not poly.coefficients.flags.writeable
        assert poly.exponent_array.dtype == np.int64 and poly.coefficients.dtype == np.float64
    assert loaded.term_count == built.term_count
    assert np.array_equal(loaded.exponent_array, built.exponent_array)
    assert loaded.coefficients.tobytes() == built.coefficients.tobytes()
    assert loaded.center == built.center
    assert list(loaded.terms) == list(built.terms) == sorted(built.terms)
    assert [c.hex() for c in loaded.terms.values()] == [c.hex() for c in built.terms.values()]
    assert all(type(e) is int for m in loaded.terms for e in m)
    assert loaded == built


def test_a_loaded_polynomial_builds_its_terms_on_first_read():
    payload = {"n": 2, "center": [0.5, -1.0],
               "terms": [_term([2, 1], -0.0), _term([1, 1], 4), _term([0, 1], 1.5)]}
    poly = SparsePolynomial.from_json_dict(payload)
    assert "terms" not in poly.__dict__
    assert poly.term_count == 2
    assert poly.exponent_array.tolist() == [[0, 1], [1, 1]]
    assert poly.coefficients.tolist() == [1.5, 4.0]
    ex.from_polynomial(poly)
    with pytest.raises(NonFiniteError, match=r"coefficient for \(0, 1\)"):
        poly.scale(math.inf)
    assert "terms" not in poly.__dict__
    terms = poly.terms
    assert terms == {(0, 1): 1.5, (1, 1): 4.0} and poly.terms is terms
    for copied in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly)):
        assert _stored(copied) == _stored(poly)
    with pytest.raises(ValueError):
        poly.coefficients[0] = 2.0
    with pytest.raises(AttributeError, match="no attribute 'term'"):
        poly.term
