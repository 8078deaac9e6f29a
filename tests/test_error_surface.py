"""Property test of the CLI's error surface: every request built from the
method registry either succeeds or is a usage error (exit 2, nothing on
stdout), within a time bound, and no exception escapes `main`."""
import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synergy.cli import main
from synergy.methods import REGISTRY, SUITE_METHODS

IDS = sorted({*REGISTRY, *SUITE_METHODS, "bogus"})
EXPRESSIONS = (
    "x1",
    "2*x1 - 3",
    "x1*x2 + x2^3",
    "sin(x1)*x2",
    "exp(x1*x2*x3) - x3",
    "x1^2*x3 + cos(x2)",
)
COORDINATES = ("-1.5", "-0.25", "0", "0.5", "2")
TIME_BOUND_S = 5.0


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sources")
    paths = {}
    for n in (1, 2, 3):
        poly = {
            "n": n,
            "terms": [
                {"m": [1] * n, "c": 1.5},
                {"m": [2] + [0] * (n - 1), "c": -0.5},
                {"m": [0] * n, "c": 0.25},
            ],
        }
        table = {"n": n, "values": [float(mask * mask - 1) for mask in range(1 << n)]}
        for kind, payload in (("poly", poly), ("table", table)):
            path = root / f"{kind}{n}.json"
            path.write_text(json.dumps(payload))
            paths[kind, n] = str(path)
    return paths


def requests(files):
    @st.composite
    def source(draw):
        kind = draw(st.sampled_from(("expr", "poly", "table")))
        n = draw(st.integers(1, 3))
        if kind == "expr":
            argv = ["--expr", draw(st.sampled_from(EXPRESSIONS))]
        else:
            argv = [f"--{kind}", files[kind, n]]
        if draw(st.booleans()):
            point = draw(st.lists(st.sampled_from(COORDINATES), min_size=n, max_size=n))
            argv += ["--x", ",".join(point)]
        return argv

    method = st.sampled_from(IDS)
    k = st.integers(0, 4).map(str)
    output = st.sampled_from(("json", "csv"))
    return st.one_of(
        st.builds(
            lambda src, m, k, out: ["interact", *src, "--method", m, "-k", k, "--output", out],
            source(), method, k, output,
        ),
        st.builds(lambda src, out: ["decompose", *src, "--output", out], source(), output),
        st.builds(
            lambda left, right, src, k, out: [
                "compare", left, right, *src, "-k", k, "--output", out
            ],
            method, method, source(), k, output,
        ),
        st.builds(
            lambda m, out: [
                "check", "--method", m, "--axiom", "completeness", "--trials", "2",
                "--output", out,
            ],
            method, output,
        ),
    )


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_every_request_succeeds_or_is_a_usage_error(files, data):
    argv = data.draw(requests(files), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2), stderr.getvalue()
    if code == 2:
        assert stdout.getvalue() == ""
        assert stderr.getvalue()
    assert elapsed < TIME_BOUND_S


# c * x1^128 at x1 = 1e3 is beyond the float range, as is x1^128 itself; at
# x1 = 10 only the product is. The large file holds the same term among
# 275 others.
OVERFLOW_TERM = {"m": [128, 0], "c": 1e300}
SMALL_TERMS = [
    {"m": [a, b], "c": 0.5 / (1 + a + b)} for a in range(23) for b in range(23 - a) if a + b
]


@pytest.mark.parametrize("size", ["small", "large"])
@pytest.mark.parametrize(
    "argv",
    [
        ["interact", "--x", "1e3,2", "--method", "sop", "-k", "2"],
        ["decompose", "--x", "1e3,2"],
        ["interact", "--x", "-1e3,2", "--method", "ih", "-k", "2"],
        ["interact", "--x", "10,2", "--method", "ig"],
        ["compare", "sop-nested", "sop", "--x", "1e3,2", "-k", "1"],
    ],
    ids=["sop-power-overflow", "decompose-power-overflow", "ih-negative-power-overflow",
         "ig-product-overflow", "sop-nested-power-overflow"],
)
def test_overflowing_gradient_rule_names_the_coalition(tmp_path, capsys, size, argv):
    terms = [OVERFLOW_TERM] + (SMALL_TERMS if size == "large" else [])
    assert len(terms) == (276 if size == "large" else 1)
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 2, "center": [0, 0], "terms": terms}))
    code = main([argv[0], "--poly", str(path), *argv[1:]])
    assert code == 2
    assert capsys.readouterr() == ("", "error: non-finite value for coalition (1,)\n")


def test_overflowing_nested_oracle_names_the_non_finite_value(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 2, "center": [0, 0], "terms": [OVERFLOW_TERM]}))
    code = main(["compare", "sop-nested", "sop", "--poly", str(path), "--x", "1e3,2", "-k", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "non-finite value" in err


# JSON integers beyond the float range, written out as 1 and 400 zeros
BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize(
    "flag, payload, field",
    [
        ("--poly", '{"n": 1, "terms": [{"m": [1], "c": %s}]}', "polynomial term field 'c'"),
        ("--poly", '{"n": 1, "center": [%s], "terms": [{"m": [1], "c": 1.0}]}',
         "polynomial field 'center'"),
        ("--table", '{"n": 1, "values": [%s, 1]}', "table field 'values'"),
    ],
    ids=["poly-coefficient", "poly-center", "table-value"],
)
def test_integer_beyond_the_float_range_names_its_field(tmp_path, capsys, flag, payload, field):
    path = tmp_path / "input.json"
    path.write_text(payload % BEYOND_FLOAT)
    code = main(["decompose", flag, str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}: ")
    assert BEYOND_FLOAT[:20] not in err  # the digits are not echoed


@pytest.mark.parametrize(
    "expr, message",
    [
        ("(x1 - x1 + 1)^100000000", "exponent 100000000 exceeds cap 128"),
        ("(x1 - x1 + 1)^129", "exponent 129 exceeds cap 128"),
        ("(x1 - x1)^1000000", "exponent 1000000 exceeds cap 128"),
        # the degree check runs first
        ("x1^1000000000", "total degree 1000000000 exceeds cap 128"),
    ],
    ids=["constant-base", "constant-base-above-cap", "zero-base", "degree-first"],
)
def test_exact_power_above_the_degree_cap_fails_at_once(capsys, expr, message):
    start = time.perf_counter()
    code = main(["interact", "--expr", expr, "--x", "1", "--method", "ig"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_exact_power_at_the_degree_cap_of_a_constant_base_is_expanded(capsys):
    code = main(["interact", "--expr", "(x1 - x1 + 2)^128 + x1", "--x", "1", "--method", "ig"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out)["entries"][1] == {"coalition": [1], "value": 1.0}


def test_overflowing_expression_power_names_the_non_finite_value(capsys):
    code = main(["interact", "--expr", "(sin(x1) + 2)^2000", "--x", "1", "--method", "ig"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: non-finite sample in dF/dx1\n"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("10^400*x1", "non-finite coefficient for (1,)"),
        ("(-10)^401 + x1", "non-finite coefficient for (0,)"),
        ("exp(1000)*x1", "non-finite coefficient for (1,)"),
        ("sin(exp(1000))*x1", "non-finite coefficient for (1,)"),
    ],
    ids=["power", "signed-power", "exp", "sin-of-inf"],
)
def test_overflowing_constant_names_the_non_finite_value(capsys, expr, message):
    """A constant folded beyond the float range reads as `evaluate` reads it
    on arrays, so the expansion names the term it leaves non-finite."""
    code = main(["interact", "--expr", expr, "--x", "1", "--method", "ig"])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, integrand",
    [
        (("x1 + exp(-exp(x2))", "--x", "0.5,1000", "--method", "ig"), "dF/dx2"),
        (("x1 + exp(-exp(x2))", "--x", "0.5,1000", "--method", "ih", "-k", "2"), "dF/dx2"),
        (("x1*exp(-exp(x2))", "--x", "0.5,1000", "--method", "ig"), "dF/dx2"),
        (("x1 + exp(-exp(x2))*x3", "--x", "0.5,1000,2", "--method", "ih", "-k", "2"),
         "d2F/dx2dx3"),
    ],
    ids=["sum-ig", "sum-ih2", "product-ig", "sum-of-product-ih2"],
)
def test_non_finite_quadrature_names_the_feature_that_takes_it(capsys, argv, integrand):
    """exp(-exp(x2)) is 0 and its x2-derivative 0·inf = nan along the path.
    The rows and columns of x1, which the node does not hold, stay exact
    zeros, so the error names an integrand in x2 and never one in x1 alone."""
    code = main(["interact", "--expr", *argv])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: non-finite sample in {integrand}\n")
