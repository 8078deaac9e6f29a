import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from synergy import cli, core
from synergy import expressions as ex
from synergy.axioms import SuiteConfig
from synergy.cli import main
from synergy.core import Instance
from synergy.methods import REGISTRY
from synergy.set_methods import build_table
from tests.conftest import make_polynomial

QUADRATIC = "2*x1 - 3*x2 + x1*x3 - 15"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def entries_dict(payload):
    return {tuple(e["coalition"]): e["value"] for e in payload["entries"]}


def test_interact_shapley_taylor_quadratic(capsys):
    code, out, _ = run_cli(
        capsys,
        "interact",
        "--expr", QUADRATIC,
        "--x", "1,1,1",
        "--method", "shapley-taylor",
        "-k", "2",
    )
    assert code == 0
    entries = entries_dict(json.loads(out))
    assert entries[()] == -15.0
    assert entries[(1,)] == 2.0
    assert entries[(2,)] == -3.0
    assert entries[(1, 3)] == 1.0
    assert all(
        v == 0.0 for c, v in entries.items() if c not in {(), (1,), (2,), (1, 3)}
    )


def test_interact_ig_monomial(capsys):
    code, out, _ = run_cli(
        capsys,
        "interact", "--expr", "x1^100*x2", "--x", "2,2", "--method", "ig", "-k", "1",
    )
    assert code == 0
    entries = entries_dict(json.loads(out))
    assert entries[(1,)] == pytest.approx((100 / 101) * 2.0**101, rel=1e-12)
    assert entries[(2,)] == pytest.approx((1 / 101) * 2.0**101, rel=1e-12)


def test_interact_table_source_with_binary_method(tmp_path, capsys):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"n": 2, "values": [0.0, 1.0, 2.0, 4.0]}))
    code, out, _ = run_cli(
        capsys, "interact", "--table", str(table), "--method", "shapley"
    )
    assert code == 0
    entries = entries_dict(json.loads(out))
    # synergies: {1}:1, {2}:2, {1,2}:1 -> shapley = (1.5, 2.5)
    assert entries[(1,)] == pytest.approx(1.5)
    assert entries[(2,)] == pytest.approx(2.5)


@pytest.mark.parametrize("method", [m.id for m in REGISTRY.values() if m.kind != "table"])
def test_interact_table_with_gradient_method_is_capability_error(tmp_path, capsys, method):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"n": 2, "values": [0.0, 1.0, 2.0, 4.0]}))
    if REGISTRY[method].oracle:
        argv = ("compare", method, method, "--table", str(table))
    else:
        argv = ("interact", "--table", str(table), "--method", method)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "table source" in err


def test_interact_transcendental_routes_ig_through_quadrature(capsys):
    code, out, _ = run_cli(
        capsys,
        "interact",
        "--expr", "c*sin(x2)",
        "--x", f"0.3,{math.pi / 2}",
        "--let", "c=1.5",
        "--method", "ig",
    )
    assert code == 0
    entries = entries_dict(json.loads(out))
    assert entries[(2,)] == pytest.approx(1.5, abs=1e-10)


def test_interact_transcendental_sop_is_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        "interact", "--expr", "sin(x1)*x2", "--x", "1,1", "--method", "sop", "-k", "2",
    )
    assert code == 2
    assert "polynomial" in err


def test_interact_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "interact", "--expr", QUADRATIC, "--x", "1,1,1",
        "--method", "shapley-taylor", "-k", "2", "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coalition;value"
    assert "1+3;1.0" in lines
    assert lines[1].startswith("-;-15.0")


def test_interact_json_and_csv_agree(capsys):
    args = ("interact", "--expr", QUADRATIC, "--x", "0.5,0.25,-1", "--method", "rs", "-k", "2")
    code, json_out, _ = run_cli(capsys, *args)
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *args, "--output", "csv")
    assert code == 0
    from_json = entries_dict(json.loads(json_out))
    for line in csv_out.strip().splitlines()[1:]:
        label, value = line.split(";")
        coalition = () if label == "-" else tuple(int(i) for i in label.split("+"))
        assert float(value) == from_json[coalition]


def test_interact_output_is_byte_stable(capsys):
    args = ("interact", "--expr", QUADRATIC, "--x", "0.1,0.7,0.9", "--method", "ih", "-k", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_interact_malformed_x_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "interact", "--expr", "x1", "--x", "1,zebra", "--method", "shapley"
    )
    assert code == 2
    assert "comma-separated" in err


@pytest.mark.parametrize("x, baseline", [("nan,1", "0,0"), ("1,1", "-inf,0")])
def test_interact_non_finite_instance_is_usage_error(capsys, x, baseline):
    # feature 1 is unused by the expression, so only validation can catch it
    code, out, err = run_cli(
        capsys, "interact", "--expr", "x2", "--x", x, "--baseline", baseline,
        "--method", "shapley",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("interact", "--expr", "exp(x1)", "--x", "1000", "--method", "shapley"),
        ("interact", "--expr", "x1^300", "--x", "1e10", "--method", "shapley"),
        ("interact", "--expr", "exp(x1)", "--x", "1000", "--method", "ig"),
        ("interact", "--expr", "x1^100", "--x", "1e10", "--method", "ig"),
        ("decompose", "--expr", "x1^100*x2^20", "--x", "1e10,1e10"),
        ("interact", "--expr", "(" * 3000 + "x1" + ")" * 3000, "--x", "1",
         "--method", "shapley"),
    ],
    ids=["exp-shapley", "pow-shapley", "exp-ig", "pow-ig", "pow-decompose", "deep-parens"],
)
def test_overflow_and_deep_nesting_are_usage_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


SUM_63 = "+".join(f"x{i}" for i in range(1, 64))


@pytest.mark.parametrize(
    "argv",
    [
        ("interact", "--expr", "(x1+1)^5000", "--x", "0.5", "--method", "ig"),
        ("interact", "--expr", "(x1+1)^200 - (x1+1)^200", "--x", "0.5", "--method", "ig"),
        ("interact", "--expr", "sin(x1)*x2", "--x", "0.5,0.3", "--method", "ig",
         "--quad-nodes", "100000000"),
        # 283 nodes, 1 + 63 + 63^2 jet rows, 256 samples: 2.9e8 units of work
        ("interact", "--expr", "sin(" * 90 + "*".join([f"({SUM_63})"] * 3) + ")" * 90,
         "--x", ",".join(["1"] * 63), "--method", "ih", "-k", "2"),
        ("interact", "--expr", "x1*x2", "--x", ",".join(["1"] * 30), "--method", "ih",
         "-k", "30"),
        ("decompose", "--expr", "x1*x2", "--x", ",".join(["1"] * 21)),
        # squaring powers of 8,008 and 12,870 terms: 64 and 166 million pairs
        ("interact", "--expr", "((x1+x2+x3+x4+x5+x6+1)^10)^2", "--x", "1,1,1,1,1,1",
         "--method", "ig"),
        ("interact", "--expr", "((" + "+".join(f"x{i}" for i in range(1, 11)) + "+1)^6)^2",
         "--x", ",".join(["1"] * 10), "--method", "ig"),
        ("interact", "--expr", "((" + "+".join(f"x{i}" for i in range(1, 9)) + "+1)^8)^2",
         "--x", ",".join(["1"] * 8), "--method", "ig"),
        # C(16, 8)·2^16 = 8.4e8 averaging terms, minutes of Python steps
        ("compare", "st-marginal", "shapley-taylor", "--expr", "x1*x2",
         "--x", ",".join(["1"] * 16), "-k", "8"),
    ],
    ids=["degree-before-expansion", "degree-of-cancelling-powers", "quadrature-size",
         "quadrature-work", "coalitions-of-interact", "coalitions-of-decompose",
         "pairs-of-squared-power-6", "pairs-of-squared-power-10", "pairs-of-squared-power-8",
         "averaging-terms"],
)
def test_size_caps_apply_before_work_starts(argv):
    """Each cap rejects its input before expanding or allocating anything, in
    a fresh interpreter under a time bound."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "synergy.cli", *argv],
        capture_output=True, text=True, timeout=20, env=env,
    )
    # start-up included; the uncapped expansions ran for 9 s and more
    assert time.perf_counter() - start < 5
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
    assert "exceeds" in done.stderr


def test_start_up_leaves_numpy_random_unimported():
    """Importing the CLI and building its parser loads no numpy.random: it
    costs 11-16 ms, which every invocation would pay. The axiom harness
    imports it, and its own seeding module, on its first draw."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, synergy.cli; synergy.cli.build_parser(); "
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules, "
        "'synergy.seeding' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=20, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "False"]


ONES_64, ONES_21 = ",".join(["1"] * 64), ",".join(["1"] * 21)


@pytest.mark.parametrize(
    "argv, message",
    [
        # the quadrature flags are checked on every route, used or not
        (("interact", "--expr", "x1", "--x", "1", "--method", "ig", "--quad-nodes", "1"),
         "--quad-nodes must be >= 2"),
        (("interact", "--expr", "sin(x1)", "--x", "1", "--method", "shapley",
          "--quad-panels", "0"), "--quad-panels must be >= 1"),
        (("decompose", "--expr", "x1", "--x", "1", "--quad-panels", "0"),
         "--quad-panels must be >= 1"),
        (("compare", "ig", "ih", "--expr", "x1", "--x", "1", "--quad-nodes", "100000000"),
         "--quad-nodes * --quad-panels = 400000000 exceeds the cap 1024"),
        (("interact", "--expr", "x1", "--x", "1", "--method", "shapley", "--let", "a"),
         "--let expects NAME=VALUE, got 'a'"),
        (("interact", "--expr", "x1", "--x", "1", "--method", "shapley", "--let", "a=abc"),
         "--let a: 'abc' is not a number"),
        (("interact", "--expr", "x1", "--x", ONES_64, "--method", "shapley"),
         "n=64 exceeds the 63-feature cap"),
        (("interact", "--expr", "sin(x1", "--x", "1", "--method", "shapley"),
         "expected ')' (at offset 6)"),
        (("interact", "--expr", "x1 $ x2", "--x", "1,1", "--method", "shapley"),
         "unexpected character '$' (at offset 3)"),
        (("interact", "--expr", "x1", "--x", ONES_21, "--method", "shapley"),
         "build_table capped at n <= 20"),
    ],
    ids=["interact-quad-nodes", "interact-quad-panels", "decompose-quad-panels",
         "compare-quad-points", "let-without-value", "let-not-a-number", "x-above-cap",
         "unclosed-call", "unknown-character", "table-above-cap"],
)
def test_bad_flag_value_is_named_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("method", [("ig",), ("ih", "-k", "2")])
def test_quadrature_keeps_structural_zeros(capsys, method):
    """exp(x2) is inf along the whole path, but x2 stays at its baseline, so
    no derivative takes it: no 0 * inf turns a row into nan."""
    code, out, _ = run_cli(
        capsys, "interact", "--expr", "x1 + exp(-exp(x2))", "--x", "0.5,1000",
        "--baseline", "0,1000", "--method", *method,
    )
    assert code == 0
    entries = entries_dict(json.loads(out))
    assert entries.pop((1,)) == pytest.approx(0.5, abs=1e-15)
    assert entries and all(value == 0.0 for value in entries.values())


@pytest.mark.parametrize("kind", ["parens", "calls", "unary-minus"])
def test_nesting_cap_is_one_hundred_levels(capsys, kind):
    def nested(depth):
        if kind == "parens":
            return "(" * depth + "x1" + ")" * depth
        if kind == "calls":
            return "sin(" * depth + "x1" + ")" * depth
        return "-" * depth + "x1"

    for depth, expected in ((100, 0), (101, 2)):
        code, _, err = run_cli(
            capsys, "interact", f"--expr={nested(depth)}", "--x", "0.5", "--method", "shapley"
        )
        assert code == expected
    assert "nesting deeper than 100 levels" in err


def test_interact_unknown_method_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "interact", "--expr", "x1", "--x", "1", "--method", "banzhaf"
    )
    assert code == 2


def test_decompose_synergy_pieces_match_closed_forms(capsys):
    lets = ("--let", "a=1.5", "--let", "b=2", "--let", "c=-1", "--let", "d=0.5")
    x1, x2 = 0.7, -0.4
    code, out, _ = run_cli(
        capsys,
        "decompose",
        "--expr", "a + b*x1^2 + c*sin(x2) + d*x1*x2^2",
        "--x", f"{x1},{x2}",
        *lets,
    )
    assert code == 0
    entries = entries_dict(json.loads(out))
    assert entries[()] == pytest.approx(1.5, abs=1e-10)
    assert entries[(1,)] == pytest.approx(2 * x1**2, abs=1e-10)
    assert entries[(2,)] == pytest.approx(-math.sin(x2), abs=1e-10)
    assert entries[(1, 2)] == pytest.approx(0.5 * x1 * x2**2, abs=1e-10)


def test_decompose_constant_expression(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--expr", "7 - 4", "--x", "0.3,0.6"
    )
    assert code == 0
    entries = entries_dict(json.loads(out))
    assert entries[()] == 3.0
    assert all(v == 0.0 for c, v in entries.items() if c)


def test_decompose_table_emits_synergy_table(tmp_path, capsys):
    table = {"n": 2, "values": [1.0, 3.0, 2.0, 7.0]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cli(capsys, "decompose", "--table", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["values"] == [1.0, 2.0, 1.0, 3.0]


def test_decompose_table_of_no_features(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 0, "values": [0.25]}))
    code, out, _ = run_cli(capsys, "decompose", "--table", str(path))
    assert (code, out) == (0, '{\n  "n": 0,\n  "values": [\n    0.25\n  ]\n}\n')
    code, out, _ = run_cli(capsys, "decompose", "--table", str(path), "--output", "csv")
    assert (code, out) == (0, "coalition;value\n-;0.25\n")


def test_numeric_input_fields_accept_booleans_and_big_integers(tmp_path, capsys):
    """JSON booleans still read as 0/1 in real-valued fields, and integers
    beyond 64 bits as floats."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 1, "values": [True, 10**20]}))
    code, out, _ = run_cli(capsys, "decompose", "--table", str(path), "--output", "csv")
    assert (code, out) == (0, "coalition;value\n-;1.0\n1;1e+20\n")


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize(
    "source",
    [
        ("--table", "overflow.json"),
        ("--expr", "1e308*sin(3*x1 - 1.5)", "--x", "1"),
    ],
    ids=["table", "expr"],
)
def test_non_finite_synergy_is_usage_error_without_warnings(tmp_path, capsys, source, output):
    """A finite table whose Möbius transform overflows exits 2 on every
    decompose route, with only the error line on stderr."""
    (tmp_path / "overflow.json").write_text(json.dumps({"n": 1, "values": [-1e308, 1e308]}))
    source = [str(tmp_path / a) if a.endswith(".json") else a for a in source]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "decompose", *source, "--output", output)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "non-finite" in err


BINARY_METHODS = [m.id for m in REGISTRY.values() if m.kind == "table" and not m.oracle]


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [*(("interact", "--method", m) for m in BINARY_METHODS),
     *(("compare", m, m) for m in BINARY_METHODS)],
    ids=[*(f"interact-{m}" for m in BINARY_METHODS), *(f"compare-{m}" for m in BINARY_METHODS)],
)
def test_overflowing_table_gives_one_error_line_without_warnings(tmp_path, capsys, argv, output):
    """Every binary method on a table whose synergy overflows exits 2 with
    the error line alone on stderr, under interact and compare."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"n": 1, "values": [-1e308, 1e308]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--table", str(path), "--output", output)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "non-finite" in err


def test_main_builds_its_parser_once_and_parses_from_fresh_defaults(monkeypatch, capsys):
    configs = []

    def fake_suite(config):
        configs.append(config)
        return SimpleNamespace(results=[], ok=True)

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    default = SuiteConfig()
    for argv in (
        ["--method", "shapley", "--method", "ig", "--axiom", "completeness", "--seed", "3"],
        ["--method", "rs"],
        [],
    ):
        assert main(["check", *argv, "--output", "csv"]) == 0
    capsys.readouterr()
    assert [(c.methods, c.axioms, c.seed) for c in configs] == [
        (("shapley", "ig"), ("completeness",), 3),
        (("rs",), default.axioms, default.seed),
        (default.methods, default.axioms, default.seed),
    ]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_layout_caches_keep_no_layout_above_the_row_bound(tmp_path, capsys):
    """An 18-feature decompose builds its 2^18-row layout for the one call
    and caches none of it; neither do the JSON row heads of 2^17 rows."""
    caches = (core.coalition_layout, core._lex_order, core._json_row_heads)
    poly = {"n": 18, "terms": [{"m": [1] * 18, "c": 2.0}, {"m": [0] * 17 + [2], "c": -1.0}]}
    path = tmp_path / "p18.json"
    path.write_text(json.dumps(poly))
    for cache in caches:
        cache.cache_clear()
    code, out, _ = run_cli(capsys, "decompose", "--poly", str(path), "--x", ",".join(["1"] * 18),
                           "--output", "csv")
    assert code == 0 and out.count("\n") == (1 << 18) + 1
    assert len(core._json_row_heads(17, 17, "value")) == 1 << 17
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]
    small, _ = core.coalition_layout(16, 16)
    assert len(small) == core._CACHE_MAX_ROWS and small is core.coalition_layout(16, 16)[0]
    assert core.coalition_layout(17, 17)[0] is not core.coalition_layout(17, 17)[0]


def test_decompose_table_csv_matches_expression_route(tmp_path, capsys):
    """The table route and the expression route of a transcendental
    expression write the same order-n report."""
    text, x = "sin(x1*x2) + exp(x3)*x1 - cos(x2*x3) + 0.5", (0.7, -0.4, 0.9)
    expr = ex.parse(text, 3)
    table = build_table(Instance(x=x, baseline=(0.0,) * 3), lambda point: ex.evaluate(expr, point))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table.to_json_dict()))
    from_table = run_cli(capsys, "decompose", "--table", str(path), "--output", "csv")
    from_expr = run_cli(
        capsys, "decompose", "--expr", text, "--x", "0.7,-0.4,0.9", "--output", "csv"
    )
    assert from_table == from_expr
    code, out, _ = from_expr
    assert code == 0
    assert len(out.splitlines()) == 1 + 8


def test_decompose_polynomial_pieces_without_x(tmp_path, capsys):
    poly = {
        "n": 2,
        "center": [0.0, 0.0],
        "terms": [{"m": [1, 0], "c": 2.0}, {"m": [1, 2], "c": -1.0}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly))
    code, out, _ = run_cli(capsys, "decompose", "--poly", str(path))
    assert code == 0
    payload = json.loads(out)
    coalitions = [tuple(piece["coalition"]) for piece in payload["pieces"]]
    assert coalitions == [(1,), (1, 2)]
    code, out, _ = run_cli(capsys, "decompose", "--poly", str(path), "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coalition;m;c"
    assert "1;1,0;2.0" in lines
    assert "1+2;1,2;-1.0" in lines


def test_compare_shapley_vs_ig_contrast(tmp_path, capsys):
    poly = {"n": 2, "center": [0, 0], "terms": [{"m": [100, 1], "c": 1.0}]}
    path = tmp_path / "mono.json"
    path.write_text(json.dumps(poly))
    code, out, _ = run_cli(
        capsys, "compare", "shapley", "ig", "--poly", str(path), "--x", "2,2"
    )
    assert code == 0
    payload = json.loads(out)
    rows = {tuple(e["coalition"]): e for e in payload["entries"]}
    assert rows[(1,)]["left"] == pytest.approx(2.0**100, rel=1e-12)
    assert rows[(1,)]["right"] == pytest.approx((100 / 101) * 2.0**101, rel=1e-12)
    assert payload["max_abs_diff"] > 0


def test_compare_rs_against_nested_oracle(tmp_path, capsys):
    table = {"n": 4, "values": [((i * 37) % 11 - 5) / 7 for i in range(16)]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cli(
        capsys, "compare", "rs", "rs-nested", "--table", str(path), "-k", "3"
    )
    assert code == 0
    assert json.loads(out)["max_abs_diff"] < 1e-9


def test_nesting_oracles_take_every_order_up_to_six_features(tmp_path, capsys):
    """rs-nested and sop-nested agree with rs and sop at every k <= n <= 6;
    a seventh feature is a usage error."""
    rng = np.random.default_rng(2407)
    for n in range(1, 8):
        table = tmp_path / f"t{n}.json"
        table.write_text(json.dumps({"n": n, "values": rng.uniform(-1, 1, 1 << n).tolist()}))
        poly = tmp_path / f"p{n}.json"
        poly.write_text(json.dumps(make_polynomial(rng, n, degree=4).to_json_dict()))
        x = ",".join(map(repr, rng.uniform(-1, 1, n).tolist()))
        for k in (2,) if n == 7 else range(1, n + 1):
            for argv in (
                ("compare", "rs", "rs-nested", "--table", str(table)),
                ("compare", "sop", "sop-nested", "--poly", str(poly), "--x", x),
            ):
                code, out, err = run_cli(capsys, *argv, "-k", str(k))
                if n == 7:
                    assert (code, out, err) == (2, "", "error: nested oracle capped at n <= 6\n")
                else:
                    assert code == 0
                    assert json.loads(out)["max_abs_diff"] < 1e-9


def test_compare_ig_exact_vs_quadrature(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "ig", "ig-quad", "--expr", "x1^3 - 2*x1*x2", "--x", "0.8,-0.5",
    )
    assert code == 0
    assert json.loads(out)["max_abs_diff"] < 1e-8


def test_compare_csv_reports_max_residual(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "ih", "ih2-closed", "--expr", "x1*x2 + x2^2", "--x", "1,2",
        "-k", "2", "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coalition;ih;ih2-closed;abs_diff"
    assert lines[-1].startswith("max_abs_diff;;;")


def test_check_small_run_passes_and_is_deterministic(capsys):
    args = (
        "check", "--trials", "10", "--seed", "5",
        "--method", "shapley", "--method", "ih",
        "--axiom", "completeness", "--axiom", "baseline-test",
    )
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(first)
    assert payload["ok"] is True
    statuses = {(r["method"], r["axiom"]): r["status"] for r in payload["results"]}
    assert statuses[("ih", "baseline-test")] == "fail"  # documented, expected
    code, second, _ = run_cli(capsys, *args)
    assert first == second


def test_check_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--trials", "5", "--method", "shapley", "--axiom", "completeness",
        "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method;axiom;status;expected;max_residual;trials"
    assert lines[1].startswith("shapley;completeness;pass;pass;")


def test_check_config_file(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(
        json.dumps(
            {"seed": 4, "trials": 5, "methods": ["rs"], "axioms": ["completeness"]}
        )
    )
    code, out, _ = run_cli(capsys, "check", "--config", str(config))
    assert code == 0
    assert json.loads(out)["seed"] == 4


def test_check_bad_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "check", "--config", str(config))
    assert code == 2


def test_missing_source_is_usage_error(tmp_path, capsys):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"m": [1, 1], "c": 2.0}]}))
    # argparse prints its usage text first, then the message on the last line
    no_source = "synergy interact: error: one of the arguments --expr --poly --table is required"
    no_x = "error: --x is required with --poly"
    for argv, message in (
        (("interact", "--method", "shapley"), no_source),
        # every method on a polynomial needs the point x
        (("interact", "--method", "ig", "--poly", str(poly)), no_x),
        (("compare", "shapley", "rs", "--poly", str(poly)), no_x),
        (("compare", "ig", "ig-quad", "--poly", str(poly)), no_x),
        (("compare", "ih", "ih2-closed", "--poly", str(poly), "-k", "2"), no_x),
        (("compare", "sop", "sop-nested", "--poly", str(poly), "-k", "2"), no_x),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == message
        assert message == no_source or err == message + "\n"


# The whole message of each row of test_malformed_input_file_is_usage_error.
MALFORMED_INPUT_ERRORS = {
    "table-without-n": "table has no 'n' field",
    "term-without-c": "polynomial term has no 'c' field",
    "table-list": "table must be a JSON object, got list",
    "poly-list": "polynomial must be a JSON object, got list",
    "config-list": "suite config must be a JSON object, got list",
    "config-methods-string":
        "suite config field 'methods': expected a list of names, got 'shapley'",
    "config-tolerance-string":
        "tolerance_overrides['completeness'] must be a finite number >= 0, got 'x'",
    "config-tolerance-bool":
        "tolerance_overrides['completeness'] must be a finite number >= 0, got True",
    "config-tolerance-negative":
        "tolerance_overrides['completeness'] must be a finite number >= 0, got -1.0",
    "table-fractional-n": "table field 'n': expected an integer, got 2.9",
    "term-fractional-exponent": "polynomial term field 'm': expected an integer, got 1.5",
    "config-fractional-trials": "suite config field 'trials': expected an integer, got 2.5",
    "poly-infinite-center": "polynomial center (inf,) is not finite",
    "poly-n-above-cap": "polynomial field 'n': 1000000000000 is outside 0..63",
    "term-numeric-string-c": "polynomial term field 'c': expected a number, got '2.5'",
    "term-string-c": "polynomial term field 'c': expected a number, got 'abc'",
    "poly-string-center": "polynomial field 'center': expected a number, got '0.5'",
    "table-string-values": "table field 'values': expected numbers, got str32 items",
    "table-mixed-values": "table field 'values': expected numbers, got str1024 items",
    "table-null-value": "table field 'values': expected numbers, got object items",
    "poly-repeated-vector": "polynomial repeats the exponent vector (1,)",
    "poly-repeated-vector-term-by-term": "polynomial repeats the exponent vector (1,)",
    "table-boolean-n": "table field 'n': expected an integer, got True",
    "poly-boolean-n": "polynomial field 'n': expected an integer, got True",
    "config-boolean-trials": "suite config field 'trials': expected an integer, got True",
    "config-boolean-seed": "suite config field 'seed': expected an integer, got False",
    "term-boolean-exponent-string-c": "polynomial term field 'c': expected a number, got '2'",
    "term-infinite-exponent": "polynomial term field 'm': expected an integer, got inf",
    "term-overflowing-exponent": "polynomial term field 'm': expected an integer, got inf",
    "config-tolerance-overrides-string":
        "suite config field 'tolerance_overrides': expected a JSON object, got str",
    "config-tolerance-overrides-list":
        "suite config field 'tolerance_overrides': expected a JSON object, got list",
    "config-tolerance-overrides-pairs":
        "suite config field 'tolerance_overrides': expected a JSON object, got list",
    "poly-center-length": "center length does not match n",
    "table-nan-value": "table contains a non-finite value",
}


@pytest.mark.parametrize(
    "flag, payload, field",
    [
        ("--table", {"values": [0.0, 1.0]}, "'n'"),
        ("--poly", {"n": 1, "terms": [{"m": [1]}]}, "'c'"),
        ("--table", [0.0, 1.0], "JSON object"),
        ("--poly", [{"m": [1], "c": 1.0}], "JSON object"),
        ("--config", [{"seed": 1}], "JSON object"),
        ("--config", {"methods": "shapley"}, "'methods'"),
        *(
            ("--config", {"tolerance_overrides": {"completeness": tol}, "methods": ["shapley"],
                          "axioms": ["completeness"], "trials": 2},
             "tolerance_overrides['completeness']")
            for tol in ("x", True, -1.0)
        ),
        ("--table", {"n": 2.9, "values": [1.0, 2.0, 3.0, 4.0]}, "'n'"),
        ("--poly", {"n": 1, "terms": [{"m": [1.5], "c": 2.0}]}, "'m'"),
        ("--config", {"trials": 2.5, "methods": ["shapley"], "axioms": ["completeness"]},
         "'trials'"),
        ("--poly", {"n": 1, "center": [float("inf")], "terms": [{"m": [1], "c": 2.0}]},
         "center"),
        ("--poly", {"n": 10**12, "terms": []}, "'n'"),
        ("--poly", {"n": 1, "terms": [{"m": [1], "c": "2.5"}]}, "'c'"),
        ("--poly", {"n": 1, "terms": [{"m": [1], "c": "abc"}]}, "'c'"),
        ("--poly", {"n": 1, "center": ["0.5"], "terms": [{"m": [1], "c": 2.0}]}, "'center'"),
        ("--table", {"n": 1, "values": ["1", "2"]}, "'values'"),
        ("--table", {"n": 1, "values": [1.0, "2"]}, "'values'"),
        ("--table", {"n": 1, "values": [1.0, None]}, "'values'"),
        ("--poly", {"n": 1, "terms": [{"m": [1], "c": 1.0}, {"m": [1], "c": 2.0}]},
         "repeats the exponent vector (1,)"),
        # an integral float sends the file down the term-by-term check
        ("--poly", {"n": 1, "terms": [{"m": [1.0], "c": 1.0}, {"m": [1], "c": 0.0}]},
         "repeats the exponent vector (1,)"),
        # booleans read as 0 and 1 in exponents and real-valued fields only
        ("--table", {"n": True, "values": [1, 2]}, "'n'"),
        ("--poly", {"n": True, "terms": [{"m": [1], "c": 2.0}]}, "'n'"),
        ("--config", {"trials": True, "methods": ["shapley"], "axioms": ["completeness"]},
         "'trials'"),
        ("--config", {"seed": False, "trials": 2, "methods": ["shapley"],
                      "axioms": ["completeness"]}, "'seed'"),
        ("--poly", {"n": 1, "terms": [{"m": [True], "c": "2"}]}, "'c'"),
        # an exponent beyond every integer: JSON's Infinity, or a literal that overflows
        ("--poly", {"n": 1, "terms": [{"m": [float("inf")], "c": 1}]}, "field 'm'"),
        ("--poly", '{"n": 1, "terms": [{"m": [1e400], "c": 1}]}', "field 'm'"),
        # the overrides must be an object, not a string, a list or a list of pairs
        *(
            ("--config", {"tolerance_overrides": overrides}, "'tolerance_overrides'")
            for overrides in ("abc", [1, 2], [["completeness", 0.001]])
        ),
        ("--poly", {"n": 2, "center": [0.0], "terms": []}, "center"),
        ("--table", {"n": 1, "values": [float("nan"), 1.0]}, "non-finite"),
    ],
    ids=["table-without-n", "term-without-c", "table-list", "poly-list", "config-list",
         "config-methods-string", "config-tolerance-string", "config-tolerance-bool",
         "config-tolerance-negative", "table-fractional-n", "term-fractional-exponent",
         "config-fractional-trials", "poly-infinite-center", "poly-n-above-cap",
         "term-numeric-string-c", "term-string-c", "poly-string-center",
         "table-string-values", "table-mixed-values", "table-null-value",
         "poly-repeated-vector", "poly-repeated-vector-term-by-term",
         "table-boolean-n", "poly-boolean-n", "config-boolean-trials", "config-boolean-seed",
         "term-boolean-exponent-string-c", "term-infinite-exponent",
         "term-overflowing-exponent", "config-tolerance-overrides-string",
         "config-tolerance-overrides-list", "config-tolerance-overrides-pairs",
         "poly-center-length", "table-nan-value"],
)
def test_malformed_input_file_is_usage_error(tmp_path, capsys, request, flag, payload, field):
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    if flag == "--config":
        argv = ("check", "--config", str(path))
    else:
        argv = ("interact", flag, str(path), "--x", "1", "--method", "shapley")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert field in err
    assert err == f"error: {MALFORMED_INPUT_ERRORS[request.node.callspec.id]}\n"


@pytest.mark.parametrize(
    "flags, config",
    [
        (("--method", "bogus"), None),
        ((), {"methods": ["shapley", "bogus"]}),
        (("--trials", "0"), None),
        (("--trials", "-1"), None),
        (("--seed", "-1"), None),
        ((), {"seed": -1}),
        (("--axiom", "bogus"), None),
    ],
    ids=["unknown-method", "config-unknown-method", "zero-trials", "negative-trials",
         "negative-seed", "config-negative-seed", "unknown-axiom"],
)
def test_check_unknown_method_or_trials_below_one_is_usage_error(tmp_path, capsys, flags, config):
    argv = ["check", "--axiom", "completeness", *flags]
    if config is not None:
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and any(name in err for name in ("bogus", "trials", "seed"))


def test_poly_baseline_must_match_center(tmp_path, capsys):
    poly = {"n": 1, "center": [0.5], "terms": [{"m": [2], "c": 1.0}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly))
    code, _, err = run_cli(
        capsys,
        "interact", "--poly", str(path), "--x", "1", "--baseline", "0", "--method", "ig",
    )
    assert code == 2
    assert "center" in err
