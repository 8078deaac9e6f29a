"""Request mixes for the benchmark workloads.

A workload is a *round* of requests, built from the seed and the round
number: the shapes (feature counts, degrees, term counts, methods, orders,
signs of x - baseline) never change; coefficients, magnitudes, table values
and the axiom suite's seed do. The client sends round after round until its
time is up, so one run averages over several draws of values.

Every request carries its own correctness check. The reference values the
checks use (F at the input and at the baseline) are computed here, in plain
Python, from the same generated numbers the program receives, so they do
not depend on the program's parser or evaluator.

Every round ends with the same seven robustness probes: four invalid
requests that must exit 2 without a traceback, and three inputs that raise
out of ``main`` on the current code (a known defect each).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from synergy import expressions, grad_exact

WORKLOADS = ("lattice", "gradient", "axiom-check")

# Residual tolerances, as in the axiom suite and the acceptance tests.
EXACT_TOL = 1e-10
QUADRATURE_TOL = 1e-7
ORACLE_TOL = {
    "shapley-marginal": 1e-9,
    "st-marginal": 1e-9,
    "rs-nested": 1e-9,
    "sop-nested": 1e-9,
    "ih2-closed": 1e-8,
    "ih2-quad": 1e-8,
    "ig-quad": 1e-8,
}

# The axiom matrix, issued one cell per request.
CHECK_METHODS = (
    "shapley", "shapley-taylor", "rs", "rs-aug",
    "ig", "ih", "ih-aug", "sop", "ig-quad", "ih-quad",
)
CHECK_AXIOMS = (
    "completeness", "linearity", "null-feature", "symmetry",
    "baseline-test", "interaction-distribution", "continuity",
)
CHECK_TRIALS = 80

# Monomial sets are drawn once from this fixed seed so that every benchmark
# seed sends the same exponent structure; only coefficients vary.
STRUCTURE_SEED = 2305_03100


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: BaseException | None
    value: object = None


@dataclass
class Request:
    """One client request: CLI arguments, or a library call when argv is None.

    ``check`` returns None when the outcome is correct and a reason otherwise.
    ``known_defect`` names the exception a defect probe raises today.
    """

    label: str
    argv: tuple[str, ...] | None
    check: Callable[[Outcome], str | None]
    call: Callable[[], object] | None = None
    probe: bool = False
    known_defect: str = ""
    shape: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _relative(value: float, target: float) -> float:
    return abs(value - target) / max(1.0, abs(target))


def _clean_exit(outcome: Outcome) -> str | None:
    if outcome.error is not None:
        return f"raised {type(outcome.error).__name__}: {outcome.error}"
    if outcome.code != 0:
        return f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"
    return None


def expect_completeness(target: float, tol: float) -> Callable[[Outcome], str | None]:
    """Nonempty entries of an interact report sum to F(x) - F(baseline)."""

    def check(outcome: Outcome) -> str | None:
        bad = _clean_exit(outcome)
        if bad:
            return bad
        entries = json.loads(outcome.stdout)["entries"]
        total = math.fsum(e["value"] for e in entries if e["coalition"])
        residual = _relative(total, target)
        return None if residual <= tol else f"completeness residual {residual:.3e} > {tol:g}"

    return check


def expect_decomposition(fx: float, tol: float = EXACT_TOL) -> Callable[[Outcome], str | None]:
    """All synergies of a decompose report, the empty one included, sum to F(x)."""

    def check(outcome: Outcome) -> str | None:
        bad = _clean_exit(outcome)
        if bad:
            return bad
        payload = json.loads(outcome.stdout)
        if "entries" in payload:
            values = [e["value"] for e in payload["entries"]]
        else:
            values = payload["values"]
        residual = _relative(math.fsum(values), fx)
        return None if residual <= tol else f"decomposition residual {residual:.3e} > {tol:g}"

    return check


def expect_agreement(oracle: str) -> Callable[[Outcome], str | None]:
    tol = ORACLE_TOL[oracle]

    def check(outcome: Outcome) -> str | None:
        bad = _clean_exit(outcome)
        if bad:
            return bad
        diff = json.loads(outcome.stdout)["max_abs_diff"]
        return None if diff <= tol else f"max_abs_diff {diff:.3e} > {tol:g} against {oracle}"

    return check


def expect_suite_ok(outcome: Outcome) -> str | None:
    bad = _clean_exit(outcome)
    if bad:
        return bad
    last = outcome.stdout.strip().splitlines()[-1]
    return None if last == "ok;;;;true;" else f"suite not ok: {last!r}"


def expect_usage_error(outcome: Outcome) -> str | None:
    if outcome.error is not None:
        return f"raised {type(outcome.error).__name__} instead of exiting 2"
    if outcome.code != 2:
        return f"exit {outcome.code} instead of 2"
    if "Traceback" in outcome.stderr:
        return "traceback on stderr"
    return None


def _poly_value(poly: dict, point) -> float:
    """F at a point for a polynomial payload, summed exactly in Python."""
    center = poly["center"]
    parts = []
    for term in poly["terms"]:
        value = term["c"]
        for i, e in enumerate(term["m"]):
            if e:
                value *= (point[i] - center[i]) ** e
        parts.append(value)
    return math.fsum(parts)


def expect_library_completeness(point) -> Callable[[Outcome], str | None]:
    """The reports returned by a library call complete the polynomial they ran on."""

    def check(outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return f"raised {type(outcome.error).__name__}: {outcome.error}"
        poly, reports, f_center = outcome.value
        payload = poly.to_json_dict()
        if _relative(poly.constant_term(), f_center) > EXACT_TOL:
            return "taylor constant term differs from F(center)"
        target = _poly_value(payload, point) - poly.constant_term()
        for report in reports:
            total = math.fsum(v for c, v in report.entries.items() if c)
            residual = _relative(total, target)
            if residual > EXACT_TOL:
                return f"completeness residual {residual:.3e} on a taylor polynomial"
        return None

    return check


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _vector(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _signed(rng: np.random.Generator, low: float, high: float, size: int) -> list[float]:
    return (rng.uniform(low, high, size) * rng.choice([-1.0, 1.0], size)).tolist()


def _point(rng: np.random.Generator, n: int, low: float, high: float) -> list[float]:
    """Magnitudes from the seed; signs alternate +, -, +, ... whatever the seed.

    The signs are part of the shape: numpy's power takes a far slower path
    for negative bases, so seeds with different sign patterns would do
    different work.
    """
    return [(1.0 if i % 2 == 0 else -1.0) * v for i, v in enumerate(rng.uniform(low, high, n))]


def _join(terms: list[tuple[float, str]]) -> str:
    """Signed sum text: each coefficient is written positive after its sign."""
    text = ""
    for coef, body in terms:
        piece = f"{abs(coef)!r}*{body}"
        if not text:
            text = piece if coef >= 0 else f"-{piece}"
        else:
            text += f" {'-' if coef < 0 else '+'} {piece}"
    return text


class TranscendentalSum:
    """sum_i c_i*sin(a_i*x_i*x_j) + d_i*x_i^2*exp(b_i*x_j), j = i mod n + 1."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.n = n
        self.c = _signed(rng, 0.2, 1.0, n)
        self.a = rng.uniform(0.5, 1.5, n).tolist()
        self.d = _signed(rng, 0.2, 1.0, n)
        self.b = rng.uniform(0.05, 0.3, n).tolist()

    def pairs(self):
        return [(i, i % self.n + 1) for i in range(1, self.n + 1)]

    def text(self) -> str:
        terms = []
        for k, (i, j) in enumerate(self.pairs()):
            terms.append((self.c[k], f"sin({self.a[k]!r}*x{i}*x{j})"))
            terms.append((self.d[k], f"x{i}^2*exp({self.b[k]!r}*x{j})"))
        return _join(terms)

    def __call__(self, y) -> float:
        total = 0.0
        for k, (i, j) in enumerate(self.pairs()):
            total += self.c[k] * math.sin(self.a[k] * y[i - 1] * y[j - 1])
            total += self.d[k] * y[i - 1] ** 2 * math.exp(self.b[k] * y[j - 1])
        return total


class SmoothMix:
    """A small analytic function with sin, exp and cos, for quadrature and taylor."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.n = n
        self.c = _signed(rng, 0.2, 0.8, 6)

    def text(self) -> str:
        c = self.c
        terms = [
            (c[0], "sin(x1*x2)"),
            (c[1], "exp(0.4*x1*x2*x3)"),
            (c[2], "cos(x1 + x4)"),
            (c[3], "x2*x3"),
        ]
        if self.n >= 5:
            terms.append((c[4], "sin(x4*x5)"))
        if self.n >= 6:
            terms.append((c[5], "x6^2*exp(0.2*x5)"))
        return _join(terms)

    def __call__(self, y) -> float:
        c = self.c
        total = c[0] * math.sin(y[0] * y[1]) + c[1] * math.exp(0.4 * y[0] * y[1] * y[2])
        total += c[2] * math.cos(y[0] + y[3]) + c[3] * y[1] * y[2]
        if self.n >= 5:
            total += c[4] * math.sin(y[3] * y[4])
        if self.n >= 6:
            total += c[5] * y[5] ** 2 * math.exp(0.2 * y[4])
        return total


class PowerOfSums:
    """(sum_i a_i*x_i)^p, plus (b1*x1*x2 + b2*x3 + b3*x4*x5*x6)^3 when with_cube.

    A polynomial that only to_polynomial's expansion turns into terms."""

    def __init__(self, rng: np.random.Generator, n: int, p: int, with_cube: bool):
        self.n, self.p, self.with_cube = n, p, with_cube
        self.a = _signed(rng, 0.3, 1.0, n)
        self.b = _signed(rng, 0.3, 1.0, 3)

    def text(self) -> str:
        linear = _join([(self.a[i], f"x{i + 1}") for i in range(self.n)])
        text = f"({linear})^{self.p}"
        if self.with_cube:
            cube = _join([(self.b[0], "x1*x2"), (self.b[1], "x3"), (self.b[2], "x4*x5*x6")])
            text += f" + ({cube})^3"
        return text

    def __call__(self, y) -> float:
        total = sum(self.a[i] * y[i] for i in range(self.n)) ** self.p
        if self.with_cube:
            total += (self.b[0] * y[0] * y[1] + self.b[1] * y[2] + self.b[2] * y[3] * y[4] * y[5]) ** 3
        return total


def _monomials(n: int, degree: int, count: int) -> list[tuple[int, ...]]:
    """A fixed set of `count` exponent vectors of total degree <= degree."""
    pool = []
    for total in range(degree + 1):
        for slots in itertools.combinations_with_replacement(range(n), total):
            m = [0] * n
            for s in slots:
                m[s] += 1
            pool.append(tuple(m))
    rng = np.random.default_rng([STRUCTURE_SEED, n, degree, count])
    picked = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(picked)]


def _polynomial(rng: np.random.Generator, n: int, degree: int, count: int) -> dict:
    monomials = _monomials(n, degree, count)
    coefficients = _signed(rng, 0.1, 1.0, count)
    return {
        "n": n,
        "center": rng.uniform(-0.5, 0.5, n).tolist(),
        "terms": [{"m": list(m), "c": c} for m, c in zip(monomials, coefficients)],
    }


def _point_near(rng: np.random.Generator, center) -> list[float]:
    return [c + d for c, d in zip(center, _point(rng, len(center), 0.1, 1.0))]


class Round:
    """Collects the requests of one round and the input files they read."""

    def __init__(self, seed: int, round_index: int, workdir: Path):
        self.rng = np.random.default_rng([seed, round_index])
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.requests: list[Request] = []

    def write(self, name: str, payload: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def add(self, label, argv, check, **extra) -> None:
        self.requests.append(Request(label, tuple(argv) if argv is not None else None, check, **extra))

    # --- sources -----------------------------------------------------------

    def expr_source(self, name: str, f, n: int, baseline: bool):
        x = _point(self.rng, n, 0.1, 1.0)
        b = [-v for v in _point(self.rng, n, 0.0, 0.5)] if baseline else [0.0] * n
        argv = ["--expr", f.text(), "--x", _vector(x)]
        if baseline:
            argv += ["--baseline", _vector(b)]
        return argv, f(x), f(b), {"name": name, "n": n}

    def table_source(self, name: str, n: int):
        values = self.rng.uniform(-1.0, 1.0, 1 << n).tolist()
        path = self.write(f"{name}.json", {"n": n, "values": values})
        return ["--table", path], values[-1], values[0], {"name": name, "n": n, "values": len(values)}

    def poly_source(self, name: str, n: int, degree: int, count: int):
        poly = _polynomial(self.rng, n, degree, count)
        x = _point_near(self.rng, poly["center"])
        path = self.write(f"{name}.json", poly)
        fx, fb = _poly_value(poly, x), _poly_value(poly, poly["center"])
        degree = max(sum(t["m"]) for t in poly["terms"])
        shape = {"name": name, "n": n, "degree": degree, "terms": len(poly["terms"])}
        return ["--poly", path, "--x", _vector(x)], fx, fb, shape

    # --- requests ----------------------------------------------------------

    def interact(self, source, method: str, k: int, tol: float = EXACT_TOL) -> None:
        argv, fx, fb, shape = source
        self.add(
            f"interact:{method}:k{k}:{shape['name']}",
            ["interact", *argv, "--method", method, "-k", str(k)],
            expect_completeness(fx - fb, tol),
            shape=shape,
        )

    def decompose(self, source) -> None:
        argv, fx, _, shape = source
        self.add(
            f"decompose:{shape['name']}",
            ["decompose", *argv],
            expect_decomposition(fx),
            shape=shape,
        )

    def compare(self, source, left: str, oracle: str, k: int) -> None:
        argv, _, _, shape = source
        self.add(
            f"compare:{left}:{oracle}:k{k}:{shape['name']}",
            ["compare", left, oracle, *argv, "-k", str(k)],
            expect_agreement(oracle),
            shape=shape,
        )

    def probes(self) -> None:
        bad_table = self.write("probe-short-table.json", {"n": 3, "values": [0.5] * 5})
        invalid = [
            ("x-length", ["interact", "--expr", "x1*x2", "--x", "1,2,3", "--baseline", "0,0",
                          "--method", "shapley"]),
            ("k-above-n", ["interact", "--expr", "x1*x2", "--x", "0.5,0.25", "--method", "rs",
                           "-k", "3"]),
            ("unbound-name", ["interact", "--expr", "x1*y", "--x", "1,2", "--method", "shapley"]),
            ("table-length", ["interact", "--table", bad_table, "--method", "shapley"]),
        ]
        for name, argv in invalid:
            self.add(f"probe:{name}", argv, expect_usage_error, probe=True)
        defects = [
            ("exp-overflow", ["--expr", "exp(x1)", "--x", "1000"], "OverflowError"),
            ("pow-overflow", ["--expr", "x1^300", "--x", "1e10"], "OverflowError"),
            ("deep-parens", ["--expr", "(" * 3000 + "x1" + ")" * 3000, "--x", "1"], "RecursionError"),
        ]
        for name, source, error in defects:
            self.add(
                f"probe:{name}",
                ["interact", *source, "--method", "shapley"],
                expect_usage_error,
                probe=True,
                known_defect=error,
            )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _lattice(b: Round) -> None:
    e12, e13, e14 = (
        b.expr_source(f"trans{n}", TranscendentalSum(b.rng, n), n, baseline=True)
        for n in (12, 13, 14)
    )
    t14, t15, t16 = (b.table_source(f"table{n}", n) for n in (14, 15, 16))
    b.interact(e12, "shapley", 1)
    b.interact(e12, "shapley-taylor", 2)
    b.interact(e12, "rs", 3)
    b.decompose(e12)
    b.interact(e13, "rs-aug", 3)
    b.decompose(e14)
    b.interact(t14, "rs", 3)
    b.decompose(t14)
    b.decompose(t15)
    b.interact(t16, "shapley", 1)
    b.interact(t16, "shapley-taylor", 2)
    b.decompose(t16)
    small = [b.table_source(f"table{n}", n) for n in (4, 5, 6)]
    e6 = b.expr_source("trans6", TranscendentalSum(b.rng, 6), 6, baseline=True)
    b.compare(small[2], "shapley", "shapley-marginal", 1)
    b.compare(e6, "shapley", "shapley-marginal", 1)
    b.compare(small[1], "shapley-taylor", "st-marginal", 2)
    b.compare(small[2], "shapley-taylor", "st-marginal", 3)
    b.compare(small[0], "rs", "rs-nested", 2)
    b.compare(small[2], "rs", "rs-nested", 3)
    b.compare(e6, "rs", "rs-nested", 2)


def _gradient_methods(b: Round, source) -> None:
    b.interact(source, "ig", 1)
    b.interact(source, "ih", 2)
    b.interact(source, "ih", 3)
    b.interact(source, "ih-aug", 3)
    b.interact(source, "sop", 3)
    b.decompose(source)


def _gradient(b: Round) -> None:
    for n, degree, count in ((6, 8, 1500), (8, 7, 2500), (10, 6, 3600)):
        _gradient_methods(b, b.poly_source(f"poly{n}", n, degree, count))
    power6 = b.expr_source("power6", PowerOfSums(b.rng, 6, 7, with_cube=True), 6, baseline=False)
    power8 = b.expr_source("power8", PowerOfSums(b.rng, 8, 6, with_cube=False), 8, baseline=False)
    _gradient_methods(b, power6)
    _gradient_methods(b, power8)
    analytic = {
        n: b.expr_source(f"smooth{n}", SmoothMix(b.rng, n), n, baseline=True) for n in (4, 5, 6)
    }
    for source in analytic.values():
        b.interact(source, "ig", 1, QUADRATURE_TOL)
        b.interact(source, "ih", 2, QUADRATURE_TOL)
    small = b.poly_source("poly4", 4, 6, 49)
    b.compare(b.poly_source("poly5", 5, 5, 120), "sop", "sop-nested", 3)
    b.compare(b.poly_source("poly8-oracle", 8, 7, 2500), "ih", "ih2-closed", 2)
    b.compare(analytic[5], "ig", "ig-quad", 1)
    b.compare(small, "ig", "ig-quad", 1)
    b.compare(small, "ih", "ih2-closed", 2)
    b.compare(small, "ih", "ih2-quad", 2)
    for n, order in ((4, 8), (5, 7), (6, 6)):
        f = SmoothMix(b.rng, n)
        center = [-v for v in _point(b.rng, n, 0.0, 0.3)]
        x = tuple(_point(b.rng, n, 0.1, 0.8))
        text = f.text()

        def call(text=text, n=n, center=tuple(center), x=x, order=order, f=f):
            poly = expressions.taylor(expressions.parse(text, n), center, order)
            reports = (
                grad_exact.augmented_integrated_hessian(poly, x, 3),
                grad_exact.sum_of_powers(poly, x, 3),
            )
            return poly, reports, f(center)

        b.add(
            f"library:taylor{order}:smooth{n}",
            None,
            expect_library_completeness(x),
            call=call,
            shape={"name": f"smooth{n}", "n": n, "order": order},
        )


def _axiom_check(b: Round) -> None:
    seed = int(b.rng.integers(1, 2**31))
    common = ["--seed", str(seed), "--trials", str(CHECK_TRIALS), "--output", "csv"]
    for axiom in CHECK_AXIOMS:
        for method in CHECK_METHODS:
            b.add(
                f"check:{method}:{axiom}",
                ["check", *common, "--method", method, "--axiom", axiom],
                expect_suite_ok,
                shape={"trials": CHECK_TRIALS},
            )
    b.add(
        "check:uniqueness-support",
        ["check", *common, "--axiom", "uniqueness-support"],
        expect_suite_ok,
        shape={"trials": CHECK_TRIALS},
    )


def build(workload: str, seed: int, round_index: int, workdir: Path) -> list[Request]:
    """The requests of round `round_index` of `workload` for `seed`; inputs go to workdir."""
    b = Round(seed, round_index, workdir)
    if workload == "lattice":
        _lattice(b)
    elif workload == "gradient":
        _gradient(b)
    elif workload == "axiom-check":
        _axiom_check(b)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    b.probes()
    return b.requests


_NUMBER = re.compile(r"[-+]?\s?(?:\d+\.\d*(?:e[+-]?\d+)?|\d+e[+-]?\d+)")


def work_signature(requests: list[Request]) -> str:
    """Digest of the round's shape: labels, input sizes and the flags, with
    the check seed and every real number (with its sign) masked and input
    files named by basename."""
    lines = []
    for r in requests:
        argv = list(r.argv or ())
        argv = [
            "#" if before == "--seed" else Path(a).name if "/" in a else _NUMBER.sub("#", a)
            for before, a in zip([None, *argv], argv)
        ]
        lines.append(f"{r.label}|{json.dumps(r.shape, sort_keys=True)}|{' '.join(argv)}")
    return digest(lines)


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]
