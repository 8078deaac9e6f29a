"""One workload in one fresh process: a single closed-loop client.

The client sends the round's requests one at a time, each after the
previous one has returned, to ``synergy.cli.main(argv)`` in this process
(stdout and stderr go to buffers), or to the library for the taylor
requests. It checks every outcome, and sends round after round until the
time is up, always finishing the round it is in, so every run sees the
same mix. In untraced runs the reference kernel (``reference.py``) is
timed after every request, outside the request's time, and the latency
figures are taken from request times scaled by it.

With ``--trace 1`` each request runs twice, once untraced and once traced,
in alternating order; per-layer figures come from the traced runs and
``trace.overhead_ratio`` compares the two.

Prints one JSON object on its last stdout line.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from synergy import cli

import reference
import tracing
import workloads

MIN_ROUNDS = 3  # untraced runs: enough requests for a tail percentile
MIN_TRACED_ROUNDS = 2  # traced runs: each request runs first once, second once
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
TIME_CAP_S = 140.0  # never start a round that could end past this
HELDOUT_OFFSET = 1_000_003  # the held-out seed whose work must match


def execute(request: workloads.Request) -> tuple[workloads.Outcome, float]:
    out, err = io.StringIO(), io.StringIO()
    code, value, error = None, None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if request.argv is not None:
                code = cli.main(list(request.argv))
            else:
                value = request.call()
    except Exception as exc:  # a request that raises out of main is a failed request
        error = exc
    wall = time.perf_counter() - start
    return workloads.Outcome(code, out.getvalue(), err.getvalue(), error, value), wall


def verdict(request: workloads.Request, outcome: workloads.Outcome) -> tuple[str, str | None]:
    """("ok" | "known-defect" | "failed", reason)."""
    try:
        reason = request.check(outcome)
    except Exception as exc:  # an output the check cannot read is a wrong output
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is None:
        return "ok", None
    if request.known_defect and type(outcome.error).__name__ == request.known_defect:
        return "known-defect", reason
    return "failed", reason


def tail_percentile(count: int) -> int:
    """Highest multiple of 5 whose nearest-rank value leaves TAIL_BEYOND samples after it."""
    for p in range(95, 0, -5):
        if count - math.ceil(p * count / 100) >= TAIL_BEYOND:
            return p
    return 50


def nearest_rank(values: list[float], p: int) -> tuple[float, int]:
    """The nearest-rank p-th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    index = max(0, math.ceil(p * len(ordered) / 100) - 1)
    return ordered[index], len(ordered) - index - 1


def harrell_davis(values: list[float], p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A mean of all order statistics weighted by a Beta(p(n+1), (1-p)(n+1))
    density: it leans on every sample near the percentile, not on one, so a
    single request caught by a slow or fast moment of the machine moves it
    less than it moves the plain order statistic.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200_001)
    inner = grid[1:-1]
    log_density = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    density = np.concatenate(([0.0], np.exp(log_density - log_density.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.defect_probes: dict[str, str] = {}
        self.failures: list[dict] = []
        self.output_lines: list[int] = []
        self.output_bytes = 0
        self.exit2 = 0
        self.uncaught = 0
        self.cli_requests = 0
        self.labels: list[str] = []
        self.kernel_times: list[float] = []
        self.kernel_slots: list[int] = []  # per latency: index of the kernel timed after it

    def record(self, request, outcome, wall, first_round: bool, twin=None) -> None:
        """Count one request; `twin` is the untraced run of a traced request."""
        status, reason = verdict(request, outcome)
        if status != "failed" and twin is not None:
            twin_status, twin_reason = verdict(request, twin)
            if twin_status == "failed":
                status, reason = "failed", f"untraced run: {twin_reason}"
        self.attempted += 1
        if not request.probe:
            self.latencies.append(wall)
            self.labels.append(request.label)
            self.by_label.setdefault(request.label, []).append(wall)
        if request.argv is not None:
            self.cli_requests += 1
            self.output_bytes += len(outcome.stdout.encode())
            self.exit2 += outcome.code == 2
            self.uncaught += outcome.error is not None
        if first_round:
            self.output_lines.append(outcome.stdout.count("\n"))
        if status == "known-defect":
            self.known_defects += 1
            self.defect_probes[request.label] = reason
        elif status == "failed":
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"request": request.label, "reason": reason})


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: str | None = None) -> dict:
    requests = workloads.build(workload, seed, 0, workdir / "run")
    signature = workloads.work_signature(requests)
    heldout_seed = seed + HELDOUT_OFFSET
    heldout = workloads.build(workload, heldout_seed, 0, workdir / "heldout")
    real = sum(1 for r in requests if not r.probe)
    tracer = tracing.Tracer() if trace else None
    patches = tracing.instrument(tracer) if trace else None

    execute(requests[0])  # warm-up, not counted
    tally = Tally()
    tally.kernel_times.append(reference.time_kernel())
    traced_wall = untraced_wall = 0.0
    remainder = closure_error = 0.0
    request_id = 0
    rounds = 0
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if rounds:
            requests = workloads.build(workload, seed, rounds, workdir / "run")
            if workloads.work_signature(requests) != signature:
                raise RuntimeError(f"round {rounds} of {workload} changed shape")
        for index, request in enumerate(requests):
            if not trace:
                outcome, wall = execute(request)
                tally.record(request, outcome, wall, rounds == 0)
                if not request.probe:
                    tally.kernel_slots.append(len(tally.kernel_times))
                tally.kernel_times.append(reference.time_kernel())
                continue
            order = (False, True) if (index + rounds) % 2 == 0 else (True, False)
            for traced in order:
                if not traced:
                    twin, wall = execute(request)
                    untraced_wall += wall
                    continue
                tracer.begin_request(request_id)
                patches.install()
                try:
                    outcome, traced_time = execute(request)
                finally:
                    patches.uninstall()
                traced_wall += traced_time
                left = traced_time - tracer.covered
                remainder += left
                closure_error = max(closure_error, abs(tracer.self_sum + left - traced_time))
            tally.record(request, outcome, traced_time, rounds == 0, twin)
            request_id += 1
        rounds += 1
        now = time.perf_counter()
        round_time = now - round_start
        elapsed = now - started
        if elapsed >= seconds and rounds >= (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS):
            break
        if elapsed + round_time > TIME_CAP_S:
            break
    measured = time.perf_counter() - started

    # The tail percentile is fixed per workload: the highest one that leaves
    # TAIL_BEYOND samples beyond it in the fewest rounds an untraced run makes.
    p = tail_percentile(MIN_ROUNDS * real)
    rank_tail, beyond = nearest_rank(tally.latencies, p)
    result = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "requests_per_round": len(requests),
        "measured_s": measured,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known_defects": tally.known_defects,
        "known_defect_probes": tally.defect_probes,
        "failures": tally.failures,
        "work_signature": signature,
        "heldout": {
            "seed": heldout_seed,
            "same_work": workloads.work_signature(heldout) == signature,
        },
        "output_lines_signature": workloads.digest(tally.output_lines),
        "tail": {
            "percentile": p,
            "samples_beyond": beyond,
            "samples": len(tally.latencies),
            "nearest_rank_s": rank_tail,
        },
        "latencies_s": tally.latencies,
        "latency_by_request_s": {
            label: statistics.median(values) for label, values in tally.by_label.items()
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }
    if not trace:
        errors = tally.failed + tally.known_defects
        scaled = [
            wall * reference.local_factor(tally.kernel_times, slot)
            for wall, slot in zip(tally.latencies, tally.kernel_slots)
        ]
        raw = latency_figures(tally.labels, tally.latencies, p)
        figures = latency_figures(tally.labels, scaled, p)
        result["raw"] = raw
        result["speed"] = {
            "kernel_s": reference.trimmed_mean(tally.kernel_times),
            "kernel_samples": len(tally.kernel_times),
            "reference_s": reference.REFERENCE_S,
            "kernel_times_s": tally.kernel_times,
            "kernel_slots": tally.kernel_slots,
        }
        result["scaled_latencies_s"] = scaled
        result["metrics"] = {
            "latency_p50_s": (figures["latency_p50_s"], "s"),
            "latency_tail_s": (figures["latency_tail_s"], "s"),
            "throughput_rps": (figures["throughput_rps"], "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "error_rate": (errors / tally.attempted, "ratio"),
        }
        return result
    if spans_path:
        tracer.save(spans_path)
    result["trace"] = {
        "spans": len(tracer.start),
        "max_closure_error_s": closure_error,
        "file": spans_path,
    }
    result["metrics"] = layer_metrics(tracer, tally, rounds, traced_wall, untraced_wall, remainder)
    return result


def latency_figures(labels: list[str], latencies: list[float], p: int) -> dict:
    """Percentiles and throughput of one typical round.

    The typical round holds each request's median latency over the run, so
    a few requests caught by a slow moment move it little, and its
    percentiles do not depend on how many rounds the run made.
    """
    by_label: dict[str, list[float]] = {}
    for label, value in zip(labels, latencies):
        by_label.setdefault(label, []).append(value)
    typical = [statistics.median(values) for values in by_label.values()]
    return {
        "latency_p50_s": harrell_davis(typical, 50),
        "latency_tail_s": harrell_davis(typical, p),
        "throughput_rps": len(typical) / math.fsum(typical),
    }


def layer_metrics(tracer, tally, rounds, traced_wall, untraced_wall, remainder) -> dict:
    """Per-layer figures from the traced requests, per round of the workload."""
    out: dict[str, tuple[float, str]] = {}

    def per_round(name, value, unit):
        out[name] = (value / rounds, unit)

    def inclusive(metric, span):
        per_round(metric, tracer.stat(span)[1], "s/round")

    def calls(metric, span):
        per_round(metric, tracer.stat(span)[0], "count/round")

    def count(metric):
        per_round(metric, tracer.counts.get(metric, 0.0), "count/round")

    inclusive("expressions.evaluate_s", "expressions.evaluate")
    calls("expressions.evaluate_calls", "expressions.evaluate")
    count("expressions.evaluate_points")
    inclusive("expressions.taylor_s", "expressions.taylor")
    count("expressions.taylor_terms")
    inclusive("expressions.partial_s", "expressions.partial")
    calls("expressions.partial_calls", "expressions.partial")
    inclusive("expressions.to_polynomial_s", "expressions.to_polynomial")
    count("expressions.to_polynomial_terms")
    inclusive("expressions.parse_s", "expressions.parse")
    inclusive("expressions.from_polynomial_s", "expressions.from_polynomial")

    per_round("set_methods.build_table_self_s", tracer.stat("set_methods.build_table")[2], "s/round")
    count("set_methods.build_table_f_calls")
    for method in ("shapley", "shapley_taylor", "recursive_shapley", "augmented_recursive_shapley",
                   "mobius", "oracle", "table_load"):
        inclusive(f"set_methods.{method}_s", f"set_methods.{method}")
    count("set_methods.mobius_ops")

    inclusive("core.report_build_s", "core.report_build")
    count("core.report_entries")
    inclusive("core.serialise_s", "core.serialise")
    inclusive("combinatorics.enumerate_coalitions_s", "combinatorics.enumerate_coalitions")
    inclusive("combinatorics.monomial_mass_s", "combinatorics.monomial_mass")
    calls("combinatorics.monomial_mass_calls", "combinatorics.monomial_mass")
    mass_calls = tracer.stat("combinatorics.monomial_mass")[0]
    nonzero = tracer.counts.get("combinatorics.monomial_mass_nonzero", 0.0)
    out["combinatorics.monomial_mass_nonzero_ratio"] = (
        nonzero / mass_calls if mass_calls else 0.0, "ratio")

    for method in ("integrated_gradients", "integrated_hessian", "augmented_integrated_hessian",
                   "sum_of_powers", "oracle"):
        inclusive(f"grad_exact.{method}_s", f"grad_exact.{method}")
    count("grad_exact.terms")
    inclusive("grad_numeric.ig_quadrature_s", "grad_numeric.ig_quadrature")
    inclusive("grad_numeric.ih2_quadrature_s", "grad_numeric.ih2_quadrature")
    count("grad_numeric.samples")

    inclusive("polynomials.load_s", "polynomials.load")
    inclusive("polynomials.evaluate_s", "polynomials.evaluate")
    calls("polynomials.evaluate_calls", "polynomials.evaluate")
    inclusive("polynomials.synergy_split_s", "polynomials.synergy_split")

    inclusive("axioms.cell_s", "axioms.cell")
    per_round("axioms.harness_self_s", tracer.stat("axioms.cell")[2], "s/round")
    count("axioms.trials")

    per_round("cli.output_bytes", tally.output_bytes, "B/round")
    per_round("cli.requests", tally.cli_requests, "count/round")
    per_round("cli.exit2", tally.exit2, "count/round")
    per_round("cli.uncaught", tally.uncaught, "count/round")
    for layer in tracing.LAYERS:
        per_round(f"{layer}.self_s", tracer.layer_self(layer), "s/round")

    per_round("trace.remainder_s", remainder, "s/round")
    per_round("trace.spans", len(tracer.start), "count/round")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans to this .npz file")
    args = parser.parse_args(argv)

    scratch = Path(__file__).resolve().parent / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
