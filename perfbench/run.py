"""Benchmark of the synergy CLI: one workload per invocation.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``). The workloads are declared in ``BENCHMARK.json``:

- ``lattice``: binary-feature methods (Möbius transform, superset loops,
  2^n tabulation, 2^n-entry decompose output) plus their n <= 6 oracles;
- ``gradient``: gradient methods on 1.5k-3.6k-term polynomials, expanded
  polynomial expressions, quadrature on transcendental expressions, the
  gradient oracles, and taylor + rules through the library;
- ``axiom-check``: every method x axiom cell of ``check``, one per request,
  plus ``uniqueness-support``.

With ``--trace 0`` it prints the end-to-end metrics:

- ``setup_s``: median wall time of 11 fresh interpreters that import the CLI
  and build its parser;
- ``latency_p50_s`` and ``latency_tail_s``: Harrell-Davis estimates of the
  median and of the tail percentile of request wall time over one typical
  round, made of each request's median latency over the run; the
  percentile is fixed per workload (the highest multiple of 5 that leaves
  10 samples beyond it in a 3-round run) and printed in the record with
  the count;
- ``throughput_rps``: requests per second of client time in that typical
  round;
- ``peak_rss_mb``: peak resident memory of the worker process;
- ``error_rate``: failed requests, the known-defect probes included, over
  attempted requests.

Request times are scaled to reference speed before these figures are
taken (see ``reference.py``): a fixed kernel is timed after every request,
and each request's time is multiplied by the kernel's reference time over
its mean time around that request, so a slow phase of a shared host does
not read as a slower program. ``setup_s`` is not scaled: start-up slows
far less than the kernel in a slow phase. The unscaled figures are in the
record.

Latency and throughput leave out the robustness probes. With ``--trace 1``
it prints the per-layer metrics of a traced run, per round of the workload.
The line before the last one holds the run record: environment, tail
percentile and sample count, held-out seed check, failures, and the
latency of every request.

``failed`` in the result counts unexpected failures only; the three probes
that raise out of ``main`` today are counted as known defects (in
``error_rate`` and in the record), so ``correct`` stays true until something
else breaks.

Left out of the robustness probes on purpose: ``(x1+1)^5000``, which hangs,
and ``--quad-nodes 100000000``, which raises MemoryError after exhausting
memory; either would stall or crash the run.

Exit code 0 with a result, 2 when the checkout has no program to measure,
1 when the worker fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 11
DEADLINE_S = 175.0

# One thread for every BLAS/OpenMP pool and a fixed hash seed, for the
# worker processes only.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def measure_setup(env: dict) -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter that imports the CLI and builds its parser."""
    argv = [sys.executable, "-c", "import synergy.cli as c; c.build_parser()"]
    # The first run fills the bytecode cache and would catch a hanging import.
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
    times = []
    for _ in range(SETUP_RUNS):
        # No timeout here: with one, wait() polls with sleeps of up to 50 ms,
        # which would quantise the measurement.
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def loadavg() -> list[float]:
    return [float(v) for v in _read("/proc/loadavg").split()[:3]]


def steal_ticks() -> int | None:
    """CPU time the hypervisor gave to others, summed over CPUs (USER_HZ ticks)."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def environment() -> dict:
    models = [
        line.split(":", 1)[1].strip()
        for line in _read("/proc/cpuinfo").splitlines()
        if line.startswith("model name")
    ]
    sources = sorted((ROOT / "src" / "synergy").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="synergy CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "synergy" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'synergy'} is missing", file=sys.stderr)
        return 2
    env = worker_env()
    record = {"environment": environment(), "loadavg_start": loadavg(), "seed": args.seed}
    steal_start = steal_ticks()
    setup = None
    if not args.trace:
        setup, setup_runs = measure_setup(env)
        record["setup_runs_s"] = setup_runs

    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        (HERE / "_work").mkdir(exist_ok=True)
        command += ["--spans", str(HERE / "_work" / f"spans-{args.workload}.npz")]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        print("worker did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record["loadavg_end"] = loadavg()
    steal_end = steal_ticks()
    if steal_start is not None and steal_end is not None:
        record["steal_ticks"] = steal_end - steal_start
    print(json.dumps({"record": record | {k: v for k, v in result.items() if k != "metrics"}}))
    print(json.dumps(final_line(result, setup)))
    return 0


def final_line(result: dict, setup: float | None) -> dict:
    """The result object: correctness, request counts and the metrics with units."""
    metrics = dict(result["metrics"])
    if setup is not None:
        metrics["setup_s"] = (setup, "s")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
