"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, on a short round in this process, that

- a request whose report is perturbed and a request that raises out of
  ``main`` are both counted as failures, and in ``error_rate``;
- every workload declared in BENCHMARK.json builds, and every end-to-end
  and per-layer metric declared there is emitted, by name, with its unit;
- every request time of an untraced run is scaled, and a host at
  reference speed scales by 1;
- in a traced run, each request's self times plus its remainder add up to
  its wall time.

Exits 0 when all checks hold, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from synergy import cli  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PROBES = 7
FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def perturbed(request: workloads.Request) -> workloads.Request:
    """The same request, with one nonempty report entry shifted before the check."""

    def check(outcome: workloads.Outcome):
        payload = json.loads(outcome.stdout)
        entry = next(e for e in payload["entries"] if e["coalition"])
        entry["value"] += 1e-3
        outcome.stdout = json.dumps(payload)
        return request.check(outcome)

    return workloads.Request(f"{request.label}:perturbed", request.argv, check, shape=request.shape)


def raising(request: workloads.Request) -> workloads.Request:
    """A request for rs-aug, whose registry entry raises for the whole test."""
    argv = list(request.argv)
    argv[argv.index("--method") + 1] = "rs-aug"
    return workloads.Request(f"{request.label}:raising", tuple(argv), request.check, shape=request.shape)


def boom(table, k):
    raise RuntimeError("injected failure")


def short_round(original_build):
    """A lattice round cut to its fast requests, one perturbed, one raising, and the probes."""

    def build(workload, seed, round_index, workdir):
        requests = original_build("lattice", seed, round_index, workdir)
        fast = [r for r in requests if r.label.startswith("compare:")][:3]
        interact = next(r for r in requests if r.label == "interact:shapley:k1:table16")
        probes = [r for r in requests if r.probe]
        return fast + [perturbed(interact), raising(interact)] + probes

    return build


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "_work"))
    original_build = workloads.build
    original_rs_aug = cli.TABLE_METHODS["rs-aug"]
    try:
        for item in declared["workloads"]:
            built = original_build(item["name"], 1, 0, workdir / item["name"])
            expect(sum(r.probe for r in built) == PROBES, f"{item['name']}: probes missing")

        workloads.build = short_round(original_build)
        cli.TABLE_METHODS["rs-aug"] = boom
        for trace in (False, True):
            result = worker.run("lattice", 1, 0.0, trace, workdir / f"trace{int(trace)}")
            rounds = result["rounds"]
            expect(result["failed"] == 2 * rounds,
                   f"trace={trace}: failed={result['failed']}, expected the injected two per round")
            errors = result["failed"] + result["known_defects"]
            if not trace:
                rate = result["metrics"]["error_rate"][0]
                expect(abs(rate - errors / result["attempted"]) < 1e-15,
                       "error_rate is not (failed + known defects) / attempted")
                expect(rate == (2 + 3) / (5 + PROBES),
                       f"error_rate {rate} does not count the two injected failures")
                expect(len(result["scaled_latencies_s"]) == len(result["latencies_s"]),
                       "not every request time was scaled")
                expect(abs(reference.local_factor([reference.REFERENCE_S] * 8, 4) - 1.0) < 1e-12,
                       "a host at reference speed does not scale times by 1")
            if trace:
                expect(result["trace"]["max_closure_error_s"] < 1e-9,
                       "self times plus remainder do not add up to a request's wall time")
                expect(result["metrics"]["set_methods.shapley_s"][0] > 0,
                       "the traced run saw no set_methods.shapley span")
            section = "per_layer" if trace else "end_to_end"
            line = run.final_line(result, None if trace else 0.25)
            for metric in declared[section]:
                emitted = line["metrics"].get(metric["name"])
                expect(emitted is not None, f"{section} metric {metric['name']} not emitted")
                if emitted is not None:
                    expect(emitted["unit"] == metric["unit"],
                           f"{metric['name']}: unit {emitted['unit']} != {metric['unit']}")
            extra = set(line["metrics"]) - {m["name"] for m in declared[section]}
            expect(not extra, f"{section}: undeclared metrics {sorted(extra)}")
            expect(not line["correct"], "a run with injected failures reads as correct")
    finally:
        workloads.build = original_build
        cli.TABLE_METHODS["rs-aug"] = original_rs_aug
        shutil.rmtree(workdir, ignore_errors=True)

    for message in FAILURES:
        print(f"FAIL {message}")
    print("selftest ok" if not FAILURES else f"selftest: {len(FAILURES)} failure(s)")
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
