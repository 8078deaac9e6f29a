"""Golden stdout corpus: each command's output, byte for byte.

The files under tests/data/golden/ hold the stdout of `synergy.cli.main` for
the commands in CASES, on the fixtures next to them. They pin the exact text
of every JSON and CSV writer (indentation, float repr, row order), so a
faster writer can be checked against the output of the previous one.
"""
from pathlib import Path

import json

import pytest

from synergy.cli import main
from synergy.combinatorics import enumerate_coalitions
from synergy.core import InteractionReport, report_from_values

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
TABLE = str(DATA / "table3.json")
POLY = str(DATA / "poly3.json")
# 640 terms of degree <= 7 over 6 features around a nonzero center
LARGE_POLY = ["--poly", str(DATA / "poly6-large.json"), "--x", "1.1,-0.3,0.9,0.2,-1.2,1.4"]
# its terms in descending exponent order; most supports hold several terms
REVERSED_POLY = DATA / "poly3-reversed.json"
EXPR = ["--expr", "sin(x1*x2) + x3*exp(x1 - x4) - 0.5*x2*x5^2",
        "--x", "0.5,-1.25,2,0.75,-0.1", "--baseline", "0.1,0.2,-0.3,0,0"]
# a polynomial whose exact expansion forms products of hundreds of term pairs
POWER_EXPR = ["--expr", "(0.3*x1 - 0.7*x2 + 0.45*x3 - 0.2*x4 + 0.6*x5 - 0.35*x6)^7"
              " + (0.5*x1*x2 - 0.8*x3)^3",
              "--x", "0.9,-0.4,1.3,0.2,-1.1,0.7", "--baseline", "0.25,0.5,-0.3,0.1,0.4,-0.6"]

# the axiom matrix on the exact methods; the quadrature methods and continuity
# are left out, as their Gauss rules come from LAPACK and differ in the last
# bit from one platform to another
EXACT_CHECK = ["check", "--seed", "2024", "--trials", "50",
               *(f"--method={m}" for m in ("shapley", "shapley-taylor", "rs", "rs-aug",
                                           "ig", "ih", "ih-aug", "sop")),
               *(f"--axiom={a}" for a in ("completeness", "linearity", "null-feature",
                                          "symmetry", "baseline-test",
                                          "interaction-distribution"))]

CASES = {
    "interact-table-rs-k2.json": ["interact", "--table", TABLE, "--method", "rs", "-k", "2"],
    "interact-table-rs-k2.csv": ["interact", "--table", TABLE, "--method", "rs", "-k", "2",
                                 "--output", "csv"],
    "interact-expr-st-k2.json": ["interact", *EXPR, "--method", "shapley-taylor", "-k", "2"],
    "interact-poly-ih-k2.csv": ["interact", "--poly", POLY, "--x", "1.5,0.25,-2",
                                "--method", "ih", "-k", "2", "--output", "csv"],
    "decompose-table.json": ["decompose", "--table", TABLE],
    "decompose-table.csv": ["decompose", "--table", TABLE, "--output", "csv"],
    "decompose-expr.json": ["decompose", *EXPR],
    "decompose-expr.csv": ["decompose", *EXPR, "--output", "csv"],
    "decompose-poly-x.json": ["decompose", "--poly", POLY, "--x", "1.5,0.25,-2"],
    "decompose-poly-x.csv": ["decompose", "--poly", POLY, "--x", "1.5,0.25,-2",
                             "--output", "csv"],
    "compare-table-rs-k2.json": ["compare", "rs", "rs-nested", "--table", TABLE, "-k", "2"],
    "compare-table-rs-k2.csv": ["compare", "rs", "rs-nested", "--table", TABLE, "-k", "2",
                                "--output", "csv"],
    "compare-expr-shapley.json": ["compare", "shapley", "ig-quad", *EXPR],
    "compare-table-rs-k3.json": ["compare", "rs", "rs-nested", "--table", TABLE, "-k", "3"],
    "compare-table-shapley-marginal.json": ["compare", "shapley", "shapley-marginal",
                                            "--table", TABLE],
    "compare-table-st-marginal-k2.json": ["compare", "shapley-taylor", "st-marginal",
                                          "--table", TABLE, "-k", "2"],
    "compare-poly-ih-ih2-closed-k2.json": ["compare", "ih", "ih2-closed", "--poly", POLY,
                                           "--x", "1.5,0.25,-2", "-k", "2"],
    "compare-poly-sop-nested-k2.json": ["compare", "sop", "sop-nested", "--poly", POLY,
                                        "--x", "1.5,0.25,-2", "-k", "2"],
    "compare-poly-sop-nested-k3.json": ["compare", "sop", "sop-nested", "--poly", POLY,
                                        "--x", "1.5,0.25,-2", "-k", "3"],
    "decompose-poly.json": ["decompose", "--poly", POLY],
    "decompose-poly.csv": ["decompose", "--poly", POLY, "--output", "csv"],
    "interact-poly-st-k2.json": ["interact", "--poly", POLY, "--x", "1.5,0.25,-2",
                                 "--method", "shapley-taylor", "-k", "2"],
    "compare-poly-ig-ig-quad.json": ["compare", "ig", "ig-quad", "--poly", POLY,
                                     "--x", "1.5,0.25,-2"],
    "interact-expr-power-ih-k3.json": ["interact", *POWER_EXPR, "--method", "ih", "-k", "3"],
    "decompose-expr-power.csv": ["decompose", *POWER_EXPR, "--output", "csv"],
    "decompose-expr-power.json": ["decompose", *POWER_EXPR],
    "interact-expr-power-ig.json": ["interact", *POWER_EXPR, "--method", "ig"],
    "interact-expr-power-ih-k2.json": ["interact", *POWER_EXPR, "--method", "ih", "-k", "2"],
    "interact-expr-power-ih-aug-k3.json": ["interact", *POWER_EXPR, "--method", "ih-aug",
                                           "-k", "3"],
    "interact-expr-power-sop-k3.json": ["interact", *POWER_EXPR, "--method", "sop", "-k", "3"],
    "interact-poly6-large-ih-k3.json": ["interact", *LARGE_POLY, "--method", "ih", "-k", "3"],
    "decompose-poly6-large-x.json": ["decompose", *LARGE_POLY],
    "check-seed2024-trials50.csv": [*EXACT_CHECK, "--output", "csv"],
    # the JSON form also pins each failing cell's witness: its trial and coalition
    "check-seed2024-trials50.json": [*EXACT_CHECK, "--output", "json"],
    # the whole default matrix: the quadrature cells, continuity and
    # uniqueness support too, so its Gauss-rule bits are this platform's
    "check-seed2024-trials50-all.json": ["check", "--seed", "2024", "--trials", "50",
                                         "--output", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(name for name, argv in CASES.items() if POLY in argv))
def test_poly_commands_print_the_same_bytes_whatever_the_term_order(name, tmp_path, capsys):
    """Every sum over a polynomial's terms runs in ascending exponent order:
    a file listing its terms in descending order prints the same bytes as
    its sorted twin, where a sum in file order would differ in the last bits."""
    payload = json.loads(REVERSED_POLY.read_text())
    descending = sorted(payload["terms"], key=lambda t: t["m"], reverse=True)
    assert payload["terms"] == descending
    twin = tmp_path / "sorted.json"
    twin.write_text(json.dumps({**payload, "terms": descending[::-1]}))
    printed = []
    for path in (REVERSED_POLY, twin):
        assert main([str(path) if arg == POLY else arg for arg in CASES[name]]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def _golden_report_entries(name):
    """Coalition -> value of a golden report file, in the file's row order."""
    text = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        return {tuple(e["coalition"]): e["value"] for e in json.loads(text)["entries"]}
    rows = (line.split(";") for line in text.splitlines()[1:])
    return {
        tuple(map(int, label.split("+"))) if label != "-" else (): float(value)
        for label, value in rows
    }


# the synergy table, the symbolic pieces and the axiom matrix are not reports
REPORTS = sorted(
    name for name in CASES
    if not name.startswith(("compare", "check"))
    and name not in {"decompose-table.json", "decompose-poly.json", "decompose-poly.csv"}
)


@pytest.mark.parametrize("name", REPORTS)
def test_array_backed_report_reads_like_its_golden_entries(name):
    """On every golden report, the report built from its entries has the
    entries, values, total, equality and payload the entry map gives."""
    entries = _golden_report_entries(name)
    n = sum(1 for c in entries if len(c) == 1)
    order = max(map(len, entries))
    report = report_from_values(n, order, entries)
    layout = enumerate_coalitions(n, order)
    assert list(report.entries) == layout
    assert dict(report.entries) == entries and len(report.entries) == len(layout)
    assert report.values.tolist() == [entries[c] for c in layout]
    assert all(report.value(reversed(c)) == v for c, v in entries.items())
    total = 0.0  # left to right: the builtin sum compensates from Python 3.12 on
    for c, v in sorted(entries.items()):
        if c:
            total += v
    assert report.total() == total
    assert report.to_json_dict() == {
        "order": order,
        "entries": [{"coalition": list(c), "value": entries[c]} for c in sorted(entries)],
    }
    text = (GOLDEN / name).read_text()
    assert (report.to_json() + "\n" if name.endswith(".json") else report.to_csv()) == text
    assert report == InteractionReport(n, order, [entries[c] for c in layout])
    bumped = dict(entries)
    bumped[layout[-1]] = 2.0 * entries[layout[-1]] + 1.0
    assert report != report_from_values(n, order, bumped)
