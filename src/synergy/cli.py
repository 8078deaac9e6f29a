"""Command-line surface: run methods, decompose synergies, compare engines,
and run the axiom suite, emitting JSON or CSV.

Exit codes: 0 success, 1 unexpected axiom failure (`check`), 2 usage or
validation error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import expressions as ex
from . import grad_exact, set_methods
from .axioms import SuiteConfig, run_suite
from .core import (
    Instance,
    InteractionReport,
    comparison_to_csv,
    comparison_to_json,
    format_coalition,
    validate_instance,
)
from .exceptions import SynergyError
from .grad_numeric import QuadratureConfig
from .methods import REGISTRY, Method
from .polynomials import SparsePolynomial

# A view of the public binary runners. Table-kind dispatch looks a method up
# here before its registry record, so perfbench/selftest.py can swap in a
# failing runner.
TABLE_METHODS = {
    m.id: m.run for m in REGISTRY.values() if m.kind == "table" and not m.oracle
}


class UsageError(SynergyError):
    """Bad flags or an invalid combination of inputs."""


@dataclass
class FunctionSource:
    kind: str  # expr | poly | table
    quadrature: QuadratureConfig  # the rule of the analytic engines
    expr: ex.Expr | None = None
    poly: SparsePolynomial | None = None
    table: set_methods.SetFunctionTable | None = None


def _parse_point(text: str, label: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise UsageError(f"{label} must be comma-separated reals: {err}") from None


def _parse_lets(pairs: list[str]) -> dict[str, float]:
    bindings: dict[str, float] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--let expects NAME=VALUE, got {pair!r}")
        try:
            bindings[name] = float(value)
        except ValueError:
            raise UsageError(f"--let {name}: {value!r} is not a number") from None
    return bindings


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _load_source(args) -> tuple[FunctionSource, Instance | None]:
    """Resolve the function source plus the instance (None for raw tables)."""
    quadrature = QuadratureConfig(nodes=args.quad_nodes, panels=args.quad_panels)
    lets = _parse_lets(getattr(args, "let", None))
    if args.table is not None:
        table = set_methods.SetFunctionTable.from_json_dict(_load_json(args.table))
        return FunctionSource("table", quadrature, table=table), None
    if args.poly is not None:
        poly = SparsePolynomial.from_json_dict(_load_json(args.poly))
        if args.x is None:
            return FunctionSource("poly", quadrature, poly=poly), None
        x = _parse_point(args.x, "--x")
        baseline = (
            _parse_point(args.baseline, "--baseline") if args.baseline else poly.center
        )
        if baseline != poly.center:
            raise UsageError(
                "--baseline must equal the polynomial's center (recentering is not provided)"
            )
        inst = Instance(x=x, baseline=baseline)
        validate_instance(inst)
        return FunctionSource("poly", quadrature, poly=poly), inst
    if args.x is None:
        raise UsageError("--x is required with --expr")
    x = _parse_point(args.x, "--x")
    n = len(x)
    baseline = (
        _parse_point(args.baseline, "--baseline") if args.baseline else (0.0,) * n
    )
    inst = Instance(x=x, baseline=baseline)
    validate_instance(inst)
    expr = ex.parse(args.expr, n, lets)
    return FunctionSource("expr", quadrature, expr=expr), inst


def _source_table(source: FunctionSource, inst: Instance | None) -> set_methods.SetFunctionTable:
    if source.kind == "table":
        return source.table
    if inst is None:
        raise UsageError("--x is required to tabulate this source")
    if source.kind == "poly":
        return set_methods.build_table(inst, source.poly.evaluate)
    return set_methods.build_table(inst, lambda point: ex.evaluate(source.expr, point))


def _source_polynomial(source: FunctionSource, inst: Instance) -> SparsePolynomial | None:
    if source.kind == "poly":
        return source.poly
    return ex.to_polynomial(source.expr, inst.baseline)


def _source_expression(source: FunctionSource) -> ex.Expr:
    if source.kind == "expr":
        return source.expr
    return ex.from_polynomial(source.poly)


def _check_order(method: Method, k: int) -> None:
    if method.order is not None and k != method.order:
        raise UsageError(f"method {method.id!r} only supports -k {method.order}")


def _require_x(method: Method, inst: Instance | None) -> Instance:
    if inst is None:
        raise UsageError(f"--x is required with --poly for method {method.id!r}")
    return inst


def _run_engine(engine: str, source: FunctionSource, inst: Instance | None, k: int) -> InteractionReport:
    """Resolve the source into the input the engine's kind takes, check the
    order, and run it."""
    method = REGISTRY[engine]
    if method.kind == "table":
        table = _source_table(source, inst)
        _check_order(method, k)
        return TABLE_METHODS.get(engine, method.run)(table, k)
    if source.kind == "table":
        raise UsageError(f"method {engine!r} needs gradients; a table source only supports "
                         f"{', '.join(sorted(TABLE_METHODS))}")
    if method.kind == "analytic":
        expr = _source_expression(source)
        _check_order(method, k)
        return method.run(expr, _require_x(method, inst), source.quadrature)
    poly = _source_polynomial(source, inst)
    if poly is None:
        # transcendental expression: a method with a quadrature form runs it
        # at that form's order; the others need a polynomial source
        quadrature = REGISTRY.get(method.quadrature)
        if quadrature is None or k != quadrature.order:
            raise UsageError(
                f"method {engine!r} (k={k}) needs a polynomial-expressible source; "
                "this expression is transcendental"
            )
        return quadrature.run(source.expr, inst, source.quadrature)
    _check_order(method, k)
    return method.run(poly, _require_x(method, inst).x, k)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_interact(args) -> int:
    source, inst = _load_source(args)
    if source.kind == "poly" and inst is None:
        raise UsageError("--x is required with --poly for interact")
    report = _run_engine(args.method, source, inst, args.k)
    _emit(report.to_csv() if args.output == "csv" else report.to_json())
    return 0


def cmd_decompose(args) -> int:
    source, inst = _load_source(args)
    if source.kind == "poly" and inst is None:
        pieces = source.poly.synergy_split()
        if args.output == "csv":
            lines = ["coalition;m;c"]
            for coalition, piece in sorted(pieces.items()):
                label = format_coalition(coalition)
                lines += (f"{label};{','.join(map(str, m))};{c!r}" for m, c in piece.terms.items())
            _emit("\n".join(lines))
            return 0
        payload = {
            "n": source.poly.n,
            "center": list(source.poly.center),
            "pieces": [
                {"coalition": list(coalition), "terms": piece.to_json_dict()["terms"]}
                for coalition, piece in sorted(pieces.items())
            ],
        }
        _emit(json.dumps(payload, indent=2))
        return 0
    # evaluated routes: the order-n report of synergy values at x. On a
    # polynomial that is ih-aug at k = n, whose rule pins every monomial to
    # its support; otherwise the masked-point Möbius route.
    poly = None if source.kind == "table" else _source_polynomial(source, inst)
    if poly is not None:
        report = grad_exact.augmented_integrated_hessian(poly, inst.x, poly.n)
    else:
        table = _source_table(source, inst)
        synergies = set_methods.mobius(table)
        if source.kind == "table" and args.output == "json":
            # a table's JSON form is the synergy table in the subset encoding
            _emit(synergies.to_json())
            return 0
        report = InteractionReport.from_masks(synergies.n, synergies.n, synergies.values)
    _emit(report.to_csv() if args.output == "csv" else report.to_json())
    return 0


def cmd_compare(args) -> int:
    source, inst = _load_source(args)
    left = _run_engine(args.left, source, inst, args.k)
    right = _run_engine(args.right, source, inst, args.k)
    write = comparison_to_csv if args.output == "csv" else comparison_to_json
    _emit(write(left, right, (args.left, args.right)))
    return 0


def cmd_check(args) -> int:
    if args.config:
        config = SuiteConfig.from_json_dict(_load_json(args.config))
    else:
        config = SuiteConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.method:
        overrides["methods"] = tuple(args.method)
    if args.axiom:
        overrides["axioms"] = tuple(args.axiom)
    config = replace(config, **overrides)
    result = run_suite(config)
    if args.output == "csv":
        lines = ["method;axiom;status;expected;max_residual;trials"]
        for r in result.results:
            lines.append(
                f"{r.method};{r.axiom};{r.status};{r.expected};{r.max_residual!r};{r.trials}"
            )
        lines.append(f"ok;;;;{str(result.ok).lower()};")
        _emit("\n".join(lines))
    else:
        _emit(json.dumps(result.to_json_dict(), indent=2))
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="expression text over x1..xn")
    group.add_argument("--poly", help="polynomial JSON file")
    group.add_argument("--table", help="set-function table JSON file")
    parser.add_argument("--x", help="input point, comma-separated reals")
    parser.add_argument("--baseline", help="baseline point (default: zeros / the polynomial center)")
    parser.add_argument("--let", action="append", metavar="NAME=VALUE",
                        help="bind a named constant (repeatable)")
    parser.add_argument("--quad-nodes", type=int, default=64,
                        help="Gauss-Legendre nodes per panel (default 64)")
    parser.add_argument("--quad-panels", type=int, default=4,
                        help="composite quadrature panels (default 4)")


def _add_output_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the command line."""
    parser = argparse.ArgumentParser(
        prog="synergy",
        description="Game-theoretic attributions and k-th-order interactions "
        "via exact synergy decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    interact = sub.add_parser("interact", help="run one method on one instance")
    _add_source_flags(interact)
    interact.add_argument(
        "--method", required=True, choices=[m.id for m in REGISTRY.values() if not m.oracle]
    )
    interact.add_argument("-k", type=int, default=1, help="interaction order (default 1)")
    _add_output_flag(interact)
    interact.set_defaults(handler=cmd_interact)

    decompose = sub.add_parser(
        "decompose", help="exact synergy decomposition of a function"
    )
    _add_source_flags(decompose)
    _add_output_flag(decompose)
    decompose.set_defaults(handler=cmd_decompose)

    compare = sub.add_parser("compare", help="run two engines side by side")
    compare.add_argument("left", choices=list(REGISTRY))
    compare.add_argument("right", choices=list(REGISTRY))
    _add_source_flags(compare)
    compare.add_argument("-k", type=int, default=1, help="interaction order (default 1)")
    _add_output_flag(compare)
    compare.set_defaults(handler=cmd_compare)

    check = sub.add_parser("check", help="run the axiom suite")
    check.add_argument("--config", help="suite config JSON file")
    check.add_argument("--seed", type=int)
    check.add_argument("--trials", type=int)
    check.add_argument("--method", action="append", help="restrict to a method (repeatable)")
    check.add_argument("--axiom", action="append", help="restrict to an axiom (repeatable)")
    _add_output_flag(check)
    check.set_defaults(handler=cmd_check)
    return parser


_VECTOR_FLAGS = ("--x", "--baseline")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join vector flags with their values so negative components are not
    mistaken for option names."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in _VECTOR_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use. Parsing leaves it as it
    was: every parse starts from fresh defaults and fresh append lists."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_normalize_argv(list(argv)))
    except SystemExit as exit_:  # argparse uses 2 for usage errors
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        # a value beyond the float range becomes inf or nan, which every
        # report and writer rejects with its own error; numpy's warning would
        # only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (SynergyError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OverflowError as err:
        print(f"error: numeric overflow: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
