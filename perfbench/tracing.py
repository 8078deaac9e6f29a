"""Span tracer that wraps the program's public functions from outside.

Each traced function is replaced, wherever a synergy module holds a
reference to it, by a wrapper that records a span: name, start, end, parent
span and request id. Module attributes, entries of module-level dicts
(method registries), fields of the dataclasses stored there, and closure
cells of the functions stored there are all redirected, so a call is traced
through whichever reference its caller resolves. ``install`` and
``uninstall`` swap the wrappers in and out, so untraced requests run the
original code with no wrapper on the call path.

Functions that recurse through their own module attribute (``evaluate``,
``partial``) and functions that nest inside one another under one span name
are timed at the outermost call only.

Self time is a span's duration minus the time its child spans cover; the
tracer accumulates it as spans close. Spans are kept in memory as columns
and written out with ``save`` when the run ends.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from synergy import (
    axioms,
    cli,
    combinatorics,
    core,
    expressions,
    grad_exact,
    grad_numeric,
    polynomials,
    set_methods,
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.depth: list[int] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        # span columns
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[list] = []  # [span index, start, child time]
        self.request_id = -1
        self.covered = 0.0
        self.self_sum = 0.0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self.covered = 0.0
        self.self_sum = 0.0

    def open(self, nid: int) -> None:
        index = len(self.start)
        parent = self._stack[-1][0] if self._stack else -1
        self.depth[nid] += 1
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)
        self.name.append(nid)
        self.parent.append(parent)
        self.request.append(self.request_id)
        self._stack.append([index, now, 0.0])

    def close(self, nid: int) -> None:
        now = perf_counter()
        index, start, child = self._stack.pop()
        self.end[index] = now
        self.depth[nid] -= 1
        duration = now - start
        own = duration - child
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += own
        self.self_sum += own
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered += duration

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def layer_self(self, layer: str) -> float:
        return sum(
            self.self_time[i] for i, n in enumerate(self.names) if n.split(".")[0] == layer
        )

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            counts=np.array(json.dumps(self.counts)),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _wrapper(tracer: Tracer, name: str, fn, count=None, recursive=None):
    """A traced stand-in for fn.

    `recursive` is the module through whose attribute fn calls itself: the
    original is put back there for the duration of the outermost call, so
    the inner calls run unwrapped.
    """
    nid = tracer.intern(name)
    depth = tracer.depth
    attr = fn.__name__

    def traced(*args, **kwargs):
        if depth[nid]:
            return fn(*args, **kwargs)
        tracer.open(nid)
        if recursive is not None:
            setattr(recursive, attr, fn)
        try:
            result = fn(*args, **kwargs)
        finally:
            if recursive is not None:
                setattr(recursive, attr, traced)
            tracer.close(nid)
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return functools.wraps(fn)(traced)


# --- counters computed at the span boundary --------------------------------

def _points(counts, args, result):
    counts["expressions.evaluate_points"] += getattr(args[1][0], "size", 1) if len(args[1]) else 1


def _terms_of_result(key):
    def count(counts, args, result):
        counts[key] += len(result.terms) if result is not None else 0
    return count


def _terms_of_input(counts, args, result):
    counts["grad_exact.terms"] += len(args[0].terms)


def _table_calls(counts, args, result):
    counts["set_methods.build_table_f_calls"] += 1 << args[0].n


def _mobius_ops(counts, args, result):
    n = args[0].n
    counts["set_methods.mobius_ops"] += n << (n - 1) if n else 0


def _report_entries(counts, args, result):
    report = result if result is not None else args[0]
    counts["core.report_entries"] += len(report.entries)


def _mass(counts, args, result):
    counts["combinatorics.monomial_mass_nonzero"] += result != 0


def _samples(pairs: bool):
    def count(counts, args, result):
        inst = args[1]
        config = args[2] if len(args) > 2 else grad_numeric.DEFAULT_CONFIG
        q = config.nodes * config.panels
        active = sum(1 for a, b in zip(inst.x, inst.baseline) if a != b)
        counts["grad_numeric.samples"] += (
            q * q * (math.comb(active, 2) + 2 * active) if pairs else q * active
        )
    return count


def _trials(counts, args, result):
    counts["axioms.trials"] += result.trials


CHECKS = (
    "check_completeness", "check_linearity", "check_null_feature", "check_symmetry",
    "check_baseline_test", "check_interaction_distribution", "check_continuity",
    "check_uniqueness_support",
)

# (owner, attribute, span name, counter); evaluate and partial recurse
# through their module attribute.
RECURSIVE = ("evaluate", "partial")
FUNCTIONS = [
    (cli, "main", "cli.main", None),
    (expressions, "parse", "expressions.parse", None),
    (expressions, "evaluate", "expressions.evaluate", _points),
    (expressions, "partial", "expressions.partial", None),
    (expressions, "taylor", "expressions.taylor", _terms_of_result("expressions.taylor_terms")),
    (expressions, "to_polynomial", "expressions.to_polynomial",
     _terms_of_result("expressions.to_polynomial_terms")),
    (expressions, "from_polynomial", "expressions.from_polynomial", None),
    (set_methods, "build_table", "set_methods.build_table", _table_calls),
    (set_methods, "mobius", "set_methods.mobius", _mobius_ops),
    (set_methods, "shapley", "set_methods.shapley", None),
    (set_methods, "shapley_taylor", "set_methods.shapley_taylor", None),
    (set_methods, "recursive_shapley", "set_methods.recursive_shapley", None),
    (set_methods, "augmented_recursive_shapley", "set_methods.augmented_recursive_shapley", None),
    (set_methods, "shapley_from_marginals", "set_methods.oracle", None),
    (set_methods, "shapley_taylor_from_marginals", "set_methods.oracle", None),
    (set_methods, "recursive_shapley_nested", "set_methods.oracle", None),
    (set_methods.SetFunctionTable, "from_json_dict", "set_methods.table_load", None),
    (core.InteractionReport, "__post_init__", "core.report_build", _report_entries),
    (core, "report_from_values", "core.report_build", _report_entries),
    (core.InteractionReport, "to_json", "core.serialise", None),
    (core.InteractionReport, "to_json_dict", "core.serialise", None),
    (core.InteractionReport, "to_csv", "core.serialise", None),
    (combinatorics, "enumerate_coalitions", "combinatorics.enumerate_coalitions", None),
    (combinatorics, "monomial_mass", "combinatorics.monomial_mass", _mass),
    (grad_exact, "integrated_gradients", "grad_exact.integrated_gradients", _terms_of_input),
    (grad_exact, "integrated_hessian", "grad_exact.integrated_hessian", _terms_of_input),
    (grad_exact, "augmented_integrated_hessian", "grad_exact.augmented_integrated_hessian",
     _terms_of_input),
    (grad_exact, "sum_of_powers", "grad_exact.sum_of_powers", _terms_of_input),
    (grad_exact, "sum_of_powers_nested", "grad_exact.oracle", _terms_of_input),
    (grad_exact, "integrated_hessian_pairwise", "grad_exact.oracle", _terms_of_input),
    (grad_numeric, "ig_quadrature", "grad_numeric.ig_quadrature", _samples(pairs=False)),
    (grad_numeric, "ih2_quadrature", "grad_numeric.ih2_quadrature", _samples(pairs=True)),
    (polynomials.SparsePolynomial, "from_json_dict", "polynomials.load", None),
    (polynomials.SparsePolynomial, "evaluate", "polynomials.evaluate", None),
    (polynomials.SparsePolynomial, "synergy_split", "polynomials.synergy_split", None),
    (axioms, "run_suite", "axioms.run_suite", None),
    *((axioms, name, "axioms.cell", _trials) for name in CHECKS),
]

MODULES = (
    cli, expressions, set_methods, grad_exact, combinatorics,
    polynomials, grad_numeric, core, axioms,
)
LAYERS = tuple(module.__name__.rsplit(".", 1)[1] for module in MODULES)


class Patches:
    """Every redirect of original -> wrapper, reversible as a whole."""

    def __init__(self) -> None:
        self._items: list[tuple[callable, callable]] = []  # (apply, undo)

    def install(self) -> None:
        for apply, _ in self._items:
            apply()

    def uninstall(self) -> None:
        for _, undo in reversed(self._items):
            undo()

    def attribute(self, owner, name, new) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._items.append((lambda: setattr(owner, name, new), lambda: setattr(owner, name, old)))

    def item(self, mapping, key, new) -> None:
        old = mapping[key]
        self._items.append(
            (lambda: mapping.__setitem__(key, new), lambda: mapping.__setitem__(key, old))
        )

    def cell(self, cell, new) -> None:
        old = cell.cell_contents

        def apply():
            cell.cell_contents = new

        def undo():
            cell.cell_contents = old

        self._items.append((apply, undo))


def _closure_cells(fn, original):
    if isinstance(fn, types.FunctionType):
        for cell in fn.__closure__ or ():
            try:
                if cell.cell_contents is original:
                    yield cell
            except ValueError:  # empty cell
                continue


def _redirect(patches: Patches, original, wrapper) -> None:
    """Point every reference the synergy modules hold to `original` at `wrapper`."""
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.attribute(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        patches.item(value, key, wrapper)
                        continue
                    for cell in _closure_cells(item, original):
                        patches.cell(cell, wrapper)
                    if dataclasses.is_dataclass(item) and not isinstance(item, type):
                        for f in dataclasses.fields(item):
                            held = getattr(item, f.name)
                            if held is original:
                                patches.item(value, key, dataclasses.replace(item, **{f.name: wrapper}))
                            for cell in _closure_cells(held, original):
                                patches.cell(cell, wrapper)


def instrument(tracer: Tracer) -> Patches:
    """Build (but do not install) the wrappers for every traced function."""
    patches = Patches()
    for owner, attr, name, count in FUNCTIONS:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patches.attribute(owner, attr, classmethod(_wrapper(tracer, name, raw.__func__, count)))
            else:
                patches.attribute(owner, attr, _wrapper(tracer, name, raw, count))
        else:
            original = getattr(owner, attr)
            recursive = owner if attr in RECURSIVE else None
            _redirect(patches, original, _wrapper(tracer, name, original, count, recursive))
    return patches
