"""Spans around calls into bethe_lab, recorded from outside the package.

During a traced iteration every function in ``TARGETS`` is replaced, on
the module object its callers look it up on, by a wrapper that records a
span (name, start, end, parent span, iteration id) and, for a few
functions, counters computed from the call's arguments and result.  The
originals are put back when the iteration ends, so untraced iterations
run the package exactly as a user does.  Spans stay in memory until the
run ends and are then written out as JSON lines.

A span's self time is its duration minus the durations of its child
spans; calls are nested and single-threaded, so children never overlap.
Summed over every layer, self times account for the whole iteration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from bethe_lab import abba, baesolver

ROOT_SPAN = "bench.iteration"
LAYERS = ("bench", "pipeline", "baesolver", "energy", "abba", "hilbert", "rigged", "plots", "cli")
SOLVE_SECTOR_ELLS = range(6)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Nested spans of one process, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._t0 = time.perf_counter()

    def open(self, name: str, iteration: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if iteration is None:
            iteration = parent.iteration if parent else -1
        span = Span(
            len(self.spans),
            name,
            time.perf_counter() - self._t0,
            float("nan"),
            parent.sid if parent else None,
            iteration,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def iteration(self, iteration: int):
        span = self.open(ROOT_SPAN, iteration)
        try:
            yield
        finally:
            self.close(span)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "sid": s.sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "iteration": s.iteration,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# counters computed from call arguments and results
# ---------------------------------------------------------------------------


def _solve_sector_attrs(args: dict, result) -> dict:
    cfg = args["cfg"] or baesolver.SolverConfig()
    ell = args["ell"]
    # mirrors baesolver._starts: one block per seed strategy for the full
    # system, and again for the reduced system of singular candidates
    per_block = cfg.n_random_starts * len(cfg.seed_strategies)
    starts = 0
    if ell >= 1:
        starts += per_block * max(1, ell)
    if ell >= 3:
        starts += per_block * max(1, ell - 2)
    counts = {c: 0 for c in (baesolver.REGULAR, baesolver.PHYSICAL_SINGULAR,
                             baesolver.NONPHYSICAL_SINGULAR, baesolver.STRANGE)}
    for rs in result:
        if rs.classification in counts:
            counts[rs.classification] += 1
    return {"ell": ell, "starts": starts, "returned": len(result), **counts}


def _nw_vector_attrs(args: dict, result) -> dict:
    threshold = getattr(abba, "AUTO_MP_THRESHOLD", None)
    eps = args["params"].epsilon
    n = args["rootset"].n
    return {"mp": int(threshold is not None and eps**n < threshold)}


def _sweep_attrs(args: dict, result) -> dict:
    return {"converged": int(bool(result.converged))}


def _hamiltonian_attrs(args: dict, result) -> dict:
    return {"dense_bytes": 8 * 4 ** args["n"]}  # computed, float64 2^n x 2^n


def _emit_attrs(args: dict, result) -> dict:
    return {"report_bytes": os.path.getsize(args["path"])}


def _plot_attrs(args: dict, result) -> dict:
    return {"svg_files": len(result)}


@dataclass(frozen=True)
class Target:
    module: str  # the module object the callers look the attribute up on
    attr: str
    span: str  # "<layer>.<function>"
    hook: Callable[[dict, object], dict] | None = None


TARGETS = (
    Target("bethe_lab.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    Target("bethe_lab.pipeline", "merge_levels", "pipeline.merge_levels"),
    Target("bethe_lab.pipeline", "multiset_subtract", "pipeline.multiset_subtract"),
    Target("bethe_lab.pipeline", "emit_report", "pipeline.emit_report", _emit_attrs),
    Target("bethe_lab.pipeline", "rootsets_from_report", "pipeline.rootsets_from_report"),
    Target("bethe_lab.baesolver", "solve_sector", "baesolver.solve_sector", _solve_sector_attrs),
    Target("bethe_lab.baesolver", "nw_constants", "baesolver.nw_constants"),
    Target("bethe_lab.energy", "energy_regular", "energy.energy_regular"),
    Target("bethe_lab.energy", "energy_nw", "energy.energy_nw"),
    Target("bethe_lab.energy", "energy_logderiv", "energy.energy_logderiv"),
    # energy binds its own name for abba's function
    Target("bethe_lab.energy", "transfer_eigenvalue", "abba.transfer_eigenvalue"),
    Target("bethe_lab.abba", "regularization_sweep", "abba.regularization_sweep", _sweep_attrs),
    Target(
        "bethe_lab.abba", "regularized_nw_vector", "abba.regularized_nw_vector", _nw_vector_attrs
    ),
    Target("bethe_lab.abba", "apply_monodromy", "abba.apply_monodromy"),
    Target("bethe_lab.hilbert", "hamiltonian", "hilbert.hamiltonian", _hamiltonian_attrs),
    Target("bethe_lab.hilbert", "eig_hermitian", "hilbert.eig_hermitian"),
    Target("bethe_lab.hilbert", "sector_hamiltonian", "hilbert.sector_hamiltonian"),
    Target("bethe_lab.hilbert", "spectrum_with_multiplicities", "hilbert.spectrum_with_multiplicities"),
    # the pipeline's sector ED calls np.linalg.eigvalsh; counted in the hilbert layer
    Target("numpy.linalg", "eigvalsh", "hilbert.eigvalsh"),
    Target("bethe_lab.rigged", "enumerate_rcs", "rigged.enumerate_rcs"),
    Target("bethe_lab.rigged", "rc_count", "rigged.rc_count"),
    Target("bethe_lab.rigged", "heuristic_real_pairing", "rigged.heuristic_real_pairing"),
    Target("bethe_lab.plots", "plot_roots", "plots.plot_roots", _plot_attrs),
    Target("bethe_lab.cli", "main", "cli.main"),
)


def _wrap(recorder: Recorder, target: Target, fn):
    sig = inspect.signature(fn) if target.hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(target.span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            recorder.close(span)
        if target.hook:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs.update(target.hook(bound.arguments, result))
        return result

    return wrapper


@contextmanager
def instrumented(recorder: Recorder):
    """Swap every target for its span-recording wrapper, then restore it."""
    originals = []
    try:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            fn = getattr(module, target.attr)
            originals.append((module, target.attr, fn))
            setattr(module, target.attr, _wrap(recorder, target, fn))
        yield
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "baesolver.solve_sector_s": "s",
    **{f"baesolver.solve_sector_s.ell{ell}": "s" for ell in SOLVE_SECTOR_ELLS},
    "baesolver.starts": "count",
    "baesolver.returned": "count",
    "baesolver.regular": "count",
    "baesolver.physical_singular": "count",
    "baesolver.nonphysical_singular": "count",
    "baesolver.strange": "count",
    "baesolver.useful_frac": "ratio",
    "baesolver.states_per_start": "ratio",
    "energy.energy_regular_s": "s",
    "energy.energy_nw_s": "s",
    "energy.energy_logderiv_s": "s",
    "energy.transfer_eigenvalue_calls": "count",
    "abba.regularization_sweep_s": "s",
    "abba.regularized_nw_vector_s": "s",
    "abba.apply_monodromy_s": "s",
    "abba.sweeps": "count",
    "abba.sweep_converged": "count",
    "abba.nw_vector_calls": "count",
    "abba.mp_vector_calls": "count",
    "hilbert.hamiltonian_s": "s",
    "hilbert.eig_hermitian_s": "s",
    "hilbert.sector_hamiltonian_s": "s",
    "hilbert.eigvalsh_s": "s",
    "hilbert.spectrum_with_multiplicities_s": "s",
    "hilbert.dense_bytes": "B_computed",
    "rigged.enumerate_rcs_s": "s",
    "rigged.rc_count_s": "s",
    "pipeline.run_pipeline_self_s": "s",
    "pipeline.reconcile_s": "s",
    "pipeline.emit_report_s": "s",
    "pipeline.report_bytes": "B",
    "plots.plot_roots_s": "s",
    "plots.svg_files": "count",
    "cli.diag_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "ops_failed_frac": "ratio",
}


def iteration_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all its spans)."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    incl: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[str, float] = {}
    ell_time = {ell: 0.0 for ell in SOLVE_SECTOR_ELLS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    wall = 0.0
    for s in spans:
        self_time = s.duration - child_time.get(s.sid, 0.0)
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + self_time
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.name.split(".")[0]] += self_time
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attr_sum[key] = attr_sum.get(key, 0) + value
        if s.name == "baesolver.solve_sector" and s.attrs.get("ell") in ell_time:
            ell_time[s.attrs["ell"]] += s.duration
        if s.name == ROOT_SPAN:
            wall += s.duration

    regular = attr_sum.get(baesolver.REGULAR, 0)
    physical = attr_sum.get(baesolver.PHYSICAL_SINGULAR, 0)
    returned = attr_sum.get("returned", 0)
    starts = attr_sum.get("starts", 0)
    return {
        "baesolver.solve_sector_s": incl.get("baesolver.solve_sector", 0.0),
        **{f"baesolver.solve_sector_s.ell{ell}": t for ell, t in ell_time.items()},
        "baesolver.starts": starts,
        "baesolver.returned": returned,
        "baesolver.regular": regular,
        "baesolver.physical_singular": physical,
        "baesolver.nonphysical_singular": attr_sum.get(baesolver.NONPHYSICAL_SINGULAR, 0),
        "baesolver.strange": attr_sum.get(baesolver.STRANGE, 0),
        "baesolver.useful_frac": (regular + physical) / returned if returned else 0.0,
        "baesolver.states_per_start": (regular + physical) / starts if starts else 0.0,
        "energy.energy_regular_s": incl.get("energy.energy_regular", 0.0),
        "energy.energy_nw_s": incl.get("energy.energy_nw", 0.0),
        "energy.energy_logderiv_s": incl.get("energy.energy_logderiv", 0.0),
        "energy.transfer_eigenvalue_calls": calls.get("abba.transfer_eigenvalue", 0),
        "abba.regularization_sweep_s": incl.get("abba.regularization_sweep", 0.0),
        "abba.regularized_nw_vector_s": incl.get("abba.regularized_nw_vector", 0.0),
        "abba.apply_monodromy_s": incl.get("abba.apply_monodromy", 0.0),
        "abba.sweeps": calls.get("abba.regularization_sweep", 0),
        "abba.sweep_converged": attr_sum.get("converged", 0),
        "abba.nw_vector_calls": calls.get("abba.regularized_nw_vector", 0),
        "abba.mp_vector_calls": attr_sum.get("mp", 0),
        "hilbert.hamiltonian_s": incl.get("hilbert.hamiltonian", 0.0),
        "hilbert.eig_hermitian_s": incl.get("hilbert.eig_hermitian", 0.0),
        "hilbert.sector_hamiltonian_s": incl.get("hilbert.sector_hamiltonian", 0.0),
        "hilbert.eigvalsh_s": incl.get("hilbert.eigvalsh", 0.0),
        "hilbert.spectrum_with_multiplicities_s": incl.get(
            "hilbert.spectrum_with_multiplicities", 0.0
        ),
        "hilbert.dense_bytes": attr_sum.get("dense_bytes", 0),
        "rigged.enumerate_rcs_s": incl.get("rigged.enumerate_rcs", 0.0),
        "rigged.rc_count_s": incl.get("rigged.rc_count", 0.0),
        "pipeline.run_pipeline_self_s": self_by_name.get("pipeline.run_pipeline", 0.0),
        "pipeline.reconcile_s": incl.get("pipeline.merge_levels", 0.0)
        + incl.get("pipeline.multiset_subtract", 0.0),
        "pipeline.emit_report_s": incl.get("pipeline.emit_report", 0.0),
        "pipeline.report_bytes": attr_sum.get("report_bytes", 0),
        "plots.plot_roots_s": incl.get("plots.plot_roots", 0.0),
        "plots.svg_files": attr_sum.get("svg_files", 0),
        "cli.diag_s": incl.get("cli.main", 0.0),
        **{f"{layer}.self_s": t for layer, t in layer_self.items()},
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }


def per_layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Mean over traced iterations of each per-iteration metric.

    Means, unlike medians, keep the layers' self times adding up to the
    traced wall time.
    """
    by_iteration: dict[int, list[Span]] = {}
    for s in recorder.spans:
        by_iteration.setdefault(s.iteration, []).append(s)
    rows = [iteration_metrics(spans) for _, spans in sorted(by_iteration.items())]
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}
