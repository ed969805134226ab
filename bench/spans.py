"""Spans recorded around calls into splitdg's public functions, and their analysis.

The benchmark never edits splitdg.  It replaces module and class attributes
that splitdg resolves at call time (``solver.split_divergence`` inside
``DGSolver.residual``, ``runner.build_solver`` inside ``run_case``, ...)
with wrappers that record one span per call.  Spans stay in memory until
the run ends.

A span's self time is its duration minus the time covered by its child
spans.  The calls are single-threaded and properly nested, so children never
overlap and the sum of all self times equals the sum of the top-level span
durations.
"""

import functools
import math
import time
from dataclasses import dataclass, field

# (module, attribute path, span name) of every wrapped function.  Span
# names are "<owning splitdg module>.<layer>".
TRACED = (
    ("solver", "rk_step", "solver.rk_step"),
    ("solver", "split_divergence", "solver.split_divergence"),
    ("solver", "DGSolver.residual", "solver.residual"),
    ("solver", "DGSolver.lift_gradients", "solver.lift_gradients"),
    ("solver", "DGSolver.timestep_estimate", "solver.timestep_estimate"),
    ("solver", "DGSolver.totals", "solver.totals"),
    ("solver", "DGSolver.total_entropy", "solver.total_entropy"),
    ("solver", "DGSolver.entropy_rate", "solver.entropy_rate"),
    ("solver", "DGSolver.__init__", "solver.init"),
    ("fluxes", "surface_flux_advective", "fluxes.surface_flux"),
    ("physics", "viscous_flux_from_entropy_gradients", "physics.viscous_flux"),
    ("runner", "build_solver", "runner.build_solver"),
    ("runner", "write_state_file", "runner.write_state"),
    ("cases", "error_norms", "cases.error_norms"),
    ("cases", "initial_condition", "cases.initial_condition"),
    ("config", "RunConfig.build_mesh", "mesh.build"),
)

# Untraced runs wrap only the two calls that separate set-up from
# the solve.
SETUP_BOUNDARY = tuple(t for t in TRACED
                       if t[2] in ("runner.build_solver", "cases.initial_condition"))

MONITOR_LAYERS = ("solver.totals", "solver.total_entropy", "solver.entropy_rate")


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None      # index of the enclosing span, None at top level
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def wrap(self, name, fn, on_enter=None, on_exit=None):
        """Wrap ``fn`` so that every call records a span called ``name``.

        ``on_enter(args)`` and ``on_exit(args, result)`` may return dicts
        that are stored in the span's attrs.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, self.clock(), parent=parent)
            if on_enter is not None:
                span.attrs.update(on_enter(args))
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if on_exit is not None:
                span.attrs.update(on_exit(args, result))
            return result

        return traced

    def record(self, name, start, end):
        """Add a finished top-level span timed by the caller."""
        self.spans.append(Span(name, start, end))


def install(tracer, modules, targets, hooks=None):
    """Replace each target attribute with a span-recording wrapper.

    Args:
        modules: dict module name -> imported splitdg module.
        targets: iterable of (module, attribute path, span name).
        hooks: optional dict span name -> (on_enter, on_exit).
    """
    hooks = hooks or {}
    for module, path, name in targets:
        owner = modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        on_enter, on_exit = hooks.get(name, (None, None))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_enter, on_exit))


def to_dicts(spans):
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "attrs": s.attrs} for s in spans]


def from_dicts(rows):
    return [Span(r["name"], r["start"], r["end"], r["parent"], r.get("attrs", {}))
            for r in rows]


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def coverage(spans, wall):
    """Share of ``wall`` inside top-level spans."""
    return sum(s.duration for s in spans if s.parent is None) / wall


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def first(spans, name):
    return next((s for s in spans if s.name == name), None)


def setup_and_solve(spans, t0, t_end):
    """End-to-end split of one run.

    setup_s runs from the start of ``import splitdg`` (``t0``) to the return
    of ``cases.initial_condition``; it holds config parsing, mesh and
    geometry build, DGSolver construction and the initial condition.
    solve_s is the rest, to the return of the CLI call: the time loop,
    monitors, output files and error norms.
    """
    ic = first(spans, "cases.initial_condition")
    return ic.end - t0, t_end - ic.end


def is_stage_residual(spans, span):
    return span.parent is not None and spans[span.parent].name == "solver.rk_step"


def layer_metrics(spans):
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durations(name, use_self=False):
        return [selfs[i] if use_self else spans[i].duration for i in by_name.get(name, [])]

    out = {}

    def per_call(metric, values):
        ms = [1e3 * v for v in values]
        out[f"{metric}_ms"] = (percentile(ms, 50) if ms else 0.0, "ms")
        out[f"{metric}_p95_ms"] = (percentile(ms, 95) if ms else 0.0, "ms")

    residuals = [spans[i] for i in by_name.get("solver.residual", [])]
    stage = [r for r in residuals if is_stage_residual(spans, r)]
    monitor = [r for r in residuals if not is_stage_residual(spans, r)]

    for name in ("solver.split_divergence", "solver.residual", "solver.lift_gradients",
                 "physics.viscous_flux", "fluxes.surface_flux", "solver.timestep_estimate"):
        per_call(name, durations(name))
        out[f"{name}_calls"] = (len(by_name.get(name, [])), "count")
    per_call("solver.residual_self", durations("solver.residual", use_self=True))

    residual_total = sum(durations("solver.residual"))
    out["solver.split_divergence_share"] = (
        sum(durations("solver.split_divergence")) / residual_total, "1")

    init = spans[by_name["solver.init"][0]]
    dofs = init.attrs["dofs"]
    out["solver.pid_us"] = (1e6 * sum(s.duration for s in stage) / (len(stage) * dofs), "us")
    for key in ("volume_pair_evals", "interior_face_nodes", "boundary_face_nodes", "dofs"):
        out[f"solver.{key}"] = (init.attrs[key], "count")
    out["solver.volume_flux_array_mb"] = (init.attrs["volume_flux_array_bytes"] / 2**20, "MiB")

    out["runner.steps"] = (len(by_name.get("solver.rk_step", [])), "count")
    out["runner.monitor_residual_calls"] = (len(monitor), "count")
    out["runner.monitor_s"] = (
        sum(s.duration for s in monitor) + sum(sum(durations(n)) for n in MONITOR_LAYERS), "s")
    out["solver.rk_update_self_s"] = (sum(durations("solver.rk_step", use_self=True)), "s")

    write = spans[by_name["runner.write_state"][0]]
    out["runner.loop_peak_rss_mb"] = (write.attrs["maxrss_mib"], "MiB")
    out["runner.write_state_s"] = (write.duration, "s")
    for metric, name in (("cases.error_norms_s", "cases.error_norms"),
                         ("mesh.build_s", "mesh.build"),
                         ("solver.init_s", "solver.init"),
                         ("cases.initial_condition_s", "cases.initial_condition")):
        out[metric] = (sum(durations(name)), "s")
    return out
