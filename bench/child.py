"""One benchmark run in a fresh process: `splitdg run <config>` through the CLI.

Usage: python3 bench/child.py <src dir> <config.json> <output dir> <result.json> <mode>

The process is fresh for every run because peak RSS is a per-process
high-water mark.  numpy is imported before the clock starts (it is the same
on every commit); the clock then covers ``import splitdg`` and the whole
``splitdg.cli.main(["run", ...])`` call.  Modes:

    run    only ``runner.build_solver`` and ``cases.initial_condition`` are
           wrapped, to split set-up from the solve;
    trace  every function in ``spans.TRACED`` is wrapped;
    setup  as ``run``, but the run stops as soon as the initial condition
           is built: a set-up-only sample through the same entry point.

The result file holds the exit code, the CLI's JSON summary, the spans and
the process's peak RSS.  It is written even when the run fails.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import numpy  # noqa: F401  (imported outside the timed region on purpose)

import spans as spans_mod
from workloads import computed_counts


class SetupDone(Exception):
    """Raised after the initial condition in setup mode (the CLI does not catch it)."""


def stop_after_setup(_args, _result):
    raise SetupDone


def maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def solver_counts(args, _result):
    dg = args[0]
    return computed_counts(dg.num_elements, dg.basis.n, len(dg.l_elem), len(dg.b_elem))


def main(argv):
    src, config_path, out_dir, result_path, mode = argv
    tracer = spans_mod.Tracer()
    result = {"exit_code": None, "summary": None, "error": None}
    stdout = io.StringIO()
    t0 = time.perf_counter()
    try:
        sys.path.insert(0, src)
        from splitdg import cases, cli, config, fluxes, physics, runner, solver
        tracer.record("splitdg.import", t0, time.perf_counter())
        modules = {"cases": cases, "config": config, "fluxes": fluxes,
                   "physics": physics, "runner": runner, "solver": solver}
        if mode == "trace":
            hooks = {"solver.init": (None, solver_counts),
                     "runner.write_state": (lambda args: {"maxrss_mib": maxrss_mib()}, None)}
            spans_mod.install(tracer, modules, spans_mod.TRACED, hooks)
        else:
            hooks = {"cases.initial_condition": (None, stop_after_setup)} if mode == "setup" else {}
            spans_mod.install(tracer, modules, spans_mod.SETUP_BOUNDARY, hooks)
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["run", config_path, "--output-dir", out_dir])
        result["exit_code"] = code
    except SetupDone:
        result["exit_code"] = 0
    except Exception:  # the run failed in a way the CLI did not map to an exit code
        result["exit_code"] = -1
        result["error"] = traceback.format_exc()
    t_end = time.perf_counter()
    if result["exit_code"] == 0 and mode != "setup":
        result["summary"] = json.loads(stdout.getvalue())
    result.update(t0=t0, t_end=t_end, peak_rss_mib=maxrss_mib(),
                  spans=spans_mod.to_dicts(tracer.spans))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
