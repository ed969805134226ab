"""splitdg benchmark: time `splitdg run` end to end, or split one run by layer.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload euler_n4 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each run is a batch job in a fresh child process (bench/child.py), one at a
time: a closed loop with a single client.  The benchmark makes rounds of
set-up-only probes and one full run, back to back, until the next round would
end after ``--seconds``, checks every run's outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0  end-to-end metrics, medians over the untraced runs:
           setup_s, solve_s, peak_rss_mb, l2_error_rho.
--trace 1  per-layer metrics from one traced run, plus the tracing overhead
           against the untraced runs made in the same window.

A run fails when the CLI exits non-zero (1 check, 2 config, 3 positivity
abort) or an output check fails; a failed run counts against the attempted
runs and is left out of every timing.  The full record (environment, every
run's samples, the traced spans) goes to .bench_out/ in the checkout.
"""

import argparse
import compileall
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans as spans_mod
from workloads import WORKLOADS, make_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Output-check tolerances.  Mass and energy are conserved to roundoff on a
# periodic mesh (relative drift over the run); with ec + llf the semi-discrete
# entropy rate is <= 0 up to roundoff (absolute, the totals are O(1)).
DRIFT_TOL = 1e-12
ENTROPY_RATE_TOL = 1e-12
COVERAGE_MIN = 0.95
PROBES_PER_ROUND = 4
# No child may run past this many seconds after the first starts: the whole
# benchmark must exit within 180 s even when a run hangs.
DEADLINE_S = 170.0

# BLAS/OpenMP pools are pinned to one thread: a single-threaded baseline,
# and splitdg's einsum calls do not go through BLAS anyway.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


# -- one run ------------------------------------------------------------------

def run_child(config, work_dir, tag, mode, timeout=DEADLINE_S):
    """Run one `splitdg run` in a fresh process; returns the child's result dict."""
    run_dir = os.path.join(work_dir, tag)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), SRC, config_path,
           os.path.join(run_dir, "out"), result_path, mode]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
        stderr = proc.stderr
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        return {"exit_code": None, "error": f"timed out after {timeout:.0f} s",
                "wall_s": time.perf_counter() - started}
    if not os.path.exists(result_path):
        return {"exit_code": None, "error": f"child exited {proc.returncode}: {stderr[-2000:]}",
                "wall_s": time.perf_counter() - started}
    with open(result_path) as fh:
        result = json.load(fh)
    result["stderr"] = stderr[-2000:]
    result["wall_s"] = time.perf_counter() - started
    result["spans"] = spans_mod.from_dicts(result["spans"])
    return result


def read_monitor(path):
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_run(workload, result):
    """Output checks of one run; returns the list of problems (empty = passed)."""
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}: "
                f"{(result.get('error') or result.get('stderr') or '').strip()[-300:]}"]
    if result["mode"] == "setup":
        return [] if spans_mod.first(result["spans"], "cases.initial_condition") else [
            "set-up probe stopped before the initial condition"]
    summary = result["summary"]
    problems = []
    checked = result["checked"] = {"steps": summary["steps"]}
    l2_rho = checked["l2_error_rho"] = summary["l2_error"][0]
    if not 0.0 < l2_rho <= workload.l2_rho_tol:
        problems.append(f"l2_error_rho {l2_rho!r} outside (0, {workload.l2_rho_tol}]")
    if workload.periodic:
        rows = read_monitor(summary["monitor_csv"])
        for column in ("mass", "energy"):
            ref = rows[0][column]
            drift = checked[f"{column}_drift"] = max(abs(r[column] - ref) for r in rows) / abs(ref)
            if not drift <= DRIFT_TOL:
                problems.append(f"{column} drift {drift:.3e} > {DRIFT_TOL}")
        rate = checked["max_entropy_rate"] = summary["max_entropy_rate"]
        if not rate <= ENTROPY_RATE_TOL:
            problems.append(f"max_entropy_rate {rate:.3e} > {ENTROPY_RATE_TOL}")
    with open(summary["final_state"]) as fh:
        state_rows = sum(1 for line in fh if line.strip()) - 5
    if state_rows != workload.dofs:
        problems.append(f"final state has {state_rows} node rows, expected {workload.dofs}")
    return problems


# -- environment ----------------------------------------------------------------

def git_commit():
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref_path = os.path.join(ROOT, ".git", head[5:])
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return f"unresolved {head[5:]}"


def source_digest():
    """sha256 over src/splitdg/*.py, which identifies the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "splitdg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy

    try:  # os.sysconf does not expose the cache sizes; glibc's getconf does
        getconf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                                 timeout=10).stdout.split("\n")
    except (OSError, subprocess.SubprocessError):
        getconf = []
    caches = {line.split()[0]: line.split()[1] for line in getconf if len(line.split()) == 2}

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2_bytes": caches.get("LEVEL2_CACHE_SIZE"),
        "l3_bytes": caches.get("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# -- a whole benchmark run ---------------------------------------------------------

def run_window(workload, config, seconds, trace, work_dir, log):
    """Rounds of set-up probes and one full run, until the next round would end after ``seconds``.

    The machine's speed switches between states every few seconds, so the
    probes are spread over the whole window rather than made up front.  With
    ``trace`` the first round also holds the traced run; its untraced run
    gives the tracing overhead.
    """
    start = time.perf_counter()
    runs = []
    modes = ["setup"] * PROBES_PER_ROUND + (["trace"] if trace else []) + ["run"]
    while True:
        for mode in modes:
            elapsed = time.perf_counter() - start
            if DEADLINE_S - elapsed < 10.0:  # only after a child hung
                return runs
            result = run_child(config, work_dir, f"{len(runs)}-{mode}", mode,
                               DEADLINE_S - elapsed)
            result["mode"] = mode
            result["problems"] = check_run(workload, result)
            runs.append(result)
            status = "ok" if not result["problems"] else "FAILED: " + "; ".join(result["problems"])
            log(f"{mode:5s} {len(runs) - 1:2d}: {result['wall_s']:6.2f} s wall, {status}")
        modes = ["setup"] * PROBES_PER_ROUND + ["run"]
        round_s = sum(r["wall_s"] for r in runs[-len(modes):])
        if time.perf_counter() - start + round_s > seconds:
            return runs


def end_to_end(result):
    setup, solve = spans_mod.setup_and_solve(result["spans"], result["t0"], result["t_end"])
    if result["mode"] == "setup":
        return {"setup_s": setup}
    return {"setup_s": setup, "solve_s": solve,
            "peak_rss_mb": result["peak_rss_mib"],
            "l2_error_rho": result["summary"]["l2_error"][0]}


E2E_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB", "l2_error_rho": "1"}
COMPUTED = ("solver.volume_pair_evals", "solver.volume_flux_array_mb",
            "solver.interior_face_nodes", "solver.boundary_face_nodes", "solver.dofs")


def trace_metrics(traced, untraced, log):
    """Per-layer metrics of the traced run; None when its spans do not cover the run."""
    layers = spans_mod.layer_metrics(traced["spans"])
    share = spans_mod.coverage(traced["spans"], traced["t_end"] - traced["t0"])
    layers["trace.coverage"] = (share, "1")
    traced_solve = end_to_end(traced)["solve_s"]
    layers["trace.solve_s"] = (traced_solve, "s")
    layers["trace.overhead_ratio"] = (
        traced_solve / statistics.median(u["solve_s"] for u in untraced), "1")
    if share < COVERAGE_MIN:
        log(f"FAILED: top-level spans cover {share:.3f} of the traced run "
            f"(need {COVERAGE_MIN})")
        return None
    return layers


def aggregate(runs, trace, log):
    """Metrics over the runs that passed every check; returns (metrics, failed runs).

    A failed run is left out of every timing.  With ``trace`` the metrics are
    the traced run's layers; otherwise the end-to-end medians, setup_s over
    the set-up probes and the untraced full runs, the rest over the latter.
    """
    good = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(good)
    samples = [end_to_end(r) for r in good if r["mode"] != "trace"]
    untraced = [x for x in samples if "solve_s" in x]
    log(f"{len(runs)} runs attempted, {failed} failed; medians over {len(samples)} "
        f"set-ups and {len(untraced)} untraced full runs")
    traced = next((r for r in good if r["mode"] == "trace"), None)
    if not untraced or (trace and traced is None):
        return {}, failed
    if trace:
        layers = trace_metrics(traced, untraced, log) or {}
        return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}, failed
    return {k: {"value": statistics.median(x[k] for x in (samples if k == "setup_s"
                                                          else untraced)),
                "unit": unit}
            for k, unit in E2E_UNITS.items()}, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench_workload(workload, args, env, log):
    """One workload's window; writes its record and returns (metrics, attempted, failed)."""
    config = make_config(workload, args.seed)
    log(f"workload {workload.name} seed {args.seed}: {json.dumps(config)}")
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        runs = run_window(workload, config, args.seconds, bool(args.trace), work_dir, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, failed = aggregate(runs, bool(args.trace), log)
    record = {"workload": workload.name, "config": config, "environment": env,
              "metrics": metrics,
              "runs": [{"mode": r["mode"], "wall_s": r["wall_s"], "exit_code": r["exit_code"],
                        "problems": r["problems"], "checked": r.get("checked"),
                        **(end_to_end(r) if not r["problems"] else {})} for r in runs]}
    traced = next((r for r in runs if r["mode"] == "trace" and "spans" in r), None)
    if traced:
        record["spans"] = spans_mod.to_dicts(traced["spans"])
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        label = "  (computed from K and N, not measured)" if name in COMPUTED else ""
        log(f"  {name:36s} {m['value']:>16.6g} {m['unit']}{label}")
    return metrics, len(runs), failed


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "splitdg", "cli.py")):
        print(f"error: no splitdg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    log = lambda msg: print(msg, flush=True)
    log(f"environment: {json.dumps(env)}")

    # Byte-compile up front so that no timed run pays for it.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1)
    os.makedirs(OUT, exist_ok=True)

    # "all" runs every workload in turn, one window each; its metric names
    # are prefixed with the workload name.
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        got, tried, lost = bench_workload(WORKLOADS[name], args, env, log)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += tried
        failed += lost
        correct = correct and lost == 0 and bool(got)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
