"""The benchmark's traced run of euler_n7_short, end to end.

``bench/run.py --trace 1`` wraps every ``bench/spans.py`` ``TRACED``
target through its module attribute, divides the stage residuals (those
nested under ``solver.rk_step``) into ``solver.pid_us``, reads the
``runner.write_state`` span and ``DGSolver``'s ``num_elements``, ``basis``,
``l_elem`` and ``b_elem``, and requires the top-level spans to cover
``COVERAGE_MIN`` of the run.  A change to any of those names or call sites
makes the traced child fail; this test runs it as the benchmark does, in a
fresh process, with every file it writes in ``tmp_path``.  It only reads
``bench/``: no bytecode is written there.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    import run
    import spans
    import workloads
    return run, spans, workloads


def test_traced_euler_n7_short_run(bench, tmp_path):
    run, spans, workloads = bench
    config_path, result_path = tmp_path / "config.json", tmp_path / "result.json"
    config_path.write_text(json.dumps(workloads.make_config(workloads.WORKLOADS["euler_n7_short"], 1)))
    cmd = [sys.executable, "-B", os.path.join(BENCH, "child.py"), os.path.join(ROOT, "src"),
           str(config_path), str(tmp_path / "out"), str(result_path), "trace"]
    proc = subprocess.run(cmd, env=dict(os.environ, **run.THREAD_ENV), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["exit_code"] == 0, result["error"] or proc.stderr
    traced = spans.from_dicts(result["spans"])
    spans.layer_metrics(traced)
    assert sum(spans.is_stage_residual(traced, s) for s in traced if s.name == "solver.residual") > 0
    assert spans.coverage(traced, result["t_end"] - result["t0"]) >= run.COVERAGE_MIN
