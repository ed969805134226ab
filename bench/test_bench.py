"""Self-tests of the benchmark's own logic.

Run from the root of a source checkout:

    python3 -m pytest -q bench
"""

import itertools

import pytest

import run
import spans
from workloads import (AMPLITUDE_SPREAD, VELOCITY_SPREAD, WARP_SPREAD, WORKLOADS,
                       computed_counts, draw_parameters, make_config)


def fake_clock(step=1.0):
    ticks = itertools.count()
    return lambda: step * next(ticks)


def test_self_times_and_coverage_on_nested_spans():
    tracer = spans.Tracer(clock=fake_clock())

    leaf = tracer.wrap("leaf", lambda: None)

    def middle_body():
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)
    outer = tracer.wrap("outer", lambda: middle())
    other = tracer.wrap("other", lambda: None)
    outer()   # outer [0, 7], middle [1, 6], leaves [2, 3] and [4, 5]
    other()   # [8, 9]
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "middle", "leaf", "leaf", "other"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, None]
    assert spans.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0, 1.0]
    assert spans.coverage(tracer.spans, wall=10.0) == pytest.approx(0.8)


def test_span_is_closed_when_the_call_raises():
    tracer = spans.Tracer(clock=fake_clock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[0].end is not None
    assert tracer.spans[1].parent is None


def synthetic_run_spans():
    """A two-step run: each step two stage residuals, plus two monitor residuals."""
    tracer = spans.Tracer(clock=fake_clock())
    split = tracer.wrap("solver.split_divergence", lambda: None)
    residual = tracer.wrap("solver.residual", lambda: split())
    rk_step = tracer.wrap("solver.rk_step", lambda: (residual(), residual()))
    init = tracer.wrap("solver.init", lambda: None,
                       on_exit=lambda args, result: computed_counts(8, 3, 24, 0))
    write = tracer.wrap("runner.write_state", lambda: None,
                        on_enter=lambda args: {"maxrss_mib": 50.0})
    for name in ("mesh.build", "cases.initial_condition", "cases.error_norms"):
        tracer.wrap(name, lambda: None)()
    init()
    residual()
    for _ in range(2):
        rk_step()
        residual()
    write()
    return tracer.spans


def test_layer_metrics_split_stage_and_monitor_residuals():
    layers = spans.layer_metrics(synthetic_run_spans())
    assert layers["runner.steps"] == (2, "count")
    assert layers["solver.residual_calls"] == (7, "count")
    assert layers["runner.monitor_residual_calls"] == (3, "count")
    # Every residual lasts 3 ticks, one of them in split_divergence.
    assert layers["solver.residual_ms"][0] == pytest.approx(3000.0)
    assert layers["solver.residual_self_ms"][0] == pytest.approx(2000.0)
    assert layers["solver.split_divergence_share"][0] == pytest.approx(1 / 3)
    # 4 stage residuals of 3 s over 8 * 4^3 = 512 DOFs.
    assert layers["solver.pid_us"][0] == pytest.approx(1e6 * 3 / 512)
    # rk_step lasts 9 ticks, 6 of them in its two residuals.
    assert layers["solver.rk_update_self_s"][0] == pytest.approx(6.0)
    assert layers["solver.lift_gradients_calls"] == (0, "count")
    assert layers["runner.loop_peak_rss_mb"] == (50.0, "MiB")
    assert layers["solver.volume_pair_evals"] == (3 * 8 * 4**4, "count")
    assert layers["solver.interior_face_nodes"] == (24 * 16, "count")


def test_seed_draws_are_reproducible_and_inside_the_stated_ranges():
    for workload in WORKLOADS.values():
        assert make_config(workload, 7) == make_config(workload, 7)
        assert make_config(workload, 7) != make_config(workload, 8)
        for seed in range(50):
            drawn = draw_parameters(workload, seed)
            assert abs(drawn["amplitude"] / workload.amplitude - 1) <= AMPLITUDE_SPREAD
            assert abs(drawn["warp"] / workload.warp - 1) <= WARP_SPREAD
            scale = drawn["velocity"][0] / workload.velocity[0]
            assert abs(scale - 1) <= VELOCITY_SPREAD


def test_positivity_loss_is_a_failed_run_and_is_not_timed(tmp_path):
    workload = WORKLOADS["euler_n4"]
    bad = make_config(workload, 1)
    bad["case_params"]["amplitude"] = 1.5  # amplitude > mean
    runs = []
    for i, (config, mode) in enumerate(((make_config(workload, 1), "setup"), (bad, "run"))):
        result = run.run_child(config, str(tmp_path), f"r{i}", mode)
        result["mode"] = mode
        result["problems"] = run.check_run(workload, result)
        runs.append(result)
    probe, failed_run = runs
    assert probe["problems"] == []
    assert failed_run["exit_code"] == 3  # the CLI's positivity abort
    assert failed_run["problems"]
    metrics, failed = run.aggregate(runs, trace=False, log=lambda msg: None)
    assert (metrics, failed) == ({}, 1)  # no full run passed, so nothing is timed

    # Next to a passing run, the failed one is still counted and left out of the medians.
    passing = {"mode": "run", "problems": [], "t0": 0.0, "t_end": 5.0, "peak_rss_mib": 100.0,
               "spans": [spans.Span("cases.initial_condition", 1.0, 2.0)],
               "summary": {"l2_error": [1e-4, 0.0, 0.0, 0.0, 0.0]}}
    metrics, failed = run.aggregate(runs + [passing], trace=False, log=lambda msg: None)
    assert failed == 1
    assert metrics["solve_s"] == {"value": 3.0, "unit": "s"}
    assert metrics["peak_rss_mb"]["value"] == 100.0


def test_a_hung_run_is_killed_and_counted_as_failed(tmp_path):
    workload = WORKLOADS["euler_n4"]
    result = run.run_child(make_config(workload, 1), str(tmp_path), "slow", "run", timeout=0.5)
    result["mode"] = "run"
    assert result["exit_code"] is None
    assert "timed out" in run.check_run(workload, result)[0]
