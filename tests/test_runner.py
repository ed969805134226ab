"""Time loop and command-line round trips."""

import json

import pytest

from splitdg import cases, cli, runner, solver, verify
from splitdg.config import RunConfig


class _ConstantClock:
    """Stand-in solver whose step only advances time."""

    def timestep_estimate(self, u, cfl):
        return 0.03

    def step(self, state, dt):
        return solver.SolutionField(state.u, state.t + dt)


def test_integrate_clips_last_step_to_final_time():
    config = RunConfig(final_time=0.05)
    steps = list(runner.integrate(_ConstantClock(), solver.SolutionField(0.0), config))
    assert [dt for _, dt in steps] == pytest.approx([0.03, 0.02], abs=1e-15)
    assert steps[-1][0].t == pytest.approx(0.05, abs=1e-15)


def test_converge_mesh_refinement_with_cells_in_config(tmp_path, capsys):
    config = {
        "case": "density_wave",
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 2,
        "dt": 0.01,
        "final_time": 0.02,
    }
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    code = cli.main(["converge", str(path), "--levels", "2", "3"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    orders = [ln for ln in out.splitlines() if ln.startswith("# observed L2 order")]
    assert len(orders) == 1 and orders[0].startswith("# observed L2 order 2->3")


def test_run_with_negative_density_aborts_with_exit_3(tmp_path, capsys):
    config = {
        "case": "density_wave",
        "case_params": {"amplitude": 1.5},
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 2,
        "final_time": 0.01,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_RUNTIME
    assert "runtime abort: non-positive density" in capsys.readouterr().err


def test_positivity_abort_names_the_rk_stage(tmp_path, capsys):
    # A fixed dt far above the CFL limit: the first stages keep the density
    # positive, the third does not.
    config = {
        "case": "density_wave",
        "case_params": {"amplitude": 0.9},
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 2,
        "dt": 0.1,
        "final_time": 1.0,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "positivity failure in RK stage 3 of 5 at t = 0.03704" in err
    assert "non-positive density" in err


def test_verify_failure_exits_1(monkeypatch, capsys):
    failing = [verify.Check.below("passes", 0.0, 1.0), verify.Check.below("fails", 2.0, 1.0)]
    monkeypatch.setattr(verify, "run_suite", lambda name, seed=2024: failing)
    assert cli.main(["verify", "all"]) == cli.EXIT_CHECK_FAILED
    assert "1/2 checks passed" in capsys.readouterr().out


# -- monitors from the first RK stage ------------------------------------------

STEPS = 4


def wave_config(tmp_path, monitor_interval):
    return RunConfig.from_dict({
        "case": "density_wave",
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 2,
        "dt": 0.01,
        "final_time": 0.01 * STEPS,
        "monitor_interval": monitor_interval,
        "output_dir": str(tmp_path / f"out{monitor_interval}"),
    })


@pytest.mark.parametrize("monitor_interval", (1, 3, 1000))
def test_run_case_pays_one_residual_beyond_the_rk_stages(tmp_path, monkeypatch, monitor_interval):
    calls = []
    residual = solver.DGSolver.residual

    def counted(self, u, t=0.0):
        calls.append(t)
        return residual(self, u, t)

    monkeypatch.setattr(solver.DGSolver, "residual", counted)
    summary = runner.run_case(wave_config(tmp_path, monitor_interval))
    assert summary["steps"] == STEPS
    assert len(calls) == 5 * STEPS + 1


@pytest.mark.parametrize("monitor_interval", (1, 3))
def test_monitor_rows_match_separate_residuals(tmp_path, monitor_interval):
    config = wave_config(tmp_path, monitor_interval)
    summary = runner.run_case(config)
    with open(summary["monitor_csv"]) as fh:
        rows = fh.read().splitlines()

    dg, case, gas = runner.build_solver(config)
    state = solver.SolutionField(cases.initial_condition(case, dg, gas), 0.0)
    history = [(state, 0.0)] + list(runner.integrate(dg, state, config))
    expected = [runner.MONITOR_HEADER]
    for step, (state, dt) in enumerate(history):
        if step % monitor_interval == 0 or step == STEPS:
            rhs = dg.residual(state.u, state.t)
            expected.append(runner._monitor_row(dg, state, dt, rhs)[0])
    assert len(expected) == {1: 6, 3: 4}[monitor_interval]  # header and steps 0-4 or 0, 3, 4
    assert rows == expected
    assert summary["final_max_residual"] == float(abs(rhs).max())
