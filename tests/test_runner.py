"""Time loop and command-line round trips."""

import json

import pytest

from splitdg import cli, runner, solver
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
