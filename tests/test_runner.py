"""Time loop and command-line round trips."""

import argparse
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref

import pytest

import splitdg
from splitdg import cases, cli, mesh as mesh_mod, runner, solver, verify
from splitdg.config import ConfigError, RunConfig


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
    err = capsys.readouterr().err
    assert "runtime abort: positivity failure in the initial condition: non-positive density" in err


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


def test_positivity_abort_in_the_cfl_estimate_names_the_step(tmp_path, capsys):
    # At this CFL every RK stage of the first step stays positive, but the
    # step's final update does not: the next step's time-step estimate is
    # the first to see the negative density.
    config = {
        "case": "density_wave",
        "case_params": {"amplitude": 0.8},
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 2,
        "cfl": 0.88,
        "final_time": 1.0,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "positivity failure in the time-step estimate of step 2 at t = 0.00625814" in err
    assert "non-positive density" in err


def test_positivity_abort_in_the_final_state_names_the_step_and_element(tmp_path, capsys):
    # The config of the test above, ended after its first step: only the
    # final monitor residual sees the negative density.
    config = {
        "case": "density_wave",
        "case_params": {"amplitude": 0.8},
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 2,
        "cfl": 0.88,
        "final_time": 0.006258,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "positivity failure in the final state after step 1 at t = 0.006258" in err
    # (element, i, j, k) of the volume state, not an index into face arrays.
    assert re.search(r"non-positive density, min rho = \S+ at index \(\d+, \d+, \d+, \d+\)", err)


@pytest.mark.parametrize("params, final_time, phase", [
    ({"amplitude": 0.8}, 0.006258, "the final state after step 1 at t = 0.006258"),
    ({"amplitude": 1.5}, 0.01, "the initial condition"),
], ids=("final-state", "initial-condition"))
def test_converge_aborts_as_run_does(tmp_path, capsys, params, final_time, phase):
    # The configs of the final-state and initial-condition tests above;
    # level 2 is their mesh.
    config = {
        "case": "density_wave",
        "case_params": params,
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 2,
        "cfl": 0.88,
        "final_time": final_time,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    errors = []
    for argv in (["run", str(path)], ["converge", str(path), "--levels", "2", "3"]):
        assert cli.main(argv) == cli.EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert f"runtime abort: positivity failure in {phase}: non-positive density" in errors[0]
    assert errors[1] == errors[0]


def test_positivity_abort_in_the_error_norms_names_the_element(tmp_path, capsys):
    # The state stays positive; the exact density wave is negative between
    # the nodes of degree 1, on the error norms' fine grid.
    config = {"case_params": {"amplitude": 5.0}, "degree": 1, "mesh": {"cells": [1, 1, 1]},
              "final_time": 0.001, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    for argv in (["run", str(path)], ["converge", str(path), "--levels", "1"]):
        assert cli.main(argv) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            "runtime abort: positivity failure in the exact state of element 0 in the error norms: "
            "non-positive density")


@pytest.mark.parametrize("key, values", [
    ("final_time", {"final_time": math.nan}),
    ("final_time", {"final_time": math.inf}),
    ("cfl", {"cfl": math.nan}),
    ("dt", {"dt": math.nan, "cfl": None}),
    ("reynolds", {"gas": {"reynolds": math.nan}}),
    ("gamma", {"gas": {"gamma": math.nan}}),
], ids=("final_time-nan", "final_time-inf", "cfl-nan", "dt-nan", "reynolds-nan", "gamma-nan"))
def test_non_finite_config_value_exits_2_naming_the_key(tmp_path, capsys, key, values):
    # json writes and reads NaN and Infinity, which "<= 0" tests let through.
    config = {
        "case": "density_wave",
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 2,
        "final_time": 0.01,
        "output_dir": str(tmp_path / "out"),
        **values,
    }
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("key, values", [
    ("degree", {"degree": 2.5}),
    ("degree", {"degree": True}),
    ("monitor_interval", {"monitor_interval": 1.5}),
    ("mesh.cells", {"mesh": {"cells": [2.5, 2, 2]}}),
    ("mesh.cells", {"mesh": {"cells": [0, 2, 2]}}),
    ("mesh.cells", {"mesh": {"cells": [2, 2]}}),
    ("mesh", {"mesh": [2, 2, 2]}),
    ("output_dir", {"output_dir": 5}),
    ("output_dir", {"output_dir": None}),
    ("mesh.path", {"mesh": {"path": 5}}),
    ("mesh", {"mesh": None}),
    ("cfl", {"cfl": "0.4"}),
    ("final_time", {"final_time": [1]}),
    ("dt", {"dt": True}),
    ("volume_flux", {"volume_flux": ["ec"]}),
    ("surface_dissipation", {"surface_dissipation": "upwind"}),
    ("case", {"case": ["x"]}),
], ids=("degree-2.5", "degree-true", "monitor_interval-1.5", "cells-2.5", "cells-0", "cells-two",
        "mesh-list", "output_dir-5", "output_dir-null", "mesh-path-5", "mesh-null", "cfl-string",
        "final_time-list", "dt-true", "volume_flux-list", "surface_dissipation-unknown", "case-list"))
def test_non_integer_config_value_exits_2_naming_the_key(tmp_path, capsys, key, values):
    # Values of the wrong type too; through a file, whose directory resolves a relative mesh.path.
    config = {"degree": 2, "final_time": 0.001, "output_dir": str(tmp_path / "out"), **values}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: must be ")


@pytest.mark.parametrize("key, mesh", [
    ("mesh.bounds", {"bounds": [[0, 1], [0, 0], [0, 1]]}),
    ("mesh.bounds", {"bounds": [[0, 1], [0.5, 0.5], [0, 1]]}),
    ("mesh.bounds", {"bounds": [[0, 1], [1, 0], [0, 1]]}),
    ("mesh.bounds", {"bounds": [[0, 1], [0, math.inf], [0, 1]]}),
    ("mesh.bounds", {"bounds": [[0, 1], [0, 1]]}),
    ("mesh.bounds", {"bounds": [[0, 1], [0, 1, 2], [0, 1]]}),
    ("mesh.amplitude", {"amplitude": math.nan}),
    ("mesh.amplitude", {"amplitude": -math.inf}),
    ("mesh.amplitude", {"amplitude": "0.05"}),
    ("mesh.periods", {"periods": [1.5, 1, 1]}),
    ("mesh.periods", {"periods": [0, 1, 1]}),
    ("mesh.periods", {"periods": [1, 1]}),
    ("mesh.bounds", {"bounds": [[0, 1], [0, 1], [0, 1]]}),
    ("mesh.periods", {"periods": [1, 1, 1]}),
    ("mesh.builtin", {"builtin": "cartesian"}),
], ids=("bounds-zero-width", "bounds-half-zero-width", "bounds-reversed", "bounds-inf",
        "bounds-two", "bounds-triple", "amplitude-nan", "amplitude-inf", "amplitude-string",
        "periods-1.5", "periods-0", "periods-two", "bounds-unit", "periods-one",
        "builtin-cartesian"))
def test_builtin_mesh_key_exits_2_naming_the_key(tmp_path, capsys, key, mesh):
    config = {"degree": 2, "final_time": 0.001, "mesh": {"cells": [1, 1, 1], **mesh},
              "output_dir": str(tmp_path / "out")}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    # The built-in mesh is the unit cube: bounds and periods are not keys, whatever their value.
    removed = key in ("mesh.bounds", "mesh.periods")
    assert capsys.readouterr().err.startswith(
        f"error: {key}: " + ("not allowed here" if removed else "must be "))


@pytest.mark.parametrize("key, mesh", [
    ("mesh.cells", {"path": "box.mesh", "cells": [2, 2, 2]}),
    ("mesh.amplitude", {"path": "box.mesh", "amplitude": 0.05}),
    ("mesh.builtin", {"path": "box.mesh", "builtin": "warped_box"}),
], ids=("cells", "amplitude", "builtin"))
def test_builtin_mesh_key_next_to_a_mesh_file_exits_2_naming_the_key(tmp_path, capsys, key, mesh):
    mesh_mod.write_mesh_file(tmp_path / "box.mesh", mesh_mod.warped_box_mesh(1, (1, 1, 1)))
    config = {"degree": 2, "final_time": 0.001, "mesh": mesh, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {key}: not allowed here")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("boundary", ("periodic", "dirichlet"))
def test_boundary_next_to_a_mesh_file_exits_2(tmp_path, capsys, boundary):
    mesh_mod.write_mesh_file(tmp_path / "box.mesh", mesh_mod.warped_box_mesh(1, (2, 2, 2)))
    config = {"degree": 1, "final_time": 0.001, "mesh": {"path": "box.mesh"},
              "boundary": boundary, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: boundary: not allowed next to mesh.path; ")
    assert not (tmp_path / "out").exists()
    del config["boundary"]  # the file's own boundary, periodic here, runs
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK


def test_converge_on_a_mesh_file_exits_2_naming_the_key(tmp_path, capsys):
    mesh_mod.write_mesh_file(tmp_path / "box.mesh", mesh_mod.warped_box_mesh(2, (2, 2, 2)))
    path = tmp_path / "wave.json"
    path.write_text(json.dumps({"degree": 2, "mesh": {"path": "box.mesh"},
                                "dt": 0.01, "final_time": 0.02}))
    assert cli.main(["converge", str(path), "--levels", "2", "3"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mesh.path: a mesh file has one resolution")


@pytest.mark.parametrize("raw", [5, [1, 2], "run", None], ids=("int", "list", "string", "null"))
def test_config_file_that_is_not_an_object_exits_2_naming_the_file(tmp_path, capsys, raw):
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: must be a JSON object, got {raw!r}\n"
    with pytest.raises(ConfigError, match=r"^config: must be a JSON object, got 5$"):
        RunConfig.from_dict(5)


def refuse_to_build_a_mesh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(mesh_mod, "warped_box_mesh", refuse)


@pytest.mark.parametrize("message, params", [
    ("case_params.amplitude: must be a finite number, got 'x'", {"amplitude": "x"}),
    ("case_params.amplitude: must be a finite number, got nan", {"amplitude": math.nan}),
    ("case_params.mean: must be a finite number, got None", {"mean": None}),
    ("case_params.p: must be a finite number, got True", {"p": True}),
    ("case_params.velocity: must be a list of three finite numbers", {"velocity": [1.0, 1.0]}),
    ("case_params.velocity: must be a list of three finite numbers", {"velocity": [1.0, "1", 1.0]}),
    ("case_params.velocity: must be a list of three finite numbers", {"velocity": 1.0}),
    ("case_params: must be an object, got [0.3]", [0.3]),
    ("case_params: DensityWave.__init__() got an unexpected keyword argument 'amplitud'",
     {"amplitud": 0.1}),
], ids=("amplitude-string", "amplitude-nan", "mean-null", "p-true", "velocity-two",
        "velocity-string", "velocity-number", "list", "unknown-key"))
def test_bad_case_param_exits_2_before_set_up_naming_the_key(tmp_path, capsys, monkeypatch, message,
                                                              params):
    # Checked with the config: a bad value would otherwise fail only inside the initial condition.
    config = {"degree": 2, "final_time": 0.001, "mesh": {"cells": [1, 1, 1]}, "case_params": params,
              "output_dir": str(tmp_path / "out")}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    refuse_to_build_a_mesh(monkeypatch)
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a/b", "", "/abs", "dir/", 5, ["a"]],
                         ids=("separator", "empty", "absolute", "trailing-separator", "int", "list"))
def test_case_name_that_is_not_a_file_name_exits_2_before_the_mesh(tmp_path, capsys, monkeypatch, name):
    # The output files are named after it, so a bad name would otherwise fail only after the solve.
    config = {"degree": 2, "final_time": 0.001, "mesh": {"cells": [1, 1, 1]}, "case_name": name,
              "output_dir": str(tmp_path / "out")}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    refuse_to_build_a_mesh(monkeypatch)
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: case_name: must be a non-empty file name, got {name!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "converge"])
@pytest.mark.parametrize("key", ["mach", "mu"])
def test_removed_gas_key_exits_2_naming_the_key(tmp_path, capsys, command, key):
    # The Mach number cancels in the heat flux and mu enters only as mu / Re,
    # so neither may be set and silently ignored.
    config = {"degree": 1, "dt": 0.001, "final_time": 0.001, "mesh": {"cells": [1, 1, 1]},
              "gas": {"reynolds": 100.0, key: 0.5}, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    argv = [command, str(path)] + (["--levels", "1", "2"] if command == "converge" else [])
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: gas: ") and f"unexpected keyword argument '{key}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--seed", "1"],
    ["verify", "all", "--report", "x.txt"],
    ["converge", "wave.json", "--levels", "2", "3", "--report", "x.txt"],
    ["mesh", "write", "m.txt", "--builtin", "cartesian"],
], ids=("verify-seed", "verify-report", "converge-report", "mesh-write-builtin"))
def test_removed_cli_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("mesh", [{"cells": [1, 1, 1], "amplitude": 1e308}],
                         ids=("amplitude-1e308",))
def test_non_finite_geometry_exits_2(tmp_path, capsys, mesh):
    config = {"degree": 2, "final_time": 0.001, "mesh": mesh, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(config))
    # A finite amplitude passes the config check; the map overflows on
    # purpose, quietly, and the Jacobian check names the element and the key.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: mesh.amplitude: 1e+308 folds the box: ")
    assert "non-finite mapping Jacobian in element 0" in err


@pytest.mark.parametrize("amplitude", (1e308, 10.0, 0.05))
def test_warp_amplitude_that_folds_the_box_exits_2_naming_the_key(tmp_path, amplitude):
    """``run`` and ``mesh write`` in a fresh interpreter with RuntimeWarning as an error."""
    path = tmp_path / "wave.json"
    path.write_text(json.dumps({"degree": 2, "mesh": {"cells": [1, 1, 1], "amplitude": amplitude},
                                "final_time": 0.001, "output_dir": str(tmp_path / "out")}))
    write = ["mesh", "write", str(tmp_path / "m.txt"), "--degree", "2", "--cells", "1", "1", "1",
             "--amplitude", repr(amplitude)]
    result = run_fresh_python("import sys\nfrom splitdg import cli\n"
                              f"codes = cli.main(['run', {str(path)!r}]), cli.main({write!r})\n"
                              "print(*codes)")
    assert result.returncode == 0, result.stderr
    if amplitude == 0.05:
        assert result.stdout.split()[-2:] == ["0", "0"], result.stderr
    else:
        assert result.stdout.split() == ["2", "2"]
        # One error line each: no warning, no traceback.
        run_err, write_err = result.stderr.splitlines()
        assert run_err.startswith(f"error: mesh.amplitude: {amplitude!r} folds the box: ")
        assert write_err.startswith(f"error: --amplitude: {amplitude!r} folds the box: ")


@pytest.mark.parametrize("levels", (["2", "2"], ["0", "2"]))
def test_converge_rejects_degenerate_levels(tmp_path, capsys, levels):
    path = tmp_path / "wave.json"
    path.write_text(json.dumps({"degree": 2, "dt": 0.01, "final_time": 0.02}))
    assert cli.main(["converge", str(path), "--levels", *levels]) == cli.EXIT_CONFIG
    assert "levels must be distinct positive cell counts" in capsys.readouterr().err


def run_fresh_python(code):
    """Run ``code`` in a new interpreter that imports splitdg from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(splitdg.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=300)


def test_importing_the_cli_does_not_load_mpmath():
    result = run_fresh_python("import sys, splitdg.cli; print('mpmath' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_run_exits_0_where_mpmath_cannot_be_imported(tmp_path):
    path = tmp_path / "wave.json"
    path.write_text(json.dumps({"degree": 1, "mesh": {"cells": [1, 1, 1]}, "final_time": 0.001,
                                "output_dir": str(tmp_path / "out")}))
    # A None entry in sys.modules makes every later "import mpmath" fail.
    result = run_fresh_python("import sys; sys.modules['mpmath'] = None\n"
                              "from splitdg import cli\n"
                              f"sys.exit(cli.main(['run', {str(path)!r}]))")
    assert result.returncode == cli.EXIT_OK, result.stderr


def test_importing_the_cli_leaves_the_verify_battery_unloaded():
    # dataclasses too: no class on the run path is built by its decorator.
    result = run_fresh_python("import sys, splitdg.cli\n"
                              "print(sorted({'splitdg.verify', 'decimal', 'dataclasses'} & set(sys.modules)))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_unknown_verify_suite_exits_2_naming_the_suites(capsys):
    assert cli.main(["verify", "nosuch"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown suite 'nosuch'" in err
    assert all(f"'{name}'" in err for name in [*verify.SUITES, "all"])


def parser_commands(parser, prefix=()):
    """Every runnable subcommand of an argparse parser, as "mesh audit" style strings."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(prefix)]
    return [cmd for name, sub in subs[0].choices.items() for cmd in parser_commands(sub, prefix + (name,))]


def test_cli_docstring_lists_the_parser_subcommands():
    block = cli.__doc__.split("Subcommands:\n", 1)[1].split("\n\n", 1)[0]
    # Each line is the command words, then its arguments ("<path>", "--degree N", "...").
    listed = [" ".join(itertools.takewhile(str.isalpha, line.split())) for line in block.splitlines()]
    assert sorted(listed) == sorted(parser_commands(cli.build_parser()))


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


def test_run_reports_its_own_cost(tmp_path):
    summary = runner.run_case(wave_config(tmp_path, 1))
    assert summary["residual_evals"] == 5 * STEPS + 1
    assert summary["loop_wall_s"] > 0.0
    dofs = 8 * 3**3  # 2^3 elements of degree 2
    assert summary["pid_us"] == pytest.approx(
        summary["loop_wall_s"] * 1e6 / (dofs * summary["residual_evals"]), rel=1e-12)


def test_error_norms_run_after_the_solver_is_released(tmp_path, monkeypatch):
    config = wave_config(tmp_path, 1)
    expected = runner.run_case(config)
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, (solver.DGSolver, solver.Workspace))}
    error_norms, alive = cases.error_norms, []

    def checked(*args):
        alive.extend(o for o in gc.get_objects()
                     if isinstance(o, (solver.DGSolver, solver.Workspace)) and id(o) not in before)
        return error_norms(*args)

    monkeypatch.setattr(cases, "error_norms", checked)
    summary = runner.run_case(config)
    assert alive == []
    for key in ("final_max_residual", "l2_error", "linf_error", "residual_evals"):
        assert summary[key] == expected[key]
    dofs = 8 * 3**3  # 2^3 elements of degree 2
    assert summary["pid_us"] == pytest.approx(
        summary["loop_wall_s"] * 1e6 / (dofs * summary["residual_evals"]), rel=1e-12)


def test_run_reports_its_phases(tmp_path):
    summary = runner.run_case(wave_config(tmp_path, 1))
    phases = summary["phases"]
    assert sorted(phases) == ["error_norms_s", "loop_s", "output_s", "setup_s"]
    assert all(t >= 0.0 for t in phases.values())
    assert phases["loop_s"] == summary["loop_wall_s"]
    assert sum(phases.values()) <= summary["wall_time_s"]


# -- convergence on the warped mesh ---------------------------------------------

@pytest.mark.parametrize("case, boundary, gas", [
    ("density_wave", "periodic", {}),
    ("manufactured", "dirichlet", {"reynolds": 100.0}),
])
def test_warped_mesh_density_converges_at_order_n_plus_one(case, boundary, gas):
    # N = 3, warped 2^3 -> 4^3, ec + llf: the density's L2 order must reach N + 1/2.
    config = RunConfig.from_dict({
        "case": case,
        "mesh": {"builtin": "warped_box", "cells": [2, 2, 2], "amplitude": 0.05},
        "degree": 3,
        "gas": gas,
        "volume_flux": "ec",
        "surface_dissipation": "llf",
        "cfl": 0.2,
        "final_time": 0.02,
        "boundary": boundary,
    })
    report = runner.convergence_study(config, [2, 4])
    assert report["orders"][0][0] >= 3.5


def test_convergence_study_holds_one_solver_at_a_time(monkeypatch):
    config = RunConfig(mesh={"builtin": "warped_box", "cells": [1, 1, 1], "amplitude": 0.05},
                       degree=2, dt=0.01, final_time=0.02)
    expected = runner.convergence_study(config, [1, 2, 3])
    live, building, norming = weakref.WeakSet(), [], []
    init, error_norms = solver.DGSolver.__init__, cases.error_norms

    def counted_init(self, *args, **kwargs):
        live.add(self)
        gc.collect()
        building.append(len(live))
        init(self, *args, **kwargs)

    def counted_norms(*args):
        gc.collect()
        norming.append(len(live))
        return error_norms(*args)

    monkeypatch.setattr(solver.DGSolver, "__init__", counted_init)
    monkeypatch.setattr(cases, "error_norms", counted_norms)
    report = runner.convergence_study(config, [1, 2, 3])
    assert building == [1, 1, 1]  # the one being built
    assert norming == [0, 0, 0]
    assert report == expected


def test_convergence_rows_are_the_error_norms_of_run(tmp_path):
    config = {"case": "manufactured", "degree": 2, "boundary": "dirichlet", "gas": {"reynolds": 100.0},
              "mesh": {"builtin": "warped_box", "cells": [1, 1, 1], "amplitude": 0.05},
              "dt": 0.001, "final_time": 0.002, "monitor_interval": 2}
    report = runner.convergence_study(RunConfig(**config), [1, 2])
    assert [row["resolution"] for row in report["rows"]] == [1, 2]
    for row in report["rows"]:
        cells = [row["resolution"]] * 3
        summary = runner.run_case(RunConfig(**dict(config, mesh=dict(config["mesh"], cells=cells),
                                                   output_dir=str(tmp_path / str(cells[0])))))
        assert (row["l2"], row["linf"]) == (summary["l2_error"], summary["linf_error"])


def test_run_config_fields_defaults_and_unknown_keys():
    a, b = RunConfig(), RunConfig(degree=3)
    assert sorted(vars(a)) == sorted(RunConfig.FIELDS)
    assert a.mesh == {"builtin": "warped_box", "cells": [4, 4, 4]} and a.case_name == "density_wave"
    a.mesh["cells"][0], a.gas["reynolds"], a.case_params["amplitude"] = 2, 10.0, 0.1
    assert b.mesh["cells"] == [4, 4, 4] and b.gas == {} and b.case_params == {}  # fresh per instance
    with pytest.raises(TypeError, match="unexpected keyword argument 'cells'"):
        RunConfig(cells=[2, 2, 2])
    with pytest.raises(ConfigError, match=r"unknown config keys: \['cells', 'resolution'\]"):
        RunConfig.from_dict({"degree": 3, "cells": [2, 2, 2], "resolution": 1})
    with pytest.raises(ConfigError, match="mesh: must be an object, got None"):
        RunConfig.from_dict({"mesh": None})
