"""Mesh and state file round trips, and the `mesh` CLI subcommands."""

import numpy as np
import pytest

from splitdg import cases, cli, geometry, mesh as mesh_mod, physics, runner, solver

GEOMETRY = ("x", "ja", "j", "s_hat", "normal")


@pytest.fixture(params=[True, False], ids=["periodic", "dirichlet"])
def warped(request):
    return mesh_mod.warped_box_mesh(3, (2, 2, 2), amplitude=0.05, periodic=request.param)


def test_mesh_file_round_trip(warped, tmp_path):
    path = tmp_path / "warped.mesh"
    mesh_mod.write_mesh_file(path, warped)
    back = mesh_mod.read_mesh_file(path)
    assert back.basis.n == 3
    assert back.links == warped.links
    assert back.boundary == warped.boundary
    for name in GEOMETRY:
        a, b = getattr(warped, name), getattr(back, name)
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-13, name


def test_mesh_file_reinterpolated_to_higher_degree(warped, tmp_path):
    path = tmp_path / "warped.mesh"
    mesh_mod.write_mesh_file(path, warped)
    fine = mesh_mod.read_mesh_file(path, degree=5)
    assert fine.x.shape == (3, 8, 6, 6, 6)
    assert geometry.metric_identity_residual(fine.basis, fine.ja).max() <= 1e-12
    s_gap, n_gap = fine.face_mismatch()  # the bound of `verify`'s shared-face checks
    assert s_gap <= 1e-10 and n_gap <= 1e-10


def test_mesh_file_with_open_faces_rejected(tmp_path):
    mesh = mesh_mod.warped_box_mesh(2, (1, 1, 1), amplitude=0.05)
    path = tmp_path / "open.mesh"
    mesh_mod.write_mesh_file(path, mesh)
    lines = path.read_text().splitlines()
    first = lines.index("curved 0 0") + 1  # corner node (0, 0) of face 0
    lines[first] = " ".join(str(float(v) + 1e-6) for v in lines[first].split())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(geometry.GeometryError, match="watertight"):
        mesh_mod.read_mesh_file(path)


def test_cli_mesh_write_and_audit(tmp_path, capsys):
    path = tmp_path / "box.mesh"
    assert cli.main(["mesh", "write", str(path), "--degree", "2", "--cells", "2", "1", "1"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "element,j_min,j_max,metric_residual,cross_residual"
    assert [ln.split(",")[0] for ln in out[1:3]] == ["0", "1"]
    assert "# elements: 2" in out


def test_cli_mesh_audit_rejects_wrong_magic(tmp_path, capsys):
    path = tmp_path / "bad.mesh"
    path.write_text("splitdg-mesh 0\ndegree 2\nelements 0\n")
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_CONFIG
    assert "not a splitdg mesh file" in capsys.readouterr().err


def _state(n=2):
    gas = physics.GasModel()
    dg = solver.DGSolver(mesh_mod.warped_box_mesh(n, (2, 1, 1), amplitude=0.05), gas)
    return dg, solver.SolutionField(cases.initial_condition(cases.DensityWave(), dg, gas), 0.1 / 3)


def test_state_file_round_trip_is_bitwise(tmp_path):
    dg, state = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, state)
    degree, u, t = runner.read_state_file(path)
    assert degree == 2 and t == state.t
    assert u.shape == state.u.shape and np.array_equal(u, state.u)


def test_truncated_state_file_rejected(tmp_path):
    dg, state = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, state)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="expected 54 rows"):
        runner.read_state_file(path)
