"""Mesh and state file round trips, and the `mesh` CLI subcommands."""

from types import SimpleNamespace

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


def test_cli_mesh_audit_rejects_truncated_curved_block(tmp_path, capsys):
    path = tmp_path / "box.mesh"
    assert cli.main(["mesh", "write", str(path), "--degree", "2", "--cells", "1", "1", "1"]) == cli.EXIT_OK
    capsys.readouterr()
    truncated = tmp_path / "truncated.mesh"
    truncated.write_text("\n".join(path.read_text().splitlines()[:20]) + "\n")
    with pytest.raises(mesh_mod.MeshFileError, match=r"ends before node \(2, 2\) of 'curved 0 0'"):
        mesh_mod.read_mesh_file(truncated)
    assert cli.main(["mesh", "audit", str(truncated)]) == cli.EXIT_CONFIG
    assert "truncated.mesh: file ends before" in capsys.readouterr().err


def test_mesh_file_without_elements_line_rejected(tmp_path):
    path = tmp_path / "short.mesh"
    path.write_text(f"{mesh_mod.MESH_MAGIC}\ndegree 2\n")
    with pytest.raises(mesh_mod.MeshFileError, match="ends before the 'elements' line"):
        mesh_mod.read_mesh_file(path)


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


# N=1, two elements, 1/7 steps with a tiny, a signed-zero and a huge entry.
REFERENCE_STATE_FILE = """\
splitdg-state 1
degree 1
elements 2
time 0.03333333333333333
ordering element-major; nodes (i,j,k) row-major; components rho rhov1 rhov2 rhov3 rhoE
1e-300 2.2857142857142856 4.571428571428571 6.857142857142857 9.142857142857142
0.14285714285714285 -0.0 4.714285714285714 7.0 9.285714285714286
0.2857142857142857 2.5714285714285716 4.857142857142857 7.142857142857143 9.428571428571429
0.42857142857142855 2.7142857142857144 5.0 7.285714285714286 9.571428571428571
0.5714285714285714 2.857142857142857 5.142857142857143 7.428571428571429 9.714285714285714
0.7142857142857143 3.0 5.285714285714286 7.571428571428571 9.857142857142858
0.8571428571428571 3.142857142857143 5.428571428571429 7.714285714285714 10.0
1.0 3.2857142857142856 5.571428571428571 7.857142857142857 10.142857142857142
1.1428571428571428 3.4285714285714284 5.714285714285714 8.0 10.285714285714286
1.2857142857142858 3.5714285714285716 5.857142857142857 8.142857142857142 10.428571428571429
1.4285714285714286 3.7142857142857144 6.0 8.285714285714286 10.571428571428571
1.5714285714285714 3.857142857142857 6.142857142857143 8.428571428571429 10.714285714285714
1.7142857142857142 4.0 6.285714285714286 8.571428571428571 10.857142857142858
1.8571428571428572 4.142857142857143 6.428571428571429 8.714285714285714 11.0
2.0 4.285714285714286 6.571428571428571 8.857142857142858 11.142857142857142
2.142857142857143 4.428571428571429 6.714285714285714 9.0 -2.5e+17
"""


def test_state_file_bytes_match_reference(tmp_path):
    u = np.arange(80.0).reshape(5, 2, 2, 2, 2) / 7.0
    u[0, 0, 0, 0, 0] = 1e-300
    u[1, 0, 0, 0, 1] = -0.0
    u[4, 1, 1, 1, 1] = -2.5e17
    dg = SimpleNamespace(basis=SimpleNamespace(n=1), num_elements=2)
    path = tmp_path / "ref.state"
    runner.write_state_file(path, dg, solver.SolutionField(u, 0.1 / 3))
    assert path.read_bytes() == REFERENCE_STATE_FILE.encode()


@pytest.mark.parametrize("keep", (0, 3))
def test_empty_or_header_truncated_state_file_rejected(tmp_path, keep):
    dg, state = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, state)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
    with pytest.raises(ValueError, match="not a splitdg state file" if keep == 0 else "truncated header"):
        runner.read_state_file(path)


# Edits (line index, new text) of a written one-element N=1 mesh file, each
# leaving a short or out-of-range record: lines 1 and 2 are the degree and
# elements lines, 3 the first corner, 11 'curved 0 0' and 12 its first node,
# the last line a periodic link.
MALFORMED = {
    "bare degree": (1, "degree"),
    "bare elements": (2, "elements"),
    "corner without coordinates": (3, "corner 0"),
    "corner with one coordinate": (3, "corner 0 0 0.5"),
    "corner of a missing element": (3, "corner 1 0 0.0 0.0 0.0"),
    "negative corner index": (3, "corner 0 -1 0.0 0.0 0.0"),
    "curved without face": (11, "curved 0"),
    "curved node with one coordinate": (12, "0.5"),
    "short link": (-1, "periodic 0 5 0 4"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_mesh_audit_rejects_malformed_record(tmp_path, capsys, case):
    path = tmp_path / "box.mesh"
    mesh_mod.write_mesh_file(path, mesh_mod.box_mesh(1, (1, 1, 1)))
    lines = path.read_text().splitlines()
    assert lines[11] == "curved 0 0" and lines[-1].startswith("periodic")
    index, text = MALFORMED[case]
    lines[index] = text
    bad = tmp_path / "bad.mesh"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(mesh_mod.MeshFileError):
        mesh_mod.read_mesh_file(bad)
    assert cli.main(["mesh", "audit", str(bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad.mesh: " in err and f"'{text}'" in err


def test_state_file_with_bare_header_line_rejected(tmp_path):
    dg, state = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, state)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "degree\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="expected 'degree <value>', got 'degree'"):
        runner.read_state_file(path)
