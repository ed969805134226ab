"""Mesh and state file round trips, and the `mesh` CLI subcommands."""

import hashlib
import json
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from splitdg import cases, cli, geometry, mesh as mesh_mod, physics, runner, solver

GEOMETRY = ("x", "ja", "j", "s_own", "n_own", "s_hat", "normal")


@pytest.fixture(params=[True, False], ids=["periodic", "dirichlet"])
def warped(request):
    return mesh_mod.warped_box_mesh(3, (2, 2, 2), amplitude=0.05, periodic=request.param)


@pytest.mark.parametrize("n", (2, 4, 7))
@pytest.mark.parametrize("periodic", (True, False), ids=["periodic", "dirichlet"])
def test_warped_box_at_amplitude_0_is_the_affine_box_bit_for_bit(n, periodic):
    cells = (2, 3, 1)
    warped = mesh_mod.warped_box_mesh(n, cells, amplitude=0.0, periodic=periodic)
    box = mesh_mod.box_mesh(n, cells, periodic=periodic)
    for name in GEOMETRY:
        a, b = getattr(warped, name), getattr(box, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert warped.links == box.links
    assert warped.boundary == box.boundary


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


# -- face geometry: the owner side stored, the full faces on demand -------------

def reference_nbr(mesh):
    """Every link's neighbour side on the owner's face grid, built from the records."""
    link = np.array([tuple(k) for k in mesh.links], dtype=np.intp).reshape(-1, 6)
    perm = mesh_mod.orientation_table(mesh.basis.n + 1)[link[:, 4]]
    return (Ellipsis, link[:, 3, None, None], link[:, 2, None, None], perm[:, 0], perm[:, 1])


def test_full_face_arrays_on_demand_are_bitwise_face_geometry_and_read_only(warped):
    s_hat, normal = geometry.face_geometry(warped.ja)
    for name, ref in (("s_hat", s_hat), ("normal", normal)):
        got = getattr(warped, name)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name
        assert not got.flags.writeable, name
        assert name not in vars(warped), name
    # The stored owner side is the full arrays at ``own``, bit for bit.
    assert warped.s_own.shape == s_hat[warped.own].shape
    assert warped.s_own.tobytes() == s_hat[warped.own].tobytes()
    assert warped.n_own.tobytes() == normal[warped.own].tobytes()
    assert not (warped.s_own.flags.writeable or warped.n_own.flags.writeable)
    nbr, ref = warped.nbr, reference_nbr(warped)
    assert nbr[0] is Ellipsis and len(nbr) == len(ref) == 5
    for got, want in zip(nbr[1:], ref[1:]):
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
        assert not got.flags.writeable
    assert s_hat[nbr].tobytes() == s_hat[ref].tobytes()


def test_face_mismatch_is_bitwise_the_full_face_formula():
    mesh = mesh_mod.warped_box_mesh(4, (4, 4, 4), amplitude=0.05)
    s_hat, normal = geometry.face_geometry(mesh.ja)
    own, nbr, nl = mesh.own, reference_nbr(mesh), len(mesh.links)
    s_gap = float(np.max(np.abs(s_hat[own][:nl] - s_hat[nbr]), initial=0.0))
    n_gap = float(np.max(np.abs(normal[own][:, :nl] + normal[nbr]), initial=0.0))
    assert mesh.face_mismatch() == (s_gap, n_gap)
    assert n_gap > 0.0  # periodic partners disagree at roundoff, so the comparison sees data


def test_face_mismatch_is_exactly_zero_on_a_dirichlet_box():
    # The ns_n3_dirichlet benchmark workload's mesh: its links are interior
    # faces, whose two sides read the same nodes.
    mesh = mesh_mod.warped_box_mesh(3, (6, 6, 6), amplitude=0.05, periodic=False)
    assert mesh.face_mismatch() == (0.0, 0.0)


def test_mesh_file_round_trip_audits_to_the_same_summary(warped, tmp_path):
    path = tmp_path / "warped.mesh"
    mesh_mod.write_mesh_file(path, warped)
    before, after = mesh_mod.audit(warped)[1], mesh_mod.audit(mesh_mod.read_mesh_file(path))[1]
    assert before.keys() == after.keys()
    for key in ("elements", "links", "boundary_faces"):
        assert before[key] == after[key], key
    # The nodes come back to roundoff (see test_mesh_file_round_trip), so
    # the residual and the mismatches do too.
    for key in ("face_s_hat_mismatch", "face_normal_mismatch", "worst_metric_residual"):
        assert abs(before[key] - after[key]) <= 1e-14, key


def test_corner_only_mesh_file_reads_to_the_box(tmp_path):
    # No curved records: every face is the bilinear face of its element's corners.
    box = mesh_mod.box_mesh(3, (2, 1, 1), periodic=False)
    unit = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    lines = [mesh_mod.MESH_MAGIC, "degree 3", "elements 2"]
    lines += [f"corner {e} {c} {(e + x) / 2} {y} {z}" for e in range(2) for c, (x, y, z) in enumerate(unit)]
    lines += [f"link {k.left} {k.left_face} {k.right} {k.right_face} {k.orient}" for k in box.links]
    lines += [f"dirichlet {b.element} {b.face} {b.tag}" for b in box.boundary]
    path = tmp_path / "corners.mesh"
    path.write_text("\n".join(lines) + "\n")
    back = mesh_mod.read_mesh_file(path)
    assert back.links == box.links and back.boundary == box.boundary
    for name in ("x", "ja"):
        assert np.abs(getattr(back, name) - getattr(box, name)).max() <= 1e-14, name


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


def test_corner_record_away_from_its_faces_rejected(tmp_path, capsys):
    path = tmp_path / "box.mesh"
    mesh_mod.write_mesh_file(path, mesh_mod.warped_box_mesh(2, (2, 1, 1), amplitude=0.05))
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    lines = path.read_text().splitlines()
    index = next(i for i, ln in enumerate(lines) if ln.startswith("corner 1 6 "))
    *head, x = lines[index].split()
    lines[index] = " ".join(head + [repr(float(x) + 0.1)])
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_CONFIG
    assert "box.mesh: corner 6 of element 1 is at " in capsys.readouterr().err


def test_cli_mesh_write_and_audit(tmp_path, capsys):
    path = tmp_path / "box.mesh"
    assert cli.main(["mesh", "write", str(path), "--degree", "2", "--cells", "2", "1", "1"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "element,j_min,j_max,metric_residual,cross_residual"
    assert [ln.split(",")[0] for ln in out[1:3]] == ["0", "1"]
    assert "# elements: 2" in out


@pytest.mark.parametrize("cells", (["0", "1", "1"], ["1", "-2", "1"]), ids=("zero", "negative"))
def test_cli_mesh_write_rejects_non_positive_cells(tmp_path, capsys, cells):
    path = tmp_path / "box.mesh"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # checked before any division
        assert cli.main(["mesh", "write", str(path), "--cells", *cells]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --cells: must be three integers >= 1")
    assert not path.exists()


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
    return dg, cases.initial_condition(cases.DensityWave(), dg, gas), 0.1 / 3


def test_state_file_round_trip_is_bitwise(tmp_path):
    dg, u0, t0 = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, u0, t0)
    degree, u, t = runner.read_state_file(path)
    assert degree == 2 and t == t0
    assert u.shape == u0.shape and np.array_equal(u, u0)


def test_truncated_state_file_rejected(tmp_path):
    dg, u, t = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, u, t)
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


REFERENCE_MESH_FILE = """\
splitdg-mesh 1
degree 1
elements 1
corner 0 0 0.0 -0.1 -1.0
corner 0 1 0.3 -0.1 -0.97
corner 0 2 0.3333333333333333 0.2333333333333333 -0.97
corner 0 3 0.03333333333333333 0.2333333333333333 -1.0
corner 0 4 0.0 0.06999999999999999 0.7
corner 0 5 0.3 0.06999999999999999 0.73
corner 0 6 0.3333333333333333 0.4033333333333333 0.73
corner 0 7 0.03333333333333333 0.4033333333333333 0.7
curved 0 0
0.0 -0.1 -1.0
0.0 0.06999999999999999 0.7
0.03333333333333333 0.2333333333333333 -1.0
0.03333333333333333 0.4033333333333333 0.7
curved 0 1
0.3 -0.1 -0.97
0.3 0.06999999999999999 0.73
0.3333333333333333 0.2333333333333333 -0.97
0.3333333333333333 0.4033333333333333 0.73
curved 0 2
0.0 -0.1 -1.0
0.0 0.06999999999999999 0.7
0.3 -0.1 -0.97
0.3 0.06999999999999999 0.73
curved 0 3
0.03333333333333333 0.2333333333333333 -1.0
0.03333333333333333 0.4033333333333333 0.7
0.3333333333333333 0.2333333333333333 -0.97
0.3333333333333333 0.4033333333333333 0.73
curved 0 4
0.0 -0.1 -1.0
0.03333333333333333 0.2333333333333333 -1.0
0.3 -0.1 -0.97
0.3333333333333333 0.2333333333333333 -0.97
curved 0 5
0.0 0.06999999999999999 0.7
0.03333333333333333 0.4033333333333333 0.7
0.3 0.06999999999999999 0.73
0.3333333333333333 0.4033333333333333 0.73
periodic 0 1 0 0 0
dirichlet 0 3 dirichlet
dirichlet 0 2 dirichlet
dirichlet 0 5 dirichlet
dirichlet 0 4 dirichlet
"""


def test_mesh_file_bytes_match_reference(tmp_path):
    mesh = mesh_mod.box_mesh(1, (1, 1, 1), bounds=((0.0, 0.3), (0.0, 1.0 / 3.0), (-1.0, 0.7)),
                             warp=lambda x: x + 0.1 * x[[1, 2, 0]], periodic=(0,))
    path = tmp_path / "ref.mesh"
    mesh_mod.write_mesh_file(path, mesh)
    assert path.read_bytes() == REFERENCE_MESH_FILE.encode()


def test_state_file_bytes_match_reference(tmp_path):
    u = np.arange(80.0).reshape(5, 2, 2, 2, 2) / 7.0
    u[0, 0, 0, 0, 0] = 1e-300
    u[1, 0, 0, 0, 1] = -0.0
    u[4, 1, 1, 1, 1] = -2.5e17
    dg = SimpleNamespace(basis=SimpleNamespace(n=1), num_elements=2)
    path = tmp_path / "ref.state"
    runner.write_state_file(path, dg, u, 0.1 / 3)
    assert path.read_bytes() == REFERENCE_STATE_FILE.encode()


@pytest.mark.parametrize("keep", (0, 3))
def test_empty_or_header_truncated_state_file_rejected(tmp_path, keep):
    dg, u, t = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, u, t)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
    with pytest.raises(ValueError, match="not a splitdg state file" if keep == 0 else "truncated header"):
        runner.read_state_file(path)


# Edits (line index, new text) of a written one-element N=1 mesh file, each
# leaving a short, out-of-range, non-numeric or non-finite record: lines 1 and 2 are the
# degree and elements lines, 3 the first corner, 11 'curved 0 0' and 12 its
# first node, the last line a periodic link.
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
    "non-numeric degree": (1, "degree two"),
    "non-numeric corner index": (3, "corner x 1 0.0 0.0 0.0"),
    "non-numeric curved node coordinate": (12, "0.0 y 0.0"),
    "non-numeric link index": (-1, "periodic 0 5 zero 4 0"),
    "non-numeric dirichlet index": (-1, "dirichlet 0 five dirichlet"),
    "infinite corner coordinate": (3, "corner 0 0 inf 0.0 0.0"),
    "nan curved node coordinate": (12, "nan 0.0 0.0"),
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


def test_run_on_a_mesh_with_a_nan_node_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "box.mesh"
    mesh_mod.write_mesh_file(path, mesh_mod.warped_box_mesh(2, (2, 1, 1), amplitude=0.05))
    lines = path.read_text().splitlines()
    node = lines.index("curved 0 1") + 1
    lines[node] = "nan " + lines[node].split(maxsplit=1)[1]
    path.write_text("\n".join(lines) + "\n")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mesh": {"path": str(path)}, "degree": 2, "final_time": 0.001,
                                  "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(config)]) == cli.EXIT_CONFIG
    assert f"box.mesh: non-finite value on line {node + 1}: 'nan " in capsys.readouterr().err


def test_state_file_with_bare_header_line_rejected(tmp_path):
    dg, u, t = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, u, t)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "degree\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="expected 'degree <value>', got 'degree'"):
        runner.read_state_file(path)


def test_orientation_code_out_of_range_rejected(tmp_path, capsys):
    mesh = mesh_mod.box_mesh(1, (1, 1, 1))
    links = [mesh.links[0]._replace(orient=8)] + mesh.links[1:]
    with pytest.raises(ValueError, match=r"must be 0\.\.7, got 8 in FaceLink\(left=0, left_face=1"):
        mesh_mod.MeshTopology(mesh.basis, mesh.x, links, mesh.boundary)
    path = tmp_path / "box.mesh"
    mesh_mod.write_mesh_file(path, mesh)
    lines = path.read_text().splitlines()
    assert lines[-1] == "periodic 0 5 0 4 0"
    lines[-1] = "periodic 0 5 0 4 9"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_CONFIG
    assert "box.mesh: orientation 9 out of range [0, 8) in 'periodic 0 5 0 4 9'" in capsys.readouterr().err


# Edits (line index, new text) of a written state file with a non-numeric field.
NON_NUMERIC_STATE = {
    "degree": (1, "degree two"),
    "time": (3, "time t0"),
    "data row": (7, "1.0 0.0 nan? 0.0 2.5"),
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC_STATE))
def test_state_file_with_non_numeric_field_rejected(tmp_path, case):
    dg, u, t = _state()
    path = tmp_path / "final.state"
    runner.write_state_file(path, dg, u, t)
    lines = path.read_text().splitlines(keepends=True)
    index, text = NON_NUMERIC_STATE[case]
    lines[index] = text + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"final.state: expected .* values, got '{re.escape(text)}'"):
        runner.read_state_file(path)


def box_links_loop(cells, periodic_dirs):
    """The reference record order of a box: a loop over elements, then directions 0, 1, 2."""
    mx, my, mz = cells
    eid = lambda ix, iy, iz: (ix * my + iy) * mz + iz
    links, boundary = [], []
    plus_face, minus_face = {0: 1, 1: 3, 2: 5}, {0: 0, 1: 2, 2: 4}
    for ix in range(mx):
        for iy in range(my):
            for iz in range(mz):
                e, idx = eid(ix, iy, iz), (ix, iy, iz)
                for d, m in ((0, mx), (1, my), (2, mz)):
                    nxt = list(idx)
                    nxt[d] += 1
                    wraps = nxt[d] == m
                    if wraps and d not in periodic_dirs:
                        boundary.append(mesh_mod.BoundaryFace(e, plus_face[d], "dirichlet"))
                        if idx[d] == 0:
                            boundary.append(mesh_mod.BoundaryFace(e, minus_face[d], "dirichlet"))
                        continue
                    if idx[d] == 0 and d not in periodic_dirs:
                        boundary.append(mesh_mod.BoundaryFace(e, minus_face[d], "dirichlet"))
                    nxt[d] %= m
                    links.append(mesh_mod.FaceLink(e, plus_face[d], eid(*nxt), minus_face[d], 0, wraps))
    return links, boundary


@pytest.mark.parametrize("periodic_dirs", [(0, 1, 2), (), (0,), (1, 2)], ids=str)
@pytest.mark.parametrize("cells", [(1, 1, 1), (2, 1, 3), (3, 3, 3), (1, 4, 2)], ids=str)
def test_box_links_match_the_reference_loop_record_for_record(cells, periodic_dirs):
    links, boundary = mesh_mod._box_links(cells, periodic_dirs)
    ref_links, ref_boundary = box_links_loop(cells, periodic_dirs)
    # repr compares the field types too: plain ints and bools, not numpy scalars.
    assert repr(links) == repr(ref_links)
    assert repr(boundary) == repr(ref_boundary)
    assert all(type(r) is mesh_mod.FaceLink for r in links)
    assert all(type(r) is mesh_mod.BoundaryFace for r in boundary)


# The Dirichlet 2x1x1 box: one link and ten wall faces, in the order box_mesh gives them.
LINK = (0, 1, 1, 0, 0, False)
WALLS = ((0, 0), (0, 3), (0, 2), (0, 5), (0, 4), (1, 1), (1, 3), (1, 2), (1, 5), (1, 4))

# name: (links, walls, message); each names the first offending record in record order.
BAD_RECORDS = {
    "element out of range": (
        [LINK, (2, 3, 1, 2, 0, False)], WALLS + ((7, 0),), "face reference out of range: element 2 face 3"),
    "face out of range": (
        [(0, 1, 1, 6, 0, False), (2, 3, 1, 2, 0, False)], WALLS, "face reference out of range: element 1 face 6"),
    "negative element in the right side before its orientation": (
        [(0, 1, -1, 0, 9, False)], WALLS, "face reference out of range: element -1 face 0"),
    "wall face out of range": ([LINK], WALLS[:4] + ((1, -1),), "face reference out of range: element 1 face -1"),
    "face referenced twice": (
        [LINK], WALLS[:3] + ((1, 0),) + WALLS[4:6] + ((0, 0),) + WALLS[7:],
        "element 1 face 0 referenced more than once"),
    "both sides of a link on one face": (
        [(0, 1, 0, 1, 0, False)], WALLS, "element 0 face 1 referenced more than once"),
    "duplicate before an out-of-range wall": (
        [LINK], WALLS[:2] + ((0, 0), (9, 9)) + WALLS[2:], "element 0 face 0 referenced more than once"),
    "orientation before a later out-of-range link": (
        [(0, 1, 1, 0, 9, False), (5, 0, 1, 1, 0, False)], WALLS,
        "orientation code must be 0..7, got 9 in FaceLink(left=0, left_face=1, right=1, "
        "right_face=0, orient=9, periodic=False)"),
    "negative orientation": (
        [(0, 1, 1, 0, -1, True)], WALLS, "orientation code must be 0..7, got -1 in FaceLink(left=0"),
    "missing faces": ([LINK], WALLS[:-2], "2 element faces have no neighbour or boundary tag"),
    "missing link": ([], WALLS, "2 element faces have no neighbour or boundary tag"),
}


def test_record_beyond_the_machine_integers_rejected(tmp_path, capsys):
    box = mesh_mod.box_mesh(1, (2, 1, 1), periodic=False)
    links = [mesh_mod.FaceLink(0, 1, 10**30, 0)]
    with pytest.raises(ValueError, match="face record out of range: "):
        mesh_mod.MeshTopology(box.basis, box.x, links, box.boundary)
    # The mesh-file reader checks the record's numbers first, naming the line.
    path = tmp_path / "box.mesh"
    mesh_mod.write_mesh_file(path, box)
    path.write_text(path.read_text().replace("link 0 1 1 0 0", f"link 0 1 {10**30} 0 0"))
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_CONFIG
    assert f"box.mesh: element {10**30} out of range [0, 2) in 'link 0 1 {10**30} 0 0'" in capsys.readouterr().err


# One record of the written Dirichlet 2x1x1 box edited: name: (record, edited, message).
BAD_FILE_RECORDS = {
    "link element": ("link 0 1 1 0 0", "link 0 1 7 0 0", "element 7 out of range [0, 2)"),
    "link face": ("link 0 1 1 0 0", "link 0 6 1 0 0", "face 6 out of range [0, 6)"),
    "link orientation": ("link 0 1 1 0 0", "link 0 1 1 0 9", "orientation 9 out of range [0, 8)"),
    "periodic element": ("link 0 1 1 0 0", "periodic -1 1 1 0 0", "element -1 out of range [0, 2)"),
    "periodic face": ("link 0 1 1 0 0", "periodic 0 1 1 -2 0", "face -2 out of range [0, 6)"),
    "periodic orientation": ("link 0 1 1 0 0", "periodic 0 1 1 0 -1",
                             "orientation -1 out of range [0, 8)"),
    "dirichlet element": ("dirichlet 1 4 dirichlet", "dirichlet 2 4 dirichlet",
                          "element 2 out of range [0, 2)"),
    "dirichlet face": ("dirichlet 0 0 dirichlet", "dirichlet 0 6 wall", "face 6 out of range [0, 6)"),
}


@pytest.mark.parametrize("name", sorted(BAD_FILE_RECORDS))
def test_mesh_file_record_out_of_range_names_the_path_and_the_line(name, tmp_path, capsys):
    record, edited, message = BAD_FILE_RECORDS[name]
    path = tmp_path / "box.mesh"
    mesh_mod.write_mesh_file(path, mesh_mod.box_mesh(1, (2, 1, 1), periodic=False))
    text = path.read_text()
    assert text.count(f"\n{record}\n") == 1
    path.write_text(text.replace(f"\n{record}\n", f"\n{edited}\n"))
    with pytest.raises(mesh_mod.MeshFileError, match=re.escape(f"{path}: {message} in '{edited}'")):
        mesh_mod.read_mesh_file(path)
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: {message} in '{edited}'\n"


@pytest.mark.parametrize("name", sorted(BAD_RECORDS))
def test_mesh_topology_rejects_bad_records_naming_the_first(name):
    links, walls, message = BAD_RECORDS[name]
    box = mesh_mod.box_mesh(1, (2, 1, 1), periodic=False)
    assert box.links == [mesh_mod.FaceLink(*LINK)]
    assert box.boundary == [mesh_mod.BoundaryFace(e, f, "dirichlet") for e, f in WALLS]
    records = [mesh_mod.FaceLink(*r) for r in links], [mesh_mod.BoundaryFace(e, f, "wall") for e, f in walls]
    with pytest.raises(ValueError) as err:
        mesh_mod.MeshTopology(box.basis, box.x, *records)
    assert str(err.value).startswith(message)


# SHA-256 of the warped box at N=2 with cells (2, 1, 3) as written by write_mesh_file:
# of the coordinates (mesh.x.tobytes()), of the whole file and of its record lines.
WARPED_FILE_DIGESTS = {
    "periodic": ("07cb900ce21dde24dc04c752be293e3477a2d8056c6cebc92744b6b135cee61b",
                 "14d898d6fa5913e63b63ba94514eb67750604b99228be8c582f3a0891baa62a2",
                 "f74e251906842f4b1750aed97c22ae16d55f730c54df7e0a3a9d2bfd09cb810b"),
    "dirichlet": ("07cb900ce21dde24dc04c752be293e3477a2d8056c6cebc92744b6b135cee61b",
                  "e5802de60fa5d203feef9c280cfe6a0fd33a287195b3351b762f4554af1dfa0e",
                  "2a286b473f1eba673ca30b51a29c297128b6e9e8fc2bb1338069ce04042a4774"),
}


@pytest.mark.parametrize("boundary", sorted(WARPED_FILE_DIGESTS))
def test_warped_box_mesh_file_bytes_are_pinned(boundary, tmp_path):
    mesh = mesh_mod.warped_box_mesh(2, (2, 1, 3), periodic=boundary == "periodic")
    path = tmp_path / "warped.mesh"
    mesh_mod.write_mesh_file(path, mesh)
    text = path.read_bytes()
    records = b"".join(ln for ln in text.splitlines(keepends=True)
                       if ln.split(b" ", 1)[0] in (b"link", b"periodic", b"dirichlet"))
    digest = lambda b: hashlib.sha256(b).hexdigest()
    x_digest, file_digest, record_digest = WARPED_FILE_DIGESTS[boundary]
    assert digest(records) == record_digest
    # The coordinates go through np.sin, whose last bit may differ between numpy
    # builds; on coordinates equal to the reference the file must be too.
    if digest(mesh.x.tobytes()) == x_digest:
        assert digest(text) == file_digest
