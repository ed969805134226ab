"""Conforming hexahedral mesh topology, built-in box meshes, and mesh file I/O.

A mesh holds the stacked nodal coordinates x, shape (3, K, n, n, n), the
geometry computed from them once for all elements (curl-form Ja^i, J, and
the face arrays s_hat (6, K, n, n) and normal (3, 6, K, n, n), see
:mod:`splitdg.geometry`) and face-connectivity records.  Every interior (or
periodic) face is stored exactly once as a ``FaceLink``; the ``left``
element owns the face and its outward normal.  Orientation codes 0..7 (the
symmetries of the square) map the owner's face grid (a, b) onto the
neighbour's grid so that mapped indices are physically coincident points.

The mesh file format is line-based text (see ``write_mesh_file``): per
element the 8 corner points, optional curved-face point grids, then the
face-neighbour table with orientation codes and explicitly listed periodic
pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from splitdg import geometry, spectral

N_FACES = 6


def orientation_indices(code, n1):
    """Index arrays (A, B) with neighbour node = (A[a, b], B[a, b])."""
    a, b = np.meshgrid(np.arange(n1), np.arange(n1), indexing="ij")
    r = n1 - 1
    table = {
        0: (a, b),
        1: (b, a),
        2: (r - a, b),
        3: (b, r - a),
        4: (r - a, r - b),
        5: (r - b, r - a),
        6: (a, r - b),
        7: (r - b, a),
    }
    try:
        return table[code]
    except KeyError:
        raise ValueError(f"orientation code must be 0..7, got {code}") from None


@dataclass(frozen=True)
class FaceLink:
    """One shared face: ``left`` owns it; ``orient`` maps left grid to right."""

    left: int
    left_face: int
    right: int
    right_face: int
    orient: int = 0
    periodic: bool = False


@dataclass(frozen=True)
class BoundaryFace:
    element: int
    face: int
    tag: str


class MeshTopology:
    """Conforming curvilinear hex mesh: stacked geometry + face connectivity.

    Args:
        basis: the NodalBasis of the isoparametric geometry.
        x: mapped LGL nodes of all elements, shape (3, K, n, n, n).
        links: FaceLink records.
        boundary: BoundaryFace records (Dirichlet faces).

    Raises GeometryError for a non-positive Jacobian or a degenerate face,
    naming the element.  The geometry arrays are read-only.
    """

    def __init__(self, basis, x, links, boundary=()):
        n1 = basis.n + 1
        x = np.array(x, dtype=float)
        if x.ndim != 5 or x.shape[0] != 3 or x.shape[2:] != (n1, n1, n1):
            raise ValueError(f"expected nodes of shape (3, K, {n1}, {n1}, {n1}), got {x.shape}")
        self.basis = basis
        self.links = list(links)
        self.boundary = list(boundary)
        self.num_elements = x.shape[1]
        self._validate()

        self.x = x
        self.j = geometry.jacobian(spectral.tensor_gradient(basis, x))
        geometry.check_jacobian(self.j)  # before the costlier curl-form metrics
        self.ja = geometry.metrics_curl_form(basis, x)
        self.s_hat, self.normal = geometry.face_geometry(self.ja)
        for a in (self.x, self.ja, self.j, self.s_hat, self.normal):
            a.setflags(write=False)

        # Owner faces: link left sides, then Dirichlet faces.
        intp = lambda v: np.array(v, dtype=np.intp)
        l_face = intp([ln.left_face for ln in self.links])
        self.l_elem = intp([ln.left for ln in self.links])
        self.b_elem = intp([bf.element for bf in self.boundary])
        self.b_face = intp([bf.face for bf in self.boundary])
        self.own = (Ellipsis, np.concatenate([l_face, self.b_face]),
                    np.concatenate([self.l_elem, self.b_elem]), slice(None), slice(None))
        # Neighbour side of every link, indexed on the owner's face grid.
        table = np.array([orientation_indices(code, n1) for code in range(8)], dtype=np.intp)
        perm = table[intp([ln.orient for ln in self.links])]
        r_elem = intp([ln.right for ln in self.links])[:, None, None]
        r_face = intp([ln.right_face for ln in self.links])[:, None, None]
        self.nbr = (Ellipsis, r_face, r_elem, perm[:, 0], perm[:, 1])

    def _validate(self):
        seen = set()

        def claim(elem, face):
            if not (0 <= elem < self.num_elements and 0 <= face < N_FACES):
                raise ValueError(f"face reference out of range: element {elem} face {face}")
            key = (elem, face)
            if key in seen:
                raise ValueError(f"element {elem} face {face} referenced more than once")
            seen.add(key)

        for link in self.links:
            claim(link.left, link.left_face)
            claim(link.right, link.right_face)
            if not 0 <= link.orient < 8:
                raise ValueError(f"orientation code must be 0..7, got {link.orient} in {link}")
        for bf in self.boundary:
            claim(bf.element, bf.face)
        missing = self.num_elements * N_FACES - len(seen)
        if missing:
            raise ValueError(f"{missing} element faces have no neighbour or boundary tag")

    def face_mismatch(self):
        """Largest surface-element and normal disagreement across all links.

        Periodic partners must carry matching face geometry; for a watertight
        conforming mesh this is at roundoff level.
        """
        nl = len(self.links)
        s_gap = np.abs(self.s_hat[self.own][:nl] - self.s_hat[self.nbr])
        n_gap = np.abs(self.normal[self.own][:, :nl] + self.normal[self.nbr])
        return float(np.max(s_gap, initial=0.0)), float(np.max(n_gap, initial=0.0))


def _box_links(cells, periodic_dirs):
    """Face connectivity of a structured box; identity orientation throughout."""
    mx, my, mz = cells
    eid = lambda ix, iy, iz: (ix * my + iy) * mz + iz
    links, boundary = [], []
    plus_face = {0: 1, 1: 3, 2: 5}
    minus_face = {0: 0, 1: 2, 2: 4}
    for ix in range(mx):
        for iy in range(my):
            for iz in range(mz):
                e = eid(ix, iy, iz)
                idx = (ix, iy, iz)
                for d, m in ((0, mx), (1, my), (2, mz)):
                    nxt = list(idx)
                    nxt[d] += 1
                    wraps = nxt[d] == m
                    if wraps and d not in periodic_dirs:
                        boundary.append(BoundaryFace(e, plus_face[d], "dirichlet"))
                        if idx[d] == 0:
                            boundary.append(BoundaryFace(e, minus_face[d], "dirichlet"))
                        continue
                    if idx[d] == 0 and d not in periodic_dirs:
                        boundary.append(BoundaryFace(e, minus_face[d], "dirichlet"))
                    nxt[d] %= m
                    links.append(FaceLink(e, plus_face[d], eid(*nxt), minus_face[d], 0, wraps))
    return links, boundary


def box_mesh(n, cells=(2, 2, 2), bounds=((0.0, 1.0),) * 3, warp=None, periodic=True):
    """Structured hex mesh of a box, optionally warped by a global map.

    Element e = (ix * cells[1] + iy) * cells[2] + iz is cell (ix, iy, iz).

    Args:
        n: polynomial degree of the isoparametric geometry.
        cells: elements per direction.
        bounds: ((x0,x1), (y0,y1), (z0,z1)).
        warp: optional vectorized map applied to box coordinates; sampled at
            the LGL nodes of every element (isoparametric).
        periodic: True for fully periodic, or a tuple of periodic directions;
            the other boundary faces are tagged "dirichlet".
    """
    basis = spectral.build_basis(n)
    lo = np.array([b[0] for b in bounds], dtype=float)
    widths = np.array([b[1] - b[0] for b in bounds], dtype=float)
    h = widths / np.asarray(cells, dtype=float)
    offset = lo[:, None] + h[:, None] * np.indices(cells).reshape(3, -1)
    nodes = basis.nodes
    xi = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"))[:, None]
    x = offset[..., None, None, None] + 0.5 * h[:, None, None, None, None] * (xi + 1.0)
    if warp is not None:
        x = warp(x)
    periodic_dirs = (0, 1, 2) if periodic is True else tuple(periodic) if periodic else ()
    links, boundary = _box_links(cells, periodic_dirs)
    return MeshTopology(basis, x, links, boundary)


def sine_warp(amplitude=0.05):
    """The built-in displacement field for curved periodic unit-cube meshes.

    Each coordinate is displaced by ``amplitude`` times the product of sines
    of the two transverse coordinates, so the displacement vanishes on the
    cube boundary in its own direction and is continuous across every
    periodic wrap.
    """

    def warp(box):
        s = np.sin(np.pi * box)
        return box + amplitude * np.stack([s[1] * s[2], s[0] * s[2], s[0] * s[1]])

    return warp


def warped_box_mesh(n, cells=(4, 4, 4), amplitude=0.05, periodic=True):
    """Sinusoidally warped unit cube, periodic by default: the standard curved test mesh.

    Amplitude 0 gives the affine box bit for bit.  A large amplitude folds
    the box, and no simple bound on it is exact, so the Jacobian check
    decides: such a map raises GeometryError.  The map may overflow on the
    way, which the check reports as a non-finite Jacobian, so numpy's
    floating-point warnings are off while it is built.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return box_mesh(n, cells, warp=sine_warp(amplitude), periodic=periodic)


# ----------------------------------------------------------------------------
# Mesh file I/O
# ----------------------------------------------------------------------------

MESH_MAGIC = "splitdg-mesh 1"


def write_mesh_file(path, mesh):
    """Write a MeshTopology in the text format.

    The corners are those of each element's mapped geometry, and every face
    of every element is written as curved, which reproduces the geometry
    exactly.
    """
    n1 = mesh.basis.n + 1
    lines = [MESH_MAGIC, f"degree {mesh.basis.n}", f"elements {mesh.num_elements}"]
    corners = mesh.x[(slice(None), slice(None)) + geometry.CORNER_NODES]  # (3, K, 8)
    fmt = lambda p: " ".join(repr(float(v)) for v in p)
    for e in range(mesh.num_elements):
        for ci in range(8):
            lines.append(f"corner {e} {ci} {fmt(corners[:, e, ci])}")
    xf = geometry.face_stack(mesh.x)
    for e in range(mesh.num_elements):
        for f in range(N_FACES):
            lines.append(f"curved {e} {f}")
            for a in range(n1):
                for b in range(n1):
                    lines.append(fmt(xf[:, f, e, a, b]))
    for link in mesh.links:
        kind = "periodic" if link.periodic else "link"
        lines.append(f"{kind} {link.left} {link.left_face} {link.right} {link.right_face} {link.orient}")
    for bf in mesh.boundary:
        lines.append(f"dirichlet {bf.element} {bf.face} {bf.tag}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class MeshFileError(ValueError):
    pass


# Fields of each record of the mesh file format, the keyword included.
RECORD_FIELDS = {"corner": 6, "curved": 3, "link": 6, "periodic": 6, "dirichlet": 4}


def read_mesh_file(path, degree=None):
    """Read a mesh file; optionally re-interpolate the geometry to ``degree``.

    Each element is the transfinite map of its file-degree faces, sampled
    at the nodes of the run degree: exact when that degree is at least the
    degree stored in the file.
    """
    with open(path) as fh:
        numbered = [(i, ln) for i, ln in enumerate(map(str.strip, fh), 1) if ln and not ln.startswith("#")]
    lines = [ln for _, ln in numbered]
    if not lines or lines[0] != MESH_MAGIC:
        raise MeshFileError(f"{path}: not a splitdg mesh file")
    pos = 1

    def next_line(missing):
        nonlocal pos
        if pos == len(lines):
            raise MeshFileError(f"{path}: file ends before {missing}")
        pos += 1
        return lines[pos - 1]

    def numbers(kind, fields, line):
        try:
            values = [kind(v) for v in fields]
        except ValueError:
            raise MeshFileError(f"{path}: expected {kind.__name__} values, got '{line}'") from None
        if not all(map(math.isfinite, values)):
            # The line just read: every record is parsed right after next_line.
            raise MeshFileError(
                f"{path}: non-finite value on line {numbered[pos - 1][0]}: '{line}'")
        return values

    def expect(keyword):
        line = next_line(f"the '{keyword}' line")
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise MeshFileError(f"{path}: expected '{keyword} <value>', got '{line}'")
        return numbers(int, parts[1:], line)[0]

    def index(value, limit, what, line):
        i = numbers(int, [value], line)[0]
        if not 0 <= i < limit:
            raise MeshFileError(f"{path}: {what} {i} out of range [0, {limit}) in '{line}'")
        return i

    file_n = expect("degree")
    num_elements = expect("elements")
    n1 = file_n + 1
    corners = np.zeros((num_elements, 8, 3))
    given = np.zeros((num_elements, 8), dtype=bool)
    curved = {}
    links, boundary = [], []
    while pos < len(lines):
        line = next_line("the next record")
        parts = line.split()
        key = parts[0]
        if key not in RECORD_FIELDS:
            raise MeshFileError(f"{path}: unknown record '{key}'")
        if len(parts) != RECORD_FIELDS[key]:
            raise MeshFileError(
                f"{path}: a '{key}' record has {RECORD_FIELDS[key]} fields, got '{line}'")
        if key == "corner":
            e, c = index(parts[1], num_elements, "element", line), index(parts[2], 8, "corner", line)
            corners[e, c] = numbers(float, parts[3:], line)
            given[e, c] = True
        elif key == "curved":
            e = index(parts[1], num_elements, "element", line)
            f = index(parts[2], N_FACES, "face", line)
            grid = np.empty((3, n1, n1))
            for a in range(n1):
                for b in range(n1):
                    node = f"node ({a}, {b}) of '{line}'"
                    text = next_line(node)
                    vals = text.split()
                    if len(vals) != 3:
                        raise MeshFileError(f"{path}: {node} has 3 coordinates, got '{text}'")
                    grid[:, a, b] = numbers(float, vals, text)
            curved[(e, f)] = grid
        elif key in ("link", "periodic"):
            e, f, e2, f2, orient = numbers(int, parts[1:], line)
            links.append(FaceLink(e, f, e2, f2, orient, key == "periodic"))
        else:
            boundary.append(BoundaryFace(*numbers(int, parts[1:3], line), parts[3]))

    basis = spectral.build_basis(file_n if degree is None else degree)
    x = np.empty((3, num_elements) + (basis.n + 1,) * 3)
    for e in range(num_elements):
        fd = geometry.faces_from_corners(corners[e], file_n)
        grids = [curved.get((e, f), fd.faces[f]) for f in range(N_FACES)]
        face_def = geometry.FaceDefinition(grids)
        face_def.validate_watertight()
        # The faces alone define the element (a fully curved one ignores its
        # corners), so every corner record must be where the faces meet.
        extent = np.ptp(np.stack(grids), axis=(0, 2, 3)).max()
        face_corners = face_def.corners()
        gap = np.abs(face_corners - corners[e]).max(axis=1)
        bad = np.flatnonzero(given[e] & ~(gap <= 1e-12 * extent))
        if bad.size:
            c = bad[0]
            raise MeshFileError(
                f"{path}: corner {c} of element {e} is at {corners[e, c].tolist()}, but its "
                f"faces meet at {face_corners[c].tolist()}")
        x[:, e] = geometry.sample_map_on_grid(face_def, basis)
    return MeshTopology(basis, x, links, boundary)


def audit(mesh):
    """Per-element Jacobian range and metric-identity residuals.

    Returns a list of dict rows plus a summary dict; used by the CLI
    ``mesh audit`` subcommand.
    """
    cross_ja, _ = geometry.metrics_cross_product(spectral.tensor_gradient(mesh.basis, mesh.x))
    columns = zip(mesh.j.min(axis=(1, 2, 3)), mesh.j.max(axis=(1, 2, 3)),
                  geometry.metric_identity_residual(mesh.basis, mesh.ja),
                  geometry.metric_identity_residual(mesh.basis, cross_ja))
    rows = [{"element": e, "j_min": float(j_min), "j_max": float(j_max),
             "metric_residual": float(curl), "cross_residual": float(cross)}
            for e, (j_min, j_max, curl, cross) in enumerate(columns)]
    s_gap, n_gap = mesh.face_mismatch()
    summary = {
        "elements": mesh.num_elements,
        "links": len(mesh.links),
        "boundary_faces": len(mesh.boundary),
        "face_s_hat_mismatch": float(s_gap),
        "face_normal_mismatch": float(n_gap),
        "worst_metric_residual": max(r["metric_residual"] for r in rows),
    }
    return rows, summary
