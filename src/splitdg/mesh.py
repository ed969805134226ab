"""Conforming hexahedral mesh topology, built-in box meshes, and mesh file I/O.

A mesh holds the stacked nodal coordinates x, shape (3, K, n, n, n), the
geometry computed from them once for all elements (curl-form Ja^i and J),
the surface element and outward normal of the owner side of every face,
and face-connectivity records.  The full face arrays s_hat (6, K, n, n) and
normal (3, 6, K, n, n) (see :mod:`splitdg.geometry`) are computed from Ja^i
when asked for, not stored.  Every interior (or periodic) face is stored
exactly once as a ``FaceLink``; the ``left`` element owns the face and its
outward normal.  Orientation codes 0..7 (the symmetries of the square) map
the owner's face grid (a, b) onto the neighbour's grid so that mapped
indices are physically coincident points.

The mesh file format is line-based text (see ``write_mesh_file``): per
element the 8 corner points, optional curved-face point grids, then the
face-neighbour table with orientation codes and explicitly listed periodic
pairs.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from splitdg import geometry, spectral

N_FACES = 6


def orientation_table(n1):
    """Index arrays of the eight orientation codes, shape (8, 2, n1, n1).

    Under code c the owner's node (a, b) meets the neighbour's node
    (table[c, 0, a, b], table[c, 1, a, b]).
    """
    a, b = np.indices((n1, n1))
    r = n1 - 1
    return np.array([(a, b), (b, a), (r - a, b), (b, r - a),  # codes 0..3
                     (r - a, r - b), (r - b, r - a), (a, r - b), (r - b, a)])  # codes 4..7


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


class FaceLink(NamedTuple):
    """One shared face: ``left`` owns it; ``orient`` maps left grid to right."""

    left: int
    left_face: int
    right: int
    right_face: int
    orient: int = 0
    periodic: bool = False


class BoundaryFace(NamedTuple):
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

    Raises GeometryError for a non-positive Jacobian or a degenerate face
    (any of the six of every element), naming the element, and ValueError
    for a bad record, naming the first.  The records are converted to one
    integer array per kind once; the validation and the face index arrays
    (``own``, ``l_elem``, ``b_elem``, ``b_face``) read those.

    Stored, read-only: ``x``, ``ja``, ``j`` and the owner faces' surface
    elements ``s_own`` (nf, n, n) and normals ``n_own`` (3, nf, n, n), the
    owner faces in the order of ``own``, which are all that a residual
    reads.  Computed on each access, read-only and bitwise the same every
    time: the full face arrays ``s_hat`` and ``normal`` of
    ``geometry.face_geometry`` and the index tuple ``nbr`` of every link's
    neighbour side on the owner's face grid, with its (links, n, n)
    permutation grids.
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
        # (left, left_face, right, right_face, orient, periodic) per link,
        # (element, face) per Dirichlet face.
        flat = lambda rows, m: np.fromiter(itertools.chain.from_iterable(rows), np.intp).reshape(-1, m)
        try:
            link, wall = flat(self.links, 6), flat((bf[:2] for bf in self.boundary), 2)
        except OverflowError as err:  # beyond the machine integers, so beyond any mesh
            raise ValueError(f"face record out of range: {err}") from None
        self._validate(link, wall)

        self.x = x
        dx = spectral.tensor_gradient(basis, x)
        self.j = geometry.jacobian(dx)
        geometry.check_jacobian(self.j)  # before the costlier curl-form metrics
        self.ja = geometry.metrics_curl_form(basis, x, dx)
        del dx
        # Owner faces: link left sides, then Dirichlet faces.
        self._link, self.l_elem = link, link[:, 0]
        self.b_elem, self.b_face = wall.T
        self.own = (Ellipsis, np.concatenate([link[:, 1], self.b_face]),
                    np.concatenate([self.l_elem, self.b_elem]), slice(None), slice(None))
        # The degenerate-face check of face_geometry covers every face.
        self.s_own, self.n_own = (a[self.own] for a in geometry.face_geometry(self.ja))
        _read_only(self.x, self.ja, self.j, self.s_own, self.n_own, link)

    def _validate(self, link, wall):
        # One pass over every face claim in record order: each link's left
        # then right side, then the Dirichlet faces.  Each claim is checked
        # for its range, then for a repeat (``taken`` holds one byte per
        # element face), then, on a link's right side, for the link's
        # orientation.  The numbers come from the records' integer arrays as
        # one list of ints per column, not as an object per claim.
        elems, faces = np.concatenate([link[:, :4].reshape(-1, 2), wall]).T.tolist()
        orients, num, taken = link[:, 4].tolist(), self.num_elements, bytearray(self.num_elements * N_FACES)
        for claim, (e, f) in enumerate(zip(elems, faces)):
            if not (0 <= e < num and 0 <= f < N_FACES):
                raise ValueError(f"face reference out of range: element {e} face {f}")
            slot = e * N_FACES + f
            if taken[slot]:
                raise ValueError(f"element {e} face {f} referenced more than once")
            taken[slot] = 1
            if claim % 2 and claim < 2 * len(orients) and not 0 <= orients[claim // 2] < 8:
                ln = self.links[claim // 2]
                raise ValueError(f"orientation code must be 0..7, got {ln.orient} in {ln}")
        missing = len(taken) - len(elems)
        if missing:
            raise ValueError(f"{missing} element faces have no neighbour or boundary tag")

    # The surface elements (6, K, n, n) and outward unit normals (3, 6, K, n, n) of every face.
    s_hat = property(lambda self: _read_only(*geometry.face_geometry(self.ja))[0])
    normal = property(lambda self: _read_only(*geometry.face_geometry(self.ja))[1])

    @property
    def nbr(self):
        """Neighbour side of every link, indexed on the owner's face grid."""
        link = self._link
        (perm,) = _read_only(orientation_table(self.basis.n + 1)[link[:, 4]])
        return (Ellipsis, link[:, 3, None, None], link[:, 2, None, None], perm[:, 0], perm[:, 1])

    def face_mismatch(self):
        """Largest surface-element and normal disagreement across all links.

        Periodic partners must carry matching face geometry; for a watertight
        conforming mesh this is at roundoff level.
        """
        (s_hat, normal), nbr, nl = geometry.face_geometry(self.ja), self.nbr, len(self.links)
        s_gap = np.abs(self.s_own[:nl] - s_hat[nbr])
        n_gap = np.abs(self.n_own[:, :nl] + normal[nbr])
        return float(np.max(s_gap, initial=0.0)), float(np.max(n_gap, initial=0.0))


def _box_links(cells, periodic_dirs):
    """Face connectivity of a structured box; identity orientation throughout.

    The records come in the order of a loop over the elements, then over
    the directions 0, 1, 2 of each: a face that wraps on a periodic axis
    is a link (``periodic`` set), and on another axis a Dirichlet face, the
    plus face before the minus face where one cell spans the axis.  They
    are built from ``np.indices`` for all elements and directions at once.
    """
    # (K, 3): element-major, then direction.  Float cell indices are exact,
    # and their comparisons run the float loops that the solver pages in.
    idx = np.indices(cells, dtype=float).reshape(3, -1).T
    elem = np.arange(len(idx))[:, None]
    m, stride = np.array(cells), np.array([cells[1] * cells[2], cells[2], 1])
    wraps = idx == m - 1
    periodic = np.array([d in periodic_dirs for d in range(3)])
    plus, minus = np.arange(1, 6, 2), np.arange(0, 6, 2)  # the faces of each direction
    nxt = elem + stride * (1 - m * wraps)  # the next cell along each axis, wrapping at its end
    cols = (elem, plus, nxt, minus, 0, wraps)
    is_link = periodic | ~wraps
    links = list(map(FaceLink, *(np.broadcast_to(c, idx.shape)[is_link].tolist() for c in cols)))
    # Per element and direction: the plus face, then the minus face.
    is_wall = np.stack([wraps, idx == 0], axis=-1) & ~periodic[:, None]
    walls = (np.broadcast_to(c, is_wall.shape)[is_wall].tolist()
             for c in (elem[..., None], np.stack([plus, minus], axis=-1)))
    return links, list(map(BoundaryFace, *walls, itertools.repeat("dirichlet")))


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
            raise MeshFileError(
                f"{path}: unknown record '{key}' on line {numbered[pos - 1][0]}: '{line}'")
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
            e, e2 = (index(parts[i], num_elements, "element", line) for i in (1, 3))
            f, f2 = (index(parts[i], N_FACES, "face", line) for i in (2, 4))
            orient = index(parts[5], 8, "orientation", line)
            links.append(FaceLink(e, f, e2, f2, orient, key == "periodic"))
        else:
            e, f = index(parts[1], num_elements, "element", line), index(parts[2], N_FACES, "face", line)
            boundary.append(BoundaryFace(e, f, parts[3]))

    basis = spectral.build_basis(file_n if degree is None else degree)
    to_grid = spectral.lagrange_values(spectral.build_basis(file_n), basis.nodes)
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
        x[:, e] = spectral.apply_tensor(to_grid, face_def.nodal_map())
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
