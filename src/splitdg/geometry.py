"""Transfinite hexahedral mappings, metric terms, and the metric-identity audit.

Conventions (all on the reference cube [-1,1]^3 with coordinates
(xi, eta, zeta)): the six boundary faces are

    face 0: xi   = -1   parameterized by (eta, zeta)   "Gamma_6"
    face 1: xi   = +1   parameterized by (eta, zeta)   "Gamma_4"
    face 2: eta  = -1   parameterized by (xi, zeta)    "Gamma_1"
    face 3: eta  = +1   parameterized by (xi, zeta)    "Gamma_2"
    face 4: zeta = -1   parameterized by (xi, eta)     "Gamma_3"
    face 5: zeta = +1   parameterized by (xi, eta)     "Gamma_5"

Face point grids are arrays of shape (3, N+1, N+1), the two trailing axes
ordered as in the parameterizations above (always the two reference
coordinates in ascending order).  Nodal 3D fields follow the
(i, j, k) <-> (xi, eta, zeta) layout of :mod:`splitdg.spectral`, so face f
of a nodal grid is its slice ``face_slice(f)``.

A curved hexahedron is given by its six faces.  :class:`FaceDefinition`
writes them into the boundary planes of one nodal (3, N+1, N+1, N+1) grid,
which every consumer reads: the corners index it, the watertightness check
compares each face with it, and ``FaceDefinition.nodal_map`` (Gordon &
Hall's transfinite interpolation with linear blending) is the Boolean sum of
one 1-D linear-blend projector per axis applied to it at the nodes.  That
map has degree N in each coordinate, so ``spectral.apply_tensor`` with
``spectral.lagrange_values`` evaluates it exactly on any tensor grid.

The metric terms are computed for a whole mesh at once from the stacked
nodal coordinates x, shape (3, K, n, n, n) with K elements and n = N+1:
covariant vectors and Ja^i have shape (3, 3, K, n, n, n), J has shape
(K, n, n, n).  Face data use the component-first layout (C..., 6, K, n, n)
produced by :func:`face_stack`: surface elements (6, K, n, n) and unit
normals (3, 6, K, n, n).
"""

import numpy as np

from splitdg import spectral

FACE_NORMAL_AXIS = (0, 0, 1, 1, 2, 2)  # reference axis each face is normal to
FACE_SIGN = (-1, +1, -1, +1, -1, +1)
# The outward sign of each face's reference normal, against the face axis,
# as a float array that broadcasts over (6, K, n, n) face data.
FACE_SIGN_ARRAY = np.array(FACE_SIGN, dtype=float).reshape(6, 1, 1, 1)


class GeometryError(ValueError):
    """Invalid element geometry (non-positive Jacobian, degenerate face)."""


def face_slice(face):
    """Index tuple restricting a (..., i, j, k) field to a boundary face."""
    axis = FACE_NORMAL_AXIS[face]
    side = 0 if FACE_SIGN[face] < 0 else -1
    idx = [slice(None)] * 3
    idx[axis] = side
    return (Ellipsis,) + tuple(idx)


def face_stack(vol):
    """Restrict a (C..., K, n, n, n) volume array to its faces: (C..., 6, K, n, n)."""
    return np.stack([vol[face_slice(f)] for f in range(6)], axis=-4)


def fold_faces(faces, out=None):
    """Add a (C..., 6, K, n, n) face array into the volume array ``out``, face by face.

    ``out`` is (C..., K, n, n, n), a fresh zero array when None; returns it.
    """
    if out is None:
        n1 = faces.shape[-1]
        out = np.zeros(faces.shape[:-4] + (faces.shape[-3], n1, n1, n1))
    for f in range(6):
        out[face_slice(f)] += faces[..., f, :, :, :]
    return out


class FaceDefinition:
    """Six degree-N tensor-Lagrange face surfaces bounding one hexahedron, on one nodal grid.

    ``faces`` keeps the six (3, N+1, N+1) grids as given.  ``grid`` is a
    (3, N+1, N+1, N+1) nodal array into whose boundary planes they are
    written, ``grid[face_slice(f)] = faces[f]`` in face order, with zero
    interior nodes; every consumer reads the faces through it.  A node
    shared by several faces (an edge or a corner node) holds the last
    face's value, so ``edge_mismatch``, which compares every face with the
    grid, reads the gap between two faces on an edge, and at a corner of
    three faces at least half of their largest pairwise gap.
    """

    def __init__(self, faces):
        faces = [np.asarray(f, dtype=float) for f in faces]
        if len(faces) != 6:
            raise ValueError("expected six faces")
        shape = faces[0].shape
        if shape[0] != 3 or shape[1] != shape[2] or any(f.shape != shape for f in faces):
            raise ValueError("faces must share shape (3, N+1, N+1)")
        self.faces = faces
        self.n = shape[1] - 1
        self.grid = np.zeros((3,) + (self.n + 1,) * 3)
        for f, face in enumerate(faces):
            self.grid[face_slice(f)] = face

    def corners(self):
        """The eight hexahedron corners x_1..x_8 (standard numbering), shape (8, 3)."""
        return self.grid[(slice(None),) + CORNER_NODES].T

    def edge_mismatch(self):
        """Largest gap between a face and the grid; NaN anywhere gives NaN."""
        return np.max([np.abs(face - self.grid[face_slice(f)]).max()
                       for f, face in enumerate(self.faces)])

    def validate_watertight(self, tol=1.0e-12):
        gap = self.edge_mismatch()
        if not gap <= tol:  # NaN fails too
            raise GeometryError(f"faces are not watertight: edge mismatch {gap:.3e} > {tol:.1e}")

    def nodal_map(self):
        """The transfinite map at the nodes, (3, N+1, N+1, N+1).

        The map is the Boolean sum P1 + P2 + P3 - P1 P2 - P2 P3 - P1 P3 +
        P1 P2 P3 = I - (I - P3)(I - P2)(I - P1) of the linear-blend projector
        P_a along reference axis a, which replaces a field by the linear
        blend of its values on the two faces normal to that axis; it reads
        only the boundary planes of ``grid`` and reproduces every face.
        Each term is linear in its blended coordinates and of degree N in
        the others, so the map has degree N in each coordinate and its
        Lagrange interpolant at the nodes is the map itself.
        """
        nodes = spectral.build_basis(self.n).nodes
        blend = np.zeros((self.n + 1,) * 2)
        blend[:, 0], blend[:, -1] = (1.0 - nodes) / 2.0, (1.0 + nodes) / 2.0
        nodal = 0.0
        for axis in range(3):  # T <- T + P_a (X - T)
            nodal = nodal + spectral.apply_along(blend, self.grid - nodal, axis)
        return nodal


def faces_from_mapping(mapping, n):
    """The six face grids of an analytic map x = mapping(xi) (vectorized) on the LGL^3 grid."""
    grid = sample_map_on_grid(mapping, spectral.build_basis(n))
    return FaceDefinition([grid[face_slice(f)] for f in range(6)])


def faces_from_corners(corners, n):
    """Trilinear face grids of the straight-sided hex with the given corners."""
    return faces_from_mapping(lambda xi: hex_corner_map(corners, xi), n)


# The grid ends (0 at -1, -1 at +1) along xi, eta and zeta of the corners
# x_1..x_8: (-,-,-) (+,-,-) (+,+,-) (-,+,-), then the same at zeta = +1.
CORNER_NODES = ((0, -1, -1, 0) * 2, (0, 0, -1, -1) * 2, (0,) * 4 + (-1,) * 4)


def hex_corner_map(corners, xi):
    """Trilinear map of the reference cube to a straight-sided hex."""
    xi = np.asarray(xi, dtype=float)
    weights = 1.0
    for t, ends in zip(xi, CORNER_NODES):
        side = np.where(np.array(ends) < 0, 1.0, -1.0)  # each corner's end of this axis
        weights = weights * (1.0 + np.multiply.outer(side, t))
    return np.einsum("vc,v...->c...", np.asarray(corners, dtype=float), weights) / 8.0


def sample_map_on_grid(mapping, basis):
    """Nodal values of an analytic map x = mapping(xi) on the LGL^3 grid, (3, N+1, N+1, N+1)."""
    x = basis.nodes
    return np.asarray(mapping(np.stack(np.meshgrid(x, x, x, indexing="ij"))), dtype=float)


def _cross(a, b):
    return np.stack([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def jacobian(covariant):
    """J = a_1 . (a_2 x a_3) nodally."""
    return np.einsum("c...,c...->...", covariant[0], _cross(covariant[1], covariant[2]))


def check_jacobian(j, rel_tol=1.0e-12):
    """Raise GeometryError unless J is finite and J > rel_tol * max|J| at every node.

    ``j`` has shape (K, n, n, n); the error names the first bad element and
    node.  Non-finite values are looked for first: they pass every "<="
    test and leave max|J| no scale to compare with.
    """
    bad = np.argwhere(~np.isfinite(j))
    if not len(bad):
        bad = np.argwhere(j <= rel_tol * np.abs(j).max(axis=(-3, -2, -1), keepdims=True))
    if len(bad):
        where = tuple(int(i) for i in bad[0])
        raise GeometryError(
            f"non-positive or non-finite mapping Jacobian in element {where[0]} at node "
            f"{where[1:]}: J = {j[where]:.3e}"
        )


def metrics_cross_product(covariant):
    """Volume-weighted contravariant vectors Ja^i = a_j x a_k (cyclic) and J.

    ``covariant`` has shape (3, 3, K, n, n, n).  Raises GeometryError if the
    Jacobian is not strictly positive.
    """
    ja = np.stack([
        _cross(covariant[1], covariant[2]),
        _cross(covariant[2], covariant[0]),
        _cross(covariant[0], covariant[1]),
    ])
    j = np.einsum("c...,c...->...", covariant[0], ja[0])
    check_jacobian(j)
    return ja, j


def metrics_curl_form(basis, x, dx=None):
    """Contravariant vectors in curl form; discretely divergence-free.

    Implements, with discrete derivatives and nodal products,
        Ja^i_d = d_c( X_e,b * X_g ) - d_b( X_e,c * X_g )
    for (i, b, c) cyclic in the reference directions and (d, e, g) cyclic in
    the physical components.  ``x`` has shape (3, K, n, n, n); the result
    has shape (3, 3, K, n, n, n).  ``dx`` is the covariant gradient
    ``spectral.tensor_gradient(basis, x)``, dx[b, e] = d X_e / d xi^b, if
    the caller has it already (as for J); it is computed when None.
    """
    if dx is None:
        dx = spectral.tensor_gradient(basis, x)
    ja = np.empty((3,) + x.shape)
    for i in range(3):
        b, c = (i + 1) % 3, (i + 2) % 3
        for d in range(3):
            e, g = (d + 1) % 3, (d + 2) % 3
            ja[i, d] = (spectral.apply_along(basis.D, dx[b, e] * x[g], c)
                        - spectral.apply_along(basis.D, dx[c, e] * x[g], b))
    return ja


def metric_identity_residual(basis, ja):
    """Per-element max_{nodes, d} | sum_i d(Ja^i_d)/dxi^i |, shape (K,)."""
    return np.abs(spectral.tensor_divergence(basis, ja)).max(axis=(0, -3, -2, -1))


def face_geometry(ja):
    """Surface elements and outward unit normals of every face of every element.

    Args:
        ja: contravariant vectors, shape (3, 3, K, n, n, n).

    Returns:
        (s_hat, normal): shapes (6, K, n, n) and (3, 6, K, n, n).
    """
    vec = np.stack([ja[FACE_NORMAL_AXIS[f]][face_slice(f)] for f in range(6)], axis=1)
    s_hat = np.sqrt(np.sum(vec * vec, axis=0))
    bad = np.argwhere(~(s_hat > 0.0))  # NaN fails too
    if len(bad):
        raise GeometryError(
            f"degenerate face {bad[0][0]} of element {bad[0][1]}: "
            f"surface element {s_hat[tuple(bad[0])]:.3e}")
    return s_hat, FACE_SIGN_ARRAY * vec / s_hat
