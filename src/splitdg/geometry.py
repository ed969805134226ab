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
coordinates in cyclic-ascending order).  Nodal 3D fields follow the
(i, j, k) <-> (xi, eta, zeta) layout of :mod:`splitdg.spectral`.
"""

import numpy as np

from splitdg import spectral

FACE_NORMAL_AXIS = (0, 0, 1, 1, 2, 2)  # reference axis each face is normal to
FACE_SIGN = (-1, +1, -1, +1, -1, +1)
FACE_TANGENT_AXES = ((1, 2), (1, 2), (0, 2), (0, 2), (0, 1), (0, 1))


class GeometryError(ValueError):
    """Invalid element geometry (non-positive Jacobian, degenerate face)."""


def face_slice(face):
    """Index tuple restricting a (..., i, j, k) field to a boundary face."""
    axis = FACE_NORMAL_AXIS[face]
    side = 0 if FACE_SIGN[face] < 0 else -1
    idx = [slice(None)] * 3
    idx[axis] = side
    return (Ellipsis,) + tuple(idx)


class FaceDefinition:
    """Six degree-N tensor-Lagrange face surfaces bounding one hexahedron."""

    def __init__(self, faces):
        faces = [np.asarray(f, dtype=float) for f in faces]
        if len(faces) != 6:
            raise ValueError("expected six faces")
        shape = faces[0].shape
        if shape[0] != 3 or shape[1] != shape[2] or any(f.shape != shape for f in faces):
            raise ValueError("faces must share shape (3, N+1, N+1)")
        self.faces = faces
        self.n = shape[1] - 1

    def corners(self):
        """The eight hexahedron corners x_1..x_8 (standard numbering)."""
        g3, g5 = self.faces[4], self.faces[5]
        return np.stack([
            g3[:, 0, 0], g3[:, -1, 0], g3[:, -1, -1], g3[:, 0, -1],
            g5[:, 0, 0], g5[:, -1, 0], g5[:, -1, -1], g5[:, 0, -1],
        ])

    def edge_mismatch(self):
        """Largest disagreement of shared edges between adjacent faces."""
        f = self.faces
        pairs = [
            # (face A, slice A, face B, slice B): twelve edges
            (f[2][:, :, 0], f[4][:, :, 0]),    # eta=-1 & zeta=-1
            (f[2][:, :, -1], f[5][:, :, 0]),   # eta=-1 & zeta=+1
            (f[3][:, :, 0], f[4][:, :, -1]),   # eta=+1 & zeta=-1
            (f[3][:, :, -1], f[5][:, :, -1]),  # eta=+1 & zeta=+1
            (f[0][:, :, 0], f[4][:, 0, :]),    # xi=-1 & zeta=-1
            (f[0][:, :, -1], f[5][:, 0, :]),   # xi=-1 & zeta=+1
            (f[1][:, :, 0], f[4][:, -1, :]),   # xi=+1 & zeta=-1
            (f[1][:, :, -1], f[5][:, -1, :]),  # xi=+1 & zeta=+1
            (f[0][:, 0, :], f[2][:, 0, :]),    # xi=-1 & eta=-1
            (f[0][:, -1, :], f[3][:, 0, :]),   # xi=-1 & eta=+1
            (f[1][:, 0, :], f[2][:, -1, :]),   # xi=+1 & eta=-1
            (f[1][:, -1, :], f[3][:, -1, :]),  # xi=+1 & eta=+1
        ]
        return max(np.abs(a - b).max() for a, b in pairs)

    def validate_watertight(self, tol=1.0e-12):
        gap = self.edge_mismatch()
        if gap > tol:
            raise GeometryError(f"faces are not watertight: edge mismatch {gap:.3e} > {tol:.1e}")


def faces_from_corners(corners, n):
    """Bilinear face grids of the straight-sided hex with the given corners."""
    basis = spectral.build_basis(n)
    x = basis.nodes
    a, b = np.meshgrid(x, x, indexing="ij")
    c = np.asarray(corners, dtype=float)

    def bilin(p00, p10, p11, p01):
        return (
            np.multiply.outer(p00, (1 - a) * (1 - b)) + np.multiply.outer(p10, (1 + a) * (1 - b))
            + np.multiply.outer(p11, (1 + a) * (1 + b)) + np.multiply.outer(p01, (1 - a) * (1 + b))
        ) / 4.0

    # corner order x1..x8: (-,-,-) (+,-,-) (+,+,-) (-,+,-) and zeta=+1 copies
    return FaceDefinition([
        bilin(c[0], c[3], c[7], c[4]),  # xi=-1,  (eta, zeta)
        bilin(c[1], c[2], c[6], c[5]),  # xi=+1,  (eta, zeta)
        bilin(c[0], c[1], c[5], c[4]),  # eta=-1, (xi, zeta)
        bilin(c[3], c[2], c[6], c[7]),  # eta=+1, (xi, zeta)
        bilin(c[0], c[1], c[2], c[3]),  # zeta=-1,(xi, eta)
        bilin(c[4], c[5], c[6], c[7]),  # zeta=+1,(xi, eta)
    ])


def faces_from_mapping(mapping, n):
    """Sample an analytic map x = mapping(xi) (vectorized) onto the six faces."""
    basis = spectral.build_basis(n)
    x = basis.nodes
    a, b = np.meshgrid(x, x, indexing="ij")
    lo, hi = np.full_like(a, -1.0), np.full_like(a, 1.0)
    grids = [
        (lo, a, b), (hi, a, b),
        (a, lo, b), (a, hi, b),
        (a, b, lo), (a, b, hi),
    ]
    return FaceDefinition([np.asarray(mapping(np.stack(g))) for g in grids])


def transfinite_map(faces, xi):
    """Evaluate the transfinite interpolation with linear blending at xi.

    Args:
        faces: a FaceDefinition.
        xi: reference points, shape (3,) or (3, ...); components in [-1, 1].

    Returns:
        Physical points with the same trailing shape as xi.
    """
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    pts = xi.reshape(3, -1)
    basis = spectral.build_basis(faces.n)
    lx = spectral.lagrange_values(basis, pts[0])  # (P, N+1)
    ly = spectral.lagrange_values(basis, pts[1])
    lz = spectral.lagrange_values(basis, pts[2])

    f = faces.faces

    def face_eval(grid, la, lb):
        return np.einsum("cab,pa,pb->cp", grid, la, lb)

    def edge_eval(curve, la):
        return np.einsum("ca,pa->cp", curve, la)

    one = np.ones_like(pts[0])
    bx = np.stack([one - pts[0], one + pts[0]])
    by = np.stack([one - pts[1], one + pts[1]])
    bz = np.stack([one - pts[2], one + pts[2]])

    sigma = 0.5 * (
        bx[0] * face_eval(f[0], ly, lz) + bx[1] * face_eval(f[1], ly, lz)
        + by[0] * face_eval(f[2], lx, lz) + by[1] * face_eval(f[3], lx, lz)
        + bz[0] * face_eval(f[4], lx, ly) + bz[1] * face_eval(f[5], lx, ly)
    )

    # Edge corrections: restrictions of the face grids to their +-1 borders.
    c_xi = 0.25 * (
        bx[0] * (by[0] * edge_eval(f[2][:, 0, :], lz) + by[1] * edge_eval(f[3][:, 0, :], lz)
                 + bz[0] * edge_eval(f[4][:, 0, :], ly) + bz[1] * edge_eval(f[5][:, 0, :], ly))
        + bx[1] * (by[0] * edge_eval(f[2][:, -1, :], lz) + by[1] * edge_eval(f[3][:, -1, :], lz)
                   + bz[0] * edge_eval(f[4][:, -1, :], ly) + bz[1] * edge_eval(f[5][:, -1, :], ly))
    )
    c_eta = 0.25 * (
        by[0] * (bx[0] * edge_eval(f[0][:, 0, :], lz) + bx[1] * edge_eval(f[1][:, 0, :], lz)
                 + bz[0] * edge_eval(f[4][:, :, 0], lx) + bz[1] * edge_eval(f[5][:, :, 0], lx))
        + by[1] * (bx[0] * edge_eval(f[0][:, -1, :], lz) + bx[1] * edge_eval(f[1][:, -1, :], lz)
                   + bz[0] * edge_eval(f[4][:, :, -1], lx) + bz[1] * edge_eval(f[5][:, :, -1], lx))
    )
    c_zeta = 0.25 * (
        bz[0] * (by[0] * edge_eval(f[2][:, :, 0], lx) + by[1] * edge_eval(f[3][:, :, 0], lx)
                 + bx[0] * edge_eval(f[0][:, :, 0], ly) + bx[1] * edge_eval(f[1][:, :, 0], ly))
        + bz[1] * (by[0] * edge_eval(f[2][:, :, -1], lx) + by[1] * edge_eval(f[3][:, :, -1], lx)
                   + bx[0] * edge_eval(f[0][:, :, -1], ly) + bx[1] * edge_eval(f[1][:, :, -1], ly))
    )

    corners = faces.corners()
    blend = np.stack([
        bx[0] * by[0] * bz[0], bx[1] * by[0] * bz[0],
        bx[1] * by[1] * bz[0], bx[0] * by[1] * bz[0],
        bx[0] * by[0] * bz[1], bx[1] * by[0] * bz[1],
        bx[1] * by[1] * bz[1], bx[0] * by[1] * bz[1],
    ])
    x_h = np.einsum("vc,vp->cp", corners, blend) / 8.0

    out = sigma - 0.5 * (c_xi + c_eta + c_zeta) + x_h
    return out[:, 0] if scalar else out.reshape((3,) + xi.shape[1:])


def hex_corner_map(corners, xi):
    """Trilinear map of the reference cube to a straight-sided hex."""
    xi = np.asarray(xi, dtype=float)
    b = lambda t: np.stack([1.0 - t, 1.0 + t])
    bx, by, bz = b(xi[0]), b(xi[1]), b(xi[2])
    weights = np.stack([
        bx[0] * by[0] * bz[0], bx[1] * by[0] * bz[0],
        bx[1] * by[1] * bz[0], bx[0] * by[1] * bz[0],
        bx[0] * by[0] * bz[1], bx[1] * by[0] * bz[1],
        bx[1] * by[1] * bz[1], bx[0] * by[1] * bz[1],
    ])
    return np.einsum("vc,v...->c...", np.asarray(corners, dtype=float), weights) / 8.0


def sample_map_on_grid(faces_or_fn, basis):
    """Nodal map values X on the LGL^3 grid, shape (3, N+1, N+1, N+1)."""
    x = basis.nodes
    grid = np.stack(np.meshgrid(x, x, x, indexing="ij"))
    if isinstance(faces_or_fn, FaceDefinition):
        return transfinite_map(faces_or_fn, grid)
    return np.asarray(faces_or_fn(grid), dtype=float)


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
    jmax = np.abs(j).max()
    bad = j <= rel_tol * jmax
    if np.any(bad):
        where = np.argwhere(bad)[0]
        raise GeometryError(
            f"non-positive mapping Jacobian at node {tuple(where)}: J = {j[tuple(where)]:.3e}"
        )


def metrics_cross_product(covariant):
    """Volume-weighted contravariant vectors Ja^i = a_j x a_k (cyclic) and J.

    Raises GeometryError if the Jacobian is not strictly positive.
    """
    ja = np.stack([
        _cross(covariant[1], covariant[2]),
        _cross(covariant[2], covariant[0]),
        _cross(covariant[0], covariant[1]),
    ])
    j = np.einsum("c...,c...->...", covariant[0], ja[0])
    check_jacobian(j)
    return ja, j


def metrics_curl_form(basis, x_nodal):
    """Contravariant vectors in curl form; discretely divergence-free.

    Implements, with discrete derivatives and nodal products,
        Ja^i_d = d_c( X_e,b * X_g ) - d_b( X_e,c * X_g )
    for (i, b, c) cyclic in the reference directions and (d, e, g) cyclic in
    the physical components.
    """
    dx = spectral.tensor_gradient(basis, x_nodal)  # dx[b, e] = d X_e / d xi^b
    n1 = basis.n + 1
    ja = np.empty((3, 3, n1, n1, n1))

    def deriv(field, axis):
        if axis == 0:
            return np.einsum("in,njk->ijk", basis.D, field)
        if axis == 1:
            return np.einsum("jn,ink->ijk", basis.D, field)
        return np.einsum("kn,ijn->ijk", basis.D, field)

    for i in range(3):
        b, c = (i + 1) % 3, (i + 2) % 3
        for d in range(3):
            e, g = (d + 1) % 3, (d + 2) % 3
            ja[i, d] = deriv(dx[b, e] * x_nodal[g], c) - deriv(dx[c, e] * x_nodal[g], b)
    return ja


def metric_identity_residual(basis, ja):
    """max_{nodes, d} | sum_i d(Ja^i_d)/dxi^i | for contravariant fields ja."""
    res = 0.0
    for d in range(3):
        div = spectral.tensor_divergence(basis, ja[:, d])
        res = max(res, np.abs(div).max())
    return res


def face_geometry(ja, face):
    """Surface element and outward unit normal of one face.

    Args:
        ja: contravariant vectors, shape (3, 3, n, n, n).
        face: face index 0..5.

    Returns:
        (s_hat, normal): shapes (n, n) and (3, n, n).
    """
    axis = FACE_NORMAL_AXIS[face]
    vec = ja[axis][face_slice(face)]
    s_hat = np.sqrt(np.sum(vec * vec, axis=0))
    if np.any(s_hat <= 0.0):
        raise GeometryError(f"degenerate face {face}: vanishing surface element")
    normal = FACE_SIGN[face] * vec / s_hat
    return s_hat, normal


class ElementGeometry:
    """Per-element mapping data: X, covariant/contravariant bases, J, faces.

    Immutable after construction; elements can be built concurrently.

    Attributes:
        x: mapped LGL nodes, (3, n+1, n+1, n+1).
        covariant: a_i fields, (3, 3, n+1, n+1, n+1).
        ja: volume-weighted contravariant vectors Ja^i, same shape.
        j: Jacobian, (n+1,)*3.
        s_hat: per-face surface elements, (6, n+1, n+1).
        normal: per-face outward unit normals, (6, 3, n+1, n+1).
    """

    def __init__(self, basis, x_nodal, metric_form="curl"):
        if metric_form not in ("curl", "cross"):
            raise ValueError("metric_form must be 'curl' or 'cross'")
        self.basis = basis
        self.metric_form = metric_form
        self.x = np.asarray(x_nodal, dtype=float)
        n1 = basis.n + 1
        if self.x.shape != (3, n1, n1, n1):
            raise ValueError(f"expected map shape (3, {n1}, {n1}, {n1})")
        self.covariant = spectral.tensor_gradient(basis, self.x)
        if metric_form == "curl":
            self.ja = metrics_curl_form(basis, self.x)
            self.j = jacobian(self.covariant)
            check_jacobian(self.j)
        else:
            self.ja, self.j = metrics_cross_product(self.covariant)
        self.s_hat = np.empty((6, n1, n1))
        self.normal = np.empty((6, 3, n1, n1))
        for face in range(6):
            self.s_hat[face], self.normal[face] = face_geometry(self.ja, face)

    @classmethod
    def from_faces(cls, basis, faces, metric_form="curl"):
        faces.validate_watertight()
        return cls(basis, sample_map_on_grid(faces, basis), metric_form)

    @classmethod
    def from_mapping(cls, basis, mapping, metric_form="curl"):
        """Isoparametric sampling of an analytic map at the LGL nodes."""
        return cls(basis, sample_map_on_grid(mapping, basis), metric_form)

    def metric_residual(self):
        return metric_identity_residual(self.basis, self.ja)
