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


def face_stack(vol):
    """Restrict a (C..., K, n, n, n) volume array to its faces: (C..., 6, K, n, n)."""
    return np.stack([vol[face_slice(f)] for f in range(6)], axis=-4)


def fold_faces(faces):
    """Sum a (C..., 6, K, n, n) face array into an otherwise zero volume array."""
    n1 = faces.shape[-1]
    out = np.zeros(faces.shape[:-4] + (faces.shape[-3], n1, n1, n1))
    for f in range(6):
        out[face_slice(f)] += faces[..., f, :, :, :]
    return out


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
    """Raise GeometryError unless J > rel_tol * max|J| at every node of every element.

    ``j`` has shape (K, n, n, n); the error names the first bad element and node.
    """
    jmax = np.abs(j).max(axis=(-3, -2, -1), keepdims=True)
    bad = np.argwhere(j <= rel_tol * jmax)
    if len(bad):
        where = tuple(int(i) for i in bad[0])
        raise GeometryError(
            f"non-positive mapping Jacobian in element {where[0]} at node {where[1:]}: "
            f"J = {j[where]:.3e}"
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


def metrics_curl_form(basis, x):
    """Contravariant vectors in curl form; discretely divergence-free.

    Implements, with discrete derivatives and nodal products,
        Ja^i_d = d_c( X_e,b * X_g ) - d_b( X_e,c * X_g )
    for (i, b, c) cyclic in the reference directions and (d, e, g) cyclic in
    the physical components.  ``x`` has shape (3, K, n, n, n); the result
    has shape (3, 3, K, n, n, n).
    """
    dx = spectral.tensor_gradient(basis, x)  # dx[b, e] = d X_e / d xi^b
    ja = np.empty((3,) + x.shape)
    for i in range(3):
        b, c = (i + 1) % 3, (i + 2) % 3
        for d in range(3):
            e, g = (d + 1) % 3, (d + 2) % 3
            ja[i, d] = (spectral.derivative(basis, dx[b, e] * x[g], c)
                        - spectral.derivative(basis, dx[c, e] * x[g], b))
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
    bad = np.argwhere(s_hat <= 0.0)
    if len(bad):
        raise GeometryError(
            f"degenerate face {bad[0][0]} of element {bad[0][1]}: vanishing surface element")
    sign = np.array(FACE_SIGN, dtype=float).reshape(6, 1, 1, 1)
    return s_hat, sign * vec / s_hat
