"""Legendre/Gauss-Lobatto operators and tensor-product calculus on [-1,1]^3.

This module builds the one-dimensional nodal machinery (nodes, weights,
derivative matrix, SBP matrices) and the discrete 3D calculus used by the
curvilinear DG solver.  Nodal 3D fields are plain numpy arrays whose last
three axes are the (i, j, k) <-> (xi, eta, zeta) tensor indices; any leading
axes (state components, elements) are carried through untouched.

A ``NodalBasis`` is immutable after construction and can be shared freely.
"""

import ctypes
import math

import numpy as np

MAX_DEGREE = 30


def legendre_eval(n, x):
    """Evaluate the Legendre polynomial L_n and its derivative at x.

    Uses the three-term recurrence and its differentiated form.  ``x`` may be
    a scalar or an array.

    Args:
        n: polynomial degree, >= 0.
        x: evaluation point(s) in [-1, 1].

    Returns:
        Tuple (L_n(x), L_n'(x)).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    x = np.asarray(x, dtype=float)
    ell = np.ones_like(x)
    dell = np.zeros_like(x)
    if n == 0:
        return ell, dell
    ell_prev, dell_prev = ell, dell
    ell, dell = x.copy(), np.ones_like(x)
    for k in range(1, n):
        a = (2.0 * k + 1.0) / (k + 1.0)
        b = k / (k + 1.0)
        ell_next = a * x * ell - b * ell_prev
        dell_next = a * (ell + x * dell) - b * dell_prev
        ell_prev, dell_prev = ell, dell
        ell, dell = ell_next, dell_next
    return ell, dell


def gauss_lobatto(n):
    """Legendre-Gauss-Lobatto nodes and weights for degree n (n+1 points).

    The nodes are -1, +1 and the zeros of L_n'; the interior zeros are found
    by Newton iteration on (1-x^2) L_n'(x) started from Chebyshev-Gauss-
    Lobatto guesses.  Weights follow the closed form
    w_j = 2 / (n (n+1) [L_n(x_j)]^2).

    Returns:
        (nodes, weights): ascending nodes, positive weights, both shape (n+1,).
    """
    if n < 1:
        raise ValueError("gauss_lobatto requires degree n >= 1")
    nodes = np.empty(n + 1)
    nodes[0], nodes[-1] = -1.0, 1.0
    tol = 4.0 * np.finfo(float).eps
    # Newton on g = (1-x^2) L_n'; g' = -n(n+1) L_n by the Legendre ODE.  All
    # interior nodes iterate as one array; each drops out once its own step
    # meets the tolerance, so it takes the same iterates as a scalar Newton.
    x = -np.cos(np.pi * np.arange(1, n) / n)
    todo = np.arange(n - 1)  # indices into x of the nodes still iterating
    for _ in range(50):
        ell, dell = legendre_eval(n, x[todo])
        dx = (1.0 - x[todo] * x[todo]) * dell / (n * (n + 1) * ell)
        x[todo] += dx
        todo = todo[~(np.abs(dx) <= tol * np.maximum(1.0, np.abs(x[todo])))]
        if todo.size == 0:
            break
    else:
        raise RuntimeError(f"LGL root finding failed to converge for interior node {todo[0] + 1} at degree {n}")
    nodes[1:-1] = x
    nodes = 0.5 * (nodes - nodes[::-1])  # enforce exact symmetry
    ell, _ = legendre_eval(n, nodes)
    weights = 2.0 / (n * (n + 1) * ell**2)
    return nodes, weights


def pair_operators(d):
    """The split operator in pair form: the unique pairs i < m of a line and their matrices.

    For the derivative matrix ``d``, returns the left and right node of
    every pair, the (pairs, n) matrix with ones at (pair, i) and (pair, m),
    which sums a nodal row to the pairs' Ja_i + Ja_m, and the (n, pairs)
    matrix with D_im at (i, pair) and D_mi at (m, pair), which scatters the
    pair fluxes to both ends (see ``solver.split_divergence``).
    """
    n = len(d)
    left, right = np.triu_indices(n, 1)
    pairs = np.arange(len(left))
    select, scatter = np.zeros((len(left), n)), np.zeros((n, len(left)))
    select[pairs, left] = select[pairs, right] = 1.0
    scatter[left, pairs], scatter[right, pairs] = d[left, right], d[right, left]
    return left, right, select, scatter


class NodalBasis:
    """Degree-N Lagrange basis on LGL nodes with its SBP operator family.

    Attributes:
        n: polynomial degree N.
        nodes: N+1 LGL nodes, ascending, nodes[0] = -1, nodes[-1] = +1.
        weights: LGL quadrature weights (also the diagonal of the mass matrix).
        bary: barycentric interpolation weights.
        D: derivative matrix, D[j, m] = ell_m'(x_j).
        Q: W D with W = diag(weights); satisfies Q + Q^T = B.
        B: boundary matrix diag(-1, 0, ..., 0, +1).
        pairs: ``pair_operators(D)``, the split operator S = 2D - B W^{-1}
            in pair form (S has a zero diagonal and S_im = 2 D_im off it),
            built once per basis for the volume kernel.
    """

    def __init__(self, n):
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {n}")
        self.n = n
        self.nodes, self.weights = gauss_lobatto(n)
        # One matrix of node differences x_j - x_i (ones on the diagonal)
        # gives the barycentric weights b_j = 1 / prod_{i != j} (x_j - x_i)
        # and D in the barycentric form; D's diagonal is the negative row
        # sum, which makes D @ 1 = 0 hold exactly.
        diff = self.nodes[:, None] - self.nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        self.bary = 1.0 / diff.prod(axis=1)
        d = (self.bary[None, :] / self.bary[:, None]) / diff
        np.fill_diagonal(d, 0.0)
        np.fill_diagonal(d, -d.sum(axis=1))
        self.D = d
        self.Q = self.weights[:, None] * self.D
        b = np.zeros((n + 1, n + 1))
        b[0, 0], b[n, n] = -1.0, 1.0
        self.B = b
        self.pairs = pair_operators(self.D)
        for a in (self.nodes, self.weights, self.bary, self.D, self.Q, self.B, *self.pairs):
            a.setflags(write=False)


def build_basis(n):
    """Construct the NodalBasis of degree n (cached per degree)."""
    if n not in _basis_cache:
        _basis_cache[n] = NodalBasis(n)
    return _basis_cache[n]


_basis_cache = {}


def lagrange_values(basis, x):
    """Values of all Lagrange basis polynomials at points x.

    Barycentric evaluation; returns shape x.shape + (N+1,).  Exactly
    reproduces the Kronecker property at the nodes.
    """
    x = np.asarray(x, dtype=float)
    diff = x[..., None] - basis.nodes
    at_node = diff == 0.0
    safe = np.where(at_node, 1.0, diff)
    terms = basis.bary / safe
    vals = terms / terms.sum(axis=-1, keepdims=True)
    hit = at_node.any(axis=-1)
    if np.any(hit):
        vals = np.where(hit[..., None], at_node.astype(float), vals)
    return vals


def inner_product(basis, u, v):
    """Discrete 1D inner product <u, v>_N = sum u_j v_j w_j (last axis nodal)."""
    u, v = np.asarray(u), np.asarray(v)
    if u.shape[-1] != basis.n + 1 or v.shape[-1] != basis.n + 1:
        raise ValueError("nodal length does not match basis degree")
    return ((u * v) @ basis.weights)


def inner_product_3d(basis, u, v):
    """Discrete 3D inner product over the last three (i, j, k) axes."""
    n1 = basis.n + 1
    if u.shape[-3:] != (n1, n1, n1) or v.shape[-3:] != (n1, n1, n1):
        raise ValueError("field shape does not match basis degree")
    w = basis.weights
    return np.einsum("...ijk,...ijk,i,j,k->...", u, v, w, w, w)


def quadrature(basis, f):
    """LGL quadrature of nodal values (exact for integrands in P^{2N-1})."""
    return np.asarray(f) @ basis.weights


def aliasing_coefficients(basis, u):
    """Modal (Legendre) coefficients of the interpolant of nodal values u.

    C_k = <u, L_k>_N / ||L_k||_N^2 with the discrete norms
    ||L_k||_N^2 = 2/(2k+1) for k < N and 2/N for k = N.  For u in P^N these
    are the exact Legendre coefficients; otherwise they carry the aliasing
    contribution of unresolved modes.
    """
    n = basis.n
    coeffs = np.empty(n + 1)
    for k in range(n + 1):
        ell_k, _ = legendre_eval(k, basis.nodes)
        norm_sq = 2.0 / (2 * k + 1) if k < n else 2.0 / n
        coeffs[k] = inner_product(basis, u, ell_k) / norm_sq
    return coeffs


# Doubles per 64-byte cache line.  numpy's own allocations of mapped pages
# start 16 bytes into a line, and a streaming ufunc whose operands all
# start on a line runs up to twice as fast (see ``solver.Workspace``).
LINE = 8


def aligned_array(shape, alloc=np.empty):
    """A fresh float array of ``shape`` (from ``alloc``) whose data start on a 64-byte boundary.

    Over-allocates by ``LINE - 1`` doubles and slices, so the array is a
    C-contiguous view of a slightly larger one.  The address comes from a
    ctypes view of the buffer, at a quarter of the cost of ``ndarray.ctypes``
    (0.5 against 2.3 us): each flux evaluation makes three calls.
    """
    size = math.prod(shape)
    raw = alloc(size + LINE - 1)
    start = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) // 8 % LINE
    return raw[start:start + size].reshape(shape)


def apply_along(matrix, field, axis, out=None):
    """Apply an (m, p) matrix along one tensor axis of a (..., n, n, n) field.

    ``axis`` 0, 1, 2 is xi, eta, zeta; that axis of ``field`` (length p) is
    contracted with the matrix columns and becomes the m rows of the result,
    and any leading axes (components, elements) are carried along.  With
    ``basis.D`` this is the derivative along the axis.  Each axis is one BLAS
    ``matmul`` in the output's own layout: the matrix from the left on
    (..., p, rest) for xi and on the trailing matrices for eta, its
    transpose from the right on the (..., p) rows for zeta.  BLAS takes a
    contiguous transpose at about twice the speed of the transposed view.
    The result is written to ``out``, a C-contiguous float array of the
    result's shape, when given.
    """
    m, p = matrix.shape
    field = np.asarray(field, dtype=float)
    shape = list(field.shape)
    shape[axis - 3] = m
    shape = tuple(shape)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous with shape {shape}")
    if axis == 0:
        lead = field.shape[:-3]
        np.matmul(matrix, field.reshape(lead + (p, -1)), out=out.reshape(lead + (m, -1)))
    elif axis == 1:
        np.matmul(matrix, field, out=out)
    else:
        np.matmul(field.reshape(-1, p), np.ascontiguousarray(matrix.T), out=out.reshape(-1, m))
    return out


def apply_tensor(matrix, field):
    """Apply an (m, p) matrix along all three tensor axes of a (..., p, p, p) field.

    The axes are taken in the order xi, eta, zeta, each by ``apply_along``;
    leading axes are carried along.  With ``lagrange_values(basis, points)``
    as the matrix this interpolates a nodal field to the tensor grid of
    ``points``: the result has shape (..., m, m, m).
    """
    for axis in range(3):
        field = apply_along(matrix, field, axis)
    return field


def tensor_gradient(basis, field, out=None):
    """Reference-space gradient of a 3D nodal field.

    The last three axes of ``field`` are (i, j, k).  Returns an array with a
    new leading axis of length 3 holding (d/dxi, d/deta, d/dzeta), written
    to ``out`` (C-contiguous) when given.
    """
    if out is None:
        out = np.empty((3,) + field.shape)
    for axis in range(3):
        apply_along(basis.D, field, axis, out[axis])
    return out


def tensor_divergence(basis, flux, work=None):
    """Reference-space divergence of a vector field.

    ``flux`` has a leading axis of length 3 (the xi/eta/zeta components);
    the last three axes are (i, j, k).  ``work``, an optional pair
    (result, scratch) of C-contiguous float arrays of the result's shape,
    holds the result and one scratch array; the returned divergence is then
    its result.  Both are allocated when ``work`` is None.
    """
    shape = flux.shape[1:]
    out, part = (np.empty(shape), np.empty(shape)) if work is None else work
    apply_along(basis.D, flux[0], 0, out)
    out += apply_along(basis.D, flux[1], 1, part)
    out += apply_along(basis.D, flux[2], 2, part)
    return out
