"""Compressible Euler/Navier-Stokes state algebra.

Conservative states are numpy arrays with the five components
(rho, rho*v1, rho*v2, rho*v3, rho*E) on the FIRST axis; trailing axes are
arbitrary node/element axes, so every routine here is vectorized over whole
fields.  All quantities are nondimensional, with the gas constant and the
dynamic viscosity 1: the temperature is T = p / rho, the viscous terms carry
a 1/Re prefactor, and the heat conduction coefficient is
lam = gamma / ((gamma - 1) Pr).  So the viscous flux is a function of the
entropy variables w_2..w_5 and their gradients alone (see
:func:`gradients_from_entropy_gradients`).
"""

import math

import numpy as np

NVAR = 5


class PositivityError(ValueError):
    """Density or pressure lost positivity; the message gives the array index."""


def in_phase(where, fn, *args):
    """``fn(*args)``; a PositivityError from it is raised again naming the phase ``where``."""
    try:
        return fn(*args)
    except PositivityError as err:
        raise PositivityError(f"positivity failure in {where}: {err}") from err


class GasModel:
    """Ideal-gas parameters; immutable and shareable across threads.

    gamma is the heat capacity ratio (> 1), prandtl the Prandtl number and
    reynolds the Reynolds number multiplying the inverse viscous scaling
    (both > 0).  ``reynolds=None`` means inviscid (the solver skips all
    viscous terms).  The attributes are set once, when the model is
    validated; assigning or deleting one raises AttributeError.
    """

    __slots__ = ("gamma", "prandtl", "reynolds")

    def __init__(self, gamma=1.4, prandtl=0.72, reynolds=None):
        for name, value, low in zip(self.__slots__, (gamma, prandtl, reynolds), (1, 0, 0)):
            if not (value is None and name == "reynolds" or math.isfinite(value) and value > low):
                raise ValueError(f"{name} must be finite and exceed {low}, got {value}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field '{name}': GasModel is immutable")

    __delattr__ = __setattr__

    @property
    def viscous(self):
        return self.reynolds is not None


def _check_positive(rho, p):
    """Raise PositivityError at the minimum of rho or p unless it is > 0."""
    for quantity, symbol, a in (("density", "rho", rho), ("pressure", "p", p)):
        a_min = np.min(a, initial=np.inf)  # an empty state array passes
        if not a_min > 0.0:
            at = tuple(int(i) for i in np.unravel_index(np.argmin(a), np.shape(a)))
            raise PositivityError(f"non-positive {quantity}, min {symbol} = {a_min} at index {at}")


def primitive_from_conservative(u, gas, out=None):
    """Convert conservative state(s) to (rho, v, p).

    ``out``, an optional (5, ...) float buffer, receives v in out[1:4] and p
    in out[4]; out[0] is scratch.  Without it, v, p and one scratch row are
    separate arrays, so a caller that keeps only v holds three rows.  ``out``
    may be ``u`` itself: v and p then replace its momentum and energy rows,
    and the scratch and the kinetic energy take two fresh rows.

    Returns:
        rho: density array (a view of u[0]), v: velocity array with leading
        axis 3, p: pressure.

    Raises:
        PositivityError: if rho <= 0 or p <= 0 anywhere.
    """
    rho = u[0]
    if out is None:
        scratch, v, p = np.empty(np.shape(rho)), np.empty((3,) + np.shape(rho)), np.empty(np.shape(rho))
    else:
        scratch, v, p = out[0, ...], out[1:4], out[4, ...]
    kinetic = p
    if out is u:  # rho and the energy row must outlive the kinetic energy
        scratch, kinetic = np.empty(np.shape(rho)), np.empty(np.shape(rho))
    np.divide(u[1:4], rho, out=v)
    kinetic = _dot(v, v, kinetic, scratch)
    kinetic *= np.multiply(0.5, rho, out=scratch)
    p = np.subtract(u[4], kinetic, out=p)
    p *= gas.gamma - 1.0
    _check_positive(rho, p)
    return rho, v, p


def _dot(a, b, out, scratch):
    """sum_d a[d] b[d] over the leading axis of length 3, into ``out``, in the order of np.sum."""
    np.multiply(a[0], b[0], out=out)
    for d in (1, 2):
        out += np.multiply(a[d], b[d], out=scratch)
    return out


def conservative_from_primitive(rho, v, p, gas):
    """Assemble a conservative state from (rho, v, p); v has leading axis 3."""
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    _check_positive(rho, p)
    shape = np.broadcast_shapes(rho.shape, v.shape[1:], p.shape)
    u = np.empty((NVAR,) + shape)
    u[0] = rho
    u[1:4] = rho * v
    u[4] = p / (gas.gamma - 1.0) + 0.5 * rho * np.sum(v * v, axis=0)
    return u


def advective_flux(u, gas):
    """Cartesian advective flux triple f_d(u), returned with shape (3, 5, ...)."""
    rho, v, p = primitive_from_conservative(u, gas)
    enthalpy_flow = u[4] + p  # rho*H = rho*E + p
    f = np.empty((3,) + u.shape)
    for d in range(3):
        f[d, 0] = u[1 + d]
        for m in range(3):
            f[d, 1 + m] = u[1 + d] * v[m]
        f[d, 1 + d] += p
        f[d, 4] = v[d] * enthalpy_flow
    return f


def entropy(u, gas):
    """Mathematical entropy s = -rho (ln p - gamma ln rho) / (gamma - 1)."""
    rho, _, p = primitive_from_conservative(u, gas)
    sigma = np.log(p) - gas.gamma * np.log(rho)
    return -rho * sigma / (gas.gamma - 1.0)


def entropy_flux(u, gas):
    """Entropy flux f^S = s * v, shape (3, ...)."""
    return entropy(u, gas) * primitive_from_conservative(u, gas)[1]


def entropy_variables(u, gas):
    """w = ds/du, the entropy variables, shape (5, ...).

    w = [(gamma - sigma)/(gamma-1) - rho|v|^2/(2p), rho v/p, -rho/p] with
    sigma = ln p - gamma ln rho.  w[4] < 0 whenever rho, p > 0.
    """
    return entropy_variables_from_primitive(*primitive_from_conservative(u, gas), gas)


def entropy_variables_from_primitive(rho, v, p, gas, out=None):
    """The entropy variables of :func:`entropy_variables` from (rho, v, p).

    The rows of ``out`` (5, ...) hold the intermediates, so the call
    allocates nothing when it is given.  It must not overlap the inputs.
    """
    w = np.empty((NVAR,) + np.shape(rho)) if out is None else out
    # sigma = ln p - gamma ln rho, then (gamma - sigma) / (gamma - 1).
    sigma = np.log(p, out=w[0, ...])
    sigma -= np.multiply(np.log(rho, out=w[1, ...]), gas.gamma, out=w[1, ...])
    w0 = np.subtract(gas.gamma, sigma, out=w[0, ...])
    w0 /= gas.gamma - 1.0
    rho_over_p = np.divide(rho, p, out=w[4, ...])
    kinetic = _dot(v, v, w[2, ...], w[3, ...])
    kinetic *= np.multiply(0.5, rho_over_p, out=w[1, ...])
    w0 -= kinetic
    viscous_entropy_variables(rho, v, p, out=w[1:])
    return w


def viscous_entropy_variables(rho, v, p, out=None):
    """The rows w_2..w_5 = (rho v / p, -rho / p) of the entropy variables, shape (4, ...).

    They are all that the viscous flux reads: its map from the gradients of
    w never reads w_1's (see :func:`gradients_from_entropy_gradients`).
    :func:`entropy_variables_from_primitive` forms its rows 1-4 here, so
    they are the same bit for bit; this call has no logarithms.  ``out``
    (4, ...) may hold v and p as its rows 0-2 and 3, as the primitives of
    :func:`primitive_from_conservative` into a (5, ...) view whose rows
    1-4 are ``out``: each node is read before it is written.  No other
    overlap with the inputs is allowed.
    """
    w = np.empty((NVAR - 1,) + np.shape(rho)) if out is None else out
    np.multiply(np.divide(rho, p, out=w[3, ...]), v, out=w[:3])  # rho / p, then (rho / p) v
    np.negative(w[3, ...], out=w[3, ...])
    return w


def entropy_potential(u, gas):
    """psi_d = w^T f_d - f^S_d; equals rho*v_d for the ideal gas."""
    w = entropy_variables(u, gas)
    f = advective_flux(u, gas)
    fs = entropy_flux(u, gas)
    return np.einsum("c...,dc...->d...", w, f) - fs


def viscous_flux(v, grad_v, grad_t, gas, out=None):
    """Cartesian viscous flux triple from the velocity and the primitive gradients.

    Args:
        v: velocity, shape (3, ...).
        grad_v: velocity gradients, grad_v[d, m] = d v_m / d x_d, shape (3, 3, ...).
        grad_t: temperature gradient, grad_t[d] = d T / d x_d with T = p / rho,
            shape (3, ...).
        out: optional (3, 4, ...) array for the result, not overlapping the
            inputs.  Its rows hold the intermediates, so the call then
            allocates only the (3, ...) heat flux lam grad T.

    Returns:
        f^v with shape (3, 4, ...): the momentum and energy components.  The
        mass component is zero and is not formed.
    """
    f = np.empty((3, NVAR - 1) + np.shape(v)[1:]) if out is None else out
    # f[2, 3] holds the divergence term until the last energy row.
    div_v = np.add(grad_v[0, 0], grad_v[1, 1], out=f[2, 3, ...])
    div_v += grad_v[2, 2]
    div_v *= 2.0 / 3.0
    tau = np.add(grad_v, grad_v.swapaxes(0, 1), out=f[:, :3])  # the viscous stress, in place
    np.einsum("ii...->i...", tau)[...] -= div_v  # the diagonal, a view
    for d in range(3):
        np.einsum("m...,m...->...", v, tau[d], out=f[d, 3, ...])
    f[:, 3] += gas.gamma / ((gas.gamma - 1.0) * gas.prandtl) * grad_t
    return f


def gradients_from_entropy_gradients(w, q, gas, out=None):
    """Velocity and primitive gradients (v, grad v, grad T) from w_2..w_5 and their gradients.

    ``w`` holds w_2..w_5 = (rho v / p, -rho / p), shape (4, ...), and ``q``
    their gradients, q[d, c] = d w_{c+2} / d x_d, shape (3, 4, ...).  With
    T = p / rho = -1 / w_5 and v = w_2..w_4 T, the map is linear in q at a
    fixed state:
        d v_m / d x_d = (q[d, m] + v_m q[d, 3]) T
        d T  / d x_d = T^2 q[d, 3].
    The gradients are the rows out[:, :3] and out[:, 3] of ``out``, a
    (3, 4, ...) array that may be ``q`` itself.  Beyond ``out`` the call
    allocates v, T and its square, and the (3, 3, ...) products v_m q[d, 3].
    The map holds for any gas: ``gas`` is not read.
    """
    g = np.empty(np.shape(q)) if out is None else out
    t = np.divide(-1.0, w[3])
    v = np.multiply(w[:3], t)
    # Each row of q is read before its own gradient row is written.
    grad_v = np.add(q[:, :3], np.multiply(v, q[:, 3:4]), out=g[:, :3])
    grad_v *= t
    grad_t = np.multiply(np.square(t), q[:, 3], out=g[:, 3])
    return v, grad_v, grad_t


def viscous_flux_from_entropy_gradients(w, q, gas, out=None):
    """f^v (3, 4, ...) from w_2..w_5 (4, ...) and their lifted gradients q (3, 4, ...).

    With ``out``, the primitive gradients are formed in q's own memory, so
    ``q`` is overwritten and the call allocates only a few scratch rows.
    """
    v, grad_v, grad_t = gradients_from_entropy_gradients(w, q, gas, None if out is None else q)
    return viscous_flux(v, grad_v, grad_t, gas, out)


def max_wave_speed(left, right, normal, gas, out=None):
    """Largest |v.n| + c over two primitive states (symmetric in its arguments).

    ``left`` and ``right`` are (rho, v, p) triples as returned by
    :func:`primitive_from_conservative`.  ``out``, an optional (3, ...)
    float buffer, receives the result in out[0]; out[1:] is scratch.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(left[0]), np.shape(right[0]), np.shape(normal)[1:])
        out = np.empty((3,) + shape)
    c = out[0, ...]
    speeds = out[1, ...], out[2, ...]
    for speed, (rho, v, p) in zip(speeds, (left, right)):
        np.sqrt(np.divide(np.multiply(gas.gamma, p, out=c), rho, out=c), out=c)
        np.abs(np.einsum("d...,d...->...", normal, v, out=speed), out=speed)
        speed += c
    return np.maximum(*speeds, out=out[0, ...])
