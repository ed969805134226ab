"""Compressible Euler/Navier-Stokes state algebra.

Conservative states are numpy arrays with the five components
(rho, rho*v1, rho*v2, rho*v3, rho*E) on the FIRST axis; trailing axes are
arbitrary node/element axes, so every routine here is vectorized over whole
fields.  All quantities are nondimensional with the free-stream scaling in
which the viscous terms carry a 1/Re prefactor and the heat conduction
coefficient is lam = mu / ((gamma-1) Pr Ma^2).
"""

import math

import numpy as np

NVAR = 5


class PositivityError(ValueError):
    """Density or pressure lost positivity; the message gives the array index."""


class GasModel:
    """Ideal-gas parameters; immutable and shareable across threads.

    mu is the constant dynamic viscosity; reynolds is the Reynolds number
    multiplying the inverse viscous scaling.  ``reynolds=None`` means
    inviscid (the solver skips all viscous terms).  The attributes are set
    once, when the model is validated; assigning or deleting one raises
    AttributeError.
    """

    __slots__ = ("gamma", "mach", "prandtl", "reynolds", "mu")

    def __init__(self, gamma=1.4, mach=1.0, prandtl=0.72, reynolds=None, mu=1.0):
        for name, value in zip(self.__slots__, (gamma, mach, prandtl, reynolds, mu)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if self.mach <= 0 or self.prandtl <= 0 or self.mu < 0:
            raise ValueError("gas parameters must be positive")
        if self.reynolds is not None and self.reynolds <= 0:
            raise ValueError("Reynolds number must be positive")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field '{name}': GasModel is immutable")

    __delattr__ = __setattr__

    @property
    def viscous(self):
        return self.reynolds is not None

    @property
    def heat_conduction(self):
        """lam = mu / ((gamma - 1) Pr Ma^2)."""
        return self.mu / ((self.gamma - 1.0) * self.prandtl * self.mach**2)


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
    (4, ...) must not overlap the inputs.
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


def viscous_flux(u, grad_v, grad_t, gas, out=None):
    """Cartesian viscous flux triple from primitive-variable gradients.

    Args:
        u: conservative state, shape (5, ...).
        grad_v: velocity gradients, grad_v[d, m] = d v_m / d x_d, shape (3, 3, ...).
        grad_t: temperature gradient, grad_t[d] = d T / d x_d, shape (3, ...).
        out: optional (3, 5, ...) array for the result, not overlapping the
            gradients.  Its rows hold the intermediates, so the call then
            allocates only the (3, ...) heat flux lam grad T.

    Returns:
        f^v with shape (3, 5, ...); the mass component is zero.
    """
    f = np.empty((3, NVAR) + u.shape[1:]) if out is None else out
    mu = gas.mu
    # The mass rows hold v until the end, f[2, 4] the divergence term until
    # the last energy row.
    v = np.divide(u[1:4], u[0], out=f[:, 0])
    div_v = np.add(grad_v[0, 0], grad_v[1, 1], out=f[2, 4, ...])
    div_v += grad_v[2, 2]
    div_v *= (2.0 / 3.0) * mu
    tau = np.add(grad_v, grad_v.swapaxes(0, 1), out=f[:, 1:4])  # the viscous stress, in place
    tau *= mu
    np.einsum("ii...->i...", tau)[...] -= div_v  # the diagonal, a view
    for d in range(3):
        np.einsum("m...,m...->...", v, tau[d], out=f[d, 4, ...])
    f[:, 4] += gas.heat_conduction * grad_t
    f[:, 0] = 0.0
    return f


def gradients_from_entropy_gradients(u, q, gas, out=None):
    """Primitive gradients (grad v, grad T) from entropy-variable gradients.

    ``q`` holds d w / d x_d with shape (3, 5, ...).  The map is linear in q
    at a fixed state: with p/rho = -1/w5,
        d v_m / d x_d = (q[d, 1+m] + v_m q[d, 4]) * (p / rho)
        d T  / d x_d = gamma Ma^2 (p / rho)^2 q[d, 4].
    The gradients are the rows out[:, 1:4] and out[:, 4] of ``out``, a
    (3, 5, ...) array that may be ``q`` itself; its mass rows out[:, 0] are
    scratch.  Beyond ``out`` the call allocates two scratch rows and the
    (3, 3, ...) products v_m q[d, 4].
    """
    g = np.empty(np.shape(q)) if out is None else out
    rho = u[0]
    v = np.divide(u[1:4], rho, out=g[:, 0])
    p_over_rho, scratch = np.empty(np.shape(rho)), np.empty(np.shape(rho))
    kinetic = _dot(v, v, p_over_rho, scratch)
    kinetic *= np.multiply(0.5, rho, out=scratch)
    p = np.subtract(u[4], kinetic, out=p_over_rho)
    p *= gas.gamma - 1.0
    p_over_rho = np.divide(p, rho, out=p_over_rho)
    # Each row of q is read before its own gradient row is written.
    grad_v = np.add(q[:, 1:4], np.multiply(v, q[:, 4:5]), out=g[:, 1:4])
    grad_v *= p_over_rho
    coef = np.square(p_over_rho, out=scratch)
    coef *= gas.gamma * gas.mach**2
    grad_t = np.multiply(coef, q[:, 4], out=g[:, 4])
    return grad_v, grad_t


def viscous_flux_from_entropy_gradients(u, q, gas, out=None):
    """f^v evaluated from lifted entropy-variable gradients q (3, 5, ...), into ``out`` when given.

    With ``out``, the primitive gradients are formed in q's own memory, so
    ``q`` is overwritten and the call allocates only a few scratch rows.
    """
    grad_v, grad_t = gradients_from_entropy_gradients(u, q, gas, None if out is None else q)
    return viscous_flux(u, grad_v, grad_t, gas, out)


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
