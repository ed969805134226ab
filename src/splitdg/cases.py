"""Built-in flow cases: initial states, exact solutions, and error norms.

A case supplies ``state(x, t)`` returning the conservative state at physical
points x (shape (3, ...)), which doubles as the initial condition, the
Dirichlet exterior state, and the reference for error norms.  Error norms
are evaluated with over-resolved LGL quadrature (degree 2N+8) against the
exact solution.
"""

import numpy as np

from splitdg import geometry, physics, spectral


class FlowCase:
    """An analytic flow with (optionally) an exact time-dependent solution."""

    name = "abstract"
    exact = False

    def state(self, x, t, gas):
        raise NotImplementedError


class FreeStream(FlowCase):
    """Spatially constant state; the free-stream preservation case."""

    name = "freestream"
    exact = True

    def __init__(self, rho=1.0, velocity=(0.1, 0.2, 0.3), p=1.0):
        self.rho = rho
        self.velocity = np.asarray(velocity, dtype=float)
        self.p = p

    def state(self, x, t, gas):
        shape = x.shape[1:]
        rho = np.full(shape, self.rho)
        v = np.broadcast_to(self.velocity.reshape((3,) + (1,) * len(shape)), (3,) + shape)
        p = np.full(shape, self.p)
        return physics.conservative_from_primitive(rho, v, p, gas)


class DensityWave(FlowCase):
    """rho = mean + amp sin(2 pi (x+y+z - 3t)), v = (1,1,1), p = 1.

    An exact advection solution of the Euler equations: the wave moves with
    the uniform velocity while pressure and velocity stay constant.
    """

    name = "density_wave"
    exact = True

    def __init__(self, amplitude=0.3, mean=1.0, velocity=(1.0, 1.0, 1.0), p=1.0):
        self.amplitude = amplitude
        self.mean = mean
        self.velocity = np.asarray(velocity, dtype=float)
        self.p = p

    def state(self, x, t, gas):
        shape = x.shape[1:]
        phase = x[0] + x[1] + x[2] - np.sum(self.velocity) * t
        rho = self.mean + self.amplitude * np.sin(2.0 * np.pi * phase)
        v = np.broadcast_to(self.velocity.reshape((3,) + (1,) * len(shape)), (3,) + shape)
        p = np.full(shape, self.p)
        return physics.conservative_from_primitive(rho, v, p, gas)


class ManufacturedWave(FlowCase):
    """Smooth wave in all primitive variables with an analytic source term.

    rho = 1 + a sin(2 pi (x+y+z - t)), v_d = v0 (constant), p = 1 + a sin(...).
    Not a solution of the equations; ``source(x, t)`` returns the residual
    forcing that makes it one (inviscid part; with viscosity enabled the
    constant-velocity choice keeps all viscous terms identically zero, so
    the same source is exact for Navier-Stokes too).
    """

    name = "manufactured"
    exact = True

    def __init__(self, amplitude=0.1, velocity=(0.7, 0.4, 0.2)):
        self.amplitude = amplitude
        self.velocity = np.asarray(velocity, dtype=float)

    def _phase(self, x, t):
        return 2.0 * np.pi * (x[0] + x[1] + x[2] - t)

    def state(self, x, t, gas):
        shape = x.shape[1:]
        s = np.sin(self._phase(x, t))
        rho = 1.0 + self.amplitude * s
        p = 1.0 + self.amplitude * s
        v = np.broadcast_to(self.velocity.reshape((3,) + (1,) * len(shape)), (3,) + shape)
        return physics.conservative_from_primitive(rho, v, p, gas)

    def source(self, x, t, gas):
        """d u_exact/dt + div f(u_exact), evaluated analytically.

        With constant velocity v0 and rho = p = 1 + a s(phase), phase
        = 2 pi (x+y+z-t): all fields depend on the single scalar phase, so
        d/dt = -2 pi a c and each d/dx_d = 2 pi a c with c = cos(phase).
        """
        a = self.amplitude
        c = np.cos(self._phase(x, t))
        ds = 2.0 * np.pi * a * c  # spatial derivative of rho and p per direction
        dt = -ds  # temporal derivative
        v = self.velocity
        vs = float(np.sum(v))
        vsq = float(np.sum(v * v))
        src = np.empty((5,) + x.shape[1:])
        # mass: rho_t + div(rho v) = rho_t + (v1+v2+v3) rho_x
        src[0] = dt + vs * ds
        # momentum d: (rho v_d)_t + div(rho v v_d) + p_xd
        for d in range(3):
            src[1 + d] = v[d] * (dt + vs * ds) + ds
        # energy: (rho E)_t + div((rho E + p) v); rho E = p/(g-1) + rho vsq/2
        e_factor = 1.0 / (gas.gamma - 1.0) + 0.5 * vsq
        src[4] = e_factor * dt + vs * (e_factor + 1.0) * ds
        return src


CASES = {
    "freestream": FreeStream,
    "density_wave": DensityWave,
    "manufactured": ManufacturedWave,
}


def make_case(name, **kwargs):
    try:
        cls = CASES[name]
    except KeyError:
        raise ValueError(f"unknown case '{name}'; valid options: {sorted(CASES)}") from None
    return cls(**kwargs)


def initial_condition(case, solver, gas, t=0.0):
    """Sample a case onto the solver's nodal grid, shape (5, K, n, n, n)."""
    return case.state(solver.x, t, gas)


def error_norms(solver, u, case, gas, t, extra_degree=8):
    """L2 and Linf errors per variable against the exact case solution.

    The numerical solution, the geometry, and the Jacobian are interpolated
    to an LGL grid of degree 2N + ``extra_degree`` (exact for the geometry,
    which is a degree-N polynomial), and the L2 norm uses that over-resolved
    quadrature.  Elements are refined one at a time, one axis at a time, so
    only one element's fine-grid arrays are held at once.

    Returns:
        (l2, linf): arrays of 5 per-variable error norms.
    """
    basis = solver.basis
    fine = spectral.build_basis(2 * basis.n + extra_degree)
    p = spectral.interpolation_matrix(basis, fine.nodes)
    w = fine.weights

    def refine(a):
        a = p @ (a @ p.T)  # k, then j
        return np.moveaxis(np.tensordot(p, a, axes=(1, -3)), 0, -3)  # i

    l2_sq = np.zeros(physics.NVAR)
    linf = np.zeros(physics.NVAR)
    for k in range(u.shape[1]):
        x_fine = refine(solver.x[:, k])
        jac = geometry.jacobian(spectral.tensor_gradient(fine, x_fine))
        diff = refine(u[:, k]) - case.state(x_fine, t, gas)
        l2_sq += np.einsum("cijk,cijk,ijk,i,j,k->c", diff, diff, jac, w, w, w)
        linf = np.maximum(linf, np.abs(diff).reshape(physics.NVAR, -1).max(axis=1))
    return np.sqrt(l2_sq), linf
