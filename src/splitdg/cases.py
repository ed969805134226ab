"""Built-in flow cases: initial states, exact solutions, and error norms.

Every registered case supplies ``state(x, t, gas)``, the conservative state
at physical points x (shape (3, ...)): an exact solution of the Euler
equations, or of the forced equations for a case that also supplies
``source(x, t, gas)``.  It doubles as the initial condition, the Dirichlet
exterior state, and the reference for error norms.  Error norms are
evaluated with over-resolved LGL quadrature (degree 2N+8) against it.
"""

import numpy as np

from splitdg import geometry, physics, spectral


class DensityWave:
    """rho = mean + amp sin(2 pi (x+y+z - 3t)), v = (1,1,1), p = 1.

    An exact advection solution of the Euler equations: the wave moves with
    the uniform velocity while pressure and velocity stay constant.
    """

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


class ManufacturedWave:
    """Smooth wave in all primitive variables with an analytic source term.

    rho = 1 + a sin(2 pi (x+y+z - t)), v_d = v0 (constant), p = 1 + a sin(...).
    Not a solution of the equations; ``source(x, t)`` returns the residual
    forcing that makes it one (inviscid part; with viscosity enabled the
    constant-velocity choice keeps all viscous terms identically zero, so
    the same source is exact for Navier-Stokes too).
    """

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
        Every row is then a constant times ds = 2 pi a c, with vs = sum v0:
        mass rho_t + vs rho_x = (vs - 1) ds; momentum v_d times the mass
        row plus p_x; energy, with rho E = p/(g-1) + rho |v0|^2/2 = e p,
        e_t + vs (e + 1) p_x = (vs (e + 1) - e) ds.  One (5, ...) array is
        allocated besides ds.
        """
        ds = 2.0 * np.pi * self.amplitude * np.cos(self._phase(x, t))
        v = self.velocity
        vs = float(np.sum(v))
        e_factor = 1.0 / (gas.gamma - 1.0) + 0.5 * float(np.sum(v * v))
        coef = np.concatenate([[vs - 1.0], v * (vs - 1.0) + 1.0, [vs * (e_factor + 1.0) - e_factor]])
        return np.multiply.outer(coef, ds)


CASES = {
    "density_wave": DensityWave,
    "manufactured": ManufacturedWave,
}


def initial_condition(case, solver, gas):
    """Sample a case at t = 0 onto the solver's nodal grid, shape (5, K, n, n, n)."""
    return case.state(solver.x, 0.0, gas)


def error_grid_degree(n):
    """The degree of the LGL grid on which ``error_norms`` measures a degree-n solution."""
    return 2 * n + 8


# The largest degree of a run: its error grid must be a basis that spectral builds.
MAX_DEGREE = max(n for n in range(1, spectral.MAX_DEGREE + 1) if error_grid_degree(n) <= spectral.MAX_DEGREE)


def error_norms(solver, u, case, gas, t):
    """L2 and Linf errors per variable against the exact case solution.

    The numerical solution, the geometry, and the Jacobian are interpolated
    to an LGL grid of degree ``error_grid_degree(N)``, 2N + 8 (exact for
    the geometry, which is a degree-N polynomial), and the L2 norm uses that
    over-resolved quadrature.  Elements are refined one at a time, one axis
    at a time, so only one element's fine-grid arrays are held at once.

    Returns:
        (l2, linf): arrays of 5 per-variable error norms.

    Raises:
        PositivityError: naming the element, if the exact state is not
            positive on its fine grid.
    """
    basis = solver.basis
    fine = spectral.build_basis(error_grid_degree(basis.n))
    p = spectral.lagrange_values(basis, fine.nodes)
    w = fine.weights
    w3 = np.multiply.outer(np.multiply.outer(w, w), w)
    l2_sq = np.zeros(physics.NVAR)
    linf = np.zeros(physics.NVAR)
    for k in range(u.shape[1]):
        x_fine = spectral.apply_tensor(p, solver.x[:, k])
        jw = geometry.jacobian(spectral.tensor_gradient(fine, x_fine)) * w3
        exact = physics.in_phase(f"the exact state of element {k} in the error norms",
                                 case.state, x_fine, t, gas)
        diff = np.subtract(spectral.apply_tensor(p, u[:, k]), exact, out=exact).reshape(physics.NVAR, -1)
        l2_sq += (diff * diff) @ jw.ravel()
        linf = np.maximum(linf, np.abs(diff).max(axis=1))
    return np.sqrt(l2_sq), linf
