"""Two-point volume fluxes and interface numerical fluxes.

The volume fluxes are symmetric, consistent two-point functions F#(u_L, u_R)
evaluated in a direction: ``evaluate(left, right, direction, gas)`` returns
F#(u_L, u_R) . n with shape (5, ...), the five components first.  States and
directions may be any mutually broadcastable arrays with the component axis
first, which is what both the flux-differencing volume kernel (the unique
node pairs of every line, each with its averaged contravariant vector) and
the face kernels (all face nodes at once, with the unit normal) rely on.

Flux objects split evaluation into ``prepare`` (per-node quantities,
computed once) and ``evaluate`` (pairwise means on gathered or broadcast
views), so the pair loops of the volume kernel never recompute primitives.
Calling a flux object gives the Cartesian triple with shape (3, 5, ...),
one ``evaluate`` per unit vector.
"""

import numpy as np

from splitdg import physics


def log_mean(a_left, a_right):
    """Logarithmic mean (a_L - a_R) / (ln a_L - ln a_R), stable for a_L ~ a_R.

    With low = min and gap = max - min of the two arguments, this is
    gap / ln(zeta) with ln zeta = log1p(gap / low): log1p keeps full
    precision for near-equal arguments, where ln(max/min) would lose digits
    to the rounding of the quotient, so no separate near-equal branch is
    needed.  Equal arguments return themselves exactly, without evaluating
    0/0.  The result is symmetric in the two arguments, bit for bit.
    """
    a_left = np.asarray(a_left, dtype=float)
    a_right = np.asarray(a_right, dtype=float)
    if np.any(a_left <= 0.0) or np.any(a_right <= 0.0):
        raise ValueError("log_mean requires positive arguments")
    out = _log_mean_raw(a_left, a_right)
    if out.ndim == 0:
        return float(out)
    return out


def _log_mean_raw(a_left, a_right):
    low = np.asarray(np.minimum(a_left, a_right))
    gap = np.maximum(a_left, a_right) - low
    return np.divide(gap, np.log1p(gap / low), out=low, where=gap > 0.0)


def _mean(a, b):
    return 0.5 * (a + b)


class TwoPointFlux:
    """Symmetric, consistent two-point volume flux F#(u_L, u_R).

    Subclasses implement ``prepare`` (nodal pre-processing, run once per
    field) and ``evaluate`` (pairwise combination of two prepared states
    contracted with ``direction``, shape (3, ...); returns (5, ...)).
    Calling the object with two conservative states gives the Cartesian
    triple (3, 5, ...), row d being ``evaluate`` with the unit vector e_d.
    """

    name = "abstract"

    def prepare(self, u, gas):
        return (u,)

    def evaluate(self, left, right, direction, gas):
        raise NotImplementedError

    def __call__(self, u_left, u_right, gas):
        left, right = self.prepare(u_left, gas), self.prepare(u_right, gas)
        return np.stack([self.evaluate(left, right, e, gas) for e in np.eye(3)])


class CentralFlux(TwoPointFlux):
    """Arithmetic mean of the physical fluxes (recovers standard DGSEM)."""

    name = "central"

    def prepare(self, u, gas):
        return (physics.advective_flux(u, gas),)

    def evaluate(self, left, right, direction, gas):
        f = _mean(left[0], right[0])
        return direction[0] * f[0] + direction[1] * f[1] + direction[2] * f[2]


class EntropyConservativeFlux(TwoPointFlux):
    """Entropy-conservative two-point flux (Chandrashekar) in direction n.

    With rho^ln, <v>, p_hat = <rho>/(2<beta>), H_hat and beta = rho/(2p),
    the directional flux is mass = rho^ln (<v>.n), f_m = mass <v>_m
    + p_hat n_m, f_E = mass H_hat; n = e_1 gives the printed x-direction
    five-vector.  Satisfies the directional entropy conservation (Tadmor)
    condition jump(w)^T F#.n = n . jump(w^T f - f^S) for every n.
    """

    name = "ec"

    def prepare(self, u, gas):
        rho, v, p = physics.primitive_from_conservative(u, gas)
        return rho, v, 0.5 * rho / p

    def evaluate(self, left, right, direction, gas):
        rho_l, v_l, beta_l = left
        rho_r, v_r, beta_r = right

        rho_ln = _log_mean_raw(rho_l, rho_r)
        beta_ln = _log_mean_raw(beta_l, beta_r)
        v_avg = _mean(v_l, v_r)
        p_hat = _mean(rho_l, rho_r) / (2.0 * _mean(beta_l, beta_r))
        # <v>.<v> - <|v|^2>/2 = v_L.v_R / 2, without the cancellation.
        h_hat = (
            1.0 / (2.0 * beta_ln * (gas.gamma - 1.0))
            + p_hat / rho_ln
            + 0.5 * (v_l[0] * v_r[0] + v_l[1] * v_r[1] + v_l[2] * v_r[2])
        )
        mass = rho_ln * (v_avg[0] * direction[0] + v_avg[1] * direction[1]
                         + v_avg[2] * direction[2])

        f = np.empty((physics.NVAR,) + mass.shape)
        f[0] = mass
        for m in range(3):
            f[1 + m] = mass * v_avg[m] + p_hat * direction[m]
        f[4] = mass * h_hat
        return f


VOLUME_FLUXES = {"central": CentralFlux(), "ec": EntropyConservativeFlux()}


def central_flux(u_left, u_right, gas):
    return VOLUME_FLUXES["central"](u_left, u_right, gas)


def ec_flux(u_left, u_right, gas):
    return VOLUME_FLUXES["ec"](u_left, u_right, gas)


def get_volume_flux(name):
    try:
        return VOLUME_FLUXES[name]
    except KeyError:
        raise ValueError(
            f"unknown volume flux '{name}'; valid options: {sorted(VOLUME_FLUXES)}"
        ) from None


def kg_momentum_term(u_left, u_right):
    """<rho><v1><v2> two-point product of the cubic-split x-momentum term.

    Split-form demonstrator only: flux differencing of this single entry
    reproduces the seven-term cubic split form on polynomial data.
    """
    rho_l, rho_r = u_left[0], u_right[0]
    v1 = _mean(u_left[1] / rho_l, u_right[1] / rho_r)
    v2 = _mean(u_left[2] / rho_l, u_right[2] / rho_r)
    return _mean(rho_l, rho_r) * v1 * v2


DISSIPATION_MODES = ("none", "llf")


def surface_flux_advective(u_left, u_right, normal, gas, dissipation="llf"):
    """Interface flux F* = F#(u_L,u_R).n - (lambda_max/2) jump(w).

    ``normal`` is the unit outward normal of the left element, shape (3, ...).
    With dissipation "none" this is the entropy-conservative flux's
    ``evaluate`` with the normal as direction, the same directional flux
    the volume kernel uses; "llf" adds local Lax-Friedrichs dissipation
    formulated in entropy-variable jumps, with lambda_max estimated per face
    node, so its entropy contribution is provably non-positive.
    """
    if dissipation not in DISSIPATION_MODES:
        raise ValueError(
            f"unknown dissipation '{dissipation}'; valid options: {list(DISSIPATION_MODES)}"
        )
    ec = VOLUME_FLUXES["ec"]
    fstar = ec.evaluate(ec.prepare(u_left, gas), ec.prepare(u_right, gas), normal, gas)
    if dissipation == "llf":
        lam = physics.max_wave_speed(u_left, u_right, normal, gas)
        jump_w = physics.entropy_variables(u_right, gas) - physics.entropy_variables(u_left, gas)
        fstar = fstar - 0.5 * lam * jump_w
    return fstar


def br1_viscous_interface(fv_n_left, fv_n_right, w_left, w_right):
    """BR1 coupling: both interface values are plain arithmetic means.

    Args:
        fv_n_left/right: normal viscous fluxes from the two sides, evaluated
            with the same normal vector.
        w_left/right: entropy-variable traces.

    Returns:
        (F^{v,*}_n, W*).
    """
    return _mean(fv_n_left, fv_n_right), _mean(w_left, w_right)
