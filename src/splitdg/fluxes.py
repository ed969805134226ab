"""Two-point volume fluxes and interface numerical fluxes.

The volume fluxes are symmetric, consistent two-point functions F#(u_L, u_R)
evaluated in a direction.  Every flux object has one contract: ``prepare``
(per-node quantities, computed once) and ``evaluate(left, right, direction,
gas)``, which returns F#(u_L, u_R) . n with shape (5, ...), the five
components first, from two prepared states.  States and directions may be
any mutually broadcastable arrays with the component axis first, which is
what both the flux-differencing volume kernel (the unique node pairs of
every line, each with its summed contravariant vector) and the face
kernels (all face nodes at once, with the unit normal) rely on.  The pair
loops of the volume kernel therefore never recompute primitives.
``evaluate`` is linear in the direction.

``evaluate(left, right, direction, gas, out=None)`` writes the flux into
``out``, a float array of the broadcast (5, ...) shape, when given, and
returns it.  The arithmetic is the same with and without ``out``, so the
two give bitwise equal results; ``out`` must not overlap the inputs.  The
volume kernel passes its own pair-array buffer, so a call allocates only a
few scratch arrays of one pair-array each; the surface flux passes rows of
its flat ``work`` buffer.
"""

import math

import numpy as np

from splitdg import physics, spectral


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


def _log_mean_raw(a_left, a_right, out=None, gap=None, ratio=None):
    """log_mean without checks, into ``out``; ``gap`` and ``ratio`` are scratch buffers."""
    low = np.asarray(np.minimum(a_left, a_right, out=out))
    gap = np.maximum(a_left, a_right, out=gap)
    gap -= low
    ratio = np.log1p(np.divide(gap, low, out=ratio), out=ratio)
    return np.divide(gap, ratio, out=low, where=gap > 0.0)


def _flux_buffer(out, *operands):
    """``out``, or a fresh (5, ...) array of the operands' broadcast shape."""
    if out is None:
        out = np.empty((physics.NVAR,) + np.broadcast_shapes(*(np.shape(a) for a in operands)))
    return out


class CentralFlux:
    """Arithmetic mean of the physical fluxes (recovers standard DGSEM)."""

    def prepare(self, u, gas):
        return (physics.advective_flux(u, gas),)

    def evaluate(self, left, right, direction, gas, out=None):
        f_l, f_r = left[0], right[0]
        out = _flux_buffer(out, f_l[0, 0], f_r[0, 0], direction[0])
        # sum_d n_d <f_d>, one direction at a time.
        np.add(f_l[0], f_r[0], out=out)
        out *= 0.5
        out *= direction[0]
        term = np.empty_like(out)
        for d in (1, 2):
            np.add(f_l[d], f_r[d], out=term)
            term *= 0.5
            term *= direction[d]
            out += term
        return out


class EntropyConservativeFlux:
    """Entropy-conservative two-point flux (Chandrashekar) in direction n.

    With rho^ln, <v>, p_hat = <rho>/(2<beta>), H_hat and beta = rho/(2p),
    the directional flux is mass = rho^ln (<v>.n), f_m = mass <v>_m
    + p_hat n_m, f_E = mass H_hat; n = e_1 gives the printed x-direction
    five-vector.  Satisfies the directional entropy conservation (Tadmor)
    condition jump(w)^T F#.n = n . jump(w^T f - f^S) for every n.
    """

    def prepare(self, u, gas):
        return _ec_state(*physics.primitive_from_conservative(u, gas))

    def evaluate(self, left, right, direction, gas, out=None):
        rho_l, v_l, beta_l = left
        rho_r, v_r, beta_r = right
        f = _flux_buffer(out, rho_l, rho_r, v_l[0], v_r[0], direction[0])
        # The rows of f hold the means until the flux overwrites them:
        # f[0] rho^ln, then the mass flux; f[1:4] <v>; f[4] H_hat.  s0, s1
        # are scratch, on cache lines like the rows of the kernel's buffers;
        # s2 holds p_hat.  f[m, ...] is a view even when the states are scalars.
        s0, s1, s2 = (spectral.aligned_array(f.shape[1:]) for _ in range(3))
        rho_ln = _log_mean_raw(rho_l, rho_r, out=f[0, ...], gap=s0, ratio=s1)
        v_avg = np.add(v_l, v_r, out=f[1:4])
        v_avg *= 0.5
        # 1 / (2 beta^ln (gamma - 1)), the first term of H_hat.
        h_hat = _log_mean_raw(beta_l, beta_r, out=f[4, ...], gap=s0, ratio=s1)
        h_hat *= 2.0
        h_hat *= gas.gamma - 1.0
        np.divide(1.0, h_hat, out=h_hat)
        # p_hat = <rho> / (2 <beta>), with 2 <beta> = beta_L + beta_R exactly.
        p_hat = np.add(rho_l, rho_r, out=s2)
        p_hat *= 0.5
        p_hat /= np.add(beta_l, beta_r, out=s0)
        h_hat += np.divide(p_hat, rho_ln, out=s0)
        # <v>.<v> - <|v|^2>/2 = v_L.v_R / 2, without the cancellation.
        dot = np.multiply(v_l[0], v_r[0], out=s0)
        dot += np.multiply(v_l[1], v_r[1], out=s1)
        dot += np.multiply(v_l[2], v_r[2], out=s1)
        dot *= 0.5
        h_hat += dot
        # mass = rho^ln (<v>.n), in place of rho^ln.
        vn = np.multiply(v_avg[0], direction[0], out=s0)
        vn += np.multiply(v_avg[1], direction[1], out=s1)
        vn += np.multiply(v_avg[2], direction[2], out=s1)
        mass = rho_ln
        mass *= vn
        h_hat *= mass
        for m in range(3):
            f[1 + m] *= mass
            f[1 + m] += np.multiply(p_hat, direction[m], out=s1)
        return f


def _ec_state(rho, v, p, out=None):
    """The entropy-conservative flux's prepared state (rho, v, beta = rho / 2p), beta into ``out``.

    ``out`` may be ``p``.  Halving is exact, so rho / p halved is bitwise
    0.5 rho divided by p.
    """
    beta = np.divide(rho, p, out=out)
    beta *= 0.5
    return rho, v, beta


VOLUME_FLUXES = {"central": CentralFlux(), "ec": EntropyConservativeFlux()}


def get_volume_flux(name):
    try:
        return VOLUME_FLUXES[name]
    except KeyError:
        raise ValueError(
            f"unknown volume flux '{name}'; valid options: {sorted(VOLUME_FLUXES)}"
        ) from None


DISSIPATION_MODES = ("none", "llf")


def surface_flux_advective(u_left, u_right, normal, gas, dissipation="llf", work=None):
    """Interface flux F* = F#(u_L,u_R).n - (lambda_max/2) jump(w).

    ``normal`` is the unit outward normal of the left element, shape (3, ...).
    With dissipation "none" this is the entropy-conservative flux's
    ``evaluate`` with the normal as direction, the same directional flux
    the volume kernel uses; "llf" adds local Lax-Friedrichs dissipation
    formulated in entropy-variable jumps, with lambda_max estimated per face
    node, so its entropy contribution is provably non-positive.  Each side
    is converted to (rho, v, p) once; beta, c and w all derive from that.

    F* and the entropy-variable jump are rows of ``work``, a flat float
    buffer with room for two (5, ...) arrays of the states' broadcast shape,
    each on whole cache lines (``spectral.whole_lines``), and each side's
    primitives, then its beta, replace its state in place: a call with
    ``work`` overwrites ``u_left`` and ``u_right``.  The
    returned F* is a view into ``work``, and only a few scratch rows are
    allocated.  With ``work=None`` the states are left unchanged and every
    array is allocated.
    """
    if dissipation not in DISSIPATION_MODES:
        raise ValueError(
            f"unknown dissipation '{dissipation}'; valid options: {list(DISSIPATION_MODES)}"
        )
    shape = (physics.NVAR,) + np.broadcast_shapes(u_left.shape[1:], u_right.shape[1:], normal.shape[1:])
    size, lines = math.prod(shape), spectral.whole_lines(math.prod(shape))
    fstar, diss = (np.empty(shape) if work is None else work[i * lines:i * lines + size].reshape(shape)
                   for i in range(2))
    # Each side's (rho, v, p), in place of its state when ``work`` is given.
    left, right = (physics.primitive_from_conservative(side, gas, out=None if work is None else side)
                   for side in (u_left, u_right))
    if dissipation == "llf":
        # (lambda_max/2) jump(w) first, w_L and lambda_max in F*'s rows.
        physics.entropy_variables_from_primitive(*right, gas, out=diss)
        diss -= physics.entropy_variables_from_primitive(*left, gas, out=fstar)
        half_lam = physics.max_wave_speed(left, right, normal, gas, out=fstar[:3])
        diss *= np.multiply(0.5, half_lam, out=half_lam)
    ec = VOLUME_FLUXES["ec"]
    # beta replaces p, spent by now.
    ec.evaluate(_ec_state(*left, out=left[2]), _ec_state(*right, out=right[2]), normal, gas, out=fstar)
    if dissipation == "llf":
        fstar -= diss
    return fstar
