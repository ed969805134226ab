import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flux_triple import cartesian_triple
from splitdg import fluxes as fl
from splitdg import physics as ph
from splitdg import spectral as sp

GAS = ph.GasModel()


def central_flux(u_left, u_right):
    return cartesian_triple(fl.VOLUME_FLUXES["central"], u_left, u_right, GAS)


def ec_flux(u_left, u_right):
    return cartesian_triple(fl.VOLUME_FLUXES["ec"], u_left, u_right, GAS)


def random_states(rng, count):
    return ph.conservative_from_primitive(
        rng.uniform(0.2, 2.0, count), rng.uniform(-2.0, 2.0, (3, count)),
        rng.uniform(0.2, 2.0, count), GAS)


def log_mean_oracle(a, b, dps=50):
    """Reference value computed at 50 decimal digits."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if a == b:
            return float(a)
        return float((a - b) / (mpmath.log(a) - mpmath.log(b)))


class TestLogMean:
    def test_equal_arguments(self):
        # Returned exactly, without evaluating 0/0.
        a = np.array([1e-300, 1e-6, 0.37, 1.0, 3.0, 1e6, 1e300])
        with np.errstate(all="raise"):
            assert fl.log_mean(3.0, 3.0) == 3.0
            assert np.array_equal(fl.log_mean(a, a), a)

    def test_one_and_e(self):
        assert fl.log_mean(1.0, np.e) == pytest.approx(np.e - 1.0, rel=1e-15)

    def test_near_equal_arguments(self):
        # 50-digit oracle: log-mean of (1, 1+1e-12) = 1 + 5e-13 (1 + O(1e-13))
        got = fl.log_mean(1.0, 1.0 + 1e-12)
        ref = log_mean_oracle(1.0, 1.0 + 1e-12)
        assert got == pytest.approx(ref, rel=1e-12)
        assert got == pytest.approx(1.0 + 5e-13, rel=1e-12)

    def test_moderate_ratios_within_2_ulp(self):
        # Ratios 1.021..1.3: both argument orders stay within 2 ulp of the
        # oracle.
        r = np.linspace(1.021, 1.3, 200)
        ref = np.array([log_mean_oracle(x, 1.0) for x in r])
        for a, b in ((r, np.ones_like(r)), (np.ones_like(r), r)):
            assert (np.abs(fl.log_mean(a, b) - ref) / ref).max() <= 5e-16

    def test_symmetric_bit_for_bit(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.01, 100.0, 5000)
        b = a * np.exp(rng.uniform(-0.1, 0.1, 5000))
        assert np.array_equal(fl.log_mean(a, b), fl.log_mean(b, a))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fl.log_mean(-1.0, 2.0)
        with pytest.raises(ValueError):
            fl.log_mean(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_bounds_between_min_and_arithmetic_mean(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.01, 100.0, 5000)
        b = rng.uniform(0.01, 100.0, 5000)
        lm = fl.log_mean(a, b)
        assert (lm >= np.minimum(a, b) - 1e-13).all()
        assert (lm <= 0.5 * (a + b) + 1e-13).all()

    def test_monotone_in_each_argument(self):
        grid = np.sort(np.concatenate([np.linspace(0.5, 2.0, 200), 1.0 + np.linspace(-1e-6, 1e-6, 50)]))
        lm = fl.log_mean(grid, np.ones_like(grid))
        assert (np.diff(lm) > 0).all()
        lm2 = fl.log_mean(np.full_like(grid, 0.7), grid)
        assert (np.diff(lm2) > 0).all()

    def test_high_precision_battery(self):
        # relative error < 1e-13 across ratios [1+1e-15, 1e6], with a dense
        # set of ratios near 1.02
        ratios = np.concatenate([
            1.0 + np.logspace(-15, -1, 140),
            np.logspace(0.05, 6.0, 140),
            np.linspace(1.015, 1.025, 60),
        ])
        got = fl.log_mean(np.ones_like(ratios), ratios)
        ref = np.array([log_mean_oracle(1.0, r) for r in ratios])
        rel = np.abs(got - ref) / ref
        assert rel.max() < 1e-13

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.5, 2.0, 100)
        b = rng.uniform(0.5, 2.0, 100)
        for scale in (1e-6, 1e6):
            assert np.allclose(fl.log_mean(scale * a, scale * b), scale * fl.log_mean(a, b),
                               rtol=1e-13)


class TestCentralFlux:
    def test_consistency(self):
        rng = np.random.default_rng(2)
        u = random_states(rng, 50)
        f = central_flux(u, u)
        assert np.abs(f - ph.advective_flux(u, GAS)).max() < 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        ua, ub = random_states(rng, 200), random_states(rng, 200)
        assert np.abs(central_flux(ua, ub) - central_flux(ub, ua)).max() == 0.0

    def test_rest_plus_moving_hand_sum(self):
        u_rest = ph.conservative_from_primitive(np.asarray(1.0), np.zeros(3), np.asarray(1.0), GAS)
        u_move = ph.conservative_from_primitive(np.asarray(1.0), np.array([1.0, 0, 0]), np.asarray(1.0), GAS)
        f = central_flux(u_rest, u_move)
        # mean of (0,1,0,0,0) and (1,2,0,0,4)
        assert np.allclose(f[0], [0.5, 1.5, 0.0, 0.0, 2.0], atol=1e-14)


class TestEntropyConservativeFlux:
    def test_consistency_collapses_all_means(self):
        u = ph.conservative_from_primitive(np.asarray(1.0), np.array([0.1, 0.2, 0.3]),
                                           np.asarray(1.0), GAS)
        f = ec_flux(u, u)
        assert np.abs(f - ph.advective_flux(u, GAS)).max() < 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        ua, ub = random_states(rng, 2000), random_states(rng, 2000)
        gap = np.abs(ec_flux(ua, ub) - ec_flux(ub, ua)).max()
        assert gap < 1e-13

    def test_tadmor_condition_battery(self):
        # jump(w)^T F#_d = jump(w^T f_d - f^S_d) per direction, 1e4 pairs
        rng = np.random.default_rng(5)
        ua, ub = random_states(rng, 10_000), random_states(rng, 10_000)
        f = ec_flux(ua, ub)
        jump_w = ph.entropy_variables(ub, GAS) - ph.entropy_variables(ua, GAS)
        jump_psi = ph.entropy_potential(ub, GAS) - ph.entropy_potential(ua, GAS)
        res = np.einsum("c...,dc...->d...", jump_w, f) - jump_psi
        scale = np.abs(ph.advective_flux(ua, GAS)).max()
        assert np.abs(res).max() / scale < 1e-11

    def test_registry_battery_symmetry_consistency(self):
        rng = np.random.default_rng(6)
        ua, ub = random_states(rng, 10_000), random_states(rng, 10_000)
        scale = np.abs(ph.advective_flux(ua, GAS)).max()
        for name, flux in sorted(fl.VOLUME_FLUXES.items()):
            triple = lambda a, b: cartesian_triple(flux, a, b, GAS)
            assert np.abs(triple(ua, ub) - triple(ub, ua)).max() / scale < 1e-12
            assert np.abs(triple(ua, ua) - ph.advective_flux(ua, GAS)).max() / scale < 1e-12

    def test_unknown_name_rejected_with_options(self):
        with pytest.raises(ValueError, match="central"):
            fl.get_volume_flux("roe")


def kg_momentum_term(u_left, u_right):
    """<rho><v1><v2> two-point product of the cubic-split x-momentum term."""
    rho_l, rho_r = u_left[0], u_right[0]
    v1 = 0.5 * (u_left[1] / rho_l + u_right[1] / rho_r)
    v2 = 0.5 * (u_left[2] / rho_l + u_right[2] / rho_r)
    return 0.5 * (rho_l + rho_r) * v1 * v2


class TestKGMomentumTerm:
    def test_consistency(self):
        u = ph.conservative_from_primitive(np.asarray(1.3), np.array([0.5, -0.2, 0.1]),
                                           np.asarray(0.9), GAS)
        assert kg_momentum_term(u, u) == pytest.approx(1.3 * 0.5 * (-0.2), rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        ua, ub = random_states(rng, 500), random_states(rng, 500)
        assert np.abs(kg_momentum_term(ua, ub) - kg_momentum_term(ub, ua)).max() < 1e-14

    def test_flux_differencing_reproduces_cubic_split_form(self):
        # On a 1D LGL grid with polynomial data, 2 sum_m D_im <rho><v1><v2>
        # equals one quarter of the seven-term cubic split form, each term
        # differentiated spectrally.
        n = 7
        b = sp.build_basis(n)
        rng = np.random.default_rng(8)
        rho = 1.5 + np.polynomial.polynomial.polyval(b.nodes, 0.3 * rng.normal(size=4))
        v1 = np.polynomial.polynomial.polyval(b.nodes, 0.5 * rng.normal(size=4))
        v2 = np.polynomial.polynomial.polyval(b.nodes, 0.5 * rng.normal(size=4))
        u = ph.conservative_from_primitive(rho, np.stack([v1, v2, np.zeros(n + 1)]),
                                           np.ones(n + 1), GAS)
        two_point = 2.0 * np.einsum(
            "im,im->i", b.D, kg_momentum_term(u[:, :, None], u[:, None, :]))
        d = lambda f: b.D @ f
        seven = (d(rho * v1 * v2) + rho * d(v1 * v2) + v1 * d(rho * v2) + v2 * d(rho * v1)
                 + v1 * v2 * d(rho) + rho * v2 * d(v1) + rho * v1 * d(v2))
        assert np.abs(two_point - 0.25 * seven).max() < 1e-11


def state_from_mach(rho, mach, p):
    c = np.sqrt(GAS.gamma * p / rho)
    return ph.conservative_from_primitive(np.asarray(rho), c * np.array(mach), np.asarray(p), GAS)


# Density and pressure over a factor 400, Mach number up to 2 sqrt(3): at
# hypersonic speeds p = (gamma-1)(rho E - rho |v|^2/2) itself loses digits.
positive = st.floats(0.05, 20.0)
mach = st.floats(-2.0, 2.0)
states = st.builds(state_from_mach, positive, st.tuples(mach, mach, mach), positive)
directions = (st.tuples(*[st.floats(-1.0, 1.0)] * 3)
              .filter(lambda n: np.linalg.norm(n) > 0.1)
              .map(lambda n: np.asarray(n) / np.linalg.norm(n)))


def directional(name, u_left, u_right, n):
    flux = fl.VOLUME_FLUXES[name]
    return flux.evaluate(flux.prepare(u_left, GAS), flux.prepare(u_right, GAS), n, GAS)


@pytest.mark.parametrize("name", sorted(fl.VOLUME_FLUXES))
class TestDirectionalContract:
    """F#(u_L, u_R) . n from ``evaluate`` on random positive states and unit directions."""

    @settings(deadline=None)
    @given(ua=states, ub=states, n=directions)
    def test_symmetry(self, name, ua, ub, n):
        assert np.array_equal(directional(name, ua, ub, n), directional(name, ub, ua, n))

    @settings(deadline=None)
    @given(u=states, n=directions)
    def test_consistency(self, name, u, n):
        f = ph.advective_flux(u, GAS)
        assert np.abs(directional(name, u, u, n) - n @ f).max() <= 1e-13 * np.abs(f).max()

    @settings(deadline=None)
    @given(ua=states, ub=states, n=directions)
    def test_linear_in_direction(self, name, ua, ub, n):
        triple = cartesian_triple(fl.VOLUME_FLUXES[name], ua, ub, GAS)
        assert np.abs(directional(name, ua, ub, n) - n @ triple).max() <= 1e-13 * np.abs(triple).max()


# Volume pairs: (K, pairs, n, n) gathers with their own (3, ...) directions.
# Faces: states and directions that only broadcast to the (nf, n, n) grid.
OUT_SHAPES = {
    "pairs": ((4, 10, 5, 5), (4, 10, 5, 5), (3, 4, 10, 5, 5)),
    "faces": ((6, 1, 4), (6, 4, 1), (3, 1, 4, 4)),
}


@pytest.mark.parametrize("layout", sorted(OUT_SHAPES))
@pytest.mark.parametrize("name", sorted(fl.VOLUME_FLUXES))
def test_evaluate_into_out_is_bitwise_equal(name, layout):
    rng = np.random.default_rng(12)
    left_shape, right_shape, direction_shape = OUT_SHAPES[layout]
    flux = fl.VOLUME_FLUXES[name]
    states = [random_states(rng, int(np.prod(s))).reshape((5,) + s) for s in (left_shape, right_shape)]
    left, right = (flux.prepare(u, GAS) for u in states)
    direction = rng.uniform(-1.0, 1.0, direction_shape)
    inputs = [a.copy() for a in (*left, *right, direction)]
    expected = flux.evaluate(left, right, direction, GAS)
    out = np.full(expected.shape, np.nan)
    assert flux.evaluate(left, right, direction, GAS, out=out) is out
    assert np.array_equal(out, expected)
    # The inputs are read, never written.
    assert all(np.array_equal(a, b) for a, b in zip(inputs, (*left, *right, direction)))


@settings(deadline=None)
@given(ua=states, ub=states, n=directions)
def test_directional_tadmor_condition(ua, ub, n):
    # jump(w)^T F#.n = n . jump(psi) for the entropy-conservative flux
    wa, wb = ph.entropy_variables(ua, GAS), ph.entropy_variables(ub, GAS)
    psi_a, psi_b = n @ ph.entropy_potential(ua, GAS), n @ ph.entropy_potential(ub, GAS)
    f = directional("ec", ua, ub, n)
    res = (wb - wa) @ f - (psi_b - psi_a)
    scale = (np.abs(wa) + np.abs(wb)) @ np.abs(f) + abs(psi_a) + abs(psi_b)
    assert abs(res) <= 1e-12 * scale


class TestSurfaceFlux:
    def test_no_jump_recovers_normal_flux(self):
        rng = np.random.default_rng(9)
        u = random_states(rng, 100)
        n = rng.normal(size=(3, 100))
        n /= np.sqrt(np.sum(n * n, axis=0))
        for mode in ("none", "llf"):
            fstar = fl.surface_flux_advective(u, u, n, GAS, mode)
            fn = np.einsum("d...,dc...->c...", n, ph.advective_flux(u, GAS))
            assert np.abs(fstar - fn).max() < 1e-13

    def test_llf_dissipation_sign(self):
        rng = np.random.default_rng(10)
        ua, ub = random_states(rng, 5000), random_states(rng, 5000)
        n = rng.normal(size=(3, 5000))
        n /= np.sqrt(np.sum(n * n, axis=0))
        diss = (fl.surface_flux_advective(ua, ub, n, GAS, "llf")
                - fl.surface_flux_advective(ua, ub, n, GAS, "none"))
        jump_w = ph.entropy_variables(ub, GAS) - ph.entropy_variables(ua, GAS)
        contraction = np.einsum("c...,c...->...", jump_w, diss)
        assert contraction.max() <= 1e-12

    def test_none_is_ec_dot_n(self):
        rng = np.random.default_rng(11)
        ua, ub = random_states(rng, 100), random_states(rng, 100)
        n = rng.normal(size=(3, 100))
        n /= np.sqrt(np.sum(n * n, axis=0))
        fstar = fl.surface_flux_advective(ua, ub, n, GAS, "none")
        ec = fl.VOLUME_FLUXES["ec"]
        ref = ec.evaluate(ec.prepare(ua, GAS), ec.prepare(ub, GAS), n, GAS)
        assert np.abs(fstar - ref).max() == 0.0

    def test_llf_is_ec_flux_minus_half_lambda_jump_w(self):
        rng = np.random.default_rng(13)
        ua, ub = random_states(rng, 200), random_states(rng, 200)
        n = rng.normal(size=(3, 200))
        n /= np.sqrt(np.sum(n * n, axis=0))
        ec = fl.VOLUME_FLUXES["ec"]
        lam = ph.max_wave_speed(ph.primitive_from_conservative(ua, GAS),
                                ph.primitive_from_conservative(ub, GAS), n, GAS)
        ref = (ec.evaluate(ec.prepare(ua, GAS), ec.prepare(ub, GAS), n, GAS)
               - 0.5 * lam * (ph.entropy_variables(ub, GAS) - ph.entropy_variables(ua, GAS)))
        assert np.array_equal(fl.surface_flux_advective(ua, ub, n, GAS, "llf"), ref)

    @pytest.mark.parametrize("mode", fl.DISSIPATION_MODES)
    def test_work_buffer_is_bitwise_the_allocating_call(self, mode):
        # With ``work`` the states become primitives in place.
        rng = np.random.default_rng(15)
        ua, ub = random_states(rng, 200), random_states(rng, 200)
        n = rng.normal(size=(3, 200))
        n /= np.sqrt(np.sum(n * n, axis=0))
        ref = fl.surface_flux_advective(ua, ub, n, GAS, mode)
        la, lb, work = ua.copy(), ub.copy(), np.full(2 * ua.size, np.nan)
        fstar = fl.surface_flux_advective(la, lb, n, GAS, mode, work)
        assert np.array_equal(fstar, ref) and np.shares_memory(fstar, work)
        assert np.array_equal(la[0], ua[0]) and not np.array_equal(la[1:], ua[1:])

    def test_unknown_mode_rejected(self):
        u = random_states(np.random.default_rng(12), 4)
        with pytest.raises(ValueError, match="llf"):
            fl.surface_flux_advective(u, u, np.array([1.0, 0, 0])[:, None], GAS, "roe")


class TestBR1Interface:
    def test_jump_product_identity(self):
        rng = np.random.default_rng(14)
        a_l, a_r = rng.normal(size=(2, 5, 300))
        b_l, b_r = rng.normal(size=(2, 5, 300))
        lhs = (np.einsum("c...,c...->...", 0.5 * (a_l + a_r), b_r - b_l)
               + np.einsum("c...,c...->...", a_r - a_l, 0.5 * (b_l + b_r)))
        rhs = np.einsum("c...,c...->...", a_r, b_r) - np.einsum("c...,c...->...", a_l, b_l)
        assert np.abs(lhs - rhs).max() < 1e-12
