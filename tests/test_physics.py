import numpy as np
import pytest

from splitdg import physics as ph
from splitdg import spectral as sp

GAS = ph.GasModel()


def random_states(rng, count, lo=0.2, hi=2.0, vmax=2.0):
    return ph.conservative_from_primitive(
        rng.uniform(lo, hi, count), rng.uniform(-vmax, vmax, (3, count)),
        rng.uniform(lo, hi, count), GAS)


def conservative_from_entropy(w, gas):
    """Invert entropy variables back to the conservative state."""
    w = np.asarray(w, dtype=float)
    if not np.all(w[4] < 0.0):
        raise ph.PositivityError("entropy variables require w[4] < 0")
    v = w[1:4] / (-w[4])
    rho_over_p = -w[4]
    # w0 = (gamma - sigma)/(gamma-1) - rho|v|^2/(2p)  =>  solve for sigma.
    sigma = gas.gamma - (gas.gamma - 1.0) * (w[0] + 0.5 * rho_over_p * np.sum(v * v, axis=0))
    # sigma = ln p - gamma ln rho and p = rho / rho_over_p:
    # sigma = (1 - gamma) ln rho - ln(rho_over_p)  =>  ln rho.
    log_rho = (sigma + np.log(rho_over_p)) / (1.0 - gas.gamma)
    rho = np.exp(log_rho)
    return ph.conservative_from_primitive(rho, v, rho / rho_over_p, gas)


def temperature(u, gas):
    rho, _, p = ph.primitive_from_conservative(u, gas)
    return gas.gamma * gas.mach**2 * p / rho


def make_state(rho, v, p, gas=GAS):
    return ph.conservative_from_primitive(np.asarray(float(rho)), np.asarray(v, dtype=float),
                                          np.asarray(float(p)), gas)


class TestGasModel:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ph.GasModel(gamma=1.0)
        with pytest.raises(ValueError):
            ph.GasModel(reynolds=-5.0)
        with pytest.raises(ValueError):
            ph.GasModel(prandtl=0.0)

    def test_heat_conduction_coefficient(self):
        gas = ph.GasModel(gamma=1.4, mach=2.0, prandtl=0.5, mu=0.25)
        assert gas.heat_conduction == pytest.approx(0.25 / (0.4 * 0.5 * 4.0), rel=1e-14)

    def test_viscous_flag(self):
        assert not GAS.viscous
        assert ph.GasModel(reynolds=10.0).viscous

    def test_keyword_and_positional_construction_and_defaults(self):
        gas = ph.GasModel(1.3, 0.5, 0.7, 20.0, 0.9)
        assert (gas.gamma, gas.mach, gas.prandtl, gas.reynolds, gas.mu) == (1.3, 0.5, 0.7, 20.0, 0.9)
        assert (GAS.gamma, GAS.mach, GAS.prandtl, GAS.reynolds, GAS.mu) == (1.4, 1.0, 0.72, None, 1.0)
        with pytest.raises(ValueError, match="mach must be finite, got nan"):
            ph.GasModel(mach=float("nan"))
        with pytest.raises(TypeError, match="unexpected keyword argument 'viscosity'"):
            ph.GasModel(viscosity=1.0)

    def test_is_immutable(self):
        gas = ph.GasModel(reynolds=10.0)
        for name, value in (("reynolds", None), ("gamma", 1.2), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(gas, name, value)
        with pytest.raises(AttributeError):
            del gas.mu
        assert gas.reynolds == 10.0 and gas.gamma == 1.4 and gas.mu == 1.0 and not hasattr(gas, "extra")


class TestConversions:
    def test_rest_state_energy(self):
        u = make_state(1.0, (0.0, 0.0, 0.0), 1.0)
        assert u[4] == pytest.approx(2.5, rel=1e-14)  # p/((gamma-1) rho) = 2.5

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        u = random_states(rng, 1000)
        rho, v, p = ph.primitive_from_conservative(u, GAS)
        u2 = ph.conservative_from_primitive(rho, v, p, GAS)
        assert np.abs(u2 - u).max() < 1e-14

    def test_in_place_is_bitwise_the_allocating_call(self):
        u = random_states(np.random.default_rng(1), 1000)
        ref = ph.primitive_from_conservative(u, GAS)
        work = u.copy()
        rho, v, p = ph.primitive_from_conservative(work, GAS, out=work)
        assert np.shares_memory(v, work[1:4]) and np.shares_memory(p, work[4])
        for got, want in zip((rho, v, p), ref):
            assert np.array_equal(got, want)

    def test_zero_internal_energy_rejected(self):
        u = make_state(1.0, (2.0, 0.0, 0.0), 1.0)
        u[4] = 0.5 * u[1] ** 2 / u[0]  # p = 0 exactly
        with pytest.raises(ph.PositivityError):
            ph.primitive_from_conservative(u, GAS)

    def test_negative_density_rejected_with_location(self):
        u = np.tile(make_state(1.0, (0.0, 0.0, 0.0), 1.0)[:, None], (1, 4))
        u[0, 2] = -1.0
        with pytest.raises(ph.PositivityError, match=r"density.* at index \(2,\)"):
            ph.primitive_from_conservative(u, GAS)


class TestAdvectiveFlux:
    def test_rest_state_pressure_only(self):
        u = make_state(1.0, (0.0, 0.0, 0.0), 1.0)
        f = ph.advective_flux(u, GAS)
        assert np.allclose(f[0], [0, 1, 0, 0, 0], atol=1e-15)
        assert np.allclose(f[1], [0, 0, 1, 0, 0], atol=1e-15)
        assert np.allclose(f[2], [0, 0, 0, 1, 0], atol=1e-15)

    def test_unit_velocity_by_hand(self):
        # H = E + p/rho with E = e + |v|^2/2 = 2.5 + 0.5, so rho v1 H = 4
        u = make_state(1.0, (1.0, 0.0, 0.0), 1.0)
        f = ph.advective_flux(u, GAS)
        assert np.allclose(f[0], [1.0, 2.0, 0.0, 0.0, 4.0], atol=1e-14)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(1)
        u = random_states(rng, 64)
        mirrored = u.copy()
        mirrored[1:4] *= -1.0
        f = ph.advective_flux(u, GAS)
        g = ph.advective_flux(mirrored, GAS)
        # odd components of f1 flip, even components persist
        assert np.allclose(g[0, 0], -f[0, 0], atol=1e-13)
        assert np.allclose(g[0, 1], f[0, 1], atol=1e-13)
        assert np.allclose(g[0, 4], -f[0, 4], atol=1e-13)


class TestEntropyPair:
    def test_zero_at_unit_state(self):
        assert ph.entropy(make_state(1.0, (0, 0, 0), 1.0), GAS) == pytest.approx(0.0, abs=1e-14)

    def test_log_pressure_state(self):
        # sigma = ln e = 1, s = -1/0.4 = -2.5
        u = make_state(1.0, (0, 0, 0), np.e)
        assert ph.entropy(u, GAS) == pytest.approx(-2.5, rel=1e-14)

    def test_isentropic_family(self):
        for rho in (0.5, 1.0, 2.3):
            u = make_state(rho, (0.4, -0.1, 0.2), rho**GAS.gamma)
            assert abs(ph.entropy(u, GAS) - 0.0) < 1e-13

    def test_entropy_flux(self):
        u = make_state(1.0, (0, 0, 0), 1.0)
        assert np.allclose(ph.entropy_flux(u, GAS), 0.0, atol=1e-15)
        u = make_state(1.0, (2.0, 0, 0), 1.0)
        assert np.allclose(ph.entropy_flux(u, GAS), 0.0, atol=1e-14)  # s = 0
        u = make_state(1.0, (1.0, 1.0, 1.0), np.e)
        assert np.allclose(ph.entropy_flux(u, GAS), [-2.5, -2.5, -2.5], atol=1e-13)


class TestEntropyVariables:
    def test_unit_rest_state(self):
        w = ph.entropy_variables(make_state(1.0, (0, 0, 0), 1.0), GAS)
        assert np.allclose(w, [3.5, 0, 0, 0, -1.0], atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        u = random_states(rng, 500)
        w = ph.entropy_variables(u, GAS)
        assert (w[4] < 0).all()
        u2 = conservative_from_entropy(w, GAS)
        assert np.abs(u2 - u).max() < 1e-12

    def test_inverse_rejects_positive_w5(self):
        w = np.array([3.5, 0.0, 0.0, 0.0, 0.1])
        with pytest.raises(ph.PositivityError):
            conservative_from_entropy(w, GAS)

    def test_gradient_property_by_finite_differences(self):
        # w^T du approximates ds to second order in the perturbation
        rng = np.random.default_rng(3)
        u = random_states(rng, 20)
        w = ph.entropy_variables(u, GAS)
        direction = rng.normal(size=u.shape)
        errs = []
        for eps in (1e-3, 5e-4):
            du = eps * direction
            ds = ph.entropy(u + du, GAS) - ph.entropy(u, GAS)
            lin = np.einsum("c...,c...->...", w, du)
            errs.append(np.abs(ds - lin).max())
        assert errs[1] < 0.3 * errs[0]  # ~quadratic: factor 4 expected

    def test_viscous_rows_are_bitwise_rows_1_to_4(self):
        rng = np.random.default_rng(5)
        u = random_states(rng, 300).reshape(5, 3, 10, 10)
        prim = ph.primitive_from_conservative(u, GAS)
        w = ph.viscous_entropy_variables(*prim)
        assert w.shape == (4, 3, 10, 10)
        assert np.array_equal(w, ph.entropy_variables(u, GAS)[1:])
        out = np.full(w.shape, np.nan)
        assert ph.viscous_entropy_variables(*prim, out=out) is out and np.array_equal(out, w)

    def test_entropy_potential_is_momentum(self):
        rng = np.random.default_rng(4)
        u = random_states(rng, 300)
        psi = ph.entropy_potential(u, GAS)
        assert np.abs(psi - u[1:4]).max() < 1e-12


class TestViscousFlux:
    def test_zero_gradients(self):
        u = make_state(1.0, (0.3, 0.1, -0.2), 1.4)
        f = ph.viscous_flux(u, np.zeros((3, 3)), np.zeros(3), ph.GasModel(reynolds=50.0))
        assert np.abs(f).max() == 0.0

    def test_stress_trace_vanishes(self):
        rng = np.random.default_rng(5)
        gas = ph.GasModel(reynolds=10.0, mu=0.7)
        u = make_state(1.0, (0.1, 0.2, 0.3), 1.0)
        grad_v = rng.normal(size=(3, 3))
        f = ph.viscous_flux(u, grad_v, np.zeros(3), gas)
        trace = f[0, 1] + f[1, 2] + f[2, 3]  # tau_11 + tau_22 + tau_33
        assert abs(trace) < 1e-14

    def test_pure_shear(self):
        gas = ph.GasModel(reynolds=10.0, mu=1.0)
        u = make_state(1.0, (0.0, 0.0, 0.0), 1.0)
        grad_v = np.zeros((3, 3))
        grad_v[1, 0] = 1.0  # d v1 / d y
        f = ph.viscous_flux(u, grad_v, np.zeros(3), gas)
        assert f[1, 1] == pytest.approx(1.0, abs=1e-15)  # tau_21 in f2, x-momentum row
        assert f[0, 2] == pytest.approx(1.0, abs=1e-15)  # tau_12 in f1, y-momentum row

    def test_mass_row_zero(self):
        rng = np.random.default_rng(6)
        gas = ph.GasModel(reynolds=10.0)
        u = make_state(1.1, (0.1, -0.4, 0.2), 0.9)
        f = ph.viscous_flux(u, rng.normal(size=(3, 3)), rng.normal(size=3), gas)
        assert np.abs(f[:, 0]).max() == 0.0

    def test_dissipation_quadratic_form_nonnegative(self):
        # contraction of f^v(q) with the entropy-variable gradients q is the
        # viscous entropy production: it must be non-negative for any state
        # and any gradient block
        rng = np.random.default_rng(7)
        gas = ph.GasModel(reynolds=10.0, mu=0.3, prandtl=0.9, mach=1.7)
        u = random_states(rng, 400)
        q = rng.normal(size=(3, 5, 400))
        f = ph.viscous_flux_from_entropy_gradients(u, q, gas)
        quad = np.einsum("dc...,dc...->...", f, q)
        assert quad.min() > -1e-12

    def test_gradients_from_entropy_gradients_linearity(self):
        rng = np.random.default_rng(8)
        gas = ph.GasModel(reynolds=10.0)
        u = random_states(rng, 30)
        q1 = rng.normal(size=(3, 5, 30))
        q2 = rng.normal(size=(3, 5, 30))
        gv1, gt1 = ph.gradients_from_entropy_gradients(u, q1, gas)
        gv2, gt2 = ph.gradients_from_entropy_gradients(u, q2, gas)
        gv, gt = ph.gradients_from_entropy_gradients(u, q1 + q2, gas)
        assert np.abs(gv - (gv1 + gv2)).max() < 1e-12
        assert np.abs(gt - (gt1 + gt2)).max() < 1e-12

    def test_entropy_gradient_conversion_against_chain_rule(self):
        # build w(x) along a 1D ray through state space, differentiate
        # numerically, and compare the converted velocity/temperature
        # gradients with direct finite differences of v and T
        gas = ph.GasModel(reynolds=10.0, mach=1.3)
        eps = 1e-6
        base = make_state(1.2, (0.3, -0.2, 0.5), 0.8, gas)
        delta = np.array([0.05, 0.02, -0.03, 0.01, 0.04])
        up = base + eps * delta
        um = base - eps * delta
        dw = (ph.entropy_variables(up, gas) - ph.entropy_variables(um, gas)) / (2 * eps)
        q = np.zeros((3, 5) + base.shape[1:])
        q[0] = dw  # pretend the ray is the x-direction
        gv, gt = ph.gradients_from_entropy_gradients(base, q, gas)
        rho_p, v_p, p_p = ph.primitive_from_conservative(up, gas)
        rho_m, v_m, p_m = ph.primitive_from_conservative(um, gas)
        dv = (v_p - v_m) / (2 * eps)
        dt = (temperature(up, gas) - temperature(um, gas)) / (2 * eps)
        assert np.abs(gv[0] - dv).max() < 1e-6
        assert np.abs(gt[0] - dt).max() < 1e-6


def loop_viscous_flux(u, grad_v, grad_t, gas):
    """Reference: the viscous stress and energy flux one component at a time."""
    v = u[1:4] / u[0]
    div_v = (grad_v[0, 0] + grad_v[1, 1] + grad_v[2, 2]) * ((2.0 / 3.0) * gas.mu)
    f = np.zeros((3, 5) + u.shape[1:])
    for i in range(3):
        for j in range(3):
            f[i, 1 + j] = (grad_v[i, j] + grad_v[j, i]) * gas.mu
        f[i, 1 + i] -= div_v
    for d in range(3):
        f[d, 4] = np.einsum("m...,m...->...", v, f[d, 1:4]) + gas.heat_conduction * grad_t[d]
    return f


def loop_velocity_gradients(u, q, gas):
    """Reference: d v_m / d x_d = (q[d, 1+m] + v_m q[d, 4]) p / rho, one (d, m) at a time."""
    v = u[1:4] / u[0]
    kinetic = v[0] * v[0]
    kinetic += v[1] * v[1]
    kinetic += v[2] * v[2]
    p_over_rho = (u[4] - kinetic * (0.5 * u[0])) * (gas.gamma - 1.0) / u[0]
    grad_v = np.empty((3, 3) + u.shape[1:])
    for d in range(3):
        for m in range(3):
            grad_v[d, m] = (v[m] * q[d, 4] + q[d, 1 + m]) * p_over_rho
    return grad_v


class TestViscousFluxAgainstLoops:
    GAS = ph.GasModel(reynolds=10.0, mu=0.3, prandtl=0.9, mach=1.7)

    def test_viscous_flux_is_bitwise_the_component_loops(self):
        rng = np.random.default_rng(16)
        u = random_states(rng, 300)
        grad_v, grad_t = rng.normal(size=(3, 3, 300)), rng.normal(size=(3, 300))
        ref = loop_viscous_flux(u, grad_v, grad_t, self.GAS)
        assert np.array_equal(ph.viscous_flux(u, grad_v, grad_t, self.GAS), ref)

    def test_velocity_gradients_are_bitwise_the_component_loops(self):
        rng = np.random.default_rng(17)
        u = random_states(rng, 300)
        q = rng.normal(size=(3, 5, 300))
        ref = loop_velocity_gradients(u, q, self.GAS)
        assert np.array_equal(ph.gradients_from_entropy_gradients(u, q, self.GAS)[0], ref)
        # In place, as the solver's block loop calls it.
        work = q.copy()
        assert np.array_equal(ph.gradients_from_entropy_gradients(u, work, self.GAS, work)[0], ref)


class TestWaveSpeed:
    def test_rest_state(self):
        prim = ph.primitive_from_conservative(make_state(1.0, (0, 0, 0), 1.0), GAS)
        lam = ph.max_wave_speed(prim, prim, np.array([1.0, 0.0, 0.0]), GAS)
        assert lam == pytest.approx(np.sqrt(1.4), rel=1e-14)

    def test_moving_state(self):
        prim = ph.primitive_from_conservative(make_state(1.0, (2.0, 0, 0), 1.0), GAS)
        lam = ph.max_wave_speed(prim, prim, np.array([1.0, 0.0, 0.0]), GAS)
        assert lam == pytest.approx(2.0 + np.sqrt(1.4), rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        pa = ph.primitive_from_conservative(random_states(rng, 100), GAS)
        pb = ph.primitive_from_conservative(random_states(rng, 100), GAS)
        n = rng.normal(size=(3, 100))
        n /= np.sqrt(np.sum(n * n, axis=0))
        assert np.allclose(ph.max_wave_speed(pa, pb, n, GAS),
                           ph.max_wave_speed(pb, pa, n, GAS), atol=0)


class TestEntropyContractionConvergence:
    def test_split_divergence_contracts_to_entropy_flux_divergence(self):
        # On a single Cartesian element with a smooth field, contracting the
        # EC flux-differencing divergence with W converges spectrally to the
        # analytic entropy-flux divergence div(s v).
        from splitdg import fluxes, solver

        def smooth_fields(x):
            rho = 1.0 + 0.2 * np.sin(np.pi * x[0]) * np.cos(np.pi * x[1])
            p = 1.0 + 0.2 * np.cos(np.pi * x[2])
            v = np.stack([0.3 + 0.1 * np.sin(np.pi * x[1]),
                          0.2 * np.cos(np.pi * x[0]),
                          -0.1 + 0.1 * np.sin(np.pi * x[2])])
            return rho, v, p

        def analytic_div_fs(x):
            # div(s v) via sympy once, evaluated numerically
            import sympy as sy

            xs = sy.symbols("x0 x1 x2")
            rho = 1 + sy.Rational(1, 5) * sy.sin(sy.pi * xs[0]) * sy.cos(sy.pi * xs[1])
            p = 1 + sy.Rational(1, 5) * sy.cos(sy.pi * xs[2])
            v = [sy.Rational(3, 10) + sy.Rational(1, 10) * sy.sin(sy.pi * xs[1]),
                 sy.Rational(1, 5) * sy.cos(sy.pi * xs[0]),
                 -sy.Rational(1, 10) + sy.Rational(1, 10) * sy.sin(sy.pi * xs[2])]
            gamma = sy.Rational(7, 5)
            s = -rho * (sy.log(p) - gamma * sy.log(rho)) / (gamma - 1)
            div = sum(sy.diff(s * v[d], xs[d]) for d in range(3))
            return sy.lambdify(xs, div, "numpy")(x[0], x[1], x[2])

        errs = []
        for n in (4, 8, 12):
            b = sp.build_basis(n)
            x = np.stack(np.meshgrid(b.nodes, b.nodes, b.nodes, indexing="ij"))
            rho, v, p = smooth_fields(x)
            u = ph.conservative_from_primitive(rho, v, p, GAS)[:, None]
            ja = np.zeros((3, 3, 1) + x.shape[1:])
            for i in range(3):
                ja[i, i] = 1.0
            div = solver.split_divergence(u, ja, b, fluxes.get_volume_flux("ec"), GAS)
            # The split operator 2D - B W^-1 leaves out the end-node terms
            # B_ii / w_i f_a(U_i) of 2D along each axis a; add them back.
            f = ph.advective_flux(u, GAS)
            end = np.diag(b.B) / b.weights
            div = div + sum(f[a] * end.reshape([-1 if d == a else 1 for d in range(3)])
                            for a in range(3))
            w = ph.entropy_variables(u, GAS)
            contracted = np.einsum("cKijk,cKijk->Kijk", w, div)[0]
            errs.append(np.abs(contracted - analytic_div_fs(x)).max())
        # measured: 0.486, 0.041, 0.0011 -- the decay rate itself accelerates
        assert errs[1] < 0.15 * errs[0]
        assert errs[2] < 0.05 * errs[1]
