"""Error norms against the whole-mesh formula they replace; the manufactured
source against its per-row formula and against central differences."""

import numpy as np
import pytest

from splitdg import cases, geometry, mesh as mesh_mod, physics, solver, spectral


def dense_error_norms(dg, u, case, gas, t):
    """All elements at once, refined with one four-operand einsum."""
    fine = spectral.build_basis(2 * dg.basis.n + 8)
    p = spectral.lagrange_values(dg.basis, fine.nodes)

    def refine(a):
        return np.einsum("ai,bj,ck,...ijk->...abc", p, p, p, a)

    x_fine = refine(dg.x)
    jac = geometry.jacobian(spectral.tensor_gradient(fine, x_fine))
    diff = refine(u) - case.state(x_fine, t, gas)
    w = fine.weights
    l2 = np.sqrt(np.einsum("cKijk,cKijk,Kijk,i,j,k->c", diff, diff, jac, w, w, w))
    return l2, np.abs(diff).reshape(5, -1).max(axis=1)


def test_error_norms_match_whole_mesh_formula():
    gas = physics.GasModel()
    mesh = mesh_mod.warped_box_mesh(3, (2, 2, 2), amplitude=0.05)
    dg = solver.DGSolver(mesh, gas, "ec", "llf")
    case = cases.DensityWave()
    u = case.state(dg.x, 0.01, gas)
    for t in (0.0, 0.01):
        l2, linf = cases.error_norms(dg, u, case, gas, t)
        ref_l2, ref_linf = dense_error_norms(dg, u, case, gas, t)
        assert np.abs(l2 - ref_l2).max() <= 1e-12 * np.abs(ref_l2).max()
        assert np.abs(linf - ref_linf).max() <= 1e-12 * np.abs(ref_linf).max()


def per_row_source(case, x, t, gas):
    """The manufactured source row by row: d/dt = -ds and d/dx_d = ds per field."""
    ds = 2.0 * np.pi * case.amplitude * np.cos(2.0 * np.pi * (x[0] + x[1] + x[2] - t))
    dt = -ds
    v = case.velocity
    vs, vsq = float(np.sum(v)), float(np.sum(v * v))
    src = np.empty((5,) + x.shape[1:])
    src[0] = dt + vs * ds
    for d in range(3):
        src[1 + d] = v[d] * (dt + vs * ds) + ds
    e_factor = 1.0 / (gas.gamma - 1.0) + 0.5 * vsq
    src[4] = e_factor * dt + vs * (e_factor + 1.0) * ds
    return src


MANUFACTURED = ({}, {"amplitude": 0.3, "velocity": (-0.5, 1.1, 0.25)})


@pytest.mark.parametrize("params", MANUFACTURED)
def test_manufactured_source_matches_per_row_formula(params):
    gas = physics.GasModel()
    case = cases.ManufacturedWave(**params)
    x = np.random.default_rng(4).uniform(-1.0, 2.0, (3, 7, 5, 5))
    for t in (0.0, 0.37):
        ref = per_row_source(case, x, t, gas)
        got = case.source(x, t, gas)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("params", MANUFACTURED)
def test_manufactured_source_matches_central_differences(params):
    """d u/dt + sum_d d f_d(u)/dx_d of the exact state, by central differences in t and x."""
    gas = physics.GasModel()
    case = cases.ManufacturedWave(**params)
    x = np.random.default_rng(5).uniform(-1.0, 2.0, (3, 200))
    t, h = 0.21, 1e-5
    fd = (case.state(x, t + h, gas) - case.state(x, t - h, gas)) / (2 * h)
    for d in range(3):
        step = h * np.eye(3)[d][:, None]
        fd += (physics.advective_flux(case.state(x + step, t, gas), gas)[d]
               - physics.advective_flux(case.state(x - step, t, gas), gas)[d]) / (2 * h)
    src = case.source(x, t, gas)
    assert np.abs(src - fd).max() <= 1e-7 * np.abs(src).max()
