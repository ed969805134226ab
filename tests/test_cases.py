"""Error norms against the whole-mesh formula they replace."""

import numpy as np

from splitdg import cases, geometry, mesh as mesh_mod, physics, solver, spectral


def dense_error_norms(dg, u, case, gas, t, extra_degree=8):
    """All elements at once, refined with one four-operand einsum."""
    fine = spectral.build_basis(2 * dg.basis.n + extra_degree)
    p = spectral.interpolation_matrix(dg.basis, fine.nodes)

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
    u = cases.initial_condition(case, dg, gas, t=0.01)
    for t in (0.0, 0.01):
        l2, linf = cases.error_norms(dg, u, case, gas, t)
        ref_l2, ref_linf = dense_error_norms(dg, u, case, gas, t)
        assert np.abs(l2 - ref_l2).max() <= 1e-12 * np.abs(ref_l2).max()
        assert np.abs(linf - ref_linf).max() <= 1e-12 * np.abs(ref_linf).max()
