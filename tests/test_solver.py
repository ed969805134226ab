"""Solver-level invariants on meshes with non-identity face orientations.

Every built-in box mesh links faces with orientation code 0, so the
permutation path of the face pipeline is exercised here with a two-element
periodic chain whose second element is the first one turned about xi; one
quarter turn is x1[..., i, j, k] = x0[..., i, k, r - j].  Both elements
occupy the same physical cell, so matched data must reproduce the
self-periodic single-element residual.  The two xi-links carry orientation
codes (7, 3) for a quarter turn, (4, 4) for a half turn and (3, 7) for three
quarters.
"""

import numpy as np
import pytest

from splitdg import cases, geometry, mesh as mesh_mod, physics, solver

DEGREE = 3
VISCOSITY = (None, 100.0)
XI_LINK_CODES = {1: (7, 3), 2: (4, 4), 3: (3, 7)}


def rotate(a, turns):
    """``turns`` quarter turns about xi of the trailing (i, j, k) axes."""
    for _ in range(turns):
        a = np.flip(np.swapaxes(a, -1, -2), axis=-2)
    return a


def perturbed_wave(x, gas, seed=7):
    """Density wave plus a small seeded perturbation of all primitives."""
    rng = np.random.default_rng(seed)
    rho, v, p = physics.primitive_from_conservative(cases.DensityWave().state(x, 0.0, gas), gas)
    shape = rho.shape
    return physics.conservative_from_primitive(
        rho * (1.0 + 0.05 * rng.uniform(-1, 1, shape)),
        v + 0.05 * rng.uniform(-1, 1, (3,) + shape),
        p * (1.0 + 0.05 * rng.uniform(-1, 1, shape)), gas)


@pytest.fixture(scope="module")
def single():
    return mesh_mod.self_periodic_cube(DEGREE, warp=mesh_mod.sine_warp(0.04))


@pytest.fixture(scope="module", params=sorted(XI_LINK_CODES))
def chain(single, request):
    turns = request.param
    code_01, code_10 = XI_LINK_CODES[turns]
    g0 = single.geoms[0]
    g1 = geometry.ElementGeometry(single.basis, rotate(g0.x, turns))
    links = [
        mesh_mod.FaceLink(0, 1, 1, 0, code_01, False), mesh_mod.FaceLink(1, 1, 0, 0, code_10, True),
        mesh_mod.FaceLink(0, 3, 0, 2, 0, True), mesh_mod.FaceLink(1, 3, 1, 2, 0, True),
        mesh_mod.FaceLink(0, 5, 0, 4, 0, True), mesh_mod.FaceLink(1, 5, 1, 4, 0, True),
    ]
    return turns, mesh_mod.MeshTopology(single.basis, [g0, g1], links)


def test_chain_geometry_matches_across_rotated_links(chain):
    s_gap, n_gap = chain[1].face_mismatch()
    assert s_gap < 1e-12 and n_gap < 1e-12


@pytest.mark.parametrize("reynolds", VISCOSITY)
def test_rotated_chain_reproduces_single_element(single, chain, reynolds):
    turns, mesh = chain
    gas = physics.GasModel(reynolds=reynolds)
    dg1 = solver.DGSolver(single, gas, "ec", "llf")
    dg2 = solver.DGSolver(mesh, gas, "ec", "llf")
    u0 = perturbed_wave(dg1.x, gas)
    u2 = np.concatenate([u0, rotate(u0, turns)], axis=1)
    r1 = dg1.residual(u0, 0.0)
    r2 = dg2.residual(u2, 0.0)
    scale = np.abs(r1).max()
    assert np.abs(r2[:, :1] - r1).max() <= 1e-11 * scale
    assert np.abs(r2[:, 1:] - rotate(r1, turns)).max() <= 1e-11 * scale


@pytest.mark.parametrize("reynolds", VISCOSITY)
def test_rotated_chain_conservation_and_entropy(chain, reynolds):
    turns, mesh = chain
    gas = physics.GasModel(reynolds=reynolds)
    dg = solver.DGSolver(mesh, gas, "ec", "llf")
    u0 = perturbed_wave(mesh.geoms[0].x[:, None], gas)
    u = np.concatenate([u0, rotate(u0, turns)], axis=1)
    rhs = dg.residual(u, 0.0)
    assert np.abs(dg.totals(rhs)).max() <= 1e-12
    assert dg.entropy_rate(u, rhs) <= 1e-12


@pytest.mark.parametrize("reynolds", VISCOSITY)
def test_rotated_chain_free_stream(chain, reynolds):
    gas = physics.GasModel(reynolds=reynolds)
    dg = solver.DGSolver(chain[1], gas, "ec", "llf")
    u = cases.initial_condition(cases.FreeStream(), dg, gas)
    assert np.abs(dg.residual(u, 0.0)).max() <= 1e-11


@pytest.mark.parametrize("reynolds", VISCOSITY)
def test_dirichlet_box_free_stream(reynolds):
    gas = physics.GasModel(reynolds=reynolds)
    mesh = mesh_mod.warped_box_mesh(DEGREE, (2, 2, 2), amplitude=0.05, periodic=False)
    case = cases.FreeStream()
    dg = solver.DGSolver(mesh, gas, "ec", "llf",
                         boundary_states={"dirichlet": lambda x, t: case.state(x, t, gas)})
    u = cases.initial_condition(case, dg, gas)
    assert np.abs(dg.residual(u, 0.0)).max() <= 1e-11


def dense_split_divergence(u, ja, basis, volume_flux, gas):
    """Reference kernel: every (i, m) pair of every line from the Cartesian triple."""
    views = ((lambda a: a[..., :, None, :, :], lambda a: a[..., None, :, :, :]),
             (lambda a: a[..., :, :, None, :], lambda a: a[..., :, None, :, :]),
             (lambda a: a[..., :, :, :, None], lambda a: a[..., :, :, None, :]))
    contract = ("im,cKimjk->cKijk", "jm,cKijmk->cKijk", "km,cKijkm->cKijk")
    dot = ("dcKimjk,dKimjk->cKimjk", "dcKijmk,dKijmk->cKijmk", "dcKijkm,dKijkm->cKijkm")
    out = np.zeros_like(u)
    for axis, (lview, rview) in enumerate(views):
        f = volume_flux(lview(u), rview(u), gas)
        jav = 0.5 * (lview(ja[axis]) + rview(ja[axis]))
        out += 2.0 * np.einsum(contract[axis], basis.D, np.einsum(dot[axis], f, jav))
    return out


def assert_matches_dense(mesh, flux, perturbed):
    gas = physics.GasModel()
    dg = solver.DGSolver(mesh, gas, flux, "llf")
    u = perturbed_wave(dg.x, gas) if perturbed else cases.initial_condition(cases.DensityWave(), dg, gas)
    div = solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas)
    ref = dense_split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas)
    assert np.abs(div - ref).max() <= 5e-12 * np.abs(ref).max()


@pytest.mark.parametrize("flux", ("ec", "central"))
@pytest.mark.parametrize("perturbed", (False, True))
def test_split_divergence_matches_dense_reference_warped(flux, perturbed):
    assert_matches_dense(mesh_mod.warped_box_mesh(DEGREE, (2, 2, 2), amplitude=0.05), flux, perturbed)


@pytest.mark.parametrize("flux", ("ec", "central"))
@pytest.mark.parametrize("perturbed", (False, True))
def test_split_divergence_matches_dense_reference_rotated_chain(chain, flux, perturbed):
    assert_matches_dense(chain[1], flux, perturbed)
