"""Solver-level invariants on meshes with non-identity face orientations.

Every built-in box mesh links faces with orientation code 0, so the
permutation path of the face pipeline is exercised here with a two-element
periodic chain whose second element is the first one turned about xi; one
quarter turn is x1[..., i, j, k] = x0[..., i, k, r - j].  Both elements
occupy the same physical cell, so matched data must reproduce the
self-periodic single-element residual.  The two xi-links carry orientation
codes (7, 3) for a quarter turn, (4, 4) for a half turn and (3, 7) for three
quarters.  A second family of chains turns the second element by proper
rotations that permute the reference axes; their xi/eta links carry the
reflection codes 1, 2, 5 and 6.

The volume kernel runs over element blocks; its output must not depend on
the block size, its memory must not grow with the element count, a warm
call in the solver's workspace must allocate no pair arrays, and its
positivity errors must name global elements.  The viscous path runs over
element blocks too, of at most K // n elements: the Re=100 residual and
the lifted gradients must not depend on the block size, a warm viscous
residual must allocate no whole gradient or flux array, and at N=7 its
workspace must stay near two state sizes.  Every workspace buffer, the
kernel's result and every array the flux writes must start on a 64-byte
cache line, and the padding that this takes must not reach a result.  On
the benchmark's configurations the face phase must fit in the volume
kernel's reservation, the Re=100 workspace within its bound, and a warm RK
step within the state, its register and two stage residuals plus one
residual's fresh arrays.
Last, the paper's robustness claim: on an under-resolved inviscid
Taylor-Green vortex the central volume flux loses positivity, while the
entropy-conservative split form finishes with its entropy budget intact.
"""

import re
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from flux_triple import cartesian_triple
from splitdg import (cases, cli, config, fluxes, geometry, mesh as mesh_mod, physics, runner, solver,
                     spectral, verify)

DEGREE = 3
VISCOSITY = (None, 100.0)
XI_LINK_CODES = {1: (7, 3), 2: (4, 4), 3: (3, 7)}
# The free-stream state rho = p = 1, v = (0.1, 0.2, 0.3): uniform bit for bit,
# as test_zero_amplitude_density_wave_is_uniform_bit_for_bit checks.
FREE_STREAM = cases.DensityWave(amplitude=0.0, velocity=(0.1, 0.2, 0.3))


def traced(fn, *args):
    """``fn(*args)`` under tracemalloc: (result, traced bytes live after the call, traced peak).

    A line tracer set with ``sys.settrace`` (a coverage run, a debugger)
    allocates while the call runs, and tracemalloc would count its bytes
    too, so it is suspended for the call and restored afterwards.
    """
    tracer = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        result = fn(*args)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)
    return result, live, peak


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
    return mesh_mod.warped_box_mesh(DEGREE, (1, 1, 1), amplitude=0.04)


@pytest.fixture(scope="module", params=sorted(XI_LINK_CODES))
def chain(single, request):
    turns = request.param
    code_01, code_10 = XI_LINK_CODES[turns]
    x = np.concatenate([single.x, rotate(single.x, turns)], axis=1)
    links = [
        mesh_mod.FaceLink(0, 1, 1, 0, code_01, False), mesh_mod.FaceLink(1, 1, 0, 0, code_10, True),
        mesh_mod.FaceLink(0, 3, 0, 2, 0, True), mesh_mod.FaceLink(1, 3, 1, 2, 0, True),
        mesh_mod.FaceLink(0, 5, 0, 4, 0, True), mesh_mod.FaceLink(1, 5, 1, 4, 0, True),
    ]
    return turns, mesh_mod.MeshTopology(single.basis, x, links)


# Proper rotations that permute the reference axes: axis m of the second
# element runs along axis AXES[m] of the first, reversed where FLIPS[m].
# Its face at x = 0 is X_MIN_FACE; both x-links carry CODE.
REFLECTIONS = {
    # name: (axes, flips, x_min_face, code)
    "xi->y eta->x zeta->-z": ((1, 0, 2), (False, False, True), 2, 6),
    "xi->-y eta->x zeta->z": ((1, 0, 2), (True, False, False), 2, 2),
    "xi->-x eta->z zeta->y": ((0, 2, 1), (True, False, False), 1, 1),
    "xi->-x eta->-z zeta->-y": ((0, 2, 1), (True, True, True), 1, 5),
}


def reorient(a, axes, flips):
    """First-element data (..., i, j, k) in the second element's index order."""
    lead = a.ndim - 3
    a = a.transpose(tuple(range(lead)) + tuple(lead + m for m in axes))
    for m, flip in enumerate(flips):
        if flip:
            a = np.flip(a, axis=lead + m)
    return a


@pytest.fixture(scope="module", params=sorted(REFLECTIONS))
def reflected_chain(single, request):
    axes, flips, x_min, code = REFLECTIONS[request.param]
    x = np.concatenate([single.x, reorient(single.x, axes, flips)], axis=1)
    # The second element's other two face pairs are self-periodic.
    y_pair, z_pair = (f for f in (0, 2, 4) if f != x_min - x_min % 2)
    links = [
        mesh_mod.FaceLink(0, 1, 1, x_min, code, False),
        mesh_mod.FaceLink(1, x_min ^ 1, 0, 0, code, True),
        mesh_mod.FaceLink(0, 3, 0, 2, 0, True), mesh_mod.FaceLink(0, 5, 0, 4, 0, True),
        mesh_mod.FaceLink(1, y_pair + 1, 1, y_pair, 0, True),
        mesh_mod.FaceLink(1, z_pair + 1, 1, z_pair, 0, True),
    ]
    return (axes, flips), mesh_mod.MeshTopology(single.basis, x, links)


def test_reflected_chain_codes_pass_mesh_audit(reflected_chain, tmp_path, capsys):
    path = tmp_path / "chain.mesh"
    mesh_mod.write_mesh_file(path, reflected_chain[1])
    assert cli.main(["mesh", "audit", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    s_gap = float(re.search(r"# face_s_hat_mismatch: (\S+)", out).group(1))
    n_gap = float(re.search(r"# face_normal_mismatch: (\S+)", out).group(1))
    assert s_gap < 1e-12 and n_gap < 1e-12


@pytest.mark.parametrize("reynolds", VISCOSITY)
def test_reflected_chain_invariants(single, reflected_chain, reynolds):
    (axes, flips), mesh = reflected_chain
    gas = physics.GasModel(reynolds=reynolds)
    dg1 = solver.DGSolver(single, gas, "ec", "llf")
    dg = solver.DGSolver(mesh, gas, "ec", "llf")
    u0 = perturbed_wave(dg1.x, gas)
    u = np.concatenate([u0, reorient(u0, axes, flips)], axis=1)
    rhs = dg.residual(u, 0.0)
    r1 = dg1.residual(u0, 0.0)
    scale = np.abs(r1).max()
    assert np.abs(rhs[:, :1] - r1).max() <= 1e-11 * scale
    assert np.abs(rhs[:, 1:] - reorient(r1, axes, flips)).max() <= 1e-11 * scale
    assert np.abs(dg.totals(rhs)).max() <= 1e-12
    assert dg.entropy_rate(u, rhs) <= 1e-12
    free = cases.initial_condition(FREE_STREAM, dg, gas)
    assert np.abs(dg.residual(free, 0.0)).max() <= 1e-11


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
    u0 = perturbed_wave(mesh.x[:, :1], gas)
    u = np.concatenate([u0, rotate(u0, turns)], axis=1)
    rhs = dg.residual(u, 0.0)
    assert np.abs(dg.totals(rhs)).max() <= 1e-12
    assert dg.entropy_rate(u, rhs) <= 1e-12


@pytest.mark.parametrize("reynolds", VISCOSITY)
def test_rotated_chain_free_stream(chain, reynolds):
    gas = physics.GasModel(reynolds=reynolds)
    dg = solver.DGSolver(chain[1], gas, "ec", "llf")
    u = cases.initial_condition(FREE_STREAM, dg, gas)
    assert np.abs(dg.residual(u, 0.0)).max() <= 1e-11


@pytest.mark.parametrize("reynolds", VISCOSITY)
def test_dirichlet_box_free_stream(reynolds):
    gas = physics.GasModel(reynolds=reynolds)
    mesh = mesh_mod.warped_box_mesh(DEGREE, (2, 2, 2), amplitude=0.05, periodic=False)
    dg = solver.DGSolver(mesh, gas, "ec", "llf", boundary_state=FREE_STREAM.state)
    u = cases.initial_condition(FREE_STREAM, dg, gas)
    assert np.abs(dg.residual(u, 0.0)).max() <= 1e-11


def test_zero_amplitude_density_wave_is_uniform_bit_for_bit():
    gas = physics.GasModel()
    x = mesh_mod.warped_box_mesh(DEGREE, (2, 1, 3), amplitude=0.05).x
    uniform = physics.conservative_from_primitive(
        np.ones(x.shape[1:]), np.multiply.outer([0.1, 0.2, 0.3], np.ones(x.shape[1:])),
        np.ones(x.shape[1:]), gas)
    for t in (0.0, 0.3, 1.7, -2.0):
        u = FREE_STREAM.state(x, t, gas)
        assert u.shape == uniform.shape and u.tobytes() == uniform.tobytes()


def test_unknown_surface_dissipation_is_rejected():
    mesh = mesh_mod.warped_box_mesh(2, (1, 1, 1), amplitude=0.05)
    with pytest.raises(ValueError, match=r"unknown surface dissipation 'roe'; valid options: \['none', 'llf'\]$"):
        solver.DGSolver(mesh, physics.GasModel(), surface_dissipation="roe")


def test_timestep_estimate_rejects_a_non_positive_cfl():
    dg = solver.DGSolver(mesh_mod.warped_box_mesh(2, (1, 1, 1), amplitude=0.05), physics.GasModel())
    u = cases.initial_condition(FREE_STREAM, dg, dg.gas)
    with pytest.raises(ValueError, match="CFL must be positive, got 0.0"):
        dg.timestep_estimate(u, 0.0)


def test_dirichlet_mesh_without_a_boundary_state_is_rejected():
    mesh = mesh_mod.warped_box_mesh(2, (1, 1, 1), amplitude=0.05, periodic=False)
    with pytest.raises(ValueError, match="Dirichlet faces but no boundary state"):
        solver.DGSolver(mesh, physics.GasModel())


# -- the viscous face terms against stacked 15-component traces ----------------

def stacked_trace_residual(mesh, gas, u, boundary_state=None, t=0.0):
    """Reference residual, ec + llf, built from the stacked face traces, and its Q.

    The BR1 lift folds a (3, 5, 6, K, n, n) product of normals and W jumps
    into a zero volume array; the viscous face terms take n . F^v from the
    (3, 4, 6, K, n, n) traces of F^v, gathered at the owner and neighbour
    sides; F^v is formed from w_2..w_5 and their rows of Q, and it adds to
    the momentum and energy rows.  Returns the residual and the lifted
    gradients Q of all five entropy variables, (3, 5, K, n, n, n).
    """
    own, nbr, nl, w0 = mesh.own, mesh.nbr, len(mesh.links), mesh.basis.weights[0]
    n_own, s_own = mesh.normal[own], mesh.s_hat[own]
    nc = lambda n, f: np.einsum("d...,dc...->c...", n, f)
    ghost = np.empty((5, 0) + mesh.s_hat.shape[-2:])
    if boundary_state is not None:
        ghost = boundary_state(geometry.face_stack(mesh.x)[:, mesh.b_face, mesh.b_elem], t, gas)

    def exterior(faces, ghost):
        return np.concatenate([faces[nbr], ghost], axis=-3)

    def to_faces(vals, sign):
        out = np.empty(vals.shape[:-3] + mesh.normal.shape[1:])
        out[own] = vals
        out[nbr] = sign * vals[..., :nl, :, :]
        return out

    def penalty(star, normal_flux=0.0):
        return geometry.fold_faces((to_faces(star * s_own, -1.0) - normal_flux * mesh.s_hat) / w0)

    uf = geometry.face_stack(u)
    fstar = fluxes.surface_flux_advective(uf[own], exterior(uf, ghost), n_own, gas, "llf")
    rhs = -(solver.split_divergence(u, mesh.ja, mesh.basis, fluxes.get_volume_flux("ec"), gas)
            + penalty(fstar))

    w = physics.entropy_variables(u, gas)
    q = np.einsum("ldKijk,lcKijk->dcKijk", mesh.ja, spectral.tensor_gradient(mesh.basis, w))
    wf = geometry.face_stack(w)
    w_ext = exterior(wf, physics.entropy_variables(ghost, gas))
    w_star = 0.5 * (wf[own] + w_ext)
    w_star[..., nl:, :, :] = w_ext[..., nl:, :, :]
    jump = (to_faces(w_star, 1.0) - wf) / w0
    q += geometry.fold_faces(np.einsum("dfKab,cfKab->dcfKab", mesh.normal, jump) * mesh.s_hat)
    q /= mesh.j

    fv = physics.viscous_flux_from_entropy_gradients(w[1:], q[:, 1:], gas)
    fvf = geometry.face_stack(fv)
    fv_own = fvf[own]
    fv_star = 0.5 * (nc(n_own, fv_own) + nc(n_own, exterior(fvf, fv_own[..., nl:, :, :])))
    visc = spectral.tensor_divergence(mesh.basis, np.einsum("ldKijk,dcKijk->lcKijk", mesh.ja, fv))
    rhs[1:] += (visc + penalty(fv_star, nc(mesh.normal, fvf))) / gas.reynolds
    return rhs / mesh.j, q


def assert_matches_stacked_traces(mesh, u, boundary_state=None):
    """The Re=100 residual, and ``lift_gradients`` against the reference's rows of w_2..w_5."""
    gas = physics.GasModel(reynolds=100.0)
    dg = solver.DGSolver(mesh, gas, "ec", "llf", boundary_state=boundary_state)
    ref, q = stacked_trace_residual(mesh, gas, u, boundary_state, 0.1)
    assert np.abs(dg.residual(u, 0.1) - ref).max() <= 1e-14 * np.abs(ref).max()
    lifted = dg.lift_gradients(u, 0.1)
    assert lifted.shape == q[:, 1:].shape
    assert np.abs(lifted - q[:, 1:]).max() <= 1e-14 * np.abs(q[:, 1:]).max()


def test_viscous_faces_match_stacked_traces_rotated_chain(chain):
    turns, mesh = chain
    u0 = perturbed_wave(mesh.x[:, :1], physics.GasModel())
    assert_matches_stacked_traces(mesh, np.concatenate([u0, rotate(u0, turns)], axis=1))


def test_viscous_faces_match_stacked_traces_reflected_chain(reflected_chain):
    (axes, flips), mesh = reflected_chain
    u0 = perturbed_wave(mesh.x[:, :1], physics.GasModel())
    assert_matches_stacked_traces(mesh, np.concatenate([u0, reorient(u0, axes, flips)], axis=1))


def test_viscous_faces_match_stacked_traces_dirichlet_box():
    gas = physics.GasModel()
    mesh = mesh_mod.warped_box_mesh(DEGREE, (2, 2, 2), amplitude=0.05, periodic=False)
    case = cases.DensityWave()
    assert_matches_stacked_traces(mesh, perturbed_wave(mesh.x, gas), case.state)


def test_lifted_gradients_on_one_element_at_n25():
    # W's primitives borrow the jump's last volume-sized row: at n = 26 the
    # four face rows, 24 n^2, hold less than one volume row, n^3.
    gas = physics.GasModel(reynolds=100.0)
    mesh = mesh_mod.warped_box_mesh(25, (1, 1, 1), amplitude=0.05)
    u = perturbed_wave(mesh.x, gas)
    q = stacked_trace_residual(mesh, gas, u)[1][:, 1:]
    dg = solver.DGSolver(mesh, gas)
    assert np.abs(dg.lift_gradients(u) - q).max() <= 1e-14 * np.abs(q).max()
    u[0, 0, 3, 25, 7] = -0.1
    with pytest.raises(physics.PositivityError, match=r"density.* at index \(0, 3, 25, 7\)"):
        dg.lift_gradients(u)


# -- BR1 neutral stability on the solver's own residual -----------------------

@pytest.mark.parametrize("dissipation", fluxes.DISSIPATION_MODES)
def test_br1_viscous_entropy_rate_is_the_dissipation_warped_box(dissipation):
    gas = physics.GasModel(reynolds=100.0)
    mesh = mesh_mod.warped_box_mesh(DEGREE, (2, 2, 2), amplitude=0.05)
    assert verify.br1_dissipation_gap(mesh, gas, perturbed_wave(mesh.x, gas), dissipation) <= 1e-12


@pytest.mark.parametrize("dissipation", fluxes.DISSIPATION_MODES)
def test_br1_viscous_entropy_rate_is_the_dissipation_rotated_chain(chain, dissipation):
    turns, mesh = chain
    gas = physics.GasModel(reynolds=100.0)
    u0 = perturbed_wave(mesh.x[:, :1], gas)
    u = np.concatenate([u0, rotate(u0, turns)], axis=1)
    assert verify.br1_dissipation_gap(mesh, gas, u, dissipation) <= 1e-12


def dense_split_divergence(u, ja, basis, volume_flux, gas):
    """Reference kernel: every (i, m) pair of every line from the Cartesian triple.

    The operator is 2D with the B W^-1 diagonal subtracted: the split
    operator 2D - B W^-1, whose diagonal is zero.
    """
    split = 2.0 * basis.D - np.diag(np.diag(basis.B) / basis.weights)
    views = ((lambda a: a[..., :, None, :, :], lambda a: a[..., None, :, :, :]),
             (lambda a: a[..., :, :, None, :], lambda a: a[..., :, None, :, :]),
             (lambda a: a[..., :, :, :, None], lambda a: a[..., :, :, None, :]))
    contract = ("im,cKimjk->cKijk", "jm,cKijmk->cKijk", "km,cKijkm->cKijk")
    dot = ("dcKimjk,dKimjk->cKimjk", "dcKijmk,dKijmk->cKijmk", "dcKijkm,dKijkm->cKijkm")
    out = np.zeros_like(u)
    for axis, (lview, rview) in enumerate(views):
        f = cartesian_triple(volume_flux, lview(u), rview(u), gas)
        jav = 0.5 * (lview(ja[axis]) + rview(ja[axis]))
        out += np.einsum(contract[axis], split, np.einsum(dot[axis], f, jav))
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


# -- element blocks of the volume kernel ---------------------------------------

BLOCK_MESHES = {
    # N=3: 125 elements, two blocks at the default budget.
    3: lambda: mesh_mod.warped_box_mesh(3, (5, 5, 5), amplitude=0.05),
    # N=7: 18 elements, five blocks at the default budget, the last one short.
    7: lambda: mesh_mod.warped_box_mesh(7, (3, 3, 2), amplitude=0.05),
}


@pytest.mark.parametrize("flux", ("ec", "central"))
@pytest.mark.parametrize("degree", sorted(BLOCK_MESHES))
def test_split_divergence_is_bitwise_independent_of_block_size(monkeypatch, degree, flux):
    gas = physics.GasModel()
    dg = solver.DGSolver(BLOCK_MESHES[degree](), gas, flux, "llf")
    u = perturbed_wave(dg.x, gas)
    n = degree + 1
    element_pairs = n * (n - 1) // 2 * n * n  # one element's (pairs, n, n) array
    results = []
    # Default blocks, one block of all elements, one element per block.
    for budget in (solver.PAIR_BLOCK_BYTES, 1 << 40, 1):
        monkeypatch.setattr(solver, "PAIR_BLOCK_BYTES", budget)
        call_local = solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas)
        in_workspace = solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas, dg._work)
        # The solver's workspace follows the budget: its flux rows hold one block.
        block = min(dg.num_elements, max(1, budget // (8 * element_pairs)))
        assert dg._work.sizes[-1] == physics.NVAR * block * element_pairs
        results.append((call_local, in_workspace, dg.residual(u, 0.0)))
    div, res = results[0][0], results[0][2]
    for call_local, in_workspace, residual in results:
        assert np.array_equal(call_local, div) and np.array_equal(in_workspace, div)
        assert np.array_equal(residual, res)


@pytest.mark.parametrize("flux", ("ec", "central"))
def test_split_divergence_blocks_on_rotated_chain(monkeypatch, chain, flux):
    gas = physics.GasModel()
    dg = solver.DGSolver(chain[1], gas, flux, "llf")
    u = perturbed_wave(dg.x, gas)
    whole = solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas)
    monkeypatch.setattr(solver, "PAIR_BLOCK_BYTES", 1)
    assert np.array_equal(solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas), whole)


@pytest.mark.parametrize("degree", (1, 3, 4, 7))
def test_pair_direction_matmul_is_bitwise_the_gathered_sum(degree):
    """Ja_i + Ja_m of every pair: one matmul of the selection matrix, bitwise two gathers and an add."""
    mesh = mesh_mod.warped_box_mesh(degree, (3, 2, 2), amplitude=0.05)
    left, right, select, _ = mesh.basis.pairs
    n, npairs = degree + 1, len(left)
    # A block of all elements and a short block in the middle of the element axis.
    for block in (slice(0, 12), slice(5, 8)):
        count = block.stop - block.start
        for axis in range(3):
            shape = [3, count, n, n, n]
            shape[axis + 2] = npairs
            direction, a, b = (np.empty(shape) for _ in range(3))
            spectral.apply_along(select, mesh.ja[axis][:, block], axis, direction)
            gathered = (solver._take_rows(mesh.ja[axis], block, left, axis - 3, a)
                        + solver._take_rows(mesh.ja[axis], block, right, axis - 3, b))
            assert direction.tobytes() == gathered.tobytes()


def counting(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that counts its calls in ``calls[name]``."""
    fn = getattr(module, name)
    calls[name] = 0

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_warm_split_divergence_cuts_no_views_and_builds_no_operators(monkeypatch):
    """The basis builds its pair operators on first use, once; the block views are kept in the workspace."""
    gas = physics.GasModel()
    dg = solver.DGSolver(BLOCK_MESHES[7](), gas, "ec", "llf")
    u = perturbed_wave(dg.x, gas)
    # The per-degree basis is shared between tests: drop its operators, so that the first call builds them.
    monkeypatch.delitem(vars(dg.basis), "pairs", raising=False)
    calls = {}
    counting(monkeypatch, spectral, "pair_operators", calls)
    counting(monkeypatch, solver, "_block_layout", calls)
    work = solver.Workspace()
    first = solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas, work)
    # Five blocks of two lengths (four of 4 elements, one of 2), three axes each.
    assert calls == {"pair_operators": 1, "_block_layout": 6}
    second = solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas, work)
    assert calls == {"pair_operators": 1, "_block_layout": 6}
    assert first.tobytes() == second.tobytes()


def test_basis_builds_its_read_only_pair_operators_on_first_use(monkeypatch):
    """A basis that runs no kernel builds no pair operators; one that does gets the same bits."""
    gas, case = physics.GasModel(), cases.DensityWave()
    dg = solver.DGSolver(mesh_mod.warped_box_mesh(7, (1, 1, 1), amplitude=0.05), gas, "ec", "llf")
    cases.error_norms(dg, case.state(dg.x, 0.0, gas), case, gas, 0.0)
    assert "pairs" not in vars(spectral.build_basis(cases.error_grid_degree(7)))  # degree 22
    monkeypatch.delitem(vars(dg.basis), "pairs", raising=False)
    u = perturbed_wave(dg.x, gas)
    lazy = solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas)
    assert "pairs" in vars(dg.basis)
    # Operators built before any kernel runs, as the constructor once built them, give the same bits.
    eager = types.SimpleNamespace(**dict(vars(dg.basis), pairs=spectral.pair_operators(dg.basis.D)))
    assert lazy.tobytes() == solver.split_divergence(u, dg.ja, eager, dg.volume_flux, gas).tobytes()
    for a in dg.basis.pairs:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_warm_viscous_residual_cuts_no_kernel_views(monkeypatch):
    """The viscous path grows the workspace in the first residual, which drops the kernel's views once."""
    gas = physics.GasModel(reynolds=100.0)
    case = cases.ManufacturedWave()
    # ns_n3_dirichlet's mesh: three kernel blocks of two lengths, and a
    # viscous workspace larger than the kernel's.
    mesh = mesh_mod.warped_box_mesh(DEGREE, (6, 6, 6), amplitude=0.05, periodic=False)
    dg = solver.DGSolver(mesh, gas, "ec", "llf", boundary_state=case.state, source=case.source)
    u = case.state(dg.x, 0.0, gas)
    calls, cuts, residuals = {}, [], []
    counting(monkeypatch, solver, "_block_layout", calls)
    for _ in range(3):
        before = calls["_block_layout"]
        residuals.append(dg.residual(u, 0.1))
        cuts.append(calls["_block_layout"] - before)
    assert cuts == [6, 6, 0]
    assert residuals[1].tobytes() == residuals[0].tobytes() == residuals[2].tobytes()


def test_kept_views_follow_growth_and_block_size(monkeypatch):
    """After a growth or a budget change, results equal a fresh workspace's and no view pins a replaced allocation."""
    gas = physics.GasModel()
    flux = fluxes.get_volume_flux("ec")

    def divergence(mesh, work):
        return solver.split_divergence(perturbed_wave(mesh.x, gas), mesh.ja, mesh.basis, flux, gas, work)

    small = mesh_mod.warped_box_mesh(DEGREE, (2, 2, 2), amplitude=0.05)
    large = BLOCK_MESHES[DEGREE]()
    work = solver.Workspace()
    divergence(small, work)
    calls, replaced = {}, []
    counting(monkeypatch, solver, "_block_layout", calls)
    # A larger K, then a smaller budget (the allocation stays) and a larger one (it grows).
    for budget in (solver.PAIR_BLOCK_BYTES, 8 * 1024, 1 << 20):
        monkeypatch.setattr(solver, "PAIR_BLOCK_BYTES", budget)
        flat, owner = weakref.ref(work.flat), weakref.ref(work.flat.base)
        before = calls["_block_layout"]
        result = divergence(large, work)
        cut = calls["_block_layout"] - before
        replaced.append(flat() is None)
        assert owner() is None if replaced[-1] else work.flat is flat()
        assert result.tobytes() == divergence(large, solver.Workspace()).tobytes()
        # Views were cut for the new layout, and a repeat call cuts none.
        before = calls["_block_layout"]
        assert divergence(large, work).tobytes() == result.tobytes()
        assert cut > 0 and calls["_block_layout"] == before
    assert replaced == [True, False, True]


@pytest.fixture(scope="module")
def warped_n7_4():
    return mesh_mod.warped_box_mesh(7, (4, 4, 4), amplitude=0.05)


def test_split_divergence_memory_is_flat_in_elements(warped_n7_4):
    """Peak traced memory beyond the output and the prepared state, 2^3 vs 4^3."""
    gas = physics.GasModel()
    flux = fluxes.get_volume_flux("ec")
    extra = []
    for mesh in (mesh_mod.warped_box_mesh(7, (2, 2, 2), amplitude=0.05), warped_n7_4):
        u = physics.conservative_from_primitive(
            1.0 + 0.2 * mesh.x[0], 0.1 * mesh.x, 1.0 + 0.1 * mesh.x[2], gas)
        peak = traced(solver.split_divergence, u, mesh.ja, mesh.basis, flux, gas)[2]
        extra.append(peak - 2 * u.nbytes)
    assert max(extra) < 4 * 2**20
    assert max(extra) <= 1.25 * min(extra)


@pytest.mark.parametrize("degree, cells", ((7, 4), (4, 6), (3, 6)))
def test_warm_split_divergence_allocates_no_pair_arrays(degree, cells):
    """A warm call in the solver's workspace: traced memory beyond the output and prepared state."""
    gas = physics.GasModel()
    dg = solver.DGSolver(mesh_mod.warped_box_mesh(degree, (cells,) * 3, amplitude=0.05), gas, "ec", "llf")
    u = perturbed_wave(dg.x, gas)
    prepared = sum(a.nbytes for a in dg.volume_flux.prepare(u, gas) if not np.shares_memory(a, u))
    solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas, dg._work)
    peak = traced(solver.split_divergence, u, dg.ja, dg.basis, dg.volume_flux, gas, dg._work)[2]
    # The flux's few scratch arrays of one pair array each, not a block's pair arrays.
    assert peak - u.nbytes - prepared <= 6 * solver.PAIR_BLOCK_BYTES


def test_split_divergence_positivity_error_names_global_element(warped_n7_4):
    gas = physics.GasModel()
    mesh = warped_n7_4
    u = physics.conservative_from_primitive(np.ones_like(mesh.x[0]), 0.1 * mesh.x, 1.0, gas)
    u[0, 63, 3, 4, 2] = -0.1
    with pytest.raises(physics.PositivityError, match=r"density.* at index \(63, 3, 4, 2\)"):
        solver.split_divergence(u, mesh.ja, mesh.basis, fluxes.get_volume_flux("ec"), gas)


# -- element blocks of the viscous path ----------------------------------------

def assert_viscous_path_block_independent(monkeypatch, mesh, u, boundary_state=None):
    """Re=100 residual and lifted gradients: equal at budgets of 1, 3 and all elements.

    Returns the viscous block size of each budget, which the cap of
    ``_br1_faces`` (K // n elements) may lower.
    """
    gas = physics.GasModel(reynolds=100.0)
    dg = solver.DGSolver(mesh, gas, "ec", "llf", boundary_state=boundary_state)
    results, steps = [], []
    for budget in (1, 3 * 8 * dg.n1**3, 1 << 40):
        monkeypatch.setattr(solver, "PAIR_BLOCK_BYTES", budget)
        results.append((dg.residual(u, 0.1), dg.lift_gradients(u, 0.1)))
        steps.append(dg._br1_faces(u, dg._ghost(0.1))[0])
    for residual, q in results[1:]:
        assert np.array_equal(residual, results[0][0]) and np.array_equal(q, results[0][1])
    return steps


def test_viscous_path_is_bitwise_independent_of_block_size_dirichlet_box(monkeypatch):
    gas = physics.GasModel()
    mesh = mesh_mod.warped_box_mesh(DEGREE, (3, 3, 3), amplitude=0.05, periodic=False)
    case = cases.DensityWave()
    steps = assert_viscous_path_block_independent(monkeypatch, mesh, perturbed_wave(mesh.x, gas),
                                                  case.state)
    # One element, three, and the cap of 27 // 4 elements (blocks 6, 6, 6, 6, 3).
    assert steps == [1, 3, 6]


@pytest.mark.parametrize("degree", (2, 4))
def test_block_independence_with_views_padded_to_cache_lines(monkeypatch, degree):
    """At odd n the blocks, face chunks and their views do not fill whole cache lines: padding leaks nowhere."""
    gas = physics.GasModel()
    mesh = mesh_mod.warped_box_mesh(degree, (3, 2, 1), amplitude=0.05, periodic=False)
    u = perturbed_wave(mesh.x, gas)
    steps = assert_viscous_path_block_independent(monkeypatch, mesh, u, cases.DensityWave().state)
    assert steps[0] == 1 and (3 * 4 * (degree + 1) ** 3) % 8 != 0


def test_workspace_buffers_take_whole_cache_lines():
    work = solver.Workspace()
    views = work.reserve(5, 9, 1)
    assert work.sizes == (8, 16, 8) and work.flat.size == sum(work.sizes)
    assert [v.size for v in views] == [5, 9, 1]
    assert [v.ctypes.data - work.flat.ctypes.data for v in views] == [0, 64, 192]
    assert work.flat.ctypes.data % 64 == 0
    # A smaller request reuses the allocation.
    flat = work.flat
    work.reserve(3)
    assert work.flat is flat and work.sizes == (8,)


def test_viscous_path_is_bitwise_independent_of_block_size_rotated_chain(monkeypatch, chain):
    turns, mesh = chain
    u0 = perturbed_wave(mesh.x[:, :1], physics.GasModel())
    u = np.concatenate([u0, rotate(u0, turns)], axis=1)
    assert_viscous_path_block_independent(monkeypatch, mesh, u)


def test_viscous_path_is_bitwise_independent_of_block_size_reflected_chain(monkeypatch,
                                                                           reflected_chain):
    (axes, flips), mesh = reflected_chain
    u0 = perturbed_wave(mesh.x[:, :1], physics.GasModel())
    u = np.concatenate([u0, reorient(u0, axes, flips)], axis=1)
    assert_viscous_path_block_independent(monkeypatch, mesh, u)


def test_warm_viscous_residual_allocates_no_whole_gradient_arrays(warped_n7_4):
    """Traced peak of a warm residual, Re=100 against inviscid, in the solver's workspace."""
    peaks = {}
    for reynolds in VISCOSITY:
        gas = physics.GasModel(reynolds=reynolds)
        dg = solver.DGSolver(warped_n7_4, gas, "ec", "llf")
        u = perturbed_wave(dg.x, gas)
        dg.residual(u, 0.0)
        peaks[reynolds] = traced(dg.residual, u, 0.0)[2]
    # A whole (3, 5, K, n, n, n) array of Q, F^v or Ja . F^v alone is 3 u.nbytes.
    assert peaks[100.0] - peaks[None] < 3 * u.nbytes


def test_viscous_workspace_at_n7(monkeypatch, warped_n7_4):
    """Re=100 at N=7: the workspace, and the residual at budgets of 1 and all elements.

    The viscous path sets the workspace: W's four rows (0.8 u.nbytes), the
    jump's four face rows and the two-sided region of four more (0.6 each).
    """
    gas = physics.GasModel(reynolds=100.0)
    dg = solver.DGSolver(warped_n7_4, gas, "ec", "llf")
    u = perturbed_wave(dg.x, gas)
    residual = dg.residual(u, 0.0)
    assert dg._work.flat.nbytes <= 2.05 * u.nbytes
    assert dg._work.flat.size == sum(dg._work.sizes)
    for budget in (1, 1 << 40):
        monkeypatch.setattr(solver, "PAIR_BLOCK_BYTES", budget)
        assert np.array_equal(solver.DGSolver(warped_n7_4, gas, "ec", "llf").residual(u, 0.0),
                              residual)


# -- memory of a warm residual -------------------------------------------------

# The benchmark's three run configurations (nominal case and mesh
# parameters), the bound on a warm residual's traced peak and the bound on
# the solver's workspace, in u.nbytes.  A workspace bound of None means the
# volume kernel's own reservation: the face phase fits in it.
WORKLOAD_CONFIGS = {
    "euler_n4": ({"case": "density_wave", "degree": 4,
                  "mesh": {"builtin": "warped_box", "cells": [4, 4, 4], "amplitude": 0.05}},
                 3.0, None),
    # Measured: peak 2.46, workspace 3.20.
    "ns_n3_dirichlet": ({"case": "manufactured", "degree": 3, "boundary": "dirichlet",
                         "gas": {"reynolds": 100.0},
                         "mesh": {"builtin": "warped_box", "cells": [6, 6, 6], "amplitude": 0.05}},
                        2.75, 3.25),
    "euler_n7_short": ({"case": "density_wave", "degree": 7,
                        "mesh": {"builtin": "warped_box", "cells": [3, 3, 3], "amplitude": 0.05}},
                       3.0, None),
}


# Traced memory live after ``runner.build_solver`` on each configuration,
# in u.nbytes: the readings + 0.1.  The mesh keeps x, Ja, J and its owner
# faces' normals and surface elements; the solver its flat face indices and
# the Dirichlet face nodes.  A mesh that also keeps the full-face normal
# and s_hat and the neighbour grids reads 4.91, 3.99 and 5.72 here.
SETUP_LIVE_BOUNDS = {"euler_n4": 3.70 + 0.1, "euler_n7_short": 3.24 + 0.1,
                     "ns_n3_dirichlet": 4.27 + 0.1}


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_setup_holds_no_full_face_geometry(name):
    """After set-up neither the solver nor its mesh holds a (..., 6, K, n, n) array or a neighbour grid.

    The neighbour grids are integer (links, n, n) arrays; on a periodic
    mesh the owner faces are the links, so the float surface elements
    ``s_own`` have that shape too, and are meant to be held.
    """
    raw = config.RunConfig.from_dict(WORKLOAD_CONFIGS[name][0])
    (dg, _, _), live, _ = traced(runner.build_solver, raw)
    state_nbytes = physics.NVAR * dg.j.nbytes
    assert live <= SETUP_LIVE_BOUNDS[name] * state_nbytes
    faces, grids = (6, dg.num_elements, dg.n1, dg.n1), (len(dg.mesh.links), dg.n1, dg.n1)
    for owner in (dg, dg.mesh):
        for key, value in vars(owner).items():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    assert a.shape[-4:] != faces, key
                    assert not (a.shape == grids and a.dtype.kind == "i"), key


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_warm_residual_traced_peak(name):
    """Traced peak of a warm residual above the memory live before it, and the workspace.

    The result, the volume flux's prepared state and a few scratch rows per
    block or face chunk are fresh; every whole-face array of the face phase
    lives in the solver's workspace.  The face chunks follow the workspace's
    size, which the first residual may still grow, so the first and the
    warm residual must agree bitwise.
    """
    raw, bound, work_bound = WORKLOAD_CONFIGS[name]
    dg, case, gas = runner.build_solver(config.RunConfig.from_dict(raw))
    u = cases.initial_condition(case, dg, gas)
    first = dg.residual(u, 0.01)
    warm, _, peak = traced(dg.residual, u, 0.01)
    assert peak <= bound * u.nbytes
    assert np.array_equal(warm, first)
    if work_bound is None:
        kernel = solver.Workspace()
        solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas, kernel)
        assert dg._work.flat.size == kernel.flat.size
    else:
        assert dg._work.flat.nbytes <= work_bound * u.nbytes
    if gas.viscous:
        # The viscous path, the last phase to reserve, still sets the size,
        # with blocks of K // n elements: its two block buffers of 12 rows
        # fit in the four-row two-sided face region.
        assert dg._work.flat.size == sum(dg._work.sizes)
        assert dg._br1_faces(u, dg._ghost(0.01))[0] == dg.num_elements // dg.n1 == 54


class _OutRecorder:
    """numpy as a module sees it, but every ufunc call records its ``out`` array."""

    def __init__(self, outs):
        self.outs = outs

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not isinstance(attr, np.ufunc):
            return attr

        def call(*args, out=None, **kwargs):
            if isinstance(out, np.ndarray):
                self.outs.append(out)
            return attr(*args, out=out, **kwargs)
        return call


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_kernel_operands_start_on_cache_lines(monkeypatch, name):
    """Every workspace buffer, the kernel's result and every array the flux writes start on 64 bytes."""
    dg, case, gas = runner.build_solver(config.RunConfig.from_dict(WORKLOAD_CONFIGS[name][0]))
    u = cases.initial_condition(case, dg, gas)
    buffers, outs = [], []
    reserve = dg._work.reserve

    def recorded_reserve(*sizes):
        views = reserve(*sizes)
        buffers.extend(views)
        return views

    monkeypatch.setattr(dg._work, "reserve", recorded_reserve)
    monkeypatch.setattr(fluxes, "np", _OutRecorder(outs))
    rhs = dg.residual(u, 0.01)
    div = solver.split_divergence(u, dg.ja, dg.basis, dg.volume_flux, gas, dg._work)
    # The kernel, the face phase and (on ns_n3_dirichlet) the viscous path reserve.
    assert len(buffers) == (8 if gas.viscous else 5) + 3
    # The flux's three scratch rows of every block and face chunk among them.
    assert len({a.ctypes.data for a in outs}) > 3
    for a in buffers + outs + [rhs, div]:
        assert a.ctypes.data % 64 == 0


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_warm_step_traced_peak(name):
    """Traced peak of a warm RK step that takes a monitor row, above the memory live before it.

    A step holds the new state, the RK register (the first stage's
    residual, handed to the callback first), one later stage's residual
    and that residual's own fresh arrays.  Measured: 4.65 / 4.34 / 4.64
    on euler_n4 / euler_n7_short / ns_n3_dirichlet, and 4.46 / 4.14 / 4.44
    without a callback; a step that also holds the first stage apart from
    its register reads 5.46 / 5.14 / 5.44.
    """
    dg, case, gas = runner.build_solver(config.RunConfig.from_dict(WORKLOAD_CONFIGS[name][0]))
    u = cases.initial_condition(case, dg, gas)
    dt = dg.timestep_estimate(u, 0.4)
    u, t = dg.step(u, 0.0, dt), dt
    rhs, seen = dg.residual(u, t), []

    def row(r):
        seen.append((np.array_equal(r, rhs), runner._monitor_row(dg, u, t, dt, r)))

    _, _, peak = traced(dg.step, u, t, dt, row)
    assert peak <= 4.8 * u.nbytes
    assert seen == [(True, runner._monitor_row(dg, u, t, dt, rhs))]


# A time loop's traced peak above the memory live after the initial
# condition, in u.nbytes: the readings (8.32 / 6.26 / 8.46) + 0.3.  The
# peak is a later RK stage's residual next to the state, its copy, the
# register and the workspace; a step that keeps the first stage apart
# from its register reads 9.32 / 7.26 / 9.17.
LOOP_PEAK_BOUNDS = {"euler_n4": 8.32 + 0.3, "euler_n7_short": 6.26 + 0.3,
                    "ns_n3_dirichlet": 8.46 + 0.3}


@pytest.mark.parametrize("monitor_interval", (1, 1000))
@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_time_loop_traced_peak(monkeypatch, name, monitor_interval):
    initial_condition, live = cases.initial_condition, []

    def reset_peak(*args):
        u = initial_condition(*args)
        tracemalloc.reset_peak()
        live.append((tracemalloc.get_traced_memory()[0], u.nbytes))
        return u

    monkeypatch.setattr(cases, "initial_condition", reset_peak)
    raw = dict(WORKLOAD_CONFIGS[name][0], final_time=0.004, monitor_interval=monitor_interval)
    record, _, peak = traced(runner._time_loop, config.RunConfig.from_dict(raw))
    (before, nbytes), = live
    assert record.steps > 1
    assert peak - before <= LOOP_PEAK_BOUNDS[name] * nbytes


@pytest.mark.parametrize("reynolds", VISCOSITY)
def test_successive_residuals_are_independent_arrays(reynolds):
    gas = physics.GasModel(reynolds=reynolds)
    mesh = mesh_mod.warped_box_mesh(DEGREE, (2, 2, 2), amplitude=0.05, periodic=False)
    case = cases.DensityWave()
    dg = solver.DGSolver(mesh, gas, "ec", "llf", boundary_state=case.state)
    u_a, u_b = perturbed_wave(mesh.x, gas, seed=1), perturbed_wave(mesh.x, gas, seed=2)
    first = dg.residual(u_a, 0.1)
    kept = first.copy()
    second = dg.residual(u_b, 0.1)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)


def test_rk_step_in_place_is_bitwise_the_out_of_place_formula():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    u0 = rng.standard_normal((4, 6))
    rhs = lambda u, t: a @ u + t

    def reference(u, t, dt, rhs):
        g = None
        for ra, rb, rc in zip(solver.RK_A, solver.RK_B, solver.RK_C):
            r = rhs(u, t + rc * dt)
            g = dt * r if g is None else ra * g + dt * r
            u = u + rb * g
        return u

    expected = reference(u0, 0.3, 0.01, rhs)
    u = u0.copy()
    assert np.array_equal(solver.rk_step(u, 0.3, 0.01, rhs), expected)
    assert np.array_equal(u, u0)
    # The callback gets the first stage intact, once, before the step
    # reuses it as its register; the result does not change.
    seen = []
    first = lambda r: seen.append(r.copy())
    assert np.array_equal(solver.rk_step(u, 0.3, 0.01, rhs, first), expected)
    assert np.array_equal(u, u0)
    assert len(seen) == 1 and np.array_equal(seen[0], rhs(u0, 0.3))
    # verify's RK rows step 0-d arrays.
    decay = lambda v, t: -v
    for first in (None, lambda r: seen.append(float(r))):
        y = np.array(1.0)
        assert solver.rk_step(y, 0.0, 0.1, decay, first) == reference(np.array(1.0), 0.0, 0.1, decay)
        assert y == 1.0
    assert seen[1:] == [-1.0]


@pytest.mark.parametrize("dt", (0.0, float("nan")))
def test_rk_step_rejects_a_non_positive_dt(dt):
    def rhs(u, t):
        raise AssertionError("a stage was evaluated")

    with pytest.raises(ValueError, match=f"dt must be positive, got {dt}"):
        solver.rk_step(np.ones(3), 0.0, dt, rhs)


def test_lift_gradients_positivity_error_names_global_element(warped_n7_4):
    gas = physics.GasModel(reynolds=100.0)
    mesh = warped_n7_4
    u = physics.conservative_from_primitive(np.ones_like(mesh.x[0]), 0.1 * mesh.x, 1.0, gas)
    u[0, 63, 3, 4, 2] = -0.1
    with pytest.raises(physics.PositivityError, match=r"density.* at index \(63, 3, 4, 2\)"):
        solver.DGSolver(mesh, gas).lift_gradients(u)


def taylor_green_state(x, gas):
    """Inviscid Taylor-Green vortex on the unit box: rho = 1, V0 = 1, Mach 0.1."""
    sin, cos = (f(2.0 * np.pi * x) for f in (np.sin, np.cos))
    v = np.stack([sin[0] * cos[1] * cos[2], -cos[0] * sin[1] * cos[2], np.zeros_like(x[0])])
    p = (1.0 / (gas.gamma * 0.1**2)
         + (np.cos(4.0 * np.pi * x[0]) + np.cos(4.0 * np.pi * x[1])) * (np.cos(4.0 * np.pi * x[2]) + 2.0) / 16.0)
    return physics.conservative_from_primitive(np.ones_like(p), v, p, gas)


@pytest.mark.parametrize("volume_flux, dissipation", [("central", "llf"), ("ec", "none"), ("ec", "llf")])
def test_split_form_survives_the_under_resolved_taylor_green_vortex(volume_flux, dissipation):
    # The paper's robustness claim: at N=3 on a warped 2^3 box the vortex is
    # badly under-resolved, and the aliasing of the central (standard DGSEM)
    # volume flux drives the pressure negative near t = 0.138, even with LLF
    # at the faces.  The entropy-conservative split form reaches t = 0.3:
    # without dissipation the total entropy holds to time-integration error,
    # with LLF no step raises it.
    gas, final_time = physics.GasModel(), 0.3
    dg = solver.DGSolver(mesh_mod.warped_box_mesh(3, (2, 2, 2), amplitude=0.05), gas, volume_flux, dissipation)
    u = taylor_green_state(dg.x, gas)
    history = [(0.0, dg.total_entropy(u))]  # (t, total entropy) after each step

    def march(u, t=0.0):
        while final_time - t > 1e-12 * final_time:
            dt = min(dg.timestep_estimate(u, 0.4), final_time - t)
            u = dg.step(u, t, dt)
            t += dt
            history.append((t, dg.total_entropy(u)))

    if volume_flux == "central":
        with pytest.raises(physics.PositivityError, match="non-positive pressure"):
            march(u)
        assert 0.1 < history[-1][0] < 0.2  # the last step it completed
        return
    march(u)
    t, entropy = np.array(history).T
    assert t[-1] == pytest.approx(final_time, abs=1e-12)
    scale = abs(entropy[0])
    if dissipation == "none":
        assert abs(entropy[-1] - entropy[0]) <= 1e-10 * scale
    else:
        assert np.diff(entropy).max() <= 1e-12 * scale
        assert entropy[-1] < entropy[0] - 1e-6 * scale  # LLF dissipates entropy
