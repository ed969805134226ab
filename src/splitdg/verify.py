"""Verification suites: the discrete-invariant batteries behind `verify`.

Each suite returns a list of Check rows (name, measured value, bound,
pass/fail).  All randomized batteries use the fixed SEED, so reports are
deterministic and reruns byte-identical.
"""

from dataclasses import dataclass
from decimal import Context, Decimal

import numpy as np

from splitdg import cases, fluxes, geometry, mesh as mesh_mod, physics, solver, spectral

SEED = 2024


@dataclass
class Check:
    name: str
    value: float
    bound: float
    ok: bool
    kind: str = "max"  # "max": value <= bound ; "min": value >= bound

    @classmethod
    def below(cls, name, value, bound):
        return cls(name, float(value), float(bound), bool(value <= bound), "max")

    @classmethod
    def above(cls, name, value, bound):
        return cls(name, float(value), float(bound), bool(value >= bound), "min")


def _random_states(rng, count, gas):
    rho = rng.uniform(0.2, 2.0, count)
    v = rng.uniform(-2.0, 2.0, (3, count))
    p = rng.uniform(0.2, 2.0, count)
    return physics.conservative_from_primitive(rho, v, p, gas)


def spectral_suite():
    rng = np.random.default_rng(SEED)
    checks = []

    sbp = drow = qcol = qdiag = wsum = 0.0
    for n in range(1, 16):
        b = spectral.build_basis(n)
        sbp = max(sbp, np.abs(b.Q + b.Q.T - b.B).max())
        drow = max(drow, np.abs(b.D.sum(axis=1)).max())
        col = b.Q.sum(axis=0)
        target = np.zeros(n + 1)
        target[0], target[-1] = -1.0, 1.0
        qcol = max(qcol, np.abs(col - target).max())
        qdiag = max(qdiag, abs(b.Q[0, 0] + 0.5), abs(b.Q[n, n] - 0.5),
                    np.abs(np.diag(b.Q)[1:-1]).max() if n > 1 else 0.0)
        wsum = max(wsum, abs(b.weights.sum() - 2.0))
    checks.append(Check.below("sbp Q+Q^T=B, N=1..15", sbp, 1e-12))
    checks.append(Check.below("derivative row sums, N=1..15", drow, 1e-13))
    checks.append(Check.below("Q column sums (-1,0..,1)", qcol, 1e-12))
    checks.append(Check.below("Q corners/diagonal", qdiag, 1e-12))
    checks.append(Check.below("sum of weights = 2", wsum, 1e-13))

    exact_err, boundary5, boundary6 = 0.0, np.inf, np.inf
    for n in range(1, 11):
        b = spectral.build_basis(n)
        for p in range(0, 2 * n):
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            exact_err = max(exact_err, abs(spectral.quadrature(b, b.nodes**p) - exact))
        if n <= 6:
            p = 2 * n
            err = abs(spectral.quadrature(b, b.nodes**p) - 2.0 / (p + 1))
            if n <= 5:
                boundary5 = min(boundary5, err)
            else:
                boundary6 = err
    checks.append(Check.below("quadrature exact for p <= 2N-1 (N <= 10)", exact_err, 1e-12))
    checks.append(Check.above("quadrature error at p = 2N (N <= 5)", boundary5, 1e-3))
    # The N = 6 error is 8.61e-4: the boundary stays sharp but dips under 1e-3.
    checks.append(Check.above("quadrature error at p = 2N (N = 6)", boundary6, 5e-4))

    b1 = spectral.build_basis(1)
    c = spectral.aliasing_coefficients(b1, b1.nodes**2)
    checks.append(Check.below("aliasing: C_0(x^2, N=1) = 1", abs(c[0] - 1.0), 1e-12))
    checks.append(Check.below("aliasing error vs exact u_0 = 1/3", abs((c[0] - 1.0 / 3.0) - 2.0 / 3.0), 1e-12))

    ibp = 0.0
    for n in range(1, 11):
        b = spectral.build_basis(n)
        for _ in range(5):
            cu = rng.normal(size=n + 1)
            cv = rng.normal(size=n + 1)
            u = np.polynomial.polynomial.polyval(b.nodes, cu)
            v = np.polynomial.polynomial.polyval(b.nodes, cv)
            lhs = spectral.inner_product(b, u, b.D @ v) + spectral.inner_product(b, b.D @ u, v)
            rhs = u[-1] * v[-1] - u[0] * v[0]
            ibp = max(ibp, abs(lhs - rhs))
    checks.append(Check.below("summation-by-parts = integration-by-parts", ibp, 1e-12))

    norm_low, norm_high = 0.0, 0.0
    for n in range(2, 11):
        b = spectral.build_basis(n)
        fine = spectral.build_basis(2 * n + 8)
        pmat = spectral.lagrange_values(b, fine.nodes)
        for _ in range(5):
            u = np.polynomial.polynomial.polyval(b.nodes, rng.normal(size=n + 1))
            continuous = np.sqrt(spectral.quadrature(fine, (pmat @ u) ** 2))
            discrete = np.sqrt(spectral.inner_product(b, u, u))
            norm_low = max(norm_low, continuous - discrete)
            norm_high = max(norm_high, discrete - np.sqrt(2.0 + 1.0 / n) * continuous)
    checks.append(Check.below("norm equivalence, lower", norm_low, 1e-12))
    checks.append(Check.below("norm equivalence, upper sqrt(2+1/N)", norm_high, 1e-12))

    # Spectral accuracy of interpolation for exp(sin(pi x)): the max-norm
    # error decays faster than any fixed power of N.  Raw log-log slopes
    # oscillate with parity, so monotone steepening is asserted on
    # window-of-three averaged slopes.
    degrees = np.arange(4, 21, 2)
    xx = np.linspace(-1.0, 1.0, 2001)
    f = lambda x: np.exp(np.sin(np.pi * x))
    errs = []
    for n in degrees:
        b = spectral.build_basis(int(n))
        errs.append(np.abs(spectral.lagrange_values(b, xx) @ f(b.nodes) - f(xx)).max())
    errs = np.array(errs)
    checks.append(Check.below("interpolation of exp(sin pi x): errors decrease",
                              np.diff(errs).max(), 0.0))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(degrees.astype(float)))
    smoothed = np.convolve(slopes, np.ones(3) / 3.0, mode="valid")
    checks.append(Check.below("interpolation: smoothed log-log slope steepens",
                              np.diff(smoothed).max(), 0.0))
    checks.append(Check.below("interpolation slope, last window (superpolynomial)",
                              smoothed[-1], -8.0))

    sbp3 = 0.0
    b = spectral.build_basis(4)
    for _ in range(3):
        u = rng.normal(size=(5, 5, 5))
        v = rng.normal(size=(5, 5, 5))
        du = spectral.tensor_gradient(b, u)[0]
        dv = spectral.tensor_gradient(b, v)[0]
        w2 = np.einsum("j,k->jk", b.weights, b.weights)
        surf = np.sum((u[-1] * v[-1] - u[0] * v[0]) * w2)
        lhs = spectral.inner_product_3d(b, u, dv)
        sbp3 = max(sbp3, abs(lhs - (surf - spectral.inner_product_3d(b, du, v))))
    checks.append(Check.below("3D summation-by-parts (xi)", sbp3, 1e-12))
    return checks


def geometry_suite():
    checks = []
    warp = mesh_mod.sine_warp(0.05)
    mesh = mesh_mod.warped_box_mesh(4, (4, 4, 4), amplitude=0.05)
    basis = mesh.basis
    curl_res = geometry.metric_identity_residual(basis, mesh.ja).max()
    ja_cross, _ = geometry.metrics_cross_product(spectral.tensor_gradient(basis, mesh.x))
    cross_res = geometry.metric_identity_residual(basis, ja_cross).max()
    checks.append(Check.below("curl metrics: identity residual (warped 4^3, N=4)", curl_res, 1e-12))
    checks.append(Check.above("cross/curl residual ratio", cross_res / max(curl_res, 1e-300), 1e3))

    w = basis.weights
    total = np.einsum("dfKab,fKab,a,b->dK", mesh.normal, mesh.s_hat, w, w)
    checks.append(Check.below("closed-surface identity (sum n s dS = 0)", np.abs(total).max(), 1e-12))

    s_gap, n_gap = mesh.face_mismatch()
    checks.append(Check.below("shared-face surface elements agree", s_gap, 1e-10))
    checks.append(Check.below("shared-face normals are opposite", n_gap, 1e-10))

    affine = lambda xi: np.stack([0.5 * xi[0] + 0.1 * xi[1], 0.75 * xi[1], 0.4 * xi[2] + 0.05 * xi[0]])
    x_aff = geometry.sample_map_on_grid(affine, basis)[:, None]
    ja_aff, _ = geometry.metrics_cross_product(spectral.tensor_gradient(basis, x_aff))
    checks.append(Check.below("affine map: curl = cross metrics",
                              np.abs(geometry.metrics_curl_form(basis, x_aff) - ja_aff).max(), 1e-12))

    rng = np.random.default_rng(SEED)
    corners = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], float)
    corners += 0.15 * rng.normal(size=(8, 3))
    fd = geometry.faces_from_corners(corners, basis.n)
    t = rng.uniform(-1, 1, 4)  # the transfinite map on the tensor grid of t
    mapped = spectral.apply_tensor(spectral.lagrange_values(basis, t), fd.nodal_map())
    trilinear = geometry.hex_corner_map(corners, np.stack(np.meshgrid(t, t, t, indexing="ij")))
    gap = np.abs(mapped - trilinear).max()
    checks.append(Check.below("transfinite map of straight hex = trilinear", gap, 1e-12))
    fw = geometry.faces_from_mapping(warp, 4)
    gap = fw.edge_mismatch()
    checks.append(Check.below("curved faces watertight", gap, 1e-12))
    return checks


def fluxes_suite():
    pairs = 10_000
    rng = np.random.default_rng(SEED)
    gas = physics.GasModel()
    checks = []
    ua = _random_states(rng, pairs, gas)
    ub = _random_states(rng, pairs, gas)

    def triple(flux, u_left, u_right):  # (3, 5, ...): one ``evaluate`` per unit vector
        left, right = flux.prepare(u_left, gas), flux.prepare(u_right, gas)
        return np.stack([flux.evaluate(left, right, e, gas) for e in np.eye(3)])

    scale = np.abs(physics.advective_flux(ua, gas)).max()
    for name, flux in sorted(fluxes.VOLUME_FLUXES.items()):
        fab = triple(flux, ua, ub)
        fba = triple(flux, ub, ua)
        sym = np.abs(fab - fba).max() / scale
        cons = np.abs(triple(flux, ua, ua) - physics.advective_flux(ua, gas)).max() / scale
        checks.append(Check.below(f"{name}: symmetry on {pairs} pairs (rel)", sym, 1e-12))
        checks.append(Check.below(f"{name}: consistency F#(u,u)=f(u) (rel)", cons, 1e-12))

    ec = fluxes.VOLUME_FLUXES["ec"]
    fec = triple(ec, ua, ub)
    jump_w = physics.entropy_variables(ub, gas) - physics.entropy_variables(ua, gas)
    jump_psi = physics.entropy_potential(ub, gas) - physics.entropy_potential(ua, gas)
    res = np.einsum("c...,dc...->d...", jump_w, fec) - jump_psi
    checks.append(Check.below(f"Tadmor condition, {pairs} pairs x 3 directions (scaled)",
                              np.abs(res).max() / scale, 1e-11))

    psi = physics.entropy_potential(ua, gas)
    checks.append(Check.below("entropy potential psi = rho v", np.abs(psi - ua[1:4]).max() / scale, 1e-12))

    # log mean: bounds, monotonicity, and a 50-digit oracle from the standard
    # library's decimal module (Decimal(r) is the float exactly; each step
    # rounds to 50 digits, and float() rounds the quotient once more)
    a = rng.uniform(0.1, 10.0, 4000)
    b = rng.uniform(0.1, 10.0, 4000)
    lm = fluxes.log_mean(a, b)
    bound_low = np.max(np.minimum(a, b) - lm)
    bound_high = np.max(lm - 0.5 * (a + b))
    checks.append(Check.below("log_mean >= min(a,b)", bound_low, 1e-13))
    checks.append(Check.below("log_mean <= arithmetic mean", bound_high, 1e-13))
    aa = np.sort(rng.uniform(0.5, 2.0, 400))
    lm_mono = fluxes.log_mean(aa, np.full_like(aa, 1.0))
    checks.append(Check.below("log_mean monotone in first argument",
                              -np.diff(lm_mono).min(), 0.0))
    ratios = np.concatenate([
        1.0 + np.logspace(-15, -1, 120), np.logspace(0.1, 6, 120),
        # 40 ratios from 1.006 to 1.064: close arguments, ln of the ratio small
        1.0 + np.logspace(-0.5, 0.5, 40) * (0.02 / 0.99),
    ])
    lm = fluxes.log_mean(np.ones_like(ratios), ratios)
    ctx = Context(prec=50)
    exact = np.array([float(ctx.divide(ctx.subtract(Decimal(r), 1), ctx.ln(Decimal(r))))
                      for r in ratios])
    rel = np.abs(lm - exact) / exact
    checks.append(Check.below("log_mean vs 50-digit oracle, ratios [1+1e-15, 1e6]",
                              rel.max(), 1e-13))

    # LLF dissipation sign; evaluate is linear in the direction (volume kernel)
    normal = rng.normal(size=(3, pairs))
    normal /= np.sqrt(np.sum(normal**2, axis=0))
    f_none = fluxes.surface_flux_advective(ua, ub, normal, gas, "none")
    f_llf = fluxes.surface_flux_advective(ua, ub, normal, gas, "llf")
    diss = np.einsum("c...,c...->...", jump_w, f_llf - f_none)
    checks.append(Check.below("LLF entropy contribution jump(w)^T diss <= 0", diss.max(), 1e-12))
    fec_n = ec.evaluate(ec.prepare(ua, gas), ec.prepare(ub, gas), normal, gas)
    checks.append(Check.below("dissipation 'none' equals ec flux . n",
                              np.abs(f_none - fec_n).max(), 0.0))
    triple_n = np.einsum("d...,dc...->c...", normal, fec)
    checks.append(Check.below("directional ec flux = ec flux triple . n (rel)",
                              np.abs(fec_n - triple_n).max() / scale, 1e-13))

    return checks


def _end_node_terms(dg, u):
    """lift(F_n s_hat), the physical normal flux lifted onto the end nodes.

    These are the diagonal terms of 2D.F# that split_divergence, with its
    zero-diagonal split operator 2D - B W^-1, leaves out.
    """
    f = physics.advective_flux(geometry.face_stack(u), dg.gas)
    fn = np.einsum("dfKab,dcfKab->cfKab", dg.mesh.normal, f)
    return geometry.fold_faces(fn * dg.mesh.s_hat / dg.w0)


def _entropy_surface_scale(dg, u):
    """Total surface quadrature of |f^S . n| s_hat: the entropy-flux scale."""
    fs = geometry.face_stack(physics.entropy_flux(u, dg.gas))
    fn = np.einsum("dfKab,dfKab->fKab", dg.mesh.normal, fs)
    w = dg.basis.weights
    return float(np.einsum("fKab,fKab,a,b->", np.abs(fn), dg.mesh.s_hat, w, w))


def br1_dissipation_gap(mesh, gas, u, surface_dissipation="llf"):
    """BR1 neutral stability on the solver's own residual, relative to the dissipation.

    On a periodic mesh the BR1 interface means add no entropy production: the
    viscous terms change the entropy rate by exactly -(1/Re) sum_k <J Q, F^v>_N,
    Q the lifted gradients.  F^v has a zero mass row, so the sum runs over
    the four rows of w_2..w_5 that ``lift_gradients`` returns.  Compares the
    ec solvers of ``gas`` and its inviscid twin.
    """
    viscous = solver.DGSolver(mesh, gas, "ec", surface_dissipation)
    inviscid = solver.DGSolver(mesh, physics.GasModel(gas.gamma, gas.prandtl), "ec", surface_dissipation)
    q = viscous.lift_gradients(u)
    fv = physics.viscous_flux_from_entropy_gradients(physics.entropy_variables(u, gas)[1:], q, gas)
    w = mesh.basis.weights
    loss = np.einsum("dcKijk,dcKijk,Kijk,i,j,k->", q, fv, mesh.j, w, w, w) / gas.reynolds
    gap = (viscous.entropy_rate(u, viscous.residual(u))
           - inviscid.entropy_rate(u, inviscid.residual(u)) + loss)
    return abs(gap) / loss


def solver_suite():
    rng = np.random.default_rng(SEED)
    gas = physics.GasModel()
    checks = []

    # The instantaneous free-stream residual is a roundoff floor.  On this
    # periodic mesh the periodic partners' normal gap (4e-14, see
    # MeshTopology.face_mismatch) sets it: 1.9e-12, against 1.5e-13 with
    # Dirichlet walls, whose links have no gap.
    mesh_fs = mesh_mod.warped_box_mesh(4, (2, 2, 2), amplitude=0.05)
    dg_fs = solver.DGSolver(mesh_fs, gas, "ec", "llf")
    # A zero-amplitude density wave is the uniform state rho = p = 1, v = (0.1, 0.2, 0.3).
    free_stream = cases.DensityWave(amplitude=0.0, velocity=(0.1, 0.2, 0.3))
    u_fs = cases.initial_condition(free_stream, dg_fs, gas)
    checks.append(Check.below("free-stream residual (warped 2^3, ec+llf)",
                              np.abs(dg_fs.residual(u_fs, 0.0)).max(), 1e-11))

    mesh = mesh_mod.warped_box_mesh(4, (3, 3, 3), amplitude=0.05)
    dg = solver.DGSolver(mesh, gas, "ec", "llf")

    wave = cases.DensityWave()
    uw = cases.initial_condition(wave, dg, gas)
    w = dg.basis.weights
    for diss in ("llf", "none"):
        dg2 = solver.DGSolver(mesh, gas, "ec", diss)
        rhs = dg2.residual(uw, 0.0)
        drift = np.abs(np.einsum("cKijk,Kijk,i,j,k->c", rhs, dg2.j, w, w, w)).max()
        checks.append(Check.below(f"conservation of residual totals ({diss})", drift, 1e-12))
        if diss == "none":
            scale = _entropy_surface_scale(dg2, uw)
            checks.append(Check.below("entropy rate, ec + no dissipation (rel)",
                                      abs(dg2.entropy_rate(uw, rhs)) / scale, 1e-11))

    gas_v = physics.GasModel(reynolds=100.0)
    dg_v = solver.DGSolver(mesh, gas_v, "ec", "llf")
    rhs_v = dg_v.residual(uw, 0.0)
    checks.append(Check.below("entropy rate, viscous Re=100 (<= 0)",
                              dg_v.entropy_rate(uw, rhs_v), 1e-12))

    # Form equivalence on affine elements
    mesh_c = mesh_mod.box_mesh(4, (2, 2, 2))
    dg_c = solver.DGSolver(mesh_c, gas, "central", "none")
    k = mesh_c.num_elements
    up = physics.conservative_from_primitive(
        1.0 + 0.2 * rng.normal(size=(k, 5, 5, 5)),
        0.3 * rng.normal(size=(3, k, 5, 5, 5)),
        1.0 + 0.2 * rng.normal(size=(k, 5, 5, 5)), gas)
    div_split = (solver.split_divergence(up, dg_c.ja, dg_c.basis, dg_c.volume_flux, gas)
                 + _end_node_terms(dg_c, up))
    contrav = np.einsum("ldKijk,dcKijk->lcKijk", dg_c.ja, physics.advective_flux(up, gas))
    div_std = spectral.tensor_divergence(dg_c.basis, contrav)
    checks.append(Check.below("central split form = standard divergence (affine)",
                              np.abs(div_split - div_std).max(), 1e-12))

    # Volume entropy contraction moves to the boundary (EC flux)
    dgw = solver.DGSolver(mesh, gas, "ec", "none")
    div = (solver.split_divergence(uw, dgw.ja, dgw.basis, dgw.volume_flux, gas)
           + _end_node_terms(dgw, uw))
    wvars = physics.entropy_variables(uw, gas)
    lhs = np.einsum("cKijk,cKijk,i,j,k->K", div, wvars, w, w, w)
    fs = physics.entropy_flux(uw, gas)
    fn = np.einsum("dfKab,dfKab->fKab", mesh.normal, geometry.face_stack(fs))
    rhs_surf = np.einsum("fKab,fKab,a,b->K", fn, mesh.s_hat, w, w)
    checks.append(Check.below("EC volume contraction = surface entropy flux",
                              np.abs(lhs - rhs_surf).max(), 1e-11))

    # Two-element periodic chain vs self-periodic single element: the chain
    # duplicates the element geometry (the translated copy is metrically
    # identical; positions never enter a periodic residual), so matched data
    # must give identical residuals.
    m_one = mesh_mod.warped_box_mesh(3, (1, 1, 1), amplitude=0.04)
    chain_links = [
        mesh_mod.FaceLink(0, 1, 1, 0, 0, False), mesh_mod.FaceLink(1, 1, 0, 0, 0, True),
        mesh_mod.FaceLink(0, 3, 0, 2, 0, True), mesh_mod.FaceLink(1, 3, 1, 2, 0, True),
        mesh_mod.FaceLink(0, 5, 0, 4, 0, True), mesh_mod.FaceLink(1, 5, 1, 4, 0, True),
    ]
    x_two = np.concatenate([m_one.x, m_one.x], axis=1)
    m_two = mesh_mod.MeshTopology(m_one.basis, x_two, chain_links)
    dg1 = solver.DGSolver(m_one, gas, "ec", "llf")
    dg2 = solver.DGSolver(m_two, gas, "ec", "llf")
    u1 = cases.initial_condition(wave, dg1, gas)
    u2 = np.concatenate([u1, u1], axis=1)
    r1 = dg1.residual(u1, 0.0)
    r2 = dg2.residual(u2, 0.0)
    gap = max(np.abs(r2[:, 0] - r1[:, 0]).max(), np.abs(r2[:, 1] - r1[:, 0]).max())
    checks.append(Check.below("two-element chain = self-periodic element", gap, 1e-12))

    # BR1 on data whose traces jump at every face: on continuous data the
    # identity holds whatever the interface means W* and F^v* are.
    # Each conservative variable is moved by up to 5 %; p stays above 0.75.
    u_jump = uw * (1.0 + 0.05 * rng.uniform(-1, 1, uw.shape))
    # LLF adds -(lambda_max/2)|jump(w)|^2 per face node to the entropy rate:
    # roundoff where the traces agree, so its sign is tested on jumped data.
    checks.append(Check.below("entropy rate, ec + llf (<= 0)",
                              dg.entropy_rate(u_jump, dg.residual(u_jump, 0.0)), 1e-12))
    checks.append(Check.below("BR1: viscous entropy rate = -<JQ,F^v>/Re (rel)",
                              br1_dissipation_gap(mesh, gas_v, u_jump), 1e-12))

    # RK4: exp decay accuracy and order-4 slope
    rhs_scalar = lambda y, t: -y
    y1 = solver.rk_step(np.array(1.0), 0.0, 0.1, rhs_scalar)
    checks.append(Check.below("RK step vs exp(-dt)", abs(y1 - np.exp(-0.1)), 1e-7))
    e_coarse = abs(solver.rk_step(np.array(1.0), 0.0, 0.2, rhs_scalar) - np.exp(-0.2))
    e_fine = abs(solver.rk_step(np.array(1.0), 0.0, 0.1, rhs_scalar) - np.exp(-0.1))
    order = np.log2(e_coarse / e_fine)
    checks.append(Check.above("RK local order (>= 4.5 for 5-stage RK4)", order, 4.5))
    return checks


SUITES = {
    "spectral": spectral_suite,
    "geometry": geometry_suite,
    "fluxes": fluxes_suite,
    "solver": solver_suite,
}


def run_suite(name):
    """Run one suite ('all' bundles every module battery)."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite '{name}'; valid options: {sorted(SUITES) + ['all']}")
    return [check for key in (SUITES if name == "all" else [name]) for check in SUITES[key]()]


def format_report(checks):
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        rel = "<=" if c.kind == "max" else ">="
        status = "PASS" if c.ok else "FAIL"
        lines.append(f"{c.name:<{width}}  {c.value:12.3e} {rel} {c.bound:9.1e}  {status}")
    passed = sum(c.ok for c in checks)
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines)
