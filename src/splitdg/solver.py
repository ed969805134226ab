"""Semi-discrete split-form DGSEM residual, BR1 lifting, and time integration.

Layouts: conservative states live in arrays of shape (5, K, n1, n1, n1) with
the component axis first, the element axis second, and (i, j, k) <->
(xi, eta, zeta) tensor indices last (n1 = N+1).  Face data use the same
component-first layout, (C..., 6, K, n1, n1): the face index of
:mod:`splitdg.geometry` in front of the element axis and the two face-grid
indices last.  Entropy monitors, conserved totals, and the explicit RK
driver operate on the volume layout.

The residual is

    du/dt = -(1/J) [ D.F# + lift((F*_n - F_n) s_hat) ]
            + (1/(Re J)) [ D_std.F~v + lift((F^{v,*}_n - F^v_n) s_hat) ]

with the two-point flux-differencing divergence D.F#, the standard nodal
divergence D_std for the viscous contravariant fluxes, and surface liftings
scaled by 1/w_0 at the face nodes (strong/penalty form).

All faces go through one pipeline.  The owner faces are the left sides of
all mesh links followed by all Dirichlet faces; a Dirichlet face is a
one-sided link whose exterior trace is the ghost state.  Each numerical
flux is evaluated once per owner face with the owner's normal and surface
element, then written to the owner side and, sign-flipped and permuted onto
the neighbour grid, to the neighbour side, so conservation telescopes
bitwise across links.  The mesh guarantees that every (element, face) is
an owner or a neighbour exactly once, so this is plain index assignment.

Evaluation is vectorized over all elements (volume kernels) and over all
faces (interface kernels); there are no data dependencies between elements
within a stage, and the fixed numpy reduction order makes results
reproducible run to run.
"""

import numpy as np

from splitdg import fluxes, geometry, physics, spectral
from splitdg.mesh import orientation_indices

# Five-stage fourth-order low-storage Runge-Kutta (Carpenter-Kennedy).
RK_A = (
    0.0,
    -567301805773.0 / 1357537059087.0,
    -2404267990393.0 / 2016746695238.0,
    -3550918686646.0 / 2091501179385.0,
    -1275806237668.0 / 842570457699.0,
)
RK_B = (
    1432997174477.0 / 9575080441755.0,
    5161836677717.0 / 13612068292357.0,
    1720146321549.0 / 2090206949498.0,
    3134564353537.0 / 4481467310338.0,
    2277821191437.0 / 14882151754819.0,
)
RK_C = (
    0.0,
    1432997174477.0 / 9575080441755.0,
    2526269341429.0 / 6820363962896.0,
    2006345519317.0 / 3224310063776.0,
    2802321613138.0 / 2924317926251.0,
)


def rk_step(u, t, dt, rhs):
    """One five-stage low-storage RK4 step of du/dt = rhs(u, t)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g = None
    for a, b, c in zip(RK_A, RK_B, RK_C):
        r = rhs(u, t + c * dt)
        g = dt * r if g is None else a * g + dt * r
        u = u + b * g
    return u


class SolutionField:
    """Per-element nodal conservative states and the simulation time."""

    def __init__(self, u, t=0.0):
        self.u = np.asarray(u, dtype=float)
        self.t = float(t)


def _face_stack(vol):
    """Restrict a (C..., K, n, n, n) volume array to its faces: (C..., 6, K, n, n)."""
    return np.stack([vol[geometry.face_slice(f)] for f in range(6)], axis=-4)


def _fold_faces(faces):
    """Sum a (C..., 6, K, n, n) face array into an otherwise zero volume array."""
    n1 = faces.shape[-1]
    out = np.zeros(faces.shape[:-4] + (faces.shape[-3], n1, n1, n1))
    for f in range(6):
        out[geometry.face_slice(f)] += faces[..., f, :, :, :]
    return out


def _normal_component(normal, flux):
    """n . f for a (3, ...) normal and a (3, C, ...) flux; shape (C, ...)."""
    return np.einsum("d...,dc...->c...", normal, flux)


def split_divergence(u, ja, basis, volume_flux, gas):
    """Two-point flux-differencing divergence (not yet divided by J).

    Implements, per node and per reference direction, the sums
    2 sum_m D_im F#(U_i.., U_m..) . <Ja^dir>_(i,m) with arithmetic averaging
    of the volume-weighted contravariant vectors.  F# is symmetric, so the
    directional flux is evaluated once per unique pair of each line: the
    pairs m > i and the diagonal pairs with D_ii != 0.  By the SBP property
    Q + Q^T = B, D_ii = B_ii / (2 w_i), so these are read from B: the two
    end nodes (the computed interior D_ii are roundoff).  One (n, pairs)
    matrix scatters every pair flux to both of its ends with weights
    2 D_im and 2 D_mi.

    Args:
        u: states (5, K, n, n, n).
        ja: contravariant vectors (3, 3, K, n, n, n) (curl form for the
            free-stream/entropy properties to hold).
        volume_flux: a fluxes.TwoPointFlux object.

    Returns:
        (5, K, n, n, n) array.
    """
    d = basis.D
    left, right = np.triu_indices(len(d), 1)
    ends = np.flatnonzero(np.diag(basis.B))
    left, right = np.concatenate([left, ends]), np.concatenate([right, ends])
    scatter = np.zeros((len(d), len(left)))
    pairs = np.arange(len(left))
    scatter[left, pairs] = 2.0 * d[left, right]
    scatter[right, pairs] = 2.0 * d[right, left]

    state = volume_flux.prepare(u, gas)
    out = np.zeros_like(u)
    for axis in range(3):
        line = axis - 3
        f = volume_flux.evaluate(
            tuple(a.take(left, axis=line) for a in state),
            tuple(a.take(right, axis=line) for a in state),
            0.5 * (ja[axis].take(left, axis=line) + ja[axis].take(right, axis=line)), gas)
        out += np.moveaxis(np.tensordot(scatter, f, axes=(1, line)), 0, line)
    return out


class DGSolver:
    """Split-form DGSEM semi-discretization on a conforming curvilinear mesh.

    Faces are handled by one pipeline.  The owner faces are the left sides
    of all mesh links (``l_elem``/``l_face``) followed by all Dirichlet faces
    (``b_elem``/``b_face``); owner-face arrays have shape (C..., nf, n, n).
    ``_exterior`` supplies the outside trace of every owner face (the
    neighbour's values permuted onto the owner grid, then the ghost values
    of the Dirichlet faces), and ``_to_faces`` returns owner-face results
    to the (C..., 6, K, n, n) face layout of the volume arrays.

    Args:
        mesh: MeshTopology (curl-form metrics expected for the discrete
            invariants to hold; cross-form is allowed for demonstrations).
        gas: GasModel; ``gas.reynolds is None`` disables all viscous terms.
        volume_flux: "ec" or "central".
        surface_dissipation: "none" or "llf".
        boundary_states: dict tag -> callable(x, t) -> exterior conservative
            state for Dirichlet faces; x has shape (3, ...).
        source: optional callable(x, t, gas) -> (5, ...) forcing added to
            du/dt (manufactured-solution machinery).
    """

    def __init__(self, mesh, gas, volume_flux="ec", surface_dissipation="llf",
                 boundary_states=None, source=None):
        self.mesh = mesh
        self.basis = mesh.basis
        self.gas = gas
        self.volume_flux = fluxes.get_volume_flux(volume_flux)
        if surface_dissipation not in fluxes.DISSIPATION_MODES:
            raise ValueError(
                f"unknown surface dissipation '{surface_dissipation}'; "
                f"valid options: {list(fluxes.DISSIPATION_MODES)}")
        self.surface_dissipation = surface_dissipation
        self.source = source

        n1 = mesh.basis.n + 1
        self.num_elements = mesh.num_elements
        self.n1 = n1
        # Stacked geometry; face data in the (C..., 6, K, n, n) layout.
        geoms = mesh.geoms
        self.ja = np.stack([g.ja for g in geoms], axis=2)
        self.j = np.stack([g.j for g in geoms])
        self.x = np.stack([g.x for g in geoms], axis=1)
        self.s_hat = np.stack([g.s_hat for g in geoms], axis=1)
        self.normal = np.stack([g.normal.swapaxes(0, 1) for g in geoms], axis=2)
        self.w0 = mesh.basis.weights[0]  # = weights[-1]; surface lifting scale

        # Owner faces: link left sides, then Dirichlet faces.
        links = mesh.links
        self.l_elem = np.array([ln.left for ln in links], dtype=np.intp)
        self.l_face = np.array([ln.left_face for ln in links], dtype=np.intp)
        self.b_elem = np.array([bf.element for bf in mesh.boundary], dtype=np.intp)
        self.b_face = np.array([bf.face for bf in mesh.boundary], dtype=np.intp)
        self._own = (Ellipsis, np.concatenate([self.l_face, self.b_face]),
                     np.concatenate([self.l_elem, self.b_elem]), slice(None), slice(None))
        self._n_own = self.normal[self._own]
        self._s_own = self.s_hat[self._own]
        # Neighbour side of every link, indexed on the owner's face grid.
        perm = np.empty((2, len(links), n1, n1), dtype=np.intp)
        for i, ln in enumerate(links):
            perm[:, i] = orientation_indices(ln.orient, n1)
        r_elem = np.array([ln.right for ln in links], dtype=np.intp)[:, None, None]
        r_face = np.array([ln.right_face for ln in links], dtype=np.intp)[:, None, None]
        self._nbr = (Ellipsis, r_face, r_elem, perm[0], perm[1])

        x_b = _face_stack(self.x)[:, self.b_face, self.b_elem]
        tags = [bf.tag for bf in mesh.boundary]
        boundary_states = boundary_states or {}
        self._ghosts = []
        for tag in sorted(set(tags)):
            if tag not in boundary_states:
                raise ValueError(f"mesh has Dirichlet faces tagged '{tag}' but no boundary state was registered")
            sel = np.array([bt == tag for bt in tags])
            self._ghosts.append((boundary_states[tag], sel, x_b[:, sel]))

    # -- face helpers --------------------------------------------------------

    def _ghost(self, t):
        """Exterior conservative states on all Dirichlet faces (5, nb, n, n)."""
        u_ext = np.empty((5, len(self.b_elem), self.n1, self.n1))
        for state, sel, x in self._ghosts:
            u_ext[:, sel] = state(x, t)
        return u_ext

    def _exterior(self, faces, ghost):
        """Outside traces (C..., nf, n, n) of the owner faces.

        Links take the neighbour's values of the (C..., 6, K, n, n) array
        ``faces`` permuted onto the owner grid; Dirichlet faces take
        ``ghost`` (C..., nb, n, n).
        """
        return np.concatenate([faces[self._nbr], ghost], axis=-3)

    def _to_faces(self, own, sign):
        """Owner-face values (C..., nf, n, n) in the (C..., 6, K, n, n) layout.

        The owner side gets ``own``; the neighbour side of every link gets
        ``sign`` times the owner value, permuted onto the neighbour grid.
        Every (element, face) is one of the two exactly once.
        """
        out = np.empty(own.shape[:-3] + (6, self.num_elements, self.n1, self.n1))
        out[self._own] = own
        out[self._nbr] = sign * own[..., :len(self.l_elem), :, :]
        return out

    def _surface_penalty(self, flux_star, flux_normal):
        """lift((F* - F_n) s_hat) as a (C, K, n, n, n) volume array.

        ``flux_star`` (C, nf, n, n) is the numerical normal flux on the owner
        faces; ``flux_normal`` (C, 6, K, n, n) is each side's own n . f.
        """
        star = self._to_faces(flux_star * self._s_own, -1.0)
        return _fold_faces((star - flux_normal * self.s_hat) / self.w0)

    # -- gradient lifting (BR1 auxiliary equation, strong form) --------------

    def lift_gradients(self, u, t=0.0):
        """Lifted gradients Q of the entropy variables.

        Solves the BR1 auxiliary equation in strong collocation form:
        J Q_d = sum_l Ja^l_d (D_l W) + lift((W* - W) n_d s_hat), with
        W* the arithmetic mean on links and the ghost value on Dirichlet
        faces.

        Returns:
            Q with shape (3, 5, K, n, n, n); Q[d] approximates dW/dx_d.
        """
        w = physics.entropy_variables(u, self.gas)
        q = np.einsum("ldKijk,lcKijk->dcKijk", self.ja, spectral.tensor_gradient(self.basis, w))
        wf = _face_stack(w)
        w_ext = self._exterior(wf, physics.entropy_variables(self._ghost(t), self.gas))
        w_star = 0.5 * (wf[self._own] + w_ext)
        nl = len(self.l_elem)
        w_star[..., nl:, :, :] = w_ext[..., nl:, :, :]
        jump = (self._to_faces(w_star, 1.0) - wf) / self.w0
        q += _fold_faces(np.einsum("dfKab,cfKab->dcfKab", self.normal, jump) * self.s_hat)
        q /= self.j
        return q

    # -- residual -------------------------------------------------------------

    def residual(self, u, t=0.0):
        """Semi-discrete right-hand side du/dt, shape (5, K, n, n, n)."""
        gas = self.gas
        uf = _face_stack(u)
        fstar = fluxes.surface_flux_advective(
            uf[self._own], self._exterior(uf, self._ghost(t)), self._n_own, gas,
            self.surface_dissipation)
        fn = _normal_component(self.normal, physics.advective_flux(uf, gas))
        rhs = -(split_divergence(u, self.ja, self.basis, self.volume_flux, gas)
                + self._surface_penalty(fstar, fn))

        if gas.viscous:
            fv = physics.viscous_flux_from_entropy_gradients(u, self.lift_gradients(u, t), gas)
            fvf = _face_stack(fv)
            fv_own = fvf[self._own]
            # Dirichlet faces take the interior trace as exterior: zero penalty.
            fv_ext = self._exterior(fvf, fv_own[..., len(self.l_elem):, :, :])
            fv_star = 0.5 * (_normal_component(self._n_own, fv_own)
                             + _normal_component(self._n_own, fv_ext))
            visc = spectral.tensor_divergence(
                self.basis, np.einsum("ldKijk,dcKijk->lcKijk", self.ja, fv))
            fvn = _normal_component(self.normal, fvf)
            rhs += (visc + self._surface_penalty(fv_star, fvn)) / gas.reynolds
        rhs /= self.j
        if self.source is not None:
            rhs = rhs + self.source(self.x, t, gas)
        return rhs

    # -- monitors and time stepping -------------------------------------------

    def totals(self, u):
        """Conserved totals sum_k <J U, 1>_N, one value per component."""
        w = self.basis.weights
        return np.einsum("cKijk,Kijk,i,j,k->c", u, self.j, w, w, w)

    def total_entropy(self, u):
        s = physics.entropy(u, self.gas)
        w = self.basis.weights
        return float(np.einsum("Kijk,Kijk,i,j,k->", s, self.j, w, w, w))

    def entropy_rate(self, u, rhs):
        """sum_k <J du/dt, W>_N: semi-discrete d/dt of the total entropy."""
        w_vars = physics.entropy_variables(u, self.gas)
        w = self.basis.weights
        return float(np.einsum("cKijk,cKijk,Kijk,i,j,k->", w_vars, rhs, self.j, w, w, w))

    def entropy_surface_scale(self, u):
        """Total surface quadrature of |f^S . n| s_hat: the entropy-flux scale."""
        fs = _face_stack(physics.entropy_flux(u, self.gas))
        fn = np.einsum("dfKab,dfKab->fKab", self.normal, fs)
        w = self.basis.weights
        return float(np.einsum("fKab,fKab,a,b->", np.abs(fn), self.s_hat, w, w))

    def timestep_estimate(self, u, cfl):
        """dt = CFL * min over nodes/directions of J / (lam_i |Ja^i|) / (N+1)^2.

        lam_i is |v.n_i| + c with n_i the unit contravariant direction, so
        J/(lam_i |Ja^i|) is the per-direction grid crossing time.  Advective
        estimate only.
        """
        if cfl <= 0.0:
            raise ValueError("CFL must be positive")
        rho, v, p = physics.primitive_from_conservative(u, self.gas)
        c = np.sqrt(self.gas.gamma * p / rho)
        worst = np.inf
        for i in range(3):
            ja_norm = np.sqrt(np.einsum("dKijk,dKijk->Kijk", self.ja[i], self.ja[i]))
            vn = np.abs(np.einsum("dKijk,dKijk->Kijk", self.ja[i], v)) / ja_norm
            local = self.j / (ja_norm * (vn + c))
            worst = min(worst, local.min())
        return cfl * worst / (self.basis.n + 1) ** 2

    def step(self, state, dt):
        """Advance a SolutionField by one RK step (positivity-checked)."""

        def rhs(u, t):
            try:
                return self.residual(u, t)
            except physics.PositivityError as err:
                raise physics.PositivityError(
                    f"positivity failure inside RK stage at t = {t:.6g}: {err}") from err

        u_new = rk_step(state.u, state.t, dt, rhs)
        return SolutionField(u_new, state.t + dt)

