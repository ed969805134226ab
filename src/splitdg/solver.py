"""Semi-discrete split-form DGSEM residual, BR1 lifting, and time integration.

Layouts: conservative states live in arrays of shape (5, K, n1, n1, n1) with
the component axis first, the element axis second, and (i, j, k) <->
(xi, eta, zeta) tensor indices last (n1 = N+1).  Face data use the same
component-first layout, (C..., 6, K, n1, n1): the face index of
:mod:`splitdg.geometry` in front of the element axis and the two face-grid
indices last.  Entropy monitors, conserved totals, and the explicit RK
driver operate on the volume layout.

The residual is

    du/dt = -(1/J) [ S.F# + lift(F*_n s_hat) ]
            + (1/(Re J)) [ D_std.F~v + lift((F^{v,*}_n - F^v_n) s_hat) ]

with the two-point flux-differencing divergence S.F# of the split operator
S = 2D - B W^{-1}, the standard nodal divergence D_std for the viscous
contravariant fluxes, and surface liftings scaled by 1/w_0 at the face nodes.
S has a zero diagonal: it is the strong form 2D.F# + lift(-F_n s_hat) with
the end-node terms, which cancel exactly, left out, so the advective surface
term needs no physical flux on the face traces.  The viscous term keeps the
strong/penalty form.

All faces go through one pipeline.  The owner faces are the left sides of
all mesh links followed by all Dirichlet faces; a Dirichlet face is a
one-sided link whose exterior trace is the ghost state.  Each numerical
flux is evaluated once per owner face with the owner's normal and surface
element, then written to the owner side and, sign-flipped and permuted onto
the neighbour grid, to the neighbour side, so conservation telescopes
bitwise across links.  The mesh guarantees that every (element, face) is
an owner or a neighbour exactly once, so this is plain index assignment.

The flux-differencing volume kernel loops over blocks of consecutive
elements: its pair arrays are (pairs, n, n) per element and direction, so
they are built one block at a time, the block sized by the byte budget
``PAIR_BLOCK_BYTES`` of one pair array.  A byte budget, not an element
count, because the pair arrays grow like N^4: it keeps the temporaries
cache-sized at every degree and the kernel's memory flat in K, while blocks
of many low-degree elements keep the Python loop overhead small.  The other
volume terms are vectorized over all elements and the interface kernels over
all faces.  There are no data dependencies between elements within a stage,
every kernel operation acts element by element, and the fixed numpy
reduction order makes results reproducible run to run and independent of
the block size.
"""

import functools

import numpy as np

from splitdg import fluxes, geometry, physics, spectral

# Byte budget of one pair array, (pairs, n, n) float64 per element, of an
# element block in split_divergence: 4 elements at N=7, 32 at N=4, 85 at N=3.
# The best or near-best of 32-128 KiB at N = 3, 4, 7 with a 2 MiB L2 cache.
PAIR_BLOCK_BYTES = 64 * 1024

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
    """Per-element nodal conservative states and the simulation time.

    ``rhs`` is du/dt at (u, t) once a step from this field has evaluated it
    as its first RK stage, else None.
    """

    def __init__(self, u, t=0.0):
        self.u = np.asarray(u, dtype=float)
        self.t = float(t)
        self.rhs = None


def _normal_component(normal, flux):
    """n . f for a (3, ...) normal and a (3, C, ...) flux; shape (C, ...)."""
    return np.einsum("d...,dc...->c...", normal, flux)


def split_divergence(u, ja, basis, volume_flux, gas):
    """Two-point flux-differencing divergence (not yet divided by J).

    Implements, per node and per reference direction, the sums
    sum_m S_im F#(U_i.., U_m..) . <Ja^dir>_(i,m) of the split operator
    S = 2D - B W^{-1}, with arithmetic averaging of the volume-weighted
    contravariant vectors.  By the SBP property Q + Q^T = B, D_ii =
    B_ii / (2 w_i), so S has a zero diagonal.  The diagonal of 2D would
    add the end-node terms +-f(U_i) . Ja_i / w_i, which the -F_n part of
    the strong-form surface penalty cancels exactly (n s_hat = +-Ja at the
    end nodes); the residual forms neither, and its advective surface term
    is lift(F* s_hat) alone.  F# is symmetric, so the directional flux is
    evaluated once per unique pair m > i of each line, N(N+1)/2 per line.
    One (n, pairs) matrix scatters every pair flux to both of its ends
    with weights 2 D_im and 2 D_mi.

    The flux is prepared once for all elements, so a positivity failure
    names the global element.  The pair arrays are then built block by
    block: each block of consecutive elements gathers its pairs from views
    of the prepared arrays and of ``ja``, evaluates them, and adds into its
    own slice of the output.  A block holds as many elements as fit one
    (pairs, n, n) float array per element into ``PAIR_BLOCK_BYTES`` (at
    least one).  The budget is in bytes because the pair arrays grow like
    N^4: the temporaries stay cache-sized at every degree and do not grow
    with K.  Every operation acts element by element, so the result is
    bitwise independent of the block size.

    Args:
        u: states (5, K, n, n, n).
        ja: contravariant vectors (3, 3, K, n, n, n) (curl form for the
            free-stream/entropy properties to hold).
        volume_flux: a two-point flux object of ``fluxes.VOLUME_FLUXES``;
            only its ``prepare``/``evaluate`` contract is used.

    Returns:
        (5, K, n, n, n) array.
    """
    d = basis.D
    n = len(d)
    left, right = np.triu_indices(n, 1)
    scatter = np.zeros((n, len(left)))
    pairs = np.arange(len(left))
    scatter[left, pairs] = 2.0 * d[left, right]
    scatter[right, pairs] = 2.0 * d[right, left]

    state = volume_flux.prepare(u, gas)
    out = np.zeros_like(u)
    num_elements = u.shape[1]
    step = max(1, PAIR_BLOCK_BYTES // (len(left) * n * n * 8))
    for start in range(0, num_elements, step):
        block = slice(start, start + step)
        # The element axis is fourth from the end of every prepared array.
        part = tuple(a[..., block, :, :, :] for a in state)
        for axis in range(3):
            line = axis - 3
            ja_axis = ja[axis][:, block]
            f = volume_flux.evaluate(
                tuple(a.take(left, axis=line) for a in part),
                tuple(a.take(right, axis=line) for a in part),
                0.5 * (ja_axis.take(left, axis=line) + ja_axis.take(right, axis=line)), gas)
            out[:, block] += np.moveaxis(np.tensordot(scatter, f, axes=(1, line)), 0, line)
    return out


class DGSolver:
    """Split-form DGSEM semi-discretization on a conforming curvilinear mesh.

    The geometry arrays (``x``, ``ja``, ``j``, ``s_hat``, ``normal``) and
    the owner/neighbour face indices are the mesh's own, computed once per
    mesh.  Faces are handled by one pipeline.  The owner faces are the left
    sides of all mesh links (elements ``l_elem``) followed by all Dirichlet
    faces (elements ``b_elem``); owner-face arrays have shape
    (C..., nf, n, n).
    ``_exterior`` supplies the outside trace of every owner face (the
    neighbour's values permuted onto the owner grid, then the ghost values
    of the Dirichlet faces), and ``_to_faces`` returns owner-face results
    to the (C..., 6, K, n, n) face layout of the volume arrays.

    Args:
        mesh: MeshTopology (its curl-form metrics give the discrete
            free-stream and entropy invariants).
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

        self.num_elements = mesh.num_elements
        self.n1 = mesh.basis.n + 1
        # The mesh geometry, shared; face data in the (C..., 6, K, n, n) layout.
        self.x, self.ja, self.j = mesh.x, mesh.ja, mesh.j
        self.s_hat, self.normal = mesh.s_hat, mesh.normal
        self.w0 = mesh.basis.weights[0]  # = weights[-1]; surface lifting scale
        self.l_elem, self.b_elem = mesh.l_elem, mesh.b_elem
        self._own, self._nbr = mesh.own, mesh.nbr
        self._n_own = self.normal[self._own]
        self._s_own = self.s_hat[self._own]

        x_b = geometry.face_stack(self.x)[:, mesh.b_face, self.b_elem]
        tags = [bf.tag for bf in mesh.boundary]
        boundary_states = boundary_states or {}
        self._ghosts = []
        for tag in sorted(set(tags)):
            if tag not in boundary_states:
                raise ValueError(f"mesh has Dirichlet faces tagged '{tag}' but no boundary state was registered")
            sel = np.array([bt == tag for bt in tags])
            self._ghosts.append((boundary_states[tag], sel, x_b[:, sel]))

    # -- face helpers --------------------------------------------------------

    # Face factors of the viscous terms, (3, 6, K, n, n), built on first use.
    @functools.cached_property
    def _lift_normal(self):
        """BR1 lifting factor n s_hat / w0 of every face node."""
        return self.normal * self.s_hat / self.w0

    @functools.cached_property
    def _link_normal(self):
        """The owner's normal on both sides of every link; a Dirichlet face's own."""
        return self._to_faces(self._n_own, 1.0)

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

    def _surface_penalty(self, flux_star, flux_normal=None):
        """lift((F* - F_n) s_hat) as a (C, K, n, n, n) volume array.

        ``flux_star`` (C, nf, n, n) is the numerical normal flux on the owner
        faces; ``flux_normal`` (C, 6, K, n, n) is each side's own n . f.
        Without ``flux_normal`` this is lift(F* s_hat), the advective term
        next to the zero-diagonal split operator.
        """
        star = self._to_faces(flux_star * self._s_own, -1.0)
        if flux_normal is not None:
            star -= flux_normal * self.s_hat
        star /= self.w0
        return geometry.fold_faces(star)

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
        wf = geometry.face_stack(w)
        w_ext = self._exterior(wf, physics.entropy_variables(self._ghost(t), self.gas))
        w_star = 0.5 * (wf[self._own] + w_ext)
        nl = len(self.l_elem)
        w_star[..., nl:, :, :] = w_ext[..., nl:, :, :]
        jump = self._to_faces(w_star, 1.0) - wf
        for face in range(6):
            q[geometry.face_slice(face)] += self._lift_normal[:, None, face] * jump[:, face]
        q /= self.j
        return q

    # -- residual -------------------------------------------------------------

    def residual(self, u, t=0.0):
        """Semi-discrete right-hand side du/dt, shape (5, K, n, n, n)."""
        gas = self.gas
        # The volume term first: its positivity check names (element, i, j, k).
        div = split_divergence(u, self.ja, self.basis, self.volume_flux, gas)
        uf = geometry.face_stack(u)
        fstar = fluxes.surface_flux_advective(
            uf[self._own], self._exterior(uf, self._ghost(t)), self._n_own, gas,
            self.surface_dissipation)
        # Sums in place: every fresh volume temporary costs page faults.
        rhs = self._surface_penalty(fstar)
        rhs += div
        np.negative(rhs, out=rhs)

        if gas.viscous:
            fv = physics.viscous_flux_from_entropy_gradients(u, self.lift_gradients(u, t), gas)
            # n . F^v on every face, one face trace of F^v at a time: with
            # each side's own normal (fvn) and with the owner's normal of its
            # link (fvl).  Contracting a contiguous copy of the trace takes half
            # the time of contracting the strided view.
            shape = (physics.NVAR, 6, self.num_elements, self.n1, self.n1)
            fvn, fvl = np.empty(shape), np.empty(shape)
            for face in range(6):
                trace = np.ascontiguousarray(fv[geometry.face_slice(face)])
                fvn[:, face] = _normal_component(self.normal[:, face], trace)
                fvl[:, face] = _normal_component(self._link_normal[:, face], trace)
            fv_own = fvl[self._own]
            # Dirichlet faces take the interior trace as exterior: zero penalty.
            fv_star = 0.5 * (fv_own + self._exterior(fvl, fv_own[..., len(self.l_elem):, :, :]))
            visc = spectral.tensor_divergence(
                self.basis, np.einsum("ldKijk,dcKijk->lcKijk", self.ja, fv))
            visc += self._surface_penalty(fv_star, fvn)
            visc /= gas.reynolds
            rhs += visc
        rhs /= self.j
        if self.source is not None:
            rhs += self.source(self.x, t, gas)
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
        fs = geometry.face_stack(physics.entropy_flux(u, self.gas))
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
        """Advance a SolutionField by one RK step (positivity-checked).

        The first RK stage is the residual of ``state`` itself; it is kept
        in ``state.rhs`` for the caller's monitors.  A positivity failure
        names the stage and its time.
        """
        stage = 0

        def rhs(u, t):
            nonlocal stage
            stage += 1
            try:
                r = self.residual(u, t)
            except physics.PositivityError as err:
                raise physics.PositivityError(
                    f"positivity failure in RK stage {stage} of {len(RK_A)} "
                    f"at t = {t:.6g}: {err}") from err
            if stage == 1:
                state.rhs = r
            return r

        u_new = rk_step(state.u, state.t, dt, rhs)
        return SolutionField(u_new, state.t + dt)

