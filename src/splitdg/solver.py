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
S has a zero diagonal (see ``split_divergence``), so the advective surface
term needs no physical flux on the face traces; the viscous term keeps the
strong/penalty form.
"""

import functools
import math

import numpy as np

from splitdg import fluxes, geometry, physics, spectral

# Byte budget of one pair array, (pairs, n, n) float64 per element, of an
# element block in split_divergence: 4 elements at N=7, 32 at N=4, 85 at N=3.
# A byte budget, not an element count, because the pair arrays grow like
# N^4: it keeps them cache-sized at every degree and the kernel's memory
# flat in K, while blocks of many low-degree elements keep the Python loop
# overhead small.  Swept over 16-256 KiB at N = 3, 4, 7 on 4^3 and 8^3
# boxes with the workspace in place: 16-32 KiB are slower everywhere;
# 128 KiB is up to 10-30 % faster at N = 4 and 7, but the workspace, about
# 18 pair arrays, doubles with it (+1.1-1.5 MiB peak RSS at 4^3).
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
    if not dt > 0.0:  # NaN fails too
        raise ValueError(f"dt must be positive, got {dt}")
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


class PairWorkspace:
    """Reusable flat float buffers of ``split_divergence``.

    ``reserve(*sizes)`` returns one buffer per size and keeps them while
    the sizes stay the same, so the pair arrays of every element block and
    axis live in the same memory from call to call.  New sizes (another
    state layout, degree or block budget) replace the buffers.  Fresh
    per-block pair arrays would be freed at the end of each block, trimmed
    by glibc and faulted back in as new pages by the next block, at a few
    microseconds per page.  The object is not thread-safe: one kernel call
    at a time may use it.
    """

    def __init__(self):
        self.sizes = None
        self.buffers = None

    def reserve(self, *sizes):
        if sizes != self.sizes:
            self.sizes = sizes
            self.buffers = tuple(np.empty(size) for size in sizes)
        return self.buffers


def _view(flat, shape, offset=0):
    """A C-contiguous view of the given shape into ``flat``, from ``offset`` on."""
    return flat[offset:offset + math.prod(shape)].reshape(shape)


def split_divergence(u, ja, basis, volume_flux, gas, work=None):
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
    The flux is linear in the direction, so it is evaluated with the sum
    Ja_i + Ja_m and scattered with weights D_im and D_mi, not with the
    average and 2 D: both factors are powers of two, so the result is
    the same bit for bit.  One (n, pairs) matrix scatters every pair flux
    to both of its ends, through ``spectral.apply_along``.

    The flux is prepared once for all elements, so a positivity failure
    names the global element.  The pairs are then gathered, evaluated and
    scattered one block of ``PAIR_BLOCK_BYTES`` at a time, in the buffers
    of ``work`` (a call-local ``PairWorkspace`` when None).  Every operation
    acts element by element, so the result is bitwise independent of the
    block size.

    Args:
        u: states (5, K, n, n, n).
        ja: contravariant vectors (3, 3, K, n, n, n) (curl form for the
            free-stream/entropy properties to hold).
        volume_flux: a two-point flux object of ``fluxes.VOLUME_FLUXES``;
            only its ``prepare``/``evaluate`` contract is used.
        work: a ``PairWorkspace`` to reuse, or None.

    Returns:
        (5, K, n, n, n) array.
    """
    d = basis.D
    n = len(d)
    left, right = np.triu_indices(n, 1)
    npairs = len(left)
    scatter = np.zeros((n, npairs))
    pairs = np.arange(npairs)
    scatter[left, pairs] = d[left, right]
    scatter[right, pairs] = d[right, left]

    state = volume_flux.prepare(u, gas)
    leads = [a.shape[:-4] for a in state]
    # Every prepared array as (rows, K, n, n, n), like ja[axis].
    state_rows = [a.reshape((-1,) + a.shape[-4:]) for a in state]
    out = np.zeros_like(u)
    num_elements = u.shape[1]
    step = min(num_elements, max(1, PAIR_BLOCK_BYTES // (npairs * n * n * 8)))
    if work is None:
        work = PairWorkspace()
    pair_size = step * npairs * n * n
    buffers = work.reserve(
        max(2 * sum(len(rows) for rows in state_rows) * pair_size, physics.NVAR * step * n**3),
        3 * pair_size, physics.NVAR * pair_size)
    layouts = {}
    for start in range(0, num_elements, step):
        block = slice(start, start + step)
        count = min(step, num_elements - start)
        for axis in range(3):
            line = axis - 3
            if (count, axis) not in layouts:
                layouts[count, axis] = _block_layout(buffers, leads, count, axis, n, npairs)
            lefts, rights, direction, ja_right, flux, prod = layouts[count, axis]
            for rows, l_buf, r_buf in zip(state_rows, lefts, rights):
                _take_rows(rows, block, left, line, l_buf)
                _take_rows(rows, block, right, line, r_buf)
            _take_rows(ja[axis], block, left, line, direction)
            direction += _take_rows(ja[axis], block, right, line, ja_right)
            f = volume_flux.evaluate(lefts, rights, direction, gas, out=flux)
            out[:, block] += spectral.apply_along(scatter, f, axis, prod)
    return out


def _block_layout(buffers, leads, count, axis, n, npairs):
    """The workspace's views for a block of ``count`` elements along ``axis``.

    Returns the left and right gathers of every prepared array (its leading
    shape, then the block's pair shape), the pair direction and the right
    ``Ja`` gather (3, pair shape), the flux rows (5, pair shape), and the
    scatter product (5, count, n, n, n).  The right ``Ja`` gather lives in
    the flux rows, which ``evaluate`` overwrites only after reading the
    direction, and the product lives in the gathers, spent by then.
    """
    gather, ja_left, flux = buffers
    shape = [count, n, n, n]
    shape[axis + 1] = npairs
    shape = tuple(shape)
    sides, offset = [], 0
    for lead in leads * 2:
        sides.append(_view(gather, lead + shape, offset))
        offset += sides[-1].size
    return (sides[:len(leads)], sides[len(leads):], _view(ja_left, (3,) + shape),
            _view(flux, (3,) + shape), _view(flux, (physics.NVAR,) + shape),
            _view(gather, (physics.NVAR, count, n, n, n)))


def _take_rows(rows, block, index, line, out):
    """Gather ``rows[r, block]`` at ``index`` along axis ``line`` into ``out[r]``.

    One row at a time: the block of one row is contiguous, and take copies
    a non-contiguous input first.  mode="clip" writes straight into
    ``out``, where the default "raise" goes through a temporary; the
    indices are always in range.
    """
    for src, dst in zip(rows, out.reshape((-1,) + out.shape[-4:])):
        src[block].take(index, axis=line, out=dst, mode="clip")
    return out


class DGSolver:
    """Split-form DGSEM semi-discretization on a conforming curvilinear mesh.

    The geometry arrays (``x``, ``ja``, ``j``, ``s_hat``, ``normal``) and
    the owner/neighbour face indices are the mesh's own, computed once per
    mesh.  Faces are handled by one pipeline.  The owner faces are the left
    sides of all mesh links (elements ``l_elem``) followed by all Dirichlet
    faces (elements ``b_elem``); a Dirichlet face is a one-sided link whose
    exterior trace is the ghost state.  Owner-face arrays have shape
    (C..., nf, n, n).  ``_exterior`` supplies the outside trace of every
    owner face (the neighbour's values permuted onto the owner grid, then
    the ghost values of the Dirichlet faces).  Each numerical flux is
    evaluated once per owner face with the owner's normal and surface
    element, and ``_to_faces`` writes it to the owner side and,
    sign-flipped and permuted onto the neighbour grid, to the neighbour
    side, so conservation telescopes bitwise across links.

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
        self.residual_evals = 0  # calls of residual, for the run's cost report

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

    # The volume kernel's pair buffers, kept across residuals; sized on the
    # first call.
    @functools.cached_property
    def _pair_work(self):
        return PairWorkspace()

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
        self.residual_evals += 1
        gas = self.gas
        # The volume term first: its positivity check names (element, i, j, k).
        div = split_divergence(u, self.ja, self.basis, self.volume_flux, gas, self._pair_work)
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

    def timestep_estimate(self, u, cfl):
        """dt = CFL * min over nodes/directions of J / (lam_i |Ja^i|) / (N+1)^2.

        lam_i is |v.n_i| + c with n_i the unit contravariant direction, so
        J/(lam_i |Ja^i|) is the per-direction grid crossing time.  Advective
        estimate only.
        """
        if not cfl > 0.0:
            raise ValueError(f"CFL must be positive, got {cfl}")
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

