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

A residual runs in phases, one after the other in one workspace that the
solver keeps.  The volume term runs over element blocks.  The advective
face phase runs over chunks of owner faces: each chunk's own and outside
traces, which the surface flux F* turns into primitives in place, F* and
its dissipation, then F* s_hat on the owner faces; after the last chunk
F* s_hat goes to both sides of every link and is lifted, face by face,
into the volume term's output.  The viscous terms follow in three passes,
on the four entropy variables w_2..w_5 that F^v reads (its mass column is
zero, so w_1 is never formed): the BR1 lifting jump over all faces; one
element-block loop that forms the lifted gradients Q, the viscous flux
F^v, its contravariant form and divergence, and its face traces, each
block's into its own spent slice of the jump; and the viscous penalty over
all faces.  So no (3, 4, K, n1, n1, n1) array of Q or F^v and no
whole-face array is ever allocated afresh: a warm residual allocates its
result, the volume flux's prepared state, the ghost states and a few
scratch rows per block.  A source term adds its forcing into the result in
place, through rows of its own (``cases.ManufacturedWave``: two), not
through a state-sized array.

After set-up a run holds the mesh's x, Ja and J, its owner faces'
normals and surface elements and the solver's flat face indices, 3.2-4.3
times the state's size on the benchmark's configurations.  The full-face
normal and s_hat (checked for degenerate faces when the mesh is built)
and the neighbour permutation grids (read once for the flat indices) are
set-up transients; ``verify`` and ``mesh audit`` build them again on
demand.

Every phase fits in the memory that the largest one needs anyway.  The
face chunks are sized from what the workspace already holds, at least the
volume kernel's reservation, so on an inviscid mesh the kernel sets the
workspace's size.  The viscous blocks are capped at K // n1 elements,
so that their two block buffers of 12 rows fit in the four-row two-sided
face array of the lifting jump that they follow; the viscous path then
holds W, the jump and that region, 3.2 times the state's size at N=3 and
2.0 at N=7.

Time integration is the method of lines: ``rk_step`` takes the five-stage
low-storage RK4 of Carpenter and Kennedy (NASA TM-109112, 1994) from
(u, t) to (u_new, r1), with r1 = du/dt at (u, t), its first stage, which
the caller's monitors read; ``DGSolver.step`` runs it on the residual and
writes into nothing it is given.  A step adds only the new state, its
register and r1: each later stage's residual is overwritten with its RK
products and dropped before the next stage, so a warm step's fresh memory
peaks at 5.2-5.5 times the state's on the benchmark's configurations.
"""

import functools
import itertools
import math

import numpy as np

from splitdg import fluxes, geometry, physics, spectral

# Byte budget of one float64 row of an element block: the (pairs, n, n)
# row of a pair array in split_divergence, the (n, n, n) row of a nodal
# field in the viscous block loop, the (n, n) row of one face in the
# advective face phase's chunks.  A byte budget, not an element count,
# because the per-element rows grow like N^4 and N^3: it keeps the block
# arrays cache-sized at every degree and the memory flat in K, while blocks
# of many low-degree elements keep the Python loop overhead small.  Smaller
# budgets are slower; larger ones gain nothing that holds up, and the
# workspace, and with it a run's peak memory, grows with the block.
PAIR_BLOCK_BYTES = 64 * 1024


def _block_elements(num_elements, row_size):
    """Elements per block: a float64 row of ``row_size`` values per element within the budget."""
    return min(num_elements, max(1, PAIR_BLOCK_BYTES // (8 * row_size)))


def _blocks(num_elements, step):
    """Slices of the element axis, ``step`` elements each; the last may be short."""
    return [slice(start, start + step) for start in range(0, num_elements, step)]


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
    """One five-stage low-storage RK4 step of du/dt = rhs(u, t).

    Returns (u_new, r1): the state at t + dt and the array that ``rhs``
    returned for the first stage, du/dt at (u, t), which the step leaves
    intact.  Advances a private copy of ``u`` in place, with the operations
    of g = a g + dt r, u = u + b g in the same order, so the result is the
    same bit for bit; ``u`` itself is left unchanged.  The first stage
    allocates the register g and b g.  The array returned for each of
    stages 2-5 is overwritten, first with dt r, then with b g, and dropped
    before the next stage, so a stage holds the copy of u, g, r1 and its
    own array.
    """
    if not dt > 0.0:  # NaN fails too
        raise ValueError(f"dt must be positive, got {dt}")
    u = np.array(u, dtype=float)
    r1 = g = None
    for a, b, c in zip(RK_A, RK_B, RK_C):
        r = rhs(u, t + c * dt)
        if g is None:
            r1 = r
            g = dt * r
            r = b * g
        else:
            r = np.asarray(r)  # a 0-d right-hand side may return a numpy scalar
            r *= dt
            g *= a
            g += r
            np.multiply(g, b, out=r)
        u += r
        del r
    return u, r1


class Workspace:
    """Reusable flat float buffers of the residual's phases.

    ``reserve(*sizes)`` returns one flat buffer per size, carved in order
    from one kept allocation, which is replaced only when the sizes
    outgrow it.  The volume kernel, the advective face phase and the
    viscous path run one after the other in a residual and each reserves
    its own layout, so they share that memory, the largest phase sets its
    size, and the arrays of every block, chunk and residual live in the
    same pages from call to call.  Fresh per-block arrays would be freed
    at the end of each block, trimmed by glibc and faulted back in as new
    pages by the next block, at a few microseconds per page.  ``sizes`` is
    the last request, each size rounded up to whole cache lines.  The
    object is not thread-safe: one caller at a time may use it.

    Every buffer starts on a 64-byte cache line: the allocation is aligned
    (``spectral.aligned_array``) and each buffer takes whole lines
    (``whole_lines``), and the phases cut their views at whole lines too
    (``_cut``), the work pairs of ``spectral.tensor_divergence`` and
    ``fluxes.surface_flux_advective`` included.  So this module is the one
    place that computes cache-line offsets.  numpy's own large allocations
    start 16 bytes into a line, and a streaming ufunc such as a multiply or
    an in-place add runs faster on aligned operands; one bound by compute,
    such as a divide, does not move.  Page alignment was no faster than
    whole lines.

    ``views`` keeps views into the allocation that a phase cuts the same
    way on every call, under a key that fixes its layout: the volume
    kernel's block views, keyed by degree, block size and the prepared
    state's leading shapes (``split_divergence``).  A request under the
    same key gets the same offsets, so the views stay valid while the
    allocation does; ``reserve`` drops them all when it replaces the
    allocation, so that they never pin a replaced one.
    """

    def __init__(self):
        self.sizes = ()
        self.flat = np.empty(0)
        self.views = {}

    def reserve(self, *sizes):
        self.sizes = tuple(whole_lines(size) for size in sizes)
        if sum(self.sizes) > self.flat.size:
            self.flat, self.views = spectral.aligned_array((sum(self.sizes),)), {}
        starts = itertools.accumulate(self.sizes, initial=0)
        return tuple(self.flat[start:start + size] for size, start in zip(sizes, starts))


def whole_lines(size):
    """``size`` doubles rounded up to whole 64-byte cache lines."""
    return -(-size // spectral.LINE) * spectral.LINE


def _view(flat, shape, offset=0):
    """A C-contiguous view of the given shape into ``flat``, from ``offset`` on."""
    return flat[offset:offset + math.prod(shape)].reshape(shape)


def _cut(flat, *shapes):
    """Consecutive C-contiguous views of the given shapes into ``flat``, each from a whole cache line."""
    views, offset = [], 0
    for shape in shapes:
        views.append(_view(flat, shape, offset))
        offset += whole_lines(views[-1].size)
    return views


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
    the same bit for bit.  One (pairs, n) matrix with two ones per row
    forms every pair's Ja_i + Ja_m from the block's Ja, and one (n, pairs)
    matrix scatters every pair flux to both of its ends, each through
    ``spectral.apply_along`` (the basis's ``pairs``, built once per
    degree by ``spectral.pair_operators``).  The sum is the
    gathered one bit for bit: each row has two non-zero terms, so the
    matmul adds only exact zeros to Ja_i + Ja_m (a sum of two -0.0 would
    come out +0.0; the metrics of the box meshes hold none).  It replaces
    two ``take`` gathers and an add per block, and is faster than they are
    on every axis.

    The flux is prepared once for all elements, so a positivity failure
    names the global element.  The pairs are then gathered, evaluated and
    scattered one block of ``PAIR_BLOCK_BYTES`` at a time, in the buffers
    of ``work`` (a call-local ``Workspace`` when None), each view on whole
    cache lines, and so is the result.  Every operation acts element by
    element, so the result is bitwise independent of the block size.  The
    block views (``_block_layout``, one set per block length and axis) are
    kept in ``work.views`` under the degree, the block size and the
    prepared state's leading shapes, so a warm call cuts none; they are
    cut again when one of these changes or when the workspace replaces its
    allocation, which drops them.

    Args:
        u: states (5, K, n, n, n).
        ja: contravariant vectors (3, 3, K, n, n, n) (curl form for the
            free-stream/entropy properties to hold).
        volume_flux: a two-point flux object of ``fluxes.VOLUME_FLUXES``;
            only its ``prepare``/``evaluate`` contract is used.
        work: a ``Workspace`` to reuse, or None.

    Returns:
        (5, K, n, n, n) array.
    """
    n = len(basis.D)
    left, right, select, scatter = basis.pairs
    npairs = len(left)

    state = volume_flux.prepare(u, gas)
    leads = [a.shape[:-4] for a in state]
    # Every prepared array as (rows, K, n, n, n), like ja[axis].
    state_rows = [a.reshape((-1,) + a.shape[-4:]) for a in state]
    out = spectral.aligned_array(u.shape, np.zeros)
    num_elements = u.shape[1]
    step = _block_elements(num_elements, npairs * n * n)
    if work is None:
        work = Workspace()
    pair_size = step * npairs * n * n
    buffers = work.reserve(
        max(2 * sum(whole_lines(len(rows) * pair_size) for rows in state_rows),
            physics.NVAR * step * n**3),
        3 * pair_size, physics.NVAR * pair_size)
    layouts = work.views.setdefault((n, step, *leads), {})
    for block in _blocks(num_elements, step):
        count = min(step, num_elements - block.start)
        for axis in range(3):
            line = axis - 3
            if (count, axis) not in layouts:
                layouts[count, axis] = _block_layout(buffers, leads, count, axis, n, npairs)
            lefts, rights, direction, flux, prod = layouts[count, axis]
            for rows, l_buf, r_buf in zip(state_rows, lefts, rights):
                _take_rows(rows, block, left, line, l_buf)
                _take_rows(rows, block, right, line, r_buf)
            spectral.apply_along(select, ja[axis][:, block], axis, direction)
            f = volume_flux.evaluate(lefts, rights, direction, gas, out=flux)
            out[:, block] += spectral.apply_along(scatter, f, axis, prod)
    return out


def _block_layout(buffers, leads, count, axis, n, npairs):
    """The workspace's views for a block of ``count`` elements along ``axis``.

    Returns the left and right gathers of every prepared array (its leading
    shape, then the block's pair shape), each from a whole cache line, the
    pair direction (3, pair shape), the flux rows (5, pair shape), and the
    scatter product (5, count, n, n, n), which lives in the gathers, spent
    by then.
    """
    gather, direction, flux = buffers
    shape = [count, n, n, n]
    shape[axis + 1] = npairs
    shape = tuple(shape)
    sides = _cut(gather, *(lead + shape for lead in leads * 2))
    return (sides[:len(leads)], sides[len(leads):], _view(direction, (3,) + shape),
            _view(flux, (physics.NVAR,) + shape), _view(gather, (physics.NVAR, count, n, n, n)))


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

    The geometry is the mesh's own, computed once per mesh: the volume
    arrays ``x``, ``ja`` and ``j``, and the owner faces' normals and
    surface elements ``mesh.n_own`` and ``mesh.s_own``, the only face
    geometry that a residual reads.  Of the face connectivity the solver
    keeps flat node indices only, built once from the mesh's ``own`` and
    ``nbr``.  Faces are handled by one pipeline.  The owner faces are the
    left sides of all mesh links (elements ``l_elem``) followed by all
    Dirichlet faces (elements ``b_elem``); a Dirichlet face is a one-sided
    link whose exterior trace is the ghost state.  Owner-face arrays have shape
    (C..., nf, n, n).  ``_traces`` gathers the own and the outside trace
    of any slice of the owner faces (the neighbour's values permuted onto
    the owner grid, then the ghost values of the Dirichlet faces).  Each
    numerical flux is evaluated once per owner face with the owner's normal
    and surface element, and ``_to_faces`` writes it to the owner side and,
    sign-flipped and permuted onto the neighbour grid, to the neighbour
    side, so conservation telescopes bitwise across links.

    The solver owns one ``Workspace``, ``_work``.  In every residual the
    volume kernel's pair arrays, then the advective face phase's arrays
    (each chunk's traces and surface-flux rows, F* s_hat on both sides of
    every face) and then the viscous path's arrays (the lifting jump on
    all faces, whose last volume-sized row is first the scratch of W's
    primitives, and which each block overwrites with its n . F^v traces
    once spent; the four entropy variables w_2..w_5; and a four-row face
    region that holds the jump's two-sided array, then two block buffers,
    then the penalty) are views of its memory, so a warm residual
    allocates none of them afresh.

    Args:
        mesh: MeshTopology (its curl-form metrics give the discrete
            free-stream and entropy invariants).
        gas: GasModel; ``gas.reynolds is None`` disables all viscous terms.
        volume_flux: "ec" or "central".
        surface_dissipation: "none" or "llf".
        boundary_state: callable(x, t, gas) -> (5, ...) exterior conservative
            state of every Dirichlet face, whatever its tag; x has shape
            (3, ...).  Called only when the mesh has Dirichlet faces, and
            then required.
        source: optional callable(x, t, gas, out) that adds a forcing into
            du/dt, ``out`` (5, K, n, n, n), in place, after the division by
            J (manufactured-solution machinery); its return value is
            ignored.
    """

    def __init__(self, mesh, gas, volume_flux="ec", surface_dissipation="llf",
                 boundary_state=None, source=None):
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
        # The mesh geometry, shared.
        self.x, self.ja, self.j = mesh.x, mesh.ja, mesh.j
        self.w0 = mesh.basis.weights[0]  # = weights[-1]; surface lifting scale
        self.l_elem, self.b_elem = mesh.l_elem, mesh.b_elem
        # The same faces as flat node indices, for one-index gathers.  Into
        # the trailing (K, n, n, n) axes of a volume array: the node of every
        # owner-face node and of every link's neighbour node.  Into a
        # two-sided face array (see ``_to_faces``): the entry that every
        # (6, K, n, n) face node copies, its own on the owner side, the
        # link's neighbour-side entry on the neighbour side.
        n1, num_elements, own, nbr = self.n1, self.num_elements, mesh.own, mesh.nbr
        nodes = np.arange(6 * num_elements * n1**2).reshape(6, num_elements, n1, n1)
        sides = np.concatenate([nodes[own].ravel(), nodes[nbr].ravel()])
        self._from_own = np.empty_like(sides)
        self._from_own[sides] = np.arange(sides.size)
        volume_nodes = geometry.face_stack(np.arange(num_elements * n1**3).reshape(num_elements, n1, n1, n1))
        self._own_volume, self._nbr_volume = volume_nodes[own].ravel(), volume_nodes[nbr].ravel()

        if len(self.b_elem) and boundary_state is None:
            raise ValueError("mesh has Dirichlet faces but no boundary state was given")
        self.boundary_state = boundary_state
        self._x_b = geometry.face_stack(self.x)[:, mesh.b_face, self.b_elem]

    # -- face helpers --------------------------------------------------------

    # The buffers of the volume kernel and the viscous path, kept across
    # residuals; sized on the first call.
    @functools.cached_property
    def _work(self):
        return Workspace()

    # Every (6, K, n, n) face node's node across its link, flat; a Dirichlet
    # face node is its own.  Read off ``_from_own``: the face node of each
    # two-sided entry, the links' owner sides first, their neighbour sides
    # last.  Only the viscous penalty gathers by it, so only a viscous
    # solver builds it, on its first residual.
    @functools.cached_property
    def _partner(self):
        node = np.empty_like(self._from_own)
        node[self._from_own] = np.arange(node.size)
        own, nbr = node[:self._nbr_volume.size], node[self._own_volume.size:]
        partner = np.arange(node.size)
        partner[own], partner[nbr] = nbr, own
        return partner

    def _ghost(self, t):
        """Exterior conservative states on all Dirichlet faces (5, nb, n, n)."""
        if not len(self.b_elem):
            return np.empty((5, 0, self.n1, self.n1))
        return self.boundary_state(self._x_b, t, self.gas)

    def _traces(self, vol, ghost, faces, own, ext):
        """Own and outside traces of the owner faces ``faces`` (a slice).

        ``vol`` is a (C, K, n, n, n) volume array; the traces go to ``own``
        and ``ext``, C-contiguous (C, count, n, n).  Links take the
        neighbour's values, permuted onto the owner grid; Dirichlet faces
        take ``ghost`` (C, nb, n, n).  One component row at a time, so every
        ``take`` writes a contiguous row.
        """
        start, stop, _ = faces.indices(len(self.mesh.s_own))
        links, n2 = len(self.l_elem), self.n1**2
        inside = max(0, min(stop, links) - start)  # link faces of the slice
        for row, own_row, ext_row in zip(vol.reshape(len(vol), -1), own.reshape(len(own), -1),
                                         ext.reshape(len(ext), -1)):
            row.take(self._own_volume[start * n2:stop * n2], out=own_row, mode="clip")
            row.take(self._nbr_volume[start * n2:(start + inside) * n2],
                     out=ext_row[:inside * n2], mode="clip")
        ext[:, inside:] = ghost[:, max(start, links) - links:max(stop, links) - links]

    def _to_faces(self, two, out):
        """Face values (C, 6, K, n, n) from a two-sided owner array, into ``out``.

        ``two`` is (C, 6 K n n): the owner faces' values, (C, nf, n, n)
        flattened, then room for the neighbour side of every link in the
        owner's order.  This fills that room with minus the link's owner
        value, and the gather by ``_from_own`` puts every (element, face)
        node's own entry in place, permuted onto the neighbour grid on the
        neighbour side.  Every (element, face) is an owner or a neighbour
        side exactly once.
        """
        owners, links = self._own_volume.size, self._nbr_volume.size
        np.negative(two[:, :links], out=two[:, owners:])
        two.take(self._from_own, axis=1, out=out.reshape(len(two), -1), mode="clip")
        return out

    # -- BR1 viscous terms ----------------------------------------------------

    def _br1_faces(self, u, ghost):
        """Faces first: W and the lifting jump, over all faces, in the workspace.

        W holds the rows w_2..w_5 of the entropy variables, the only ones
        that F^v reads (see ``physics.viscous_entropy_variables``), so the mass
        row is never formed, lifted or contracted.  The jump is FACE_SIGN
        (W* - W) / w0 on every face.  W* is the arithmetic mean on links, so
        W* - W is (W_ext - W_own)/2 on the owner side and minus that,
        permuted, on the neighbour side; on a Dirichlet face W* is the ghost
        value of ``ghost`` (5, nb, n, n).

        W is formed over the whole state at once, without a block loop: the
        primitives go to a (5, K, n, n, n) view whose rows 1-4 are W and
        whose row 0, their scratch, is the last volume-sized row of the
        jump's whole cache lines, unused until W is formed;
        ``physics.viscous_entropy_variables`` then turns v and p into W in
        place.  So a positivity failure names the global (element, i, j,
        k).  The jump's memory holds max(4 face rows, one volume row): 24 K
        n^2 is less than K n^3 for n > 24.

        Returns:
            the viscous block size in elements, at most K // n, so that the
            two block buffers fit in the jump's two-sided face array; W
            (4, K, n, n, n); the jump (4, 6, K, n, n); and the flat scratch
            region, which holds the two-sided array and then the two block
            buffers of 3 * 4 rows each.
        """
        n, num_elements, nw = self.n1, self.num_elements, physics.NVAR - 1
        # Four rows of 6 K n^2 face nodes hold 2 * 12 block rows of K // n elements.
        face_rows = nw * self._from_own.size
        step = min(_block_elements(num_elements, n**3), max(1, num_elements // n))
        jump, _, region = self._work.reserve(max(face_rows, u[0].size), nw * u[0].size,
                                             max(2 * whole_lines(3 * nw * step * n**3), face_rows))
        prim = _view(self._work.flat, u.shape, whole_lines(jump.size) - u[0].size)
        w = physics.viscous_entropy_variables(
            *physics.primitive_from_conservative(u, self.gas, out=prim), out=prim[1:])
        # The own traces sit in the jump's memory until the jump is formed.
        shape = (nw,) + self.mesh.s_own.shape
        two = region[:face_rows].reshape(nw, -1)
        own, diff = _view(jump, shape), two[:, :self._own_volume.size].reshape(shape)
        ghost_w = physics.viscous_entropy_variables(*physics.primitive_from_conservative(ghost, self.gas))
        self._traces(w, ghost_w, slice(None), own, diff)
        diff -= own
        diff[:, :len(self.l_elem)] *= 0.5
        jump = self._to_faces(two, _view(jump, (nw, 6, num_elements, n, n)))
        jump *= geometry.FACE_SIGN_ARRAY / self.w0
        return step, w, jump, region

    def _lifted_blocks(self, w, jump, step, region):
        """Lifted gradients Q, one element block of ``step`` elements at a time.

        Yields (block, q): the block's slice of the element axis and its Q,
        (3, 4, count, n, n, n), the gradients of w_2..w_5, valid until the
        next block.  The reference gradient takes the front of ``region``
        and q the same size from the next whole cache line; the reference
        gradient is spent once q is formed.  Once a block's q is yielded,
        its slice ``jump[:, :, block]`` is spent: face data are per
        element, so no other block reads it.  The BR1 auxiliary equation in strong
        collocation form is J Q_d = sum_l Ja^l_d D_l W + lift((W* - W) n_d
        s_hat).  At the face nodes n s_hat = FACE_SIGN Ja^l, l the face's
        normal axis, so the lifting adds the jump to D_l W on the face
        before the metric contraction.  Every operation acts element by
        element, so Q is bitwise independent of ``step``.
        """
        for block in _blocks(self.num_elements, step):
            shape = (3,) + w[:, block].shape
            g, q = _cut(region, shape, shape)
            spectral.tensor_gradient(self.basis, w[:, block], out=g)
            for face, axis in enumerate(geometry.FACE_NORMAL_AXIS):
                g[axis][geometry.face_slice(face)] += jump[:, face, block]
            np.einsum("ldKijk,lcKijk->dcKijk", self.ja[:, :, block], g, out=q)
            q /= self.j[block]
            yield block, q

    def lift_gradients(self, u, t=0.0):
        """Lifted gradients Q of the entropy variables w_2..w_5.

        Solves the BR1 auxiliary equation in strong collocation form:
        J Q_d = sum_l Ja^l_d (D_l W) + lift((W* - W) n_d s_hat), with
        W* the arithmetic mean on links and the ghost value on Dirichlet
        faces.  Runs the residual's block code into a whole Q.  The
        gradient of w_1 is not formed: F^v does not read it.

        Returns:
            Q with shape (3, 4, K, n, n, n); Q[d, c] approximates
            d w_{c+2} / dx_d.
        """
        step, w, jump, region = self._br1_faces(u, self._ghost(t))
        q = np.empty((3,) + w.shape)
        for block, q_block in self._lifted_blocks(w, jump, step, region):
            q[:, :, block] = q_block
        return q

    def _add_viscous(self, u, ghost, rhs):
        """Add (1/Re) [D_std . F~v + lift((F^{v,*}_n - F^v_n) s_hat)] to ``rhs``.

        Faces first, over all faces: the lifting jump.  Then one element
        block loop: Q, F^v from Q, the contravariant fluxes F~v = Ja . F^v,
        their divergence into the block of ``rhs``, and the block's
        n . F^v s_hat face traces, which are FACE_SIGN F~v^l at the face
        nodes, into the block's spent slice of the jump.  F^v has no mass
        component, so all of this runs on the other four.  Then the penalty
        over all faces, in the spent block region.  With F^{v,*} the
        arithmetic mean and the two sides' outward normals opposite, it is
        -(F_own + F_ext) . n s_hat / (2 w0) on both sides of a link, each
        side with its own outward normal, and zero on a Dirichlet face,
        whose exterior F^v is the interior one.  Each face node adds its
        ``_partner``'s trace to its own, so the two sides of a link hold the
        same sum bit for bit (a + b = b + a).
        """
        step, w, jump, region = self._br1_faces(u, ghost)
        for block, q in self._lifted_blocks(w, jump, step, region):
            # Q becomes the primitive gradients in place, F^v goes to the
            # spent reference gradient's buffer, F~v to Q's and the
            # divergence to F^v's once each is spent.
            fv = physics.viscous_flux_from_entropy_gradients(w[:, block], q, self.gas,
                                                             out=_view(region, q.shape))
            flux = np.einsum("ldKijk,dcKijk->lcKijk", self.ja[:, :, block], fv, out=q)
            for face, axis in enumerate(geometry.FACE_NORMAL_AXIS):
                jump[:, face, block] = flux[axis][geometry.face_slice(face)]
            div = spectral.tensor_divergence(self.basis, flux, _cut(region, *2 * [flux.shape[1:]]))
            div /= self.gas.reynolds
            rhs[1:, block] += div
        traces = np.multiply(jump, geometry.FACE_SIGN_ARRAY, out=jump)
        # Each face node's trace plus its partner's, in the spent block region.
        penalty = _view(region, traces.shape)
        traces.reshape(len(traces), -1).take(self._partner, axis=1, mode="clip",
                                             out=penalty.reshape(len(traces), -1))
        penalty += traces
        penalty[:, self.mesh.b_face, self.b_elem] = 0.0
        penalty *= -0.5 / (self.w0 * self.gas.reynolds)
        geometry.fold_faces(penalty, rhs[1:])

    # -- residual -------------------------------------------------------------

    def residual(self, u, t=0.0):
        """Semi-discrete right-hand side du/dt, shape (5, K, n, n, n)."""
        self.residual_evals += 1
        gas = self.gas
        ghost = self._ghost(t)
        rhs = self._advective(u, ghost)
        if gas.viscous:
            self._add_viscous(u, ghost, rhs)
        rhs /= self.j
        if self.source is not None:
            self.source(self.x, t, gas, rhs)
        return rhs

    def _advective(self, u, ghost):
        """-(S.F# + lift(F*_n s_hat)), not yet divided by J."""
        gas, n, nv = self.gas, self.n1, physics.NVAR
        # The volume term first: its positivity check names (element, i, j, k).
        div = split_divergence(u, self.ja, self.basis, self.volume_flux, gas, self._work)
        # F* s_hat in the two-sided layout of ``_to_faces``, then room for a
        # chunk's two traces, which the surface flux turns into primitives
        # in place, and its two arrays; the star reuses the room after the
        # last chunk.  A chunk takes the room that the workspace already
        # holds beyond F* s_hat (after the kernel, at least its reservation),
        # up to the block rule's faces, so the workspace grows only when it
        # cannot hold F* s_hat and the star.
        s_own = self.mesh.s_own
        num_faces, face_size = len(s_own), self._from_own.size
        # Each of a chunk's four arrays takes whole cache lines.
        room = max(self._work.flat.size - nv * face_size, nv * face_size)
        step = min(_block_elements(num_faces, n * n),
                   max(1, room // 4 // spectral.LINE * spectral.LINE // (nv * n * n)))
        two, rest = self._work.reserve(nv * face_size,
                                       max(4 * whole_lines(nv * step * n * n), nv * face_size))
        two = two.reshape(nv, face_size)
        f_s = two[:, :self._own_volume.size].reshape((nv,) + s_own.shape)
        for faces in _blocks(num_faces, step):
            shape = (nv,) + s_own[faces].shape
            own, ext, *work = _cut(rest, *4 * [shape])
            self._traces(u, ghost, faces, own, ext)
            fstar = fluxes.surface_flux_advective(own, ext, self.mesh.n_own[:, faces], gas,
                                                  self.surface_dissipation, work)
            np.multiply(fstar, s_own[faces], out=f_s[:, faces])
        star = self._to_faces(two, _view(rest, (nv, 6, self.num_elements, n, n)))
        star /= self.w0
        # The lift, face by face into the kernel's fresh output, which
        # becomes the residual.
        return np.negative(geometry.fold_faces(star, div), out=div)

    # -- monitors and time stepping -------------------------------------------

    # J w_i w_j w_k of every node, ravelled: the quadrature weights that the
    # monitors reduce against, one matmul each; built on first use.
    @functools.cached_property
    def _jw(self):
        w = self.basis.weights
        return (self.j * np.multiply.outer(np.multiply.outer(w, w), w)).ravel()

    def totals(self, u):
        """Conserved totals sum_k <J U, 1>_N, one value per component."""
        return u.reshape(physics.NVAR, -1) @ self._jw

    def total_entropy(self, u):
        return float(physics.entropy(u, self.gas).ravel() @ self._jw)

    def entropy_rate(self, u, rhs):
        """sum_k <J du/dt, W>_N: semi-discrete d/dt of the total entropy."""
        product = physics.entropy_variables(u, self.gas)
        product *= rhs
        return float((product.reshape(physics.NVAR, -1) @ self._jw).sum())

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

    def step(self, u, t, dt):
        """One positivity-checked RK step from (u, t): returns (u_new, du/dt at (u, t)).

        Runs ``rk_step`` on the residual; the second array is its first
        stage, for the caller's monitors.  A positivity failure names the
        stage and its time.  Nothing given is written.
        """
        stages = itertools.count(1)

        def rhs(v, s):
            return physics.in_phase(f"RK stage {next(stages)} of {len(RK_A)} at t = {s:.6g}",
                                    self.residual, v, s)

        return rk_step(u, t, dt, rhs)
