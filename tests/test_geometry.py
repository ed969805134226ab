import numpy as np
import pytest

from splitdg import geometry as ge
from splitdg import mesh as me
from splitdg import spectral as sp

UNIT_CORNERS = np.array([
    [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
    [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
], dtype=float)


def trig_warp(amplitude=0.12):
    def mapping(xi):
        return np.stack([
            xi[0] + amplitude * np.sin(np.pi * xi[1]) * np.sin(np.pi * xi[2]),
            xi[1] + amplitude * np.sin(np.pi * xi[0]) * np.sin(np.pi * xi[2]),
            xi[2] + amplitude * np.sin(np.pi * xi[0]) * np.sin(np.pi * xi[1]),
        ])
    return mapping


def element_mesh(basis, *mappings):
    """Mesh of elements sampled from analytic maps, every face a Dirichlet face."""
    x = np.stack([ge.sample_map_on_grid(m, basis) for m in mappings], axis=1)
    boundary = [me.BoundaryFace(e, f, "wall") for e in range(len(mappings)) for f in range(6)]
    return me.MeshTopology(basis, x, [], boundary)


def covariant(basis, mapping):
    """Covariant vectors of one element, stacked: (3, 3, 1, n, n, n)."""
    return sp.tensor_gradient(basis, ge.sample_map_on_grid(mapping, basis)[:, None])


def tensor_grid(t):
    """The tensor grid of the 1-D points t in reference space: (3, m, m, m)."""
    return np.stack(np.meshgrid(t, t, t, indexing="ij"))


def transfinite_on_grid(fd, t):
    """The transfinite map of ``fd`` on the tensor grid of the 1-D points t: (3, m, m, m)."""
    return sp.apply_tensor(sp.lagrange_values(sp.build_basis(fd.n), t), fd.nodal_map())


class TestTransfiniteMap:
    def test_straight_hex_equals_trilinear(self):
        rng = np.random.default_rng(0)
        corners = UNIT_CORNERS + 0.15 * rng.normal(size=(8, 3))
        fd = ge.faces_from_corners(corners, 4)
        fd.validate_watertight()
        t = rng.uniform(-1, 1, 4)
        gap = np.abs(transfinite_on_grid(fd, t) - ge.hex_corner_map(corners, tensor_grid(t))).max()
        assert gap < 1e-13

    def test_corner_collapse(self):
        """On the grid of the points -1 and +1 the map is the eight corners."""
        rng = np.random.default_rng(1)
        corners = UNIT_CORNERS + 0.1 * rng.normal(size=(8, 3))
        fd = ge.faces_from_corners(corners, 3)
        got = transfinite_on_grid(fd, np.array([-1.0, 1.0]))[(slice(None),) + ge.CORNER_NODES].T
        assert np.abs(got - corners).max() < 1e-14

    def test_restriction_reproduces_face(self):
        """Each face of the map on a grid with both ends is that face's own interpolant."""
        fd = ge.faces_from_mapping(trig_warp(), 5)
        basis = sp.build_basis(5)
        t = np.concatenate([[-1.0], np.random.default_rng(2).uniform(-1, 1, 8), [1.0]])
        got = transfinite_on_grid(fd, t)
        lt = sp.lagrange_values(basis, t)
        for f in range(6):
            face = np.einsum("cab,pa,qb->cpq", fd.faces[f], lt, lt)
            assert np.abs(got[ge.face_slice(f)] - face).max() < 1e-13

    # Every face: a shared node of the grid holds the last face written, so
    # a gap in face 5 is read against the other faces, not against itself.
    @pytest.mark.parametrize("face", range(6))
    def test_watertight_validation_catches_gaps(self, face):
        fd = ge.faces_from_corners(UNIT_CORNERS, 3)
        broken = [f.copy() for f in fd.faces]
        broken[face][0, 0, 0] += 1e-6
        bad = ge.FaceDefinition(broken)
        assert bad.edge_mismatch() == pytest.approx(1e-6)
        with pytest.raises(ge.GeometryError, match="watertight"):
            bad.validate_watertight()

    @pytest.mark.parametrize("face", range(6))
    def test_watertight_validation_catches_nan(self, face):
        fd = ge.faces_from_corners(UNIT_CORNERS, 3)
        broken = [f.copy() for f in fd.faces]
        broken[face][1, 0, 0] = np.nan
        with pytest.raises(ge.GeometryError, match="edge mismatch nan"):
            ge.FaceDefinition(broken).validate_watertight()

    def test_affine_map_reproduced_inside(self):
        affine = lambda xi: np.stack([0.5 * xi[0] + 0.1 * xi[1] - 0.2 * xi[2] + 0.3,
                                      0.05 * xi[0] + 0.7 * xi[1] + 0.2 * xi[2] - 1.0,
                                      0.1 * xi[0] - 0.15 * xi[1] + 0.9 * xi[2] + 2.0])
        fd = ge.faces_from_mapping(affine, 3)
        t = np.random.default_rng(6).uniform(-1, 1, 4)
        assert np.abs(transfinite_on_grid(fd, t) - affine(tensor_grid(t))).max() < 1e-13

    def test_face_shape_validation(self):
        with pytest.raises(ValueError):
            ge.FaceDefinition([np.zeros((3, 4, 4))] * 5)
        with pytest.raises(ValueError):
            ge.FaceDefinition([np.zeros((3, 4, 3))] * 6)


class TestCovariantBasis:
    def test_identity_map(self):
        b = sp.build_basis(3)
        cov = covariant(b, lambda xi: xi)
        for i in range(3):
            expect = np.zeros(3)
            expect[i] = 1.0
            assert np.abs(cov[i] - expect[:, None, None, None, None]).max() < 1e-13

    def test_affine_map_gives_matrix_columns(self):
        b = sp.build_basis(3)
        a = np.array([[0.5, 0.1, 0.0], [0.0, 0.7, 0.2], [0.1, 0.0, 0.9]])
        mapping = lambda xi: np.einsum("cd,d...->c...", a, xi) + 0.3
        cov = covariant(b, mapping)
        for i in range(3):
            assert np.abs(cov[i] - a[:, i][:, None, None, None, None]).max() < 1e-13

    def test_polynomial_map_matches_symbolic_derivative(self):
        n = 4
        b = sp.build_basis(n)
        c = np.array([0.0, 1.0, 0.3, -0.2, 0.05])  # degree-4 in xi only

        def mapping(xi):
            x = np.polynomial.polynomial.polyval(xi[0], c)
            return np.stack([x, xi[1], xi[2]])

        # The map folds at xi = -1 (dx/dxi = -0.4), so no valid element can be
        # built from it; check the covariant derivative itself.
        covariant = sp.tensor_gradient(b, ge.sample_map_on_grid(mapping, b))
        dc = np.polynomial.polynomial.polyder(c)
        expect = np.polynomial.polynomial.polyval(b.nodes, dc)
        assert np.abs(covariant[0][0] - expect[:, None, None]).max() < 1e-12


class TestMetrics:
    def test_identity_map_metrics(self):
        b = sp.build_basis(4)
        ja, j = ge.metrics_cross_product(covariant(b, lambda xi: xi))
        assert np.abs(j - 1.0).max() < 1e-13
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert np.abs(ja[i] - e[:, None, None, None, None]).max() < 1e-13

    def test_scaled_box_cross_products_by_hand(self):
        b = sp.build_basis(3)
        mapping = lambda xi: np.stack([xi[0], 1.5 * xi[1], 2.0 * xi[2]])
        ja, j = ge.metrics_cross_product(covariant(b, mapping))
        col = lambda v: np.array(v)[:, None, None, None, None]
        assert np.abs(j - 3.0).max() < 1e-13
        assert np.abs(ja[0] - col([3.0, 0, 0])).max() < 1e-13
        assert np.abs(ja[1] - col([0, 2.0, 0])).max() < 1e-13
        assert np.abs(ja[2] - col([0, 0, 1.5])).max() < 1e-13

    def test_cross_form_on_curved_map_violates_identities(self):
        b = sp.build_basis(4)
        ja, _ = ge.metrics_cross_product(covariant(b, trig_warp()))
        assert ge.metric_identity_residual(b, ja).max() > 1e-6

    def test_curl_equals_cross_for_identity_and_affine(self):
        b = sp.build_basis(4)
        for mapping in (lambda xi: xi,
                        lambda xi: np.stack([0.5 * xi[0] + 0.2 * xi[1], 0.8 * xi[1], 0.6 * xi[2]])):
            ja_cross, _ = ge.metrics_cross_product(covariant(b, mapping))
            assert np.abs(element_mesh(b, mapping).ja - ja_cross).max() < 1e-12

    def test_curl_equals_cross_for_half_degree_map(self):
        # products of a P^{N/2} map stay in P^N: interpolation is exact
        n = 4
        b = sp.build_basis(n)

        def quad_map(xi):  # componentwise degree <= 2 = N/2
            return np.stack([xi[0] + 0.1 * xi[1] * xi[2],
                             xi[1] + 0.1 * xi[0] * xi[2],
                             xi[2] + 0.1 * xi[0] * xi[1]])

        ja_cross, _ = ge.metrics_cross_product(covariant(b, quad_map))
        assert np.abs(element_mesh(b, quad_map).ja - ja_cross).max() < 1e-12

    def test_curl_form_kills_metric_residual_on_curved_map(self):
        b = sp.build_basis(4)
        ja_cross, _ = ge.metrics_cross_product(covariant(b, trig_warp()))
        assert ge.metric_identity_residual(b, element_mesh(b, trig_warp()).ja).max() < 1e-12
        assert ge.metric_identity_residual(b, ja_cross).max() > 1e-6

    def test_curl_form_from_a_given_gradient_is_bitwise_the_same(self):
        mesh = me.warped_box_mesh(3, (2, 1, 2), amplitude=0.05)
        dx = sp.tensor_gradient(mesh.basis, mesh.x)
        ja = ge.metrics_curl_form(mesh.basis, mesh.x, dx)
        assert ja.tobytes() == ge.metrics_curl_form(mesh.basis, mesh.x).tobytes()
        assert ja.tobytes() == mesh.ja.tobytes()

    def test_identity_residual_zero(self):
        b = sp.build_basis(3)
        assert ge.metric_identity_residual(b, element_mesh(b, lambda xi: xi).ja).max() < 1e-13

    def test_inverted_element_rejected(self):
        b = sp.build_basis(2)
        flipped = lambda xi: np.stack([-xi[0], xi[1], xi[2]])
        with pytest.raises(ge.GeometryError, match=r"Jacobian in element 1 "):
            element_mesh(b, lambda xi: xi, flipped)


    def test_non_finite_jacobian_named_before_the_relative_test(self):
        j = np.ones((2, 3, 3, 3))
        j[1, 0, 0, 0] = 0.0  # fails the relative test, but comes first in order
        j[1, 2, 1, 0] = np.inf
        with pytest.raises(ge.GeometryError, match=r"element 1 at node \(2, 1, 0\): J = inf"):
            ge.check_jacobian(j)
        j[1, 2, 1, 0] = 1.0
        with pytest.raises(ge.GeometryError, match=r"element 1 at node \(0, 0, 0\): J = 0"):
            ge.check_jacobian(j)


class TestFaceGeometry:
    def test_identity_map_faces(self):
        b = sp.build_basis(3)
        g = element_mesh(b, lambda xi: xi)
        signs = {0: [-1, 0, 0], 1: [1, 0, 0], 2: [0, -1, 0], 3: [0, 1, 0],
                 4: [0, 0, -1], 5: [0, 0, 1]}
        for face in range(6):
            assert np.abs(g.s_hat[face] - 1.0).max() < 1e-12
            expect = np.array(signs[face], dtype=float)
            assert np.abs(g.normal[:, face] - expect[:, None, None, None]).max() < 1e-12

    def test_scaled_box_plus_xi_face(self):
        b = sp.build_basis(3)
        mapping = lambda xi: np.stack([xi[0], 1.5 * xi[1], 2.0 * xi[2]])
        g = element_mesh(b, mapping)
        assert np.abs(g.s_hat[1] - 3.0).max() < 1e-12
        assert np.abs(g.normal[:, 1] - np.array([1.0, 0, 0])[:, None, None, None]).max() < 1e-12

    def test_shared_face_agrees_with_sign_flip(self):
        # two elements sharing the plane x = 0.5 of a curved global map
        n = 4
        warp = trig_warp(0.08)

        def left(xi):
            shifted = np.stack([0.5 * (xi[0] - 1.0), xi[1], xi[2]])  # x in [-1, 0]
            return warp(shifted)

        def right(xi):
            shifted = np.stack([0.5 * (xi[0] + 1.0), xi[1], xi[2]])  # x in [0, 1]
            return warp(shifted)

        g = element_mesh(sp.build_basis(n), left, right)
        assert np.abs(g.x[:, 0, -1] - g.x[:, 1, 0]).max() < 1e-14  # watertight
        assert np.abs(g.s_hat[1, 0] - g.s_hat[0, 1]).max() < 1e-12
        assert np.abs(g.normal[:, 1, 0] + g.normal[:, 0, 1]).max() < 1e-12

    def test_closed_surface_identity(self):
        b = sp.build_basis(4)
        g = element_mesh(b, trig_warp(0.1))
        w = b.weights
        total = np.einsum("dfKab,fKab,a,b->d", g.normal, g.s_hat, w, w)
        assert np.abs(total).max() < 1e-12

    def test_two_elements_from_shared_face_definition(self):
        # element A's +xi face grid reused as element B's -xi face grid
        rng = np.random.default_rng(5)
        n = 3
        corners_a = UNIT_CORNERS + 0.05 * rng.normal(size=(8, 3))
        fd_a = ge.faces_from_corners(corners_a, n)
        shared = fd_a.faces[1]
        # B: translate A by (1,0,0) but keep the shared face exactly
        corners_b = corners_a + np.array([1.0, 0.0, 0.0])
        corners_b[[0, 3, 4, 7]] = [shared[:, 0, 0], shared[:, -1, 0], shared[:, 0, -1], shared[:, -1, -1]]
        fd_b = ge.faces_from_corners(corners_b, n)
        grids = [g.copy() for g in fd_b.faces]
        grids[0] = shared.copy()
        fd_b = ge.FaceDefinition(grids)
        fd_b.validate_watertight()
        # Both elements sampled at a higher degree, as a mesh file is read.
        basis = sp.build_basis(n + 2)
        x = np.stack([transfinite_on_grid(fd, basis.nodes) for fd in (fd_a, fd_b)], axis=1)
        boundary = [me.BoundaryFace(e, f, "wall") for e in range(2) for f in range(6)]
        g = me.MeshTopology(basis, x, [], boundary)
        assert np.abs(g.x[:, 0, -1] - g.x[:, 1, 0]).max() < 1e-13

    def test_degenerate_face_detected(self):
        b = sp.build_basis(2)
        ja = np.zeros((3, 3, 2, 3, 3, 3))
        ja[0, 0] = 1.0
        ja[1, 1] = 1.0
        ja[2, 2, 0] = 1.0  # zeta faces of element 1 degenerate
        with pytest.raises(ge.GeometryError, match="degenerate face 4 of element 1"):
            ge.face_geometry(ja)

    def test_nan_face_detected(self):
        ja = np.zeros((3, 3, 2, 3, 3, 3))
        for i in range(3):
            ja[i, i] = 1.0
        ja[1, 0, 1, 1, -1, 2] = np.nan  # a node of face 3 (eta = +1) of element 1
        with pytest.raises(ge.GeometryError, match="degenerate face 3 of element 1: surface element nan"):
            ge.face_geometry(ja)
