import numpy as np
import pytest

from splitdg import spectral as sp


def poly_eval(coeffs, x):
    return np.polynomial.polynomial.polyval(x, coeffs)


class TestLegendre:
    def test_degree_zero(self):
        val, der = sp.legendre_eval(0, 0.3)
        assert val == 1.0 and der == 0.0

    def test_degree_one(self):
        val, der = sp.legendre_eval(1, 0.5)
        assert val == 0.5 and der == 1.0

    def test_degree_two_by_hand(self):
        # recurrence by hand: L2 = (3x^2 - 1)/2, L2' = 3x
        val, der = sp.legendre_eval(2, 0.5)
        assert val == pytest.approx(-0.125, abs=1e-15)
        assert der == pytest.approx(1.5, abs=1e-15)

    def test_against_numpy_legendre(self):
        x = np.linspace(-1, 1, 17)
        for n in range(0, 12):
            ref = np.polynomial.legendre.legval(x, [0.0] * n + [1.0])
            val, _ = sp.legendre_eval(n, x)
            assert np.abs(val - ref).max() < 1e-13

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            sp.legendre_eval(-1, 0.0)


class TestGaussLobatto:
    def test_n1(self):
        nodes, weights = sp.gauss_lobatto(1)
        assert np.allclose(nodes, [-1.0, 1.0], atol=0)
        assert np.allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_n2(self):
        nodes, weights = sp.gauss_lobatto(2)
        assert np.allclose(nodes, [-1.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)

    @pytest.mark.parametrize("n", list(range(1, 31)))
    def test_weights_sum_to_two_and_sorted(self, n):
        nodes, weights = sp.gauss_lobatto(n)
        assert abs(weights.sum() - 2.0) < 1e-13
        assert (np.diff(nodes) > 0).all()
        assert nodes[0] == -1.0 and nodes[-1] == 1.0
        assert (weights > 0).all()

    def test_nodes_are_roots_of_lnprime(self):
        for n in (5, 12, 25):
            nodes, _ = sp.gauss_lobatto(n)
            _, der = sp.legendre_eval(n, nodes[1:-1])
            assert np.abs(der).max() < 1e-10

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            sp.gauss_lobatto(0)

    def test_newton_that_does_not_converge_raises(self, monkeypatch):
        # Every Newton step moves the node by exactly 1.
        monkeypatch.setattr(sp, "legendre_eval", lambda n, x: (1.0, n * (n + 1) / (1.0 - x * x)))
        with pytest.raises(RuntimeError, match="failed to converge for interior node 1 at degree 3"):
            sp.gauss_lobatto(3)


class TestBasis:
    def test_n1_derivative_matrix(self):
        b = sp.build_basis(1)
        assert np.allclose(b.D, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)

    def test_n4_sbp(self):
        b = sp.build_basis(4)
        assert np.abs(b.Q + b.Q.T - b.B).max() < 1e-13

    def test_n6_column_sums(self):
        b = sp.build_basis(6)
        target = np.zeros(7)
        target[0], target[-1] = -1.0, 1.0
        assert np.abs(b.Q.sum(axis=0) - target).max() < 1e-13

    @pytest.mark.parametrize("n", list(range(1, 16)))
    def test_operator_identities(self, n):
        b = sp.build_basis(n)
        assert np.abs(b.Q + b.Q.T - b.B).max() < 1e-12
        assert np.abs(b.D.sum(axis=1)).max() < 1e-12
        assert abs(b.Q[0, 0] + 0.5) < 1e-12
        assert abs(b.Q[n, n] - 0.5) < 1e-12
        if n > 1:
            assert np.abs(np.diag(b.Q)[1:-1]).max() < 1e-12
        # almost skew-symmetric off the two corners
        skew = b.Q + b.Q.T
        skew[0, 0] = skew[n, n] = 0.0
        assert np.abs(skew).max() < 1e-12

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            sp.build_basis(31)
        with pytest.raises(ValueError):
            sp.build_basis(0)

    def test_cache_returns_same_object(self):
        assert sp.build_basis(5) is sp.build_basis(5)


class TestInterpolation:
    """1-D interpolation is ``lagrange_values(b, x) @ values``; ``apply_tensor`` is that per axis."""

    def test_kronecker_at_nodes(self):
        b = sp.build_basis(6)
        vals = np.random.default_rng(0).normal(size=7)
        out = sp.lagrange_values(b, b.nodes) @ vals
        assert np.abs(out - vals).max() < 1e-14

    def test_partition_of_unity(self):
        b = sp.build_basis(5)
        x = np.linspace(-1, 1, 33)
        out = sp.lagrange_values(b, x) @ np.ones(6)
        assert np.abs(out - 1.0).max() < 1e-14

    def test_degree_two_data_exact(self):
        b = sp.build_basis(2)
        assert sp.lagrange_values(b, 0.7) @ b.nodes**2 == pytest.approx(0.49, abs=1e-15)

    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(3)
        for n in (3, 7, 11):
            b = sp.build_basis(n)
            coeffs = rng.normal(size=n + 1)
            x = rng.uniform(-1, 1, 50)
            out = sp.lagrange_values(b, x) @ poly_eval(coeffs, b.nodes)
            assert np.abs(out - poly_eval(coeffs, x)).max() < 1e-12

    def test_tensor_interpolation_reproduces_polynomials_on_the_grid_of_points(self):
        """A field of degree N per axis, with leading axes, on the tensor grid of random points."""
        rng = np.random.default_rng(4)
        b = sp.build_basis(4)
        coeffs = rng.normal(size=(5, 5, 5, 2, 3))  # degree 4 in each of x, y, z; leading axes (2, 3)

        def field(x):
            return np.polynomial.polynomial.polyval3d(*np.meshgrid(x, x, x, indexing="ij"), coeffs)

        x = rng.uniform(-1, 1, 7)
        out = sp.apply_tensor(sp.lagrange_values(b, x), field(b.nodes))
        assert out.shape == (2, 3, 7, 7, 7)
        assert np.abs(out - field(x)).max() < 1e-12

    def test_interpolation_matrix_matches(self):
        """The tensor interpolation of a separable field is the 1-D matrix along each axis."""
        b = sp.build_basis(4)
        p = sp.lagrange_values(b, np.linspace(-1, 1, 9))
        f, g, h = np.random.default_rng(1).normal(size=(3, 5))
        out = sp.apply_tensor(p, np.einsum("i,j,k->ijk", f, g, h))
        assert np.allclose(out, np.einsum("i,j,k->ijk", p @ f, p @ g, p @ h), atol=1e-14)


class TestInnerProductQuadrature:
    def test_constants(self):
        b = sp.build_basis(4)
        assert sp.inner_product(b, np.ones(5), np.ones(5)) == pytest.approx(2.0, abs=1e-14)
        ones = np.ones((5, 5, 5))
        assert sp.inner_product_3d(b, ones, ones) == pytest.approx(8.0, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_legendre_discrete_norms(self, n):
        b = sp.build_basis(n)
        ln, _ = sp.legendre_eval(n, b.nodes)
        assert sp.inner_product(b, ln, ln) == pytest.approx(2.0 / n, rel=1e-13)
        for k in range(n):
            lk, _ = sp.legendre_eval(k, b.nodes)
            assert sp.inner_product(b, lk, lk) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)

    def test_degree_mismatch_rejected(self):
        b = sp.build_basis(3)
        with pytest.raises(ValueError):
            sp.inner_product(b, np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            sp.inner_product_3d(b, np.ones((5, 5, 5)), np.ones((5, 5, 5)))

    def test_odd_monomial_integrates_to_zero(self):
        for n in (2, 5, 9):
            b = sp.build_basis(n)
            assert abs(sp.quadrature(b, b.nodes ** (2 * n - 1))) < 1e-13

    def test_n2_x_squared_exact(self):
        b = sp.build_basis(2)
        # (1/3)(1) + (4/3)(0) + (1/3)(1) = 2/3
        assert sp.quadrature(b, b.nodes**2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_n1_exactness_boundary(self):
        b = sp.build_basis(1)
        # nodes +-1, weights 1: quadrature of x^2 gives 2 although the
        # integral is 2/3 -- degree 2N lies just past the exactness window.
        assert sp.quadrature(b, b.nodes**2) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_exact_through_2n_minus_1(self, n):
        b = sp.build_basis(n)
        for p in range(2 * n):
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            assert abs(sp.quadrature(b, b.nodes**p) - exact) < 1e-12

    def test_boundary_is_sharp(self):
        # At p = 2N the error is large: > 1e-3 through N = 5, and 8.61e-4
        # at N = 6 (the exact constant dips just below 1e-3 there).
        for n in range(1, 6):
            b = sp.build_basis(n)
            err = abs(sp.quadrature(b, b.nodes ** (2 * n)) - 2.0 / (2 * n + 1))
            assert err > 1e-3
        b = sp.build_basis(6)
        err = abs(sp.quadrature(b, b.nodes**12) - 2.0 / 13.0)
        assert err > 5e-4


class TestAliasing:
    def test_resolved_legendre_mode(self):
        b = sp.build_basis(4)
        l2, _ = sp.legendre_eval(2, b.nodes)
        c = sp.aliasing_coefficients(b, l2)
        expect = np.zeros(5)
        expect[2] = 1.0
        assert np.abs(c - expect).max() < 1e-13

    def test_x_squared_on_linear_grid(self):
        b = sp.build_basis(1)
        c = sp.aliasing_coefficients(b, b.nodes**2)
        assert c[0] == pytest.approx(1.0, abs=1e-14)  # exact u_0 = 1/3: aliasing error 2/3
        assert abs((c[0] - 1.0 / 3.0) - 2.0 / 3.0) < 1e-14

    def test_unresolved_mode_via_quadrature_oracle(self):
        # interpolating L_{N+1} at N = 3: coefficients equal the discrete
        # projections computed here directly from the quadrature sums
        b = sp.build_basis(3)
        l4, _ = sp.legendre_eval(4, b.nodes)
        c = sp.aliasing_coefficients(b, l4)
        oracle = np.empty(4)
        for k in range(4):
            lk, _ = sp.legendre_eval(k, b.nodes)
            norm = 2.0 / (2 * k + 1) if k < 3 else 2.0 / 3
            oracle[k] = np.sum(l4 * lk * b.weights) / norm
        assert np.abs(c - oracle).max() < 1e-14
        assert np.abs(oracle).max() > 0.1  # aliasing is really there


class TestTensorCalculus:
    def test_gradient_of_constant(self):
        b = sp.build_basis(3)
        g = sp.tensor_gradient(b, np.ones((4, 4, 4)))
        assert np.abs(g).max() < 1e-14

    def test_gradient_of_linear(self):
        b = sp.build_basis(3)
        xi = b.nodes[:, None, None] * np.ones((4, 4, 4))
        g = sp.tensor_gradient(b, xi)
        assert np.abs(g[0] - 1.0).max() < 1e-13
        assert np.abs(g[1]).max() < 1e-13
        assert np.abs(g[2]).max() < 1e-13

    def test_gradient_polynomial_oracle(self):
        rng = np.random.default_rng(11)
        n = 5
        b = sp.build_basis(n)
        cx, cy, cz = (rng.normal(size=n + 1) for _ in range(3))
        fx, fy, fz = (poly_eval(c, b.nodes) for c in (cx, cy, cz))
        field = np.einsum("i,j,k->ijk", fx, fy, fz)
        g = sp.tensor_gradient(b, field)
        dx = poly_eval(np.polynomial.polynomial.polyder(cx), b.nodes)
        ref = np.einsum("i,j,k->ijk", dx, fy, fz)
        assert np.abs(g[0] - ref).max() < 1e-12

    def test_divergence_of_constant(self):
        b = sp.build_basis(4)
        f = np.ones((3, 5, 5, 5))
        assert np.abs(sp.tensor_divergence(b, f)).max() < 1e-14

    def test_divergence_of_identity_field(self):
        b = sp.build_basis(4)
        grid = np.stack(np.meshgrid(b.nodes, b.nodes, b.nodes, indexing="ij"))
        div = sp.tensor_divergence(b, grid)
        assert np.abs(div - 3.0).max() < 1e-12

    def test_discrete_divergence_theorem(self):
        rng = np.random.default_rng(4)
        n = 4
        b = sp.build_basis(n)
        f = rng.normal(size=(3, n + 1, n + 1, n + 1))
        vol = sp.inner_product_3d(b, sp.tensor_divergence(b, f), np.ones((n + 1,) * 3))
        w2 = np.einsum("a,b->ab", b.weights, b.weights)
        surf = (
            np.sum((f[0][-1] - f[0][0]) * w2)
            + np.sum((f[1][:, -1] - f[1][:, 0]) * w2)
            + np.sum((f[2][:, :, -1] - f[2][:, :, 0]) * w2)
        )
        assert abs(vol - surf) < 1e-12


EINSUM_ALONG = ("in,...njk->...ijk", "jn,...ink->...ijk", "kn,...ijn->...ijk")


def tensor_fields(rng, trailing):
    """A bare field, one with leading axes, and a non-contiguous view, all (..., *trailing)."""
    a, b, c = trailing
    bare = rng.normal(size=trailing)
    stacked = rng.normal(size=(5, 3) + trailing)
    view = rng.normal(size=(4, 2 * c, b + 1, a, 3)).transpose(0, 4, 3, 2, 1)[:, :, :, 1:, ::2]
    assert view.shape[-3:] == trailing and not view.flags.c_contiguous
    return bare, stacked, view


def check_against_einsum(matrix, field, axis):
    ref = np.einsum(EINSUM_ALONG[axis], matrix, field)
    out = sp.apply_along(matrix, field, axis)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(matrix).max() * np.abs(field).max()
    given = np.empty(ref.shape)
    assert sp.apply_along(matrix, field, axis, given) is given
    assert np.array_equal(given, out)


@pytest.mark.parametrize("axis", (0, 1, 2))
@pytest.mark.parametrize("n", (1, 3, 7))
def test_derivative_matches_einsum_reference(n, axis):
    b = sp.build_basis(n)
    for field in tensor_fields(np.random.default_rng(n), (n + 1,) * 3):
        check_against_einsum(b.D, field, axis)


@pytest.mark.parametrize("axis", (0, 1, 2))
@pytest.mark.parametrize("n1", (2, 4, 8))
def test_apply_along_non_square_matrix_matches_einsum_reference(n1, axis):
    """An (n, pairs) matrix, as the flux-differencing scatter uses, on a pairs-long axis."""
    rng = np.random.default_rng(n1)
    pairs = n1 * (n1 - 1) // 2
    trailing = [n1] * 3
    trailing[axis] = pairs
    matrix = rng.normal(size=(n1, pairs))
    for field in tensor_fields(rng, tuple(trailing)):
        check_against_einsum(matrix, field, axis)


def test_derivative_rejects_a_non_contiguous_out():
    b = sp.build_basis(3)
    field = np.ones((2, 4, 4, 4))
    with pytest.raises(ValueError, match="C-contiguous"):
        sp.apply_along(b.D, field, 0, np.empty((4, 4, 4, 2)).transpose(3, 0, 1, 2))


def test_apply_along_rejects_an_out_of_the_wrong_shape():
    field = np.ones((2, 4, 6, 4))
    with pytest.raises(ValueError, match=r"shape \(2, 4, 4, 4\)"):
        sp.apply_along(np.ones((4, 6)), field, 1, np.empty(field.shape))


class TestSbpAndAccuracy:
    @pytest.mark.parametrize("n", [1, 3, 6, 10, 15])
    def test_sbp_equals_integration_by_parts(self, n):
        # verify's spectral suite checks N <= 10; n = 15 lies beyond it.
        rng = np.random.default_rng(n)
        b = sp.build_basis(n)
        u = poly_eval(rng.normal(size=n + 1), b.nodes)
        v = poly_eval(rng.normal(size=n + 1), b.nodes)
        lhs = sp.inner_product(b, u, b.D @ v) + sp.inner_product(b, b.D @ u, v)
        assert abs(lhs - (u[-1] * v[-1] - u[0] * v[0])) < 1e-12
