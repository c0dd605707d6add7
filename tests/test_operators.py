import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings, strategies as st

from sislab import operators
from sislab.mesh import build_grid, eval_expression, quadrature
from sislab.operators import (
    SymmetricTridiagonal,
    TridiagonalSolveError,
    factor_symmetric,
    gradient_energy_values,
    neumann_laplacian,
    solve_factored,
    solve_tridiagonal,
)


@pytest.fixture
def grid():
    return build_grid(0, 1, 201)


def laplacian_matvec(grid, u):
    """L u: the product with S L, its two end entries doubled."""
    out = neumann_laplacian(grid).matvec(u)
    out[..., [0, -1]] *= 2.0
    return out


class TestNeumannLaplacian:
    def test_rows_sum_to_zero(self, grid):
        assert np.abs(laplacian_matvec(grid, np.ones(grid.nx))).max() == 0.0

    def test_kills_constants(self, grid):
        assert np.abs(laplacian_matvec(grid, np.full(grid.nx, 4.2))).max() == 0.0

    def test_cosine_eigenfunction(self, grid):
        u = np.cos(np.pi * grid.nodes)
        err = np.abs(laplacian_matvec(grid, u) + np.pi**2 * u).max()
        assert err <= 1e-3

    def test_quadratic_exact_in_the_interior(self):
        g = build_grid(0, 2, 41)
        vals = laplacian_matvec(g, g.nodes**2)
        assert vals[1:-1] == pytest.approx(2.0, abs=1e-9)

    def test_weighted_symmetry_and_sign(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = rng.normal(size=grid.nx)
            g_ = rng.normal(size=grid.nx)
            lhs = quadrature(grid, laplacian_matvec(grid, f) * g_)
            rhs = quadrature(grid, f * laplacian_matvec(grid, g_))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-8)
            assert quadrature(grid, laplacian_matvec(grid, f) * f) <= 1e-10
        ones = np.ones(grid.nx)
        assert quadrature(grid, laplacian_matvec(grid, ones) * ones) == 0.0

    def test_discrete_flux_balance(self, grid):
        # quadrature of L f vanishes for every f: no mass crosses the boundary
        rng = np.random.default_rng(3)
        f = rng.normal(size=grid.nx)
        flux = quadrature(grid, laplacian_matvec(grid, f))
        assert abs(flux) <= 1e-10 * np.abs(f).max() / grid.dx

    @pytest.mark.parametrize("nx", [3, 41, 201])
    def test_end_rows_are_halved_exactly(self, nx):
        # S L with S = diag(1/2, 1, ..., 1, 1/2): one off-diagonal, 1/dx^2,
        # and the ghost-point rows' -2/dx^2 and 2/dx^2 halved
        g = build_grid(0, 1, nx)
        inv_dx2 = 1.0 / g.dx**2
        SL = neumann_laplacian(g)
        assert np.all(SL.off == inv_dx2)
        assert np.all(SL.diag[1:-1] == -2.0 * inv_dx2)
        assert SL.diag[0] == SL.diag[-1] == 0.5 * (-2.0 * inv_dx2)
        # L u summed row by row, its end rows taking 2/dx^2 from their one
        # neighbour (ghost-point reflection), has the bits of S L u with its
        # ends doubled, for one row and for a stack of rows
        upper, lower = np.full(nx - 1, inv_dx2), np.full(nx - 1, inv_dx2)
        upper[0] = lower[-1] = 2.0 * inv_dx2
        for u in (np.random.default_rng(nx).uniform(0, 3, shape) for shape in (nx, (3, nx))):
            want = np.full(nx, -2.0 * inv_dx2) * u
            want[..., :-1] += upper * u[..., 1:]
            want[..., 1:] += lower * u[..., :-1]
            assert np.array_equal(laplacian_matvec(g, u), want)


def shifted(grid, c):
    """S(Id - c L) = S - c S L, the Crank-Nicolson matrix with its end rows
    halved, as the kernel builds it."""
    SL = neumann_laplacian(grid)
    return SymmetricTridiagonal(grid.weights / grid.dx - c * SL.diag, -c * SL.off)


def random_spd(rng, n):
    """A symmetric tridiagonal matrix whose rows are strictly dominant, so
    positive definite."""
    return SymmetricTridiagonal(2.5 + rng.uniform(0, 1, n), rng.uniform(-1, 1, n - 1))


class TestCrankNicolsonMatrix:
    @pytest.mark.parametrize("nx", [3, 41, 201])
    @pytest.mark.parametrize("K", [1, 3])
    def test_the_halved_right_hand_side_is_S_times_the_unhalved_one(self, nx, K):
        g = build_grid(0, 1, nx)
        c = 0.5 * 0.7 * 1e-3
        SL = neumann_laplacian(g)
        # S L's diagonals stacked to a (K, nx) state's shape; the kernel forms
        # this right-hand side as a flux difference instead (test_models.py)
        stacked = SymmetricTridiagonal(*(np.tile(a, (K, 1)) for a in SL))
        u = np.random.default_rng(nx + K).uniform(0, 3, (K, nx))
        got = stacked.matvec(u)
        got *= 2.0 * c
        assert np.array_equal(got, g.weights / g.dx * ((2.0 * c) * laplacian_matvec(g, u)))

    def test_the_halved_matrix_equals_the_unhalved_one_halved(self, grid):
        # S - c S L at the ends is 1/2 - c(-1/dx^2), the bits of (1 + 2c/dx^2)/2
        c = 0.37
        m = shifted(grid, c)
        unhalved_end = 1.0 - c * (-2.0 / grid.dx**2)
        assert m.diag[0] == m.diag[-1] == 0.5 * unhalved_end
        assert np.all(m.diag[1:-1] == unhalved_end)

    def test_the_halved_matrix_is_positive_definite(self, grid):
        for c in (0.0, 1e-8, 0.5, 1e8):
            assert factor_symmetric(*shifted(grid, c)).d.min() > 0


class TestSolves:
    def test_constants_are_fixed_points(self, grid):
        m = shifted(grid, 0.37)
        out = solve_factored(factor_symmetric(*m), m.matvec(np.full(grid.nx, 2.5)))
        assert out == pytest.approx(2.5, rel=1e-13)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_dominant_systems_solve_to_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        rhs = rng.uniform(-1, 1, n)
        m = random_spd(rng, n)
        x = solve_factored(factor_symmetric(*m), rhs.copy())
        assert np.abs(m.matvec(x) - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
        x = solve_tridiagonal(m.diag.copy(), m.off.copy(), rhs.copy())
        assert np.abs(m.matvec(x) - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 300))
    @settings(max_examples=60, deadline=None)
    def test_one_call_solve_equals_factor_then_solve(self, seed, n):
        # the one dptsv call gives the bits of dpttrf followed by dpttrs,
        # in the arrays it was handed
        rng = np.random.default_rng(seed)
        m = random_spd(rng, n)
        rhs = rng.uniform(-1, 1, n)
        diag, off, b = m.diag.copy(), m.off.copy(), rhs.copy()
        once = solve_tridiagonal(diag, off, b)
        assert np.array_equal(once, solve_factored(factor_symmetric(*m), rhs.copy()))
        assert np.shares_memory(once, b)  # solved in place, not in a copy

    def test_the_factored_solve_overwrites_its_right_hand_side(self):
        # the kernel passes the transpose of its (K, nx) right-hand side
        m = random_spd(np.random.default_rng(2), 7)
        rhs = np.random.default_rng(3).uniform(-1, 1, (3, 7))
        want = np.stack([solve_factored(factor_symmetric(*m), row.copy()) for row in rhs])
        x = solve_factored(factor_symmetric(*m), rhs.T)
        assert np.shares_memory(x, rhs)
        assert np.array_equal(x.T, want)

    @pytest.mark.parametrize("diag", [
        [1.0, 1.0, 1.0],           # D's pivot is exactly 0 (info > 0)
        [1.0, 1.0 + 2e-15, 1.0],   # pivot 2e-15, which LAPACK accepts
        [1.0, 0.5, 1.0],           # pivot -0.5: indefinite (info > 0)
    ], ids=["exact_zero", "below_1e-14", "negative"])
    @pytest.mark.parametrize("route", ["factored", "one_call"])
    def test_tiny_or_nonpositive_pivot_is_reported(self, diag, route):
        with pytest.raises(TridiagonalSolveError, match="^pivot 1 below 1e-14$"):
            if route == "factored":
                factor_symmetric(np.array(diag), np.array([1.0, 0.0]))
            else:
                solve_tridiagonal(np.array(diag), np.array([1.0, 0.0]), np.ones(3))

    def test_barely_dominant_system_solves_to_tolerance(self):
        # a margin of 1e-11 per row
        rng = np.random.default_rng(5)
        m = SymmetricTridiagonal(np.full(30, 2.00000000001), rng.uniform(-1, 1, 29))
        rhs = rng.uniform(-1, 1, 30)
        x = solve_factored(factor_symmetric(*m), rhs.copy())
        assert np.abs(m.matvec(x) - rhs).max() <= 1e-11


@pytest.fixture(scope="module", params=["extension", "fallback"])
def lapack_routines(request, tmp_path_factory):
    """The dpttrf/dpttrs/dptsv that operators loaded, or the ones its loader
    returns when it finds no extension file (an empty folder)."""
    if request.param == "extension":
        return operators.dpttrf, operators.dpttrs, operators.dptsv
    return operators._load_lapack(tmp_path_factory.mktemp("no_flapack"))


class TestLapackLoader:
    # which routines the loader returns is pinned in test_api_surface.py
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 400), columns=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_factor_and_solve_equal_scipy_bitwise(self, lapack_routines, seed, n, columns):
        # columns = 0 is an (n,) right-hand side, else an (n, columns) one
        rng = np.random.default_rng(seed)
        m = random_spd(rng, n)
        rhs = rng.uniform(-1, 1, (n, columns) if columns else n)
        with pytest.MonkeyPatch.context() as mp:
            for name, routine in zip(("dpttrf", "dpttrs", "dptsv"), lapack_routines):
                mp.setattr(operators, name, routine)
            factors = factor_symmetric(*m)
            x = solve_factored(factors, rhs.copy())
            once = solve_tridiagonal(m.diag.copy(), m.off.copy(), rhs.copy())
        *want, info = scipy.linalg.lapack.dpttrf(*m)
        assert info == 0
        for got, expected in zip(factors, want):
            assert np.array_equal(got, expected)
        assert x.shape == rhs.shape
        assert np.array_equal(x, scipy.linalg.lapack.dpttrs(*want, rhs)[0])
        assert np.array_equal(once, scipy.linalg.lapack.dptsv(*m, rhs)[2])
        assert np.array_equal(once, x)


class TestGradientEnergy:
    def test_constant_has_no_energy(self, grid):
        assert gradient_energy_values(np.full(grid.nx, 9.0), grid.dx) == 0.0

    def test_cosine_energy(self, grid):
        f = eval_expression(grid, "cos(pi*x)")
        assert gradient_energy_values(f.values, grid.dx) == pytest.approx(np.pi**2 / 2,
                                                                          abs=1e-3)

    def test_linear_energy_exact(self, grid):
        assert gradient_energy_values(grid.nodes, grid.dx) == pytest.approx(1.0, rel=1e-13)

    def test_summation_by_parts_identity(self, grid):
        # <L f, f>_w = -int |grad f|^2, exactly
        rng = np.random.default_rng(11)
        f = rng.normal(size=grid.nx)
        lhs = quadrature(grid, laplacian_matvec(grid, f) * f)
        assert lhs == pytest.approx(-gradient_energy_values(f, grid.dx),
                                    rel=1e-12, abs=1e-9)
