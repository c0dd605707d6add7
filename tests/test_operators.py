from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings, strategies as st

from sislab import operators
from sislab.mesh import build_grid, eval_expression, quadrature
from sislab.operators import (
    TridiagonalMatrix,
    TridiagonalSolveError,
    factor_symmetric,
    gradient_energy_values,
    halve_end_rows,
    neumann_laplacian,
    solve_factored,
    solve_tridiagonal,
)


@pytest.fixture
def grid():
    return build_grid(0, 1, 201)


class TestNeumannLaplacian:
    def test_rows_sum_to_zero(self, grid):
        L = neumann_laplacian(grid)
        assert np.abs(L.matvec(np.ones(grid.nx))).max() == 0.0

    def test_kills_constants(self, grid):
        L = neumann_laplacian(grid)
        assert np.abs(L.matvec(np.full(grid.nx, 4.2))).max() == 0.0

    def test_cosine_eigenfunction(self, grid):
        L = neumann_laplacian(grid)
        u = np.cos(np.pi * grid.nodes)
        err = np.abs(L.matvec(u) + np.pi**2 * u).max()
        assert err <= 1e-3

    def test_quadratic_exact_in_the_interior(self):
        g = build_grid(0, 2, 41)
        L = neumann_laplacian(g)
        vals = L.matvec(g.nodes**2)
        assert vals[1:-1] == pytest.approx(2.0, abs=1e-9)

    def test_weighted_symmetry_and_sign(self, grid):
        L = neumann_laplacian(grid)
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = rng.normal(size=grid.nx)
            g_ = rng.normal(size=grid.nx)
            lhs = quadrature(grid, L.matvec(f) * g_)
            rhs = quadrature(grid, f * L.matvec(g_))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-8)
            assert quadrature(grid, L.matvec(f) * f) <= 1e-10
        assert quadrature(grid, L.matvec(np.ones(grid.nx)) * np.ones(grid.nx)) == 0.0

    def test_discrete_flux_balance(self, grid):
        # quadrature of L f vanishes for every f: no mass crosses the boundary
        L = neumann_laplacian(grid)
        rng = np.random.default_rng(3)
        f = rng.normal(size=grid.nx)
        assert abs(quadrature(grid, L.matvec(f))) <= 1e-10 * np.abs(f).max() / grid.dx


def shifted(L, alpha):
    """Id - alpha*L, the Crank-Nicolson matrix."""
    return TridiagonalMatrix(-alpha * L.lower, 1.0 - alpha * L.diag, -alpha * L.upper)


def factor(m):
    """L D L^T of a symmetric tridiagonal matrix."""
    assert np.array_equal(m.lower, m.upper)
    return factor_symmetric(m.diag, m.upper)


def random_spd(rng, n):
    """A symmetric tridiagonal matrix whose rows are strictly dominant, so
    positive definite."""
    off = rng.uniform(-1, 1, n - 1)
    return TridiagonalMatrix(off, 2.5 + rng.uniform(0, 1, n), off)


def laplacian(nx):
    """The Neumann Laplacian on [0, 1] and its 1/dx^2; two nodes make no
    grid, but the Laplacian's rows are defined for them."""
    grid = build_grid(0, 1, nx) if nx > 2 else SimpleNamespace(nx=2, dx=1.0)
    return neumann_laplacian(grid), 1.0 / grid.dx**2


class TestHalvedEndRows:
    @pytest.mark.parametrize("nx", [2, 3, 41, 201])
    @pytest.mark.parametrize("K", [1, 3])
    def test_halving_makes_crank_nicolson_exactly_symmetric(self, nx, K):
        L, inv_dx2 = laplacian(nx)
        c = 0.5 * 0.7 * 1e-3
        lhs = halve_end_rows(shifted(L, c))
        assert np.array_equal(lhs.lower, lhs.upper)
        assert np.all(lhs.upper == -c * inv_dx2)
        SL = halve_end_rows(L)
        assert np.array_equal(SL.lower, SL.upper)
        # S L's diagonals stacked to the state's shape, as the kernel keeps them
        rows = (K, 1)
        stacked = TridiagonalMatrix(*(np.tile(a, rows) for a in (SL.lower, SL.diag, SL.upper)))
        u = np.random.default_rng(nx + K).uniform(0, 3, (K, nx))
        half = np.ones(nx)
        half[[0, -1]] = 0.5
        got = stacked.matvec(u)
        got *= 2.0 * c
        assert np.array_equal(got, half * ((2.0 * c) * L.matvec(u)))

    def test_the_halved_matrix_is_positive_definite(self):
        L, _ = laplacian(201)
        for c in (0.0, 1e-8, 0.5, 1e8):
            lhs = halve_end_rows(shifted(L, c))
            assert factor(lhs).d.min() > 0


class TestSolveShifted:
    def test_constants_are_fixed_points(self, grid):
        lhs = halve_end_rows(shifted(neumann_laplacian(grid), 0.37))
        out = solve_factored(factor(lhs), lhs.matvec(np.full(grid.nx, 2.5)))
        assert out == pytest.approx(2.5, rel=1e-13)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_dominant_systems_solve_to_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        rhs = rng.uniform(-1, 1, n)
        m = random_spd(rng, n)
        x = solve_factored(factor(m), rhs.copy())
        assert np.abs(m.matvec(x) - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
        # the one-call LU route, on a matrix that is not symmetric
        m = TridiagonalMatrix(rng.uniform(-1, 1, n - 1), m.diag, m.upper)
        x = solve_tridiagonal(m.lower.copy(), m.diag.copy(), m.upper.copy(), rhs.copy())
        assert np.abs(m.matvec(x) - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 300), dominant=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_one_call_solve_equals_banded_solve(self, seed, n, dominant):
        # the one dgtsv call gives the same bits as a one-shot banded solve,
        # with and without row interchanges
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = rng.uniform(-1, 1, n) + (3.0 if dominant else 0.0)
        rhs = rng.uniform(-1, 1, n)
        ab = np.zeros((3, n))
        ab[0, 1:] = upper
        ab[1] = diag
        ab[2, :-1] = lower
        b = rhs.copy()
        once = solve_tridiagonal(lower.copy(), diag.copy(), upper.copy(), b)
        assert np.array_equal(once, scipy.linalg.solve_banded((1, 1), ab, rhs))
        assert np.shares_memory(once, b)  # solved in place, not in a copy

    def test_the_factored_solve_overwrites_its_right_hand_side(self):
        # the kernel passes the transpose of its (K, nx) right-hand side
        m = random_spd(np.random.default_rng(2), 7)
        rhs = np.random.default_rng(3).uniform(-1, 1, (3, 7))
        want = np.stack([solve_factored(factor(m), row.copy()) for row in rhs])
        x = solve_factored(factor(m), rhs.T)
        assert np.shares_memory(x, rhs)
        assert np.array_equal(x.T, want)

    @pytest.mark.parametrize("diag, upper", [
        ([1.0, 1e-16, 1.0], [1e-16, 0.0]),  # U pivot cancels to exactly 0 (info > 0)
        ([1.0, 2e-15, 1.0], [1e-15, 0.0]),  # U pivot 1e-15, which LAPACK accepts
        ([1.0, 1.0, 1.0], [1.0, 1.0]),      # exactly singular: two equal columns
    ], ids=["exact_zero", "below_1e-14", "singular"])
    def test_tiny_pivot_is_reported(self, diag, upper):
        with pytest.raises(TridiagonalSolveError, match="^pivot 1 below 1e-14$"):
            solve_tridiagonal(np.array([1.0, 0.0]), np.array(diag), np.array(upper),
                              np.ones(3))

    @pytest.mark.parametrize("diag", [
        [1.0, 1.0, 1.0],           # D's pivot is exactly 0 (info > 0)
        [1.0, 1.0 + 2e-15, 1.0],   # pivot 2e-15, which LAPACK accepts
        [1.0, 0.5, 1.0],           # pivot -0.5: indefinite (info > 0)
    ], ids=["exact_zero", "below_1e-14", "negative"])
    def test_tiny_or_nonpositive_pivot_is_reported(self, diag):
        with pytest.raises(TridiagonalSolveError, match="^pivot 1 below 1e-14$"):
            factor_symmetric(np.array(diag), np.array([1.0, 0.0]))

    def test_barely_dominant_system_solves_to_tolerance(self):
        # a margin of 1e-11 per row
        rng = np.random.default_rng(5)
        off = rng.uniform(-1, 1, 29)
        m = TridiagonalMatrix(off, np.full(30, 2.00000000001), off)
        rhs = rng.uniform(-1, 1, 30)
        x = solve_factored(factor(m), rhs.copy())
        assert np.abs(m.matvec(x) - rhs).max() <= 1e-11


@pytest.fixture(scope="module", params=["extension", "fallback"])
def lapack_routines(request, tmp_path_factory):
    """The dpttrf/dpttrs/dgtsv that operators loaded, or the ones its loader
    returns when it finds no extension file (an empty folder)."""
    if request.param == "extension":
        return operators.dpttrf, operators.dpttrs, operators.dgtsv
    return operators._load_lapack(tmp_path_factory.mktemp("no_flapack"))


class TestLapackLoader:
    def test_a_miss_falls_back_to_scipy_linalg_lapack(self, tmp_path):
        dpttrf, dpttrs, dgtsv = operators._load_lapack(tmp_path)
        assert dpttrf is scipy.linalg.lapack.dpttrf
        assert dpttrs is scipy.linalg.lapack.dpttrs
        assert dgtsv is scipy.linalg.lapack.dgtsv

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 400), columns=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_factor_and_solve_equal_scipy_bitwise(self, lapack_routines, seed, n, columns):
        # columns = 0 is an (n,) right-hand side, else an (n, columns) one
        rng = np.random.default_rng(seed)
        m = random_spd(rng, n)
        rhs = rng.uniform(-1, 1, (n, columns) if columns else n)
        with pytest.MonkeyPatch.context() as mp:
            for name, routine in zip(("dpttrf", "dpttrs", "dgtsv"), lapack_routines):
                mp.setattr(operators, name, routine)
            factors = factor(m)
            x = solve_factored(factors, rhs.copy())
            once = solve_tridiagonal(m.lower.copy(), m.diag.copy(), m.upper.copy(), rhs.copy())
        *want, info = scipy.linalg.lapack.dpttrf(m.diag, m.upper)
        assert info == 0
        for got, expected in zip(factors, want):
            assert np.array_equal(got, expected)
        assert x.shape == rhs.shape
        assert np.array_equal(x, scipy.linalg.lapack.dpttrs(*want, rhs)[0])
        assert np.array_equal(once, scipy.linalg.lapack.dgtsv(m.lower, m.diag, m.upper, rhs)[3])


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
        L = neumann_laplacian(grid)
        rng = np.random.default_rng(11)
        f = rng.normal(size=grid.nx)
        lhs = quadrature(grid, L.matvec(f) * f)
        assert lhs == pytest.approx(-gradient_energy_values(f, grid.dx),
                                    rel=1e-12, abs=1e-9)
