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
    gradient_energy_values,
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


class TestSolveShifted:
    def test_constants_are_fixed_points(self, grid):
        L = neumann_laplacian(grid)
        rhs = np.full(grid.nx, 2.5)
        out = solve_factored(shifted(L, 0.37).factor(), rhs)
        assert out == pytest.approx(2.5, rel=1e-13)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_dominant_systems_solve_to_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)  # strictly dominant
        rhs = rng.uniform(-1, 1, n)
        m = TridiagonalMatrix(lower, diag, upper)
        x = solve_factored(m.factor(), rhs)
        residual = np.abs(m.matvec(x) - rhs).max()
        assert residual <= 1e-12 * max(1.0, np.abs(rhs).max())

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 300), dominant=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_both_solves_equal_banded_solve(self, seed, n, dominant):
        # the factor-once route and the one dgtsv call give the same bits as
        # a one-shot banded solve, with and without row interchanges
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = rng.uniform(-1, 1, n) + (3.0 if dominant else 0.0)
        rhs = rng.uniform(-1, 1, n)
        x = solve_factored(TridiagonalMatrix(lower, diag, upper).factor(), rhs)
        ab = np.zeros((3, n))
        ab[0, 1:] = upper
        ab[1] = diag
        ab[2, :-1] = lower
        assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, rhs))
        b = rhs.copy()
        once = solve_tridiagonal(lower.copy(), diag.copy(), upper.copy(), b)
        assert np.array_equal(once, x)
        assert np.shares_memory(once, b)  # solved in place, not in a copy

    @pytest.mark.parametrize("solve", [
        lambda dl, d, du: TridiagonalMatrix(dl, d, du).factor(),
        lambda dl, d, du: solve_tridiagonal(dl, d, du, np.ones(3)),
    ], ids=["factor", "one_call"])
    @pytest.mark.parametrize("diag, upper", [
        ([1.0, 1e-16, 1.0], [1e-16, 0.0]),  # U pivot cancels to exactly 0 (info > 0)
        ([1.0, 2e-15, 1.0], [1e-15, 0.0]),  # U pivot 1e-15, which LAPACK accepts
        ([1.0, 1.0, 1.0], [1.0, 1.0]),      # exactly singular: two equal columns
    ], ids=["exact_zero", "below_1e-14", "singular"])
    def test_tiny_pivot_is_reported(self, solve, diag, upper):
        with pytest.raises(TridiagonalSolveError, match="^pivot 1 below 1e-14$"):
            solve(np.array([1.0, 0.0]), np.array(diag), np.array(upper))

    def test_thomas_path_matches_banded_path(self):
        # a barely dominant system: a margin of 1e-11 per row
        rng = np.random.default_rng(5)
        n = 30
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 2.00000000001 + np.zeros(n)
        rhs = rng.uniform(-1, 1, n)
        m = TridiagonalMatrix(lower, diag, upper)
        x = solve_factored(m.factor(), rhs)
        assert np.abs(m.matvec(x) - rhs).max() <= 1e-11


@pytest.fixture(scope="module", params=["extension", "fallback"])
def lapack_routines(request, tmp_path_factory):
    """The dgttrf/dgttrs/dgtsv that operators loaded, or the ones its loader
    returns when it finds no extension file (an empty folder)."""
    if request.param == "extension":
        return operators.dgttrf, operators.dgttrs, operators.dgtsv
    return operators._load_lapack(tmp_path_factory.mktemp("no_flapack"))


class TestLapackLoader:
    def test_a_miss_falls_back_to_scipy_linalg_lapack(self, tmp_path):
        dgttrf, dgttrs, dgtsv = operators._load_lapack(tmp_path)
        assert dgttrf is scipy.linalg.lapack.dgttrf
        assert dgttrs is scipy.linalg.lapack.dgttrs
        assert dgtsv is scipy.linalg.lapack.dgtsv

    def test_two_nodes_fail_as_in_scipy(self, lapack_routines, monkeypatch):
        # scipy's wrapper sizes du2 as n - 2 and rejects n = 2 (grids have
        # at least 3 nodes)
        monkeypatch.setattr(operators, "dgttrf", lapack_routines[0])
        args = np.array([0.5]), np.array([3.0, 3.0]), np.array([0.2])
        with pytest.raises(ValueError, match="unexpected array size"):
            TridiagonalMatrix(*args).factor()
        with pytest.raises(ValueError, match="unexpected array size"):
            scipy.linalg.lapack.dgttrf(*args)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 400), columns=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_factor_and_solve_equal_scipy_bitwise(self, lapack_routines, seed, n, columns):
        # columns = 0 is an (n,) right-hand side, else an (n, columns) one
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)  # strictly dominant
        rhs = rng.uniform(-1, 1, (n, columns) if columns else n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "dgttrf", lapack_routines[0])
            mp.setattr(operators, "dgttrs", lapack_routines[1])
            mp.setattr(operators, "dgtsv", lapack_routines[2])
            lu = TridiagonalMatrix(lower, diag, upper).factor()
            x = solve_factored(lu, rhs)
            once = solve_tridiagonal(lower.copy(), diag.copy(), upper.copy(), rhs.copy())
        *factors, info = scipy.linalg.lapack.dgttrf(lower, diag, upper)
        assert info == 0
        for got, want in zip(lu, factors):
            assert np.array_equal(got, want)
        assert x.shape == rhs.shape
        assert np.array_equal(x, scipy.linalg.lapack.dgttrs(*factors, rhs)[0])
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
        L = neumann_laplacian(grid)
        rng = np.random.default_rng(11)
        f = rng.normal(size=grid.nx)
        lhs = quadrature(grid, L.matvec(f) * f)
        assert lhs == pytest.approx(-gradient_energy_values(f, grid.dx),
                                    rel=1e-12, abs=1e-9)
