import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sislab import spectral
from sislab.mesh import Field, build_grid, eval_expression, quadrature
from sislab.operators import gradient_energy_values, neumann_laplacian
from sislab.spectral import (
    EigenConvergenceError,
    basic_reproduction_number,
    dense_principal_eigenvalue,
    principal_eigenvalue,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(0, 1, 201)


_coeffs = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


def _smooth(grid, c0, coeffs):
    """c0 + sum a_k cos(k pi x), k <= 3."""
    return Field(grid, c0 + sum(a * np.cos(k * np.pi * grid.nodes)
                                for k, a in enumerate(coeffs, 1)))


def _no_solve(dl, d, du, b):
    raise AssertionError("an input check should have failed before any solve")


def _poison(f, value):
    """f with its middle node set to ``value``."""
    values = np.array(f.values)
    values[len(values) // 2] = value
    return Field(f.grid, values)


# two bumps of almost equal height: the two largest eigenvalues nearly tie
_NEAR_TIE = "0.2 + exp(-((x-0.2)/0.04)^2) + 1.001*exp(-((x-0.8)/0.04)^2)"


class TestPrincipalEigenvalue:
    def test_constant_potential_returns_the_constant(self, grid):
        for d in (1e-3, 1.0, 40.0):
            res = principal_eigenvalue(d, Field(grid, 3.7))
            assert res.sigma == pytest.approx(3.7, abs=1e-10)
            assert np.ptp(res.phi.values) <= 1e-9

    def test_small_diffusion_approaches_the_max(self, grid):
        h = eval_expression(grid, "cos(2*pi*x)")
        res = principal_eigenvalue(1e-4, h)
        assert abs(res.sigma - h.max()) <= 0.05

    def test_large_diffusion_approaches_the_mean(self, grid):
        h = eval_expression(grid, "cos(2*pi*x)")
        res = principal_eigenvalue(1e3, h)
        assert abs(res.sigma - h.mean()) <= 1e-3

    def test_matches_dense_solver(self):
        g = build_grid(0, 1, 65)
        h = eval_expression(g, "cos(2*pi*x)")
        for d in (1e-3, 0.1, 1.0, 50.0):
            ours = principal_eigenvalue(d, h).sigma
            dense, _ = dense_principal_eigenvalue(d, h)
            assert ours == pytest.approx(dense, abs=1e-8)

    def test_eigenfunction_positive_and_normalized(self, grid):
        h = eval_expression(grid, "4 - pi*sin(pi*x)")
        res = principal_eigenvalue(0.3, h)
        phi = res.phi.values
        assert phi.min() > 0
        assert quadrature(grid, phi * phi) == pytest.approx(1.0, abs=1e-12)

    def test_variational_value_matches_sigma(self, grid):
        h = eval_expression(grid, "4 - pi*sin(pi*x)")
        res = principal_eigenvalue(0.7, h)
        phi = res.phi.values
        # int(h*phi^2) - d*int(|grad phi|^2) for the unit-norm eigenfunction
        value = (quadrature(grid, h.values * phi * phi)
                 - 0.7 * gradient_energy_values(phi, grid.dx))
        assert value == pytest.approx(res.sigma, abs=1e-12)

    def test_rejects_nonpositive_diffusion(self, grid):
        with pytest.raises(ValueError, match="positive"):
            principal_eigenvalue(0.0, Field(grid, 1.0))

    def test_warm_start_agrees_with_cold_start(self, grid):
        h = eval_expression(grid, "sin(3*x)")
        cold = principal_eigenvalue(0.5, h)
        warm = principal_eigenvalue(0.5, h, start=np.asarray(cold.phi.values))
        assert warm.sigma == pytest.approx(cold.sigma, abs=1e-12)
        assert warm.iterations <= cold.iterations

    @given(
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
        d=st.floats(0.01, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_bracketed_by_min_and_max(self, a, b, d):
        g = build_grid(0, 1, 41)
        h = Field(g, a + b * np.cos(np.pi * g.nodes))
        res = principal_eigenvalue(d, h)
        assert h.min() - 1e-9 <= res.sigma <= h.max() + 1e-9
        assert res.phi.min() > 0

    @given(nx=st.integers(17, 65), c0=st.floats(-2, 2), coeffs=_coeffs,
           d=st.floats(0.01, 20))
    @settings(max_examples=40, deadline=None)
    def test_bracketed_by_mean_and_max(self, nx, c0, coeffs, d):
        # the constant is a trial function with Rayleigh quotient mean(h), since L*1 = 0
        h = _smooth(build_grid(0, 1, nx), c0, coeffs)
        slack = 1e-10 * max(1.0, float(np.abs(h.values).max()))
        res = principal_eigenvalue(d, h)
        assert h.mean() - slack <= res.sigma <= h.max() + slack
        assert res.iterations <= 10


class TestNodaIteration:
    def test_near_tie_principal_eigenvalue(self):
        g = build_grid(0, 1, 201)
        h = eval_expression(g, _NEAR_TIE)
        res = principal_eigenvalue(1e-3, h)
        assert res.iterations <= 10
        assert res.sigma == pytest.approx(dense_principal_eigenvalue(1e-3, h)[0], abs=1e-12)

    def test_near_tie_reproduction_number(self):
        import scipy.linalg

        g = build_grid(0, 1, 61)
        beta, gamma = eval_expression(g, _NEAR_TIE), Field(g, 1.0)
        L = neumann_laplacian(g)
        B = (np.diag(gamma.values - 1e-3 * L.diag) + np.diag(-1e-3 * L.upper, 1)
             + np.diag(-1e-3 * L.lower, -1))
        dense = np.sort(scipy.linalg.eigvals(np.diag(beta.values), B).real)
        assert dense[-2] / dense[-1] > 0.999
        assert basic_reproduction_number(1e-3, beta, gamma) == pytest.approx(dense[-1],
                                                                            rel=1e-12)

    @pytest.mark.parametrize("solve", [
        lambda g: principal_eigenvalue(1e-3, eval_expression(g, "cos(2*pi*(x - 0.45))")),
        lambda g: basic_reproduction_number(1e-3, eval_expression(g, "2 - sin(pi*x)"),
                                            Field(g, 1.5)),
    ], ids=["sigma", "R0"])
    def test_every_step_solves_in_place(self, monkeypatch, solve):
        # each step hands dgtsv the same four work arrays and gets its
        # solution back in the right-hand side's memory, so no step copies
        seen = []
        one_call = spectral.solve_tridiagonal

        def in_place(dl, d, du, b):
            x = one_call(dl, d, du, b)
            seen.append((id(dl), id(d), id(du), id(b), np.shares_memory(x, b)))
            return x

        monkeypatch.setattr(spectral, "solve_tridiagonal", in_place)
        solve(build_grid(0, 1, 201))
        assert len(seen) > 1
        assert all(step == seen[0] for step in seen)
        assert seen[0][-1]

    @pytest.mark.parametrize("nx", [201, 2001])
    @pytest.mark.parametrize("d", [1e-5, 1e-3, 1.0])
    @pytest.mark.parametrize("expr", ["x", "cos(2*pi*(x-0.45))"])
    def test_unreachable_tolerance_ends_at_the_iteration_cap(self, monkeypatch, nx, d,
                                                              expr):
        # the shift settles onto sigma; its margin keeps every factorization
        # safe, so the solve runs to the cap instead of hitting a tiny pivot
        monkeypatch.setattr(spectral, "_TOL", 1e-300)
        h = eval_expression(build_grid(0, 1, nx), expr)
        with pytest.raises(EigenConvergenceError, match="after 10000 iterations"):
            principal_eigenvalue(d, h)

    def test_unreachable_tolerance_ends_the_pencil_at_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(spectral, "_TOL", 1e-300)
        g = build_grid(0, 1, 201)
        with pytest.raises(EigenConvergenceError, match="after 10000 iterations"):
            basic_reproduction_number(1e-3, eval_expression(g, _NEAR_TIE), Field(g, 1.0))

    @pytest.mark.filterwarnings("error")
    def test_an_iterate_whose_weighted_square_underflows_is_rescaled(self):
        # a shift near 1e300 leaves the solve's x near 1e-300, and w*x^2
        # underflows to 0; normalizing by its root would divide by zero
        h = eval_expression(build_grid(0, 1, 41), "1e300*cos(2*pi*x)")
        res = principal_eigenvalue(1.0, h)
        assert res.iterations == 2
        assert res.phi.min() > 0
        assert quadrature(h.grid, res.phi.values ** 2) == pytest.approx(1.0, rel=1e-14)
        assert res.sigma == pytest.approx(dense_principal_eigenvalue(1.0, h)[0], rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_a_residual_that_is_not_finite_ends_the_iteration_at_once(self, monkeypatch):
        # 1e307*cos overflows in the Rayleigh quotient's residual
        h = eval_expression(build_grid(0, 1, 41), "1e307*cos(2*pi*x)")
        with pytest.raises(EigenConvergenceError,
                           match=r"after 1 iterations \(last residual inf\)$"):
            principal_eigenvalue(1.0, h)
        # a solve that returns nan makes the next residual nan
        solve = spectral.solve_tridiagonal
        monkeypatch.setattr(spectral, "solve_tridiagonal",
                            lambda dl, d, du, b: solve(dl, d, du, b) * np.nan)
        h = eval_expression(build_grid(0, 1, 41), "cos(2*pi*x)")
        with pytest.raises(EigenConvergenceError,
                           match=r"after 1 iterations \(last residual nan\)$"):
            principal_eigenvalue(1.0, h)

    @pytest.mark.parametrize("scale", ["1e20", "1e60"])
    def test_a_huge_potential_keeps_every_pivot_off_zero(self, scale):
        # 2d/dx^2 is below half an ulp of h at the peaks, so the diagonal of
        # d*L + h rounds onto h there; a shift of max(h) would zero that pivot
        h = eval_expression(build_grid(0, 1, 41), f"{scale}*cos(2*pi*x)")
        res = principal_eigenvalue(1.0, h)
        assert res.phi.min() > 0
        assert res.sigma == pytest.approx(dense_principal_eigenvalue(1.0, h)[0], rel=1e-15)

    @pytest.mark.parametrize("solve, match", [
        (lambda f: principal_eigenvalue(float("nan"), f), "rate d must be positive"),
        (lambda f: basic_reproduction_number(float("nan"), f, f), "rate d_I must be positive"),
        (lambda f: basic_reproduction_number(
            1.0, Field(f.grid, np.where(f.grid.nodes < 0.5, 1.0, np.nan)), f),
         "rates must be positive"),
        (lambda f: principal_eigenvalue(float("inf"), f), "rate d must be positive and finite"),
        (lambda f: principal_eigenvalue(1.0, _poison(f, np.nan)), "potential h must be finite"),
        (lambda f: principal_eigenvalue(1.0, _poison(f, np.inf)), "potential h must be finite"),
        (lambda f: principal_eigenvalue(1.0, _poison(f, -np.inf)), "potential h must be finite"),
        (lambda f: basic_reproduction_number(float("inf"), f, f),
         "rate d_I must be positive and finite"),
        (lambda f: basic_reproduction_number(1.0, _poison(f, np.inf), f),
         "rates must be positive and finite"),
        (lambda f: basic_reproduction_number(1.0, f, _poison(f, np.inf)),
         "rates must be positive and finite"),
    ], ids=["sigma-d", "R0-d", "R0-beta", "sigma-d-inf", "sigma-h-nan", "sigma-h-inf",
            "sigma-h-minus-inf", "R0-d-inf", "R0-beta-inf", "R0-gamma-inf"])
    def test_nan_inputs_are_rejected(self, grid, monkeypatch, solve, match):
        # NaN fails every comparison, so a "<= 0" check would let it through;
        # an inf passes "> 0" and would make every residual NaN
        monkeypatch.setattr(spectral, "solve_tridiagonal", _no_solve)
        with pytest.raises(ValueError, match=match):
            solve(eval_expression(grid, "1 + 0.5*cos(pi*x)"))


class TestMonotonicity:
    def test_strictly_decreasing_in_d(self, grid):
        h = eval_expression(grid, "cos(2*pi*x)")
        sigmas = [principal_eigenvalue(d, h).sigma for d in (0.01, 0.1, 1.0, 10.0)]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    def test_values_land_between_mean_and_max(self, grid):
        h = eval_expression(grid, "4 - pi*sin(pi*x)")
        s_small = principal_eigenvalue(0.1, h).sigma
        s_big = principal_eigenvalue(1.0, h).sigma
        assert 2.0 < s_big < s_small < 4.0


class TestReproductionNumber:
    def test_balanced_rates_give_one(self, grid):
        f = eval_expression(grid, "1 + 0.3*sin(pi*x)")
        assert basic_reproduction_number(0.5, f, f) == pytest.approx(1.0, abs=1e-9)

    def test_constant_ratio_is_diffusion_independent(self, grid):
        beta = Field(grid, 2.0)
        gamma = Field(grid, 1.0)
        for d in (0.05, 1.0, 30.0):
            assert basic_reproduction_number(d, beta, gamma) == pytest.approx(2.0, abs=1e-9)

    def test_sign_agrees_with_the_eigenvalue(self, grid):
        beta = eval_expression(grid, "1 + sin(pi*x)")
        gamma = Field(grid, 1.5)
        r0 = basic_reproduction_number(1.0, beta, gamma)
        sig = principal_eigenvalue(1.0, Field(grid, beta.values - gamma.values)).sigma
        assert (r0 - 1.0) * sig > 0

    @given(nx=st.integers(17, 65), beta=_coeffs, gamma=_coeffs,
           floors=st.tuples(st.floats(0.05, 2), st.floats(0.05, 2)),
           d_I=st.floats(0.01, 20))
    @settings(max_examples=40, deadline=None)
    def test_sign_agrees_with_the_eigenvalue_on_random_rates(self, nx, beta, gamma,
                                                              floors, d_I):
        g = build_grid(0, 1, nx)
        beta, gamma = (_smooth(g, sum(map(abs, c)) + f, c)
                       for c, f in zip((beta, gamma), floors))
        sig = principal_eigenvalue(d_I, Field(g, beta.values - gamma.values)).sigma
        assume(abs(sig) >= 1e-8)
        solves = []
        solve = spectral.solve_tridiagonal
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "solve_tridiagonal",
                       lambda dl, d, du, b: solves.append(1) or solve(dl, d, du, b))
            r0 = basic_reproduction_number(d_I, beta, gamma)
        assert np.sign(r0 - 1.0) == np.sign(sig)
        assert len(solves) <= 10

    @given(nx=st.integers(17, 65), b=st.floats(0.05, 5), gamma=_coeffs,
           floor=st.floats(0.05, 2), d_I=st.floats(0.01, 20))
    @settings(max_examples=40, deadline=None)
    def test_constant_transmission_gives_r0_from_sigma(self, nx, b, gamma, floor, d_I):
        # with beta = b the pencil is (d_I*L - gamma) u = -(b/R0) u, so R0 = -b/sigma(d_I, -gamma)
        g = build_grid(0, 1, nx)
        gamma = _smooth(g, sum(map(abs, gamma)) + floor, gamma)
        sig = principal_eigenvalue(d_I, Field(g, -gamma.values)).sigma
        r0 = basic_reproduction_number(d_I, Field(g, b), gamma)
        assert r0 == pytest.approx(-b / sig, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_a_weight_product_that_underflows_is_left_out_of_the_shift(self, tiny):
        # gamma/beta overflows at the subnormal node; at the least subnormal
        # beta*u also underflows to 0 there, so its ratio in the
        # Collatz-Wielandt bound is inf or nan.  The shift takes the largest
        # finite ratio, no warning escapes, and the iteration converges as
        # the dense solver says
        import scipy.linalg

        g = build_grid(0, 1, 41)
        beta = np.full(g.nx, 2.0)
        beta[20] = tiny
        L = neumann_laplacian(g)
        B = np.diag(1.0 - L.diag) + np.diag(-L.upper, 1) + np.diag(-L.lower, -1)
        dense = np.sort(scipy.linalg.eigvals(np.diag(beta), B).real)[-1]
        r0 = basic_reproduction_number(1.0, Field(g, beta), Field(g, 1.0))
        assert r0 == pytest.approx(dense, rel=1e-12)

    def test_rates_must_share_one_grid(self, monkeypatch):
        # equal node counts on [0, 5] and [0, 1] are two different grids
        monkeypatch.setattr(spectral, "solve_tridiagonal", _no_solve)
        with pytest.raises(ValueError, match="^fields live on different grids$"):
            basic_reproduction_number(1.0, Field(build_grid(0, 5, 41), 2.0),
                                      Field(build_grid(0, 1, 41), 1.0))

    def test_matches_dense_generalized_solver(self):
        import scipy.linalg

        g = build_grid(0, 1, 65)
        beta = eval_expression(g, "2.5 + sin(pi*x)")
        gamma = eval_expression(g, "1.5 + sin(pi*x)")
        d = 0.8
        from sislab.operators import neumann_laplacian

        L = neumann_laplacian(g)
        sqw = np.sqrt(g.weights)
        A = np.diag(beta.values)
        B = np.diag(gamma.values - d * L.diag)
        B += np.diag(-d * L.upper * sqw[:-1] / sqw[1:], 1)
        B += np.diag(-d * L.lower * sqw[1:] / sqw[:-1], -1)
        dense = scipy.linalg.eigh(A, B, eigvals_only=True)[-1]
        ours = basic_reproduction_number(d, beta, gamma)
        assert ours == pytest.approx(dense, abs=1e-9)

