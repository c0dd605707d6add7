import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st

from sislab import threshold
from sislab.config import preset_config
from sislab.mesh import Field, build_grid, eval_expression, quadrature
from sislab.operators import TridiagonalSolveError, solve_tridiagonal
from sislab.spectral import principal_eigenvalue
from sislab.threshold import OptimizerOptions, critical_population


def _strict(nx):
    # nonconstant transmission rate with a sign-changing susceptible excess:
    # the optimum trades feasibility bought on the right for objective on
    # the left, so the threshold sits strictly between its two bounds
    g = build_grid(0, 1, nx)
    return (eval_expression(g, "1 + 0.9*cos(pi*x)"), Field(g, 1.0),
            eval_expression(g, "0.5*(1 + x)"), 1.0)


@pytest.fixture(scope="module")
def strict_instance():
    S0, r, beta, _ = _strict(201)
    return S0.grid, S0, r, beta


class TestSensitivity:
    def test_constant_potential_gives_uniform_sensitivity(self):
        g = build_grid(0, 1, 51)
        sens = principal_eigenvalue(1.0, Field(g, 2.0)).phi.values ** 2
        assert sens == pytest.approx(1.0, rel=1e-9)

    def test_matches_central_differences(self):
        g = build_grid(0, 1, 33)
        rng = np.random.default_rng(42)
        hv = rng.uniform(-1.0, 1.0, g.nx)
        sens = principal_eigenvalue(0.8, Field(g, hv)).phi.values ** 2
        eps = 1e-5
        for i in range(0, g.nx, 4):
            hp = hv.copy(); hp[i] += eps
            hm = hv.copy(); hm[i] -= eps
            fd = (principal_eigenvalue(0.8, Field(g, hp)).sigma
                  - principal_eigenvalue(0.8, Field(g, hm)).sigma) / (2 * eps)
            assert abs(fd - g.weights[i] * sens[i]) <= 1e-6

    def test_nonnegative_and_sums_to_one(self):
        g = build_grid(0, 1, 33)
        sens = principal_eigenvalue(0.5, eval_expression(g, "sin(3*x)")).phi.values ** 2
        assert sens.min() >= 0
        assert g.weights @ sens == pytest.approx(1.0, abs=1e-12)


class TestCriticalPopulation:
    def test_constant_transmission_rate_pins_the_threshold(self):
        g = build_grid(0, 1, 201)
        S0 = eval_expression(g, "2 + cos(pi*x)")
        r = eval_expression(g, "(4 - pi*sin(pi*x))/2")
        res = critical_population(S0, r, Field(g, 2.0), d_I=1.0)
        assert res.n_star == pytest.approx(res.lower_bound, rel=1e-3)
        assert res.sigma_at_opt <= 1e-8

    def test_dominated_initial_susceptibles_pin_the_threshold(self):
        g = build_grid(0, 1, 201)
        S0 = eval_expression(g, "0.2 + 0.1*cos(pi*x)")
        r = eval_expression(g, "1 + 0.5*x")
        beta = eval_expression(g, "1 + x")
        res = critical_population(S0, r, beta, d_I=0.7)
        assert res.n_star == pytest.approx(quadrature(r.grid, r.values), rel=1e-3)

    def test_bound_sandwich_and_feasibility(self, strict_instance):
        g, S0, r, beta = strict_instance
        res = critical_population(S0, r, beta, d_I=1.0)
        assert res.lower_bound - 1e-9 <= res.n_star <= res.upper_bound + 1e-9
        assert res.sigma_at_opt <= 1e-8
        assert 0.0 <= res.lambda_star.min() and res.lambda_star.max() <= 1.0

    def test_strictly_below_the_upper_bound(self, strict_instance):
        g, S0, r, beta = strict_instance
        res = critical_population(S0, r, beta, d_I=1.0)
        assert res.n_star <= res.upper_bound * (1 - 0.005)
        assert res.n_star > res.lower_bound + 1e-3

    def test_monotone_in_the_infected_dispersal_rate(self, strict_instance):
        g, S0, r, beta = strict_instance
        slow = critical_population(S0, r, beta, d_I=0.5)
        fast = critical_population(S0, r, beta, d_I=2.0)
        assert fast.n_star >= slow.n_star - 1e-6

    def test_returned_multiplier_field_is_feasible(self, strict_instance):
        g, S0, r, beta = strict_instance
        res = critical_population(S0, r, beta, d_I=1.0)
        h = Field(g, beta.values * res.lambda_star.values * (S0.values - r.values))
        assert principal_eigenvalue(1.0, h).sigma <= 1e-8

    def test_input_validation(self):
        g = build_grid(0, 1, 21)
        with pytest.raises(ValueError, match="susceptible density must be nonnegative"):
            critical_population(Field(g, g.nodes - 0.5), Field(g, 1.0),
                                Field(g, 1.0), d_I=1.0)
        with pytest.raises(ValueError):
            critical_population(Field(g, 1.0), Field(g, 0.0),
                                Field(g, 1.0), d_I=1.0)
        with pytest.raises(ValueError):
            critical_population(Field(g, 1.0), Field(g, 1.0),
                                Field(g, 1.0), d_I=0.0)

    @pytest.mark.parametrize("name", ["S0", "r", "beta", "d_I"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_value_that_is_not_finite_is_named(self, name, bad, recwarn):
        g = build_grid(0, 1, 41)
        args = {"S0": Field(g, 3.0), "r": Field(g, 1.0), "beta": Field(g, 2.0), "d_I": 1.0}
        if name == "d_I":
            args[name] = bad
        else:
            values = args[name].values.copy()
            values[20] = bad
            args[name] = Field(g, values)
        with pytest.raises(ValueError, match=f"^{name}: .* and finite"):
            critical_population(**args)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_fields_must_share_one_grid(self, which):
        # equal node counts on [0, 5] and [0, 1] are two different grids
        fields = [Field(build_grid(0, 1, 21), v) for v in (3.0, 1.0, 2.0)]
        fields[which] = Field(build_grid(0, 5, 21), fields[which].values)
        with pytest.raises(ValueError, match="^fields live on different grids$"):
            critical_population(*fields, d_I=1.0)

    def test_a_level_step_whose_every_node_moves_up_may_be_feasible_at_once(self):
        # nodes of negative gap at lam = 1 and of positive gap at lam = 0:
        # moving every node a short radius up keeps the potential negative,
        # so the first trial is the step, with no bisection
        S0, r, beta, d_I = _strict(41)
        prob = threshold._Problem(S0, r, beta, d_I)
        lam = (prob.gap < 0).astype(float)
        sigma, phi = prob.sigma(lam, None)
        solves = prob.eigen_solves
        step = prob.level_step(lam, phi, prob.beta * phi * phi, np.full(lam.size, 1e-3))
        assert prob.eigen_solves == solves + 1
        assert np.array_equal(step[0], lam + 1e-3 * np.sign(prob.gap))
        assert step[1] <= threshold._FEAS_TOL
        assert prob.objective(step[0]) > prob.objective(lam)


def _sim1c(nx, **overrides):
    spec, _, S0, _ = preset_config("sim1c", nx=nx, **overrides).build()
    return S0, spec.risk_ratio(), spec.beta, spec.d_I


def _slsqp_threshold(S0, r, beta, d_I):
    """Reference optimum from a general-purpose SQP solver on the same program."""
    g = S0.grid
    gap = S0.values - r.values
    c = g.weights * gap

    def constraint(lam):
        eig = principal_eigenvalue(d_I, Field(g, beta.values * lam * gap))
        return -eig.sigma, -g.weights * beta.values * gap * eig.phi.values ** 2

    res = scipy.optimize.minimize(
        lambda lam: -c @ lam, np.zeros(g.nx), jac=lambda lam: -c, method="SLSQP",
        bounds=[(0.0, 1.0)] * g.nx, options={"ftol": 1e-14, "maxiter": 1000},
        constraints=[{"type": "ineq", "fun": lambda lam: constraint(lam)[0],
                      "jac": lambda lam: constraint(lam)[1]}])
    assert res.success, res.message
    assert constraint(res.x)[0] >= -1e-12
    return quadrature(g, r.values) + float(c @ res.x)


class TestCertifiedOptimum:
    @pytest.mark.parametrize("instance", [_strict, _sim1c], ids=["strict", "sim1c"])
    def test_matches_a_general_purpose_solver(self, instance):
        args = instance(41)
        res = critical_population(*args)
        reference = _slsqp_threshold(*args)
        assert res.n_star == pytest.approx(reference, rel=1e-6)
        assert res.converged

    def test_sim1c_is_certified_and_independent_of_the_seed(self):
        results = [critical_population(*_sim1c(201), OptimizerOptions(seed=seed))
                   for seed in range(4)]
        res = results[0]
        assert res.converged
        assert res.dual_bound - res.n_star <= 1e-6 * res.n_star
        assert res.n_star >= 2.8673
        assert res.sigma_at_opt <= 1e-8
        assert [r.n_star for r in results] == [res.n_star] * 4

    def test_an_unfinished_ascent_says_so_and_stays_feasible(self, monkeypatch):
        S0, r, beta, _ = _strict(201)
        monkeypatch.setattr(threshold, "_MAX_ITER", 1)
        res = critical_population(S0, r, beta, 0.5)
        assert not res.converged
        assert res.dual_bound - res.n_star > 1e-6 * res.n_star
        assert res.sigma_at_opt <= 1e-8
        h = Field(S0.grid, beta.values * res.lambda_star.values * (S0.values - r.values))
        assert principal_eigenvalue(0.5, h).sigma <= 1e-8
        monkeypatch.undo()
        assert critical_population(S0, r, beta, 0.5).converged


def _failing_solve(after):
    """threshold's one-call solve, stopping at a pivot that is not positive on
    its first ``after`` calls, as it does on a fixed block that is not
    positive definite."""
    calls = []

    def fake(diag, off, b):
        calls.append(1)
        if len(calls) > after:
            return solve_tridiagonal(diag, off, b)
        raise TridiagonalSolveError("pivot 0 below 1e-14")

    return fake, calls


def test_a_failed_completion_is_skipped_and_the_result_still_certified(monkeypatch):
    args = _sim1c(41)
    want = critical_population(*args)
    prob = threshold._Problem(*args)
    nx = prob.grid.nx
    fake, _ = _failing_solve(after=nx)
    monkeypatch.setattr(threshold, "solve_tridiagonal", fake)
    assert prob.complete(np.zeros(nx), np.ones(nx, dtype=bool)) is None
    # the first completion of the ascent fails: its step is refused, the
    # trust radius halves, and the next steps reach the same optimum
    fake, calls = _failing_solve(after=1)
    monkeypatch.setattr(threshold, "solve_tridiagonal", fake)
    res = critical_population(*args)
    assert len(calls) > 1
    assert res.converged
    assert res.sigma_at_opt <= 1e-8
    assert res.n_star == want.n_star
    assert res.iterations > want.iterations


def _smooth(grid, coeffs, floor):
    v = sum(a * np.cos(k * np.pi * grid.nodes) for k, a in enumerate(coeffs, 1))
    return Field(grid, v - v.min() + floor)


_coeffs = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@given(nx=st.integers(17, 41), s0=_coeffs, r=_coeffs, beta=_coeffs,
       floors=st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
       d_I=st.floats(0.2, 2.0))
@settings(max_examples=40, deadline=None)
def test_random_smooth_instances_are_certified(nx, s0, r, beta, floors, d_I):
    g = build_grid(0, 1, nx)
    S0, r, beta = (_smooth(g, c, f) for c, f in zip((s0, r, beta), floors))
    res = critical_population(S0, r, beta, d_I)
    assert res.converged
    assert res.sigma_at_opt <= 1e-8
    assert res.lower_bound - 1e-9 <= res.n_star <= res.upper_bound + 1e-9
    assert res.n_star <= res.dual_bound


@given(nx=st.integers(5, 41), s0=_coeffs, r=_coeffs, beta=_coeffs,
       floors=st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
       log_d=st.floats(-4.0, 0.3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_a_completion_is_refused_exactly_where_its_fixed_block_is_not_definite(
        nx, s0, r, beta, floors, log_d, seed):
    # The fixed-node block -S(d_I*L + h - tau) has nonpositive off-diagonals,
    # so its solve has a positive solution exactly when it is positive
    # definite; otherwise the solve stops at a pivot that is not positive
    # and the completion returns None.  A small d_I makes about 40% of the
    # blocks indefinite.
    d_I = 10.0 ** log_d
    g = build_grid(0, 1, nx)
    prob = threshold._Problem(*(_smooth(g, c, f) for c, f in zip((s0, r, beta), floors)), d_I)
    rng = np.random.default_rng(seed)
    lam = rng.uniform(size=nx)
    free = rng.uniform(size=nx) < 0.3
    fixed = ~(free & (prob.gap != 0))
    assume(fixed.any() and not fixed.all())
    SL = prob.laplacian
    h = prob.beta * lam * prob.gap - threshold._AIM * threshold._FEAS_TOL
    off = np.diag(d_I * SL.off, 1)
    dense = np.diag(d_I * SL.diag + prob.s * h) + off + off.T
    lowest = np.linalg.eigvalsh(-dense[np.ix_(fixed, fixed)])[0]
    assume(abs(lowest) > 1e-8 * (4.0 * d_I / g.dx**2 + np.abs(h).max()))
    first = []

    def spy(diag, off, b):
        try:
            x = solve_tridiagonal(diag, off, b)
        except TridiagonalSolveError:
            first.append(None)
            raise
        first.append(x.copy())
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threshold, "solve_tridiagonal", spy)
        out = prob.complete(lam, free)
    if lowest < 0:
        assert first[0] is None and out is None
    else:
        assert first[0].min() > 0
