"""Tests for the outer-loop minimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quambo.optimize import (
    FdQuasiNewton,
    NelderMead,
    Spsa,
    minimize,
    minimize_batch,
    spsa_schedules,
    spsa_step,
)
from quambo.problems import FacilityProblem, encode_single_complement
from quambo.qaoa import InitSpec, MixerSpec, QaoaContext

from references import scipy_nelder_mead


def quadratic(x):
    return float(np.sum((x - 1.5) ** 2))


class TestNelderMead:
    def test_quadratic(self):
        res = minimize(quadratic, np.zeros(3), NelderMead())
        assert res.f_best < 1e-8
        assert np.abs(res.x_best - 1.5).max() < 1e-3

    def test_best_seen_contract(self):
        evals = []

        def f(x):
            v = quadratic(x)
            evals.append(v)
            return v

        res = minimize(f, np.zeros(2), NelderMead(max_iter=40))
        assert res.f_best == min(evals)
        assert res.evals == len(evals)
        assert res.f_best == quadratic(res.x_best)

    def test_nonfinite_objective_raises(self):
        with pytest.raises(FloatingPointError):
            minimize(lambda x: float("nan"), np.zeros(2), NelderMead())

    def test_trace_monotone_indexing(self):
        res = minimize(quadratic, np.zeros(2), NelderMead(max_iter=30))
        ks = [k for k, _ in res.trace]
        assert ks == list(range(1, res.evals + 1))


def rowwise(f):
    """The batch objective that evaluates f row by row (batch-invariant by construction)."""
    return lambda X: np.array([f(x) for x in X])


def objectives(rng, n):
    """name -> one-point objective on R^n: a random quadratic, Rosenbrock, and a plateau one with ties."""
    A = rng.normal(size=(n, n))
    A = A @ A.T + 0.1 * np.eye(n)
    b = rng.normal(size=n)
    return {
        "quadratic": lambda x: float(x @ A @ x + b @ x),
        "rosenbrock": lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)),
        # rounding makes plateaus: equal values in the simplex, and shrinks
        "plateau": lambda x: float(np.round(np.abs(x - 0.3).sum(), 1)),
    }


QAOA_A = QaoaContext(*reversed(encode_single_complement(FacilityProblem(("line", 5), 1, lambda_=40))),
                     MixerSpec("X"), InitSpec("Uniform"))


def assert_rows_match_scipy(objective_batch, f, X0, config):
    rows = minimize_batch(objective_batch, X0, config)
    outcomes = []
    for x0, got in zip(X0, rows):
        x_best, f_best, evals, trace, res = scipy_nelder_mead(f, x0, config)
        assert np.array_equal(got.x_best, x_best)
        assert got.f_best == f_best
        assert got.evals == evals
        assert got.trace == trace
        n = len(x0)
        outcomes.append({
            "maxiter": res.status == 2,
            "converged": res.status == 0,
            # more evaluations than reflections and one trial point per iteration: some step shrank
            "shrink": res.nfev > n + 1 + 2 * (res.nit - 1),
            "ties": len(set(values := [v for _k, v in trace])) < len(values),
        })
    return outcomes


class TestNelderMeadMatchesScipy:
    """Every row of minimize_batch is bitwise scipy's Nelder-Mead from the same simplex and options."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 12),
        rows=st.integers(1, 6),
        kind=st.sampled_from(["quadratic", "rosenbrock", "plateau"]),
        max_iter=st.integers(1, 300),
        tol=st.sampled_from([0.0, 1e-10, 1e-6, 1e-2]),
        scale=st.sampled_from([0.1, 0.5, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_objectives(self, seed, n, rows, kind, max_iter, tol, scale):
        rng = np.random.default_rng(seed)
        f = objectives(rng, n)[kind]
        config = NelderMead(max_iter=max_iter, f_tol=tol, x_tol=tol, init_simplex_scale=scale)
        assert_rows_match_scipy(rowwise(f), f, rng.uniform(-2.0, 2.0, (rows, n)), config)

    @given(seed=st.integers(0, 2**31 - 1), p=st.integers(1, 3), rows=st.integers(1, 5),
           max_iter=st.integers(1, 150), tol=st.sampled_from([0.0, 1e-8, 1e-3]))
    @settings(max_examples=20, deadline=None)
    def test_qaoa_objective(self, seed, p, rows, max_iter, tol):
        rng = np.random.default_rng(seed)
        config = NelderMead(max_iter=max_iter, f_tol=tol, x_tol=tol)
        X0 = rng.uniform(0.0, 2.0 * np.pi, (rows, 2 * p))
        assert_rows_match_scipy(lambda X: QAOA_A.ev_batch(X, p), lambda x: QAOA_A.ev(x, p), X0, config)

    @pytest.mark.parametrize("rows", [1, 4])
    def test_the_property_reaches_every_branch(self, rows):
        # one row runs without row masks; either way, rows that hit maxiter,
        # rows that converge early, shrink steps and ties in fsim all occur
        rng = np.random.default_rng(4)
        seen = []
        for _ in range(4):
            for kind in ("quadratic", "rosenbrock", "plateau"):
                f = objectives(rng, 3)[kind]
                for config in (NelderMead(max_iter=40), NelderMead(max_iter=400, f_tol=1e-6, x_tol=1e-6)):
                    seen += assert_rows_match_scipy(rowwise(f), f, rng.uniform(-2.0, 2.0, (rows, 3)), config)
        for outcome in ("maxiter", "converged", "shrink", "ties"):
            assert any(s[outcome] for s in seen), outcome

    def test_at_most_three_calls_per_iteration(self):
        calls = []

        def objective_batch(X):
            calls.append(len(X))
            return np.array([quadratic(x) for x in X])

        X0 = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 3))
        rows = minimize_batch(objective_batch, X0, NelderMead(max_iter=60, f_tol=0.0, x_tol=0.0))
        # the initial simplices are one call; then 59 iterations of at most three calls
        assert calls[0] == 5 * 4
        assert len(calls) <= 1 + 3 * 59
        assert sum(calls) == sum(r.evals for r in rows)

    def test_minimize_is_a_batch_of_one(self):
        x0 = np.array([0.3, -1.2])
        one = minimize(quadratic, x0, NelderMead(max_iter=80))
        (row,) = minimize_batch(rowwise(quadratic), x0[None], NelderMead(max_iter=80))
        assert (one.f_best, one.evals, one.trace) == (row.f_best, row.evals, row.trace)
        assert np.array_equal(one.x_best, row.x_best)

    def test_nonfinite_batch_value_raises(self):
        with pytest.raises(FloatingPointError, match="non-finite"):
            minimize_batch(lambda X: np.where(X[:, 0] > 0.05, np.inf, 1.0), np.zeros((2, 2)), NelderMead())

    def test_other_optimizers_run_row_by_row(self):
        X0 = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 2))
        config = Spsa(n_iter=20)
        rows = minimize_batch(rowwise(quadratic), X0, config, seeds=[5, 6, 7])
        for x0, seed, row in zip(X0, [5, 6, 7], rows):
            want = minimize(quadratic, x0, config, seed=seed)
            assert (row.f_best, row.evals, row.trace) == (want.f_best, want.evals, want.trace)


class TestNelderMeadConfig:
    @pytest.mark.parametrize("settings", [
        {"max_iter": 0},
        {"f_tol": -1e-9},
        {"f_tol": float("nan")},
        {"x_tol": float("inf")},
        {"x_tol": -1.0},
        {"init_simplex_scale": 0.0},
        {"init_simplex_scale": -0.1},
        {"init_simplex_scale": float("nan")},
    ])
    def test_bad_settings_rejected(self, settings):
        with pytest.raises(ValueError, match="need"):
            NelderMead(**settings)

    def test_zero_tolerances_allowed(self):
        assert NelderMead(f_tol=0.0, x_tol=0.0).f_tol == 0.0


class TestFdQuasiNewton:
    def test_rosenbrock(self):
        def rosen(x):
            return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

        res = minimize(rosen, np.array([-1.2, 1.0]), FdQuasiNewton(eps=1e-5, max_iter=500))
        assert res.f_best < 1e-8

    def test_gradient_evals_counted(self):
        res = minimize(quadratic, np.zeros(2), FdQuasiNewton(max_iter=5))
        # each BFGS iteration costs one value call plus 2 per coordinate
        assert res.evals >= 3

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FdQuasiNewton(eps=0.0)


class TestSpsaSchedules:
    def test_published_first_step(self):
        step, eps = spsa_schedules(Spsa(a=0.1, c=0.1, n_iter=100), 0)
        assert step == pytest.approx(0.0659, abs=1e-4)
        assert eps == pytest.approx(0.1)

    def test_decay(self):
        config = Spsa(n_iter=100)
        steps = [spsa_schedules(config, k)[0] for k in range(100)]
        epss = [spsa_schedules(config, k)[1] for k in range(100)]
        assert all(a > b for a, b in zip(steps, steps[1:]))
        assert all(a > b for a, b in zip(epss, epss[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spsa_schedules(Spsa(n_iter=10), 10)


class TestSpsaStep:
    def test_exactly_two_evals(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return quadratic(x)

        spsa_step(f, np.zeros(4), 0, Spsa(), np.random.default_rng(0))
        assert len(calls) == 2
        # the two probes are mirror images around theta
        assert np.allclose(calls[0] + calls[1], 0.0)

    def test_update_formula_on_linear_slope(self):
        # for f(x) = sum(x) the two-point estimate is sum(delta) * delta exactly
        config = Spsa(a=0.1, c=0.1, n_iter=10)
        theta = np.full(5, 2.0)
        probes = []

        def f(x):
            probes.append(x.copy())
            return float(x.sum())

        out = spsa_step(f, theta, 0, config, np.random.default_rng(3))
        step, eps = spsa_schedules(config, 0)
        delta = (probes[0] - theta) / eps
        assert np.allclose(np.abs(delta), 1.0)
        assert np.allclose(out, theta - step * delta.sum() * delta)

    def test_minimize_spsa_quadratic(self):
        res = minimize(quadratic, np.zeros(3), Spsa(a=0.2, n_iter=300), seed=7)
        assert res.f_best < 0.05

    def test_deterministic_given_seed(self):
        a = minimize(quadratic, np.zeros(3), Spsa(n_iter=50), seed=11)
        b = minimize(quadratic, np.zeros(3), Spsa(n_iter=50), seed=11)
        assert a.f_best == b.f_best
        assert np.array_equal(a.x_best, b.x_best)

    def test_eval_budget(self):
        res = minimize(quadratic, np.zeros(3), Spsa(n_iter=40), seed=1)
        # initial point + 2 per iteration + final point
        assert res.evals == 2 * 40 + 2


class TestDispatch:
    def test_unknown_config(self):
        with pytest.raises(TypeError):
            minimize(quadratic, np.zeros(2), object())
