"""Tests for the outer-loop minimizers."""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.optimize._linesearch as scipy_line_search
import scipy.optimize._optimize as scipy_bfgs
from hypothesis import given, settings
from hypothesis import strategies as st

from quambo.optimize import (
    FdQuasiNewton,
    NelderMead,
    Spsa,
    minimize,
    minimize_batch,
    restart_search,
    spsa_schedules,
    spsa_step,
)
from quambo.optimize import _dcsrch, _wolfe2
from quambo.problems import FacilityProblem, encode_single_complement
from quambo.qaoa import InitSpec, MixerSpec, QaoaContext

from references import reference_minimize, scipy_nelder_mead


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
        # each SPSA or quasi-Newton row evaluates what the one-row loop of references.py does
        X0 = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 2))
        for config in (Spsa(n_iter=20), FdQuasiNewton(max_iter=10)):
            assert_rows_match_reference(rowwise(quadratic), quadratic, X0, config, [5, 6, 7])


def assert_rows_match_reference(objective_batch, f, X0, config, seeds):
    rows = minimize_batch(objective_batch, X0, config, seeds)
    for x0, seed, got in zip(X0, seeds, rows):
        x_best, f_best, evals, trace = reference_minimize(f, x0, config, seed)
        assert np.array_equal(got.x_best, x_best)
        assert got.f_best == f_best
        assert got.evals == evals
        assert got.trace == trace


def spsa_or_quasi_newton(kind, iters, eps):
    return Spsa(n_iter=iters, c=eps) if kind == "spsa" else FdQuasiNewton(eps=eps, max_iter=iters)


class TestSpsaAndQuasiNewtonMatchReference:
    """Every SPSA or quasi-Newton row of minimize_batch is bitwise the one-evaluation-at-a-time reference loop."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 8),
        rows=st.sampled_from([1, 2, 5]),
        kind=st.sampled_from(["spsa", "fd-quasi-newton"]),
        name=st.sampled_from(["quadratic", "rosenbrock", "plateau"]),
        iters=st.integers(1, 40),
        eps=st.sampled_from([0.1, 1e-3, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_objectives(self, seed, n, rows, kind, name, iters, eps):
        rng = np.random.default_rng(seed)
        f = objectives(rng, n)[name]
        seeds = rng.integers(0, 2**31, rows).tolist()
        config = spsa_or_quasi_newton(kind, iters, eps)
        assert_rows_match_reference(rowwise(f), f, rng.uniform(-2.0, 2.0, (rows, n)), config, seeds)

    @given(seed=st.integers(0, 2**31 - 1), p=st.integers(1, 3), rows=st.sampled_from([1, 2, 5]),
           kind=st.sampled_from(["spsa", "fd-quasi-newton"]), iters=st.integers(1, 25))
    @settings(max_examples=20, deadline=None)
    def test_qaoa_objective(self, seed, p, rows, kind, iters):
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31, rows).tolist()
        X0 = rng.uniform(0.0, 2.0 * np.pi, (rows, 2 * p))
        config = spsa_or_quasi_newton(kind, iters, 0.1)
        assert_rows_match_reference(lambda X: QAOA_A.ev_batch(X, p), lambda x: QAOA_A.ev(x, p), X0, config, seeds)

    def test_every_line_search_branch_matches(self, monkeypatch):
        # count, in the scipy reference only, the fallback search, its zoom and the failed searches that stop a row
        seen = {"fallback": 0, "zoom": 0, "stop": 0}

        def counted(key, fun):
            def wrapper(*args, **kwargs):
                seen[key] += 1
                out = fun(*args, **kwargs)
                seen["stop"] += key == "fallback" and out[0] is None
                return out
            return wrapper

        monkeypatch.setattr(scipy_bfgs, "line_search_wolfe2", counted("fallback", scipy_bfgs.line_search_wolfe2))
        monkeypatch.setattr(scipy_line_search, "_zoom", counted("zoom", scipy_line_search._zoom))
        rng = np.random.default_rng(7)
        for name in ["quadratic", "rosenbrock", "plateau"] * 4:
            n = int(rng.integers(1, 6))
            f = objectives(rng, n)[name]
            config = FdQuasiNewton(eps=float(rng.choice([0.1, 1e-3, 0.5])), max_iter=int(rng.integers(5, 40)))
            assert_rows_match_reference(rowwise(f), f, rng.uniform(-2.0, 2.0, (2, n)), config, [0, 0])
        assert min(seen.values()) >= 1, seen

    @given(seed=st.integers(0, 2**31 - 1), scale=st.sampled_from([0.01, 1.0, 10.0]),
           gap=st.sampled_from([0.0, 0.01, 1.0]))
    @settings(max_examples=1000, deadline=None)
    def test_line_searches_match_scipy(self, seed, scale, gap):
        # both searches on a wiggly 1-D function: the same trial steps in the same order, and the same outcome
        rng = np.random.default_rng(seed)
        c, shift = rng.normal(size=5) * scale, rng.normal()
        phi0 = float(np.polyval(c, shift))
        derphi0 = np.float64(np.polyval(np.polyder(c), shift) + 2.1)
        old_phi0 = phi0 + gap * rng.normal()
        alpha1 = 1.0
        if derphi0 != 0:
            alpha1 = min(1.0, 1.01 * 2 * (phi0 - old_phi0) / derphi0)
            if alpha1 < 0:
                alpha1 = 1.0

        def recorded(calls):
            def phi(a):
                calls.append(("phi", a))
                return float(np.polyval(c, a + shift) + 0.3 * np.sin(7 * a))

            def derphi(a):
                calls.append(("derphi", a))
                return np.float64(np.polyval(np.polyder(c), a + shift) + 2.1 * np.cos(7 * a))
            return phi, derphi

        def step_and_value(found):
            return found[0], (found[1] if found[0] is not None else None)

        ours, theirs = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy_line_search.LineSearchWarning)
            want = scipy_line_search.scalar_search_wolfe1(*recorded(theirs), phi0, old_phi0, derphi0,
                                                          amax=1e100, amin=1e-100)
            assert _dcsrch(*recorded(ours), alpha1, phi0, derphi0) == step_and_value(want)
            want = scipy_line_search.scalar_search_wolfe2(*recorded(theirs), phi0, old_phi0, derphi0, amax=1e100)
            assert _wolfe2(*recorded(ours), alpha1, phi0, derphi0) == step_and_value(want)
        assert ours == theirs

    def test_one_gradient_is_one_call_of_2p_points(self):
        calls = []

        def objective_batch(X):
            calls.append(X.copy())
            return np.array([quadratic(x) for x in X])

        x0 = np.array([0.3, -0.2, 0.9])
        (row,) = minimize_batch(objective_batch, x0[None], FdQuasiNewton(max_iter=4))
        # a call is one value (1 point) or one gradient (2P = 6 points)
        assert sorted(set(map(len, calls))) == [1, 6]
        assert sum(map(len, calls)) == row.evals
        # the first gradient is at x0, ordered x0 + eps e_0, x0 - eps e_0, x0 + eps e_1, ...
        first = next(X for X in calls if len(X) == 6)
        assert np.array_equal(first, [x0 + s * 0.1 * e for e in np.eye(3) for s in (1.0, -1.0)])

    def test_one_spsa_call_per_step(self):
        calls = []

        def objective_batch(X):
            calls.append(len(X))
            return np.array([quadratic(x) for x in X])

        rows = minimize_batch(objective_batch, np.zeros((5, 3)), Spsa(n_iter=10), seeds=range(5))
        # the start points, one +/- pair per row and step, the end points
        assert calls == [5] + [10] * 10 + [5]
        assert [r.evals for r in rows] == [2 * 10 + 2] * 5


def rowwise_pairs(f):
    """The SPSA step objective that evaluates f on each of the (R, 2) points of an (R, 2, N) array."""
    return lambda X: np.array([[f(x) for x in pair] for pair in X])


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

    @pytest.mark.parametrize("config, settings", [
        (FdQuasiNewton, {"eps": float("nan")}),
        (FdQuasiNewton, {"eps": float("inf")}),
        (FdQuasiNewton, {"g_tol": -1.0}),
        (FdQuasiNewton, {"g_tol": float("nan")}),
        (FdQuasiNewton, {"max_iter": 0}),
        (Spsa, {"a": float("nan")}),
        (Spsa, {"a": 0.0}),
        (Spsa, {"c": float("inf")}),
        (Spsa, {"c": -0.1}),
        (Spsa, {"n_iter": 0}),
    ])
    def test_bad_settings_rejected(self, config, settings):
        with pytest.raises(ValueError, match="need"):
            config(**settings)


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

        def f(X):
            calls.append(X.copy())
            return np.array([[quadratic(x) for x in pair] for pair in X])

        spsa_step(f, np.zeros((3, 4)), 0, Spsa(), [np.random.default_rng(r) for r in range(3)])
        # one call with exactly two evaluations per row
        assert len(calls) == 1 and calls[0].shape == (3, 2, 4)
        # the two probes of each row are mirror images around theta
        assert np.allclose(calls[0][:, 0] + calls[0][:, 1], 0.0)

    def test_update_formula_on_linear_slope(self):
        # for f(x) = sum(x) the two-point estimate is sum(delta) * delta exactly
        config = Spsa(a=0.1, c=0.1, n_iter=10)
        theta = np.array([np.full(5, 2.0), np.full(5, -1.0)])
        probes = []

        def f(X):
            probes.append(X.copy())
            return X.sum(axis=2)

        out = spsa_step(f, theta, 0, config, [np.random.default_rng(3), np.random.default_rng(4)])
        step, eps = spsa_schedules(config, 0)
        delta = (probes[0][:, 0] - theta) / eps
        assert np.allclose(np.abs(delta), 1.0)
        assert np.allclose(out, theta - step * delta.sum(axis=1, keepdims=True) * delta)

    def test_each_row_draws_from_its_own_generator(self):
        # a row's step does not depend on the other rows
        theta = np.random.default_rng(0).normal(size=(3, 4))
        both = spsa_step(rowwise_pairs(quadratic), theta, 2, Spsa(), [np.random.default_rng(s) for s in (7, 8, 9)])
        for r, seed in enumerate((7, 8, 9)):
            one = spsa_step(rowwise_pairs(quadratic), theta[r:r + 1], 2, Spsa(), [np.random.default_rng(seed)])
            assert np.array_equal(both[r], one[0])

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


@dataclass
class Scored:
    ev: float
    evals: int = 0


class TestRestartSearch:
    @pytest.mark.parametrize("optimizer", [NelderMead(max_iter=60), Spsa(n_iter=20), FdQuasiNewton(max_iter=8)],
                             ids=lambda config: config.kind)
    @pytest.mark.parametrize("objective", ["rosenbrock", "qaoa"])
    def test_lockstep_equals_one_call_per_start(self, optimizer, objective):
        if objective == "qaoa":
            f_batch, f, n = (lambda X: QAOA_A.ev_batch(X, 2)), (lambda x: QAOA_A.ev(x, 2)), 4
        else:
            f = objectives(np.random.default_rng(5), 3)["rosenbrock"]
            f_batch, n = rowwise(f), 3
        (a, in_lockstep), (b, one_by_one) = (
            restart_search(f_batch, lambda x: Scored(f(x)), n, 4, optimizer, seed=7, lockstep=lockstep)
            for lockstep in (True, False))
        for (xa, ma), (xb, mb) in zip(a, b, strict=True):
            assert np.array_equal(xa, xb) and (ma.ev, ma.evals) == (mb.ev, mb.evals)
            assert ma.ev == f(xa)  # the optimizer's best value at the scored point
        assert in_lockstep["lockstep_rows"] == (1 if isinstance(optimizer, FdQuasiNewton) else 4)
        assert one_by_one["lockstep_rows"] == 1
        assert one_by_one["batch_calls"] >= in_lockstep["batch_calls"]

    def test_start_draws(self):
        seen = []
        restart_search(lambda X: seen.append(X.copy()) or np.zeros(len(X)), Scored, 3, 2, Spsa(n_iter=1), seed=4)
        X0 = [np.random.default_rng([4, i]).uniform(0.0, 2.0 * np.pi, size=3) for i in range(2)]
        assert np.array_equal(seen[0], X0)

    def test_no_restarts_is_an_error(self):
        with pytest.raises(ValueError, match="restarts >= 1"):
            restart_search(rowwise(quadratic), Scored, 2, 0, NelderMead(), seed=0)


class TestDispatch:
    def test_unknown_config(self):
        with pytest.raises(TypeError):
            minimize(quadratic, np.zeros(2), object())
