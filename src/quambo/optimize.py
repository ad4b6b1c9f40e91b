"""Derivative-free outer-loop minimizers: Nelder-Mead, SPSA, finite-difference BFGS.

Every variant honors the best-seen contract: OptResult.f_best is the minimum
over all objective values computed during the run, never the last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize as scipy_minimize


@dataclass
class NelderMead:
    max_iter: int = 500
    f_tol: float = 1e-8
    x_tol: float = 1e-8
    init_simplex_scale: float = 0.1


@dataclass
class Spsa:
    a: float = 0.1
    c: float = 0.1
    n_iter: int = 100
    alpha: float = 0.602
    gamma: float = 0.101

    def __post_init__(self) -> None:
        if self.a <= 0 or self.c <= 0 or self.n_iter < 1:
            raise ValueError("need a, c > 0 and n_iter >= 1")


@dataclass
class FdQuasiNewton:
    eps: float = 0.1
    max_iter: int = 200
    g_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.eps <= 0 or self.max_iter < 1:
            raise ValueError("need eps > 0 and max_iter >= 1")


OptimizerConfig = NelderMead | Spsa | FdQuasiNewton


@dataclass
class OptResult:
    x_best: np.ndarray
    f_best: float
    evals: int
    trace: list[tuple[int, float]] = field(default_factory=list)


class _Tracker:
    """Wraps the objective, counts evaluations and records the best-seen point."""

    def __init__(self, objective: Callable[[np.ndarray], float]):
        self.objective = objective
        self.evals = 0
        self.f_best = np.inf
        self.x_best: np.ndarray | None = None
        self.trace: list[tuple[int, float]] = []

    def __call__(self, x: np.ndarray) -> float:
        f = float(self.objective(np.asarray(x, dtype=float)))
        if not np.isfinite(f):
            raise FloatingPointError(f"objective returned non-finite value {f} at {x}")
        self.evals += 1
        if f < self.f_best:
            self.f_best = f
            self.x_best = np.array(x, dtype=float)
        self.trace.append((self.evals, f))
        return f

    def result(self) -> OptResult:
        return OptResult(x_best=self.x_best, f_best=self.f_best, evals=self.evals, trace=self.trace)


def spsa_schedules(config: Spsa, k: int) -> tuple[float, float]:
    """Decaying (step_size_k, eps_k) for iteration k."""
    if not 0 <= k < config.n_iter:
        raise ValueError(f"iteration {k} outside [0, {config.n_iter})")
    step = config.a / (0.01 * config.n_iter + k + 1) ** config.alpha
    eps = config.c / (k + 1) ** config.gamma
    return step, eps


def spsa_step(
    objective: Callable[[np.ndarray], float],
    theta: np.ndarray,
    k: int,
    config: Spsa,
    rng: np.random.Generator,
) -> np.ndarray:
    """One simultaneous-perturbation update; exactly two objective evaluations."""
    step, eps = spsa_schedules(config, k)
    delta = rng.integers(0, 2, size=len(theta)) * 2 - 1
    f_plus = objective(theta + eps * delta)
    f_minus = objective(theta - eps * delta)
    # delta is +/-1 so elementwise 1/delta equals delta
    g = (f_plus - f_minus) / (2.0 * eps) * delta
    return theta - step * g


def minimize(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: OptimizerConfig,
    seed: int = 0,
) -> OptResult:
    """Run the configured minimizer from x0; deterministic given seed."""
    x0 = np.asarray(x0, dtype=float)
    tracker = _Tracker(objective)

    if isinstance(config, NelderMead):
        simplex = np.tile(x0, (len(x0) + 1, 1))
        for i in range(len(x0)):
            simplex[i + 1, i] += config.init_simplex_scale
        scipy_minimize(
            tracker,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iter,
                "fatol": config.f_tol,
                "xatol": config.x_tol,
                "initial_simplex": simplex,
            },
        )
        return tracker.result()

    if isinstance(config, FdQuasiNewton):
        def grad(x: np.ndarray) -> np.ndarray:
            g = np.empty_like(x)
            for i in range(len(x)):
                e = np.zeros_like(x)
                e[i] = config.eps
                g[i] = (tracker(x + e) - tracker(x - e)) / (2.0 * config.eps)
            return g

        scipy_minimize(
            tracker,
            x0,
            method="BFGS",
            jac=grad,
            options={"maxiter": config.max_iter, "gtol": config.g_tol},
        )
        return tracker.result()

    if isinstance(config, Spsa):
        rng = np.random.default_rng(seed)
        theta = x0.copy()
        tracker(theta)
        for k in range(config.n_iter):
            theta = spsa_step(tracker, theta, k, config, rng)
        tracker(theta)
        return tracker.result()

    raise TypeError(f"unknown optimizer config {config!r}")
