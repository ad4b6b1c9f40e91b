"""Derivative-free outer-loop minimizers: Nelder-Mead, SPSA, finite-difference BFGS.

`minimize_batch` minimizes from each row of an (R, N) array of starts against
an objective that maps (K, N) points to K values; `minimize` is a batch of one
around a one-point objective.  Every evaluation goes through one log, which
rejects non-finite values and keeps each row's evaluations in order and its
best-seen point: OptResult.f_best is the lowest value computed, never the last
iterate.

Nelder-Mead rows run in lockstep, each bitwise scipy's `_minimize_neldermead`
(standard coefficients, no bounds, maxiter only): an iteration makes at most
three calls (reflections, then expansion or contraction points, then shrunk
vertices), and rows stop independently.  SPSA rows run in lockstep, each
drawing from its own generator, with one call of every row's +/- pair per
step.  The quasi-Newton method runs row after row, each a port of scipy
1.17.1's BFGS for a callable jac: the same evaluations in the same order at
bitwise the same points (its one-point value/gradient cache, the More-Thuente
line search with its Wolfe-2 fallback, and a stop where both fail), with
numpy alone; a central-difference gradient is one call of 2N points.
`restart_search` draws, runs, scores and reports QAOA and VQE restarts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Sequence

import numpy as np

from .qubo import rows_where

# scipy's non-adaptive Nelder-Mead coefficients: reflection, expansion, contraction, shrink
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
# (centroid, worst-vertex) coefficients c of the trial point c[0] * xbar - c[1] * worst, by case:
# expansion, reflection, outside contraction, inside contraction ((1 - PSI) * xbar + PSI * worst)
_TRIAL = np.array([[1 + RHO * CHI, RHO * CHI], [1 + RHO, RHO], [1 + PSI * RHO, PSI * RHO], [1 - PSI, -PSI]])
# by case: whether a trial point equal in value to its bound is kept
_TIES_TAKE = np.array([False, True, True, False])
# Spall's SPSA gain exponents of the step size and of the perturbation size
SPSA_ALPHA, SPSA_GAMMA = 0.602, 0.101
# scipy's BFGS line-search settings: sufficient decrease and curvature, the step bounds, DCSRCH's interval tolerance
LS_C1, LS_C2 = 1e-4, 0.9
LS_AMIN, LS_AMAX = 1e-100, 1e100
LS_XTOL = 1e-14


def _require(config: object, counts: tuple = (), nonnegative: tuple = (), positive: tuple = ()) -> None:
    """Raise ValueError unless the named settings are >= 1, finite and >= 0, and finite and > 0."""
    for name in counts:
        if getattr(config, name) < 1:
            raise ValueError(f"need {name} >= 1, got {getattr(config, name)}")
    for names, op in ((nonnegative, ">="), (positive, ">")):
        for name in names:
            value = getattr(config, name)
            if not (math.isfinite(value) and (value >= 0 if op == ">=" else value > 0)):
                raise ValueError(f"need a finite {name} {op} 0, got {value}")


@dataclass
class NelderMead:
    kind: ClassVar[str] = "nelder-mead"
    max_iter: int = 500
    f_tol: float = 1e-8
    x_tol: float = 1e-8
    init_simplex_scale: float = 0.1

    def __post_init__(self) -> None:
        _require(self, ("max_iter",), ("f_tol", "x_tol"), ("init_simplex_scale",))


@dataclass
class Spsa:
    kind: ClassVar[str] = "spsa"
    a: float = 0.1
    c: float = 0.1
    n_iter: int = 100

    def __post_init__(self) -> None:
        _require(self, ("n_iter",), positive=("a", "c"))


@dataclass
class FdQuasiNewton:
    kind: ClassVar[str] = "fd-quasi-newton"
    eps: float = 0.1
    max_iter: int = 200
    g_tol: float = 1e-6

    def __post_init__(self) -> None:
        _require(self, ("max_iter",), ("g_tol",), ("eps",))


OptimizerConfig = NelderMead | Spsa | FdQuasiNewton


@dataclass
class OptResult:
    x_best: np.ndarray
    f_best: float
    evals: int
    trace: list[tuple[int, float]] = field(default_factory=list)


class _Log:
    """Evaluates batches of points for R rows; per row, the evaluations in order and the best-seen point.

    A call evaluates the same number of points for each of some distinct rows,
    row-major, so a row's evaluations keep the order a one-row run makes
    them in, and its best-seen point is the first point with its lowest value.
    """

    def __init__(self, objective_batch: Callable[[np.ndarray], np.ndarray], R: int, N: int):
        self.objective = objective_batch
        self.f_best = np.full(R, np.inf)
        self.x_best = np.zeros((R, N))
        self.calls: list[tuple[np.ndarray, np.ndarray]] = []  # (rows, values)

    def __call__(self, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The values of X, (k, N) or (k, ..., N): one or more points for each of the k rows."""
        points = X.reshape(-1, X.shape[-1])
        f = np.asarray(self.objective(points), dtype=float)
        if not np.isfinite(f).all():
            i = int(np.argmin(np.isfinite(f)))
            raise FloatingPointError(f"objective returned non-finite value {f[i]} at {points[i]}")
        self.calls.append((rows, f))
        if len(rows) == 1:  # as scalars: every call of a one-row run
            i = f.argmin() if len(f) > 1 else 0
            if f[i] < self.f_best[rows[0]]:
                self.f_best[rows[0]], self.x_best[rows[0]] = f[i], points[i]
        else:
            per_row = f.reshape(len(rows), -1)
            first = per_row.argmin(axis=1)
            low = per_row[np.arange(len(rows)), first]
            better = np.flatnonzero(low < self.f_best[rows])
            if better.size:
                self.f_best[rows[better]] = low[better]
                self.x_best[rows[better]] = points.reshape(len(rows), -1, points.shape[1])[better, first[better]]
        return f.reshape(X.shape[:-1])

    def results(self) -> list[OptResult]:
        """Each row's best-seen point and value, evaluation count and trace."""
        rows = np.concatenate([np.repeat(r, len(f) // len(r)) for r, f in self.calls])
        values = np.concatenate([f for _r, f in self.calls])[np.argsort(rows, kind="stable")].tolist()
        evals = np.bincount(rows, minlength=len(self.f_best)).tolist()
        edges = np.cumsum([0] + evals).tolist()
        return [
            OptResult(x_best=x, f_best=float(f), evals=n, trace=list(zip(range(1, n + 1), values[lo:hi])))
            for x, f, n, lo, hi in zip(self.x_best, self.f_best, evals, edges, edges[1:])
        ]


def _sort(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's simplex in value order, as scipy orders one (np.argsort, default kind); new arrays."""
    order = np.argsort(fsim, axis=1)
    at = np.arange(len(fsim))[:, None]
    return sim[at, order], fsim[at, order]


def _nelder_mead_row(log: _Log, X0: np.ndarray, config: NelderMead) -> None:
    """One row X0 (1, N), with Python branching in place of the row masks: the same arithmetic, fewer numpy calls."""
    N = X0.shape[1]
    row = np.zeros(1, dtype=np.intp)
    sim = np.repeat(X0, N + 1, axis=0)
    sim[np.arange(1, N + 1), np.arange(N)] += config.init_simplex_scale
    fsim = log(row, sim[None])[0]
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    for _ in range(config.max_iter - 1):
        if fsim[-1] - fsim[0] <= config.f_tol and np.abs(sim[1:] - sim[0]).max() <= config.x_tol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + RHO) * xbar - RHO * sim[-1]
        fxr = log(row, xr[None])[0]
        case = 3 - (fxr < fsim[0]) - (fxr < fsim[-2]) - (fxr < fsim[-1])
        x, f = xr, fxr
        if case != 1:
            c = _TRIAL[case]
            xt = c[0] * xbar - c[1] * sim[-1]
            ft = log(row, xt[None])[0]
            bound = fsim[-1] if case == 3 else fxr
            if ft < bound or (_TIES_TAKE[case] and ft == bound):
                x, f = xt, ft
            elif case >= 2:
                sim[1:] = sim[0] + SIGMA * (sim[1:] - sim[0])
                fsim[1:] = log(row, sim[None, 1:])[0]
                x = None
        if x is not None:
            sim[-1], fsim[-1] = x, f
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]


def _nelder_mead(log: _Log, X0: np.ndarray, config: NelderMead) -> None:
    """Run a simplex from every row of X0 (R, N), in lockstep."""
    R, N = X0.shape
    ids = np.arange(R)  # the rows still running; sim and fsim hold only theirs
    sim = np.repeat(X0[:, None, :], N + 1, axis=1)
    sim[:, np.arange(1, N + 1), np.arange(N)] += config.init_simplex_scale
    fsim = log(ids, sim)
    # scipy sorts the initial simplex twice; an unstable sort may reorder ties the second time
    sim, fsim = _sort(*_sort(sim, fsim))
    for _ in range(config.max_iter - 1):
        # rows of fsim are sorted, so max |fsim[0] - fsim[1:]| is fsim[-1] - fsim[0]
        done = fsim[:, -1] - fsim[:, 0] <= config.f_tol
        if done.any():
            done &= np.abs(sim[:, 1:] - sim[:, :1]).reshape(len(ids), -1).max(axis=1) <= config.x_tol
            if done.any():
                ids, sim, fsim = ids[~done], sim[~done], fsim[~done]
                if not ids.size:
                    break
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        worst = sim[:, -1]
        xr = (1 + RHO) * xbar - RHO * worst
        fxr = log(ids, xr)
        # rows of fsim are sorted, so case is 0 expand, 1 keep the reflection, 2 contract outside, 3 contract inside
        case = 3 - (fxr < fsim[:, 0]) - (fxr < fsim[:, -2]) - (fxr < fsim[:, -1])
        c = _TRIAL[case]
        xt = c[:, :1] * xbar - c[:, 1:] * worst  # the reflection again where case is 1
        ft = fxr
        trial = rows_where(case != 1)
        if trial is not None:
            ft = fxr.copy()
            ft[trial] = log(ids[trial], xt[trial])
        # an expansion is kept if lower than the reflection, an outside contraction (or the
        # reflection) if not higher, an inside contraction if lower than the worst vertex
        bound = np.where(case == 3, fsim[:, -1], fxr)
        take = (ft < bound) | (_TIES_TAKE[case] & (ft == bound))
        shrink = rows_where(~take & (case >= 2))
        if shrink is None:
            sim[:, -1], fsim[:, -1] = np.where(take[:, None], xt, xr), np.where(take, ft, fxr)
        else:
            stay = np.ones(len(ids), dtype=bool)
            stay[shrink] = False
            sim[stay, -1] = np.where(take[stay, None], xt[stay], xr[stay])
            fsim[stay, -1] = np.where(take[stay], ft[stay], fxr[stay])
            sim[shrink, 1:] = sim[shrink, :1] + SIGMA * (sim[shrink, 1:] - sim[shrink, :1])
            fsim[shrink, 1:] = log(ids[shrink], sim[shrink, 1:])
        sim, fsim = _sort(sim, fsim)


def spsa_schedules(config: Spsa, k: int) -> tuple[float, float]:
    """Decaying (step_size_k, eps_k) for iteration k."""
    if not 0 <= k < config.n_iter:
        raise ValueError(f"iteration {k} outside [0, {config.n_iter})")
    step = config.a / (0.01 * config.n_iter + k + 1) ** SPSA_ALPHA
    eps = config.c / (k + 1) ** SPSA_GAMMA
    return step, eps


def spsa_step(
    objective: Callable[[np.ndarray], np.ndarray],
    theta: np.ndarray,
    k: int,
    config: Spsa,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """One SPSA update of each row of theta (R, N), row r drawing from rngs[r]; one call of (R, 2, N) points."""
    step, eps = spsa_schedules(config, k)
    delta = np.array([rng.integers(0, 2, size=theta.shape[1]) for rng in rngs]) * 2 - 1
    f = objective(np.stack([theta + eps * delta, theta - eps * delta], axis=1))
    # delta is +/-1 so elementwise 1/delta equals delta
    g = (f[:, :1] - f[:, 1:]) / (2.0 * eps) * delta
    return theta - step * g


def _spsa(log: _Log, theta: np.ndarray, config: Spsa, seeds: Sequence[int]) -> None:
    """SPSA from every row of theta (R, N) in lockstep, row r drawing from default_rng(seeds[r])."""
    rows = np.arange(len(theta))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    log(rows, theta)
    for k in range(config.n_iter):
        theta = spsa_step(lambda X: log(rows, X), theta, k, config, rngs)
    log(rows, theta)


class _Memo:
    """scipy's ScalarFunction cache: the value and gradient at one point, each computed at most once there.

    A point that is not np.array_equal to the cached one replaces it; an equal
    one (say, with the other sign of a zero) reads the cache, or is computed at
    the cached point.
    """

    def __init__(self, fun: Callable[[np.ndarray], float], grad: Callable[[np.ndarray], np.ndarray]):
        self.fun, self.grad = fun, grad
        self.x, self.f, self.g = None, None, None

    def _move(self, x: np.ndarray) -> None:
        if not np.array_equal(x, self.x):
            self.x, self.f, self.g = x, None, None

    def value(self, x: np.ndarray) -> float:
        self._move(x)
        if self.f is None:
            self.f = self.fun(self.x)
        return self.f

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self._move(x)
        if self.g is None:
            self.g = self.grad(self.x)
        return self.g


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK's DCSTEP, as scipy writes it: the safeguarded cubic or quadratic step and the updated interval."""
    sgnd = np.sign(dp) * np.sign(dx)
    with np.errstate(invalid="ignore", over="ignore"):
        if fp > fx:
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp < stx:
                gamma *= -1
            p = (gamma - dx) + theta
            q = ((gamma - dx) + gamma) + dp
            stpc = stx + p / q * (stp - stx)
            stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
            stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
            brackt = True
        elif sgnd < 0.0:
            theta = 3 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp > stx:
                gamma *= -1
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dx
            stpc = stp + p / q * (stx - stp)
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            brackt = True
        elif abs(dp) < abs(dx):
            theta = 3 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
            if stp > stx:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = (gamma + (dx - dp)) + gamma
            r = p / q
            if r < 0 and gamma != 0:
                stpc = stp + r * (stx - stp)
            else:
                stpc = stpmax if stp > stx else stpmin
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            if brackt:
                stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
                bound = stp + 0.66 * (sty - stp)
                stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
            else:
                stpf = np.clip(stpc if abs(stpc - stp) > abs(stpq - stp) else stpq, stpmin, stpmax)
        elif brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            stpf = stp + p / q * (sty - stp)
        else:
            stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _dcsrch(phi: Callable, derphi: Callable, stp, finit: float, ginit):
    """MINPACK's DCSRCH (More & Thuente 1994) as scipy's line_search_wolfe1 runs it: (step, value) or (None, None).

    It makes at most 100 evaluations of phi and derphi, and tests the first 99.
    """
    if stp < LS_AMIN or stp > LS_AMAX or ginit >= 0:
        return None, None
    brackt, stage = False, 1
    gtest = LS_C1 * ginit
    width = LS_AMAX - LS_AMIN
    width1 = width / 0.5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin, stmax = 0, stp + 4.0 * stp
    f, g = phi(stp), derphi(stp)
    for _ in range(99):
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if f <= ftest and abs(g) <= LS_C2 * -ginit:
            return stp, f
        if (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= LS_XTOL * stmax)
                or stp == LS_AMAX and f <= ftest and g <= gtest or stp == LS_AMIN and (f > ftest or g >= gtest)):
            return None, None
        if stage == 1 and f <= fx and f > ftest:
            # the modified function f - stp * gtest
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax)
            fx, fy, gx, gy = fxm + stx * gtest, fym + sty * gtest, gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax)
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = np.clip(stp, LS_AMIN, LS_AMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= LS_XTOL * stmax):
            stp = stx
        if not np.isfinite(stp):
            return None, None
        f, g = phi(stp), derphi(stp)
    return None, None


def _minimizer(a, fa, fpa, b, fb, c=None, fc=None):
    """scipy's _cubicmin through (a, fa, fpa), (b, fb), (c, fc), or its _quadmin without c; None where it fails."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            if c is None:
                db = b - a * 1.0
                B = (fb - fa - fpa * db) / (db * db)
                xmin = a - fpa / (2.0 * B)
            else:
                db, dc = b - a, c - a
                denom = (db * dc) ** 2 * (db - dc)
                d1 = np.array([[dc ** 2, -db ** 2], [-dc ** 3, db ** 3]])
                A, B = np.dot(d1, np.asarray([fb - fa - fpa * db, fc - fa - fpa * dc]).flatten())
                A /= denom
                B /= denom
                xmin = a + (-B + np.sqrt(B * B - 3 * A * fpa)) / (3 * A)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi: Callable, derphi: Callable, phi0: float, derphi0):
    """scipy's _zoom (Nocedal & Wright's Algorithm 3.6): (step, value), or (None, None) after 11 trial steps."""
    phi_rec, a_rec = phi0, 0
    for i in range(11):
        dalpha = a_hi - a_lo
        a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
        if i > 0:
            cchk = 0.2 * dalpha
            a_j = _minimizer(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if i == 0 or a_j is None or a_j > b - cchk or a_j < a + cchk:
            qchk = 0.1 * dalpha
            a_j = _minimizer(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if a_j is None or a_j > b - qchk or a_j < a + qchk:
                a_j = a_lo + 0.5 * dalpha
        phi_aj = phi(a_j)
        if phi_aj > phi0 + LS_C1 * a_j * derphi0 or phi_aj >= phi_lo:
            phi_rec, a_rec, a_hi, phi_hi = phi_hi, a_hi, a_j, phi_aj
            continue
        derphi_aj = derphi(a_j)
        if abs(derphi_aj) <= -LS_C2 * derphi0:
            return a_j, phi_aj
        if derphi_aj * (a_hi - a_lo) >= 0:
            phi_rec, a_rec, a_hi, phi_hi = phi_hi, a_hi, a_lo, phi_lo
        else:
            phi_rec, a_rec = phi_lo, a_lo
        a_lo, phi_lo, derphi_lo = a_j, phi_aj, derphi_aj
    return None, None


def _wolfe2(phi: Callable, derphi: Callable, alpha1, phi0: float, derphi0):
    """scipy's line_search_wolfe2 (Nocedal & Wright's Algorithm 3.5) from step alpha1: (step, value) or (None, None).

    After 10 steps without a bracket it returns the last step, whose gradient is then computed apart.
    """
    alpha0, phi_a0, derphi_a0 = 0, phi0, derphi0
    phi_a1 = phi(alpha1)
    for i in range(10):
        if alpha1 == 0:
            return None, None
        if phi_a1 > phi0 + LS_C1 * alpha1 * derphi0 or (phi_a1 >= phi_a0 and i > 0):
            return _zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0, phi, derphi, phi0, derphi0)
        derphi_a1 = derphi(alpha1)
        if abs(derphi_a1) <= -LS_C2 * derphi0:
            return alpha1, phi_a1
        if derphi_a1 >= 0:
            return _zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1, phi, derphi, phi0, derphi0)
        alpha0, alpha1 = alpha1, min(2 * alpha1, LS_AMAX)
        phi_a0, phi_a1, derphi_a0 = phi_a1, phi(alpha1), derphi_a1
    return alpha1, phi_a1


def _norm2(v: np.ndarray):
    """scipy's vecnorm(v, 2), whose rounding the step test below keeps."""
    return np.sum(np.abs(v) ** 2, axis=0) ** 0.5


def _bfgs(fun: Callable[[np.ndarray], float], grad: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
          max_iter: int, g_tol: float) -> None:
    """scipy's _minimize_bfgs for a callable jac, evaluation for evaluation.

    The More-Thuente search runs first; where it fails, the bracketing search
    of Nocedal & Wright does; where both fail, the descent stops.  Objective
    values are finite (the log refuses others), so scipy's test for an
    infinite value never stops it.
    """
    memo = _Memo(fun, grad)
    old_fval = memo.value(x0)
    gfk = memo.gradient(x0)
    I = np.eye(len(x0), dtype=int)
    Hk = I
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2  # an initial step of about 1
    xk, k = x0, 0
    gnorm = np.amax(np.abs(gfk))
    while gnorm > g_tol and k < max_iter:
        pk = -np.dot(Hk, gfk)
        derphi0 = np.dot(gfk, pk)
        alpha1 = 1.0
        if derphi0 != 0:
            alpha1 = min(1.0, 1.01 * 2 * (old_fval - old_old_fval) / derphi0)
            if alpha1 < 0:
                alpha1 = 1.0

        def phi(s):
            return memo.value(xk + s * pk)

        def derphi(s):
            return np.dot(memo.gradient(xk + s * pk), pk)

        alpha_k, fval = _dcsrch(phi, derphi, alpha1, old_fval, derphi0)
        if alpha_k is None:
            alpha_k, fval = _wolfe2(phi, derphi, alpha1, old_fval, derphi0)
            if alpha_k is None:
                break
        old_old_fval, old_fval = old_fval, fval
        sk = alpha_k * pk
        xk = xk + sk
        # the gradient the line search ended on, or a new one where it ended on a value alone
        gfkp1 = memo.gradient(xk)
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.amax(np.abs(gfk))
        # scipy's step test with xrtol = 0: a zero step stops (a NaN norm of xk never does)
        if gnorm <= g_tol or alpha_k * _norm2(pk) <= 0 * _norm2(xk):
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
        A1 = I - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        A2 = I - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] * sk[np.newaxis, :])


def _fd_quasi_newton(log: _Log, X0: np.ndarray, config: FdQuasiNewton) -> None:
    """BFGS from each row of X0 in turn, with central-difference gradients of step eps."""
    steps = config.eps * np.eye(X0.shape[1])
    for row, x0 in zip(np.arange(len(X0))[:, None], X0):
        def grad(x: np.ndarray) -> np.ndarray:
            # the points x + eps e_0, x - eps e_0, x + eps e_1, ... in one call
            f = log(row, np.stack([x + steps, x - steps], axis=1)[None])[0]
            return (f[:, 0] - f[:, 1]) / (2.0 * config.eps)

        _bfgs(lambda x: float(log(row, x[None])[0]), grad, x0, config.max_iter, config.g_tol)


def minimize_batch(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    X0: np.ndarray,
    config: OptimizerConfig,
    seeds: Sequence[int] | None = None,
) -> list[OptResult]:
    """Minimize from each row of X0 (R, N); objective_batch maps (K, N) points to K values.

    SPSA row r draws its perturbations from default_rng(seeds[r]) (default 0);
    the other optimizers draw nothing.
    """
    X0 = np.array(X0, dtype=float, ndmin=2)
    log = _Log(objective_batch, *X0.shape)
    if isinstance(config, NelderMead):
        (_nelder_mead_row if len(X0) == 1 else _nelder_mead)(log, X0, config)
    elif isinstance(config, Spsa):
        _spsa(log, X0, config, [0] * len(X0) if seeds is None else seeds)
    elif isinstance(config, FdQuasiNewton):
        _fd_quasi_newton(log, X0, config)
    else:
        raise TypeError(f"unknown optimizer config {config!r}")
    return log.results()


def minimize(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: OptimizerConfig,
    seed: int = 0,
) -> OptResult:
    """Run the configured minimizer from x0 against a one-point objective: a batch of one, deterministic given seed."""

    def objective_batch(X: np.ndarray) -> np.ndarray:
        return np.fromiter((objective(x) for x in X.copy()), dtype=float, count=len(X))

    return minimize_batch(objective_batch, np.asarray(x0, dtype=float)[None], config, [seed])[0]


def restart_search(objective_batch: Callable[[np.ndarray], np.ndarray], score: Callable, n_params: int, n_starts: int,
                   optimizer: OptimizerConfig, seed: int, lockstep: bool = True) -> tuple[list, dict]:
    """Minimize from n_starts uniform [0, 2pi)^n_params points: a (x_best, metrics) pair per start, and a report.

    Start i draws its point, then its optimizer seed, from default_rng([seed, i]).
    A start's metrics are score(x_best) (a dataclass) with the optimizer's ev
    and evals.  With lockstep, all starts go to one minimize_batch call;
    without, each start is one call, in start order, as a loop of one-start
    searches makes them (for an objective that draws seeds in call order).
    """
    if n_starts < 1:
        raise ValueError(f"need restarts >= 1, got {n_starts}")
    rngs = [np.random.default_rng([seed, i]) for i in range(n_starts)]
    X0 = np.array([rng.uniform(0.0, 2.0 * np.pi, size=n_params) for rng in rngs])
    seeds = [int(rng.integers(2**31)) for rng in rngs]
    calls = 0

    def counted(X: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += 1
        return objective_batch(X)

    started = time.perf_counter()
    batches = [(X0, seeds)] if lockstep else [(x0[None], [s]) for x0, s in zip(X0, seeds)]
    results = [res for X, row_seeds in batches for res in minimize_batch(counted, X, optimizer, row_seeds)]
    optimize_s = round(time.perf_counter() - started, 6)
    runs = [(res.x_best, replace(score(res.x_best), ev=res.f_best, evals=res.evals)) for res in results]
    evals = sum(res.evals for res in results)
    rows = n_starts if lockstep and not isinstance(optimizer, FdQuasiNewton) else 1
    return runs, {"kind": optimizer.kind, "restarts": n_starts, "lockstep_rows": rows, "batch_calls": calls,
                  "points_per_call": evals / calls, "evals_per_row": evals / n_starts, "optimize_s": optimize_s}
