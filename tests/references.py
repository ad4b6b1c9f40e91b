"""Reference implementations the tests check quambo against: scipy's Nelder-Mead and the one-vector QAOA evaluator."""

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from quambo.qaoa import Angles


def scipy_nelder_mead(f, x0, config):
    """scipy's Nelder-Mead from quambo's initial simplex, with every evaluation recorded.

    Returns (x_best, f_best, evals, trace, scipy's result): the best-seen point
    is the first point with the lowest value.
    """
    values, points = [], []

    def recorded(x):
        values.append(float(f(x)))
        points.append(np.array(x))
        return values[-1]

    simplex = np.tile(x0, (len(x0) + 1, 1))
    for i in range(len(x0)):
        simplex[i + 1, i] += config.init_simplex_scale
    res = scipy_minimize(recorded, x0, method="Nelder-Mead", options={
        "maxiter": config.max_iter, "fatol": config.f_tol, "xatol": config.x_tol, "initial_simplex": simplex})
    best = int(np.argmin(values))
    return points[best], values[best], len(values), list(enumerate(values, start=1)), res


def reference_ev(ctx, x, p):
    """The engine's one-vector evaluator as it was before batching: the oracle of ev_batch."""
    angles = Angles.unflatten(x, p, ctx.mixer.n_beta, ctx.mixer.n_gamma)
    cost = np.exp(-1j * (angles.gamma @ ctx._cost_table))[:, ctx._cost_index]
    mix = np.exp(-1j * (angles.beta @ ctx._mix_rows))
    psi = ctx._psi0
    for r in range(angles.p):
        psi = psi * cost[r]
        for shape, vt, _v in ctx._steps:
            psi = np.matmul(vt, psi.view(float).reshape(shape)).reshape(-1).view(complex)
        phase = mix[r, ctx._mix_slices[0]]
        for part in ctx._mix_slices[1:]:
            phase = np.multiply.outer(phase, mix[r, part])
        psi *= phase.reshape(-1)
        for shape, _vt, v in ctx._steps:
            psi = np.matmul(v, psi.view(float).reshape(shape)).reshape(-1).view(complex)
    return float(np.abs(psi) ** 2 @ ctx._cost)
