"""Reference implementations the tests check quambo against: the per-state Ising energy loop,
the feasible-index generator, the QAOA initial states and cost split, the XY-ring mixer, R_y and CNOT gates,
scipy's Nelder-Mead, the one-row SPSA and finite-difference BFGS loops, the one-vector QAOA
evaluator, the per-column INTERP/EXTRAP depth extenders, the one-vector VQE circuit and the
step-by-step anneal propagator."""

import itertools

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from quambo.optimize import FdQuasiNewton, Spsa, spsa_schedules
from quambo.problems import is_feasible
from quambo.qubo import QuboModel, energy_vector, string_from_index
from quambo.simulator import apply_local_unitary, basis_state, uniform_state, xy_ring_eigensystem
from quambo.vqe import NARROW_MIN_ROWS, NARROW_STRIDE


def reference_energy_ising(model, z):
    """The Ising cost of one spin assignment, one term at a time: the oracle of energies_at on Ising models."""
    spins = np.asarray(z)
    e = model.offset
    for i, c in model.h.items():
        e += c * spins[i]
    for (i, j), c in model.J.items():
        e += c * spins[i] * spins[j]
    return float(e)


def reference_feasible_indices(encoding):
    """Every feasible basis index, one itertools.product combination of the blocks' choices at a time:
    the oracle of problems.feasible_indices."""
    block_choices = [[sum(1 << q for q in ones) for ones in itertools.combinations(range(lo, hi), w)]
                     for (lo, hi), w in encoding.hamming_targets]
    for combo in itertools.product(*block_choices):
        yield sum(combo)


def masked_uniform_state(n, blocks):
    """The uniform state on n qubits kept where every ((lo, hi), w) block has weight w, normalised.

    With the one block ((0, n), k) this is the Dicke state of weight k.
    """
    index = np.arange(1 << n)
    state = uniform_state(n)
    for (lo, hi), w in blocks:
        state.amplitudes[sum((index >> q) & 1 for q in range(lo, hi)) != w] = 0.0
    state.amplitudes /= np.linalg.norm(state.amplitudes)
    return state


def reference_initial_state(ctx):
    """A QAOA context's initial state over all 2^n amplitudes, built apart from the engine's _psi0.

    RandomFeasible is the first draw of its generator that is_feasible accepts.
    """
    enc, init, n = ctx.encoding, ctx.init, ctx.n
    if init.kind == "RandomFeasible":
        rng = np.random.default_rng(init.seed)
        while not is_feasible(enc, string_from_index(index := int(rng.integers(0, 1 << n)), n)):
            pass
        return basis_state(n, index)
    targets = enc.hamming_targets
    return masked_uniform_state(n, {"Uniform": [], "Dicke": [((0, n), targets[0][1])]}.get(init.kind, targets))


def reference_phase_diagonals(ctx):
    """A QAOA context's cost diagonal per gamma family over all 2^n states: the oracle of the engine's cost rows.

    With one gamma it is the model's energy_vector.  With three, each family is a
    sub-model over the encoding's three Hamming blocks (the rings): a linear term
    joins the family of its qubit's ring, a quadratic term the lower of its two
    qubits' rings, and the offset the first family.
    """
    model = ctx.model
    if ctx.mixer.n_gamma == 1:
        return [energy_vector(model)]
    ring = {q: r for r, ((lo, hi), _w) in enumerate(ctx.encoding.hamming_targets) for q in range(lo, hi)}
    return [energy_vector(QuboModel(
        model.n,
        {i: c for i, c in model.linear.items() if ring[i] == family},
        {(i, j): c for (i, j), c in model.quadratic.items() if min(ring[i], ring[j]) == family},
        model.offset if family == 0 else 0.0,
    )) for family in range(3)]


def xy_ring_unitary(m, beta):
    _, vals, vecs = xy_ring_eigensystem(m)
    return (vecs * np.exp(-1j * beta * vals)) @ vecs.conj().T


def apply_xy_ring_mixer(state, ring, beta):
    """Exact exp(-i beta H_XY) on an ordered qubit ring; conserves ring Hamming weight.

    The gate-by-gate oracle of the QAOA engine's XY mixers.
    """
    return apply_local_unitary(state, list(ring), xy_ring_unitary(len(ring), beta))


def apply_ry(state, qubit, theta):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return apply_local_unitary(state, [qubit], np.array([[c, -s], [s, c]], dtype=complex))


_CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]],
    dtype=complex,
)


def apply_cnot(state, control, target):
    """The gate-by-gate oracle of the compiled VQE circuits, with apply_ry."""
    if control == target:
        raise ValueError("control and target must differ")
    # local basis: bit 0 = control, bit 1 = target; flip target when control set
    return apply_local_unitary(state, [control, target], _CNOT)


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


class _Tracker:
    """Wraps a one-point objective, counts evaluations and records the best-seen point."""

    def __init__(self, objective):
        self.objective = objective
        self.evals = 0
        self.f_best = np.inf
        self.x_best = None
        self.trace = []

    def __call__(self, x):
        f = float(self.objective(np.asarray(x, dtype=float)))
        if not np.isfinite(f):
            raise FloatingPointError(f"objective returned non-finite value {f} at {x}")
        self.evals += 1
        if f < self.f_best:
            self.f_best = f
            self.x_best = np.array(x, dtype=float)
        self.trace.append((self.evals, f))
        return f


def reference_minimize(objective, x0, config, seed=0):
    """SPSA or finite-difference BFGS from x0 one evaluation at a time, as quambo ran them before lockstep rows.

    Returns (x_best, f_best, evals, trace).
    """
    tracker = _Tracker(objective)
    x0 = np.asarray(x0, dtype=float)
    if isinstance(config, FdQuasiNewton):
        def grad(x):
            g = np.empty_like(x)
            for i in range(len(x)):
                e = np.zeros_like(x)
                e[i] = config.eps
                g[i] = (tracker(x + e) - tracker(x - e)) / (2.0 * config.eps)
            return g

        scipy_minimize(tracker, x0, method="BFGS", jac=grad, options={"maxiter": config.max_iter, "gtol": config.g_tol})
    elif isinstance(config, Spsa):
        rng = np.random.default_rng(seed)
        theta = x0.copy()
        tracker(theta)
        for k in range(config.n_iter):
            step, eps = spsa_schedules(config, k)
            delta = rng.integers(0, 2, size=len(theta)) * 2 - 1
            f_plus = tracker(theta + eps * delta)
            f_minus = tracker(theta - eps * delta)
            theta = theta - step * ((f_plus - f_minus) / (2.0 * eps) * delta)
        tracker(theta)
    else:
        raise TypeError(f"no reference for {config!r}")
    return tracker.x_best, tracker.f_best, tracker.evals, tracker.trace


def reference_ev(ctx, x, p):
    """The engine's one-vector evaluator as it was before batching: the oracle of ev_batch."""
    x = np.asarray(x, dtype=float)
    nb = p * ctx.mixer.n_beta
    cost = np.exp(-1j * (x[nb:].reshape(p, -1) @ ctx._cost_table))[:, ctx._cost_index]
    mix = np.exp(-1j * (x[:nb].reshape(p, -1) @ ctx._mix_rows))
    psi = ctx._psi0
    for r in range(p):
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


def reference_interp_extend(beta, gamma):
    """INTERP's depth p+1 seed of the (p, count) beta and gamma step matrices, one angle column at a time.

    The oracle of qaoa.interp_extend, which works on the flat angle vector.
    """
    p = len(beta)

    def extend(col):
        padded = np.concatenate([[0.0], col, [0.0]])
        return np.array([((i - 1) / p) * padded[i - 1] + ((p - i + 1) / p) * padded[i] for i in range(1, p + 2)])

    return tuple(np.column_stack([extend(m[:, c]) for c in range(m.shape[1])]) for m in (beta, gamma))


def reference_extrap_extend(beta, gamma, by):
    """EXTRAP's seed: the beta and gamma step matrices with `by` zero steps appended.

    The oracle of qaoa.extrap_extend.
    """
    return tuple(np.vstack([m, np.zeros((by, m.shape[1]))]) for m in (beta, gamma))


def reference_circuit_run(m, gates, theta):
    """A compiled VQE circuit run on one vector as it was before batching: the oracle of run_program.

    Consecutive CNOTs fuse into one gather; each R_y is a 2x2 product along its
    qubit's axis, or, for a narrow block, one product with kron(R^T, I_stride).
    """
    index = np.arange(1 << m, dtype=np.intp)
    steps, perm = [], None
    for gate in gates:
        if gate.kind == "cnot":
            control, target = gate.qubits
            flip = index ^ (((index >> control) & 1) << target)
            perm = flip if perm is None else perm[flip]
            continue
        if perm is not None:
            steps.append(perm)
            perm = None
        rows, stride = 1 << (m - 1 - gate.qubits[0]), 1 << gate.qubits[0]
        narrow = stride == 1 or (stride <= NARROW_STRIDE and rows >= NARROW_MIN_ROWS)
        steps.append((gate.param_index, (rows, 2 * stride) if narrow else (rows, 2, stride), np.eye(stride) if narrow else None))
    if perm is not None:
        steps.append(perm)
    half = 0.5 * np.asarray(theta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    rot = np.array((c, -s, s, c)).T.reshape(-1, 2, 2)
    psi = np.zeros(1 << m)
    psi[0] = 1.0
    for step in steps:
        if isinstance(step, np.ndarray):
            psi = psi[step]
            continue
        k, shape, eye = step
        if eye is None:
            psi = (rot[k] @ psi.reshape(shape)).reshape(-1)
        else:
            kron = (rot[k].T[:, None, :, None] * eye[None, :, None, :]).reshape(shape[1], shape[1])
            psi = (psi.reshape(shape) @ kron).reshape(-1)
    return psi


def reference_propagate(psi, diag, schedule):
    """The anneal one step at a time: a dense driver, one eigh and one complex product per step."""
    n = len(diag).bit_length() - 1
    dim = 1 << n
    H_init = np.zeros((dim, dim))
    for idx in range(dim):
        for i in range(n):
            H_init[idx ^ (1 << i), idx] -= 1.0
    dt = schedule.duration / schedule.steps
    H_problem = np.diag(diag)
    for k in range(schedule.steps):
        s = schedule.s((k + 0.5) * dt)
        H = (1.0 - s) * H_init + s * H_problem
        vals, vecs = np.linalg.eigh(H)
        psi = (vecs * np.exp(-1j * dt * vals)) @ (vecs.conj().T @ psi)
    return psi
