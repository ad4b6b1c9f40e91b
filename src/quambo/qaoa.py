"""QAOA engine: mixer configurations, figures of merit, restarts, depth schedules.

The ansatz is  psi = prod_{r=1..p} [mixer(beta_r) . phase(gamma_r)] |init>.
Three mixer families are supported: per-qubit X rotations, XY ring mixers
(Hamming-weight conserving, one ring per Hamming block of the encoding) and
the three-ring XY variant used for start/destination encodings, where with
three gammas each cost term takes the gamma of its lower qubit's block.

An angle point is one flat vector x: p rows of the mixer's beta-count betas,
then p rows of its gamma-count gammas.  ev, metrics, run, the restart search
and the depth schedules all take it in this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .optimize import OptimizerConfig, minimize_batch, restart_search
from .problems import Encoding, feasible_sector
from .qubo import TIE_TOL, CapacityError, QuboModel, energies_at, read_only
from .simulator import EV_BATCH_AMPLITUDES, STATE_CAP, StateVector, xy_ring_eigensystem

MIXER_KINDS = ("X", "XY", "ThreeXY")
STRATEGIES = ("INTERP", "EXTRAP1", "EXTRAP2")  # the depth schedules of increasing_p_schedule
INIT_KINDS = ("Uniform", "Dicke", "DickeBlocks", "RandomFeasible")


@dataclass
class MixerSpec:
    """kind is one of "X", "XY" or "ThreeXY"; for ThreeXY angle_scheme gives the (beta-count, gamma-count) pair.

    The XY and ThreeXY rings are the encoding's Hamming blocks (the start
    blocks, then the destination block).  rings is None or those blocks as
    qubit lists; QaoaContext refuses any other value.  It is kept only
    because the benchmark's study specs pass the blocks.
    """

    kind: str
    rings: list[list[int]] | None = None
    angle_scheme: tuple[int, int] = (1, 1)

    def __post_init__(self) -> None:
        if self.kind not in MIXER_KINDS:
            raise ValueError(f"unknown mixer kind {self.kind!r}")
        if self.kind == "ThreeXY" and self.angle_scheme not in ((1, 1), (2, 1), (3, 1), (3, 3)):
            raise ValueError(f"unsupported angle scheme {self.angle_scheme!r}")

    @property
    def n_beta(self) -> int:
        return self.angle_scheme[0] if self.kind == "ThreeXY" else 1

    @property
    def n_gamma(self) -> int:
        return self.angle_scheme[1] if self.kind == "ThreeXY" else 1


@dataclass
class InitSpec:
    """Initial state: Uniform | Dicke (the first Hamming block's weight) | DickeBlocks | RandomFeasible(seed).

    The state is uniform over the basis states where each kept Hamming block has its weight (none for
    Uniform, all n qubits for Dicke, the encoding's hamming_targets otherwise), or one of them for
    RandomFeasible, drawn by rejection from the full space.
    """

    kind: str
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind == "RandomFeasible" and self.seed is None:
            raise ValueError("init RandomFeasible needs a seed")


@dataclass
class RunMetrics:
    ev: float
    r_approx: float
    p_feas: float
    p_gnd: float
    evals: int = 0


class Scorer:
    """The feasible sector of one (model, encoding), ready to score masses over it.

    indices are the feasible basis indices in feasible_indices order and
    energies their model energies with the penalty floor removed; order is
    np.argsort(indices) (the encoding's shared sector_order for Scorer.of).
    """

    def __init__(self, indices: np.ndarray, energies: np.ndarray, order: np.ndarray):
        self.indices = indices
        self.energies = energies
        self.order = order
        self.c_min = float(energies.min())
        self.c_max = float(energies.max())
        self.ground = np.abs(energies - self.c_min) < TIE_TOL

    @classmethod
    def of(cls, model: QuboModel, encoding: Encoding) -> "Scorer":
        return cls(*feasible_sector(model, encoding), encoding.sector_order)

    def find(self, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hit, at): where the basis indices are feasible, and the positions in indices of those that are."""
        pos = self.order[np.minimum(np.searchsorted(self.indices, basis, sorter=self.order), len(self.order) - 1)]
        hit = self.indices[pos] == basis
        return hit, pos[hit]

    def counts(self, reads: np.ndarray) -> np.ndarray:
        """Integer read counts per feasible state, from the basis indices of the reads."""
        return np.bincount(self.find(reads)[1], minlength=len(self.indices))


# Largest number of qubits in one Hadamard block of the X-mixer engine.
X_BLOCK_CAP = 5


@lru_cache(maxsize=16)
def _hadamard_eigensystem(w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(patterns, vals, vecs) of sum_t X_t on w qubits: the normalised Hadamard matrix, eigenvalues w - 2 popcount."""
    vecs = np.ones((1, 1))
    for _ in range(w):
        vecs = np.kron(vecs, [[1.0, 1.0], [1.0, -1.0]])
    vecs /= 2.0 ** (w / 2)
    return read_only(np.arange(1 << w)), read_only(w - 2.0 * np.bitwise_count(np.arange(1 << w))), read_only(vecs)


def _weights_hold(index, blocks: list[tuple[tuple[int, int], int]]) -> np.ndarray:
    """True where the basis index (or array of them) has weight w in every ((lo, hi), w) block."""
    keep = np.ones(np.shape(index), dtype=bool)
    for (lo, hi), w in blocks:
        keep &= np.bitwise_count((index >> lo) & ((1 << (hi - lo)) - 1)) == w
    return keep


def _phase_table(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of rows (angle count x dim) and the index that restores them.

    A phase exp(-i angles . rows) is then computed once per distinct column:
    the X eigenvalue sums take n + 1 values, and cost diagonals repeat too.
    Columns are ranked row by row (key * distinct + rank in the row, re-ranked
    so keys stay below dim^2), which sorts them lexicographically, as
    np.unique(rows.T, axis=0) does, without sorting a structured dtype.
    """
    key = np.zeros(rows.shape[1], dtype=np.int64)
    for row in rows:
        values, rank = np.unique(row, return_inverse=True)
        _, first, key = np.unique(key * len(values) + rank, return_index=True, return_inverse=True)
    return read_only(np.ascontiguousarray(rows[:, first])), read_only(key)


class QaoaContext:
    """Precomputed machinery for repeated ansatz evaluations on one problem.

    One engine evolves every mixer.  Its state is a flat complex array viewed
    as a tensor with one axis per mixer block, each a contiguous qubit range:
    a Hadamard block of at most X_BLOCK_CAP qubits for X, otherwise one XY
    ring per Hamming block of the encoding.  A block's basis is all its bit
    patterns, or, when the initial state lies in the feasible sector, the
    patterns of the block's Hamming weight (`basis` is then "sector";
    otherwise "full", with the cause in `sector_reason`); the engine's basis
    indices are the outer sum of every block's patterns shifted to its range.
    A layer multiplies by the cost phase, applies V^T of every block's real
    mixer eigensystem (V, lambda), multiplies by exp(-i sum_b beta_b lambda_b)
    and applies V again.  Cost rows (one per gamma family), eigensystems and
    the initial state (InitSpec) are built once, read-only, in the engine
    basis, where ev and metrics score; only run fills all 2^n amplitudes.
    """

    def __init__(
        self,
        encoding: Encoding,
        model: QuboModel,
        mixer: MixerSpec,
        init: InitSpec,
        use_sector: bool | None = None,
    ):
        CapacityError.check(model.n, STATE_CAP, "statevector")
        self.encoding = encoding
        self.model = model
        self.mixer = mixer
        self.init = init
        self.n = model.n
        hamming = encoding.hamming_targets
        self._init_blocks = {"Uniform": [], "Dicke": [((0, self.n), hamming[0][1])]}.get(init.kind, hamming)
        rings = [list(range(lo, hi)) for (lo, hi), _w in hamming]
        if mixer.rings is not None and [list(ring) for ring in mixer.rings] != rings:
            raise ValueError(f"rings must be None or the encoding's Hamming blocks {rings}")
        if mixer.kind == "ThreeXY" and len(hamming) != 3:
            raise ValueError("ThreeXY needs an encoding with three Hamming blocks")
        self.scorer = Scorer.of(model, encoding)

        self.sector_reason = self._sector_reason(use_sector)
        self.basis = "full" if self.sector_reason else "sector"
        blocks = self._blocks()
        self.block_dims = [len(patterns) for _lo, patterns, _l, _v in blocks]
        index = np.zeros((), dtype=np.int64)
        self._steps = []
        for axis, (lo, patterns, _vals, vecs) in enumerate(blocks):
            index = np.add.outer(index, patterns << lo)
            pre, post = int(np.prod(self.block_dims[:axis])), int(np.prod(self.block_dims[axis + 1:]))
            self._steps.append(((pre, len(patterns), 2 * post), read_only(np.ascontiguousarray(vecs.T)), vecs))
        # engine amplitude i is the computational basis state _index[i]
        self._index = read_only(index.reshape(-1))
        # drive[c, b] = 1 when beta column c is the angle of block b
        columns = [0] * len(blocks)
        if mixer.kind == "ThreeXY":
            columns = {1: [0, 0, 0], 2: [0, 0, 1], 3: [0, 1, 2]}[mixer.n_beta]
        drive = np.zeros((mixer.n_beta, len(blocks)))
        drive[columns, range(len(columns))] = 1.0
        # beta . _mix_rows lists beta_b lambda_b of every block, block after block
        self._mix_rows = read_only(np.hstack([np.outer(drive[:, b], block[2]) for b, block in enumerate(blocks)]))
        edges = np.cumsum([0] + self.block_dims)
        self._mix_slices = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        rows = [energies_at(sub, self._index) for sub in self._gamma_models()]
        self._cost_table, self._cost_index = _phase_table(np.array(rows))
        self._cost = read_only(sum(rows[1:], rows[0]))
        # the engine position of each of scorer.indices: every feasible state is an engine basis state
        hit, at = self.scorer.find(self._index)
        self._feasible_at = read_only(np.flatnonzero(hit)[np.argsort(at)])

    def _sector_reason(self, use_sector: bool | None) -> str:
        """Why the engine cannot run in the Hamming-weight sector ("" when it can)."""
        if use_sector is False:
            return "use_sector=False"
        if self.mixer.kind == "X":
            return "the X mixer does not conserve Hamming weight"
        if self._init_blocks != self.encoding.hamming_targets:
            return f"the {self.init.kind} initial state is not inside the sector"
        return ""

    def _blocks(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """(lo, patterns, vals, vecs) per engine axis: bit t of the block's patterns is qubit lo + t."""
        if self.mixer.kind == "X":
            # near-equal blocks, highest qubits on axis 0, so the engine basis is the computational one
            count = -(-self.n // X_BLOCK_CAP)
            sizes = [self.n // count + (b < self.n % count) for b in range(count)]
            tops = np.cumsum([0] + sizes)
            return [(self.n - hi, *_hadamard_eigensystem(hi - lo)) for lo, hi in zip(tops, tops[1:])]
        return [(lo, *xy_ring_eigensystem(hi - lo, w if self.basis == "sector" else None))
                for (lo, hi), w in self.encoding.hamming_targets]

    def _gamma_models(self) -> list[QuboModel]:
        """The model per gamma family: itself, or with three gammas each term in its lower qubit's block's family.

        The blocks ascend, so that is the family of a cross-block term's start-block qubit, as in the paper.
        """
        if self.mixer.n_gamma == 1:
            return [self.model]
        block_of = [b for b, ((lo, hi), _w) in enumerate(self.encoding.hamming_targets) for _q in range(lo, hi)]
        terms = [({}, {}, offset) for offset in (self.model.offset, 0.0, 0.0)]
        for i, c in self.model.linear.items():
            terms[block_of[i]][0][i] = c
        for (i, j), c in self.model.quadratic.items():
            terms[block_of[i]][1][i, j] = c
        return [QuboModel(self.n, *family) for family in terms]

    @property
    def engine(self) -> dict:
        """The engine's basis, state dimension and block dimensions, and why the sector was not used."""
        info = {"basis": self.basis, "dim": len(self._index), "block_dims": self.block_dims}
        return {**info, "reason": self.sector_reason} if self.sector_reason else info

    @cached_property
    def _psi0(self) -> np.ndarray:
        """The initial state (InitSpec) over the engine's basis indices."""
        blocks = self._init_blocks
        if self.init.kind == "RandomFeasible":
            rng = np.random.default_rng(self.init.seed)
            while not _weights_hold(index := int(rng.integers(0, 1 << self.n)), blocks):
                pass
            return read_only((self._index == index).astype(complex))
        amp = (1 << self.n) ** -0.5
        if blocks:  # one Dicke amplitude per block, multiplied last block first
            amp = math.prod(math.comb(hi - lo, w) ** -0.5 for (lo, hi), w in reversed(blocks))
        psi = np.zeros(len(self._index), dtype=complex)
        psi[_weights_hold(self._index, blocks)] = amp
        return read_only(psi)

    def _evolve(self, X: np.ndarray, p: int) -> np.ndarray:
        """The ansatz states (K, dim) of the angle rows X (K, P), in the engine basis.

        The rows are a leading stacked axis of every product, never folded
        into the rows of a BLAS matrix, so row k is bitwise the same whatever
        the other rows are.
        """
        K, nb, ng = len(X), self.mixer.n_beta, self.mixer.n_gamma
        if p < 1:
            raise ValueError(f"need p >= 1 layers, got p = {p}")
        if X.shape[1] != p * (nb + ng):
            raise ValueError("angle columns do not match the mixer's angle scheme")
        cost = np.take(np.exp(-1j * (X[:, p * nb:].reshape(K, p, ng) @ self._cost_table)), self._cost_index, axis=2)
        mix = np.exp(-1j * (X[:, :p * nb].reshape(K, p, nb) @ self._mix_rows))
        psi = self._psi0
        for r in range(p):
            psi = psi * cost[:, r]
            for (pre, b, post), vt, _v in self._steps:
                psi = np.matmul(vt, psi.view(float).reshape(K * pre, b, post)).reshape(K, -1).view(complex)
            # exp(-i sum_b beta_b lambda_b) is the outer product of the blocks' phases
            phase = mix[:, r, self._mix_slices[0]]
            for part in self._mix_slices[1:]:
                phase = (phase[:, :, None] * mix[:, r, None, part]).reshape(K, -1)
            psi *= phase
            for (pre, b, post), _vt, v in self._steps:
                psi = np.matmul(v, psi.view(float).reshape(K * pre, b, post)).reshape(K, -1).view(complex)
        return psi

    def run(self, x: np.ndarray, p: int) -> StateVector:
        """The ansatz state at the angles x of depth p, as ev(x, p) takes them, over all 2^n amplitudes."""
        amps = np.zeros(1 << self.n, dtype=complex)
        amps[self._index] = self._evolve(np.asarray(x, dtype=float)[None], p)[0]
        return StateVector(self.n, amps)

    def metrics(self, x: np.ndarray, p: int, evals: int = 0) -> RunMetrics:
        """The figures of merit of the ansatz at the angles x of depth p from one evolution; ev is bitwise ev(x, p)."""
        probs = np.abs(self._evolve(np.asarray(x, dtype=float)[None], p)[0]) ** 2
        return metrics(self.scorer, probs[self._feasible_at], ev=float(probs @ self._cost), evals=evals)

    def ev_batch(self, X: np.ndarray, p: int) -> np.ndarray:
        """The cost expectation of each angle row of X (K, P) at depth p; row k is bitwise ev(X[k], p).

        Rows are evolved in chunks of at most EV_BATCH_AMPLITUDES amplitudes
        (at least one row), since larger stacks run slower per row.
        """
        X = np.asarray(X, dtype=float)
        rows = max(1, EV_BATCH_AMPLITUDES // len(self._index))
        if len(X) > rows:
            return np.concatenate([self.ev_batch(X[k:k + rows], p) for k in range(0, len(X), rows)])
        # one dot product per row: (1, dim) @ (dim, 1) for every stacked row
        return np.matmul((np.abs(self._evolve(X, p)) ** 2)[:, None, :], self._cost[:, None])[:, 0, 0]

    def ev(self, x: np.ndarray, p: int) -> float:
        return float(self.ev_batch(np.asarray(x, dtype=float)[None], p)[0])


def metrics(
    scorer: Scorer, mass: np.ndarray, total: float = 1.0, ev: float = float("nan"), evals: int = 0
) -> RunMetrics:
    """p_feas, p_gnd and r_approx of a mass over the scorer's feasible states.

    mass is aligned with scorer.indices: |psi|^2 at those states (total 1)
    or integer read counts (total = number of reads).  Sums are taken over
    the raw mass and divided by the total once, at the end.  ev is passed
    through, since the feasible sector alone does not determine it.
    """
    p_feas = float(mass.sum() / total)
    if p_feas <= 0.0:
        return RunMetrics(ev=ev, r_approx=0.0, p_feas=0.0, p_gnd=0.0, evals=evals)
    p_gnd = float(mass[scorer.ground].sum() / total)
    if scorer.c_min == scorer.c_max:
        r = 1.0
    else:
        feas_ev = float(mass @ scorer.energies / total)
        r = (feas_ev - scorer.c_max * p_feas) / (p_feas * (scorer.c_min - scorer.c_max))
    return RunMetrics(ev=ev, r_approx=r, p_feas=p_feas, p_gnd=p_gnd, evals=evals)


def mean_and_err(values: Sequence[float]) -> tuple[float, float]:
    """The mean of values and twice its standard error, with the population SD: 2 * SD / sqrt(n)."""
    vals = np.asarray(values, dtype=float)
    return float(vals.mean()), float(2.0 * vals.std(ddof=0) / np.sqrt(len(vals)))


def summarize_metrics(runs: Sequence[RunMetrics]) -> dict[str, float]:
    """Mean and 2 * SD-of-the-mean (mean_and_err) for each figure of merit."""
    out: dict[str, float] = {}
    for name in ("ev", "r_approx", "p_feas", "p_gnd"):
        out[f"mean_{name}"], out[f"err_{name}"] = mean_and_err([getattr(m, name) for m in runs])
    return out


def random_restart_search(ctx: QaoaContext, p: int, n_starts: int, optimizer: OptimizerConfig,
                          seed: int) -> tuple[list[tuple[np.ndarray, RunMetrics]], dict]:
    """Optimize from n_starts uniform [0, 2pi)^dim angle draws: optimize.restart_search's (runs, report).

    All starts go to one minimize_batch call (Nelder-Mead and SPSA run them
    in lockstep); each run is (x, metrics) at depth p.
    """
    return restart_search(lambda X: ctx.ev_batch(X, p), lambda x: ctx.metrics(x, p),
                          p * (ctx.mixer.n_beta + ctx.mixer.n_gamma), n_starts, optimizer, seed)


def _steps(x: np.ndarray, p: int, n_beta: int) -> np.ndarray:
    """The (p, angle count) matrix of x: row r holds step r's betas, then its gammas."""
    return np.hstack([x[:p * n_beta].reshape(p, n_beta), x[p * n_beta:].reshape(p, -1)])


def _flat(steps: np.ndarray, n_beta: int) -> np.ndarray:
    """The angle vector of a _steps matrix: every step's betas, then every step's gammas."""
    return np.concatenate([steps[:, :n_beta].ravel(), steps[:, n_beta:].ravel()])


def interp_extend(x: np.ndarray, p: int, n_beta: int) -> np.ndarray:
    """Linear-interpolation seed for depth p+1, applied per angle family."""
    padded = np.pad(_steps(x, p, n_beta), ((1, 1), (0, 0)))
    i = np.arange(1, p + 2)[:, None]
    return _flat(((i - 1) / p) * padded[:-1] + ((p - i + 1) / p) * padded[1:], n_beta)


def extrap_extend(x: np.ndarray, p: int, n_beta: int, by: int = 1) -> np.ndarray:
    """Append `by` zero (beta, gamma) steps; the EV at the extended point is unchanged."""
    if by not in (1, 2):
        raise ValueError("extrapolation appends 1 or 2 steps")
    return _flat(np.pad(_steps(x, p, n_beta), ((0, by), (0, 0))), n_beta)


@dataclass
class ScheduleLevel:
    p: int
    x: np.ndarray
    metrics: RunMetrics


def increasing_p_schedule(
    strategy: str,
    x0: np.ndarray,
    p_max: int,
    optimizer: OptimizerConfig,
    ctx: QaoaContext,
    seed: int = 0,
) -> list[ScheduleLevel]:
    """Iterate extend -> optimize from the angles x0 (their depth is len(x0) / angles per step).

    The zero-padded previous optimum is always evaluated as a fallback (the
    zero-angle option), so the reported EV is non-increasing for every
    strategy, including interpolation.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    nb = ctx.mixer.n_beta

    def record(x: np.ndarray, p: int, ev: float, evals: int) -> ScheduleLevel:
        m = ctx.metrics(x, p, evals=evals)
        return ScheduleLevel(p=p, x=x, metrics=replace(m, ev=ev))

    current = np.asarray(x0, dtype=float)
    p = len(current) // (nb + ctx.mixer.n_gamma)
    current_ev = ctx.ev(current, p)
    levels = [record(current, p, current_ev, 0)]
    step = 2 if strategy == "EXTRAP2" else 1
    while p + step <= p_max:
        extended = interp_extend(current, p, nb) if strategy == "INTERP" else extrap_extend(current, p, nb, by=step)
        p_new = p + step
        res = minimize_batch(lambda X: ctx.ev_batch(X, p_new), extended[None], optimizer, [seed])[0]
        if current_ev < res.f_best:
            current = extrap_extend(current, p, nb, by=step)
        else:
            current, current_ev = res.x_best, res.f_best
        p = p_new
        levels.append(record(current, p, current_ev, res.evals))
    return levels


def gain_decomposition(
    baseline: RunMetrics,
    seed: RunMetrics,
    final: RunMetrics,
    uniform_p_gnd: float,
) -> dict[str, float]:
    """Multiplicative breakdown of the overall p_gnd gain over the bare uniform ansatz.

    mixer: initial-state gain over the full-space uniform state;
    seed: gain from the seeded angles; feasible / approx: feasibility and
    in-sector quality gains of the final point over the seed; mix: residual.
    The product of the five factors equals `overall` exactly.
    """
    flags = []
    for name, den in (("mixer", uniform_p_gnd), ("seed", baseline.p_gnd),
                      ("feasible", seed.p_feas), ("approx", seed.r_approx)):
        if den == 0.0:
            flags.append(name)
    if flags:
        raise ZeroDivisionError(f"zero denominator for factors: {flags}")
    mixer = baseline.p_gnd / uniform_p_gnd
    seed_f = seed.p_gnd / baseline.p_gnd
    feasible = final.p_feas / seed.p_feas
    approx = final.r_approx / seed.r_approx
    overall = final.p_gnd / uniform_p_gnd
    mix = overall / (mixer * seed_f * feasible * approx)
    return {
        "mixer": mixer,
        "seed": seed_f,
        "feasible": feasible,
        "approx": approx,
        "mix": mix,
        "overall": overall,
    }
