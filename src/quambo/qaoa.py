"""QAOA engine: mixer configurations, figures of merit, restarts, depth schedules.

The ansatz is  psi = prod_{r=1..p} [mixer(beta_r) . phase(gamma_r)] |init>.
Three mixer families are supported: per-qubit X rotations, XY ring mixers
(Hamming-weight conserving) and the three-ring XY variant used for
start/destination encodings, where quadratic terms crossing blocks pick up
the gamma of their start-block qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .optimize import OptimizerConfig, OptResult, minimize
from .problems import Encoding, feasible_sector, is_feasible
from .qubo import TIE_TOL, QuboModel, energy_vector, enumerate_spectrum, string_from_index
from .simulator import (
    StateVector,
    apply_phase_vector,
    apply_x_mixer,
    apply_xy_ring_mixer,
    basis_state,
    block_product_state,
    dicke_state,
    uniform_state,
)


@dataclass
class MixerSpec:
    """kind is one of "X", "XY" (rings = explicit qubit lists) or "ThreeXY".

    For ThreeXY the rings default to the encoding's Hamming-target blocks
    (start blocks then the destination block) and angle_scheme gives the
    (beta-count, gamma-count) pair.
    """

    kind: str
    rings: list[list[int]] | None = None
    angle_scheme: tuple[int, int] = (1, 1)

    def __post_init__(self) -> None:
        if self.kind not in ("X", "XY", "ThreeXY"):
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
    """Initial state: Uniform | Dicke(k) | DickeBlocks | PureFeasible(s) | RandomFeasible(seed)."""

    kind: str
    k: int | None = None
    bitstring: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Uniform", "Dicke", "DickeBlocks", "PureFeasible", "RandomFeasible"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind == "PureFeasible" and self.bitstring is None:
            raise ValueError("init PureFeasible needs a bitstring")
        if self.kind == "RandomFeasible" and self.seed is None:
            raise ValueError("init RandomFeasible needs a seed")


@dataclass
class Angles:
    """p steps of beta (p x beta-count) and gamma (p x gamma-count) angles."""

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        self.beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        self.gamma = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        if self.beta.shape[0] != self.gamma.shape[0]:
            raise ValueError("beta and gamma must have one row per step")

    @property
    def p(self) -> int:
        return self.beta.shape[0]

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.beta.ravel(), self.gamma.ravel()])

    @staticmethod
    def unflatten(x: np.ndarray, p: int, n_beta: int, n_gamma: int) -> "Angles":
        x = np.asarray(x, dtype=float)
        nb = p * n_beta
        return Angles(beta=x[:nb].reshape(p, n_beta), gamma=x[nb:].reshape(p, n_gamma))


@dataclass
class RunMetrics:
    ev: float
    r_approx: float
    p_feas: float
    p_gnd: float
    evals: int = 0
    no_feasible_mass: bool = False


class Scorer:
    """The feasible sector of one (model, encoding), ready to score masses over it.

    indices are the feasible basis indices in feasible_indices order and
    energies their model energies with the penalty floor removed.
    """

    def __init__(self, indices: np.ndarray, energies: np.ndarray):
        self.indices = indices
        self.energies = energies
        self.c_min = float(energies.min())
        self.c_max = float(energies.max())
        self.ground = np.abs(energies - self.c_min) < TIE_TOL

    @classmethod
    def of(cls, model: QuboModel, encoding: Encoding) -> "Scorer":
        return cls(*feasible_sector(model, encoding))

    def counts(self, reads: np.ndarray) -> np.ndarray:
        """Integer read counts per feasible state, from the basis indices of the reads."""
        order = np.argsort(self.indices)
        pos = np.minimum(np.searchsorted(self.indices, reads, sorter=order), len(order) - 1)
        hit = self.indices[order[pos]] == reads
        return np.bincount(order[pos[hit]], minlength=len(self.indices))


@dataclass
class QaoaConfig:
    encoding: Encoding
    mixer: MixerSpec
    init: InitSpec
    p: int


class _SectorEngine:
    """Exact evolution restricted to the block-Hamming-weight sector.

    When every mixer ring coincides with a Hamming-target block and the
    initial state lives in the sector, the phase separator (diagonal) and
    the XY ring mixers (weight conserving per block) never move amplitude
    out of it.  The state is then a tensor with one axis per block, of
    dimension C(block length, block weight), which is far smaller than 2^n.
    """

    def __init__(self, n: int, blocks: list[tuple[tuple[int, int], int]], diags: list[np.ndarray]):
        from itertools import combinations

        self.n = n
        self.blocks = blocks
        self.patterns: list[np.ndarray] = []
        for (lo, hi), w in blocks:
            width = hi - lo
            pats = sorted(sum(1 << b for b in combo) for combo in combinations(range(width), w))
            self.patterns.append(np.array(pats, dtype=np.int64))
        self.shape = tuple(len(p) for p in self.patterns)
        grids = np.meshgrid(*[p << lo for p, ((lo, _hi), _w) in zip(self.patterns, blocks)], indexing="ij")
        self.global_indices = np.zeros(self.shape, dtype=np.int64)
        for g in grids:
            self.global_indices += g
        flat = self.global_indices.reshape(-1)
        self.diags = [d[flat].reshape(self.shape) for d in diags]
        self._eigs = [self._block_eigensystem(k) for k in range(len(blocks))]

    def _block_eigensystem(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Eigensystem of the XY ring Hamiltonian restricted to the block's weight sector."""
        pats = self.patterns[k]
        width = self.blocks[k][0][1] - self.blocks[k][0][0]
        pos = {int(p): i for i, p in enumerate(pats)}
        dim = len(pats)
        H = np.zeros((dim, dim))
        edges = [(0, 1)] if width == 2 else [(t, (t + 1) % width) for t in range(width)]
        for i, p in enumerate(pats):
            for a, b in edges:
                if ((p >> a) & 1) != ((p >> b) & 1):
                    H[pos[int(p) ^ (1 << a) ^ (1 << b)], i] += 1.0
        vals, vecs = np.linalg.eigh(H)
        return vals, vecs

    def uniform_sector_state(self) -> np.ndarray:
        size = int(np.prod(self.shape))
        return np.full(self.shape, 1.0 / np.sqrt(size), dtype=complex)

    def basis_sector_state(self, bitstring: str) -> np.ndarray:
        amps = np.zeros(self.shape, dtype=complex)
        coords = []
        for pats, ((lo, hi), _w) in zip(self.patterns, self.blocks):
            block = int(bitstring[lo:hi][::-1], 2)
            coords.append(int(np.flatnonzero(pats == block)[0]))
        amps[tuple(coords)] = 1.0
        return amps

    def apply_phase(self, amps: np.ndarray, diag_index: int, gamma: float) -> np.ndarray:
        return amps * np.exp(-1j * gamma * self.diags[diag_index])

    def apply_block_mixer(self, amps: np.ndarray, k: int, beta: float) -> np.ndarray:
        vals, vecs = self._eigs[k]
        U = (vecs * np.exp(-1j * beta * vals)) @ vecs.conj().T
        moved = np.moveaxis(amps, k, 0)
        out = np.tensordot(U, moved, axes=([1], [0]))
        return np.moveaxis(out, 0, k)

    def expand(self, amps: np.ndarray) -> StateVector:
        full = np.zeros(1 << self.n, dtype=complex)
        full[self.global_indices.reshape(-1)] = amps.reshape(-1)
        return StateVector(self.n, full)


class QaoaContext:
    """Precomputed machinery for repeated ansatz evaluations on one problem."""

    def __init__(
        self,
        encoding: Encoding,
        model: QuboModel,
        mixer: MixerSpec,
        init: InitSpec,
        use_sector: bool | None = None,
    ):
        self.encoding = encoding
        self.model = model
        self.mixer = mixer
        self.init = init
        self.n = model.n

        if mixer.kind == "ThreeXY":
            rings = mixer.rings or [list(range(lo, hi)) for (lo, hi), _ in encoding.hamming_targets]
            if len(rings) != 3:
                raise ValueError("ThreeXY needs exactly three rings")
            self.rings = rings
            self.phase_diags = self._split_phase_diagonals(rings) if mixer.n_gamma == 3 else [energy_vector(model)]
        elif mixer.kind == "XY":
            if not mixer.rings:
                raise ValueError("XY mixer needs explicit rings")
            self.rings = mixer.rings
            self.phase_diags = [energy_vector(model)]
        else:
            self.rings = []
            self.phase_diags = [energy_vector(model)]

        self.scorer = Scorer.of(model, encoding)
        self.oracle = enumerate_spectrum(model, states=self.scorer.indices, energies=self.scorer.energies)

        self._sector: _SectorEngine | None = None
        if use_sector is not False and self._sector_applicable():
            self._sector = _SectorEngine(self.n, list(encoding.hamming_targets), self.phase_diags)

    def _sector_applicable(self) -> bool:
        """Weight-sector evolution is exact when rings tile the Hamming blocks."""
        if self.mixer.kind not in ("XY", "ThreeXY"):
            return False
        if self.init.kind not in ("Dicke", "DickeBlocks", "PureFeasible"):
            return False
        blocks = self.encoding.hamming_targets
        if self.rings != [list(range(lo, hi)) for (lo, hi), _w in blocks]:
            return False
        if self.init.kind == "Dicke":
            k = self.init.k if self.init.k is not None else blocks[0][1]
            return blocks == [((0, self.n), k)]
        return True

    def _block_of(self, q: int) -> int:
        for r, ring in enumerate(self.rings):
            if q in ring:
                return r
        raise ValueError(f"qubit {q} not in any ring")

    def _split_phase_diagonals(self, rings: list[list[int]]) -> list[np.ndarray]:
        """One diagonal per gamma family; cross-block terms follow their start-block qubit."""
        linear: list[dict[int, float]] = [{}, {}, {}]
        quadratic: list[dict[tuple[int, int], float]] = [{}, {}, {}]
        for i, c in self.model.linear.items():
            linear[self._block_of(i)][i] = c
        n_start = len(rings[0]) + len(rings[1])
        for (i, j), c in self.model.quadratic.items():
            bi, bj = self._block_of(i), self._block_of(j)
            if bi == bj:
                b = bi
            else:
                start_blocks = [b for b, q in ((bi, i), (bj, j)) if q < n_start]
                b = min(start_blocks) if start_blocks else min(bi, bj)
            quadratic[b][(i, j)] = c
        offsets = [self.model.offset, 0.0, 0.0]
        subs = [QuboModel(self.n, lin, quad, off) for lin, quad, off in zip(linear, quadratic, offsets)]
        return [energy_vector(sub, n_override=self.n) for sub in subs]

    def initial_state(self) -> StateVector:
        init, enc = self.init, self.encoding
        if init.kind == "Uniform":
            return uniform_state(self.n)
        if init.kind == "Dicke":
            k = init.k if init.k is not None else enc.hamming_targets[0][1]
            return dicke_state(self.n, k)
        if init.kind == "DickeBlocks":
            return block_product_state([(rng, w) for rng, w in enc.hamming_targets])
        if init.kind == "PureFeasible":
            if not is_feasible(enc, init.bitstring):
                raise ValueError(f"init state {init.bitstring!r} is not feasible")
            return basis_state(self.n, init.bitstring)
        # RandomFeasible: rejection-sample the full space against is_feasible
        rng = np.random.default_rng(init.seed)
        while True:
            idx = int(rng.integers(0, 1 << self.n))
            s = string_from_index(idx, self.n)
            if is_feasible(enc, s):
                return basis_state(self.n, s)

    def _ring_betas(self, beta_row: np.ndarray) -> list[float]:
        nb = len(beta_row)
        if nb == 1:
            return [beta_row[0]] * 3
        if nb == 2:
            return [beta_row[0], beta_row[0], beta_row[1]]
        return list(beta_row)

    def _run_sector(self, angles: Angles) -> np.ndarray:
        sector = self._sector
        if self.init.kind == "PureFeasible":
            if not is_feasible(self.encoding, self.init.bitstring):
                raise ValueError(f"init state {self.init.bitstring!r} is not feasible")
            amps = sector.basis_sector_state(self.init.bitstring)
        else:
            amps = sector.uniform_sector_state()
        n_blocks = len(sector.blocks)
        for r in range(angles.p):
            for d, g in enumerate(angles.gamma[r]):
                amps = sector.apply_phase(amps, d, g)
            if self.mixer.kind == "XY":
                betas = [angles.beta[r, 0]] * n_blocks
            else:
                betas = self._ring_betas(angles.beta[r])
            for k, b in enumerate(betas):
                amps = sector.apply_block_mixer(amps, k, b)
        return amps

    def run(self, angles: Angles) -> StateVector:
        if angles.beta.shape[1] != self.mixer.n_beta or angles.gamma.shape[1] != self.mixer.n_gamma:
            raise ValueError("angle columns do not match the mixer's angle scheme")
        if self._sector is not None:
            return self._sector.expand(self._run_sector(angles))
        state = self.initial_state()
        for r in range(angles.p):
            for diag, g in zip(self.phase_diags, angles.gamma[r]):
                apply_phase_vector(state, diag, g)
            if self.mixer.kind == "X":
                apply_x_mixer(state, angles.beta[r, 0])
            elif self.mixer.kind == "XY":
                for ring in self.rings:
                    apply_xy_ring_mixer(state, ring, angles.beta[r, 0])
            else:
                for ring, b in zip(self.rings, self._ring_betas(angles.beta[r])):
                    apply_xy_ring_mixer(state, ring, b)
        return state

    def metrics(self, state: StateVector, evals: int = 0) -> RunMetrics:
        probs = state.probabilities()
        full_diag = self.phase_diags[0] if len(self.phase_diags) == 1 else sum(self.phase_diags)
        return metrics(self.scorer, probs[self.scorer.indices], ev=float(probs @ full_diag), evals=evals)

    def ev(self, x: np.ndarray, p: int) -> float:
        angles = Angles.unflatten(x, p, self.mixer.n_beta, self.mixer.n_gamma)
        if self._sector is not None:
            amps = self._run_sector(angles)
            diag = self._sector.diags[0] if len(self._sector.diags) == 1 else sum(self._sector.diags)
            return float(np.abs(amps.reshape(-1)) ** 2 @ diag.reshape(-1))
        state = self.run(angles)
        full_diag = self.phase_diags[0] if len(self.phase_diags) == 1 else sum(self.phase_diags)
        return float(state.probabilities() @ full_diag)


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
        return RunMetrics(ev=ev, r_approx=0.0, p_feas=0.0, p_gnd=0.0, evals=evals, no_feasible_mass=True)
    p_gnd = float(mass[scorer.ground].sum() / total)
    if scorer.c_min == scorer.c_max:
        r = 1.0
    else:
        feas_ev = float(mass @ scorer.energies / total)
        r = (feas_ev - scorer.c_max * p_feas) / (p_feas * (scorer.c_min - scorer.c_max))
    return RunMetrics(ev=ev, r_approx=r, p_feas=p_feas, p_gnd=p_gnd, evals=evals)


@dataclass
class RestartResult:
    runs: list[tuple[Angles, RunMetrics]]
    summary: dict[str, float]
    best_index: int

    @property
    def best(self) -> tuple[Angles, RunMetrics]:
        return self.runs[self.best_index]


def summarize_metrics(runs: Sequence[RunMetrics]) -> dict[str, float]:
    """Mean and 2 * SD-of-the-mean for each figure of merit (population SD)."""
    out: dict[str, float] = {}
    for name in ("ev", "r_approx", "p_feas", "p_gnd"):
        vals = np.array([getattr(m, name) for m in runs], dtype=float)
        out[f"mean_{name}"] = float(vals.mean())
        out[f"err_{name}"] = float(2.0 * vals.std(ddof=0) / np.sqrt(len(vals)))
    return out


def random_restart_search(
    config: QaoaConfig,
    model: QuboModel,
    n_starts: int,
    optimizer: OptimizerConfig,
    seed: int,
) -> RestartResult:
    """Optimize from n_starts uniform [0, 2pi)^dim angle draws; best run = lowest EV."""
    ctx = QaoaContext(config.encoding, model, config.mixer, config.init)
    p = config.p
    dim = p * (config.mixer.n_beta + config.mixer.n_gamma)
    runs: list[tuple[Angles, RunMetrics]] = []
    for i in range(n_starts):
        rng = np.random.default_rng([seed, i])
        x0 = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        res = minimize(lambda x: ctx.ev(x, p), x0, optimizer, seed=int(rng.integers(2**31)))
        angles = Angles.unflatten(res.x_best, p, config.mixer.n_beta, config.mixer.n_gamma)
        m = ctx.metrics(ctx.run(angles), evals=res.evals)
        m = replace(m, ev=res.f_best)
        runs.append((angles, m))
    summary = summarize_metrics([m for _, m in runs])
    best = int(np.argmin([m.ev for _, m in runs]))
    return RestartResult(runs=runs, summary=summary, best_index=best)


def interp_extend(angles: Angles) -> Angles:
    """Linear-interpolation seed for depth p+1, applied per angle family."""
    p = angles.p

    def extend(col: np.ndarray) -> np.ndarray:
        padded = np.concatenate([[0.0], col, [0.0]])
        return np.array(
            [((i - 1) / p) * padded[i - 1] + ((p - i + 1) / p) * padded[i] for i in range(1, p + 2)]
        )

    beta = np.column_stack([extend(angles.beta[:, c]) for c in range(angles.beta.shape[1])])
    gamma = np.column_stack([extend(angles.gamma[:, c]) for c in range(angles.gamma.shape[1])])
    return Angles(beta=beta, gamma=gamma)


def extrap_extend(angles: Angles, by: int = 1) -> Angles:
    """Append `by` zero (beta, gamma) steps; the EV at the extended point is unchanged."""
    if by not in (1, 2):
        raise ValueError("extrapolation appends 1 or 2 steps")
    zb = np.zeros((by, angles.beta.shape[1]))
    zg = np.zeros((by, angles.gamma.shape[1]))
    return Angles(beta=np.vstack([angles.beta, zb]), gamma=np.vstack([angles.gamma, zg]))


@dataclass
class ScheduleLevel:
    p: int
    angles: Angles
    metrics: RunMetrics


def increasing_p_schedule(
    strategy: str,
    seed_angles: Angles,
    p_max: int,
    optimizer: OptimizerConfig,
    config: QaoaConfig,
    model: QuboModel,
    seed: int = 0,
) -> list[ScheduleLevel]:
    """Iterate extend -> optimize from a depth-p seed, recording metrics per depth.

    The zero-padded previous optimum is always evaluated as a fallback (the
    zero-angle option), so the reported EV is non-increasing for every
    strategy, including interpolation.
    """
    if strategy not in ("INTERP", "EXTRAP1", "EXTRAP2"):
        raise ValueError(f"unknown strategy {strategy!r}")
    ctx = QaoaContext(config.encoding, model, config.mixer, config.init)
    nb, ng = config.mixer.n_beta, config.mixer.n_gamma

    def record(angles: Angles, ev: float, evals: int) -> ScheduleLevel:
        m = ctx.metrics(ctx.run(angles), evals=evals)
        return ScheduleLevel(p=angles.p, angles=angles, metrics=replace(m, ev=ev))

    current = seed_angles
    current_ev = ctx.ev(current.flatten(), current.p)
    levels = [record(current, current_ev, 0)]
    step = 2 if strategy == "EXTRAP2" else 1
    while current.p + step <= p_max:
        if strategy == "INTERP":
            extended = current
            for _ in range(step):
                extended = interp_extend(extended)
        else:
            extended = extrap_extend(current, by=step)
        p_new = current.p + step
        res = minimize(lambda x: ctx.ev(x, p_new), extended.flatten(), optimizer, seed=seed)
        fallback = extrap_extend(current, by=step)
        if current_ev < res.f_best:
            current, current_ev, evals = fallback, current_ev, res.evals
        else:
            current = Angles.unflatten(res.x_best, p_new, nb, ng)
            current_ev, evals = res.f_best, res.evals
        levels.append(record(current, current_ev, evals))
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
