"""Toy Schrodinger annealing dynamics, the time-to-solution formula and lambda sweeps.

H(s) = (1 - s) * H_init + s * H_problem with a transverse-field driver whose
ground state is the uniform superposition.  Each step applies the exact
exp(-i dt H(s)) at its midpoint s by one dense eigensolve; a run of equal s (a
hold) is one exponential.  A reverse schedule's rising leg mirrors its falling
leg P = U_h ... U_1 bitwise and each U is complex symmetric, so the rising leg,
P^T = U_1 ... U_h, replays the falling runs' kept eigensystems on the state in
reverse order, by matrix-vector products only.  The cap stays at 10 qubits:
a Krylov or Chebyshev propagator needs about dt * (spectral width) / 2
matrix-vector products per step, more than 2^n on the stiff penalty models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .heuristics import SimAnneal, batched_simulated_annealing, restart_seeds
from .problems import FacilityProblem, encode_start_dest
from .qaoa import RunMetrics, Scorer, metrics
from .qubo import TIE_TOL, CapacityError, IsingModel, energies_at, energy_vector
from .simulator import StateVector, uniform_state, basis_state

ANNEAL_CAP = 10
# Floats a reverse anneal keeps of its falling runs' eigensystems (dim^2 + 2 dim each), 64 MiB: 7 at the cap, where a
# 30-step reverse anneal then peaks at the 80 MiB that building its falling leg as a matrix took.  Later runs are
# solved again on the rising leg from the same H, bitwise the same eigh, so the state does not depend on the bound.
ANNEAL_KEEP_FLOATS = 1 << 23


@dataclass
class AnnealSchedule:
    """forward: s runs 0 -> 1 over T.  reverse: s runs 1 -> s_min over T, stays for `hold`, then s_min -> 1 over T."""

    kind: str  # "forward" | "reverse"
    T: float
    steps: int = 200
    s_min: float = 0.5
    hold: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("forward", "reverse"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (math.isfinite(self.T) and self.T > 0) or type(self.steps) is not int or self.steps < 1:
            raise ValueError(f"need a finite T > 0 and an int steps >= 1, got T={self.T}, steps={self.steps!r}")
        if not (math.isfinite(self.hold) and self.hold >= 0):
            raise ValueError(f"need a finite hold >= 0, got {self.hold}")
        if self.kind == "forward" and self.hold:
            raise ValueError(f"a forward schedule has no hold, got hold={self.hold}")
        if self.kind == "reverse" and not 0 < self.s_min < 1:
            raise ValueError("need 0 < s_min < 1")

    @property
    def duration(self) -> float:
        return self.T if self.kind == "forward" else 2 * self.T + self.hold

    def s(self, t: float) -> float:
        T, s_min = self.T, self.s_min
        if self.kind == "forward":
            return t / T
        if t < T:
            return 1.0 - (1.0 - s_min) * (t / T)
        if t < T + self.hold:
            return s_min
        return s_min + (1.0 - s_min) * ((t - T - self.hold) / T)

    def midpoints(self) -> np.ndarray:
        """s at each step's midpoint; step k of a reverse schedule takes the value of step min(k, steps-1-k)."""
        k = np.arange(self.steps)
        k = np.minimum(k, self.steps - 1 - k) if self.kind == "reverse" else k
        dt = self.duration / self.steps
        return np.array([self.s((j + 0.5) * dt) for j in range(k.max() + 1)])[k]


def _propagate(psi: np.ndarray, diag: np.ndarray, schedule: AnnealSchedule) -> np.ndarray:
    """psi after exp(-i dt H(s)) at each step's midpoint s; a reverse anneal replays its falling leg in reverse."""
    dim, s_mid, dt = len(diag), schedule.midpoints(), schedule.duration / schedule.steps
    idx = np.arange(dim)
    flips = (idx ^ (1 << np.arange(dim.bit_length() - 1))[:, None], idx)  # the driver -sum_i X_i
    H = np.zeros((dim, dim))

    def runs(s_values: np.ndarray) -> list[tuple[float, int]]:  # each run of equal s is one exponential
        starts = np.flatnonzero(np.diff(s_values, prepend=np.nan))  # where s changes
        return [(s_values[start], stop - start) for start, stop in zip(starts, [*starts[1:], len(s_values)])]

    def step(x: np.ndarray, s: float, steps: int, pair: tuple | None = None) -> tuple[np.ndarray, tuple]:
        """x after exp(-i steps dt H(s)) from its (phase, real eigenvectors) pair, solved by one eigh if not given."""
        if pair is None:
            H[flips] = s - 1.0
            H.flat[:: dim + 1] = s * diag
            vals, V = np.linalg.eigh(H)
            pair = np.exp(-1j * (steps * dt) * vals), V
        phase, V = pair
        # V (phase * (V^T x)) as real products on x's float view, without a complex copy of V
        y = phase[:, None] * (V.T @ x.view(float)).view(complex)
        return (V @ y.view(float)).view(complex), pair

    half = schedule.steps // 2 if schedule.kind == "reverse" else 0
    keep = ANNEAL_KEEP_FLOATS // (dim * (dim + 2))  # the falling runs whose eigensystems are kept
    x, falling, kept = psi[:, None], runs(s_mid[:half]), []
    for s, steps in falling:
        x, pair = step(x, s, steps)
        kept.append(pair if len(kept) < keep else None)
    for s, steps in runs(s_mid[half : schedule.steps - half]):
        x, _pair = step(x, s, steps)
    for (s, steps), pair in zip(falling[::-1], kept[::-1]):  # the rising leg: P^T = U_1 ... U_h
        x, _pair = step(x, s, steps, pair)
    return x[:, 0]


def _anneal(ising: IsingModel, schedule: AnnealSchedule, seed_state: str | None) -> tuple[StateVector, float]:
    """The state after the schedule and its ground-state probability; reverse iff a seed state is given."""
    kind = "forward" if seed_state is None else "reverse"
    if schedule.kind != kind:
        raise ValueError(f"a {kind} anneal needs a {kind} schedule, got a {schedule.kind} one")
    CapacityError.check(ising.n, ANNEAL_CAP, "anneal")
    start = uniform_state(ising.n) if seed_state is None else basis_state(ising.n, seed_state)
    diag = energy_vector(ising)
    state = StateVector(ising.n, _propagate(start.amplitudes, diag, schedule))
    return state, float(state.probabilities()[np.abs(diag - diag.min()) < TIE_TOL].sum())


def simulate_forward_anneal(ising: IsingModel, schedule: AnnealSchedule) -> tuple[StateVector, float]:
    """Integrate i dpsi/dt = H(s(t)) psi from the uniform state under a forward schedule."""
    return _anneal(ising, schedule, None)


def simulate_reverse_anneal(ising: IsingModel, seed_state: str, schedule: AnnealSchedule) -> tuple[StateVector, float]:
    """Integrate i dpsi/dt = H(s(t)) psi from a basis seed (a bitstring or 0/1 sequence) under a reverse schedule."""
    return _anneal(ising, schedule, seed_state)


def tts(p_sol: float, t_cycle: float) -> float:
    """Expected time to observe the optimum with 99% confidence."""
    if not 0.0 < p_sol < 1.0:
        raise ValueError("p_sol must lie in (0, 1)")
    if not (math.isfinite(t_cycle) and t_cycle > 0):
        raise ValueError(f"need a finite t_cycle > 0, got {t_cycle}")
    return t_cycle * np.log(0.01) / np.log(1.0 - p_sol)


def anneal_parameter_sweep(
    problem: FacilityProblem, lambda_ratios: list[float], sweeps: int, reads: int, seed: int
) -> list[tuple[float, RunMetrics]]:
    """Encode at each lambda ratio, take `reads` annealer reads, score the multiset.

    The stand-in annealer's read r at ratio j is the best state of one
    SimAnneal(sweeps) chain of ratio j's model seeded with child r of child j
    of seed; the reads of all ratios run as one batch of chains, whose best
    bits become basis indices in one array expression.  ev is the mean model
    energy over a ratio's reads.  The sector does not depend on lambda and the
    start/destination sector_shift is 0 at every weight, so every ratio scores
    exactly against the first ratio's encoding: its sector (caps checked
    before any read) and block masks are built once per sweep, and each
    ratio's sector energies (feasible_sector) are held only while it is scored.
    """
    if reads < 1:
        raise ValueError(f"need reads >= 1, got {reads}")
    if not lambda_ratios:
        raise ValueError("need at least one lambda ratio")
    problems = [replace(problem, lambda_=None, lambda_ratio=ratio) for ratio in lambda_ratios]  # each checked first
    models, encodings = zip(*map(encode_start_dest, problems))
    first = encodings[0]
    first.sector  # the sector caps are checked before any read is taken
    chains = [model for model in models for _r in range(reads)]
    seeds = [read for ratio_seed in restart_seeds(seed, len(problems)) for read in restart_seeds(ratio_seed, reads)]
    bits, _energies = batched_simulated_annealing(chains, SimAnneal(sweeps), seeds)
    indices = (bits @ (1 << np.arange(first.n))).reshape(len(models), reads)
    out = []
    for ratio, model, read_indices in zip(lambda_ratios, models, indices):
        scorer = Scorer.of(model, first)
        ev = float(energies_at(model, read_indices).mean())
        out.append((ratio, metrics(scorer, scorer.counts(read_indices), total=reads, ev=ev)))
        del scorer  # the next ratio's energies replace this one's
    return out
