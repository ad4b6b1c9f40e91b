"""Toy Schrodinger annealing dynamics plus annealer-side formulas and sweeps.

H(s) = (1 - s) * H_init + s * H_problem with a transverse-field driver whose
ground state is the uniform superposition, so a slow forward anneal tracks the
problem ground state.  Problem sizes are capped at 10 qubits (dense matrix
exponentials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .problems import FacilityProblem, encode_start_dest
from .qaoa import RunMetrics, Scorer, metrics
from .qubo import TIE_TOL, CapacityError, IsingModel, energies_at, energy_vector, index_from_string
from .simulator import StateVector, uniform_state, basis_state

ANNEAL_CAP = 10


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
        if not (math.isfinite(self.T) and self.T > 0) or self.steps < 1:
            raise ValueError(f"need a finite T > 0 and steps >= 1, got T={self.T}, steps={self.steps}")
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


def _driver(n: int) -> np.ndarray:
    """-sum_i sigma_x^(i): uniform superposition is the ground state."""
    dim = 1 << n
    H = np.zeros((dim, dim))
    for idx in range(dim):
        for i in range(n):
            H[idx ^ (1 << i), idx] -= 1.0
    return H


def _propagate(psi: np.ndarray, H_init: np.ndarray, diag: np.ndarray, schedule: AnnealSchedule) -> np.ndarray:
    """Fixed-step propagation with the exact exponential of each midpoint Hamiltonian."""
    dt = schedule.duration / schedule.steps
    H_problem = np.diag(diag)
    for k in range(schedule.steps):
        s = schedule.s((k + 0.5) * dt)
        H = (1.0 - s) * H_init + s * H_problem
        vals, vecs = np.linalg.eigh(H)
        psi = (vecs * np.exp(-1j * dt * vals)) @ (vecs.conj().T @ psi)
    return psi


def _anneal(ising: IsingModel, schedule: AnnealSchedule, seed_state: str | None) -> tuple[StateVector, float]:
    """The state after the schedule and its ground-state probability; reverse iff a seed state is given."""
    kind = "forward" if seed_state is None else "reverse"
    if schedule.kind != kind:
        raise ValueError(f"a {kind} anneal needs a {kind} schedule, got a {schedule.kind} one")
    CapacityError.check(ising.n, ANNEAL_CAP, "anneal")
    diag = energy_vector(ising)
    start = uniform_state(ising.n) if seed_state is None else basis_state(ising.n, seed_state)
    state = StateVector(ising.n, _propagate(start.amplitudes, _driver(ising.n), diag, schedule))
    return state, float(state.probabilities()[np.abs(diag - diag.min()) < TIE_TOL].sum())


def simulate_forward_anneal(ising: IsingModel, schedule: AnnealSchedule) -> tuple[StateVector, float]:
    """Integrate i dpsi/dt = H(s(t)) psi from the uniform state under a forward schedule."""
    return _anneal(ising, schedule, None)


def simulate_reverse_anneal(ising: IsingModel, seed_state: str, schedule: AnnealSchedule) -> tuple[StateVector, float]:
    """Integrate i dpsi/dt = H(s(t)) psi from a basis seed under a reverse schedule."""
    return _anneal(ising, schedule, seed_state)


def tts(p_sol: float, t_cycle: float) -> float:
    """Expected time to observe the optimum with 99% confidence."""
    if not 0.0 < p_sol < 1.0:
        raise ValueError("p_sol must lie in (0, 1)")
    return t_cycle * np.log(0.01) / np.log(1.0 - p_sol)


def chain_strength(prefactor: float, model: IsingModel) -> float:
    """prefactor * rms(couplings) * sqrt(mean couplings per qubit)."""
    if not model.J:
        raise ValueError("model has no couplings")
    J = np.array(list(model.J.values()))
    rms = np.sqrt((J**2).mean())
    mean_edges = 2.0 * len(J) / model.n
    return float(prefactor * rms * np.sqrt(mean_edges))


def resolve_chain_majority(
    chains: list[list[int]], physical_sample: str, seed: int = 0
) -> str:
    """Majority-vote each chain group of a physical readout; seeded tie-break."""
    seen: set[int] = set()
    for group in chains:
        if not group:
            raise ValueError("empty chain group")
        if seen & set(group):
            raise ValueError("chain groups must be disjoint")
        seen |= set(group)
    rng = np.random.default_rng(seed)
    bits = []
    for group in chains:
        ones = sum(int(physical_sample[q]) for q in group)
        if 2 * ones > len(group):
            bits.append("1")
        elif 2 * ones < len(group):
            bits.append("0")
        else:
            bits.append(str(int(rng.integers(0, 2))))
    return "".join(bits)


def sim_anneal_sampler(sweeps: int = 30, **settings):
    """Stand-in annealer: each read is one short chain of SimAnneal(sweeps, **settings).

    All reads run as one batch of chains; read r is seeded as restart r of
    `heuristics.restart_harness`.
    """
    from .heuristics import SimAnneal, batched_simulated_annealing, restart_seeds

    config = SimAnneal(sweeps=sweeps, **settings)

    def sampler(model, reads: int, seed: int) -> list[str]:
        return batched_simulated_annealing(model, config, restart_seeds(seed, reads))[0]

    return sampler


def anneal_parameter_sweep(
    problem: FacilityProblem,
    lambda_ratios: list[float],
    sampler: Callable[..., list[str]],
    reads: int,
    seed: int,
) -> list[tuple[float, RunMetrics]]:
    """Re-encode per lambda ratio, draw `reads` samples, score the multiset.

    The sampler is called as sampler(model, reads, seed) and returns one
    bitstring per read.  ev is the mean model energy over all reads.
    """
    if reads < 1:
        raise ValueError(f"need reads >= 1, got {reads}")
    out = []
    for j, ratio in enumerate(lambda_ratios):
        prob = replace(problem, lambda_=None, lambda_ratio=ratio)
        model, encoding = encode_start_dest(prob)
        scorer = Scorer.of(model, encoding)
        states = sampler(model, reads, int(np.random.default_rng([seed, j]).integers(2**31)))
        read_indices = np.array([index_from_string(s) for s in states])
        ev = float(energies_at(model, read_indices).mean())
        out.append((ratio, metrics(scorer, scorer.counts(read_indices), total=reads, ev=ev)))
    return out
