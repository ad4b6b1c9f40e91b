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
        if self.kind == "reverse" and not 0 < self.s_min < 1:
            raise ValueError("need 0 < s_min < 1")


def _driver(n: int) -> np.ndarray:
    """-sum_i sigma_x^(i): uniform superposition is the ground state."""
    dim = 1 << n
    H = np.zeros((dim, dim))
    for idx in range(dim):
        for i in range(n):
            H[idx ^ (1 << i), idx] -= 1.0
    return H


def _ground_indices(diag: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.abs(diag - diag.min()) < TIE_TOL)


def _propagate(
    psi: np.ndarray, H_init: np.ndarray, diag: np.ndarray, s_of_t: Callable[[float], float], T: float, steps: int
) -> np.ndarray:
    """Fixed-step propagation with the exact exponential of each midpoint Hamiltonian."""
    dt = T / steps
    H_problem = np.diag(diag)
    for k in range(steps):
        s = s_of_t((k + 0.5) * dt)
        H = (1.0 - s) * H_init + s * H_problem
        vals, vecs = np.linalg.eigh(H)
        psi = (vecs * np.exp(-1j * dt * vals)) @ (vecs.conj().T @ psi)
    return psi


def simulate_forward_anneal(
    ising: IsingModel, schedule: AnnealSchedule
) -> tuple[StateVector, float]:
    """Integrate i dpsi/dt = H(s(t)) psi from the uniform state, s: 0 -> 1."""
    if ising.n > ANNEAL_CAP:
        raise CapacityError(f"n={ising.n} exceeds anneal cap {ANNEAL_CAP}")
    diag = energy_vector(ising)
    psi = uniform_state(ising.n).amplitudes
    psi = _propagate(psi, _driver(ising.n), diag, lambda t: t / schedule.T, schedule.T, schedule.steps)
    state = StateVector(ising.n, psi)
    p_gnd = float(state.probabilities()[_ground_indices(diag)].sum())
    return state, p_gnd


def simulate_reverse_anneal(
    ising: IsingModel, seed_state: str, schedule: AnnealSchedule
) -> tuple[StateVector, float]:
    """s: 1 -> s_min over T, hold at s_min, then s_min -> 1, from a basis seed."""
    if ising.n > ANNEAL_CAP:
        raise CapacityError(f"n={ising.n} exceeds anneal cap {ANNEAL_CAP}")
    diag = energy_vector(ising)
    psi = basis_state(ising.n, seed_state).amplitudes.astype(complex)
    H_init = _driver(ising.n)
    T, s_min, hold = schedule.T, schedule.s_min, schedule.hold

    def leg(t: float) -> float:
        if t < T:
            return 1.0 - (1.0 - s_min) * (t / T)
        if t < T + hold:
            return s_min
        return s_min + (1.0 - s_min) * ((t - T - hold) / T)

    total = 2 * T + hold
    psi = _propagate(psi, H_init, diag, leg, total, schedule.steps)
    state = StateVector(ising.n, psi)
    p_gnd = float(state.probabilities()[_ground_indices(diag)].sum())
    return state, p_gnd


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


def sim_anneal_sampler(sweeps: int = 30, beta_initial: float = 0.1, beta_final: float = 10.0):
    """Stand-in annealer: each read is one short simulated-annealing chain.

    All reads run as one batch of chains; read r is seeded as restart r of
    `heuristics.restart_harness`.
    """
    from .heuristics import SimAnneal, batched_simulated_annealing, restart_seeds

    config = SimAnneal(sweeps=sweeps, beta_initial=beta_initial, beta_final=beta_final)

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
