"""Classical references: exact placement enumeration, simulated annealing, tabu search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import Encoding, FacilityProblem, decode_solution, distance_matrix
from .qubo import CapacityError, QuboModel


@dataclass
class SimAnneal:
    sweeps: int = 1000
    beta_initial: float = 0.1
    beta_final: float = 10.0

    def __post_init__(self) -> None:
        if self.sweeps < 1 or self.beta_final <= self.beta_initial:
            raise ValueError("need sweeps >= 1 and beta_final > beta_initial")


@dataclass
class Tabu:
    tenure: int | None = None  # default max(10, n/4)
    max_iter: int = 400

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("need max_iter >= 1")


HeuristicConfig = SimAnneal | Tabu


def exact_facility_optimum(problem: FacilityProblem) -> tuple[float, list[tuple[int, ...]]]:
    """Enumerate all ambulance position sets, assigning each site to its nearest.

    Nearest-assignment ties break toward the lower position index (this can
    change assignments, never the total distance).
    """
    L = problem.num_locations
    if L > 1000:
        raise CapacityError(f"{L} locations exceeds the enumeration cap")
    D = distance_matrix(problem)
    m = problem.ambulances
    best = np.inf
    placements: list[tuple[int, ...]] = []
    if m == 2:
        for i in range(L - 1):
            totals = np.minimum(D[i + 1 :], D[i][None, :]).sum(axis=1)
            lo = totals.min()
            if lo < best - 1e-12:
                best = lo
                placements = [(i, i + 1 + int(j)) for j in np.flatnonzero(np.abs(totals - lo) < 1e-12)]
            elif abs(lo - best) <= 1e-12:
                placements += [(i, i + 1 + int(j)) for j in np.flatnonzero(np.abs(totals - lo) < 1e-12)]
    else:
        for combo in itertools.combinations(range(L), m):
            total = D[list(combo)].min(axis=0).sum()
            if total < best - 1e-12:
                best, placements = total, [combo]
            elif abs(total - best) <= 1e-12:
                placements.append(combo)
    return float(best), placements


def simulated_annealing(model: QuboModel, config: SimAnneal, seed: int) -> tuple[str, float]:
    """Metropolis single-flip sweeps under a geometric inverse-temperature ramp."""
    n = model.n
    lin, W = model.dense
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=n).astype(float)
    field = W @ s
    energy = model.offset + lin @ s + 0.5 * s @ field
    best_e, best_s = energy, s.copy()
    betas = np.geomspace(config.beta_initial, config.beta_final, config.sweeps)
    for beta in betas:
        order = rng.permutation(n)
        accept_u = rng.random(n)
        for t, i in enumerate(order):
            delta = (1.0 - 2.0 * s[i]) * (lin[i] + field[i])
            if delta <= 0.0 or accept_u[t] < np.exp(-beta * delta):
                ds = 1.0 - 2.0 * s[i]
                s[i] += ds
                field += W[:, i] * ds
                energy += delta
                if energy < best_e - 1e-12:
                    best_e, best_s = energy, s.copy()
    bitstring = "".join(str(int(b)) for b in best_s)
    return bitstring, float(best_e)


def tabu_search(model: QuboModel, config: Tabu, seed: int) -> tuple[str, float]:
    """Steepest single-flip descent with a recency tabu list and aspiration."""
    n = model.n
    lin, W = model.dense
    tenure = config.tenure if config.tenure is not None else max(10, n // 4)
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=n).astype(float)
    field = W @ s
    energy = model.offset + lin @ s + 0.5 * s @ field
    best_e, best_s = energy, s.copy()
    tabu_until = np.zeros(n, dtype=np.int64)
    for it in range(config.max_iter):
        delta = (1.0 - 2.0 * s) * (lin + field)
        allowed = tabu_until <= it
        # aspiration: a tabu move is allowed if it beats the incumbent
        allowed |= energy + delta < best_e - 1e-12
        if not allowed.any():
            continue
        cand = np.where(allowed, delta, np.inf)
        i = int(cand.argmin())
        ds = 1.0 - 2.0 * s[i]
        s[i] += ds
        field += W[:, i] * ds
        energy += delta[i]
        tabu_until[i] = it + 1 + tenure
        if energy < best_e - 1e-12:
            best_e, best_s = energy, s.copy()
    bitstring = "".join(str(int(b)) for b in best_s)
    return bitstring, float(best_e)


Solver = Callable[[QuboModel, int], tuple[str, float]]


def make_solver(config: HeuristicConfig) -> Solver:
    if isinstance(config, SimAnneal):
        return lambda model, seed: simulated_annealing(model, config, seed)
    return lambda model, seed: tabu_search(model, config, seed)


@dataclass
class HarnessResult:
    best_energy: float
    frequency_of_best: float
    d_sol: float | None
    ratio: float | None
    best_state: str


def restart_harness(
    solver: Solver,
    model: QuboModel,
    restarts: int,
    seed: int,
    encoding: Encoding | None = None,
    d_min: float | None = None,
) -> HarnessResult:
    """Aggregate seeded restarts: best energy, its frequency, and d_sol/d_min.

    d_sol is the smallest decoded total distance over restarts whose returned
    state decodes to a proper placement.
    """
    best_e = np.inf
    best_state = ""
    hits = 0
    d_sol: float | None = None
    for r in range(restarts):
        sub = int(np.random.default_rng([seed, r]).integers(2**31))
        state, e = solver(model, sub)
        if e < best_e - 1e-9:
            best_e, best_state, hits = e, state, 1
        elif abs(e - best_e) <= 1e-9:
            hits += 1
        if encoding is not None:
            try:
                placement = decode_solution(encoding, state)
            except ValueError:
                pass
            else:
                if d_sol is None or placement.total_distance < d_sol:
                    d_sol = placement.total_distance
    ratio = None
    if d_sol is not None and d_min:
        ratio = d_sol / d_min
    return HarnessResult(
        best_energy=float(best_e),
        frequency_of_best=hits / restarts,
        d_sol=d_sol,
        ratio=ratio,
        best_state=best_state,
    )
