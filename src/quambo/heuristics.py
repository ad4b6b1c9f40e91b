"""Classical references: exact placement enumeration, simulated annealing, tabu search.

Tabu search and simulated annealing run R seeded restarts (chains) together
as one array program: the spins Q = 1 - 2s of the states, the local fields
F = W s and the energies E are (R, n), (R, n) and (R,) arrays, and every
update is elementwise on the rows that move.  Each chain draws from its own
generator in the order a single run would (initial bits, then per sweep a
permutation and n uniforms), and each row's start is computed as a single
run computes it, so a chain's result is bitwise the same alone or in any
batch.  An SA batch takes one model per chain, all of one n (the lambda
sweep runs every ratio's reads as one batch): the distinct models are
stacked into one (models * n, n) coupling table read at per-chain row
offsets.  The batched searches return each chain's best bits, (R, n) bool;
`restart_harness`, `tabu_search` and `simulated_annealing` render strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problems import Encoding, FacilityProblem, decode_solution, distance_matrix
from .qubo import SEARCH_TOL, TIE_TOL, CapacityError, QuboModel, child_seed, rows_where, strings_from_bits

ORACLE_CAP = 10_000_000  # placements exact_facility_optimum may enumerate
TABU_CHUNK_ROWS = 256  # tabu searches batched_tabu_search runs together


@dataclass
class SimAnneal:
    sweeps: int = 1000
    beta_initial: float = 0.1
    beta_final: float = 10.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta_final):
            raise ValueError(f"need a finite beta_final, got {self.beta_final}")
        if self.sweeps < 1 or not 0 < self.beta_initial < self.beta_final:
            raise ValueError("need sweeps >= 1 and 0 < beta_initial < beta_final")


@dataclass
class Tabu:
    tenure: int | None = None  # default max(10, n/4)
    max_iter: int = 400

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("need max_iter >= 1")
        if self.tenure is not None and self.tenure < 1:
            raise ValueError(f"need tenure >= 1, got {self.tenure}")


HeuristicConfig = SimAnneal | Tabu


def exact_facility_optimum(problem: FacilityProblem) -> tuple[float, list[tuple[int, ...]]]:
    """Enumerate all ambulance position sets, assigning each site to its nearest.

    Position sets are scored in lexicographic blocks that share all but the
    last position.  A block whose lowest total is more than SEARCH_TOL below
    the incumbent replaces it; one within SEARCH_TOL of it adds its placements
    within SEARCH_TOL of the block's lowest.  Nearest-assignment ties break
    toward the lower position index (this can change assignments, never the
    total distance).
    """
    L = problem.num_locations
    m = problem.ambulances
    CapacityError.check(L, 1000, "enumeration", "locations")
    CapacityError.check(math.comb(L, m), ORACLE_CAP, "enumeration", f"placements of {m} ambulances on {L} locations")
    D = distance_matrix(problem)
    best = np.inf
    placements: list[tuple[int, ...]] = []
    for prefix in itertools.combinations(range(L - 1), m - 1):
        start = prefix[-1] + 1 if prefix else 0
        totals = (np.minimum(D[start:], D[list(prefix)].min(axis=0)) if prefix else D).sum(axis=1)
        lo = totals.min()
        if lo < best - SEARCH_TOL:
            best, placements = lo, []
        elif abs(lo - best) > SEARCH_TOL:
            continue
        placements += [(*prefix, start + int(j)) for j in np.flatnonzero(np.abs(totals - lo) < SEARCH_TOL)]
    return float(best), placements


def restart_seeds(seed: int, count: int) -> list[int]:
    """The seed of each of `count` restarts (or reads): child r of seed."""
    return [child_seed(seed, r) for r in range(count)]


def _start(models: Sequence[QuboModel], seeds: Sequence[int], n: int):
    """Per-chain generators, then the spins Q = 1 - 2s of random initial states, their fields and energies.

    Row r is drawn and evaluated exactly as a single run of models[r] does it
    (a batched matmul could round differently).  Q[r, i] is the energy change
    factor of flipping bit i of chain r: exactly +1 or -1, negated by the flip.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    Q = np.zeros((len(rngs), n))
    F = np.zeros_like(Q)
    E = np.zeros(len(rngs))
    for r, (model, rng) in enumerate(zip(models, rngs)):
        lin, W = model.dense
        s = rng.integers(0, 2, size=n).astype(float)
        f = W @ s
        Q[r], F[r], E[r] = 1.0 - 2.0 * s, f, model.offset + lin @ s + 0.5 * s @ f
    return rngs, Q, F, E


class _Best:
    """Each chain's lowest energy so far and its spins; a chain improves when it gets more than SEARCH_TOL lower."""

    def __init__(self, Q: np.ndarray, E: np.ndarray) -> None:
        self.Q, self.E, self.bar = Q.copy(), E.copy(), E - SEARCH_TOL

    def update(self, Q: np.ndarray, E: np.ndarray) -> None:
        better = (E < self.bar).nonzero()[0]  # np.flatnonzero, without its Python-level call layers
        if better.size:
            self.Q[better], self.E[better], self.bar[better] = Q[better], E[better], E[better] - SEARCH_TOL


def batched_simulated_annealing(
    models: Sequence[QuboModel], config: SimAnneal, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """One SA chain per seed, run in lockstep: each chain's best bits (R, n) and energy (R,).

    models[r] is chain r's model; all are of one n.  Metropolis single-flip
    sweeps in a per-chain random order under a geometric inverse-temperature ramp.
    """
    distinct = list({id(model): model for model in models}.values())
    if len(models) != len(seeds) or not distinct:
        raise ValueError(f"need one model per seed, got {len(models)} models for {len(seeds)} seeds")
    n = distinct[0].n
    if any(model.n != n for model in distinct):
        raise ValueError(f"the chains' models need one n, got {sorted({model.n for model in distinct})}")
    # the distinct models stacked: chain r reads lin[row[r] + i] and W[row[r] + i], row[r] = n * (its model's place)
    place = {id(model): k for k, model in enumerate(distinct)}
    row = np.array([n * place[id(model)] for model in models], dtype=np.intp)
    lin = np.concatenate([model.dense[0] for model in distinct])
    W = np.concatenate([model.dense[1] for model in distinct])
    rngs, Q, F, E = _start(models, seeds, n)
    best = _Best(Q, E)
    Qf, Ff = Q.reshape(-1), F.reshape(-1)  # flat views: [r, i] is [r * n + i]
    base = np.arange(len(rngs)) * n
    order = np.zeros(Q.shape, dtype=np.intp)
    U = np.zeros_like(Q)
    draws = [(rng.shuffle, perm, rng.random, u) for perm, u, rng in zip(order, U, rngs)]  # bound once per batch
    # Metropolis in one comparison: U is in [0, 1) and beta > 0, so a downhill move (delta <= 0) has
    # exp(-beta * delta) >= 1 > U, or inf where it overflows, and is accepted without a test of its own
    with np.errstate(over="ignore"):
        for beta in np.geomspace(config.beta_initial, config.beta_final, config.sweeps):
            order[:] = np.arange(n)  # each row shuffled in place: the stream of rng.permutation(n)
            for shuffle, perm, random, u in draws:
                shuffle(perm)
                random(out=u)
            # row t of each: the t-th flip of every chain
            stacked = order + row[:, None]  # each flip's row of the stacked tables
            sites, flat = stacked.T.copy(), (order + base[:, None]).T.copy()
            lin_t, U_t = lin[stacked].T.copy(), U.T.copy()
            for t in range(n):
                k = flat[t]
                q = Qf[k]
                delta = q * (lin_t[t] + Ff[k])
                a = rows_where(U_t[t] < np.exp(-beta * delta))
                if a is None:
                    continue
                q = q[a]
                Qf[k[a]] = -q
                F[a] += W[sites[t][a]] * q[:, None]  # W is symmetric: row i is column i
                E[a] += delta[a]
                best.update(Q, E)
    return best.Q < 0, best.E


def batched_tabu_search(model: QuboModel, config: Tabu, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """One tabu search per seed, run in lockstep: each search's best bits (R, n) and energy (R,).

    Steepest single-flip descent (first index on ties) with a recency tabu
    list and aspiration; a row with no allowed move skips the iteration.
    Searches run TABU_CHUNK_ROWS at a time, which bounds the memory of the
    (rows, n) working arrays; rows are independent, so results are the same.
    """
    if len(seeds) > TABU_CHUNK_ROWS:
        parts = [batched_tabu_search(model, config, seeds[k:k + TABU_CHUNK_ROWS])
                 for k in range(0, len(seeds), TABU_CHUNK_ROWS)]
        return np.concatenate([bits for bits, _e in parts]), np.concatenate([e for _b, e in parts])
    lin, W = model.dense
    tenure = config.tenure if config.tenure is not None else max(10, model.n // 4)
    _, Q, F, E = _start([model] * len(seeds), seeds, model.n)
    best = _Best(Q, E)
    Qf, tabu_until = Q.reshape(-1), np.zeros(Q.size, dtype=np.int64)
    base = np.arange(len(E)) * model.n
    for it in range(config.max_iter):
        delta = Q * (lin + F)
        allowed = tabu_until.reshape(Q.shape) <= it
        # aspiration: a tabu move is allowed if it beats the incumbent
        allowed |= E[:, None] + delta < best.bar[:, None]
        moves = np.where(allowed, delta, np.inf).argmin(axis=1)
        rows = rows_where(allowed.any(axis=1))
        if rows is None:
            continue
        I = moves[rows]
        k = base[rows] + I
        q = Qf[k]
        Qf[k] = -q
        F[rows] += W[I] * q[:, None]  # W is symmetric: row i is column i
        E[rows] += delta.reshape(-1)[k]
        tabu_until[k] = it + 1 + tenure
        best.update(Q, E)
    return best.Q < 0, best.E


def simulated_annealing(model: QuboModel, config: SimAnneal, seed: int) -> tuple[str, float]:
    """One SA chain: a batch of one, its best state rendered."""
    bits, energies = batched_simulated_annealing([model], config, [seed])
    return strings_from_bits(bits)[0], float(energies[0])


def tabu_search(model: QuboModel, config: Tabu, seed: int) -> tuple[str, float]:
    """One tabu search: a batch of one, its best state rendered."""
    bits, energies = batched_tabu_search(model, config, [seed])
    return strings_from_bits(bits)[0], float(energies[0])


@dataclass
class HarnessResult:
    best_energy: float
    frequency_of_best: float
    d_sol: float | None
    ratio: float | None
    best_state: str


def restart_harness(
    config: HeuristicConfig,
    model: QuboModel,
    restarts: int,
    seed: int,
    encoding: Encoding | None = None,
    d_min: float | None = None,
) -> HarnessResult:
    """Aggregate seeded restarts of the config's heuristic: best energy, its frequency, and d_sol/d_min.

    All restarts run as one batch and are aggregated in restart order.  d_sol
    is the smallest decoded total distance over restarts whose returned state
    decodes to a proper placement.
    """
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    seeds = restart_seeds(seed, restarts)
    if isinstance(config, SimAnneal):
        bits, energies = batched_simulated_annealing([model] * restarts, config, seeds)
    else:
        bits, energies = batched_tabu_search(model, config, seeds)
    states = strings_from_bits(bits)
    best_e = np.inf
    best_state = ""
    hits = 0
    d_sol: float | None = None
    distances: dict[str, float | None] = {}  # decoded total distance per distinct state
    for state, e in zip(states, energies.tolist()):
        if e < best_e - TIE_TOL:
            best_e, best_state, hits = e, state, 1
        elif abs(e - best_e) <= TIE_TOL:
            hits += 1
        if encoding is not None:
            if state not in distances:
                try:
                    distances[state] = decode_solution(encoding, state)
                except ValueError:
                    distances[state] = None
            d = distances[state]
            if d is not None and (d_sol is None or d < d_sol):
                d_sol = d
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
