"""Hardware-efficient-ansatz VQE with sampling and per-term causal cones.

The ansatz starts from |0...0>, optionally applies a parameterized R_y layer
on every qubit, then `entangling_layers` repetitions of:
CNOTs on (0,1),(2,3),...; R_y on qubits 0..n-2; CNOTs on (1,2),(3,4),...;
R_y on qubits 1..n-1.  Parameter count = n*[initial] + 2(n-1)*layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .optimize import OptimizerConfig, minimize
from .qubo import IsingModel, QuboModel
from .simulator import StateVector, apply_cnot, apply_ry, basis_state, sample


@dataclass(frozen=True)
class Gate:
    kind: str  # "ry" | "cnot"
    qubits: tuple[int, ...]
    param_index: int | None = None


@dataclass
class VqeAnsatz:
    """The circuit's shape.  Cone circuits are built once per term and kept, so it must not change afterwards."""

    n: int
    initial_layer: bool = False
    entangling_layers: int = 1
    _cones: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 2 or self.entangling_layers < 0:
            raise ValueError("need n >= 2 and entangling_layers >= 0")

    @property
    def n_params(self) -> int:
        return self.n * int(self.initial_layer) + 2 * (self.n - 1) * self.entangling_layers

    def gates(self) -> list[Gate]:
        out: list[Gate] = []
        k = 0
        if self.initial_layer:
            for q in range(self.n):
                out.append(Gate("ry", (q,), k))
                k += 1
        for _ in range(self.entangling_layers):
            for q in range(0, self.n - 1, 2):
                out.append(Gate("cnot", (q, q + 1)))
            for q in range(self.n - 1):
                out.append(Gate("ry", (q,), k))
                k += 1
            for q in range(1, self.n - 1, 2):
                out.append(Gate("cnot", (q, q + 1)))
            for q in range(1, self.n):
                out.append(Gate("ry", (q,), k))
                k += 1
        return out


@dataclass
class ReducedAnsatz:
    """A cone-restricted circuit: remapped gates over `qubits` (sorted)."""

    qubits: list[int]
    gates: list[Gate]


def apply_ansatz(ansatz: VqeAnsatz, theta: Sequence[float]) -> StateVector:
    theta = np.asarray(theta, dtype=float)
    if len(theta) != ansatz.n_params:
        raise ValueError(f"expected {ansatz.n_params} parameters, got {len(theta)}")
    state = basis_state(ansatz.n, 0)
    for gate in ansatz.gates():
        if gate.kind == "ry":
            apply_ry(state, gate.qubits[0], theta[gate.param_index])
        else:
            apply_cnot(state, gate.qubits[0], gate.qubits[1])
    return state


def ev_statevector(ansatz: VqeAnsatz, theta: Sequence[float], model: QuboModel | IsingModel) -> float:
    state = apply_ansatz(ansatz, theta)
    return float(state.probabilities() @ model.diagonal)


def ev_all_qubit_sampling(
    ansatz: VqeAnsatz,
    theta: Sequence[float],
    model: QuboModel | IsingModel,
    shots: int,
    seed: int,
) -> float:
    """Mean model energy over full-register computational-basis samples."""
    state = apply_ansatz(ansatz, theta)
    probs = state.probabilities()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs / probs.sum())
    return float(draws @ model.diagonal) / shots


def causal_cone(ansatz: VqeAnsatz, term: int | tuple[int, int]) -> tuple[set[int], ReducedAnsatz]:
    """Backward light cone of a Z term and the reduced circuit reproducing its marginal."""
    targets = (term,) if isinstance(term, int) else tuple(term)
    if any(not 0 <= q < ansatz.n for q in targets):
        raise ValueError(f"term {term!r} out of range")
    gates = ansatz.gates()
    cone = set(targets)
    kept_reversed: list[Gate] = []
    for gate in reversed(gates):
        if any(q in cone for q in gate.qubits):
            cone.update(gate.qubits)
            kept_reversed.append(gate)
    qubits = sorted(cone)
    remap = {q: i for i, q in enumerate(qubits)}
    reduced = [
        Gate(g.kind, tuple(remap[q] for q in g.qubits), g.param_index)
        for g in reversed(kept_reversed)
    ]
    return cone, ReducedAnsatz(qubits=qubits, gates=reduced)


def run_reduced(reduced: ReducedAnsatz, theta: Sequence[float]) -> StateVector:
    """Execute a cone circuit (parameters indexed into the full theta vector)."""
    theta = np.asarray(theta, dtype=float)
    state = basis_state(len(reduced.qubits), 0)
    for gate in reduced.gates:
        if gate.kind == "ry":
            apply_ry(state, gate.qubits[0], theta[gate.param_index])
        else:
            apply_cnot(state, gate.qubits[0], gate.qubits[1])
    return state


def ev_causal_cone_sampling(
    ansatz: VqeAnsatz,
    theta: Sequence[float],
    ising: IsingModel,
    shots_per_term: int,
    seed: int,
) -> float:
    """Estimate <H> by sampling each Z / ZZ term from its own cone circuit.

    Terms are sampled independently with per-term derived seeds; the extra
    variance from independent sampling is part of the estimator.
    """
    total = ising.offset
    terms: list[tuple[int | tuple[int, int], float]] = []
    terms += [(i, c) for i, c in sorted(ising.h.items())]
    terms += [(ij, c) for ij, c in sorted(ising.J.items())]
    for t, (term, coeff) in enumerate(terms):
        if term not in ansatz._cones:
            _, reduced = causal_cone(ansatz, term)
            targets = (term,) if isinstance(term, int) else term
            ansatz._cones[term] = reduced, [reduced.qubits.index(q) for q in targets]
        reduced, local = ansatz._cones[term]
        state = run_reduced(reduced, theta)
        counts = sample(state, shots_per_term, seed=int(np.random.default_rng([seed, t]).integers(2**31)))
        est = 0.0
        for s, c in counts.counts.items():
            z = 1.0
            for q in local:
                z *= 1.0 - 2.0 * int(s[q])
            est += z * c
        total += coeff * est / shots_per_term
    return float(total)


@dataclass
class VqeRun:
    theta: np.ndarray
    ev: float
    p_gnd: float
    p_feas: float
    r_approx: float
    evals: int


def vqe_restart_search(
    ansatz: VqeAnsatz,
    model: QuboModel,
    oracle_metrics,
    n_starts: int,
    optimizer: OptimizerConfig,
    seed: int,
    objective=None,
) -> list[VqeRun]:
    """Optimize `n_starts` random parameter vectors; metrics via the supplied callable.

    oracle_metrics(state) -> RunMetrics-like object; objective defaults to the
    exact statevector EV.
    """
    diag = model.diagonal

    def default_objective(theta: np.ndarray) -> float:
        return float(apply_ansatz(ansatz, theta).probabilities() @ diag)

    obj = objective or default_objective
    runs: list[VqeRun] = []
    for i in range(n_starts):
        rng = np.random.default_rng([seed, i])
        x0 = rng.uniform(0.0, 2.0 * np.pi, size=ansatz.n_params)
        res = minimize(obj, x0, optimizer, seed=int(rng.integers(2**31)))
        m = oracle_metrics(apply_ansatz(ansatz, res.x_best))
        runs.append(
            VqeRun(
                theta=res.x_best,
                ev=res.f_best,
                p_gnd=m.p_gnd,
                p_feas=m.p_feas,
                r_approx=m.r_approx,
                evals=res.evals,
            )
        )
    return runs
