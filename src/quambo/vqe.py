"""Hardware-efficient-ansatz VQE with sampling and per-term causal cones.

The ansatz starts from |0...0>, optionally applies a parameterized R_y layer
on every qubit, then `entangling_layers` repetitions of:
CNOTs on (0,1),(2,3),...; R_y on qubits 0..n-2; CNOTs on (1,2),(3,4),...;
R_y on qubits 1..n-1.  Parameter count = n*[initial] + 2(n-1)*layers.

R_y is a real rotation and CNOT a permutation of basis states, so every
amplitude stays real.  Each circuit (the full ansatz, or one cone circuit)
is compiled once into a `Program` and run on real float64 amplitudes: an
R_y is a 2x2 product along its qubit's axis, and each run of consecutive
CNOTs is one precomputed index permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .optimize import OptimizerConfig, minimize
from .qubo import IsingModel, QuboModel, read_only
from .simulator import StateVector, sample_indices

# An R_y multiplies a stack of `rows` blocks of shape (2, stride), and numpy
# makes one small product per block.  For many short blocks one product of
# the (rows, 2 stride) view with kron(R^T, I_stride) is faster; measured, it
# wins from 128 rows up on qubits 0-2 and loses on wider blocks.  Qubit 0
# (stride 1) always takes it: there the stacked 2 x 1 products round
# differently from the simulator's gate primitives, the one product does not.
NARROW_STRIDE = 4
NARROW_MIN_ROWS = 128


@dataclass(frozen=True)
class Gate:
    kind: str  # "ry" | "cnot"
    qubits: tuple[int, ...]
    param_index: int | None = None


@dataclass(frozen=True)
class Program:
    """A compiled R_y/CNOT circuit on m qubits.

    steps holds (param index, view shape, eye) for an R_y: the view is
    (rows, 2, stride) around its qubit's axis and eye is None, or, for a
    narrow block, the view is (rows, 2 stride) and eye is I_stride.  Each
    maximal run of CNOTs is one read-only intp gather index
    (amplitudes = amplitudes[perm]).
    """

    m: int
    gates: int
    steps: tuple

    @property
    def summary(self) -> dict:
        perms = sum(isinstance(step, np.ndarray) for step in self.steps)
        return {"n": self.m, "gates": self.gates, "ry_steps": len(self.steps) - perms,
                "fused_permutations": perms, "amplitude_dtype": "float64"}


def compile_circuit(m: int, gates: Sequence[Gate]) -> Program:
    """Fuse each run of consecutive CNOTs into one permutation; keep R_y steps in order."""
    index = np.arange(1 << m, dtype=np.intp)
    steps: list = []
    perm = None
    for gate in gates:
        if gate.kind == "cnot":
            control, target = gate.qubits
            flip = index ^ (((index >> control) & 1) << target)
            perm = flip if perm is None else perm[flip]
            continue
        if perm is not None:
            steps.append(read_only(perm))
            perm = None
        rows, stride = 1 << (m - 1 - gate.qubits[0]), 1 << gate.qubits[0]
        if stride == 1 or (stride <= NARROW_STRIDE and rows >= NARROW_MIN_ROWS):
            steps.append((gate.param_index, (rows, 2 * stride), read_only(np.eye(stride))))
        else:
            steps.append((gate.param_index, (rows, 2, stride), None))
    if perm is not None:
        steps.append(read_only(perm))
    return Program(m, len(gates), tuple(steps))


def run_program(program: Program, theta: np.ndarray) -> np.ndarray:
    """Real amplitudes of the program applied to |0...0> (parameters indexed into theta)."""
    half = 0.5 * np.asarray(theta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    # rot[k] = R_y(theta_k) = [[c, -s], [s, c]]
    rot = np.array((c, -s, s, c)).T.reshape(-1, 2, 2)
    psi = np.zeros(1 << program.m)
    psi[0] = 1.0
    for step in program.steps:
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


@dataclass(frozen=True)
class VqeAnsatz:
    """The circuit's shape.  Its program and cone circuits are built once and kept."""

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

    @cached_property
    def program(self) -> Program:
        return compile_circuit(self.n, self.gates())

    def cone(self, term: int | tuple[int, int]) -> tuple[ReducedAnsatz, np.ndarray]:
        """The term's cone circuit and the +-1 parity of its targets over the cone's basis, built once."""
        if term not in self._cones:
            _, reduced = causal_cone(self, term)
            targets = (term,) if isinstance(term, int) else term
            index = np.arange(1 << len(reduced.qubits))
            parity = np.ones(len(index), dtype=np.int64)
            for q in targets:
                parity *= 1 - 2 * ((index >> reduced.qubits.index(q)) & 1)
            self._cones[term] = reduced, read_only(parity)
        return self._cones[term]


@dataclass(frozen=True)
class ReducedAnsatz:
    """A cone-restricted circuit: remapped gates over `qubits` (sorted)."""

    qubits: list[int]
    gates: list[Gate]

    @cached_property
    def program(self) -> Program:
        return compile_circuit(len(self.qubits), self.gates)


def apply_ansatz(ansatz: VqeAnsatz, theta: Sequence[float]) -> StateVector:
    """The ansatz state, with real float64 amplitudes."""
    theta = np.asarray(theta, dtype=float)
    if len(theta) != ansatz.n_params:
        raise ValueError(f"expected {ansatz.n_params} parameters, got {len(theta)}")
    return StateVector(ansatz.n, run_program(ansatz.program, theta))


def ev_statevector(ansatz: VqeAnsatz, theta: Sequence[float], model: QuboModel | IsingModel) -> float:
    a = apply_ansatz(ansatz, theta).amplitudes
    return float((a * a) @ model.diagonal)


def ev_all_qubit_sampling(
    ansatz: VqeAnsatz,
    theta: Sequence[float],
    model: QuboModel | IsingModel,
    shots: int,
    seed: int,
) -> float:
    """Mean model energy over full-register computational-basis samples."""
    draws = sample_indices(apply_ansatz(ansatz, theta), shots, seed)
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
    return StateVector(len(reduced.qubits), run_program(reduced.program, theta))


def ev_causal_cone_sampling(
    ansatz: VqeAnsatz,
    theta: Sequence[float],
    ising: IsingModel,
    shots_per_term: int,
    seed: int,
) -> float:
    """Estimate <H> by sampling each Z / ZZ term from its own cone circuit.

    Terms are sampled independently with per-term derived seeds; the extra
    variance from independent sampling is part of the estimator.  A term's
    estimate is the integer sum of its draws times the targets' parity.
    """
    total = ising.offset
    terms: list[tuple[int | tuple[int, int], float]] = []
    terms += [(i, c) for i, c in sorted(ising.h.items())]
    terms += [(ij, c) for ij, c in sorted(ising.J.items())]
    for t, (term, coeff) in enumerate(terms):
        reduced, parity = ansatz.cone(term)
        state = run_reduced(reduced, theta)
        draws = sample_indices(state, shots_per_term, seed=int(np.random.default_rng([seed, t]).integers(2**31)))
        total += coeff * float(draws @ parity) / shots_per_term
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
    obj = objective or (lambda theta: ev_statevector(ansatz, theta, model))
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
