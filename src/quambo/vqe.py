"""Hardware-efficient-ansatz VQE with sampling and per-term causal cones.

The ansatz starts from |0...0>, optionally applies a parameterized R_y layer
on every qubit, then `entangling_layers` repetitions of:
CNOTs on (0,1),(2,3),...; R_y on qubits 0..n-2; CNOTs on (1,2),(3,4),...;
R_y on qubits 1..n-1.  Parameter count = n*[initial] + 2(n-1)*layers.

R_y is a real rotation and CNOT a permutation of basis states, so every
amplitude stays real.  Each circuit (the full ansatz, or one cone circuit)
is compiled once into a `Program` and run on real float64 amplitudes: an
R_y is a 2x2 product along its qubit's axis, and each run of consecutive
CNOTs is one precomputed index permutation.  A program runs a batch of K
parameter vectors as a leading stacked axis that is never folded into the
rows of a product, so each row is bitwise the one-vector result whatever K
is.  The three estimators (exact statevector, all-qubit sampling, per-term
causal cones) each evaluate such a batch in one call; the two sampling
estimators also have one-point forms, each a batch of one.
`optimize.restart_search` runs random restarts of any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .qubo import CapacityError, IsingModel, QuboModel, child_seed, read_only
from .simulator import EV_BATCH_AMPLITUDES, STATE_CAP, StateVector, sample_indices

# An R_y multiplies a stack of `rows` blocks of shape (2, stride), and numpy
# makes one small product per block.  For many short blocks one product of
# the (rows, 2 stride) view with kron(R^T, I_stride) is faster; measured, it
# wins from 128 rows up on qubits 0-2 and loses on wider blocks.  Qubit 0
# (stride 1) always takes it: there the stacked 2 x 1 products round
# differently from the tests' gate-by-gate reference (a 2 x 2 unitary times
# the amplitudes as a (2, 2^(n-1)) matrix), the one product does not.
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
    (K, rows, 2, stride) around its qubit's axis and eye is None, or, for a
    narrow block, the view is (K, rows, 2 stride) and eye is I_stride laid
    out as (stride, 1, stride).  Each maximal run of CNOTs is one step
    (None, gather index, None) with a read-only intp index.  A circuit
    without gates is one identity gather, so a run never returns the shared,
    read-only start state |0...0>.
    """

    m: int
    gates: int
    steps: tuple
    start: np.ndarray = field(repr=False, compare=False)

    @property
    def summary(self) -> dict:
        perms = sum(k is None for k, _, _ in self.steps)
        return {"n": self.m, "gates": self.gates, "ry_steps": len(self.steps) - perms,
                "fused_permutations": perms, "amplitude_dtype": "float64"}


def compile_circuit(m: int, gates: Sequence[Gate]) -> Program:
    """Fuse each run of consecutive CNOTs into one permutation; keep R_y steps in order."""
    steps: list = []
    run: list[Gate] = []
    for gate in gates:
        if gate.kind == "cnot":
            run.append(gate)
            continue
        if run:
            steps.append((None, _permutation(m, run), None))
            run = []
        rows, stride = 1 << (m - 1 - gate.qubits[0]), 1 << gate.qubits[0]
        if stride == 1 or (stride <= NARROW_STRIDE and rows >= NARROW_MIN_ROWS):
            steps.append((gate.param_index, (-1, rows, 2 * stride), read_only(np.eye(stride)[:, None, :])))
        else:
            steps.append((gate.param_index, (-1, rows, 2, stride), None))
    if run or not steps:  # a circuit without gates is one identity gather
        steps.append((None, _permutation(m, run), None))
    start = np.zeros(1 << m)
    start[0] = 1.0
    return Program(m, len(gates), tuple(steps), read_only(start))


def _permutation(m: int, run: Sequence[Gate]) -> np.ndarray:
    """The gather index of the CNOT run f_1 ... f_k, perm[i] = f_1(f_2(... f_k(i))): gates act in place, last first."""
    perm = np.arange(1 << m, dtype=np.intp)
    for gate in reversed(run):
        control, target = gate.qubits
        perm ^= ((perm >> control) & 1) << target
    return read_only(perm)


def run_program(program: Program, theta: np.ndarray) -> np.ndarray:
    """Real amplitudes of the program applied to |0...0> (parameters indexed into theta).

    theta (P,) gives (2^m,); a batch Theta (K, P) gives (K, 2^m), and row k
    is bitwise the result for Theta[k] whatever K is.  Each R_y is one
    stacked product over the K rows (on the narrow path, one (rows, 2 stride)
    @ (2 stride, 2 stride) product per row).  Rows go in chunks of at most
    EV_BATCH_AMPLITUDES amplitudes (at least one row), since larger stacks
    run slower per row.
    """
    theta = np.asarray(theta, dtype=float)
    psi = _run_rotations(program, ry_table(theta))
    return psi if theta.ndim == 2 else psi.reshape(-1)


def ry_table(theta: np.ndarray) -> np.ndarray:
    """R_y(theta[k, p]) = [[c, -s], [s, c]] at [p, k, 0] of a (P, K, 1, 2, 2) strided view of one (c, -s, s, c) table.

    theta is (P,) or (K, P); a batch of one works on 1-D arrays, whose ufunc calls cost less.
    """
    K = len(theta) if theta.ndim == 2 else 1
    half = 0.5 * (theta if K > 1 else theta.reshape(-1))
    rot = np.empty((4,) + half.shape)
    np.cos(half, out=rot[0])
    np.sin(half, out=rot[2])
    np.negative(rot[2], out=rot[1])
    rot[3] = rot[0]
    return rot.T.reshape(-1, K, 1, 2, 2)


def _run_rotations(program: Program, rot: np.ndarray) -> np.ndarray:
    """run_program's (K, 2^m) amplitudes from the R_y table of its K points (ry_table), in chunks of rows."""
    K = rot.shape[1]
    if K > 1 and K << program.m > EV_BATCH_AMPLITUDES:
        rows = max(1, EV_BATCH_AMPLITUDES >> program.m)
        return np.concatenate([_run_rotations(program, rot[:, k:k + rows]) for k in range(0, K, rows)])
    if K == 1:
        psi = program.start
    else:
        psi = np.zeros((K, 1 << program.m))
        psi[:, 0] = 1.0
    for k, view, eye in program.steps:
        if k is None:
            psi = psi.reshape(-1)[view] if K == 1 else psi.reshape(K, -1).take(view, axis=-1)
        elif eye is None:
            psi = rot[k] @ psi.reshape(view)
        else:
            # kron(R^T, I_stride) of each row: (K, 2, 1, 2, 1) * (stride, 1, stride)
            kron = rot[k].transpose(0, 3, 1, 2)[..., None] * eye
            psi = psi.reshape(view) @ kron.reshape(-1, view[2], view[2])
    return psi.reshape(K, -1)


@dataclass(frozen=True)
class VqeAnsatz:
    """The circuit's shape.  Its program and cone circuits are built once and kept."""

    n: int
    initial_layer: bool = False
    entangling_layers: int = 1
    _cones: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        CapacityError.check(self.n, STATE_CAP, "statevector")
        if self.n < 2 or self.entangling_layers < 0:
            raise ValueError("need n >= 2 and entangling_layers >= 0")

    @property
    def n_params(self) -> int:
        return self.n * int(self.initial_layer) + 2 * (self.n - 1) * self.entangling_layers

    def gates(self) -> list[Gate]:
        """The circuit's gates in order: a copy of the kept tuple that its program and cone circuits read."""
        return list(self._gates)

    @cached_property
    def _gates(self) -> tuple[Gate, ...]:
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
        return tuple(out)

    @cached_property
    def program(self) -> Program:
        return compile_circuit(self.n, self._gates)

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


def _points(ansatz: VqeAnsatz, Theta: np.ndarray, seeds: Sequence | None = None) -> np.ndarray:
    """Theta as a float (K, n_params) array with K >= 1 and, if given, one seed per point; else ValueError."""
    Theta = np.asarray(Theta, dtype=float)
    if Theta.ndim != 2 or len(Theta) < 1 or Theta.shape[1] != ansatz.n_params:
        raise ValueError(f"expected a (K, {ansatz.n_params}) array of K >= 1 points, got shape {Theta.shape}")
    if seeds is not None and len(seeds) != len(Theta):
        raise ValueError(f"need one seed per point, got {len(seeds)} for {len(Theta)} points")
    return Theta


def apply_ansatz(ansatz: VqeAnsatz, theta: Sequence[float]) -> StateVector:
    """The ansatz state, with real float64 amplitudes."""
    theta = np.asarray(theta, dtype=float)
    if len(theta) != ansatz.n_params:
        raise ValueError(f"expected {ansatz.n_params} parameters, got {len(theta)}")
    return StateVector(ansatz.n, run_program(ansatz.program, theta))


def ev_statevector_batch(ansatz: VqeAnsatz, Theta: np.ndarray, model: QuboModel | IsingModel) -> np.ndarray:
    """The exact energy at each point of Theta (K, P): one stacked circuit, then (1, dim) @ (dim, 1) per row."""
    a = run_program(ansatz.program, _points(ansatz, Theta))
    return np.matmul((a * a)[:, None, :], model.diagonal[:, None])[:, 0, 0]


def ev_all_qubit_sampling_batch(
    ansatz: VqeAnsatz,
    Theta: np.ndarray,
    model: QuboModel | IsingModel,
    shots: int,
    seeds: Sequence,
) -> np.ndarray:
    """Each point's mean model energy over full-register samples: one stacked circuit, point k drawn with seeds[k]."""
    amplitudes = run_program(ansatz.program, _points(ansatz, Theta, seeds))
    return np.array([
        float(sample_indices(np.abs(a) ** 2, shots, seed) @ model.diagonal) / shots
        for a, seed in zip(amplitudes, seeds)
    ])


def ev_all_qubit_sampling(
    ansatz: VqeAnsatz,
    theta: Sequence[float],
    model: QuboModel | IsingModel,
    shots: int,
    seed: int,
) -> float:
    """Mean model energy over full-register computational-basis samples."""
    return float(ev_all_qubit_sampling_batch(ansatz, np.asarray(theta, dtype=float)[None], model, shots, [seed])[0])


def causal_cone(ansatz: VqeAnsatz, term: int | tuple[int, int]) -> tuple[set[int], ReducedAnsatz]:
    """Backward light cone of a Z term and the reduced circuit reproducing its marginal."""
    targets = (term,) if isinstance(term, int) else tuple(term)
    if any(not 0 <= q < ansatz.n for q in targets):
        raise ValueError(f"term {term!r} out of range")
    cone = set(targets)
    kept_reversed: list[Gate] = []
    for gate in reversed(ansatz._gates):
        if not cone.isdisjoint(gate.qubits):
            cone.update(gate.qubits)
            kept_reversed.append(gate)
    qubits = sorted(cone)
    remap = {q: i for i, q in enumerate(qubits)}
    reduced = [
        Gate(g.kind, tuple(remap[q] for q in g.qubits), g.param_index)
        for g in reversed(kept_reversed)
    ]
    return cone, ReducedAnsatz(qubits=qubits, gates=reduced)


def ev_causal_cone_sampling_batch(
    ansatz: VqeAnsatz,
    Theta: np.ndarray,
    ising: IsingModel,
    shots_per_term: int,
    seeds: Sequence[int],
) -> np.ndarray:
    """Estimate <H> at each point of Theta (K, P) by sampling each Z / ZZ term from its own cone circuit.

    Each term's cone circuit runs once for all K points, from one R_y table
    of Theta built for all terms.  Terms are sampled
    independently, point k's term t with child t of seeds[k] (qubo.child_seed);
    the extra variance from independent sampling is part of the estimator.
    A term's estimate is the integer sum of its draws times the targets'
    parity.
    """
    Theta = _points(ansatz, Theta, seeds)
    rot = ry_table(Theta)  # every cone circuit indexes the ansatz's parameters
    totals = [ising.offset] * len(Theta)
    terms = sorted(ising.h.items()) + sorted(ising.J.items())
    for t, (term, coeff) in enumerate(terms):
        reduced, parity = ansatz.cone(term)
        for k, a in enumerate(_run_rotations(reduced.program, rot)):
            draws = sample_indices(np.abs(a) ** 2, shots_per_term, child_seed(seeds[k], t))
            totals[k] += coeff * float(draws @ parity) / shots_per_term
    return np.array(totals, dtype=float)


def ev_causal_cone_sampling(
    ansatz: VqeAnsatz,
    theta: Sequence[float],
    ising: IsingModel,
    shots_per_term: int,
    seed: int,
) -> float:
    """Estimate <H> by sampling each Z / ZZ term from its own cone circuit (a batch of one)."""
    theta = np.asarray(theta, dtype=float)[None]
    return float(ev_causal_cone_sampling_batch(ansatz, theta, ising, shots_per_term, [seed])[0])

