"""Exact statevector simulation: state preparation, mixers, gates, sampling.

Amplitude array index encodes qubit i at bit i (least significant bit =
qubit 0); string rendering puts qubit 0 leftmost.  States are mutated in
place by the apply_* operations.  The states built here are complex; a
StateVector may also hold real amplitudes (the compiled VQE circuits in
`quambo.vqe` produce float64 ones), which probabilities() and sampling
accept alike.  The gate primitives are the reference the faster engines
are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .qubo import IsingModel, QuboModel, energy_vector, read_only, strings_from_indices

STATE_CAP = 24
LOCAL_UNITARY_CAP = 12
XY_RING_CAP = 12


@dataclass
class StateVector:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n > STATE_CAP:
            raise ValueError(f"n={self.n} exceeds statevector cap {STATE_CAP}")
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError("amplitude array has wrong length")

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class SampleSet:
    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")


def popcounts(n: int) -> np.ndarray:
    """Hamming weight of every index below 2^n."""
    idx = np.arange(1 << n, dtype=np.uint32)
    weights = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        weights += (idx >> i) & 1
    return weights


def uniform_state(n: int) -> StateVector:
    dim = 1 << n
    return StateVector(n, np.full(dim, dim**-0.5, dtype=complex))


def basis_state(n: int, bitstring: str | int) -> StateVector:
    index = bitstring if isinstance(bitstring, int) else sum(int(c) << i for i, c in enumerate(bitstring))
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def dicke_state(n: int, k: int) -> StateVector:
    """Equal superposition of all weight-k basis states."""
    if not 0 <= k <= n:
        raise ValueError(f"weight {k} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[popcounts(n) == k] = comb(n, k) ** -0.5
    return StateVector(n, amps)


def block_product_state(blocks: list[tuple[tuple[int, int], int | str]]) -> StateVector:
    """Tensor product of per-block Dicke states and/or pure bitstrings.

    Each block is ((first_qubit, last_qubit+1), weight-or-bitstring); the
    ranges must partition 0..n-1.
    """
    blocks = sorted(blocks, key=lambda b: b[0][0])
    expected = 0
    for (lo, hi), _ in blocks:
        if lo != expected:
            raise ValueError("block ranges must partition the qubits without overlap")
        expected = hi
    n = expected
    # np.kron is A-major, so the low-offset block goes last
    amps = np.array([1.0 + 0.0j])
    for (lo, hi), spec in reversed(blocks):
        w = hi - lo
        if isinstance(spec, str):
            sub = basis_state(w, spec).amplitudes
        else:
            sub = dicke_state(w, spec).amplitudes
        amps = np.kron(amps, sub)
    return StateVector(n, amps)


def apply_phase_separator(state: StateVector, model: QuboModel | IsingModel, gamma: float) -> StateVector:
    """amplitude(z) *= exp(-i * gamma * C(z)) for the diagonal cost C."""
    if model.n != state.n:
        raise ValueError(f"model n={model.n} != state n={state.n}")
    state.amplitudes *= np.exp(-1j * gamma * energy_vector(model))
    return state


def apply_phase_vector(state: StateVector, energies: np.ndarray, gamma: float) -> StateVector:
    """Phase separator from a precomputed diagonal (avoids re-deriving energies)."""
    if energies.shape != state.amplitudes.shape:
        raise ValueError("energy vector has wrong length")
    state.amplitudes *= np.exp(-1j * gamma * energies)
    return state


def apply_local_unitary(state: StateVector, qubits: list[int], unitary: np.ndarray) -> StateVector:
    """Apply a dense 2^k x 2^k unitary to the named qubits.

    The local basis index puts qubits[t] at bit t.
    """
    k = len(qubits)
    if k > LOCAL_UNITARY_CAP:
        raise ValueError(f"local unitary on {k} qubits exceeds cap {LOCAL_UNITARY_CAP}")
    if unitary.shape != (1 << k, 1 << k):
        raise ValueError("unitary has wrong shape")
    if len(set(qubits)) != k:
        raise ValueError("duplicate qubits")
    if any(not 0 <= q < state.n for q in qubits):
        raise ValueError(f"qubits {qubits} outside 0..{state.n - 1}")
    err = np.abs(unitary @ unitary.conj().T - np.eye(1 << k)).max()
    if err > 1e-10:
        raise ValueError(f"matrix is not unitary (deviation {err:.2e})")

    n = state.n
    tensor = state.amplitudes.reshape((2,) * n)
    # axis n-1-q holds qubit q; the local MSB (bit k-1) is qubits[k-1]
    src = [n - 1 - q for q in reversed(qubits)]
    tensor = np.moveaxis(tensor, src, range(k))
    mat = tensor.reshape(1 << k, -1)
    mat = unitary @ mat
    tensor = mat.reshape((2,) * n)
    tensor = np.moveaxis(tensor, range(k), src)
    state.amplitudes = np.ascontiguousarray(tensor).reshape(-1)
    return state


def apply_x_mixer(state: StateVector, beta: float) -> StateVector:
    """Apply exp(-i beta sigma_x) to every qubit."""
    c, s = np.cos(beta), np.sin(beta)
    n = state.n
    tensor = state.amplitudes.reshape((2,) * n)
    for axis in range(n):
        a0 = np.take(tensor, 0, axis=axis)
        a1 = np.take(tensor, 1, axis=axis)
        tensor = np.stack([c * a0 - 1j * s * a1, -1j * s * a0 + c * a1], axis=axis)
    state.amplitudes = tensor.reshape(-1)
    return state


@lru_cache(maxsize=32)
def xy_ring_eigensystem(m: int, weight: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(patterns, vals, vecs): H_XY = 1/2 sum_ring (XX + YY) on an m-qubit ring, diagonalised.

    patterns is the local basis in increasing order: all 2^m bit patterns, or
    those of one Hamming weight, which H_XY conserves.  (XX+YY)/2 on a pair
    swaps |01> and |10>; a length-2 ring has a single coupling edge.  The
    real eigensystem is cached, and the arrays are read-only.
    """
    dim = 1 << m if weight is None else comb(m, weight)
    if not 2 <= m <= STATE_CAP or dim > 1 << XY_RING_CAP:
        raise ValueError(f"ring of length {m} (basis dimension {dim}) exceeds the XY ring cap of {XY_RING_CAP} qubits")
    patterns = np.arange(1 << m)
    if weight is not None:
        patterns = patterns[popcounts(m) == weight]
    H = np.zeros((dim, dim))
    edges = [(0, 1)] if m == 2 else [(t, (t + 1) % m) for t in range(m)]
    for a, b in edges:
        hop = np.flatnonzero(((patterns >> a) ^ (patterns >> b)) & 1)
        H[np.searchsorted(patterns, patterns[hop] ^ (1 << a) ^ (1 << b)), hop] += 1.0
    vals, vecs = np.linalg.eigh(H)
    return read_only(patterns), read_only(vals), read_only(vecs)


def xy_ring_unitary(m: int, beta: float) -> np.ndarray:
    _, vals, vecs = xy_ring_eigensystem(m)
    return (vecs * np.exp(-1j * beta * vals)) @ vecs.conj().T


def apply_xy_ring_mixer(state: StateVector, ring: list[int], beta: float) -> StateVector:
    """Exact exp(-i beta H_XY) on an ordered qubit ring; conserves ring Hamming weight."""
    return apply_local_unitary(state, list(ring), xy_ring_unitary(len(ring), beta))


def apply_ry(state: StateVector, qubit: int, theta: float) -> StateVector:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return apply_local_unitary(state, [qubit], np.array([[c, -s], [s, c]], dtype=complex))


_CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]],
    dtype=complex,
)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    if control == target:
        raise ValueError("control and target must differ")
    # local basis: bit 0 = control, bit 1 = target; flip target when control set
    return apply_local_unitary(state, [control, target], _CNOT)


def expectation(state: StateVector, model: QuboModel | IsingModel) -> float:
    if model.n != state.n:
        raise ValueError(f"model n={model.n} != state n={state.n}")
    return float(np.real(state.probabilities() @ energy_vector(model)))


def sample_indices(state: StateVector, shots: int, seed) -> np.ndarray:
    """Seeded i.i.d. computational-basis measurements: the number of draws of every basis index."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def sample(state: StateVector, shots: int, seed: int) -> SampleSet:
    """Seeded i.i.d. computational-basis measurements, as bitstring counts."""
    draws = sample_indices(state, shots, seed)
    drawn = np.flatnonzero(draws)
    counts = dict(zip(strings_from_indices(drawn, state.n), draws[drawn].tolist()))
    return SampleSet(counts=counts, shots=shots)
