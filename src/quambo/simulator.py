"""Exact statevector simulation: uniform and basis states, mixers, gates, sampling.

Amplitude array index encodes qubit i at bit i (least significant bit =
qubit 0); string rendering puts qubit 0 leftmost.  States are mutated in
place by the apply_* operations.  The states built here are complex; a
StateVector may also hold real amplitudes (the compiled VQE circuits in
`quambo.vqe` produce float64 ones), which probabilities() and sampling
accept alike.  The QAOA and VQE engines do not call the gate primitives
(apply_phase_vector, apply_x_mixer, apply_local_unitary): the tests build
the gate-by-gate references they check the engines against from them.
The QAOA engine builds its initial states (Dicke and per-block Dicke
products among them) in its own basis; `quambo.anneal` starts from
uniform_state and basis_state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .qubo import CapacityError, index_from_string, read_only, strings_from_indices

STATE_CAP = 24
LOCAL_UNITARY_CAP = 12
XY_RING_CAP = 12
# Most amplitudes one stacked batch of states holds: the QAOA engine and the
# compiled VQE circuits run larger batches in chunks of rows, since larger
# stacks run slower per row.
EV_BATCH_AMPLITUDES = 1 << 14


@dataclass
class StateVector:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        CapacityError.check(self.n, STATE_CAP, "statevector")
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError("amplitude array has wrong length")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class SampleSet:
    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")


def uniform_state(n: int) -> StateVector:
    CapacityError.check(n, STATE_CAP, "statevector")  # before the 2^n amplitudes are allocated
    dim = 1 << n
    return StateVector(n, np.full(dim, dim**-0.5, dtype=complex))


def basis_state(n: int, state: str | Sequence[int] | np.ndarray | int) -> StateVector:
    """|state>, given as a basis index 0 <= index < 2^n or as a bitstring or 0/1 sequence of n bits (qubo.bits_of)."""
    CapacityError.check(n, STATE_CAP, "statevector")  # before the 2^n amplitudes are allocated
    index = state if isinstance(state, (int, np.integer)) else index_from_string(state, n)
    if not 0 <= index < 1 << n:
        raise ValueError(f"need a basis index 0 <= index < {1 << n}, got {index}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


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
    if m < 2:
        raise ValueError(f"need a ring of length >= 2, got {m}")
    CapacityError.check(m, STATE_CAP, "statevector")  # the patterns are drawn from all 2^m
    dim = 1 << m if weight is None else comb(m, weight)
    CapacityError.check(dim, 1 << XY_RING_CAP, "XY ring", f"states of a {m}-qubit ring")
    patterns = np.arange(1 << m)
    if weight is not None:
        patterns = patterns[np.bitwise_count(patterns) == weight]
    H = np.zeros((dim, dim))
    edges = [(0, 1)] if m == 2 else [(t, (t + 1) % m) for t in range(m)]
    for a, b in edges:
        hop = np.flatnonzero(((patterns >> a) ^ (patterns >> b)) & 1)
        H[np.searchsorted(patterns, patterns[hop] ^ (1 << a) ^ (1 << b)), hop] += 1.0
    vals, vecs = np.linalg.eigh(H)
    return read_only(patterns), read_only(vals), read_only(vecs)


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
