"""Reference implementations the benchmark checks quambo against.

Written from the documented conventions only (numpy and scipy, never
quambo): bit i of a basis index is qubit/variable i, and a bitstring puts
qubit 0 leftmost.  Each routine is the plainest correct form, not a fast
one: brute force over every basis state, Pauli matrices built by Kronecker
products and exponentiated with ``scipy.linalg.expm``, and circuits applied
gate by gate as Kronecker-built sparse matrices.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def bit_table(n: int) -> np.ndarray:
    """(2^n, n) array whose row i holds the bits of basis index i."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def qubo_energies(n: int, linear: dict, quadratic: dict, offset: float) -> np.ndarray:
    """offset + sum_i linear[i] s_i + sum_{i<j} quadratic[i,j] s_i s_j for every basis index."""
    s = bit_table(n).astype(float)
    e = np.full(1 << n, float(offset))
    for i, c in linear.items():
        e += c * s[:, i]
    for (i, j), c in quadratic.items():
        e += c * s[:, i] * s[:, j]
    return e


def ising_energies(n: int, h: dict, J: dict, offset: float) -> np.ndarray:
    """offset + sum_i h[i] z_i + sum_{i<j} J[i,j] z_i z_j with z = 1 - 2 s."""
    z = 1.0 - 2.0 * bit_table(n)
    e = np.full(1 << n, float(offset))
    for i, c in h.items():
        e += c * z[:, i]
    for (i, j), c in J.items():
        e += c * z[:, i] * z[:, j]
    return e


def qubo_to_ising_terms(linear: dict, quadratic: dict, offset: float) -> tuple[dict, dict, float]:
    """Substitute s = (1 - z) / 2; returns (h, J, offset)."""
    h: dict[int, float] = {}
    J: dict[tuple[int, int], float] = {}
    const = float(offset)
    for i, c in linear.items():
        h[i] = h.get(i, 0.0) - c / 2.0
        const += c / 2.0
    for (i, j), c in quadratic.items():
        J[(i, j)] = J.get((i, j), 0.0) + c / 4.0
        h[i] = h.get(i, 0.0) - c / 4.0
        h[j] = h.get(j, 0.0) - c / 4.0
        const += c / 4.0
    return h, J, const


def weight_mask(n: int, blocks: list[tuple[tuple[int, int], int]]) -> np.ndarray:
    """True where every block (lo, hi) of qubits holds exactly its target weight."""
    bits = bit_table(n)
    ok = np.ones(1 << n, dtype=bool)
    for (lo, hi), w in blocks:
        ok &= bits[:, lo:hi].sum(axis=1) == w
    return ok


def uniform_over(mask: np.ndarray) -> np.ndarray:
    """Equal superposition over the basis states selected by mask."""
    psi = mask.astype(complex)
    return psi / np.sqrt(mask.sum())


# --- Pauli-built Hamiltonians -------------------------------------------------

def pauli_term(w: int, ops: dict[int, str]) -> np.ndarray:
    """Dense 2^w matrix of a Pauli string; qubit q sits at bit q of the index."""
    out = np.eye(1, dtype=complex)
    for q in reversed(range(w)):
        out = np.kron(out, PAULI[ops.get(q, "I")])
    return out


def x_field(w: int) -> np.ndarray:
    """sum_i X_i on w qubits."""
    return sum(pauli_term(w, {q: "X"}) for q in range(w))


def xy_ring(w: int) -> np.ndarray:
    """1/2 sum_edges (X_a X_b + Y_a Y_b) on a w-qubit ring (one edge when w = 2)."""
    edges = [(0, 1)] if w == 2 else [(t, (t + 1) % w) for t in range(w)]
    return sum(0.5 * (pauli_term(w, {a: "X", b: "X"}) + pauli_term(w, {a: "Y", b: "Y"})) for a, b in edges)


def apply_on_qubits(psi: np.ndarray, n: int, qubits: list[int], U: np.ndarray) -> np.ndarray:
    """Apply U (2^k x 2^k, local bit t = qubits[t]) to an n-qubit state by index arithmetic."""
    idx = np.arange(1 << n)
    local = np.zeros(1 << n, dtype=np.int64)
    rest = idx.copy()
    for t, q in enumerate(qubits):
        local |= ((idx >> q) & 1) << t
        rest &= ~(1 << q)
    out = np.zeros_like(psi)
    for src in range(1 << len(qubits)):
        spread = 0
        for t, q in enumerate(qubits):
            spread |= ((src >> t) & 1) << q
        out += U[local, src] * psi[rest | spread]
    return out


def qaoa_state(
    n: int,
    energies: np.ndarray,
    psi0: np.ndarray,
    groups: list[tuple[list[int], np.ndarray]],
    betas: np.ndarray,
    gammas: np.ndarray,
) -> np.ndarray:
    """prod_r [prod_g expm(-i beta_r H_g) . exp(-i gamma_r E)] psi0 for commuting groups H_g."""
    psi = psi0.astype(complex)
    for beta, gamma in zip(betas, gammas):
        psi = psi * np.exp(-1j * gamma * energies)
        for qubits, H in groups:
            psi = apply_on_qubits(psi, n, qubits, scipy.linalg.expm(-1j * beta * H))
    return psi


def mixer_groups(kind: str, n: int, rings: list[list[int]]) -> list[tuple[list[int], np.ndarray]]:
    """Disjoint commuting pieces of the mixer: one per qubit (X) or one per ring (XY, ThreeXY)."""
    if kind == "X":
        return [([q], x_field(1)) for q in range(n)]
    return [(list(ring), xy_ring(len(ring))) for ring in rings]


# --- VQE circuit ----------------------------------------------------------------

def vqe_gate_list(n: int, initial_layer: bool, layers: int) -> list[tuple[str, tuple[int, ...], int | None]]:
    """The hardware-efficient ansatz as documented: optional Ry layer, then per layer
    CNOTs (0,1),(2,3),..; Ry on 0..n-2; CNOTs (1,2),(3,4),..; Ry on 1..n-1."""
    gates: list[tuple[str, tuple[int, ...], int | None]] = []
    k = itertools.count()
    if initial_layer:
        gates += [("ry", (q,), next(k)) for q in range(n)]
    for _ in range(layers):
        gates += [("cnot", (q, q + 1), None) for q in range(0, n - 1, 2)]
        gates += [("ry", (q,), next(k)) for q in range(n - 1)]
        gates += [("cnot", (q, q + 1), None) for q in range(1, n - 1, 2)]
        gates += [("ry", (q,), next(k)) for q in range(1, n)]
    return gates


def embed(n: int, ops: dict[int, np.ndarray]) -> sp.csr_matrix:
    """Sparse Kronecker product with ops[q] on qubit q and identity elsewhere."""
    out = sp.identity(1, dtype=complex, format="csr")
    for q in reversed(range(n)):
        out = sp.kron(out, sp.csr_matrix(ops.get(q, PAULI["I"])), format="csr")
    return out


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def vqe_state(n: int, initial_layer: bool, layers: int, theta: np.ndarray) -> np.ndarray:
    """Ansatz state from |0...0> with every gate a Kronecker-built 2^n x 2^n matrix."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for kind, qubits, k in vqe_gate_list(n, initial_layer, layers):
        if kind == "ry":
            gate = embed(n, {qubits[0]: ry(theta[k])})
        else:
            c, t = qubits
            gate = embed(n, {c: p0}) + embed(n, {c: p1, t: PAULI["X"]})
        psi = gate @ psi
    return psi


# --- annealing ------------------------------------------------------------------

def forward_s(T: float):
    return lambda t: t / T


def reverse_s(T: float, s_min: float, hold: float):
    """1 -> s_min over T, hold at s_min, then back to 1 over T."""

    def s(t: float) -> float:
        if t < T:
            return 1.0 - (1.0 - s_min) * t / T
        if t < T + hold:
            return s_min
        return s_min + (1.0 - s_min) * (t - T - hold) / T

    return s


def anneal_state(
    n: int, energies: np.ndarray, psi0: np.ndarray, s_of_t, total: float, steps: int
) -> np.ndarray:
    """Midpoint propagator: psi <- expm(-i dt H(s(t_k + dt/2))) psi with H = -(1-s) sum X + s diag(E)."""
    driver = -x_field(n)
    problem = np.diag(energies).astype(complex)
    dt = total / steps
    psi = psi0.astype(complex)
    for k in range(steps):
        s = s_of_t((k + 0.5) * dt)
        psi = scipy.linalg.expm(-1j * dt * ((1.0 - s) * driver + s * problem)) @ psi
    return psi


def ground_probability(psi: np.ndarray, energies: np.ndarray, tol: float = 1e-9) -> float:
    return float((np.abs(psi[energies - energies.min() < tol]) ** 2).sum())


# --- facility placement ---------------------------------------------------------

def squared_distances(geometry: tuple) -> np.ndarray:
    """All-pairs squared euclidean distances; grid sites are row-major (r, c)."""
    if geometry[0] == "line":
        xy = np.stack([np.arange(geometry[1]), np.zeros(geometry[1])], axis=1)
    else:
        rows, cols = geometry[1], geometry[2]
        xy = np.stack(np.divmod(np.arange(rows * cols), cols), axis=1)
    diff = xy[:, None, :].astype(float) - xy[None, :, :]
    return (diff**2).sum(axis=-1)


def facility_d_min(D: np.ndarray, m: int) -> float:
    """Minimum over all m-site placements of the summed distance to the nearest facility."""
    combos = itertools.combinations(range(len(D)), m)
    chunk = max(1, 2_000_000 // (m * len(D)))  # placements per block, about 16 MB of distances
    best = np.inf
    while True:
        block = np.array(list(itertools.islice(combos, chunk)), dtype=np.int64)
        if len(block) == 0:
            return float(best)
        best = min(best, float(D[block].min(axis=1).sum(axis=1).min()))
