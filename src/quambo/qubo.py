"""QUBO and Ising cost models, exact evaluation, the QUBO-to-Ising map, brute-force spectra and the text format.

Bit convention used everywhere in this package: bit i of a basis index is
qubit/variable i (least-significant bit = variable 0).  When a state is
rendered as a string, variable 0 is the leftmost character.  Every state the
package takes goes through the one parser, `bits_of` (it refuses a wrong length
or an entry other than 0/1), and every state it prints through `strings_from_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

SPECTRUM_CAP = 26
# Indices per pass of energies_at: its bit planes (n x ENERGY_CHUNK floats) stay in cache.
ENERGY_CHUNK = 4096
# Energies closer than this are one level: spectrum grouping and every ground set.
TIE_TOL = 1e-9
# The margin of the classical searches in `heuristics`: an oracle block's total ties the
# incumbent within it, and a chain improves only by more than it (this bar gates tabu aspiration).
SEARCH_TOL = 1e-12


class CapacityError(ValueError):
    """Raised when a brute-force operation exceeds its size cap, before it allocates."""

    @classmethod
    def check(cls, size: int, cap: int, what: str, noun: str | None = None) -> None:
        """Raise if size exceeds the cap; call it before building anything that large.

        size counts qubits ("n=26 exceeds statevector cap 24") unless noun names
        the things it counts ("1200 locations exceed the enumeration cap 1000").
        """
        if size > cap:
            raise cls(f"{size} {noun} exceed the {what} cap {cap}" if noun else f"n={size} exceeds {what} cap {cap}")


def child_seed(seed: int, i: int) -> int:
    """The seed of child i (a restart, a read, a point or a term) of seed: one draw from default_rng([seed, i])."""
    return int(np.random.default_rng([seed, i]).integers(2**31))


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr, marked read-only: cached arrays are shared by every caller."""
    arr.flags.writeable = False
    return arr


def rows_where(mask: np.ndarray):
    """The rows where mask holds: None if none, a slice if all (indexing then makes views), else their indices."""
    count = np.count_nonzero(mask)
    if count == mask.size:
        return slice(None)
    return mask.nonzero()[0] if count else None  # of a 1-D mask: np.flatnonzero without its call layers


@dataclass
class QuboModel:
    """Quadratic binary cost  offset + sum_i linear[i] s_i + sum_{i<j} quadratic[i,j] s_i s_j.

    Variables s_i in {0, 1}.  Quadratic keys are strictly upper triangular;
    zero coefficients are never stored.
    """

    n: int
    linear: dict[int, float] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 variables, got n={self.n}")
        for i in self.linear:
            if not 0 <= i < self.n:
                raise ValueError(f"linear index {i} out of range for n={self.n}")
        for i, j in self.quadratic:
            if not (0 <= i < j < self.n):
                raise ValueError(f"quadratic key {(i, j)} not strictly upper triangular")
        self.linear = {i: float(c) for i, c in self.linear.items() if c != 0.0}
        self.quadratic = {k: float(c) for k, c in self.quadratic.items() if c != 0.0}

    @cached_property
    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(lin, W): the linear coefficients and the symmetric coupling matrix.

        Built on first use and kept read-only, so the model must not change afterwards.
        """
        lin = np.zeros(self.n)
        W = np.zeros((self.n, self.n))
        for i, c in self.linear.items():
            lin[i] = c
        for (i, j), c in self.quadratic.items():
            W[i, j] = W[j, i] = c
        return read_only(lin), read_only(W)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """energy_vector(self), built on first use and kept read-only; the model must not change afterwards."""
        return read_only(energy_vector(self))


@dataclass
class IsingModel:
    """Spin cost  offset + sum_i h[i] z_i + sum_{i<j} J[i,j] z_i z_j  with z_i in {-1,+1}."""

    n: int
    h: dict[int, float] = field(default_factory=dict)
    J: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 spins, got n={self.n}")
        for i in self.h:
            if not 0 <= i < self.n:
                raise ValueError(f"field index {i} out of range for n={self.n}")
        for i, j in self.J:
            if not (0 <= i < j < self.n):
                raise ValueError(f"coupling key {(i, j)} not strictly upper triangular")
        self.h = {i: float(c) for i, c in self.h.items() if c != 0.0}
        self.J = {k: float(c) for k, c in self.J.items() if c != 0.0}

    @cached_property
    def diagonal(self) -> np.ndarray:
        """energy_vector(self), built on first use and kept read-only; the model must not change afterwards."""
        return read_only(energy_vector(self))


@dataclass
class SpectrumEntry:
    energy: float
    states: list[str]


def bits_of(state: str | Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """The int8 bits of a bitstring or 0/1 sequence of n entries, variable 0 first: the one parser of a state."""
    text = isinstance(state, str)  # one byte per character; only a string of 0s and 1s strips to ""
    bits = np.frombuffer(state.encode("ascii", "replace"), np.uint8) - ord("0") if text else np.asarray(state)
    if bits.shape != (n,):
        raise ValueError(f"need a state of {n} bits, got {bits.size}: {state!r}")
    if state.strip("01") if text else not ((bits == 0) | (bits == 1)).all():
        raise ValueError(f"need a state of bits 0/1, got {state!r}")
    return bits.astype(np.int8)


def strings_from_bits(bits: np.ndarray) -> list[str]:
    """Each row of a (rows, n) table of 0/1 bits as a bitstring, variable 0 leftmost: the one renderer of a state."""
    table = np.ascontiguousarray(np.asarray(bits, dtype=np.uint8) + ord("0"))
    return table.view(f"S{table.shape[1]}").ravel().astype(str).tolist()


def strings_from_indices(indices: Sequence[int] | np.ndarray, n: int) -> list[str]:
    """Each basis index as a bitstring of n bits, variable 0 leftmost, rendered from one bit table."""
    idx = np.asarray(indices)
    return strings_from_bits((idx[:, None] >> np.arange(n).astype(idx.dtype)) & 1)


def index_from_string(s: str | Sequence[int] | np.ndarray, n: int | None = None) -> int:
    """Basis index of a bitstring or 0/1 sequence (bits_of, of n bits if n is given), variable 0 first."""
    bits = bits_of(s, len(s) if n is None else n)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def energies_at(model: QuboModel | IsingModel, indices: Sequence[int] | np.ndarray) -> np.ndarray:
    """QUBO or Ising energies at an array of basis indices: the one energy kernel (energy_vector: its bits over arange).

    Indices are taken ENERGY_CHUNK at a time; a chunk's bits become one float
    plane per variable (s_i in {0, 1}, or the spin z_i = 1 - 2 s_i), and each
    term, c * s_i or (s_i s_j) * c, is added in place into buffers allocated
    once.  Terms are added in a fixed order (offset, then linear or field
    terms, then quadratic or coupling terms, each in dict order), so every
    evaluation agrees bit for bit, whatever the chunking.  Indices that need
    more than 63 bits arrive as an object array of Python ints and take the
    same path.
    """
    idx = np.asarray(indices)
    flat, out = idx.reshape(-1), np.empty(idx.size)
    qubo = isinstance(model, QuboModel)
    linear, quadratic = (model.linear, model.quadratic) if qubo else (model.h, model.J)
    size = min(idx.size, ENERGY_CHUNK)
    planes, term, shifts = np.empty((model.n, size)), np.empty(size), np.arange(model.n)[:, None]
    for lo in range(0, idx.size, ENERGY_CHUNK):
        e = out[lo:lo + ENERGY_CHUNK]
        bits, t = planes[:, :len(e)], term[:len(e)]
        bits[...] = (flat[lo:lo + len(e)] >> shifts) & 1
        if not qubo:
            bits *= -2.0
            bits += 1.0
        e[...] = model.offset
        for i, c in linear.items():
            e += np.multiply(bits[i], c, out=t)
        for (i, j), c in quadratic.items():
            np.multiply(bits[i], bits[j], out=t)
            e += np.multiply(t, c, out=t)
    return out.reshape(idx.shape)


def block_energies(model: QuboModel, ranges: Sequence[tuple[int, int]], masks: Sequence[np.ndarray],
                   families: int = 1) -> np.ndarray:
    """The model's energies (families, states) over the outer sum of per-block index sets, block 0 varying slowest.

    Block b holds the qubits range(*ranges[b]) and the index set masks[b].  Each term joins the energies_at
    table of the one or two blocks it touches (over their masks, or the pair's outer-sum masks), the offset
    joins block 0's, and the tables are broadcast-added in first-use order.  With families > 1 (one per
    block) a table goes into the row of its lowest block.  One block is bitwise one energies_at pass; with
    more only the order of the sums differs, so the two are bitwise equal when every coefficient and partial
    sum is an exact binary fraction (integer distances, a weight of a few binary places), else to rounding.
    """
    block_of = {q: b for b, (lo, hi) in enumerate(ranges) for q in range(lo, hi)}
    groups: dict[tuple[int, ...], tuple[dict, dict]] = {(0,): ({}, {})}  # the blocks a term touches -> its terms
    for i, c in model.linear.items():
        groups.setdefault((block_of[i],), ({}, {}))[0][i] = c
    for (i, j), c in model.quadratic.items():
        groups.setdefault(tuple(sorted({block_of[i], block_of[j]})), ({}, {}))[1][i, j] = c
    dims = [len(m) for m in masks]
    out = np.zeros((families, *dims))
    for k, (blocks, (linear, quadratic)) in enumerate(groups.items()):
        at = masks[blocks[0]] if len(blocks) == 1 else np.add.outer(masks[blocks[0]], masks[blocks[1]])
        table = energies_at(QuboModel(model.n, linear, quadratic, model.offset if k == 0 else 0.0), at)
        out[blocks[0] if families > 1 else 0] += table.reshape([d if b in blocks else 1 for b, d in enumerate(dims)])
    return out.reshape(families, -1)


def energy_qubo(model: QuboModel, s: str | Sequence[int] | np.ndarray) -> float:
    """Evaluate the QUBO cost for one binary assignment: a bitstring or 0/1 sequence of model.n bits (bits_of)."""
    return float(energies_at(model, [index_from_string(s, model.n)])[0])


def qubo_to_ising(model: QuboModel) -> IsingModel:
    """Substitute s_i = (1 - z_i)/2; energies agree state-for-state under z = 1 - 2s.

    A single edge s0*s1 with coefficient 1 maps to J01 = 0.25,
    h0 = h1 = -0.25, offset 0.25.
    """
    h: dict[int, float] = {i: 0.0 for i in range(model.n)}
    J: dict[tuple[int, int], float] = {}
    offset = model.offset
    for i, c in model.linear.items():
        # c * (1 - z_i)/2
        h[i] -= c / 2.0
        offset += c / 2.0
    for (i, j), c in model.quadratic.items():
        # c * (1 - z_i)(1 - z_j)/4
        J[(i, j)] = J.get((i, j), 0.0) + c / 4.0
        h[i] -= c / 4.0
        h[j] -= c / 4.0
        offset += c / 4.0
    return IsingModel(n=model.n, h=h, J=J, offset=offset)


def energy_vector(model: QuboModel | IsingModel, n_override: int | None = None) -> np.ndarray:
    """Energies of all 2^n basis states, indexed by basis index (the cost diagonal): energies_at over arange, bitwise.

    From the offset, each term in energies_at's order adds c where its bits are set, through a strided view (an
    Ising term adds +-c to every half or quadrant), so each energy gets energies_at's non-zero additions in order.
    energies_at's c * 0 elsewhere only turns an offset of -0.0 into +0.0 if some c > 0: one += 0.0 does that here.
    """
    n = model.n if n_override is None else n_override
    CapacityError.check(n, SPECTRUM_CAP, "spectrum")
    if n < model.n:
        raise ValueError(f"need n_override >= the model's n = {model.n}, got {n}")
    qubo = isinstance(model, QuboModel)
    linear, quadratic = (model.linear, model.quadratic) if qubo else (model.h, model.J)
    e = np.full(1 << n, model.offset)
    for i, c in linear.items():
        half = e.reshape(-1, 2, 1 << i)  # axis 1: bit i
        if qubo:
            half[:, 1] += c
        else:
            half += np.array([[c], [-c]])  # z_i c, with z_i = 1 - 2 s_i
    for (i, j), c in quadratic.items():
        quarter = e.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)  # axes 1 and 3: bits j and i
        if qubo:
            quarter[:, 1, :, 1] += c
        else:
            quarter += np.array([[c, -c], [-c, c]])[:, None, :, None]  # z_i z_j c
    if qubo and np.signbit(model.offset) and any(c > 0.0 for c in [*linear.values(), *quadratic.values()]):
        e += 0.0
    return e


def enumerate_spectrum(
    model: QuboModel, *, states: np.ndarray | None = None, energies: np.ndarray | None = None
) -> list[SpectrumEntry]:
    """Exact sorted spectrum over all 2^n states, or over the basis indices `states` at their `energies`, ties grouped.

    `states` and `energies` (arrays, taken as they are) let callers restrict to a
    subset without touching the full space (used for large constrained sectors).
    A level holds every state within TIE_TOL of its lowest energy, which it reports.
    """
    if (states is None) != (energies is None):
        raise ValueError("pass states and energies together, or neither")
    if states is None:
        energies = energy_vector(model)  # checks SPECTRUM_CAP first
        states = np.arange(len(energies))
    order = np.argsort(energies, kind="stable")
    entries: list[SpectrumEntry] = []
    for e, s in zip(energies[order].tolist(), strings_from_indices(states[order], model.n)):
        if entries and e - entries[-1].energy < TIE_TOL:
            entries[-1].states.append(s)
        else:
            entries.append(SpectrumEntry(energy=e, states=[s]))
    return entries


# --- flat text serialization -------------------------------------------------

def model_to_text(model: QuboModel | IsingModel) -> str:
    """Serialize to the flat line format: n / offset / lin i c / quad i j c.

    Ising models reuse the same line tags (lin = field, quad = coupling); a
    leading `kind` line names the model type.
    """
    kind = "qubo" if isinstance(model, QuboModel) else "ising"
    lines = [f"kind {kind}", f"n {model.n}", f"offset {model.offset!r}"]
    lin = model.linear if isinstance(model, QuboModel) else model.h
    quad = model.quadratic if isinstance(model, QuboModel) else model.J
    for i in sorted(lin):
        lines.append(f"lin {i} {lin[i]!r}")
    for i, j in sorted(quad):
        lines.append(f"quad {i} {j} {quad[(i, j)]!r}")
    return "\n".join(lines) + "\n"
