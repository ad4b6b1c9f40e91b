"""Facility-location (ambulance placement) instances and their QUBO encodings.

Three encodings are provided:

* ``ComplementSingle`` -- one ambulance over L sites, one qubit per site where
  a ``0`` marks the ambulance; the cost sums pairwise distances among the
  ``1``s plus a Hamming-weight penalty targeting weight c = L - 1.
* ``StartDest`` -- m ambulances with explicit start and destination one-hot
  blocks (2*m*L qubits); squared constraints force one start per ambulance and
  single service per site.
* ``PositionLinear`` -- one qubit per site where a ``1`` marks an ambulance;
  the cost is a linear field of summed distances plus an optional cardinality
  penalty.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .qubo import CapacityError, QuboModel, SpectrumEntry, bits_of, block_energies, enumerate_spectrum, read_only
from .simulator import STATE_CAP

GEOMETRIES = {"grid": ("rows", "cols"), "line": ("cols",)}  # each geometry's size keys, in tuple order
METRICS = ("squared-euclidean", "euclidean", "manhattan")  # the distances of distance_matrix, default first


@dataclass
class FacilityProblem:
    """Problem instance: geometry, ambulance count, metric and penalty weight.

    geometry is ``("line", L)`` or ``("grid", rows, cols)``, each size an int >= 1,
    with unit-spaced integer coordinates.  At most one of lambda_ (config key lambda) and
    lambda_ratio may be set, finite and >= 0; lambda_ratio expresses the
    penalty as a multiple of the largest pairwise distance.  Only an encoder
    that adds a penalty needs one (penalty_weight).
    """

    geometry: tuple
    ambulances: int = 1
    metric: str = "squared-euclidean"
    lambda_: float | None = None
    lambda_ratio: float | None = None
    forbid_colocation: bool = False

    def __post_init__(self) -> None:
        kind, *sizes = self.geometry
        if kind not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if len(sizes) != len(GEOMETRIES[kind]) or not all(isinstance(k, (int, np.integer)) and k > 0 for k in sizes):
            raise ValueError(f"a {kind} geometry needs {', '.join(GEOMETRIES[kind])} (ints >= 1), got {tuple(sizes)}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; valid metrics: {', '.join(METRICS)}")
        if self.lambda_ is not None and self.lambda_ratio is not None:
            raise ValueError("set at most one penalty weight: lambda or lambda_ratio")
        for name, weight in (("lambda", self.lambda_), ("lambda_ratio", self.lambda_ratio)):
            if weight is not None and not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"need a finite {name} >= 0, got {weight}")
        if not 1 <= self.ambulances <= self.num_locations:
            raise ValueError("need num_locations >= ambulances >= 1")

    @property
    def num_locations(self) -> int:
        return math.prod(self.geometry[1:])

    def coordinates(self) -> np.ndarray:
        """Integer (x, y) coordinates of every location, row-major for grids; a line is one column of L rows."""
        return np.argwhere(np.ones((*self.geometry[1:], 1)[:2], dtype=bool))

    def penalty_weight(self) -> float:
        if self.lambda_ is not None:
            return float(self.lambda_)
        if self.lambda_ratio is None:
            raise ValueError("the encoding's penalty needs a weight: set lambda or lambda_ratio")
        return float(self.lambda_ratio) * float(distance_matrix(self).max())


def distance_matrix(problem: FacilityProblem) -> np.ndarray:
    """Symmetric all-pairs distance matrix under the problem's metric."""
    xy = problem.coordinates().astype(float)
    diff = xy[:, None, :] - xy[None, :, :]
    if problem.metric == "squared-euclidean":
        return (diff**2).sum(axis=-1)
    if problem.metric == "euclidean":
        return np.sqrt((diff**2).sum(axis=-1))
    return np.abs(diff).sum(axis=-1)


@dataclass
class Encoding:
    """Variable layout and feasibility metadata produced by an encoder.

    hamming_targets is a list of ((first_qubit, last_qubit+1), weight) pairs over n qubits.
    sector_shift is the penalty constant the model leaves out of its offset (feasible_sector adds it).
    """

    variant: str
    hamming_targets: list[tuple[tuple[int, int], int]]
    problem: FacilityProblem
    n: int
    sector_shift: float = 0.0

    @cached_property
    def distances(self) -> np.ndarray:
        """The problem's distance matrix, built once per encoding (read-only)."""
        return read_only(distance_matrix(self.problem))

    @cached_property
    def block_masks(self) -> list[np.ndarray]:
        """Each Hamming block's choice masks (int64, read-only, in itertools.combinations order), built once per
        encoding after the sector caps are checked: a feasible state is one mask of every block, summed."""
        count = math.prod(math.comb(hi - lo, w) for (lo, hi), w in self.hamming_targets)
        CapacityError.check(count, 1 << STATE_CAP, "feasible sector", "feasible states")
        CapacityError.check(self.n, 63, "feasible sector")
        return [read_only(np.fromiter(map(sum, itertools.combinations([1 << q for q in range(lo, hi)], w)), np.int64))
                for (lo, hi), w in self.hamming_targets]

    @cached_property
    def sector(self) -> np.ndarray:
        """feasible_indices, built once per encoding (read-only); encodings of one problem at any weight share it."""
        return read_only(feasible_indices(self))

    @cached_property
    def sector_order(self) -> np.ndarray:
        """np.argsort of the sector, built once per encoding (read-only) for every Scorer of it.  The blocks hold
        ascending bit ranges, so it is the blocks' own argsorts at their sector strides, the last block slowest."""
        sorts = [np.argsort(masks) for masks in self.block_masks]
        return read_only(np.ravel_multi_index(np.ix_(*sorts[::-1])[::-1], [len(s) for s in sorts]).reshape(-1))


def add_penalty(linear: dict, quadratic: dict, qubits: Sequence[int], lam: float, w: int) -> float:
    """Add lam * (sum_{q in qubits} s_q - w)^2 to linear and quadratic; return its constant lam * w * w.

    With s^2 = s the square is w^2 + (1 - 2w) sum s + 2 sum_{q<r} s_q s_r, so each qubit's
    linear term gains lam * (1 - 2w) and each pair (qubits in increasing order) gains 2 lam.
    """
    for k, q in enumerate(qubits):
        linear[q] = linear.get(q, 0.0) + lam * (1.0 - 2.0 * w)
        for r in qubits[k + 1:]:
            quadratic[(q, r)] = quadratic.get((q, r), 0.0) + 2.0 * lam
    return lam * w * w


def encode_single_complement(problem: FacilityProblem) -> tuple[QuboModel, Encoding]:
    """One-ambulance encoding over L qubits where a `0` marks the ambulance.

    C(s) = -sum_{i<j} dist(i, j) s_i s_j + lambda * (sum s - c)^2 with
    c = L - 1 (add_penalty), without the penalty's constant lambda * c^2.
    """
    if problem.ambulances != 1:
        raise ValueError("ComplementSingle requires exactly one ambulance")
    if problem.forbid_colocation:
        raise ValueError("forbid_colocation needs the start_dest encoding; complement does not read it")
    L = problem.num_locations
    dist = distance_matrix(problem)
    c = L - 1

    linear: dict[int, float] = {}
    quadratic = {(i, j): -float(dist[i, j]) for i in range(L) for j in range(i + 1, L)}
    shift = add_penalty(linear, quadratic, range(L), problem.penalty_weight(), c)
    model = QuboModel(n=L, linear=linear, quadratic=quadratic)
    enc = Encoding(
        variant="ComplementSingle",
        hamming_targets=[((0, L), c)],
        problem=problem,
        n=L,
        sector_shift=shift,
    )
    return model, enc


def encode_start_dest(problem: FacilityProblem) -> tuple[QuboModel, Encoding]:
    """Start/destination one-hot encoding over 2*m*L qubits.

    Layout: start blocks for each ambulance, then dest blocks for each
    ambulance.  Objective sums start(a,i)*dest(a,l)*dist(i,l); squared
    constraints (add_penalty) force one start per ambulance and one server
    per site; the constant terms of the squares are kept in the offset so
    proper feasible states cost exactly their total distance.
    forbid_colocation adds lambda * start(a,i)*start(b,i) for a < b.
    """
    L = problem.num_locations
    m = problem.ambulances
    lam = problem.penalty_weight()
    dist = distance_matrix(problem)
    n = 2 * m * L

    # objective: distance from each ambulance start to each site it serves (start qubits come first)
    quadratic = {(a * L + i, m * L + a * L + l): float(dist[i, l])
                 for a in range(m) for i in range(L) for l in range(L) if dist[i, l] != 0.0}
    linear: dict[int, float] = {}
    offset = 0.0
    for a in range(m):  # one start per ambulance
        offset += add_penalty(linear, quadratic, range(a * L, (a + 1) * L), lam, 1)
    for l in range(L):  # one server per site
        offset += add_penalty(linear, quadratic, range(m * L + l, n, L), lam, 1)
    if problem.forbid_colocation:
        for i in range(L):
            for a in range(m):
                for b in range(a + 1, m):
                    quadratic[(a * L + i, b * L + i)] = lam

    targets = [((a * L, (a + 1) * L), 1) for a in range(m)]
    targets.append(((m * L, n), L))

    model = QuboModel(n=n, linear=linear, quadratic=quadratic, offset=offset)
    enc = Encoding(
        variant="StartDest",
        hamming_targets=targets,
        problem=problem,
        n=n,
    )
    return model, enc


def encode_position_linear(
    problem: FacilityProblem, include_penalty: bool = True
) -> tuple[QuboModel, Encoding]:
    """Relaxed-metric encoding: a `1` marks an ambulance, cost is a linear field.

    field_i = sum_l dist(i, l); the cardinality penalty lambda*(sum s - m)^2
    (add_penalty, constant in the offset) is omitted when an XY mixer enforces
    the weight instead, and a problem that sets a penalty weight is then refused.
    """
    if problem.forbid_colocation:
        raise ValueError("forbid_colocation needs the start_dest encoding; position_linear does not read it")
    if not include_penalty and (problem.lambda_ is not None or problem.lambda_ratio is not None):
        raise ValueError("lambda and lambda_ratio need include_penalty = true; position_linear does not read them")
    L = problem.num_locations
    m = problem.ambulances
    fields = distance_matrix(problem).sum(axis=1)

    linear = {i: float(fields[i]) for i in range(L)}
    quadratic: dict[tuple[int, int], float] = {}
    offset = 0.0
    if include_penalty:
        offset += add_penalty(linear, quadratic, range(L), problem.penalty_weight(), m)
    model = QuboModel(n=L, linear=linear, quadratic=quadratic, offset=offset)
    enc = Encoding(
        variant="PositionLinear",
        hamming_targets=[((0, L), m)],
        problem=problem,
        n=L,
    )
    return model, enc


def is_feasible(encoding: Encoding, s: str | Sequence[int] | np.ndarray) -> bool:
    """True iff every Hamming-weight target of the encoding holds at s, a bitstring or 0/1 sequence (qubo.bits_of)."""
    bits = bits_of(s, encoding.n)
    return all(int(bits[lo:hi].sum()) == w for (lo, hi), w in encoding.hamming_targets)


def feasible_indices(encoding: Encoding) -> np.ndarray:
    """All feasible basis indices (int64), checked against the sector caps before anything is built.

    Outer sums of each Hamming block's choice masks (Encoding.block_masks), the
    first block varying slowest: the order of itertools.product over the blocks' combinations.
    """
    indices = np.zeros(1, dtype=np.int64)
    for masks in encoding.block_masks:
        indices = np.add.outer(indices, masks).reshape(-1)
    return indices


def decode_solution(encoding: Encoding, s: str | Sequence[int] | np.ndarray) -> float:
    """The total distance of the placement that s, a feasible bitstring or 0/1 sequence (qubo.bits_of), encodes.

    ComplementSingle: every site's distance to the ambulance; PositionLinear:
    every site's distance to every ambulance (the encoding's linear field);
    StartDest: every site's distance to the ambulance that serves it.
    """
    bits = bits_of(s, encoding.n)
    if not is_feasible(encoding, bits):
        raise ValueError(f"cannot decode infeasible state {s!r}")
    dist = encoding.distances

    if encoding.variant == "ComplementSingle":
        return float(dist[int(np.flatnonzero(bits == 0)[0])].sum())
    if encoding.variant == "PositionLinear":
        return float(sum(dist[p].sum() for p in np.flatnonzero(bits == 1)))
    starts, serves = bits.reshape(2, encoding.problem.ambulances, -1)  # one-hot start blocks, then served sites
    if (bad := np.flatnonzero(serves.sum(axis=0) != 1)).size:
        raise ValueError(f"sites {bad.tolist()} are not served exactly once in {s!r}")
    positions = starts[serves.argmax(axis=0)].argmax(axis=1)  # site l's server starts at positions[l]
    return float(sum(dist[positions].diagonal().tolist()))


def feasible_sector(model: QuboModel, encoding: Encoding) -> tuple[np.ndarray, np.ndarray]:
    """Feasible basis indices, in feasible_indices order, and their energies with the penalty floor removed.

    Each energy is the model energy plus encoding.sector_shift, so the penalty's minimum over the sector
    is 0: the complement penalty vanishes there, while the start/destination penalty keeps its variation
    within the sector (forbid_colocation), so the ground set matches the full cost function.  The sector is
    the outer sum of the Hamming blocks' choice masks, so its energies are block_energies over those
    blocks: one block is bitwise one energies_at pass, more agree with it to rounding (exactly for
    binary-fraction coefficients).
    """
    indices = encoding.sector  # checks the sector caps before any mask or table is built
    energies = block_energies(model, [block for block, _w in encoding.hamming_targets], encoding.block_masks)[0]
    energies += encoding.sector_shift
    return indices, energies


def feasible_spectrum(model: QuboModel, encoding: Encoding) -> list[SpectrumEntry]:
    """Spectrum over the feasible sector with the penalty floor removed (see feasible_sector)."""
    indices, energies = feasible_sector(model, encoding)
    return enumerate_spectrum(model, states=indices, energies=energies)


# --- paper problem variants --------------------------------------------------

def problem_variant(name: str) -> FacilityProblem:
    """The desk-scale study instances B and C (line geometries, squared euclidean, lambda_ratio 1)."""
    table = {
        "B": (("line", 4), 2),
        "C": (("line", 8), 2),
    }
    if name not in table:
        raise ValueError(f"unknown problem variant {name!r}")
    geometry, m = table[name]
    return FacilityProblem(geometry=geometry, ambulances=m, lambda_ratio=1.0)
