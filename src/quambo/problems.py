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

from .qubo import CapacityError, QuboModel, SpectrumEntry, bits_from_string, energies_at, enumerate_spectrum, read_only
from .simulator import STATE_CAP

GEOMETRIES = {"grid": ("rows", "cols"), "line": ("cols",)}  # each geometry's size keys, in tuple order
METRICS = ("squared-euclidean", "euclidean", "manhattan")  # the distances of distance_matrix, default first


@dataclass
class FacilityProblem:
    """Problem instance: geometry, ambulance count, metric and penalty weight.

    geometry is ``("line", L)`` or ``("grid", rows, cols)`` with unit-spaced
    integer coordinates.  At most one of lambda_ (config key lambda) and
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
        if self.geometry[0] not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
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
        """Integer (x, y) coordinates of every location, row-major for grids."""
        if self.geometry[0] == "line":
            return np.array([(i, 0) for i in range(self.geometry[1])])
        rows, cols = self.geometry[1], self.geometry[2]
        return np.array([(r, c) for r in range(rows) for c in range(cols)])

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

    hamming_targets is a list of ((first_qubit, last_qubit+1), weight) pairs.
    objective is the penalty-free part of the encoded model; its n is the qubit count.
    """

    variant: str
    hamming_targets: list[tuple[tuple[int, int], int]]
    problem: FacilityProblem
    objective: QuboModel

    @cached_property
    def distances(self) -> np.ndarray:
        """The problem's distance matrix, built once per encoding (read-only)."""
        return read_only(distance_matrix(self.problem))

    @cached_property
    def sector(self) -> tuple[np.ndarray, np.ndarray]:
        """(feasible_indices, their objective energies), built once per encoding (read-only).

        Neither depends on the penalty weight: encodings of one problem at several weights can share one.
        """
        indices = feasible_indices(self)
        return read_only(indices), read_only(energies_at(self.objective, indices))

    @cached_property
    def sector_order(self) -> np.ndarray:
        """np.argsort of the sector's indices, built once per encoding (read-only) for every Scorer of it."""
        return read_only(np.argsort(self.sector[0]))


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

    obj_quadratic = {(i, j): -float(dist[i, j]) for i in range(L) for j in range(i + 1, L)}
    linear: dict[int, float] = {}
    quadratic = dict(obj_quadratic)
    add_penalty(linear, quadratic, range(L), problem.penalty_weight(), c)
    model = QuboModel(n=L, linear=linear, quadratic=quadratic)
    objective = QuboModel(n=L, quadratic=obj_quadratic)
    enc = Encoding(
        variant="ComplementSingle",
        hamming_targets=[((0, L), c)],
        problem=problem,
        objective=objective,
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
    obj_quadratic = {(a * L + i, m * L + a * L + l): float(dist[i, l])
                     for a in range(m) for i in range(L) for l in range(L) if dist[i, l] != 0.0}
    linear: dict[int, float] = {}
    quadratic = dict(obj_quadratic)
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
    objective = QuboModel(n=n, quadratic=obj_quadratic)
    enc = Encoding(
        variant="StartDest",
        hamming_targets=targets,
        problem=problem,
        objective=objective,
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
    objective = QuboModel(n=L, linear={i: float(fields[i]) for i in range(L)})
    enc = Encoding(
        variant="PositionLinear",
        hamming_targets=[((0, L), m)],
        problem=problem,
        objective=objective,
    )
    return model, enc


def is_feasible(encoding: Encoding, s: str | Sequence[int]) -> bool:
    """True iff every Hamming-weight target of the encoding holds."""
    bits = bits_from_string(s) if isinstance(s, str) else np.asarray(s)
    if len(bits) != encoding.objective.n:
        raise ValueError(f"state length {len(bits)} != {encoding.objective.n}")
    return all(int(bits[lo:hi].sum()) == w for (lo, hi), w in encoding.hamming_targets)


def feasible_indices(encoding: Encoding) -> np.ndarray:
    """All feasible basis indices (int64), checked against the sector caps before anything is built.

    Outer sums of each Hamming block's choice masks, the first block varying
    slowest: the order of itertools.product over the blocks' combinations.
    """
    count = math.prod(math.comb(hi - lo, w) for (lo, hi), w in encoding.hamming_targets)
    CapacityError.check(count, 1 << STATE_CAP, "feasible sector", "feasible states")
    CapacityError.check(encoding.objective.n, 63, "feasible sector")
    indices = np.zeros(1, dtype=np.int64)
    for (lo, hi), w in encoding.hamming_targets:
        masks = [sum(1 << q for q in ones) for ones in itertools.combinations(range(lo, hi), w)]
        indices = np.add.outer(indices, np.array(masks, dtype=np.int64)).reshape(-1)
    return indices


def decode_solution(encoding: Encoding, s: str) -> float:
    """The total distance of the placement a feasible state encodes.

    ComplementSingle: every site's distance to the ambulance; PositionLinear:
    every site's distance to every ambulance (the encoding's linear field);
    StartDest: every site's distance to the ambulance that serves it.
    """
    if not is_feasible(encoding, s):
        raise ValueError(f"cannot decode infeasible state {s!r}")
    bits = bits_from_string(s)
    dist = encoding.distances
    L = encoding.problem.num_locations

    if encoding.variant == "ComplementSingle":
        return float(dist[int(np.flatnonzero(bits == 0)[0])].sum())
    if encoding.variant == "PositionLinear":
        return float(sum(dist[p].sum() for p in np.flatnonzero(bits == 1)))
    m = encoding.problem.ambulances
    positions = [int(np.flatnonzero(bits[a * L : (a + 1) * L])[0]) for a in range(m)]
    assignments = []
    for l in range(L):
        servers = [a for a in range(m) if bits[m * L + a * L + l]]
        if len(servers) != 1:
            raise ValueError(f"site {l} served {len(servers)} times in {s!r}")
        assignments.append(servers[0])
    return float(sum(dist[positions[assignments[l]], l] for l in range(L)))


def feasible_sector(model: QuboModel, encoding: Encoding) -> tuple[np.ndarray, np.ndarray]:
    """Feasible basis indices, in feasible_indices order, and their energies with the penalty floor removed.

    Each feasible state's energy is the full model energy minus the constant
    min-over-feasible penalty contribution (full minus objective).  For
    encodings whose penalty is constant on the sector this removes the penalty
    entirely; otherwise intra-sector penalty variation is kept so the ground
    set matches the full cost function.  The indices and objective energies
    come from encoding.sector, so each call adds one energy pass of the model.
    """
    indices, objective = encoding.sector
    energies = energies_at(model, indices)
    energies -= float((energies - objective).min())
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
