"""Tests for the facility-location encoders and their feasibility metadata."""

import numpy as np
import pytest

from quambo import problems
from quambo.problems import (
    FacilityProblem,
    decode_solution,
    distance_matrix,
    encode_position_linear,
    encode_single_complement,
    encode_start_dest,
    feasible_indices,
    feasible_sector,
    feasible_spectrum,
    is_feasible,
    problem_variant,
)
from quambo.qubo import CapacityError, QuboModel, energies_at, energy_qubo, string_from_index
from references import reference_feasible_indices

# Cost table for the 5-location single-ambulance problem; the first row of the
# published table at lam=0 (-26) is inconsistent with every other column of
# that row (-20 fits) and is checked separately.
LAMBDAS = (0, 10, 20, 30, 40, 100)
COST_TABLE = {
    "11111": (-50, -200, -350, -500, -650, -1550),
    "11011": (-40, -200, -360, -520, -680, -1640),
    "10111": (-35, -195, -355, -515, -675, -1635),
    "11101": (-35, -195, -355, -515, -675, -1635),
    "01111": (None, -180, -340, -500, -660, -1620),
    "11110": (None, -180, -340, -500, -660, -1620),
}


def encode_a(lam):
    return encode_single_complement(FacilityProblem(("line", 5), 1, lambda_=lam))


class TestDistanceMatrix:
    def test_line_endpoints(self):
        problem = FacilityProblem(("line", 5), 1, lambda_=1.0)
        assert distance_matrix(problem)[0, 4] == 16

    def test_grid(self):
        problem = FacilityProblem(("grid", 3, 2), 1, lambda_=1.0)
        d = distance_matrix(problem)
        # nodes are row-major: node 0 = (0,0), node 5 = (2,1)
        assert d[0, 5] == 5

    def test_lambda_from_ratio(self):
        problem = FacilityProblem(("line", 5), 1, lambda_ratio=1.0)
        assert distance_matrix(problem).max() == 16
        assert problem.penalty_weight() == 16

    def test_manhattan(self):
        problem = FacilityProblem(("grid", 3, 2), 1, lambda_=1.0, metric="manhattan")
        assert distance_matrix(problem)[0, 5] == 3

    def test_symmetric_zero_diagonal(self):
        problem = FacilityProblem(("grid", 4, 3), 1, lambda_=1.0)
        d = distance_matrix(problem)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)


class TestComplementSingle:
    @pytest.mark.parametrize("state,row", COST_TABLE.items())
    def test_cost_table(self, state, row):
        for lam, expected in zip(LAMBDAS, row):
            if expected is None:
                continue
            model, _ = encode_a(lam)
            assert energy_qubo(model, state) == expected

    def test_published_lam0_cell_is_inconsistent(self):
        # the printed value is -26; the encoding consistent with every other
        # column gives -20
        model, _ = encode_a(0)
        assert energy_qubo(model, "01111") == -20

    def test_requires_single_ambulance(self):
        with pytest.raises(ValueError):
            encode_single_complement(FacilityProblem(("line", 5), 2, lambda_=1.0))

    def test_feasibility(self):
        _, enc = encode_a(10)
        assert is_feasible(enc, "11011")
        assert not is_feasible(enc, "11111")

    def test_lambda_threshold(self):
        """The weight-5 state outranks every feasible state exactly when lam > 30."""
        for lam, above in ((29, False), (30, False), (31, True), (40, True)):
            model, enc = encode_a(lam)
            e_bad = energy_qubo(model, "11111")
            feas = [energy_qubo(model, string_from_index(i, 5)) for i in feasible_indices(enc)]
            assert (e_bad > max(feas)) == above

    def test_argmin_matches_decoded_distance(self):
        model, enc = encode_a(20)
        best_cost, best_dist = None, None
        for idx in feasible_indices(enc):
            s = string_from_index(idx, 5)
            cost = energy_qubo(model, s)
            dist = decode_solution(enc, s)
            if best_cost is None or cost < best_cost:
                best_cost, best_dist = cost, dist
        distances = [
            decode_solution(enc, string_from_index(i, 5))
            for i in feasible_indices(enc)
        ]
        assert best_dist == min(distances)


@pytest.fixture(scope="module")
def encoded():
    return encode_start_dest(problem_variant("B"))


class TestStartDest:
    def test_qubit_count(self, encoded):
        model, enc = encoded
        assert model.n == 16
        assert enc.hamming_targets == [((0, 4), 1), ((4, 8), 1), ((8, 16), 4)]

    def test_feasible_count(self, encoded):
        _, enc = encoded
        assert sum(1 for _ in feasible_indices(enc)) == 4 * 4 * 70

    def test_ground_degeneracy(self, encoded):
        model, enc = encoded
        spectrum = feasible_spectrum(model, enc)
        assert spectrum[0].energy == 2
        assert len(spectrum[0].states) == 12

    def test_proper_state_penalty_zero(self, encoded):
        """A state with one start per ambulance and single service costs its distance."""
        model, enc = encoded
        # ambulance 0 at node 1 serving nodes 0,1; ambulance 1 at node 2 serving 2,3
        bits = ["0"] * 16
        bits[1] = "1"  # start(0, 1)
        bits[4 + 2] = "1"  # start(1, 2)
        bits[8 + 0] = bits[8 + 1] = "1"  # dest(0, {0,1})
        bits[12 + 2] = bits[12 + 3] = "1"  # dest(1, {2,3})
        s = "".join(bits)
        assert is_feasible(enc, s)
        assert energy_qubo(model, s) == 2
        assert decode_solution(enc, s) == 2

    def test_feasible_energy_equals_distance(self, encoded):
        """On single-service feasible states the encoded energy is the decoded distance."""
        model, enc = encoded
        rng = np.random.default_rng(2)
        checked = 0
        for idx in feasible_indices(enc):
            s = string_from_index(idx, 16)
            try:
                total = decode_solution(enc, s)
            except ValueError:
                continue
            if rng.random() < 0.2:
                assert energy_qubo(model, s) == pytest.approx(total)
                checked += 1
        assert checked > 20

    def test_decode_builds_the_distance_matrix_once(self, monkeypatch):
        problem = problem_variant("B")
        _, enc = encode_start_dest(problem)
        states = [string_from_index(i, 16) for i in feasible_indices(enc)][::7]

        def total(encoding, s):
            try:
                return decode_solution(encoding, s)
            except ValueError:  # served twice
                return None

        # each state decoded against a fresh encoding: the distances without the cache
        want = [total(encode_start_dest(problem)[1], s) for s in states]
        calls = []
        original = problems.distance_matrix
        monkeypatch.setattr(problems, "distance_matrix", lambda pr: calls.append(pr) or original(pr))
        assert [total(enc, s) for s in states] == want
        assert len(calls) == 1 and any(want)
        assert not enc.distances.flags.writeable

    def test_decode_rejects_double_service(self, encoded):
        _, enc = encoded
        bits = ["0"] * 16
        bits[0] = bits[4] = "1"
        bits[8] = bits[12] = "1"  # node 0 served twice
        bits[9] = bits[10] = "1"
        s = "".join(bits)
        assert is_feasible(enc, s)
        with pytest.raises(ValueError):
            decode_solution(enc, s)

    def test_colocation_penalty(self):
        problem = FacilityProblem(("line", 4), 2, lambda_=7.0, forbid_colocation=True)
        model, _ = encode_start_dest(problem)
        base, _ = encode_start_dest(FacilityProblem(("line", 4), 2, lambda_=7.0))
        s = ["0"] * 16
        s[1] = s[4 + 1] = "1"  # both ambulances start at node 1
        s[8], s[9], s[12 + 2], s[12 + 3] = "1", "1", "1", "1"
        state = "".join(s)
        assert energy_qubo(model, state) == energy_qubo(base, state) + 7.0


class TestPositionLinear:
    def test_field_values(self):
        problem = FacilityProblem(("line", 3), 1)
        model, _ = encode_position_linear(problem, include_penalty=False)
        assert [model.linear[i] for i in range(3)] == [5, 2, 5]

    def test_feasible_count_problem_c(self):
        _, enc = encode_position_linear(problem_variant("C"))
        assert sum(1 for _ in feasible_indices(enc)) == 28

    def test_weight_m_penalty_zero(self):
        with_pen, _ = encode_position_linear(FacilityProblem(("line", 4), 2, lambda_=11.0), include_penalty=True)
        without, _ = encode_position_linear(FacilityProblem(("line", 4), 2), include_penalty=False)
        assert energy_qubo(with_pen, "1100") == energy_qubo(without, "1100")
        assert energy_qubo(with_pen, "1110") == energy_qubo(without, "1110") + 11.0


class TestFeasibleSector:
    ENCODINGS = [
        *[(encode_single_complement, ("line", L), 1) for L in (2, 3, 6)],
        *[(encode_start_dest, geometry, m) for geometry, m in
          ((("line", 2), 1), (("line", 3), 2), (("line", 4), 2), (("grid", 2, 2), 3))],
        *[(encode_position_linear, ("line", L), m) for L, m in ((3, 1), (5, 2), (6, 6))],
    ]

    @pytest.mark.parametrize("encoder, geometry, m", ENCODINGS)
    def test_indices_equal_the_product_generator(self, encoder, geometry, m):
        _, enc = encoder(FacilityProblem(geometry, m, lambda_=3.0))
        got = feasible_indices(enc)
        assert got.dtype == np.int64
        assert got.tolist() == list(reference_feasible_indices(enc))

    def test_empty_and_full_blocks(self):
        # weight 0 and full-weight blocks have one choice each; the middle block varies
        _, enc = encode_single_complement(FacilityProblem(("line", 4), 1, lambda_=1.0))
        enc.hamming_targets = [((0, 2), 0), ((2, 5), 2), ((5, 7), 2)]
        enc.objective = QuboModel(7)
        assert feasible_indices(enc).tolist() == list(reference_feasible_indices(enc)) == [108, 116, 120]

    @pytest.mark.parametrize("geometry, m, message", [
        # 16^2 start choices times C(32, 16) destination patterns
        (("grid", 4, 4), 2, "153876579840 feasible states exceed the feasible sector cap"),
        # 33 feasible states over 66 qubits: their indices do not fit in int64
        (("line", 33), 1, "n=66 exceeds feasible sector cap 63"),
    ])
    def test_caps_are_checked_before_any_choice_is_listed(self, monkeypatch, geometry, m, message):
        _, enc = encode_start_dest(FacilityProblem(geometry, m, lambda_=1.0))
        monkeypatch.setattr(problems, "itertools", None)
        with pytest.raises(CapacityError, match=message):
            feasible_indices(enc)

    def test_sector_is_built_once_per_encoding(self, monkeypatch):
        calls = []
        original = problems.feasible_indices
        monkeypatch.setattr(problems, "feasible_indices", lambda enc: calls.append(enc) or original(enc))
        _, enc = encode_start_dest(FacilityProblem(("line", 4), 2, lambda_ratio=0.5))
        heavy, own = encode_start_dest(FacilityProblem(("line", 4), 2, lambda_ratio=4.0))
        indices, objective = enc.sector
        assert enc.sector[0] is indices and not indices.flags.writeable and not objective.flags.writeable
        assert np.array_equal(objective, energies_at(enc.objective, indices))
        shared = feasible_sector(heavy, enc)  # the heavy model over the light encoding's sector
        assert shared[0] is indices and len(calls) == 1
        want = feasible_sector(heavy, own)
        assert len(calls) == 2 and all(np.array_equal(a, b) for a, b in zip(shared, want))


class TestProblemFiles:
    def test_requires_one_lambda(self):
        with pytest.raises(ValueError, match="set at most one penalty weight"):
            FacilityProblem(("line", 5), 1, lambda_=1.0, lambda_ratio=1.0)
        # a problem without a weight is whole; only an encoder that adds a penalty asks for one
        problem = FacilityProblem(("line", 4), 1)
        assert encode_position_linear(problem, include_penalty=False)[0].n == 4
        for encode in (encode_single_complement, encode_start_dest, encode_position_linear):
            with pytest.raises(ValueError, match="^the encoding's penalty needs a weight: set lambda or lambda_ratio$"):
                encode(problem)

    @pytest.mark.parametrize("weights, message", [
        ({"lambda_": -1.0}, "need a finite lambda >= 0, got -1.0"),
        ({"lambda_": float("inf")}, "need a finite lambda >= 0, got inf"),
        ({"lambda_ratio": float("nan")}, "need a finite lambda_ratio >= 0, got nan"),
    ])
    def test_penalty_weight_is_finite_and_non_negative(self, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FacilityProblem(("line", 5), 1, **weights)
        assert FacilityProblem(("line", 5), 1, **{key: 0.0 for key in weights}).penalty_weight() == 0.0

    def test_degenerate_geometry(self):
        problem = FacilityProblem(("grid", 1, 1), 1, lambda_=1.0)
        model, enc = encode_start_dest(problem)
        assert model.n == 2
        assert is_feasible(enc, "11")
