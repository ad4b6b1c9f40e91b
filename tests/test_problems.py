"""Tests for the facility-location encoders and their feasibility metadata."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from quambo.qubo import CapacityError, QuboModel, energies_at, energy_qubo
from references import reference_feasible_energies, reference_feasible_indices, string_from_index

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


@st.composite
def sector_problems(draw):
    """(encoder, problem) over every encoder, metric and penalty form; a weight of eighths, or any float."""
    encoder = draw(st.sampled_from([encode_single_complement, encode_position_linear, encode_start_dest]))
    geometry = draw(st.sampled_from([("line", 2), ("line", 3), ("line", 5), ("grid", 2, 2), ("grid", 2, 3)]))
    locations = math.prod(geometry[1:])
    # at most 2 start/destination ambulances: 3 on 6 sites are 4 009 824 feasible states
    most = {encode_single_complement: 1, encode_position_linear: 3, encode_start_dest: 2}[encoder]
    m = draw(st.integers(1, min(locations, most)))
    forbid = encoder is encode_start_dest and draw(st.booleans())
    weight = draw(st.one_of(st.integers(0, 800).map(lambda k: k / 8), st.floats(0, 100)))
    key = draw(st.sampled_from(["lambda_", "lambda_ratio"]))
    problem = FacilityProblem(geometry, m, draw(st.sampled_from(problems.METRICS)), forbid_colocation=forbid,
                              **{key: weight})
    return encoder, problem


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

    def test_a_state_is_a_bitstring_or_a_0_1_sequence(self):
        _, enc = encode_single_complement(FacilityProblem(("line", 3), 1, lambda_=1.0))
        assert decode_solution(enc, [1, 1, 0]) == decode_solution(enc, "110") == 5.0
        assert decode_solution(enc, np.array([0, 1, 1])) == decode_solution(enc, "011") == 5.0
        assert is_feasible(enc, (1, 0, 1)) and not is_feasible(enc, [1, 1, 1])
        with pytest.raises(ValueError, match=re.escape("need a state of bits 0/1, got [2, -1, 1]")):
            is_feasible(enc, [2, -1, 1])
        with pytest.raises(ValueError, match=re.escape("cannot decode infeasible state [1, 1, 1]")):
            decode_solution(enc, [1, 1, 1])

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

    @pytest.mark.parametrize("geometry, m", [(("line", 4), 2), (("grid", 2, 2), 2), (("line", 3), 3), (("line", 3), 1)])
    def test_decode_equals_the_per_site_loop(self, geometry, m):
        """Each site's distance to the start of the one ambulance that serves it, summed site by site."""
        _, enc = encode_start_dest(FacilityProblem(geometry, m, lambda_=1.0))
        L = enc.problem.num_locations

        def reference(bits):
            positions = [bits[a * L:(a + 1) * L].index(1) for a in range(m)]
            total = 0
            for l in range(L):
                servers = [a for a in range(m) if bits[m * L + a * L + l]]
                if len(servers) != 1:
                    return None
                total += enc.distances[positions[servers[0]], l]
            return float(total)

        for index in feasible_indices(enc):
            s = string_from_index(int(index), enc.n)
            want = reference([int(c) for c in s])
            if want is None:
                with pytest.raises(ValueError, match="are not served exactly once in"):
                    decode_solution(enc, s)
            else:
                assert decode_solution(enc, s) == want

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

    def test_decode_sums_each_ambulance_field(self):
        problem = FacilityProblem(("line", 4), 2)
        model, enc = encode_position_linear(problem, include_penalty=False)
        for s in ("1001", "0110", "1100", [0, 0, 1, 1]):
            ambulances = [i for i in range(4) if int(s[i]) == 1]
            assert decode_solution(enc, s) == sum(model.linear[i] for i in ambulances)
        assert decode_solution(enc, "1001") == 28.0
        with pytest.raises(ValueError, match="^cannot decode infeasible state '1000'$"):
            decode_solution(enc, "1000")

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
        enc.n = 7
        assert feasible_indices(enc).tolist() == list(reference_feasible_indices(enc)) == [108, 116, 120]
        assert enc.sector_order.tolist() == [0, 1, 2]

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

    @pytest.mark.parametrize("encoder, geometry, m, forbid", [
        *[(encode_single_complement, geometry, 1, False) for geometry in (("line", 3), ("line", 5), ("grid", 2, 3))],
        *[(encode_position_linear, geometry, m, False) for geometry, m in
          ((("line", 4), 2), (("grid", 2, 2), 1), (("grid", 2, 3), 3))],
        *[(encode_start_dest, geometry, m, forbid) for geometry, m in
          ((("line", 3), 2), (("line", 4), 1), (("grid", 2, 2), 2), (("grid", 2, 3), 2)) for forbid in (False, True)],
    ])
    def test_energies_equal_the_numeric_penalty_floor(self, encoder, geometry, m, forbid):
        """The encoder's sector_shift gives the energies that subtracting min(model - objective) gave:
        bitwise when the distances and the weight are exact binary fractions, within 1e-12 otherwise."""
        for metric in problems.METRICS:
            for weight in ({"lambda_": 40.0}, {"lambda_ratio": 1.0}, {"lambda_ratio": 2.5}, {"lambda_": 0.1}):
                problem = FacilityProblem(geometry, m, metric, forbid_colocation=forbid, **weight)
                model, enc = encoder(problem)
                indices, energies = feasible_sector(model, enc)
                want_indices, want = reference_feasible_energies(model, enc)
                assert np.array_equal(indices, want_indices)
                if np.all(np.append(distance_matrix(problem), problem.penalty_weight()) * 2 % 1 == 0):
                    assert energies.tobytes() == want.tobytes(), (metric, weight)
                else:
                    np.testing.assert_allclose(energies, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @given(sector_problems())
    @settings(max_examples=80, deadline=None)
    def test_block_tables_equal_one_energy_pass(self, drawn):
        """feasible_sector's energies against one energies_at pass over the sector: bitwise for one block, and
        wherever the distances and the weight are exact binary fractions; within 1e-12 of the largest otherwise."""
        encoder, problem = drawn
        model, enc = encoder(problem)
        indices, energies = feasible_sector(model, enc)
        want = energies_at(model, enc.sector) + enc.sector_shift
        assert indices is enc.sector
        if len(enc.hamming_targets) == 1 or np.all(np.append(enc.distances, problem.penalty_weight()) * 8 % 1 == 0):
            assert energies.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(energies, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @given(sector_problems())
    @settings(max_examples=60, deadline=None)
    def test_sector_order_is_the_argsort_of_the_sector(self, drawn):
        """The blocks' own argsorts at their sector strides are the one permutation that sorts the distinct indices."""
        encoder, problem = drawn
        _, enc = encoder(problem)
        assert np.array_equal(enc.sector_order, np.argsort(enc.sector))
        assert enc.sector_order.dtype == np.intp and not enc.sector_order.flags.writeable

    def test_an_int_offset_gives_float_energies(self):
        _, enc = encode_start_dest(FacilityProblem(("line", 3), 2, lambda_=1.0))  # three blocks
        model = QuboModel(enc.n, {0: 1.0, 7: 0.5}, {(1, 8): 2.0}, offset=1)
        indices, energies = feasible_sector(model, enc)
        assert energies.dtype == np.float64
        assert energies.tobytes() == (energies_at(model, indices) + enc.sector_shift).tobytes()

    def test_block_masks_are_built_once_and_shared(self, monkeypatch):
        model, enc = encode_start_dest(FacilityProblem(("grid", 2, 2), 2, lambda_ratio=1.0))
        masks = enc.block_masks
        assert [m.tolist() for m in masks] == [[1, 2, 4, 8], [16, 32, 64, 128],
                                               [sum(1 << (8 + q) for q in ones)
                                                for ones in itertools.combinations(range(8), 4)]]
        assert all(not m.flags.writeable for m in masks)
        monkeypatch.setattr(problems, "itertools", None)  # neither the sector nor the tables list choices again
        assert enc.sector.tolist() == list(reference_feasible_indices(enc))
        feasible_sector(model, enc)
        assert enc.block_masks is masks

    def test_sector_is_built_once_per_encoding(self, monkeypatch):
        calls = []
        original = problems.feasible_indices
        monkeypatch.setattr(problems, "feasible_indices", lambda enc: calls.append(enc) or original(enc))
        _, enc = encode_start_dest(FacilityProblem(("line", 4), 2, lambda_ratio=0.5))
        heavy, own = encode_start_dest(FacilityProblem(("line", 4), 2, lambda_ratio=4.0))
        indices = enc.sector
        assert enc.sector is indices and not indices.flags.writeable
        assert indices.tolist() == list(reference_feasible_indices(enc))
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

    @pytest.mark.parametrize("args, message", [
        ((("grid", -1, -3),), "a grid geometry needs rows, cols (ints >= 1), got (-1, -3)"),
        ((("line", 3, 4),), "a line geometry needs cols (ints >= 1), got (3, 4)"),
        ((("grid", 3),), "a grid geometry needs rows, cols (ints >= 1), got (3,)"),
        ((("line", 0),), "a line geometry needs cols (ints >= 1), got (0,)"),
        ((("line", 2.0),), "a line geometry needs cols (ints >= 1), got (2.0,)"),
        ((("circle", 3),), "unknown geometry ('circle', 3)"),
        ((("line", 3), 1, "taxicab"), "unknown metric 'taxicab'; valid metrics: squared-euclidean, euclidean, manhattan"),
        ((("line", 3), 4), "need num_locations >= ambulances >= 1"),
        ((("grid", 2, 2), 0), "need num_locations >= ambulances >= 1"),
    ])
    def test_bad_problem_is_refused(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FacilityProblem(*args)

    def test_geometry_sizes_may_be_numpy_ints(self):
        problem = FacilityProblem(("grid", np.int64(2), np.int64(3)), 2)
        assert problem.num_locations == 6
        assert problem.coordinates().tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
        assert FacilityProblem(("line", 3)).coordinates().tolist() == [[0, 0], [1, 0], [2, 0]]

    def test_degenerate_geometry(self):
        problem = FacilityProblem(("grid", 1, 1), 1, lambda_=1.0)
        model, enc = encode_start_dest(problem)
        assert model.n == 2
        assert is_feasible(enc, "11")
