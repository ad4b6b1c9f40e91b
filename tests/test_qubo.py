"""Tests for QUBO / Ising models, conversion and spectrum enumeration."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quambo.anneal import AnnealSchedule, simulate_reverse_anneal
from quambo.problems import (
    FacilityProblem,
    decode_solution,
    encode_single_complement,
    feasible_sector,
    feasible_spectrum,
    is_feasible,
)
from quambo.qubo import (
    ENERGY_CHUNK,
    CapacityError,
    IsingModel,
    QuboModel,
    bits_of,
    block_energies,
    energies_at,
    energy_qubo,
    energy_vector,
    enumerate_spectrum,
    index_from_string,
    model_to_text,
    qubo_to_ising,
    strings_from_bits,
    strings_from_indices,
)

from quambo.simulator import basis_state

from references import reference_energy_ising, string_from_index


def problem_a(lam):
    problem = FacilityProblem(("line", 5), ambulances=1, lambda_=lam)
    model, _ = encode_single_complement(problem)
    return model


def random_qubo(n, rng):
    linear = {i: float(rng.normal()) for i in range(n)}
    quadratic = {(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n)}
    return QuboModel(n=n, linear=linear, quadratic=quadratic, offset=float(rng.normal()))


def reference_energy(model, index):
    """Per-state loop over the terms, in the kernel's order: the reference for energies_at."""
    e = model.offset
    for i, c in model.linear.items():
        e += c * ((index >> i) & 1)
    for (i, j), c in model.quadratic.items():
        e += c * ((index >> i) & 1) * ((index >> j) & 1)
    return float(e)


COEFFICIENTS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def qubo_models(draw, max_n=10):
    """QUBOs with float coefficients, terms in arbitrary dict order."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    linear = draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1), COEFFICIENTS))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    quadratic = draw(st.dictionaries(st.sampled_from(pairs), COEFFICIENTS)) if pairs else {}
    return QuboModel(n=n, linear=linear, quadratic=quadratic, offset=draw(COEFFICIENTS))


class TestEnergyKernel:
    @given(qubo_models(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_evaluator_equals_reference(self, model, data):
        dim = 1 << model.n
        reference = np.array([reference_energy(model, i) for i in range(dim)])
        assert np.array_equal(energy_vector(model), reference)
        indices = data.draw(st.lists(st.integers(min_value=0, max_value=dim - 1), max_size=20))
        assert np.array_equal(energies_at(model, np.array(indices, dtype=np.int64)), reference[indices])
        for i in indices:
            assert energy_qubo(model, string_from_index(i, model.n)) == reference[i]

    @given(qubo_models(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ising_evaluators_equal_the_per_state_loop(self, model, data):
        ising = IsingModel(model.n, h=model.linear, J=model.quadratic, offset=model.offset)
        dim = 1 << model.n
        spins = [1 - 2 * bits_of(string_from_index(i, model.n), model.n) for i in range(dim)]
        reference = np.array([reference_energy_ising(ising, z) for z in spins])
        assert np.array_equal(energy_vector(ising), reference)
        indices = data.draw(st.lists(st.integers(min_value=0, max_value=dim - 1), max_size=20))
        assert np.array_equal(energies_at(ising, np.array(indices, dtype=np.int64)), reference[indices])

    @given(qubo_models())
    @settings(max_examples=40, deadline=None)
    def test_ising_round_trip_through_energy_vector(self, model):
        scale = max(1.0, abs(model.offset) + sum(map(abs, model.linear.values()))
                    + sum(map(abs, model.quadratic.values())))
        qubo = energy_vector(model)
        ising = qubo_to_ising(model)
        assert np.abs(energy_vector(ising) - qubo).max() <= 1e-9 * scale

    @pytest.mark.parametrize("length", [0, 1, ENERGY_CHUNK - 1, ENERGY_CHUNK, ENERGY_CHUNK + 1, 2 * ENERGY_CHUNK + 3])
    @pytest.mark.parametrize("kind", ["qubo", "ising"])
    @pytest.mark.parametrize("offset", [0.0, -0.0])
    @pytest.mark.parametrize("quadratic_values", [(-0.5, -3.0), (-0.5, 0.25, -3.0)])
    def test_chunks_equal_the_per_state_loop_bitwise(self, length, kind, offset, quadratic_values):
        """Every chunk boundary, with negative coefficients and a zero offset: signed zeros must match too.

        With offset -0.0 and only negative coefficients, the QUBO energy of the
        all-zero state is -0.0; a positive coefficient adds +0.0 and makes it +0.0.
        """
        rng = np.random.default_rng([length, len(quadratic_values)])
        n = 13
        linear = {i: -float(rng.integers(1, 4)) for i in range(0, n, 2)}
        quadratic = {(i, j): float(rng.choice(quadratic_values)) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3}
        indices = rng.integers(0, 1 << n, size=length)
        indices[:1] = 0
        if kind == "qubo":
            model = QuboModel(n, linear, quadratic, offset)
            reference = [reference_energy(model, int(i)) for i in indices]
        else:
            model = IsingModel(n, h=linear, J=quadratic, offset=offset)
            reference = [reference_energy_ising(model, 1 - 2 * ((int(i) >> np.arange(n)) & 1)) for i in indices]
        got = energies_at(model, indices)
        assert got.shape == (length,) and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), np.array(reference, dtype=float).view(np.int64))
        if kind == "qubo" and length:
            assert got[0] == 0.0 and np.signbit(got[0]) == (np.signbit(offset) and max(quadratic_values) < 0)
        # the strided diagonal: every state's bits, those of the all-zero state's signed zero too
        diagonal = energy_vector(model)
        assert np.array_equal(diagonal.view(np.int64), energies_at(model, np.arange(1 << n)).view(np.int64))
        assert np.array_equal(diagonal[indices].view(np.int64), got.view(np.int64))

    @pytest.mark.parametrize("kind", ["qubo", "ising"])
    def test_object_indices_beyond_63_bits_take_the_chunked_path(self, kind):
        rng = np.random.default_rng(8)
        n = 70
        linear = {i: float(rng.normal()) for i in (0, 5, 63, 69)}
        quadratic = {(0, 69): -5.0, (5, 64): 0.75, (62, 63): -1.25}
        indices = np.array([int(rng.integers(0, 1 << 62)) << 8 | int(rng.integers(0, 256))
                            for _ in range(ENERGY_CHUNK + 5)], dtype=object)
        if kind == "qubo":
            model = QuboModel(n, linear, quadratic, -0.0)
            reference = [reference_energy(model, i) for i in indices]
        else:
            model = IsingModel(n, h=linear, J=quadratic, offset=-0.0)
            reference = [reference_energy_ising(model, [1 - 2 * ((i >> q) & 1) for q in range(n)]) for i in indices]
        assert np.array_equal(energies_at(model, indices).view(np.int64), np.array(reference).view(np.int64))

    def test_indices_beyond_63_bits(self):
        model = QuboModel(n=100, linear={99: 2.0}, quadratic={(0, 99): -5.0}, offset=1.0)
        assert energy_qubo(model, "1" + "0" * 98 + "1") == -2.0

    def test_cached_diagonal(self):
        model = random_qubo(5, np.random.default_rng(3))
        for m in (model, qubo_to_ising(model)):
            assert m.diagonal is m.diagonal
            assert np.array_equal(m.diagonal, energy_vector(m))
            assert not m.diagonal.flags.writeable

    def test_cached_dense_form_is_read_only(self):
        model = random_qubo(5, np.random.default_rng(4))
        lin, W = model.dense
        assert model.dense[1] is W
        assert np.array_equal(W, W.T)
        with pytest.raises(ValueError, match="read-only"):
            W[0, 1] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            lin[0] += 1.0

    def test_non_binary_assignment(self):
        with pytest.raises(ValueError):
            energy_qubo(QuboModel(n=2, linear={0: 1.0}), [2, 0])


class TestBlockEnergies:
    """block_energies against one energies_at pass over the outer sum of the blocks' index sets."""

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_integer_models_equal_one_pass_bitwise(self, seed, descend):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        cuts = np.unique(rng.integers(1, n, size=int(rng.integers(0, 4)))).tolist() if n > 1 else []
        ranges = list(zip([0, *cuts], [*cuts, n]))[::-1 if descend else 1]  # the X engine's blocks descend
        masks = [rng.choice(1 << (hi - lo), size=int(rng.integers(1, 1 + (1 << (hi - lo)))), replace=False) << lo
                 for lo, hi in ranges]
        model = QuboModel(n, {i: int(rng.integers(-9, 10)) for i in range(n)},
                          {(i, j): int(rng.integers(-9, 10)) for i in range(n) for j in range(i + 1, n)},
                          int(rng.integers(-9, 10)))
        index = masks[0]
        for mask in masks[1:]:
            index = np.add.outer(index, mask).reshape(-1)
        assert block_energies(model, ranges, masks).tobytes() == energies_at(model, index).tobytes()
        # one row per block: each term in the row of the lowest block it touches, the offset in block 0's
        block = {q: b for b, (lo, hi) in enumerate(ranges) for q in range(lo, hi)}
        families = [energies_at(QuboModel(n, {i: c for i, c in model.linear.items() if block[i] == f},
                                          {(i, j): c for (i, j), c in model.quadratic.items()
                                           if min(block[i], block[j]) == f},
                                          model.offset if f == 0 else 0.0), index) for f in range(len(ranges))]
        assert block_energies(model, ranges, masks, len(ranges)).tobytes() == np.array(families).tobytes()


class TestEnergyQubo:
    def test_problem_a_lam10(self):
        assert energy_qubo(problem_a(10), "11111") == -200

    def test_problem_a_lam20(self):
        assert energy_qubo(problem_a(20), "11011") == -360

    def test_all_zeros_is_offset(self):
        model = QuboModel(n=3, linear={0: 2.0}, quadratic={(0, 1): 5.0}, offset=7.5)
        assert energy_qubo(model, "000") == 7.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            energy_qubo(problem_a(10), "111")

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(3)
        model = random_qubo(4, rng)
        scaled = QuboModel(
            n=4,
            linear={k: 3.0 * v for k, v in model.linear.items()},
            quadratic={k: 3.0 * v for k, v in model.quadratic.items()},
        )
        base = QuboModel(n=4, linear=model.linear, quadratic=model.quadratic)
        for idx in range(16):
            s = string_from_index(idx, 4)
            assert energy_qubo(scaled, s) == pytest.approx(3.0 * energy_qubo(base, s))


class TestEnergyIsing:
    """Spin z_i = 1 - 2 s_i, so z = (1, 1) is basis index 0 and z = (-1, -1) is index 3."""

    def test_two_fields(self):
        model = IsingModel(n=2, h={0: -1.0, 1: -1.0})
        assert energies_at(model, [0]).tolist() == [-2.0]

    def test_appendix_edge_values(self):
        model = IsingModel(n=2, J={(0, 1): 0.25}, h={0: -0.25, 1: -0.25}, offset=0.25)
        assert energies_at(model, [3]).tolist() == [1.0]


class TestConversion:
    def test_single_edge_mapping(self):
        model = QuboModel(n=2, quadratic={(0, 1): 1.0})
        ising = qubo_to_ising(model)
        assert ising.J == {(0, 1): 0.25}
        assert ising.h == {0: -0.25, 1: -0.25}
        assert ising.offset == 0.25

    def test_linear_only(self):
        ising = qubo_to_ising(QuboModel(n=1, linear={0: 3.0}))
        assert ising.h == {0: -1.5}
        assert ising.offset == 1.5

    def test_problem_a_term_count(self):
        ising = qubo_to_ising(problem_a(40))
        assert len(ising.J) + len(ising.h) == 15

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_exhaustive_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        model = random_qubo(n, rng)
        ising = qubo_to_ising(model)
        for idx in range(1 << n):
            s = string_from_index(idx, n)
            z = 1 - 2 * bits_of(s, n)
            assert reference_energy_ising(ising, z) == pytest.approx(energy_qubo(model, s), abs=1e-12)


class TestSpectrum:
    def test_problem_a_two_lowest(self):
        entries = enumerate_spectrum(problem_a(10))
        assert entries[0].energy == -200
        assert sorted(entries[0].states) == ["11011", "11111"]

    def test_single_variable(self):
        entries = enumerate_spectrum(QuboModel(n=1, linear={0: -3.0}))
        assert [(e.energy, e.states) for e in entries] == [(-3.0, ["1"]), (0.0, ["0"])]

    def test_covers_all_states(self):
        rng = np.random.default_rng(11)
        model = random_qubo(6, rng)
        entries = enumerate_spectrum(model)
        assert sum(len(e.states) for e in entries) == 64

    def test_cap(self):
        with pytest.raises(CapacityError):
            enumerate_spectrum(QuboModel(n=27))

    @pytest.mark.parametrize("n", range(1, 25))
    def test_strings_from_bit_table(self, n):
        indices = np.random.default_rng(n).integers(0, 1 << n, size=50)
        assert strings_from_indices(indices, n) == [string_from_index(int(i), n) for i in indices]

    def test_strings_beyond_63_bits(self):
        indices = [1 << 69, (1 << 70) - 1, 5]
        assert strings_from_indices(indices, 70) == [string_from_index(i, 70) for i in indices]

    def test_rounding_does_not_split_a_level(self):
        # sqrt distances summed in different orders: the four edge-centre
        # placements of a 3x3 grid differ by ~1e-13
        problem = FacilityProblem(("grid", 3, 3), 1, metric="euclidean", lambda_=10.0)
        spectrum = feasible_spectrum(*encode_single_complement(problem))
        assert [len(e.states) for e in spectrum] == [1, 4, 4]


def state_entry_points():
    """Every function that takes one state, as a function of that state on the 3-site complement encoding."""
    model, enc = encode_single_complement(FacilityProblem(("line", 3), 1, lambda_=1.0))
    ising, schedule = qubo_to_ising(model), AnnealSchedule("reverse", T=1.0, steps=2)
    return {
        "bits_of": lambda s: bits_of(s, 3),
        "index_from_string": lambda s: index_from_string(s, 3),
        "energy_qubo": lambda s: energy_qubo(model, s),
        "is_feasible": lambda s: is_feasible(enc, s),
        "decode_solution": lambda s: decode_solution(enc, s),
        "basis_state": lambda s: basis_state(3, s),
        "simulate_reverse_anneal": lambda s: simulate_reverse_anneal(ising, s, schedule),
    }


class TestStateCodec:
    @pytest.mark.parametrize("entry", list(state_entry_points()))
    @pytest.mark.parametrize("state, message", [
        ("11", "need a state of 3 bits, got 2: '11'"),
        ("1101", "need a state of 3 bits, got 4: '1101'"),
        ([1, 1, 0, 1], "need a state of 3 bits, got 4: [1, 1, 0, 1]"),
        ((), "need a state of 3 bits, got 0: ()"),
        ([[1, 1, 0]], "need a state of 3 bits, got 3: [[1, 1, 0]]"),
        ("1x0", "need a state of bits 0/1, got '1x0'"),
        ("120", "need a state of bits 0/1, got '120'"),
        ([2, -1, 1], "need a state of bits 0/1, got [2, -1, 1]"),
        (np.array([1, 0, 3]), "need a state of bits 0/1, got array([1, 0, 3])"),
        ([1.0, 0.5, 0.0], "need a state of bits 0/1, got [1.0, 0.5, 0.0]"),
        (["1", "1", "0"], "need a state of bits 0/1, got ['1', '1', '0']"),
    ])
    def test_every_entry_point_refuses_a_bad_state_with_one_message(self, entry, state, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            state_entry_points()[entry](state)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_parser_and_renderer_round_trip(self, n):
        strings = [string_from_index(i, n) for i in range(1 << n)]
        table = np.array([bits_of(s, n) for s in strings])
        assert table.dtype == np.int8
        assert np.array_equal(table, [bits_of(list(map(int, s)), n) for s in strings])
        assert np.array_equal(table, [bits_of(np.array([c == "1" for c in s]), n) for s in strings])
        assert strings_from_bits(table) == strings == strings_from_indices(np.arange(1 << n), n)
        assert [index_from_string(s) for s in strings] == list(range(1 << n))

    def test_parsed_bits_do_not_alias_the_input(self):
        given = np.array([0, 1, 1], dtype=np.int8)
        bits_of(given, 3)[0] = 1
        assert given.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("rows, n", [(1, 5), (150, 100), (200, 16)])
    def test_renderer_joins_each_row(self, rows, n):
        table = np.random.default_rng(rows).random((rows, n)) < 0.5
        assert strings_from_bits(table) == ["".join("1" if b else "0" for b in row) for row in table]


class TestModelKeys:
    @pytest.mark.parametrize("kind, terms, message", [
        (QuboModel, {"linear": {2: 1.0}}, "linear index 2 out of range for n=2"),
        (QuboModel, {"linear": {-1: 1.0}}, "linear index -1 out of range for n=2"),
        (QuboModel, {"quadratic": {(1, 0): 1.0}}, "quadratic key (1, 0) not strictly upper triangular"),
        (QuboModel, {"quadratic": {(0, 0): 1.0}}, "quadratic key (0, 0) not strictly upper triangular"),
        (QuboModel, {"quadratic": {(0, 2): 1.0}}, "quadratic key (0, 2) not strictly upper triangular"),
        (IsingModel, {"h": {2: 1.0}}, "field index 2 out of range for n=2"),
        (IsingModel, {"J": {(1, 0): 1.0}}, "coupling key (1, 0) not strictly upper triangular"),
        (IsingModel, {"J": {(-1, 1): 1.0}}, "coupling key (-1, 1) not strictly upper triangular"),
    ])
    def test_keys_out_of_range_or_below_the_diagonal_are_refused(self, kind, terms, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kind(n=2, **terms)

    @pytest.mark.parametrize("kind, n, message", [
        (QuboModel, 0, "need n >= 1 variables, got n=0"),
        (QuboModel, -2, "need n >= 1 variables, got n=-2"),
        (IsingModel, 0, "need n >= 1 spins, got n=0"),
    ])
    def test_a_model_without_variables_is_refused(self, kind, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kind(n=n)


class TestSpectrumSubset:
    @pytest.mark.parametrize("given", ["states", "energies"])
    def test_states_and_energies_come_together(self, given):
        model, enc = encode_single_complement(FacilityProblem(("line", 4), 1, lambda_=1.0))
        subset = dict(zip(("states", "energies"), feasible_sector(model, enc)))
        with pytest.raises(ValueError, match="^pass states and energies together, or neither$"):
            enumerate_spectrum(model, **{given: subset[given]})
        assert [sorted(e.states) for e in enumerate_spectrum(model, **subset)] == [["1011", "1101"], ["0111", "1110"]]


class TestSerialization:
    def test_expected_lines(self):
        text = model_to_text(QuboModel(n=2, linear={1: -1.0}, quadratic={(0, 1): 2.0}, offset=0.5))
        assert "n 2" in text
        assert "lin 1 -1.0" in text
        assert "quad 0 1 2.0" in text
