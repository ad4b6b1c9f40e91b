"""Tests for the exact statevector simulator and the gate references built on it."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quambo.qubo import CapacityError, IsingModel, QuboModel, energy_vector
from quambo.simulator import (
    SampleSet,
    StateVector,
    apply_local_unitary,
    apply_phase_vector,
    apply_x_mixer,
    basis_state,
    sample,
    sample_indices,
    uniform_state,
    xy_ring_eigensystem,
)

from references import apply_cnot, apply_ry, apply_xy_ring_mixer, masked_uniform_state, string_from_index


def norm(state):
    return float(np.linalg.norm(state.amplitudes))


class TestPreparation:
    def test_uniform_one_qubit(self):
        state = uniform_state(1)
        assert np.allclose(state.amplitudes, [2**-0.5, 2**-0.5])

    def test_uniform_five_qubits(self):
        state = uniform_state(5)
        assert np.allclose(state.amplitudes, 32**-0.5)

    def test_cap(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                uniform_state(25)
            for state in (0, "0" * 25):
                with pytest.raises(CapacityError, match="^n=25 exceeds statevector cap 24$"):
                    basis_state(25, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # refused before the 2^n amplitudes are allocated

    @pytest.mark.parametrize("state, message", [
        ("01", "need a state of 3 bits, got 2: '01'"),
        ("0x1", "need a state of bits 0/1, got '0x1'"),
        ([1, 2, 0], "need a state of bits 0/1, got [1, 2, 0]"),
        (-1, "need a basis index 0 <= index < 8, got -1"),
        (8, "need a basis index 0 <= index < 8, got 8"),
        (np.int64(9), "need a basis index 0 <= index < 8, got 9"),
    ])
    def test_basis_state_refuses_a_state_outside_the_register(self, state, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            basis_state(3, state)

    def test_basis_state_forms_agree(self):
        for index in range(8):
            s = string_from_index(index, 3)
            want = np.eye(8)[index]
            for state in (index, np.int64(index), s, [int(c) for c in s], np.array([c == "1" for c in s])):
                assert np.array_equal(basis_state(3, state).amplitudes, want)

    def test_state_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^amplitude array has wrong length$"):
            StateVector(2, np.zeros(3, dtype=complex))


class TestPhaseSeparator:
    def test_gamma_zero_identity(self):
        state = uniform_state(3)
        before = state.amplitudes.copy()
        apply_phase_vector(state, energy_vector(QuboModel(n=3, linear={0: 1.0})), 0.0)
        assert np.allclose(state.amplitudes, before)

    def test_zz_phase_pattern(self):
        w, g = 0.7, 0.3
        state = uniform_state(2)
        apply_phase_vector(state, energy_vector(IsingModel(n=2, J={(0, 1): w})), g)
        expected = 0.5 * np.exp(-1j * g * w * np.array([1, -1, -1, 1]))
        assert np.allclose(state.amplitudes, expected)

    def test_magnitudes_preserved(self):
        rng = np.random.default_rng(0)
        state = uniform_state(4)
        model = QuboModel(n=4, linear={1: 2.0}, quadratic={(0, 3): -1.0})
        before = np.abs(state.amplitudes.copy())
        apply_phase_vector(state, energy_vector(model), float(rng.normal()))
        assert np.allclose(np.abs(state.amplitudes), before)

    def test_inverse_restores(self):
        state = uniform_state(4)
        model = QuboModel(n=4, quadratic={(0, 1): 3.0, (2, 3): -2.0})
        before = state.amplitudes.copy()
        apply_phase_vector(state, energy_vector(model), 1.234)
        apply_phase_vector(state, energy_vector(model), -1.234)
        assert np.abs(state.amplitudes - before).max() < 1e-12


class TestXMixer:
    def test_beta_zero_identity(self):
        state = basis_state(3, "010")
        before = state.amplitudes.copy()
        apply_x_mixer(state, 0.0)
        assert np.allclose(state.amplitudes, before)

    def test_uniform_is_eigenstate(self):
        state = uniform_state(3)
        apply_x_mixer(state, 0.8)
        probs = state.probabilities()
        assert np.allclose(probs, 1 / 8)

    def test_half_pi_flip(self):
        state = basis_state(1, "0")
        apply_x_mixer(state, np.pi / 2)
        assert abs(state.amplitudes[0]) < 1e-12
        assert state.amplitudes[1] == pytest.approx(-1j)


class TestXYRingMixer:
    def test_two_qubit_analytic(self):
        beta = 0.4
        state = basis_state(2, "01")
        apply_xy_ring_mixer(state, [0, 1], beta)
        idx01 = 0b10  # qubit 1 set
        idx10 = 0b01  # qubit 0 set
        assert abs(state.amplitudes[idx01]) ** 2 == pytest.approx(np.cos(beta) ** 2)
        assert abs(state.amplitudes[idx10]) ** 2 == pytest.approx(np.sin(beta) ** 2)

    def test_weight_sector_preserved(self):
        state = masked_uniform_state(4, [((0, 4), 2)])  # the weight-2 Dicke state
        apply_xy_ring_mixer(state, [0, 1, 2, 3], 1.3)
        outside = np.bitwise_count(np.arange(16)) != 2
        assert np.abs(state.amplitudes[outside]).max() < 1e-12

    def test_beta_zero_identity(self):
        state = masked_uniform_state(5, [((0, 5), 2)])
        before = state.amplitudes.copy()
        apply_xy_ring_mixer(state, [0, 1, 2, 3, 4], 0.0)
        assert np.abs(state.amplitudes - before).max() < 1e-12

    def test_pair_periodicity(self):
        beta = 0.37
        a = basis_state(2, "01")
        b = basis_state(2, "01")
        apply_xy_ring_mixer(a, [0, 1], beta)
        apply_xy_ring_mixer(b, [0, 1], beta + np.pi)
        assert np.allclose(np.abs(a.amplitudes), np.abs(b.amplitudes), atol=1e-12)

    def test_ring_cap(self):
        with pytest.raises(ValueError):
            apply_xy_ring_mixer(uniform_state(14), list(range(13)), 0.1)

    @pytest.mark.parametrize("m, weight", [(13, None), (15, 7), (25, 1)])
    def test_ring_cap_is_a_capacity_error_before_allocating(self, m, weight):
        message = {13: "8192 states of a 13-qubit ring exceed the XY ring cap 4096",
                   15: "6435 states of a 15-qubit ring exceed the XY ring cap 4096",
                   25: "n=25 exceeds statevector cap 24"}[m]
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"^{message}$"):
                xy_ring_eigensystem(m, weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_ring_of_one_is_not_a_capacity_error(self):
        with pytest.raises(ValueError, match="length >= 2") as info:
            xy_ring_eigensystem(1)
        assert not isinstance(info.value, CapacityError)


class TestLocalUnitary:
    def test_identity(self):
        state = uniform_state(3)
        before = state.amplitudes.copy()
        apply_local_unitary(state, [1], np.eye(2, dtype=complex))
        assert np.allclose(state.amplitudes, before)

    def test_x_on_qubit0(self):
        state = basis_state(2, "00")
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        apply_local_unitary(state, [0], X)
        assert state.amplitudes[0b01] == 1.0  # rendered "10"

    def test_disjoint_unitaries_commute(self):
        rng = np.random.default_rng(7)

        def random_unitary():
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            return q

        u0, u2 = random_unitary(), random_unitary()
        a = uniform_state(3)
        apply_phase_vector(a, energy_vector(QuboModel(n=3, linear={1: 1.0})), 0.7)
        b = StateVector(3, a.amplitudes.copy())
        apply_local_unitary(a, [0], u0)
        apply_local_unitary(a, [2], u2)
        apply_local_unitary(b, [2], u2)
        apply_local_unitary(b, [0], u0)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12

    @pytest.mark.parametrize("qubits", [[3], [0, -1]])
    def test_qubit_outside_register_rejected(self, qubits):
        # a negative or too-large qubit must not wrap round to another axis
        with pytest.raises(ValueError, match="outside"):
            apply_local_unitary(uniform_state(3), qubits, np.eye(1 << len(qubits), dtype=complex))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_local_unitary(uniform_state(2), [0], np.array([[1, 0], [0, 2]], dtype=complex))


class TestGates:
    def test_ry_zero_identity(self):
        state = uniform_state(2)
        before = state.amplitudes.copy()
        apply_ry(state, 0, 0.0)
        assert np.allclose(state.amplitudes, before)

    def test_ry_pi_flips(self):
        state = basis_state(1, "0")
        apply_ry(state, 0, np.pi)
        assert state.amplitudes[1] == pytest.approx(1.0)

    def test_cnot(self):
        state = basis_state(2, "10")
        apply_cnot(state, 0, 1)
        assert state.amplitudes[0b11] == 1.0

    def test_cnot_control_clear(self):
        state = basis_state(2, "01")
        apply_cnot(state, 0, 1)
        assert state.amplitudes[0b10] == 1.0

    def test_equal_control_target(self):
        with pytest.raises(ValueError):
            apply_cnot(uniform_state(2), 1, 1)


class TestExpectationAndSampling:
    def test_basis_state_sampling(self):
        counts = sample(basis_state(3, "010"), 50, seed=1)
        assert counts.counts == {"010": 50}

    def test_uniform_frequencies(self):
        counts = sample(uniform_state(2), 10**5, seed=9)
        sigma = (0.25 * 0.75 / 10**5) ** 0.5
        for s in ("00", "01", "10", "11"):
            assert abs(counts.counts[s] / 10**5 - 0.25) < 5 * sigma

    def test_sampling_deterministic(self):
        state = uniform_state(3)
        assert sample(state, 1000, seed=5).counts == sample(state, 1000, seed=5).counts

    def test_sampleset_consistency(self):
        with pytest.raises(ValueError):
            SampleSet(counts={"00": 3}, shots=4)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sample_renders_one_multinomial_draw(self, dtype):
        rng = np.random.default_rng(12)
        amps = rng.normal(size=64).astype(dtype)
        state = StateVector(6, amps / np.linalg.norm(amps))
        probs = np.abs(state.amplitudes) ** 2
        want = np.random.default_rng(31).multinomial(700, probs / probs.sum())
        draws = sample_indices(state.probabilities(), 700, seed=31)
        assert np.array_equal(draws, want)
        expected = {string_from_index(int(i), 6): int(want[i]) for i in np.flatnonzero(want)}
        counts = sample(state, 700, seed=31).counts
        assert counts == expected and list(counts) == list(expected)

    @pytest.mark.parametrize("shots", [0, -5])
    def test_shots_below_one_rejected(self, shots):
        state = uniform_state(2)
        for fn, arg in ((sample, state), (sample_indices, state.probabilities())):
            with pytest.raises(ValueError, match="shots must be >= 1"):
                fn(arg, shots, seed=0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_norm_preserved_by_random_pipeline(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    state = uniform_state(n)
    model = QuboModel(
        n=n,
        linear={i: float(rng.normal()) for i in range(n)},
        quadratic={(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n)},
    )
    for _ in range(3):
        apply_phase_vector(state, energy_vector(model), float(rng.normal()))
        apply_x_mixer(state, float(rng.normal()))
        if n >= 2:
            apply_xy_ring_mixer(state, list(range(n)), float(rng.normal()))
        apply_ry(state, int(rng.integers(n)), float(rng.normal()))
    assert norm(state) == pytest.approx(1.0, abs=1e-10)
