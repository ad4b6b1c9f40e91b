"""Hand-checkable cases for the benchmark's references.

Run: python3 -m pytest -q bench/test_reference.py
"""

import numpy as np
import pytest
import scipy.linalg

import reference as ref


def test_single_edge_qubo():
    energies = ref.qubo_energies(2, {}, {(0, 1): 1.0}, 0.0)
    assert energies.tolist() == [0.0, 0.0, 0.0, 1.0]
    h, J, offset = ref.qubo_to_ising_terms({}, {(0, 1): 1.0}, 0.0)
    assert (h, J, offset) == ({0: -0.25, 1: -0.25}, {(0, 1): 0.25}, 0.25)
    assert ref.ising_energies(2, h, J, offset).tolist() == energies.tolist()


def test_linear_terms_follow_the_bit_order():
    # variable i is bit i of the basis index
    assert ref.qubo_energies(2, {0: 1.0, 1: 10.0}, {}, 0.5).tolist() == [0.5, 1.5, 10.5, 11.5]


def test_two_qubit_xy_swaps_01_and_10():
    H = ref.xy_ring(2)
    swap = np.zeros((4, 4))
    swap[1, 2] = swap[2, 1] = 1.0
    assert np.array_equal(H, swap)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0  # qubit 0 set
    out = ref.apply_on_qubits(psi, 2, [0, 1], scipy.linalg.expm(-1j * np.pi / 2 * H))
    assert np.allclose(out, [0, 0, -1j, 0])


def test_xy_ring_mixer_inside_a_larger_register():
    # swap qubits 0 and 2 of |q0 q1 q2> = |1 1 0> while qubit 1 is a spectator
    psi = np.zeros(8, dtype=complex)
    psi[0b011] = 1.0
    out = ref.apply_on_qubits(psi, 3, [0, 2], scipy.linalg.expm(-1j * np.pi / 2 * ref.xy_ring(2)))
    assert np.allclose(np.abs(out) ** 2, np.eye(8)[0b110])


def test_x_mixer_flips_a_qubit_at_quarter_turn():
    groups = ref.mixer_groups("X", 1, [])
    psi = ref.qaoa_state(1, np.zeros(2), np.array([1.0, 0.0]), groups, np.array([np.pi / 2]), np.array([0.0]))
    assert np.allclose(psi, [0, -1j])


def test_ry_on_zero():
    theta = 0.7
    psi = ref.embed(1, {0: ref.ry(theta)}) @ np.array([1.0, 0.0])
    assert np.allclose(psi, [np.cos(theta / 2), np.sin(theta / 2)])


def test_ry_layer_and_cnot():
    a, b = 0.3, 1.1
    # one layer on two qubits: CNOT(0,1) on |00> does nothing, then Ry(a) on 0 and Ry(b) on 1
    psi = ref.vqe_state(2, False, 1, np.array([a, b]))
    f0 = [np.cos(a / 2), np.sin(a / 2)]
    f1 = [np.cos(b / 2), np.sin(b / 2)]
    assert np.allclose(psi, [f0[i & 1] * f1[i >> 1] for i in range(4)])
    # Ry(pi) sets qubit 0, and the layer's CNOT(0,1) then sets qubit 1
    psi = ref.vqe_state(2, True, 1, np.array([np.pi, 0.0, 0.0, 0.0]))
    assert np.allclose(np.abs(psi) ** 2, [0, 0, 0, 1])


def test_gate_list_parameter_count():
    gates = ref.vqe_gate_list(5, False, 1)
    assert sum(1 for kind, _, _ in gates if kind == "ry") == 2 * (5 - 1)
    assert [q for kind, q, _ in gates if kind == "cnot"] == [(0, 1), (2, 3), (1, 2), (3, 4)]


def test_dicke_mask():
    psi = ref.uniform_over(ref.weight_mask(3, [((0, 3), 1)]))
    assert np.allclose(psi, np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3))


def test_sudden_anneal_keeps_the_uniform_state():
    energies = ref.ising_energies(2, {0: 1.0, 1: 1.0}, {(0, 1): 0.5}, 0.0)
    psi0 = np.full(4, 0.5, dtype=complex)
    psi = ref.anneal_state(2, energies, psi0, ref.forward_s(1e-6), 1e-6, 10)
    assert ref.ground_probability(psi, energies) == pytest.approx(0.25, abs=1e-6)


def test_slow_anneal_finds_a_single_ground_state():
    energies = ref.ising_energies(1, {0: 1.0}, {}, 0.0)  # ground state z = -1, i.e. bit 1
    psi = ref.anneal_state(1, energies, np.full(2, 2**-0.5, dtype=complex), ref.forward_s(50.0), 50.0, 400)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert ref.ground_probability(psi, energies) > 0.99


def test_reverse_schedule_shape():
    s = ref.reverse_s(2.0, 0.4, 1.0)
    assert [s(0.0), s(2.0), s(2.5), s(5.0)] == pytest.approx([1.0, 0.4, 0.4, 1.0])


def test_facility_optimum_by_hand():
    # line 4, two facilities: sites {1,2} (or {0,2}, {1,3}) leave two sites at distance 1
    assert ref.facility_d_min(ref.squared_distances(("line", 4)), 2) == 2.0
    # line 5, one facility: the middle site, 4 + 1 + 0 + 1 + 4
    assert ref.facility_d_min(ref.squared_distances(("line", 5)), 1) == 10.0
    # 2x2 grid, sites row-major: (0,0) (0,1) (1,0) (1,1); the diagonal is at squared distance 2
    D = ref.squared_distances(("grid", 2, 2))
    assert D[0].tolist() == [0.0, 1.0, 1.0, 2.0]
    assert ref.facility_d_min(D, 1) == 4.0
