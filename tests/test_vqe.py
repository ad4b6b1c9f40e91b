"""Tests for the hardware-efficient VQE layer, estimators and causal cones."""

import numpy as np
import pytest

from quambo import qubo, vqe
from quambo.optimize import NelderMead
from quambo.problems import FacilityProblem, encode_single_complement
from quambo.qaoa import InitSpec, MixerSpec, QaoaContext
from quambo.qubo import IsingModel, QuboModel, energy_vector, qubo_to_ising
from quambo.vqe import (
    VqeAnsatz,
    apply_ansatz,
    causal_cone,
    ev_all_qubit_sampling,
    ev_causal_cone_sampling,
    ev_statevector,
    run_reduced,
    vqe_restart_search,
)


@pytest.fixture(scope="module")
def problem_a():
    return encode_single_complement(FacilityProblem(("line", 5), 1, lambda_=40))


class TestAnsatzStructure:
    @pytest.mark.parametrize(
        "n,initial,layers,expected",
        [(5, False, 1, 8), (5, True, 1, 13), (5, True, 2, 21), (16, False, 1, 30), (16, True, 1, 46)],
    )
    def test_param_counts(self, n, initial, layers, expected):
        assert VqeAnsatz(n, initial_layer=initial, entangling_layers=layers).n_params == expected

    def test_gate_order_one_layer(self):
        gates = VqeAnsatz(4, entangling_layers=1).gates()
        kinds = [(g.kind, g.qubits) for g in gates]
        assert kinds[:2] == [("cnot", (0, 1)), ("cnot", (2, 3))]
        assert ("cnot", (1, 2)) in kinds
        assert sum(1 for k, _ in kinds if k == "ry") == 6

    def test_param_indices_are_sequential(self):
        gates = VqeAnsatz(5, initial_layer=True, entangling_layers=2).gates()
        indices = [g.param_index for g in gates if g.kind == "ry"]
        assert indices == list(range(21))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            VqeAnsatz(1)

    def test_wrong_param_length(self):
        with pytest.raises(ValueError):
            apply_ansatz(VqeAnsatz(4), np.zeros(3))


class TestAnsatzState:
    def test_zero_params_is_all_zeros_state(self):
        state = apply_ansatz(VqeAnsatz(5, initial_layer=True, entangling_layers=2), np.zeros(21))
        assert state.amplitudes[0] == pytest.approx(1.0)

    def test_two_qubit_analytic(self):
        # n=2, one layer: CNOT(0,1) on |00> is a no-op, then Ry on each qubit
        t0, t1 = 0.9, 1.7
        model = QuboModel(n=2, linear={0: 1.0})
        ev = ev_statevector(VqeAnsatz(2), [t0, t1], model)
        assert ev == pytest.approx(np.sin(t0 / 2) ** 2)

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        ansatz = VqeAnsatz(6, initial_layer=True, entangling_layers=3)
        state = apply_ansatz(ansatz, rng.uniform(0, 2 * np.pi, ansatz.n_params))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)


class TestCausalCone:
    def test_edge_qubit_cone(self):
        cone, reduced = causal_cone(VqeAnsatz(5), 0)
        assert cone == {0, 1}
        assert reduced.qubits == [0, 1]

    def test_cone_never_exceeds_register(self):
        ansatz = VqeAnsatz(5, entangling_layers=2)
        for q in range(5):
            cone, _ = causal_cone(ansatz, q)
            assert {q} <= cone <= set(range(5))

    def test_out_of_range_term(self):
        with pytest.raises(ValueError):
            causal_cone(VqeAnsatz(4), 7)

    @pytest.mark.parametrize("term", [0, 2, 4, (0, 2), (1, 4)])
    def test_marginal_matches_full_state(self, term):
        ansatz = VqeAnsatz(5, initial_layer=True, entangling_layers=2)
        rng = np.random.default_rng(17)
        theta = rng.uniform(0, 2 * np.pi, ansatz.n_params)
        probs = apply_ansatz(ansatz, theta).probabilities()
        targets = (term,) if isinstance(term, int) else term

        idx = np.arange(32)
        z_full = np.ones(32)
        for q in targets:
            z_full *= 1.0 - 2.0 * ((idx >> q) & 1)
        exact = float(probs @ z_full)

        cone, reduced = causal_cone(ansatz, term)
        sub = run_reduced(reduced, theta).probabilities()
        sub_idx = np.arange(len(sub))
        z_sub = np.ones(len(sub))
        for q in targets:
            z_sub *= 1.0 - 2.0 * ((sub_idx >> reduced.qubits.index(q)) & 1)
        assert float(sub @ z_sub) == pytest.approx(exact, abs=1e-10)


@pytest.fixture(scope="module")
def setup(problem_a):
    model, _ = problem_a
    ansatz = VqeAnsatz(5, initial_layer=True, entangling_layers=1)
    rng = np.random.default_rng(23)
    theta = rng.uniform(0, 2 * np.pi, ansatz.n_params)
    return model, ansatz, theta


class TestEstimators:
    def test_all_qubit_sampling_agrees(self, setup):
        model, ansatz, theta = setup
        exact = ev_statevector(ansatz, theta, model)
        shots = 10**5
        est = ev_all_qubit_sampling(ansatz, theta, model, shots, seed=1)
        diag = energy_vector(model)
        se = float(diag.std()) / np.sqrt(shots)
        assert abs(est - exact) < 5 * max(se, 1.0)

    def test_causal_cone_sampling_agrees(self, setup):
        model, ansatz, theta = setup
        ising = qubo_to_ising(model)
        exact = ev_statevector(ansatz, theta, ising)
        est = ev_causal_cone_sampling(ansatz, theta, ising, shots_per_term=10**5, seed=2)
        # per-term binomial error, coefficients bounded by the largest term
        worst = sum(abs(c) for c in list(ising.h.values()) + list(ising.J.values()))
        assert abs(est - exact) < 5 * worst / np.sqrt(10**5)

    def test_cones_built_once_per_ansatz(self, setup, monkeypatch):
        model, ansatz, theta = setup
        ising = qubo_to_ising(model)
        fresh = VqeAnsatz(ansatz.n, ansatz.initial_layer, ansatz.entangling_layers)
        calls = []
        monkeypatch.setattr(vqe, "causal_cone", lambda a, t: calls.append(t) or causal_cone(a, t))
        first = ev_causal_cone_sampling(fresh, theta, ising, 200, seed=4)
        again = ev_causal_cone_sampling(fresh, theta, ising, 200, seed=4)
        assert first == again
        assert len(calls) == len(set(calls)) == len(ising.h) + len(ising.J)

    def test_sampling_reads_the_cached_diagonal(self, setup, monkeypatch):
        model, ansatz, theta = setup
        before = ev_all_qubit_sampling(ansatz, theta, model, 500, seed=3)
        monkeypatch.setattr(qubo, "energy_vector", None)
        assert ev_all_qubit_sampling(ansatz, theta, model, 500, seed=3) == before

    def test_ising_offset_passes_through(self):
        ising = IsingModel(n=2, offset=3.5)
        est = ev_causal_cone_sampling(VqeAnsatz(2), [0.0, 0.0], ising, 10, seed=0)
        assert est == 3.5

    def test_sampling_deterministic(self, setup):
        model, ansatz, theta = setup
        a = ev_all_qubit_sampling(ansatz, theta, model, 5000, seed=9)
        b = ev_all_qubit_sampling(ansatz, theta, model, 5000, seed=9)
        assert a == b


class TestRestartSearch:
    def test_small_search(self, problem_a):
        model, enc = problem_a
        ctx = QaoaContext(enc, model, MixerSpec(kind="X"), InitSpec(kind="Uniform"))
        ansatz = VqeAnsatz(5, initial_layer=True, entangling_layers=1)
        runs = vqe_restart_search(
            ansatz, model, ctx.metrics, n_starts=3, optimizer=NelderMead(max_iter=150), seed=6
        )
        assert len(runs) == 3
        for run in runs:
            assert 0.0 <= run.p_gnd <= 1.0
            assert run.ev == pytest.approx(ev_statevector(ansatz, run.theta, model))

    def test_search_deterministic(self, problem_a):
        model, enc = problem_a
        ctx = QaoaContext(enc, model, MixerSpec(kind="X"), InitSpec(kind="Uniform"))
        ansatz = VqeAnsatz(5, entangling_layers=1)
        a = vqe_restart_search(ansatz, model, ctx.metrics, 2, NelderMead(max_iter=40), seed=3)
        b = vqe_restart_search(ansatz, model, ctx.metrics, 2, NelderMead(max_iter=40), seed=3)
        assert [r.ev for r in a] == [r.ev for r in b]
