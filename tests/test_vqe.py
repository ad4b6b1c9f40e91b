"""Tests for the hardware-efficient VQE layer, estimators and causal cones."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quambo import qubo, simulator, vqe
from quambo.optimize import NelderMead, restart_search
from quambo.problems import FacilityProblem, encode_single_complement
from quambo.qaoa import Scorer, metrics
from quambo.qubo import IsingModel, QuboModel, energy_vector, qubo_to_ising
from quambo.simulator import StateVector, basis_state, sample
from references import apply_cnot, apply_ry, reference_circuit_run, reference_cnot_run
from quambo.vqe import (
    VqeAnsatz,
    apply_ansatz,
    causal_cone,
    ev_all_qubit_sampling,
    ev_causal_cone_sampling,
    ev_all_qubit_sampling_batch,
    ev_causal_cone_sampling_batch,
    ev_statevector_batch,
    run_program,
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
        ev = ev_statevector_batch(VqeAnsatz(2), [[t0, t1]], model)[0]
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
        sub = run_program(reduced.program, theta) ** 2
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


def reference_circuit(m, gates, theta):
    """The circuit gate by gate through the reference R_y and CNOT gates."""
    state = basis_state(m, 0)
    for gate in gates:
        if gate.kind == "ry":
            apply_ry(state, gate.qubits[0], theta[gate.param_index])
        else:
            apply_cnot(state, *gate.qubits)
    return state.amplitudes


class TestCompiledCircuit:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_ansatz_matches_primitives(self, n):
        for initial, layers in itertools.product((False, True), range(4)):
            ansatz = VqeAnsatz(n, initial_layer=initial, entangling_layers=layers)
            theta = np.random.default_rng([n, initial, layers]).uniform(0, 2 * np.pi, ansatz.n_params)
            got = apply_ansatz(ansatz, theta).amplitudes
            assert got.dtype == np.float64
            want = reference_circuit(n, ansatz.gates(), theta)
            assert np.abs(got - want).max() <= 1e-12

    def test_every_cone_circuit_matches_primitives(self):
        ansatz = VqeAnsatz(6, initial_layer=True, entangling_layers=2)
        theta = np.random.default_rng(5).uniform(0, 2 * np.pi, ansatz.n_params)
        terms = list(range(6)) + list(itertools.combinations(range(6), 2))
        for term in terms:
            _, reduced = causal_cone(ansatz, term)
            got = run_program(reduced.program, theta)
            want = reference_circuit(len(reduced.qubits), reduced.gates, theta)
            assert np.abs(got - want).max() <= 1e-12

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_cnot_runs_equal_the_gate_by_gate_composition(self, data):
        """Each fused run is the reference's perm[flip] composition, bitwise.

        Runs are drawn as chains, each CNOT's control the previous one's target, so a run
        whose gates were applied first to last, not last to first, gives another permutation.
        """
        m = data.draw(st.integers(2, 7), label="m")
        qubit = st.integers(0, m - 1)
        gates, runs = [], []
        for _ in range(data.draw(st.integers(1, 6), label="pieces")):
            if data.draw(st.booleans(), label="ry"):
                gates.append(vqe.Gate("ry", (data.draw(qubit),), 0))
                continue
            if not gates or gates[-1].kind == "ry":
                runs.append([])  # consecutive CNOTs are one run
            control = data.draw(qubit)
            for _ in range(data.draw(st.integers(1, 5), label="run length")):
                target = data.draw(qubit.filter(lambda q: q != control))
                runs[-1].append((control, target))
                gates.append(vqe.Gate("cnot", (control, target)))
                control = target
        perms = [view for k, view, _ in vqe.compile_circuit(m, gates).steps if k is None]
        assert len(perms) == len(runs)
        for got, run in zip(perms, runs):
            assert np.array_equal(got, reference_cnot_run(m, run))

    def test_cnot_runs_are_fused(self):
        summary = VqeAnsatz(5, entangling_layers=3).program.summary
        assert summary == {"n": 5, "gates": 36, "ry_steps": 24, "fused_permutations": 6, "amplitude_dtype": "float64"}

    def test_program_built_once_per_ansatz_and_cone(self, setup, monkeypatch):
        model, ansatz, theta = setup
        ising = qubo_to_ising(model)
        built = []
        compile_circuit = vqe.compile_circuit
        monkeypatch.setattr(vqe, "compile_circuit", lambda m, gates: built.append(m) or compile_circuit(m, gates))
        fresh = VqeAnsatz(ansatz.n, ansatz.initial_layer, ansatz.entangling_layers)
        for _ in range(3):
            apply_ansatz(fresh, theta)
        assert len(built) == 1
        for _ in range(3):
            ev_causal_cone_sampling(fresh, theta, ising, 50, seed=1)
        assert len(built) == 1 + len(ising.h) + len(ising.J)

    def test_no_gate_primitive_is_called(self, setup, monkeypatch):
        model, ansatz, theta = setup
        want = apply_ansatz(ansatz, theta).amplitudes

        def forbidden(*args):
            raise AssertionError("gate primitive called")

        for module in (simulator, vqe):  # the reference gates' one primitive, wherever vqe could reach it
            monkeypatch.setattr(module, "apply_local_unitary", forbidden, raising=False)
        fresh = VqeAnsatz(ansatz.n, ansatz.initial_layer, ansatz.entangling_layers)
        assert np.array_equal(apply_ansatz(fresh, theta).amplitudes, want)
        ev_causal_cone_sampling(fresh, theta, qubo_to_ising(model), 50, seed=1)

    def test_shape_is_frozen(self, setup):
        model, ansatz, theta = setup
        fresh = VqeAnsatz(ansatz.n, ansatz.initial_layer, ansatz.entangling_layers)
        ev_causal_cone_sampling(fresh, theta, qubo_to_ising(model), 50, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fresh.entangling_layers = 2
        _, reduced = causal_cone(fresh, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            reduced.qubits = [0]


def circuits(ansatz):
    """(qubits, gates, program) of the ansatz and of every cone circuit of its Z and ZZ terms."""
    out = [(ansatz.n, ansatz.gates(), ansatz.program)]
    for term in list(range(ansatz.n)) + list(itertools.combinations(range(ansatz.n), 2)):
        reduced, _ = ansatz.cone(term)
        out.append((len(reduced.qubits), reduced.gates, reduced.program))
    return out


class TestBatchedCircuit:
    """A batch of K parameter vectors is a stacked axis: row k is bitwise the one-vector run."""

    @given(
        n=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 16]),
        K=st.sampled_from([1, 2, 7, 64]),
        layers=st.integers(0, 2),
        initial=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_the_one_vector_runs(self, n, K, layers, initial, seed):
        ansatz = VqeAnsatz(n, initial_layer=initial, entangling_layers=layers)
        Theta = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, (K, ansatz.n_params))
        for m, gates, program in circuits(ansatz):
            batch = run_program(program, Theta)
            assert batch.shape == (K, 1 << m) and batch.dtype == np.float64
            for k in range(K):
                assert np.array_equal(batch[k], run_program(program, Theta[k]))
            assert np.array_equal(batch[-1:], run_program(program, Theta[-1:]))
            # and the rows are bitwise the one-vector program as it was before batching
            for k in sorted({0, K - 1}):
                assert np.array_equal(batch[k], reference_circuit_run(m, gates, Theta[k]))

    @pytest.mark.parametrize("n", [2, 5, 8, 9])
    def test_rows_match_primitives(self, n):
        for initial, layers in itertools.product((False, True), range(3)):
            ansatz = VqeAnsatz(n, initial_layer=initial, entangling_layers=layers)
            Theta = np.random.default_rng([n, initial, layers]).uniform(0, 2 * np.pi, (3, ansatz.n_params))
            for m, gates, program in circuits(ansatz):
                batch = run_program(program, Theta)
                for k in range(3):
                    assert np.abs(batch[k] - reference_circuit(m, gates, Theta[k])).max() <= 1e-12

    def test_chunks_hold_at_most_the_amplitude_budget(self, monkeypatch):
        ansatz = VqeAnsatz(5, initial_layer=True, entangling_layers=2)
        Theta = np.random.default_rng(4).uniform(0, 2 * np.pi, (11, ansatz.n_params))
        whole = run_program(ansatz.program, Theta)
        seen = []
        run = vqe._run_rotations  # the chunks recurse below run_program, on slices of one R_y table
        monkeypatch.setattr(vqe, "_run_rotations", lambda p, rot: seen.append(rot.shape[1]) or run(p, rot))
        monkeypatch.setattr(vqe, "EV_BATCH_AMPLITUDES", 3 * 32)
        assert np.array_equal(vqe.run_program(ansatz.program, Theta), whole)
        assert seen == [11, 3, 3, 3, 2]
        # a budget below one state still runs one row at a time
        seen.clear()
        monkeypatch.setattr(vqe, "EV_BATCH_AMPLITUDES", 1)
        assert np.array_equal(vqe.run_program(ansatz.program, Theta[:2]), whole[:2])
        assert seen == [2, 1, 1]

    def test_runs_are_fresh_arrays(self):
        for ansatz in (VqeAnsatz(3, entangling_layers=0), VqeAnsatz(3, initial_layer=True, entangling_layers=1)):
            state = run_program(ansatz.program, np.zeros(ansatz.n_params))
            assert state.flags.writeable
            state[:] = 7.0
            assert run_program(ansatz.program, np.zeros(ansatz.n_params))[0] == 1.0

    @pytest.mark.parametrize("shape", [(0, 13), (2, 12), (13,), (1, 1, 13)])
    def test_batch_shape_checked(self, setup, shape):
        model, ansatz, _ = setup
        with pytest.raises(ValueError, match="array of K >= 1 points"):
            ev_statevector_batch(ansatz, np.zeros(shape), model)


class TestBatchEstimators:
    """Each batch objective gives, row for row, bitwise what the one-point estimators give."""

    @pytest.fixture(scope="class")
    def points(self, setup):
        _, ansatz, theta = setup
        rng = np.random.default_rng(29)
        return np.vstack([theta, rng.uniform(0, 2 * np.pi, (6, ansatz.n_params))])

    def test_statevector(self, setup, points):
        model, ansatz, _ = setup
        values = ev_statevector_batch(ansatz, points, model)
        for k, theta in enumerate(points):
            a = apply_ansatz(ansatz, theta).amplitudes
            assert values[k] == ev_statevector_batch(ansatz, theta[None], model)[0] == float((a * a) @ model.diagonal)

    def test_all_qubit_sampling(self, setup, points):
        model, ansatz, _ = setup
        seeds = [(3, k) for k in range(len(points))]
        values = ev_all_qubit_sampling_batch(ansatz, points, model, 300, seeds)
        for k, (theta, seed) in enumerate(zip(points, seeds)):
            draws = simulator.sample_indices(apply_ansatz(ansatz, theta).probabilities(), 300, seed)
            assert values[k] == ev_all_qubit_sampling(ansatz, theta, model, 300, seed) == float(draws @ model.diagonal) / 300

    def test_causal_cone_sampling(self, setup, points):
        model, ansatz, _ = setup
        ising = qubo_to_ising(model)
        seeds = np.random.default_rng(8).integers(2**31, size=len(points)).tolist()
        values = ev_causal_cone_sampling_batch(ansatz, points, ising, 200, seeds)
        for k, (theta, seed) in enumerate(zip(points, seeds)):
            assert values[k] == ev_causal_cone_sampling(ansatz, theta, ising, 200, seed)

    def test_cone_circuits_run_once_per_call(self, setup, points, monkeypatch):
        model, ansatz, _ = setup
        ising = qubo_to_ising(model)
        tables, runs = [], []
        table, run = vqe.ry_table, vqe._run_rotations
        monkeypatch.setattr(vqe, "ry_table", lambda T: tables.append(T.shape) or table(T))
        monkeypatch.setattr(vqe, "_run_rotations", lambda p, rot: runs.append(rot.shape[1]) or run(p, rot))
        ev_causal_cone_sampling_batch(ansatz, points, ising, 50, list(range(len(points))))
        # one R_y table per call, shared by every term's cone circuit
        assert tables == [np.shape(points)]
        assert runs == [len(points)] * (len(ising.h) + len(ising.J))

    def test_one_seed_per_point(self, setup, points):
        model, ansatz, _ = setup
        with pytest.raises(ValueError, match="one seed per point"):
            ev_all_qubit_sampling_batch(ansatz, points, model, 10, [1, 2])
        with pytest.raises(ValueError, match="one seed per point"):
            ev_causal_cone_sampling_batch(ansatz, points, qubo_to_ising(model), 10, [1])


class TestEstimators:
    def test_all_qubit_sampling_agrees(self, setup):
        model, ansatz, theta = setup
        exact = ev_statevector_batch(ansatz, theta[None], model)[0]
        shots = 10**5
        est = ev_all_qubit_sampling(ansatz, theta, model, shots, seed=1)
        diag = energy_vector(model)
        se = float(diag.std()) / np.sqrt(shots)
        assert abs(est - exact) < 5 * max(se, 1.0)

    def test_causal_cone_sampling_agrees(self, setup):
        model, ansatz, theta = setup
        ising = qubo_to_ising(model)
        exact = ev_statevector_batch(ansatz, theta[None], ising)[0]
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

    def test_cone_estimate_equals_the_per_string_sum(self, setup):
        """The parity dot product is bitwise the old per-bitstring loop over the same draws."""
        model, ansatz, theta = setup
        ising = qubo_to_ising(model)
        terms = sorted(ising.h.items()) + sorted(ising.J.items())
        for seed in range(3):
            total = ising.offset
            for t, (term, coeff) in enumerate(terms):
                _, reduced = causal_cone(ansatz, term)
                local = [reduced.qubits.index(q) for q in ((term,) if isinstance(term, int) else term)]
                state = StateVector(len(reduced.qubits), run_program(reduced.program, theta))
                counts = sample(state, 300, seed=int(np.random.default_rng([seed, t]).integers(2**31)))
                est = 0.0
                for bits, c in counts.counts.items():
                    z = 1.0
                    for q in local:
                        z *= 1.0 - 2.0 * int(bits[q])
                    est += z * c
                total += coeff * est / 300
            assert ev_causal_cone_sampling(ansatz, theta, ising, 300, seed=seed) == float(total)

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
    """optimize.restart_search over the statevector objective, scored as the vqe command scores it."""

    @staticmethod
    def search(problem_a, ansatz, n_starts, optimizer, seed):
        model, enc = problem_a
        scorer = Scorer.of(model, enc)

        def score(theta):
            return metrics(scorer, apply_ansatz(ansatz, theta).probabilities()[scorer.indices])

        return restart_search(lambda Theta: ev_statevector_batch(ansatz, Theta, model), score,
                              ansatz.n_params, n_starts, optimizer, seed)

    def test_small_search(self, problem_a):
        ansatz = VqeAnsatz(5, initial_layer=True, entangling_layers=1)
        runs, block = self.search(problem_a, ansatz, 3, NelderMead(max_iter=150), seed=6)
        assert len(runs) == 3 and block["lockstep_rows"] == 3
        for theta, m in runs:
            assert 0.0 <= m.p_gnd <= 1.0 and m.evals > 0
            assert m.ev == pytest.approx(ev_statevector_batch(ansatz, theta[None], problem_a[0])[0])

    def test_search_deterministic(self, problem_a):
        ansatz = VqeAnsatz(5, entangling_layers=1)
        a, _ = self.search(problem_a, ansatz, 2, NelderMead(max_iter=40), seed=3)
        b, _ = self.search(problem_a, ansatz, 2, NelderMead(max_iter=40), seed=3)
        assert [m for _, m in a] == [m for _, m in b]
