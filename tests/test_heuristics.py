"""Tests for the classical baselines: exact enumeration, SA, tabu, restart harness.

The batched tabu and SA kernels are checked bit for bit against the
per-restart loops they replaced, kept here as the reference.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quambo import heuristics
from quambo.anneal import anneal_parameter_sweep
from quambo.heuristics import (
    ORACLE_CAP,
    SimAnneal,
    Tabu,
    batched_simulated_annealing,
    batched_tabu_search,
    exact_facility_optimum,
    restart_harness,
    simulated_annealing,
    tabu_search,
)
from quambo.problems import (
    FacilityProblem,
    decode_solution,
    distance_matrix,
    encode_single_complement,
    encode_start_dest,
)
from quambo.qaoa import Scorer, metrics
from quambo.qubo import CapacityError, QuboModel, energy_qubo, energy_vector, index_from_string, strings_from_bits


def random_qubo(n, rng, integral=False):
    draw = (lambda: float(rng.integers(-3, 4))) if integral else (lambda: float(rng.normal()))
    return QuboModel(
        n=n,
        linear={i: draw() for i in range(n)},
        quadratic={(i, j): draw() for i in range(n) for j in range(i + 1, n)},
    )


# --- the per-restart loops the batched kernels replaced ------------------------


def reference_simulated_annealing(model, config, seed):
    n = model.n
    lin, W = model.dense
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=n).astype(float)
    field = W @ s
    energy = model.offset + lin @ s + 0.5 * s @ field
    best_e, best_s = energy, s.copy()
    betas = np.geomspace(config.beta_initial, config.beta_final, config.sweeps)
    for beta in betas:
        order = rng.permutation(n)
        accept_u = rng.random(n)
        for t, i in enumerate(order):
            delta = (1.0 - 2.0 * s[i]) * (lin[i] + field[i])
            if delta <= 0.0 or accept_u[t] < np.exp(-beta * delta):
                ds = 1.0 - 2.0 * s[i]
                s[i] += ds
                field += W[:, i] * ds
                energy += delta
                if energy < best_e - 1e-12:
                    best_e, best_s = energy, s.copy()
    bitstring = "".join(str(int(b)) for b in best_s)
    return bitstring, float(best_e)


def reference_tabu_search(model, config, seed, skipped=None):
    """The old tabu loop; appends to `skipped` each iteration that had no allowed move."""
    n = model.n
    lin, W = model.dense
    tenure = config.tenure if config.tenure is not None else max(10, n // 4)
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=n).astype(float)
    field = W @ s
    energy = model.offset + lin @ s + 0.5 * s @ field
    best_e, best_s = energy, s.copy()
    tabu_until = np.zeros(n, dtype=np.int64)
    for it in range(config.max_iter):
        delta = (1.0 - 2.0 * s) * (lin + field)
        allowed = tabu_until <= it
        allowed |= energy + delta < best_e - 1e-12
        if not allowed.any():
            if skipped is not None:
                skipped.append(it)
            continue
        cand = np.where(allowed, delta, np.inf)
        i = int(cand.argmin())
        ds = 1.0 - 2.0 * s[i]
        s[i] += ds
        field += W[:, i] * ds
        energy += delta[i]
        tabu_until[i] = it + 1 + tenure
        if energy < best_e - 1e-12:
            best_e, best_s = energy, s.copy()
    bitstring = "".join(str(int(b)) for b in best_s)
    return bitstring, float(best_e)


def reference_solver(config):
    if isinstance(config, SimAnneal):
        return lambda model, seed: reference_simulated_annealing(model, config, seed)
    return lambda model, seed: reference_tabu_search(model, config, seed)


def reference_seed(seed, r):
    return int(np.random.default_rng([seed, r]).integers(2**31))


def reference_harness(solver, model, restarts, seed, encoding=None, d_min=None):
    """The old restart loop: one scalar solver call per restart."""
    best_e, best_state, hits, d_sol = np.inf, "", 0, None
    for r in range(restarts):
        state, e = solver(model, reference_seed(seed, r))
        if e < best_e - 1e-9:
            best_e, best_state, hits = e, state, 1
        elif abs(e - best_e) <= 1e-9:
            hits += 1
        if encoding is not None:
            try:
                d = decode_solution(encoding, state)
            except ValueError:
                pass
            else:
                if d_sol is None or d < d_sol:
                    d_sol = d
    ratio = d_sol / d_min if d_sol is not None and d_min else None
    return float(best_e), hits / restarts, d_sol, ratio, best_state


def reference_oracle(problem):
    """Every placement through itertools.combinations, one at a time."""
    D = distance_matrix(problem)
    best, placements = np.inf, []
    for combo in itertools.combinations(range(problem.num_locations), problem.ambulances):
        total = D[list(combo)].min(axis=0).sum()
        if total < best - 1e-12:
            best, placements = total, [combo]
        elif abs(total - best) <= 1e-12:
            placements.append(combo)
    return float(best), placements


tabu_configs = st.builds(
    lambda tenure, max_iter: Tabu(tenure=tenure, max_iter=max_iter),
    st.one_of(st.none(), st.integers(1, 15)),
    st.integers(1, 60),
)
sa_configs = st.builds(
    lambda sweeps, beta: SimAnneal(sweeps=sweeps, beta_initial=beta, beta_final=10.0 * beta),
    st.integers(1, 30),
    st.sampled_from([0.01, 0.1, 1.0, 1e6]),
)


class TestBatchedKernels:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 9), st.booleans(), tabu_configs)
    @settings(max_examples=60, deadline=None)
    def test_tabu_equals_the_per_restart_loop(self, seed, n, R, integral, config):
        rng = np.random.default_rng(seed)
        model = random_qubo(n, rng, integral)
        seeds = [int(x) for x in rng.integers(2**31, size=R)]
        bits, energies = batched_tabu_search(model, config, seeds)
        assert list(zip(strings_from_bits(bits), energies.tolist())) == [
            reference_tabu_search(model, config, s) for s in seeds]
        assert tabu_search(model, config, seeds[0]) == reference_tabu_search(model, config, seeds[0])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 9), st.booleans(), sa_configs)
    @settings(max_examples=60, deadline=None)
    def test_sa_equals_the_per_chain_loop(self, seed, n, R, integral, config):
        rng = np.random.default_rng(seed)
        model = random_qubo(n, rng, integral)
        seeds = [int(x) for x in rng.integers(2**31, size=R)]
        bits, energies = batched_simulated_annealing([model] * R, config, seeds)
        assert list(zip(strings_from_bits(bits), energies.tolist())) == [
            reference_simulated_annealing(model, config, s) for s in seeds]
        assert simulated_annealing(model, config, seeds[0]) == reference_simulated_annealing(model, config, seeds[0])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.lists(st.integers(0, 2), min_size=1, max_size=9),
           st.booleans(), sa_configs)
    @settings(max_examples=40, deadline=None)
    def test_sa_mixed_models_equal_each_models_own_batch(self, seed, n, picks, integral, config):
        # chain r runs model picks[r]; each model's rows equal that model's batch alone, bit for bit
        rng = np.random.default_rng(seed)
        models = [random_qubo(n, rng, integral) for _ in range(3)]
        seeds = [int(x) for x in rng.integers(2**31, size=len(picks))]
        bits, energies = batched_simulated_annealing([models[k] for k in picks], config, seeds)
        assert bits.shape == (len(picks), n) and bits.dtype == bool
        for k, model in enumerate(models):
            rows = [r for r, pick in enumerate(picks) if pick == k]
            if not rows:
                continue
            own_bits, own_energies = batched_simulated_annealing([model] * len(rows), config, [seeds[r] for r in rows])
            assert np.array_equal(bits[rows], own_bits) and energies[rows].tobytes() == own_energies.tobytes()

    @pytest.mark.parametrize("models, seeds, message", [
        ([QuboModel(2)], [1, 2], "need one model per seed, got 1 models for 2 seeds"),
        ([], [], "need one model per seed, got 0 models for 0 seeds"),
        ([QuboModel(2), QuboModel(3)], [1, 2], "the chains' models need one n, got [2, 3]"),
    ])
    def test_sa_batch_needs_one_model_per_seed_of_one_n(self, models, seeds, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            batched_simulated_annealing(models, SimAnneal(sweeps=2), seeds)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 9), st.booleans(),
           st.one_of(tabu_configs, sa_configs))
    @settings(max_examples=40, deadline=None)
    def test_harness_equals_the_per_restart_loop(self, seed, n, restarts, integral, config):
        model = random_qubo(n, np.random.default_rng(seed), integral)
        res = restart_harness(config, model, restarts, seed)
        expected = reference_harness(reference_solver(config), model, restarts, seed)
        assert (res.best_energy, res.frequency_of_best, res.d_sol, res.ratio, res.best_state) == expected

    @pytest.mark.parametrize("config", [Tabu(max_iter=40), SimAnneal(sweeps=40)])
    @pytest.mark.parametrize("geometry, ambulances, encode", [
        (("line", 4), 2, encode_start_dest),
        (("line", 5), 1, encode_single_complement),
    ])
    def test_harness_d_sol_equals_the_per_restart_loop(self, config, geometry, ambulances, encode):
        problem = FacilityProblem(geometry, ambulances, lambda_ratio=1.5)
        model, enc = encode(problem)
        d_min, _ = exact_facility_optimum(problem)
        res = restart_harness(config, model, 30, 5, encoding=enc, d_min=d_min)
        expected = reference_harness(reference_solver(config), model, 30, 5, encoding=enc, d_min=d_min)
        assert (res.best_energy, res.frequency_of_best, res.d_sol, res.ratio, res.best_state) == expected
        assert res.d_sol is not None

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(("line", 2), 1), (("line", 3), 1), (("line", 3), 2)]),
           st.integers(1, 9), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_sweep_reads_are_one_chain_per_read(self, seed, shape, reads, sweeps):
        # ratio j's read r is the best state of one reference chain seeded with child r of child j of seed
        problem = FacilityProblem(*shape, lambda_ratio=1.0)
        ratios = [0.5, 2.0]
        out = anneal_parameter_sweep(problem, ratios, sweeps, reads, seed)
        assert out == anneal_parameter_sweep(problem, ratios, sweeps, reads, seed)
        assert [ratio for ratio, _m in out] == ratios
        for j, (ratio, m) in enumerate(out):
            model, enc = encode_start_dest(FacilityProblem(*shape, lambda_ratio=ratio))
            states = [reference_simulated_annealing(model, SimAnneal(sweeps=sweeps),
                                                    reference_seed(reference_seed(seed, j), r))[0]
                      for r in range(reads)]
            scorer = Scorer.of(model, enc)
            indices = np.array([index_from_string(s) for s in states])
            ev = float(np.mean([energy_qubo(model, s) for s in states]))
            assert m == metrics(scorer, scorer.counts(indices), total=reads, ev=ev)

    def test_tabu_chunks_equal_one_batch(self, monkeypatch):
        rng = np.random.default_rng(8)
        model = random_qubo(9, rng)
        config = Tabu(max_iter=30)
        seeds = [int(x) for x in rng.integers(2**31, size=11)]
        bits, energies = batched_tabu_search(model, config, seeds)
        monkeypatch.setattr(heuristics, "TABU_CHUNK_ROWS", 4)
        chunked = batched_tabu_search(model, config, seeds)
        assert np.array_equal(chunked[0], bits) and np.array_equal(chunked[1], energies)
        assert list(zip(strings_from_bits(bits), energies.tolist())) == [reference_tabu_search(model, config, s) for s in seeds]

    def test_tabu_rows_without_an_allowed_move_are_skipped(self):
        # with a tenure of at least n every flip can be tabu at once, so some
        # restarts skip an iteration while others in the batch move
        mixed = 0
        for trial in range(300):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 7))
            model = random_qubo(n, rng, integral=bool(rng.integers(2)))
            config = Tabu(tenure=int(rng.integers(n, n + 3)), max_iter=int(rng.integers(10, 40)))
            seeds = [int(x) for x in rng.integers(2**31, size=4)]
            skipped = [[] for _ in seeds]
            expected = [reference_tabu_search(model, config, s, skipped[r]) for r, s in enumerate(seeds)]
            mixed += bool(set().union(*skipped) - set.intersection(*map(set, skipped)))
            bits, energies = batched_tabu_search(model, config, seeds)
            assert list(zip(strings_from_bits(bits), energies.tolist())) == expected, trial
        assert mixed

    def test_sa_rejects_every_uphill_move_at_high_beta(self):
        rng = np.random.default_rng(23)
        model = random_qubo(8, rng)
        config = SimAnneal(sweeps=20, beta_initial=1e8, beta_final=1e9)
        seeds = [int(x) for x in rng.integers(2**31, size=7)]
        bits, energies = batched_simulated_annealing([model] * len(seeds), config, seeds)
        states = strings_from_bits(bits)
        assert list(zip(states, energies.tolist())) == [reference_simulated_annealing(model, config, s) for s in seeds]
        # pure descent ends in a single-flip local minimum
        for state, e in zip(states, energies):
            assert e == pytest.approx(energy_qubo(model, state))
            for i in range(model.n):
                flipped = state[:i] + str(1 - int(state[i])) + state[i + 1 :]
                assert energy_qubo(model, flipped) >= e - 1e-9

    def test_empty_batch(self):
        model = random_qubo(4, np.random.default_rng(0))
        bits, energies = batched_tabu_search(model, Tabu(), [])
        assert strings_from_bits(bits) == [] and bits.shape == (0, 4) and energies.shape == (0,)
        with pytest.raises(ValueError, match="^need one model per seed, got 0 models for 0 seeds$"):
            batched_simulated_annealing([], SimAnneal(sweeps=5), [])  # an SA batch's n comes from its models


class TestExactOptimum:
    def test_line_of_four(self):
        best, placements = exact_facility_optimum(FacilityProblem(("line", 4), 2, lambda_=1.0))
        assert best == 2
        assert (1, 2) in placements

    def test_grid_5x5(self):
        best, _ = exact_facility_optimum(FacilityProblem(("grid", 5, 5), 2, lambda_=1.0))
        assert best == 65

    def test_grid_10x10(self):
        best, _ = exact_facility_optimum(FacilityProblem(("grid", 10, 10), 2, lambda_=1.0))
        assert best == 1038

    def test_matches_brute_force_m3(self):
        problem = FacilityProblem(("grid", 3, 3), 3, lambda_=1.0)
        best, placements = exact_facility_optimum(problem)
        assert all(len(p) == 3 for p in placements)
        from quambo.problems import distance_matrix

        D = distance_matrix(problem)
        import itertools

        brute = min(D[list(c)].min(axis=0).sum() for c in itertools.combinations(range(9), 3))
        assert best == pytest.approx(brute)

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            exact_facility_optimum(FacilityProblem(("grid", 40, 40), 2, lambda_=1.0))

    def test_placement_count_cap(self, monkeypatch):
        # C(900, 3) = 121 095 300 placements on only 900 locations
        monkeypatch.setattr("quambo.heuristics.distance_matrix", None)  # refused before any allocation
        with pytest.raises(CapacityError, match="121095300 placements"):
            exact_facility_optimum(FacilityProblem(("grid", 30, 30), 3, lambda_=1.0))
        assert ORACLE_CAP < 121095300

    @pytest.mark.parametrize("length, ambulances", [(L, m) for L in range(1, 10) for m in range(1, min(L, 4) + 1)])
    def test_equals_itertools_reference_on_lines(self, length, ambulances):
        problem = FacilityProblem(("line", length), ambulances, lambda_=1.0)
        assert exact_facility_optimum(problem) == reference_oracle(problem)

    @pytest.mark.parametrize("geometry, ambulances, metric", [
        (("grid", 4, 4), 2, "manhattan"),
        (("grid", 4, 3), 3, "euclidean"),
        (("grid", 3, 3), 4, "squared-euclidean"),
    ])
    def test_equals_itertools_reference_on_grids(self, geometry, ambulances, metric):
        problem = FacilityProblem(geometry, ambulances, lambda_=1.0, metric=metric)
        assert exact_facility_optimum(problem) == reference_oracle(problem)


class TestSimulatedAnnealing:
    def test_finds_planted_optimum(self):
        # strong independent fields: the optimum sets exactly the negative ones
        model = QuboModel(n=8, linear={i: (-1.0 if i % 2 else 1.0) for i in range(8)})
        hits = 0
        for seed in range(20):
            state, e = simulated_annealing(model, SimAnneal(sweeps=200), seed)
            if e == -4.0:
                hits += 1
        assert hits >= 19

    def test_energy_matches_state(self):
        rng = np.random.default_rng(1)
        model = random_qubo(6, rng)
        state, e = simulated_annealing(model, SimAnneal(sweeps=50), seed=2)
        assert e == pytest.approx(energy_qubo(model, state))

    def test_deterministic(self):
        model = random_qubo(6, np.random.default_rng(3))
        assert simulated_annealing(model, SimAnneal(sweeps=100), 7) == simulated_annealing(
            model, SimAnneal(sweeps=100), 7
        )

    @pytest.mark.parametrize("make, message", [
        (lambda: SimAnneal(sweeps=0), "need sweeps >= 1 and 0 < beta_initial < beta_final"),
        (lambda: SimAnneal(beta_initial=5.0, beta_final=1.0), "need sweeps >= 1 and 0 < beta_initial < beta_final"),
        (lambda: SimAnneal(beta_final=float("inf")), "need a finite beta_final, got inf"),
        (lambda: Tabu(max_iter=0), "need max_iter >= 1"),
        (lambda: Tabu(tenure=0), "need tenure >= 1, got 0"),
        (lambda: restart_harness(Tabu(), QuboModel(n=2), restarts=0, seed=0), "need restarts >= 1, got 0"),
        (lambda: anneal_parameter_sweep(FacilityProblem(("line", 2)), [1.0], sweeps=5, reads=0, seed=0),
         "need reads >= 1, got 0"),
    ])
    def test_invalid_config(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestTabuSearch:
    def test_descends_to_local_optimum(self):
        model = QuboModel(n=4, linear={0: -3.0, 1: 1.0, 2: -2.0, 3: 1.0})
        state, e = tabu_search(model, Tabu(max_iter=50), seed=0)
        assert e == -5.0
        assert state == "1010"

    def test_energy_matches_state(self):
        model = random_qubo(7, np.random.default_rng(4))
        state, e = tabu_search(model, Tabu(max_iter=100), seed=5)
        assert e == pytest.approx(energy_qubo(model, state))

    def test_aspiration_escapes_single_flip_traps(self):
        # exhaustive check on small random instances: tabu with a generous
        # budget should reach the global optimum from any seed
        rng = np.random.default_rng(6)
        for _ in range(5):
            model = random_qubo(6, rng)
            opt = float(energy_vector(model).min())
            _, e = tabu_search(model, Tabu(max_iter=200), seed=int(rng.integers(2**31)))
            assert e == pytest.approx(opt)

    def test_default_tenure(self):
        model = random_qubo(5, np.random.default_rng(9))
        state, e = tabu_search(model, Tabu(), seed=1)
        assert len(state) == 5


class TestHarness:
    def test_frequency_and_best(self):
        model = QuboModel(n=5, linear={i: -1.0 for i in range(5)})
        res = restart_harness(Tabu(max_iter=30), model, restarts=10, seed=0)
        assert res.best_energy == -5.0
        assert res.frequency_of_best == 1.0
        assert res.best_state == "11111"

    def test_d_sol_and_ratio(self):
        problem = FacilityProblem(("line", 4), 2, lambda_=10.0)
        model, enc = encode_start_dest(problem)
        res = restart_harness(SimAnneal(sweeps=300), model, restarts=20, seed=3, encoding=enc, d_min=2.0)
        assert res.d_sol == 2.0
        assert res.ratio == pytest.approx(1.0)

    def test_single_ambulance_decoding(self):
        problem = FacilityProblem(("line", 5), 1, lambda_=40.0)
        model, enc = encode_single_complement(problem)
        res = restart_harness(Tabu(max_iter=60), model, 10, seed=1, encoding=enc, d_min=10.0)
        assert res.d_sol == 10.0

    def test_deterministic(self):
        model = random_qubo(8, np.random.default_rng(12))
        config = SimAnneal(sweeps=60)
        a = restart_harness(config, model, 5, seed=21)
        b = restart_harness(config, model, 5, seed=21)
        assert (a.best_energy, a.frequency_of_best, a.best_state) == (
            b.best_energy,
            b.frequency_of_best,
            b.best_state,
        )


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_heuristic_energies_are_lower_bounded(seed):
    rng = np.random.default_rng(seed)
    model = random_qubo(int(rng.integers(3, 8)), rng)
    opt = float(energy_vector(model).min())
    _, e_sa = simulated_annealing(model, SimAnneal(sweeps=80), int(rng.integers(2**31)))
    _, e_tb = tabu_search(model, Tabu(max_iter=80), int(rng.integers(2**31)))
    assert e_sa >= opt - 1e-9
    assert e_tb >= opt - 1e-9
