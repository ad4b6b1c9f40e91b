"""Tests for the annealing toolbox: dynamics, TTS, parameter sweeps."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quambo import anneal, problems
from quambo.anneal import (
    AnnealSchedule,
    anneal_parameter_sweep,
    simulate_forward_anneal,
    simulate_reverse_anneal,
    tts,
)
from quambo.heuristics import SimAnneal, batched_simulated_annealing, restart_seeds
from quambo.problems import FacilityProblem, encode_start_dest
from quambo.qaoa import Scorer, metrics
from quambo.qubo import TIE_TOL, CapacityError, IsingModel, energies_at, energy_vector, index_from_string
from quambo.simulator import basis_state, uniform_state
from references import reference_parameter_sweep, reference_propagate


def two_spin_model():
    # unique ground state |11> (z = -1, -1)
    return IsingModel(n=2, h={0: 1.0, 1: 1.0}, J={(0, 1): 0.5})


# The reverse schedules of the benchmark's problem A (n = 5) and problem C (n = 8) anneals.
REVERSE_A = AnnealSchedule("reverse", T=5.0, steps=1000, s_min=0.5, hold=2.0)
REVERSE_C = AnnealSchedule("reverse", T=5.0, steps=30, s_min=0.5, hold=1.0)


class TestSchedule:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            AnnealSchedule(kind="sideways", T=1.0)

    def test_positive_time(self):
        with pytest.raises(ValueError):
            AnnealSchedule(kind="forward", T=0.0)

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), -1.0])
    def test_time_must_be_finite_and_positive(self, T):
        with pytest.raises(ValueError, match="finite T > 0"):
            AnnealSchedule(kind="forward", T=T)

    @pytest.mark.parametrize("hold", [-3.0, float("nan"), float("inf")])
    def test_hold_must_be_finite_and_nonnegative(self, hold):
        with pytest.raises(ValueError, match="finite hold >= 0"):
            AnnealSchedule(kind="reverse", T=1.0, hold=hold)

    def test_reverse_s_min_range(self):
        with pytest.raises(ValueError):
            AnnealSchedule(kind="reverse", T=1.0, s_min=1.5)

    def test_forward_has_no_hold(self):
        with pytest.raises(ValueError, match="a forward schedule has no hold, got hold=2.0"):
            AnnealSchedule(kind="forward", T=1.0, hold=2.0)

    @pytest.mark.parametrize("steps", [2.5, True, 0, "3"])
    def test_steps_must_be_an_int_of_at_least_one(self, steps):
        with pytest.raises(ValueError, match=f"an int steps >= 1, got T=1.0, steps={steps!r}"):
            AnnealSchedule("forward", T=1.0, steps=steps)

    @pytest.mark.parametrize("schedule", [REVERSE_A, REVERSE_C, AnnealSchedule("reverse", T=0.7, steps=41, s_min=0.1),
                                          AnnealSchedule("reverse", T=3.0, steps=2, s_min=0.9, hold=0.3)])
    def test_reverse_midpoints_mirror_bitwise(self, schedule):
        s_mid = schedule.midpoints()
        dt = schedule.duration / schedule.steps
        assert np.array_equal(s_mid, s_mid[::-1])
        assert np.abs(s_mid - [schedule.s((k + 0.5) * dt) for k in range(schedule.steps)]).max() <= 4e-16

    def test_forward_midpoints_are_the_curve_at_each_midpoint(self):
        schedule = AnnealSchedule("forward", T=10.0, steps=1000)
        want = [schedule.s((k + 0.5) * 0.01) for k in range(1000)]
        assert schedule.midpoints().tolist() == want

    def test_reverse_curve(self):
        schedule = AnnealSchedule("reverse", T=2.0, s_min=0.4, hold=1.0)
        assert schedule.duration == 5.0
        assert [schedule.s(t) for t in (0.0, 1.0, 2.0, 2.5, 3.0, 5.0)] == pytest.approx([1.0, 0.7, 0.4, 0.4, 0.4, 1.0])


class TestForwardAnneal:
    def test_sudden_quench_keeps_uniform_overlap(self):
        _, p_gnd = simulate_forward_anneal(two_spin_model(), AnnealSchedule("forward", T=1e-4, steps=10))
        assert p_gnd == pytest.approx(0.25, abs=1e-3)

    def test_slow_anneal_reaches_ground(self):
        _, p_gnd = simulate_forward_anneal(two_spin_model(), AnnealSchedule("forward", T=50.0, steps=400))
        assert p_gnd > 0.99

    def test_monotone_in_time(self):
        ps = [
            simulate_forward_anneal(two_spin_model(), AnnealSchedule("forward", T=T, steps=200))[1]
            for T in (0.5, 5.0, 50.0)
        ]
        assert ps[0] < ps[1] < ps[2]

    def test_norm_preserved(self):
        state, _ = simulate_forward_anneal(two_spin_model(), AnnealSchedule("forward", T=3.0, steps=100))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            simulate_forward_anneal(IsingModel(n=11), AnnealSchedule("forward", T=1.0))

    def test_reverse_schedule_rejected(self):
        with pytest.raises(ValueError, match="a forward anneal needs a forward schedule, got a reverse one"):
            simulate_forward_anneal(two_spin_model(), AnnealSchedule("reverse", T=1.0, s_min=0.2, hold=1.0))


class TestPropagator:
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["forward", "reverse"]), st.integers(1, 41), st.booleans(),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(seed=1, kind="reverse", steps=1, held=True, s_min=0.3)
    @example(seed=2, kind="reverse", steps=2, held=False, s_min=0.6)
    @example(seed=3, kind="forward", steps=1, held=False, s_min=0.5)
    @example(seed=4, kind="forward", steps=2, held=False, s_min=0.5)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_step_by_step_propagator(self, seed, kind, steps, held, s_min):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        ising = IsingModel(n, h={i: rng.normal() for i in range(n)},
                           J={(i, j): rng.normal() for i in range(n) for j in range(i + 1, n)})
        hold = float(rng.uniform(0.1, 3.0)) if held and kind == "reverse" else 0.0
        schedule = AnnealSchedule(kind, T=float(rng.uniform(0.1, 5.0)), steps=steps, s_min=s_min, hold=hold)
        if kind == "forward":
            psi0 = uniform_state(n).amplitudes
            state, p_gnd = simulate_forward_anneal(ising, schedule)
        else:
            seed_state = "".join(rng.choice(["0", "1"], n))
            psi0 = basis_state(n, seed_state).amplitudes
            state, p_gnd = simulate_reverse_anneal(ising, seed_state, schedule)
        diag = energy_vector(ising)
        want = reference_propagate(psi0, diag, schedule)
        assert np.abs(state.amplitudes - want).max() < 1e-10
        assert abs(p_gnd - (np.abs(want) ** 2)[np.abs(diag - diag.min()) < TIE_TOL].sum()) < 1e-10

    @pytest.mark.parametrize("schedule, calls", [(AnnealSchedule("forward", T=10.0, steps=37), 37),
                                                 (REVERSE_A, 418), (REVERSE_C, 15)])
    def test_eigensolves_per_schedule(self, monkeypatch, schedule, calls):
        count = 0
        eigh = np.linalg.eigh

        def counting(H):
            nonlocal count
            count += 1
            return eigh(H)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        if schedule.kind == "forward":
            simulate_forward_anneal(two_spin_model(), schedule)
        else:
            simulate_reverse_anneal(two_spin_model(), "00", schedule)
        assert count == calls

    @pytest.mark.parametrize("steps, hold", [(30, 1.0), (31, 0.4)])
    def test_problem_c_size_matches_the_step_by_step_propagator(self, steps, hold):
        """n = 8 with problem C's schedule shape, where the rising leg's replay saves the most."""
        rng = np.random.default_rng(steps)
        ising = IsingModel(8, h={i: rng.normal() for i in range(8)},
                           J={(i, j): rng.normal() for i in range(8) for j in range(i + 1, 8)})
        schedule = AnnealSchedule("reverse", T=5.0, steps=steps, s_min=0.5, hold=hold)
        state, _ = simulate_reverse_anneal(ising, "10110010", schedule)
        want = reference_propagate(basis_state(8, "10110010").amplitudes, energy_vector(ising), schedule)
        assert np.abs(state.amplitudes - want).max() < 1e-10

    @pytest.mark.parametrize("schedule", [REVERSE_A, REVERSE_C])
    @pytest.mark.parametrize("kept", [0, 2])
    def test_runs_past_the_keep_bound_are_solved_again_bitwise(self, monkeypatch, schedule, kept):
        """A falling run whose eigensystem the bound does not hold costs one more eigh, and no bit of the state."""
        rng = np.random.default_rng(11)
        ising = IsingModel(5, h={i: rng.normal() for i in range(5)},
                           J={(i, j): rng.normal() for i in range(5) for j in range(i + 1, 5)})
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(H) or eigh(H))
        state, p_gnd = simulate_reverse_anneal(ising, "01101", schedule)
        falling = len(calls)  # an even step count has no middle step
        monkeypatch.setattr(anneal, "ANNEAL_KEEP_FLOATS", kept * 32 * (32 + 2))
        calls.clear()
        again, p_again = simulate_reverse_anneal(ising, "01101", schedule)
        assert np.array_equal(again.amplitudes, state.amplitudes) and p_again == p_gnd
        assert len(calls) == 2 * falling - kept


class TestReverseAnneal:
    def test_fast_cycle_keeps_seed(self):
        _, p_gnd = simulate_reverse_anneal(
            two_spin_model(), "11", AnnealSchedule("reverse", T=1e-4, steps=20)
        )
        assert p_gnd > 0.999

    def test_hold_spreads_excited_seed(self):
        schedule = AnnealSchedule("reverse", T=5.0, steps=300, s_min=0.3, hold=5.0)
        _, p_gnd = simulate_reverse_anneal(two_spin_model(), "00", schedule)
        assert 0.0 < p_gnd <= 1.0

    def test_norm_preserved(self):
        schedule = AnnealSchedule("reverse", T=2.0, steps=150, s_min=0.5, hold=1.0)
        state, _ = simulate_reverse_anneal(two_spin_model(), "11", schedule)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_forward_schedule_rejected(self):
        with pytest.raises(ValueError, match="a reverse anneal needs a reverse schedule, got a forward one"):
            simulate_reverse_anneal(two_spin_model(), "11", AnnealSchedule("forward", T=1.0))

    @pytest.mark.parametrize("seed_state, message", [
        ("1", "need a state of 2 bits, got 1: '1'"),
        ("111", "need a state of 2 bits, got 3: '111'"),
        ("", "need a state of 2 bits, got 0: ''"),
        ([1, 1, 0], "need a state of 2 bits, got 3: [1, 1, 0]"),
        ("1x", "need a state of bits 0/1, got '1x'"),
        ("12", "need a state of bits 0/1, got '12'"),
        ([2, 0], "need a state of bits 0/1, got [2, 0]"),
        ([1, -1], "need a state of bits 0/1, got [1, -1]"),
        ([0.5, 1], "need a state of bits 0/1, got [0.5, 1]"),
    ])
    def test_seed_must_be_n_bits(self, seed_state, message):
        """The seed goes through qubo.bits_of: one message per fault, before the model's energies are built."""
        schedule = AnnealSchedule("reverse", T=1.0, steps=4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_reverse_anneal(two_spin_model(), seed_state, schedule)

    def test_seed_may_be_a_sequence(self):
        schedule = AnnealSchedule("reverse", T=2.0, steps=20, s_min=0.5, hold=1.0)
        by_string = simulate_reverse_anneal(two_spin_model(), "01", schedule)
        by_list = simulate_reverse_anneal(two_spin_model(), [0, 1], schedule)
        assert np.array_equal(by_string[0].amplitudes, by_list[0].amplitudes) and by_string[1] == by_list[1]

    def test_size_cap(self):
        with pytest.raises(CapacityError, match="n=11 exceeds anneal cap 10"):
            simulate_reverse_anneal(IsingModel(n=11), "0" * 11, AnnealSchedule("reverse", T=1.0))


class TestAnnealerFormulas:
    def test_tts_at_target_confidence(self):
        assert tts(0.99, 7.5) == pytest.approx(7.5)

    def test_tts_half(self):
        assert tts(0.5, 100.0) == pytest.approx(664.386, abs=0.1)

    def test_tts_domain(self):
        for p in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                tts(p, 1.0)
        for t_cycle in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^need a finite t_cycle > 0, got {t_cycle}$"):
                tts(0.5, t_cycle)


class TestSweep:
    def test_sweep_is_deterministic(self):
        problem = FacilityProblem(("line", 3), 1, lambda_ratio=1.0)
        out = anneal_parameter_sweep(problem, [0.5, 4.0], 20, reads=10, seed=3)
        assert out == anneal_parameter_sweep(problem, [0.5, 4.0], 20, reads=10, seed=3)
        for _, m in out:  # p_feas and p_gnd are counts of the 10 reads
            assert (10 * m.p_feas).is_integer() and (10 * m.p_gnd).is_integer()
        assert out != anneal_parameter_sweep(problem, [0.5, 4.0], 20, reads=10, seed=4)

    def test_parameter_sweep_metrics(self):
        problem = FacilityProblem(("line", 2), 1, lambda_ratio=2.0)
        out = anneal_parameter_sweep(problem, [1.0, 5.0], 20, reads=40, seed=9)
        assert [ratio for ratio, _ in out] == [1.0, 5.0]
        for _, m in out:
            assert 0.0 <= m.p_gnd <= m.p_feas <= 1.0

    @pytest.mark.parametrize("geometry, m, forbid", [(("line", 4), 2, False), (("grid", 2, 2), 2, True),
                                                     (("grid", 3, 2), 2, False)])
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_one_batch_sweep_equals_the_per_ratio_sweep(self, geometry, m, forbid, seed):
        problem = FacilityProblem(geometry, m, lambda_ratio=1.0, forbid_colocation=forbid)
        ratios, sweeps, reads = [0.5, 1.0, 10.0], 12, 20
        want = reference_parameter_sweep(problem, ratios, sweeps, reads, seed)
        assert anneal_parameter_sweep(problem, ratios, sweeps, reads, seed) == want

    def test_sweep_needs_a_ratio(self):
        with pytest.raises(ValueError, match="^need at least one lambda ratio$"):
            anneal_parameter_sweep(FacilityProblem(("line", 3), 1), [], 10, reads=5, seed=1)

    def test_sweep_equals_one_scorer_per_ratio_with_one_enumeration(self, monkeypatch):
        # each ratio scored against its own encoding's sector, as Scorer.of builds it
        problem = FacilityProblem(("grid", 2, 2), 2, lambda_ratio=1.0)
        ratios, sweeps, reads, seed = [0.25, 1.0, 6.0], 15, 30, 5
        want = []
        for ratio, ratio_seed in zip(ratios, restart_seeds(seed, len(ratios))):
            model, enc = encode_start_dest(FacilityProblem(("grid", 2, 2), 2, lambda_ratio=ratio))
            scorer = Scorer.of(model, enc)
            states, _e = batched_simulated_annealing([model] * reads, SimAnneal(sweeps), restart_seeds(ratio_seed, reads))
            indices = np.array([index_from_string(s) for s in states])
            ev = float(energies_at(model, indices).mean())
            want.append((ratio, metrics(scorer, scorer.counts(indices), total=reads, ev=ev)))
        calls = []
        original = problems.feasible_indices
        monkeypatch.setattr(problems, "feasible_indices", lambda enc: calls.append(enc) or original(enc))
        assert anneal_parameter_sweep(problem, ratios, sweeps, reads, seed) == want
        assert len(calls) == 1
