"""Tests for the annealing toolbox: dynamics, TTS, chains, parameter sweeps."""

import numpy as np
import pytest

from quambo.anneal import (
    AnnealSchedule,
    anneal_parameter_sweep,
    chain_strength,
    resolve_chain_majority,
    sim_anneal_sampler,
    simulate_forward_anneal,
    simulate_reverse_anneal,
    tts,
)
from quambo.problems import FacilityProblem
from quambo.qubo import CapacityError, IsingModel


def two_spin_model():
    # unique ground state |11> (z = -1, -1)
    return IsingModel(n=2, h={0: 1.0, 1: 1.0}, J={(0, 1): 0.5})


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

    def test_chain_strength_complete_graph(self):
        J = {(i, j): 2.0 for i in range(5) for j in range(i + 1, 5)}
        model = IsingModel(n=5, J=J)
        assert chain_strength(1.0, model) == pytest.approx(4.0)

    def test_chain_strength_scales_with_prefactor(self):
        model = IsingModel(n=2, J={(0, 1): 3.0})
        assert chain_strength(2.0, model) == pytest.approx(2.0 * chain_strength(1.0, model))

    def test_chain_strength_needs_couplings(self):
        with pytest.raises(ValueError):
            chain_strength(1.0, IsingModel(n=3, h={0: 1.0}))


class TestChainMajority:
    def test_clear_majority(self):
        assert resolve_chain_majority([[0, 1, 2], [3, 4]], "11000") == "10"

    def test_tie_is_seeded(self):
        votes = {resolve_chain_majority([[0, 1]], "10", seed=s) for s in range(20)}
        assert votes == {"0", "1"}
        assert resolve_chain_majority([[0, 1]], "10", seed=4) == resolve_chain_majority(
            [[0, 1]], "10", seed=4
        )

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            resolve_chain_majority([[0, 1], [1, 2]], "000")

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            resolve_chain_majority([[0], []], "0")


class TestSweep:
    def test_sampler_shape_and_determinism(self):
        from quambo.qubo import QuboModel

        sampler = sim_anneal_sampler(sweeps=20)
        model = QuboModel(n=4, linear={i: -1.0 for i in range(4)})
        reads = sampler(model, 10, seed=3)
        assert len(reads) == 10 and all(len(s) == 4 for s in reads)
        assert reads == sampler(model, 10, seed=3)
        assert reads.count("1111") >= 8

    def test_parameter_sweep_metrics(self):
        problem = FacilityProblem(("line", 2), 1, lambda_ratio=2.0)
        out = anneal_parameter_sweep(
            problem, [1.0, 5.0], sim_anneal_sampler(sweeps=20), reads=40, seed=9
        )
        assert [ratio for ratio, _ in out] == [1.0, 5.0]
        for _, m in out:
            assert 0.0 <= m.p_gnd <= m.p_feas <= 1.0
