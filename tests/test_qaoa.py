"""Tests for the QAOA engine: ansatz, metrics, schedules, gain breakdown."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quambo.problems import (
    FacilityProblem,
    encode_position_linear,
    encode_single_complement,
    encode_start_dest,
    feasible_sector,
    feasible_spectrum,
    problem_variant,
)
from quambo import qaoa
from quambo.optimize import NelderMead, Spsa
from quambo.qaoa import (
    InitSpec,
    MixerSpec,
    QaoaContext,
    RunMetrics,
    Scorer,
    extrap_extend,
    gain_decomposition,
    increasing_p_schedule,
    interp_extend,
    metrics,
    random_restart_search,
    summarize_metrics,
)
from quambo.qubo import energy_vector
from quambo.simulator import apply_phase_vector, apply_x_mixer, basis_state

from references import (
    apply_xy_ring_mixer,
    masked_uniform_state,
    reference_ev,
    reference_initial_state,
    reference_phase_diagonals,
    reference_extrap_extend,
    reference_interp_extend,
    scipy_nelder_mead,
)


@pytest.fixture(scope="module")
def problem_a():
    problem = FacilityProblem(("line", 5), 1, lambda_=40)
    return encode_single_complement(problem)


@pytest.fixture(scope="module")
def ctx_a_xy(problem_a):
    model, enc = problem_a
    mixer = MixerSpec(kind="XY", rings=[[0, 1, 2, 3, 4]])
    return QaoaContext(enc, model, mixer, InitSpec(kind="Dicke"))


@pytest.fixture(scope="module")
def ctx_a_x(problem_a):
    model, enc = problem_a
    return QaoaContext(enc, model, MixerSpec(kind="X"), InitSpec(kind="Uniform"))


@pytest.fixture(scope="module")
def encoded_b():
    return encode_start_dest(problem_variant("B"))


class TestSpecs:
    def test_mixer_kinds(self):
        with pytest.raises(ValueError):
            MixerSpec(kind="YZ")
        with pytest.raises(ValueError):
            MixerSpec(kind="ThreeXY", angle_scheme=(2, 3))

    def test_angle_counts(self):
        assert MixerSpec(kind="X").n_beta == 1
        m = MixerSpec(kind="ThreeXY", angle_scheme=(3, 3))
        assert (m.n_beta, m.n_gamma) == (3, 3)
        m = MixerSpec(kind="ThreeXY", angle_scheme=(2, 1))
        assert (m.n_beta, m.n_gamma) == (2, 1)

    def test_init_kind(self):
        with pytest.raises(ValueError):
            InitSpec(kind="Thermal")
        with pytest.raises(ValueError, match="needs a seed"):
            InitSpec(kind="RandomFeasible")


class TestAnsatz:
    def test_zero_angles_is_initial_state(self, ctx_a_xy):
        state = ctx_a_xy.run(np.zeros(4), 2)
        assert np.abs(state.amplitudes - masked_uniform_state(5, [((0, 5), 4)]).amplitudes).max() < 1e-12

    def test_uniform_zero_mixer_ev_is_mean(self, problem_a):
        model, enc = problem_a
        ctx = QaoaContext(enc, model, MixerSpec(kind="X"), InitSpec(kind="Uniform"))
        ev = ctx.ev(np.array([0.0, 1.3]), p=1)  # beta=0, any gamma
        assert ev == pytest.approx(energy_vector(model).mean())

    def test_xy_keeps_feasible_sector(self, ctx_a_xy):
        rng = np.random.default_rng(0)
        m = ctx_a_xy.metrics(rng.uniform(0, 2 * np.pi, 6), 3)
        assert m.p_feas == pytest.approx(1.0, abs=1e-10)

    def test_angle_shape_checked(self, ctx_a_xy):
        with pytest.raises(ValueError):
            ctx_a_xy.run(np.zeros(3), 1)

    @pytest.mark.parametrize("call", ["run", "ev"])
    def test_zero_layers_is_an_error(self, ctx_a_xy, call):
        with pytest.raises(ValueError, match="need p >= 1"):
            getattr(ctx_a_xy, call)(np.zeros(0), 0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_phase_table_is_the_sorted_distinct_columns(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(-3, 4, size=(int(rng.integers(1, 4)), int(rng.integers(1, 300)))) * 0.5
        table, index = qaoa._phase_table(rows)
        want_table, want_index = np.unique(rows.T, axis=0, return_inverse=True)
        assert np.array_equal(table, want_table.T) and np.array_equal(index, want_index.reshape(-1))
        assert index.dtype == np.int64 and np.array_equal(table[:, index], rows)

    @pytest.mark.parametrize("scheme", [(1, 1), (3, 3)])
    def test_sector_fast_path_matches_full_simulation(self, encoded_b, scheme):
        model, enc = encoded_b
        mixer = MixerSpec(kind="ThreeXY", angle_scheme=scheme)
        fast = QaoaContext(enc, model, mixer, InitSpec(kind="DickeBlocks"))
        slow = QaoaContext(enc, model, mixer, InitSpec(kind="DickeBlocks"), use_sector=False)
        assert fast.basis == "sector" and slow.basis == "full"
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 2 * np.pi, 2 * sum(scheme))
        assert np.abs(fast.run(x, 2).amplitudes - slow.run(x, 2).amplitudes).max() < 1e-12
        assert fast.ev(x, 2) == pytest.approx(slow.ev(x, 2), abs=1e-10)

    def test_x_mixer_never_uses_sector(self, problem_a):
        model, enc = problem_a
        ctx = QaoaContext(enc, model, MixerSpec(kind="X"), InitSpec(kind="Uniform"))
        assert ctx.basis == "full"

    def test_three_xy_zero_leakage(self, encoded_b):
        model, enc = encoded_b
        ctx = QaoaContext(enc, model, MixerSpec(kind="ThreeXY", angle_scheme=(3, 3)), InitSpec(kind="DickeBlocks"))
        rng = np.random.default_rng(5)
        m = ctx.metrics(rng.uniform(0, 2 * np.pi, 6), 1)
        assert abs(m.p_feas - 1.0) < 1e-12


class TestRings:
    """The XY rings are the encoding's Hamming blocks; rings is None or exactly those blocks."""

    @pytest.mark.parametrize("kind", ["XY", "ThreeXY"])
    def test_rings_other_than_the_blocks_are_refused(self, encoded_b, kind):
        model, enc = encoded_b
        rings = [[3, 2, 1, 0], [4, 5, 6, 7], list(range(8, 16))]
        with pytest.raises(ValueError, match=r"^rings must be None or the encoding's Hamming blocks "
                                             r"\[\[0, 1, 2, 3\], \[4, 5, 6, 7\], \[8, 9, .*, 15\]\]$"):
            QaoaContext(enc, model, MixerSpec(kind, rings=rings, angle_scheme=(3, 3)), InitSpec("Uniform"))

    @pytest.mark.parametrize("kind", ["X", "XY", "ThreeXY"])
    def test_rings_equal_to_the_blocks_build_the_default_context(self, encoded_b, kind):
        model, enc = encoded_b
        blocks = [list(range(lo, hi)) for (lo, hi), _w in enc.hamming_targets]
        mixers = [MixerSpec(kind, rings=rings, angle_scheme=(3, 3)) for rings in (blocks, None)]
        x = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, 2 * (mixers[0].n_beta + mixers[0].n_gamma))
        for init in ("Uniform", "DickeBlocks"):
            given, default = (QaoaContext(enc, model, mixer, InitSpec(init)) for mixer in mixers)
            assert given.engine == default.engine and np.array_equal(given._index, default._index)
            assert np.float64(given.ev(x, 2)).tobytes() == np.float64(default.ev(x, 2)).tobytes()


# Small instances of the three encodings; start/dest has the three Hamming blocks ThreeXY needs.
ENCODINGS = {
    "complement": encode_single_complement(FacilityProblem(("line", 5), 1, lambda_=40)),
    "position-linear": encode_position_linear(FacilityProblem(("line", 5), 2, lambda_ratio=1.0)),
    "start-dest": encode_start_dest(FacilityProblem(("line", 2), 2, lambda_ratio=1.0)),
}
MIXERS = [(enc, kind, None) for enc in ENCODINGS for kind in ("X", "XY")]
MIXERS += [("start-dest", "ThreeXY", scheme) for scheme in ((1, 1), (2, 1), (3, 1), (3, 3))]
INITS = ["Uniform", "Dicke", "DickeBlocks", "RandomFeasible"]


# The mixers' encodings, plus problem B (n = 16: X in four descending blocks, against two at the n = 8
# start/dest) and a euclidean start/dest problem, whose distances are not binary fractions.
COST_ENCODINGS = {
    **ENCODINGS,
    "B": encode_start_dest(problem_variant("B")),
    "euclidean": encode_start_dest(FacilityProblem(("grid", 2, 2), 2, metric="euclidean", lambda_ratio=1.0)),
}
COST_MIXERS = MIXERS + [("B", "X", None), ("B", "ThreeXY", (3, 3)),
                        ("euclidean", "X", None), ("euclidean", "ThreeXY", (3, 3))]


class TestCostRows:
    @pytest.mark.parametrize("encoding, kind, scheme", COST_MIXERS)
    def test_cost_rows_are_the_reference_diagonals(self, encoding, kind, scheme):
        """The engine's cost rows are the reference diagonals at its basis indices, in either basis: bitwise for
        integer distances, within 1e-12 of the largest energy for euclidean ones."""
        model, enc = COST_ENCODINGS[encoding]
        mixer = MixerSpec(kind, angle_scheme=scheme or (1, 1))
        for use_sector in (True, False):
            ctx = QaoaContext(enc, model, mixer, InitSpec("Uniform" if kind == "X" else "DickeBlocks"), use_sector)
            want = np.array([diagonal[ctx._index] for diagonal in reference_phase_diagonals(ctx)])
            got, total = ctx._cost_table[:, ctx._cost_index], sum(want[1:], want[0])
            assert got.shape == want.shape == (mixer.n_gamma, len(ctx._index))
            if encoding == "euclidean":
                scale = 1e-12 * np.abs(want).max()
                assert np.abs(got - want).max() <= scale and np.abs(ctx._cost - total).max() <= scale
            else:
                assert got.tobytes() == want.tobytes() and ctx._cost.tobytes() == total.tobytes()
            assert np.abs(total - energy_vector(model)[ctx._index]).max() < 1e-9


def reference_state(ctx, x, p):
    """The ansatz at the angles x of depth p, built gate by gate from the simulator primitives alone."""
    state = reference_initial_state(ctx)
    betas, gammas = x[:p * ctx.mixer.n_beta].reshape(p, -1), x[p * ctx.mixer.n_beta:].reshape(p, -1)
    diags = reference_phase_diagonals(ctx)
    for r in range(p):
        for diag, g in zip(diags, gammas[r]):
            apply_phase_vector(state, diag, g)
        beta = betas[r]
        if ctx.mixer.kind == "X":
            apply_x_mixer(state, beta[0])
            continue
        ring_betas = {1: [0, 0, 0], 2: [0, 0, 1], 3: [0, 1, 2]}[len(beta)]
        for t, ((lo, hi), _w) in enumerate(ctx.encoding.hamming_targets):  # one ring per Hamming block
            apply_xy_ring_mixer(state, range(lo, hi), beta[ring_betas[t] if ctx.mixer.kind == "ThreeXY" else 0])
    return state


class TestEngineAgainstPrimitives:
    @pytest.mark.parametrize("encoding, kind, scheme", MIXERS)
    def test_run_and_ev_match_the_gate_by_gate_reference(self, encoding, kind, scheme):
        model, enc = ENCODINGS[encoding]
        rings = [list(range(lo, hi)) for (lo, hi), _w in enc.hamming_targets]
        mixer = MixerSpec(kind, rings=rings if kind == "XY" else None, angle_scheme=scheme or (1, 1))
        rng = np.random.default_rng([len(encoding), len(kind), *(scheme or ())])
        x = np.concatenate([rng.uniform(0, 2 * np.pi, 2 * mixer.n_beta),
                            rng.uniform(0, 2 * np.pi, 2 * mixer.n_gamma) / 10])
        for init in INITS:
            spec = InitSpec(init, seed=5)
            in_sector = kind != "X" and init != "Uniform" and not (init == "Dicke" and len(rings) > 1)
            want = None
            for use_sector in (True, False):
                ctx = QaoaContext(enc, model, mixer, spec, use_sector=use_sector)
                assert ctx.basis == ("sector" if in_sector and use_sector else "full")
                want = want or reference_state(ctx, x, 2)
                assert np.abs(ctx.run(x, 2).amplitudes - want.amplitudes).max() < 1e-12
                assert ctx.ev(x, 2) == pytest.approx(want.probabilities() @ sum(reference_phase_diagonals(ctx)),
                                                     rel=1e-12, abs=1e-12)


def contexts():
    """(name, context) over encodings x mixers x inits x both bases."""
    for encoding, kind, scheme in MIXERS:
        model, enc = ENCODINGS[encoding]
        rings = [list(range(lo, hi)) for (lo, hi), _w in enc.hamming_targets]
        mixer = MixerSpec(kind, rings=rings if kind == "XY" else None, angle_scheme=scheme or (1, 1))
        for init in INITS:
            spec = InitSpec(init, seed=5)
            for use_sector in (True, False):
                ctx = QaoaContext(enc, model, mixer, spec, use_sector=use_sector)
                yield f"{encoding}-{kind}{scheme or ''}-{init}-{ctx.basis}", ctx


def score(ctx, state):
    """The figures of merit of a full state, scored as callers outside the engine score one."""
    return metrics(ctx.scorer, state.probabilities()[ctx.scorer.indices])


class TestContextMetrics:
    """ctx.metrics(x, p) scores the engine's own amplitudes: the figures of merit of run(x, p), and ev(x, p)."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_equal_the_full_state_scored_bitwise(self, p):
        rng = np.random.default_rng(p)
        for name, ctx in contexts():
            x = rng.uniform(0.0, 2.0 * np.pi, p * (ctx.mixer.n_beta + ctx.mixer.n_gamma))
            got, want = ctx.metrics(x, p), score(ctx, ctx.run(x, p))
            assert (got.p_feas, got.p_gnd, got.r_approx) == (want.p_feas, want.p_gnd, want.r_approx), name
            assert got.ev == ctx.ev(x, p), name

    def test_n24_sector_builds_nothing_of_size_2_to_the_n(self):
        """3x2 grid, 2 ambulances: n = 24, a sector of 33 264 states; one 2^24 float64 array is 128 MiB."""
        model, enc = encode_start_dest(FacilityProblem(("grid", 3, 2), 2, lambda_ratio=1.0))
        tracemalloc.start()
        try:
            for scheme in ((1, 1), (3, 3)):
                ctx = QaoaContext(enc, model, MixerSpec("ThreeXY", angle_scheme=scheme), InitSpec("DickeBlocks"))
                assert ctx.basis == "sector" and ctx.engine["dim"] == 33264
                x = np.full(sum(scheme), 0.3)
                assert ctx.metrics(x, 1).ev == ctx.ev(x, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 20, f"traced peak {peak / 2**20:.0f} MiB"


class TestEvBatch:
    """Row k of ev_batch is bitwise the one-vector evaluator's value, whatever the other rows are."""

    @pytest.mark.parametrize("p", [1, 3])
    def test_rows_are_batch_invariant_and_equal_the_reference(self, p):
        rng = np.random.default_rng(p)
        for name, ctx in contexts():
            width = p * (ctx.mixer.n_beta + ctx.mixer.n_gamma)
            for K in (1, 2, 7, 64):
                X = rng.uniform(0.0, 2.0 * np.pi, (K, width))
                values = ctx.ev_batch(X, p)
                for k in range(K):
                    assert values[k] == ctx.ev_batch(X[k:k + 1], p)[0] == reference_ev(ctx, X[k], p), (name, K, k)
                assert ctx.ev(X[0], p) == values[0]

    def test_chunks_hold_at_most_the_amplitude_budget(self, ctx_a_xy, monkeypatch):
        X = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (11, 4))
        whole = ctx_a_xy.ev_batch(X, 2)
        seen = []
        evolve = QaoaContext._evolve
        monkeypatch.setattr(QaoaContext, "_evolve", lambda self, X, p: seen.append(len(X)) or evolve(self, X, p))
        monkeypatch.setattr(qaoa, "EV_BATCH_AMPLITUDES", 3 * ctx_a_xy.engine["dim"])
        assert np.array_equal(ctx_a_xy.ev_batch(X, 2), whole)
        assert seen == [3, 3, 3, 2]
        # a budget below one state still evolves one row at a time
        seen.clear()
        monkeypatch.setattr(qaoa, "EV_BATCH_AMPLITUDES", 1)
        assert np.array_equal(ctx_a_xy.ev_batch(X[:2], 2), whole[:2])
        assert seen == [1, 1]

    def test_angle_width_checked(self, ctx_a_xy):
        with pytest.raises(ValueError, match="angle columns"):
            ctx_a_xy.ev_batch(np.zeros((2, 3)), 2)


class TestInitialStates:
    """The engine's initial state in the full basis: its basis indices with nonzero amplitude, and those amplitudes."""

    @staticmethod
    def support(encoded, mixer, kind, seed=None):
        model, enc = encoded
        ctx = QaoaContext(enc, model, mixer, InitSpec(kind=kind, seed=seed), use_sector=False)
        nonzero = np.abs(ctx._psi0) > 0
        return ctx._index[nonzero], ctx._psi0[nonzero]

    def test_random_feasible_deterministic(self, problem_a):
        draw = lambda: self.support(problem_a, MixerSpec(kind="X"), "RandomFeasible", seed=3)  # noqa: E731
        (index, amps), (again, _) = draw(), draw()
        assert index.tolist() == again.tolist() and len(index) == 1 and amps.tolist() == [1.0]

    def test_dicke_default_weight(self, problem_a):
        index, _ = self.support(problem_a, MixerSpec(kind="X"), "Dicke")
        assert len(index) == 5 and (np.bitwise_count(index) == 4).all()  # weight-4 sector of 5 qubits

    def test_dicke_4_2(self):
        encoded = encode_position_linear(FacilityProblem(("line", 4), 2, lambda_ratio=1.0))
        index, amps = self.support(encoded, MixerSpec(kind="XY"), "Dicke")
        assert len(index) == 6 and (np.bitwise_count(index) == 2).all()
        assert np.allclose(np.abs(amps), 6**-0.5)

    def test_dicke_weight_zero(self):
        # one site: the complement encoding's single qubit has weight L - 1 = 0
        encoded = encode_single_complement(FacilityProblem(("line", 1), 1, lambda_=1.0))
        index, amps = self.support(encoded, MixerSpec(kind="X"), "Dicke")
        assert index.tolist() == [0] and amps.tolist() == [1.0]

    def test_dicke_blocks_support(self, encoded_b):
        index, amps = self.support(encoded_b, MixerSpec(kind="ThreeXY"), "DickeBlocks")
        assert len(index) == 1120 and (np.bitwise_count(index) == 6).all()
        assert np.allclose(np.abs(amps), 1120**-0.5)


class TestMetrics:
    def test_pure_ground_state(self, ctx_a_xy):
        # 11011 is the distance-optimal single-ambulance layout
        m = score(ctx_a_xy, basis_state(5, "11011"))
        assert m.p_gnd == pytest.approx(1.0)
        assert m.r_approx == pytest.approx(1.0)
        assert m.p_feas == pytest.approx(1.0)

    def test_pure_worst_feasible(self, ctx_a_xy):
        worst = feasible_spectrum(ctx_a_xy.model, ctx_a_xy.encoding)[-1].states[0]
        m = score(ctx_a_xy, basis_state(5, worst))
        assert m.r_approx == pytest.approx(0.0)
        assert m.p_gnd == 0.0

    def test_no_feasible_mass_flag(self, ctx_a_xy):
        m = score(ctx_a_xy, basis_state(5, "11111"))
        assert m.p_feas == m.p_gnd == m.r_approx == 0.0

    def test_summary_frozen_example(self):
        runs = [
            RunMetrics(ev=0.0, r_approx=0.0, p_feas=0.0, p_gnd=0.0),
            RunMetrics(ev=1.0, r_approx=1.0, p_feas=1.0, p_gnd=1.0),
        ]
        s = summarize_metrics(runs)
        assert s["mean_p_gnd"] == pytest.approx(0.5)
        assert s["err_p_gnd"] == pytest.approx(0.7071, abs=1e-4)


def random_scorer(rng, n):
    """A scorer over a random non-empty subset of the 2^n states with random energies."""
    indices = rng.permutation(1 << n)[: int(rng.integers(1, (1 << n) + 1))]
    return Scorer(indices, rng.normal(size=len(indices)), np.argsort(indices))


class TestScorer:
    def test_split_level_reads_count_as_ground(self):
        # the four edge-centre placements of a euclidean 3x3 grid differ by ~1e-13;
        # without the unique centre optimum they are the ground level
        problem = FacilityProblem(("grid", 3, 3), 1, metric="euclidean", lambda_=10.0)
        indices, energies = feasible_sector(*encode_single_complement(problem))
        keep = energies > energies.min()
        scorer = Scorer(indices[keep], energies[keep], np.argsort(indices[keep]))
        level = scorer.indices[np.argsort(scorer.energies)[:4]]
        assert np.ptp(scorer.energies[np.isin(scorer.indices, level)]) > 0.0
        m = metrics(scorer, scorer.counts(np.repeat(level, 3)), total=12)
        assert m.p_gnd == 1.0

    def test_reads_outside_the_sector(self):
        scorer = Scorer(np.array([5, 2, 7]), np.array([1.0, 0.0, 3.0]), np.array([1, 0, 2]))
        assert scorer.counts(np.array([2, 0, 7, 8, 2, 5, 1])).tolist() == [1, 2, 1]

    def test_scorers_of_one_encoding_share_its_sort_order(self, encoded_b):
        model, enc = encoded_b
        first, second = Scorer.of(model, enc), Scorer.of(model, enc)
        assert first.order is second.order is enc.sector_order
        reads = np.random.default_rng(0).integers(0, 1 << 16, 5000)
        fresh = Scorer(first.indices, first.energies, np.argsort(first.indices))
        assert np.array_equal(fresh.order, first.order) and np.array_equal(fresh.counts(reads), first.counts(reads))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_basis_state_equals_reads_of_it(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        scorer = random_scorer(rng, n)
        b = int(rng.integers(1 << n))
        reads = int(rng.integers(1, 50))
        probs = np.zeros(1 << n)
        probs[b] = 1.0
        dense = metrics(scorer, probs[scorer.indices])
        sampled = metrics(scorer, scorer.counts(np.full(reads, b)), total=reads)
        assert (sampled.p_feas == 0.0) == (dense.p_feas == 0.0)
        for name in ("p_feas", "p_gnd", "r_approx"):
            assert getattr(sampled, name) == pytest.approx(getattr(dense, name), rel=1e-12, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_match_seeded_samples(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        scorer = random_scorer(rng, n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        probs = np.abs(amps) ** 2
        probs /= probs.sum()
        shots = 4000
        reads = np.repeat(np.arange(1 << n), rng.multinomial(shots, probs))
        exact = metrics(scorer, probs[scorer.indices])
        sampled = metrics(scorer, scorer.counts(reads), total=shots)

        def within_5_se(got, want, var, count):
            assert abs(got - want) <= 5.0 * np.sqrt(max(var, 0.0) / count) + 1e-12

        for name in ("p_feas", "p_gnd"):
            p = getattr(exact, name)
            within_5_se(getattr(sampled, name), p, p * (1.0 - p), shots)
        if sampled.p_feas == 0.0 or scorer.c_min == scorer.c_max:
            return
        # r_approx is the mean of (c_max - e) / (c_max - c_min) over feasible reads
        cond = probs[scorer.indices] / exact.p_feas
        r_of_state = (scorer.c_max - scorer.energies) / (scorer.c_max - scorer.c_min)
        var = cond @ (r_of_state - exact.r_approx) ** 2
        within_5_se(sampled.r_approx, exact.r_approx, var, shots * sampled.p_feas)


class TestSchedules:
    def test_interp_depth_one(self):
        assert np.allclose(interp_extend(np.array([0.8, 0.3]), 1, 1), [0.8, 0.8, 0.3, 0.3])

    def test_interp_depth_two(self):
        assert np.allclose(interp_extend(np.array([0.4, 0.9, 0.1, 0.2]), 2, 1), [0.4, 0.65, 0.9, 0.1, 0.15, 0.2])

    def test_extrap_preserves_ev(self, ctx_a_xy):
        x = np.array([0.7, 0.2])
        base = ctx_a_xy.ev(x, 1)
        for by in (1, 2):
            assert ctx_a_xy.ev(extrap_extend(x, 1, 1, by=by), 1 + by) == pytest.approx(base, abs=1e-9)

    def test_extrap_by_range(self):
        with pytest.raises(ValueError):
            extrap_extend(np.zeros(2), 1, 1, by=3)

    @given(st.integers(1, 11), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_flat_extenders_equal_the_per_column_reference(self, p, n_beta, n_gamma, seed):
        rng = np.random.default_rng(seed)
        beta, gamma = rng.uniform(-2 * np.pi, 2 * np.pi, (p, n_beta)), rng.uniform(-2 * np.pi, 2 * np.pi, (p, n_gamma))
        x = np.concatenate([beta.ravel(), gamma.ravel()])

        def flat(matrices):
            return np.concatenate([m.ravel() for m in matrices]).tobytes()

        assert interp_extend(x, p, n_beta).tobytes() == flat(reference_interp_extend(beta, gamma))
        for by in (1, 2):
            assert extrap_extend(x, p, n_beta, by=by).tobytes() == flat(reference_extrap_extend(beta, gamma, by))

    def test_schedule_ev_non_increasing(self, problem_a):
        model, enc = problem_a
        mixer = MixerSpec(kind="XY", rings=[[0, 1, 2, 3, 4]])
        ctx = QaoaContext(enc, model, mixer, InitSpec(kind="Dicke"))
        for strategy in ("INTERP", "EXTRAP1", "EXTRAP2"):
            levels = increasing_p_schedule(strategy, np.array([0.5, 0.05]), p_max=4, optimizer=NelderMead(max_iter=60),
                                           ctx=ctx)
            evs = [lvl.metrics.ev for lvl in levels]
            assert all(b <= a + 1e-9 for a, b in zip(evs, evs[1:]))
            assert [len(lvl.x) for lvl in levels] == [2 * lvl.p for lvl in levels]
            assert levels[-1].p == 4 if strategy != "EXTRAP2" else levels[-1].p in (3, 5)

    def test_unknown_strategy(self, ctx_a_x):
        with pytest.raises(ValueError):
            increasing_p_schedule("GEOMETRIC", np.zeros(2), 2, NelderMead(), ctx_a_x)


class TestRestarts:
    def test_search_shapes_and_best(self, ctx_a_x):
        runs, block = random_restart_search(ctx_a_x, 1, n_starts=4, optimizer=NelderMead(max_iter=50), seed=13)
        assert len(runs) == 4 and block["restarts"] == 4
        # each run is a restart's best point and its metrics, whose ev is the engine's at that point
        for x, m in runs:
            assert x.shape == (2,) and m.ev == ctx_a_x.ev(x, 1)

    def test_optimizer_telemetry(self, ctx_a_x):
        runs, block = random_restart_search(ctx_a_x, 2, 5, NelderMead(max_iter=30), seed=2)
        evals = sum(m.evals for _, m in runs)
        assert block["kind"] == "nelder-mead" and block["restarts"] == block["lockstep_rows"] == 5
        # one call for the initial simplices, then at most three per iteration
        assert 1 < block["batch_calls"] <= 1 + 3 * 29
        assert block["points_per_call"] == evals / block["batch_calls"]
        assert block["evals_per_row"] == evals / 5
        assert block["optimize_s"] > 0.0
        _runs, spsa = random_restart_search(ctx_a_x, 2, 2, Spsa(n_iter=5), seed=2)
        # the start points, one +/- pair per row and step, the end points: 2 * (1 + 2 * 5 + 1) evaluations
        assert spsa["kind"] == "spsa" and spsa["lockstep_rows"] == 2 and spsa["batch_calls"] == 1 + 5 + 1
        assert spsa["points_per_call"] == 2 * (1 + 2 * 5 + 1) / 7

    def test_no_restarts_is_an_error(self, ctx_a_x):
        with pytest.raises(ValueError, match="restarts >= 1"):
            random_restart_search(ctx_a_x, 1, 0, NelderMead(), seed=0)

    def test_search_equals_one_scipy_run_per_restart(self, ctx_a_x):
        optimizer = NelderMead(max_iter=60, f_tol=1e-6, x_tol=1e-6)
        runs, _block = random_restart_search(ctx_a_x, 2, 5, optimizer, seed=9)
        for i, (x, m) in enumerate(runs):
            x0 = np.random.default_rng([9, i]).uniform(0.0, 2.0 * np.pi, size=4)
            x_best, f_best, evals, _trace, _res = scipy_nelder_mead(lambda x: reference_ev(ctx_a_x, x, 2), x0,
                                                                    optimizer)
            assert np.array_equal(x, x_best)
            assert (m.ev, m.evals) == (f_best, evals)

    def test_search_deterministic(self, ctx_a_x):
        a, _ = random_restart_search(ctx_a_x, 1, 2, NelderMead(max_iter=30), seed=4)
        b, _ = random_restart_search(ctx_a_x, 1, 2, NelderMead(max_iter=30), seed=4)
        assert [m.ev for _, m in a] == [m.ev for _, m in b]


class TestGainDecomposition:
    def test_product_identity(self):
        baseline = RunMetrics(ev=0, r_approx=0.3, p_feas=0.5, p_gnd=0.02)
        seed = RunMetrics(ev=0, r_approx=0.6, p_feas=0.8, p_gnd=0.1)
        final = RunMetrics(ev=0, r_approx=0.9, p_feas=1.0, p_gnd=0.7)
        g = gain_decomposition(baseline, seed, final, uniform_p_gnd=0.001)
        prod = g["mixer"] * g["seed"] * g["feasible"] * g["approx"] * g["mix"]
        assert prod == pytest.approx(g["overall"], rel=1e-9)
        assert g["overall"] == pytest.approx(700.0)

    def test_zero_denominator_flagged(self):
        baseline = RunMetrics(ev=0, r_approx=0.0, p_feas=0.0, p_gnd=0.0)
        with pytest.raises(ZeroDivisionError):
            gain_decomposition(baseline, baseline, baseline, uniform_p_gnd=0.5)
