"""Output checks: every study's results against the references in reference.py.

Each check returns a list of failure messages (empty when the output is
right).  The checks rest on independent references or on properties the
methods must have, never on stored copies of earlier output.
"""

from __future__ import annotations

import csv
import functools
import io

import numpy as np

import reference as ref
from studies import AnnealStudy, CliStudy, encode, qaoa_specs

TOL = 1e-9


def rows_of(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def points(seed: int, tag: int, count: int, dim: int) -> list[np.ndarray]:
    """Fixed check points in [0, 2 pi)^dim drawn from the run's seed."""
    return [np.random.default_rng([seed, tag, k]).uniform(0.0, 2.0 * np.pi, dim) for k in range(count)]


def model_energies(model) -> np.ndarray:
    return ref.qubo_energies(model.n, model.linear, model.quadratic, model.offset)


def score_ranges(study: CliStudy, rows: list[dict]) -> list[str]:
    """0 <= p_gnd <= p_feas <= 1 and r_approx in [0, 1] on every scored row."""
    bad = []
    for row in rows:
        p_feas, p_gnd = float(row["p_feas"]), float(row["p_gnd"])
        if not -TOL <= p_gnd <= p_feas + TOL <= 1.0 + 2 * TOL:
            bad.append(f"{study.name}: p_gnd {p_gnd} / p_feas {p_feas} out of order")
        if p_feas > 0 and not -TOL <= float(row["r_approx"]) <= 1.0 + TOL:
            bad.append(f"{study.name}: r_approx {row['r_approx']} outside [0, 1]")
    return bad


def check_qaoa(study: CliStudy, text: str, seed: int) -> list[str]:
    from quambo.qaoa import QaoaContext

    sec = study.sections["qaoa"]
    model, enc = encode(study.sections["problem"], sec["encoding"])
    energies = model_energies(model)
    rows = [r for r in rows_of(text) if r["run_id"] != "summary"]
    bad = score_ranges(study, rows)
    for row in rows:
        if float(row["ev"]) < energies.min() - TOL:
            bad.append(f"{study.name}: ev {row['ev']} below the brute-force minimum {energies.min()}")
        if sec["mixer"] != "X" and abs(float(row["p_feas"]) - 1.0) > 1e-10:
            bad.append(f"{study.name}: p_feas {row['p_feas']} leaks out of the feasible sector")
    if "strategy" in sec:
        evs = [float(r["ev"]) for r in rows]
        if len(evs) != int(sec["p_max"]) or any(b > a for a, b in zip(evs, evs[1:])):
            bad.append(f"{study.name}: {sec['strategy']} EV is not non-increasing with depth: {evs}")
    elif len(rows) != int(sec["restarts"]):
        bad.append(f"{study.name}: {len(rows)} rows for {sec['restarts']} restarts")

    # the ansatz itself, at fixed angles, against a dense expm reference
    mixer, init = qaoa_specs(study, enc)
    if mixer.n_beta != 1 or mixer.n_gamma != 1:
        return bad
    p = int(sec.get("p_max", sec["p"]))
    ctx = QaoaContext(enc, model, mixer, init)
    blocks = enc.hamming_targets
    masks = {"Uniform": np.ones(1 << model.n, dtype=bool),
             "Dicke": ref.weight_mask(model.n, [((0, model.n), blocks[0][1])]),
             "DickeBlocks": ref.weight_mask(model.n, blocks)}
    psi0 = ref.uniform_over(masks[init.kind])
    groups = ref.mixer_groups(mixer.kind, model.n, [list(range(lo, hi)) for (lo, hi), _ in blocks])
    for x in points(seed, 1, 2, 2 * p):
        psi = ref.qaoa_state(model.n, energies, psi0, groups, x[:p], x[p:])
        want = float(np.abs(psi) ** 2 @ energies)
        got = ctx.ev(x, p)
        if abs(got - want) > TOL:
            bad.append(f"{study.name}: QaoaContext.ev {got} != dense reference {want}")
    return bad


@functools.lru_cache(maxsize=4)
def vqe_reference(n: int, layers: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker-built ansatz state at the seed's check point, shared by the studies of one ansatz."""
    (theta,) = points(seed, 2, 1, 2 * (n - 1) * layers)
    return ref.vqe_state(n, False, layers, theta), theta


def check_vqe(study: CliStudy, text: str, seed: int) -> list[str]:
    from quambo.qubo import qubo_to_ising
    from quambo.vqe import VqeAnsatz, apply_ansatz, ev_all_qubit_sampling, ev_causal_cone_sampling

    sec = study.sections["vqe"]
    model, _ = encode(study.sections["problem"], sec["encoding"])
    energies = model_energies(model)
    rows = rows_of(text)
    bad = score_ranges(study, rows)
    if len(rows) != int(sec["restarts"]):
        bad.append(f"{study.name}: {len(rows)} rows for {sec['restarts']} restarts")
    if sec["method"] in ("sv", "sample"):
        for row in rows:
            if float(row["ev"]) < energies.min() - TOL:
                bad.append(f"{study.name}: ev {row['ev']} below the brute-force minimum {energies.min()}")

    ansatz = VqeAnsatz(model.n, entangling_layers=int(sec["layers"]))
    psi, theta = vqe_reference(model.n, ansatz.entangling_layers, seed)
    err = float(np.abs(apply_ansatz(ansatz, theta).amplitudes - psi).max())
    if err > TOL:
        bad.append(f"{study.name}: apply_ansatz differs from the Kronecker circuit by {err:.2e}")
    probs = np.abs(psi) ** 2
    exact = float(probs @ energies)
    shots = int(sec.get("shots", 0))
    if sec["method"] == "sample":
        se = np.sqrt(max(float(probs @ energies**2) - exact**2, 0.0) / shots)
        est = ev_all_qubit_sampling(ansatz, theta, model, shots, seed=seed)
        if abs(est - exact) > 5.0 * se:
            bad.append(f"{study.name}: sampled EV {est} is {abs(est - exact) / se:.1f} SE from {exact}")
    elif sec["method"] == "cone":
        h, J, _ = ref.qubo_to_ising_terms(model.linear, model.quadratic, model.offset)
        z = 1.0 - 2.0 * ref.bit_table(model.n)
        var = sum(c**2 * (1.0 - float(probs @ z[:, i]) ** 2) for i, c in h.items())
        var += sum(c**2 * (1.0 - float(probs @ (z[:, i] * z[:, j])) ** 2) for (i, j), c in J.items())
        se = np.sqrt(var / shots)
        est = ev_causal_cone_sampling(ansatz, theta, qubo_to_ising(model), shots, seed=seed)
        if abs(est - exact) > 5.0 * se:
            bad.append(f"{study.name}: cone-sampled EV {est} is {abs(est - exact) / se:.1f} SE from {exact}")
    return bad


def reference_d_min(problem: dict) -> float:
    geometry = ("line", int(problem["cols"])) if problem["geometry"] == "line" else \
        ("grid", int(problem["rows"]), int(problem["cols"]))
    return ref.facility_d_min(ref.squared_distances(geometry), int(problem["ambulances"]))


def check_baseline(study: CliStudy, text: str, d_min: float) -> list[str]:
    (row,) = rows_of(text)
    bad = []
    if float(row["d_min"]) != d_min:
        bad.append(f"{study.name}: d_min {row['d_min']} != reference {d_min}")
    if study.command == "oracle":
        return bad
    ratio, best = float(row["ratio"]), float(row["best"])
    if not ratio >= 1.0:
        bad.append(f"{study.name}: ratio {ratio} is not >= 1")
    if study.sections["heuristic"]["algorithm"] == "tabu" and best != d_min:
        bad.append(f"{study.name}: tabu best {best} != d_min {d_min}")
    return bad


def check_sweep(study: CliStudy, text: str) -> list[str]:
    rows = rows_of(text)
    bad = score_ranges(study, rows)
    if [float(r["lambda_ratio"]) for r in rows] != [float(x) for x in study.sections["anneal"]["lambda_ratios"].split(",")]:
        bad.append(f"{study.name}: rows do not follow the configured lambda ratios")
    return bad


def check_anneal(study: AnnealStudy, amplitudes: np.ndarray, p_gnd: float, seed_state: str) -> list[str]:
    model, _ = encode(study.problem, study.encoding)
    n = model.n
    energies = model_energies(model)
    if study.kind == "forward":
        psi0 = ref.uniform_over(np.ones(1 << n, dtype=bool))
        s_of_t = ref.forward_s(study.T)
    else:
        psi0 = np.zeros(1 << n, dtype=complex)
        psi0[sum(int(c) << i for i, c in enumerate(seed_state))] = 1.0
        s_of_t = ref.reverse_s(study.T, study.s_min, study.hold)
    psi = ref.anneal_state(n, energies, psi0, s_of_t, study.total_time, study.steps)
    want = ref.ground_probability(psi, energies)
    bad = []
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) > TOL:
        bad.append(f"{study.name}: final state norm {norm}")
    if abs(p_gnd - want) > 1e-8:
        bad.append(f"{study.name}: p_gnd {p_gnd} != reference propagator {want}")
    return bad
