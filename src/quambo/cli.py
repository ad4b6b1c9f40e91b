"""Config-driven command line front end.

Subcommands: encode, oracle, qaoa, vqe, baseline, anneal, tts, summarize.
Configs are INI-style key-value files whose sections and keys are checked
against CONFIG_KEYS; results are written as RFC-4180 CSV
plus a JSON manifest (config echo, version, master seed, wall time; for
qaoa also the engine's basis, state and block dimensions, and why the
weight sector was not used; for vqe the compiled circuit: qubits, gates,
R_y steps, fused CNOT permutations, amplitude dtype, method, shots and
total objective evaluations).  The vqe method is sv (exact statevector),
sample (all-qubit sampling) or cone (per-term causal-cone sampling); the
sampling methods need shots >= 1.

CSV schemas:
  qaoa     run_id,p,strategy,mixer,init,ev,r_approx,p_feas,p_gnd,evals,seed
  vqe      run_id,params,layers,method,shots,ev,r_approx,p_feas,p_gnd,evals,seed
  baseline grid,algorithm,restarts,best,frequency,d_min,ratio
  anneal   lambda_ratio,p_gnd,p_feas,r_approx,reads,seed
  tts      p_sol,t_cycle,tts
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, heuristics, qaoa, vqe
from . import anneal as anneal_mod
from .optimize import FdQuasiNewton, NelderMead, Spsa
from .problems import (
    FacilityProblem,
    encode_position_linear,
    encode_single_complement,
    encode_start_dest,
    problem_from_text,
)
from .qubo import model_to_text, qubo_to_ising

# Every key a config may set, per section.  `quambo encode` reads `form` from
# [qaoa] when the config has no [encode] section.
ENCODING_KEYS = ("encoding", "include_penalty")
HEURISTIC_KEYS = ("algorithm", "restarts", "sweeps", "beta_initial", "beta_final", "tenure", "max_iter")
CONFIG_KEYS = {
    "problem": ("geometry", "rows", "cols", "ambulances", "metric", "lambda", "lambda_ratio", "forbid_colocation"),
    "encode": (*ENCODING_KEYS, "form"),
    "qaoa": (*ENCODING_KEYS, "form", "mixer", "angle_scheme", "init", "p", "restarts", "strategy", "p_max"),
    "vqe": (*ENCODING_KEYS, "initial_layer", "layers", "method", "shots", "restarts"),
    "optimizer": ("kind", "max_iter", "f_tol", "x_tol", "init_simplex_scale", "a", "c", "n_iter", "eps", "g_tol"),
    "heuristic": HEURISTIC_KEYS,
    "run": HEURISTIC_KEYS,
    "anneal": ("lambda_ratios", "reads", "sweeps"),
}
VQE_METHODS = ("sv", "sample", "cone")


def load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise SystemExit(f"error: cannot read config file {path!r}")
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ValueError(f"unknown config section [{section}]; valid sections: {', '.join(CONFIG_KEYS)}")
        for key in cp[section]:
            if key not in CONFIG_KEYS[section]:
                valid = ", ".join(CONFIG_KEYS[section])
                raise ValueError(f"unknown key {key!r} in [{section}]; valid keys: {valid}")
    return cp


def problem_from_config(cp: configparser.ConfigParser) -> FacilityProblem:
    sec = cp["problem"]
    text = "\n".join(f"{k} {v}" for k, v in sec.items())
    return problem_from_text(text)


def encoding_from_config(cp: configparser.ConfigParser, problem: FacilityProblem, section: str):
    name = cp.get(section, "encoding", fallback="start_dest")
    if name in ("single_complement", "complement"):
        return encode_single_complement(problem)
    if name == "position_linear":
        include = cp.getboolean(section, "include_penalty", fallback=True)
        return encode_position_linear(problem, include_penalty=include)
    if name == "start_dest":
        return encode_start_dest(problem)
    raise SystemExit(f"error: unknown encoding {name!r}")


def optimizer_from_config(cp: configparser.ConfigParser):
    if not cp.has_section("optimizer"):
        return NelderMead()
    sec = cp["optimizer"]
    kind = sec.get("kind", "nelder-mead")
    if kind == "nelder-mead":
        return NelderMead(
            max_iter=sec.getint("max_iter", 500),
            f_tol=sec.getfloat("f_tol", 1e-8),
            x_tol=sec.getfloat("x_tol", 1e-8),
            init_simplex_scale=sec.getfloat("init_simplex_scale", 0.1),
        )
    if kind == "spsa":
        return Spsa(
            a=sec.getfloat("a", 0.1),
            c=sec.getfloat("c", 0.1),
            n_iter=sec.getint("n_iter", 100),
        )
    if kind == "fd-quasi-newton":
        return FdQuasiNewton(
            eps=sec.getfloat("eps", 0.1),
            max_iter=sec.getint("max_iter", 200),
            g_tol=sec.getfloat("g_tol", 1e-6),
        )
    raise SystemExit(f"error: unknown optimizer kind {kind!r}")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(out: str, cp: configparser.ConfigParser, seed: int, started: float, **extra) -> None:
    echo = {s: dict(cp[s]) for s in cp.sections()}
    manifest = {
        "version": f"quambo-{__version__}",
        "seed": seed,
        "config": echo,
        "wall_time_s": round(time.time() - started, 3),
        **extra,
    }
    Path(out).with_suffix(Path(out).suffix + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def cmd_encode(args: argparse.Namespace) -> int:
    cp = load_config(args.config)
    problem = problem_from_config(cp)
    section = "encode" if cp.has_section("encode") else "qaoa"
    model, _enc = encoding_from_config(cp, problem, section)
    if cp.get(section, "form", fallback="qubo") == "ising":
        text = model_to_text(qubo_to_ising(model))
    else:
        text = model_to_text(model)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    started = time.time()
    cp = load_config(args.config)
    problem = problem_from_config(cp)
    d_min, placements = heuristics.exact_facility_optimum(problem)
    geom = problem.geometry
    grid = f"{geom[1]}x{geom[2]}" if geom[0] == "grid" else f"line{geom[1]}"
    rows = [[grid, "oracle", 1, _fmt(float(d_min)), _fmt(1.0), _fmt(float(d_min)), _fmt(1.0)]]
    out = args.out or "oracle.csv"
    write_csv(out, ["grid", "algorithm", "restarts", "best", "frequency", "d_min", "ratio"], rows)
    write_manifest(out, cp, args.seed, started)
    print(f"d_min {d_min} placements {len(placements)}")
    return 0


def cmd_qaoa(args: argparse.Namespace) -> int:
    started = time.time()
    cp = load_config(args.config)
    problem = problem_from_config(cp)
    model, enc = encoding_from_config(cp, problem, "qaoa")
    sec = cp["qaoa"]
    mixer_kind = sec.get("mixer", "X")
    scheme = tuple(int(x) for x in sec.get("angle_scheme", "1,1").split(","))
    if mixer_kind == "XY":
        rings = [list(range(lo, hi)) for (lo, hi), _ in enc.hamming_targets]
        mixer = qaoa.MixerSpec("XY", rings=rings)
    elif mixer_kind == "ThreeXY":
        mixer = qaoa.MixerSpec("ThreeXY", angle_scheme=scheme)
    else:
        mixer = qaoa.MixerSpec("X")
    init = qaoa.InitSpec(sec.get("init", "Uniform"), seed=args.seed)
    p = sec.getint("p", 1)
    restarts = sec.getint("restarts", 100)
    strategy = sec.get("strategy", "")
    optimizer = optimizer_from_config(cp)
    config = qaoa.QaoaConfig(enc, mixer, init, p)

    header = ["run_id", "p", "strategy", "mixer", "init", "ev", "r_approx", "p_feas", "p_gnd", "evals", "seed"]
    rows = []
    search = qaoa.random_restart_search(config, model, restarts, optimizer, args.seed)
    if strategy:
        p_max = sec.getint("p_max", 10)
        seed_angles = search.best[0]
        levels = qaoa.increasing_p_schedule(strategy, seed_angles, p_max, optimizer, config, model, seed=args.seed)
        for i, level in enumerate(levels):
            m = level.metrics
            rows.append([i, level.p, strategy, mixer_kind, init.kind, _fmt(m.ev), _fmt(m.r_approx),
                         _fmt(m.p_feas), _fmt(m.p_gnd), m.evals, args.seed])
    else:
        for i, (_, m) in enumerate(search.runs):
            rows.append([i, p, "", mixer_kind, init.kind, _fmt(m.ev), _fmt(m.r_approx),
                         _fmt(m.p_feas), _fmt(m.p_gnd), m.evals, args.seed])
        s = search.summary
        rows.append(["summary", p, "", mixer_kind, init.kind, _fmt(s["mean_ev"]), _fmt(s["mean_r_approx"]),
                     _fmt(s["mean_p_feas"]), _fmt(s["mean_p_gnd"]), "", args.seed])
    out = args.out or "qaoa.csv"
    write_csv(out, header, rows)
    write_manifest(out, cp, args.seed, started, engine=search.engine)
    return 0


def cmd_vqe(args: argparse.Namespace) -> int:
    started = time.time()
    cp = load_config(args.config)
    sec = cp["vqe"]
    method = sec.get("method", "sv")
    if method not in VQE_METHODS:
        raise ValueError(f"unknown vqe method {method!r}; valid methods: {', '.join(VQE_METHODS)}")
    shots = 0
    if method != "sv":
        shots = sec.getint("shots", 9000)
        if shots < 1:
            raise ValueError(f"shots must be >= 1 for method {method!r}, got {shots}")
    problem = problem_from_config(cp)
    model, enc = encoding_from_config(cp, problem, "vqe")
    ansatz = vqe.VqeAnsatz(
        n=model.n,
        initial_layer=sec.getboolean("initial_layer", False),
        entangling_layers=sec.getint("layers", 1),
    )
    restarts = sec.getint("restarts", 100)
    optimizer = optimizer_from_config(cp)
    scorer = qaoa.Scorer.of(model, enc)

    def oracle_metrics(state):
        return qaoa.metrics(scorer, state.probabilities()[scorer.indices])

    objective = None
    if method == "sample":
        counter = {"k": 0}

        def objective(theta):
            counter["k"] += 1
            return vqe.ev_all_qubit_sampling(ansatz, theta, model, shots, seed=(args.seed, counter["k"]))

    elif method == "cone":
        ising = qubo_to_ising(model)
        counter = {"k": 0}

        def objective(theta):
            counter["k"] += 1
            return vqe.ev_causal_cone_sampling(ansatz, theta, ising, shots, seed=int(np.random.default_rng([args.seed, counter["k"]]).integers(2**31)))

    runs = vqe.vqe_restart_search(ansatz, model, oracle_metrics, restarts, optimizer, args.seed, objective=objective)
    header = ["run_id", "params", "layers", "method", "shots", "ev", "r_approx", "p_feas", "p_gnd", "evals", "seed"]
    rows = [
        [i, ansatz.n_params, ansatz.entangling_layers, method, shots,
         _fmt(r.ev), _fmt(r.r_approx), _fmt(r.p_feas), _fmt(r.p_gnd), r.evals, args.seed]
        for i, r in enumerate(runs)
    ]
    out = args.out or "vqe.csv"
    write_csv(out, header, rows)
    circuit = {**ansatz.program.summary, "method": method, "shots": shots, "evals": sum(r.evals for r in runs)}
    write_manifest(out, cp, args.seed, started, circuit=circuit)
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    started = time.time()
    cp = load_config(args.config)
    problem = problem_from_config(cp)
    sec = cp["heuristic"] if cp.has_section("heuristic") else cp["run"]
    algorithm = sec.get("algorithm", "tabu")
    restarts = sec.getint("restarts", 100)
    if algorithm == "sa":
        config = heuristics.SimAnneal(
            sweeps=sec.getint("sweeps", 1000),
            beta_initial=sec.getfloat("beta_initial", 0.1),
            beta_final=sec.getfloat("beta_final", 10.0),
        )
    else:
        tenure = sec.getint("tenure", 0)
        config = heuristics.Tabu(tenure=tenure or None, max_iter=sec.getint("max_iter", 400))
    model, enc = encode_start_dest(problem)
    d_min, _ = heuristics.exact_facility_optimum(problem)
    result = heuristics.restart_harness(
        heuristics.make_solver(config), model, restarts, args.seed, encoding=enc, d_min=d_min
    )
    geom = problem.geometry
    grid = f"{geom[1]}x{geom[2]}" if geom[0] == "grid" else f"line{geom[1]}"
    rows = [[grid, algorithm, restarts, _fmt(result.best_energy), _fmt(result.frequency_of_best),
             _fmt(float(d_min)), _fmt(result.ratio if result.ratio is not None else float("nan"))]]
    out = args.out or "baseline.csv"
    write_csv(out, ["grid", "algorithm", "restarts", "best", "frequency", "d_min", "ratio"], rows)
    write_manifest(out, cp, args.seed, started)
    return 0


def cmd_anneal(args: argparse.Namespace) -> int:
    started = time.time()
    cp = load_config(args.config)
    problem = problem_from_config(cp)
    sec = cp["anneal"]
    ratios = [float(x) for x in sec.get("lambda_ratios", "1.0").split(",")]
    reads = sec.getint("reads", 1000)
    sampler = anneal_mod.sim_anneal_sampler(sweeps=sec.getint("sweeps", 30))
    points = anneal_mod.anneal_parameter_sweep(problem, ratios, sampler, reads, args.seed)
    rows = [
        [_fmt(ratio), _fmt(m.p_gnd), _fmt(m.p_feas), _fmt(m.r_approx), reads, args.seed]
        for ratio, m in points
    ]
    out = args.out or "anneal.csv"
    write_csv(out, ["lambda_ratio", "p_gnd", "p_feas", "r_approx", "reads", "seed"], rows)
    write_manifest(out, cp, args.seed, started)
    return 0


def cmd_tts(args: argparse.Namespace) -> int:
    value = anneal_mod.tts(args.p_sol, args.t_cycle)
    if args.out:
        write_csv(args.out, ["p_sol", "t_cycle", "tts"], [[_fmt(args.p_sol), _fmt(args.t_cycle), _fmt(value)]])
    print(_fmt(value))
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    with open(args.csv) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SystemExit("error: empty CSV")
        rows = [r for r in reader if r and r[0] != "summary"]
    if not rows:
        raise SystemExit("error: no data rows")
    columns: dict[str, list[float]] = {}
    for j, name in enumerate(header):
        vals = []
        for r in rows:
            try:
                vals.append(float(r[j]))
            except (ValueError, IndexError):
                vals = []
                break
        if vals:
            columns[name] = vals
    best_id = None
    if "ev" in columns and "run_id" in header:
        best_row = int(np.argmin(columns["ev"]))
        best_id = rows[best_row][header.index("run_id")]
    print("metric,mean,err,min,max")
    for name, vals in columns.items():
        arr = np.array(vals)
        err = 2.0 * arr.std(ddof=0) / np.sqrt(len(arr))
        print(f"{name},{_fmt(arr.mean())},{_fmt(err)},{_fmt(arr.min())},{_fmt(arr.max())}")
    if best_id is not None:
        print(f"best_run,{best_id}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="quambo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_config=True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
        return p

    add("encode", cmd_encode)
    add("oracle", cmd_oracle)
    add("qaoa", cmd_qaoa)
    add("vqe", cmd_vqe)
    add("baseline", cmd_baseline)
    add("anneal", cmd_anneal)
    p_tts = add("tts", cmd_tts, needs_config=False)
    p_tts.add_argument("--p-sol", type=float, required=True, dest="p_sol")
    p_tts.add_argument("--t-cycle", type=float, required=True, dest="t_cycle")
    p_sum = sub.add_parser("summarize")
    p_sum.add_argument("csv")
    p_sum.set_defaults(fn=cmd_summarize)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
