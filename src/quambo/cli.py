"""Config-driven command line front end.

Subcommands: encode, oracle, qaoa, vqe, baseline, anneal, tts, summarize.
Configs are INI-style key-value files, checked in full by load_config
before any work.  One runner (_study) takes each of the five study commands
(oracle, qaoa, vqe, baseline, anneal) from config to results: it loads the
config, builds [problem], runs the command and writes its rows as RFC-4180
CSV (to --out, default <command>.csv) plus a JSON manifest: the config echo,
version, master seed and wall time, and per subcommand the engine,
optimizer, circuit or search block that the README describes.

Keys per section (CONFIG).  A choosing key (default first) picks the keys
after its `:` too; any other key, section or choice is an error.  Unset keys
keep the defaults of the dataclass or function they are passed to.
  [problem]    geometry (grid: rows, cols | line: cols), metric
               (squared-euclidean | euclidean, manhattan), ambulances, lambda
               or lambda_ratio (needed by an encoding that adds a penalty;
               position_linear without one refuses it), forbid_colocation
  [encode]     encoding (start_dest | position_linear: include_penalty |
               complement), form (qubo | ising)
  [qaoa]       encoding as [encode], mixer (X | XY | ThreeXY: angle_scheme),
               strategy (none | INTERP, EXTRAP1, EXTRAP2: p_max), init
               (Uniform | Dicke, DickeBlocks, RandomFeasible), p, restarts
  [vqe]        encoding as [encode], method (sv | sample, cone: shots),
               initial_layer, layers, restarts
  [optimizer]  kind (nelder-mead | spsa | fd-quasi-newton: its fields)
  [heuristic]  algorithm (tabu | sa: the fields of heuristics.Tabu or
               SimAnneal), restarts
  [anneal]     lambda_ratios, reads, sweeps (of each read's SA chain, default 30)
p, restarts, reads and shots must be >= 1, p_max >= p, and the vqe ansatz
needs layers >= 1 or initial_layer = true.  Text that does not convert is an
error naming its [section], key and text (_get).  A command fails at once
without a section it reads (NEEDS).

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
import functools
import inspect
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, heuristics, qaoa, vqe
from . import anneal as anneal_mod
from .optimize import FdQuasiNewton, NelderMead, Spsa, restart_search
from .problems import (GEOMETRIES, METRICS, FacilityProblem, encode_position_linear, encode_single_complement,
                       encode_start_dest)
from .qubo import child_seed, model_to_text, qubo_to_ising

# The choices of three choosing keys; each choice reads the parameters of its dataclass or function.
OPTIMIZERS = {config.kind: config for config in (NelderMead, Spsa, FdQuasiNewton)}
HEURISTICS = {"tabu": heuristics.Tabu, "sa": heuristics.SimAnneal}
# Config text to the annotation of the parameter it is passed to (through _get).
CONVERT = {"int": int, "int | None": int, "float": float, "float | None": float, "str": str,
           "tuple[int, int]": lambda text: tuple(map(int, text.split(","))),
           "bool": lambda text: _pick(configparser.ConfigParser.BOOLEAN_STATES, text.lower(), "boolean")}


def _encoders() -> dict:
    """The encoders by name, looked up when called: an encoder replaced on this module (a traced one) is used."""
    return {"start_dest": encode_start_dest, "position_linear": encode_position_linear,
            "complement": encode_single_complement}


def _signature(kind, skip: int = 0) -> dict:
    """Each parameter of kind, leaving out the first `skip` -> the converter of its annotation (CONVERT)."""
    params = list(inspect.signature(kind).parameters.values())[skip:]
    return {param.name: CONVERT.get(param.annotation) for param in params}


def _params(kinds: dict, skip: int = 0) -> dict:
    """Each choice -> the _signature of its dataclass or function."""
    return {name: _signature(kind, skip) for name, kind in kinds.items()}


# Read once, from the real signatures: an encoder replaced here later (a traced *args, **kwargs one) names none.
SIGNATURES = _params({"problem": FacilityProblem, "mixer": qaoa.MixerSpec, "ansatz": vqe.VqeAnsatz})
ENCODING = {"encoding": ("encoding", "start_dest", _params(_encoders(), skip=1))}
# Per section: the keys it always reads, then per choosing key the name its errors use, its
# default and, per choice, the further keys that choice reads.  load_config rejects any other key.
CONFIG = {
    "problem": (("ambulances", "lambda", "lambda_ratio", "forbid_colocation"),
                {"geometry": ("problem geometry", "grid", GEOMETRIES),
                 "metric": ("metric", METRICS[0], dict.fromkeys(METRICS, ()))}),
    "encode": ((), {**ENCODING, "form": ("form", "qubo", {"qubo": (), "ising": ()})}),
    "qaoa": (("p", "restarts"), {
        **ENCODING,
        "mixer": ("qaoa mixer", "X", {**dict.fromkeys(qaoa.MIXER_KINDS, ()), "ThreeXY": ("angle_scheme",)}),
        "strategy": ("qaoa strategy", None, dict.fromkeys(qaoa.STRATEGIES, ("p_max",))),
        "init": ("qaoa init", "Uniform", dict.fromkeys(qaoa.INIT_KINDS, ())),
    }),
    "vqe": (("initial_layer", "layers", "restarts"), {
        **ENCODING, "method": ("vqe method", "sv", {"sv": (), "sample": ("shots",), "cone": ("shots",)})}),
    "optimizer": ((), {"kind": ("optimizer kind", NelderMead.kind, _params(OPTIMIZERS))}),
    "heuristic": (("restarts",), {"algorithm": ("baseline algorithm", "tabu", _params(HEURISTICS))}),
    "anneal": (("lambda_ratios", "reads", "sweeps"), {}),
}
# The sections each command needs.
NEEDS = {"encode": ("problem", "encode"), "oracle": ("problem",), "qaoa": ("problem", "qaoa"),
         "vqe": ("problem", "vqe"), "baseline": ("problem", "heuristic"), "anneal": ("problem", "anneal")}


def _pick(table: dict, name, what: str):
    """table[name], or a ValueError that lists the valid names."""
    if name not in table:
        plural = what.split()[-1].removesuffix("y") + ("ies" if what.endswith("y") else "s")
        raise ValueError(f"unknown {what} {name!r}; valid {plural}: {', '.join(table)}")
    return table[name]


def _get(sec: configparser.SectionProxy, key: str, default=None, convert=int):
    """convert(the key's text), or default if unset; a conversion error names the section, key and text."""
    try:
        return convert(sec[key]) if key in sec else default
    except ValueError as exc:
        raise ValueError(f"{exc} (in [{sec.name}] {key} = {sec[key]})") from None


def _check(sec: configparser.SectionProxy) -> None:
    """Reject an unknown choice, a key that the section's choices do not read, and a count below 1."""
    always, choosers = _pick(CONFIG, sec.name, "config section")
    valid, unread = [*choosers, *always], {}
    for key, (what, default, choices) in choosers.items():
        choice = sec.get(key, default)
        for keys in choices.values():
            unread.update(dict.fromkeys(keys, f"{what} {choice!r}" if choice else f"{sec.name} without a {key}"))
        if choice is not None:
            valid += _pick(choices, choice, what)
    for key in sec:
        if key not in valid:
            head = (f"{unread[key]} does not read key {key!r}" if key in unread
                    else f"unknown key {key!r} in [{sec.name}]")
            raise ValueError(f"{head}; valid keys: {', '.join(valid)}")
        if key in ("p", "restarts", "reads", "shots") and (count := _get(sec, key)) < 1:
            raise ValueError(f"need {key} >= 1, got {count}")


def _choice(sec: configparser.SectionProxy, key: str):
    """The section's setting of a choosing key, or its default."""
    return sec.get(key, CONFIG[sec.name][1][key][1])


def _call(kind, params: dict, sec: configparser.SectionProxy, renamed: dict | None = None, /, **given):
    """kind(**given, and each other of its params (_signature) that the section sets, by its key in renamed or name)."""
    for name, convert in params.items():
        key = (renamed or {}).get(name, name)
        if key in sec and name not in given:
            given[name] = _get(sec, key, convert=convert)
    return kind(**given)


def _chosen(sec: configparser.SectionProxy, key: str, kinds: dict, /, **given):
    """_call of the kind in kinds that the section's choosing key names, with that choice's CONFIG parameters."""
    what, _default, params = CONFIG[sec.name][1][key]
    choice = _choice(sec, key)
    return _call(_pick(kinds, choice, what), params[choice], sec, **given)


def load_config(path: str, command: str) -> configparser.ConfigParser:
    """The config at path for a command: it has the sections NEEDS names, each checked against CONFIG."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise SystemExit(f"error: cannot read config file {path!r}")
    for name in NEEDS[command]:
        if not cp.has_section(name):
            raise ValueError(f"quambo {command} needs a [{name}] section")
    for section in cp.sections():
        _check(cp[section])
    return cp


def problem_from_config(cp: configparser.ConfigParser) -> FacilityProblem:
    """[problem] as a FacilityProblem; unset keys keep its defaults."""
    sec = cp["problem"]
    kind = _choice(sec, "geometry")
    sizes = _pick(GEOMETRIES, kind, "problem geometry")
    for key in sizes:
        if key not in sec:
            raise ValueError(f"problem geometry {kind!r} needs key {key!r}")
    return _call(FacilityProblem, SIGNATURES["problem"], sec, {"lambda_": "lambda"},
                 geometry=(kind, *(_get(sec, key) for key in sizes)))


def encoding_from_config(cp: configparser.ConfigParser, problem: FacilityProblem, section: str):
    return _chosen(cp[section], "encoding", _encoders(), problem=problem)


def optimizer_from_config(cp: configparser.ConfigParser):
    """[optimizer] as its kind's dataclass; unset keys keep its defaults."""
    if not cp.has_section("optimizer"):
        return NelderMead()
    return _chosen(cp["optimizer"], "kind", OPTIMIZERS)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


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
    cp = load_config(args.config, args.command)
    problem = problem_from_config(cp)
    model, _enc = encoding_from_config(cp, problem, "encode")
    text = model_to_text(qubo_to_ising(model) if _choice(cp["encode"], "form") == "ising" else model)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _study(header: str):
    """A study command: body(args, config, problem) -> (rows, manifest blocks); the CSV and manifest go to --out."""
    def command(body):
        @functools.wraps(body)
        def run(args: argparse.Namespace) -> int:
            started = time.time()
            cp = load_config(args.config, args.command)
            rows, blocks = body(args, cp, problem_from_config(cp))
            out = args.out or f"{args.command}.csv"
            write_csv(out, header.split(","), rows)
            write_manifest(out, cp, args.seed, started, **blocks)
            return 0
        return run
    return command


PLACEMENT = "grid,algorithm,restarts,best,frequency,d_min,ratio"
FIGURES = "ev,r_approx,p_feas,p_gnd,evals,seed"  # the cells that end every qaoa and vqe row (_figures)


def _grid(problem: FacilityProblem) -> str:
    kind, *size = problem.geometry
    return "x".join(map(str, size)) if kind == "grid" else f"line{size[0]}"


def _figures(m: qaoa.RunMetrics, seed: int) -> list:
    return [m.ev, m.r_approx, m.p_feas, m.p_gnd, m.evals, seed]


@_study(PLACEMENT)
def cmd_oracle(args: argparse.Namespace, cp: configparser.ConfigParser, problem: FacilityProblem):
    d_min, placements = heuristics.exact_facility_optimum(problem)
    print(f"d_min {d_min} placements {len(placements)}")
    return [[_grid(problem), "oracle", 1, float(d_min), 1.0, float(d_min), 1.0]], {}


@_study("run_id,p,strategy,mixer,init," + FIGURES)
def cmd_qaoa(args: argparse.Namespace, cp: configparser.ConfigParser, problem: FacilityProblem):
    optimizer = optimizer_from_config(cp)
    sec = cp["qaoa"]
    mixer = _call(qaoa.MixerSpec, SIGNATURES["mixer"], sec, kind=_choice(sec, "mixer"))
    init = qaoa.InitSpec(_choice(sec, "init"), seed=args.seed)
    p, restarts, strategy = _get(sec, "p", 1), _get(sec, "restarts", 100), _choice(sec, "strategy")
    p_max = _get(sec, "p_max", 10)
    if strategy is not None and p_max < p:
        raise ValueError(f"need p_max >= p for strategy {strategy}, got p_max = {p_max} and p = {p}")
    model, enc = encoding_from_config(cp, problem, "qaoa")
    ctx = qaoa.QaoaContext(enc, model, mixer, init)
    runs, telemetry = qaoa.random_restart_search(ctx, p, restarts, optimizer, args.seed)
    if strategy is not None:
        t0 = time.perf_counter()
        best_x = min(runs, key=lambda run: run[1].ev)[0]  # the first lowest EV
        levels = qaoa.increasing_p_schedule(strategy, best_x, p_max, optimizer, ctx, seed=args.seed)
        telemetry = {**telemetry, "schedule_s": round(time.perf_counter() - t0, 6)}
        rows = [[i, level.p, strategy, mixer.kind, init.kind, *_figures(level.metrics, args.seed)]
                for i, level in enumerate(levels)]
    else:
        rows = [[i, p, "", mixer.kind, init.kind, *_figures(m, args.seed)] for i, (_, m) in enumerate(runs)]
        summary = qaoa.summarize_metrics([m for _, m in runs])
        means = [summary[f"mean_{name}"] for name in ("ev", "r_approx", "p_feas", "p_gnd")]
        rows.append(["summary", p, "", mixer.kind, init.kind, *means, "", args.seed])
    return rows, {"engine": ctx.engine, "optimizer": telemetry}


@_study("run_id,params,layers,method,shots," + FIGURES)
def cmd_vqe(args: argparse.Namespace, cp: configparser.ConfigParser, problem: FacilityProblem):
    optimizer = optimizer_from_config(cp)
    sec = cp["vqe"]
    method = _choice(sec, "method")
    shots = _get(sec, "shots", 9000) if method != "sv" else 0
    restarts = _get(sec, "restarts", 100)
    model, enc = encoding_from_config(cp, problem, "vqe")
    ansatz = _call(vqe.VqeAnsatz, SIGNATURES["ansatz"], sec, {"entangling_layers": "layers"}, n=model.n)
    if ansatz.n_params == 0:
        raise ValueError("the vqe ansatz has no parameters; set layers >= 1 or initial_layer = true")
    scorer = qaoa.Scorer.of(model, enc)

    def score(theta):
        return qaoa.metrics(scorer, vqe.apply_ansatz(ansatz, theta).probabilities()[scorer.indices])

    counter = itertools.count(1)  # one seed per evaluated point, shared across restarts in point order
    if method == "sv":
        def estimate(Theta):
            return vqe.ev_statevector_batch(ansatz, Theta, model)
    elif method == "sample":
        def estimate(Theta):
            seeds = [(args.seed, next(counter)) for _ in Theta]
            return vqe.ev_all_qubit_sampling_batch(ansatz, Theta, model, shots, seeds)
    else:
        ising = qubo_to_ising(model)

        def estimate(Theta):
            seeds = [child_seed(args.seed, next(counter)) for _ in Theta]
            return vqe.ev_causal_cone_sampling_batch(ansatz, Theta, ising, shots, seeds)

    # sv rows do not depend on their batch; the sampled ones take seeds in point order, one restart at a time
    runs, block = restart_search(estimate, score, ansatz.n_params, restarts, optimizer, args.seed,
                                 lockstep=method == "sv")
    rows = [[i, ansatz.n_params, ansatz.entangling_layers, method, shots, *_figures(m, args.seed)]
            for i, (_, m) in enumerate(runs)]
    circuit = {**ansatz.program.summary, "method": method, "shots": shots, "evals": sum(m.evals for _, m in runs)}
    return rows, {"circuit": circuit, "optimizer": block}


@_study(PLACEMENT)
def cmd_baseline(args: argparse.Namespace, cp: configparser.ConfigParser, problem: FacilityProblem):
    sec = cp["heuristic"]
    algorithm = _choice(sec, "algorithm")
    restarts = _get(sec, "restarts", 100)
    config = _chosen(sec, "algorithm", HEURISTICS)
    t0 = time.perf_counter()
    d_min, _ = heuristics.exact_facility_optimum(problem)  # its size cap is checked before encoding
    oracle_s = time.perf_counter() - t0
    model, enc = encode_start_dest(problem)
    t1 = time.perf_counter()
    result = heuristics.restart_harness(config, model, restarts, args.seed, encoding=enc, d_min=d_min)
    t2 = time.perf_counter()
    ratio = result.ratio if result.ratio is not None else float("nan")
    rows = [[_grid(problem), algorithm, restarts, result.best_energy, result.frequency_of_best, float(d_min), ratio]]
    search = {"algorithm": algorithm, "restarts": restarts, "n": model.n, "batch_shape": [restarts, model.n],
              "oracle_s": round(oracle_s, 6), "search_s": round(t2 - t1, 6)}
    return rows, {"search": search}


@_study("lambda_ratio,p_gnd,p_feas,r_approx,reads,seed")
def cmd_anneal(args: argparse.Namespace, cp: configparser.ConfigParser, problem: FacilityProblem):
    sec = cp["anneal"]
    ratios = _get(sec, "lambda_ratios", [1.0], lambda text: [float(x) for x in text.split(",")])
    reads, sweeps = _get(sec, "reads", 1000), _get(sec, "sweeps", 30)
    points = anneal_mod.anneal_parameter_sweep(problem, ratios, sweeps, reads, args.seed)
    return [[ratio, m.p_gnd, m.p_feas, m.r_approx, reads, args.seed] for ratio, m in points], {}


def cmd_tts(args: argparse.Namespace) -> int:
    value = anneal_mod.tts(args.p_sol, args.t_cycle)
    if args.out:
        write_csv(args.out, ["p_sol", "t_cycle", "tts"], [[args.p_sol, args.t_cycle, value]])
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
        mean, err = qaoa.mean_and_err(arr)
        print(f"{name},{_fmt(mean)},{_fmt(err)},{_fmt(arr.min())},{_fmt(arr.max())}")
    if best_id is not None:
        print(f"best_run,{best_id}")
    return 0


def seed(text: str) -> int:
    """A --seed value: an int >= 0, as numpy's generators take it; argparse names the flag in the error."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"need a seed >= 0, got {value}")
    return value


@functools.cache
def parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; main runs the command it parses by name (cmd_<name>)."""
    top = argparse.ArgumentParser(prog="quambo", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, needs_config=True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        return p

    add("encode")
    for name in ("oracle", "qaoa", "vqe", "baseline", "anneal"):
        add(name).add_argument("--seed", type=seed, default=0)  # every study records --seed in its manifest
    p_tts = add("tts", needs_config=False)
    p_tts.add_argument("--p-sol", type=float, required=True, dest="p_sol")
    p_tts.add_argument("--t-cycle", type=float, required=True, dest="t_cycle")
    sub.add_parser("summarize").add_argument("csv")
    return top


def main(argv: list[str] | None = None) -> int:
    args = parser().parse_args(argv)
    try:
        # looked up when called, so a command replaced on this module (a traced one) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, KeyError, OSError, configparser.Error) as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)  # one line, configparser's too
        return 1


if __name__ == "__main__":
    sys.exit(main())
