"""quambo benchmark: seeded CLI and library studies at two problem scales.

Usage (from the repository root):

    python3 bench/run.py --workload small-n --seed 1 --seconds 30 --trace 0

One run sets the workload up SETUP_REPEATS times in fresh interpreters, runs
one warm-up round of the workload's studies, then repeats measured rounds
until --seconds have passed (every round runs every study once, with the
same inputs), and finally checks the outputs of the warm-up round against
independent references and every later round against it.  Everything runs
in this one process (plus the set-up interpreters, one at a time) with one
BLAS thread.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are end-to-end figures (medians over measured rounds); with --trace 1 rounds
alternate untraced and traced and the metrics are per-layer figures from
the traced rounds, plus the tracing overhead.  Results, the environment and
the spans of a traced run are written under bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
FAMILIES = ("qaoa", "vqe", "baseline", "anneal_sweep", "anneal_dynamics")


def environment() -> dict:
    import numpy
    import scipy

    blas = {mod.__name__: mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
            for mod in (numpy, scipy)}
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads[Path(lib).name] = getattr(handle, symbol)()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def setup_times(workload: str) -> list[float]:
    """import + build seconds of SETUP_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=150, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["import_s"] + probe["build_s"])
    return times


def plain(name, fn, *args):
    return fn(*args)


class Runner:
    """Runs rounds of one workload and keeps each round's timings and outputs."""

    def __init__(self, workload, seed: int, out_dir: Path):
        from quambo import cli
        from quambo.anneal import AnnealSchedule
        from studies import anneal_ising
        import numpy as np
        import reference as ref

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        for study in workload.cli:
            (out_dir / f"{study.name}.ini").write_text(study.config_text())
        # the Ising models are built before timing: they are set-up, not dynamics
        self.anneal_inputs = {}
        for study in workload.anneals:
            ising, enc = anneal_ising(study)
            schedule = AnnealSchedule(study.kind, T=study.T, steps=study.steps, s_min=study.s_min, hold=study.hold)
            feasible = np.flatnonzero(ref.weight_mask(ising.n, enc.hamming_targets))
            index = int(np.random.default_rng([seed, 3]).choice(feasible))
            seed_state = "".join(str((index >> i) & 1) for i in range(ising.n))
            self.anneal_inputs[study.name] = (ising, schedule, seed_state)

    def round(self, call=plain) -> dict:
        from quambo import anneal

        times = {}
        evals = defaultdict(int)
        outputs = {}
        failed = 0
        for study in self.workload.cli:
            out = self.out_dir / f"{study.name}.csv"
            argv = [study.command, "--config", str(self.out_dir / f"{study.name}.ini"), "--out", str(out),
                    "--seed", str(self.seed)]
            code = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = call(f"bench.{study.name}", self.cli.main, argv)
            except Exception:  # a failed study is counted, reported and the round goes on
                traceback.print_exc()
            times[study.name] = time.perf_counter() - start
            if code != 0:
                failed += 1
                continue
            outputs[study.name] = text = out.read_text()
            if study.family in ("qaoa", "vqe"):
                evals[study.family] += sum(int(r["evals"]) for r in csv.DictReader(io.StringIO(text)) if r["evals"])
        for study in self.workload.anneals:
            ising, schedule, seed_state = self.anneal_inputs[study.name]
            start = time.perf_counter()
            try:
                if study.kind == "forward":
                    state, p_gnd = call(f"bench.{study.name}", anneal.simulate_forward_anneal, ising, schedule)
                else:
                    state, p_gnd = call(f"bench.{study.name}", anneal.simulate_reverse_anneal, ising, seed_state,
                                        schedule)
            except Exception:  # as above
                traceback.print_exc()
                failed += 1
                continue
            finally:
                times[study.name] = time.perf_counter() - start
            outputs[study.name] = (state.amplitudes, p_gnd)
        return {"times": times, "evals": dict(evals), "outputs": outputs, "failed": failed,
                "total_s": sum(times.values())}

    def check(self, rounds: list[dict]) -> list[str]:
        """Failures of the first round's outputs and of every later round's agreement with it."""
        import numpy as np
        import checks

        first = rounds[0]["outputs"]
        bad = []
        for k, r in enumerate(rounds[1:], start=1):
            for name, value in r["outputs"].items():
                if name not in first:
                    continue
                same = value == first[name] if isinstance(value, str) else \
                    np.array_equal(value[0], first[name][0]) and value[1] == first[name][1]
                if not same:
                    bad.append(f"round {k}: {name} output differs from round 0 with the same inputs")
        d_min = {}
        for study in self.workload.cli:
            if study.name not in first:
                continue
            text = first[study.name]
            if study.command == "qaoa":
                bad += checks.check_qaoa(study, text, self.seed)
            elif study.command == "vqe":
                bad += checks.check_vqe(study, text, self.seed)
            elif study.command in ("oracle", "baseline"):
                key = json.dumps(study.sections["problem"], sort_keys=True)
                if key not in d_min:
                    d_min[key] = checks.reference_d_min(study.sections["problem"])
                bad += checks.check_baseline(study, text, d_min[key])
            else:
                bad += checks.check_sweep(study, text)
        for study in self.workload.anneals:
            if study.name in first:
                amplitudes, p_gnd = first[study.name]
                bad += checks.check_anneal(study, amplitudes, p_gnd, self.anneal_inputs[study.name][2])
        return bad


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    t = tracer.totals

    def calls(name):
        return t[name][0] if name in t else 0

    def secs(name):
        return t[name][1] if name in t else 0.0

    def per_call(name, scale):
        return secs(name) / calls(name) * scale if calls(name) else 0.0

    m = {
        "qubo.energy_vector.calls": calls("qubo.energy_vector"),
        "qubo.energy_vector.s": secs("qubo.energy_vector"),
        "qubo.energy_vector.calls_per_model": calls("qubo.energy_vector") / max(len(tracer.models), 1),
        "qubo.enumerate_spectrum.s": secs("qubo.enumerate_spectrum"),
    }
    for name in ("problems.encode", "problems.feasible_spectrum", "qaoa.context_build"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    for name in ("simulator.apply_phase_vector", "simulator.apply_x_mixer", "simulator.apply_local_unitary",
                 "qaoa.ev", "vqe.apply_ansatz"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    m["simulator.sample.calls"] = calls("simulator.sample")
    m["simulator.sample.s"] = secs("simulator.sample")
    m["qaoa.run.calls"] = calls("qaoa.run")
    m["qaoa.run.s"] = secs("qaoa.run")
    m["qaoa.metrics.s"] = secs("qaoa.metrics")
    m["optimize.minimize.calls"] = calls("optimize.minimize")
    m["optimize.evals_per_minimize"] = calls("optimize.objective") / max(calls("optimize.minimize"), 1)
    m["optimize.overhead_s"] = secs("optimize.minimize") - secs("optimize.objective")
    m["vqe.ev_all_qubit_sampling.s"] = secs("vqe.ev_all_qubit_sampling")
    m["vqe.ev_causal_cone_sampling.s"] = secs("vqe.ev_causal_cone_sampling")
    m["vqe.causal_cone.calls_per_term"] = calls("vqe.causal_cone") / max(len(tracer.cone_terms), 1)
    for name in ("heuristics.tabu_search", "heuristics.simulated_annealing"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms_per_call"] = per_call(name, 1e3)
    m["heuristics.exact_facility_optimum.s"] = secs("heuristics.exact_facility_optimum")
    m["anneal.anneal_parameter_sweep.s"] = secs("anneal.anneal_parameter_sweep")
    for name in ("anneal.simulate_forward_anneal", "anneal.simulate_reverse_anneal"):
        steps = tracer.anneal_steps.get(name, 0)
        m[f"{name}.ms_per_step"] = secs(name) / steps * 1e3 if steps else 0.0
    for command in ("qaoa", "vqe", "oracle", "baseline", "anneal"):
        m[f"cli.{command}.s"] = secs(f"cli.{command}")
    m["cli.self_s"] = sum(v[2] for k, v in t.items() if k.startswith("cli."))
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one BLAS thread, set before numpy loads: on a small shared machine a second
    # spinning BLAS thread adds more noise than speed at these matrix sizes
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    if not (SRC / "quambo" / "__init__.py").is_file():
        print(f"error: no quambo sources at {SRC / 'quambo'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from studies import WORKLOADS
    from tracing import Tracer

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setups = setup_times(workload.name)

    import quambo

    if Path(quambo.__file__).resolve().parent != (SRC / "quambo").resolve():
        print(f"error: imported quambo from {quambo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    runner = Runner(workload, args.seed, out_dir / f"{workload.name}-seed{args.seed}")
    tracer = Tracer()
    # the warm-up round fills caches and the allocator's free lists; its outputs
    # are the ones checked, its times are in no median
    rounds = [runner.round()]
    untraced, with_trace, traced, self_times = [], [], [], []
    start = time.perf_counter()
    while len(untraced) + len(with_trace) < 1 + args.trace or time.perf_counter() - start < args.seconds:
        if args.trace and len(with_trace) <= len(untraced):
            tracer.reset_totals()
            tracer.install()
            try:
                with_trace.append(tracer.run("bench.round", runner.round, tracer.run))
            finally:
                tracer.uninstall()
            rounds.append(with_trace[-1])
            traced.append(layer_metrics(tracer))
            self_times.append({name: v[2] for name, v in tracer.totals.items()})
        else:
            untraced.append(runner.round())
            rounds.append(untraced[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - start

    failures = runner.check(rounds)
    attempted = len(rounds) * workload.operations
    failed = sum(r["failed"] for r in rounds)

    def unit(name):
        return {"setup_s": "s", "peak_rss_mb": "MB"}.get(name, "1/s" if name.endswith("_per_s") else "s")

    if args.trace:
        values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        values["trace.overhead_pct"] = 100.0 * (statistics.median(r["total_s"] for r in with_trace)
                                                / statistics.median(r["total_s"] for r in untraced) - 1.0)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
        tracer.write(out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl")
        names = sorted({name for t in self_times for name in t})
        self_s = {name: statistics.median(t.get(name, 0.0) for t in self_times) for name in names}
        print("self time per traced round, by span:")
        for name, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name:36s} {v:10.4f} s")
    else:
        values = {"setup_s": statistics.median(setups)}
        for family in FAMILIES:
            # each study's median over rounds, summed over the family's studies
            values[f"{family}_s"] = sum(statistics.median(r["times"][study.name] for r in untraced)
                                        for study in workload.studies if study.family == family)
        for family in ("qaoa", "vqe"):
            values[f"{family}_evals_per_s"] = rounds[0]["evals"].get(family, 0) / values[f"{family}_s"]
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "env": environment(),
        "rounds": len(rounds), "measured_s": measured_s, "setup_s": setups,
        "round_times": [r["times"] for r in rounds], "evals_per_round": rounds[0]["evals"],
        "attempted": attempted, "failed": failed, "check_failures": failures, "metrics": metrics,
    }
    if args.trace:
        record["self_s_per_traced_round"] = self_s
    (out_dir / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for line in failures:
        print(f"CHECK FAILED: {line}")
    print("env " + json.dumps(record["env"]))
    print(f"{workload.name}: warm-up and {len(rounds) - 1} rounds in {measured_s:.1f} s, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "count", "s": "s", "self_s": "s", "overhead_s": "s", "us_per_call": "us",
            "ms_per_call": "ms", "ms_per_step": "ms", "calls_per_model": "calls/model",
            "calls_per_term": "calls/term", "evals_per_minimize": "evals/call", "overhead_pct": "%"}[suffix]


if __name__ == "__main__":
    sys.exit(main())
