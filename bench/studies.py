"""The two benchmark workloads: fixed studies on fixed problems, run through quambo.

Every study here is one operation of a round.  CLI studies are written to an
INI config and run through ``quambo.cli.main``; anneal studies call
``quambo.anneal`` directly, since the Schrodinger anneal has no subcommand.

The optimisers are given fixed budgets (Nelder-Mead with zero tolerances,
quasi-Newton with zero gradient tolerance, SPSA with a fixed iteration
count) so that the seed changes the angles a study visits, not how much work
it does; this keeps the figures comparable from one seed to the next.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

# Problem A: line 5, one ambulance, complement encoding (n = 5).
PROBLEM_A = {"geometry": "line", "cols": "5", "ambulances": "1", "lambda": "40"}
# Problem B: line 4, two ambulances, start/destination encoding (n = 16).
PROBLEM_B = {"geometry": "line", "cols": "4", "ambulances": "2", "lambda_ratio": "1.0"}
# Problem C: line 8, two ambulances, position-linear encoding (n = 8).
PROBLEM_C = {"geometry": "line", "cols": "8", "ambulances": "2", "lambda_ratio": "1.0"}


def grid(rows: int, cols: int, ambulances: int, **penalty: str) -> dict:
    return {"geometry": "grid", "rows": str(rows), "cols": str(cols), "ambulances": str(ambulances), **penalty}


def nelder_mead(max_iter: int) -> dict:
    return {"kind": "nelder-mead", "max_iter": str(max_iter), "f_tol": "0", "x_tol": "0"}


def spsa(n_iter: int) -> dict:
    return {"kind": "spsa", "a": "0.1", "c": "0.1", "n_iter": str(n_iter)}


def fd_quasi_newton(max_iter: int) -> dict:
    return {"kind": "fd-quasi-newton", "eps": "0.1", "max_iter": str(max_iter), "g_tol": "0"}


@dataclass(frozen=True)
class CliStudy:
    """One `quambo <command>` call; family is the end-to-end metric it is timed under."""

    name: str
    family: str
    command: str
    sections: dict

    def config_text(self) -> str:
        return "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in self.sections.items()
        )


@dataclass(frozen=True)
class AnnealStudy:
    """One Schrodinger anneal of a problem's Ising model through quambo.anneal."""

    name: str
    kind: str  # "forward" | "reverse"
    family = "anneal_dynamics"
    problem: dict
    encoding: str
    T: float
    steps: int
    s_min: float = 0.5
    hold: float = 0.0

    @property
    def total_time(self) -> float:
        return self.T if self.kind == "forward" else 2 * self.T + self.hold


@dataclass(frozen=True)
class Workload:
    name: str
    cli: list[CliStudy]
    anneals: list[AnnealStudy] = field(default_factory=list)

    @property
    def studies(self) -> list:
        return [*self.cli, *self.anneals]

    @property
    def operations(self) -> int:
        return len(self.studies)


def qaoa_study(name: str, problem: dict, encoding: str, mixer: str, init: str, p: int,
               restarts: int, max_iter: int, **extra: str) -> CliStudy:
    qaoa = {"encoding": encoding, "mixer": mixer, "init": init, "p": str(p), "restarts": str(restarts), **extra}
    return CliStudy(name, "qaoa", "qaoa", {"problem": problem, "qaoa": qaoa, "optimizer": nelder_mead(max_iter)})


def vqe_study(name: str, problem: dict, encoding: str, method: str, restarts: int, optimizer: dict,
              shots: int = 0) -> CliStudy:
    vqe = {"encoding": encoding, "layers": "1", "method": method, "restarts": str(restarts)}
    if shots:
        vqe["shots"] = str(shots)
    return CliStudy(name, "vqe", "vqe", {"problem": problem, "vqe": vqe, "optimizer": optimizer})


def baseline_study(name: str, problem: dict, algorithm: str, restarts: int, **settings: str) -> CliStudy:
    heuristic = {"algorithm": algorithm, "restarts": str(restarts), **settings}
    return CliStudy(name, "baseline", "baseline", {"problem": problem, "heuristic": heuristic})


def oracle_study(name: str, problem: dict) -> CliStudy:
    return CliStudy(name, "baseline", "oracle", {"problem": problem})


def sweep_study(name: str, problem: dict, ratios: str, reads: int) -> CliStudy:
    anneal = {"lambda_ratios": ratios, "reads": str(reads), "sweeps": "30"}
    return CliStudy(name, "anneal_sweep", "anneal", {"problem": problem, "anneal": anneal})


SMALL_N = Workload(
    "small-n",
    cli=[
        qaoa_study("qaoa-A-X-p5", PROBLEM_A, "complement", "X", "Uniform", 5, restarts=4, max_iter=150),
        qaoa_study("qaoa-A-XY-p5", PROBLEM_A, "complement", "XY", "Dicke", 5, restarts=4, max_iter=150),
        qaoa_study("qaoa-C-interp", PROBLEM_C, "position_linear", "X", "Uniform", 1, restarts=4, max_iter=100,
                   strategy="INTERP", p_max="4"),
        vqe_study("vqe-A-sv-fdqn", PROBLEM_A, "complement", "sv", 4, fd_quasi_newton(10)),
        vqe_study("vqe-A-sample-spsa", PROBLEM_A, "complement", "sample", 4, spsa(30), shots=1000),
        vqe_study("vqe-A-cone-spsa", PROBLEM_A, "complement", "cone", 1, spsa(20), shots=500),
        oracle_study("oracle-B", PROBLEM_B),
        baseline_study("tabu-B", PROBLEM_B, "tabu", 100, max_iter="400"),
        baseline_study("sa-B", PROBLEM_B, "sa", 10, sweeps="200"),
        sweep_study("anneal-B", PROBLEM_B, "0.5,1.0,2.0", reads=200),
    ],
    anneals=[
        AnnealStudy("forward-A", "forward", PROBLEM_A, "complement", T=10.0, steps=1000),
        AnnealStudy("reverse-A", "reverse", PROBLEM_A, "complement", T=5.0, steps=1000, s_min=0.5, hold=2.0),
    ],
)

LARGE_N = Workload(
    "large-n",
    cli=[
        qaoa_study("qaoa-B-3xy11-p1", PROBLEM_B, "start_dest", "ThreeXY", "DickeBlocks", 1, restarts=4,
                   max_iter=60, angle_scheme="1,1"),
        qaoa_study("qaoa-B-3xy33-p2", PROBLEM_B, "start_dest", "ThreeXY", "DickeBlocks", 2, restarts=2,
                   max_iter=100, angle_scheme="3,3"),
        qaoa_study("qaoa-B-X-p1", PROBLEM_B, "start_dest", "X", "Uniform", 1, restarts=1, max_iter=40),
        vqe_study("vqe-B-sv-spsa", PROBLEM_B, "start_dest", "sv", 1, spsa(6)),
        vqe_study("vqe-B-sample-spsa", PROBLEM_B, "start_dest", "sample", 1, spsa(4), shots=2000),
        vqe_study("vqe-B-cone-spsa", PROBLEM_B, "start_dest", "cone", 1, spsa(2), shots=500),
        oracle_study("oracle-20x20-m2", grid(20, 20, 2, **{"lambda": "1.0"})),
        oracle_study("oracle-10x10-m3", grid(10, 10, 3, **{"lambda": "1.0"})),
        baseline_study("tabu-5x5", grid(5, 5, 2, lambda_ratio="2.5"), "tabu", 150, max_iter="400"),
        baseline_study("sa-5x5", grid(5, 5, 2, lambda_ratio="2.5"), "sa", 4, sweeps="100"),
        sweep_study("anneal-3x2", grid(3, 2, 2, lambda_ratio="1.0"), "1.0,10.0", reads=50),
    ],
    anneals=[
        AnnealStudy("forward-C", "forward", PROBLEM_C, "position_linear", T=10.0, steps=30),
        AnnealStudy("reverse-C", "reverse", PROBLEM_C, "position_linear", T=5.0, steps=30, s_min=0.5, hold=1.0),
    ],
)

WORKLOADS = {w.name: w for w in (SMALL_N, LARGE_N)}


# --- building quambo objects through its public constructors --------------------

def parse(study: CliStudy) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict(study.sections)
    return cp


def qaoa_specs(study: CliStudy, encoding):
    """The MixerSpec and InitSpec that `quambo qaoa` builds from this study's config."""
    from quambo.qaoa import InitSpec, MixerSpec

    sec = study.sections["qaoa"]
    kind = sec["mixer"]
    if kind == "XY":
        mixer = MixerSpec("XY", rings=[list(range(lo, hi)) for (lo, hi), _ in encoding.hamming_targets])
    elif kind == "ThreeXY":
        mixer = MixerSpec("ThreeXY", angle_scheme=tuple(int(x) for x in sec["angle_scheme"].split(",")))
    else:
        mixer = MixerSpec("X")
    return mixer, InitSpec(sec["init"])


def encode(problem: dict, encoding: str):
    """(model, encoding) for a problem section and an encoding name."""
    from quambo import cli

    cp = configparser.ConfigParser()
    cp.read_dict({"problem": problem, "encode": {"encoding": encoding}})
    return cli.encoding_from_config(cp, cli.problem_from_config(cp), "encode")


def anneal_ising(study: AnnealStudy):
    from quambo.qubo import qubo_to_ising

    model, encoding = encode(study.problem, study.encoding)
    return qubo_to_ising(model), encoding


def build_all(workload: Workload) -> int:
    """Build every encoding, QaoaContext and feasible spectrum the workload uses; returns the count."""
    from quambo import cli
    from quambo.problems import encode_start_dest, feasible_spectrum
    from quambo.qaoa import QaoaContext

    built = 0
    for study in workload.cli:
        cp = parse(study)
        problem = cli.problem_from_config(cp)
        if study.command == "qaoa":
            model, enc = cli.encoding_from_config(cp, problem, "qaoa")
            QaoaContext(enc, model, *qaoa_specs(study, enc))
            built += 2
        elif study.command == "vqe":
            model, enc = cli.encoding_from_config(cp, problem, "vqe")
            feasible_spectrum(model, enc)
            built += 2
        elif study.command == "baseline":
            encode_start_dest(problem)
            built += 1
        elif study.command == "anneal":
            for ratio in study.sections["anneal"]["lambda_ratios"].split(","):
                model, enc = encode_start_dest(replace(problem, lambda_=None, lambda_ratio=float(ratio)))
                feasible_spectrum(model, enc)
                built += 2
    for study in workload.anneals:
        anneal_ising(study)
        built += 1
    return built
