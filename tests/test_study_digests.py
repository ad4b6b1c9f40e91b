"""Every pinned output of quambo checked by one SHA-256 per run, in one pinned subprocess.

Two sets of runs are hashed.  Each study of bench/studies.py runs through
`cli.main` at seeds 1, 3 and 7 and its CSV bytes are hashed (manifests hold
times, so they are not); each Schrodinger anneal is hashed by its final
amplitudes' bytes, a reverse anneal at every seed from the feasible seed state
bench/run.py draws.  The small configs of PINNED run through `cli.main` at
seed 3, keyed `pinned-<name>-seed3`; each is its own test case.

This is the one place that compares output bytes, and the one place that pins
what they depend on besides numpy's version.  Run as a script, the file sets
OpenBLAS's `Haswell` kernel and one BLAS thread before numpy loads: the
stacked products and `eigh` round differently under another kernel (an
AVX-512 CPU picks `SkylakeX` by default), and a full-space sum of 2^16 terms
rounds by the thread count.  `Haswell` runs on any x86-64 CPU with AVX2.  When
OpenBLAS loads another kernel (another CPU family, a numpy without its bundled
OpenBLAS), the script names it and stops: the test fails and nothing is
written.  A change that moves an output on purpose rewrites the digests:

    PYTHONPATH=src python tests/test_study_digests.py --write
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "study-digests.json"
SEEDS = (1, 3, 7)
KERNEL = "Haswell"

PROBLEM_A = "[problem]\ngeometry = line\ncols = 5\nambulances = 1\nlambda = 40\n"
PROBLEM_LINE4 = "[problem]\ngeometry = line\ncols = 4\nambulances = 2\nlambda_ratio = 2.5\n"
PROBLEM_LINE4_UNWEIGHTED = "[problem]\ngeometry = line\ncols = 4\nambulances = 2\n"
NELDER_MEAD_40 = "[optimizer]\nkind = nelder-mead\nmax_iter = 40\n"
# Per name: a command and its config, run at seed 3.
PINNED = {
    "vqe-A-sv": ("vqe", PROBLEM_A + "[vqe]\nencoding = complement\nlayers = 1\ninitial_layer = true\nmethod = sv\n"
                 "restarts = 2\n[optimizer]\nkind = fd-quasi-newton\neps = 0.1\nmax_iter = 5\ng_tol = 0\n"),
    "vqe-A-sample": ("vqe", PROBLEM_A + "[vqe]\nencoding = complement\nlayers = 1\nmethod = sample\nshots = 200\n"
                     "restarts = 2\n[optimizer]\nkind = spsa\nn_iter = 5\n"),
    "vqe-A-cone": ("vqe", PROBLEM_A + "[vqe]\nencoding = complement\nlayers = 2\nmethod = cone\nshots = 100\n"
                   "restarts = 2\n[optimizer]\nkind = spsa\nn_iter = 3\n"),
    "vqe-A-sv-nm": ("vqe", PROBLEM_A + "[vqe]\nencoding = complement\nlayers = 1\ninitial_layer = true\nmethod = sv\n"
                    "restarts = 3\n" + NELDER_MEAD_40),
    "qaoa-A-X": ("qaoa", PROBLEM_A + "[qaoa]\nencoding = complement\nmixer = X\ninit = Uniform\np = 1\n"
                 "restarts = 3\n" + NELDER_MEAD_40),
    "qaoa-B-XY": ("qaoa", PROBLEM_LINE4_UNWEIGHTED + "[qaoa]\nencoding = position_linear\ninclude_penalty = false\n"
                  "mixer = XY\ninit = Dicke\np = 2\nrestarts = 2\n" + NELDER_MEAD_40),
    "qaoa-A-interp": ("qaoa", PROBLEM_A + "[qaoa]\nencoding = complement\np = 1\nrestarts = 2\n"
                      "strategy = INTERP\np_max = 3\n" + NELDER_MEAD_40),
    "oracle-grid": ("oracle", "[problem]\ngeometry = grid\nrows = 2\ncols = 3\nambulances = 2\n"
                    "metric = manhattan\nlambda = 1.0\n"),
    "baseline-B-tabu": ("baseline", PROBLEM_LINE4 + "[heuristic]\nalgorithm = tabu\nrestarts = 20\nmax_iter = 100\n"),
    "baseline-B-sa": ("baseline", PROBLEM_LINE4 + "forbid_colocation = true\n"
                      "[heuristic]\nalgorithm = sa\nrestarts = 5\nsweeps = 50\n"),
    "anneal-A": ("anneal", PROBLEM_A + "[anneal]\nlambda_ratios = 0.5,1.0,2.0\nreads = 50\nsweeps = 20\n"),
}


def load_studies():
    spec = importlib.util.spec_from_file_location("bench_studies", ROOT / "bench" / "studies.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS loaded.  scipy maps its own OpenBLAS too, which lacks the symbol."""
    import ctypes

    import numpy as np

    home = Path(np.__file__).parent
    libs = [*home.parent.glob("numpy.libs/libscipy_openblas64_*"), *home.glob(".dylibs/libscipy_openblas64_*")]
    if not libs:
        return "none (numpy has no bundled OpenBLAS)"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def digests() -> dict[str, str]:
    """The SHA-256 of every study's and every PINNED config's output, keyed by name and seed."""
    import numpy as np

    from quambo import anneal, cli
    from references import reference_feasible_indices, string_from_index

    studies = load_studies()
    runs = [(f"{study.name}-seed{seed}", study.command, study.config_text(), seed)
            for workload in studies.WORKLOADS.values() for study in workload.cli for seed in SEEDS]
    runs += [(f"pinned-{name}-seed3", command, text, 3) for name, (command, text) in PINNED.items()]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        config, csv = Path(tmp) / "run.ini", Path(tmp) / "run.csv"
        for key, command, text, seed in runs:
            config.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(config), "--out", str(csv), "--seed", str(seed)])
            out[key] = hashlib.sha256(csv.read_bytes()).hexdigest() if code == 0 else f"exit {code}"
    for study in (study for workload in studies.WORKLOADS.values() for study in workload.anneals):
        ising, enc = studies.anneal_ising(study)
        schedule = anneal.AnnealSchedule(study.kind, T=study.T, steps=study.steps, s_min=study.s_min, hold=study.hold)
        if study.kind == "forward":
            state, _p_gnd = anneal.simulate_forward_anneal(ising, schedule)
            out[study.name] = hashlib.sha256(state.amplitudes.tobytes()).hexdigest()
            continue
        feasible = np.sort(np.fromiter(reference_feasible_indices(enc), np.int64))
        for seed in SEEDS:  # the seed state of bench/run.py: one draw of default_rng([seed, 3])
            index = int(np.random.default_rng([seed, 3]).choice(feasible))
            state, _p_gnd = anneal.simulate_reverse_anneal(ising, string_from_index(index, ising.n), schedule)
            out[f"{study.name}-seed{seed}"] = hashlib.sha256(state.amplitudes.tobytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pinned_digests() -> tuple[dict[str, str], dict[str, str]]:
    """The digests of one pinned run of this script, and the ones on file."""
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout), json.loads(GOLDEN.read_text())


def test_every_study_output_matches_its_digest(pinned_digests):
    got, want = pinned_digests
    assert got.keys() == want.keys()
    assert [name for name in want if not name.startswith("pinned-") and got[name] != want[name]] == []


@pytest.mark.parametrize("name", PINNED)
def test_pinned_config_output_matches_its_digest(pinned_digests, name):
    got, want = pinned_digests
    assert got[f"pinned-{name}-seed3"] == want[f"pinned-{name}-seed3"]


if __name__ == "__main__":
    os.environ.update(OPENBLAS_CORETYPE=KERNEL, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")  # before numpy loads
    if (kernel := blas_kernel()) != KERNEL:
        sys.exit(f"the digests are outputs of OpenBLAS's {KERNEL} kernel, but it loaded {kernel}")
    result = digests()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(result))
