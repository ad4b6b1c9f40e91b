"""Every benchmark study's output pinned by one SHA-256 per study and seed.

The studies are read from bench/studies.py.  Each CLI study runs through
`cli.main` at seeds 1, 3 and 7 and its CSV bytes are hashed (manifests hold
times, so they are not); each Schrodinger anneal is hashed by its final
amplitudes' bytes, a reverse anneal at every seed from the feasible seed state
bench/run.py draws.  The studies run in one subprocess with one BLAS thread:
a full-space sum of 2^16 terms rounds by the thread count, and the digests
are one-thread outputs, like the golden CSVs.  Like them, they hold for the
pinned numpy.  A change that moves a study on purpose rewrites the digests:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python tests/test_study_digests.py --write
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

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "study-digests.json"
SEEDS = (1, 3, 7)


def load_studies():
    spec = importlib.util.spec_from_file_location("bench_studies", ROOT / "bench" / "studies.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def digests() -> dict[str, str]:
    """The SHA-256 of every study's output, keyed by study name and seed."""
    import numpy as np

    from quambo import anneal, cli
    from references import reference_feasible_indices, string_from_index

    studies = load_studies()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in studies.WORKLOADS.values():
            for study in workload.cli:
                config = Path(tmp) / f"{study.name}.ini"
                config.write_text(study.config_text())
                for seed in SEEDS:
                    csv = Path(tmp) / f"{study.name}-seed{seed}.csv"
                    argv = [study.command, "--config", str(config), "--out", str(csv), "--seed", str(seed)]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    out[csv.stem] = hashlib.sha256(csv.read_bytes()).hexdigest() if code == 0 else f"exit {code}"
            for study in workload.anneals:
                ising, enc = studies.anneal_ising(study)
                schedule = anneal.AnnealSchedule(study.kind, T=study.T, steps=study.steps, s_min=study.s_min,
                                                 hold=study.hold)
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


def test_every_study_output_matches_its_digest():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got, want = json.loads(run.stdout), json.loads(GOLDEN.read_text())
    assert got.keys() == want.keys()
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    result = digests()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(result))
