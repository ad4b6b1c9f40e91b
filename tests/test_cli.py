"""End-to-end tests for the command line front end."""

import json

import pytest

from quambo.cli import main
from quambo.problems import FacilityProblem, encode_single_complement
from quambo.qubo import QuboModel, model_from_text, model_to_text


PROBLEM_A = """\
[problem]
geometry = line
cols = 5
ambulances = 1
lambda = 40
"""

PROBLEM_LINE4 = """\
[problem]
geometry = line
cols = 4
ambulances = 2
lambda_ratio = 2.5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestEncode:
    def test_qubo_to_file(self, tmp_path):
        cfg = write(tmp_path, "a.ini", PROBLEM_A + "[encode]\nencoding = complement\n")
        out = str(tmp_path / "model.txt")
        assert main(["encode", "--config", cfg, "--out", out]) == 0
        model = model_from_text((tmp_path / "model.txt").read_text())
        expected, _ = encode_single_complement(FacilityProblem(("line", 5), 1, lambda_=40))
        assert model_to_text(model) == model_to_text(expected)

    def test_ising_form(self, tmp_path):
        cfg = write(tmp_path, "a.ini", PROBLEM_A + "[encode]\nencoding = complement\nform = ising\n")
        out = str(tmp_path / "model.txt")
        assert main(["encode", "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "model.txt").read_text().startswith("kind ising")

    def test_missing_config(self):
        with pytest.raises(SystemExit):
            main(["encode", "--config", "/nonexistent.ini"])


class TestOracle:
    def test_line4_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "p.ini", PROBLEM_LINE4)
        out = str(tmp_path / "oracle.csv")
        assert main(["oracle", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "oracle.csv").read_text().strip().splitlines()
        assert lines[0] == "grid,algorithm,restarts,best,frequency,d_min,ratio"
        cells = lines[1].split(",")
        assert cells[0] == "line4"
        assert float(cells[5]) == 2.0
        assert "d_min 2.0" in capsys.readouterr().out

    def test_manifest_written(self, tmp_path):
        cfg = write(tmp_path, "p.ini", PROBLEM_LINE4)
        out = str(tmp_path / "oracle.csv")
        main(["oracle", "--config", cfg, "--out", out, "--seed", "5"])
        manifest = json.loads((tmp_path / "oracle.csv.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["problem"]["geometry"] == "line"
        assert "version" in manifest and "wall_time_s" in manifest


class TestQaoa:
    CONFIG = PROBLEM_A + (
        "[qaoa]\nencoding = complement\nmixer = X\ninit = Uniform\np = 1\nrestarts = 2\n"
        "[optimizer]\nkind = nelder-mead\nmax_iter = 40\n"
    )

    def test_csv_schema(self, tmp_path):
        cfg = write(tmp_path, "q.ini", self.CONFIG)
        out = str(tmp_path / "qaoa.csv")
        assert main(["qaoa", "--config", cfg, "--out", out, "--seed", "3"]) == 0
        lines = (tmp_path / "qaoa.csv").read_text().strip().splitlines()
        assert lines[0] == "run_id,p,strategy,mixer,init,ev,r_approx,p_feas,p_gnd,evals,seed"
        assert len(lines) == 1 + 2 + 1  # header, runs, summary row
        assert lines[-1].startswith("summary,")

    @pytest.mark.parametrize("mixer, init, engine", [
        ("XY", "Dicke", {"basis": "sector", "dim": 5, "block_dims": [5]}),
        ("X", "Uniform", {"basis": "full", "dim": 32, "block_dims": [32],
                          "reason": "the X mixer does not conserve Hamming weight"}),
        ("XY", "Uniform", {"basis": "full", "dim": 32, "block_dims": [32],
                           "reason": "the Uniform initial state is not inside the sector"}),
    ])
    def test_manifest_engine_block(self, tmp_path, mixer, init, engine):
        cfg = write(tmp_path, "q.ini", self.CONFIG.replace("mixer = X\ninit = Uniform", f"mixer = {mixer}\ninit = {init}"))
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 0
        assert json.loads((tmp_path / "q.csv.manifest.json").read_text())["engine"] == engine

    def test_byte_identical_given_seed(self, tmp_path):
        cfg = write(tmp_path, "q.ini", self.CONFIG)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["qaoa", "--config", cfg, "--out", a, "--seed", "7"])
        main(["qaoa", "--config", cfg, "--out", b, "--seed", "7"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_random_feasible_byte_identical_given_seed(self, tmp_path):
        text = self.CONFIG.replace("mixer = X\ninit = Uniform", "mixer = XY\ninit = RandomFeasible")
        cfg = write(tmp_path, "q.ini", text)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["qaoa", "--config", cfg, "--out", a, "--seed", "7"]) == 0
        assert main(["qaoa", "--config", cfg, "--out", b, "--seed", "7"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_pure_feasible_without_bitstring_is_an_error(self, tmp_path, capsys):
        text = self.CONFIG.replace("mixer = X\ninit = Uniform", "mixer = XY\ninit = PureFeasible")
        cfg = write(tmp_path, "q.ini", text)
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bitstring" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "q.ini", self.CONFIG.replace("restarts = 2", "restart = 3"))
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 1
        err = capsys.readouterr().err
        assert "'restart'" in err and "[qaoa]" in err and "restarts" in err
        assert not (tmp_path / "q.csv").exists()

    def test_schedule_strategy_rows(self, tmp_path):
        cfg = write(
            tmp_path,
            "q.ini",
            PROBLEM_A
            + "[qaoa]\nencoding = complement\nmixer = X\ninit = Uniform\np = 1\nrestarts = 1\n"
            + "strategy = INTERP\np_max = 3\n[optimizer]\nkind = nelder-mead\nmax_iter = 40\n",
        )
        out = str(tmp_path / "sched.csv")
        assert main(["qaoa", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "sched.csv").read_text().strip().splitlines()
        ps = [int(line.split(",")[1]) for line in lines[1:]]
        assert ps == [1, 2, 3]
        evs = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(evs, evs[1:]))


class TestVqe:
    CONFIG = PROBLEM_A + (
        "[vqe]\nencoding = complement\nlayers = 1\nrestarts = 2\nmethod = sample\nshots = 200\n"
        "[optimizer]\nkind = spsa\nn_iter = 3\n"
    )

    @pytest.mark.parametrize("method", ["cones", "SV", ""])
    def test_unknown_method_is_an_error(self, tmp_path, capsys, method):
        cfg = write(tmp_path, "v.ini", self.CONFIG.replace("method = sample", f"method = {method}"))
        assert main(["vqe", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "sv, sample, cone" in err
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("method", ["sample", "cone"])
    @pytest.mark.parametrize("shots", [0, -5])
    def test_shots_below_one_is_an_error(self, tmp_path, capsys, monkeypatch, method, shots):
        monkeypatch.setattr("quambo.cli.encoding_from_config", None)  # rejected before any work
        text = self.CONFIG.replace("method = sample", f"method = {method}").replace("shots = 200", f"shots = {shots}")
        cfg = write(tmp_path, "v.ini", text)
        assert main(["vqe", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "shots must be >= 1" in err
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("method, shots", [("sv", 0), ("sample", 200), ("cone", 200)])
    def test_manifest_circuit_block(self, tmp_path, method, shots):
        cfg = write(tmp_path, "v.ini", self.CONFIG.replace("method = sample", f"method = {method}"))
        assert main(["vqe", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
        circuit = json.loads((tmp_path / "v.csv.manifest.json").read_text())["circuit"]
        rows = (tmp_path / "v.csv").read_text().strip().splitlines()[1:]
        assert circuit == {"n": 5, "gates": 12, "ry_steps": 8, "fused_permutations": 2, "amplitude_dtype": "float64",
                           "method": method, "shots": shots, "evals": sum(int(r.split(",")[9]) for r in rows)}

    def test_csv_schema(self, tmp_path):
        cfg = write(
            tmp_path,
            "v.ini",
            PROBLEM_A
            + "[vqe]\nencoding = complement\nlayers = 1\ninitial_layer = true\nrestarts = 2\nmethod = sv\n"
            + "[optimizer]\nkind = nelder-mead\nmax_iter = 60\n",
        )
        out = str(tmp_path / "vqe.csv")
        assert main(["vqe", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "vqe.csv").read_text().strip().splitlines()
        assert lines[0] == "run_id,params,layers,method,shots,ev,r_approx,p_feas,p_gnd,evals,seed"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "13"


class TestBaseline:
    def test_csv_schema(self, tmp_path):
        cfg = write(
            tmp_path,
            "b.ini",
            PROBLEM_LINE4 + "[heuristic]\nalgorithm = sa\nsweeps = 200\nrestarts = 5\n",
        )
        out = str(tmp_path / "base.csv")
        assert main(["baseline", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "base.csv").read_text().strip().splitlines()
        assert lines[0] == "grid,algorithm,restarts,best,frequency,d_min,ratio"
        cells = lines[1].split(",")
        assert cells[1] == "sa" and cells[2] == "5"
        assert float(cells[5]) == 2.0


class TestAnneal:
    def test_csv_schema(self, tmp_path):
        cfg = write(
            tmp_path,
            "an.ini",
            "[problem]\ngeometry = line\ncols = 2\nambulances = 1\nlambda_ratio = 1.0\n"
            "[anneal]\nlambda_ratios = 1.0,5.0\nreads = 20\nsweeps = 15\n",
        )
        out = str(tmp_path / "anneal.csv")
        assert main(["anneal", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "anneal.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda_ratio,p_gnd,p_feas,r_approx,reads,seed"
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "5.0"]


class TestTts:
    def test_prints_value(self, capsys):
        assert main(["tts", "--p-sol", "0.5", "--t-cycle", "100"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(664.386, abs=0.1)

    def test_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "tts.csv")
        main(["tts", "--p-sol", "0.99", "--t-cycle", "7", "--out", out])
        lines = (tmp_path / "tts.csv").read_text().strip().splitlines()
        assert lines[0] == "p_sol,t_cycle,tts"
        assert float(lines[1].split(",")[2]) == pytest.approx(7.0)

    def test_invalid_p_sol_exits_nonzero(self, capsys):
        assert main(["tts", "--p-sol", "1.5", "--t-cycle", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestSummarize:
    def test_mean_and_error(self, tmp_path, capsys):
        csv_path = write(
            tmp_path,
            "runs.csv",
            "run_id,ev,p_gnd\n0,3.0,0.0\n1,1.0,1.0\n",
        )
        assert main(["summarize", csv_path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "metric,mean,err,min,max"
        table = {line.split(",")[0]: line.split(",")[1:] for line in out[1:] if "," in line}
        assert float(table["p_gnd"][0]) == pytest.approx(0.5)
        assert float(table["p_gnd"][1]) == pytest.approx(0.7071, abs=1e-4)
        assert out[-1] == "best_run,1"

    def test_skips_summary_rows(self, tmp_path, capsys):
        csv_path = write(tmp_path, "runs.csv", "run_id,ev\n0,2.0\nsummary,2.0\n")
        main(["summarize", csv_path])
        out = capsys.readouterr().out
        assert "best_run,0" in out

    def test_empty_csv(self, tmp_path):
        csv_path = write(tmp_path, "empty.csv", "")
        with pytest.raises(SystemExit):
            main(["summarize", csv_path])
