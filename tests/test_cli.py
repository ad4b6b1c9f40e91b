"""End-to-end tests for the command line front end."""

import configparser
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import quambo
from quambo import cli, heuristics, qaoa, vqe
from quambo.cli import _call, _signature, encoding_from_config, main, optimizer_from_config, problem_from_config
from quambo.optimize import FdQuasiNewton, NelderMead, Spsa
from quambo.problems import FacilityProblem, encode_single_complement
from quambo.qubo import model_to_text


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
# The same problem without a penalty weight, for position_linear without its penalty, which reads none.
PROBLEM_LINE4_UNWEIGHTED = PROBLEM_LINE4.replace("lambda_ratio = 2.5\n", "")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_one_error(tmp_path, capsys, command, text, message):
    """The command exits 1 with exactly the one line `error: message` and writes no CSV."""
    cfg = write(tmp_path, "c.ini", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "c.csv").exists()


# A start/destination encoding of 13 sites and one ambulance: n = 26 qubits, over STATE_CAP.
PROBLEM_N26 = "[problem]\ngeometry = line\ncols = 13\nambulances = 1\nlambda = 1\n"
QAOA_KEYS = "valid keys: encoding, mixer, strategy, init, p, restarts"
# The manifest's optimizer block of a qaoa or vqe run; qaoa adds schedule_s with a strategy.
OPTIMIZER_KEYS = {"kind", "restarts", "lockstep_rows", "batch_calls", "points_per_call", "evals_per_row", "optimize_s"}


class TestEncode:
    def test_qubo_to_file(self, tmp_path):
        cfg = write(tmp_path, "a.ini", PROBLEM_A + "[encode]\nencoding = complement\n")
        out = str(tmp_path / "model.txt")
        assert main(["encode", "--config", cfg, "--out", out]) == 0
        expected, _ = encode_single_complement(FacilityProblem(("line", 5), 1, lambda_=40))
        assert (tmp_path / "model.txt").read_text() == model_to_text(expected)

    def test_ising_form(self, tmp_path):
        cfg = write(tmp_path, "a.ini", PROBLEM_A + "[encode]\nencoding = complement\nform = ising\n")
        out = str(tmp_path / "model.txt")
        assert main(["encode", "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "model.txt").read_text().startswith("kind ising")

    def test_missing_config(self):
        with pytest.raises(SystemExit):
            main(["encode", "--config", "/nonexistent.ini"])

    @pytest.mark.parametrize("setting, message", [
        ("encoding = complement\nform = isin", "unknown form 'isin'; valid forms: qubo, ising"),
        ("encoding = single_complement",
         "unknown encoding 'single_complement'; valid encodings: start_dest, position_linear, complement"),
        ("encoding = complement\ninclude_penalty = false", "encoding 'complement' does not read key "
         "'include_penalty'; valid keys: encoding, form"),
    ])
    def test_bad_setting_is_an_error(self, tmp_path, capsys, monkeypatch, setting, message):
        monkeypatch.setattr("quambo.cli.encoding_from_config", None)  # rejected before any work
        assert_one_error(tmp_path, capsys, "encode", PROBLEM_A + f"[encode]\n{setting}\n", message)

    def test_unknown_encoding_is_a_value_error(self):
        cp = configparser.ConfigParser()
        cp.read_string(PROBLEM_A + "[encode]\nencoding = bogus\n")
        with pytest.raises(ValueError, match="unknown encoding 'bogus'"):
            encoding_from_config(cp, problem_from_config(cp), "encode")

    def test_a_qaoa_section_does_not_stand_in_for_encode(self, tmp_path, capsys):
        assert_one_error(tmp_path, capsys, "encode", PROBLEM_A + "[qaoa]\nencoding = complement\n",
                         "quambo encode needs a [encode] section")

    def test_position_linear_reads_include_penalty(self, tmp_path):
        cfg = write(tmp_path, "a.ini", PROBLEM_LINE4_UNWEIGHTED + "[encode]\nencoding = position_linear\n"
                    "include_penalty = no\n")
        assert main(["encode", "--config", cfg, "--out", str(tmp_path / "m.txt")]) == 0
        assert "quad" not in (tmp_path / "m.txt").read_text()  # the penalty is the only quadratic term

    @pytest.mark.parametrize("weight", ["lambda = 7.5", "lambda_ratio = 2.5"])
    def test_position_linear_without_its_penalty_refuses_a_weight(self, tmp_path, capsys, weight):
        assert_one_error(tmp_path, capsys, "encode", PROBLEM_LINE4.replace("lambda_ratio = 2.5", weight)
                         + "[encode]\nencoding = position_linear\ninclude_penalty = false\n",
                         "lambda and lambda_ratio need include_penalty = true; position_linear does not read them")

    def test_a_wrapped_encoder_still_reads_its_keys(self, tmp_path, monkeypatch):
        # a (*args, **kwargs) wrapper, as a tracer installs, hides the encoder's own parameters
        calls, encode = [], cli.encode_position_linear

        def wrapper(*args, **kwargs):
            calls.append(1)
            return encode(*args, **kwargs)

        monkeypatch.setattr(cli, "encode_position_linear", wrapper)
        text = PROBLEM_LINE4_UNWEIGHTED + "[encode]\nencoding = position_linear\ninclude_penalty = false\n"
        cfg = write(tmp_path, "a.ini", text)
        assert main(["encode", "--config", cfg, "--out", str(tmp_path / "m.txt")]) == 0
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert calls == [1]  # the wrapper is the encoder called
        assert lines[2] == "offset 0.0" and [line.split()[0] for line in lines[3:]] == ["lin"] * 4


class TestProblem:
    @pytest.mark.parametrize("old, new, message", [
        ("lambda = 40", "lambda = -1", "need a finite lambda >= 0, got -1.0"),
        ("lambda = 40", "lambda_ratio = inf", "need a finite lambda_ratio >= 0, got inf"),
        ("line", "grid", "problem geometry 'grid' needs key 'rows'"),
        ("lambda = 40", "lambda = 40\nforbid_colocation = maybe",
         "unknown boolean 'maybe'; valid booleans: 1, yes, true, on, 0, no, false, off "
         "(in [problem] forbid_colocation = maybe)"),
        ("lambda = 40", "lambda = 40\nmetric = taxicab",
         "unknown metric 'taxicab'; valid metrics: squared-euclidean, euclidean, manhattan"),
        ("lambda = 40", "lambda = 40\nlambda_ratio = 1", "set at most one penalty weight: lambda or lambda_ratio"),
    ])
    def test_bad_problem_is_one_error_line(self, tmp_path, capsys, old, new, message):
        assert_one_error(tmp_path, capsys, "oracle", PROBLEM_A.replace(old, new), message)

    @pytest.mark.parametrize("command", ["encode", "qaoa", "vqe", "baseline"])
    def test_an_encoding_with_a_penalty_needs_a_weight(self, tmp_path, capsys, command):
        section = {"encode": "[encode]\nencoding = complement\n", "qaoa": "[qaoa]\nencoding = complement\n",
                   "vqe": "[vqe]\nencoding = complement\n", "baseline": "[heuristic]\n"}[command]
        assert_one_error(tmp_path, capsys, command, PROBLEM_A.replace("lambda = 40\n", "") + section,
                         "the encoding's penalty needs a weight: set lambda or lambda_ratio")

    @pytest.mark.parametrize("command", ["oracle", "anneal"])
    def test_a_command_without_a_penalty_needs_no_weight(self, tmp_path, command):
        """The oracle reads no weight and the sweep sets each of lambda_ratios: a weight changes no output."""
        sweep = "[anneal]\nlambda_ratios = 1.0,5.0\nreads = 10\nsweeps = 10\n"
        outputs = []
        for name, problem in (("none", PROBLEM_A.replace("lambda = 40\n", "")), ("weight", PROBLEM_A)):
            out = tmp_path / f"{name}.csv"
            assert main([command, "--config", write(tmp_path, f"{name}.ini", problem + sweep), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_sweep_ratio_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("quambo.anneal.encode_start_dest", None)  # every ratio is checked before any work
        assert_one_error(tmp_path, capsys, "anneal", PROBLEM_A + "[anneal]\nlambda_ratios = 1.0,nan\n",
                         "need a finite lambda_ratio >= 0, got nan")

    def test_forbid_colocation_reads_every_boolean_spelling(self, tmp_path):
        def model(setting):
            cfg = write(tmp_path, "e.ini", PROBLEM_LINE4 + f"forbid_colocation = {setting}\n[encode]\n")
            assert main(["encode", "--config", cfg, "--out", str(tmp_path / "m.txt")]) == 0
            return (tmp_path / "m.txt").read_text()

        assert model("on") == model("true") == model("Yes") != model("off") == model("false")


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

    def test_placement_cap_is_an_error(self, tmp_path, capsys):
        text = "[problem]\ngeometry = grid\nrows = 30\ncols = 30\nambulances = 3\nlambda = 1\n"
        assert_one_error(tmp_path, capsys, "oracle", text, "121095300 placements of 3 ambulances on 900 "
                         "locations exceed the enumeration cap 10000000")


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

    def test_manifest_optimizer_block(self, tmp_path):
        cfg = write(tmp_path, "q.ini", self.CONFIG)
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 0
        block = json.loads((tmp_path / "q.csv.manifest.json").read_text())["optimizer"]
        evals = sum(int(line.split(",")[9]) for line in (tmp_path / "q.csv").read_text().splitlines()[1:3])
        assert set(block) == OPTIMIZER_KEYS
        assert block["kind"] == "nelder-mead" and block["restarts"] == block["lockstep_rows"] == 2
        assert block["points_per_call"] * block["batch_calls"] == pytest.approx(evals)
        assert block["evals_per_row"] == evals / 2

    def test_manifest_optimizer_block_times_the_schedule(self, tmp_path):
        text = self.CONFIG.replace("restarts = 2", "restarts = 1\nstrategy = EXTRAP1\np_max = 2")
        cfg = write(tmp_path, "q.ini", text)
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 0
        block = json.loads((tmp_path / "q.csv.manifest.json").read_text())["optimizer"]
        assert set(block) == OPTIMIZER_KEYS | {"schedule_s"}
        assert block["lockstep_rows"] == 1 and block["schedule_s"] >= 0.0

    @pytest.mark.parametrize("setting, message", [
        ("max_iter = 0", "need max_iter >= 1, got 0"),
        ("f_tol = -1e-3", "need a finite f_tol >= 0, got -0.001"),
        ("x_tol = nan", "need a finite x_tol >= 0, got nan"),
        ("init_simplex_scale = 0", "need a finite init_simplex_scale > 0, got 0.0"),
    ])
    def test_bad_optimizer_is_an_error(self, tmp_path, capsys, monkeypatch, setting, message):
        monkeypatch.setattr("quambo.cli.encoding_from_config", None)  # rejected before any work
        cfg = write(tmp_path, "q.ini", self.CONFIG.replace("max_iter = 40", setting))
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("setting, message", [
        ("kind = spsa\na = nan", "need a finite a > 0, got nan"),
        ("kind = spsa\nc = 0", "need a finite c > 0, got 0.0"),
        ("kind = spsa\nn_iter = 0", "need n_iter >= 1, got 0"),
        ("kind = fd-quasi-newton\neps = nan", "need a finite eps > 0, got nan"),
        ("kind = fd-quasi-newton\ng_tol = -1", "need a finite g_tol >= 0, got -1.0"),
        ("kind = fd-quasi-newton\ng_tol = inf", "need a finite g_tol >= 0, got inf"),
        ("kind = spsa\nmax_iter = 0",
         "optimizer kind 'spsa' does not read key 'max_iter'; valid keys: kind, a, c, n_iter"),
        ("kind = nelder-mead\neps = 5", "optimizer kind 'nelder-mead' does not read key 'eps'; "
         "valid keys: kind, max_iter, f_tol, x_tol, init_simplex_scale"),
        ("kind = fd-quasi-newton\nn_iter = 5",
         "optimizer kind 'fd-quasi-newton' does not read key 'n_iter'; valid keys: kind, eps, max_iter, g_tol"),
        ("kind = bfgs", "unknown optimizer kind 'bfgs'; valid kinds: nelder-mead, spsa, fd-quasi-newton"),
    ])
    def test_bad_spsa_or_quasi_newton_is_an_error(self, tmp_path, capsys, monkeypatch, setting, message):
        monkeypatch.setattr("quambo.cli.encoding_from_config", None)  # rejected before any work
        cfg = write(tmp_path, "q.ini", self.CONFIG.replace("kind = nelder-mead\nmax_iter = 40", setting))
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("text, want", [
        ("", NelderMead()),
        ("[optimizer]\nkind = spsa\nn_iter = 7\n", Spsa(n_iter=7)),
        ("[optimizer]\nkind = fd-quasi-newton\nmax_iter = 3\ng_tol = 0\n", FdQuasiNewton(max_iter=3, g_tol=0.0)),
    ])
    def test_unset_optimizer_keys_keep_the_dataclass_defaults(self, text, want):
        cp = configparser.ConfigParser()
        cp.read_string(text)
        assert optimizer_from_config(cp) == want

    @pytest.mark.parametrize("kind, text, given, want", [
        (qaoa.MixerSpec, "angle_scheme = 3,3", {"kind": "ThreeXY"}, qaoa.MixerSpec("ThreeXY", angle_scheme=(3, 3))),
        (qaoa.MixerSpec, "", {"kind": "X"}, qaoa.MixerSpec("X")),
        (vqe.VqeAnsatz, "initial_layer = yes\nlayers = 0", {"n": 3}, vqe.VqeAnsatz(3, True, 0)),
        (heuristics.Tabu, "tenure = 7", {}, heuristics.Tabu(tenure=7)),
        (heuristics.SimAnneal, "beta_final = 4", {}, heuristics.SimAnneal(beta_final=4.0)),
        (heuristics.Tabu, "", {}, heuristics.Tabu()),
    ])
    def test_keys_convert_by_annotation_and_unset_keys_keep_defaults(self, kind, text, given, want):
        cp = configparser.ConfigParser()
        cp.read_string(f"[vqe]\n{text}\n")
        assert _call(kind, _signature(kind), cp["vqe"], {"entangling_layers": "layers"}, **given) == want

    def test_bad_boolean_is_an_error(self, tmp_path, capsys):
        assert_one_error(tmp_path, capsys, "qaoa", self.CONFIG.replace("encoding = complement", "encoding = "
                         "position_linear\ninclude_penalty = maybe"),
                         "unknown boolean 'maybe'; valid booleans: 1, yes, true, on, 0, no, false, off "
                         "(in [qaoa] include_penalty = maybe)")

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
        assert_one_error(tmp_path, capsys, "qaoa", text, "unknown qaoa init 'PureFeasible'; "
                         "valid inits: Uniform, Dicke, DickeBlocks, RandomFeasible")

    def test_strategy_run_builds_one_context(self, tmp_path, monkeypatch):
        built, build = [], qaoa.QaoaContext.__init__
        monkeypatch.setattr(qaoa.QaoaContext, "__init__", lambda *args, **kw: built.append(1) or build(*args, **kw))
        text = self.CONFIG.replace("restarts = 2", "restarts = 1\nstrategy = INTERP\np_max = 2")
        assert main(["qaoa", "--config", write(tmp_path, "q.ini", text), "--out", str(tmp_path / "q.csv")]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("old, new, message", [
        ("mixer = X", "mixer = xy", "unknown qaoa mixer 'xy'; valid mixers: X, XY, ThreeXY"),
        ("p = 1", "strategy = BOGUS", "unknown qaoa strategy 'BOGUS'; valid strategies: INTERP, EXTRAP1, EXTRAP2"),
        ("p = 1", "p = 0", "need p >= 1, got 0"),
        ("restarts = 2", "restarts = 0", "need restarts >= 1, got 0"),
        ("p = 1", "angle_scheme = 3,3", f"qaoa mixer 'X' does not read key 'angle_scheme'; {QAOA_KEYS}"),
        ("p = 1", "p_max = 3", f"qaoa without a strategy does not read key 'p_max'; {QAOA_KEYS}"),
        ("p = 1", "strategy = INTERP\np_max = x", "invalid literal for int() with base 10: 'x' (in [qaoa] p_max = x)"),
        ("p = 1", "include_penalty = true", f"encoding 'complement' does not read key 'include_penalty'; {QAOA_KEYS}"),
        ("p = 1", "form = ising", f"unknown key 'form' in [qaoa]; {QAOA_KEYS}"),
        ("init = Uniform", "init = Bogus",
         "unknown qaoa init 'Bogus'; valid inits: Uniform, Dicke, DickeBlocks, RandomFeasible"),
    ])
    def test_bad_setting_is_an_error(self, tmp_path, capsys, monkeypatch, old, new, message):
        monkeypatch.setattr("quambo.cli.encoding_from_config", None)  # rejected before any work
        assert_one_error(tmp_path, capsys, "qaoa", self.CONFIG.replace(old, new), message)

    @pytest.mark.parametrize("encoding", ["complement", "position_linear"])
    def test_forbid_colocation_needs_start_dest(self, tmp_path, capsys, encoding):
        text = self.CONFIG.replace("lambda = 40", "lambda = 40\nforbid_colocation = true")
        assert_one_error(tmp_path, capsys, "qaoa", text.replace("encoding = complement", f"encoding = {encoding}"),
                         f"forbid_colocation needs the start_dest encoding; {encoding} does not read it")

    def test_xy_on_one_qubit_blocks_is_an_error(self, tmp_path, capsys):
        """One site and one ambulance under start_dest: two one-qubit Hamming blocks, too short for an XY ring."""
        problem = "[problem]\ngeometry = line\ncols = 1\nambulances = 1\nlambda = 1\n"
        assert_one_error(tmp_path, capsys, "qaoa", problem + self.CONFIG[len(PROBLEM_A):].replace(
            "encoding = complement\nmixer = X", "encoding = start_dest\nmixer = XY"),
            "need a ring of length >= 2, got 1")

    def test_three_xy_needs_three_hamming_blocks(self, tmp_path, capsys):
        assert_one_error(tmp_path, capsys, "qaoa", self.CONFIG.replace("mixer = X", "mixer = ThreeXY"),
                         "ThreeXY needs an encoding with three Hamming blocks")

    def test_rows_of_a_line_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("quambo.cli.encoding_from_config", None)  # rejected before any work
        assert_one_error(tmp_path, capsys, "qaoa", self.CONFIG.replace("cols = 5", "cols = 5\nrows = 2"),
                         "problem geometry 'line' does not read key 'rows'; valid keys: geometry, metric, "
                         "ambulances, lambda, lambda_ratio, forbid_colocation, cols")

    def test_repeated_key_is_an_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "q.ini", self.CONFIG.replace("p = 1", "p = 1\np = 2"))
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("option 'p' in section 'qaoa' already exists\n")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "q.ini", self.CONFIG.replace("restarts = 2", "restart = 3"))
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 1
        err = capsys.readouterr().err
        assert "'restart'" in err and "[qaoa]" in err and "restarts" in err
        assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("p_max", [0, -4])
    def test_p_max_below_p_is_an_error(self, tmp_path, capsys, monkeypatch, p_max):
        monkeypatch.setattr("quambo.qaoa.random_restart_search", None)  # rejected before any search
        text = self.CONFIG.replace("p = 1", f"p = 3\nstrategy = INTERP\np_max = {p_max}")
        assert_one_error(tmp_path, capsys, "qaoa", text,
                         f"need p_max >= p for strategy INTERP, got p_max = {p_max} and p = 3")

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
        assert_one_error(tmp_path, capsys, "vqe", text, f"need shots >= 1, got {shots}")

    def test_shots_with_sv_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("quambo.cli.encoding_from_config", None)  # rejected before any work
        assert_one_error(tmp_path, capsys, "vqe", self.CONFIG.replace("method = sample", "method = sv"),
                         "vqe method 'sv' does not read key 'shots'; "
                         "valid keys: encoding, method, initial_layer, layers, restarts")

    @pytest.mark.parametrize("method, shots", [("sv", 0), ("sample", 200), ("cone", 200)])
    def test_manifest_circuit_block(self, tmp_path, method, shots):
        text = self.CONFIG.replace("method = sample\nshots = 200", f"method = {method}\nshots = {shots}")
        cfg = write(tmp_path, "v.ini", text.replace("shots = 0\n", ""))  # sv reads no shots
        assert main(["vqe", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
        circuit = json.loads((tmp_path / "v.csv.manifest.json").read_text())["circuit"]
        rows = (tmp_path / "v.csv").read_text().strip().splitlines()[1:]
        assert circuit == {"n": 5, "gates": 12, "ry_steps": 8, "fused_permutations": 2, "amplitude_dtype": "float64",
                           "method": method, "shots": shots, "evals": sum(int(r.split(",")[9]) for r in rows)}

    @pytest.mark.parametrize("optimizer", ["kind = spsa\nn_iter = 3", "kind = fd-quasi-newton\nmax_iter = 2"])
    def test_manifest_optimizer_block(self, tmp_path, optimizer):
        cfg = write(tmp_path, "v.ini", self.CONFIG.replace("kind = spsa\nn_iter = 3", optimizer))
        assert main(["vqe", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
        block = json.loads((tmp_path / "v.csv.manifest.json").read_text())["optimizer"]
        evals = sum(int(r.split(",")[9]) for r in (tmp_path / "v.csv").read_text().strip().splitlines()[1:])
        assert set(block) == OPTIMIZER_KEYS  # the same block as qaoa's
        assert block["kind"] == optimizer.split("\n")[0].split(" = ")[1] and block["restarts"] == 2
        assert block["lockstep_rows"] == 1  # sampled restarts run one after another
        assert block["evals_per_row"] == evals / 2 and block["optimize_s"] > 0.0
        assert block["points_per_call"] == evals / block["batch_calls"]
        if block["kind"] == "spsa":
            # per restart: the start, one +/- pair per step, the last iterate
            assert block["batch_calls"] == 2 * (1 + 3 + 1) and evals == 2 * (1 + 2 * 3 + 1)
        else:
            # each central-difference gradient is one call of 2P = 16 points
            assert block["points_per_call"] > 1.0

    @pytest.mark.parametrize("initial", ["", "initial_layer = false\n"])
    def test_ansatz_without_parameters_is_an_error(self, tmp_path, capsys, initial):
        cfg = write(tmp_path, "v.ini", self.CONFIG.replace("layers = 1\n", "layers = 0\n" + initial))
        assert main(["vqe", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "layers" in err and "initial_layer" in err
        assert not (tmp_path / "v.csv").exists()

    def test_zero_layers_with_initial_layer_runs(self, tmp_path):
        cfg = write(tmp_path, "v.ini", self.CONFIG.replace("layers = 1\n", "layers = 0\ninitial_layer = true\n"))
        assert main(["vqe", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
        assert (tmp_path / "v.csv").read_text().splitlines()[1].split(",")[1:3] == ["5", "0"]

    # Written by the one-point objectives (each point its own circuit) before
    # the estimators ran batches; every batched run must reproduce them.
    GOLDEN = {
        "sv": "[vqe]\nencoding = complement\nlayers = 1\ninitial_layer = true\nmethod = sv\nrestarts = 2\n"
              "[optimizer]\nkind = fd-quasi-newton\neps = 0.1\nmax_iter = 5\ng_tol = 0\n",
        "sample": "[vqe]\nencoding = complement\nlayers = 1\nmethod = sample\nshots = 200\nrestarts = 2\n"
                  "[optimizer]\nkind = spsa\nn_iter = 5\n",
        "cone": "[vqe]\nencoding = complement\nlayers = 2\nmethod = cone\nshots = 100\nrestarts = 2\n"
                "[optimizer]\nkind = spsa\nn_iter = 3\n",
        # written while restarts still ran one minimize_batch call after another
        "sv-nm": "[vqe]\nencoding = complement\nlayers = 1\ninitial_layer = true\nmethod = sv\nrestarts = 3\n"
                 "[optimizer]\nkind = nelder-mead\nmax_iter = 40\n",
    }

    @pytest.mark.parametrize("method", list(GOLDEN))
    def test_csv_matches_the_golden_file(self, tmp_path, method):
        cfg = write(tmp_path, "v.ini", PROBLEM_A + self.GOLDEN[method])
        out = tmp_path / "v.csv"
        assert main(["vqe", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        golden = Path(__file__).parent / "golden" / f"vqe-A-{method}-seed3.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_no_restarts_is_an_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "v.ini", self.CONFIG.replace("restarts = 2", "restarts = 0"))
        assert main(["vqe", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 1
        assert capsys.readouterr().err == "error: need restarts >= 1, got 0\n"
        assert not (tmp_path / "v.csv").exists()

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

    def test_manifest_search_block(self, tmp_path):
        cfg = write(tmp_path, "b.ini", PROBLEM_LINE4 + "[heuristic]\nalgorithm = tabu\nrestarts = 7\n")
        out = str(tmp_path / "base.csv")
        assert main(["baseline", "--config", cfg, "--out", out]) == 0
        search = json.loads((tmp_path / "base.csv.manifest.json").read_text())["search"]
        # start/destination encoding of 4 locations and 2 ambulances: 2*4 + 2*4 bits
        assert {k: search[k] for k in ("algorithm", "restarts", "n", "batch_shape")} == {
            "algorithm": "tabu", "restarts": 7, "n": 16, "batch_shape": [7, 16]}
        assert search["oracle_s"] >= 0 and search["search_s"] > 0

    @pytest.mark.parametrize("setting, message", [
        ("algorithm = sas", "unknown baseline algorithm 'sas'; valid algorithms: tabu, sa"),
        ("restarts = 0", "need restarts >= 1, got 0"),
        ("algorithm = tabu\ntenure = -3", "need tenure >= 1, got -3"),
        ("algorithm = tabu\ntenure = 0", "need tenure >= 1, got 0"),
        ("algorithm = sa\nbeta_initial = -1", "need sweeps >= 1 and 0 < beta_initial < beta_final"),
        ("algorithm = tabu\nsweeps = 10", "baseline algorithm 'tabu' does not read key 'sweeps'; "
         "valid keys: algorithm, restarts, tenure, max_iter"),
        ("algorithm = sa\ntenure = 5", "baseline algorithm 'sa' does not read key 'tenure'; "
         "valid keys: algorithm, restarts, sweeps, beta_initial, beta_final"),
        ("algorithm = sa\nmax_iter = 5", "baseline algorithm 'sa' does not read key 'max_iter'; "
         "valid keys: algorithm, restarts, sweeps, beta_initial, beta_final"),
        ("algorithm = tabu\n[run]\nrestarts = 5",
         "unknown config section 'run'; valid sections: problem, encode, qaoa, vqe, optimizer, heuristic, anneal"),
    ])
    def test_bad_input_is_an_error(self, tmp_path, capsys, monkeypatch, setting, message):
        monkeypatch.setattr("quambo.cli.encode_start_dest", None)  # rejected before any work
        cfg = write(tmp_path, "b.ini", PROBLEM_LINE4 + f"[heuristic]\n{setting}\n")
        assert main(["baseline", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "b.csv").exists()

    def test_location_cap_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("quambo.cli.encode_start_dest", None)  # the oracle's cap is checked before encoding
        text = "[problem]\ngeometry = line\ncols = 1200\nambulances = 1\nlambda = 1\n[heuristic]\nalgorithm = tabu\n"
        assert_one_error(tmp_path, capsys, "baseline", text, "1200 locations exceed the enumeration cap 1000")


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

    @pytest.mark.parametrize("reads", [0, -2])
    def test_reads_below_one_is_an_error(self, tmp_path, capsys, monkeypatch, reads):
        monkeypatch.setattr("quambo.anneal.encode_start_dest", None)  # rejected before any work
        cfg = write(
            tmp_path,
            "an.ini",
            f"[problem]\ngeometry = line\ncols = 2\nambulances = 1\nlambda_ratio = 1.0\n[anneal]\nreads = {reads}\n",
        )
        assert main(["anneal", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 1
        assert capsys.readouterr().err == f"error: need reads >= 1, got {reads}\n"
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("geometry, message", [
        # 16^2 start choices times C(32, 16) destination patterns: about 1.5e11 states
        ("grid\nrows = 4\ncols = 4\nambulances = 2", "153876579840 feasible states exceed the feasible sector cap 16777216"),
        # 33 feasible states, but n = 66 qubits: their indices do not fit in int64
        ("line\ncols = 33\nambulances = 1", "n=66 exceeds feasible sector cap 63"),
    ])
    def test_sector_cap_is_checked_before_enumerating(self, tmp_path, capsys, monkeypatch, geometry, message):
        monkeypatch.setattr("quambo.problems.itertools", None)  # refused before any block choice is listed
        assert_one_error(tmp_path, capsys, "anneal", f"[problem]\ngeometry = {geometry}\n[anneal]\nreads = 5\n",
                         message)


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


@pytest.mark.parametrize("command", ["encode", "tts"])
def test_seed_is_refused_by_commands_that_draw_nothing(tmp_path, capsys, command):
    cfg = write(tmp_path, "a.ini", PROBLEM_A + "[encode]\nencoding = complement\n")
    args = {"encode": ["--config", cfg], "tts": ["--p-sol", "0.5", "--t-cycle", "100"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "3"])
    assert exc.value.code == 2 and "unrecognized arguments: --seed 3" in capsys.readouterr().err


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


# Per golden file: the command and its config, run at seed 3.  No study evaluates a 2^16-amplitude
# state, so no long dot product makes the bytes depend on the BLAS thread count.
NELDER_MEAD_40 = "[optimizer]\nkind = nelder-mead\nmax_iter = 40\n"
STUDY_GOLDEN = {
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


@pytest.mark.parametrize("name", list(STUDY_GOLDEN))
def test_study_csv_matches_the_golden_file(tmp_path, name):
    command, text = STUDY_GOLDEN[name]
    out = tmp_path / "s.csv"
    assert main([command, "--config", write(tmp_path, "s.ini", text), "--seed", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / f"{name}-seed3.csv").read_bytes()


# Per command: a config without a section the command needs, and the section(s) the error names.
MISSING_SECTION = {
    "oracle": ("[qaoa]\np = 1\n", "[problem]"),
    "qaoa": (PROBLEM_A, "[qaoa]"),
    "vqe": (PROBLEM_A + "[qaoa]\np = 1\n", "[vqe]"),
    "baseline": (PROBLEM_A, "[heuristic]"),
    "anneal": (PROBLEM_A, "[anneal]"),
    "encode": (PROBLEM_A + "[vqe]\nlayers = 1\n", "[encode]"),
}


@pytest.mark.parametrize("command", list(MISSING_SECTION))
def test_missing_section_names_the_section_and_the_command(tmp_path, capsys, command):
    text, section = MISSING_SECTION[command]
    assert_one_error(tmp_path, capsys, command, text, f"quambo {command} needs a {section} section")


# Per case: the command, a config whose text does not convert, and what the one error line ends with.
BAD_TEXT = {
    "cols": ("oracle", PROBLEM_A.replace("cols = 5", "cols = 2.5"), "'2.5' (in [problem] cols = 2.5)"),
    "p": ("qaoa", PROBLEM_A + "[qaoa]\np = 1.5\n", "'1.5' (in [qaoa] p = 1.5)"),
    "lambda_ratios": ("anneal", PROBLEM_A + "[anneal]\nlambda_ratios = 1.0,\n",
                      "could not convert string to float: '' (in [anneal] lambda_ratios = 1.0,)"),
}


@pytest.mark.parametrize("case", list(BAD_TEXT))
def test_conversion_error_names_the_section_key_and_text(tmp_path, capsys, case):
    command, text, ending = BAD_TEXT[case]
    cfg = write(tmp_path, "c.ini", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{ending}\n") and err.count("\n") == 1
    assert not (tmp_path / "c.csv").exists()


def test_no_section_header_is_one_error_line(tmp_path, capsys):
    cfg = write(tmp_path, "c.ini", "p = 1\n")
    assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: File contains no section headers.") and err.count("\n") == 1
    assert "line: 1" in err and not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("command", ["qaoa", "vqe"])
def test_state_cap_is_checked_before_allocating(tmp_path, capsys, command):
    tracemalloc.start()
    try:
        assert_one_error(tmp_path, capsys, command, PROBLEM_N26 + f"[{command}]\nrestarts = 1\n",
                         "n=26 exceeds statevector cap 24")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported only when the quasi-Newton optimizer runs
    src = str(Path(quambo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, quambo.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
