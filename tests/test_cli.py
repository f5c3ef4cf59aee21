import json
import math
import shutil
import subprocess

import pytest

from pesinlab.cli import main

LN2 = math.log(2.0)
CAT_SIGMA = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- lyapunov ---------------------------------------------------------------

def test_lyapunov_cat(tmp_path, capsys):
    code, out, _ = run_cli(["lyapunov", "--map", "cat", "--steps", "10000",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "lyapunov.json").read_text())
    assert abs(doc["spectrum"]["exponents"][0] - CAT_SIGMA) < 1e-6
    assert abs(doc["field_positive_sum"] - CAT_SIGMA) < 1e-6
    assert (tmp_path / "lyapunov.csv").exists()
    assert "0.962424" in out


def test_lyapunov_identity(tmp_path, capsys):
    code, _, _ = run_cli(["lyapunov", "--map", "identity", "--steps", "200",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "lyapunov.json").read_text())
    assert doc["spectrum"]["exponents"] == [0.0, 0.0]


def test_lyapunov_requires_map(tmp_path, capsys):
    code, _, err = run_cli(["lyapunov", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "--map is required" in err


def test_lyapunov_x0_flag(tmp_path, capsys):
    code, _, _ = run_cli(["lyapunov", "--map", "cat", "--steps", "500",
                          "--x0", "0.1,0.2", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "lyapunov.json").read_text())
    assert doc["config"]["x0"] == [0.1, 0.2]
    assert doc["spectrum"]["x0"] == [0.1, 0.2]


def test_lyapunov_bad_x0(tmp_path, capsys):
    code, _, err = run_cli(["lyapunov", "--map", "cat", "--x0", "nonsense",
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "x0" in err


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == 2


# --- ks-entropy -------------------------------------------------------------

def test_ks_entropy_baker_exact(tmp_path, capsys):
    code, out, _ = run_cli(["ks-entropy", "--map", "baker", "--grid", "2x1",
                            "--depth", "12", "--mode", "exact",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "ks_entropy.json").read_text())
    assert doc["h_mu"] == LN2
    assert len(doc["records"]) == 13
    assert doc["records"][12]["R_n"] == 2 ** 13
    assert "h_mu slope 0.693147" in out


def test_ks_entropy_identity_zero(tmp_path, capsys):
    code, _, _ = run_cli(["ks-entropy", "--map", "identity", "--grid", "4x4",
                          "--depth", "8", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "ks_entropy.json").read_text())
    assert abs(doc["h_mu"]) < 1e-9


def test_ks_entropy_cat_grid_default(tmp_path, capsys):
    code, _, _ = run_cli(["ks-entropy", "--map", "cat", "--depth", "4",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "ks_entropy.json").read_text())
    assert doc["config"]["grid"] == [8, 8]


def test_ks_entropy_include_words(tmp_path, capsys):
    code, _, _ = run_cli(["ks-entropy", "--map", "baker", "--grid", "2x1",
                          "--depth", "4", "--include-words",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "ks_entropy.json").read_text())
    words = doc["records"][0]["word_measures"]
    assert words["0"]["value"] == 0.5


def test_ks_entropy_ladder(tmp_path, capsys):
    code, out, _ = run_cli(["ks-entropy", "--map", "baker",
                            "--ladder", "2x1,2x2", "--depth", "8",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "ks_entropy.json").read_text())
    assert len(doc["profile"]) == 2
    assert abs(doc["h_ks"] - LN2) < 0.02 * LN2
    assert "h_KS (max over ladder)" in out
    csv = (tmp_path / "ks_entropy.csv").read_text().splitlines()
    assert csv[0] == "grid,n,R_n,entropy"
    assert csv[1].startswith("2x1,0,")


def test_ks_entropy_bad_grid(tmp_path, capsys):
    code, _, err = run_cli(["ks-entropy", "--map", "baker", "--grid", "2by1",
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "grid" in err


# --- pesin ------------------------------------------------------------------

def test_pesin_baker_defaults(tmp_path, capsys):
    code, out, _ = run_cli(["pesin", "--map", "baker",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "pesin.json").read_text())
    assert abs(doc["report"]["relative_residual"]) < 0.02
    assert doc["config"]["grid"] == [2, 1]
    assert "residual (entropy minus exponent sum)" in out


def test_pesin_identity_both_sides_zero(tmp_path, capsys):
    code, _, _ = run_cli(["pesin", "--map", "identity", "--depth", "8",
                          "--lyap-steps", "500", "--out", str(tmp_path)],
                         capsys)
    assert code == 0
    doc = json.loads((tmp_path / "pesin.json").read_text())
    assert abs(doc["report"]["h_ks_estimate"]) < 1e-9
    assert abs(doc["report"]["lyapunov_positive_sum"]) < 1e-9


# --- prescription -----------------------------------------------------------

def test_prescription_identity_not_proven(tmp_path, capsys):
    code, out, err = run_cli(["prescription", "--source", "classical",
                              "--map", "identity", "--depth", "10",
                              "--out", str(tmp_path)], capsys)
    assert code == 0  # a negative verdict is still a completed run
    assert "NOT PROVEN CHAOTIC" in out
    assert "CHAOTIC (sufficient" not in out
    assert "depth 0/10" in err  # per-depth progress goes to stderr


def test_prescription_baker_chaotic(tmp_path, capsys):
    code, out, _ = run_cli(["prescription", "--source", "classical",
                            "--map", "baker", "--grid", "2x1",
                            "--depth", "12", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "CHAOTIC (sufficient condition met)" in out
    doc = json.loads((tmp_path / "prescription.json").read_text())
    assert abs(doc["decay"]["fit_rate"] + LN2) < 0.02 * LN2
    assert doc["chaotic"] is True
    assert (tmp_path / "prescription_plot.py").exists()


def test_prescription_gamow_chaotic(tmp_path, capsys):
    code, out, _ = run_cli(["prescription", "--source", "gamow",
                            "--seed", "7", "--depth", "80",
                            "--word-budget", "512",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "CHAOTIC (sufficient condition met)" in out
    doc = json.loads((tmp_path / "prescription.json").read_text())
    assert doc["passing_fraction"] == 1.0
    b = doc["bounds"]
    assert b["ln_delta1"] <= doc["decay"]["fit_rate"] <= b["ln_delta2"]
    assert doc["config"]["seed"] == 7


def test_prescription_requires_source(tmp_path, capsys):
    code, _, err = run_cli(["prescription", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "source" in err


def test_prescription_json_only_skips_plot_script(tmp_path, capsys):
    code, _, _ = run_cli(["prescription", "--source", "classical",
                          "--map", "baker", "--grid", "2x1", "--depth", "10",
                          "--format", "json", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "prescription.json").exists()
    assert not (tmp_path / "prescription.csv").exists()
    assert not (tmp_path / "prescription_plot.py").exists()


def test_prescription_late_onset_is_run_failure(tmp_path, capsys):
    code, _, err = run_cli(["prescription", "--source", "classical",
                            "--map", "baker", "--grid", "2x1",
                            "--depth", "12", "--onset", "11",
                            "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "run failed" in err


# --- gamow-evolve -----------------------------------------------------------

def test_gamow_evolve_defaults(tmp_path, capsys):
    code, out, _ = run_cli(["gamow-evolve", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "gamow_evolve.json").read_text())
    assert doc["t_r"] == 10.0
    assert doc["j"] == 10
    assert doc["operator"]["dim"] == 32
    assert 0.0 < doc["off_mass_ratio"] < 0.01
    assert "relaxation time 10" in out


def test_gamow_evolve_long_time_diagonalizes(tmp_path, capsys):
    code, _, _ = run_cli(["gamow-evolve", "--j", "200",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "gamow_evolve.json").read_text())
    assert doc["off_mass_ratio"] < 1e-6


def test_gamow_evolve_prescribed_tables(tmp_path, capsys):
    re_part = [[0.0] * 4 for _ in range(4)]
    re_part[0][0] = 0.6
    other = [[0.0] * 4 for _ in range(4)]
    other[0][0] = 0.3
    cfg = {"n_max": 4, "cells": 2, "generation": "prescribed", "j": 0,
           "tables": [{"re": re_part}, {"re": other}],
           "labels": ["left", "right"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["gamow-evolve", "--config", str(cfg_path),
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "gamow_evolve.json").read_text())
    assert doc["operator"]["label"] == "left"
    assert doc["operator"]["re"][0][0] == 0.6


def test_gamow_evolve_cell_out_of_range(tmp_path, capsys):
    code, _, err = run_cli(["gamow-evolve", "--cell", "9",
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "cell" in err


# --- configuration errors exit 2 before the run -----------------------------

@pytest.mark.parametrize("argv,key", [
    (["gamow-evolve", "--support", "64"], "support"),
    (["gamow-evolve", "--total-mass", "1.5"], "total_mass"),
    (["gamow-evolve", "--spread", "1.0"], "spread"),
    (["prescription", "--source", "gamow", "--depth", "8",
      "--support", "64"], "support"),
    (["prescription", "--source", "gamow", "--depth", "8",
      "--total-mass", "1.5"], "total_mass"),
    (["prescription", "--source", "gamow", "--depth", "8",
      "--spread", "1.0"], "spread"),
    (["ks-entropy", "--map", "baker", "--ladder", "2x2,2x1",
      "--depth", "4"], "ladder"),
    (["pesin", "--map", "baker", "--ladder", "2x2,2x1", "--depth", "4",
      "--lyap-steps", "200"], "ladder"),
    # checked up front even though exact mode never uses it
    (["ks-entropy", "--map", "baker", "--depth", "4", "--mc-samples", "0"],
     "mc_samples"),
])
def test_bad_value_is_configuration_error(tmp_path, capsys, argv, key):
    code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert key in err
    assert not list(tmp_path.glob("*.json"))


# --- echoed configuration ---------------------------------------------------

@pytest.mark.parametrize("argv,stem,config", [
    (["lyapunov", "--map", "cat", "--steps", "200", "--samples", "2",
      "--x0", "0.25,0.5"], "lyapunov",
     {"map": "cat", "samples": 2, "seed": 0, "steps": 200, "x0": [0.25, 0.5]}),
    (["ks-entropy", "--map", "baker", "--depth", "4"], "ks_entropy",
     {"depth": 4, "estimator": "chao_shen", "grid": [2, 1],
      "include_words": False, "ladder": None, "map": "baker",
      "mc_samples": 1000000, "mode": "exact", "seed": 0}),
    (["pesin", "--map", "baker", "--depth", "4", "--lyap-steps", "200",
      "--samples", "2"], "pesin",
     {"depth": 4, "estimator": "chao_shen", "grid": [2, 1],
      "include_words": None, "ladder": None, "lyap_steps": 200,
      "map": "baker", "mc_samples": 1000000, "mode": "exact", "samples": 2,
      "seed": 0}),
    (["prescription", "--source", "classical", "--map", "baker",
      "--depth", "8"], "prescription",
     {"depth": 8, "estimator": "chao_shen", "grid": [2, 1], "map": "baker",
      "mc_samples": 1000000, "mode": "exact", "onset": None,
      "r2_threshold": 0.99, "seed": 0, "source": "classical",
      "word_budget": 4096}),
    (["prescription", "--source", "gamow", "--depth", "8", "--n-max", "4",
      "--word-budget", "16"], "prescription",
     {"alpha": 1.0, "cells": 4, "depth": 8, "gamma0": 0.1, "hbar": 1.0,
      "n_max": 4, "off_scale": 0.0003, "omega0": 1.0, "onset": None,
      "r2_threshold": 0.99, "seed": 0, "source": "gamow", "spread": 0.2,
      "support": None, "total_mass": 0.95, "word_budget": 16}),
    (["gamow-evolve", "--n-max", "4", "--j", "1"], "gamow_evolve",
     {"alpha": 1.0, "cell": 0, "cells": 4, "gamma0": 0.1,
      "generation": "random", "hbar": 1.0, "j": 1, "n_max": 4,
      "off_scale": 0.0003, "omega0": 1.0, "seed": 0, "spread": 0.2,
      "support": None, "total_mass": 0.95}),
])
def test_config_echo_is_pinned(tmp_path, capsys, argv, stem, config):
    code, _, _ = run_cli(argv + ["--format", "json", "--out", str(tmp_path)],
                         capsys)
    assert code == 0
    doc = json.loads((tmp_path / f"{stem}.json").read_text())
    assert list(doc["config"]) == sorted(config)
    assert doc["config"] == config


# --- config file, env, precedence -------------------------------------------

def test_flag_overrides_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": "identity", "steps": 200}))
    code, _, _ = run_cli(["lyapunov", "--config", str(cfg_path),
                          "--steps", "500", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "lyapunov.json").read_text())
    assert doc["config"]["steps"] == 500
    assert doc["config"]["map"] == "identity"
    assert doc["spectrum"]["n_iterations"] == 500


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": "identity", "speed": 11}))
    code, _, err = run_cli(["lyapunov", "--config", str(cfg_path),
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "speed" in err


def test_malformed_config_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    code, _, err = run_cli(["lyapunov", "--config", str(cfg_path),
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "not valid JSON" in err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PESINLAB_SEED", "33")
    code, _, _ = run_cli(["lyapunov", "--map", "cat", "--steps", "200",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "lyapunov.json").read_text())
    assert doc["config"]["seed"] == 33


def test_flag_seed_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PESINLAB_SEED", "33")
    code, _, _ = run_cli(["lyapunov", "--map", "cat", "--steps", "200",
                          "--seed", "4", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "lyapunov.json").read_text())
    assert doc["config"]["seed"] == 4


def test_bad_env_seed_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PESINLAB_SEED", "many")
    code, _, err = run_cli(["lyapunov", "--map", "cat", "--steps", "200",
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "PESINLAB_SEED" in err


# --- reproducibility --------------------------------------------------------

def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_ks_entropy_rerun_is_byte_identical(tmp_path, capsys):
    args = ["ks-entropy", "--map", "cat", "--grid", "4x4", "--depth", "6",
            "--mode", "mc", "--mc-samples", "20000", "--seed", "3"]
    for d in ("a", "b"):
        assert run_cli(args + ["--out", str(tmp_path / d)], capsys)[0] == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_prescription_rerun_is_byte_identical(tmp_path, capsys):
    args = ["prescription", "--source", "gamow", "--seed", "5",
            "--depth", "40", "--word-budget", "64"]
    for d in ("a", "b"):
        assert run_cli(args + ["--out", str(tmp_path / d)], capsys)[0] == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_console_script_installed(tmp_path):
    exe = shutil.which("pesinlab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "lyapunov", "--map", "identity",
                           "--steps", "200", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "lyapunov.json").exists()
