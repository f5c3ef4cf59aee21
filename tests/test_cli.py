import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pesinlab import GridPartition, PhasePoint, cli, limits, \
    lyapunov_spectrum, make_map, pipeline
from pesinlab.cli import main

LN2 = math.log(2.0)
CAT_SIGMA = math.log((3.0 + math.sqrt(5.0)) / 2.0)
CAT_SIGMA_500 = lyapunov_spectrum(make_map("cat"), PhasePoint(0.0, 0.0),
                                  500).positive_sum


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
    assert list(doc) == ["command", "config", "spectrum"]
    csv = (tmp_path / "lyapunov.csv").read_text().splitlines()
    assert csv[0] == "sigma1,sigma2,positive_sum"
    assert "sum of positive exponents 0.962424\n" in out


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
    # the exponents do not depend on the start, so there is no --x0: the
    # recorded start is the seed's first draw
    code, _, _ = run_cli(["lyapunov", "--map", "cat", "--steps", "500",
                          "--seed", "5", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "lyapunov.json").read_text())
    assert doc["spectrum"]["x0"] == np.random.default_rng(5).random(2).tolist()
    assert "x0" not in doc["config"]
    with pytest.raises(SystemExit) as exit_info:
        main(["lyapunov", "--map", "cat", "--x0", "0.1,0.2",
              "--out", str(tmp_path)])
    assert exit_info.value.code == 2


def test_lyapunov_bad_x0(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": "cat", "x0": [0.1, 0.2]}))
    code, _, err = run_cli(["lyapunov", "--config", str(cfg_path),
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "unknown config keys: x0" in err


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
    deepest = doc["records"][-1]["word_measures"]
    assert set(deepest) == {",".join(w) for w in itertools.product("01", repeat=5)}
    for est in deepest.values():
        assert est == {"value": 2.0 ** -5, "stderr": 0.0}


def test_ks_entropy_include_words_mc(tmp_path, capsys):
    n_samples, depth = 2000, 4
    code, _, _ = run_cli(["ks-entropy", "--map", "cat", "--grid", "2x2",
                          "--mode", "mc", "--depth", str(depth),
                          "--mc-samples", str(n_samples), "--seed", "3",
                          "--include-words", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "ks_entropy.json").read_text())
    # the same sample cloud, followed and counted word by word
    part, cat = GridPartition(2, 2), make_map("cat")
    pts = np.random.default_rng(3).random((n_samples, 2))
    symbols = [part.cell_index_batch(pts)]
    for _ in range(depth):
        pts = cat.step_batch(pts)
        symbols.append(part.cell_index_batch(pts))
    words, counts = np.unique(np.stack(symbols, axis=1), axis=0,
                              return_counts=True)
    expected = {",".join(map(str, w)): c / n_samples
                for w, c in zip(words.tolist(), counts.tolist())}
    deepest = doc["records"][-1]["word_measures"]
    assert {k: est["value"] for k, est in deepest.items()} == expected
    for est in deepest.values():
        v = est["value"]
        assert est["stderr"] == math.sqrt(v * (1.0 - v) / n_samples)


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


@pytest.mark.parametrize("argv,words", [
    (["ks-entropy", "--map", "baker", "--include-words"], True),
    (["ks-entropy", "--map", "baker"], False),
    (["ks-entropy", "--map", "baker", "--ladder", "2x1,2x2"], False),
    (["pesin", "--map", "baker", "--lyap-steps", "100"], False),
    (["pesin", "--map", "baker", "--ladder", "2x1,2x2",
      "--lyap-steps", "100"], False)])
def test_entropy_commands_keep_word_arrays_only_for_include_words(
        tmp_path, capsys, monkeypatch, argv, words):
    # only --include-words reads a record's codes and measures; every other
    # entropy command reads R_n and H, so its records are summaries
    kept = []
    hks_estimate = cli.hks_estimate

    def spy(*args):
        est = hks_estimate(*args)
        kept.extend(r.codes is not None for recs in est.records for r in recs)
        return est

    monkeypatch.setattr(cli, "hks_estimate", spy)
    code, _, err = run_cli(argv + ["--depth", "4", "--out", str(tmp_path)],
                           capsys)
    assert code == 0, err
    assert kept and set(kept) == {words}


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


def test_pesin_lyapunov_block(tmp_path, capsys):
    code, _, _ = run_cli(["pesin", "--map", "cat", "--depth", "4",
                          "--lyap-steps", "500", "--format", "json",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "pesin.json").read_text())
    assert doc["lyapunov"] == {"positive_sum": CAT_SIGMA_500, "steps": 500}
    assert doc["report"]["lyapunov_positive_sum"] == CAT_SIGMA_500


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


@pytest.mark.parametrize("argv", [
    ["--source", "classical", "--map", "baker", "--grid", "2x1",
     "--depth", "12", "--onset", "10"],
    ["--source", "gamow", "--depth", "10", "--onset", "8",
     "--word-budget", "16"],
])
def test_prescription_late_onset_is_refused_up_front(tmp_path, capsys, argv):
    # the fits need 4 points at or beyond the onset, so onset <= depth - 3
    code, _, err = run_cli(["prescription", *argv, "--out", str(tmp_path)],
                           capsys)
    assert code == 2
    assert "onset must be at most" in err
    assert "depth 0/" not in err
    assert not list(tmp_path.glob("*.json"))


def test_prescription_last_fittable_onset_runs(tmp_path, capsys):
    code, _, _ = run_cli(["prescription", "--source", "gamow", "--depth", "10",
                          "--onset", "7", "--word-budget", "16", "--n-max", "8",
                          "--format", "json", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "prescription.json").read_text())
    assert doc["decay"]["onset"] == 7


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


def test_gamow_evolve_streams_its_output(tmp_path, capsys):
    # 175 bytes a coefficient by tracemalloc, the operators and the JSON
    # document's lists included; 760 with a row list of the whole CSV and
    # the whole JSON text in one string
    n_max = 150
    tracemalloc.start()
    try:
        code, _, _ = run_cli(["gamow-evolve", "--n-max", str(n_max),
                              "--cells", "2", "--format", "both",
                              "--out", str(tmp_path)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 300 * n_max ** 2
    rows = (tmp_path / "gamow_evolve.csv").read_text().splitlines()
    assert len(rows) == 1 + n_max ** 2
    doc = json.loads((tmp_path / "gamow_evolve.json").read_text())
    assert float(rows[-1].split(",")[2]) == doc["operator"]["re"][-1][-1]


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
    # only one --grid embeds word measures
    (["ks-entropy", "--map", "baker", "--ladder", "2x1,2x2", "--depth", "4",
      "--include-words"], "include-words"),
    # orbits past limits.MAX_LYAP_STEPS would run for minutes
    (["lyapunov", "--map", "cat", "--steps", "1000000000"], "steps"),
    (["pesin", "--map", "baker", "--depth", "4", "--lyap-steps", "10000001"],
     "lyap_steps"),
])
def test_bad_value_is_configuration_error(tmp_path, capsys, argv, key):
    code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert key in err
    assert not list(tmp_path.glob("*.json"))


def _table(lead, n=2):
    return {"re": [[lead if r == s == 0 else 0.0 for s in range(n)]
                   for r in range(n)]}


_PRESCRIBED = {"generation": "prescribed", "n_max": 2, "cells": 2}


@pytest.mark.parametrize("argv,cfg,cause", [
    # prescription always draws random cells, so it takes no tables
    (["prescription", "--source", "gamow", "--depth", "8"],
     {"n_max": 2, "cells": 2, "tables": [_table(0.5), _table(0.25)]},
     "unknown config keys: tables"),
    (["gamow-evolve"], dict(_PRESCRIBED, tables=[_table(0.5)]),
     "expected 2 tables"),
    (["gamow-evolve"],
     dict(_PRESCRIBED, tables=[_table(0.5), _table(0.25, n=3)]),
     "table shape"),
    (["gamow-evolve"], dict(_PRESCRIBED, tables=[_table(0.5), _table(1.5)]),
     "leading coefficient"),
    (["gamow-evolve"], dict(_PRESCRIBED, tables=[_table(0.6), _table(0.6)]),
     "sum to 1.2"),
    (["gamow-evolve"],
     dict(_PRESCRIBED, tables=[_table(0.5), {"re": [["x", 0], [0, 0.1]]}]),
     "tables[1]"),
    (["gamow-evolve", "--cell", "1"],
     dict(_PRESCRIBED, tables=[_table(0.5), _table(0.25)], labels=["left"]),
     "labels must be a list of 2 names"),
    (["gamow-evolve"],
     dict(_PRESCRIBED, tables=[_table(0.5), _table(0.25)], labels=5),
     "labels must be a list of 2 names"),
    # keys no output depends on are not accepted
    (["lyapunov"], {"map": "cat", "samples": 2}, "unknown config keys: samples"),
    (["pesin"], {"map": "baker", "samples": 2}, "unknown config keys: samples"),
    (["pesin"], {"map": "baker", "include_words": True},
     "unknown config keys: include_words"),
    # values are refused, not truncated or coerced
    (["ks-entropy", "--map", "baker"], {"depth": 7.9},
     "depth must be an integer, got 7.9"),
    (["prescription", "--source", "gamow", "--depth", "8"],
     {"word_budget": 16.5}, "word_budget must be an integer, got 16.5"),
    (["lyapunov", "--map", "cat"], {"seed": True},
     "seed must be an integer, got True"),
    (["gamow-evolve"], {"hbar": True}, "hbar must be a number, got True"),
    (["ks-entropy", "--map", "baker", "--depth", "4"],
     {"include_words": "false"}, "include_words must be true or false"),
    # random cells take no tables or labels
    (["gamow-evolve", "--n-max", "2", "--cells", "2"],
     {"tables": [_table(0.5), _table(0.25)], "labels": ["a", "b"]},
     "tables needs generation=prescribed"),
    (["gamow-evolve", "--n-max", "2", "--cells", "2"], {"labels": ["a", "b"]},
     "labels needs generation=prescribed"),
])
def test_bad_config_file_is_configuration_error(tmp_path, capsys, argv, cfg,
                                                cause):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(argv + ["--config", str(cfg_path),
                                   "--out", str(tmp_path)], capsys)
    assert code == 2
    assert cause in err
    assert [p.name for p in tmp_path.glob("*.json")] == ["cfg.json"]


def test_integral_config_numbers_and_strings_convert(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"depth": 4.0, "seed": "3",
                                    "include_words": False}))
    code, _, _ = run_cli(["ks-entropy", "--map", "baker", "--config",
                          str(cfg_path), "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "ks_entropy.json").read_text())
    assert len(doc["records"]) == 5
    assert doc["config"]["seed"] == 3
    assert "word_measures" not in doc["records"][0]


def _run_module(args, timeout):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "pesinlab.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("command", [
    ["ks-entropy", "--map", "cat"],
    ["pesin", "--map", "cat", "--lyap-steps", "200"],
])
def test_default_exact_cat_is_refused_up_front(tmp_path, command):
    # exact 8x8 at depth 12 would need about 10^9 words; a fresh interpreter
    # with a timeout keeps a regression from hanging the suite
    proc = _run_module([*command, "--depth", "12", "--out", str(tmp_path)], 60)
    assert proc.returncode == 2
    assert "--mode mc" in proc.stderr and "--depth" in proc.stderr
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("command,stem", [
    (["ks-entropy", "--map", "cat"], "ks_entropy"),
    (["prescription", "--source", "classical", "--map", "cat"], "prescription"),
])
def test_bare_exact_cat_default_runs_at_depth_7(tmp_path, command, stem):
    proc = _run_module([*command, "--format", "json", "--out", str(tmp_path)],
                       120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / f"{stem}.json").read_text())
    assert doc["config"]["depth"] == 7
    assert doc["config"]["grid"] == [8, 8]


def test_quantum_underflow_is_refused_before_the_chains(tmp_path):
    # with the default cells, magnitudes of 16 sampled words read 0 from
    # depth 519, and a word of smallest leads only stays normal to depth
    # 458; the run must stop before any chain product
    proc = _run_module(["prescription", "--source", "gamow", "--depth", "600",
                        "--word-budget", "16", "--out", str(tmp_path)], 60)
    assert proc.returncode == 2
    assert "--depth 600 underflows" in proc.stderr
    assert "depth 0/600" not in proc.stderr
    assert not list(tmp_path.glob("*.json"))
    safe = re.search(r"--depth (\d+) is the largest", proc.stderr)
    assert 400 < int(safe.group(1)) < 600
    proc = _run_module(["prescription", "--source", "gamow", "--depth",
                        safe.group(1), "--word-budget", "16", "--format",
                        "json", "--out", str(tmp_path)], 60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mass", ["1.0", "0.9999"])
def test_quantum_cells_summing_above_one_fail_at_the_first_depth(tmp_path, mass):
    # |trace| adds the small diagonal entries to the (0,0) lead, so these
    # cell measures sum above 1 already at depth 0; the run stops at that
    # depth's check, which follows the chain products, instead of failing
    # in the entropy step
    proc = _run_module(["prescription", "--source", "gamow", "--cells", "4",
                        "--depth", "7", "--n-max", "8", "--total-mass", mass,
                        "--out", str(tmp_path)], 60)
    assert proc.returncode == 2, proc.stderr
    assert "depth 0 sum to" in proc.stderr and "--total-mass" in proc.stderr
    assert "depth 1/7" not in proc.stderr
    assert not list(tmp_path.glob("*.json"))


def test_quantum_word_budget_past_the_memory_cap_is_refused(tmp_path):
    # 8 million sampled words of 12 symbols need 2.5 GiB for their symbols,
    # magnitudes and fits (limits.quantum_run_bytes); the run must stop
    # before building the words
    need = limits.quantum_run_bytes(8_000_000, 11, 4, 32)
    assert need > limits.BYTES_CAP
    proc = _run_module(["prescription", "--source", "gamow", "--cells", "4",
                        "--depth", "11", "--word-budget", "8000000",
                        "--out", str(tmp_path)], 60)
    assert proc.returncode == 2, proc.stderr
    assert "--word-budget" in proc.stderr and "--n-max" in proc.stderr
    assert "depth 0/11" not in proc.stderr
    assert not list(tmp_path.glob("*.json"))


def test_quantum_words_past_the_old_product_buffer_pass_the_memory_cap(
        tmp_path, capsys, monkeypatch):
    # 4^10 exhaustive words of depth 9 once needed a 16 GiB buffer, one
    # 32x32 product per word, and exited 2; the blocked kernel's products
    # do not grow with the words, so the run now reaches the chain kernel
    class KernelReached(Exception):
        pass

    def kernel(spec, ops, words, **kwargs):
        assert words.shape == (4 ** 10, 10)
        raise KernelReached

    monkeypatch.setattr(pipeline, "chain_traces", kernel)
    code, _, err = run_cli(["prescription", "--source", "gamow", "--cells",
                            "4", "--depth", "9", "--word-budget", "2000000",
                            "--out", str(tmp_path)], capsys)
    assert code == 1 and "KernelReached" in err, err
    assert not list(tmp_path.glob("*.json"))


def _forbid_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("cell operators were drawn")

    monkeypatch.setattr(cli, "make_cell_operators", no_draw)


@pytest.mark.parametrize("argv", [
    ["gamow-evolve", "--n-max", "20000"],
    ["prescription", "--source", "gamow", "--cells", "100000", "--depth", "10"],
])
def test_oversized_cell_operators_are_refused_up_front(tmp_path, capsys,
                                                      monkeypatch, argv):
    # both used to die with MemoryError; the refusal must come before any
    # operator is drawn, so without it this test fails without allocating
    _forbid_draw(monkeypatch)
    code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2, err
    assert "GiB" in err and "--cells" in err and "--n-max" in err
    assert not list(tmp_path.glob("*.json"))


def test_longest_lyapunov_orbit_is_accepted(tmp_path, capsys, monkeypatch):
    # limits.MAX_LYAP_STEPS itself runs; the spectrum is stubbed to a short
    # orbit
    asked = []

    def short_spectrum(torus_map, x0, steps):
        asked.append(steps)
        return lyapunov_spectrum(torus_map, x0, 200)

    monkeypatch.setattr(cli, "lyapunov_spectrum", short_spectrum)
    code, _, err = run_cli(["lyapunov", "--map", "cat", "--steps",
                            str(limits.MAX_LYAP_STEPS), "--out",
                            str(tmp_path)],
                           capsys)
    assert code == 0, err
    assert asked == [limits.MAX_LYAP_STEPS]


def test_non_finite_quantum_magnitudes_fail_without_json(tmp_path, capsys,
                                                        monkeypatch):
    # omega0 = 1e308 overflows the eigenvalues, so every trace from depth 1
    # on is NaN; with the up-front phase check off, the run must still fail
    # naming it, not write NaN into the JSON
    monkeypatch.setattr(limits, "check_phases", lambda *args: None)
    code, _, err = run_cli(["prescription", "--source", "gamow", "--omega0",
                            "1e308", "--depth", "10", "--word-budget", "16",
                            "--out", str(tmp_path)], capsys)
    assert code == 1, err
    assert re.search(r"magnitude at n=\d+ is nan; decay fits need finite", err)
    assert not (tmp_path / "prescription.json").exists()
    # the report stops at the first depth whose measures are not finite
    assert "depth 2/10" not in err


@pytest.mark.parametrize("argv,step_flag", [
    (["prescription", "--source", "gamow", "--omega0", "1e308", "--depth",
      "10", "--word-budget", "16"], "--depth"),
    (["gamow-evolve", "--omega0", "1e308"], "--j"),
])
def test_overflowing_gamow_phases_are_refused_up_front(tmp_path, capsys,
                                                       monkeypatch, argv,
                                                       step_flag):
    # prescription used to exit 1 on a NaN magnitude at depth 1, and
    # gamow-evolve on NaN in its JSON; both must stop before any draw
    _forbid_draw(monkeypatch)
    code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2, err
    assert "overflow" in err and "--omega0" in err and step_flag in err
    assert not list(tmp_path.glob("*.json"))


def test_gamow_evolve_without_steps_takes_no_phases(tmp_path, capsys):
    # j = 0 evolves nothing, so a huge omega0 computes no phase at all
    code, _, err = run_cli(["gamow-evolve", "--omega0", "1e308", "--j", "0",
                            "--n-max", "4", "--out", str(tmp_path)], capsys)
    assert code == 0, err


def test_quantum_operators_and_chains_share_one_memory_cap(tmp_path, capsys,
                                                          monkeypatch):
    # 4000 operators of 32x32 with chain_traces' copies and links, its block
    # and the random draw need 0.99 GiB, and 4 million words of depth 10
    # 1.18 GiB; each fits the 2 GiB cap alone, and the run would hold both
    no_words = limits.quantum_run_bytes(0, 10, 4000, 32)
    ops = (4001 * 16 + limits.DRAW_ENTRY_BYTES) * 32 ** 2 + no_words
    chains = limits.quantum_run_bytes(4_000_000, 10, 4000, 32) - no_words
    assert max(ops, chains) < limits.BYTES_CAP < ops + chains

    _forbid_draw(monkeypatch)
    code, _, err = run_cli(["prescription", "--source", "gamow", "--cells",
                            "4000", "--depth", "10", "--word-budget",
                            "4000000", "--out", str(tmp_path)], capsys)
    assert code == 2, err
    for flag in ("--word-budget", "--cells", "--n-max"):
        assert flag in err
    assert "GiB" in err and "depth 0/" not in err
    assert not list(tmp_path.glob("*.json"))


def _assert_deep_run_refused(tmp_path, argv):
    proc = _run_module(argv + ["--out", str(tmp_path)], 60)
    assert proc.returncode == 2, proc.stderr
    assert "GiB" in proc.stderr and "--depth" in proc.stderr
    assert "depth 0/" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_deep_identity_exact_refinement_is_refused_up_front(tmp_path):
    # identity's word count never grows, so the word-cap projection never
    # fires; each depth's record still costs limits.RECORD_BYTES, and ten
    # million of them would take about 25 GB and two hours
    _assert_deep_run_refused(tmp_path, [
        "ks-entropy", "--map", "identity", "--mode", "exact", "--depth",
        "10000000"])


def test_deep_single_sample_mc_refinement_is_refused_up_front(tmp_path):
    # one sample's cloud is nothing, but ten million depth records are not
    _assert_deep_run_refused(tmp_path, [
        "ks-entropy", "--map", "baker", "--mode", "mc", "--mc-samples", "1",
        "--depth", "10000000"])


@pytest.mark.parametrize("command", [
    ["ks-entropy", "--map", "cat"],
    ["pesin", "--map", "cat", "--ladder", "2x2,4x4", "--lyap-steps", "200"],
])
def test_oversized_mc_cloud_is_refused_up_front(tmp_path, command):
    # 10^12 samples cannot be allocated at all; the run must name the two
    # flags that size it and stop before drawing the cloud
    proc = _run_module([*command, "--mode", "mc", "--mc-samples",
                        str(10 ** 12), "--out", str(tmp_path)], 60)
    assert proc.returncode == 2, proc.stderr
    assert "--mc-samples" in proc.stderr and "--depth" in proc.stderr
    assert "depth 0/" not in proc.stderr
    assert not list(tmp_path.glob("*.json"))


def test_cli_import_leaves_scipy_unloaded():
    # only the dense evolution oracle needs scipy, and no command calls it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pesinlab.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ,
                 PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv,prefix", [
    (["ks-entropy", "--map", "baker", "--depth", "5"], ""),
    (["pesin", "--map", "baker", "--depth", "5", "--lyap-steps", "200"], ""),
    (["ks-entropy", "--map", "baker", "--ladder", "2x1,2x2", "--depth", "5"],
     "grid 2x2 "),
    (["pesin", "--map", "cat", "--mode", "mc", "--mc-samples", "1000",
      "--ladder", "2x2,4x4", "--depth", "5", "--lyap-steps", "200"],
     "grid 4x4 "),
])
def test_refinement_progress_streams_to_stderr(tmp_path, capsys, argv, prefix):
    code, out, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 0
    lines = [line for line in err.splitlines() if line.startswith(prefix)]
    assert [line.split(":")[0] for line in lines[-6:]] == \
        [f"{prefix}depth {n}/5" for n in range(6)]
    assert re.fullmatch(prefix + r"depth 5/5: \d+ words, H=\S+", lines[-1])
    assert "depth 0/5" not in out


def test_classical_progress_streams_before_refusal(tmp_path, capsys):
    # depths 0 and 1 are reported as they finish, before the word cap stops
    # the run at depth 2
    code, _, err = run_cli(["prescription", "--source", "classical", "--map", "cat",
                            "--grid", "8x8", "--depth", "12", "--out", str(tmp_path)],
                           capsys)
    assert code == 2
    assert -1 < err.find("depth 0/12") < err.find("depth 1/12") < err.find("error:")
    assert "depth 2/12" not in err


# --- echoed configuration ---------------------------------------------------

@pytest.mark.parametrize("argv,stem,config", [
    (["lyapunov", "--map", "cat", "--steps", "200"], "lyapunov",
     {"map": "cat", "seed": 0, "steps": 200}),
    (["ks-entropy", "--map", "baker", "--depth", "4"], "ks_entropy",
     {"depth": 4, "estimator": "chao_shen", "grid": [2, 1],
      "include_words": False, "ladder": None, "map": "baker",
      "mc_samples": 1000000, "mode": "exact", "seed": 0}),
    (["pesin", "--map", "baker", "--depth", "4", "--lyap-steps", "200"],
     "pesin",
     {"depth": 4, "estimator": "chao_shen", "grid": [2, 1],
      "ladder": None, "lyap_steps": 200, "map": "baker",
      "mc_samples": 1000000, "mode": "exact", "seed": 0}),
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


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--map", "cat", "--samples", "2"],
    ["pesin", "--map", "baker", "--samples", "2"],
    ["pesin", "--map", "baker", "--include-words"],
])
def test_removed_flags_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


# sha256 of the JSON and CSV of exact-mode runs, recorded when one --grid
# still had a refinement call of its own, apart from hks_estimate's ladder.
# Exact entropies sum math.log terms, so the bytes do not depend on numpy's
# vectorized log.
@pytest.mark.parametrize("argv,stem,digests", [
    (["ks-entropy", "--map", "baker", "--depth", "6", "--include-words"],
     "ks_entropy",
     ("15a2bf388b1ae27fc64ed01750a5af40b79f4b4a99b867c46bdc99deeb0a7bb1",
      "b41d819dfca4a475b9af8b7559ce90be66f85b4824f953a4d68771ed55d2de81")),
    (["ks-entropy", "--map", "cat", "--ladder", "2x2,4x4", "--depth", "5"],
     "ks_entropy",
     ("8d0fd2ee50dbebe0719fe756931fdee9cff889add3bf84ba6dd5f406cf62bcb1",
      "e29081d498ff0fd8494ee7e27a188b7c350bfec5e0db64e808524ab8faa9f0d2")),
    (["pesin", "--map", "cat", "--grid", "8x8", "--depth", "5",
      "--lyap-steps", "200"], "pesin",
     ("307517a1a39456a7b66694a128198ba1402d36333d27d59c7412632b9ea16ba3",
      "d0c55ff7ee368b78be6da3f825a7a24385688727882c39a80935639dbcfe1e96")),
    (["pesin", "--map", "baker", "--ladder", "2x1,2x2", "--depth", "6",
      "--lyap-steps", "200"], "pesin",
     ("6ffa099436b5299f6504bd96bdc47d69f47f2881408d369054426c59d672cd55",
      "c3fc7a881ab8bfa5a02dd98284c863f03a4e557a041fff62de3f983e527a8c3b")),
], ids=["ks-grid-words", "ks-ladder", "pesin-grid", "pesin-ladder"])
def test_exact_entropy_outputs_are_pinned(tmp_path, capsys, argv, stem,
                                          digests):
    assert run_cli(argv + ["--out", str(tmp_path)], capsys)[0] == 0
    got = tuple(hashlib.sha256((tmp_path / f"{stem}.{ext}").read_bytes())
                .hexdigest() for ext in ("json", "csv"))
    assert got == digests


def test_console_script_installed(tmp_path):
    exe = shutil.which("pesinlab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "lyapunov", "--map", "identity",
                           "--steps", "200", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "lyapunov.json").exists()


# --- refusals: exit 2, one error line, no output -----------------------------

_NO_TABLES = {"generation": "prescribed", "n_max": 2, "cells": 2}


@pytest.mark.parametrize("argv,config,message", [
    (["ks-entropy", "--map", "cat", "--ladder", ","], None,
     "ladder is empty"),
    (["ks-entropy", "--map", "cat", "--ladder", "2x1,abc"], None,
     "ladder[1] must look like '2x1' or [2, 1], got 'abc'"),
    (["ks-entropy", "--map", "cat"], {"ladder": 5},
     "ladder must look like '2x1,2x2,4x4', got 5"),
    (["ks-entropy", "--map", "cat"], [1, 2],
     "config file must hold a JSON object"),
    (["ks-entropy", "--map", "cat"], {"mode": "fast"},
     "mode must be one of exact, mc; got 'fast'"),
    (["lyapunov", "--map", "cat"], "{\"steps\": 1e400}",
     "steps must be an integer, got inf"),
    (["lyapunov", "--map", "cat", "--config", "{tmp}/missing.json"], None,
     "cannot read config file {tmp}/missing.json: "),
    (["lyapunov", "--map", "cat", "--steps", "100",
      "--out", "{tmp}/file/out"], None,
     "cannot create output directory {tmp}/file/out: "),
    (["gamow-evolve"], _NO_TABLES,
     "generation=prescribed needs a 'tables' entry in the config file"),
    (["gamow-evolve"], dict(_NO_TABLES, tables=[[0.5], {"re": [[0.25]]}]),
     "tables[0] must be an object with 're' and optional 'im'"),
    (["gamow-evolve"], dict(_NO_TABLES, tables=[
        {"re": [[0.5, 0], [0, 0]]},
        {"re": [[0.25, 0], [0, 0]], "im": [[0, 0], [0]]}]),
     "tables[1] must hold numeric 're' and 'im' arrays of one shape: "),
    (["ks-entropy", "--map", "cat", "--ladder", "2x1,2x0"], None,
     "ladder[1] columns must be at least 1, got 0"),
    (["ks-entropy", "--map", "cat"], {"ladder": [[2, 1], "4y4"]},
     "ladder[1] must look like '2x1' or [2, 1], got '4y4'"),
])
def test_refusals_exit_2_with_one_error_line(tmp_path, capsys, argv, config,
                                             message):
    # a message ending ": " goes on with the text of an OS or numpy error
    (tmp_path / "file").write_text("")
    made = ["file"]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config if isinstance(config, str)
                            else json.dumps(config))
        argv += ["--config", str(cfg_path)]
        made.append("cfg.json")
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message.format(tmp=tmp_path))
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == \
        sorted(made)


@pytest.mark.parametrize("argv", [
    ["ks-entropy", "--map", "cat", "--ladder", ","],
    ["ks-entropy", "--map", "cat", "--mode", "mc", "--mc-samples",
     "100000000", "--depth", "40"],
    ["prescription", "--source", "gamow", "--depth", "3"],
    ["gamow-evolve", "--off-scale", "1e300"],
], ids=["ladder", "mc-bytes", "quantum-depth", "off-mass"])
def test_refused_runs_leave_no_directory_they_made(tmp_path, capsys, argv):
    # --out and its missing parent are made before the command's own
    # checks, and removed again when those refuse the run; a directory
    # that was already there stays
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "made" / "out", kept):
        code, out_text, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 2 and out_text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]


def test_overflowing_off_mass_is_refused_without_a_warning(tmp_path):
    # off_mass_ratio overflows to inf, which limits.check_off_mass refuses;
    # numpy's overflow warning must not reach the user before that line
    proc = _run_module(["gamow-evolve", "--off-scale", "1e300",
                        "--out", str(tmp_path)], 60)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: the off-(0,0) mass ratio overflows a double; lower "
        "--off-scale or raise --total-mass\n")
    assert proc.stdout == ""
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]
