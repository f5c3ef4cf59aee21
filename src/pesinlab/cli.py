"""Command-line front end.

Subcommands: lyapunov, ks-entropy, pesin, prescription, gamow-evolve.
Every run resolves its configuration from, in increasing precedence,
built-in defaults, a JSON --config file, and explicit flags; the resolved
values are echoed into the output metadata so a result is reproducible
from the file alone.  Outputs land in --out as JSON and/or CSV.

Exit status: 0 when the run completed (verdicts like NOT PROVEN CHAOTIC
do not change it), 1 when the computation itself failed, 2 for
configuration or usage errors.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import _lazy_submodule, limits, serialize
from .errors import (ConfigurationError, ResourceLimitError,
                     UnsupportedOperationError)
from .maps import MAP_NAMES, PhasePoint, make_map
from .partitions import (MC_ESTIMATORS, MEASURE_MODES, GridPartition,
                         McConfig, h_mu_ratio, hks_estimate, word_rows)

# the entropy commands never run these, so each loads on first use
gamow = _lazy_submodule("gamow")
lyapunov = _lazy_submodule("lyapunov")
pipeline = _lazy_submodule("pipeline")

FORMATS = ("json", "csv", "both")
SOURCES = ("classical", "gamow")
GENERATIONS = ("random", "prescribed")

LYAP, KS, PESIN, PRESC, GAMOW = ("lyapunov", "ks-entropy", "pesin",
                                 "prescription", "gamow-evolve")
_ALL = (LYAP, KS, PESIN, PRESC, GAMOW)
_REFINE = (KS, PESIN, PRESC)
_OPERATOR = (PRESC, GAMOW)
_ECHO_ALL = ("any", "classical", "gamow")


@dataclass(frozen=True)
class Param:
    """One configuration key, accepted as --key-name and in --config files.

    kind is int, float, choice, text (parsed by the command), switch (a
    flag that stores True) or file (config file only, absent unless given).
    A default of None means the command derives the value.  echo names the
    key's group in the echoed config: prescription writes the "any" group
    plus its source's group; the other commands write every group.  None
    never echoes.
    """

    key: str
    kind: str
    commands: tuple[str, ...]
    default: object = None
    low: Optional[float] = None
    high: Optional[int] = None
    strict: bool = False       # exclude low itself
    choices: tuple[str, ...] = ()
    echo: Optional[str] = "any"
    help: Optional[str] = None


PARAMS = (
    Param("out", "text", _ALL, ".", echo=None, help="output directory"),
    Param("seed", "int", _ALL, low=0, high=2 ** 64 - 1,
          help="RNG seed (default: PESINLAB_SEED or 0)"),
    Param("format", "choice", _ALL, "both", choices=FORMATS, echo=None,
          help="output file formats"),
    Param("source", "choice", (PRESC,), choices=SOURCES),
    Param("map", "choice", (LYAP,) + _REFINE, choices=MAP_NAMES,
          echo="classical"),
    Param("steps", "int", (LYAP,), 10000, low=100,
          high=limits.MAX_LYAP_STEPS, help="orbit length"),
    Param("grid", "text", _REFINE, echo="classical",
          help="partition grid, e.g. 2x1 or 8x8"),
    Param("depth", "int", _REFINE, help="refinement depth n_max"),
    Param("mode", "choice", _REFINE, "exact", choices=MEASURE_MODES,
          echo="classical", help="measure backend"),
    Param("mc_samples", "int", _REFINE, 1_000_000, low=1, echo="classical",
          help="Monte Carlo sample count"),
    # Monte Carlo entropies default to the coverage-adjusted estimator: the
    # plug-in one visibly flattens entropy slopes once the word count gets
    # within a couple of orders of magnitude of the sample count.
    Param("estimator", "choice", _REFINE, "chao_shen", choices=MC_ESTIMATORS,
          echo="classical", help="entropy estimator for mc mode"),
    Param("ladder", "text", (KS, PESIN),
          help="comma list of grids, e.g. 2x1,2x2,4x4"),
    Param("include_words", "switch", (KS,), False,
          help="embed per-word measures in the JSON output"),
    Param("lyap_steps", "int", (PESIN,), 10000, low=100,
          high=limits.MAX_LYAP_STEPS,
          help="orbit length for the exponent side"),
    Param("omega0", "float", _OPERATOR, 1.0, low=0.0, strict=True,
          echo="gamow", help="real part of the levels"),
    Param("gamma0", "float", _OPERATOR, 0.1, low=0.0, strict=True,
          echo="gamow", help="decay width of the levels"),
    Param("hbar", "float", _OPERATOR, 1.0, low=0.0, strict=True,
          echo="gamow"),
    Param("alpha", "float", _OPERATOR, 1.0, low=0.0, strict=True,
          echo="gamow", help="time step per chain link"),
    Param("n_max", "int", _OPERATOR, 32, low=2, echo="gamow",
          help="operator truncation dimension"),
    Param("cells", "int", _OPERATOR, 4, low=2, echo="gamow",
          help="number of cell operators"),
    Param("off_scale", "float", _OPERATOR, 3e-4, low=0.0, echo="gamow",
          help="scale of random off-diagonal coefficients"),
    Param("total_mass", "float", _OPERATOR, 0.95, low=0.0, strict=True,
          echo="gamow", help="sum of the random (0,0) weights"),
    Param("spread", "float", _OPERATOR, 0.2, low=0.0, echo="gamow",
          help="relative spread of the random (0,0) weights"),
    Param("support", "int", _OPERATOR, low=1, echo="gamow",
          help="index block actually populated by random draws"),
    Param("word_budget", "int", (PRESC,), 4096, low=1,
          help="max symbol words to track"),
    Param("r2_threshold", "float", (PRESC,), 0.99, low=0.0,
          help="minimum R^2 for an exponential verdict"),
    Param("onset", "int", (PRESC,), low=0, help="first depth used in fits"),
    Param("cell", "int", (GAMOW,), 0, low=0, help="operator index to evolve"),
    Param("j", "int", (GAMOW,), 10, low=0, help="number of evolution steps"),
    Param("generation", "choice", (GAMOW,), "random", choices=GENERATIONS),
    Param("tables", "file", (GAMOW,), echo=None),
    Param("labels", "file", (GAMOW,)),
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# --- config resolution ------------------------------------------------------

def _load_config_file(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return doc


def _resolve(args, params):
    cfg = {p.key: p.default for p in params if p.kind != "file"}
    if args.config is not None:
        file_cfg = _load_config_file(args.config)
        unknown = sorted(set(file_cfg) - {p.key for p in params})
        if unknown:
            raise ConfigurationError("unknown config keys: " + ", ".join(unknown))
        cfg.update(file_cfg)
    for p in params:
        value = getattr(args, p.key, None)
        if value is not None:
            cfg[p.key] = value
    return cfg


def _env_seed():
    env = os.environ.get("PESINLAB_SEED")
    if env is None or env == "":
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(
            f"PESINLAB_SEED must be an integer, got {env!r}") from None


def _as_int(name, value, low=None, high=None):
    # integral floats and integer strings convert; bools, fractions and
    # anything else are refused rather than truncated
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigurationError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ConfigurationError(f"{name} must be at most {high}, got {value}")
    return value


def _as_float(name, value, low=None, strict=False):
    try:
        if isinstance(value, bool):  # a JSON true is no number
            raise TypeError
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite")
    if low is not None and (value < low or (strict and value == low)):
        kind = "greater than" if strict else "at least"
        raise ConfigurationError(f"{name} must be {kind} {low}, got {value}")
    return value


def _parse(p: Param, value):
    if value is None and p.default is None:
        return None
    if p.kind == "int":
        return _as_int(p.key, value, p.low, p.high)
    if p.kind == "float":
        return _as_float(p.key, value, p.low, p.strict)
    if p.kind == "switch" and not isinstance(value, bool):
        raise ConfigurationError(f"{p.key} must be true or false, got {value!r}")
    if p.kind == "choice" and value not in p.choices:
        raise ConfigurationError(
            f"{p.key} must be one of {', '.join(p.choices)}; got {value!r}")
    return value


def _required(opt, key, names):
    if opt[key] is None:
        raise ConfigurationError(
            f"--{key} is required (one of {', '.join(names)})")
    return opt[key]


def _parse_grid(value, name="grid"):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        mq, mp = value
    elif isinstance(value, str) and value.count("x") == 1:
        mq, mp = value.split("x")
    else:
        raise ConfigurationError(
            f"{name} must look like '2x1' or [2, 1], got {value!r}")
    return (_as_int(f"{name} rows", mq, low=1),
            _as_int(f"{name} columns", mp, low=1))


def _parse_ladder(value):
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigurationError(
            f"ladder must look like '2x1,2x2,4x4', got {value!r}")
    if not parts:
        raise ConfigurationError("ladder is empty")
    # each entry is named by its place in the ladder, as ladder[i]
    return [GridPartition(*_parse_grid(p, f"ladder[{i}]"))
            for i, p in enumerate(parts)]


def _default_grid(map_name: str) -> str:
    # the hyperbolic automorphism needs more cells than the piecewise maps
    # before the partition resolves its expansion rate
    return "8x8" if map_name == "cat" else "2x1"


def _prologue(args):
    """Resolve and check every key of args.command.

    Returns the resolved config, which the command completes with the
    values it derives and echoes; the checked, typed values; and the
    output directory.  The two are kept apart so the echo shows values as
    given (a config file's "hbar": 1 stays 1).
    """
    params = [p for p in PARAMS if args.command in p.commands]
    cfg = _resolve(args, params)
    if cfg["seed"] is None:
        cfg["seed"] = _env_seed()
    opt = {p.key: _parse(p, cfg[p.key]) for p in params if p.key in cfg}
    cfg["seed"] = opt["seed"]
    out_dir = Path(opt["out"])
    try:
        # the directories this run makes, deepest first, which main
        # removes again if the run fails before it writes to them
        args.made_dirs = [p for p in (out_dir, *out_dir.parents)
                          if not p.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {out_dir}: {exc}")
    return cfg, opt, out_dir


def _echo(cfg, groups=_ECHO_ALL):
    keys = {p.key for p in PARAMS if p.echo in groups}
    return {k: cfg[k] for k in sorted(cfg) if k in keys}


def _emit(out_dir, stem, fmt, doc, header, rows):
    written = []
    if fmt in ("json", "both"):
        serialize.write_json(out_dir / f"{stem}.json", doc)
        written.append(f"{stem}.json")
    if fmt in ("csv", "both"):
        serialize.write_csv(out_dir / f"{stem}.csv", header, rows)
        written.append(f"{stem}.csv")
    return written


def _depth(cfg, default, low):
    if cfg["depth"] is None:
        cfg["depth"] = default
    return _as_int("depth", cfg["depth"], low=low)


def _refinement_setup(cfg, opt, exact_depth, mc_depth, low):
    """Grid, Monte Carlo config and depth of the entropy-side commands."""
    if cfg["grid"] is None:
        cfg["grid"] = _default_grid(opt["map"])
    grid = _parse_grid(cfg["grid"])
    cfg["grid"] = list(grid)
    if opt["mode"] == "mc":
        mc = McConfig(n_samples=opt["mc_samples"], seed=opt["seed"],
                      estimator=opt["estimator"])
        return GridPartition(*grid), mc, _depth(cfg, mc_depth, low)
    # exact cat cells multiply by 3-4 per depth on the default 8x8 grid, and
    # depth 7 is the deepest that limits.EXACT_WORD_CAP admits there
    depth = _depth(cfg, 7 if opt["map"] == "cat" else exact_depth, low)
    return GridPartition(*grid), None, depth


def _progress(line):
    """The progress sink of every command: one line to stderr."""
    print(line, file=sys.stderr)


def _prescribed_tables(cfg):
    raw = cfg.get("tables")
    if raw is None:
        raise ConfigurationError(
            "generation=prescribed needs a 'tables' entry in the config file")
    tables = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "re" not in entry:
            raise ConfigurationError(
                f"tables[{i}] must be an object with 're' and optional 'im'")
        try:
            re_part = np.asarray(entry["re"], dtype=float)
            im_part = np.asarray(entry.get("im", np.zeros_like(re_part)),
                                 dtype=float)
            tables.append(re_part + 1j * im_part)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"tables[{i}] must hold numeric 're' and 'im' arrays "
                f"of one shape: {exc}") from None
    return tables


def _cell_operators(cfg, opt, steps, step_flag, use_bytes,
                    flags="--cells or --n-max"):
    """The GamowSpec and cell operators of the operator-side commands,
    once their phases up to steps (step_flag) and their bytes with the
    use_bytes of the command's use of them (flags) pass the limits."""
    spec = gamow.GamowSpec(**{k: opt[k] for k in ("omega0", "gamma0",
                                                  "hbar", "alpha", "n_max")})
    limits.check_phases(spec, steps, step_flag)
    n_max, cells = opt["n_max"], opt["cells"]
    generation = opt.get("generation", "random")
    support = (opt["support"] or n_max) if generation == "random" else 0
    limits.check_bytes(
        limits.operator_bytes(cells, n_max, support, use_bytes),
        f"{cells} cell operators of {n_max}x{n_max} coefficients and the "
        "work on them", flags)
    if generation == "prescribed":
        draw = {"tables": _prescribed_tables(cfg), "labels": cfg.get("labels")}
    else:
        for key in ("tables", "labels"):
            if cfg.get(key) is not None:
                raise ConfigurationError(
                    f"{key} needs generation=prescribed")
        draw = {k: opt[k] for k in ("seed", "total_mass", "spread",
                                    "off_scale", "support")}
    return spec, gamow.make_cell_operators(spec, opt["cells"], generation,
                                           **draw)


# --- commands ---------------------------------------------------------------

def _spectrum(torus_map, seed, steps):
    """The map's Lyapunov spectrum, recorded from a start drawn from seed.

    The exponents do not depend on the start (see pesinlab.lyapunov), so
    one spectrum is all either command needs.
    """
    x0 = PhasePoint(*np.random.default_rng(seed).random(2))
    return lyapunov.lyapunov_spectrum(torus_map, x0, steps)


def cmd_lyapunov(args):
    cfg, opt, out_dir = _prologue(args)
    torus_map = make_map(_required(opt, "map", MAP_NAMES))
    steps = opt["steps"]
    spectrum = _spectrum(torus_map, opt["seed"], steps)

    doc = {"command": "lyapunov", "config": _echo(cfg),
           "spectrum": serialize.spectrum_doc(spectrum)}
    header = ("sigma1", "sigma2", "positive_sum")
    rows = [[serialize.fmt_float(spectrum.exponents[0]),
             serialize.fmt_float(spectrum.exponents[1]),
             serialize.fmt_float(spectrum.positive_sum)]]
    written = _emit(out_dir, "lyapunov", opt["format"], doc, header, rows)

    print(f"map {opt['map']}: exponents [{_fmt(spectrum.exponents[0])}, "
          f"{_fmt(spectrum.exponents[1])}] over {steps} iterations")
    print(f"sum of positive exponents {_fmt(spectrum.positive_sum)}")
    print("wrote " + ", ".join(written))
    return 0


def _entropy_side(cfg, opt):
    """The map and entropy estimate of ks-entropy and pesin.

    One --grid runs as a ladder of one, so its est.value is h_mu of
    est.records[0].  Only ks-entropy's --include-words, which needs one
    --grid, reads word arrays; every other record is a summary.  Returns
    the map, the estimate and whether a --ladder ran.
    """
    torus_map = make_map(_required(opt, "map", MAP_NAMES))
    part, mc, depth = _refinement_setup(cfg, opt, 12, 10, low=4)
    laddered, ladder = cfg["ladder"] is not None, [part]
    if laddered:
        ladder = _parse_ladder(cfg["ladder"])
        cfg["ladder"] = [[p.m_q, p.m_p] for p in ladder]
    est = hks_estimate(torus_map, ladder, depth, opt["mode"], mc, _progress,
                       opt.get("include_words", False))
    return torus_map, est, laddered


def _profile_doc(est):
    return [{"grid": [mq, mp], "h_mu": h} for mq, mp, h in est.profile]


def cmd_ks_entropy(args):
    cfg, opt, out_dir = _prologue(args)
    if opt["include_words"] and cfg["ladder"] is not None:
        raise ConfigurationError(
            "--include-words needs one --grid; a --ladder embeds no words")
    _, est, laddered = _entropy_side(cfg, opt)

    if laddered:
        ladders, rows = [], []
        for (mq, mp, _), recs in zip(est.profile, est.records):
            ladders.append({"grid": [mq, mp], "records": [
                serialize.refinement_record_doc(r) for r in recs]})
            rows += [[f"{mq}x{mp}", *row]
                     for row in serialize.refinement_rows(recs)]
        doc = {"command": "ks-entropy", "config": _echo(cfg),
               "h_ks": est.value, "profile": _profile_doc(est),
               "ladders": ladders}
        written = _emit(out_dir, "ks_entropy", opt["format"], doc,
                        ("grid", *serialize.REFINEMENT_CSV_HEADER), rows)
        for mq, mp, h in est.profile:
            print(f"grid {mq}x{mp}: h_mu {_fmt(h)} nats/step")
        print(f"h_KS (max over ladder) {_fmt(est.value)} nats/step")
    else:
        records = est.records[0]
        ratio = h_mu_ratio(records)
        doc = {"command": "ks-entropy", "config": _echo(cfg),
               "records": [serialize.refinement_record_doc(
                   r, word_rows(records[:r.n + 1])[0]
                   if opt["include_words"] else None)
                   for r in records],
               "h_mu": est.value, "h_mu_ratio": ratio}
        written = _emit(out_dir, "ks_entropy", opt["format"], doc,
                        serialize.REFINEMENT_CSV_HEADER,
                        serialize.refinement_rows(records))
        final = records[-1]
        (mq, mp), depth = final.grid, final.n
        print(f"map {opt['map']} grid {mq}x{mp} mode {opt['mode']}: "
              f"depth {depth}, R_{depth} = {final.nonempty_words}, "
              f"H = {_fmt(final.entropy)}")
        print(f"h_mu slope {_fmt(est.value)} nats/step, "
              f"H(n)/n at depth {depth}: {_fmt(ratio)}")
    print("wrote " + ", ".join(written))
    return 0


def cmd_pesin(args):
    cfg, opt, out_dir = _prologue(args)
    torus_map, est, laddered = _entropy_side(cfg, opt)
    lyap_steps = opt["lyap_steps"]
    if laddered:
        h_doc = {"method": "ladder_max", "value": est.value,
                 "profile": _profile_doc(est)}
    else:
        h_doc = {"method": "slope", "value": est.value,
                 "h_mu_ratio": h_mu_ratio(est.records[0]),
                 "records": [serialize.refinement_record_doc(r)
                             for r in est.records[0]]}

    positive = _spectrum(torus_map, opt["seed"], lyap_steps).positive_sum
    report = lyapunov.pesin_residual(max(est.value, 0.0), positive)

    doc = {"command": "pesin", "config": _echo(cfg), "h_estimate": h_doc,
           "lyapunov": {"positive_sum": positive, "steps": lyap_steps},
           "report": serialize.pesin_doc(report)}
    header = ("h_ks", "positive_sum", "residual", "relative_residual")
    rows = [[serialize.fmt_float(report.h_ks_estimate),
             serialize.fmt_float(report.lyapunov_positive_sum),
             serialize.fmt_float(report.residual),
             serialize.fmt_float(report.relative_residual)]]
    written = _emit(out_dir, "pesin", opt["format"], doc, header, rows)

    print(f"map {opt['map']}: entropy side {_fmt(report.h_ks_estimate)}, "
          f"sum of positive exponents {_fmt(positive)}")
    print(f"residual (entropy minus exponent sum) {_fmt(report.residual)} "
          f"(relative {_fmt(report.relative_residual)})")
    print("wrote " + ", ".join(written))
    return 0


def cmd_prescription(args):
    cfg, opt, out_dir = _prologue(args)
    source_name = _required(opt, "source", SOURCES)
    if source_name == "classical":
        torus_map = make_map(_required(opt, "map", MAP_NAMES))
        part, mc, depth = _refinement_setup(cfg, opt, 16, 16, low=7)
        source = pipeline.ClassicalSource(torus_map, part, opt["mode"], mc)
    else:
        depth = _depth(cfg, 80, low=7)
        # the operators and the run's use of them share one cap
        words, _ = limits.quantum_words(opt["cells"], depth,
                                        opt["word_budget"])
        use = limits.quantum_run_bytes(words, depth, opt["cells"],
                                       opt["n_max"])
        source = pipeline.QuantumSource(*_cell_operators(
            cfg, opt, depth, "--depth", use,
            "--word-budget, --depth, --cells or --n-max"))
    cfg["depth"] = depth
    if opt["onset"] is not None:
        # the fits need at least 4 tail points among depths 0..depth
        _as_int("onset", opt["onset"], high=depth - 3)

    run = pipeline.prescription_run(
        source, depth, word_budget=opt["word_budget"], seed=opt["seed"],
        r2_threshold=opt["r2_threshold"], onset=opt["onset"],
        progress=_progress)

    doc = {"command": "prescription",
           "config": _echo(cfg, ("any", source_name)),
           **serialize.prescription_doc(run)}
    written = _emit(out_dir, "prescription", opt["format"], doc,
                    serialize.PRESCRIPTION_CSV_HEADER,
                    serialize.prescription_rows(run))
    if opt["format"] in ("csv", "both"):
        serialize.write_plot_script(out_dir)
        written.append("prescription_plot.py")

    rep = run.report
    print(f"source {source_name}, depth {run.n_max}, "
          f"{run.words.shape[0]} words ({run.sampling})")
    print(f"headline fit: rate {_fmt(rep.fit_rate)} per step, "
          f"R^2 {_fmt(rep.fit_quality)}, onset {rep.onset}, "
          f"verdict {rep.verdict}")
    print(f"per-word exponential fraction {_fmt(run.passing_fraction)}")
    print(f"semiclassical entropy rate {_fmt(run.semiclassical_h_mu)} "
          f"nats/step")
    if run.imag_flag:
        print("warning: trace imaginary parts above 1e-6 of magnitude",
              file=sys.stderr)
    print("CHAOTIC (sufficient condition met)" if run.chaotic
          else "NOT PROVEN CHAOTIC")
    print("wrote " + ", ".join(written))
    return 0


def cmd_gamow_evolve(args):
    cfg, opt, out_dir = _prologue(args)
    cell = _as_int("cell", opt["cell"], high=opt["cells"] - 1)
    j = opt["j"]
    spec, ops = _cell_operators(cfg, opt, j, "--j",
                                limits.EVOLVE_ENTRY_BYTES * opt["n_max"] ** 2)

    evolved = gamow.evolve_operator(spec, ops[cell], j)
    ratio = limits.check_off_mass(gamow.off_mass_ratio(evolved))

    doc = {"command": "gamow-evolve", "config": _echo(cfg),
           "t_r": spec.t_r, "j": j, "off_mass_ratio": ratio,
           "operator": serialize.biorth_doc(evolved)}
    written = _emit(out_dir, "gamow_evolve", opt["format"], doc,
                    serialize.BIORTH_CSV_HEADER, serialize.biorth_rows(evolved))

    print(f"spec: omega0 {_fmt(spec.omega0)}, gamma0 {_fmt(spec.gamma0)}, "
          f"hbar {_fmt(spec.hbar)}, alpha {_fmt(spec.alpha)}, "
          f"n_max {spec.n_max}; relaxation time {_fmt(spec.t_r)}")
    print(f"cell {cell} ({ops[cell].label or 'unlabeled'}) evolved j = {j} "
          f"steps: off-(0,0) mass ratio {_fmt(ratio)}")
    print("wrote " + ", ".join(written))
    return 0


# --- parser ---------------------------------------------------------------

_COMMANDS = {
    LYAP: (cmd_lyapunov, "Lyapunov spectrum of a torus map"),
    KS: (cmd_ks_entropy, "entropy of refined partitions and its rate"),
    PESIN: (cmd_pesin,
            "compare the entropy rate with the positive Lyapunov sum"),
    PRESC: (cmd_prescription,
            "four-stage chaos detection on a classical or operator source"),
    GAMOW: (cmd_gamow_evolve,
            "evolve one cell operator and report where its mass sits"),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="pesinlab",
        description="Entropy, Lyapunov, and trace-decay diagnostics for "
                    "chaos detection.")
    subs = parser.add_subparsers(dest="command")
    for name, (func, help_text) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for p in PARAMS:
            if name not in p.commands or p.kind == "file":
                continue
            kwargs = {"help": p.help}
            if p.kind == "switch":
                kwargs.update(action="store_const", const=True)
            elif p.kind == "choice":
                kwargs["choices"] = p.choices
            elif p.kind in ("int", "float"):
                kwargs["type"] = int if p.kind == "int" else float
            sub.add_argument("--" + p.key.replace("_", "-"), **kwargs)
        sub.add_argument("--config", metavar="FILE",
                         help="JSON file with the same keys as the flags")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigurationError, UnsupportedOperationError,
            ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # anything past config checks is a failed run
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    # a refused or failed run leaves no directory that it made and left
    # empty
    for path in getattr(args, "made_dirs", ()):
        try:
            path.rmdir()
        except OSError:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
