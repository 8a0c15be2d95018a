"""Command-line entry point.

Subcommands:
  run      one seeded BO run -> result.json + trace.csv
  compare  repeated-trial method comparison -> report.json/report.csv + traces
  sweep    inertia-weight sweep -> sweep.csv

Each invocation is driven by one declarative YAML config; unknown keys are a
hard error. Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import socket
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import yaml

from . import bench
from .acquisition import AcquisitionSpec
from .boloop import BoConfig, run_bo
from .gp import FitBounds
from .pso import PsoParams
from .space import Dimension, SearchSpace

SEED_ENV_VAR = "SWARMBO_SEED"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


_TOP_KEYS = {"objective", "space", "acquisition", "pso", "gp", "bo",
             "experiment", "sweep", "seed", "output_dir"}
_SECTION_KEYS = {
    "objective": {f.name for f in fields(bench.ObjectiveSpec)},
    "acquisition": {"kind", "gamma", "xi"},  # AcquisitionSpec's `incumbent` is loop state
    "pso": {f.name for f in fields(PsoParams)},
    "gp": {f.name for f in fields(FitBounds)},
    "bo": {"init_count", "iterations", "noise_var"},
    "experiment": {"methods", "seeds", "budget"},
    "sweep": {"omegas", "seeds", "budget"},
}
_SPACE_DIM_KEYS = {"name", "type", "lower", "upper"}
_METHOD_KEYS = {f.name for f in fields(bench.MethodSpec)}
# keys whose values must be real numbers (not bool); _INTEGER_KEYS must be
# integers, _BOOL_KEYS bools, and _LIST_KEYS lists of them
_TYPED_KEYS = {
    "objective": {"dims", "noise_std", "negate"},
    "acquisition": {"gamma", "xi"},
    "pso": _SECTION_KEYS["pso"],
    "bo": _SECTION_KEYS["bo"],
    "experiment": {"seeds", "budget"},
    "sweep": {"omegas", "seeds", "budget"},
    "method": {"restarts", "max_steps", "points_per_dim"},
}
_INTEGER_KEYS = {"population", "max_iters", "patience", "dims", "seeds", "budget",
                 "restarts", "max_steps", "points_per_dim"}
_BOOL_KEYS = {"negate"}
_LIST_KEYS = {"omegas", "seeds"}


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _check_types(mapping, section, where):
    for key in sorted(_TYPED_KEYS[section] & set(mapping)):
        value = mapping[key]
        if key == "noise_var" and value is None:
            continue  # null: fit the noise
        if key in _BOOL_KEYS:
            kind, number = "a bool", bool
        elif key in _INTEGER_KEYS:
            kind, number = "an integer", Integral
        else:
            kind, number = "a number", Real
        if key in _LIST_KEYS:
            if not isinstance(value, list):
                raise ConfigError(f"{where}.{key}: expected a list, got {value!r}")
            items = [(f"{where}.{key}[{i}]", v) for i, v in enumerate(value)]
        else:
            items = [(f"{where}.{key}", value)]
        for name, v in items:
            if isinstance(v, bool) != (number is bool) or not isinstance(v, number):
                raise ConfigError(f"{name}: expected {kind}, got {v!r}")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    _check_keys(raw, _TOP_KEYS, "config")
    for section, keys in _SECTION_KEYS.items():
        if section in raw and raw[section] is not None:
            _check_keys(raw[section], keys, section)
            if section in _TYPED_KEYS:
                _check_types(raw[section], section, section)
    return raw


def _parse_space(entries) -> SearchSpace:
    if not isinstance(entries, list):
        raise ConfigError("space: expected a list of dimension mappings")
    dims = []
    for i, entry in enumerate(entries):
        _check_keys(entry, _SPACE_DIM_KEYS, f"space[{i}]")
        for key in _SPACE_DIM_KEYS:
            if key not in entry:
                raise ConfigError(f"space[{i}]: missing key {key!r}")
        dims.append(Dimension(str(entry["name"]), entry["type"],
                              float(entry["lower"]), float(entry["upper"])))
    return SearchSpace(dims)


def _parse_objective(raw) -> bench.ObjectiveSpec:
    if "objective" not in raw or not raw["objective"]:
        raise ConfigError("config: missing required section 'objective'")
    return bench.ObjectiveSpec(**raw["objective"])


def _parse_bo_config(raw, objective_spec: bench.ObjectiveSpec, seed: int = 0) -> BoConfig:
    """The BO settings every subcommand shares: the space, acquisition, pso, gp
    and bo sections (`space` defaults to the objective's canonical bounds)."""
    bo = raw.get("bo") or {}
    space = raw.get("space")
    return BoConfig(
        space=_parse_space(space) if space else bench.default_space(objective_spec),
        acquisition=AcquisitionSpec(**raw.get("acquisition") or {}),
        pso=PsoParams(**raw.get("pso") or {}),
        init_count=int(bo.get("init_count", 5)),
        iterations=int(bo.get("iterations", 30)),
        seed=seed,
        noise_var=bo.get("noise_var"),
        gp_bounds=FitBounds(**raw.get("gp") or {}),
    )


def _parse_methods(entries) -> list[bench.MethodSpec]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("experiment.methods: expected a non-empty list")
    methods = []
    for i, entry in enumerate(entries):
        _check_keys(entry, _METHOD_KEYS, f"experiment.methods[{i}]")
        if "kind" not in entry:
            raise ConfigError(f"experiment.methods[{i}]: missing key 'kind'")
        _check_types(entry, "method", f"experiment.methods[{i}]")
        kwargs = dict(entry)
        if "pso" in kwargs and kwargs["pso"] is not None:
            _check_keys(kwargs["pso"], _SECTION_KEYS["pso"], f"experiment.methods[{i}].pso")
            _check_types(kwargs["pso"], "pso", f"experiment.methods[{i}].pso")
            kwargs["pso"] = PsoParams(**kwargs["pso"])
        methods.append(bench.MethodSpec(**kwargs))
    return methods


def resolve_seed(args, raw) -> int:
    if args.seed is not None:
        return args.seed
    if raw.get("seed") is not None:
        return int(raw["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return 0


def _metadata() -> dict:
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "hostname": socket.gethostname(),
    }


def _output_dir(args, raw) -> Path:
    out = Path(args.output_dir or raw.get("output_dir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _executor(jobs):
    """Context manager yielding a thread pool of `jobs` workers, or None for one job."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext()


def cmd_run(args) -> int:
    raw = load_config(args.config)
    objective_spec = _parse_objective(raw)
    seed = resolve_seed(args, raw)
    config = _parse_bo_config(raw, objective_spec, seed)
    result = run_bo(config, bench.make_objective(objective_spec, seed))

    out = _output_dir(args, raw)
    payload = {
        "best_point": result.best_point.tolist(),
        "best_value": result.best_value,
        "incumbent_trace": result.incumbent_trace.tolist(),
        "n_evaluations": result.n_evaluations,
        "seed": seed,
        "history": [
            {
                "point": r.point.tolist(),
                "materialized": r.materialized.tolist(),
                "y": r.y,
                "iteration": r.iteration,
                "phase": r.phase,
            }
            for r in result.history.records
        ],
        "metadata": _metadata(),
    }
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    bench.write_trace_csv(result.incumbent_trace, out / "trace.csv")
    print(f"best_point: {result.best_point.tolist()}")
    print(f"best_value: {result.best_value}")
    return EXIT_OK


def cmd_compare(args) -> int:
    raw = load_config(args.config)
    objective_spec = _parse_objective(raw)
    section = raw.get("experiment")
    if not section:
        raise ConfigError("config: missing required section 'experiment'")
    methods = _parse_methods(section.get("methods"))
    if len(methods) < 2:
        raise ConfigError("experiment.methods: compare needs at least two methods")
    seeds = section.get("seeds")
    if not isinstance(seeds, list) or len(seeds) < 2:
        raise ConfigError("experiment.seeds: need at least two seeds")
    budget = section.get("budget", 35)
    config = _parse_bo_config(raw, objective_spec)

    with _executor(args.jobs) as executor:
        report = bench.run_experiment(methods, objective_spec, seeds,
                                      budget, config=config, executor=executor)

    out = _output_dir(args, raw)
    bench.write_report_json(report, out / "report.json")
    bench.write_report_csv(report, out / "report.csv")
    bench.write_experiment_traces(report, out)
    print(f"{'method':<16}{'MAX':>14}{'MIN':>14}{'AVE':>14}")
    for m in report.methods:
        print(f"{m.kind:<16}{m.max:>14.6g}{m.min:>14.6g}{m.ave:>14.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    raw = load_config(args.config)
    objective_spec = _parse_objective(raw)
    section = raw.get("sweep", {}) or {}
    omegas = [float(w) for w in section.get("omegas",
              [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])]
    seeds = section.get("seeds", [0, 1])
    budget = section.get("budget", 35)
    config = _parse_bo_config(raw, objective_spec)
    with _executor(args.jobs) as executor:
        rows = bench.omega_sweep(objective_spec, omegas, seeds, budget,
                                 config=config, executor=executor)

    out = _output_dir(args, raw)
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("omega,ave_best\n")
        for omega, ave in rows:
            fh.write(f"{omega!r},{ave!r}\n")
    for omega, ave in rows:
        print(f"omega={omega:.3g} ave_best={ave:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmbo",
        description="Bayesian optimization with a particle-swarm inner optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in [
        ("run", cmd_run, "one seeded BO run"),
        ("compare", cmd_compare, "repeated-trial method comparison"),
        ("sweep", cmd_sweep, "inertia-weight sweep"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML run config")
        p.add_argument("--output-dir", default=None, help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker pool size (default: available parallelism)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
