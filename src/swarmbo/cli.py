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
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, fields, is_dataclass, make_dataclass, replace
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


def _hints(cls, *keys) -> dict:
    """The annotated types of a dataclass's fields `keys`."""
    hints = typing.get_type_hints(cls)
    return {key: hints[key] for key in keys}


# The config schema: each top-level key's kind, in the vocabulary of _check. The
# dataclass sections take their keys and types from the class the section builds.
_SECTIONS = {
    "objective": bench.ObjectiveSpec,
    "space": list[make_dataclass("SpaceEntry",  # a Dimension, whose `kind` the config calls `type`
                                 [("name", str), ("type", str), ("lower", float), ("upper", float)])],
    "acquisition": _hints(AcquisitionSpec, "kind", "gamma", "xi"),  # `incumbent` is loop state
    "pso": PsoParams,
    "gp": FitBounds,
    "bo": _hints(BoConfig, "init_count", "iterations", "noise_var"),
    "experiment": {"methods": list[bench.MethodSpec], "seeds": list[int], "budget": int},
    "sweep": {"omegas": list[float], "seeds": list[int], "budget": int},
    "seed": int,
    "output_dir": str,
}
# a scalar kind's name in messages, and the values it admits (never a bool for a number)
_SCALARS = {float: ("a number", Real), int: ("an integer", Integral), bool: ("a bool", bool),
            str: ("a string", str)}


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _check(value, kind, where):
    """Raise ConfigError, naming `where`, unless `value` is of `kind`: a scalar of
    _SCALARS, `list[X]`, `X | None`, a {key: kind} mapping whose keys may each be
    left out, or a dataclass, whose fields are its keys (those without a default
    required). A `tuple` kind is FitBounds' pair, which checks itself."""
    origin = typing.get_origin(kind)
    if origin is tuple:
        return
    if origin in (typing.Union, types.UnionType):
        if value is not None:
            (inner,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
            _check(value, inner, where)
    elif origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        for i, item in enumerate(value):
            _check(item, typing.get_args(kind)[0], f"{where}[{i}]")
    elif isinstance(kind, dict) or is_dataclass(kind):
        keys = kind if isinstance(kind, dict) else typing.get_type_hints(kind)
        _check_keys(value, keys, where)
        if is_dataclass(kind):
            for f in fields(kind):
                if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                    raise ConfigError(f"{where}: missing key {f.name!r}")
        for key, item in value.items():
            _check(item, keys[key], f"{where}.{key}")
    else:
        name, admits = _SCALARS[kind]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, admits):
            raise ConfigError(f"{where}: expected {name}, got {value!r}")


def load_config(path) -> dict:
    """Read a YAML config and check every key against _SECTIONS; a top-level key
    set to null is treated as left out."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    _check_keys(raw, _SECTIONS, "config")
    for key, value in raw.items():
        if value is not None:
            _check(value, _SECTIONS[key], key)
    return raw


def _parse_space(entries) -> SearchSpace:
    return SearchSpace(Dimension(e["name"], e["type"], float(e["lower"]), float(e["upper"]))
                       for e in entries)


def _parse_objective(raw) -> bench.ObjectiveSpec:
    if not raw.get("objective"):
        raise ConfigError("config: missing required section 'objective'")
    return bench.ObjectiveSpec(**raw["objective"])


def _parse_bo_config(raw, objective_spec: bench.ObjectiveSpec, seed: int = 0) -> BoConfig:
    """The BO settings every subcommand shares: the space, acquisition, pso, gp
    and bo sections (`space` defaults to the objective's canonical bounds)."""
    space = raw.get("space")
    return BoConfig(
        space=_parse_space(space) if space else bench.default_space(objective_spec),
        acquisition=AcquisitionSpec(**raw.get("acquisition") or {}),
        pso=PsoParams(**raw.get("pso") or {}),
        seed=seed,
        gp_bounds=FitBounds(**raw.get("gp") or {}),
        **raw.get("bo") or {},
    )


def _parse_methods(entries) -> list[bench.MethodSpec]:
    """The `experiment.methods` entries of a config load_config has checked."""
    if not entries:
        raise ConfigError("experiment.methods: expected a non-empty list")
    methods = []
    for entry in entries:
        if entry.get("pso") is not None:
            entry = {**entry, "pso": PsoParams(**entry["pso"])}
        methods.append(bench.MethodSpec(**entry))
    return methods


def resolve_seed(args, raw) -> int:
    if args.seed is not None:
        return args.seed
    if raw.get("seed") is not None:
        return raw["seed"]
    env = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}: expected an integer, got {env!r}") from None


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
    seeds = section.get("seeds", [])
    if len(seeds) < 2:
        raise ConfigError("experiment.seeds: need at least two seeds")
    budget = section.get("budget", 35)
    config = _parse_bo_config(raw, objective_spec)
    for i, m in enumerate(methods):
        if m.kind in [n.kind for n in methods[:i]]:
            raise ConfigError(f"method kind {m.kind!r} is listed twice (outputs are named by kind)")

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
    methods = [bench.MethodSpec(bench.PSO_BO, pso=replace(config.pso, omega=w)) for w in omegas]
    with _executor(args.jobs) as executor:
        report = bench.run_experiment(methods, objective_spec, seeds, budget,
                                      config=config, executor=executor)
    failed = [(m.pso.omega, s) for m, r in zip(methods, report.methods) for s in r.missing_seeds]
    if failed:
        raise RuntimeError(f"sweep cells (omega, seed) failed: {', '.join(map(str, failed))}")
    # averaged in the config's seed order, which the report's sorted AVE is not
    rows = [(m.pso.omega, sum(r.per_seed_best[s] for s in seeds) / len(seeds))
            for m, r in zip(methods, report.methods)]

    out = _output_dir(args, raw)
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("omega,ave_best\n")
        for omega, ave in rows:
            fh.write(f"{omega!r},{ave!r}\n")
    for omega, ave in rows:
        print(f"omega={omega:.3g} ave_best={ave:.6g}")
    return EXIT_OK


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


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
        p.add_argument("--jobs", type=_worker_count, default=None,
                       help="worker pool size (default: available parallelism)")
        if name == "run":  # compare and sweep take their seeds from the config
            p.add_argument("--seed", type=int, default=None, help="root seed override")
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
