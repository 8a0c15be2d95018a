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
import datetime
import json
import os
import socket
import sys
import types
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass, make_dataclass, replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import yaml

from . import bench
from .acquisition import AcquisitionSpec
from .boloop import BoConfig, run_bo
from .gp import FitBounds, one_blas_thread
from .pso import PsoParams
from .space import ConfigError, Dimension, SearchSpace

SEED_ENV_VAR = "SWARMBO_SEED"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _hints(cls, *keys) -> dict:
    """The annotated types of a dataclass's fields `keys`."""
    hints = typing.get_type_hints(cls)
    return {key: hints[key] for key in keys}


# The config schema: each top-level key's kind, in the vocabulary of _build. The
# dataclass sections take their keys and types from the class the section builds.
_SECTIONS = {
    "objective": bench.ObjectiveSpec,
    "space": list[make_dataclass("SpaceEntry",  # a Dimension, whose `kind` the config calls `type`
                                 [("name", str), ("type", str), ("lower", float), ("upper", float)])],
    "acquisition": AcquisitionSpec,
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


def _build(value, kind, where):
    """`value` built as `kind`, or ConfigError naming `where` if it is not of that
    kind: a scalar of _SCALARS, `list[X]`, `X | None`, a {key: kind} mapping whose
    keys may each be left out (built as a dict), or a dataclass, whose fields are
    its keys (those without a default required) and which is constructed. A
    `tuple` kind is FitBounds' pair, which checks itself."""
    origin = typing.get_origin(kind)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        return None if value is None else _build(value, inner, where)
    if origin is tuple:
        return value
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return [_build(item, typing.get_args(kind)[0], f"{where}[{i}]")
                for i, item in enumerate(value)]
    if isinstance(kind, dict) or is_dataclass(kind):
        keys = kind if isinstance(kind, dict) else typing.get_type_hints(kind)
        _check_keys(value, keys, where)
        if is_dataclass(kind):
            for f in fields(kind):
                if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                    raise ConfigError(f"{where}: missing key {f.name!r}")
        built = {key: _build(item, keys[key], f"{where}.{key}") for key, item in value.items()}
        return kind(**built) if is_dataclass(kind) else built
    name, admits = _SCALARS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, admits):
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    if kind is float:
        try:  # an integer such as 10**400 is a number, but no float
            float(value)
        except OverflowError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return value


def load_config(path) -> dict:
    """The YAML config at `path` as read, {} for an empty file; build_config
    checks and builds it."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, ValueError) as exc:  # e.g. undecodable text, or an integer past 4,300 digits
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return {} if raw is None else raw


def build_config(path) -> dict:
    """Each section of the config at `path` checked and built by _build, keyed as
    in _SECTIONS; a top-level key set to null is left out, and `objective` is
    required."""
    raw = load_config(path)
    _check_keys(raw, _SECTIONS, "config")
    sections = {key: _build(value, _SECTIONS[key], key)
                for key, value in raw.items() if value is not None}
    if "objective" not in sections:
        raise ConfigError("config: missing required section 'objective'")
    return sections


def _parse_bo_config(sections, seed: int = 0) -> BoConfig:
    """The BO settings every subcommand shares, from a built config: the space,
    acquisition, pso, gp and bo sections (`space` defaults to the objective's
    canonical bounds)."""
    objective, space = sections["objective"], sections.get("space")
    if space is None:
        space = bench.default_space(objective)
    else:
        space = SearchSpace(Dimension(e.name, e.type, float(e.lower), float(e.upper))
                            for e in space)
    bench.check_space_width(objective, space)
    return BoConfig(
        space=space,
        acquisition=sections.get("acquisition", AcquisitionSpec()),
        pso=sections.get("pso", PsoParams()),
        seed=seed,
        gp_bounds=sections.get("gp", FitBounds()),
        **sections.get("bo", {}),
    )


def resolve_seed(args, sections) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in sections:
        return sections["seed"]
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


def _output_dir(args, sections) -> Path:
    out = Path(args.output_dir or sections.get("output_dir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    sections = build_config(args.config)
    seed = resolve_seed(args, sections)
    config = _parse_bo_config(sections, seed)
    result = run_bo(config, bench.make_objective(sections["objective"], seed))

    out = _output_dir(args, sections)
    payload = {**asdict(result), "seed": seed, "metadata": _metadata()}
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=np.ndarray.tolist)
        fh.write("\n")
    bench.write_trace_csv(result.incumbent_trace, out / "trace.csv")
    print(f"best_point: {result.best_point.tolist()}")
    print(f"best_value: {result.best_value}")
    return EXIT_OK


def cmd_compare(args) -> int:
    sections = build_config(args.config)
    section = sections.get("experiment")
    if section is None:
        raise ConfigError("config: missing required section 'experiment'")
    methods = section.get("methods", [])
    if len(methods) < 2:
        raise ConfigError("experiment.methods: compare needs at least two methods")
    seeds = section.get("seeds", [])
    if len(seeds) < 2:
        raise ConfigError("experiment.seeds: need at least two seeds")
    budget = section.get("budget", 35)
    config = _parse_bo_config(sections)
    for i, m in enumerate(methods):
        if m.kind in [n.kind for n in methods[:i]]:
            raise ConfigError(f"method kind {m.kind!r} is listed twice (outputs are named by kind)")

    report = bench.run_experiment(methods, sections["objective"], seeds, budget, config=config,
                                  jobs=args.jobs)

    out = _output_dir(args, sections)
    bench.write_report_json(report, out / "report.json")
    bench.write_report_csv(report, out / "report.csv")
    bench.write_experiment_traces(report, out)
    print(f"{'method':<16}{'MAX':>14}{'MIN':>14}{'AVE':>14}")
    for m in report.methods:
        print(f"{m.kind:<16}{m.max:>14.6g}{m.min:>14.6g}{m.ave:>14.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    sections = build_config(args.config)
    section = sections.get("sweep", {})
    omegas = [float(w) for w in section.get("omegas",
              [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])]
    seeds = section.get("seeds", [0, 1])
    budget = section.get("budget", 35)
    config = _parse_bo_config(sections)
    methods = [bench.MethodSpec(bench.PSO_BO, pso=replace(config.pso, omega=w)) for w in omegas]
    report = bench.run_experiment(methods, sections["objective"], seeds, budget, config=config,
                                  jobs=args.jobs)
    failed = [(m.pso.omega, s) for m, r in zip(methods, report.methods) for s in r.missing_seeds]
    if failed:
        raise RuntimeError(f"sweep cells (omega, seed) failed: {', '.join(map(str, failed))}")
    # averaged in the config's seed order, which the report's sorted AVE is not
    rows = [(m.pso.omega, sum(r.per_seed_best[s] for s in seeds) / len(seeds))
            for m, r in zip(methods, report.methods)]

    out = _output_dir(args, sections)
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
        p.add_argument("--jobs", type=_worker_count, default=1,
                       help="worker processes, at least 1 (default 1): compare and sweep "
                            "fit and maximize each BO step in a pool of at most this many, "
                            "capped at the usable CPUs; objective calls stay in this "
                            "process, and outputs are the same for any value")
        if name == "run":  # compare and sweep take their seeds from the config
            p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the process is the CLI's own, so it may set the BLAS state of the run
        with one_blas_thread():
            return args.fn(args)
    except ConfigError as exc:  # raised only by checks that run before the first evaluation
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
