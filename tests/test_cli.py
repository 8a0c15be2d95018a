import json
import multiprocessing
import os
import sys
import threading
import time
import types
import typing
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
import scipy
import yaml

from swarmbo import bench, boloop, gp
from swarmbo.bench import (
    LOCAL_BO,
    MethodSpec,
    ObjectiveSpec,
    PSO_BO,
    RANDOM_SEARCH,
    default_space,
    run_experiment,
)
from swarmbo.acquisition import AcquisitionSpec
from swarmbo.boloop import BoConfig, Observation, run_bo
from swarmbo.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, _SECTIONS, _parse_bo_config, build_config, main,
)
from swarmbo.gp import FitBounds
from swarmbo.pso import PsoParams

from helpers import read_report_csv, run_fresh_interpreter, sweep_methods

SPHERE_1D = {"name": "sphere", "dims": 1, "negate": True}


def write_config(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def run_config(tmp_path):
    return write_config(tmp_path / "run.yaml", {
        "objective": {"name": "sphere", "dims": 2, "negate": True},
        "bo": {"init_count": 3, "iterations": 3},
        "seed": 5,
    })


@pytest.fixture
def compare_config(tmp_path):
    return write_config(tmp_path / "compare.yaml", {
        "objective": {"name": "sphere", "dims": 1, "negate": True},
        "experiment": {
            "methods": [{"kind": "pso_bo"}, {"kind": "random_search"},
                        {"kind": "local_bo", "restarts": 3, "max_steps": 30}],
            "seeds": [0, 1],
            "budget": 8,
        },
    })


def load_result(out_dir, drop_metadata=True):
    with open(out_dir / "result.json", encoding="utf-8") as fh:
        data = json.load(fh)
    if drop_metadata:
        data.pop("metadata")
    return data


class TestRun:
    def test_minimal_config(self, run_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", run_config, "--output-dir", str(out)]) == EXIT_OK
        result = load_result(out, drop_metadata=False)
        assert "timestamp" in result["metadata"]
        trace = result["incumbent_trace"]
        assert all(a <= b for a, b in zip(trace, trace[1:]))
        assert (out / "trace.csv").exists()
        assert "best_value" in capsys.readouterr().out

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.yaml", {
            "objective": {"name": "sphere", "dims": 1},
            "acquisition": {"gamna": 2.0},
        })
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "gamna" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.yaml", {
            "objective": {"name": "sphere", "dims": 1},
            "objectve": {},
        })
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "objectve" in capsys.readouterr().err

    def test_missing_objective(self, tmp_path):
        cfg = write_config(tmp_path / "bad.yaml", {"seed": 1})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_determinism_across_invocations_and_jobs(self, run_config, tmp_path):
        outs = []
        for name, jobs in [("a", "1"), ("b", "1"), ("c", "4")]:
            out = tmp_path / name
            assert main(["run", "--config", run_config, "--output-dir", str(out),
                         "--jobs", jobs]) == EXIT_OK
            outs.append(load_result(out))
        assert outs[0] == outs[1] == outs[2]

    def test_seed_flag_overrides_config(self, run_config, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["run", "--config", run_config, "--output-dir", str(a), "--seed", "99"])
        main(["run", "--config", run_config, "--output-dir", str(b)])
        assert load_result(a)["seed"] == 99
        assert load_result(b)["seed"] == 5

    def test_env_seed_is_last_resort(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "noseed.yaml", {
            "objective": {"name": "sphere", "dims": 1, "negate": True},
            "bo": {"init_count": 2, "iterations": 1},
        })
        monkeypatch.setenv("SWARMBO_SEED", "77")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--output-dir", str(out)])
        assert load_result(out)["seed"] == 77

    def test_space_override(self, tmp_path):
        cfg = write_config(tmp_path / "space.yaml", {
            "objective": {"name": "sphere", "dims": 2, "negate": True},
            "space": [
                {"name": "a", "type": "real", "lower": -1, "upper": 1},
                {"name": "b", "type": "integer", "lower": -2, "upper": 2},
            ],
            "bo": {"init_count": 2, "iterations": 1},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        point = load_result(out)["best_point"]
        assert point[1] == int(point[1])

    def test_result_json_is_the_run(self, tmp_path):
        """result.json minus metadata is run_bo's result on the same config and
        seed, key for key with exact floats, plus the seed; each history entry
        holds exactly an Observation's fields."""
        cfg = write_config(tmp_path / "int.yaml", {
            "objective": {"name": "sphere", "dims": 2, "negate": True},
            "space": [
                {"name": "a", "type": "integer", "lower": -3, "upper": 3},
                {"name": "b", "type": "real", "lower": -2, "upper": 2},
            ],
            "bo": {"init_count": 2, "iterations": 3},
            "seed": 4,
        })
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        sections = build_config(cfg)
        spec = sections["objective"]
        want = run_bo(_parse_bo_config(sections, 4), bench.make_objective(spec, 4))

        def plain(value):
            return value.tolist() if isinstance(value, np.ndarray) else value

        got = load_result(out)
        assert got == {
            "best_point": plain(want.best_point),
            "best_value": want.best_value,
            "history": [{f.name: plain(getattr(r, f.name)) for f in fields(Observation)}
                        for r in want.history],
            "incumbent_trace": plain(want.incumbent_trace),
            "n_evaluations": want.n_evaluations,
            "seed": 4,
        }
        assert any(e["point"] != e["materialized"] for e in got["history"])


class TestCompare:
    def test_three_method_table(self, compare_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compare", "--config", compare_config,
                     "--output-dir", str(out), "--jobs", "1"]) == EXIT_OK
        rows = read_report_csv(out / "report.csv")
        assert len(rows) == 3
        for row in rows:
            assert row["min"] <= row["ave"] <= row["max"]
        printed = capsys.readouterr().out
        for row in rows:
            assert row["method"] in printed
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        counts = {c for m in report["methods"] for c in m["eval_counts"].values()}
        assert counts == {8}
        assert (out / "trace_pso_bo_0.csv").exists()
        assert (out / "trace_random_search_1.csv").exists()

    def test_single_method_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "one.yaml", {
            "objective": {"name": "sphere", "dims": 1, "negate": True},
            "experiment": {"methods": [{"kind": "pso_bo"}], "seeds": [0, 1], "budget": 8},
        })
        assert main(["compare", "--config", cfg]) == EXIT_CONFIG

    def test_results_independent_of_jobs(self, compare_config, tmp_path):
        reports = []
        for name, jobs in [("j1", "1"), ("j4", "4")]:
            out = tmp_path / name
            main(["compare", "--config", compare_config, "--output-dir", str(out),
                  "--jobs", jobs])
            with open(out / "report.json", encoding="utf-8") as fh:
                reports.append(json.load(fh))
        assert reports[0] == reports[1]


    def test_method_failing_on_every_seed_reports_cause(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "short.yaml", {
            "objective": {"name": "sphere", "dims": 1, "negate": True},
            "bo": {"init_count": 5},
            "experiment": {"methods": [{"kind": "pso_bo"}, {"kind": "random_search"}],
                           "seeds": [0, 1], "budget": 5},
        })
        out = str(tmp_path / "o")
        assert main(["compare", "--config", cfg, "--output-dir", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "budget must exceed the initial-design size" in err
        assert "empty sequence" not in err

    def test_gp_section_takes_effect(self, tmp_path):
        spec = ObjectiveSpec(**SPHERE_1D)
        experiment = {"methods": [{"kind": "pso_bo"}, {"kind": "random_search"}],
                      "seeds": [0, 1], "budget": 8}
        bests = []
        for name, extra in [("gp", {"gp": {"log_lengthscale": [1.5, 2.0]}}), ("default", {})]:
            cfg = write_config(tmp_path / f"{name}.yaml",
                               {"objective": SPHERE_1D, "experiment": experiment, **extra})
            out = tmp_path / name
            assert main(["compare", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
            with open(out / "report.json", encoding="utf-8") as fh:
                bests.append([m["per_seed_best"] for m in json.load(fh)["methods"]])
        config = BoConfig(space=default_space(spec),
                          gp_bounds=FitBounds(log_lengthscale=(1.5, 2.0)))
        report = run_experiment([MethodSpec(PSO_BO), MethodSpec(RANDOM_SEARCH)], spec,
                                [0, 1], budget=8, config=config)
        assert bests[0] == [{str(s): v for s, v in m.per_seed_best.items()}
                            for m in report.methods]
        assert bests[0][0] != bests[1][0]

    def test_duplicate_method_kind_writes_nothing(self, tmp_path, capsys, monkeypatch):
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        cfg = write_config(tmp_path / "dup.yaml", {
            "objective": SPHERE_1D,
            "experiment": {"methods": [{"kind": "pso_bo"}, {"kind": "random_search"},
                                       {"kind": "pso_bo", "pso": {"omega": 0.5}}],
                           "seeds": [0, 1], "budget": 8},
        })
        out = tmp_path / "o"
        assert main(["compare", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        assert "'pso_bo' is listed twice" in capsys.readouterr().err
        assert not out.exists()
        assert made == []  # rejected before any cell runs

    def test_grid_over_cap_reports_cause(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "grid.yaml", {
            "objective": {"name": "styblinski_tang", "dims": 7, "negate": True},
            "experiment": {"methods": [{"kind": "grid_search"}, {"kind": "random_search"}],
                           "seeds": [0, 1], "budget": 8},
        })
        out = str(tmp_path / "o")
        assert main(["compare", "--config", cfg, "--output-dir", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "grid of 10000000 points exceeds cap" in err
        assert "empty sequence" not in err


class TestSweep:
    def _config(self, tmp_path, omegas, seeds=(0, 1), name="sweep", sweep_extra=(), **sections):
        sweep = {"omegas": omegas, "seeds": list(seeds), "budget": 8, **dict(sweep_extra)}
        return write_config(tmp_path / f"{name}.yaml",
                            {"objective": SPHERE_1D, "sweep": sweep, **sections})

    def _rows(self, cfg, out):
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        return [tuple(float(v) for v in line.split(",")) for line in lines]

    def test_shared_sections_take_effect(self, tmp_path):
        omegas = [0.5, 0.9]
        cfg = self._config(tmp_path, omegas, pso={"population": 6, "max_iters": 3},
                           bo={"init_count": 3}, gp={"log_lengthscale": [1.5, 2.0]})
        rows = self._rows(cfg, tmp_path / "sections")
        spec = ObjectiveSpec(**SPHERE_1D)
        config = BoConfig(space=default_space(spec), pso=PsoParams(population=6, max_iters=3),
                          init_count=3, gp_bounds=FitBounds(log_lengthscale=(1.5, 2.0)))
        report = run_experiment(sweep_methods(omegas, config.pso), spec, [0, 1], 8, config=config)
        assert rows == [(w, m.ave) for w, m in zip(omegas, report.methods)]
        default = self._rows(self._config(tmp_path, omegas, name="default"), tmp_path / "default")
        assert rows != default

    def test_c1_c2_come_from_pso_section(self, tmp_path, capsys):
        cfg = self._config(tmp_path, [0.5], sweep_extra={"c1": 1.5})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert "unknown key(s) ['c1']" in capsys.readouterr().err
        cfg = self._config(tmp_path, [0.5], name="pso", pso={"c1": 2.5, "c2": 3.5})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG  # 6 >= 4(1 + 0.5)

    def test_default_nine_rows(self, tmp_path):
        cfg = self._config(tmp_path, [round(0.1 * k, 1) for k in range(1, 10)])
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "omega,ave_best"
        assert len(lines) == 10

    def test_high_omega_with_small_factors_ok(self, tmp_path):
        cfg = self._config(tmp_path, [0.95])  # c1+c2 = 3.85 < 7.8
        assert main(["sweep", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == EXIT_OK

    def test_omega_at_boundary_rejected(self, tmp_path, capsys):
        cfg = self._config(tmp_path, [-1.0])
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert "-1" in capsys.readouterr().err

    def test_one_seed(self, tmp_path):
        cfg = self._config(tmp_path, [0.5, 0.9], seeds=[3])
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        assert len((out / "sweep.csv").read_text().strip().splitlines()) == 3

    def test_results_independent_of_jobs(self, tmp_path):
        cfg = self._config(tmp_path, [0.3, 0.6, 0.9])
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            assert main(["sweep", "--config", cfg, "--output-dir", str(out),
                         "--jobs", jobs]) == EXIT_OK
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]


# each config section built from a dataclass, with the fields it takes from elsewhere
_DATACLASS_SECTIONS = {
    "objective": (ObjectiveSpec(**SPHERE_1D), set()),
    "acquisition": (AcquisitionSpec(), set()),
    "pso": (PsoParams(), set()),
    "gp": (FitBounds(), set()),
    "bo": (BoConfig(space=default_space(ObjectiveSpec(**SPHERE_1D))),
           {"space", "acquisition", "pso", "seed", "gp_bounds"}),  # other sections and --seed
    "method.pso": (PsoParams(), set()),
}


@pytest.mark.parametrize("section, name", [
    (section, f.name)
    for section, (default, elsewhere) in _DATACLASS_SECTIONS.items()
    for f in fields(default) if f.name not in elsewhere
])
def test_every_section_field_is_a_config_key(tmp_path, section, name):
    value = getattr(_DATACLASS_SECTIONS[section][0], name)
    value = list(value) if isinstance(value, tuple) else value
    raw = {"objective": dict(SPHERE_1D)}
    if section == "method.pso":
        raw["experiment"] = _experiment({"kind": "pso_bo", "pso": {name: value}})
    else:
        raw.setdefault(section, {})[name] = value
    sections = build_config(write_config(tmp_path / "c.yaml", raw))
    _parse_bo_config(sections)
    if section == "method.pso":
        assert sections["experiment"]["methods"] == [MethodSpec(PSO_BO, PsoParams())]


@pytest.mark.parametrize("name", [f.name for f in fields(MethodSpec)])
def test_every_method_field_is_a_method_key(tmp_path, name):
    entry = {"kind": LOCAL_BO, name: getattr(MethodSpec(LOCAL_BO), name)}
    sections = build_config(write_config(tmp_path / "c.yaml", {"objective": dict(SPHERE_1D),
                                                                "experiment": _experiment(entry)}))
    assert sections["experiment"]["methods"] == [MethodSpec(LOCAL_BO)]


def _kinds(kind, owner=None):
    """(dataclass, leaf kind) for every annotation reachable from `kind`."""
    origin = typing.get_origin(kind)
    if isinstance(kind, dict):
        for sub in kind.values():
            yield from _kinds(sub, owner)
    elif is_dataclass(kind):
        for sub in typing.get_type_hints(kind).values():
            yield from _kinds(sub, kind)
    elif origin is list:
        (item,) = typing.get_args(kind)
        yield from _kinds(item, owner)
    elif origin in (typing.Union, types.UnionType):
        args = typing.get_args(kind)
        assert len(args) == 2 and type(None) in args, f"{kind} is not `X | None`"
        yield from _kinds(args[0] if args[1] is type(None) else args[1], owner)
    else:
        yield owner, kind


def test_every_schema_kind_is_checked():
    """A config value is checked only if its annotation is a kind cli._build knows;
    FitBounds' (lower, upper) pairs are the one exception, checked by FitBounds."""
    leaves = list(_kinds(_SECTIONS))
    assert {owner for owner, _ in leaves} >= {ObjectiveSpec, PsoParams, FitBounds, MethodSpec}
    for owner, kind in leaves:
        if owner is FitBounds:
            assert kind == tuple[float, float]
        else:
            assert kind in (float, int, bool, str), f"{owner}: unchecked kind {kind}"


@pytest.mark.parametrize("where", ["objective", "pso", "gp", "method"])
def test_unknown_key_exits_2(tmp_path, capsys, where):
    raw = {"objective": dict(SPHERE_1D),
           "experiment": {"methods": [{"kind": "pso_bo"}, {"kind": "random_search"}],
                          "seeds": [0, 1], "budget": 8}}
    if where == "method":
        raw["experiment"]["methods"][0]["bogus"] = 1
    else:
        raw.setdefault(where, {})["bogus"] = 1
    cfg = write_config(tmp_path / "c.yaml", raw)
    assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "unknown key(s) ['bogus']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _experiment(*methods):
    return {"methods": list(methods), "seeds": [0, 1], "budget": 8}


_TWO_DIMS = [{"name": "a", "type": "real", "lower": 0.0, "upper": 1.0},
             {"name": "b", "type": "real", "lower": 0.0, "upper": 1.0}]


@pytest.mark.parametrize("command, raw, cause", [
    ("compare", {"gp": {"log_noise": [0, -8]},
                 "experiment": _experiment({"kind": "random_search"}, {"kind": "pso_bo"})},
     "log_noise must be a finite pair lower < upper, got [0, -8]"),
    ("run", {"gp": {"log_noise": [-8]}}, "log_noise must be a finite pair lower < upper, got [-8]"),
    ("run", {"gp": {"log_noise": 5}}, "log_noise must be a finite pair lower < upper, got 5"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "pso_bo", "pso": {"omega": 1.5}})},
     "omega=1.5 outside (-1, 1)"),
    ("compare", {"objective": {"name": "styblinski_tang", "dims": 7, "negate": True},
                 "experiment": _experiment({"kind": "pso_bo"}, {"kind": "grid_search"})},
     "grid of 10000000 points exceeds cap 1000000"),
    ("run", {"space": [{"name": "a", "type": "real", "lower": 1.0, "upper": 0.0}]},
     "dimension 'a': lower bound must be strictly below upper bound"),
    ("run", {"bo": {"noise_var": -1.0}}, "noise_var must be finite and non-negative, got -1.0"),
    ("run", {"pso": {"omega": "fast"}}, "pso.omega: expected a number, got 'fast'"),
    ("run", {"pso": {"c1": True}}, "pso.c1: expected a number, got True"),
    ("run", {"pso": {"population": "ten"}}, "pso.population: expected an integer, got 'ten'"),
    ("run", {"pso": {"max_iters": 10.0}}, "pso.max_iters: expected an integer, got 10.0"),
    ("run", {"acquisition": {"gamma": "big"}}, "acquisition.gamma: expected a number, got 'big'"),
    ("run", {"bo": {"noise_var": "small"}}, "bo.noise_var: expected a number, got 'small'"),
    ("sweep", {"bo": {"init_count": "five"}, "sweep": {"omegas": [0.5], "seeds": [0], "budget": 8}},
     "bo.init_count: expected an integer, got 'five'"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "pso_bo", "pso": {"patience": "long"}})},
     "experiment.methods[1].pso.patience: expected an integer, got 'long'"),
    ("sweep", {"sweep": {"omegas": ["fast"], "seeds": [0], "budget": 8}},
     "sweep.omegas[0]: expected a number, got 'fast'"),
    ("sweep", {"sweep": {"omegas": [0.5], "seeds": 3, "budget": 8}},
     "sweep.seeds: expected a list, got 3"),
    ("sweep", {"sweep": {"omegas": [0.5], "seeds": [0], "budget": "8"}},
     "sweep.budget: expected an integer, got '8'"),
    ("compare", {"experiment": {**_experiment({"kind": "random_search"}, {"kind": "pso_bo"}),
                                "seeds": [0, 1.5]}},
     "experiment.seeds[1]: expected an integer, got 1.5"),
    ("compare", {"experiment": {**_experiment({"kind": "random_search"}, {"kind": "pso_bo"}),
                                "budget": 8.0}},
     "experiment.budget: expected an integer, got 8.0"),
    ("run", {"objective": {"name": "sphere", "dims": "two"}},
     "objective.dims: expected an integer, got 'two'"),
    ("run", {"objective": {"name": "sphere", "dims": 1, "noise_std": "low"}},
     "objective.noise_std: expected a number, got 'low'"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "local_bo", "restarts": "many"})},
     "experiment.methods[1].restarts: expected an integer, got 'many'"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "local_bo", "max_steps": 2.5})},
     "experiment.methods[1].max_steps: expected an integer, got 2.5"),
    ("compare", {"experiment": _experiment({"kind": "pso_bo"},
                                           {"kind": "grid_search", "points_per_dim": "ten"})},
     "experiment.methods[1].points_per_dim: expected an integer, got 'ten'"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "local_bo", "max_steps": -1})},
     "max_steps must be at least 0, got -1"),
    ("run", {"objective": {**SPHERE_1D, "negate": "no"}},
     "objective.negate: expected a bool, got 'no'"),
    ("compare", {"objective": {**SPHERE_1D, "negate": 1},
                 "experiment": _experiment({"kind": "random_search"}, {"kind": "pso_bo"})},
     "objective.negate: expected a bool, got 1"),
    ("compare", {"experiment": {**_experiment({"kind": "random_search"}, {"kind": "pso_bo"}),
                                "seeds": [0, 0]}},
     "duplicate seeds in [0, 0]"),
    ("sweep", {"sweep": {"omegas": [0.5], "seeds": [1, 2, 1], "budget": 8}},
     "duplicate seeds in [1, 2, 1]"),
    ("run", {"bo": {"init_count": 3.7}}, "bo.init_count: expected an integer, got 3.7"),
    ("run", {"bo": {"iterations": 2.5}}, "bo.iterations: expected an integer, got 2.5"),
    ("run", {"seed": 1.7}, "seed: expected an integer, got 1.7"),
    ("run", {"seed": True}, "seed: expected an integer, got True"),
    ("run", {"seed": "abc"}, "seed: expected an integer, got 'abc'"),
    ("run", {"output_dir": 5}, "output_dir: expected a string, got 5"),
    ("run", {"space": [{"name": "a", "type": "real", "lower": "abc", "upper": 1.0}]},
     "space[0].lower: expected a number, got 'abc'"),
    ("run", {"space": [{"name": "a", "type": "real", "lower": 0.0, "upper": True}]},
     "space[0].upper: expected a number, got True"),
    ("run", {"space": [{"name": "a", "type": "real", "lower": 0.0}]},
     "space[0]: missing key 'upper'"),
    ("compare", {"experiment": _experiment({"kind": "random_search"}, {"restarts": 3})},
     "experiment.methods[1]: missing key 'kind'"),
    ("compare", {"experiment": {**_experiment({"kind": "random_search"}, {"kind": "pso_bo"}),
                                "seeds": [-1, 0]}},
     "seeds must be non-negative, got [-1, 0]"),
    ("sweep", {"sweep": {"omegas": [0.5], "seeds": [0, -2], "budget": 8}},
     "seeds must be non-negative, got [0, -2]"),
    ("run", {"seed": -1}, "seed must be non-negative, got -1"),
    ("compare", {"experiment": {**_experiment({"kind": "random_search"}, {"kind": "grid_search"}),
                                "budget": -1}},
     "budget must be at least 1, got -1"),
    ("compare", {"experiment": {**_experiment({"kind": "grid_search"}, {"kind": "pso_bo"}),
                                "budget": 0}},
     "budget must be at least 1, got 0"),
    ("sweep", {"sweep": {"omegas": [], "seeds": [0], "budget": 8}}, "need at least one method"),
    ("run", {"space": []}, "search space has no dimensions"),
    ("compare", {"space": [], "experiment": _experiment({"kind": "random_search"},
                                                        {"kind": "pso_bo"})},
     "search space has no dimensions"),
    ("sweep", {"space": [], "sweep": {"omegas": [0.5], "seeds": [0], "budget": 8}},
     "search space has no dimensions"),
    ("run", {"objective": {**SPHERE_1D, "dims": 3}, "space": _TWO_DIMS},
     "space has 2 dimensions, objective 'sphere' has dims=3"),
    ("compare", {"objective": {**SPHERE_1D, "dims": 3}, "space": _TWO_DIMS,
                 "experiment": _experiment({"kind": "random_search"}, {"kind": "pso_bo"})},
     "space has 2 dimensions, objective 'sphere' has dims=3"),
    ("sweep", {"objective": {**SPHERE_1D, "dims": 3}, "space": _TWO_DIMS,
               "sweep": {"omegas": [0.5], "seeds": [0], "budget": 8}},
     "space has 2 dimensions, objective 'sphere' has dims=3"),
    ("run", {"space": _TWO_DIMS}, "space has 2 dimensions, objective 'sphere' has dims=1"),
    ("run", {"gp": {"log_theta0": [-400, -399]}, "bo": {"noise_var": 0.0}},
     "log_theta0 must lie within [-300, 300], got [-400, -399]"),
    ("run", {"gp": {"log_lengthscale": [300, 310]}},
     "log_lengthscale must lie within [-300, 300], got [300, 310]"),
    ("run", {"acquisition": {"gamma": float("nan")}}, "gamma must be finite and non-negative, got nan"),
    ("run", {"acquisition": {"kind": "ei", "xi": float("inf")}},
     "xi must be finite and non-negative, got inf"),
    ("run", {"objective": {**SPHERE_1D, "noise_std": float("nan")}},
     "noise_std must be finite and non-negative, got nan"),
    ("run", {"pso": {"tol": float("nan")}}, "tol must be finite and non-negative, got nan"),
    ("run", {"pso": {"tol": -1.0}}, "tol must be finite and non-negative, got -1.0"),
    ("run", {"pso": {"patience": 0}}, "patience must be at least 1, got 0"),
    ("run", {"space": [{"name": "a", "type": "real", "lower": 0.0, "upper": float("inf")}]},
     "dimension 'a': bounds and upper - lower must be finite, got [0.0, inf]"),
    ("run", {"space": [{"name": "a", "type": "real", "lower": 0.0, "upper": 10**400}]},
     "space[0].upper: int too large to convert to float"),
    ("run", {"space": [{"name": "a", "type": "real", "lower": -1e308, "upper": 1e308}]},
     "dimension 'a': bounds and upper - lower must be finite, got [-1e+308, 1e+308]"),
    ("run", {"acquisition": {"gamma": 10**400}}, "acquisition.gamma: int too large to convert to float"),
    ("run", {"gp": {"log_noise": [0, 10**400]}}, "log_noise must lie within [-300, 300]"),
    ("compare", {"objective": {"name": "sphere", "dims": 64, "negate": True},
                 "experiment": _experiment({"kind": "random_search"},
                                           {"kind": "grid_search", "points_per_dim": 2})},
     "grid of 18446744073709551616 points exceeds cap 1000000"),
    ("run", {"pso": {"population": 10**400}}, "population must be at most 9223372036854775807"),
    ("run", {"objective": {**SPHERE_1D, "dims": 10**400}}, "dims must be at most 9223372036854775807"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "grid_search", "points_per_dim": 10**400})},
     "points_per_dim must be at most 9223372036854775807"),
    ("run", {"bo": {"iterations": sys.maxsize + 1}}, "iterations must be at most 9223372036854775807"),
    ("run", {"bo": {"init_count": sys.maxsize + 1}}, "init_count must be at most 9223372036854775807"),
    ("compare", {"experiment": {**_experiment({"kind": "random_search"}, {"kind": "pso_bo"}),
                                "budget": sys.maxsize + 1}},
     "budget must be at most 9223372036854775807"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "local_bo", "restarts": sys.maxsize + 1})},
     "restarts must be at most 9223372036854775807"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "local_bo", "max_steps": sys.maxsize + 1})},
     "max_steps must be at most 9223372036854775807"),
    ("run", {"pso": {"max_iters": sys.maxsize + 1}}, "max_iters must be at most 9223372036854775807"),
    ("run", {"pso": {"patience": sys.maxsize + 1}}, "patience must be at most 9223372036854775807"),
    ("run", "objective: {name: sphere, dims: 1}\npso: {population: 1" + "0" * 5000 + "}\n",
     "cannot read config: Exceeds the limit (4300 digits)"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "grid_search", "points_per_dim": 10**12})},
     "grid of 1000000000000 points exceeds cap 1000000"),
    ("run", {"objective": {"name": "nosuch", "dims": 1}}, "unknown objective 'nosuch'"),
    ("run", {"objective": {**SPHERE_1D, "dims": 0}}, "dims must be at least 1"),
    ("compare", {"experiment": _experiment({"kind": "random_search"}, {"kind": "nosuch"})},
     "unknown method kind 'nosuch'"),
    ("compare", {"experiment": _experiment({"kind": "random_search"},
                                           {"kind": "grid_search", "points_per_dim": 1})},
     "points_per_dim must be at least 2, got 1"),
    ("run", {"pso": {"population": 1}}, "population must be at least 2"),
    ("run", {"pso": {"max_iters": 0}}, "max_iters must be at least 1"),
    ("run", {"pso": {"vmax_fraction": 0}}, "vmax_fraction must be in (0, 1]"),
    ("run", {"space": [{"name": "a", "type": "float", "lower": 0.0, "upper": 1.0}]},
     "dimension 'a': unknown kind 'float'"),
    ("run", {"pso": 5}, "pso: expected a mapping"),
    ("run", "objective: {name: sphere\n", "config is not valid YAML"),
    ("compare", {}, "config: missing required section 'experiment'"),
    ("compare", {"experiment": {**_experiment({"kind": "random_search"}, {"kind": "pso_bo"}),
                                "seeds": [0]}},
     "experiment.seeds: need at least two seeds"),
    ("compare", {"experiment": {}}, "experiment.methods: compare needs at least two methods"),
    # a key that the method's kind never reads would be ignored
    ("compare", {"experiment": _experiment({"kind": "random_search", "restarts": -5,
                                            "pso": {"omega": 0.3}}, {"kind": "pso_bo"})},
     "pso does not apply to a random_search method"),
    ("compare", {"experiment": _experiment({"kind": "pso_bo", "points_per_dim": 1, "max_steps": -3},
                                           {"kind": "random_search"})},
     "max_steps does not apply to a pso_bo method"),
    ("compare", {"experiment": _experiment({"kind": "local_bo", "pso": {"population": 3}},
                                           {"kind": "random_search"})},
     "pso does not apply to a local_bo method"),
], ids=["inverted-gp-bound", "one-element-gp-bound", "scalar-gp-bound", "unstable-method-pso",
        "grid-over-cap-after-pso_bo", "inverted-space-dim", "negative-noise-var",
        "string-omega", "bool-c1", "string-population", "float-max-iters", "string-gamma",
        "string-noise-var", "string-init-count", "string-method-patience",
        "string-sweep-omega", "scalar-sweep-seeds", "string-sweep-budget", "float-experiment-seed",
        "float-experiment-budget", "string-dims", "string-noise-std", "string-restarts",
        "float-max-steps", "string-points-per-dim", "negative-max-steps", "string-negate",
        "integer-negate", "duplicate-experiment-seeds", "duplicate-sweep-seeds",
        "float-init-count", "float-iterations", "float-seed", "bool-seed", "string-seed",
        "integer-output-dir", "string-space-lower", "bool-space-upper", "space-dim-without-upper",
        "method-without-kind", "negative-experiment-seed", "negative-sweep-seed",
        "negative-seed", "negative-baseline-budget", "zero-budget", "no-sweep-omegas",
        "empty-space-run", "empty-space-compare", "empty-space-sweep", "narrow-space-run",
        "narrow-space-compare", "narrow-space-sweep", "wide-space-run", "underflowing-gp-theta0",
        "overflowing-gp-lengthscale", "nan-gamma", "inf-ei-xi", "nan-noise-std", "nan-tol",
        "negative-tol", "zero-patience", "inf-space-upper", "huge-int-space-upper",
        "overflowing-space-range", "huge-int-gamma", "huge-int-gp-bound",
        "grid-size-past-int64", "huge-int-population", "huge-int-dims",
        "huge-int-points-per-dim", "iterations-past-maxsize", "init-count-past-maxsize",
        "budget-past-maxsize", "restarts-past-maxsize", "max-steps-past-maxsize",
        "max-iters-past-maxsize", "patience-past-maxsize", "5001-digit-population",
        "trillion-points-per-dim", "unknown-objective", "zero-dims", "unknown-method-kind",
        "one-point-per-dim", "one-particle", "zero-max-iters", "zero-vmax-fraction",
        "float-space-type", "scalar-pso", "invalid-yaml", "compare-without-experiment",
        "compare-one-seed", "compare-empty-experiment", "random-search-pso",
        "pso-bo-points-per-dim", "local-bo-pso"])
def test_config_error_exits_2_before_any_evaluation(tmp_path, capsys, caplog, monkeypatch,
                                                     command, raw, cause):
    calls = _count_evaluations(monkeypatch)
    cfg = tmp_path / "c.yaml"
    if isinstance(raw, str):  # the file's text as written
        cfg.write_text(raw, encoding="utf-8")
    else:
        write_config(cfg, {"objective": dict(SPHERE_1D), **raw})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert cause in capsys.readouterr().err
    assert calls == []
    assert "cell (" not in caplog.text
    assert not out.exists()


def test_seed_is_not_a_size(tmp_path):
    # a seed past int64 only seeds the streams, so it runs; the size keys are capped
    cfg = write_config(tmp_path / "c.yaml", {"objective": dict(SPHERE_1D), "seed": 10**30,
                                             "bo": {"init_count": 2, "iterations": 1}})
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == EXIT_OK


def _record_objective_calls(monkeypatch, record):
    """Patch bench.make_objective so that every evaluation first appends
    `record()` to the returned list."""
    seen = []
    real = bench.make_objective

    def make_objective(spec, seed):
        fn = real(spec, seed)
        return lambda x: seen.append(record()) or fn(x)

    monkeypatch.setattr(bench, "make_objective", make_objective)
    return seen


def _count_evaluations(monkeypatch):
    """A list that gains one item per objective evaluation."""
    return _record_objective_calls(monkeypatch, lambda: 1)


def test_non_integer_env_seed_exits_2_before_any_evaluation(tmp_path, capsys, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    monkeypatch.setenv("SWARMBO_SEED", "abc")
    cfg = write_config(tmp_path / "c.yaml", {"objective": dict(SPHERE_1D)})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
    assert "SWARMBO_SEED: expected an integer, got 'abc'" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_config_not_utf8_exits_2_before_any_evaluation(tmp_path, capsys, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    cfg = tmp_path / "c.yaml"
    cfg.write_bytes(b"objective: {name: sphere, dims: 1, negate: true}\n# \xff\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "cannot read config: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv, env", [(["--seed", "-1"], None), ([], "-1")],
                         ids=["flag", "env"])
def test_negative_seed_exits_2_before_any_evaluation(tmp_path, capsys, monkeypatch, argv, env):
    calls = _count_evaluations(monkeypatch)
    if env is not None:
        monkeypatch.setenv("SWARMBO_SEED", env)
    cfg = write_config(tmp_path / "c.yaml", {"objective": dict(SPHERE_1D)})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out), *argv]) == EXIT_CONFIG
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_seed_flag_is_run_only(tmp_path, capsys, command):
    # compare and sweep take their seeds from the config; a flag they ignore is a usage error
    cfg = write_config(tmp_path / "c.yaml", {"objective": dict(SPHERE_1D)})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--output-dir", str(tmp_path / "o"), "--seed", "5"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path / "c.yaml", {"objective": dict(SPHERE_1D)})
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o"), "--jobs", jobs])
    assert exc.value.code == EXIT_CONFIG
    assert f"argument --jobs: expected an integer >= 1, got '{jobs}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_baseline_objective_failure_exits_1(tmp_path, capsys, monkeypatch):
    def diverge(x):
        raise ValueError("solver diverged")

    monkeypatch.setattr(bench, "make_objective", lambda spec, seed: diverge)
    cfg = write_config(tmp_path / "c.yaml", {
        "objective": dict(SPHERE_1D),
        "experiment": _experiment({"kind": "random_search"}, {"kind": "grid_search"}),
    })
    assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime error: objective evaluation 0 failed: solver diverged" in err


@pytest.mark.parametrize("error", [ValueError, TypeError])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_error_raised_mid_run_exits_1(tmp_path, capsys, monkeypatch, command, error):
    # exit 2 means "fix the config": a ValueError or TypeError raised after the
    # initial design's evaluations is a runtime failure, whatever its type
    calls = _count_evaluations(monkeypatch)

    def evaluate(*args):
        raise error("surface broke")

    monkeypatch.setattr(boloop, "evaluate", evaluate)
    cfg = write_config(tmp_path / "c.yaml", {
        "objective": dict(SPHERE_1D), "bo": {"init_count": 3},
        "experiment": _experiment({"kind": "pso_bo"}, {"kind": "random_search"}),
    })
    assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "o")]) == EXIT_RUNTIME
    assert "runtime error: surface broke" in capsys.readouterr().err
    # run: the initial design; compare: pso_bo's design on both seeds, then random search
    assert len(calls) == (3 if command == "run" else 2 * 3 + 2 * 8)


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.special", "scipy.linalg"])
def test_cli_import_leaves_scipy_module_out(module):
    # only EI and PI need scipy.special (erfc), and import it on first use; gp
    # loads scipy's LAPACK extension from its file, without scipy.linalg
    code = f"import sys, swarmbo.cli; print({module!r} in sys.modules)"
    assert run_fresh_interpreter(code) == "False"


def test_ucb_run_leaves_scipy_linalg_out(tmp_path, run_config):
    # a whole run, its LAPACK calls and its BLAS-thread pin included, still has
    # no scipy.linalg: the import saved at start-up is not moved into the run
    argv = ["run", "--config", run_config, "--output-dir", str(tmp_path / "o")]
    code = f"import sys; from swarmbo import cli; print(cli.main({argv!r}), 'scipy.linalg' in sys.modules)"
    assert run_fresh_interpreter(code).splitlines()[-1] == "0 False"
    assert load_result(tmp_path / "o")["n_evaluations"] == 6


@pytest.mark.parametrize("command, jobs", [("compare", "1"), ("sweep", "1"),
                                           ("compare", "4"), ("sweep", "3")])
def test_cells_run_on_the_calling_thread(tmp_path, compare_config, monkeypatch, command, jobs):
    # at --jobs 1 every evaluation is on main's thread; above it, only proposals
    # leave the process, and every evaluation stays in it, on the cells' threads
    calls = _record_objective_calls(monkeypatch, lambda: (os.getpid(), threading.get_ident()))
    sweep = {"omegas": [0.3, 0.6], "seeds": [0, 1], "budget": 8}
    cfg = compare_config if command == "compare" else write_config(
        tmp_path / "s.yaml", {"objective": dict(SPHERE_1D), "sweep": sweep})
    assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "o"),
                 "--jobs", jobs]) == EXIT_OK
    assert len(calls) == (3 if command == "compare" else 2) * 2 * 8
    assert {pid for pid, _ in calls} == {os.getpid()}
    if jobs == "1":
        assert {thread for _, thread in calls} == {threading.get_ident()}


def test_cli_import_leaves_pool_modules_out():
    # the pool's modules are imported by the first experiment that starts one
    code = ("import sys, swarmbo.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))")
    assert run_fresh_interpreter(code) == "[]"


def _pool_starts(monkeypatch) -> list:
    """A list that gains the worker count of every process pool started."""
    import concurrent.futures

    starts, real = [], concurrent.futures.ProcessPoolExecutor

    def start(workers, *args, **kwargs):
        starts.append(workers)
        return real(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", start)
    return starts


def test_run_and_one_cell_start_no_pool(tmp_path, run_config, monkeypatch):
    starts = _pool_starts(monkeypatch)
    assert main(["run", "--config", run_config, "--output-dir", str(tmp_path / "o"),
                 "--jobs", "2"]) == EXIT_OK
    spec = ObjectiveSpec(**SPHERE_1D)
    run_experiment([MethodSpec(PSO_BO)], spec, [0], 8, jobs=2)
    assert starts == []
    run_experiment([MethodSpec(PSO_BO)], spec, [0, 1], 8, jobs=10**9)
    assert starts == ([2] if bench.pool_size(2, 2) == 2 else [])


@pytest.mark.skipif(bench.pool_size(2, 4) < 2, reason="one usable CPU: no pool")
@pytest.mark.parametrize("fault", [None, "failed cell", "broken pool"])
def test_sweep_leaves_no_child_process(tmp_path, monkeypatch, capsys, fault):
    parent, real = os.getpid(), boloop.propose_next

    def propose_next(config, *args, **kwargs):
        assert os.getpid() != parent  # a worker runs every proposal
        if config.seed == 1 and fault == "failed cell":
            raise ValueError("surface broke")
        if config.seed == 1 and fault == "broken pool":
            os._exit(1)  # the worker dies
        return real(config, *args, **kwargs)

    monkeypatch.setattr(boloop, "propose_next", propose_next)
    sweep = {"omegas": [0.3, 0.6], "seeds": [0, 1], "budget": 8}
    cfg = write_config(tmp_path / "s.yaml", {"objective": dict(SPHERE_1D), "sweep": sweep})
    start = time.perf_counter()
    code = main(["sweep", "--config", cfg, "--output-dir", str(tmp_path / "o"), "--jobs", "2"])
    assert time.perf_counter() - start < 30  # a broken pool fails every cell at once
    assert multiprocessing.active_children() == []
    assert code == (EXIT_OK if fault is None else EXIT_RUNTIME)
    if fault == "broken pool":
        # every cell failed, so the first cell's error is the command's
        assert "runtime error: A process in the process pool was terminated abruptly" in \
            capsys.readouterr().err


def _worker_blas_threads():
    return gp._blas_thread_functions()[0]()


def _scipy_openblas():
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name") == "scipy-openblas"


@pytest.mark.skipif(not _scipy_openblas(), reason="scipy's BLAS is not scipy-openblas")
class TestOneBlasThread:
    """main runs every command with scipy's OpenBLAS on one thread and restores
    the caller's thread count on every exit."""

    PRIOR = 2  # set before each test, so that a restored count shows on a 1-CPU machine

    @pytest.fixture(autouse=True)
    def blas_threads(self):
        get, put = gp._blas_thread_functions()
        original = get()
        put(self.PRIOR)
        try:
            yield get
        finally:
            put(original)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_one_thread_inside_every_cell(self, tmp_path, run_config, compare_config,
                                          monkeypatch, blas_threads, command):
        counts = _record_objective_calls(monkeypatch, blas_threads)
        cfg = run_config if command == "run" else compare_config
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "o"),
                     "--jobs", "4"]) == EXIT_OK
        assert len(counts) == (6 if command == "run" else 3 * 2 * 8)
        assert set(counts) == {1}
        assert blas_threads() == self.PRIOR

    def test_restored_after_runtime_error(self, tmp_path, run_config, monkeypatch, blas_threads):
        counts = []

        def diverge(x):
            counts.append(blas_threads())
            raise ValueError("solver diverged")

        monkeypatch.setattr(bench, "make_objective", lambda spec, seed: diverge)
        assert main(["run", "--config", run_config,
                     "--output-dir", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert counts == [1]
        assert blas_threads() == self.PRIOR

    def test_restored_after_config_error(self, tmp_path, capsys, blas_threads):
        cfg = write_config(tmp_path / "c.yaml", {"objective": dict(SPHERE_1D), "bo": {"x": 1}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "unknown key(s) ['x']" in capsys.readouterr().err
        assert blas_threads() == self.PRIOR

    @pytest.mark.skipif(bench.pool_size(2, 2) < 2, reason="one usable CPU: no pool")
    def test_pool_worker_runs_one_blas_thread(self, monkeypatch, blas_threads):
        # the library pins its own workers, whatever the caller's count
        counts, real = [], bench.run_method_cell

        def run_method_cell(*args):
            counts.append(boloop._proposals.pool.submit(_worker_blas_threads).result())
            return real(*args)

        monkeypatch.setattr(bench, "run_method_cell", run_method_cell)
        run_experiment([MethodSpec(PSO_BO)], ObjectiveSpec(**SPHERE_1D), [0, 1], 8, jobs=2)
        assert counts == [1, 1]
        assert blas_threads() == self.PRIOR

    def test_without_the_symbols_nothing_changes(self, tmp_path, compare_config, monkeypatch,
                                                 blas_threads):
        pinned, unpinned = tmp_path / "pinned", tmp_path / "unpinned"
        argv = ["compare", "--config", compare_config, "--output-dir"]
        assert main([*argv, str(pinned)]) == EXIT_OK
        monkeypatch.setattr(gp, "_lapack_library", lambda: types.SimpleNamespace())
        assert gp._blas_thread_functions() is None
        counts = _record_objective_calls(monkeypatch, blas_threads)
        assert main([*argv, str(unpinned)]) == EXIT_OK
        assert set(counts) == {self.PRIOR}
        assert (pinned / "report.json").read_bytes() == (unpinned / "report.json").read_bytes()
