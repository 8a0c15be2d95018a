import json

import pytest
import yaml

from swarmbo.bench import (
    MethodSpec,
    ObjectiveSpec,
    PSO_BO,
    RANDOM_SEARCH,
    default_space,
    omega_sweep,
    read_report_csv,
    run_experiment,
)
from swarmbo.boloop import BoConfig
from swarmbo.cli import EXIT_CONFIG, EXIT_OK, main
from swarmbo.gp import FitBounds
from swarmbo.pso import PsoParams

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
        assert rows == omega_sweep(spec, omegas, [0, 1], 8, config=config)
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
