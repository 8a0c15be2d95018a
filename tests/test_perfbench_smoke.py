"""Smoke test of the entry points that perfbench/ patches from outside `src/`.

The benchmark wraps module attributes (`bench.run_method_cell`,
`bench.make_objective`, `gp.run_pso`, `boloop.run_pso`, ...) and counts the
evaluations of every cell in the process that runs the CLI. A renamed entry
point, or cells run in another process, makes these wrappers see nothing.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import yaml

from swarmbo.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BUDGET = 8


def _run(tmp_path, command, config, jobs):
    cfg = tmp_path / f"{command}.yaml"
    cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--output-dir", str(tmp_path / command),
            "--jobs", jobs]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK


def test_patched_entry_points_clock_every_cell(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer, patches, clocks = tracing.Tracer(), tracing.Patches(), []
    workloads._clock_cli_cells(patches, clocks)
    tracing.install(tracer, patches)
    objective = {"name": "branin", "dims": 2, "negate": True}
    try:
        _run(tmp_path, "compare", {
            "objective": objective,
            "bo": {"init_count": 5},
            "experiment": {"methods": [{"kind": "pso_bo"},
                                       {"kind": "local_bo", "restarts": 2, "max_steps": 20},
                                       {"kind": "random_search"},
                                       {"kind": "grid_search", "points_per_dim": 2}],
                           "seeds": [0, 1], "budget": BUDGET},
        }, "1")
        _run(tmp_path, "sweep", {
            "objective": objective,
            "sweep": {"omegas": [0.5, 0.9], "seeds": [0], "budget": BUDGET},
        }, "2")
    finally:
        patches.undo()

    keys = sorted((c.key for c in clocks), key=repr)
    expected = [(kind, None, s) for kind in ("pso_bo", "local_bo", "random_search", "grid_search")
                for s in (0, 1)] + [("pso_bo", w, 0) for w in (0.5, 0.9)]
    assert keys == sorted(expected, key=repr)
    assert all(len(c.values) == BUDGET for c in clocks)
    spans, _ = tracer.merged()
    for name in ("bench.cell.pso_bo", "bench.cell.grid_search", "pso.hyper", "pso.acq",
                 "bench.local_ascent", "gp.fit_model"):
        assert spans.get(name, (0,))[0] > 0, name


def test_setup_probe_reads_a_compare_config(tmp_path):
    # the probe times `setup_s` before every benchmark run, in an interpreter of
    # its own, on the plain mapping that cli.load_config returns
    cfg = tmp_path / "compare.yaml"
    cfg.write_text(yaml.safe_dump({
        "objective": {"name": "branin", "dims": 2, "negate": True},
        "experiment": {"methods": [{"kind": "pso_bo"}, {"kind": "random_search"}],
                       "seeds": [0, 1], "budget": BUDGET},
    }), encoding="utf-8")
    result = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(cfg)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    times = json.loads(result.stdout.splitlines()[-1])
    assert set(times) == {"import_s", "load_config_s", "space_s"}
    assert all(t >= 0 for t in times.values())
