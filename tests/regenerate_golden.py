"""Golden outputs: the exact CLI outputs of a few small configs, committed
under tests/golden/<case>/ next to the config that made them.

tests/test_golden.py runs every case again and compares its files with these.
After a change that moves an output on purpose, rewrite them with

    PYTHONPATH=src python tests/regenerate_golden.py

and say in CHANGES.md why the outputs moved; the diff of tests/golden/ then
shows by how much.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import yaml

from swarmbo.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

BRANIN = {"name": "branin", "dims": 2, "negate": True}

# case -> (command, config); the first three are acceptance criteria 7, 8 and 9
CASES = {
    "criterion7_sweep": ("sweep", {
        "objective": BRANIN,
        "sweep": {"omegas": [round(0.1 * k, 1) for k in range(1, 10)], "seeds": [0, 1],
                  "budget": 12},
    }),
    "criterion8_run": ("run", {
        "objective": BRANIN,
        "bo": {"init_count": 5, "iterations": 5},
        "seed": 13,
    }),
    "criterion9_compare": ("compare", {
        "objective": {"name": "sphere", "dims": 2, "negate": True},
        "experiment": {
            "methods": [{"kind": "pso_bo"}, {"kind": "random_search"},
                        {"kind": "local_bo", "restarts": 3, "max_steps": 30},
                        {"kind": "grid_search", "points_per_dim": 3}],
            "seeds": [0, 1, 2],
            "budget": 9,
        },
    }),
    "hartmann3_ei_compare": ("compare", {
        "objective": {"name": "hartmann3", "dims": 3, "negate": True},
        "acquisition": {"kind": "ei"},
        "experiment": {
            "methods": [{"kind": "pso_bo"}, {"kind": "random_search"},
                        {"kind": "local_bo", "restarts": 3, "max_steps": 30},
                        {"kind": "grid_search", "points_per_dim": 3}],
            "seeds": [0, 1],
            "budget": 10,
        },
    }),
    "integer_styblinski_tang_run": ("run", {
        "objective": {"name": "styblinski_tang", "dims": 3, "negate": True},
        "space": [{"name": "a", "type": "integer", "lower": -5.0, "upper": 5.0},
                  {"name": "b", "type": "real", "lower": -5.0, "upper": 5.0},
                  {"name": "c", "type": "integer", "lower": -4.5, "upper": 4.5}],
        "acquisition": {"kind": "ei"},
        "bo": {"init_count": 1, "iterations": 7},
        "seed": 2,
    }),
    "noisy_pi_run": ("run", {
        "objective": {**BRANIN, "noise_std": 0.5},
        "acquisition": {"kind": "pi"},
        "bo": {"init_count": 4, "iterations": 6},
        "seed": 3,
    }),
}


def run_case(name, out_dir: Path):
    """Run case `name` through the CLI into out_dir, which must not exist yet,
    with its config as out_dir/config.yaml. result.json loses its `metadata`
    (host and time), as the determinism contract leaves it out."""
    command, config = CASES[name]
    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config_path), "--output-dir", str(out_dir)])
    if code != EXIT_OK:
        raise RuntimeError(f"golden case {name}: swarmbo {command} exited {code}")
    result = out_dir / "result.json"
    if result.exists():
        data = json.loads(result.read_text(encoding="utf-8"))
        del data["metadata"]
        result.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case in CASES:
        run_case(case, GOLDEN / case)
        print(f"wrote {GOLDEN / case}")
