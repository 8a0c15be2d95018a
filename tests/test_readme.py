"""The README's examples run against the current API: its Python blocks execute,
and its example config builds through the CLI."""

import contextlib
import io
import re
from pathlib import Path

from swarmbo.acquisition import AcquisitionSpec
from swarmbo.bench import MethodSpec, ObjectiveSpec
from swarmbo.cli import _SECTIONS, _parse_bo_config, build_config
from swarmbo.gp import FitBounds
from swarmbo.pso import PsoParams

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 2
    namespace = {}  # the second block builds on the first's names
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert len(out.getvalue().splitlines()) == 3  # the run's best, then one line per method


def _example_config(tmp_path):
    (block,) = re.findall(r"Example config covering all sections:\n\n```yaml\n(.*?)```", README,
                          re.DOTALL)
    path = tmp_path / "example.yaml"
    path.write_text(block, encoding="utf-8")
    return path


def test_example_config_parses(tmp_path):
    sections = build_config(_example_config(tmp_path))
    assert set(sections) == set(_SECTIONS) - {"output_dir"}
    config = _parse_bo_config(sections, sections["seed"])
    assert [d.name for d in config.space.dims] == ["x0", "x1"] and config.iterations == 30
    assert [m.kind for m in sections["experiment"]["methods"]] == [
        "pso_bo", "random_search", "local_bo"]


def test_example_config_builds_every_section(tmp_path):
    sections = build_config(_example_config(tmp_path))
    assert sections["objective"] == ObjectiveSpec("branin", dims=2, noise_std=0.0, negate=True)
    assert sections["acquisition"] == AcquisitionSpec("ucb", gamma=2.0, xi=0.01)
    assert sections["pso"] == PsoParams()
    assert sections["gp"] == FitBounds((-3, 3), (-2, 2), (-8, 0))
    assert all(type(pair) is tuple for pair in vars(sections["gp"]).values())
    assert [(e.name, e.type, e.lower, e.upper) for e in sections["space"]] == [
        ("x0", "real", -5, 10), ("x1", "real", 0, 15)]
    assert sections["bo"] == {"init_count": 5, "iterations": 30, "noise_var": None}
    assert sections["experiment"]["methods"] == [
        MethodSpec("pso_bo"), MethodSpec("random_search"),
        MethodSpec("local_bo", restarts=10, max_steps=200)]
    assert sections["experiment"]["seeds"] == list(range(10))
    assert sections["sweep"] == {"omegas": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                                 "seeds": [0, 1], "budget": 35}
    assert sections["seed"] == 42

