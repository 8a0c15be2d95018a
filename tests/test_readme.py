"""The README's examples run against the current API: its Python blocks execute,
and its example config loads through the CLI's parsers."""

import contextlib
import io
import re
from pathlib import Path

from swarmbo.bench import ObjectiveSpec
from swarmbo.cli import _SECTIONS, _parse_bo_config, _parse_methods, load_config

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


def test_example_config_parses(tmp_path):
    (block,) = re.findall(r"Example config covering all sections:\n\n```yaml\n(.*?)```", README,
                          re.DOTALL)
    path = tmp_path / "example.yaml"
    path.write_text(block, encoding="utf-8")
    raw = load_config(path)
    assert set(raw) == set(_SECTIONS) - {"output_dir"}
    spec = ObjectiveSpec(**raw["objective"])
    config = _parse_bo_config(raw, spec, raw["seed"])
    assert [d.name for d in config.space.dims] == ["x0", "x1"] and config.iterations == 30
    assert [m.kind for m in _parse_methods(raw["experiment"]["methods"])] == [
        "pso_bo", "random_search", "local_bo"]
