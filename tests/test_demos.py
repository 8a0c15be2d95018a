"""The demos run against the public API; an API change that breaks one fails here.

Demos 01 and 02 run in a few seconds. Demo 03 runs the full criterion-6
comparison (about 11 s on 2 CPUs), so here it is only compiled; the CI workflow
runs it end to end in a step of its own.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_particle_swarm_basics.py",
                                  "02_bayesian_optimization_branin.py"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue()


def test_comparison_demo_compiles():
    path = DEMOS / "03_method_comparison.py"
    compile(path.read_text(encoding="utf-8"), str(path), "exec")
