"""Shared test helpers."""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import swarmbo
from swarmbo.bench import PSO_BO, MethodSpec
from swarmbo.pso import PsoParams


def read_report_csv(path) -> list[dict]:
    """The rows of a report.csv, with MAX/MIN/AVE parsed back to floats."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            {"method": row["method"], "max": float(row["max"]),
             "min": float(row["min"]), "ave": float(row["ave"])}
            for row in csv.DictReader(fh)
        ]


def sweep_methods(omegas, pso=PsoParams()) -> list[MethodSpec]:
    """The methods `swarmbo sweep` runs: PSO-BO with `pso` and each omega in turn."""
    return [MethodSpec(PSO_BO, pso=replace(pso, omega=w)) for w in omegas]


def run_fresh_interpreter(code) -> str:
    """The stripped standard output of `python -c code` in a fresh interpreter
    that imports swarmbo from the same source tree as this one."""
    src = str(Path(swarmbo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    return result.stdout.strip()
