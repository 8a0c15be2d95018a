"""Shared test helpers."""

import csv
from dataclasses import replace

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
