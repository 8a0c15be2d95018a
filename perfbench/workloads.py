"""The benchmark's workloads, the objective-boundary clock and the
correctness gates.

Each workload is a function of the workload seed only: it fixes which cell
seeds a run uses, and each workload runs a fixed number of them. The program
sees only the generated config.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Patches

COMPARE = "branin-compare"
SWEEP = "branin-sweep-jobs2"
WORKLOADS = (COMPARE, SWEEP)

BRANIN_OPTIMUM = -0.39788735772973816  # max of negated Branin
BUDGET = 35
INIT_COUNT = 5
OMEGAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
METHODS = [
    {"kind": "pso_bo"},
    {"kind": "local_bo", "restarts": 10, "max_steps": 200},
    {"kind": "random_search"},
    {"kind": "grid_search", "points_per_dim": 10},
]
BO_KINDS = ("pso_bo", "local_bo")
# Quality gate, after the paper's comparison as the acceptance tests state it
# (criterion 6): each BO method's AVE is within REGRET_LIMIT of the optimum,
# and PSO-BO's AVE is at least random and grid search's. The tests also ask
# PSO-BO to beat local_bo; that needs their ten seeds, and on five cell seeds
# local_bo sometimes wins, so it is not gated here.
REGRET_LIMIT = 0.15

# Cell seeds per run: one compare row of four methods costs about 8.5 s on a
# 2-CPU machine, one sweep row of nine omegas at --jobs 2 about 22 s.
CELL_SEEDS = {COMPARE: 5, SWEEP: 1}
# cell seeds of workload seed s are SEED_STRIDE*s, SEED_STRIDE*s + 1, ...
SEED_STRIDE = 1000


def cell_seeds(workload: str, seed: int) -> list[int]:
    return [SEED_STRIDE * seed + i for i in range(CELL_SEEDS[workload])]


def make_config(workload: str, seeds: list[int]) -> dict:
    """The YAML config of one workload body, in the `swarmbo` CLI schema."""
    objective = {"name": "branin", "dims": 2, "negate": True}
    if workload == COMPARE:
        return {
            "objective": objective,
            "bo": {"init_count": INIT_COUNT},
            "experiment": {"methods": METHODS, "seeds": seeds, "budget": BUDGET},
        }
    return {
        "objective": objective,
        "sweep": {"omegas": OMEGAS, "seeds": seeds, "budget": BUDGET},
    }


# The warm-up body: the same command on a few short cells, untimed.
WARMUP_BUDGET = 8
WARMUP_METHODS = [
    {"kind": "pso_bo"},
    {"kind": "local_bo", "restarts": 2, "max_steps": 20},
]


def make_warmup_config(workload: str) -> dict:
    objective = {"name": "branin", "dims": 2, "negate": True}
    if workload == COMPARE:
        return {
            "objective": objective,
            "bo": {"init_count": INIT_COUNT},
            "experiment": {"methods": WARMUP_METHODS, "seeds": [0, 1], "budget": WARMUP_BUDGET},
        }
    return {
        "objective": objective,
        "sweep": {"omegas": [0.5, 0.9], "seeds": [0], "budget": WARMUP_BUDGET},
    }


def _cli_argv(workload: str, config_path: Path, out_dir: Path) -> list[str]:
    command = "compare" if workload == COMPARE else "sweep"
    jobs = "1" if workload == COMPARE else "2"
    return [command, "--config", str(config_path), "--output-dir", str(out_dir), "--jobs", jobs]


def warm_up(workload: str, config_path: Path, out_dir: Path):
    """Run a short untimed body first, so that first-call costs (lazy imports,
    allocator and BLAS start-up) do not land in the timed untraced body."""
    from swarmbo import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(_cli_argv(workload, config_path, out_dir))
    if code != 0:
        raise RuntimeError(f"warm-up body exited with code {code}")


class ObjectiveClock:
    """Objective wrapper that records what one cell evaluated and when.

    The gap between one objective return and the next call, from the first
    BO-phase evaluation on, is one proposal latency.
    """

    def __init__(self, fn, key, bo_from=None):
        self.fn = fn
        self.key = key  # (method kind, omega or None, cell seed)
        self.bo_from = bo_from
        self.points = []
        self.values = []
        self.gaps = []
        self._returned = None

    def __call__(self, x):
        start = time.perf_counter()
        if self.bo_from is not None and len(self.values) >= self.bo_from:
            self.gaps.append(start - self._returned)
        self.points.append(tuple(np.asarray(x, dtype=float).tolist()))
        y = self.fn(x)
        self.values.append(y)
        self._returned = time.perf_counter()
        return y


def _clock_cli_cells(patches: Patches, clocks: list):
    """Wrap each objective the experiment harness builds in an ObjectiveClock."""
    from swarmbo import bench

    current = threading.local()  # the cell a pool thread is running

    def run_method_cell(fn):
        def wrapped(method, *args, **kwargs):
            current.cell = (method.kind, method.pso.omega if method.pso else None)
            return fn(method, *args, **kwargs)
        return wrapped

    def make_objective(fn):
        def wrapped(spec, seed):
            kind, omega = current.cell
            clock = ObjectiveClock(fn(spec, seed), (kind, omega, seed),
                                   INIT_COUNT if kind in BO_KINDS else None)
            clocks.append(clock)
            return clock
        return wrapped

    patches.replace(bench, "run_method_cell", run_method_cell)
    patches.replace(bench, "make_objective", make_objective)


@dataclass
class Body:
    """Outcome of one execution of a workload body."""

    wall_s: float
    cpu_s: float
    clocks: list
    expected: list  # cell keys the body should produce
    errors: list[str] = field(default_factory=list)  # failed correctness gates
    failed: list = field(default_factory=list)  # cell keys that raised or are missing
    regret: dict = field(default_factory=dict)  # method kind -> optimum - AVE
    output_bytes: int = 0

    def bests(self) -> dict:
        return {c.key: max(c.values) for c in self.clocks if c.values}


def run_body(workload: str, seeds: list[int], config_path: Path, out_dir: Path,
             instrument=None) -> Body:
    """Run one workload body, timing only the program, then check its outputs.

    `instrument(patches)`, if given, installs tracing for the body only.
    """
    from swarmbo import cli

    clocks = []
    patches = Patches()
    _clock_cli_cells(patches, clocks)
    if instrument is not None:
        instrument(patches)
    try:
        # the CLI's own summary table goes to a buffer, not the result stream
        with contextlib.redirect_stdout(io.StringIO()):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            code = cli.main(_cli_argv(workload, config_path, out_dir))
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        patches.undo()

    if workload == COMPARE:
        expected = [(m["kind"], None, s) for m in METHODS for s in seeds]
    else:
        expected = [("pso_bo", w, s) for w in OMEGAS for s in seeds]
    body = Body(wall_s=wall, cpu_s=cpu, clocks=clocks, expected=expected)
    if code != 0:
        body.errors.append(f"swarmbo exited with code {code}")
        body.failed = list(expected)
    elif workload == COMPARE:
        _check_compare(body, out_dir / "report.json")
    else:
        _check_sweep(body, seeds, out_dir / "sweep.csv")
    _check_cells(body, BUDGET)
    _check_quality(body)
    body.output_bytes = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return body


def _check_cells(body: Body, budget: int):
    """Budget parity and finite bests, from what each objective saw."""
    seen = {c.key: c for c in body.clocks}
    for key in body.expected:
        if key in body.failed:
            continue
        clock = seen.get(key)
        if clock is None or not clock.values:
            body.failed.append(key)
            continue
        if len(clock.values) != budget:
            body.errors.append(f"cell {key}: {len(clock.values)} evaluations, budget {budget}")
        if not math.isfinite(max(clock.values)):
            body.errors.append(f"cell {key}: best is not finite")
    if len(seen) != len(body.clocks) or set(seen) - set(body.expected):
        body.errors.append("objective clocks do not match the expected cells")


def _check_quality(body: Body):
    """Regret of every BO method within REGRET_LIMIT; PSO-BO no worse than
    the non-model baselines."""
    for kind in BO_KINDS:
        if kind in body.regret and not body.regret[kind] <= REGRET_LIMIT:
            body.errors.append(f"regret.{kind} {body.regret[kind]:.6g} exceeds {REGRET_LIMIT}")
    pso = body.regret.get("pso_bo")
    for kind in ("random_search", "grid_search"):
        if pso is not None and kind in body.regret and not pso <= body.regret[kind]:
            body.errors.append(f"regret.pso_bo {pso:.6g} is worse than regret.{kind} "
                               f"{body.regret[kind]:.6g}")


def _check_compare(body: Body, report_path: Path):
    if not report_path.is_file():
        body.errors.append("compare wrote no report.json")
        return
    report = json.loads(report_path.read_text(encoding="utf-8"))
    bests = body.bests()
    for m in report["methods"]:
        for seed in m["missing_seeds"]:
            if (m["kind"], None, seed) not in body.failed:
                body.failed.append((m["kind"], None, seed))
        for seed, count in m["eval_counts"].items():
            if count != report["budget"]:
                body.errors.append(f"{m['kind']} seed {seed}: eval_counts {count} != budget")
        for seed, best in m["per_seed_best"].items():
            if best != bests.get((m["kind"], None, int(seed))):
                body.errors.append(f"{m['kind']} seed {seed}: report best differs from the objective's")
        if m["per_seed_best"]:
            body.regret[m["kind"]] = BRANIN_OPTIMUM - m["ave"]


def _check_sweep(body: Body, seeds, sweep_path: Path):
    if not sweep_path.is_file():
        body.errors.append("sweep wrote no sweep.csv")
        return
    with open(sweep_path, encoding="utf-8", newline="") as fh:
        rows = [(float(r["omega"]), float(r["ave_best"])) for r in csv.DictReader(fh)]
    bests = body.bests()
    if [w for w, _ in rows] != OMEGAS:
        body.errors.append("sweep.csv omegas differ from the config")
    for omega, ave in rows:
        cell = [bests.get(("pso_bo", omega, s)) for s in seeds]
        # omega_sweep averages in seed order; the same sum must reproduce it
        if None in cell or sum(cell) / len(cell) != ave:
            body.errors.append(f"sweep.csv omega={omega}: ave_best differs from the objective's")
    if bests:
        body.regret["pso_bo"] = BRANIN_OPTIMUM - sum(bests.values()) / len(bests)
