"""Synthetic benchmark objectives, baseline optimizers and the repeated-trial
experiment harness with MAX/MIN/AVE reporting.

Every method in one experiment consumes exactly the same number of objective
evaluations (budget parity is asserted in the report).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import logging
import math
import numbers
import os
import signal
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import boloop, gp
from .boloop import BoConfig, BoResult, component_rng, observe, run_bo
from .pso import PsoParams
from .space import (
    ConfigError,
    Dimension,
    DimensionMismatchError,
    INTEGER,
    REAL,
    SearchSpace,
    check_finite,
    check_size,
    # unused here (local_ascent clips its floats itself, baselines evaluate through
    # boloop.observe); kept as bench.clamp and bench.materialize, perfbench's tracer patches them
    clamp,
    materialize,
    sample_uniform,
)

log = logging.getLogger(__name__)

PSO_BO = "pso_bo"
LOCAL_BO = "local_bo"
RANDOM_SEARCH = "random_search"
GRID_SEARCH = "grid_search"

GRID_CAP = 10**6


# ---------------------------------------------------------------------------
# objectives

def _sphere(x):
    return float(np.sum(x * x))


def _rastrigin(x):
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def _branin(x):
    a, b, c = 1.0, 5.1 / (4.0 * np.pi**2), 5.0 / np.pi
    r, s, t = 6.0, 10.0, 1.0 / (8.0 * np.pi)
    return float(a * (x[1] - b * x[0] ** 2 + c * x[0] - r) ** 2 + s * (1 - t) * np.cos(x[0]) + s)


_H3_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_H3_A = np.array([[3.0, 10, 30], [0.1, 10, 35], [3.0, 10, 30], [0.1, 10, 35]])
_H3_P = np.array([
    [0.3689, 0.1170, 0.2673],
    [0.4699, 0.4387, 0.7470],
    [0.1091, 0.8732, 0.5547],
    [0.0381, 0.5743, 0.8828],
])


def _hartmann3(x):
    inner = np.sum(_H3_A * (x - _H3_P) ** 2, axis=1)
    return float(-np.sum(_H3_ALPHA * np.exp(-inner)))


def _styblinski_tang(x):
    return float(0.5 * np.sum(x**4 - 16.0 * x**2 + 5.0 * x))


# name -> (function, fixed arity or None, per-dim canonical bounds)
_OBJECTIVES = {
    "sphere": (_sphere, None, [(-5.0, 5.0)]),
    "rastrigin": (_rastrigin, None, [(-5.12, 5.12)]),
    "branin": (_branin, 2, [(-5.0, 10.0), (0.0, 15.0)]),
    "hartmann3": (_hartmann3, 3, [(0.0, 1.0)] * 3),
    "styblinski_tang": (_styblinski_tang, None, [(-5.0, 5.0)]),
}

OBJECTIVE_NAMES = tuple(_OBJECTIVES)


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    dims: int = 2
    noise_std: float = 0.0
    negate: bool = False  # maximize -f for minimization benchmarks

    def __post_init__(self):
        if self.name not in _OBJECTIVES:
            raise ConfigError(f"unknown objective {self.name!r}; choose from {OBJECTIVE_NAMES}")
        arity = _OBJECTIVES[self.name][1]
        if arity is not None and self.dims != arity:
            raise ConfigError(f"{self.name} requires dims={arity}, got {self.dims}")
        check_size("dims", self.dims, 1)
        check_finite("noise_std", self.noise_std)
        if not isinstance(self.negate, (bool, np.bool_)):
            # a string such as "no" would otherwise test true
            raise ConfigError(f"negate must be a bool, got {self.negate!r}")


def default_space(spec: ObjectiveSpec) -> SearchSpace:
    """Canonical box bounds for the named benchmark."""
    bounds = _OBJECTIVES[spec.name][2]
    if len(bounds) == 1:
        bounds = bounds * spec.dims
    return SearchSpace(
        Dimension(f"x{j}", REAL, lo, hi) for j, (lo, hi) in enumerate(bounds)
    )


def check_space_width(spec: ObjectiveSpec, space: SearchSpace):
    """Raise ConfigError unless `space` has one dimension per objective input."""
    if space.dim != spec.dims:
        raise ConfigError(f"space has {space.dim} dimensions, objective {spec.name!r} "
                          f"has dims={spec.dims}")


def eval_objective(spec: ObjectiveSpec, x, rng: np.random.Generator | None = None) -> float:
    """Evaluate (±)f(x) plus Gaussian observation noise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dims,):
        raise DimensionMismatchError(spec.dims, x.shape[-1] if x.ndim else 0)
    v = _OBJECTIVES[spec.name][0](x)
    if spec.negate:
        v = -v
    if spec.noise_std > 0:
        if rng is None:
            raise ValueError("noisy objective needs an rng")
        v += spec.noise_std * float(rng.standard_normal())
    return v


def make_objective(spec: ObjectiveSpec, seed: int):
    """Seeded callable wrapping eval_objective; noise stream derives from the seed."""
    rng = component_rng(seed, "noise") if spec.noise_std > 0 else None
    return lambda x: eval_objective(spec, x, rng)


# ---------------------------------------------------------------------------
# baselines

@dataclass(frozen=True)
class MethodSpec:
    kind: str
    pso: PsoParams | None = None  # PSO_BO only; None -> the config's pso
    restarts: int = 10  # LOCAL_BO
    max_steps: int = 200  # LOCAL_BO
    points_per_dim: int = 10  # GRID_SEARCH

    def __post_init__(self):
        reads = {PSO_BO: ("pso",), LOCAL_BO: ("restarts", "max_steps"), RANDOM_SEARCH: (),
                 GRID_SEARCH: ("points_per_dim",)}.get(self.kind)
        if reads is None:
            raise ConfigError(f"unknown method kind {self.kind!r}")
        for f in fields(self)[1:]:  # a field the kind never reads would be ignored
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name} does not apply to a {self.kind} method")
        check_size("restarts", self.restarts, 1)
        check_size("max_steps", self.max_steps, 0)
        check_size("points_per_dim", self.points_per_dim, 2)


def local_ascent(space: SearchSpace, surface, rng: np.random.Generator,
                 restarts: int = 10, max_steps: int = 200) -> np.ndarray:
    """Multi-start projected gradient ascent with central finite differences.

    Stand-in for gradient-based acquisition maximizers; the surface must
    accept an (n, d) batch and return (n,) values.

    Each restart starts at a uniform draw with step 0.1, takes the central
    difference gradient, and line-searches along it: a candidate that is
    strictly better is accepted (step x1.5, at most 0.5), else the step
    halves. A restart stops at a step <= 1e-10, a zero or non-finite gradient
    norm, or after `max_steps` accepted moves. All restarts advance in
    lockstep: each round is one surface call holding the 2d gradient probes
    of every restart that needs a gradient and the candidate of every restart
    in a line search. The winner is the first restart with the highest value.

    A surface's rows can depend on the batch they arrive in, so which rows
    share a round, and their order, is part of the result. Each restart's
    state is kept in Python floats: the rounds hold at most a few rows, where
    per-call numpy overhead would cost more than the arithmetic. Every float
    operation is the one numpy would do on the same values.
    """
    check_size("restarts", restarts, 1)
    check_size("max_steps", max_steps, 0)
    d = space.dim
    h = 1e-6 * space.ranges
    offsets = np.concatenate([h * np.eye(d), -(h * np.eye(d))]).tolist()  # x + h e_j, then x - h e_j
    # a zero h divides to a non-finite gradient, which stops the restart, as
    # it would under numpy; a NaN divisor gives that without a division error
    two_h = [t if t else math.nan for t in (2.0 * h).tolist()]
    bounds = list(zip(space.lower.tolist(), space.upper.tolist(), space.ranges.tolist()))
    x0 = np.array([sample_uniform(space, rng) for _ in range(restarts)])
    v = np.array(surface(x0), dtype=float).tolist()
    x = x0.tolist()
    step = [0.1] * restarts
    direction = [None] * restarts
    moves = [0] * restarts
    searching = [False] * restarts  # in a line search, else needs a gradient
    live = list(range(restarts)) if max_steps > 0 else []
    # invariant: a live restart has step > 1e-10, so a line search always
    # evaluates at least one candidate
    while live:
        grads = [i for i in live if not searching[i]]
        lines = [i for i in live if searching[i]]
        rows = [[a + o for a, o in zip(x[i], off)] for i in grads for off in offsets]
        cands = []
        for i in lines:
            s, cand = step[i], []
            for a, u, (lo, hi, r) in zip(x[i], direction[i], bounds):
                c = a + s * r * u
                cand.append((c if c < hi else hi) if c > lo else lo)  # np.clip, signed zeros too
            cands.append(cand)
        vals = np.asarray(surface(np.array(rows + cands)), dtype=float).tolist()

        stopped = set()
        if grads:
            # -inf minus -inf is NaN, and a non-finite norm stops the restart
            grad = [[(vals[k + j] - vals[k + d + j]) / two_h[j] for j in range(d)]
                    for k in range(0, len(rows), 2 * d)]
            g = np.array(grad)
            # one dot per row, the product np.linalg.norm takes for one restart
            sq = np.matmul(g[:, None, :], g[:, :, None]).ravel().tolist()
            for i, gi, q in zip(grads, grad, sq):
                norm = math.sqrt(q)
                if norm != 0.0 and math.isfinite(norm):
                    direction[i] = [c / norm for c in gi]
                    searching[i] = True
                else:
                    stopped.add(i)

        for i, cand, cv in zip(lines, cands, vals[len(rows):]):
            if cv > v[i]:
                x[i], v[i] = cand, cv
                step[i] = min(step[i] * 1.5, 0.5)
                moves[i] += 1
                searching[i] = False
                if moves[i] >= max_steps:
                    stopped.add(i)
            else:
                step[i] *= 0.5
                if not step[i] > 1e-10:
                    stopped.add(i)
        if stopped:
            live = [i for i in live if i not in stopped]
    # first highest value wins; a NaN value never does
    best = max(range(restarts), key=lambda i: -math.inf if math.isnan(v[i]) else v[i])
    return np.array(x[best])


def _propose(method, config, history, t, start):
    """boloop.propose_next for a pso_bo or local_bo `method`, maximized by local_ascent for
    local_bo; both read when called, so a pool worker, sent `method` as data, calls its own."""
    ascent = (functools.partial(local_ascent, restarts=method.restarts, max_steps=method.max_steps)
              if method.kind == LOCAL_BO else None)
    return boloop.propose_next(config, history, t, maximizer=ascent, start=start)


def grid_points(space: SearchSpace, points_per_dim: int):
    """Lazy Cartesian lattice of at most GRID_CAP points, counted before any axis
    is built; an integer dim with at most `points_per_dim` integers takes exactly those."""
    n_int = [math.floor(d.upper) - math.ceil(d.lower) + 1 if d.kind == INTEGER else math.inf
             for d in space.dims]
    total = math.prod(min(n, points_per_dim) for n in n_int)  # Python ints: an int64 product can wrap
    if total > GRID_CAP:
        raise ConfigError(f"grid of {total} points exceeds cap {GRID_CAP}")
    axes = [np.arange(math.ceil(d.lower), math.floor(d.upper) + 1, dtype=float) if n <= points_per_dim
            else np.linspace(d.lower, d.upper, points_per_dim) for d, n in zip(space.dims, n_int)]
    return map(np.array, itertools.product(*axes))


# ---------------------------------------------------------------------------
# experiment harness

@dataclass
class MethodReport:
    """One method's row: its finished cells by ascending seed, and the seeds that failed."""

    kind: str
    cells: dict[int, BoResult] = field(repr=False)
    missing_seeds: list[int]

    @property
    def per_seed_best(self) -> dict[int, float]:
        return {s: c.best_value for s, c in self.cells.items()}

    @property
    def eval_counts(self) -> dict[int, int]:
        return {s: c.n_evaluations for s, c in self.cells.items()}

    @property
    def max(self) -> float:
        return max(self.per_seed_best.values())

    @property
    def min(self) -> float:
        return min(self.per_seed_best.values())

    @property
    def ave(self) -> float:
        return sum(self.per_seed_best.values()) / len(self.cells)


@dataclass
class ExperimentReport:
    objective: ObjectiveSpec
    seeds: list[int]
    budget: int
    methods: list[MethodReport]

    def assert_budget_parity(self):
        counts = {n for m in self.methods for n in m.eval_counts.values()}
        if len(counts) > 1:
            raise AssertionError(f"objective-evaluation counts differ across methods: {sorted(counts)}")


class _CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return self.fn(x)


def run_method_cell(method: MethodSpec, objective_spec: ObjectiveSpec,
                    config: BoConfig, seed: int, budget: int, pool=None) -> BoResult:
    """Run one (method, seed) cell with exactly `budget` objective evaluations.

    `config` is the template of the BO settings: a BO cell runs it with its own
    `seed` and `iterations = budget - init_count`, with `method.pso` if set, and
    proposes in `pool`, a process pool, if given. The baselines use only its
    space. Every kind returns its history's BoResult; `n_evaluations` counts calls.
    """
    objective = _CountingObjective(make_objective(objective_spec, seed))
    if method.kind in (PSO_BO, LOCAL_BO):
        config = replace(config, pso=method.pso or config.pso,
                         iterations=budget - config.init_count, seed=seed)
        step = functools.partial(_propose, method)
        # a pure function of its arguments: every stream is keyed by seed and step
        propose = step if pool is None else lambda *args, **kw: pool.submit(step, *args, **kw).result()
        result = run_bo(config, objective, propose=propose)
    else:
        # a baseline scans its lattice in order, then uniform draws, truncated to
        # the budget: grid search pads a small lattice, random search has no lattice
        space = config.space
        if method.kind == GRID_SEARCH:
            lattice, stream = grid_points(space, method.points_per_dim), "grid_pad"
        else:
            lattice, stream = (), RANDOM_SEARCH
        rng = component_rng(seed, stream)
        draws = (sample_uniform(space, rng) for _ in itertools.count())
        points = itertools.islice(itertools.chain(lattice, draws), budget)
        result = BoResult.from_history(
            [observe(space, objective, x, i, i, method.kind) for i, x in enumerate(points)], 1)
    return replace(result, n_evaluations=objective.count)


# cell threads of one pooled experiment, at most: one per proposing cell, so that
# every such cell keeps a proposal queued, without a thread each in a huge experiment
CELL_THREADS = 32


def pool_size(jobs: int, cells: int) -> int:
    """Worker processes for `cells` cells at `jobs`: no more than the CPUs this
    process may run on, nor than the cells."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return min(jobs, cpus or os.cpu_count() or 1, cells)


@contextlib.contextmanager
def _cell_results(jobs: int, cells, objective_spec, config, budget):
    """Yield an iterator over one zero-argument callable per (method, seed) cell
    of `cells`, in order, returning its run_method_cell result, run on the calling
    thread when called; where the proposing cells get two workers (see pool_size)
    and the platform forks, pso_bo and local_bo cells start at once on threads (at
    most CELL_THREADS) instead, and propose in a forked pool. Both pools shut down on exit.

    Every worker is forked before the first cell thread starts (forking a
    threaded process can copy a held lock): a fork-context pool forks all its
    workers in its first submit, before its manager thread (CPython gh-90622).
    """
    proposes = [m.kind in (PSO_BO, LOCAL_BO) for m, _ in cells]
    workers = pool_size(jobs, sum(proposes))
    inline = [functools.partial(run_method_cell, m, objective_spec, config, seed, budget)
              for m, seed in cells]  # a callable runs its cell when called
    if workers < 2 or not hasattr(os, "fork"):
        yield iter(inline)
        return
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
    from multiprocessing import get_context

    # a worker is the library's, so it runs on one BLAS thread (see gp.set_blas_threads)
    with ProcessPoolExecutor(workers, get_context("fork"),
                             initializer=functools.partial(gp.set_blas_threads, 1)) as pool:
        pool.submit(int).result()  # forks every worker; a failed start breaks the pool here
        threads = ThreadPoolExecutor(min(sum(proposes), CELL_THREADS))
        try:
            yield iter([threads.submit(cell, pool=pool).result if p else cell
                        for cell, p in zip(inline, proposes)])
        finally:
            # left early (an interrupt): start no queued cell or proposal, and wait
            # only for the proposals the workers run; a running BO cell then fails
            # at its next proposal. A second SIGINT waits until the workers are joined:
            # one that cuts the join short marks the pool's manager thread as
            # stopped (seen on CPython 3.11), and the process then hangs at exit.
            threads.shutdown(wait=False, cancel_futures=True)
            held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pool.shutdown(cancel_futures=True)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)


def run_experiment(methods: list[MethodSpec], objective_spec: ObjectiveSpec,
                   seeds: list[int], budget: int,
                   config: BoConfig | None = None, jobs: int = 1) -> ExperimentReport:
    """Run every method on every seed with identical budgets and aggregate.

    `config` holds the shared BO settings (default: the defaults over the
    objective's canonical space); each cell sets its `seed`, and its
    `iterations` to `budget - init_count`. Methods may share a kind (an omega
    sweep is PSO_BO methods that differ in `pso`); the report has one row per
    method, in order, holding the BoResult of each finished cell by seed. A
    failed (method, seed) cell is logged and its seed listed as missing, never
    silently averaged; a method that fails on every seed raises its first
    error once every cell has run.

    At `jobs` 1, or where the pso_bo and local_bo cells would get one worker
    (see pool_size), or without fork, cells run one after another, in method
    then seed order. Otherwise each pso_bo and local_bo cell runs on a thread of its
    own and each BO step's proposal (propose_next) in a forked worker process, random
    and grid search cells on the calling thread; every objective call stays in this
    process. The report is the same for any `jobs`; failures log in method-seed order.
    """
    if not methods:
        raise ConfigError("need at least one method (a sweep: at least one omega)")
    if not seeds:
        raise ConfigError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        # a row keys its cells by seed: a repeated seed would be one cell
        raise ConfigError(f"duplicate seeds in {list(seeds)}")
    if not all(s >= 0 for s in seeds):  # seeds are no sizes: uncapped
        raise ConfigError(f"seeds must be non-negative, got {list(seeds)}")
    if not all(isinstance(s, numbers.Integral) for s in seeds):
        raise ConfigError(f"seeds must be integers, got {list(seeds)}")
    check_size("budget", budget, 1)
    if config is None:
        config = BoConfig(space=default_space(objective_spec))
    check_space_width(objective_spec, config.space)
    if budget <= config.init_count and any(m.kind in (PSO_BO, LOCAL_BO) for m in methods):
        raise ConfigError("budget must exceed the initial-design size")
    for m in methods:
        if m.kind == GRID_SEARCH:
            grid_points(config.space, m.points_per_dim)  # raises here if over GRID_CAP
    check_size("jobs", jobs, 1)
    reports, errors = [], []
    pairs = [(m, seed) for m in methods for seed in seeds]
    with _cell_results(jobs, pairs, objective_spec, config, budget) as results:
        for i, m in enumerate(methods):
            cells, failed = {}, {}
            for seed in seeds:
                try:
                    cells[seed] = next(results)()
                except Exception as exc:
                    omega = "" if m.pso is None else f", omega={m.pso.omega!r}"
                    log.warning("cell (method %d: %s%s, seed=%d) failed: %s",
                                i, m.kind, omega, seed, exc)
                    failed[seed] = exc
            if not cells:
                errors.append(failed[seeds[0]])
            reports.append(MethodReport(m.kind, dict(sorted(cells.items())), sorted(failed)))
    if errors:
        raise errors[0]
    report = ExperimentReport(objective=objective_spec, seeds=sorted(seeds),
                              budget=budget, methods=reports)
    report.assert_budget_parity()
    return report


# ---------------------------------------------------------------------------
# report serialization

def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "objective": asdict(report.objective),
        "seeds": report.seeds,
        "budget": report.budget,
        "methods": [
            {
                "kind": m.kind,
                "max": m.max,
                "min": m.min,
                "ave": m.ave,
                "per_seed_best": {str(s): v for s, v in m.per_seed_best.items()},
                "eval_counts": {str(s): c for s, c in m.eval_counts.items()},
                "missing_seeds": m.missing_seeds,
            }
            for m in report.methods
        ],
    }


def write_report_json(report: ExperimentReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(report: ExperimentReport, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "max", "min", "ave"])
        for m in report.methods:
            writer.writerow([m.kind, repr(m.max), repr(m.min), repr(m.ave)])


def write_trace_csv(trace: np.ndarray, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "incumbent"])
        for i, v in enumerate(trace):
            writer.writerow([i, repr(float(v))])


def write_experiment_traces(report: ExperimentReport, out_dir):
    for m in report.methods:
        for seed, cell in m.cells.items():
            write_trace_csv(cell.incumbent_trace, Path(out_dir, f"trace_{m.kind}_{seed}.csv"))
