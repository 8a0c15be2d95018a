"""Bayesian-optimization loop: initial design, acquisition maximization via
the particle swarm, observation, and model refresh.

All randomness derives from one root seed split into per-component streams,
so a full run is reproducible regardless of evaluation parallelism.
"""

from __future__ import annotations

import itertools
import logging
import numbers
import zlib
from dataclasses import dataclass

import numpy as np

from . import gp
from .acquisition import AcquisitionSpec, evaluate
from .pso import PsoParams, run_pso
from .space import ConfigError, SearchSpace, check_finite, check_size, materialize, sample_uniform

log = logging.getLogger(__name__)

INIT = "init"
BO = "bo"


class ObjectiveFailureError(Exception):
    def __init__(self, index, cause):
        super().__init__(f"objective evaluation {index} failed: {cause}")
        self.index = index
        self._cause = str(cause)  # text pickles, the cause itself may not

    def __reduce__(self):  # rebuilt from its arguments, so it crosses a process pool
        return type(self), (self.index, self._cause)


def component_rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream for one component of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


@dataclass(frozen=True)
class Observation:
    point: np.ndarray  # raw continuous iterate
    materialized: np.ndarray  # integer dims rounded; what the objective saw
    y: float
    iteration: int
    phase: str  # INIT or BO, or a baseline's method kind


@dataclass(frozen=True)
class BoConfig:
    space: SearchSpace
    acquisition: AcquisitionSpec = AcquisitionSpec()
    pso: PsoParams = PsoParams()
    init_count: int = 5
    iterations: int = 30
    seed: int = 0
    noise_var: float | None = None  # pin the observation-noise variance if known
    gp_bounds: gp.FitBounds = gp.FitBounds()

    def __post_init__(self):
        check_size("init_count", self.init_count, 1)
        check_size("iterations", self.iterations, 1)
        if not self.seed >= 0:  # a seed is no size: any non-negative integer seeds the streams
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.noise_var is not None:
            check_finite("noise_var", self.noise_var)


@dataclass(frozen=True)
class BoResult:
    best_point: np.ndarray  # materialized
    best_value: float
    history: list[Observation]
    incumbent_trace: np.ndarray
    n_evaluations: int

    @classmethod
    def from_history(cls, history: list[Observation], first: int) -> BoResult:
        """The record of a run: the best is the history's first maximum, and the
        trace the running maximum from row `first - 1` on (the initial design's
        best, then one row per BO step; a baseline's `first` is 1)."""
        best = max(history, key=lambda r: r.y)
        # Python's max keeps the earlier of equal values, as the best does
        trace = list(itertools.accumulate((r.y for r in history), max))[first - 1:]
        return cls(best_point=best.materialized, best_value=best.y, history=history,
                   incumbent_trace=np.array(trace), n_evaluations=len(history))


def observe(space, objective, x_raw, index, iteration, phase) -> Observation:
    """Evaluate the objective at x_raw, materialized, and record it: the one
    evaluation step of the BO loop and the baselines. The value must be a
    finite float, else ObjectiveFailureError names evaluation `index`."""
    x_mat = materialize(space, x_raw)
    try:
        y = float(objective(x_mat))
    except Exception as exc:
        raise ObjectiveFailureError(index, exc) from exc
    if not np.isfinite(y):
        # the GP cannot model it, and it would hide every later observation
        raise ObjectiveFailureError(index, f"non-finite value {y}")
    return Observation(point=np.asarray(x_raw, float), materialized=x_mat,
                       y=y, iteration=iteration, phase=phase)


def init_design(config: BoConfig, objective, rng: np.random.Generator) -> list[Observation]:
    """Uniform initial design of `init_count` evaluated points."""
    return [observe(config.space, objective, sample_uniform(config.space, rng), i, i, INIT)
            for i in range(config.init_count)]


def propose_next(config: BoConfig, history: list[Observation], t: int,
                 maximizer=None, start: gp.KernelParams | None = None,
                 ) -> tuple[np.ndarray, gp.KernelParams | None]:
    """Fit the surrogate and maximize the acquisition over the search space.

    Returns (point, kernel params): the surrogate's params, or `start` itself
    if the surrogate could not be factorized and the point is a random one.
    `start` warm-starts the hyperparameter fit (see gp.fit_hyperparams).
    `maximizer(space, surface, rng)` may replace the swarm (used by the
    local-ascent baseline); the surface is vectorized over row-batches, and the
    rng is the step's own stream, tagged "inner:{t}".
    """
    xs = np.array([r.point for r in history])
    ys = np.array([r.y for r in history])
    try:
        params = gp.fit_hyperparams(
            config.space, xs, ys, component_rng(config.seed, f"gpfit:{t}"),
            bounds=config.gp_bounds, noise_var=config.noise_var, start=start,
        )
        model = gp.fit_model(config.space, xs, ys, params)
    except gp.FactorizationFailureError:
        log.warning("surrogate factorization failed at step %d; falling back to random point", t)
        return sample_uniform(config.space, component_rng(config.seed, f"fallback:{t}")), start
    incumbent = float(np.max(ys))

    def surface(X):
        return evaluate(config.acquisition, model, X, incumbent)

    if maximizer is not None:
        return maximizer(config.space, surface, component_rng(config.seed, f"inner:{t}")), model.params
    result = run_pso(config.space, config.pso, surface, component_rng(config.seed, f"pso:{t}"))
    return result.best_position, model.params


def bo_step(history: list[Observation], config: BoConfig, objective, t: int,
            propose=None, start: gp.KernelParams | None = None,
            ) -> gp.KernelParams | None:
    """One surrogate refresh + acquisition maximization + observation, appended
    to `history`. Returns the kernel params to warm-start the next step's fit.

    `propose(config, history, t, start=start)` returns the point and the kernel
    params (default: propose_next); the objective is always called here.
    """
    x_next, params = (propose or propose_next)(config, history, t, start=start)
    history.append(observe(config.space, objective, x_next, len(history), t, BO))
    return params


def run_bo(config: BoConfig, objective, propose=None) -> BoResult:
    """Initial design followed by `iterations` sequential BO steps, each
    proposed by `propose` (see bo_step).

    Each step's hyperparameter fit starts from the previous step's kernel
    params. They are carried here, per run, so a run's result does not depend
    on which other runs share the process.
    """
    history = init_design(config, objective, component_rng(config.seed, "init"))
    params = None
    for t in range(1, config.iterations + 1):
        params = bo_step(history, config, objective, t, propose=propose, start=params)
    return BoResult.from_history(history, config.init_count)
