"""Bayesian-optimization loop: initial design, acquisition maximization via
the particle swarm, observation, and model refresh.

All randomness derives from one root seed split into per-component streams,
so a full run is reproducible regardless of evaluation parallelism.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import gp
from .acquisition import AcquisitionSpec, evaluate
from .pso import PsoParams, check_stability, run_pso
from .space import SearchSpace, materialize, sample_uniform, validate_space

log = logging.getLogger(__name__)

INIT = "init"
BO = "bo"


class ObjectiveFailureError(Exception):
    def __init__(self, index, cause):
        super().__init__(f"objective evaluation {index} failed: {cause}")
        self.index = index


def component_rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream for one component of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


@dataclass(frozen=True)
class Observation:
    point: np.ndarray  # raw continuous iterate
    materialized: np.ndarray  # integer dims rounded; what the objective saw
    y: float
    iteration: int
    phase: str  # INIT or BO


@dataclass
class ObservationHistory:
    records: list[Observation] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    @property
    def points(self) -> np.ndarray:
        return np.array([r.point for r in self.records])

    @property
    def values(self) -> np.ndarray:
        return np.array([r.y for r in self.records])

    def best(self) -> Observation:
        return max(self.records, key=lambda r: r.y)


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
        validate_space(self.space)
        check_stability(self.pso)
        if self.init_count < 1:
            raise ValueError("init_count must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


@dataclass(frozen=True)
class BoResult:
    best_point: np.ndarray  # materialized
    best_value: float
    history: ObservationHistory
    incumbent_trace: np.ndarray
    n_evaluations: int


def _observe(space, objective, x_raw, index, iteration, phase) -> Observation:
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


def init_design(config: BoConfig, objective, rng: np.random.Generator) -> ObservationHistory:
    """Uniform initial design of `init_count` evaluated points."""
    history = ObservationHistory()
    for i in range(config.init_count):
        x = sample_uniform(config.space, rng)
        history.records.append(_observe(config.space, objective, x, i, i, INIT))
    return history


def _fit_surrogate(config: BoConfig, history: ObservationHistory, t: int) -> gp.GpModel:
    xs = history.points
    ys = history.values
    if len(history) < 2:
        # hyperparameter fitting needs two points
        params = gp.fallback_params(config.space.dim, config.noise_var)
    else:
        params = gp.fit_hyperparams(
            config.space, xs, ys, component_rng(config.seed, f"gpfit:{t}"),
            bounds=config.gp_bounds, noise_var=config.noise_var,
        )
    return gp.fit_model(config.space, xs, ys, params)


def propose_next(config: BoConfig, history: ObservationHistory, t: int,
                 maximizer=None) -> np.ndarray:
    """Fit the surrogate and maximize the acquisition over the search space.

    `maximizer(space, surface, seed_tag)` may replace the swarm (used by the
    local-ascent baseline); the surface is vectorized over row-batches.
    """
    try:
        model = _fit_surrogate(config, history, t)
    except gp.FactorizationFailureError:
        log.warning("surrogate factorization failed at step %d; falling back to random point", t)
        return sample_uniform(config.space, component_rng(config.seed, f"fallback:{t}"))

    spec = replace(config.acquisition, incumbent=float(np.max(history.values)))

    def surface(X):
        return evaluate(spec, model, X)

    if maximizer is not None:
        return maximizer(config.space, surface, f"inner:{t}")
    result = run_pso(config.space, config.pso, surface, component_rng(config.seed, f"pso:{t}"))
    return result.best_position


def bo_step(history: ObservationHistory, config: BoConfig, objective, t: int,
            maximizer=None) -> Observation:
    """One surrogate refresh + acquisition maximization + observation."""
    x_next = propose_next(config, history, t, maximizer=maximizer)
    obs = _observe(config.space, objective, x_next, len(history), t, BO)
    history.records.append(obs)
    return obs


def run_bo(config: BoConfig, objective, maximizer=None) -> BoResult:
    """Initial design followed by `iterations` sequential BO steps."""
    history = init_design(config, objective, component_rng(config.seed, "init"))
    trace = [float(np.max(history.values))]
    for t in range(1, config.iterations + 1):
        bo_step(history, config, objective, t, maximizer=maximizer)
        trace.append(max(trace[-1], history.records[-1].y))
    best = history.best()
    return BoResult(
        best_point=best.materialized,
        best_value=best.y,
        history=history,
        incumbent_trace=np.array(trace),
        n_evaluations=len(history),
    )
