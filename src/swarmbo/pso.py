"""Particle swarm maximizer over a bounded box.

`run_pso` is the one swarm loop (the acquisition and hyperparameter swarms both
use it); it keeps positions, velocities and bests as local arrays. Each step
moves every particle, with r1, r2 drawn per particle and per dimension:
v <- clip(omega*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), -vmax, vmax), then
x <- clamp(x + v), vmax a fraction of each dimension's range. Bests change only
on strict improvement; a NaN fitness scores -inf, so it never becomes a best.

Fitness functions take the whole swarm at once: an (m, d) batch of positions
in, an (m,) array of values out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .space import ConfigError, SearchSpace, check_finite, check_size, clamp


class OmegaOutOfRangeError(ConfigError):
    pass


class LearningFactorsOutOfRangeError(ConfigError):
    pass


@dataclass(frozen=True)
class PsoParams:
    omega: float = 0.8
    c1: float = 1.85
    c2: float = 2.0
    population: int = 40
    max_iters: int = 100
    vmax_fraction: float = 0.5
    tol: float = 1e-8
    patience: int = 15

    def __post_init__(self):
        """Enforce the convergence region -1 < omega < 1, 0 < c1+c2 < 4(1+omega)."""
        if not -1.0 < self.omega < 1.0:
            raise OmegaOutOfRangeError(f"omega={self.omega} outside (-1, 1)")
        s = self.c1 + self.c2
        if not 0.0 < s < 4.0 * (1.0 + self.omega):
            raise LearningFactorsOutOfRangeError(
                f"c1+c2={s} outside (0, {4.0 * (1.0 + self.omega)})"
            )
        check_size("population", self.population, 2)
        check_size("max_iters", self.max_iters, 1)
        if not 0.0 < self.vmax_fraction <= 1.0:
            raise ConfigError("vmax_fraction must be in (0, 1]")
        check_finite("tol", self.tol)
        check_size("patience", self.patience, 1)


@dataclass(frozen=True)
class PsoResult:
    best_position: np.ndarray
    best_fitness: float
    trace: np.ndarray = field(repr=False)  # per-iteration global best


def run_pso(space: SearchSpace, params: PsoParams, fitness, rng: np.random.Generator,
            start=None) -> PsoResult:
    """Maximize `fitness` over the box; stops early after `patience` stagnant iterations.

    Positions start uniform in the box and velocities in [-vmax, vmax]. `start`,
    if given, replaces particle 0's position, clamped to the box, after those
    draws, so the random streams and every other particle are as without it.
    """
    m, d = params.population, space.dim
    vmax = params.vmax_fraction * space.ranges
    x = rng.uniform(space.lower, space.upper, size=(m, d))
    v = rng.uniform(-vmax, vmax, size=(m, d))
    if start is not None:
        x[0] = clamp(space, start)
        if np.isnan(x[0]).any():
            raise ValueError(f"start must not be NaN, got {start!r}")
    pbest, pbest_fit = x.copy(), _score(fitness, x)
    g = int(np.argmax(pbest_fit))
    gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])
    trace = [gbest_fit]
    stagnant = 0
    for _ in range(params.max_iters):
        r1 = rng.random((m, d))
        r2 = rng.random((m, d))
        v = params.omega * v + params.c1 * r1 * (pbest - x) + params.c2 * r2 * (gbest - x)
        v = np.clip(v, -vmax, vmax)
        x = clamp(space, x + v)
        fit = _score(fitness, x)
        # personal and global bests change only on strict improvement
        improved = fit > pbest_fit
        pbest[improved] = x[improved]
        pbest_fit[improved] = fit[improved]
        g = int(np.argmax(pbest_fit))
        prev = gbest_fit
        if pbest_fit[g] > gbest_fit:
            gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])
        trace.append(gbest_fit)
        # while the best is still +-inf, the difference below is NaN: such a step is stagnant
        if not np.isfinite(gbest_fit) or gbest_fit - prev < params.tol:
            stagnant += 1
            if stagnant >= params.patience:
                break
        else:
            stagnant = 0
    return PsoResult(best_position=gbest, best_fitness=gbest_fit, trace=np.array(trace))


def _score(fitness, x) -> np.ndarray:
    """fitness(x) as floats, NaN scored -inf so that it never becomes a best."""
    fit = np.asarray(fitness(x), dtype=float)
    return np.where(np.isnan(fit), -np.inf, fit)
