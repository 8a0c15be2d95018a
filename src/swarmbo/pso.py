"""Particle swarm maximizer over a bounded box.

Velocity update: v <- omega*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), with
r1, r2 drawn independently per particle and per dimension. Positions are
clamped to the box after each move; velocities are clamped to a fraction of
each dimension's range.

Fitness functions take the whole swarm at once: an (m, d) batch of positions
in, an (m,) array of values out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .space import SearchSpace, clamp, validate_space


class StabilityError(ValueError):
    """Parameters fall outside the PSO convergence region."""


class OmegaOutOfRangeError(StabilityError):
    pass


class LearningFactorsOutOfRangeError(StabilityError):
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


def check_stability(params: PsoParams) -> None:
    """Enforce the convergence region -1 < omega < 1, 0 < c1+c2 < 4(1+omega)."""
    if not -1.0 < params.omega < 1.0:
        raise OmegaOutOfRangeError(f"omega={params.omega} outside (-1, 1)")
    s = params.c1 + params.c2
    if not 0.0 < s < 4.0 * (1.0 + params.omega):
        raise LearningFactorsOutOfRangeError(
            f"c1+c2={s} outside (0, {4.0 * (1.0 + params.omega)})"
        )
    if params.population < 2:
        raise ValueError("population must be at least 2")
    if params.max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not 0.0 < params.vmax_fraction <= 1.0:
        raise ValueError("vmax_fraction must be in (0, 1]")


@dataclass(frozen=True)
class SwarmState:
    """Immutable snapshot of the swarm between steps."""

    positions: np.ndarray  # (m, d)
    velocities: np.ndarray  # (m, d)
    best_positions: np.ndarray  # (m, d)
    best_fitness: np.ndarray  # (m,)
    global_best_position: np.ndarray  # (d,)
    global_best_fitness: float
    iteration: int = 0


def init_swarm(space: SearchSpace, params: PsoParams, fitness,
               rng: np.random.Generator) -> SwarmState:
    """Random positions in the box, velocities uniform in [-vmax, vmax]."""
    validate_space(space)
    check_stability(params)
    m, d = params.population, space.dim
    positions = rng.uniform(space.lower, space.upper, size=(m, d))
    vmax = params.vmax_fraction * space.ranges
    velocities = rng.uniform(-vmax, vmax, size=(m, d))
    fit = np.asarray(fitness(positions), dtype=float)
    best = int(np.argmax(fit))
    return SwarmState(
        positions=positions,
        velocities=velocities,
        best_positions=positions.copy(),
        best_fitness=fit,
        global_best_position=positions[best].copy(),
        global_best_fitness=float(fit[best]),
        iteration=0,
    )


def step_swarm(state: SwarmState, space: SearchSpace, params: PsoParams, fitness,
               rng: np.random.Generator) -> SwarmState:
    """One synchronous swarm update; personal/global bests replaced only on strict improvement."""
    m, d = state.positions.shape
    r1 = rng.random((m, d))
    r2 = rng.random((m, d))
    vmax = params.vmax_fraction * space.ranges
    v = (
        params.omega * state.velocities
        + params.c1 * r1 * (state.best_positions - state.positions)
        + params.c2 * r2 * (state.global_best_position - state.positions)
    )
    v = np.clip(v, -vmax, vmax)
    x = clamp(space, state.positions + v)
    fit = np.asarray(fitness(x), dtype=float)

    improved = fit > state.best_fitness
    best_positions = np.where(improved[:, None], x, state.best_positions)
    best_fitness = np.where(improved, fit, state.best_fitness)
    gbest = int(np.argmax(best_fitness))
    if best_fitness[gbest] > state.global_best_fitness:
        g_pos = best_positions[gbest].copy()
        g_fit = float(best_fitness[gbest])
    else:
        g_pos = state.global_best_position
        g_fit = state.global_best_fitness
    return SwarmState(
        positions=x,
        velocities=v,
        best_positions=best_positions,
        best_fitness=best_fitness,
        global_best_position=g_pos,
        global_best_fitness=g_fit,
        iteration=state.iteration + 1,
    )


@dataclass(frozen=True)
class PsoResult:
    best_position: np.ndarray
    best_fitness: float
    trace: np.ndarray = field(repr=False)  # per-iteration global best


def run_pso(space: SearchSpace, params: PsoParams, fitness, rng: np.random.Generator) -> PsoResult:
    """Maximize `fitness` over the box; stops early after `patience` stagnant iterations."""
    state = init_swarm(space, params, fitness, rng)
    trace = [state.global_best_fitness]
    stagnant = 0
    for _ in range(params.max_iters):
        prev = state.global_best_fitness
        state = step_swarm(state, space, params, fitness, rng)
        trace.append(state.global_best_fitness)
        if state.global_best_fitness - prev < params.tol:
            stagnant += 1
            if stagnant >= params.patience:
                break
        else:
            stagnant = 0
    return PsoResult(
        best_position=state.global_best_position.copy(),
        best_fitness=state.global_best_fitness,
        trace=np.array(trace),
    )
