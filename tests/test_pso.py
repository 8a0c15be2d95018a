import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmbo.pso import (
    LearningFactorsOutOfRangeError,
    OmegaOutOfRangeError,
    PsoParams,
    SwarmState,
    check_stability,
    init_swarm,
    run_pso,
    step_swarm,
)
from swarmbo.space import Dimension, REAL, SearchSpace


def box(lo, hi, d=1):
    return SearchSpace([Dimension(f"x{i}", REAL, lo, hi) for i in range(d)])


class TestStability:
    def test_default_setting_accepted(self):
        check_stability(PsoParams(omega=0.8, c1=1.85, c2=2.0))

    def test_omega_boundary_rejected(self):
        with pytest.raises(OmegaOutOfRangeError):
            check_stability(PsoParams(omega=1.0))

    def test_learning_factors_rejected(self):
        with pytest.raises(LearningFactorsOutOfRangeError):
            check_stability(PsoParams(omega=0.0, c1=2.5, c2=2.5))

    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-1, 5, allow_nan=False),
        st.floats(-1, 5, allow_nan=False),
    )
    def test_matches_direct_inequalities(self, omega, c1, c2):
        inside = -1.0 < omega < 1.0 and 0.0 < c1 + c2 < 4.0 * (1.0 + omega)
        params = PsoParams(omega=omega, c1=c1, c2=c2)
        if inside:
            check_stability(params)
        else:
            with pytest.raises((OmegaOutOfRangeError, LearningFactorsOutOfRangeError)):
                check_stability(params)


class TestInitSwarm:
    def test_positions_in_bounds_and_gbest(self):
        space = box(0, 1)
        params = PsoParams(population=2)
        state = init_swarm(space, params, lambda X: X[:, 0], np.random.default_rng(3))
        assert np.all(state.positions >= 0) and np.all(state.positions <= 1)
        assert state.global_best_fitness == max(state.best_fitness)

    def test_constant_fitness(self):
        state = init_swarm(box(0, 1), PsoParams(population=5),
                           lambda X: np.full(len(X), 3.0), np.random.default_rng(0))
        assert state.global_best_fitness == 3.0

    def test_deterministic(self):
        space = box(-2, 2, d=3)
        f = lambda X: -np.sum(X**2, axis=1)
        a = init_swarm(space, PsoParams(), f, np.random.default_rng(11))
        b = init_swarm(space, PsoParams(), f, np.random.default_rng(11))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert a.global_best_fitness == b.global_best_fitness



class _OnesRng:
    """Stand-in rng pinning r1 = r2 = 1."""

    def random(self, shape):
        return np.ones(shape)


class TestStepSwarm:
    def test_fixed_point(self):
        space = box(-10, 10)
        state = SwarmState(
            positions=np.array([[2.0], [5.0]]),
            velocities=np.zeros((2, 1)),
            best_positions=np.array([[2.0], [5.0]]),
            best_fitness=np.array([1.0, 2.0]),
            global_best_position=np.array([5.0]),
            global_best_fitness=2.0,
        )
        # the particle sitting at x = p_b = g_b with v = 0 stays put
        new = step_swarm(state, space, PsoParams(omega=0.5, vmax_fraction=1.0),
                         lambda X: np.zeros(len(X)), _OnesRng())
        assert new.positions[1, 0] == 5.0
        assert new.velocities[1, 0] == 0.0

    def test_pinned_randomness_arithmetic(self):
        # v' = 0.5*1 + 1*(2-0) + 1*(4-0) = 6.5, x' = 6.5
        space = box(-100, 100)
        state = SwarmState(
            positions=np.array([[0.0], [4.0]]),
            velocities=np.array([[1.0], [0.0]]),
            best_positions=np.array([[2.0], [4.0]]),
            best_fitness=np.array([0.0, 1.0]),
            global_best_position=np.array([4.0]),
            global_best_fitness=1.0,
        )
        params = PsoParams(omega=0.5, c1=1.0, c2=1.0, vmax_fraction=1.0)
        new = step_swarm(state, space, params, lambda X: np.zeros(len(X)), _OnesRng())
        assert new.velocities[0, 0] == pytest.approx(6.5)
        assert new.positions[0, 0] == pytest.approx(6.5)

    def test_global_best_monotone(self):
        space = box(-5, 5, d=2)
        rng = np.random.default_rng(4)
        f = lambda X: -np.sum(X**2, axis=1)
        state = init_swarm(space, PsoParams(), f, rng)
        for _ in range(20):
            prev = state.global_best_fitness
            state = step_swarm(state, space, PsoParams(), f, rng)
            assert state.global_best_fitness >= prev


class TestRunPso:
    def test_quadratic_against_grid_oracle(self):
        space = box(0, 1)
        f = lambda X: -(X[:, 0] - 0.3) ** 2
        # dense grid oracle for the argmax
        grid = np.linspace(0, 1, 1_000_001)
        oracle = grid[np.argmax(-(grid - 0.3) ** 2)]
        result = run_pso(space, PsoParams(population=20, max_iters=100, patience=100),
                         f, np.random.default_rng(42))
        assert abs(result.best_position[0] - oracle) < 1e-3

    def test_constant_fitness(self):
        result = run_pso(box(0, 1), PsoParams(population=5, max_iters=5),
                         lambda X: np.full(len(X), 7.0), np.random.default_rng(0))
        assert result.best_fitness == 7.0

    def test_sphere_2d_repeat_seeds(self):
        space = box(-5, 5, d=2)
        hits = 0
        for seed in range(10):
            result = run_pso(space, PsoParams(max_iters=200, patience=200),
                             lambda X: -np.sum(X * X, axis=1),
                             np.random.default_rng(seed))
            assert np.all(np.diff(result.trace) >= 0)
            hits += result.best_fitness >= -1e-3
        assert hits >= 9

    def test_trace_non_decreasing_and_bounds(self):
        space = box(-3, 3, d=3)
        result = run_pso(space, PsoParams(max_iters=50),
                         lambda X: np.sum(np.sin(X), axis=1),
                         np.random.default_rng(9))
        assert np.all(np.diff(result.trace) >= 0)
        assert np.all(result.best_position >= -3) and np.all(result.best_position <= 3)

    def test_bit_exact_reproducibility(self):
        space = box(-2, 2, d=2)
        f = lambda X: -np.sum(X**4, axis=1)
        a = run_pso(space, PsoParams(max_iters=40), f, np.random.default_rng(5))
        b = run_pso(space, PsoParams(max_iters=40), f, np.random.default_rng(5))
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.best_position, b.best_position)

    def test_early_stop_shortens_trace(self):
        result = run_pso(box(0, 1), PsoParams(max_iters=500, patience=5),
                         lambda X: np.ones(len(X)), np.random.default_rng(0))
        assert len(result.trace) < 501

    def test_fitness_called_once_per_step_with_population_batch(self):
        shapes = []

        def f(X):
            shapes.append(X.shape)
            return -np.sum(X**2, axis=1)

        result = run_pso(box(-1, 1, d=3), PsoParams(population=7, max_iters=5, patience=5),
                         f, np.random.default_rng(0))
        # one call for the initial swarm, then one per step
        assert shapes == [(7, 3)] * len(result.trace)
