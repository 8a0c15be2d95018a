import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmbo.pso import (
    LearningFactorsOutOfRangeError,
    OmegaOutOfRangeError,
    PsoParams,
    run_pso,
)
from swarmbo.space import Dimension, REAL, SearchSpace


def box(lo, hi, d=1):
    return SearchSpace([Dimension(f"x{i}", REAL, lo, hi) for i in range(d)])


class TestStability:
    def test_default_setting_accepted(self):
        PsoParams(omega=0.8, c1=1.85, c2=2.0)

    def test_omega_boundary_rejected(self):
        with pytest.raises(OmegaOutOfRangeError):
            PsoParams(omega=1.0)

    def test_learning_factors_rejected(self):
        with pytest.raises(LearningFactorsOutOfRangeError):
            PsoParams(omega=0.0, c1=2.5, c2=2.5)

    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-1, 5, allow_nan=False),
        st.floats(-1, 5, allow_nan=False),
    )
    def test_matches_direct_inequalities(self, omega, c1, c2):
        inside = -1.0 < omega < 1.0 and 0.0 < c1 + c2 < 4.0 * (1.0 + omega)
        if inside:
            PsoParams(omega=omega, c1=c1, c2=c2)
        else:
            with pytest.raises((OmegaOutOfRangeError, LearningFactorsOutOfRangeError)):
                PsoParams(omega=omega, c1=c1, c2=c2)


def recording(values):
    """A fitness returning values(X) that keeps a copy of every batch it scores."""
    batches = []

    def fitness(X):
        batches.append(X.copy())
        return values(X)

    return fitness, batches


class TestInitSwarm:
    """The initial swarm: run_pso's first fitness batch and trace[0]."""

    def test_positions_in_bounds_and_gbest(self):
        fitness, batches = recording(lambda X: X[:, 0])
        result = run_pso(box(0, 1), PsoParams(population=2, max_iters=1), fitness,
                         np.random.default_rng(3))
        assert np.all(batches[0] >= 0) and np.all(batches[0] <= 1)
        assert result.trace[0] == max(batches[0][:, 0])

    def test_constant_fitness(self):
        result = run_pso(box(0, 1), PsoParams(population=5, max_iters=1),
                         lambda X: np.full(len(X), 3.0), np.random.default_rng(0))
        assert result.trace[0] == 3.0

    def test_deterministic(self):
        space = box(-2, 2, d=3)
        runs = []
        for _ in range(2):
            fitness, batches = recording(lambda X: -np.sum(X**2, axis=1))
            rng = np.random.default_rng(11)
            result = run_pso(space, PsoParams(max_iters=1), fitness, rng)
            runs.append((batches, result.trace, rng.bit_generator.state))
        (a, trace_a, state_a), (b, trace_b, state_b) = runs
        # the second batch is the first move, so it also pins the initial velocities
        assert len(a) == len(b) == 2
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert np.array_equal(trace_a, trace_b) and state_a == state_b


class TestWarmStart:
    """`start` overwrites particle 0 after the draws and changes nothing else."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
           st.integers(0, 2**32 - 1))
    def test_only_particle_zero_moves(self, start, seed):
        # with c2 = 0 the first move is each particle's own clipped velocity
        # (its personal best is where it stands), so equal moves mean equal velocities
        space = box(-2, 2, d=3)
        params = PsoParams(c1=1.0, c2=0.0, max_iters=1)
        f = lambda X: -np.sum(X**2, axis=1)
        (cold_f, cold), (warm_f, warm) = recording(f), recording(f)
        rng_cold, rng_warm = np.random.default_rng(seed), np.random.default_rng(seed)
        run_pso(space, params, cold_f, rng_cold)
        run_pso(space, params, warm_f, rng_warm, start=start)
        assert np.array_equal(warm[0][0], np.clip(start, -2, 2))
        assert np.array_equal(warm[0][1:], cold[0][1:])
        assert np.array_equal(warm[1][1:], cold[1][1:])
        assert rng_warm.bit_generator.state == rng_cold.bit_generator.state

    def test_run_pso_scores_start_first_and_draws_the_same_numbers(self):
        space = box(0, 1, d=2)
        batches = {}
        rngs = {}
        for label, start in (("cold", None), ("warm", [0.25, 7.0])):  # 7.0 is outside the box
            batches[label] = []
            rngs[label] = np.random.default_rng(5)
            fitness = lambda X, out=batches[label]: out.append(X.copy()) or np.full(len(X), 1.0)
            run_pso(space, PsoParams(population=6, patience=3), fitness, rngs[label], start=start)
        first_cold, first_warm = batches["cold"][0], batches["warm"][0]
        assert np.array_equal(first_warm[0], [0.25, 1.0])
        assert np.array_equal(first_warm[1:], first_cold[1:])
        # a constant fitness stops both runs after `patience` steps
        assert len(batches["warm"]) == len(batches["cold"]) == 1 + 3
        assert rngs["warm"].bit_generator.state == rngs["cold"].bit_generator.state

    def test_start_is_never_lost(self):
        space = box(-5, 5, d=2)
        f = lambda X: -np.sum((X - 1.234) ** 2, axis=1)
        result = run_pso(space, PsoParams(population=4, max_iters=2), f,
                         np.random.default_rng(0), start=[1.234, 1.234])
        assert result.best_fitness == 0.0
        assert np.array_equal(result.best_position, [1.234, 1.234])

    def test_nan_start_rejected(self):
        fitness, batches = recording(lambda X: X[:, 0])
        with pytest.raises(ValueError, match="start must not be NaN"):
            run_pso(box(0, 1), PsoParams(), fitness, np.random.default_rng(0),
                    start=[float("nan")])
        assert batches == []


class _PinnedRng:
    """Stand-in rng: `uniform` returns the given positions, then the given
    velocities; `random` pins r1 = r2 = 1."""

    def __init__(self, positions, velocities):
        self._draws = [np.array(positions, float), np.array(velocities, float)]

    def uniform(self, low, high, size):
        return self._draws.pop(0)

    def random(self, shape):
        return np.ones(shape)


def scripted(*values):
    """A fitness returning the given arrays in turn that keeps a copy of every batch."""
    it = iter(values)
    return recording(lambda X: np.array(next(it), float))


class TestStepSwarm:
    """The swarm update, pinned through run_pso's first steps."""

    def test_fixed_point(self):
        fitness, batches = scripted([1.0, 2.0], [0.0, 0.0])
        params = PsoParams(omega=0.5, population=2, vmax_fraction=1.0, max_iters=1)
        run_pso(box(-10, 10), params, fitness, _PinnedRng([[2.0], [5.0]], np.zeros((2, 1))))
        # the particle sitting at x = p_b = g_b with v = 0 stays put
        assert batches[1][1, 0] == 5.0

    def test_pinned_randomness_arithmetic(self):
        space = box(-100, 100)
        params = PsoParams(omega=0.5, c1=1.0, c2=2.0, population=2, vmax_fraction=1.0,
                           max_iters=2)
        # particle 1 at 4 is the global best throughout; particle 0 starts at 2
        # and does not improve at its first move, so its personal best stays 2
        fitness, batches = scripted([0.0, 1.0], [-1.0, 0.0], [0.0, 0.0])
        run_pso(space, params, fitness, _PinnedRng([[2.0], [4.0]], [[1.0], [0.0]]))
        # v1 = 0.5*1 + 1*(2-2) + 2*(4-2) = 4.5, x1 = 6.5
        assert batches[1][0, 0] == 6.5
        # v2 = 0.5*4.5 + 1*(2-6.5) + 2*(4-6.5) = 2.25 - 4.5 - 5 = -7.25, x2 = -0.75
        assert batches[2][0, 0] == -0.75
        assert batches[1][1, 0] == batches[2][1, 0] == 4.0

    def test_global_best_monotone(self):
        fitness, batches = recording(lambda X: -np.sum(X**2, axis=1))
        result = run_pso(box(-5, 5, d=2), PsoParams(max_iters=20, patience=20), fitness,
                         np.random.default_rng(4))
        # the global best is the best value scored so far
        seen = np.maximum.accumulate([max(-np.sum(X**2, axis=1)) for X in batches])
        assert np.array_equal(result.trace, seen)
        assert np.all(np.diff(result.trace) >= 0)


class TestNanFitness:
    def test_nan_never_becomes_the_best(self):
        f = lambda X: np.where(X[:, 0] < -0.9, np.nan, X[:, 0] ** 2)
        fitness, batches = recording(f)
        result = run_pso(box(-1, 1), PsoParams(), fitness, np.random.default_rng(0))
        assert np.isnan(f(batches[0])).any()  # the initial swarm scores a NaN
        assert not np.isnan(result.trace).any()
        finite = np.concatenate([f(X) for X in batches])
        assert result.best_fitness == np.nanmax(finite)
        assert result.best_position[0] >= -0.9

    def test_all_nan_scores_minus_inf(self):
        result = run_pso(box(0, 1), PsoParams(max_iters=3), lambda X: np.full(len(X), np.nan),
                         np.random.default_rng(0))
        assert np.all(result.trace == -np.inf)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
    def test_non_finite_best_counts_as_stagnant(self, value):
        # inf - inf is NaN, and a NaN difference must not count as an improvement
        result = run_pso(box(0, 1), PsoParams(max_iters=100, patience=5),
                         lambda X: np.full(len(X), value), np.random.default_rng(0))
        assert len(result.trace) == 6

    def test_recovery_from_minus_inf_resets_the_count(self):
        # finite only after the third step: the step that leaves -inf is an improvement
        calls = []

        def fitness(X):
            calls.append(len(X))
            return np.full(len(X), -np.inf if len(calls) <= 3 else 1.0)

        result = run_pso(box(0, 1), PsoParams(max_iters=100, patience=5), fitness,
                         np.random.default_rng(0))
        assert result.trace.tolist() == [-np.inf] * 3 + [1.0] * 6


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
