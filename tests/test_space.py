import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmbo.space import (
    ConfigError,
    Dimension,
    DimensionMismatchError,
    INTEGER,
    REAL,
    SearchSpace,
    clamp,
    materialize,
    sample_uniform,
)


def rf_space():
    # mixed real/integer hyperparameter-style domain
    return SearchSpace([
        Dimension("max_features", REAL, 0.1, 0.999),
        Dimension("n_estimators", INTEGER, 10, 250),
        Dimension("min_samples_split", INTEGER, 2, 25),
        Dimension("max_depth", INTEGER, 5, 15),
    ])


class TestValidate:
    def test_mixed_space_ok(self):
        assert rf_space().dim == 4

    def test_empty_space(self):
        with pytest.raises(ConfigError):
            SearchSpace([])

    def test_degenerate_interval(self):
        with pytest.raises(ConfigError):
            SearchSpace([Dimension("a", REAL, 1.0, 1.0)])

    def test_integer_range_without_integers(self):
        with pytest.raises(ConfigError):
            SearchSpace([Dimension("a", INTEGER, 0.2, 0.8)])

    def test_duplicate_names(self):
        with pytest.raises(Exception):
            SearchSpace([Dimension("a", REAL, 0, 1), Dimension("a", REAL, 0, 2)])


class TestSampleUniform:
    def test_deterministic(self):
        space = SearchSpace([Dimension("x", REAL, 0, 1)])
        a = sample_uniform(space, np.random.default_rng(7))
        b = sample_uniform(space, np.random.default_rng(7))
        assert a == b
        assert 0.0 <= a[0] <= 1.0

    def test_bounds_containment(self):
        space = rf_space()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = sample_uniform(space, rng)
            assert np.all(x >= space.lower) and np.all(x <= space.upper)

    def test_empirical_mean(self):
        # law-of-large-numbers oracle: independent accumulation of draws
        space = SearchSpace([Dimension("n", INTEGER, 10, 250)])
        rng = np.random.default_rng(123)
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += sample_uniform(space, rng)[0]
        assert abs(total / n - 130.0) < 2.0


class TestClamp:
    def test_identity_inside(self):
        space = SearchSpace([Dimension("x", REAL, 0, 1)])
        assert clamp(space, np.array([0.4]))[0] == 0.4

    def test_projection(self):
        space = SearchSpace([Dimension("x", REAL, 0, 1)])
        assert clamp(space, np.array([1.7]))[0] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            clamp(rf_space(), np.array([1.0, 2.0]))

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    def test_idempotent_and_monotone(self, coords):
        space = rf_space()
        x = np.array(coords)
        once = clamp(space, x)
        assert np.array_equal(clamp(space, once), once)
        y = clamp(space, x + 1.0)
        assert np.all(y >= once)


class TestMaterialize:
    def test_nearest_integer(self):
        space = SearchSpace([Dimension("n", INTEGER, 10, 250)])
        assert materialize(space, np.array([127.4]))[0] == 127.0

    def test_boundary_preserved(self):
        space = SearchSpace([Dimension("n", INTEGER, 10, 250)])
        assert materialize(space, np.array([250.0]))[0] == 250.0

    def test_real_unchanged(self):
        space = SearchSpace([Dimension("f", REAL, 0.1, 0.999)])
        assert materialize(space, np.array([0.5]))[0] == 0.5

    def test_half_away_from_zero(self):
        space = SearchSpace([Dimension("n", INTEGER, -10, 10)])
        assert materialize(space, np.array([2.5]))[0] == 3.0
        assert materialize(space, np.array([-2.5]))[0] == -3.0

    def test_no_signed_zero(self):
        space = SearchSpace([Dimension("n", INTEGER, -5, 5)])
        assert not np.signbit(materialize(space, np.array([-0.3]))[0])

    def test_rounding_stays_feasible(self):
        # 10.4 rounds toward 10, never below the integer-feasible floor
        space = SearchSpace([Dimension("n", INTEGER, 10.2, 250)])
        assert materialize(space, np.array([10.4]))[0] == 11.0

    @given(st.lists(st.floats(-1000, 1000), min_size=4, max_size=4))
    def test_idempotent(self, coords):
        space = rf_space()
        x = clamp(space, np.array(coords))
        once = materialize(space, x)
        assert np.array_equal(materialize(space, once), once)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_samples_are_already_clamped(self, seed):
        space = rf_space()
        x = sample_uniform(space, np.random.default_rng(seed))
        assert np.array_equal(clamp(space, x), x)
