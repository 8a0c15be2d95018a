import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from swarmbo.acquisition import AcquisitionSpec, EI, PI, UCB, ei, evaluate, pi, ucb
from swarmbo.gp import KernelParams, Posterior, fit_model, predict
from swarmbo.space import Dimension, REAL, SearchSpace

PHI_AT_ZERO = 0.398942280401432677939946059934  # standard-normal density at 0


class TestUcb:
    def test_gamma_zero_is_mean(self):
        assert ucb(Posterior(mean=1.23, var=0.7), gamma=0.0) == 1.23

    def test_prior_posterior(self):
        assert ucb(Posterior(mean=0.0, var=1.0), gamma=2.0) == 2.0

    def test_arithmetic(self):
        assert ucb(Posterior(mean=1.5, var=0.04), gamma=2.0) == pytest.approx(1.9)

    @given(st.floats(-5, 5), st.floats(0.01, 5), st.floats(0.01, 5), st.floats(0.1, 3))
    @example(mu=0.0, v1=0.1, v2=0.10000000000000002, gamma=1.0)  # adjacent floats, one sqrt
    @example(mu=0.0, v1=1.0, v2=4.0, gamma=1.0)
    def test_strictly_increasing_in_sigma(self, mu, v1, v2, gamma):
        """Never decreasing in the variance, and strictly increasing once the two
        variances differ by more than rounding (adjacent floats share a sqrt)."""
        lo, hi = sorted((v1, v2))
        at_lo, at_hi = ucb(Posterior(mu, lo), gamma), ucb(Posterior(mu, hi), gamma)
        assert at_hi >= at_lo
        if hi >= lo * (1 + 1e-9):
            assert at_hi > at_lo


class TestEi:
    def test_no_improvement_when_deterministic(self):
        assert ei(Posterior(mean=0.5, var=0.0), incumbent=1.0) == 0.0

    def test_deterministic_improvement(self):
        assert ei(Posterior(mean=1.3, var=0.0), incumbent=1.0) == pytest.approx(0.3)

    def test_at_incumbent_unit_sigma(self):
        assert ei(Posterior(mean=2.0, var=1.0), incumbent=2.0) == pytest.approx(PHI_AT_ZERO, abs=1e-6)

    @given(st.floats(-5, 5), st.floats(0, 5), st.floats(-5, 5), st.floats(0, 1))
    def test_non_negative(self, mu, var, incumbent, xi):
        assert ei(Posterior(mu, var), incumbent, xi) >= 0.0

    @given(st.floats(-2, 2), st.floats(0.01, 2), st.floats(0.01, 2))
    def test_non_decreasing_in_sigma(self, mu, v1, v2):
        lo, hi = sorted((v1, v2))
        assert ei(Posterior(mu, hi), 0.0) >= ei(Posterior(mu, lo), 0.0) - 1e-12


class TestPi:
    def test_at_incumbent_unit_sigma(self):
        assert pi(Posterior(mean=1.0, var=1.0), incumbent=1.0) == pytest.approx(0.5)

    def test_certain_improvement(self):
        assert pi(Posterior(mean=2.0, var=0.0), incumbent=1.0) == 1.0

    def test_certain_non_improvement(self):
        assert pi(Posterior(mean=0.5, var=0.0), incumbent=1.0) == 0.0

    @given(st.floats(-5, 5), st.floats(0, 5), st.floats(-5, 5), st.floats(0, 1))
    def test_in_unit_interval(self, mu, var, incumbent, xi):
        assert 0.0 <= pi(Posterior(mu, var), incumbent, xi) <= 1.0


class TestSpecAndDispatch:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            AcquisitionSpec(kind="lcb")

    def test_negative_gamma(self):
        with pytest.raises(ValueError):
            AcquisitionSpec(gamma=-0.1)

    @pytest.fixture
    def model(self):
        space = SearchSpace([Dimension("x", REAL, 0, 1)])
        params = KernelParams(theta0=1.0, lengthscales=[0.3], noise_var=0.0)
        xs = np.array([[0.2], [0.5], [0.8]])
        return fit_model(space, xs, [1.0, 2.0, 1.5], params), xs

    def test_ucb_gamma_zero_at_training_point(self, model):
        gp_model, xs = model
        spec = AcquisitionSpec(kind=UCB, gamma=0.0)
        assert evaluate(spec, gp_model, [0.5]) == pytest.approx(2.0, abs=1e-6)

    def test_ei_zero_at_incumbent_training_point(self, model):
        gp_model, xs = model
        spec = AcquisitionSpec(kind=EI, xi=0.0)
        # jitter leaves a sigma of order 1e-6 at the training point
        assert evaluate(spec, gp_model, [0.5], incumbent=2.0) == pytest.approx(0.0, abs=1e-5)

    def test_dispatch_matches_manual_composition(self, model):
        gp_model, _ = model
        grid = np.linspace(0, 1, 100)[:, None]
        spec = AcquisitionSpec(kind=UCB, gamma=2.0)
        auto = evaluate(spec, gp_model, grid)
        manual = ucb(predict(gp_model, grid), 2.0)
        assert np.array_equal(auto, manual)

    def test_pi_dispatch(self, model):
        gp_model, _ = model
        spec = AcquisitionSpec(kind=PI, xi=0.01)
        vals = evaluate(spec, gp_model, np.linspace(0, 1, 50)[:, None], incumbent=1.5)
        assert np.all((vals >= 0) & (vals <= 1))
