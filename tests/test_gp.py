import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmbo import gp
from swarmbo.gp import (
    FactorizationFailureError,
    FitBounds,
    InvalidParamsError,
    KernelParams,
    fit_hyperparams,
    fit_model,
    gram_matrix,
    log_marginal_likelihood,
    predict,
)
from swarmbo.space import ConfigError, Dimension, DimensionMismatchError, REAL, SearchSpace

from helpers import run_fresh_interpreter

# frozen with mpmath at 30 digits: (1 + sqrt(5) + 5/3) * exp(-sqrt(5))
MATERN52_AT_UNIT_R2 = 0.523994108831820310592713250761


def unit_box(d=1):
    return SearchSpace([Dimension(f"x{i}", REAL, 0, 1) for i in range(d)])


def kernel_oracle(a, b, params):
    # independent re-derivation, scalar loop instead of vectorized distances
    r2 = sum((ai - bi) ** 2 / li**2 for ai, bi, li in zip(a, b, params.lengthscales))
    s = (5 * r2) ** 0.5
    return params.theta0 * (1 + s + 5 * r2 / 3) * np.exp(-s)


def kernel_of_pair(a, b, params):
    """The Matern-5/2 covariance of two points, off the diagonal of their gram matrix."""
    return gram_matrix([a, b], params)[0, 1]


class TestMatern52:
    def test_equal_inputs_give_theta0(self):
        params = KernelParams(theta0=2.5, lengthscales=[1.0], noise_var=0.0)
        assert kernel_of_pair([0.3], [0.3], params) == 2.5

    def test_unit_r2_frozen_value(self):
        params = KernelParams(theta0=1.0, lengthscales=[1.0], noise_var=0.0)
        assert kernel_of_pair([0.0], [1.0], params) == pytest.approx(MATERN52_AT_UNIT_R2, abs=1e-5)

    def test_monotone_decay(self):
        params = KernelParams(theta0=1.0, lengthscales=[1.0], noise_var=0.0)
        vals = [kernel_of_pair([0.0], [r], params) for r in np.linspace(0, 20, 50)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            KernelParams(theta0=-1.0, lengthscales=[1.0], noise_var=0.0)
        with pytest.raises(InvalidParamsError):
            KernelParams(theta0=1.0, lengthscales=[0.0], noise_var=0.0)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    def test_symmetry(self, a, b):
        params = KernelParams(theta0=1.3, lengthscales=[0.7, 2.0], noise_var=0.0)
        assert kernel_of_pair(a, b, params) == pytest.approx(kernel_of_pair(b, a, params),
                                                             rel=1e-12)


class TestGramMatrix:
    def test_single_point(self):
        params = KernelParams(theta0=4.0, lengthscales=[1.0], noise_var=0.0)
        K = gram_matrix([[0.5]], params)
        assert K.shape == (1, 1) and K[0, 0] == 4.0

    def test_two_identical_points(self):
        params = KernelParams(theta0=2.0, lengthscales=[1.0], noise_var=0.0)
        K = gram_matrix([[0.1], [0.1]], params)
        assert np.allclose(K, 2.0)

    def test_psd_via_eigendecomposition(self):
        rng = np.random.default_rng(0)
        params = KernelParams(theta0=1.5, lengthscales=[0.4, 0.9], noise_var=0.0)
        K = gram_matrix(rng.random((5, 2)), params)
        assert np.array_equal(K, K.T)
        assert np.min(np.linalg.eigvalsh(K)) >= -1e-10 * params.theta0

    @pytest.mark.parametrize("d", [2, 9])
    def test_bit_identical_to_cdist_reference(self, d):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(12)
        params = KernelParams(theta0=1.3, lengthscales=rng.uniform(0.1, 2.0, d), noise_var=0.0)
        xs = rng.random((7, d))
        r2 = cdist(xs / params.lengthscales, xs / params.lengthscales, metric="sqeuclidean")
        sr5 = np.sqrt(5.0 * r2)
        expected = params.theta0 * (1.0 + sr5 + (5.0 / 3.0) * r2) * np.exp(-sr5)
        assert np.array_equal(gram_matrix(xs, params), expected)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        params = KernelParams(theta0=0.7, lengthscales=[0.3, 1.4], noise_var=0.0)
        xs = rng.random((4, 2))
        K = gram_matrix(xs, params)
        for i in range(4):
            for j in range(4):
                assert K[i, j] == pytest.approx(kernel_oracle(xs[i], xs[j], params), rel=1e-12)


class TestFitAndPredict:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_targets_rejected(self, bad):
        # an InvalidParamsError from the data checks, not a jitter failure
        params = KernelParams(theta0=1.0, lengthscales=[0.5], noise_var=0.0)
        with pytest.raises(ValueError):
            fit_model(unit_box(), [[0.2], [0.7]], [1.0, bad], params)

    @pytest.mark.parametrize("xs, ys, cause", [
        ([[0.2], [0.7]], [1.0], "xs and ys length mismatch"),
        (np.empty((0, 1)), [], "need at least one observation"),
    ], ids=["mismatched", "no-rows"])
    def test_training_data_shape_rejected(self, xs, ys, cause):
        params = KernelParams(theta0=1.0, lengthscales=[0.5], noise_var=0.0)
        with pytest.raises(InvalidParamsError, match=cause):
            fit_model(unit_box(), xs, ys, params)

    def test_single_point_interpolation(self):
        space = unit_box()
        params = KernelParams(theta0=1.0, lengthscales=[0.5], noise_var=0.0)
        model = fit_model(space, [[0.4]], [5.0], params)
        post = predict(model, [0.4])
        assert post.mean == pytest.approx(5.0, abs=1e-6)
        assert post.var <= 1e-8 * params.theta0

    def test_duplicate_points_survive_via_jitter(self):
        space = unit_box()
        params = KernelParams(theta0=1.0, lengthscales=[0.5], noise_var=0.0)
        model = fit_model(space, [[0.4], [0.4], [0.8]], [1.0, 1.0, 2.0], params)
        assert model.jitter > 0

    def test_jitter_escalation_is_bounded_when_it_underflows(self, monkeypatch):
        # theta0 0 (as 10**-400 gives) makes every jitter level 0; the escalation
        # still stops after its 7 levels, JITTER_START to JITTER_MAX
        attempts = []

        def failing(A, **kwargs):
            attempts.append(A)
            if len(attempts) > 50:
                raise RuntimeError("jitter escalation does not stop")
            return A, 1

        monkeypatch.setattr(gp, "_potrf", failing)
        K, eye = np.ones((2, 2)), np.eye(2)
        with pytest.raises(FactorizationFailureError):
            gp._cholesky(K, np.ones(2), 0.0, eye)
        assert len(attempts) == 7

    def test_factor_reconstructs_gram(self):
        rng = np.random.default_rng(2)
        space = unit_box(2)
        params = KernelParams(theta0=1.0, lengthscales=[0.5, 0.5], noise_var=0.01)
        xs = rng.random((10, 2))
        model = fit_model(space, xs, rng.random(10), params)
        K = gram_matrix(model.train_x, params) + 0.01 * np.eye(10)
        rebuilt = model.chol @ model.chol.T
        rel = np.linalg.norm(rebuilt - K) / np.linalg.norm(K)
        assert rel < 1e-10 + model.jitter

    def test_noisy_single_point_shrinkage(self):
        # two far-apart points: at x1 the cross-covariance is negligible, so the
        # standardized posterior mean shrinks the target by theta0/(theta0+noise)
        space = SearchSpace([Dimension("x", REAL, 0, 1000)])
        theta0, noise = 2.0, 0.5
        params = KernelParams(theta0=theta0, lengthscales=[1e-3], noise_var=noise)
        model = fit_model(space, [[0.0], [1000.0]], [-1.0, 1.0], params)
        post = predict(model, [0.0])
        shrunk = theta0 / (theta0 + noise) * (-1.0)  # standardized target is -1
        assert (post.mean - model.y_mean) / model.y_std == pytest.approx(shrunk, abs=1e-6)
        var_std = post.var / model.y_std**2
        assert var_std == pytest.approx(theta0 - theta0**2 / (theta0 + noise), abs=1e-6)

    def test_far_from_data_reverts_to_prior(self):
        space = SearchSpace([Dimension("x", REAL, 0, 1000)])
        params = KernelParams(theta0=1.0, lengthscales=[1e-3], noise_var=0.0)
        model = fit_model(space, [[0.0], [1.0]], [3.0, 7.0], params)
        post = predict(model, [900.0])
        assert post.mean == pytest.approx(model.y_mean, abs=1e-8)
        assert post.var / model.y_std**2 == pytest.approx(1.0, abs=1e-8)

    def test_interpolation_noiseless(self):
        rng = np.random.default_rng(3)
        space = unit_box()
        params = KernelParams(theta0=1.0, lengthscales=[0.3], noise_var=0.0)
        xs = np.linspace(0.05, 0.95, 6)[:, None]
        ys = np.sin(3 * xs[:, 0])
        model = fit_model(space, xs, ys, params)
        for x, y in zip(xs, ys):
            assert predict(model, x).mean == pytest.approx(y, abs=1e-6)

    def test_variance_bounded_by_theta0(self):
        rng = np.random.default_rng(4)
        space = unit_box(2)
        params = KernelParams(theta0=2.0, lengthscales=[0.5, 0.5], noise_var=0.01)
        model = fit_model(space, rng.random((8, 2)), rng.random(8), params)
        post = predict(model, rng.random((200, 2)))
        assert np.all(post.var >= 0)
        assert np.all(post.var / model.y_std**2 <= params.theta0 * (1 + 1e-8))

    def test_brute_force_equivalence(self):
        # explicit-inverse oracle on small instances, standardized space
        rng = np.random.default_rng(5)
        for trial in range(10):
            d = int(rng.integers(1, 4))
            t = int(rng.integers(2, 9))
            space = unit_box(d)
            params = KernelParams(
                theta0=float(rng.uniform(0.5, 2.0)),
                lengthscales=rng.uniform(0.2, 1.5, d),
                noise_var=float(rng.uniform(1e-4, 0.1)),
            )
            xs = rng.random((t, d))
            ys = rng.normal(size=t)
            model = fit_model(space, xs, ys, params)
            A = np.array([[kernel_oracle(a, b, params) for b in model.train_x]
                          for a in model.train_x])
            A += (params.noise_var + model.jitter) * np.eye(t)
            A_inv = np.linalg.inv(A)
            for x in rng.random((5, d)):
                post = predict(model, x)
                k = np.array([kernel_oracle(xi, x, params) for xi in model.train_x])
                mu = k @ A_inv @ model.train_y
                var = params.theta0 - k @ A_inv @ k
                assert (post.mean - model.y_mean) / model.y_std == pytest.approx(mu, abs=1e-8)
                assert post.var / model.y_std**2 == pytest.approx(max(var, 0.0), abs=1e-8)


    def test_batched_predict_matches_scipy_solve(self):
        # the direct trtrs call gives the bits of scipy's checked solve_triangular
        from scipy.linalg import solve_triangular

        rng = np.random.default_rng(6)
        space = SearchSpace([Dimension("a", REAL, -5, 10), Dimension("b", REAL, 0, 15)])
        params = KernelParams(theta0=1.7, lengthscales=[0.3, 0.6], noise_var=1e-4)
        model = fit_model(space, rng.uniform([-5, 0], [10, 15], (20, 2)), rng.normal(size=20), params)
        for n in (1, 2, 7, 40):
            x = rng.uniform([-5, 0], [10, 15], (n, 2))
            ells = params.lengthscales
            k = gp._matern(model.train_x / ells, gp._normalize(space, x) / ells, params.theta0)
            v = solve_triangular(model.chol, k, lower=True)
            var = np.maximum(params.theta0 - np.sum(v * v, axis=0), 0.0) * model.y_std**2
            mean = (k.T @ model.alpha) * model.y_std + model.y_mean
            post = predict(model, x)
            assert np.array_equal(post.mean, mean) and np.array_equal(post.var, var)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_query_rejected(self, bad):
        params = KernelParams(theta0=1.0, lengthscales=[0.5, 0.5], noise_var=0.0)
        model = fit_model(unit_box(2), [[0.2, 0.3], [0.7, 0.1]], [1.0, 2.0], params)
        with pytest.raises(InvalidParamsError, match="query points must be finite"):
            predict(model, [0.5, bad])
        with pytest.raises(InvalidParamsError, match="query points must be finite"):
            predict(model, [[0.5, 0.5], [bad, 0.5]])


def unscaled_predict(model, X):
    """predict's batch path on the unit-cube training inputs divided by the
    lengthscales on each call, as it was before the model cached them so."""
    X = (np.asarray(X, dtype=float) - model.space.lower) / model.space.ranges
    ells = model.params.lengthscales
    k = gp._matern(model.train_x / ells, X / ells, model.params.theta0)
    v = gp._trtrs(model.chol, k, lower=1)[0]
    var = np.maximum(model.params.theta0 - np.sum(v * v, axis=0), 0.0)
    return k.T @ model.alpha * model.y_std + model.y_mean, var * model.y_std**2


class TestPredictScaledInputs:
    """predict reads the training inputs the model caches divided by its
    lengthscales; every row equals the `_matern(model.train_x / ells, ...)` path bit
    for bit."""

    @pytest.mark.parametrize("d", [1, 2, 8, 9])
    def test_equals_kernel_path(self, d):
        rng = np.random.default_rng(d)
        space = SearchSpace([Dimension(f"x{j}", REAL, -2.0 * j, 3.0 + j) for j in range(d)])
        xs = rng.uniform(space.lower, space.upper, size=(20, d))
        xs[-1] = xs[0]  # a duplicated point
        params = KernelParams(theta0=1.7, lengthscales=rng.uniform(0.1, 2.0, d), noise_var=1e-6)
        model = fit_model(space, xs, rng.standard_normal(20), params)
        assert np.array_equal(model.scaled_x, model.train_x / params.lengthscales)
        for n in (1, 7, 40):
            X = rng.uniform(space.lower, space.upper, size=(n, d))
            post = predict(model, X)
            mean, var = unscaled_predict(model, X)
            assert post.mean.tobytes() == mean.tobytes()
            assert post.var.tobytes() == var.tobytes()
        single = predict(model, X[0])
        mean, var = unscaled_predict(model, X[:1])
        assert (single.mean, single.var) == (mean[0], var[0])


class TestLogMarginalLikelihood:
    def test_single_zero_observation(self):
        # standardized y = 0, theta0 + noise = 1 -> -0.5*log(2*pi)
        space = unit_box()
        params = KernelParams(theta0=0.9, lengthscales=[1.0], noise_var=0.1)
        model = fit_model(space, [[0.5]], [42.0], params)
        assert log_marginal_likelihood(model) == pytest.approx(-0.918938533204673, abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        space = unit_box(2)
        params = KernelParams(theta0=1.2, lengthscales=[0.6, 0.8], noise_var=0.05)
        xs = rng.random((8, 2))
        model = fit_model(space, xs, rng.normal(size=8), params)
        A = gram_matrix(model.train_x, params) + (params.noise_var + model.jitter) * np.eye(8)
        y = model.train_y
        oracle = (-0.5 * y @ np.linalg.inv(A) @ y
                  - 0.5 * np.log(np.linalg.det(A))
                  - 4 * np.log(2 * np.pi))
        assert log_marginal_likelihood(model) == pytest.approx(oracle, abs=1e-8)

    def test_repeated_pair_bounded_gain(self):
        # appending a duplicated (x, y) can raise the joint likelihood by at
        # most the best possible single-point log density, which is capped by
        # the observation-noise floor
        space = unit_box()
        params = KernelParams(theta0=1.0, lengthscales=[0.4], noise_var=0.1)
        xs3 = np.array([[0.1], [0.5], [0.9]])
        ys3 = np.array([0.2, -0.3, 0.4])

        def raw_lml(xs, ys):
            A = gram_matrix(xs, params) + params.noise_var * np.eye(len(ys))
            return (-0.5 * ys @ np.linalg.solve(A, ys)
                    - 0.5 * np.linalg.slogdet(A)[1]
                    - 0.5 * len(ys) * np.log(2 * np.pi))

        xs4 = np.vstack([xs3, [[0.5]]])
        ys4 = np.append(ys3, -0.3)
        single_point_bound = -0.5 * np.log(2 * np.pi * params.noise_var)
        assert raw_lml(xs4, ys4) - raw_lml(xs3, ys3) <= single_point_bound + 1e-9

    def test_misspecified_noise_degrades_lml(self):
        space = unit_box()
        xs = np.linspace(0.05, 0.95, 12)[:, None]
        ys = np.sin(4 * xs[:, 0])
        lmls = []
        for noise in (1e-6, 1e-2, 0.5):
            params = KernelParams(theta0=1.0, lengthscales=[0.3], noise_var=noise)
            lmls.append(log_marginal_likelihood(fit_model(space, xs, ys, params)))
        assert lmls[0] > lmls[1] > lmls[2]


class TestFitBounds:
    def test_valid_pairs_accepted(self):
        FitBounds()
        bounds = FitBounds(log_theta0=[-1, 1], log_lengthscale=(np.float64(-1.5), np.int64(1)))
        assert bounds.log_theta0 == (-1, 1)  # stored as a tuple

    @pytest.mark.parametrize("field", ["log_theta0", "log_lengthscale", "log_noise"])
    @pytest.mark.parametrize("bad", [
        (0.0, -8.0), (1.0, 1.0), (-8.0,), (-8.0, 0.0, 1.0), (float("nan"), 0.0),
        (-8.0, float("inf")), ("-8", "0"), "ab", -8.0, None, [[-8, 0], 1], np.array([-8.0, 0.0]),
    ])
    def test_invalid_pair_names_the_field(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be a finite pair"):
            FitBounds(**{field: bad})

    @pytest.mark.parametrize("field", ["log_theta0", "log_lengthscale", "log_noise"])
    @pytest.mark.parametrize("bad", [(-400, -399), (300, 310), (-301, 0), (0, 300.5)])
    def test_pair_outside_the_log10_range_names_the_field(self, field, bad):
        # 10**310 is inf and 10**-400 is 0: neither is a usable hyperparameter
        with pytest.raises(ConfigError, match=rf"{field} must lie within \[-300, 300\]"):
            FitBounds(**{field: bad})

    def test_range_ends_accepted(self):
        bounds = FitBounds(log_theta0=(-300, 300))
        assert 0 < 10.0 ** bounds.log_theta0[0] and 10.0 ** bounds.log_theta0[1] < np.inf


class TestFitHyperparams:
    def test_recovers_generating_process(self):
        rng = np.random.default_rng(7)
        space = unit_box()
        true = KernelParams(theta0=1.0, lengthscales=[0.2], noise_var=0.01)
        xs = rng.random((40, 1))
        K = gram_matrix(xs, true) + true.noise_var * np.eye(40)
        ys = np.linalg.cholesky(K + 1e-12 * np.eye(40)) @ rng.normal(size=40)
        fitted = fit_hyperparams(space, xs, ys, np.random.default_rng(8))
        lml_true = log_marginal_likelihood(fit_model(space, xs, ys, true))
        lml_fit = log_marginal_likelihood(fit_model(space, xs, ys, fitted))
        assert lml_fit >= lml_true - 1e-3

    def test_degenerate_targets_do_not_error(self):
        space = unit_box()
        fitted = fit_hyperparams(space, [[0.2], [0.8]], [1.0, 1.0], np.random.default_rng(0))
        assert fitted.theta0 > 0

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        space = unit_box()
        xs = rng.random((6, 1))
        ys = rng.normal(size=6)
        a = fit_hyperparams(space, xs, ys, np.random.default_rng(1))
        b = fit_hyperparams(space, xs, ys, np.random.default_rng(1))
        assert a.theta0 == b.theta0
        assert np.array_equal(a.lengthscales, b.lengthscales)
        assert a.noise_var == b.noise_var

    @pytest.mark.parametrize("noise_var", [None, 0.3])
    def test_one_observation_gets_the_fallback_without_drawing(self, noise_var):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        fitted = fit_hyperparams(unit_box(2), [[0.1, 0.7]], [2.0], rng, noise_var=noise_var)
        want = gp.fallback_params(2, noise_var)
        assert (fitted.theta0, fitted.noise_var) == (want.theta0, want.noise_var)
        assert np.array_equal(fitted.lengthscales, want.lengthscales)
        assert rng.bit_generator.state == state
        with pytest.raises(InvalidParamsError, match="finite"):
            fit_hyperparams(unit_box(2), [[0.1, 0.7]], [np.nan], rng)

    @pytest.mark.parametrize("noise_var", [None, 0.3])
    def test_every_particle_failing_to_factorize_gets_the_fallback(self, monkeypatch, noise_var):
        monkeypatch.setattr(gp, "_potrf", lambda a, lower, clean: (a, 1))  # info 1: not positive definite
        rng = np.random.default_rng(4)
        fitted = fit_hyperparams(unit_box(2), rng.random((4, 2)), rng.normal(size=4),
                                 np.random.default_rng(5), noise_var=noise_var)
        want = gp.fallback_params(2, noise_var)
        assert (fitted.theta0, fitted.noise_var) == (want.theta0, want.noise_var)
        assert np.array_equal(fitted.lengthscales, want.lengthscales)

    def test_pinned_noise_respected(self):
        rng = np.random.default_rng(10)
        space = unit_box()
        fitted = fit_hyperparams(space, rng.random((5, 1)), rng.normal(size=5),
                                 np.random.default_rng(2), noise_var=0.123)
        assert fitted.noise_var == 0.123


class TestHyperparamScorer:
    """The batch fitness fit_hyperparams hands to run_pso scores each row as
    log_marginal_likelihood(fit_model(...)), bit for bit, and -inf where
    fit_model raises FactorizationFailureError."""

    @staticmethod
    def scorer(monkeypatch, space, xs, ys, noise_var=None):
        handed = []
        real = gp.run_pso
        monkeypatch.setattr(gp, "run_pso", lambda hyper_space, params, fitness, rng, **kw:
                            handed.append(fitness) or real(hyper_space, params, fitness, rng, **kw))
        fit_hyperparams(space, xs, ys, np.random.default_rng(0), noise_var=noise_var)
        return handed[0]

    @staticmethod
    def reference(space, xs, ys, Z, noise_var=None):
        d = space.dim
        out = []
        for z in Z:
            params = KernelParams(theta0=10.0 ** z[0], lengthscales=10.0 ** z[1:1 + d],
                                  noise_var=10.0 ** z[1 + d] if noise_var is None else noise_var)
            try:
                out.append(log_marginal_likelihood(fit_model(space, xs, ys, params)))
            except FactorizationFailureError:
                out.append(-np.inf)
        return np.array(out)

    def test_rows_equal_fit_model_lml(self, monkeypatch):
        rng = np.random.default_rng(11)
        space = SearchSpace([Dimension("a", REAL, -5, 10), Dimension("b", REAL, 0, 15)])
        xs = rng.uniform(space.lower, space.upper, size=(12, 2))
        ys = rng.normal(size=12)
        fitness = self.scorer(monkeypatch, space, xs, ys)
        Z = rng.uniform([-3, -2, -2, -8], [3, 2, 2, 0], size=(32, 4))
        assert np.array_equal(fitness(Z), self.reference(space, xs, ys, Z))

    def test_rows_equal_fit_model_lml_through_jitter_and_failure(self, monkeypatch):
        # a stand-in Cholesky for ill-conditioned data: it fails while the
        # duplicated pair's diagonal exceeds their covariance by less than
        # 5e-8 relative (zero noise escalates the jitter three decades) and
        # always fails for theta0 above 100
        real = gp._potrf

        def fragile(A, **kwargs):
            if A[0, 1] > 100.0 or A[0, 0] - A[0, 1] < 5e-8 * A[0, 1]:
                return A, 1  # LAPACK's "leading minor 1 is not positive definite"
            return real(A, **kwargs)

        monkeypatch.setattr(gp, "_potrf", fragile)
        space = unit_box()
        xs, ys = [[0.3], [0.3], [0.6], [0.9]], [1.0, 1.0, -1.0, 0.5]
        params = KernelParams(theta0=1.0, lengthscales=[0.5], noise_var=0.0)
        assert fit_model(space, xs, ys, params).jitter == pytest.approx(1e-7)
        fitness = self.scorer(monkeypatch, space, xs, ys, noise_var=0.0)
        Z = np.column_stack([np.linspace(-3, 3, 13), np.linspace(2, -2, 13)])
        expected = self.reference(space, xs, ys, Z, noise_var=0.0)
        assert np.isneginf(expected).sum() == 2 and np.isfinite(expected).sum() == 11
        assert np.array_equal(fitness(Z), expected)

    def test_no_fit_model_call(self, monkeypatch):
        calls = []
        real = gp.fit_model
        monkeypatch.setattr(gp, "fit_model", lambda *args: calls.append(args) or real(*args))
        fit_hyperparams(unit_box(), [[0.1], [0.5], [0.9]], [0.0, 1.0, 0.5],
                        np.random.default_rng(0))
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("noise_var", [None, 1e-3], ids=["fitted-noise", "pinned-noise"])
    def test_rows_equal_fit_model_lml_per_dimension(self, monkeypatch, d, noise_var):
        rng = np.random.default_rng(20 + d)
        space = SearchSpace([Dimension(f"x{j}", REAL, -5, 10) for j in range(d)])
        xs = rng.uniform(space.lower, space.upper, size=(15, d))
        ys = rng.normal(size=15)
        fitness = self.scorer(monkeypatch, space, xs, ys, noise_var=noise_var)
        lower = [-3] + [-2] * d + ([-8] if noise_var is None else [])
        upper = [3] + [2] * d + ([0] if noise_var is None else [])
        Z = rng.uniform(lower, upper, size=(64, len(lower)))
        assert np.array_equal(fitness(Z), self.reference(space, xs, ys, Z, noise_var=noise_var))

    def test_one_particle_escalates_its_own_jitter(self, monkeypatch):
        # the stand-in rejects only the particle whose theta0 is `marked`, until its
        # jitter reaches 1e-7*theta0; every other particle factorizes at the first try
        marked = 10.0 ** 1.5
        attempts = []
        real = gp._potrf

        def fragile(A, **kwargs):
            attempts.append(A[0, 0])
            if marked <= A[0, 0] < marked * (1 + 5e-8):
                return A, 1
            return real(A, **kwargs)

        space = unit_box(2)
        xs, ys = [[0.1, 0.2], [0.4, 0.9], [0.7, 0.3], [0.9, 0.6]], [0.3, -1.0, 0.8, 0.1]
        fitness = self.scorer(monkeypatch, space, xs, ys, noise_var=0.0)
        Z = np.column_stack([np.linspace(-1, 1, 5), np.full(5, -0.3), np.full(5, 0.2)])
        Z[2, 0] = 1.5
        monkeypatch.setattr(gp, "_potrf", fragile)
        scores = fitness(Z)
        assert len(attempts) == len(Z) + 3  # the marked particle alone escalates three decades
        expected = self.reference(space, xs, ys, Z, noise_var=0.0)
        assert np.array_equal(scores, expected)
        params = KernelParams(theta0=marked, lengthscales=10.0 ** Z[2, 1:], noise_var=0.0)
        assert fit_model(space, xs, ys, params).jitter == pytest.approx(1e-7 * marked)
        monkeypatch.setattr(gp, "_potrf", real)
        unescalated = fitness(Z)
        assert scores[2] != unescalated[2]
        assert np.array_equal(np.delete(scores, 2), np.delete(unescalated, 2))

    @pytest.mark.parametrize("noise_var", [None, 1e-3], ids=["fitted-noise", "pinned-noise"])
    def test_fitness_called_once_per_step_with_the_whole_batch(self, monkeypatch, noise_var):
        shapes, traces = [], []
        real = gp.run_pso

        def recording(hyper_space, params, fitness, rng, **kw):
            result = real(hyper_space, params, lambda Z: shapes.append(Z.shape) or fitness(Z), rng,
                          **kw)
            traces.append(result.trace)
            return result

        monkeypatch.setattr(gp, "run_pso", recording)
        rng = np.random.default_rng(3)
        fit_hyperparams(unit_box(2), rng.random((9, 2)), rng.normal(size=9),
                        np.random.default_rng(4), noise_var=noise_var)
        p = 3 + (noise_var is None)
        assert len(traces) == 1 and len(shapes) == len(traces[0])  # the initial draw + each step
        assert set(shapes) == {(gp._FIT_PSO.population, p)}

    def test_no_per_particle_gram_matrix_call(self, monkeypatch):
        calls = []
        real = gp.gram_matrix
        monkeypatch.setattr(gp, "gram_matrix", lambda *args: calls.append(args) or real(*args))
        fit_hyperparams(unit_box(), [[0.1], [0.5], [0.9]], [0.0, 1.0, 0.5],
                        np.random.default_rng(0))
        assert calls == []


class TestWarmStart:
    """fit_hyperparams(start=p) scores particle 0 at p's log10 values first."""

    @staticmethod
    def first_batch(monkeypatch, space, xs, ys, start, noise_var=None, seed=0):
        """(the swarm's first fitness batch, the scorer, the fitted params)."""
        batches, scorers = [], []
        real = gp.run_pso

        def spy(hyper_space, params, fitness, rng, **kw):
            scorers.append(fitness)
            return real(hyper_space, params,
                        lambda Z: batches.append(Z.copy()) or fitness(Z), rng, **kw)

        monkeypatch.setattr(gp, "run_pso", spy)
        fitted = fit_hyperparams(space, xs, ys, np.random.default_rng(seed),
                                 noise_var=noise_var, start=start)
        return batches[0], scorers[0], fitted

    @pytest.mark.parametrize("noise_var", [None, 1e-3], ids=["fitted-noise", "pinned-noise"])
    def test_particle_zero_is_start_log10(self, monkeypatch, noise_var):
        rng = np.random.default_rng(30)
        space = unit_box(2)
        xs, ys = rng.random((8, 2)), rng.normal(size=8)
        start = KernelParams(theta0=2.5, lengthscales=[0.3, 0.07], noise_var=1e-4)
        Z, _, _ = self.first_batch(monkeypatch, space, xs, ys, start, noise_var)
        expected = [np.log10(2.5), np.log10(0.3), np.log10(0.07)]
        if noise_var is None:
            expected.append(np.log10(1e-4))
        assert np.array_equal(Z[0], expected)
        cold, _, _ = self.first_batch(monkeypatch, space, xs, ys, None, noise_var)
        assert np.array_equal(Z[1:], cold[1:])

    def test_start_outside_bounds_is_clamped(self, monkeypatch):
        rng = np.random.default_rng(31)
        xs, ys = rng.random((6, 1)), rng.normal(size=6)
        start = KernelParams(theta0=1e6, lengthscales=[1e-5], noise_var=0.0)
        Z, _, _ = self.first_batch(monkeypatch, unit_box(), xs, ys, start)
        assert np.array_equal(Z[0], [3.0, -2.0, -8.0])  # FitBounds' upper, lower, lower

    @pytest.mark.parametrize("seed", range(6))
    def test_lml_never_below_start(self, monkeypatch, seed):
        rng = np.random.default_rng(40 + seed)
        space = unit_box(2)
        xs, ys = rng.random((10, 2)), np.sin(6 * rng.random(10)) + 0.1 * rng.normal(size=10)
        start = KernelParams(theta0=10.0 ** rng.uniform(-3, 3),
                             lengthscales=10.0 ** rng.uniform(-2, 2, size=2),
                             noise_var=10.0 ** rng.uniform(-8, 0))
        Z, scorer, fitted = self.first_batch(monkeypatch, space, xs, ys, start, seed=seed)
        at_start = TestHyperparamScorer.reference(space, xs, ys, Z[:1])[0]
        assert scorer(Z[:1])[0] == at_start
        assert log_marginal_likelihood(fit_model(space, xs, ys, fitted)) >= at_start

    def test_wrong_dimension_start_rejected(self):
        start = KernelParams(theta0=1.0, lengthscales=[0.5, 0.5], noise_var=1e-6)
        with pytest.raises(DimensionMismatchError):
            fit_hyperparams(unit_box(), [[0.1], [0.9]], [0.0, 1.0], np.random.default_rng(0),
                            start=start)


class TestNonFiniteData:
    """Non-finite training data is rejected up front, before any factorization."""

    @pytest.mark.parametrize("fit", ["fit_model", "fit_hyperparams"])
    @pytest.mark.parametrize("where, bad", [("ys", float("nan")), ("ys", float("inf")),
                                            ("xs", float("nan")), ("xs", float("-inf"))])
    def test_rejected(self, fit, where, bad):
        data = {"xs": [[0.2], [0.5], [0.7]], "ys": [1.0, 0.0, -1.0]}
        data[where][1] = [bad] if where == "xs" else bad
        call = {"fit_model": lambda: fit_model(unit_box(), data["xs"], data["ys"],
                                               KernelParams(1.0, [0.5], 0.0)),
                "fit_hyperparams": lambda: fit_hyperparams(unit_box(), data["xs"], data["ys"],
                                                           np.random.default_rng(0))}[fit]
        with pytest.raises(InvalidParamsError, match="xs and ys must be finite"):
            call()

    @pytest.mark.parametrize("kwargs", [{"theta0": float("inf")}, {"theta0": float("nan")},
                                        {"lengthscales": [float("inf")]},
                                        {"lengthscales": [float("nan")]},
                                        {"noise_var": float("inf")}, {"noise_var": float("nan")}])
    def test_non_finite_kernel_params_rejected(self, kwargs):
        with pytest.raises(InvalidParamsError, match="finite"):
            KernelParams(**{"theta0": 1.0, "lengthscales": [0.5], "noise_var": 0.0, **kwargs})


class TestPointWidth:
    """A point whose width differs from the kernel's or the space's is rejected,
    not broadcast into a different point."""

    WIDTHS = pytest.mark.parametrize("width", [1, 3], ids=["narrower", "wider"])

    @staticmethod
    def data(width):
        rng = np.random.default_rng(5)
        return rng.random((6, width)), rng.standard_normal(6)

    @WIDTHS
    def test_gram_matrix(self, width):
        params = KernelParams(theta0=1.0, lengthscales=[0.5, 0.5], noise_var=0.0)
        with pytest.raises(DimensionMismatchError, match=f"point has {width} coordinates"):
            gram_matrix(np.zeros((2, width)), params)

    @WIDTHS
    def test_predict(self, width):
        xs, ys = self.data(2)
        model = fit_model(unit_box(2), xs, ys, KernelParams(1.0, [0.5, 0.5], 1e-6))
        with pytest.raises(DimensionMismatchError, match=f"point has {width} coordinates"):
            predict(model, np.full((1, width), 0.3))
        with pytest.raises(DimensionMismatchError):
            predict(model, np.full(width, 0.3))

    @WIDTHS
    def test_fit_model(self, width):
        xs, ys = self.data(width)
        with pytest.raises(DimensionMismatchError, match=f"point has {width} coordinates"):
            fit_model(unit_box(2), xs, ys, KernelParams(1.0, [0.5, 0.5], 1e-6))

    @WIDTHS
    def test_fit_hyperparams(self, width):
        xs, ys = self.data(width)
        with pytest.raises(DimensionMismatchError, match=f"point has {width} coordinates"):
            fit_hyperparams(unit_box(2), xs, ys, np.random.default_rng(0))


class TestLapackBinding:
    """gp binds scipy's own LAPACK objects without importing scipy.linalg."""

    # in a fresh interpreter, after the imports in either order: whether gp's
    # routines are scipy.linalg.lapack's, whether one _flapack module is loaded,
    # and whether scipy.linalg.cholesky still works and gives gp's factor
    CHECK = """
import numpy as np
from scipy.linalg import _flapack, cholesky, lapack
from swarmbo import gp
a = np.array([[4.0, 2.0, 0.4], [2.0, 3.0, 0.5], [0.4, 0.5, 2.0]])
print(gp._potrf is lapack.dpotrf, gp._potrs is lapack.dpotrs, gp._trtrs is lapack.dtrtrs,
      _flapack is gp._flapack, np.array_equal(cholesky(a, lower=True), gp._potrf(a, lower=1, clean=1)[0]))
"""

    @pytest.mark.parametrize("imports", ["import swarmbo.cli; import scipy.linalg",
                                         "import scipy.linalg; import swarmbo.cli"],
                             ids=["swarmbo_first", "scipy_linalg_first"])
    def test_routines_are_scipy_linalg_lapacks(self, imports):
        assert run_fresh_interpreter(imports + "\n" + self.CHECK) == "True True True True True"

    def test_missing_extension_names_the_directory(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(gp, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match="_flapack is not in .*linalg"):
            gp._load_flapack()
