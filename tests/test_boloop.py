import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmbo import bench, gp
from swarmbo.acquisition import EI, UCB, AcquisitionSpec
from swarmbo.bench import (
    LOCAL_BO, MethodSpec, ObjectiveSpec, default_space, make_objective, run_method_cell,
)
from swarmbo.boloop import (
    BO,
    BoConfig,
    INIT,
    ObjectiveFailureError,
    bo_step,
    component_rng,
    init_design,
    propose_next,
    run_bo,
)
from swarmbo.acquisition import evaluate
from swarmbo.pso import PsoParams
from swarmbo.space import Dimension, INTEGER, REAL, SearchSpace

from dataclasses import replace


def box_1d():
    return SearchSpace([Dimension("x", REAL, 0, 1)])


def quick_config(space=None, **kwargs):
    defaults = dict(space=space or box_1d(), init_count=4, iterations=2, seed=3)
    defaults.update(kwargs)
    return BoConfig(**defaults)


class TestInitDesign:
    def test_count_and_phase(self):
        config = quick_config(init_count=5)
        history = init_design(config, lambda x: 0.0, component_rng(3, "init"))
        assert len(history) == 5
        assert all(r.phase == INIT for r in history)

    def test_constant_objective(self):
        config = quick_config()
        history = init_design(config, lambda x: 0.0, component_rng(3, "init"))
        assert all(r.y == 0.0 for r in history)

    def test_deterministic(self):
        config = quick_config()
        f = lambda x: float(x[0])
        a = init_design(config, f, component_rng(3, "init"))
        b = init_design(config, f, component_rng(3, "init"))
        assert all(np.array_equal(p.point, q.point) for p, q in zip(a, b))

    def test_objective_failure_carries_index(self):
        def bad(x):
            raise RuntimeError("boom")

        with pytest.raises(ObjectiveFailureError) as exc:
            init_design(quick_config(), bad, component_rng(3, "init"))
        assert exc.value.index == 0

    def test_integer_dims_materialized_before_evaluation(self):
        space = SearchSpace([Dimension("n", INTEGER, 0, 10)])
        seen = []
        config = quick_config(space=space, init_count=6)
        init_design(config, lambda x: seen.append(float(x[0])) or 0.0,
                    component_rng(3, "init"))
        assert all(v == int(v) for v in seen)


class TestBoStep:
    def _history(self, config, objective):
        return init_design(config, objective, component_rng(config.seed, "init"))

    def test_history_grows_by_one(self):
        config = quick_config()
        f = lambda x: -(x[0] - 0.4) ** 2
        history = self._history(config, f)
        n = len(history)
        bo_step(history, config, f, t=1)
        assert len(history) == n + 1
        assert history[-1].phase == BO

    def test_duplicate_proposal_is_accepted(self):
        config = quick_config()
        f = lambda x: 1.0
        history = self._history(config, f)
        # duplicate an existing record to force a degenerate Gram downstream
        history.append(replace(history[0], iteration=len(history)))
        bo_step(history, config, f, t=1)

    def test_proposal_maximizes_acquisition_surface(self):
        # dense-grid oracle on the same fitted surface
        config = quick_config(init_count=6, seed=11)
        f = lambda x: -(x[0] - 0.35) ** 2
        history = self._history(config, f)
        chosen, params = propose_next(config, history, t=1)

        xs = np.array([r.point for r in history])
        ys = np.array([r.y for r in history])
        fitted = gp.fit_hyperparams(config.space, xs, ys, component_rng(config.seed, "gpfit:1"),
                                    bounds=config.gp_bounds, noise_var=config.noise_var)
        model = gp.fit_model(config.space, xs, ys, fitted)
        assert params == model.params
        spec, incumbent = config.acquisition, float(np.max(ys))
        grid = np.linspace(0, 1, 10_000)[:, None]
        grid_best = float(np.max(evaluate(spec, model, grid, incumbent)))
        chosen_val = float(evaluate(spec, model, chosen[None], incumbent)[0])
        assert chosen_val >= grid_best - 1e-2


class TestRunBo:
    def test_non_finite_observation_raises_with_index(self):
        spec = ObjectiveSpec("branin", dims=2, negate=True)
        branin = make_objective(spec, 0)
        calls = []

        def objective(x):
            calls.append(1)
            return float("nan") if len(calls) == 7 else branin(x)

        config = BoConfig(space=default_space(spec), init_count=5, iterations=12, seed=0)
        with pytest.raises(ObjectiveFailureError) as info:
            run_bo(config, objective)
        assert info.value.index == 6
        assert len(calls) == 7

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 5), st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def test_any_non_finite_observation_raises(self, at, bad):
        calls = []

        def objective(x):
            calls.append(1)
            return bad if len(calls) == at + 1 else float(x[0])

        with pytest.raises(ObjectiveFailureError) as info:
            run_bo(quick_config(init_count=4, iterations=2), objective)
        assert info.value.index == at

    def test_history_length_budget(self):
        config = quick_config(init_count=1, iterations=1)
        result = run_bo(config, lambda x: float(x[0]))
        assert len(result.history) == 2
        assert result.n_evaluations == 2

    def test_exact_evaluation_count(self):
        calls = []
        config = quick_config(init_count=5, iterations=4)
        run_bo(config, lambda x: calls.append(1) or float(x[0]))
        assert len(calls) == 9

    def test_incumbent_trace_non_decreasing(self):
        config = quick_config(init_count=3, iterations=5, seed=7)
        result = run_bo(config, lambda x: float(np.sin(8 * x[0])))
        assert np.all(np.diff(result.incumbent_trace) >= 0)
        assert result.best_value == result.incumbent_trace[-1]
        assert result.best_value == max(r.y for r in result.history)

    def test_full_run_determinism(self):
        config = quick_config(init_count=3, iterations=3, seed=21)
        f = lambda x: -(x[0] - 0.6) ** 2
        a = run_bo(config, f)
        b = run_bo(config, f)
        assert np.array_equal(a.incumbent_trace, b.incumbent_trace)
        assert np.array_equal(a.best_point, b.best_point)

    def test_forrester_style_multimodal(self):
        # negated Forrester function on (0,1); grid-scan oracle for the max
        def f(x):
            return -((6 * x[0] - 2) ** 2 * np.sin(12 * x[0] - 4))

        grid = np.linspace(0, 1, 1_000_001)
        truth = float(np.max(-((6 * grid - 2) ** 2 * np.sin(12 * grid - 4))))
        hits = 0
        for seed in range(10):
            config = BoConfig(space=box_1d(), init_count=5, iterations=25, seed=seed)
            result = run_bo(config, f)
            hits += result.best_value >= truth - 5e-2
        assert hits >= 8

    def test_best_point_is_materialized(self):
        space = SearchSpace([
            Dimension("n", INTEGER, 0, 20),
            Dimension("f", REAL, 0, 1),
        ])
        config = quick_config(space=space, init_count=4, iterations=3)
        result = run_bo(config, lambda x: -abs(x[0] - 7) - (x[1] - 0.5) ** 2)
        assert result.best_point[0] == int(result.best_point[0])
        assert 0 <= result.best_point[1] <= 1

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("propose", [
        None, functools.partial(bench._propose, MethodSpec(LOCAL_BO, restarts=4, max_steps=50))],
        ids=["pso_bo", "local_bo"])
    @pytest.mark.parametrize("kind", [UCB, EI])
    def test_scaling_the_box_by_a_power_of_two_scales_every_point(self, kind, propose, seed):
        # x -> 2**k x is exact, and the GP and both maximizers work in units of
        # each dimension's range, so the input side of a run is unit-free
        f = make_objective(ObjectiveSpec("branin", negate=True), seed)
        base = default_space(ObjectiveSpec("branin"))
        runs = {}
        for k in (0, 3, -10):
            space = SearchSpace(Dimension(d.name, REAL, d.lower * 2.0**k, d.upper * 2.0**k)
                                for d in base.dims)
            config = BoConfig(space=space, acquisition=AcquisitionSpec(kind), init_count=5,
                              iterations=12, seed=seed)
            runs[k] = run_bo(config, lambda x, k=k: f(x / 2.0**k), propose=propose).history
        def bits(rows, scale=1.0):  # float.hex tells -0.0 from 0.0, as == does not
            return [([v.hex() for v in (r.point * scale).tolist()], r.y.hex()) for r in rows]

        for k in (3, -10):
            assert bits(runs[k]) == bits(runs[0], 2.0**k)


class TestWarmStart:
    """run_bo starts each step's hyperparameter fit from the previous step's params."""

    @staticmethod
    def spy(monkeypatch):
        """Record (start, first particle, fitted params) of every hyperparameter fit."""
        fits = []
        real_fit, real_pso = gp.fit_hyperparams, gp.run_pso

        def fit_hyperparams(*args, **kwargs):
            fits.append({"start": kwargs.get("start")})
            fits[-1]["fitted"] = real_fit(*args, **kwargs)
            return fits[-1]["fitted"]

        def run_pso(space, params, fitness, rng, **kw):
            def first(Z):
                fits[-1].setdefault("particle0", Z[0].copy())
                return fitness(Z)
            return real_pso(space, params, first, rng, **kw)

        monkeypatch.setattr(gp, "fit_hyperparams", fit_hyperparams)
        monkeypatch.setattr(gp, "run_pso", run_pso)
        return fits

    @pytest.mark.parametrize("noise_var", [None, 1e-4], ids=["fitted-noise", "pinned-noise"])
    def test_step_t_starts_at_step_t_minus_1(self, monkeypatch, noise_var):
        fits = self.spy(monkeypatch)
        space = SearchSpace([Dimension("a", REAL, -5, 10), Dimension("b", REAL, 0, 15)])
        config = BoConfig(space=space, init_count=4, iterations=5, seed=2, noise_var=noise_var)
        run_bo(config, lambda x: -float(np.sum((x - 1.0) ** 2)))
        assert len(fits) == 5
        assert fits[0]["start"] is None
        for prev, fit in zip(fits, fits[1:]):
            assert fit["start"] is prev["fitted"]
            p = prev["fitted"]
            expected = [np.log10(p.theta0), *np.log10(p.lengthscales)]
            if noise_var is None:
                expected.append(np.log10(p.noise_var))
            assert np.array_equal(fit["particle0"], expected)

    def test_failed_step_keeps_the_earlier_start(self, monkeypatch):
        fits = self.spy(monkeypatch)
        real = gp.fit_model
        calls = []

        def fit_model(*args):
            calls.append(1)
            if len(calls) == 2:
                raise gp.FactorizationFailureError("forced")
            return real(*args)

        monkeypatch.setattr(gp, "fit_model", fit_model)
        config = quick_config(init_count=4, iterations=3)
        result = run_bo(config, lambda x: float(np.sin(5 * x[0])))
        assert result.n_evaluations == 7
        assert [f["start"] is None for f in fits] == [True, False, False]
        assert fits[1]["start"] is fits[0]["fitted"]
        assert fits[2]["start"] is fits[0]["fitted"]  # step 2's surrogate failed

    def test_local_bo_is_warm_started_too(self, monkeypatch):
        fits = self.spy(monkeypatch)
        run_method_cell(MethodSpec(LOCAL_BO, restarts=2, max_steps=5),
                        ObjectiveSpec("sphere", dims=1), quick_config(init_count=3), 3, 6)
        assert len(fits) == 3
        assert fits[0]["start"] is None
        assert all(f["start"] is prev["fitted"] for prev, f in zip(fits, fits[1:]))


class TestConfigValidation:
    def test_init_count_positive(self):
        with pytest.raises(ValueError):
            BoConfig(space=box_1d(), init_count=0)

    def test_iterations_positive(self):
        with pytest.raises(ValueError):
            BoConfig(space=box_1d(), iterations=0)

    @pytest.mark.parametrize("noise_var", [-1.0, float("inf"), float("nan")])
    def test_bad_noise_var_rejected(self, noise_var):
        with pytest.raises(ValueError, match="noise_var must be finite and non-negative"):
            BoConfig(space=box_1d(), noise_var=noise_var)

    def test_unstable_pso_rejected(self):
        with pytest.raises(ValueError):
            BoConfig(space=box_1d(), pso=PsoParams(omega=1.5))
