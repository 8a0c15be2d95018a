import numpy as np
import pytest

from swarmbo import bench
from swarmbo.bench import (
    GRID_SEARCH,
    GridTooLargeError,
    InvalidMethodParamsError,
    LOCAL_BO,
    MethodSpec,
    ObjectiveSpec,
    PSO_BO,
    RANDOM_SEARCH,
    default_space,
    eval_objective,
    local_ascent,
    make_objective,
    omega_sweep,
    read_report_csv,
    run_experiment,
    run_grid_search,
    run_local_bo,
    run_random_search,
    write_report_csv,
)
from swarmbo.boloop import BoConfig, ObjectiveFailureError, component_rng
from swarmbo.pso import OmegaOutOfRangeError
from swarmbo.space import Dimension, DimensionMismatchError, INTEGER, REAL, SearchSpace

BRANIN_OPT = 0.397887357729738  # value at (pi, 2.275), frozen via mpmath
HARTMANN3_OPT = -3.86278


class TestObjectives:
    def test_sphere_origin_negated(self):
        spec = ObjectiveSpec("sphere", dims=3, negate=True)
        assert eval_objective(spec, np.zeros(3)) == 0.0

    def test_branin_known_minimum(self):
        spec = ObjectiveSpec("branin", dims=2)
        assert eval_objective(spec, np.array([np.pi, 2.275])) == pytest.approx(BRANIN_OPT, abs=1e-4)

    def test_rastrigin_origin(self):
        spec = ObjectiveSpec("rastrigin", dims=4)
        assert eval_objective(spec, np.zeros(4)) == 0.0

    def test_hartmann3_known_minimum(self):
        spec = ObjectiveSpec("hartmann3", dims=3)
        x = np.array([0.114614, 0.555649, 0.852547])
        assert eval_objective(spec, x) == pytest.approx(HARTMANN3_OPT, abs=1e-4)

    def test_styblinski_tang_known_minimum(self):
        spec = ObjectiveSpec("styblinski_tang", dims=2)
        x = np.full(2, -2.903534)
        assert eval_objective(spec, x) == pytest.approx(-39.16617 * 2, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eval_objective(ObjectiveSpec("sphere", dims=2), np.zeros(3))

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            ObjectiveSpec("branin", dims=3)

    @pytest.mark.parametrize("negate", ["no", "false", 0, 1, None])
    def test_negate_must_be_a_bool(self, negate):
        with pytest.raises(ValueError, match="negate must be a bool"):
            ObjectiveSpec("sphere", dims=1, negate=negate)

    def test_noise_is_seeded(self):
        spec = ObjectiveSpec("sphere", dims=1, noise_std=0.5)
        a = eval_objective(spec, np.zeros(1), np.random.default_rng(5))
        b = eval_objective(spec, np.zeros(1), np.random.default_rng(5))
        assert a == b != 0.0

    def test_default_space_bounds(self):
        space = default_space(ObjectiveSpec("branin", dims=2))
        assert space.lower.tolist() == [-5.0, 0.0]
        assert space.upper.tolist() == [10.0, 15.0]


def sequential_local_ascent(space, surface, rng, restarts=10, max_steps=200):
    """The restart-by-restart local ascent that the lockstep one replaced, kept as
    the reference: each restart runs to its end before the next one is drawn."""
    d = space.dim
    h = 1e-6 * space.ranges
    eye = np.eye(d)
    best_x, best_v = None, -np.inf
    for _ in range(restarts):
        x = bench.sample_uniform(space, rng)
        v = float(surface(x[None])[0])
        step = 0.1
        for _ in range(max_steps):
            probes = np.concatenate([x + h * eye, x - h * eye])
            vals = np.asarray(surface(probes))
            grad = (vals[:d] - vals[d:]) / (2.0 * h)
            norm = float(np.linalg.norm(grad))
            if norm == 0.0 or not np.isfinite(norm):
                break
            direction = grad / norm
            moved = False
            while step > 1e-10:
                cand = bench.clamp(space, x + step * space.ranges * direction)
                cv = float(surface(cand[None])[0])
                if cv > v:
                    x, v = cand, cv
                    step = min(step * 1.5, 0.5)
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
        if v > best_v:
            best_x, best_v = x, v
    return best_x


BRANIN_SPACE = default_space(ObjectiveSpec("branin", dims=2))


def neg_branin_rows(X):
    """Negated Branin on each row, elementwise: a row's value never depends on the batch."""
    a, b, c = 1.0, 5.1 / (4.0 * np.pi**2), 5.0 / np.pi
    r, s, t = 6.0, 10.0, 1.0 / (8.0 * np.pi)
    x0, x1 = X[:, 0], X[:, 1]
    return -(a * (x1 - b * x0**2 + c * x0 - r) ** 2 + s * (1 - t) * np.cos(x0) + s)


def plateau_rows(X):
    """A concave hill cut flat at -30: no gradient on the plateau, and no
    strictly better step onto it."""
    return np.maximum(-np.sum((X - np.array([2.5, 7.5])) ** 2, axis=1), -30.0)


def minus_inf_rows(X):
    """A concave hill that reads -inf right of x0 = 6, its peak inside that region."""
    hill = -np.sum((X - np.array([5.0, 7.5])) ** 2, axis=1)
    return np.where(X[:, 0] > 6.0, -np.inf, hill)


class _Replay:
    """An rng stand-in whose uniform draws replay the given points."""

    def __init__(self, points):
        self.points = iter(points)

    def uniform(self, lower, upper):
        return next(self.points)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
class TestLocalAscent:
    @pytest.mark.parametrize("surface", [neg_branin_rows, plateau_rows, minus_inf_rows],
                             ids=["branin", "plateau", "minus-inf"])
    @pytest.mark.parametrize("restarts", [1, 3, 10])
    @pytest.mark.parametrize("max_steps", [0, 1, 5, 200])
    def test_matches_sequential_reference(self, surface, restarts, max_steps):
        for seed in range(6):
            got = local_ascent(BRANIN_SPACE, surface, np.random.default_rng(seed),
                               restarts=restarts, max_steps=max_steps)
            want = sequential_local_ascent(BRANIN_SPACE, surface, np.random.default_rng(seed),
                                           restarts=restarts, max_steps=max_steps)
            if want is None:
                # every restart ended at -inf, where the reference returned no point;
                # the lockstep ascent returns the first restart's point
                first = bench.sample_uniform(BRANIN_SPACE, np.random.default_rng(seed))
                assert surface(got[None])[0] == -np.inf
                assert np.array_equal(got, first)
            else:
                assert np.array_equal(got, want)

    def test_minus_inf_cases_include_a_winner_and_no_winner(self):
        outcomes = {sequential_local_ascent(BRANIN_SPACE, minus_inf_rows,
                                            np.random.default_rng(seed), restarts=1) is None
                    for seed in range(6)}
        assert outcomes == {True, False}

    @pytest.mark.parametrize("surface", [neg_branin_rows, plateau_rows, minus_inf_rows],
                             ids=["branin", "plateau", "minus-inf"])
    def test_one_call_per_round(self, surface):
        rng = np.random.default_rng(3)
        starts = [bench.sample_uniform(BRANIN_SPACE, rng) for _ in range(10)]
        singles = []
        for start in starts:
            counted = bench._CountingObjective(surface)
            sequential_local_ascent(BRANIN_SPACE, counted, _Replay([start]), restarts=1)
            singles.append(counted.count)
        counted = bench._CountingObjective(surface)
        local_ascent(BRANIN_SPACE, counted, np.random.default_rng(3), restarts=10)
        assert max(singles) > 1
        assert counted.count <= 1 + max(singles)

    def test_zero_steps_returns_best_start_without_probes(self):
        counted = bench._CountingObjective(neg_branin_rows)
        best = local_ascent(BRANIN_SPACE, counted, np.random.default_rng(0), restarts=5, max_steps=0)
        rng = np.random.default_rng(0)
        starts = np.array([bench.sample_uniform(BRANIN_SPACE, rng) for _ in range(5)])
        assert counted.count == 1
        assert np.array_equal(best, starts[np.argmax(neg_branin_rows(starts))])

    def test_negative_max_steps_rejected(self):
        with pytest.raises(InvalidMethodParamsError):
            local_ascent(BRANIN_SPACE, neg_branin_rows, np.random.default_rng(0), max_steps=-1)
        with pytest.raises(InvalidMethodParamsError):
            MethodSpec(LOCAL_BO, max_steps=-1)

    def test_concave_quadratic_closed_form(self):
        space = SearchSpace([Dimension("a", REAL, -2, 4), Dimension("b", REAL, -2, 4)])
        target = np.array([1.3, 0.7])

        def surface(X):
            return -np.sum((X - target) ** 2, axis=1)

        best = local_ascent(space, surface, np.random.default_rng(0), restarts=10)
        assert np.allclose(best, target, atol=1e-4)

    def test_zero_restarts_rejected(self):
        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        with pytest.raises(InvalidMethodParamsError):
            local_ascent(space, lambda X: np.zeros(len(X)), np.random.default_rng(0), restarts=0)
        with pytest.raises(InvalidMethodParamsError):
            MethodSpec(LOCAL_BO, restarts=0)

    def test_run_local_bo_deterministic(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        config = BoConfig(space=default_space(spec), init_count=3, iterations=2, seed=4)
        a = run_local_bo(config, make_objective(spec, 4))
        b = run_local_bo(config, make_objective(spec, 4))
        assert np.array_equal(a.incumbent_trace, b.incumbent_trace)


class TestRandomSearch:
    def test_budget_one(self):
        spec = ObjectiveSpec("sphere", dims=2, negate=True)
        space = default_space(spec)
        x, v, trace = run_random_search(space, make_objective(spec, 0), 1,
                                        component_rng(0, "random_search"))
        assert len(trace) == 1 and v == trace[0]

    def test_constant_objective(self):
        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        _, v, _ = run_random_search(space, lambda x: 5.0, 10, np.random.default_rng(0))
        assert v == 5.0

    def test_sphere_large_budget_hits_near_optimum(self):
        spec = ObjectiveSpec("sphere", dims=2, negate=True)
        space = default_space(spec)
        hits = 0
        for seed in range(10):
            _, v, _ = run_random_search(space, make_objective(spec, seed), 10_000,
                                        np.random.default_rng(seed))
            hits += v >= -0.05
        assert hits >= 9


class TestGridSearch:
    def test_three_point_lattice(self):
        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        seen = []
        run_grid_search(space, lambda x: seen.append(float(x[0])) or 0.0, 3)
        assert seen == [0.0, 0.5, 1.0]

    def test_integer_lattice_is_coarser(self):
        space = SearchSpace([Dimension("n", INTEGER, 2, 4)])
        seen = []
        run_grid_search(space, lambda x: seen.append(float(x[0])) or 0.0, 50)
        assert seen == [2.0, 3.0, 4.0]

    def test_grid_too_large(self):
        space = SearchSpace([Dimension(f"x{i}", REAL, 0, 1) for i in range(7)])
        with pytest.raises(GridTooLargeError):
            run_grid_search(space, lambda x: 0.0, 10)
        with pytest.raises(GridTooLargeError):
            bench.grid_points(space, 10)  # at the call, before any point is drawn


class TestRunExperiment:
    def test_constant_objective_collapses_stats(self):
        # one integer dim whose only feasible value is 0 makes the sphere constant
        space = SearchSpace([Dimension("n", INTEGER, -0.4, 0.4)])
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        report = run_experiment([MethodSpec(RANDOM_SEARCH)], spec, [1, 2], budget=3,
                                config=BoConfig(space=space))
        m = report.methods[0]
        assert m.max == m.min == m.ave == 0.0

    def test_budget_parity_and_ordering(self):
        spec = ObjectiveSpec("sphere", dims=2, negate=True)
        methods = [MethodSpec(PSO_BO), MethodSpec(RANDOM_SEARCH),
                   MethodSpec("grid_search", points_per_dim=3)]
        report = run_experiment(methods, spec, [0, 1], budget=10)
        report.assert_budget_parity()
        for m in report.methods:
            assert m.min <= m.ave <= m.max
            assert all(c == 10 for c in m.eval_counts.values())

    def test_aggregation_is_pure_fold(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        report = run_experiment([MethodSpec(RANDOM_SEARCH)], spec, [3, 4, 5], budget=6)
        m = report.methods[0]
        vals = list(m.per_seed_best.values())
        assert m.max == max(vals)
        assert m.min == min(vals)
        assert m.ave == sum(vals) / len(vals)

    def test_non_finite_cell_is_missing(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        real = bench.make_objective

        def make(spec, seed):
            fn = real(spec, seed)
            if seed != 1:
                return fn
            calls = []
            return lambda x: calls.append(1) or (float("nan") if len(calls) == 7 else fn(x))

        monkeypatch.setattr(bench, "make_objective", make)
        report = run_experiment([MethodSpec(PSO_BO), MethodSpec(RANDOM_SEARCH)], spec,
                                [0, 1], budget=8)
        pso = report.methods[0]
        assert pso.missing_seeds == [1]
        assert list(pso.per_seed_best) == [0]

    def test_non_finite_baseline_cell_is_missing(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        real = bench.make_objective

        def make(spec, seed):
            fn = real(spec, seed)
            if seed != 1:
                return fn
            calls = []
            return lambda x: calls.append(1) or (float("nan") if len(calls) == 3 else fn(x))

        monkeypatch.setattr(bench, "make_objective", make)
        report = run_experiment([MethodSpec(RANDOM_SEARCH), MethodSpec(GRID_SEARCH)], spec,
                                [0, 1], budget=6)
        for m in report.methods:
            assert m.missing_seeds == [1]
            assert list(m.per_seed_best) == [0]

    def test_baseline_failure_names_the_evaluation(self):
        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        with pytest.raises(ObjectiveFailureError) as info:
            run_grid_search(space, lambda x: float("nan") if x[0] == 0.5 else 0.0, 3)
        assert info.value.index == 1

    def test_baseline_objective_exception_names_the_evaluation(self):
        def diverge(x):
            raise ValueError("solver diverged")

        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        with pytest.raises(ObjectiveFailureError, match="evaluation 0 failed: solver diverged"):
            run_random_search(space, diverge, 3, np.random.default_rng(0))

    def test_method_failing_on_every_seed_reraises(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        with pytest.raises(ValueError, match="initial-design size"):
            run_experiment([MethodSpec(PSO_BO), MethodSpec(RANDOM_SEARCH)], spec, [0, 1],
                           budget=5, config=BoConfig(space=default_space(spec), init_count=5))
        assert made == []  # checked before any cell runs

    def test_duplicate_method_kind_rejected(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        methods = [MethodSpec(LOCAL_BO), MethodSpec(RANDOM_SEARCH), MethodSpec(LOCAL_BO, restarts=2)]
        with pytest.raises(ValueError, match="'local_bo' is listed twice"):
            run_experiment(methods, spec, [0, 1], budget=8)
        assert made == []  # checked before any cell runs

    def test_duplicate_seeds_rejected(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=r"duplicate seeds in \[0, 1, 0\]"):
            run_experiment([MethodSpec(RANDOM_SEARCH), MethodSpec(PSO_BO)], spec, [0, 1, 0],
                           budget=8)
        assert made == []  # checked before any cell runs

    def test_needs_two_seeds(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        with pytest.raises(ValueError):
            run_experiment([MethodSpec(RANDOM_SEARCH)], spec, [1], budget=3)

    def test_csv_round_trip(self, tmp_path):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        report = run_experiment([MethodSpec(RANDOM_SEARCH), MethodSpec(PSO_BO)],
                                spec, [0, 1], budget=8)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        rows = read_report_csv(path)
        assert [r["method"] for r in rows] == [m.kind for m in report.methods]
        for row, m in zip(rows, report.methods):
            assert row["max"] == m.max and row["min"] == m.min and row["ave"] == m.ave


class TestOmegaSweep:
    def test_nine_rows(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        omegas = [round(0.1 * k, 1) for k in range(1, 10)]
        rows = omega_sweep(spec, omegas, [0, 1], budget=8)
        assert len(rows) == 9
        assert [w for w, _ in rows] == omegas
        assert all(np.isfinite(ave) for _, ave in rows)

    def test_unstable_omega_rejected(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        with pytest.raises(OmegaOutOfRangeError, match="1.5"):
            omega_sweep(spec, [0.5, 1.5], [0, 1], budget=8)

    def test_one_seed(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        rows = omega_sweep(spec, [0.5, 0.9], [3], budget=8)
        assert [w for w, _ in rows] == [0.5, 0.9]
        assert all(np.isfinite(ave) for _, ave in rows)

    def test_duplicate_seeds_rejected(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=r"duplicate seeds in \[3, 3\]"):
            omega_sweep(spec, [0.5], [3, 3], budget=8)
        assert made == []

    def test_any_failed_cell_fails_the_sweep(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        real = bench.make_objective

        def make(spec, seed):
            fn = real(spec, seed)
            return (lambda x: float("nan")) if seed == 1 else fn

        monkeypatch.setattr(bench, "make_objective", make)
        with pytest.raises(ObjectiveFailureError):
            omega_sweep(spec, [0.8], [0, 1], budget=8)

    def test_deterministic(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        a = omega_sweep(spec, [0.8], [0, 1], budget=8)
        b = omega_sweep(spec, [0.8], [0, 1], budget=8)
        assert a == b
