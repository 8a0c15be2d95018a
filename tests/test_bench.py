import json
import multiprocessing
import os
import pickle
import sys
from dataclasses import asdict

import numpy as np
import pytest
import yaml

from swarmbo import bench, boloop
from swarmbo.acquisition import EI, PI, UCB, AcquisitionSpec, evaluate
from swarmbo.bench import (
    GRID_SEARCH,
    ExperimentReport,
    LOCAL_BO,
    MethodSpec,
    ObjectiveSpec,
    PSO_BO,
    RANDOM_SEARCH,
    default_space,
    eval_objective,
    grid_points,
    local_ascent,
    run_experiment,
    run_method_cell,
    write_report_csv,
)
from swarmbo.boloop import BO, INIT, BoConfig, BoResult, ObjectiveFailureError, component_rng
from swarmbo.gp import KernelParams, fit_model
from swarmbo.cli import EXIT_CONFIG, EXIT_RUNTIME, main
from swarmbo.pso import PsoParams
from swarmbo.space import ConfigError, Dimension, DimensionMismatchError, INTEGER, REAL, SearchSpace

from helpers import read_report_csv, sweep_methods

BRANIN_OPT = 0.397887357729738  # value at (pi, 2.275), frozen via mpmath
HARTMANN3_OPT = -3.86278


def as_json(result: BoResult) -> str:
    """Every field of a cell's record, its floats written exactly (repr)."""
    return json.dumps(asdict(result), default=np.ndarray.tolist)


SPACE_1D = SearchSpace([Dimension("a", REAL, 0, 1)])

# every size field, built with the value n; each is an integer in [least, sys.maxsize]
SIZES = {
    "dims": lambda n: ObjectiveSpec("sphere", dims=n),
    "points_per_dim": lambda n: MethodSpec(GRID_SEARCH, points_per_dim=n),
    "population": lambda n: PsoParams(population=n),
    "max_iters": lambda n: PsoParams(max_iters=n),
    "patience": lambda n: PsoParams(patience=n),
    "init_count": lambda n: BoConfig(space=SPACE_1D, init_count=n),
    "iterations": lambda n: BoConfig(space=SPACE_1D, iterations=n),
    "restarts": lambda n: MethodSpec(LOCAL_BO, restarts=n),
    "max_steps": lambda n: MethodSpec(LOCAL_BO, max_steps=n),
    "budget": lambda n: run_experiment([MethodSpec(RANDOM_SEARCH)], ObjectiveSpec("sphere", dims=1),
                                       [0], n),
    "jobs": lambda n: run_experiment([MethodSpec(RANDOM_SEARCH)], ObjectiveSpec("sphere", dims=1),
                                     [0], 1, jobs=n),  # one cell: no pool at any count
}


@pytest.mark.parametrize("field", list(SIZES))
def test_size_past_sys_maxsize_is_a_config_error(field):
    # a size numpy cannot index fails when it is built, not mid-run; building
    # at sys.maxsize itself allocates nothing (a budget that size would run)
    if field != "budget":
        SIZES[field](sys.maxsize)
    with pytest.raises(ConfigError, match=f"{field} must be at most {sys.maxsize}"):
        SIZES[field](sys.maxsize + 1)


@pytest.mark.parametrize("value", [-10**5000, 10**5000], ids=["below", "above"])
def test_size_of_5001_digits_is_a_config_error(value):
    # the message names the field but not the value, whose repr would raise
    with pytest.raises(ConfigError, match="^population must be at (least 2|most [0-9]+)$"):
        PsoParams(population=value)


NON_NEGATIVE = {  # every non-negative number field, and the seeds, which are no sizes
    "tol": lambda v: PsoParams(tol=v),
    "noise_var": lambda v: BoConfig(space=SPACE_1D, noise_var=v),
    "noise_std": lambda v: ObjectiveSpec("sphere", dims=1, noise_std=v),
    "gamma": lambda v: AcquisitionSpec(gamma=v),
    "xi": lambda v: AcquisitionSpec(xi=v),
    "seed": lambda v: BoConfig(space=SPACE_1D, seed=v),
    "seeds": lambda v: run_experiment([MethodSpec(RANDOM_SEARCH)], ObjectiveSpec("sphere", dims=1),
                                      [0, v], 3),
}


@pytest.mark.parametrize("field", [*SIZES, *NON_NEGATIVE])
def test_nan_fails_every_range_check(field):
    # every comparison with NaN is false, so each check is written to fail on it
    with pytest.raises(ConfigError, match=rf"^{field} must .*nan"):
        {**SIZES, **NON_NEGATIVE}[field](float("nan"))


@pytest.mark.parametrize("value", [2.5, 40.0])
@pytest.mark.parametrize("field", [*SIZES, "seed", "seeds"])
def test_non_integer_size_is_a_config_error(field, value):
    # a float in range passes every comparison, then fails mid-run in range() or a shape
    with pytest.raises(ConfigError, match=rf"^{field} must be (an integer|integers), got .*{value}"):
        {**SIZES, **NON_NEGATIVE}[field](value)


@pytest.mark.parametrize("kwargs", [{"restarts": sys.maxsize + 1}, {"max_steps": sys.maxsize + 1},
                                    {"restarts": float("nan")}, {"max_steps": float("nan")}],
                         ids=["restarts-past-maxsize", "max-steps-past-maxsize", "nan-restarts",
                              "nan-max-steps"])
def test_local_ascent_checks_its_sizes(kwargs):
    ((field, _),) = kwargs.items()
    with pytest.raises(ConfigError, match=f"^{field} must be at"):
        local_ascent(SPACE_1D, lambda X: np.zeros(len(X)), np.random.default_rng(0), **kwargs)


@pytest.mark.parametrize("kind, key, value", [
    (RANDOM_SEARCH, "pso", PsoParams()), (RANDOM_SEARCH, "restarts", 5),
    (PSO_BO, "max_steps", -3), (PSO_BO, "points_per_dim", 1), (LOCAL_BO, "pso", PsoParams()),
    (LOCAL_BO, "points_per_dim", 3), (GRID_SEARCH, "restarts", sys.maxsize + 1)])
def test_method_key_its_kind_never_reads_is_a_config_error(kind, key, value):
    # only a key the kind reads may leave its default; the message names the key, not the value
    MethodSpec(kind, **{key: getattr(MethodSpec(kind), key)})
    with pytest.raises(ConfigError, match=f"^{key} does not apply to a {kind} method$"):
        MethodSpec(kind, **{key: value})


class TestObjectives:
    def test_noisy_objective_needs_an_rng(self):
        spec = ObjectiveSpec("sphere", dims=1, noise_std=0.1)
        with pytest.raises(ValueError, match="noisy objective needs an rng"):
            eval_objective(spec, np.zeros(1))

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


def lockstep_local_ascent(space, surface, rng, restarts=10, max_steps=200):
    """The array-based lockstep local ascent that the float-state one replaced,
    kept as the bit-identity reference: same rounds, same rows, same result."""
    d = space.dim
    h = 1e-6 * space.ranges
    offsets = np.concatenate([h * np.eye(d), -(h * np.eye(d))])
    x = np.array([bench.sample_uniform(space, rng) for _ in range(restarts)])
    v = np.array(surface(x), dtype=float)
    step = np.full(restarts, 0.1)
    direction = np.zeros_like(x)
    moves = np.zeros(restarts, dtype=int)
    active = np.full(restarts, max_steps > 0)
    searching = np.zeros(restarts, dtype=bool)
    while active.any():
        grad_idx = np.flatnonzero(active & ~searching)
        line_idx = np.flatnonzero(active & searching)
        probes = (x[grad_idx, None] + offsets).reshape(-1, d)
        cands = bench.clamp(space, x[line_idx] + step[line_idx, None] * space.ranges * direction[line_idx])
        vals = np.asarray(surface(np.concatenate([probes, cands])), dtype=float)
        probe_vals = vals[: len(probes)].reshape(-1, 2, d)
        cand_vals = vals[len(probes) :]

        with np.errstate(invalid="ignore"):
            grad = (probe_vals[:, 0] - probe_vals[:, 1]) / (2.0 * h)
        norm = np.array([np.linalg.norm(g) for g in grad])
        ok = (norm != 0.0) & np.isfinite(norm)
        direction[grad_idx[ok]] = grad[ok] / norm[ok, None]
        searching[grad_idx[ok]] = True
        active[grad_idx[~ok]] = False

        better = cand_vals > v[line_idx]
        won, lost = line_idx[better], line_idx[~better]
        x[won], v[won] = cands[better], cand_vals[better]
        step[won] = np.minimum(step[won] * 1.5, 0.5)
        moves[won] += 1
        searching[won] = False
        active[won] = moves[won] < max_steps
        step[lost] *= 0.5
        active[lost] = step[lost] > 1e-10
    return x[int(np.argmax(np.where(np.isnan(v), -np.inf, v)))]


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
        with pytest.raises(ConfigError):
            local_ascent(BRANIN_SPACE, neg_branin_rows, np.random.default_rng(0), max_steps=-1)
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError):
            local_ascent(space, lambda X: np.zeros(len(X)), np.random.default_rng(0), restarts=0)
        with pytest.raises(ConfigError):
            MethodSpec(LOCAL_BO, restarts=0)

    def test_run_local_bo_deterministic(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        config = BoConfig(space=default_space(spec), init_count=3)
        a = run_method_cell(MethodSpec(LOCAL_BO), spec, config, 4, 5)
        b = run_method_cell(MethodSpec(LOCAL_BO), spec, config, 4, 5)
        assert np.array_equal(a.incumbent_trace, b.incumbent_trace)



def recording(surface):
    """The surface, plus the list of copies of every batch it was handed."""
    batches = []

    def recorded(X):
        batches.append(np.array(X, copy=True))
        return surface(X)

    return recorded, batches


def gp_acquisition_surface(kind, d, t, seed):
    """(space, surface): the acquisition of a GP fitted to t points in a random
    d-dimensional box, the last point a duplicate of the first."""
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-5.0, 0.0, d)
    upper = lower + rng.uniform(0.5, 10.0, d)
    space = SearchSpace([Dimension(f"x{j}", REAL, lo, hi)
                         for j, (lo, hi) in enumerate(zip(lower, upper))])
    xs = rng.uniform(lower, upper, size=(t, d))
    xs[-1] = xs[0]
    ys = np.sin(3.0 * xs).sum(axis=1) + 0.1 * rng.standard_normal(t)
    params = KernelParams(theta0=rng.uniform(0.5, 2.0), lengthscales=rng.uniform(0.05, 1.0, d),
                          noise_var=1e-6)
    model = fit_model(space, xs, ys, params)
    spec, incumbent = AcquisitionSpec(kind), float(ys.max())
    return space, lambda X: evaluate(spec, model, X, incumbent)


def assert_same_ascent(space, surface, seed, restarts, max_steps):
    """local_ascent hands the surface the reference's batches, row for row and in
    order, and returns the reference's point, bit for bit."""
    got_surface, got_batches = recording(surface)
    want_surface, want_batches = recording(surface)
    got = local_ascent(space, got_surface, np.random.default_rng(seed),
                       restarts=restarts, max_steps=max_steps)
    want = lockstep_local_ascent(space, want_surface, np.random.default_rng(seed),
                                 restarts=restarts, max_steps=max_steps)
    assert len(got_batches) == len(want_batches)
    for a, b in zip(got_batches, want_batches):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return len(want_batches)


class TestLocalAscentBitIdentity:
    """On GP acquisition surfaces, whose rows depend on the batch they arrive in,
    the float-state ascent equals the array-based lockstep reference exactly."""

    @pytest.mark.parametrize("kind", [UCB, EI, PI])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_gp_surfaces(self, kind, d):
        t = 5 + 10 * (d - 1)  # 5, 15, 25, 35 training points
        space, surface = gp_acquisition_surface(kind, d, t, seed=10 * d)
        rounds = {}
        for restarts in (1, 3, 10):
            for max_steps in (0, 1, 5, 200):
                rounds[restarts, max_steps] = assert_same_ascent(
                    space, surface, d, restarts, max_steps)
        assert rounds[1, 0] == 1 and rounds[10, 200] >= rounds[10, 5] > 2

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in divide:RuntimeWarning")
    def test_difference_step_that_underflows_to_zero(self):
        # 1e-6 times a subnormal range is 0: every gradient is non-finite
        space = SearchSpace([Dimension("a", REAL, 0.0, 1e-320), Dimension("b", REAL, 0.0, 1.0)])
        assert assert_same_ascent(space, neg_branin_rows, 0, 10, 200) == 2

    @pytest.mark.parametrize("restarts", [1, 3, 10])
    @pytest.mark.parametrize("max_steps", [0, 1, 5, 200])
    def test_all_minus_inf_surface(self, restarts, max_steps):
        surface = lambda X: np.full(len(X), -np.inf)
        rounds = assert_same_ascent(BRANIN_SPACE, surface, 0, restarts, max_steps)
        assert rounds == (1 if max_steps == 0 else 2)  # the starts, then one gradient round


def run_baseline_cell(monkeypatch, method, space, budget, seed=0, value=lambda x: 0.0):
    """(points, cell): every point a baseline cell hands its objective, in order,
    and the cell's result; the objective returns value(x)."""
    seen = []
    monkeypatch.setattr(bench, "make_objective", lambda spec, seed: (
        lambda x: seen.append(np.array(x)) or value(x)))
    cell = run_method_cell(method, ObjectiveSpec("sphere", dims=space.dim), BoConfig(space=space),
                           seed, budget)
    return seen, cell


class TestRandomSearch:
    def test_budget_one(self):
        spec = ObjectiveSpec("sphere", dims=2, negate=True)
        cell = run_method_cell(MethodSpec(RANDOM_SEARCH), spec,
                               BoConfig(space=default_space(spec)), 0, 1)
        assert len(cell.incumbent_trace) == 1 and cell.best_value == cell.incumbent_trace[0]
        assert cell.n_evaluations == 1

    def test_constant_objective(self, monkeypatch):
        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        _, cell = run_baseline_cell(monkeypatch, MethodSpec(RANDOM_SEARCH), space, 10,
                                    value=lambda x: 5.0)
        assert cell.best_value == 5.0

    def test_sphere_large_budget_hits_near_optimum(self):
        spec = ObjectiveSpec("sphere", dims=2, negate=True)
        config = BoConfig(space=default_space(spec))
        hits = 0
        for seed in range(10):
            cell = run_method_cell(MethodSpec(RANDOM_SEARCH), spec, config, seed, 10_000)
            hits += cell.best_value >= -0.05
        assert hits >= 9

    def test_points_are_draws_of_the_random_search_stream(self, monkeypatch):
        space = SearchSpace([Dimension("a", REAL, -1, 3), Dimension("b", REAL, 0, 1)])
        seen, _ = run_baseline_cell(monkeypatch, MethodSpec(RANDOM_SEARCH), space, 7, seed=4)
        rng = component_rng(4, "random_search")
        assert np.array_equal(seen, [bench.sample_uniform(space, rng) for _ in range(7)])


class TestGridSearch:
    def test_three_point_lattice(self, monkeypatch):
        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        seen, _ = run_baseline_cell(monkeypatch, MethodSpec(GRID_SEARCH, points_per_dim=3),
                                    space, 3)
        assert [float(x[0]) for x in seen] == [0.0, 0.5, 1.0]

    def test_integer_lattice_is_coarser(self, monkeypatch):
        space = SearchSpace([Dimension("n", INTEGER, 2, 4)])
        seen, _ = run_baseline_cell(monkeypatch, MethodSpec(GRID_SEARCH, points_per_dim=50),
                                    space, 3)
        assert [float(x[0]) for x in seen] == [2.0, 3.0, 4.0]

    def test_small_lattice_is_padded_from_the_grid_pad_stream(self, monkeypatch):
        space = SearchSpace([Dimension("a", REAL, 0, 1), Dimension("b", REAL, -2, 2)])
        seen, cell = run_baseline_cell(monkeypatch, MethodSpec(GRID_SEARCH, points_per_dim=2),
                                       space, 7, seed=3)
        rng = component_rng(3, "grid_pad")
        lattice = [[0.0, -2.0], [0.0, 2.0], [1.0, -2.0], [1.0, 2.0]]
        assert np.array_equal(seen, lattice + [bench.sample_uniform(space, rng) for _ in range(3)])
        assert cell.n_evaluations == len(cell.incumbent_trace) == 7

    def test_large_lattice_is_truncated_to_the_budget(self, monkeypatch):
        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        seen, cell = run_baseline_cell(monkeypatch, MethodSpec(GRID_SEARCH, points_per_dim=5),
                                       space, 2)
        assert [float(x[0]) for x in seen] == [0.0, 0.25]
        assert cell.n_evaluations == 2

    def test_grid_too_large(self):
        space = SearchSpace([Dimension(f"x{i}", REAL, 0, 1) for i in range(7)])
        with pytest.raises(ConfigError):
            run_method_cell(MethodSpec(GRID_SEARCH), ObjectiveSpec("sphere", dims=7),
                            BoConfig(space=space), 0, 10)
        with pytest.raises(ConfigError):
            grid_points(space, 10)  # at the call, before any point is drawn

    def test_over_cap_lattice_builds_no_axis(self, monkeypatch):
        # the lattice is counted before any axis is built: 10**12 points per
        # dim would allocate terabytes; the integer dim counts its 6 integers
        space = SearchSpace([Dimension("a", REAL, 0, 1), Dimension("n", INTEGER, 0, 5)])

        def no_axis(*args, **kwargs):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(np, "linspace", no_axis)
        monkeypatch.setattr(np, "arange", no_axis)
        with pytest.raises(ConfigError, match="grid of 6000000000000 points exceeds cap 1000000"):
            grid_points(space, 10**12)

    @pytest.mark.parametrize("points_per_dim, axis", [
        (3, [1.0, 2.0, 3.0]), (4, [1.0, 2.0, 3.0]), (2, [0.5, 3.5])])
    def test_integer_axis_is_its_integers_while_they_fit(self, points_per_dim, axis):
        space = SearchSpace([Dimension("n", INTEGER, 0.5, 3.5)])
        assert [float(x[0]) for x in grid_points(space, points_per_dim)] == axis


class TestOneRecord:
    """Every kind of cell returns the BoResult of the evaluations it made."""

    # value 1 where the integer n is at least 2, else 0: the best is reached
    # more than once, at different points
    SPACE = SearchSpace([Dimension("a", REAL, 0, 1), Dimension("n", INTEGER, 0, 3)])

    @pytest.mark.parametrize("method", [
        MethodSpec(PSO_BO), MethodSpec(LOCAL_BO, restarts=2, max_steps=10),
        MethodSpec(RANDOM_SEARCH), MethodSpec(GRID_SEARCH, points_per_dim=3),
    ], ids=lambda m: m.kind)
    def test_cell_is_the_record_of_its_history(self, monkeypatch, method):
        seen, cell = run_baseline_cell(monkeypatch, method, self.SPACE, 9, seed=1,
                                       value=lambda x: float(x[1] >= 2))
        assert isinstance(cell, BoResult)
        # the history holds exactly the points the objective saw, in order
        assert np.array_equal([r.materialized for r in cell.history], seen)
        ys = [float(x[1] >= 2) for x in seen]
        assert [r.y for r in cell.history] == ys
        bo = method.kind in (PSO_BO, LOCAL_BO)
        assert [r.phase for r in cell.history] == ([INIT] * 5 + [BO] * 4 if bo
                                                   else [method.kind] * 9)
        # the first of tied maxima is the best
        first = ys.index(1.0)
        assert ys.count(1.0) > 1
        assert cell.best_value == 1.0 and np.array_equal(cell.best_point, seen[first])
        # running maximum from the initial design's last row (BoConfig's
        # default init_count 5), or from the first evaluation for a baseline
        start = 5 if bo else 1
        assert np.array_equal(cell.incumbent_trace, np.maximum.accumulate(ys)[start - 1:])
        assert cell.n_evaluations == len(seen) == 9


class TestRunExperiment:
    def test_space_width_must_match_objective(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=3, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        space = SearchSpace([Dimension("a", REAL, 0, 1), Dimension("b", REAL, 0, 1)])
        with pytest.raises(ValueError, match="space has 2 dimensions, objective 'sphere' has dims=3"):
            run_experiment([MethodSpec(RANDOM_SEARCH), MethodSpec(PSO_BO)], spec, [0, 1],
                           budget=8, config=BoConfig(space=space))
        assert made == []  # checked before any cell runs

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
        assert list(pso.cells) == [0]  # the failed seed keeps no cell

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
            assert list(m.cells) == [0]

    def test_baseline_failure_names_the_evaluation(self, monkeypatch):
        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        with pytest.raises(ObjectiveFailureError) as info:
            run_baseline_cell(monkeypatch, MethodSpec(GRID_SEARCH, points_per_dim=3), space, 3,
                              value=lambda x: float("nan") if x[0] == 0.5 else 0.0)
        assert info.value.index == 1

    def test_baseline_objective_exception_names_the_evaluation(self, monkeypatch):
        def diverge(x):
            raise ValueError("solver diverged")

        space = SearchSpace([Dimension("a", REAL, 0, 1)])
        with pytest.raises(ObjectiveFailureError, match="evaluation 0 failed: solver diverged"):
            run_baseline_cell(monkeypatch, MethodSpec(RANDOM_SEARCH), space, 3, value=diverge)

    @pytest.mark.parametrize("budget", [0, -1])
    @pytest.mark.parametrize("kinds", [[GRID_SEARCH], [RANDOM_SEARCH, GRID_SEARCH],
                                       [PSO_BO, RANDOM_SEARCH]], ids=["grid", "baselines", "bo"])
    def test_budget_below_one_rejected_before_any_cell(self, monkeypatch, caplog, kinds, budget):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
            run_experiment([MethodSpec(kind) for kind in kinds], spec, [0, 1], budget=budget)
        assert made == []
        assert "cell (" not in caplog.text

    def test_method_failing_on_every_seed_reraises(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        with pytest.raises(ValueError, match="initial-design size"):
            run_experiment([MethodSpec(PSO_BO), MethodSpec(RANDOM_SEARCH)], spec, [0, 1],
                           budget=5, config=BoConfig(space=default_space(spec), init_count=5))
        assert made == []  # checked before any cell runs

    def test_duplicate_method_kind_runs(self):
        # "each kind once" is a rule of `compare`'s kind-named outputs, not of the library
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        methods = [MethodSpec(LOCAL_BO), MethodSpec(RANDOM_SEARCH), MethodSpec(LOCAL_BO, restarts=2)]
        report = run_experiment(methods, spec, [0, 1], budget=8)
        assert [m.kind for m in report.methods] == [LOCAL_BO, RANDOM_SEARCH, LOCAL_BO]
        config = BoConfig(space=default_space(spec))
        for method, m in zip(methods, report.methods):  # rows in method order
            fresh = {s: run_method_cell(method, spec, config, s, 8) for s in (0, 1)}
            assert m.per_seed_best == {s: cell.best_value for s, cell in fresh.items()}
            # each row keeps its cells' whole records: history, trace and count
            assert list(m.cells) == [0, 1]
            for s, cell in m.cells.items():
                assert as_json(cell) == as_json(fresh[s])

    def test_cells_are_keyed_by_ascending_seed(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        report = run_experiment([MethodSpec(RANDOM_SEARCH)], spec, [2, 0, 1], budget=3)
        (m,) = report.methods
        assert report.seeds == list(m.cells) == [0, 1, 2]
        assert m.eval_counts == {0: 3, 1: 3, 2: 3}

    def test_budget_parity_names_the_counts(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        a, b = (run_experiment([MethodSpec(RANDOM_SEARCH)], spec, [0], budget=n) for n in (3, 4))
        report = ExperimentReport(spec, [0], 3, a.methods + b.methods)
        with pytest.raises(AssertionError, match=r"counts differ across methods: \[3, 4\]"):
            report.assert_budget_parity()

    def test_duplicate_seeds_rejected(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=r"duplicate seeds in \[0, 1, 0\]"):
            run_experiment([MethodSpec(RANDOM_SEARCH), MethodSpec(PSO_BO)], spec, [0, 1, 0],
                           budget=8)
        assert made == []  # checked before any cell runs

    def test_needs_a_seed(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        with pytest.raises(ConfigError, match="need at least one seed"):
            run_experiment([MethodSpec(RANDOM_SEARCH)], spec, [], budget=3)

    def test_needs_a_method(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        with pytest.raises(ValueError, match="need at least one method"):
            run_experiment([], spec, [0, 1], budget=3)

    def test_one_seed_runs(self):
        # `compare` needs two seeds; the library runs one
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        report = run_experiment([MethodSpec(RANDOM_SEARCH)], spec, [1], budget=3)
        (m,) = report.methods
        assert report.seeds == [1] and list(m.per_seed_best) == [1]
        assert m.max == m.min == m.ave

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


PROPOSAL_ERRORS = [DimensionMismatchError(2, 3), ObjectiveFailureError(4, ValueError("boom"))]


class TestProcessPool:
    """run_experiment at jobs > 1: each BO step's proposal runs in a forked worker."""

    def test_pool_size_is_bounded(self):
        cpus = len(os.sched_getaffinity(0))
        assert bench.pool_size(10**9, 10**9) == cpus
        assert bench.pool_size(10**9, 3) == min(cpus, 3)
        assert bench.pool_size(1, 10**9) == 1
        assert multiprocessing.active_children() == []  # a pure function starts nothing

    def test_more_cells_than_threads_match_serial_cells(self, monkeypatch):
        # threads take the cells beyond the cap in turn; a short switch interval
        # interleaves the cell threads and the pool's own threads more often
        monkeypatch.setattr(bench, "CELL_THREADS", 2)
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        methods = [*sweep_methods([0.3, 0.6, 0.9]), MethodSpec(RANDOM_SEARCH)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reports = [run_experiment(methods, spec, [0, 1], budget=8, jobs=jobs) for jobs in (1, 3)]
        finally:
            sys.setswitchinterval(interval)
        serial, pooled = ([as_json(c) for m in r.methods for c in m.cells.values()] for r in reports)
        assert pooled == serial and len(serial) == 8

    def test_wrapped_local_ascent_crosses_the_pool(self, monkeypatch):
        # a local wrapper cannot pickle by name; a local_bo step sends the
        # module-level bench._propose and its MethodSpec, and _propose reads
        # bench.local_ascent in the forked worker, whose copy is the wrapper
        calls, real = [], bench.local_ascent

        def wrapped(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "local_ascent", wrapped)
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        methods = [MethodSpec(PSO_BO), MethodSpec(LOCAL_BO, restarts=2, max_steps=10)]
        serial = run_experiment(methods, spec, [0, 1], budget=8, jobs=1)
        assert len(calls) == 2 * 3  # once per BO step of each local_bo cell
        pooled = run_experiment(methods, spec, [0, 1], budget=8, jobs=2)
        assert [m.missing_seeds for m in pooled.methods] == [[], []]
        assert ([as_json(c) for m in pooled.methods for c in m.cells.values()]
                == [as_json(c) for m in serial.methods for c in m.cells.values()])

    @pytest.mark.parametrize("error", PROPOSAL_ERRORS, ids=type)
    def test_error_survives_a_pickle_round_trip(self, error):
        # a worker's error reaches the cell's thread pickled; one that fails to
        # unpickle breaks the pool, and every cell with it
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error) and vars(back) == vars(error)

    @pytest.mark.parametrize("error", PROPOSAL_ERRORS, ids=type)
    def test_failing_proposal_fails_only_its_cell(self, monkeypatch, caplog, error):
        real = boloop.propose_next

        def propose_next(config, *args, **kwargs):
            if config.seed == 1:
                raise error
            return real(config, *args, **kwargs)

        monkeypatch.setattr(boloop, "propose_next", propose_next)
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        outcomes = []
        for jobs in (1, 2):
            caplog.clear()
            report = run_experiment([MethodSpec(PSO_BO), MethodSpec(RANDOM_SEARCH)], spec,
                                    [0, 1, 2], budget=8, jobs=jobs)
            outcomes.append(([m.missing_seeds for m in report.methods],
                             [as_json(c) for m in report.methods for c in m.cells.values()],
                             [r.getMessage() for r in caplog.records if r.name == bench.__name__]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [[1], []]
        assert outcomes[0][2] == [f"cell (method 0: pso_bo, seed=1) failed: {error}"]


class TestOmegaSweep:
    """The inertia-weight sweep: run_experiment over sweep_methods, and `swarmbo sweep`."""

    def _config(self, tmp_path, omegas, seeds):
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump({
            "objective": {"name": "sphere", "dims": 1, "negate": True},
            "sweep": {"omegas": omegas, "seeds": seeds, "budget": 8},
        }), encoding="utf-8")
        return str(path)

    def test_nine_rows(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        omegas = [round(0.1 * k, 1) for k in range(1, 10)]
        report = run_experiment(sweep_methods(omegas), spec, [0, 1], budget=8)
        assert len(report.methods) == 9
        assert all(m.kind == PSO_BO and not m.missing_seeds for m in report.methods)
        assert all(np.isfinite(m.ave) for m in report.methods)

    def test_unstable_omega_rejected(self, tmp_path, capsys, monkeypatch):
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        out = tmp_path / "o"
        argv = ["sweep", "--config", self._config(tmp_path, [0.5, 1.5], [0, 1]),
                "--output-dir", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "1.5" in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_one_seed(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        report = run_experiment(sweep_methods([0.5, 0.9]), spec, [3], budget=8)
        assert [list(m.per_seed_best) for m in report.methods] == [[3], [3]]
        assert all(np.isfinite(m.ave) for m in report.methods)

    def test_no_omegas_rejected(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        with pytest.raises(ValueError, match="need at least one method"):
            run_experiment(sweep_methods([]), spec, [0, 1], budget=8)

    def test_duplicate_seeds_rejected(self, monkeypatch):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        made = []
        monkeypatch.setattr(bench, "make_objective", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=r"duplicate seeds in \[3, 3\]"):
            run_experiment(sweep_methods([0.5]), spec, [3, 3], budget=8)
        assert made == []

    def test_any_failed_cell_fails_the_sweep(self, tmp_path, capsys, caplog, monkeypatch):
        real = bench.make_objective

        def make(spec, seed):
            fn = real(spec, seed)
            return (lambda x: float("nan")) if seed == 1 else fn

        monkeypatch.setattr(bench, "make_objective", make)
        out = tmp_path / "o"
        argv = ["sweep", "--config", self._config(tmp_path, [0.5, 0.8], [0, 1]),
                "--output-dir", str(out)]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "(0.5, 1)" in err and "(0.8, 1)" in err
        assert not (out / "sweep.csv").exists()
        # each failed cell's warning names its method by position and omega
        assert "cell (method 0: pso_bo, omega=0.5, seed=1) failed" in caplog.text
        assert "cell (method 1: pso_bo, omega=0.8, seed=1) failed" in caplog.text
        assert "seed=0) failed" not in caplog.text

    def test_deterministic(self):
        spec = ObjectiveSpec("sphere", dims=1, negate=True)
        a = run_experiment(sweep_methods([0.8]), spec, [0, 1], budget=8)
        b = run_experiment(sweep_methods([0.8]), spec, [0, 1], budget=8)
        assert a.methods[0].per_seed_best == b.methods[0].per_seed_best
