"""End-to-end acceptance suite. Each test prints one PASS line with the
measured numbers; tolerances are pinned in the assertions."""

import json
import time

import numpy as np
import pytest
import yaml

import swarmbo as sb
from swarmbo import bench
from swarmbo.acquisition import AcquisitionSpec, evaluate
from swarmbo.cli import EXIT_OK, main
from swarmbo.pso import (
    LearningFactorsOutOfRangeError,
    OmegaOutOfRangeError,
    PsoParams,
    check_stability,
)

BRANIN_MAX = -0.397887  # negated Branin optimum


def _report(num, detail):
    print(f"ACCEPTANCE {num} PASS: {detail}")


def kernel_oracle(a, b, params):
    r2 = sum((ai - bi) ** 2 / li**2 for ai, bi, li in zip(a, b, params.lengthscales))
    s = (5 * r2) ** 0.5
    return params.theta0 * (1 + s + 5 * r2 / 3) * np.exp(-s)


def test_criterion_1_gp_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        t = int(rng.integers(1, 9))
        space = sb.SearchSpace([sb.Dimension(f"x{j}", sb.REAL, 0, 1) for j in range(d)])
        params = sb.KernelParams(
            theta0=float(rng.uniform(0.3, 3.0)),
            lengthscales=rng.uniform(0.1, 2.0, d),
            noise_var=float(rng.uniform(1e-6, 0.2)),
        )
        xs = rng.random((t, d))
        ys = rng.normal(size=t)
        model = sb.fit_model(space, xs, ys, params)
        A = np.array([[kernel_oracle(a, b, params) for b in model.train_x]
                      for a in model.train_x])
        A += (params.noise_var + model.jitter) * np.eye(t)
        A_inv = np.linalg.inv(A)
        for x in rng.random((4, d)):
            post = sb.predict(model, x)
            k = np.array([kernel_oracle(xi, x, params) for xi in model.train_x])
            mu = float(k @ A_inv @ model.train_y)
            var = max(float(params.theta0 - k @ A_inv @ k), 0.0)
            err = max(abs((post.mean - model.y_mean) / model.y_std - mu),
                      abs(post.var / model.y_std**2 - var))
            worst = max(worst, err)
            assert err < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"50 instances, worst abs error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_kernel_ground_truth():
    params = sb.KernelParams(theta0=1.0, lengthscales=[1.0], noise_var=0.0)
    val = sb.matern52([0.0], [1.0], params)
    assert val == pytest.approx(0.52399, abs=1e-5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        p = sb.KernelParams(theta0=float(rng.uniform(0.1, 5)),
                            lengthscales=rng.uniform(0.1, 3, d), noise_var=0.0)
        a = rng.normal(size=d)
        assert sb.matern52(a, a, p) == p.theta0
    _report(2, f"matern52(r2=1) = {val:.6f}; k(a,a) = theta0 exact on 100 points")


def test_criterion_3_pso_correctness():
    space = sb.SearchSpace([sb.Dimension(f"x{i}", sb.REAL, -5, 5) for i in range(5)])
    # patience set to max_iters so the stated 200 iterations actually run
    params = PsoParams(population=40, max_iters=200, patience=200)
    start = time.perf_counter()
    hits = 0
    bests = []
    for seed in range(10):
        result = sb.run_pso(space, params, lambda X: -np.sum(X * X, axis=1),
                            np.random.default_rng(seed))
        assert np.all(np.diff(result.trace) >= 0)
        bests.append(result.best_fitness)
        hits += result.best_fitness >= -1e-3
    elapsed = time.perf_counter() - start
    assert hits >= 9
    assert elapsed < 10.0
    _report(3, f"{hits}/10 seeds reached -1e-3 (median best {np.median(bests):.1e}), {elapsed:.2f}s")


def test_criterion_4_stability_gate():
    check_stability(PsoParams(omega=0.8, c1=1.85, c2=2.0))
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(1000):
        omega = float(rng.uniform(-2, 2))
        c1 = float(rng.uniform(-1, 5))
        c2 = float(rng.uniform(-1, 5))
        inside = -1.0 < omega < 1.0 and 0.0 < c1 + c2 < 4.0 * (1.0 + omega)
        try:
            check_stability(PsoParams(omega=omega, c1=c1, c2=c2))
            accepted = True
        except (OmegaOutOfRangeError, LearningFactorsOutOfRangeError):
            accepted = False
        mismatches += accepted != inside
    assert mismatches == 0
    _report(4, "default triple accepted; 1000 random triples, 0 mismatches vs direct inequalities")


def test_criterion_5_acquisition_maximization_quality():
    space = sb.SearchSpace([sb.Dimension("a", sb.REAL, -5, 10),
                            sb.Dimension("b", sb.REAL, 0, 15)])
    spec = AcquisitionSpec(kind="ucb", gamma=2.0)
    g1, g2 = np.meshgrid(np.linspace(-5, 10, 100), np.linspace(0, 15, 100))
    grid = np.column_stack([g1.ravel(), g2.ravel()])
    # budget-matched inner optimizers: 40x300 swarm evals vs 10 restarts of
    # up-to-200-step ascent
    pso_params = PsoParams(population=40, max_iters=300, patience=300)
    start = time.perf_counter()
    beats_local = beats_grid = 0
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        xs = rng.uniform(space.lower, space.upper, (10, 2))
        ys = np.array([-bench.eval_objective(bench.ObjectiveSpec("branin"), x) for x in xs])
        params = sb.fit_hyperparams(space, xs, ys, np.random.default_rng(200 + i))
        model = sb.fit_model(space, xs, ys, params)
        surface = lambda X: evaluate(spec, model, X)
        swarm = sb.run_pso(space, pso_params, surface, np.random.default_rng(300 + i))
        local = bench.local_ascent(space, surface, np.random.default_rng(400 + i),
                                   restarts=10)
        local_val = float(surface(local[None])[0])
        grid_val = float(np.max(surface(grid)))
        beats_local += swarm.best_fitness >= local_val - 1e-9
        beats_grid += swarm.best_fitness >= grid_val - 1e-3
    elapsed = time.perf_counter() - start
    assert beats_local >= 18  # >= 90% of 20 surfaces
    assert beats_grid >= 16  # >= 80% of 20 surfaces
    assert elapsed < 60.0
    _report(5, f"swarm >= local ascent on {beats_local}/20, >= grid-1e-3 on {beats_grid}/20, {elapsed:.1f}s")


def test_criterion_6_end_to_end_dominance():
    spec = bench.ObjectiveSpec("branin", dims=2, negate=True)
    methods = [bench.MethodSpec(bench.PSO_BO), bench.MethodSpec(bench.RANDOM_SEARCH),
               bench.MethodSpec(bench.LOCAL_BO)]
    start = time.perf_counter()
    report = bench.run_experiment(methods, spec, list(range(10)), budget=35)
    elapsed = time.perf_counter() - start
    by_kind = {m.kind: m for m in report.methods}
    pso_ave = by_kind[bench.PSO_BO].ave
    assert pso_ave >= by_kind[bench.RANDOM_SEARCH].ave
    assert pso_ave >= by_kind[bench.LOCAL_BO].ave
    assert pso_ave >= BRANIN_MAX - 0.15
    assert elapsed < 120.0
    _report(6, f"PSO-BO AVE {pso_ave:.4f} vs random {by_kind[bench.RANDOM_SEARCH].ave:.4f}, "
               f"local {by_kind[bench.LOCAL_BO].ave:.4f} (optimum {BRANIN_MAX}), {elapsed:.1f}s")


def test_criterion_7_omega_sweep_analogue(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(yaml.safe_dump({
        "objective": {"name": "branin", "dims": 2, "negate": True},
        "sweep": {"omegas": [round(0.1 * k, 1) for k in range(1, 10)],
                  "seeds": [0, 1], "budget": 12},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--output-dir", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,ave_best"
    assert len(lines) == 10
    aves = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(np.isfinite(a) for a in aves)
    _report(7, f"9 sweep rows, all finite (range {min(aves):.3f}..{max(aves):.3f})")


def test_criterion_8_run_determinism(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "objective": {"name": "branin", "dims": 2, "negate": True},
        "bo": {"init_count": 5, "iterations": 5},
        "seed": 13,
    }), encoding="utf-8")
    payloads = []
    for name, jobs in [("a", "1"), ("b", "2"), ("c", "8")]:
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--output-dir", str(out),
                     "--jobs", jobs]) == EXIT_OK
        with open(out / "result.json", encoding="utf-8") as fh:
            data = json.load(fh)
        data.pop("metadata")
        payloads.append(data)
    assert payloads[0] == payloads[1] == payloads[2]
    _report(8, "result.json identical across 3 invocations with jobs in {1,2,8}")


def test_criterion_9_budget_parity(tmp_path):
    cfg = tmp_path / "compare.yaml"
    cfg.write_text(yaml.safe_dump({
        "objective": {"name": "sphere", "dims": 2, "negate": True},
        "experiment": {
            "methods": [{"kind": "pso_bo"}, {"kind": "random_search"},
                        {"kind": "local_bo", "restarts": 3, "max_steps": 30},
                        {"kind": "grid_search", "points_per_dim": 3}],
            "seeds": [0, 1, 2],
            "budget": 9,
        },
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--output-dir", str(out)]) == EXIT_OK
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    counts = {c for m in report["methods"] for c in m["eval_counts"].values()}
    assert counts == {9}
    _report(9, f"4 methods x 3 seeds all recorded exactly 9 objective evaluations")
