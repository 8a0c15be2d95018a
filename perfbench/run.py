"""swarmbo benchmark: end-to-end and per-layer metrics on two workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1] [--seconds S]

Run from anywhere inside a source checkout; the benchmark imports swarmbo
from the checkout's `src/` and writes only to a temporary directory in the
checkout root. Workloads (see BENCHMARK.json for why each was chosen):

  branin-compare       `swarmbo compare --jobs 1`: negated Branin, budget 35,
                       init 5, methods pso_bo, local_bo, random_search,
                       grid_search
  branin-sweep-jobs2   `swarmbo sweep --jobs 2`: negated Branin, budget 35,
                       omega in 0.1..0.9

`--seed` fixes the cell seeds; each workload runs a fixed number of them, so
one seed always runs the same inputs. `--seconds` is the nominal measuring
time of one run (`run_seconds` in BENCHMARK.json); it is accepted and printed
but changes nothing. Every run measures set-up in fresh interpreters first,
then runs a short untimed warm-up body and the workload body once with
tracing off. With `--trace 1` the same body runs a second time with span
recorders around each layer; per-layer metrics and the tracing overhead come
from that pair. Every body is checked: budget parity, finite bests, outputs
that agree with what the objective saw and, with tracing, bests
bit-identical to the untraced body.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer ones with `--trace 1`, as listed in BENCHMARK.json). Lines before it
are a readable table, the environment and the per-cell results. With
`--workload all` each workload runs in its own interpreter and the last line
is one such object for all of them: metric names are prefixed with
`<workload>/`, `correct` holds only if it holds for every workload, and
`attempted` and `failed` are summed. The exit code is non-zero when a
correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# per-layer metrics derived from arguments and results rather than timed
COMPUTED = {"gp.fit_model.chol_flops", "gp.predict.rows", "gp.predict.rows_per_call"}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float,
                        help="nominal measuring time of one run; printed, changes nothing")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return {}
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    import yaml

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(config_path: Path) -> dict:
    """Fresh-interpreter import + config load + space build, SETUP_REPEATS times."""
    totals, imports, loads = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        totals.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(parts["import_s"])
        loads.append(parts["load_config_s"])
    return {"setup_s": statistics.median(totals), "cli.import_s": statistics.median(imports),
            "cli.load_config.s": statistics.median(loads), "n": SETUP_REPEATS}


def end_to_end(body, setup) -> dict:
    """name -> (value, unit, sample count) for the untraced body."""
    import numpy as np

    gaps = [g for c in body.clocks if c.key[0] == "pso_bo" for g in c.gaps]
    evals = sum(len(c.points) for c in body.clocks)
    distinct = sum(len(set(c.points)) for c in body.clocks)
    p50, p90 = np.percentile(gaps, [50, 90]) if gaps else (math.nan, math.nan)
    done = [k for k in body.expected if k not in body.failed]
    return {
        "setup_s": (setup["setup_s"], "s", setup["n"]),
        "wall_s": (body.wall_s, "s", 1),
        "cpu_s": (body.cpu_s, "s", 1),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "propose_s.p50": (float(p50), "s", len(gaps)),
        "propose_s.p90": (float(p90), "s", len(gaps)),
        "distinct_eval_ratio": (distinct / evals if evals else math.nan, "ratio", evals),
        "failed_ratio": (len(body.failed) / len(body.expected), "ratio", len(body.expected)),
        **{f"regret.{kind}": (value, "objective", sum(1 for k in done if k[0] == kind))
           for kind, value in body.regret.items()},
    }


def per_layer(traced, untraced, tracer, setup, e2e) -> dict:
    from tracing import layer_metrics

    out = layer_metrics(*tracer.merged())
    # proposal latency of the untraced body; it spreads too widely across
    # workload seeds for a bounded end-to-end metric
    out["propose_s.p50"] = e2e["propose_s.p50"][0]
    out["propose_s.p90"] = e2e["propose_s.p90"][0]
    out["cli.import_s"] = setup["cli.import_s"]
    out["cli.load_config.s"] = setup["cli.load_config.s"]
    out["cli.outputs.bytes"] = traced.output_bytes
    out["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    out["regret.pso_bo"] = traced.regret.get("pso_bo", math.nan)
    return out


def print_table(title, rows):
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<8} {note}")


def run_workload(args, spec) -> int:
    import yaml

    import workloads
    from tracing import Tracer, install

    seeds = workloads.cell_seeds(args.workload, args.seed)
    errors = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        config_path = work / "config.yaml"
        config_path.write_text(yaml.safe_dump(workloads.make_config(args.workload, seeds)),
                               encoding="utf-8")
        setup = measure_setup(config_path)
        env = environment()

        warmup_path = work / "warmup.yaml"
        warmup_path.write_text(yaml.safe_dump(workloads.make_warmup_config(args.workload)),
                               encoding="utf-8")
        (work / "warmup").mkdir()
        workloads.warm_up(args.workload, warmup_path, work / "warmup")
        (work / "untraced").mkdir()
        untraced = workloads.run_body(args.workload, seeds, config_path, work / "untraced")
        bodies = [untraced]
        e2e = end_to_end(untraced, setup)
        if args.trace:
            tracer = Tracer()
            (work / "traced").mkdir()
            traced = workloads.run_body(
                args.workload, seeds, config_path, work / "traced",
                instrument=lambda patches: install(tracer, patches))
            bodies.append(traced)
            if traced.bests() != untraced.bests():
                errors.append("traced per-cell bests differ from the untraced run")
            values = per_layer(traced, untraced, tracer, setup, e2e)
            section = spec["per_layer"]
        else:
            values = {name: v for name, (v, _, _) in e2e.items()}
            section = spec["end_to_end"]

    for body in bodies:
        errors += body.errors
    if not e2e["propose_s.p50"][2]:
        errors.append("no PSO-BO proposal completed")

    print(f"workload {args.workload}  seed {args.seed}  cell seeds {seeds}  trace {args.trace}"
          f"  seconds {args.seconds}")
    print_table("untraced body",
                [(name, v, unit, f"n={n}") for name, (v, unit, n) in e2e.items()])
    if args.trace:
        print_table("per-layer (traced body)",
                    [(m["name"], values[m["name"]], m["unit"],
                      "computed" if m["name"] in COMPUTED else "")
                     for m in spec["per_layer"]])
    print("environment " + json.dumps(env, sort_keys=True))
    print("cells " + json.dumps({f"{k[0]}/{k[1]}/{k[2]}": v
                                 for k, v in sorted(untraced.bests().items(), key=str)}))
    for err in errors:
        print(f"GATE FAILED: {err}")

    # a value is NaN only when nothing was measured, which fails a gate above
    metrics = {m["name"]: {"value": None if math.isnan(values[m["name"]]) else values[m["name"]],
                           "unit": m["unit"]} for m in section}
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(b.expected) for b in bodies),
        "failed": sum(len(b.failed) for b in bodies),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Run every workload in its own interpreter; print one combined result."""
    from workloads import WORKLOADS

    worst, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result line", file=sys.stderr)
            worst = max(worst, 1)
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    if not (SRC / "swarmbo" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a swarmbo source checkout ({SRC} has no swarmbo package)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
