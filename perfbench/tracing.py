"""Span recorders installed around the public entry points of each swarmbo layer.

Nothing in `src/` is edited. Each layer is measured from outside by replacing
a function on the module that calls it (a function imported by name is wrapped
on the importing module, e.g. `swarmbo.gp.run_pso` is the hyperparameter swarm
and `swarmbo.boloop.run_pso` the acquisition swarm). Wrappers pass arguments
and results through unchanged and draw no random numbers, so a traced run
returns bit-identical results.

Spans are kept in memory, one table per thread (the sweep workload runs cells
in a thread pool), and are merged only when the run ends. A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import math
import threading
from time import perf_counter


class Tracer:
    """Thread-local span stacks feeding per-thread aggregate tables."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    def _table(self):
        table = getattr(self._local, "table", None)
        if table is None:
            # stack of open frames [name, child_seconds]; spans: name ->
            # [calls, seconds, self_seconds]; counts: name -> value
            table = {"stack": [], "spans": {}, "counts": {}}
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def count(self, name, value=1):
        counts = self._table()["counts"]
        counts[name] = counts.get(name, 0) + value

    def parent(self):
        stack = self._table()["stack"]
        return stack[-1][0] if stack else None

    def wrap(self, name, fn, on_return=None, on_error=None, rename=None):
        """Span around `fn`. `rename(args)` picks a per-call span name;
        `on_return(args, kwargs, result)` and `on_error(args, kwargs, exc)` add
        counts; both run after the span closes."""

        def traced(*args, **kwargs):
            table = self._table()
            stack = table["stack"]
            span = rename(args) if rename is not None else name
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(table, frame, perf_counter() - t0)
                if on_error is not None:
                    on_error(args, kwargs, exc)
                raise
            self._close(table, frame, perf_counter() - t0)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _close(table, frame, elapsed):
        stack = table["stack"]
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        rec = table["spans"].get(frame[0])
        if rec is None:
            rec = table["spans"][frame[0]] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    def merged(self):
        """(spans, counts) summed over every thread that recorded."""
        spans, counts = {}, {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, s, self_s) in table["spans"].items():
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += s
                rec[2] += self_s
            for name, value in table["counts"].items():
                counts[name] = counts.get(name, 0) + value
        return spans, counts


class Patches:
    """Module-attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def undo(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def install(tracer: Tracer, patches: Patches):
    """Wrap the entry points of every swarmbo layer."""
    from swarmbo import acquisition, bench, boloop, gp, pso

    # a factorization that fails has tried every jitter level from
    # JITTER_START to JITTER_MAX, one per decade
    failed_attempts = int(round(math.log10(gp.JITTER_MAX / gp.JITTER_START))) + 1

    def swarm_counts(kind):
        def on_return(args, kwargs, result):
            params = args[1]
            iters = len(result.trace) - 1
            tracer.count(f"pso.{kind}.iters", iters)
            tracer.count(f"pso.{kind}.fitness_evals", params.population * len(result.trace))
            tracer.count(f"pso.{kind}.early_stops", int(iters < params.max_iters))
            if kind == "hyper" and not math.isfinite(result.best_fitness):
                # fit_hyperparams returns its default kernel in this case
                tracer.count("gp.fit_hyperparams.fallbacks")
        return on_return

    def fit_ok(args, kwargs, model):
        t = model.n_train
        escalations = int(round(math.log10(model.jitter / (gp.JITTER_START * model.params.theta0))))
        tracer.count("gp.fit_model.jitter_escalated", int(escalations > 0))
        tracer.count("gp.fit_model.chol_flops", (escalations + 1) * t**3 / 3.0)

    def fit_failed(args, kwargs, exc):
        if not isinstance(exc, gp.FactorizationFailureError):
            return
        tracer.count("gp.fit_model.failures")
        t = len(args[2]) if len(args) > 2 else len(kwargs["ys"])
        tracer.count("gp.fit_model.chol_flops", failed_attempts * t**3 / 3.0)
        if tracer.parent() == "boloop.propose_next":
            # the final surrogate fit failed: propose_next returns a random point
            tracer.count("boloop.surrogate_fallbacks")

    def predict_rows(args, kwargs, result):
        x = args[1]
        tracer.count("gp.predict.rows", 1 if getattr(x, "ndim", 1) == 1 else len(x))

    def cell_failed(args, kwargs, exc):
        tracer.count("bench.cell.failed")

    def counting(name):
        def make(fn):
            def counted(*args, **kwargs):
                tracer.count(name)
                return fn(*args, **kwargs)
            return counted
        return make

    def local_ascent(fn):
        traced = tracer.wrap("bench.local_ascent", fn)

        def wrapped(space, surface, *args, **kwargs):
            def counted_surface(X):
                tracer.count("bench.local_ascent.surface_rows", len(X))
                return surface(X)
            return traced(space, counted_surface, *args, **kwargs)
        return wrapped

    def span(name, **hooks):
        return lambda fn: tracer.wrap(name, fn, **hooks)

    patches.replace(gp, "fit_hyperparams", span("gp.fit_hyperparams"))
    patches.replace(gp, "fit_model", span("gp.fit_model", on_return=fit_ok, on_error=fit_failed))
    patches.replace(gp, "gram_matrix", span("gp.gram_matrix"))
    patches.replace(gp, "log_marginal_likelihood", span("gp.log_marginal_likelihood"))
    patches.replace(gp, "run_pso", span("pso.hyper", on_return=swarm_counts("hyper")))
    patches.replace(acquisition, "predict", span("gp.predict", on_return=predict_rows))
    patches.replace(boloop, "evaluate", span("acquisition.evaluate"))
    patches.replace(boloop, "run_pso", span("pso.acq", on_return=swarm_counts("acq")))
    patches.replace(boloop, "init_design", span("boloop.init_design"))
    patches.replace(boloop, "bo_step", span("boloop.bo_step"))
    patches.replace(boloop, "propose_next", span("boloop.propose_next"))
    patches.replace(boloop, "materialize", counting("space.materialize.calls"))
    patches.replace(bench, "materialize", counting("space.materialize.calls"))
    patches.replace(pso, "clamp", span("space.clamp"))
    patches.replace(bench, "clamp", span("space.clamp"))
    patches.replace(bench, "local_ascent", local_ascent)
    patches.replace(bench, "run_method_cell", lambda fn: tracer.wrap(
        "bench.cell", fn, on_error=cell_failed, rename=lambda args: f"bench.cell.{args[0].kind}"))
    for writer in ("write_report_json", "write_report_csv", "write_experiment_traces"):
        patches.replace(bench, writer, span("cli.outputs"))


def layer_metrics(spans, counts):
    """Flatten merged spans and counts into the per-layer metric names."""
    out = {}

    def span(name, fields=("calls", "s", "self_s")):
        calls, s, self_s = spans.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "s": s, "self_s": self_s}
        for f in fields:
            out[f"{name}.{f}"] = values[f]
        return calls

    def ratio(num, den):
        return num / den if den else 0.0

    span("gp.fit_hyperparams", fields=("calls", "s"))
    out["gp.fit_hyperparams.fallbacks"] = counts.get("gp.fit_hyperparams.fallbacks", 0)
    fits = span("gp.fit_model")
    failures = counts.get("gp.fit_model.failures", 0)
    out["gp.fit_model.failures"] = failures
    out["gp.fit_model.jitter_escalated_ratio"] = ratio(
        counts.get("gp.fit_model.jitter_escalated", 0), fits - failures)
    out["gp.fit_model.chol_flops"] = counts.get("gp.fit_model.chol_flops", 0.0)
    span("gp.gram_matrix", fields=("calls", "s"))
    span("gp.log_marginal_likelihood", fields=("s",))
    predicts = span("gp.predict", fields=("calls", "s"))
    out["gp.predict.rows"] = counts.get("gp.predict.rows", 0)
    out["gp.predict.rows_per_call"] = ratio(out["gp.predict.rows"], predicts)
    for kind in ("hyper", "acq"):
        runs = span(f"pso.{kind}")
        for field in ("iters", "fitness_evals"):
            out[f"pso.{kind}.{field}"] = counts.get(f"pso.{kind}.{field}", 0)
        out[f"pso.{kind}.early_stop_ratio"] = ratio(counts.get(f"pso.{kind}.early_stops", 0), runs)
    span("acquisition.evaluate", fields=("calls", "self_s"))
    span("bench.local_ascent")
    out["bench.local_ascent.surface_rows"] = counts.get("bench.local_ascent.surface_rows", 0)
    for kind in ("pso_bo", "local_bo", "random_search", "grid_search"):
        span(f"bench.cell.{kind}", fields=("s",))
    out["bench.cell.failed"] = counts.get("bench.cell.failed", 0)
    span("boloop.bo_step", fields=("calls", "s"))
    span("boloop.propose_next", fields=("s",))
    span("boloop.init_design", fields=("s",))
    out["boloop.surrogate_fallbacks"] = counts.get("boloop.surrogate_fallbacks", 0)
    out["space.materialize.calls"] = counts.get("space.materialize.calls", 0)
    span("space.clamp", fields=("calls", "s"))
    span("cli.outputs", fields=("s",))
    return out
