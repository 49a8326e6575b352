"""Span tracing around the public functions of each holdlab layer.

Every traced function is replaced at every module binding it is reachable
through (``holdlab.score.expm_at``, ``holdlab.forward.expm_at``, ... are
separate bindings of one function, and the benchmark's own modules hold
more), so calls made inside the package are seen as well as calls made by
the benchmark.  Spans are kept in memory as
(name, start, end, parent, pass id) and written out when the run ends;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import time
from pathlib import Path

import holdlab
from holdlab import cli, config, core, datasets, filters, forward, metrics, sampler, score

MODULES = {
    "core": core,
    "forward": forward,
    "score": score,
    "sampler": sampler,
    "filters": filters,
    "metrics": metrics,
    "datasets": datasets,
    "config": config,
    "cli": cli,
}

TRACED = (
    ("core", "expm_at"),
    ("core", "kron_apply"),
    ("forward", "covariance_at"),
    ("forward", "cholesky_block"),
    ("score", "mixture_at"),
    ("score", "score_last_block"),
    ("score", "score_full"),
    ("score", "mc_loss"),
    ("sampler", "pf_ode_endpoints"),
    ("filters", "convolution_reconstruct"),
    ("filters", "forced_ode_positions"),
    ("metrics", "det_ratio"),
    ("metrics", "fmem"),
    ("metrics", "gaussian_w2"),
    ("datasets", "training_points"),
    ("datasets", "heldout_points"),
    ("config", "load_config"),
    ("config", "write_resolved_config"),
    ("cli", "cmd_fmem_sweep"),
    ("cli", "cmd_generate"),
    ("cli", "cmd_theorem1_check"),
    ("cli", "cmd_collapse"),
)

# Counters derived from arguments and results, beyond calls and time.
COUNTERS = (
    "score.pairs",
    "forward.cholesky_block.floored",
    "sampler.runs",
    "sampler.ok_runs",
    "sampler.run_steps",
    "sampler.steps",
    "sampler.score_calls",
)

SPAN_FIELDS = "name,start_s,end_s,parent,pass_id"


def _rows(u) -> int:
    shape = getattr(getattr(u, "data", u), "shape", ())
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """Installs span-recording wrappers; spans are recorded only while a
    pass id is set, so set-up and output checks stay out of the trace."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.events: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, callers=()) -> None:
        """Wrap every binding in holdlab and in the ``callers`` modules."""
        modules = [holdlab, *MODULES.values(), *callers]
        for idx, (mod, fname) in enumerate(TRACED):
            original = getattr(MODULES[mod], fname)
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        observe = {
            "score.score_full": self._observe_score_full,
            "forward.cholesky_block": self._observe_cholesky,
            "sampler.pf_ode_endpoints": self._observe_endpoints,
        }.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            pass_id = self.pass_id
            if pass_id is None:
                return fn(*args, **kwargs)
            if name == "sampler.pf_ode_endpoints":
                args, kwargs = self._count_score_calls(fn, args, kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (idx, start, end, parent, pass_id)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_score_calls(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        score_fn = bound.arguments["score_fn"]
        counts = self.counts

        def counted(u, t):
            counts["sampler.score_calls"] += 1
            return score_fn(u, t)

        bound.arguments["score_fn"] = counted
        return (), dict(bound.arguments)

    def _observe_score_full(self, args, kwargs, result):
        mix = args[0]
        self.counts["score.pairs"] += _rows(args[1]) * mix.n_components

    def _observe_cholesky(self, args, kwargs, result):
        _, delta = result
        if delta > 0:
            cov = args[0]
            self.counts["forward.cholesky_block.floored"] += 1
            self.events.append(
                {"kind": "cholesky_floor", "order": cov.order, "t": cov.t,
                 "floor": delta, "pass_id": self.pass_id}
            )

    def _observe_endpoints(self, args, kwargs, result):
        params, grid, runs = kwargs["params"], kwargs["grid"], kwargs["runs"]
        _, ok, failures = result
        self.counts["sampler.runs"] += runs
        self.counts["sampler.ok_runs"] += int(ok.sum())
        self.counts["sampler.run_steps"] += runs * grid.steps
        self.counts["sampler.steps"] += grid.steps
        times = grid.times()
        for run, step in failures:
            self.events.append(
                {"kind": "divergence", "order": params.order, "run": run,
                 "t": float(times[step + 1]), "pass_id": self.pass_id}
            )

    def layer_metrics(self, traced_walls: list[float], untraced_wall: float) -> dict:
        """Per-layer metrics, averaged per traced pass."""
        passes = len(traced_walls)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.names)
        for idx, start, end, parent, _ in self.spans:
            calls[idx] += 1
            total[idx] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        wall = sum(traced_walls)
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            self_s = total[i] - child[i]
            out[f"{name}.calls"] = (calls[i] / passes, "count")
            out[f"{name}.self_s"] = (self_s / passes, "s")
            out[f"{name}.us_per_call"] = (1e6 * self_s / calls[i] if calls[i] else 0.0, "us")
            out[f"{name}.share"] = (self_s / wall, "frac")
        c = self.counts
        full = self.names.index("score.score_full")
        full_self = total[full] - child[full]
        out["score.pairs"] = (c["score.pairs"] / passes, "count")
        out["score.ns_per_pair"] = (
            1e9 * full_self / c["score.pairs"] if c["score.pairs"] else 0.0, "ns")
        out["forward.cholesky_block.floored"] = (
            c["forward.cholesky_block.floored"] / passes, "count")
        out["sampler.run_steps"] = (c["sampler.run_steps"] / passes, "count")
        out["sampler.score_calls_per_step"] = (
            c["sampler.score_calls"] / c["sampler.steps"] if c["sampler.steps"] else 0.0,
            "count")
        out["sampler.ok_frac"] = (
            c["sampler.ok_runs"] / c["sampler.runs"] if c["sampler.runs"] else 0.0, "frac")
        out["trace.overhead_frac"] = (
            statistics.median(traced_walls) / untraced_wall - 1.0, "frac")
        return out

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(SPAN_FIELDS + "\n")
            for idx, start, end, parent, pass_id in self.spans:
                fh.write(f"{self.names[idx]},{start!r},{end!r},{parent},{pass_id}\n")
