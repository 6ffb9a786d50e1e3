"""Span tracing around the calls the benchmark's jobs make into tmest.

While a traced job runs, the public functions that ``tmest.pipeline`` and
the file job call are replaced by wrappers that record one span per call:
name, start, end, parent span and job id.  Spans are kept in memory; the
caller writes them out at exit.  No tmest source is changed: the wrappers are
installed on the module attributes for the duration of one job and removed
afterwards, so untraced jobs run the unmodified functions.
"""

import contextlib
import functools
import os
import statistics
import time

import tmest.core
import tmest.hoc
import tmest.noise
import tmest.pipeline


def _knn_attrs(args, kwargs, result):
    data = args[0]
    return {"n": data.n, "d": data.d}


def _solution_attrs(args, kwargs, result):
    return {"iterations_used": result.iterations_used,
            "converged": bool(result.converged),
            "final_loss": result.final_loss}


def _lbfgs_attrs(args, kwargs, result):
    return {"nit": int(result.nit), "nfev": int(result.nfev)}


def _load_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _save_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, attributes taken from the call).  Layers are
# named after tmest's modules; the span name is "<layer>.<operation>".
_PATCHES = (
    (tmest.pipeline, "estimate", "pipeline.estimate", None),
    (tmest.pipeline, "fit_whitening", "whitening.fit",
     lambda a, k, r: {"rank": r.r}),
    (tmest.pipeline, "apply_whitening", "whitening.apply", None),
    (tmest.pipeline, "estimate_fmi_per_dim", "infotheory.fmi",
     lambda a, k, r: {"dims": int(r.per_dim.size)}),
    (tmest.pipeline, "build_weights", "infotheory.weights", None),
    (tmest.pipeline, "get_2nn_triplets", "similarity.knn", _knn_attrs),
    (tmest.pipeline, "count_consensus", "hoc.count", None),
    (tmest.pipeline, "solve_transition", "hoc.solve", _solution_attrs),
    (tmest.hoc, "minimize", "hoc.lbfgs", _lbfgs_attrs),
    (tmest.core, "load_dataset", "core.load", _load_attrs),
    (tmest.core, "save_dataset", "core.save", _save_attrs),
    (tmest.noise, "build_transition", "noise.build_transition", None),
    (tmest.noise, "inject_noise", "noise.inject", None),
)


class Tracer:
    """Records spans for traced jobs; one instance per benchmark run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "job": self._job,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter() - self._origin, "end": None,
               "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec["attrs"].update(attrs(args, kwargs, result))
                return result
        return traced

    @contextlib.contextmanager
    def job(self, job_id):
        """Trace one job: install the wrappers, open its root span, restore."""
        saved = []
        for module, attr, name, attrs in _PATCHES:
            if hasattr(module, attr):
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, attrs))
        self._job = job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job = None
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def job_spans(self, job_id):
        return [s for s in self.spans if s["job"] == job_id]


def _duration(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _attr(spans, name, key, default=0):
    vals = [s["attrs"][key] for s in spans if s["name"] == name and key in s["attrs"]]
    return vals[-1] if vals else default


def layer_metrics(spans):
    """Per-layer figures of one traced job; layers the job skips read 0."""
    knn_s = _duration(spans, "similarity.knn")
    n = _attr(spans, "similarity.knn", "n")
    d = _attr(spans, "similarity.knn", "d")
    gflop = 2.0 * n * n * d / 1e9      # computed: one N x N x d product
    load_s = _duration(spans, "core.load")
    save_s = _duration(spans, "core.save")
    bytes_read = _attr(spans, "core.load", "bytes")
    bytes_written = _attr(spans, "core.save", "bytes")
    lbfgs = [s for s in spans if s["name"] == "hoc.lbfgs"]
    estimate = [s for s in spans if s["name"] == "pipeline.estimate"]
    estimate_s = sum(s["end"] - s["start"] for s in estimate)
    ids = {s["id"] for s in estimate}
    children_s = sum(s["end"] - s["start"] for s in spans if s["parent"] in ids)
    return {
        "similarity.knn_s": knn_s,
        "similarity.gflop": gflop,
        "similarity.gflop_per_s": gflop / knn_s if knn_s > 0 else 0.0,
        "similarity.sim_mb": 8.0 * n * n / 1e6,   # computed: float64 scores
        "hoc.count_s": _duration(spans, "hoc.count"),
        "hoc.solve_s": _duration(spans, "hoc.solve"),
        "hoc.lbfgs_calls": len(lbfgs),
        "hoc.lbfgs_iters_total": sum(s["attrs"].get("nit", 0) for s in lbfgs),
        "hoc.lbfgs_nfev_total": sum(s["attrs"].get("nfev", 0) for s in lbfgs),
        "hoc.iterations_used": _attr(spans, "hoc.solve", "iterations_used"),
        "hoc.converged": int(_attr(spans, "hoc.solve", "converged")),
        "hoc.final_loss": _attr(spans, "hoc.solve", "final_loss", 0.0),
        "whitening.fit_s": _duration(spans, "whitening.fit"),
        "whitening.apply_s": _duration(spans, "whitening.apply"),
        "whitening.rank": _attr(spans, "whitening.fit", "rank"),
        "infotheory.fmi_s": _duration(spans, "infotheory.fmi"),
        "infotheory.weights_s": _duration(spans, "infotheory.weights"),
        "infotheory.dims": _attr(spans, "infotheory.fmi", "dims"),
        "core.load_s": load_s,
        "core.save_s": save_s,
        "core.bytes_read": bytes_read,
        "core.bytes_written": bytes_written,
        "core.read_mb_per_s": bytes_read / 1e6 / load_s if load_s > 0 else 0.0,
        "core.write_mb_per_s": bytes_written / 1e6 / save_s if save_s > 0 else 0.0,
        "noise.inject_s": _duration(spans, "noise.inject"),
        "pipeline.estimate_s": estimate_s,
        "pipeline.self_s": estimate_s - children_s,
    }


UNITS = {
    "similarity.knn_s": "s",
    "similarity.gflop": "GFLOP",
    "similarity.gflop_per_s": "GFLOP/s",
    "similarity.sim_mb": "MB",
    "hoc.count_s": "s",
    "hoc.solve_s": "s",
    "hoc.lbfgs_calls": "count",
    "hoc.lbfgs_iters_total": "count",
    "hoc.lbfgs_nfev_total": "count",
    "hoc.iterations_used": "count",
    "hoc.converged": "flag",
    "hoc.final_loss": "loss",
    "whitening.fit_s": "s",
    "whitening.apply_s": "s",
    "whitening.rank": "dims",
    "infotheory.fmi_s": "s",
    "infotheory.weights_s": "s",
    "infotheory.dims": "dims",
    "core.load_s": "s",
    "core.save_s": "s",
    "core.bytes_read": "B",
    "core.bytes_written": "B",
    "core.read_mb_per_s": "MB/s",
    "core.write_mb_per_s": "MB/s",
    "noise.inject_s": "s",
    "pipeline.estimate_s": "s",
    "pipeline.self_s": "s",
    "tracing_overhead_s": "s",
}


def median_metrics(per_job):
    """Median of each per-job figure over the traced jobs."""
    return {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}


# Report.timings stage -> spans the stage encloses.  "count" comes first so
# that a pipeline timing consensus counting on its own leaves "solve" with the
# solver span only.
_STAGE_SPANS = (
    ("count", ("hoc.count",)),
    ("whitening", ("whitening.fit", "whitening.apply")),
    ("weights", ("infotheory.fmi", "infotheory.weights")),
    ("neighbors", ("similarity.knn",)),
    ("solve", ("hoc.count", "hoc.solve")),
)


def check_timings(spans, timings, slack_s=0.01, slack_share=0.02):
    """Compare each traced stage against the matching Report.timings entry.

    The spans lie inside the stage the pipeline times, so they may not exceed
    it and may fall short of it only by the small work between the calls.
    Returns a list of problems; stages without spans are skipped.
    """
    problems = []
    claimed = set()
    for stage, names in _STAGE_SPANS:
        if stage not in timings:
            continue
        names = [n for n in names if n not in claimed]
        claimed.update(names)
        if not any(s["name"] in names for s in spans):
            continue
        covered = sum(_duration(spans, n) for n in names)
        gap = timings[stage] - covered
        if gap < -1e-4 or gap > slack_s + slack_share * timings[stage]:
            problems.append(f"stage '{stage}': Report.timings {timings[stage]:.4f}s "
                            f"vs spans {covered:.4f}s")
    return problems
