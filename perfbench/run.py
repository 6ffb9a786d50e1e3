"""Closed-loop benchmark runner for tmest.

Run from the repository root:

    python3 perfbench/run.py --workload blobs-atv-20k --seed 1 --seconds 30 --trace 0

One caller submits one job, waits for it to finish, checks its output
outside the timed region, then submits the next, until the next job would
end after ``--seconds``.  Every run makes at least two jobs (one traced pair
with ``--trace 1``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when untraced and the per-layer metrics when traced.  A record with
the run's metadata, every job and (traced) every span is written to
``--out``.

Job 0 of every run is the reference job: its input comes from seed 0 whatever
``--seed`` says, so ``t_error`` is measured on the same data in every run and
compares program versions directly.  Later jobs use inputs from ``--seed``.
In a traced run every input is run twice, untraced and then traced, and the
difference of the two medians is ``tracing_overhead_s``.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

MIN_JOBS = 2            # the reference job and at least one seeded job
REFERENCE_SEED = 0
FAILED_T_ERROR = 1.0    # the largest possible error, for a job with no estimate
BLAS_THREADS = 2

END_TO_END_UNITS = {
    "job_s_p50": "s",
    "rows_per_s": "rows/s",
    "t_error": "tv",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_rate": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="override the workload's row count (smoke tests)")
    parser.add_argument("--out", default=".perfbench_out",
                        help="directory for the run record and job scratch files")
    return parser.parse_args(argv)


def _nproc():
    return len(os.sched_getaffinity(0))


def _blas_threads_in_use():
    """Ask numpy's bundled OpenBLAS for its thread count; None if not found."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    with contextlib.suppress(OSError):
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    with contextlib.suppress(OSError):
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def _metadata(wl, args, n, root):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name, "n": n, "d": wl.d, "k": wl.k, "variant": wl.variant,
        "seed": args.seed, "reference_seed": REFERENCE_SEED, "trace": args.trace,
        "seconds": args.seconds, "nproc": _nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": _blas_threads_in_use(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(root),
    }


def _run_job(wl, inp, job, tracer, spans):
    """Run and check one job; problems are recorded, never raised."""
    rec = {"job": job, "traced": tracer is not None, "seconds": None,
           "t_error": None, "problems": []}
    scope = tracer.job(job) if tracer is not None else contextlib.nullcontext()
    try:
        with scope:
            t0 = time.perf_counter()
            out = wl.run(inp)
            rec["seconds"] = time.perf_counter() - t0
        rec["t_error"], problems = wl.check(inp, out)
        if tracer is not None and hasattr(out, "timings"):
            problems += spans.check_timings(tracer.job_spans(job), out.timings)
        rec["problems"] += problems
    except Exception:
        traceback.print_exc()
        rec["problems"].append("raised: " + traceback.format_exc(limit=1).splitlines()[-1])
    for problem in rec["problems"]:
        print(f"job {job}: FAILED CHECK: {problem}", file=sys.stderr, flush=True)
    return rec


def _loop(wl, args, n, workdir, tracer, spans):
    """Closed loop: prepare, run, check, repeat until the time is used."""
    records, prep_times, cycles = [], [], []
    min_cycles = MIN_JOBS if tracer is None else 1   # a traced cycle runs two jobs
    start = time.perf_counter()
    job = 0
    while (job < min_cycles
           or time.perf_counter() - start + statistics.median(cycles) <= args.seconds):
        c0 = time.perf_counter()
        jobdir = os.path.join(workdir, f"job{job}")
        os.makedirs(jobdir)
        seed = REFERENCE_SEED if job == 0 else args.seed
        try:
            inp = wl.prepare([seed, job], n, jobdir)
        except Exception:
            traceback.print_exc()
            records.append({"job": job, "traced": False, "seconds": None,
                            "t_error": None, "problems": ["input preparation raised"]})
        else:
            prep_times.append(time.perf_counter() - c0)
            records.append(_run_job(wl, inp, job, None, spans))
            if tracer is not None:
                records.append(_run_job(wl, inp, job, tracer, spans))
        shutil.rmtree(jobdir)
        cycles.append(time.perf_counter() - c0)
        job += 1
    return records, prep_times


def _end_to_end(records, n, import_s, prep_times):
    times = [r["seconds"] for r in records if r["seconds"] is not None]
    if not times:
        return None
    p50 = statistics.median(times)
    ref = records[0]["t_error"]
    failed = sum(1 for r in records if r["problems"])
    return {
        "job_s_p50": p50,
        "rows_per_s": n / p50,
        "t_error": FAILED_T_ERROR if ref is None else ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + statistics.median(prep_times),
        "pass_rate": (len(records) - failed) / len(records),
    }


def _per_layer(records, tracer, spans):
    traced = [r for r in records if r["traced"] and r["seconds"] is not None]
    untraced = [r for r in records if not r["traced"] and r["seconds"] is not None]
    if not traced or not untraced:
        return None
    metrics = spans.median_metrics(
        [spans.layer_metrics(tracer.job_spans(r["job"])) for r in traced])
    metrics["tracing_overhead_s"] = (statistics.median(r["seconds"] for r in traced)
                                     - statistics.median(r["seconds"] for r in untraced))
    return metrics


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tmest", "__init__.py")):
        print("perfbench: no tmest sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2

    threads = min(BLAS_THREADS, _nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import tmest  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0
    import spans
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload '{args.workload}' "
              f"(choose from {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    n = args.rows or wl.n
    meta = _metadata(wl, args, n, root)
    print("meta " + json.dumps(meta), flush=True)

    tracer = spans.Tracer() if args.trace else None
    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        records, prep_times = _loop(wl, args, n, workdir, tracer, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = _end_to_end(records, n, import_s, prep_times)
        units = END_TO_END_UNITS
    else:
        metrics = _per_layer(records, tracer, spans)
        units = spans.UNITS
    if metrics is None:
        print("perfbench: no job completed", file=sys.stderr)
        return 1
    failed = sum(1 for r in records if r["problems"])
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}

    timed = sum(1 for r in records if r["seconds"] is not None)
    print(f"{wl.name}: {len(records)} jobs ({timed} timed, {failed} failed, "
          f"fail_rate {failed / len(records):.3f}); N={n} d={wl.d} K={wl.k} "
          f"variant={wl.variant}", flush=True)
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", flush=True)

    with open(os.path.join(args.out, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "jobs": records,
                   "spans": tracer.spans if tracer is not None else []}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
