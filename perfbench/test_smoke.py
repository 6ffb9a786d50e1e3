"""Smoke test of the benchmark: every workload once at a small size, untraced
and traced.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It takes about two minutes, most of it in the K=10 solver, whose cost does
not shrink with the row count.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROWS = {"blobs-atv-20k": 6000, "classes10-plain-10k": 3000, "csv-relabel-40k": 500}
SPANS = {
    "blobs-atv-20k": {"pipeline.estimate", "whitening.fit", "whitening.apply",
                      "infotheory.fmi", "infotheory.weights", "similarity.knn",
                      "hoc.count", "hoc.solve", "hoc.lbfgs"},
    "classes10-plain-10k": {"pipeline.estimate", "similarity.knn", "hoc.count",
                            "hoc.solve", "hoc.lbfgs"},
    "csv-relabel-40k": {"core.load", "noise.build_transition", "noise.inject",
                        "core.save"},
}
META_KEYS = {"n", "d", "k", "variant", "seed", "nproc", "blas", "blas_threads",
             "python", "numpy", "scipy", "git_commit"}


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _run(cwd, out, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--rows", str(ROWS[workload]), "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", sorted(ROWS))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = _result(_run(ROOT, tmp_path, workload, 0))
    assert result["attempted"] >= 2
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())

    with open(tmp_path / f"{workload}-seed3-trace0.json", encoding="utf-8") as fh:
        meta = json.load(fh)["meta"]
    assert META_KEYS <= set(meta)
    assert meta["n"] == ROWS[workload]
    assert meta["blas_threads"] <= meta["nproc"]


@pytest.mark.parametrize("workload", sorted(ROWS))
def test_traced_run_writes_linked_spans(tmp_path, workload):
    result = _result(_run(ROOT, tmp_path, workload, 1))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")

    with open(tmp_path / f"{workload}-seed3-trace1.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    by_id = {s["id"]: s for s in spans}
    assert SPANS[workload] <= {s["name"] for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            assert s["name"] == "job"
            continue
        parent = by_id[s["parent"]]
        assert parent["job"] == s["job"]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_fails_without_sources(tmp_path):
    proc = _run(tmp_path, tmp_path / "out", "csv-relabel-40k", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
