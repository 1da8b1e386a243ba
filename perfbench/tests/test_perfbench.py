"""Tests of the benchmark itself.

A tiny smoke run checks that every metric named in BENCHMARK.json is
emitted with its unit, and corrupted results check that the output checks
catch them and count them as failed.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from linrestrict import exactline  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import layertrace  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 4  # queries: every kind of query of every workload


def _tiny(name, tmp_path, n=TINY):
    workloads.write_documents(name, tmp_path)
    wl = workloads.load(name, 0, tmp_path)
    return dataclasses.replace(wl, queries=wl.queries[:n], trace_queries=n)


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def tiny_specs(monkeypatch, tmp_path):
    for var in bench_run.BLAS_VARIABLES:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(bench_run, "LEDGER", tmp_path / "counts.json")
    for name, spec in workloads.SPECS.items():
        tiny = dataclasses.replace(spec, queries=TINY, trace_queries=TINY)
        monkeypatch.setitem(workloads.SPECS, name, tiny)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(
    tiny_specs, capsys, workload, trace, group
):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert bench_run.main(argv) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_count_metrics_repeat_across_passes_and_runs(tiny_specs, capsys):
    argv = ["--workload", "conv_pool", "--seed", "3", "--seconds", "0", "--trace", "1"]
    runs = []
    for _ in range(2):
        assert bench_run.main(argv) == 0
        runs.append(_result(capsys))
    assert all(r["correct"] for r in runs)
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["kernels.relu_maxpool_crossings.calls"] > 0
    assert counts[0]["kernels.maxpool_crossings.calls"] > 0


def test_ledger_flags_changed_counts(tmp_path):
    ledger = tmp_path / "counts.json"
    assert harness.ledger_compare(ledger, "k", {"a": 1, "b": 2}) == []
    assert harness.ledger_compare(ledger, "k", {"a": 1, "b": 2}) == []
    assert harness.ledger_compare(ledger, "k", {"a": 1, "b": 3}) == ["b"]


def test_perturbed_postimage_is_caught(tmp_path):
    wl = _tiny("conv_relu", tmp_path, 1)
    q = wl.queries[0]
    net = wl.nets[q.net]
    part = wl.run(net, q)
    assert checks.check_partition(net, part) == []

    part.postimages[part.n_endpoints // 2] *= 1.0 + 1e-6
    assert checks.check_partition(net, part)


def test_missing_endpoint_is_caught(tmp_path):
    wl = _tiny("conv_pool", tmp_path, 1)
    q = wl.queries[0]
    net = wl.nets[q.net]
    # every interior endpoint of the canonical partition is a real kink
    part = exactline.canonicalize(wl.run(net, q)["fused"])
    assert part.n_endpoints > 2 and checks.check_partition(net, part) == []
    keep = np.ones(part.n_endpoints, dtype=bool)
    keep[part.n_endpoints // 2] = False
    part.alphas, part.postimages = part.alphas[keep], part.postimages[keep]
    part.origin_layers = part.origin_layers[keep]
    assert checks.check_partition(net, part)


def test_wrong_class_and_ig_gap_are_caught(tmp_path):
    wl = _tiny("dense_lines", tmp_path, 1)
    q = wl.queries[0]
    net = wl.nets[q.net]
    out = wl.run(net, q)
    assert wl.check(net, q, out) == []

    seg = out["segments"][0]
    wrong = dataclasses.replace(seg, class_index=(seg.class_index + 1) % 10)
    bad = dict(out, segments=[wrong] + out["segments"][1:])
    assert wl.check(net, q, bad)

    ig = dataclasses.replace(out["ig"], values=out["ig"].values * (1.0 + 1e-6))
    assert wl.check(net, q, dict(out, ig=ig))


def test_off_by_one_search_is_caught(tmp_path):
    wl = _tiny("ig_audit", tmp_path)
    found = [
        (q, out) for q in wl.queries
        for out in [wl.run(wl.nets[q.net], q)]
        if out["trapezoid"].m is not None and out["m_tilde"].m is not None
    ]
    q, out = found[0]
    net = wl.nets[q.net]
    assert wl.check(net, q, out) == []
    for key in ("trapezoid", "m_tilde"):
        for shift in (-1, 1):
            moved = dataclasses.replace(out[key], m=out[key].m + shift)
            if moved.m >= 1:
                assert wl.check(net, q, dict(out, **{key: moved})), (key, shift)


def test_corrupted_and_raising_queries_count_as_failed(tmp_path):
    wl = _tiny("conv_relu", tmp_path, 2)
    run = wl.run

    def corrupt(net, q):
        part = run(net, q)
        if q is wl.queries[0]:
            raise RuntimeError("query failed")
        part.postimages[1] += 1.0
        return part

    wl.run = corrupt
    metrics, verifier, _, _ = harness.end_to_end(wl, 0.0)
    assert (verifier.attempted, verifier.failed) == (2, 2)
    assert metrics["queries_per_s"][0] == 0.0


def test_missing_entry_point_is_reported_absent(tmp_path, monkeypatch):
    from linrestrict import _kernels

    monkeypatch.delattr(_kernels, "maxpool_crossings")
    tracer = layertrace.Tracer()
    assert tracer.absent == ["kernels.maxpool_crossings"]
    wl = _tiny("conv_relu", tmp_path, 1)
    metrics, verifier, _, info = harness.traced(wl, tracer, 0.0, 0.0)
    assert verifier.failed == 0
    assert metrics["trace.absent_entry_points"] == (1, "count")
    assert metrics["kernels.relu_crossings.calls"][0] > 0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from linrestrict import analysis, exactline

    before = (exactline.apply_layer, analysis.exactline_network)
    wl = _tiny("dense_lines", tmp_path, 1)
    harness.traced(wl, layertrace.Tracer(), 0.0, 0.0)
    assert (exactline.apply_layer, analysis.exactline_network) == before


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense_lines",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
