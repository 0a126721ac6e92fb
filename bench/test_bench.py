"""Smoke tests of the benchmark itself: python3 -m pytest -q bench"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speedmeter import REF_NOMINAL_S, SpeedMeter, reference_kernel  # noqa: E402
from workloads import PROBE_LAMBDAS, edge_probes  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if len(ln.split()) == 3}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)

    stem = f"{workload}-seed3-trace{trace}-smoke.json"
    with open(os.path.join(HERE, "results", stem), encoding="utf-8") as fh:
        doc = json.load(fh)
    probes = doc["probes"]
    assert len(probes) == 2 * len(PROBE_LAMBDAS)
    ops = doc["ops"].values()
    assert result["failed"] == sum(op["fails"] for op in ops) == 0
    assert result["attempted"] == sum(op["runs"] for op in ops)
    # each probe is one more op in ok_ratio: a failed probe lowers it
    shares = [1 - op["fails"] / op["runs"] for op in ops] + [1 - p["failed"] for p in probes.values()]
    ok_ratio = doc["end_to_end"]["ok_ratio"]["value"]
    assert ok_ratio == pytest.approx(sum(shares) / len(shares))
    for name, p in probes.items():
        assert (name + " FAILED" in proc.stdout) == p["failed"]
    assert f"edge probes failed: {sum(p['failed'] for p in probes.values())} of" in proc.stdout


def test_probe_errors_register_as_failures():
    """A probe that raises or returns non-finite values is a failure, not a crash."""

    class Params:
        EnsembleParams = type("EP", (), {"from_lambda": staticmethod(
            lambda n, lam, alpha: type("P", (), {"n": n, "alpha": 10.0})())})

    class Analytic:
        @staticmethod
        def density_curve(p, grid):
            raise OverflowError("math range error")

        @staticmethod
        def gap_curve(p, thetas):
            return type("C", (), {"values": thetas * float("nan"), "abscissae": thetas})()

        semicircle_density = goe_gap = staticmethod(lambda *a: 0.0)

    q = type("Q", (), {"params": Params, "analytic": Analytic})
    results = edge_probes(q)
    assert len(results) == 2 * len(PROBE_LAMBDAS)
    assert all(problems for _, problems in results)
    assert any("OverflowError" in problems[0] for _, problems in results)


def test_exits_nonzero_without_sources(tmp_path):
    """Given only BENCHMARK.json and bench/, the run fails before printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work",
                                                                            "__pycache__"))
    proc = run_bench("--workload", "mc_spectra", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_meter_samples_while_work_runs():
    """The timer fires during work, its samples are charged as cost, and the factor
    matches the samples."""
    meter = SpeedMeter()
    meter.start()
    c0 = time.process_time()
    while time.process_time() - c0 < 0.4:
        reference_kernel()
    factor, cost = meter.stop()
    assert len(meter.samples) >= 5
    assert cost == pytest.approx(sum(meter.samples))
    assert 0 < cost < time.process_time() - c0
    assert factor == pytest.approx(sum(REF_NOMINAL_S / s for s in meter.samples) / len(meter.samples))
