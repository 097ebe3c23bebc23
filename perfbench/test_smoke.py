"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest perfbench -q

Checks that every run prints its metrics by name with the unit from
BENCHMARK.json, that each output check rejects a corrupted value, and that
the benchmark fails cleanly when the library sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from htcarnot import (  # noqa: E402
    Covector,
    catalog_structure,
    check_jacobian_contraction,
    default_box,
    exp_map,
    geodesic_sample,
    log_map,
    mcp_report,
    sharpness_witness,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {trace: {m["name"]: m["unit"] for m in SPEC[key]}
         for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


@lru_cache(maxsize=None)
def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    meta, result = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(result), "meta": json.loads(meta)["meta"]}


def _metrics_ok(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics", "meta"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(UNITS[trace])
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert m["unit"] == UNITS[trace][name], name
        assert math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    result = run(workload, 0)
    _metrics_ok(result, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_metrics_print_with_units():
    # the per-layer metrics come from the same probe on every workload
    result = run("geodesics", 1)
    _metrics_ok(result, 1)
    assert (ROOT / ".bench_out" / "trace-geodesics-seed3.json").is_file()


def test_edge_failures_are_counted_by_the_probe():
    result = run("geodesics", 1)
    assert result["metrics"]["geodesics.log_map.failed"]["value"] > 0
    assert set(result["meta"]["failed"]["probe"]) == {"log_map.edge"}
    assert result["meta"]["figures"]["untraced"]["failed_frac"] == 0.0


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# Each check accepts the real value and rejects a corrupted copy of it.

def _lam(sc):
    return Covector(np.linspace(0.6, 1.2, sc.rank), np.full(sc.corank, 0.4))


def test_roundtrip_check_fires():
    sc = catalog_structure("contact12")
    target = exp_map(sc, _lam(sc))
    back = exp_map(sc, log_map(sc, target)).as_vector()
    assert checks.roundtrip_ok(target.as_vector(), back)
    assert not checks.roundtrip_ok(target.as_vector(), back + 1e-9)
    assert not checks.roundtrip_ok(target.as_vector(), back * np.nan)


def test_endpoint_check_fires():
    sc = catalog_structure("heisenberg3")
    lam = _lam(sc)
    last = geodesic_sample(sc, lam, [0.0, 0.5, 1.0])[-1].as_vector()
    end = exp_map(sc, lam).as_vector()
    assert checks.endpoint_ok(last, end)
    assert not checks.endpoint_ok(last * (1 + 1e-9), end)


def test_jacobian_check_fires():
    report = check_jacobian_contraction(catalog_structure("htype4x3"), 4, [0.5])
    assert checks.jacobian_ok(report)
    assert not checks.jacobian_ok(dataclasses.replace(report, passed=False))
    assert not checks.jacobian_ok(dataclasses.replace(report, min_margin=math.nan))


def test_mcp_check_fires():
    sc = catalog_structure("heisenberg3")
    t_grid = (0.25, 0.75)
    report = mcp_report(sc, -1.0, 5.0, default_box(sc), t_grid, 8)
    assert checks.mcp_ok(report, 5.0, t_grid)
    low = dataclasses.replace(report, ratios=tuple(0.5 * b for b in report.bounds))
    assert not checks.mcp_ok(low, 5.0, t_grid)
    assert not checks.mcp_ok(report, 4.0, t_grid)
    assert not checks.mcp_ok(report, 5.0, (0.25,))


def test_sharpness_check_fires():
    _, report = sharpness_witness(catalog_structure("heisenberg3"), 0.5)
    assert checks.sharpness_ok(report)
    high = dataclasses.replace(report, ratios=tuple(2 * t for t in report.thresholds))
    assert not checks.sharpness_ok(high)


@pytest.mark.parametrize("group", ["heisenberg3", "contact12"])
def test_cutlocus_check_fires(group):
    alpha = catalog_structure(group).alpha_max
    d = checks.cutlocus_distance(alpha, 1.3)
    assert checks.cutlocus_ok(group, alpha, 1.3, d)
    assert not checks.cutlocus_ok(group, alpha, 1.3, d + 2e-8)
    assert not checks.cutlocus_ok(group, alpha, 1.3, math.nan)


def test_cutlocus_closed_forms():
    # sqrt(4 pi |z|) on the Heisenberg group, sqrt(2 pi |z|) with alpha_max = 2
    assert math.isclose(checks.cutlocus_distance(1.0, 2.0), math.sqrt(8 * math.pi))
    assert math.isclose(checks.cutlocus_distance(2.0, 2.0), math.sqrt(4 * math.pi))
    alpha = catalog_structure("heisenberg3").alpha_max
    assert not checks.cutlocus_ok("heisenberg3", alpha, 1.0, math.sqrt(2 * math.pi))


def test_cli_check_fires():
    assert checks.cli_ok(0, 0, b"t,x\n0.5,1\n", b"t,x\n0.5,1\n")
    assert not checks.cli_ok(2, 0, b"t,x\n0.5,1\n", b"t,x\n0.5,1\n")
    assert not checks.cli_ok(0, 0, b"t,x\n0.5,2\n", b"t,x\n0.5,1\n")
