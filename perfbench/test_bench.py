"""Self-test of the benchmark.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_bench.py

It runs every workload briefly in both modes and checks the printed metrics
against BENCHMARK.json, checks that the oracle rejects a flipped expectation
and a non-finite margin, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_run" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] >= 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0.0, m["name"]


def test_workloads_are_seeded():
    for name in workloads.NAMES:
        calls = workloads.build(name, 5)
        assert calls == workloads.build(name, 5)
        assert calls != workloads.build(name, 6)
        assert calls != workloads.build(name, 5, 1)


def test_pass_plan_depends_on_seconds_only():
    for name in workloads.NAMES:
        assert run.pass_count(name, 1) == run.MIN_PASSES
        assert run.pass_count(name, 60) > run.pass_count(name, 1)
    cycle = workloads.CYCLES["ray-pass"]
    count = run.pass_count("ray-pass", SPEC["run_seconds"])
    assert count % cycle == 0
    # every seed times the same input sets, in another order
    rounds = [sorted(repr(workloads.build("ray-pass", seed, i))
                     for i in range(cycle)) for seed in (1, 2)]
    assert rounds[0] == rounds[1]


def _curvature_call(flip: bool):
    calls = workloads.build("geodesic-series", 0)
    call = next(c for c in calls if c.name == "curvature-h3-k-1.0")
    if flip:
        call = dataclasses.replace(call, verdict="fail")
    return call


@pytest.mark.parametrize("flip", [False, True])
def test_oracle_catches_flipped_expectation(work, flip):
    sys.path.insert(0, str(run.SRC))
    call = _curvature_call(flip)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(call.config))
    out = run.Runner("geodesic-series", 0, work).run_call(call, cfg)
    assert out.ok is not flip
    assert not out.defect
    if flip:
        assert "exit 0, required 1" in out.failures


def test_oracle_catches_non_finite_margin(work):
    call = _curvature_call(False)
    bundle = {"suite": "curvature", "hash": "x", "reports": [{
        "name": "curvature_bound", "verdict": "pass", "tolerance": 1e-9,
        "margins": [0.5, None], "min_margin": 0.5}]}
    (work / "curvature_report.json").write_text(json.dumps(bundle))
    out = oracle.judge(call, 0, 0.0, "", work)
    assert out.failures == ["curvature_bound: non-finite margin"]
    bundle["reports"][0].update(margins=[float("nan")],
                                min_margin=float("nan"))
    (work / "curvature_report.json").write_text(json.dumps(bundle))
    out = oracle.judge(call, 0, 0.0, "", work)
    assert "curvature_bound: non-finite margin" in out.failures
    assert not out.defect


def test_cubic_remainder_check(work):
    deltas = [2.0 ** -k for k in range(4, 15)]

    def table(rem):
        path = work / "t.csv"
        rows = ["delta,exact,series,remainder"]
        rows += [f"{d!r},1.0,{1.0 - rem(d)!r},{rem(d)!r}" for d in deltas]
        path.write_text("\n".join(rows) + "\n")
        return path

    # O(delta^3) with a sign change on the grid: the slope-fit defect
    assert oracle.remainder_is_cubic(table(lambda d: -2e-3 * d**3 + d**4))
    assert not oracle.remainder_is_cubic(table(lambda d: 1e-3 * d**2))


def test_tracer_patches_every_binding_and_nests():
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    from cdcheck import jacobi, params, spaces

    s_kappa = params.s_kappa
    bound = [m for name, m in sys.modules.items()
             if name.startswith("cdcheck")
             and vars(m).get("s_kappa") is s_kappa]
    assert {m.__name__ for m in bound} >= {
        "cdcheck.params", "cdcheck.jacobi", "cdcheck.suites",
        "cdcheck.taylor", "cdcheck.coefficients"}
    with tracer.Tracer() as tr:
        assert not tr.absent
        for m in bound:
            m.s_kappa(1.0, 0.5)
        euc = spaces.make_space("euclidean", 3)
        jacobi.refine_ray_margin(
            euc, spaces.constant_weight(0.0),
            params.validate_params(3, 3, 1.0), 0.2, np.zeros(3),
            np.array([0.5, 0.0, 0.0]), 0.1 * np.eye(3))
        snap = tr.snapshot()
    assert all(vars(m)["s_kappa"] is s_kappa for m in bound)
    assert snap["params.s_kappa.calls"] >= len(bound)
    refine = "jacobi.refine_ray_margin"
    inner = ("jacobi.integrate_jacobi", "jacobi.integrate_jacobi_batch")
    assert snap[f"{refine}.calls"] == 1
    assert snap[f"{refine}.self_s"] < snap[f"{refine}.total_s"]
    assert sum(snap[f"{k}.self_s"] for k in inner) <= snap[f"{refine}.total_s"]
    assert snap["jacobi.integrate_jacobi_batch.ray_steps"] == 4096


def test_tracer_reports_moved_names_as_absent():
    sys.path.insert(0, str(run.SRC))
    from cdcheck import cli

    envelope = cli.envelope_psi
    del cli.envelope_psi
    try:
        with tracer.Tracer() as tr:
            snap = tr.snapshot()
        assert tr.absent == ["cli.envelope_psi"]
        assert snap["cli.envelope_psi.calls"] == 0
    finally:
        cli.envelope_psi = envelope


def test_refuses_without_sources(work):
    shutil.copytree(HERE, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work)
    proc = _bench("--workload", "ray-pass", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=work)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
