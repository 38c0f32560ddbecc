"""Scale covariance: a run on S^n or H^n of radius or scale R is the unit
run at kappa R^2.

The lower N-weighted Ricci bound and its characterizations are invariant
under g -> R^2 g, kappa -> kappa / R^2. ``resolve_config`` alone reads R,
so every payload of a space suite, but the config it echoes, and every
artifact must be the unit run's, bit for bit, at the kappa R^2 the
program computes.
"""

import json

import pytest

from cdcheck import cli
from cdcheck.cli import main

# (space, its radius or scale key, the unit run's kappa, a non-constant
# weight) at (n, 9, 0.4): each kappa is inside the zero weight's bound,
# and the weighted H^n runs fail curvature and jacobian, so that a
# counterexample.json is compared too
SPACES = [("sphere", 2, "radius", 0.5, "cosine(0.3)"),
          ("sphere", 3, "radius", 0.5, "linear(0.2)"),
          ("hyperbolic", 2, "scale", -0.9, "linear(0.5)"),
          ("hyperbolic", 3, "scale", -0.9, "quadratic(0.3)")]
SUITES = ("curvature", "jacobian", "taylor", "limits")


def _run(tmp_path, name, space, weight, kappa, suite):
    """(exit code, report payloads, artifacts) of one run."""
    cfg = {"space": space, "weight": weight,
           "params": {"n": space["dim"], "N": 9.0, "eps": 0.4},
           "kappa": kappa, "suite": suite,
           "sampling": {"trials": 20, "seed": 1}}
    out = tmp_path / name
    out.mkdir()
    path = out / "c.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(path), "--out-dir", str(out / "o"),
                 "--quiet"])
    report = out / "o" / f"{suite}_report.json"
    payloads = json.loads(report.read_text())["reports"]
    artifacts = {p.name: p.read_bytes() for p in (out / "o").iterdir()
                 if p != report}
    return code, payloads, artifacts


@pytest.mark.parametrize("R", [0.5, 0.01, 100.0])
@pytest.mark.parametrize("kind, dim, key, kappa0, preset", SPACES,
                         ids=[f"{k}{d}" for k, d, *_ in SPACES])
def test_run_at_R_is_the_unit_run(tmp_path, kind, dim, key, kappa0, preset,
                                  R):
    kappa = kappa0 / R**2
    unit_kappa = cli.resolve_config({
        "space": {"kind": kind, "dim": dim, key: R},
        "params": {"n": dim, "N": 9.0, "eps": 0.4}, "kappa": kappa,
        "suite": "curvature"}).kappa
    assert unit_kappa == kappa * (R * R)
    for weight in ("zero", preset):
        for suite in SUITES:
            tag = f"{weight}-{suite}"
            code, payloads, artifacts = _run(
                tmp_path, f"R-{tag}", {"kind": kind, "dim": dim, key: R},
                weight, kappa, suite)
            want = _run(tmp_path, f"unit-{tag}", {"kind": kind, "dim": dim},
                        weight, unit_kappa, suite)
            assert code == want[0], tag
            for got, ref in zip(payloads, want[1], strict=True):
                assert got.pop("config") != ref.pop("config")
                assert got == ref, tag
            assert artifacts == want[2], tag
