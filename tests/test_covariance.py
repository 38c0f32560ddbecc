"""Scale covariance: a run on S^n or H^n of radius or scale R is the unit
run at kappa R^2.

The lower N-weighted Ricci bound and its characterizations are invariant
under g -> R^2 g, kappa -> kappa / R^2. ``resolve_config`` alone reads R,
so the whole report list of a space suite or of an axis suite on the
meridian, and every artifact, must be the unit run's, bit for bit, at the
kappa R^2 the program computes; only the config the file states once
differs.
"""

import json

import pytest

from cdcheck import cli
from cdcheck.cli import main
from cdcheck.report import canonical_json

# (space, its radius or scale key, the unit run's kappa, a non-constant
# weight) at (n, 9, 0.4): each kappa is inside the zero weight's bound,
# and the weighted H^n runs fail curvature and jacobian, so that a
# counterexample.json is compared too
SPACES = [("sphere", 2, "radius", 0.5, "cosine(0.3)"),
          ("sphere", 3, "radius", 0.5, "linear(0.2)"),
          ("hyperbolic", 2, "scale", -0.9, "linear(0.5)"),
          ("hyperbolic", 3, "scale", -0.9, "quadratic(0.3)")]
SUITES = ("curvature", "jacobian", "taylor", "limits")


# the meridian and what the axis suites place on it, inside the window
# [0, 2] of H^n as well as [0, pi] of S^n; r is in units of R
MERIDIAN = {"geometry": {"kind": "meridian", "points": 1025},
            "densities": [{"kind": "bump", "center": 0.6, "width": 0.3},
                          {"kind": "bump", "center": 1.3, "width": 0.4}],
            "regions": {"bounds": [[0.0, 0.4], [0.0, 1.0]]},
            "interpolation": {"X": [0.2, 0.7], "Y": [0.9, 1.5]},
            "functional": {"density": {"kind": "cosine", "amplitude": 0.2}}}
AXIS_SUITES = ("twcd", "bm", "interpolation", "functional")


def _run(tmp_path, name, space, weight, kappa, suite, **axis):
    """(exit code, report file, artifacts) of one run."""
    cfg = {"space": space, "weight": weight,
           "params": {"n": space["dim"], "N": 9.0, "eps": 0.4},
           "kappa": kappa, "suite": suite,
           "sampling": {"trials": 20, "seed": 1}, **axis}
    out = tmp_path / name
    out.mkdir()
    path = out / "c.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(path), "--out-dir", str(out / "o"),
                 "--quiet"])
    report = out / "o" / f"{suite}_report.json"
    artifacts = {p.name: p.read_bytes() for p in (out / "o").iterdir()
                 if p != report}
    return code, json.loads(report.read_text()), artifacts


def _same_reports(got, want, unit_kappa):
    """The report lists of two report files are equal bit for bit, the
    runs differ in their config only and both state ``unit_kappa``."""
    assert canonical_json(got["reports"]) == canonical_json(want["reports"])
    assert got["run"]["config"] != want["run"]["config"]
    assert got["run"]["kappa"] == want["run"]["kappa"] == unit_kappa


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
            code, report, artifacts = _run(
                tmp_path, f"R-{tag}", {"kind": kind, "dim": dim, key: R},
                weight, kappa, suite)
            want = _run(tmp_path, f"unit-{tag}", {"kind": kind, "dim": dim},
                        weight, unit_kappa, suite)
            assert code == want[0], tag
            _same_reports(report, want[1], unit_kappa)
            assert artifacts == want[2], tag


@pytest.mark.parametrize("R", [0.5, 100.0])
@pytest.mark.parametrize("kind, dim, key, kappa0, preset", SPACES[:2]
                         + SPACES[3:], ids=["sphere2", "sphere3",
                                            "hyperbolic3"])
def test_meridian_run_at_R_is_the_unit_run(tmp_path, kind, dim, key, kappa0,
                                           preset, R):
    # the functional suite needs kappa > 0, so it runs on S^n only
    kappa = kappa0 / R**2
    unit_kappa = kappa * (R * R)
    for suite in AXIS_SUITES[:3] if kind == "hyperbolic" else AXIS_SUITES:
        code, report, artifacts = _run(
            tmp_path, f"R-{suite}", {"kind": kind, "dim": dim, key: R},
            "zero", kappa, suite, **MERIDIAN)
        want = _run(tmp_path, f"unit-{suite}", {"kind": kind, "dim": dim},
                    "zero", unit_kappa, suite, **MERIDIAN)
        assert code == want[0] == 0, suite
        _same_reports(report, want[1], unit_kappa)
        assert artifacts == want[2], suite
