"""Output oracle: judges one ``cdcheck run`` call against the mathematics.

A call fails if it raises, exits with a code or verdict that contradicts the
required one, writes no report or a required artifact, reports a margin that
is not finite, or reports a verdict its own margins contradict. The oracle
compares nothing across commits: report hashes are only compared between
passes of one run (see ``Outcome.hash``).

Every failure is counted. Two kinds of false alarm, a ``fail`` verdict where
the mathematics requires ``pass``, are known defects of the program; the
oracle names them only when it can confirm the cause from the call's own
artifacts, and any other failure makes the run incorrect:

* taylor slope fit: the suite fails a series term when the log-log slope of
  its remainder is below 2.8. The fit reads a lower slope when an O(delta^3)
  remainder changes sign on the delta-grid, or when it falls to the
  quadrature's rounding noise before the smallest deltas, which the fit then
  regresses. ``remainder_is_cubic`` checks the O(delta^3) claim from the
  written tables, independently of the fit.
* jacobian false counterexample: the worst ray written to
  ``counterexample.json`` is either inadmissible, det E reaching 0 between
  the suite's grid points, which the closed-form Jacobi solution on a grid
  of 2^18 steps shows (``exact_det_min``); or its violation is grid error:
  re-checked on a grid four times finer than the suite's refinement, the
  margin is no longer below the tolerance, or has shrunk at least fourfold.
  A true violation converges to a negative limit and would not shrink.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import JACOBIAN_FALSE_ALARM, TAYLOR_SLOPE_DEFECT, Call

# margin order of the taylor_series report at eps != 0
TAYLOR_TERMS = ("app1_fwd", "app1_rev", "app1_full", "app2_fwd", "app2_rev",
                "app3_fwd", "app3_rev", "app4_fwd", "app4_rev", "app6")

# remainders below this share of the exact value's scale are rounding noise;
# the taylor suite's adaptive quadrature runs at rel_tol 1e-13
_REMAINDER_NOISE = 1e-12

# four times the 4096 steps of jacobi.refine_ray_margin
RECHECK_STEPS = 16384


@dataclass
class Outcome:
    """What one call did and whether it met its requirement."""

    call: Call
    exit_code: int | None
    seconds: float
    error: str = ""
    reports: list[dict] = field(default_factory=list)
    hash: str | None = None
    artifact_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    defect: str = ""  # set when every failure is the recorded known defect
    cpu_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "call": self.call.name,
            "exit_code": self.exit_code,
            "seconds": self.seconds,
            "cpu_seconds": self.cpu_seconds,
            "hash": self.hash,
            "reports": [{"name": r.get("name"), "verdict": r.get("verdict"),
                         "min_margin": r.get("min_margin"),
                         "samples": len(r.get("margins") or [])}
                        for r in self.reports],
            "failures": self.failures,
            "known_defect": self.defect,
        }


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check_report(call: Call, rep: dict) -> list[str]:
    name = rep.get("name")
    out = []
    if rep.get("verdict") != call.verdict:
        out.append(f"{name}: verdict {rep.get('verdict')}, "
                   f"required {call.verdict}")
    margins = rep.get("margins") or []
    if not margins:
        out.append(f"{name}: no margins")
    elif not all(_finite(m) for m in margins):
        out.append(f"{name}: non-finite margin")
    mm, tol = rep.get("min_margin"), rep.get("tolerance")
    if not _finite(mm) or not _finite(tol):
        out.append(f"{name}: non-finite min_margin or tolerance")
    elif (mm >= -tol) != (rep.get("verdict") == "pass"):
        out.append(f"{name}: verdict {rep.get('verdict')} contradicts "
                   f"min_margin {mm!r}")
    return out


def _check_artifacts(call: Call, out_dir: Path) -> list[str]:
    out = []
    for fname in call.artifacts:
        path = out_dir / fname
        if not path.is_file() or path.stat().st_size == 0:
            out.append(f"artifact {fname} not written")
    ce = out_dir / "counterexample.json"
    if "counterexample.json" in call.artifacts and ce.is_file():
        try:
            margin = json.loads(ce.read_text())["margin"]
        except (ValueError, KeyError) as exc:
            out.append(f"counterexample.json unreadable: {exc}")
        else:
            if not (_finite(margin) and margin < 0.0):
                out.append(f"counterexample margin {margin!r} is not < 0")
    return out


def remainder_is_cubic(table: Path) -> bool:
    """True when nothing in a taylor table refutes an O(delta^3) remainder.

    Only points whose remainder is above rounding noise count. At the
    smallest such delta, |remainder|/delta^3 may be at most four times its
    larger value at 8 and 16 times that delta; an O(delta^2) remainder makes
    it 8 to 16 times larger. Using two reference points keeps a sign change
    of the remainder near one of them, which misleads the suite's log-log
    fit, from misleading this check.
    """
    with open(table, newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    if not rows:
        return False
    scale = max(1.0 + abs(r[1]) for r in rows)
    live = sorted((r[0], abs(r[3]) / r[0] ** 3) for r in rows
                  if abs(r[3]) > _REMAINDER_NOISE * scale)
    if not live:
        return True
    d0, q0 = live[0]
    ref = [q for d, q in live
           if math.isclose(d, 8.0 * d0) or math.isclose(d, 16.0 * d0)]
    return not ref or q0 <= 4.0 * max(ref)


def _taylor_defect(call: Call, out_dir: Path, reports: list[dict],
                   failures: list[str]) -> str:
    """Name the failing terms when the failure is the slope-fit defect."""
    if call.known_defect != TAYLOR_SLOPE_DEFECT:
        return ""
    allowed = {f"exit 1, required {call.exit_code}",
               f"taylor_series: verdict fail, required {call.verdict}"}
    if not set(failures) <= allowed:
        return ""
    rep = next(r for r in reports if r.get("name") == "taylor_series")
    failing = [t for t, m in zip(TAYLOR_TERMS, rep["margins"]) if m < 0.0]
    if not failing or not all(
            remainder_is_cubic(out_dir / f"taylor_{t}.csv") for t in failing):
        return ""
    return f"{TAYLOR_SLOPE_DEFECT}: {','.join(failing)}"


def exact_det_min(space: dict, x, w, S, steps: int = 2**18) -> float:
    """min over t in [0, 1] of det E(t) for the ray (x, w, S).

    E solves E'' = -k |w|^2 (E - e_n e_n^T E), E(0) = I, E'(0) = S, whose
    rows have closed forms: the first n-1 follow the scalar propagator
    (cos, sin/omega) of omega^2 = k |w|^2, the last is linear in t.
    """
    x, w, S = (np.asarray(v, dtype=float) for v in (x, w, S))
    kind = space["kind"]
    speed2 = float(w @ w)
    if kind == "euclidean":
        k = 0.0
    elif kind == "sphere":
        k = space.get("radius", 1.0) ** -2
    else:  # upper half-space metric scale^2 |dx|^2 / x_n^2
        scale = space.get("scale", 1.0)
        k = -scale ** -2
        speed2 *= (scale / x[-1]) ** 2
    w2 = k * speed2
    om = math.sqrt(abs(w2))
    n = S.shape[0]
    eye = np.eye(n)
    det_min = math.inf
    # in chunks, so the check adds little to the process's peak memory
    for ts in np.array_split(np.linspace(0.0, 1.0, steps + 1), 64):
        if w2 > 0.0:
            C, Sn = np.cos(om * ts), np.sin(om * ts) / om
        elif w2 < 0.0:
            C, Sn = np.cosh(om * ts), np.sinh(om * ts) / om
        else:
            C, Sn = np.ones_like(ts), ts
        E = np.empty((ts.size, n, n))
        E[:, :-1, :] = C[:, None, None] * eye[:-1] + Sn[:, None, None] * S[:-1]
        E[:, -1, :] = eye[-1] + ts[:, None] * S[-1]
        det_min = min(det_min, float(np.linalg.det(E).min()))
    return det_min


def _recheck_margin(config: dict, ray: dict) -> float | None:
    """The ray's concavity margin on a grid of RECHECK_STEPS steps."""
    from cdcheck import jacobi
    from cdcheck.params import validate_params
    from cdcheck.spaces import make_space, weight_preset

    sp = dict(config["space"])
    space = make_space(sp.pop("kind"), sp.pop("dim"), **sp)
    p = config["params"]
    return jacobi.refine_ray_margin(
        space, weight_preset(space, config["weight"]),
        validate_params(p["n"], p["N"], p["eps"]), config["kappa"],
        *(np.asarray(ray[k], dtype=float) for k in ("x", "w", "S")),
        steps=RECHECK_STEPS)


def _jacobian_defect(call: Call, out_dir: Path, reports: list[dict],
                     failures: list[str]) -> str:
    """Name the cause when a pass-required ray scan reports a violation."""
    if call.known_defect != JACOBIAN_FALSE_ALARM:
        return ""
    allowed = {f"exit 1, required {call.exit_code}",
               f"jacobian_concavity: verdict fail, required {call.verdict}"}
    if not set(failures) <= allowed:
        return ""
    try:
        ray = json.loads((out_dir / "counterexample.json").read_text())
        det_min = exact_det_min(call.config["space"], ray["x"], ray["w"],
                                ray["S"])
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"counterexample.json unreadable: {exc}")
        return ""
    margin = float(ray["margin"])
    detail = f"margin {margin:.3g}, exact det min {det_min:.3g}"
    if det_min <= 0.0:
        return f"{JACOBIAN_FALSE_ALARM}: inadmissible ray ({detail})"
    fine = _recheck_margin(call.config, ray)
    if (fine is not None and fine < -reports[0]["tolerance"]
            and abs(fine) > 0.25 * abs(margin)):
        return ""
    return (f"{JACOBIAN_FALSE_ALARM}: grid error ({detail}, "
            f"{fine!r} at {RECHECK_STEPS} steps)")


def judge(call: Call, exit_code: int | None, seconds: float, error: str,
          out_dir: Path) -> Outcome:
    """Score one finished call from its exit code and its written files."""
    out = Outcome(call, exit_code, seconds, error)
    if error:
        out.failures.append(f"raised {error}")
        return out
    if exit_code != call.exit_code:
        out.failures.append(f"exit {exit_code}, required {call.exit_code}")
    report = out_dir / f"{call.suite}_report.json"
    try:
        bundle = json.loads(report.read_text())
    except (OSError, ValueError) as exc:
        out.failures.append(f"no readable report: {exc}")
        return out
    out.reports = bundle.get("reports") or []
    out.hash = bundle.get("hash")
    names = tuple(r.get("name") for r in out.reports)
    if names != call.reports:
        out.failures.append(f"reports {list(names)}, "
                            f"required {list(call.reports)}")
    for rep in out.reports:
        out.failures.extend(_check_report(call, rep))
    out.failures.extend(_check_artifacts(call, out_dir))
    out.artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir()
                             if p.is_file())
    if out.failures:
        out.defect = (_taylor_defect(call, out_dir, out.reports, out.failures)
                      or _jacobian_defect(call, out_dir, out.reports,
                                          out.failures))
    return out
