"""The benchmark's workloads: seeded lists of ``cdcheck run`` calls.

Each call carries the outcome the mathematics requires of it (exit code,
the verdict of every report, the artifacts it must write) together with
the source of that requirement: an acceptance criterion of the package,
or the curvature arithmetic written out below. The program only ever sees
the generated config files.

A run draws a new input set for every pass from (workload, seed, pass
index), so a run's median pass time averages over many draws. The ray
workloads spend much of their time refining the few rays whose determinant
dips near zero, and how many such rays one draw holds varies by tens of
percent. So ``ray-falsify`` moves one fixed ray population around flat
space, and ``ray-pass`` takes its input sets from a fixed cycle of draws
(``CYCLES``), entered at a seed-chosen point: a run that goes once round
the cycle times the same rays whatever its seed.

Workloads are chosen so that each stresses a different layer:

* ``ray-falsify``: serial single-ray refinement (``jacobi.refine_ray_margin``).
* ``ray-pass``: the batched ray scan on all three model spaces.
* ``geodesic-series``: scalar adaptive quadrature behind ``reparam_partial``.
* ``axis-transport``: the 1-d transport grid kernels and ``envelope_psi``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("ray-falsify", "ray-pass", "geodesic-series", "axis-transport")

_R2 = {"kind": "euclidean", "dim": 2}
_R3 = {"kind": "euclidean", "dim": 3}
_S2 = {"kind": "sphere", "dim": 2, "radius": 1.0}
_H3 = {"kind": "hyperbolic", "dim": 3}
_LINE = {"kind": "line", "lo": -2.0, "hi": 2.0, "points": 8192,
         "f1": "quadratic(0.5)"}

# criterion 5: bump densities (center, width) on the weighted line
_CRITERION5_PAIRS = (((-0.5, 0.4), (0.5, 0.6)), ((-0.8, 0.3), (0.2, 0.4)),
                     ((0.0, 0.5), (0.6, 0.3)), ((-0.3, 0.6), (-0.6, 0.4)),
                     ((0.4, 0.35), (-0.4, 0.55)))

# sized so one pass of each workload takes one to three seconds on a
# 2-core machine
FALSIFY_RAYS = 1000
PASS_RAYS = {"s2-zero": 1000, "s2-cosine": 1000, "r3-quadratic": 1000,
             "h3-zero": 500}
SERIES_BASE_POINTS = 2

# planned CPU seconds of one pass on a 2-core machine (the same host ran
# them 10-30% slower some hours later); a run makes a fixed number of passes
# from these (see run.pass_count), so its calls depend on the seed only
PASS_SECONDS = {"ray-falsify": 2.3, "ray-pass": 1.8, "geodesic-series": 2.1,
                "axis-transport": 3.1}

# input sets that repeat with this period; a run makes whole rounds of them
CYCLES = {"ray-pass": 8}


# Known false alarms, kept in the workloads so that they stay counted; the
# oracle confirms each cause before it names one (see oracle.py).
TAYLOR_SLOPE_DEFECT = "taylor-slope-fit"
JACOBIAN_FALSE_ALARM = "jacobian-false-counterexample"


@dataclass(frozen=True)
class Call:
    """One ``cdcheck run`` call and the outcome it must produce."""

    name: str
    config: dict
    verdict: str  # required verdict of every report: "pass" or "fail"
    reports: tuple[str, ...]  # report names the call must produce, in order
    source: str  # why the mathematics requires this outcome
    artifacts: tuple[str, ...] = ()  # files the call must write
    rays: int = 0  # rays scanned by a jacobian call
    known_defect: str = ""  # failure mode recorded as a known defect

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == "pass" else 1

    @property
    def suite(self) -> str:
        return self.config["suite"]


def _cfg(space, weight, n, N, eps, kappa, suite, **extra):
    cfg = {"space": space, "weight": weight,
           "params": {"n": n, "N": N, "eps": eps}, "kappa": kappa,
           "suite": suite}
    cfg.update(extra)
    return cfg


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _ray_falsify(rng):
    # Flat space with zero weight is translation invariant: every margin
    # depends only on the ray's speed and Hessian surrogate. The seed moves
    # the sampling ball, so each input set scans the same ray population
    # (criterion 4's sampling seed) at another place, and refines the same
    # rays. A fresh ray draw would change how many rays get refined, and
    # with it the pass time, by tens of percent.
    center = [round(rng.uniform(-5.0, 5.0), 6) for _ in range(3)]
    cfg = _cfg(_R3, "zero", 3, 3.0, 1.0, 0.2, "jacobian",
               sampling={"trials": FALSIFY_RAYS, "seed": 0,
                         "region": {"center": center, "radius": 1.0}})
    return [Call("falsify-r3", cfg, "fail", ("jacobian_concavity",),
                 "criterion 4: flat R^3 has Ric = 0 < (N-1) kappa = 0.4",
                 artifacts=("counterexample.json", "worst_ray.csv"),
                 rays=FALSIFY_RAYS)]


def _ray_pass(rng):
    specs = [
        ("s2-zero", _S2, "zero", 2, 2.0, 1.0, 1.0,
         "criterion 3: unit S^2 has Ric = 1 = (N-1) kappa"),
        ("s2-cosine", _S2, "cosine(0.2)", 2, 6.0, 0.5, 0.3,
         "criterion 10: weighted S^2 bound holds"),
        ("r3-quadratic", _R3, "quadratic(0.3)", 3, 10.0, 0.4, -1.0,
         "criterion 3: quadratic weight on R^3 satisfies kappa = -1"),
        ("h3-zero", _H3, "zero", 3, 3.0, 1.0, -1.0,
         "curvature: H^3 has Ric = -2 = (N-1) kappa, c = 1/2"),
    ]
    calls = []
    for name, space, weight, n, N, eps, kappa, source in specs:
        trials = PASS_RAYS[name]
        cfg = _cfg(space, weight, n, N, eps, kappa, "jacobian",
                   sampling={"trials": trials, "seed": _seed(rng)})
        calls.append(Call(name, cfg, "pass", ("jacobian_concavity",), source,
                          artifacts=("worst_ray.csv",), rays=trials,
                          known_defect=JACOBIAN_FALSE_ALARM))
    return calls


def _geodesic_series(rng):
    series = [
        ("r3", _R3, "quadratic(0.3)", -0.7, "criterion 8"),
        ("s2", _S2, "cosine(0.3)", 0.8, "criterion 7"),
        ("h3", _H3, "quadratic(0.3)", -3.0, "series identities on H^3"),
    ]
    calls = []
    for k in range(SERIES_BASE_POINTS):
        for tag, space, weight, kappa, crit in series:
            n = space["dim"]
            N, eps = (9.0, 0.4) if n == 3 else (6.0, 0.5)
            seed = _seed(rng)
            calls.append(Call(
                f"taylor-{tag}-{k}",
                _cfg(space, weight, n, N, eps, kappa, "taylor",
                     sampling={"seed": seed}),
                "pass", ("taylor_series", "F_identity"),
                f"{crit}: the series expansions are O(delta^3) theorems",
                known_defect=TAYLOR_SLOPE_DEFECT))
            calls.append(Call(
                f"limits-{tag}-{k}",
                _cfg(space, weight, n, N, eps, kappa, "limits",
                     sampling={"seed": seed}),
                "pass", ("limit_bound", "coefficient_limits"),
                f"{crit}: the coefficient limits are theorems"))
    # H^3, zero weight, (3, 9, 0.4): c = 0.44, Ric = -2
    for kappa, verdict, why in ((-1.0, "pass", "-2 >= kappa/c = -2.27"),
                                (-0.5, "fail", "-2 < kappa/c = -1.14")):
        calls.append(Call(
            f"curvature-h3-k{kappa}",
            _cfg(_H3, "zero", 3, 9.0, 0.4, kappa, "curvature",
                 sampling={"trials": 1000, "seed": _seed(rng)}),
            verdict, ("curvature_bound",), f"curvature: Ric = {why}"))
    return calls


def _axis_transport(rng):
    tgrid = [round(0.01 * i, 2) for i in range(1, 100)]
    calls = []
    for i in sorted(rng.sample(range(len(_CRITERION5_PAIRS)), 3)):
        (m0, w0), (m1, w1) = _CRITERION5_PAIRS[i]
        calls.append(Call(
            f"twcd-pair{i}",
            _cfg(_R2, "zero", 2, 10.0, 0.5, -1.0, "twcd",
                 geometry=_LINE,
                 densities=[{"kind": "bump", "center": m0, "width": w0},
                            {"kind": "bump", "center": m1, "width": w1}],
                 sampling={"seed": _seed(rng), "t_grid": tgrid}),
            "pass", ("twcd",), "criterion 5: displacement convexity",
            artifacts=("twcd.csv",)))
    calls.append(Call(
        "bm-intervals",
        _cfg(_R2, "zero", 2, 8.0, 0.4, -1.5, "bm",
             geometry=_LINE,
             regions={"bounds": [[-1.0, -0.3], [0.3, 1.0]]},
             sampling={"seed": _seed(rng), "t_grid": [0.25, 0.5, 0.75]}),
        "pass", ("brunn_minkowski",) * 3,
        "criterion 6: Brunn-Minkowski on weighted intervals"))
    calls.append(Call(
        "interpolation-p0",
        _cfg(_R2, "zero", 2, 10.0, 0.5, -1.0, "interpolation",
             geometry=_LINE, interpolation={"p": 0.0, "t": 0.5},
             sampling={"seed": _seed(rng)}),
        "pass", ("interpolation",),
        "p-mean interpolation theorem at p = 0 under the criterion-5 bound"))
    calls.append(Call(
        "functional-meridian",
        _cfg(_S2, "zero", 2, 2.0, 1.0, 1.0, "functional",
             geometry={"kind": "meridian"},
             functional={"density": {"kind": "cosine", "amplitude": 0.2}},
             sampling={"seed": _seed(rng)}),
        "pass", ("hwi_lsi", "transport_energy"),
        "criterion 9: HWI, log-Sobolev and transport-energy on S^2"))
    return calls


_GENERATORS = {"ray-falsify": _ray_falsify, "ray-pass": _ray_pass,
             "geodesic-series": _geodesic_series,
             "axis-transport": _axis_transport}


def build(name: str, seed: int, index: int = 0) -> list[Call]:
    """Input set ``index`` of a run; the same arguments give the same calls."""
    period = CYCLES.get(name)
    draw = f"cycle/{(seed + index) % period}" if period else f"{seed}/{index}"
    return _GENERATORS[name](random.Random(f"{name}/{draw}"))
