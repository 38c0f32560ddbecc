"""Command-line driver.

Usage:
    cdcheck run --config cfg.json [--seed S] [--out-dir D] [--quiet]
    cdcheck validate --config cfg.json

The config is a JSON object; unknown fields are rejected. Exit codes:
0 all checks pass, 1 at least one inequality fails beyond tolerance,
2 configuration or precondition error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import coefficients, jacobi, suites, taylor
from .errors import CdCheckError, ConfigError, PreconditionError
from .ot import (DensityField, LineGeometry, MeridianGeometry,
                 density_from_callable)
from .params import validate_params
from .report import CheckReport, canonical_json, report_hash
from .spaces import check_curvature_bound, make_space, weight_preset
from .suites import envelope_psi

SUITES = ("curvature", "jacobian", "twcd", "bm", "interpolation",
          "functional", "taylor", "limits", "all")

_TOP_KEYS = {"space", "weight", "params", "kappa", "suite", "sampling",
             "tolerances", "geometry", "densities", "regions",
             "interpolation", "functional", "out_dir"}
_DEFAULT_SAMPLING = {"trials": 1000, "seed": 0,
                     "t_grid": [0.1, 0.25, 0.5, 0.75, 0.9]}
_GEOMETRY_KEYS = {"line": {"kind", "f1", "lo", "hi", "points"},
                  "meridian": {"kind", "f1", "points"}}
_GEOMETRIES = {"line": LineGeometry, "meridian": MeridianGeometry}
# the intervals the bm and interpolation suites place on the axis by default
_BM_BOUNDS = [(-1.0, -0.25), (0.25, 1.0)]
_INTERPOLATION_X, _INTERPOLATION_Y = (-1.0, -0.2), (0.2, 1.0)


def _real(lo=-math.inf, hi=math.inf, kind=(int, float)):
    """Check: a finite number of type ``kind`` in [lo, hi]."""
    return lambda v: (isinstance(v, kind) and not isinstance(v, bool)
                      and math.isfinite(v) and lo <= v <= hi)


def _list(item, count=None):
    """Check: a non-empty list of ``item``s, ``count`` long if given."""
    return lambda v: (isinstance(v, list) and len(v) > 0
                      and count in (None, len(v)) and all(map(item, v)))


_REAL, _PAIR, _STR = _real(), _list(_real(), 2), lambda v: isinstance(v, str)
_POSITIVE_PAIR = _list(lambda v: _REAL(v) and v > 0, 2)
# an interpolation parameter t: the coefficients beta need t in ]0, 1[
_OPEN_T = lambda v: _REAL(v) and 0 < v < 1

_DENSITY = {"kind": lambda v: v in ("bump", "uniform", "cosine"),
            "center": _REAL, "width": _REAL, "amplitude": _REAL, "bounds": _PAIR}
# value checks of the config fields, applied where a field is present; a
# dict holds the checks of a nested object's fields
_FIELDS = {
    "kappa": _REAL, "weight": _STR, "out_dir": _STR,
    "space": {"dim": _real(2, kind=int), "radius": _REAL, "scale": _REAL},
    "params": {"n": _REAL, "eps": _REAL,
               "N": lambda v: v == math.inf or _REAL(v) or isinstance(v, str)},
    "sampling": {"trials": _real(1, kind=int), "seed": _real(0, kind=int),
                 "steps": _real(2, kind=int), "t_grid": _list(_OPEN_T),
                 "theta_range": lambda v: _POSITIVE_PAIR(v) and v[0] <= v[1],
                 "region": {"radius": _REAL, "center": _list(_REAL)}},
    "tolerances": dict.fromkeys(SUITES, _real(0)),
    "geometry": {"kind": _STR, "points": _real(16, kind=int), "lo": _REAL,
                 "hi": _REAL, "f1": _STR},
    "densities": _list(lambda spec: _valid(spec, _DENSITY), 2),
    "regions": {"radii": _POSITIVE_PAIR, "bounds": _list(_PAIR, 2)},
    "interpolation": {"t": _OPEN_T,
                      "X": _PAIR, "Y": _PAIR,
                      "p": lambda v: v in (math.inf, -math.inf) or _REAL(v)},
    "functional": {"delta": _REAL, "density": _DENSITY},
}


def _valid(obj, checks) -> bool:
    """Whether ``obj`` is an object whose present fields pass ``checks``."""
    return isinstance(obj, dict) and all(
        _valid(obj[key], ok) if isinstance(ok, dict) else ok(obj[key])
        for key, ok in checks.items() if key in obj)


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    return resolve_config(cfg)


def resolve_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("space", "params", "kappa", "suite"):
        if key not in cfg:
            raise ConfigError(f"missing config field: {key}")
    if cfg["suite"] not in SUITES:
        raise ConfigError(f"unknown suite: {cfg['suite']}")
    bad = [key for key in _FIELDS if not _valid(cfg, {key: _FIELDS[key]})]
    if bad:
        raise ConfigError(f"invalid {bad[0]}: {cfg[bad[0]]!r}")
    out = dict(cfg)
    out.setdefault("weight", "zero")
    sampling = dict(_DEFAULT_SAMPLING)
    sampling.update(cfg.get("sampling", {}))
    out["sampling"] = sampling
    out.setdefault("tolerances", {})
    missing = {"n", "N", "eps"} - set(cfg["params"])
    if missing:
        raise ConfigError(f"missing params fields: {sorted(missing)}")
    p = dict(cfg["params"])
    if isinstance(p.get("N"), str):
        if p["N"].lower() not in ("inf", "+inf", "infinity"):
            raise ConfigError(f"cannot parse N: {p['N']}")
        p["N"] = math.inf
    out["params"] = p
    sp = dict(cfg["space"])
    if "kind" not in sp or "dim" not in sp:
        raise ConfigError("space spec needs kind and dim")
    out["space"] = sp
    # materialize the objects once to surface validation errors early
    space, weight, params = _build(out)
    if p["n"] != space.dim:
        raise ConfigError(f"params.n = {p['n']} differs from the space"
                          f" dimension {space.dim}")
    suites.require_p_range(out.get("interpolation", {}).get("p", 0.0), params)
    axis_weight = _check_axis(out, space)
    if params.N == params.n and not (weight.is_constant
                                     and axis_weight.is_constant):
        raise ConfigError("N = n requires a constant weight and geometry f1")
    return out


def _check_axis(cfg, space):
    """Check the axis geometry and the intervals the config's suite places
    on it, without building its grid; returns the axis weight."""
    g = cfg.get("geometry", {})
    kind = g.get("kind", "line")
    if kind not in _GEOMETRY_KEYS:
        raise ConfigError(f"unknown geometry kind: {kind}")
    unknown = set(g) - _GEOMETRY_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown {kind} geometry fields: {sorted(unknown)}")
    axis_weight = weight_preset(_GEOMETRIES[kind].space, g.get("f1", "zero"))
    if kind == "meridian" and (space.dim, space.sec) != (2, 1.0):
        raise ConfigError("a meridian geometry needs the unit S^2 space")
    lo, hi = ((0.0, math.pi) if kind == "meridian"
              else (g.get("lo", -2.0), g.get("hi", 2.0)))
    if not lo < hi:
        raise ConfigError(f"{kind} window [{lo:g}, {hi:g}] is empty or reversed")
    regions, icfg = cfg.get("regions", {}), cfg.get("interpolation", {})
    if regions.get("kind") == "ball" and "radii" not in regions:
        raise ConfigError("ball regions need radii")
    spans = [d.get("bounds") for d in cfg.get("densities", [])
             + [cfg.get("functional", {}).get("density", {})]
             if d.get("kind") == "uniform"]
    if cfg["suite"] in ("bm", "all") and regions.get("kind") != "ball":
        spans += regions.get("bounds", _BM_BOUNDS)
    if cfg["suite"] in ("interpolation", "all"):
        spans += [icfg.get("X", _INTERPOLATION_X),
                  icfg.get("Y", _INTERPOLATION_Y)]
    for span in spans:
        if not (span and lo <= span[0] < span[1] <= hi):
            raise ConfigError(f"axis interval {span} is missing, empty,"
                              f" reversed or leaves the {kind} window"
                              f" [{lo:g}, {hi:g}]")
    return axis_weight


def _build(cfg):
    sp = cfg["space"]
    space = make_space(sp["kind"], sp["dim"],
                       **{k: v for k, v in sp.items()
                          if k not in ("kind", "dim")})
    weight = weight_preset(space, cfg["weight"])
    p = cfg["params"]
    params = validate_params(p["n"], p["N"], p["eps"])
    return space, weight, params


def _build_geometry(cfg):
    """The axis geometry of a resolved config (its keys are checked there)."""
    g = dict(cfg.get("geometry", {}))
    return _GEOMETRIES[g.pop("kind", "line")](g.pop("f1", "zero"), **g)


def _axis_density(geometry, spec) -> DensityField:
    kind = spec.get("kind", "bump")
    if kind == "bump":
        m0 = spec.get("center", 0.0)
        w = spec.get("width", 0.5)
        return density_from_callable(
            geometry, lambda x: np.exp(-0.5 * ((x - m0) / w) ** 2))
    if kind == "uniform":
        lo, hi = spec["bounds"]
        return density_from_callable(
            geometry, lambda x: ((x >= lo) & (x <= hi)).astype(float))
    a = spec.get("amplitude", 0.1)  # kind "cosine"
    return density_from_callable(geometry, lambda th: 1.0 + a * np.cos(th))


# ----------------------------------------------------------------------
# suite runners, each returning a list of CheckReport
# ----------------------------------------------------------------------
def _run_curvature(cfg, space, weight, params):
    s = cfg["sampling"]
    tol = cfg["tolerances"].get("curvature", 1e-9)
    rep = check_curvature_bound(space, weight, params, cfg["kappa"],
                                {"count": s["trials"], "seed": s["seed"],
                                 "region": s.get("region"), "tol": tol})
    return [rep]


def _run_jacobian(cfg, space, weight, params, out_dir):
    s = cfg["sampling"]
    kappa = cfg["kappa"]
    tol = cfg["tolerances"].get("jacobian", 1e-8)
    trials = s["trials"]
    steps = s.get("steps", 128)
    xs, ws, Ss, margins, grids = jacobi.scan_rays(
        space, weight, params, kappa, np.random.default_rng(s["seed"]),
        trials, steps, s.get("region"),
        tuple(s.get("theta_range", (0.2, 1.2))), tol)
    if not margins.size:
        raise PreconditionError(f"all {trials} rays were inadmissible or"
                                " reached the conjugate radius",
                                failed="samples")
    rep = CheckReport(name="jacobian_concavity", margins=margins.tolist(),
                      tolerance=tol,
                      provenance={"kappa": kappa, "trials": trials,
                                  "seed": s["seed"], "steps": steps})
    # the first smallest margin; a NaN margin names no worst ray
    i = int(np.argmin(np.where(np.isnan(margins), math.inf, margins)))
    traj = jacobi.integrate_jacobi(space, weight, params,
                                   jacobi.TransportRay(xs[i], ws[i], Ss[i]),
                                   steps)
    _write_trajectory(out_dir / "worst_ray.csv", traj)
    if margins[i] < -tol:
        record = {"x": xs[i].tolist(), "w": ws[i].tolist(),
                  "S": Ss[i].tolist(), "margin": float(margins[i]),
                  "steps": int(grids[i])}
        (out_dir / "counterexample.json").write_text(canonical_json(record))
    return [rep]


def _write_trajectory(path, traj):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "det", "J", "h", "l", "log_D", "log_Dbar"])
        for row in traj.as_rows():
            w.writerow([f"{v:.17g}" for v in row])


def _run_twcd(cfg, params, out_dir):
    geometry = _build_geometry(cfg)
    dens = cfg.get("densities",
                   [{"kind": "bump", "center": -0.5, "width": 0.4},
                    {"kind": "bump", "center": 0.5, "width": 0.6}])
    rho0 = _axis_density(geometry, dens[0])
    rho1 = _axis_density(geometry, dens[1])
    tol = cfg["tolerances"].get("twcd", 1e-6)
    rep = suites.check_twcd(rho0, rho1, params, cfg["kappa"],
                            cfg["sampling"]["t_grid"], tol=tol)
    with open(out_dir / "twcd.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "lhs", "rhs", "margin"])
        for row in rep.provenance["rows"]:
            w.writerow([f"{row[k]:.17g}"
                        for k in ("t", "lhs", "rhs", "margin")])
    return [rep]


def _run_bm(cfg, space, weight, params):
    regions = cfg.get("regions", {})
    tol = cfg["tolerances"].get("bm", 1e-6)
    if regions.get("kind") == "ball":
        X, Y = ({"kind": "ball", "radius": r} for r in regions["radii"])
        where = (space, weight)
    else:
        X, Y = ({"kind": "interval", "bounds": tuple(b)}
                for b in regions.get("bounds", _BM_BOUNDS))
        where = (_build_geometry(cfg), None)
    return [suites.check_brunn_minkowski(suites.RegionPair(X, Y, t), *where,
                                         params, cfg["kappa"], tol=tol)
            for t in cfg["sampling"]["t_grid"]]


def _run_interpolation(cfg, params):
    geometry = _build_geometry(cfg)
    icfg = cfg.get("interpolation", {})
    t = icfg.get("t", 0.5)
    p = icfg.get("p", 0.0)
    X = tuple(icfg.get("X", _INTERPOLATION_X))
    Y = tuple(icfg.get("Y", _INTERPOLATION_Y))
    tol = cfg["tolerances"].get("interpolation", 1e-6)
    psi0, psi1 = (lambda x, I=I: np.exp(-0.5 * ((x - np.mean(I)) / 0.3) ** 2)
                  * ((x >= I[0]) & (x <= I[1])) for I in (X, Y))
    psi = envelope_psi(geometry, params, cfg["kappa"], psi0, psi1, X, Y, t, p)
    return [suites.check_interpolation(geometry, params, cfg["kappa"],
                                       psi0, psi1, psi, X, Y, t, p,
                                       seed=cfg["sampling"]["seed"], tol=tol)]


def _run_functional(cfg, params):
    geometry = _build_geometry(cfg)
    fcfg = cfg.get("functional", {})
    spec = fcfg.get("density", {"kind": "cosine", "amplitude": 0.1})
    rho = _axis_density(geometry, spec)
    f0 = float(geometry.f_vals[0])
    delta = fcfg.get("delta", (1.0 - params.eps) * f0 / (params.n - 1.0))
    tol = cfg["tolerances"].get("functional", 1e-5)
    return [suites.check_hwi_lsi(rho, params, cfg["kappa"], delta, tol=tol),
            suites.check_transport_energy(rho, params, cfg["kappa"], tol=tol)]


def _run_taylor(cfg, space, weight, params, out_dir):
    rng = np.random.default_rng(cfg["sampling"]["seed"])
    x = space.sample_point(rng, cfg["sampling"].get("region"))
    v = space.sample_unit(rng, x)
    # theta needs eps != 0 (eps = 0 at N = 1)
    terms = [term for term in taylor.TERMS
             if params.eps != 0.0 or term not in ("app4_fwd", "app4_rev", "app6")]
    checks = taylor.check_series(space, weight, params, cfg["kappa"],
                                 x, v, terms)
    for chk in checks:
        chk.to_csv(out_dir / f"taylor_{chk.term}.csv")
    reports = [CheckReport(name="taylor_series",
                           margins=[chk.margin for chk in checks],
                           tolerance=0.0,
                           provenance={"x": np.asarray(x).tolist()})]
    # the identity divides by eps0, infinite at N = n and 0 at N = 1
    if 0.0 < params.eps0 < math.inf:
        grid = np.linspace(-3.0, 3.0, 101)
        reports.append(taylor.check_F_identity(params, 0.7, grid))
    return reports


def _run_limits(cfg, space, weight, params):
    rng = np.random.default_rng(cfg["sampling"]["seed"])
    x = space.sample_point(rng, cfg["sampling"].get("region"))
    v = space.sample_unit(rng, x)
    y = space.geodesic(x, v, 0.4)
    reports = [taylor.check_limit_bound(space, weight, params, 0.5, x, v,
                                        r=0.5, seed=cfg["sampling"]["seed"]),
               coefficients.check_limits(space, weight, params, cfg["kappa"],
                                         x, y, [0.1, 0.05, 0.02, 0.01,
                                                0.005, 0.002, 0.001])]
    return reports


def run_suite(cfg: dict, out_dir) -> list[CheckReport]:
    space, weight, params = _build(cfg)
    suite = cfg["suite"]
    runners = {
        "curvature": lambda: _run_curvature(cfg, space, weight, params),
        "jacobian": lambda: _run_jacobian(cfg, space, weight, params, out_dir),
        "twcd": lambda: _run_twcd(cfg, params, out_dir),
        "bm": lambda: _run_bm(cfg, space, weight, params),
        "interpolation": lambda: _run_interpolation(cfg, params),
        "functional": lambda: _run_functional(cfg, params),
        "taylor": lambda: _run_taylor(cfg, space, weight, params, out_dir),
        "limits": lambda: _run_limits(cfg, space, weight, params),
    }
    if suite == "all":
        reports = []
        for name, fn in runners.items():
            try:
                reports.extend(fn())
            except PreconditionError as exc:
                reports.append(CheckReport(
                    name=name, margins=[], tolerance=0.0, vacuous=True,
                    provenance={"skipped": str(exc)}))
        return reports
    return runners[suite]()


def _report_payload(cfg: dict, rep: CheckReport) -> dict:
    payload = {
        "name": rep.name,
        "params": cfg["params"],
        "kappa": cfg["kappa"],
        "seed": cfg["sampling"]["seed"],
        "margins": [None if math.isnan(m) else m for m in rep.margins],
        "min_margin": None if math.isnan(rep.min_margin) else rep.min_margin,
        "tolerance": rep.tolerance,
        "verdict": rep.verdict,
        "config": cfg,
        "provenance": rep.provenance,
    }
    return payload


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"invalid seed: {args.seed}")
            cfg["sampling"]["seed"] = args.seed
    except (CdCheckError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir or cfg.get("out_dir") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output directory error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = run_suite(cfg, out_dir)
    except PreconditionError as exc:
        print(f"precondition failed: {exc} [{exc.failed}]", file=sys.stderr)
        return 2
    except CdCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payloads = [_report_payload(cfg, rep) for rep in reports]
    bundle = {"suite": cfg["suite"], "reports": payloads,
              "hash": report_hash({"suite": cfg["suite"],
                                   "reports": payloads}),
              "timestamp": time.time()}
    path = out_dir / f"{cfg['suite']}_report.json"
    path.write_text(canonical_json(bundle))
    failed = [p for p in payloads if p["verdict"] == "fail"]
    if not args.quiet:
        for p in payloads:
            mm = p["min_margin"]
            mm_s = "n/a" if mm is None else f"{mm:.3e}"
            print(f"{p['name']}: {p['verdict']} (min margin {mm_s})")
        print(f"report written to {path}")
    return 1 if failed else 0


def cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except (CdCheckError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print("config ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdcheck",
        description="numerical checks for weighted curvature-dimension"
                    " inequalities")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a suite from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out-dir", default=None)
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(fn=cmd_run)
    val_p = sub.add_parser("validate", help="schema-check a config")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(fn=cmd_validate)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
