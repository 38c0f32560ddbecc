"""Command-line driver.

Usage:
    cdcheck run --config cfg.json [--seed S] [--out-dir D] [--quiet]
    cdcheck validate --config cfg.json

The config is a JSON object checked against one schema, ``_SCHEMA``:
unknown fields are refused at every level, ``space`` takes ``radius`` only
on a sphere and ``scale`` only on a hyperbolic space, ``regions.kind`` is
"interval" or "ball", and ``tolerances`` has a key per suite that reads one
(not taylor, limits or all). ``validate`` builds what a run builds, so an
axis density of any kind with no mass on its grid exits 2 there, as do
ball regions under a non-constant weight and a ``sampling.region.center``
whose length is not the space's point length. Exit codes: 0 all checks
pass, 1 at least one inequality fails beyond tolerance, 2 configuration or
precondition error, 4 internal error (a crash of the program, reported on
one stderr line; never a verdict).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import coefficients, jacobi, suites, taylor
from .errors import CdCheckError, ConfigError, PreconditionError
from .ot import (AxisGeometry, DensityField, LineGeometry, MeridianGeometry,
                 density_from_callable)
from .params import validate_params
from .report import CheckReport, canonical_json, report_hash
from .spaces import check_curvature_bound, make_space, weight_preset
from .suites import envelope_psi

INTERNAL_ERROR = 4

SUITES = ("curvature", "jacobian", "twcd", "bm", "interpolation",
          "functional", "taylor", "limits", "all")

_DEFAULT_SAMPLING = {"trials": 1000, "seed": 0,
                     "t_grid": [0.1, 0.25, 0.5, 0.75, 0.9]}
_GEOMETRIES = {"line": LineGeometry, "meridian": MeridianGeometry}
# what the 1-d suites place on the axis by default: the twcd and functional
# densities, the bm intervals and the interpolation intervals
_TWCD_DENSITIES = [{"kind": "bump", "center": -0.5, "width": 0.4},
                   {"kind": "bump", "center": 0.5, "width": 0.6}]
_FUNCTIONAL_DENSITY = {"kind": "cosine", "amplitude": 0.1}
_BM_BOUNDS = [(-1.0, -0.25), (0.25, 1.0)]
_INTERPOLATION_X, _INTERPOLATION_Y = (-1.0, -0.2), (0.2, 1.0)


def _real(lo=-math.inf, hi=math.inf, kind=(int, float)):
    """Check: a finite float value of type ``kind`` in [lo, hi]."""
    return lambda v: (isinstance(v, kind) and not isinstance(v, bool)
                      and abs(v) <= sys.float_info.max and lo <= v <= hi)


def _list(item, count=None):
    """Check: a non-empty list of ``item``s, ``count`` long if given."""
    return lambda v: (isinstance(v, list) and len(v) > 0
                      and count in (None, len(v)) and all(map(item, v)))


class _Need(NamedTuple):  # a table entry that must be present
    schema: object


class _Kinds(dict):
    """One table per ``kind`` of an object; ``default`` for one without."""

    def __init__(self, default=None, **tables):
        super().__init__(tables)
        self.default = default


_REAL, _PAIR, _STR = _real(), _list(_real(), 2), lambda v: isinstance(v, str)
_POSITIVE_PAIR = _list(lambda v: _REAL(v) and v > 0, 2)
# an interpolation parameter t: the coefficients beta need t in ]0, 1[
_OPEN_T = lambda v: _REAL(v) and 0 < v < 1
# N: a number, or infinity as the JSON value Infinity or a string token
_N = lambda v: v == math.inf or _REAL(v) or (
    isinstance(v, str) and v.lower() in ("inf", "+inf", "infinity"))
_DIM, _POINTS = _Need(_real(2, kind=int)), _real(16, 2**20, kind=int)
_DENSITY = _Kinds("bump", bump={"center": _REAL, "width": _REAL},
                  uniform={"bounds": _Need(_PAIR)},
                  cosine={"amplitude": _REAL})
# the config schema, walked by _valid; the tolerances are those a runner reads
_SCHEMA = {
    "space": _Need(_Kinds(euclidean={"dim": _DIM},
                          sphere={"dim": _DIM, "radius": _REAL},
                          hyperbolic={"dim": _DIM, "scale": _REAL})),
    "weight": _STR,
    "params": _Need({"n": _Need(_REAL), "N": _Need(_N), "eps": _Need(_REAL)}),
    "kappa": _Need(_REAL),
    "suite": _Need(lambda v: isinstance(v, str) and v in SUITES),
    "sampling": {"trials": _real(1, kind=int), "seed": _real(0, kind=int),
                 "steps": _real(2, kind=int), "t_grid": _list(_OPEN_T),
                 "theta_range": lambda v: _POSITIVE_PAIR(v) and v[0] <= v[1],
                 "region": {"radius": _REAL, "center": _list(_REAL)}},
    "tolerances": dict.fromkeys(("curvature", "jacobian", "twcd", "bm",
                                 "interpolation", "functional"), _real(0)),
    "geometry": _Kinds("line", meridian={"f1": _STR, "points": _POINTS},
                       line={"f1": _STR, "points": _POINTS, "lo": _REAL,
                             "hi": _REAL}),
    "densities": [_DENSITY, _DENSITY],
    "regions": _Kinds("interval", interval={"bounds": [_PAIR, _PAIR]},
                      ball={"radii": _Need(_POSITIVE_PAIR)}),
    "interpolation": {"t": _OPEN_T, "X": _PAIR, "Y": _PAIR,
                      "p": lambda v: v in (math.inf, -math.inf) or _REAL(v)},
    "functional": {"delta": _REAL, "density": _DENSITY},
    "out_dir": _STR,
}


def _valid(value, schema, path=""):
    """Check ``value`` against ``schema``: a predicate, a list (one schema
    per item of a list that long), a table (the schemas of an object's
    keys, the required ones in `_Need`; any other key is refused) or a
    `_Kinds`. A ConfigError names the path of the first bad field."""
    if isinstance(schema, list):  # walked as a table keyed by index
        if not (isinstance(value, list) and len(value) == len(schema)):
            raise ConfigError(f"invalid {path}: {value!r}")
        value, schema = dict(enumerate(value)), dict(enumerate(schema))
    elif not isinstance(schema, dict):
        if not schema(value):
            raise ConfigError(f"invalid {path}: {value!r}")
        return
    if not isinstance(value, dict):
        raise ConfigError(f"invalid {path or 'config'}: {value!r}")
    at = lambda key: f"{path}.{key}" if path else key
    if isinstance(schema, _Kinds):
        kind = value.get("kind", schema.default)
        if not (isinstance(kind, str) and kind in schema):
            raise ConfigError(f"invalid or missing {at('kind')}: {kind!r}")
        schema = {"kind": _STR, **schema[kind]}
    unknown = sorted(set(value) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config fields: {list(map(at, unknown))}")
    for key, entry in schema.items():
        if key in value:
            _valid(value[key], getattr(entry, "schema", entry), at(key))
        elif isinstance(entry, _Need):
            raise ConfigError(f"missing config field: {at(key)}")


def load_config(path) -> dict:
    with open(path) as fh:
        return resolve_config(json.load(fh))


def resolve_config(cfg: dict) -> dict:
    _valid(cfg, _SCHEMA)
    p = dict(cfg["params"])
    if isinstance(p["N"], str):
        p["N"] = math.inf
    out = {"weight": "zero", "tolerances": {}, **cfg, "params": p,
           "sampling": {**_DEFAULT_SAMPLING, **cfg.get("sampling", {})},
           "space": dict(cfg["space"])}
    # build what a run builds, to surface validation errors early
    space, weight, params = _build(out)
    if p["n"] != space.dim:
        raise ConfigError(f"params.n = {p['n']} differs from the space"
                          f" dimension {space.dim}")
    suites.require_p_range(out.get("interpolation", {}).get("p", 0.0), params)
    center = out["sampling"].get("region", {}).get("center")
    if center is not None and len(center) != space.ambient:
        raise ConfigError(f"sampling.region.center has {len(center)}"
                          f" coordinates; points of the space have"
                          f" {space.ambient}")
    if (out["suite"] in ("bm", "all")
            and out.get("regions", {}).get("kind") == "ball"):
        suites.require_ball_weight(weight)
    axis = _build_axis(out, space)
    if params.N == params.n and not (weight.is_constant
                                     and axis.geometry.weight.is_constant):
        raise ConfigError("N = n requires a constant weight and geometry f1")
    return out


def _build(cfg):
    space = make_space(**cfg["space"])
    return (space, weight_preset(space, cfg["weight"]),
            validate_params(**cfg["params"]))


_Axis = NamedTuple("_Axis", [("geometry", AxisGeometry), ("pair", list),
                             ("rho", DensityField)])


def _build_axis(cfg, space) -> _Axis:
    """The axis of a resolved config as its 1-d suites take it, a default
    density only where read; a ConfigError if a density has no grid mass
    or an interval the suite places on the axis leaves the window."""
    g = dict(cfg.get("geometry", {}))
    geometry = _GEOMETRIES[g.pop("kind", "line")](g.pop("f1", "zero"), **g)
    if (isinstance(geometry, MeridianGeometry)
            and (space.dim, space.sec) != (2, 1.0)):
        raise ConfigError("a meridian geometry needs the unit S^2 space")
    uses = lambda suite: cfg["suite"] in (suite, "all")
    regions, icfg = cfg.get("regions", {}), cfg.get("interpolation", {})
    if uses("bm") and regions.get("kind") != "ball":
        for span in regions.get("bounds", _BM_BOUNDS):
            _inside(geometry, span)
    if uses("interpolation"):
        _inside(geometry, icfg.get("X", _INTERPOLATION_X))
        _inside(geometry, icfg.get("Y", _INTERPOLATION_Y))
    specs = cfg.get("densities", _TWCD_DENSITIES if uses("twcd") else [])
    spec = cfg.get("functional", {}).get(
        "density", _FUNCTIONAL_DENSITY if uses("functional") else None)
    return _Axis(geometry, [_axis_density(geometry, s) for s in specs],
                 None if spec is None else _axis_density(geometry, spec))


def _inside(geometry, span):
    """``span`` if it is an interval [a, b] with a < b in the axis window."""
    lo, hi = geometry.xs[0], geometry.xs[-1]
    if not lo <= span[0] < span[1] <= hi:
        raise ConfigError(f"axis interval {span} is empty, reversed or leaves"
                          f" the axis window [{lo:g}, {hi:g}]")
    return span


def _axis_density(geometry, spec) -> DensityField:
    kind = spec.get("kind", "bump")
    if kind == "bump":
        center, width = spec.get("center", 0.0), spec.get("width", 0.5)
        if not width > 0:
            raise ConfigError(f"bump density width {width:g} is not positive")
        fn = lambda x: np.exp(-0.5 * ((x - center) / width) ** 2)
    elif kind == "uniform":
        lo, hi = _inside(geometry, spec["bounds"])
        fn = lambda x: ((x >= lo) & (x <= hi)).astype(float)
    else:  # kind "cosine"
        a = spec.get("amplitude", 0.1)
        fn = lambda th: 1.0 + a * np.cos(th)
    try:
        return density_from_callable(geometry, fn)
    except ConfigError as exc:
        raise ConfigError(f"{kind} {exc}: {spec}") from None


# ----------------------------------------------------------------------
# suite runners, each returning a list of CheckReport
# ----------------------------------------------------------------------
def _run_curvature(cfg, space, weight, params):
    s = cfg["sampling"]
    tol = cfg["tolerances"].get("curvature", 1e-9)
    return [check_curvature_bound(space, weight, params, cfg["kappa"],
                                  {"count": s["trials"], "seed": s["seed"],
                                   "region": s.get("region"), "tol": tol})]


def _run_jacobian(cfg, space, weight, params, out_dir):
    s = cfg["sampling"]
    kappa, trials, steps = cfg["kappa"], s["trials"], s.get("steps", 128)
    tol = cfg["tolerances"].get("jacobian", 1e-8)
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
    traj = jacobi.integrate_jacobi(space, weight, params, xs[i], ws[i],
                                   Ss[i], steps)
    _write_trajectory(out_dir / "worst_ray.csv", traj, params.c)
    if margins[i] < -tol:
        record = {"x": xs[i].tolist(), "w": ws[i].tolist(),
                  "S": Ss[i].tolist(), "margin": float(margins[i]),
                  "steps": int(grids[i])}
        (out_dir / "counterexample.json").write_text(canonical_json(record))
    return [rep]


def _write_trajectory(path, traj, c):
    """Columns t, det, J, h, l, log D = c l and log Dbar of one ray."""
    cols = [traj[k] for k in ("ts", "det", "J", "h", "l")]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "det", "J", "h", "l", "log_D", "log_Dbar"])
        for row in np.column_stack(cols + [c * traj["l"], traj["int_ann"]]):
            w.writerow([f"{v:.17g}" for v in row])


def _run_twcd(cfg, params, rho0, rho1, out_dir):
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


def _run_bm(cfg, space, weight, params, geometry):
    regions = cfg.get("regions", {})
    tol = cfg["tolerances"].get("bm", 1e-6)
    if regions.get("kind") == "ball":
        X, Y = ({"kind": "ball", "radius": r} for r in regions["radii"])
        where = (space, weight)
    else:
        X, Y = ({"kind": "interval", "bounds": tuple(b)}
                for b in regions.get("bounds", _BM_BOUNDS))
        where = (geometry, None)
    return [suites.check_brunn_minkowski(suites.RegionPair(X, Y, t), *where,
                                         params, cfg["kappa"], tol=tol)
            for t in cfg["sampling"]["t_grid"]]


def _run_interpolation(cfg, params, geometry):
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


def _run_functional(cfg, params, rho):
    fcfg = cfg.get("functional", {})
    f0 = float(rho.geometry.f_vals[0])
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
    return [taylor.check_limit_bound(space, weight, params, 0.5, x, v,
                                     r=0.5, seed=cfg["sampling"]["seed"]),
            coefficients.check_limits(space, weight, params, cfg["kappa"],
                                      x, y, [0.1, 0.05, 0.02, 0.01,
                                             0.005, 0.002, 0.001])]


def run_suite(cfg: dict, out_dir) -> list[CheckReport]:
    space, weight, params = _build(cfg)
    # built once, by the first runner that takes it
    axis = functools.cache(lambda: _build_axis(cfg, space))
    suite = cfg["suite"]
    runners = {
        "curvature": lambda: _run_curvature(cfg, space, weight, params),
        "jacobian": lambda: _run_jacobian(cfg, space, weight, params, out_dir),
        "twcd": lambda: _run_twcd(cfg, params, *axis().pair, out_dir),
        "bm": lambda: _run_bm(cfg, space, weight, params, axis().geometry),
        "interpolation": lambda: _run_interpolation(cfg, params,
                                                    axis().geometry),
        "functional": lambda: _run_functional(cfg, params, axis().rho),
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
    return {
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


def cmd_run(args) -> int:
    """``cdcheck run``; any exception that is not a CdCheckError is an
    internal error, exit 4, never a verdict."""
    try:
        return _run(args)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def _run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            _valid(args.seed, _SCHEMA["sampling"]["seed"], "seed")
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
    if not args.quiet:
        for p in payloads:
            mm = p["min_margin"]
            mm_s = "n/a" if mm is None else f"{mm:.3e}"
            print(f"{p['name']}: {p['verdict']} (min margin {mm_s})")
        print(f"report written to {path}")
    return 1 if any(p["verdict"] == "fail" for p in payloads) else 0


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
