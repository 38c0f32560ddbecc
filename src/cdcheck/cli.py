"""Command-line driver.

Usage:
    cdcheck run --config cfg.json [--seed S] [--out-dir D] [--quiet]
    cdcheck validate --config cfg.json

The config is a JSON object checked against one schema, ``_SCHEMA``:
unknown fields are refused at every level, ``space`` takes a positive
``radius`` only on a sphere and ``scale`` only on a hyperbolic space,
``regions`` has two interval ``bounds`` on the axis, and ``tolerances``
has a key per suite that reads one (not taylor, limits or all).
``sampling.steps`` lies in [2, 2^16]; ``sampling.theta_range`` is [lo, hi]
with `jacobi.SPEED_FLOOR` < lo <= hi and hi^2 finite, so every ray moves.
``validate`` builds the `Run` a run takes, so an axis density of any kind
with no mass on its grid exits 2 there, as do a meridian under a
non-radial weight, a ``sampling.region`` on a sphere, a
``sampling.region.center`` off R^n or of another length than a point, and
an H^n region radius whose hyperboloid points pass X_n = 2^26, where they
keep no digit of the hyperboloid (`spaces.SPAN`).

Only `resolve_config` reads a radius or scale R: every suite runs on the
unit model at ``Run.kappa`` = kappa R^2, every length in units of R (a
meridian's r too), as the checks are invariant under g -> R^2 g,
kappa -> kappa / R^2.
Exit codes: 0 all checks pass, 1 at least one inequality fails beyond
tolerance, 2 config, precondition or output error, 4 internal error (a
crash of the program, reported on one stderr line; never a verdict).
"""

from __future__ import annotations

import argparse
import ctypes
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
from .params import DimensionParams, validate_params
from .report import CheckReport, canonical_json, report_hash
from .spaces import (ModelSpace, WeightFunction, centred,
                     check_curvature_bound, make_space, weight_preset)
from .suites import envelope_psi

INTERNAL_ERROR = 4
# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

SUITES = ("curvature", "jacobian", "twcd", "bm", "interpolation",
          "functional", "taylor", "limits", "all")

_DEFAULT_SAMPLING = {"trials": 1000, "seed": 0, "steps": 128,
                     "theta_range": [0.2, 1.2],
                     "t_grid": [0.1, 0.25, 0.5, 0.75, 0.9]}
# the tolerance of each suite that reads one, when the config gives none
_TOLERANCES = {"curvature": 1e-9, "jacobian": 1e-8, "twcd": 1e-6, "bm": 1e-6,
               "interpolation": 1e-6, "functional": 1e-5}
# what the 1-d suites place on the axis by default: the twcd and functional
# densities, the bm intervals and the interpolation settings
_TWCD_DENSITIES = [{"kind": "bump", "center": -0.5, "width": 0.4},
                   {"kind": "bump", "center": 0.5, "width": 0.6}]
_FUNCTIONAL_DENSITY = {"kind": "cosine", "amplitude": 0.1}
_BM_BOUNDS = [(-1.0, -0.25), (0.25, 1.0)]
_INTERPOLATION = {"t": 0.5, "p": 0.0, "X": (-1.0, -0.2), "Y": (0.2, 1.0)}


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
# an interpolation parameter t: the coefficients beta need t in ]0, 1[
_OPEN_T = lambda v: _REAL(v) and 0 < v < 1
# N: a number, or infinity as the JSON value Infinity or a string token
_N = lambda v: v == math.inf or _REAL(v) or (
    isinstance(v, str) and v.lower() in ("inf", "+inf", "infinity"))
_DIM, _POINTS = _Need(_real(2, kind=int)), _real(16, 2**20, kind=int)
_DENSITY = _Kinds("bump", bump={"center": _REAL, "width": _REAL},
                  uniform={"bounds": _Need(_PAIR)},
                  cosine={"amplitude": _real(-1, 1)})
# the config schema, walked by _valid
_SCHEMA = {
    "space": _Need(_Kinds(euclidean={"dim": _DIM},
                          sphere={"dim": _DIM, "radius": _REAL},
                          hyperbolic={"dim": _DIM, "scale": _REAL})),
    "weight": _STR,
    "params": _Need({"n": _Need(_REAL), "N": _Need(_N), "eps": _Need(_REAL)}),
    "kappa": _Need(_REAL),
    "suite": _Need(lambda v: isinstance(v, str) and v in SUITES),
    "sampling": {"trials": _real(1, kind=int), "seed": _real(0, kind=int),
                 "steps": _real(2, 2**16, kind=int), "t_grid": _list(_OPEN_T),
                 "theta_range": lambda v: _PAIR(v) and (
                     jacobi.SPEED_FLOOR < v[0] <= v[1]
                     and v[1] * v[1] <= sys.float_info.max),
                 "region": {"radius": _REAL, "center": _list(_REAL)}},
    "tolerances": dict.fromkeys(_TOLERANCES, _real(0)),
    "geometry": _Kinds("line", meridian={"points": _POINTS},
                       line={"f1": _STR, "points": _POINTS, "lo": _REAL,
                             "hi": _REAL}),
    "densities": [_DENSITY, _DENSITY],
    "regions": {"bounds": [_PAIR, _PAIR]},
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


# the axis geometry and what the 1-d suites place on it; None where unread
_Axis = NamedTuple("_Axis", [("geometry", AxisGeometry), ("pair", list),
                             ("rho", DensityField), ("bm", list),
                             ("interpolation", dict)])
# a resolved config and what its suite runs on, each built once
Run = NamedTuple("Run", [("cfg", dict), ("space", ModelSpace),
                         ("weight", WeightFunction), ("params", DimensionParams),
                         ("axis", _Axis), ("kappa", float)])
_SPACE_SUITES = ("curvature", "jacobian", "taylor", "limits")  # read no axis
_LINE_OFF_RN = "a line geometry needs a euclidean space"


def load_config(path) -> Run:
    with open(path) as fh:
        return resolve_config(json.load(fh))


def resolve_config(cfg: dict) -> Run:
    """The run of ``cfg``; a CdCheckError if the config is refused."""
    _valid(cfg, _SCHEMA)
    N = cfg["params"]["N"]
    p = {**cfg["params"], "N": math.inf if isinstance(N, str) else N}
    out = {"weight": "zero", "tolerances": {}, **cfg, "params": p,
           "sampling": {**_DEFAULT_SAMPLING, **cfg.get("sampling", {})},
           "space": dict(cfg["space"])}
    R = out["space"].get("radius", out["space"].get("scale", 1))
    kappa = cfg["kappa"] if R == 1 else cfg["kappa"] * (R * R)  # int at R = 1
    if not (R > 0 and R * R > 0.0 and math.isfinite(kappa)):
        raise ConfigError(f"space radius or scale {R:g} is not positive, or"
                          " R^2 or kappa R^2 leaves the float range")
    space = make_space(out["space"]["kind"], out["space"]["dim"])
    weight, params = weight_preset(space, out["weight"]), validate_params(**p)
    if p["n"] != space.dim:
        raise ConfigError(f"params.n = {p['n']} differs from the space"
                          f" dimension {space.dim}")
    suites.require_p_range(
        out.get("interpolation", {}).get("p", _INTERPOLATION["p"]), params)
    region = out["sampling"].get("region", {})
    center = region.get("center")
    if space.kind == "sphere" and "region" in out["sampling"]:
        raise ConfigError("sampling.region is not read on a sphere")
    if space.kind == "hyperbolic" and center is not None:
        raise ConfigError("sampling.region.center is not read on a"
                          " hyperbolic space")
    if center is not None and len(center) != space.ambient:
        raise ConfigError(f"sampling.region.center has {len(center)}"
                          f" coordinates; points of the space have"
                          f" {space.ambient}")
    if space.kind == "hyperbolic" and not space.region_in_range(
            region.get("radius", 1)):
        raise ConfigError("sampling.region.radius puts points of the"
                          " hyperbolic space past X_n = 2^26")
    axis = _build_axis(out, space, weight)
    if params.N == params.n and not (weight.is_constant and (
            axis is None or axis.geometry.weight.is_constant)):
        raise ConfigError("N = n requires a constant weight and geometry f1")
    return Run(out, space, weight, params, axis, kappa)


def _build_axis(cfg, space, weight) -> _Axis | None:
    """The axis of a resolved config as its 1-d suites take it, defaults
    only where read; None if no field sets it and no suite reads it or the
    suite is "all" off R^n, where the default axis, a line, is refused.
    The meridian runs under the run's ``weight``, the line under its own
    ``f1``. Refuses a line off R^n, what the geometry refuses (a non-radial
    meridian weight), a density without grid mass and an interval the
    suite places outside the window."""
    if cfg.keys().isdisjoint(("geometry", "densities", "functional")) and (
            cfg["suite"] in _SPACE_SUITES
            or cfg["suite"] == "all" and space.kind != "euclidean"):
        return None
    g = dict(cfg.get("geometry", {}))
    kind = g.pop("kind", "line")
    if kind == "line" and space.kind != "euclidean":
        raise ConfigError(_LINE_OFF_RN)
    geometry = (LineGeometry(g.pop("f1", "zero"), **g) if kind == "line"
                else MeridianGeometry(space, weight, **g))
    uses = lambda suite: cfg["suite"] in (suite, "all")
    bm, interpolation = None, None
    if uses("bm"):
        bm = [_inside(geometry, span)
              for span in cfg.get("regions", {}).get("bounds", _BM_BOUNDS)]
    if uses("interpolation"):
        icfg = {**_INTERPOLATION, **cfg.get("interpolation", {})}
        interpolation = {**icfg, "X": _inside(geometry, icfg["X"]),
                         "Y": _inside(geometry, icfg["Y"])}
    specs = cfg.get("densities", _TWCD_DENSITIES if uses("twcd") else [])
    spec = cfg.get("functional", {}).get(
        "density", _FUNCTIONAL_DENSITY if uses("functional") else None)
    return _Axis(geometry, [_axis_density(geometry, s) for s in specs],
                 None if spec is None else _axis_density(geometry, spec),
                 bm, interpolation)


def _inside(geometry, span) -> tuple:
    """``span`` if it is an interval [a, b] with a < b in the axis window."""
    lo, hi = geometry.xs[0], geometry.xs[-1]
    if not lo <= span[0] < span[1] <= hi:
        raise ConfigError(f"axis interval {span} is empty, reversed or leaves"
                          f" the axis window [{lo:g}, {hi:g}]")
    return tuple(span)


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


def _write_table(path, header, rows) -> None:
    """A CSV table in one write, with csv's CRLF line ends: Python floats
    to round trip (``.17g``), str cells as they are (no comma or quote)."""
    lines = [",".join(header), *(",".join(
        [v if isinstance(v, str) else f"{v:.17g}" for v in row])
        for row in rows), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


# ----------------------------------------------------------------------
# suite runners: (run, out_dir) -> list of CheckReport
# ----------------------------------------------------------------------
def _tol(run, suite) -> float:
    return run.cfg["tolerances"].get(suite, _TOLERANCES[suite])


def _run_curvature(run, out_dir):
    cfg, space, weight, params = run[:4]
    s = cfg["sampling"]
    return [check_curvature_bound(space, weight, params, run.kappa,
                                  s["trials"], s["seed"], s.get("region"),
                                  _tol(run, "curvature"))]


def _run_jacobian(run, out_dir):
    cfg, space, weight, params = run[:4]
    s = cfg["sampling"]
    trials, steps, tol = s["trials"], s["steps"], _tol(run, "jacobian")
    xs, ws, Ss, margins, grids = jacobi.scan_rays(
        space, weight, params, run.kappa, np.random.default_rng(s["seed"]),
        trials, steps, s.get("region"), tuple(s["theta_range"]), tol)
    if not margins.size:
        raise PreconditionError(f"all {trials} rays were inadmissible or"
                                " reached the conjugate radius",
                                failed="samples")
    rep = CheckReport(name="jacobian_concavity", margins=margins.tolist(),
                      tolerance=tol)
    # the first smallest margin; a NaN margin names no worst ray
    i = int(np.argmin(np.where(np.isnan(margins), math.inf, margins)))
    traj = jacobi.integrate_jacobi(space, weight, xs[i], ws[i], Ss[i],
                                   steps)
    # columns t, det, J, h, l, log D = c l and log Dbar of the worst ray
    cols = [traj[k] for k in ("ts", "det", "J", "h", "l")]
    _write_table(out_dir / "worst_ray.csv",
                 ["t", "det", "J", "h", "l", "log_D", "log_Dbar"],
                 np.column_stack(cols + [params.c * traj["l"],
                                         traj["int_ann"]]).tolist())
    if margins[i] < -tol:
        record = {"x": xs[i].tolist(), "w": ws[i].tolist(),
                  "S": Ss[i].tolist(), "margin": float(margins[i]),
                  "steps": int(grids[i])}
        (out_dir / "counterexample.json").write_text(canonical_json(record))
    return [rep]


def _run_twcd(run, out_dir):
    rep, rows = suites.check_twcd(*run.axis.pair, run.params, run.kappa,
                                  run.cfg["sampling"]["t_grid"],
                                  _tol(run, "twcd"))
    _write_table(out_dir / "twcd.csv", ("t", "lhs", "rhs", "margin"), rows)
    return [rep]


def _run_bm(run, out_dir):
    X, Y = run.axis.bm
    return suites.check_brunn_minkowski(run.axis.geometry, X, Y,
                                        run.cfg["sampling"]["t_grid"],
                                        run.params, run.kappa, _tol(run, "bm"))


def _run_interpolation(run, out_dir):
    cfg, params, axis = run.cfg, run.params, run.axis
    t, p, X, Y = (axis.interpolation[k] for k in ("t", "p", "X", "Y"))
    psi0, psi1 = (lambda x, I=I, mid=np.mean(I):
                  np.exp(-0.5 * ((x - mid) / 0.3) ** 2)
                  * ((x >= I[0]) & (x <= I[1])) for I in (X, Y))
    psi = envelope_psi(axis.geometry, params, run.kappa, psi0, psi1, X, Y,
                       t, p)
    return [suites.check_interpolation(axis.geometry, params, run.kappa,
                                       psi0, psi1, psi, X, Y, t, p,
                                       cfg["sampling"]["seed"],
                                       _tol(run, "interpolation"))]


def _run_functional(run, out_dir):
    cfg, params, rho = run.cfg, run.params, run.axis.rho
    f0 = float(rho.geometry.f_vals[0])
    delta = cfg.get("functional", {}).get(
        "delta", (1.0 - params.eps) * f0 / (params.n - 1.0))
    return suites.check_functional(rho, params, run.kappa, delta,
                                   _tol(run, "functional"))


def _base_point(run):
    """(x, weight, x0, v): the seeded point x of taylor and limits, and the
    weight, x and the seeded unit direction moved by `spaces.centred`."""
    s = run.cfg["sampling"]
    rng = np.random.default_rng(s["seed"])
    x = run.space.sample_point(rng, s.get("region"))
    return (x, *centred(run.space, run.cfg["weight"], x,
                        run.space.sample_unit(rng, x)))


def _run_taylor(run, out_dir):
    space, params = run.space, run.params
    x, weight, x0, v = _base_point(run)
    terms, deltas, exact, series = taylor.check_series(
        space, weight, params, run.kappa, x0, v)
    _write_table(out_dir / "taylor.csv",
                 ["term", "delta", "exact", "series", "remainder"],
                 ((term, *row) for term, *cols in zip(
                     terms, exact.tolist(), series.tolist(),
                     (exact - series).tolist())
                  for row in zip(deltas.tolist(), *cols)))
    margins = taylor.series_margins(deltas, exact, series)
    reports = [CheckReport(name="taylor_series", margins=margins.tolist(),
                           tolerance=0.0,
                           provenance={"x": np.asarray(x).tolist()})]
    # the identity divides by eps0, infinite at N = n and 0 at N = 1
    if 0.0 < params.eps0 < math.inf:
        grid = np.linspace(-3.0, 3.0, 101)
        reports.append(taylor.check_F_identity(params, 0.7, grid))
    return reports


def _run_limits(run, out_dir):
    space, params = run.space, run.params
    _, weight, x, v = _base_point(run)
    return [taylor.check_limit_bound(space, weight, params, x, v),
            coefficients.check_limits(space, weight, params, run.kappa, x, v)]


# every suite but "all", in the order "all" runs them
_RUNNERS = {"curvature": _run_curvature, "jacobian": _run_jacobian,
            "twcd": _run_twcd, "bm": _run_bm,
            "interpolation": _run_interpolation,
            "functional": _run_functional, "taylor": _run_taylor,
            "limits": _run_limits}


def run_suite(run: Run, out_dir) -> list[CheckReport]:
    suite = run.cfg["suite"]
    reports = []
    for name in _RUNNERS if suite == "all" else [suite]:
        try:
            if run.axis is None and name not in _SPACE_SUITES:  # "all" off R^n
                raise PreconditionError(_LINE_OFF_RN)
            got = _RUNNERS[name](run, out_dir)
        except PreconditionError as exc:
            if suite != "all":
                raise
            got = [CheckReport(name=name, margins=[], tolerance=0.0,
                               vacuous=True, provenance={"skipped": str(exc)})]
        reports += got
    return reports


def _report_payload(rep: CheckReport) -> dict:
    return {
        "name": rep.name,
        "margins": [None if math.isnan(m) else m for m in rep.margins],
        "min_margin": None if math.isnan(rep.min_margin) else rep.min_margin,
        "tolerance": rep.tolerance,
        "verdict": rep.verdict,
        "provenance": rep.provenance,
    }


def _run(args) -> int:
    try:
        run = load_config(args.config)
        if args.command == "run" and args.seed is not None:
            _valid(args.seed, _SCHEMA["sampling"]["seed"], "seed")
            run.cfg["sampling"]["seed"] = args.seed
    except (CdCheckError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("config ok")
        return 0
    cfg = run.cfg
    out_dir = Path(args.out_dir or cfg.get("out_dir") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output directory error: {exc}", file=sys.stderr)
        return 2
    path = out_dir / f"{cfg['suite']}_report.json"
    try:
        payloads = [_report_payload(rep) for rep in run_suite(run, out_dir)]
        # canonical_json of {hash, reports, run, timestamp}, encoded once
        body = canonical_json({"reports": payloads,
                               "run": {"config": cfg, "kappa": run.kappa}})
        path.write_text(f'{{"hash":"{report_hash(body[1:-1])}",{body[1:-1]},'
                        f'"timestamp":{time.time()!r}}}')
    except PreconditionError as exc:
        print(f"precondition failed: {exc} [{exc.failed}]", file=sys.stderr)
        return 2
    except CdCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an artifact or the report cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for p in payloads:
            mm = p["min_margin"]
            mm_s = "n/a" if mm is None else f"{mm:.3e}"
            print(f"{p['name']}: {p['verdict']} (min margin {mm_s})")
        print(f"report written to {path}")
    return 1 if any(p["verdict"] == "fail" for p in payloads) else 0


def _build_parser() -> argparse.ArgumentParser:
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
    val_p = sub.add_parser("validate", help="schema-check a config")
    val_p.add_argument("--config", required=True)
    return parser


_PARSER = _build_parser()


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at its 32 MiB maximum and its trim
    threshold at 64 MiB, once per process. Left dynamic, the two thresholds
    hand every batch's work arrays (128 KiB to a few MiB) back to the
    kernel and fault them in again on the next batch. Setting either one
    stops glibc adjusting both, so both are set. A C library without
    ``mallopt`` is left as it is."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    """``cdcheck run`` or ``cdcheck validate``; any exception that is not a
    CdCheckError is an internal error, exit 4, never a verdict."""
    _fix_malloc_thresholds()
    args = _PARSER.parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
