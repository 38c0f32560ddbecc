"""Command-line interface: config validation, exit codes, artifacts."""

import copy
import csv
import ctypes
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdcheck import cli, ot, suites, taylor
from cdcheck.cli import main
from cdcheck.errors import CdCheckError
from cdcheck.jacobi import (integrate_jacobi, integrate_jacobi_batch,
                            refine_ray_margin)
from cdcheck.ot import AxisGeometry
from cdcheck.params import validate_params
from cdcheck.report import CheckReport


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _csv_rows(path):
    return list(csv.reader(path.read_text().splitlines()))


S2_ZERO = {"space": {"kind": "sphere", "dim": 2, "radius": 1.0},
           "weight": "zero", "params": {"n": 2, "N": 6.0, "eps": 0.5},
           "kappa": 0.5}


def base_cfg(suite, **over):
    cfg = {
        "space": {"kind": "euclidean", "dim": 3},
        "weight": "quadratic(0.3)",
        "params": {"n": 3, "N": 9.0, "eps": 0.4},
        "kappa": -0.5,
        "suite": suite,
        "sampling": {"trials": 200, "seed": 0},
    }
    cfg.update(over)
    return cfg


# a config that sets every checked field, for the fuzz test
FUZZ_BASE = {
    "space": {"kind": "euclidean", "dim": 2}, "weight": "zero",
    "params": {"n": 2, "N": 8.0, "eps": 0.4}, "kappa": -1.0, "suite": "all",
    "sampling": {"trials": 10, "seed": 0, "steps": 16, "t_grid": [0.5],
                 "theta_range": [0.2, 1.0],
                 "region": {"radius": 1.0, "center": [0.0, 0.0]}},
    "tolerances": dict.fromkeys(("curvature", "jacobian", "twcd", "bm",
                                 "interpolation", "functional"), 1e-6),
    "geometry": {"kind": "line", "lo": -2.0, "hi": 2.0, "points": 64,
                 "f1": "zero"},
    "densities": [{"kind": "bump", "center": 0.0, "width": 0.5},
                  {"kind": "uniform", "bounds": [-1.0, 1.0]}],
    "regions": {"bounds": [[-1.0, -0.3], [0.3, 1.0]]},
    "interpolation": {"t": 0.5, "p": 0.0, "X": [-1.0, -0.2],
                      "Y": [0.2, 1.0]},
    "functional": {"delta": 0.0,
                   "density": {"kind": "cosine", "amplitude": 0.1}},
    "out_dir": "out",
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6)


def _field_paths(schema, prefix=()):
    """The key paths of every field of ``schema`` (cli._SCHEMA): of every
    kind of a per-kind object, and by index into a list of objects."""
    if isinstance(schema, cli._Kinds):
        for table in schema.values():
            yield from _field_paths({"kind": None, **table}, prefix)
    elif isinstance(schema, list):
        for i, item in enumerate(schema):
            yield prefix + (i,)
            yield from _field_paths(item, prefix + (i,))
    elif isinstance(schema, dict):
        for key, entry in schema.items():
            yield prefix + (key,)
            yield from _field_paths(getattr(entry, "schema", entry),
                                    prefix + (key,))


def _objects(node, prefix=()):
    """The paths of every object in the config ``node``."""
    if isinstance(node, dict):
        yield prefix
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _objects(child, prefix + (key,))


_FIELD_PATHS = sorted(set(_field_paths(cli._SCHEMA)))
_KEYS = {path[-1] for path in _FIELD_PATHS}


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "c.json", base_cfg("jacobian"))
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = base_cfg("jacobian", bogus_field=1)
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 2
        assert "bogus_field" in capsys.readouterr().err

    def test_dimension_error_is_config_error(self, tmp_path, capsys):
        # N in the forbidden band ]1, n[ must be caught at validation time
        cfg = base_cfg("jacobian", params={"n": 3, "N": 2.0, "eps": 1.0})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        # S^3 has Ric = 2 >= kappa = 1.5; with n = 2 the curvature suite
        # would weigh the sectional curvature by n - 1 = 1 and report a fail
        cfg = base_cfg("curvature", kappa=1.5, weight="zero",
                       space={"kind": "sphere", "dim": 3, "radius": 1.0},
                       params={"n": 2, "N": 2.0, "eps": 1.0})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 2
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "space dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("over", [
        {"kappa": "abc"},
        {"params": {"n": 3, "N": 9.0}},
        {"sampling": {"trials": -5, "seed": 0}},
        {"sampling": {"trials": 0, "seed": 0}},
        {"sampling": [200, 0]},
        {"suite": "twcd", "geometry": {"kind": "line", "bogus": 1}},
        {"suite": "twcd", "geometry": {"kind": "line", "ambient_dim": 3}},
        {"suite": "functional", "kappa": 1.0, "weight": "zero",
         "space": {"kind": "sphere", "dim": 2},
         "params": {"n": 2, "N": 2.0, "eps": 1.0},
         "geometry": {"kind": "meridian", "lo": 0.0}},
        {"weight": 5},
        {"space": {"kind": "sphere", "dim": 3, "radius": "x"}},
        {"suite": "twcd", "sampling": {"t_grid": "abc"}},
        {"sampling": {"trials": 200, "seed": 0, "steps": "x"}},
        {"suite": "twcd", "geometry": {"kind": "line", "points": "x"}},
        {"suite": "twcd", "densities": [{"kind": "bump"}]},
        {"suite": "twcd", "tolerances": {"twcd": "x"}},
        {"suite": "bm", "regions": 5},
        {"suite": "interpolation", "interpolation": {"t": "x"}},
        {**S2_ZERO, "suite": "interpolation", "geometry": {"kind": "meridian"}},
        {"suite": "bm", "regions": {"bounds": [[-3.0, -1.0], [0.3, 1.0]]}},
        {"suite": "twcd", "densities": [{"kind": "uniform",
                                         "bounds": [-3.0, 0.0]},
                                        {"kind": "bump"}]},
        {"suite": "twcd", "densities": [{"kind": "uniform"}, {"kind": "bump"}]},
        {"suite": "twcd", "geometry": {"kind": "line", "lo": 2.0, "hi": -2.0}},
        {"suite": "interpolation", "interpolation": {"p": "x"}},
        {"suite": "interpolation", "interpolation": {"p": True}},
        {"suite": "interpolation", "interpolation": {"p": math.nan}},
        {"suite": "interpolation", "interpolation": {"t": 0.0}},
        {"suite": "interpolation", "interpolation": {"t": 1}},
        {"suite": "twcd", "sampling": {"t_grid": [0.0, 0.5, 1.0]}},
        {"suite": "bm", "sampling": {"t_grid": [0.5, 1]}},
        {"suite": "interpolation", "interpolation": {"p": -math.inf}},
        {"suite": "interpolation", "interpolation": {"p": -0.5}},
        {"suite": "curvature", "weight": "linear(0.5)",
         "params": {"n": 3, "N": 3, "eps": 0.5}},
        {"suite": "all", "weight": "zero",
         "params": {"n": 3, "N": 3, "eps": 0.5},
         "geometry": {"f1": "quadratic(0.3)"}},
        {"sampling": {"trials": 200, "seed": 0, "theta_range": [1.0, 0.2]}},
        {"sampling": {"trials": 200, "seed": 0, "theta_range": [0.0, 0.0]}},
        {"out_dir": 5},
        {"suite": "twcd", "geometry": {"kind": ["line"]}},
        {"suite": "interpolation", "interpolation": {"X": [-0.2, -1.0]}},
        {"suite": "bm", "regions": {"bounds": [[-0.3, -1.0], [0.3, 1.0]]}},
        {"suite": "twcd", "densities": [{"kind": "uniform",
                                         "bounds": [-0.5, -1.0]},
                                        {"kind": "bump"}]},
        {"suite": "twcd", "geometry": {"kind": "line", "points": 64},
         "densities": [{"kind": "uniform", "bounds": [0.01, 0.02]},
                       {"kind": "bump"}]},
        {"sampling": {"trails": 200, "seed": 0}},
        {"suite": "twcd", "densities": [{"kind": "bump", "centre": 0.3},
                                        {"kind": "bump"}]},
        {"suite": "interpolation", "interpolation": {"pp": 1.0}},
        {"space": {"kind": "euclidean", "dim": 3, "radius": 2.0}},
        {"suite": "taylor", "tolerances": {"taylor": 1e-3}},
        {"kappa": 10**400},
        {"suite": "twcd", "geometry": {"f1": "quadratic(1e300)"}},
        {"suite": "twcd", "geometry": {"lo": -1e308, "hi": 1e308}},
        {"suite": "twcd", "geometry": {"kind": "line", "lo": 1e15,
                                       "hi": 1e15 + 1, "points": 1048576,
                                       "f1": "zero"}},
        {"suite": "twcd", "geometry": {"kind": "line", "lo": 1e6,
                                       "hi": 1e6 + 1e-6, "points": 1048576,
                                       "f1": "zero"}},
        {"sampling": {"trials": 200, "seed": 0,
                      "region": {"center": [0.0, 0.0], "radius": 1.0}}},
        {"suite": "taylor", "space": {"kind": "sphere", "dim": 2},
         "weight": "cosine(0.3)", "params": {"n": 2, "N": 6.0, "eps": 0.4},
         "sampling": {"region": {"center": [0.0, 0.0]}}},
        {**S2_ZERO, "sampling": {"trials": 50, "seed": 3,
                                 "region": {"radius": 0.1}}},
        {"space": {"kind": "hyperbolic", "dim": 3}, "weight": "zero",
         "sampling": {"region": {"center": [40.0, 40.0, 40.0]}}},
        {"space": {"kind": "sphere", "dim": 3, "radius": 0.0}},
        {"space": {"kind": "sphere", "dim": 3, "radius": -2.0}},
        {"space": {"kind": "hyperbolic", "dim": 3, "scale": 0}},
        {"space": {"kind": "hyperbolic", "dim": 3, "scale": -0.5}},
        {"space": {"kind": "sphere", "dim": 3, "radius": 1e200}},
        {"space": {"kind": "hyperbolic", "dim": 3, "scale": 1e-200}},
        {"space": {"kind": "sphere", "dim": 3, "radius": 1e10},
         "kappa": 1e300},
        {"suite": "twcd", "weight": "linear(0.5)",
         "geometry": {"kind": "meridian"}},
        {"suite": "twcd", "space": {"kind": "hyperbolic", "dim": 3},
         "weight": "linear(0.5)", "geometry": {"kind": "meridian"}},
        {"suite": "twcd", "space": {"kind": "hyperbolic", "dim": 3},
         "weight": "quadratic(0.3)", "geometry": {"kind": "meridian"}},
        {"suite": "twcd", "densities": [{"kind": "cosine", "amplitude": -1.5},
                                        {"kind": "bump"}]},
        {"suite": "functional", "functional": {
            "density": {"kind": "cosine", "amplitude": 3}}},
        {"sampling": {"trials": 200, "seed": 0, "theta_range": [1e-15, 1.0]}},
        {"sampling": {"trials": 200, "seed": 0, "theta_range": [1e-14, 1.0]}},
        {"sampling": {"trials": 200, "seed": 0,
                      "theta_range": [0.2, 1e155]}},
        {"sampling": {"trials": 200, "seed": 0, "steps": 2**16 + 1}},
    ], ids=["kappa-string", "missing-eps", "negative-trials", "zero-trials",
            "sampling-list", "geometry-bogus-key", "geometry-ambient-dim",
            "meridian-window", "weight-number", "radius-string",
            "t-grid-string", "steps-string", "points-string",
            "one-density", "tolerance-string", "regions-number",
            "interpolation-t-string", "interpolation-outside-meridian", "regions-outside-line",
            "uniform-outside-line", "uniform-without-bounds",
            "line-window-reversed",
            "interpolation-p-string", "interpolation-p-bool",
            "interpolation-p-nan", "interpolation-t-zero",
            "interpolation-t-one", "twcd-t-grid-zero", "bm-t-grid-one",
            "interpolation-p-minus-inf",
            "interpolation-p-below-range", "N-equals-n-weight",
            "N-equals-n-f1", "theta-range-reversed", "theta-range-zero",
            "out-dir-number", "geometry-kind-list",
            "interpolation-X-reversed", "regions-reversed",
            "uniform-reversed", "uniform-without-grid-mass",
            "sampling-unknown-key", "density-unknown-key",
            "interpolation-unknown-key",
            "euclidean-radius", "tolerance-unread", "kappa-past-float",
            "f1-without-reference-mass", "line-window-too-wide",
            "line-grid-finer-than-floats-at-1e15",
            "line-grid-finer-than-floats-at-1e6",
            "region-center-short", "region-center-short-sphere",
            "region-on-sphere", "region-center-on-hyperbolic", "radius-zero",
            "radius-negative", "scale-zero", "scale-negative", "radius-square-past-float",
            "scale-square-underflows", "kappa-radius-square-past-float",
            "meridian-linear-on-r3", "meridian-linear-on-h3",
            "meridian-quadratic-on-h3", "densities-cosine-amplitude",
            "functional-cosine-amplitude", "theta-range-below-floor",
            "theta-range-at-floor", "theta-range-square-past-float",
            "steps-past-bound"])
    def test_bad_config_exits_2(self, tmp_path, capsys, over):
        cfg = base_cfg("jacobian")
        cfg.update(over)
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 2
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi", [(1e15, 1e15 + 1), (1e6, 1e6 + 1e-6)])
    def test_line_grid_finer_than_floats_names_the_grid(self, tmp_path,
                                                        capsys, lo, hi):
        # the nodes collapse (dx = 0): the grid is refused before the
        # reference mass reads 0
        cfg = base_cfg("twcd", geometry={"kind": "line", "lo": lo, "hi": hi,
                                         "points": 1048576, "f1": "zero"})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert (f"axis grid of 1048576 points on [{lo!r}, {hi!r}] is finer"
                " than its floats") in err
        assert "reference mass" not in err

    @pytest.mark.parametrize("sampling, field", [
        ({"theta_range": [2e-14, 1.0], "steps": 2**16}, None),
        ({"theta_range": [1e-14, 1.0]}, "sampling.theta_range"),
        ({"theta_range": [1e155, 1e155]}, "sampling.theta_range"),
        ({"steps": 2**20}, "sampling.steps"),
    ], ids=["inside", "floor", "square-past-float", "steps-2-20"])
    def test_sampling_bounds(self, tmp_path, capsys, sampling, field):
        # validate alone: a run of 2^16 steps is not taken here
        cfg = base_cfg("jacobian", sampling={"trials": 1, **sampling})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == (2 if field else 0)
        if field:
            assert f"invalid {field}:" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "c.json", base_cfg("curvature"))
        assert main(["run", "--config", path, "--seed", "-1", "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(4))
    def test_benchmark_configs_validate(self, tmp_path, monkeypatch, seed):
        # the benchmark's configs are a fixed interface of the program
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        for name in workloads.NAMES:
            for k, call in enumerate(workloads.build(name, seed)):
                path = write_cfg(tmp_path, f"{name}-{k}.json", call.config)
                assert main(["validate", "--config", path]) == 0, call.name

    def test_infinite_interpolation_p_accepted(self, tmp_path):
        cfg = base_cfg("interpolation", interpolation={"p": math.inf})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 0

    def test_infinite_N_token(self, tmp_path):
        cfg = base_cfg("curvature", params={"n": 3, "N": "inf", "eps": 0.4})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 0

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_fuzz_base_is_valid(self, suite):
        # the fuzz tests change one field of this config: it must pass
        # unchanged, or every fuzz case would be a refusal
        cli.resolve_config({**copy.deepcopy(FUZZ_BASE), "suite": suite})

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(path=st.sampled_from(_FIELD_PATHS),
           suite=st.sampled_from(cli.SUITES), value=_JSON)
    def test_validate_never_crashes(self, path, suite, value):
        # any JSON value in any checked field is accepted or refused with
        # a CdCheckError (exit 2), never an uncaught exception
        cfg = copy.deepcopy(FUZZ_BASE)
        cfg["suite"] = suite
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            cli.resolve_config(cfg)
        except CdCheckError:
            pass

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(path=st.sampled_from(sorted(_objects(FUZZ_BASE), key=str)),
           suite=st.sampled_from(cli.SUITES),
           key=st.text(max_size=6).filter(lambda k: k not in _KEYS))
    def test_unknown_key_refused(self, path, suite, key):
        # a key that no object of the schema has is refused in any object
        cfg = copy.deepcopy(FUZZ_BASE)
        cfg["suite"] = suite
        node = cfg
        for step in path:
            node = node[step]
        node[key] = 0
        with pytest.raises(CdCheckError, match="unknown config fields"):
            cli.resolve_config(cfg)


class TestRunExitCodes:
    def test_sphere_zero_linear_weight_passes(self, tmp_path):
        # linear(0) is the zero weight: Ric = 1 >= kappa / c = 0.36
        cfg = sphere_cfg(suite="curvature", weight="linear(0)",
                         params={"n": 2, "N": 4.0, "eps": 0.5})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        rep = json.loads((out / "curvature_report.json").read_text())
        assert rep["reports"][0]["min_margin"] is not None

    def test_curvature_fails_off_a_random_direction(self, tmp_path):
        # at a sampled point of this H^3 region the bound fails only near
        # one direction: one random direction per point read +0.301 (exit 0)
        cfg = base_cfg("curvature", space={"kind": "hyperbolic", "dim": 3},
                       weight="linear(0.5)", kappa=-2.4,
                       sampling={"trials": 200, "seed": 0,
                                 "region": {"radius": 1.0}})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 1
        rep = json.loads((out / "curvature_report.json").read_text())
        assert rep["reports"][0]["min_margin"] == pytest.approx(-0.2975,
                                                                abs=1e-4)

    def test_sphere_jacobian_passes(self, tmp_path):
        cfg = {
            "space": {"kind": "sphere", "dim": 2, "radius": 1.0},
            "weight": "zero",
            "params": {"n": 2, "N": 2.0, "eps": 1.0},
            "kappa": 1.0,
            "suite": "jacobian",
            "sampling": {"trials": 300, "seed": 1},
        }
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        bundle = json.loads((out / "jacobian_report.json").read_text())
        assert bundle["reports"][0]["verdict"] in ("pass", "vacuous")

    def test_flat_positive_kappa_fails_with_counterexample(self, tmp_path):
        # flat space cannot satisfy a positive lower bound, nor the unit
        # sphere one above its curvature; the violation must be found and
        # recorded (the sphere case is a search of 500 short-grid rays)
        flat = base_cfg("jacobian", weight="zero",
                        params={"n": 3, "N": 3.0, "eps": 1.0}, kappa=0.2,
                        sampling={"trials": 2000, "seed": 0})
        sphere = sphere_cfg(weight="zero", kappa=1.1,
                            params={"n": 2, "N": 2.0, "eps": 1.0},
                            sampling={"trials": 500, "seed": 1, "steps": 64,
                                      "theta_range": [0.2, 1.4]},
                            tolerances={"jacobian": 1e-6})
        for cfg, tol in ((flat, 1e-8), (sphere, 1e-6)):
            path = write_cfg(tmp_path, "c.json", cfg)
            out = tmp_path / cfg["space"]["kind"]
            assert main(["run", "--config", path, "--out-dir", str(out),
                         "--quiet"]) == 1
            ce = json.loads((out / "counterexample.json").read_text())
            assert ce["margin"] < -tol
            # the margin is the one-ray margin on the grid it names
            _, space, weight, params = cli.resolve_config(cfg)[:4]
            assert refine_ray_margin(
                space, weight, params, cfg["kappa"],
                *(np.array(ce[k]) for k in ("x", "w", "S")),
                steps=ce["steps"]) == ce["margin"]
            rows = _csv_rows(out / "worst_ray.csv")
            assert rows[0] == ["t", "det", "J", "h", "l", "log_D", "log_Dbar"]
            # the table is the kernel's row of the counterexample ray on the
            # sampling grid, written to round trip, with log D = c l
            ray = [np.array(ce[k]) for k in ("x", "w", "S")]
            steps = cfg["sampling"].get("steps", 128)
            traj = integrate_jacobi_batch(
                space, weight, *(a[None] for a in ray), steps)
            J = integrate_jacobi(space, weight, *ray, steps)["J"]
            want = [traj["ts"], traj["det"][0], J, traj["h"][0], traj["l"][0],
                    params.c * traj["l"][0], traj["int_ann"][0]]
            got = np.array([[float(v) for v in row] for row in rows[1:]])
            np.testing.assert_array_equal(got, np.column_stack(want))

    def test_taylor_remainder_sign_change_passes(self, tmp_path):
        # app2_fwd's O(delta^3) remainder changes sign between delta = 1/64
        # and 1/128; a log-log slope fit read it as slope 2.76 and failed
        cfg = base_cfg("taylor", kappa=-0.7,
                       sampling={"seed": 1079195180})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        names = [r["name"] for r in json.loads(
            (out / "taylor_report.json").read_text())["reports"]]
        assert names == ["taylor_series", "F_identity"]

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, math.inf])
    def test_interpolation_p_mean_passes(self, tmp_path, p):
        # the benchmark's interpolation-p0 config; at p = +inf the
        # conclusion exponent once came out NaN and reported a failure
        cfg = {"space": {"kind": "euclidean", "dim": 2}, "weight": "zero",
               "params": {"n": 2, "N": 10.0, "eps": 0.5}, "kappa": -1.0,
               "suite": "interpolation",
               "geometry": {"kind": "line", "lo": -2.0, "hi": 2.0,
                            "points": 8192, "f1": "quadratic(0.5)"},
               "interpolation": {"p": p, "t": 0.5},
               "sampling": {"seed": 1607340150}}
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        margin = json.loads((out / "interpolation_report.json").read_text()
                            )["reports"][0]["min_margin"]
        assert math.isfinite(margin)
        if p == 0.0:
            # the margin from a grid envelope at 16,384 z and x values
            assert margin == pytest.approx(0.0569168298, abs=1e-6)

    def test_precondition_exits_2(self, tmp_path, capsys):
        # functional suite needs kappa > 0; the failed hypothesis is named
        cfg = base_cfg("functional", kappa=-1.0,
                       geometry={"kind": "meridian", "points": 101},
                       space={"kind": "sphere", "dim": 2, "radius": 1.0},
                       weight="zero",
                       params={"n": 2, "N": 2.0, "eps": 1.0})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "precondition failed" in capsys.readouterr().err

    @pytest.mark.parametrize("under_file", [False, True],
                             ids=["file", "path-under-file"])
    def test_unusable_out_dir_exits_2(self, tmp_path, capsys, under_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "o" if under_file else blocker
        path = write_cfg(tmp_path, "c.json", base_cfg("curvature"))
        assert main(["run", "--config", path, "--out-dir", str(out)]) == 2
        assert "output directory error" in capsys.readouterr().err

    @pytest.mark.parametrize("squatted", ["taylor_report.json", "taylor.csv"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, squatted):
        # a directory squatting on an artifact's or the report's name made
        # the write raise IsADirectoryError, which read as a crash (exit 4)
        out = tmp_path / "out"
        (out / squatted).mkdir(parents=True)
        path = write_cfg(tmp_path, "c.json", base_cfg("taylor"))
        assert main(["run", "--config", path, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_limits_past_conjugate_radius_exits_2(self, tmp_path, capsys):
        # d(x, y) = 0.4 > pi / sqrt(100): beta is infinite, which once gave
        # NaN margins and a false counterexample (exit 1)
        cfg = base_cfg("limits", space={"kind": "euclidean", "dim": 2},
                       weight="zero", params={"n": 2, "N": 4.0, "eps": 0.5},
                       kappa=100.0)
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[d_f < C_kappa]" in capsys.readouterr().err

    # the corner p_i = r, y = e^{-r} of an H^3 region is the hyperboloid
    # point of time coordinate (2 r^2 + e^{-2r} + 1) e^r / 2, which reaches
    # X_n = 2^26 R, the span where coordinates keep digits, at r = 12.90379
    @pytest.mark.parametrize("radius", [500, 800, 12.9038])
    @pytest.mark.parametrize("suite", ["curvature", "jacobian"])
    def test_hyperbolic_region_past_float_range_exits_2(self, tmp_path,
                                                        capsys, suite,
                                                        radius):
        # half-space heights e^{+-r} left the float range at radius 500:
        # curvature read a false counterexample (exit 1), jacobian a pass
        cfg = base_cfg(suite, space={"kind": "hyperbolic", "dim": 3},
                       weight="zero", kappa=-3.0,
                       sampling={"trials": 20, "seed": 0,
                                 "region": {"radius": radius}})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 2
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "sampling.region.radius" in capsys.readouterr().err

    def test_hyperbolic_region_inside_float_range_validates(self, tmp_path):
        cfg = base_cfg("curvature", space={"kind": "hyperbolic", "dim": 3},
                       weight="zero", kappa=-3.0,
                       sampling={"region": {"radius": -12.9037}})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 0
        # and runs, warning-free (a warning would exit 4); a negative
        # radius crashed with exit 4 when it was drawn as uniform(-r, r)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("suite", ["taylor", "limits"])
    def test_hyperbolic_far_base_point_passes(self, tmp_path, suite):
        # the seed-0 base point of a radius-3 region sits at X_n = 28 R,
        # where tangent products lose digits as (X_n / R)^2: run there,
        # taylor's remainders level off at 1e-14, above the noise floor,
        # and read taylor_series -102.2; run at the origin, they pass
        cfg = base_cfg(suite, space={"kind": "hyperbolic", "dim": 3},
                       kappa=-3.0, sampling={"seed": 0, "region": {"radius": 3.0}})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 0

    def test_hyperbolic_geodesic_past_float_range_exits_2(self, tmp_path,
                                                          capsys):
        # rays 15-30 long run past X_n = 2^26, where a point keeps no
        # digit of the hyperboloid
        cfg = base_cfg("jacobian", space={"kind": "hyperbolic", "dim": 3},
                       kappa=-3.0, sampling={"trials": 50, "seed": 0,
                                             "theta_range": [15.0, 30.0]})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[geodesic within SPAN]" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, scale", [
        ("jacobian", 0.001), ("limits", 0.001), ("limits", 0.005),
        ("limits", 0.002), ("taylor", 0.003)])
    def test_small_scale_is_the_unit_run(self, tmp_path, suite, scale):
        # while the space kept its scale R, a ray, the limits ball or the
        # largest taylor offset of these runs, in absolute lengths, ran
        # past X_n = 2^26 R: they exited 2, and before that refusal
        # overflowed, ran out of memory or read NaN margins. Run on the
        # unit model at kappa R^2 = -3, they pass
        cfg = base_cfg(suite, space={"kind": "hyperbolic", "dim": 3,
                                     "scale": scale},
                       kappa=-3.0 / scale**2, sampling={"trials": 50, "seed": 0})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == 0

    @pytest.mark.parametrize("suite, space, kappa, sampling", [
        ("taylor", {"kind": "sphere", "dim": 2, "radius": 100.0}, 5e-5,
         {"seed": 1}),
        ("taylor", {"kind": "hyperbolic", "dim": 3, "scale": 100.0}, -9e-5,
         {"seed": 1}),
        ("jacobian", {"kind": "hyperbolic", "dim": 3, "scale": 0.001}, -3e6,
         {"trials": 50, "seed": 0}),
        ("jacobian", {"kind": "sphere", "dim": 2, "radius": 0.01}, 5000.0,
         {"trials": 200, "seed": 1})],
        ids=["taylor-s2-radius100", "taylor-h3-scale100",
             "jacobian-h3-scale0.001", "jacobian-s2-radius0.01"])
    def test_scaled_false_counterexamples_pass(self, tmp_path, suite, space,
                                               kappa, sampling):
        # zero weight, kappa R^2 inside the bound: each run read absolute
        # lengths on a space of radius or scale R. taylor's offsets were
        # 2^-4 .. 2^-14 R / 100 and read taylor_series -163.59 (S^2) and
        # -202.24 (H^3); the H^3 rays were 200-1,200 R long and overflowed
        # the propagator (RuntimeWarnings); every S^2 ray passed the
        # conjugate radius (exit 2)
        cfg = base_cfg(suite, space=space, weight="zero", kappa=kappa,
                       params={"n": space["dim"], "N": 9.0, "eps": 0.4},
                       sampling=sampling)
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == 0

    def test_propagator_past_float_range_exits_2(self, tmp_path, capsys):
        # cosh of rays 400-500 long at kappa = -3 overflows: the rays were
        # dropped as inadmissible, with RuntimeWarnings, and the run exited
        # 2 naming the wrong cause
        cfg = base_cfg("jacobian", space={"kind": "hyperbolic", "dim": 3},
                       weight="zero", kappa=-3.0,
                       sampling={"trials": 50, "seed": 0,
                                 "theta_range": [400.0, 500.0]})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[det E finite]" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["limits", "taylor"])
    def test_s_kappa_past_float_range_exits_2(self, tmp_path, capsys, suite):
        # f = -25 |x|^2 puts d_f near 7e71 at the seed-0 base point, where
        # sinh(d_f) overflows: limits crashed (exit 4) and taylor read NaN
        # margins as a counterexample (exit 1)
        cfg = base_cfg(suite, weight="quadratic(-50)", kappa=-1.0,
                       sampling={"seed": 0, "region": {"radius": 12.0}})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[s_kappa(d_f) finite]" in capsys.readouterr().err

    @pytest.mark.parametrize("radius, seed", [(6.0, 4), (8.0, 2)])
    def test_underflowing_distances_exit_2(self, tmp_path, capsys, radius,
                                           seed):
        # f reaches 3,500-14,000 at these H^3 base points, so e^{-a f} and
        # every distance underflow to 0 and d_t / (t d_f) is 0/0: the limit
        # bound's exponent overflowed first (exit 4, OverflowError)
        cfg = base_cfg("limits", space={"kind": "hyperbolic", "dim": 3},
                       kappa=-3.0,
                       sampling={"seed": seed, "region": {"radius": radius}})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[d_t normal]" in capsys.readouterr().err

    def test_theta_delta_past_one_exits_2(self, tmp_path, capsys):
        # a steep weight on H^3: |theta| 2^-4 = 1.13, where app6 took a
        # power of a negative base and read a NaN margin (exit 1,
        # RuntimeWarning)
        cfg = base_cfg("taylor", space={"kind": "hyperbolic", "dim": 3},
                       weight="linear(40)", kappa=-3.0, sampling={"seed": 1})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[|theta| delta < 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_weight_factor_past_float_range_exits_2(self, tmp_path, capsys,
                                                    seed):
        # e^{-a f} at these base points overflows before any distance is
        # taken: taylor crashed with an OverflowError (exit 4)
        cfg = base_cfg("taylor", weight="quadratic(-50)", kappa=-1.0,
                       sampling={"seed": seed, "region": {"radius": 12.0}})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[e^{-a f} finite]" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [1e4, 1e6, 1e308])
    def test_interpolation_large_p_passes(self, tmp_path, p):
        # the p-mean's powers overflowed here: a false counterexample
        # (margin -4.39e-2 at p = 1e6)
        cfg = {"space": {"kind": "euclidean", "dim": 2}, "weight": "zero",
               "params": {"n": 2, "N": 6.0, "eps": 0.5}, "kappa": 0.0,
               "suite": "interpolation", "interpolation": {"p": p}}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == 0

    def test_internal_error_exits_4(self, tmp_path, capsys, monkeypatch):
        # a crash is no counterexample: it exits 4 with one stderr line
        def crash(cfg, out_dir):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_suite", crash)
        path = write_cfg(tmp_path, "c.json", base_cfg("curvature"))
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == cli.INTERNAL_ERROR == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_crash_while_resolving_exits_4(self, tmp_path, capsys,
                                           monkeypatch):
        # validate and run share one config path: a crash there exits 4
        def crash(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "resolve_config", crash)
        path = write_cfg(tmp_path, "c.json", base_cfg("curvature"))
        for argv in (["validate"], ["run", "--out-dir", str(tmp_path / "o")]):
            assert main(argv + ["--config", path]) == 4
            assert capsys.readouterr().err == (
                "internal error: RuntimeError: boom\n")

    @pytest.mark.parametrize("density, message", [
        ({"kind": "bump", "center": 0.5, "width": 0.0}, "not positive"),
        ({"center": 0.5, "width": -0.3}, "not positive"),
        ({"kind": "bump", "center": 100.0, "width": 0.1}, "no mass"),
    ], ids=["width-zero", "width-negative", "outside-window"])
    def test_bump_without_mass_exits_2(self, tmp_path, capsys, density,
                                       message):
        # such a bump normalized to NaN, and the run blamed [d_f < C_kappa]
        cfg = base_cfg("twcd", weight="zero", kappa=0.0,
                       space={"kind": "euclidean", "dim": 2},
                       params={"n": 2, "N": 6.0, "eps": 0.5},
                       densities=[{"kind": "bump", "center": -0.5,
                                   "width": 0.4}, density])
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "bump density" in err and message in err
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "C_kappa" not in capsys.readouterr().err

    def test_empty_density_spec_is_the_default_bump(self, tmp_path):
        # an empty spec is falsy, yet a valid density: it must be built
        cfg = {**S2_ZERO, "suite": "functional",
               "params": {"n": 2, "N": 2.0, "eps": 1.0}, "kappa": 1.0,
               "geometry": {"kind": "meridian", "points": 513},
               "functional": {"density": {}}}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == 0

    def test_no_kept_ray_exits_2(self, tmp_path, capsys):
        # the one ray of seed 1 is inadmissible; an empty report is no
        # counterexample
        cfg = base_cfg("jacobian", sampling={"trials": 1, "seed": 1})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[samples]" in capsys.readouterr().err


# weights whose e^{-a f} leaves the float range on every model space
_STEEP_SPACES = {"R3": {"kind": "euclidean", "dim": 3},
                 "H3": {"kind": "hyperbolic", "dim": 3},
                 "S2": {"kind": "sphere", "dim": 2}}
_STEEP_WEIGHTS = ("constant(2000)", "constant(-2000)", "linear(800)",
                  "linear(-800)", "quadratic(400)", "quadratic(-400)")


class TestSteepWeights:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("weight", _STEEP_WEIGHTS)
    @pytest.mark.parametrize("suite", ["jacobian", "limits", "curvature",
                                       "taylor"])
    @pytest.mark.parametrize("space", sorted(_STEEP_SPACES))
    def test_verdict_or_refusal(self, tmp_path, space, suite, weight, kappa):
        # e^{-a f}, a distance or the curvature floor past the float range
        # is refused ([e^{-a f} finite], [d_t normal]); every verdict rests
        # on finite margins. These configs crashed (exit 4 on a warning or
        # an OverflowError) or read margins of NaN or +-inf
        n = _STEEP_SPACES[space]["dim"]
        cfg = {"space": _STEEP_SPACES[space], "weight": weight,
               "params": {"n": n, "N": 9, "eps": 0.4}, "kappa": kappa,
               "suite": suite, "sampling": {"trials": 20, "seed": 1}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", write_cfg(tmp_path, "c.json", cfg),
                         "--out-dir", str(tmp_path), "--quiet"])
        assert code in (0, 1, 2)
        if code == 2:
            return
        reports = json.loads((tmp_path / f"{suite}_report.json").read_text())
        mins = [(r["min_margin"], r["tolerance"]) for r in reports["reports"]]
        assert all(m is not None and math.isfinite(m) for m, _ in mins)
        assert (code == 1) == any(m < -tol for m, tol in mins)


class TestRunFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(space=st.sampled_from(sorted(_STEEP_SPACES)),
           trials=st.integers(1, 20), steps=st.integers(2, 64),
           exponents=st.lists(st.floats(-16.0, 300.0), min_size=2,
                              max_size=2))
    def test_jacobian_run_exits_with_a_verdict_or_a_refusal(
            self, space, trials, steps, exponents):
        # theta_range ends log-uniform in [1e-16, 1e300]: a speed at the
        # floor or one whose square leaves the float range is refused (exit
        # 2), never a crash; exit 1 only with a finite margin below -tol
        n = _STEEP_SPACES[space]["dim"]
        cfg = {"space": _STEEP_SPACES[space], "weight": "zero",
               "params": {"n": n, "N": 2 * n, "eps": 0.5}, "kappa": 0.1,
               "suite": "jacobian",
               "sampling": {"trials": trials, "seed": 1, "steps": steps,
                            "theta_range": sorted(10.0**e for e in exponents)}}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            code = main(["run", "--config", write_cfg(out, "c.json", cfg),
                         "--out-dir", tmp, "--quiet"])
            assert code in (0, 1, 2)
            if code == 1:
                rep = json.loads((out / "jacobian_report.json").read_text())
                m = rep["reports"][0]["min_margin"]
                assert m is not None and math.isfinite(m)
                assert m < -rep["reports"][0]["tolerance"]

    def test_h3_tangent_past_float_range_exits_2(self, tmp_path, capsys):
        # theta^2 = 1.44e308 is finite, but the hyperboloid coordinates of
        # the tangents reach theta X_n: g(w, w) leaves the float range
        cfg = {"space": {"kind": "hyperbolic", "dim": 3}, "weight": "zero",
               "params": {"n": 3, "N": 6, "eps": 0.5}, "kappa": 0.1,
               "suite": "jacobian",
               "sampling": {"trials": 20, "seed": 1,
                            "theta_range": [1.2e154, 1.2e154]}}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 0
        assert main(["run", "--config", path, "--out-dir", str(tmp_path),
                     "--quiet"]) == 2
        assert "g(w, w) leaves the float range" in capsys.readouterr().err


class TestAxisCurvatureHypothesis:
    @pytest.mark.parametrize("suite", ["twcd", "bm", "interpolation"])
    def test_steep_line_refused_before_any_table(self, tmp_path, capsys,
                                                 suite):
        # e^{-a f} overflows on the line: each suite judges its curvature
        # hypothesis before it builds a table, so one line on stderr and
        # no warning; interpolation's envelope reads G and beta
        cfg = {"space": {"kind": "euclidean", "dim": 2}, "weight": "zero",
               "params": {"n": 2, "N": 3, "eps": 1.4}, "kappa": -1,
               "suite": suite,
               "geometry": {"kind": "line", "f1": "quadratic(1000)"},
               "sampling": {"seed": 1}}
        path = write_cfg(tmp_path, "c.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", path, "--out-dir",
                         str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith("[e^{-a f} finite]")

    @pytest.mark.parametrize("X, Y, t", [
        # 1e-13 wide: the envelope's 4,096 z nodes collapse
        ([1.5, 1.5 + 1e-13], [1.6, 1.6 + 1e-13], 0.5),
        # one ulp wide: the z window rounds to a point
        ([-0.40575515852400246, -0.4057551585240024],
         [0.861074988051592, 0.8610749880515921], 0.6045030602518363)])
    def test_unresolved_envelope_grid_exits_2(self, tmp_path, capsys, X, Y,
                                              t):
        cfg = {"space": {"kind": "euclidean", "dim": 2}, "weight": "zero",
               "params": {"n": 2, "N": 10.0, "eps": 0.5}, "kappa": -1.0,
               "suite": "interpolation",
               "geometry": {"kind": "line", "lo": -2.0, "hi": 2.0,
                            "points": 8192, "f1": "quadratic(0.5)"},
               "interpolation": {"p": 0.0, "t": t, "X": X, "Y": Y},
               "sampling": {"seed": 1}}
        path = write_cfg(tmp_path, "c.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", path, "--out-dir",
                         str(tmp_path / "o"), "--quiet"])
        assert code == 2
        lo, hi = ((1 - t) * X[i] + t * Y[i] for i in (0, 1))
        assert capsys.readouterr().err.splitlines() == [
            f"error: axis grid of 4096 points on [{lo!r}, {hi!r}] is finer"
            f" than its floats"]

    @pytest.mark.parametrize("kappa", [0.3, 1.0])
    @pytest.mark.parametrize("suite", ["twcd", "bm", "interpolation"])
    def test_N_equals_n_axis_weight_exits_2(self, tmp_path, suite, kappa):
        # at N = n the weighted Ricci of a non-constant weight is undefined;
        # the grid point x = 0 once gave a NaN margin that passed as "holds"
        cfg = base_cfg(suite, weight="zero", kappa=kappa,
                       params={"n": 3, "N": 3, "eps": 0.5},
                       geometry={"f1": "quadratic(0.3)", "points": 4097})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == 2


class TestArtifacts:
    def test_twcd_csv_contract(self, tmp_path):
        cfg = base_cfg(
            "twcd", kappa=-0.5,
            geometry={"kind": "line", "lo": -2.0, "hi": 2.0, "points": 801},
            densities=[{"kind": "bump", "center": -0.4, "width": 0.5},
                       {"kind": "bump", "center": 0.4, "width": 0.6}])
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        rows = _csv_rows(out / "twcd.csv")
        assert rows[0] == ["t", "lhs", "rhs", "margin"]
        for row in rows[1:]:
            t, lhs, rhs, margin = map(float, row)
            assert margin == pytest.approx(rhs - lhs, abs=1e-12)

    def test_taylor_csv_contract(self, tmp_path):
        cfg = base_cfg("taylor")
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        # one table: a row per term and delta, terms in report order
        rows = _csv_rows(out / "taylor.csv")
        assert rows[0] == ["term", "delta", "exact", "series", "remainder"]
        assert [row[0] for row in rows[1::11]] == list(taylor.TERMS)
        assert len(rows) == 1 + 11 * len(taylor.TERMS)
        assert not list(out.glob("taylor_*.csv"))
        for row in rows[1:]:
            d, e, s, r = map(float, row[1:])
            assert r == pytest.approx(e - s, abs=1e-15)

    def test_table_is_the_csv_writer_table(self, tmp_path):
        header = ["term", "a", "b"]
        rows = [["x", 0.1, np.float64(1.0 / 3.0)], ["y", -0.0, math.nan],
                ["z", np.float64(-1e-300), math.inf],
                ["w", 2.0 ** 60, np.float64(-math.inf)]]
        cli._write_table(tmp_path / "t.csv", header, rows)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([v if isinstance(v, str) else f"{v:.17g}"
                         for v in row] for row in rows)
        assert ((tmp_path / "t.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_rows_are_the_per_cell_bytes(self, tmp_path):
        # the bytes are the cells' f"{v:.17g}", str cells (numpy's str
        # too) as they are: ints, signed zeros, inf, nan and the smallest
        # subnormal among them
        header = ["a", "b", "c", "d"]
        rows = [[0.1, 1.0 / 3.0, -2.5e-300, 1e300],
                [3, -7, 2 ** 60, True],
                [math.inf, -math.inf, math.nan, -0.0],
                [5e-324, -5e-324, 0.0, np.float64(1.0 / 7.0)],
                ["s", 0.1, -0.0, math.nan], [np.str_("u"), 2, 1.5, -1e-5],
                np.array([1.0 / 3.0, -1e-310, 2.0 ** -1074, 1.5]).tolist()]
        cli._write_table(tmp_path / "t.csv", header, rows)
        want = "\r\n".join([",".join(header)] + [",".join(
            [v if isinstance(v, str) else f"{v:.17g}" for v in row])
            for row in rows] + [""])
        assert (tmp_path / "t.csv").read_bytes() == want.encode()
        assert b"\r\n4.9406564584124654e-324,-4.9406564584124654e-324,0," in (
            want.encode())

    @pytest.mark.parametrize("suite", ["curvature", "all"])
    def test_report_file_is_the_canonical_bundle(self, tmp_path, monkeypatch,
                                                 suite):
        # the file is canonical_json of {hash, reports, run, timestamp},
        # and the hash is the SHA-256 of canonical_json of {reports, run}
        if suite == "curvature":  # NaN, +-inf and a -0.0 minimum
            monkeypatch.setattr(cli, "run_suite", lambda run, out_dir: [
                CheckReport("nan", [math.nan, 1.0], 0.0),
                CheckReport("inf", [math.inf, -math.inf], 0.0),
                CheckReport("zero", [-0.0, 0.5], 0.0)])
            cfg = base_cfg("curvature")
        else:
            cfg = {**copy.deepcopy(FUZZ_BASE), "suite": "all"}
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) in (0, 1)
        text = (out / f"{suite}_report.json").read_text()
        bundle = json.loads(text)
        canonical = lambda obj: json.dumps(obj, sort_keys=True,
                                           separators=(",", ":"))
        assert list(bundle) == ["hash", "reports", "run", "timestamp"]
        body = {"reports": bundle["reports"], "run": bundle["run"]}
        assert bundle["hash"] == hashlib.sha256(
            canonical(body).encode()).hexdigest()
        assert text == canonical(bundle)
        if suite == "curvature":
            assert '"margins":[null,1.0],"min_margin":null' in text
            assert '"margins":[Infinity,-Infinity]' in text
            assert '"min_margin":-0.0' in text
        else:
            assert len(bundle["reports"]) == 10

    def test_report_contains_resolved_config(self, tmp_path):
        cfg = base_cfg("curvature")
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        bundle = json.loads((out / "curvature_report.json").read_text())
        config = bundle["run"]["config"]
        assert config["params"]["n"] == 3
        assert bundle["run"]["kappa"] == -0.5
        # the sampling defaults, the jacobian grid among them, resolved
        assert config["sampling"] == {**cli._DEFAULT_SAMPLING, "trials": 200}
        assert set(bundle["reports"][0]) == {
            "name", "margins", "min_margin", "tolerance", "verdict",
            "provenance"}

    # the provenance entries that state an input the file already states
    _RESTATED = {"curvature_bound": {"count", "seed", "space", "weight"},
                 "jacobian_concavity": {"trials", "seed", "steps"},
                 "twcd": {"functional", "rows"}}

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_report_file_states_config_and_kappa_once(self, tmp_path, suite):
        # on R^2 with every field set (functional, which needs kappa > 0,
        # on the S^2 meridian): one run member holds the config and kappa,
        # no payload restates them, and no provenance an input
        cfg = {**copy.deepcopy(FUZZ_BASE), "suite": suite}
        if suite == "functional":
            cfg = {**S2_ZERO, "kappa": 1.0, "suite": suite,
                   "params": {"n": 2, "N": 2.0, "eps": 1.0},
                   "geometry": {"kind": "meridian"}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out-dir", str(out), "--quiet"]) in (0, 1)
        text = (out / f"{suite}_report.json").read_text()
        bundle = json.loads(text)
        assert bundle["run"] == {"config": cli.resolve_config(cfg).cfg,
                                 "kappa": cfg["kappa"]}
        assert text.count('"config":') == 1
        # the config's own kappa field and the run's kappa
        assert text.count('"kappa":') == 2
        assert len(bundle["reports"]) == (10 if suite == "all" else 1 + (
            suite in ("taylor", "limits", "functional")))
        for rep in bundle["reports"]:
            assert not {"config", "params", "seed", "kappa"} & set(rep)
            assert not ({"kappa"} | self._RESTATED.get(rep["name"], set())
                        ) & set(rep["provenance"]), rep["name"]



class TestOneBuild:
    """A run builds its axis once, at config resolution, and only where it
    can be read or refused."""

    @staticmethod
    def _axis_builds(tmp_path, monkeypatch, cfg):
        builds = []
        init = AxisGeometry.__init__

        def counted(self, *args, **kwargs):
            builds.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AxisGeometry, "__init__", counted)
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) in (0, 1)
        return builds

    def test_suite_all_builds_one_axis(self, tmp_path, monkeypatch):
        cfg = {**copy.deepcopy(FUZZ_BASE), "suite": "all"}
        assert self._axis_builds(tmp_path, monkeypatch, cfg) == [
            "LineGeometry"]

    def test_taylor_without_axis_fields_builds_none(self, tmp_path,
                                                    monkeypatch):
        assert self._axis_builds(tmp_path, monkeypatch,
                                 base_cfg("taylor")) == []

    def test_interpolation_judges_its_curvature_once(self, tmp_path,
                                                     monkeypatch):
        # the run and check_interpolation share the geometry's margins:
        # one judgement, a ricci_fN_batch row per frame vector
        rows = []
        batch = suites.ricci_fN_batch
        monkeypatch.setattr(suites, "ricci_fN_batch",
                            lambda *args: rows.append(1) or batch(*args))
        cfg = {**copy.deepcopy(FUZZ_BASE), "suite": "interpolation"}
        self._axis_builds(tmp_path, monkeypatch, cfg)
        assert len(rows) == 2

    def test_axis_grid_is_checked_once(self, tmp_path, monkeypatch):
        # m and every G table reuse the geometry's check of its 64-point
        # grid; the envelope's 4,096 z nodes are a grid of their own
        sizes = []
        node_map = ot._node_map
        monkeypatch.setattr(ot, "_node_map",
                            lambda xs: sizes.append(xs.size) or node_map(xs))
        cfg = {**copy.deepcopy(FUZZ_BASE), "suite": "all"}
        self._axis_builds(tmp_path, monkeypatch, cfg)
        assert sizes.count(64) == 1 and sizes.count(4096) == 1

def sphere_cfg(**over):
    cfg = {
        "space": {"kind": "sphere", "dim": 2, "radius": 1.0},
        "weight": "cosine(0.2)",
        "params": {"n": 2, "N": 6.0, "eps": 0.5},
        "kappa": 0.3,
        "suite": "jacobian",
        "sampling": {"trials": 300, "seed": 7},
    }
    cfg.update(over)
    return cfg


class TestParameterRange:
    @pytest.mark.parametrize("suite", ["taylor", "all"])
    def test_N_equals_1_runs(self, tmp_path, suite):
        # eps = eps0 = 0: theta and the F identity are undefined, so their
        # checks are left out instead of dividing by zero
        cfg = sphere_cfg(suite=suite, params={"n": 2, "N": 1, "eps": 0.0},
                         sampling={"trials": 50, "seed": 7})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        names = [r["name"] for r in json.loads(
            (out / f"{suite}_report.json").read_text())["reports"]]
        assert "taylor_series" in names and "F_identity" not in names

    def test_bm_on_default_line_is_a_precondition(self, tmp_path, capsys):
        # no geometry block on S^2: the default axis, the flat line, is
        # refused off R^n (on it Ric = 0 is below kappa/c > 0, so bm had
        # no hypothesis there either)
        cfg = sphere_cfg(suite="bm", params={"n": 2, "N": 4.0, "eps": 0.5})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert ("a line geometry needs a euclidean space"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kappa", [0.5, 8.0])
    def test_bm_on_flat_balls_at_positive_kappa_is_a_precondition(
            self, tmp_path, capsys, kappa):
        # Ric_f^N = 0 on flat space under a constant weight, below kappa/c;
        # the balls of radii 0.4 and 1 are intervals of the radial axis
        cfg = {"space": {"kind": "euclidean", "dim": 3}, "weight": "zero",
               "params": {"n": 3, "N": 6, "eps": 0.5}, "kappa": kappa,
               "suite": "bm", "geometry": {"kind": "meridian"},
               "regions": {"bounds": [[0.0, 0.4], [0.0, 1.0]]}}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[curvature bound]" in capsys.readouterr().err


def test_jacobian_on_the_three_point_ray_grid(tmp_path):
    # sampling.steps: 2, the smallest the schema takes, integrates every
    # ray on 3 points through the 3-point Simpson rule
    cfg = base_cfg("jacobian", sampling={"trials": 50, "seed": 0, "steps": 2})
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg),
                 "--out-dir", str(out), "--quiet"]) in (0, 1)
    rep, = json.loads((out / "jacobian_report.json").read_text())["reports"]
    assert rep["margins"] and all(
        m is not None and math.isfinite(m) for m in rep["margins"])
    assert len(_csv_rows(out / "worst_ray.csv")) == 1 + 3


class TestAxisOffRn:
    """The 1-d suites' default axis is the line of R^2: off R^n a run
    without an axis field reads no axis, and a line is refused."""

    H2 = {"space": {"kind": "hyperbolic", "dim": 2},
          "weight": "quadratic(0.3)", "params": {"n": 2, "N": -2.0, "eps": 0.5},
          "kappa": -3.0, "suite": "all", "sampling": {"trials": 200, "seed": 0}}

    def test_all_on_H2_reports_the_axis_suites_vacuous(self, tmp_path):
        # the curvature bound fails on H^2; twcd, bm and interpolation
        # passed beside it on the flat line, which says nothing about H^2
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", self.H2),
                     "--out-dir", str(out), "--quiet"]) == 1
        reports = json.loads((out / "all_report.json").read_text())["reports"]
        got = [(r["name"], r["verdict"]) for r in reports]
        assert got[:6] == [("curvature_bound", "fail"),
                           ("jacobian_concavity", "fail"),
                           ("twcd", "vacuous"), ("bm", "vacuous"),
                           ("interpolation", "vacuous"),
                           ("functional", "vacuous")]
        assert all(r["provenance"]["skipped"]
                   == "a line geometry needs a euclidean space"
                   for r in reports[2:6])
        assert [name for name, _ in got[6:]] == [
            "taylor_series", "F_identity", "limit_bound",
            "coefficient_limits"]

    @pytest.mark.parametrize("space", [{"kind": "hyperbolic", "dim": 2},
                                       {"kind": "sphere", "dim": 2}])
    @pytest.mark.parametrize("over", [
        {"suite": "twcd"}, {"suite": "bm"}, {"suite": "interpolation"},
        {"suite": "functional"}, {"geometry": {"kind": "line"}},
        {"densities": [{"kind": "bump"}, {"kind": "bump"}]}])
    def test_line_off_Rn_exits_2_at_validate(self, tmp_path, capsys, space,
                                             over):
        path = write_cfg(tmp_path, "c.json",
                         {**self.H2, "space": space, **over})
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "config error: a line geometry needs a euclidean space\n")


# (space kind, dim) and the N regimes of the radial-axis sweep
_SWEEP_SPACES = {"S2": ("sphere", 2), "S3": ("sphere", 3),
                 "H3": ("hyperbolic", 3), "R3": ("euclidean", 3)}
_SWEEP_N = {"N=-2": lambda n: -2.0, "N=1": lambda n: 1.0,
            "N=3n": lambda n: 3.0 * n, "N=inf": lambda n: math.inf}


class TestMeridian:
    """The meridian is the radial axis of every model space: the distance
    from the origin, under a radial weight."""

    @pytest.mark.parametrize("over", [
        {**S2_ZERO, "kappa": 0.125,
         "space": {"kind": "sphere", "dim": 2, "radius": 2.0}},
        {}], ids=["radius-2", "on-r3"])
    def test_former_refusals_run(self, tmp_path, over):
        # a meridian at radius 2 (the unit run at kappa 0.5), and on R^3
        # under the run's radial weight quadratic(0.3); both once exited 2
        # at validate
        cfg = {**base_cfg("twcd"), **over,
               "geometry": {"kind": "meridian", "points": 1025}}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 0
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == 0

    def test_f1_is_line_only(self, tmp_path, capsys):
        # the meridian runs under the run's weight; f1 names the line's
        cfg = base_cfg("twcd", geometry={"kind": "meridian", "f1": "zero"})
        assert main(["validate", "--config",
                     write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown config fields: ['geometry.f1']\n")

    @pytest.mark.parametrize("field, over", [
        ("densities.1.amplitude", {"densities": [
            {"kind": "cosine", "amplitude": 1}, {"kind": "cosine",
                                                 "amplitude": 3}]}),
        ("functional.density.amplitude", {"functional": {
            "density": {"kind": "cosine", "amplitude": 3}}})])
    def test_cosine_amplitude_past_one_is_refused(self, tmp_path, capsys,
                                                  field, over):
        # 1 + 3 cos r is negative near the pole: the run judged
        # max(0, 1 + 3 cos r) and passed, not the density it was given
        cfg = {**S2_ZERO, "params": {"n": 2, "N": 2, "eps": 1},
               "kappa": 1, "suite": "functional",
               "geometry": {"kind": "meridian"}, **over}
        assert main(["validate", "--config",
                     write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: invalid {field}: 3\n")

    @pytest.mark.parametrize("weight", ["linear(0.5)", "quadratic(0.3)"])
    def test_h3_meridian_refuses_a_non_radial_run_weight(self, tmp_path,
                                                        capsys, weight):
        cfg = base_cfg("twcd", weight=weight, geometry={"kind": "meridian"},
                       space={"kind": "hyperbolic", "dim": 3})
        assert main(["validate", "--config",
                     write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert "a meridian needs a radial weight" in capsys.readouterr().err

    def test_axis_suites_run_under_the_run_weight(self, tmp_path):
        # the meridian once took its weight from geometry.f1 (zero when
        # unset), so hwi_lsi and transport_energy passed on the zero weight
        # while curvature and jacobian judged cosine(0.3); the functional
        # hypothesis m-constant fails for the run's own weight
        cfg = {**S2_ZERO, "weight": "cosine(0.3)", "kappa": 0.3,
               "suite": "all", "geometry": {"kind": "meridian"},
               "regions": {"bounds": [[0.2, 0.7], [0.9, 1.5]]},
               "interpolation": {"X": [0.2, 0.7], "Y": [0.9, 1.5]}}
        path = write_cfg(tmp_path, "c.json", cfg)
        run = cli.load_config(path)
        assert run.axis.geometry.weight is run.weight
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        reports = {r["name"]: r for r in json.loads(
            (out / "all_report.json").read_text())["reports"]}
        assert not {"hwi_lsi", "transport_energy"} & set(reports)
        functional = reports["functional"]
        assert functional["verdict"] == "vacuous"
        assert "m-constant" in functional["provenance"]["skipped"]
        cfg["suite"] = "functional"
        assert main(["run", "--config", write_cfg(tmp_path, "f.json", cfg),
                     "--out-dir", str(out), "--quiet"]) == 2

    def test_axis_curvature_is_judged_where_the_measures_live(self, tmp_path):
        # linear(a) = a r has an infinite Hessian at the poles r = 0 and pi
        # of the S^2 meridian; the twcd densities live on [1.0, 2.0], where
        # the bound holds. Judged on the whole window, the run exited 2
        cfg = {**S2_ZERO, "weight": "linear(0.3)", "kappa": 0.3,
               "suite": "twcd", "geometry": {"kind": "meridian"},
               "densities": [{"kind": "uniform", "bounds": [1.0, 1.4]},
                             {"kind": "uniform", "bounds": [1.6, 2.0]}]}
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out-dir", str(out), "--quiet"]) == 0
        [rep] = json.loads((out / "twcd_report.json").read_text())["reports"]
        assert rep["min_margin"] == pytest.approx(6.842e-3, abs=1e-6)
        assert rep["provenance"]["curvature_margin"] > 0.0

    def test_ball_config_names_its_fields(self, tmp_path, capsys):
        # ball regions are the meridian intervals [0, r0] and [0, r1]
        cfg = base_cfg("bm", weight="zero",
                       regions={"kind": "ball", "radii": [0.4, 1.0]})
        assert main(["validate", "--config",
                     write_cfg(tmp_path, "c.json", cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown config fields: ['regions.kind',"
            " 'regions.radii']\n")

    @pytest.mark.parametrize("suite", ["twcd", "bm", "interpolation"])
    @pytest.mark.parametrize("regime", list(_SWEEP_N))
    @pytest.mark.parametrize("space", list(_SWEEP_SPACES))
    def test_regime_sweep_passes(self, tmp_path, space, regime, suite):
        # zero weight, eps at half its range, kappa 10% of c (n - 1) inside
        # the bound kappa_max = c (n - 1) sec (0 on R^3): every axis suite
        # holds on the meridian of every model space in every N regime
        kind, n = _SWEEP_SPACES[space]
        N = _SWEEP_N[regime](n)
        eps0 = 0.0 if N == 1 else 1.0 if N == math.inf else (N - 1) / (N - n)
        p = validate_params(n, N, 0.5 * math.sqrt(eps0))
        sec = {"sphere": 1.0, "euclidean": 0.0, "hyperbolic": -1.0}[kind]
        cfg = {"space": {"kind": kind, "dim": n}, "weight": "zero",
               "params": {"n": n, "N": "inf" if N == math.inf else N,
                          "eps": p.eps},
               "kappa": p.c * (n - 1) * (sec - 0.1), "suite": suite,
               "geometry": {"kind": "meridian", "points": 1025},
               "densities": [{"kind": "bump", "center": 0.6, "width": 0.3},
                             {"kind": "bump", "center": 1.3, "width": 0.4}],
               "regions": {"bounds": [[0.0, 0.4], [0.0, 1.0]]},
               "interpolation": {"t": 0.5, "p": 0.0, "X": [0.2, 0.7],
                                 "Y": [0.9, 1.5]},
               "sampling": {"seed": 0, "t_grid": [0.25, 0.5, 0.75]}}
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out-dir", str(out), "--quiet"]) == 0
        reports = json.loads((out / f"{suite}_report.json").read_text())
        assert all(r["verdict"] == "pass" and r["min_margin"] > 0.0
                   for r in reports["reports"])


def test_readme_examples_validate(tmp_path, capsys):
    # every ```json block of the README is a config that validate accepts
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in text.split("```json\n")[1:]]
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = write_cfg(tmp_path, f"{i}.json", json.loads(block))
        assert main(["validate", "--config", path]) == 0, block
    assert capsys.readouterr().err == ""


class TestDeterminism:
    def test_same_seed_same_hash(self, tmp_path):
        cfg = sphere_cfg()
        path = write_cfg(tmp_path, "c.json", cfg)
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--config", path, "--out-dir", str(out),
                         "--quiet"]) == 0
            hashes.append(json.loads(
                (out / "jacobian_report.json").read_text())["hash"])
        assert hashes[0] == hashes[1]

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = sphere_cfg()
        path = write_cfg(tmp_path, "c.json", cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", path, "--out-dir", str(out1),
                     "--quiet"]) == 0
        assert main(["run", "--config", path, "--out-dir", str(out2),
                     "--seed", "8", "--quiet"]) == 0
        h1 = json.loads((out1 / "jacobian_report.json").read_text())["hash"]
        h2 = json.loads((out2 / "jacobian_report.json").read_text())["hash"]
        assert h1 != h2


# three runs of one config through cli.main in one process, each printing
# the minor page faults of the call and its report hash
_FAULTS_SNIPPET = """\
import contextlib, io, json, resource, sys
from pathlib import Path
from cdcheck import cli, ot, suites, taylor
cfg, out = sys.argv[1], Path(sys.argv[2])
for i in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", cfg, "--out-dir", str(out / str(i)),
                         "--quiet"])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    report = json.loads((out / str(i) / "jacobian_report.json").read_text())
    print(json.dumps([code, faults, report["hash"]]))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_repeated_run_does_not_fault_its_arrays_in_again(tmp_path):
    # with the allocator thresholds fixed at main's start, a repeated run
    # reuses the heap pages of the run before instead of faulting in fresh
    # ones; a fresh interpreter keeps the test process's heap out of it
    cfg = {**S2_ZERO, "kappa": 0.3, "suite": "jacobian",
           "sampling": {"trials": 250, "seed": 3}}
    path = write_cfg(tmp_path, "c.json", cfg)
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_SNIPPET, path, str(tmp_path / "o")],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    runs = [json.loads(line) for line in out.stdout.splitlines()]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[2][1] < 100
    assert len({digest for _, _, digest in runs}) == 1
