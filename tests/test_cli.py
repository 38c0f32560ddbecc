"""Command-line interface: config validation, exit codes, artifacts."""

import copy
import csv
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdcheck import cli
from cdcheck.cli import main
from cdcheck.errors import CdCheckError
from cdcheck.jacobi import refine_ray_margin


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
    "tolerances": dict.fromkeys(cli.SUITES, 1e-6),
    "geometry": {"kind": "line", "lo": -2.0, "hi": 2.0, "points": 64,
                 "f1": "zero"},
    "densities": [{"kind": "bump", "center": 0.0, "width": 0.5},
                  {"kind": "uniform", "bounds": [-1.0, 1.0]}],
    "regions": {"radii": [0.3, 0.5], "bounds": [[-1.0, -0.3], [0.3, 1.0]]},
    "interpolation": {"t": 0.5, "p": 0.0, "X": [-1.0, -0.2],
                      "Y": [0.2, 1.0]},
    "functional": {"delta": 0.0,
                   "density": {"kind": "cosine", "amplitude": 0.1,
                               "center": 0.0, "width": 0.5,
                               "bounds": [-1.0, 1.0]}},
    "out_dir": "out",
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6)


def _field_paths(checks, prefix=()):
    """The key paths of every field that ``checks`` (cli._FIELDS) checks."""
    for key, ok in checks.items():
        yield prefix + (key,)
        if isinstance(ok, dict):
            yield from _field_paths(ok, prefix + (key,))


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
        {**S2_ZERO, "suite": "twcd", "geometry": {"kind": "meridian"},
         "space": {"kind": "sphere", "dim": 2, "radius": 2.0}},
        {"suite": "twcd", "geometry": {"kind": "meridian"}},
        {**S2_ZERO, "suite": "interpolation", "geometry": {"kind": "meridian"}},
        {"suite": "bm", "regions": {"bounds": [[-3.0, -1.0], [0.3, 1.0]]}},
        {"suite": "twcd", "densities": [{"kind": "uniform",
                                         "bounds": [-3.0, 0.0]},
                                        {"kind": "bump"}]},
        {"suite": "twcd", "densities": [{"kind": "uniform"}, {"kind": "bump"}]},
        {"suite": "bm", "regions": {"kind": "ball"}},
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
        {"suite": "bm", "weight": "zero",
         "regions": {"kind": "ball", "radii": [-0.3, 0.3]}},
        {"out_dir": 5},
        {"suite": "twcd", "geometry": {"kind": ["line"]}},
        {"suite": "interpolation", "interpolation": {"X": [-0.2, -1.0]}},
        {"suite": "bm", "regions": {"bounds": [[-0.3, -1.0], [0.3, 1.0]]}},
        {"suite": "twcd", "densities": [{"kind": "uniform",
                                         "bounds": [-0.5, -1.0]},
                                        {"kind": "bump"}]},
    ], ids=["kappa-string", "missing-eps", "negative-trials", "zero-trials",
            "sampling-list", "geometry-bogus-key", "geometry-ambient-dim",
            "meridian-window", "weight-number", "radius-string",
            "t-grid-string", "steps-string", "points-string",
            "one-density", "tolerance-string", "regions-number",
            "interpolation-t-string", "meridian-radius-2", "meridian-on-r3",
            "interpolation-outside-meridian", "regions-outside-line",
            "uniform-outside-line", "uniform-without-bounds",
            "ball-without-radii", "line-window-reversed",
            "interpolation-p-string", "interpolation-p-bool",
            "interpolation-p-nan", "interpolation-t-zero",
            "interpolation-t-one", "twcd-t-grid-zero", "bm-t-grid-one",
            "interpolation-p-minus-inf",
            "interpolation-p-below-range", "N-equals-n-weight",
            "N-equals-n-f1", "theta-range-reversed", "theta-range-zero",
            "ball-radius-negative", "out-dir-number", "geometry-kind-list",
            "interpolation-X-reversed", "regions-reversed",
            "uniform-reversed"])
    def test_bad_config_exits_2(self, tmp_path, capsys, over):
        cfg = base_cfg("jacobian")
        cfg.update(over)
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["validate", "--config", path]) == 2
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(path=st.sampled_from(sorted(_field_paths(cli._FIELDS))),
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
            space, weight, params = cli._build(cli.resolve_config(cfg))
            assert refine_ray_margin(
                space, weight, params, cfg["kappa"],
                *(np.array(ce[k]) for k in ("x", "w", "S")),
                steps=ce["steps"]) == ce["margin"]
            rows = _csv_rows(out / "worst_ray.csv")
            assert rows[0] == ["t", "det", "J", "h", "l", "log_D", "log_Dbar"]
            assert len(rows) > 2

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

    def test_no_kept_ray_exits_2(self, tmp_path, capsys):
        # the one ray of seed 1 is inadmissible; an empty report is no
        # counterexample
        cfg = base_cfg("jacobian", sampling={"trials": 1, "seed": 1})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[samples]" in capsys.readouterr().err


class TestAxisCurvatureHypothesis:
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
        per_term = out / "taylor_app2_fwd.csv"
        rows = _csv_rows(per_term)
        assert rows[0] == ["delta", "exact", "series", "remainder"]
        for row in rows[1:]:
            d, e, s, r = map(float, row)
            assert r == pytest.approx(e - s, abs=1e-15)

    def test_report_contains_resolved_config(self, tmp_path):
        cfg = base_cfg("curvature")
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == 0
        bundle = json.loads((out / "curvature_report.json").read_text())
        rep = bundle["reports"][0]
        assert rep["config"]["params"]["n"] == 3
        assert rep["seed"] == 0
        assert "t_grid" in rep["config"]["sampling"]
        assert {"name", "margins", "min_margin", "tolerance",
                "verdict"} <= set(rep)


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
        # no geometry block: the flat zero-weight line has Ric = 0, below
        # kappa/c > 0 on the regions' hull, so bm has no hypothesis
        cfg = sphere_cfg(suite="bm", params={"n": 2, "N": 4.0, "eps": 0.5})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert "[curvature bound]" in capsys.readouterr().err


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
