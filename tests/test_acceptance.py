"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each criterion is also an ordinary test so the suite fails loudly
if any gate is missed. ``check_riccati``, the differential form of the
ray inequalities behind criterion 3, lives here with its own tests.
"""

import json
import math

import numpy as np
import pytest

from cdcheck import cli, jacobi, suites
from cdcheck.coefficients import check_limits
from cdcheck.ot import (LineGeometry, MeridianGeometry, density_from_callable,
                        monotone_1d_transport)
from cdcheck.params import diam_kappa, s_kappa, validate_params
from cdcheck.report import CheckReport
from cdcheck.spaces import (check_curvature_bound, constant_weight,
                            make_space, ricci_fN_batch, weight_preset)
from cdcheck.taylor import (TERMS, check_F_identity, check_series,
                            series_margins)


def _gate(idx, label, ok):
    print(f"[{idx}/10] {label}: {'pass' if ok else 'FAIL'}")
    assert ok, f"criterion {idx} ({label}) failed"


def test_criterion_01_comparison_function():
    ok = True
    ss = np.linspace(1e-3, 10.0, 20001)
    h = ss[1] - ss[0]
    for kappa in (1.3, 0.0, -0.7):
        psi = s_kappa(kappa, ss)
        resid = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2 \
            + kappa * psi[1:-1]
        ok &= bool(np.max(np.abs(resid) / (1.0 + np.abs(psi[1:-1]))) < 1e-6)
    ok &= diam_kappa(4.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    ok &= diam_kappa(math.pi**2) == pytest.approx(1.0, rel=1e-15)
    ok &= math.isinf(diam_kappa(0.0))
    ok &= math.isinf(diam_kappa(-1.0))
    _gate(1, "comparison function ODE and model diameters", ok)


def test_criterion_02_c_reductions():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 11))
        # classical: N >= n, eps = 1
        N = n + float(rng.uniform(0.5, 20.0))
        ok &= validate_params(n, N, 1.0).c == pytest.approx(
            1.0 / (N - 1.0), rel=1e-14)
        # one-dimensional: N = 1, eps = 0
        ok &= validate_params(n, 1.0, 0.0).c == pytest.approx(
            1.0 / (n - 1.0), rel=1e-14)
        # negative effective dimension: N <= 1 at eps = eps0
        N2 = float(rng.uniform(-10.0, 0.9))
        eps0 = (N2 - 1.0) / (N2 - n)
        ok &= validate_params(n, N2, eps0).c == pytest.approx(
            1.0 / (n - N2), rel=1e-14)
    _gate(2, "c-constant reductions on random (n, N)", ok)


# -- finite-difference stencils (uniform grid, 5 points) ----------------
def _deriv1_5pt(y: np.ndarray, dt: float) -> np.ndarray:
    """First derivative at interior points [2:-2]."""
    return (y[..., :-4] - 8.0 * y[..., 1:-3] + 8.0 * y[..., 3:-1]
            - y[..., 4:]) / (12.0 * dt)


def _deriv2_5pt(y: np.ndarray, dt: float) -> np.ndarray:
    """Second derivative at interior points [2:-2]."""
    return (-y[..., :-4] + 16.0 * y[..., 1:-3] - 30.0 * y[..., 2:-2]
            + 16.0 * y[..., 3:-1] - y[..., 4:]) / (12.0 * dt**2)


def check_riccati(space, weight, params, x, w, traj,
                  tol: float = 1e-8) -> CheckReport:
    """Differential inequalities for h and l along the ray (x, w), whose
    ``jacobi.integrate_jacobi`` dict is ``traj``.

        h'' <= -h'^2/(n-1) - Ric_g(gamma')
        (e^{a f} l')' <= -e^{a f} (c l'^2 + Ric_f^N(gamma'))

    Margins are (RHS - LHS)/(1 + |RHS|) at interior grid points.
    """
    n = space.dim
    ts, theta = traj["ts"], traj["thetas"]
    dt = ts[1] - ts[0]
    theta2 = theta**2
    margins = []

    hp = _deriv1_5pt(traj["h"], dt)
    hpp = _deriv2_5pt(traj["h"], dt)
    ric_g = (n - 1) * space.sec * theta2
    rhs1 = -hp**2 / (n - 1) - ric_g
    m1 = (rhs1 - hpp) / (1.0 + np.abs(rhs1))
    margins.extend(float(v) for v in m1)

    if theta > 1e-14:
        direction = np.asarray(w, float) / theta
        pts = space.geodesic(x, direction, theta * ts)
        vels = space.velocity(x, direction, theta * ts)
        ric_fn = theta2 * ricci_fN_batch(space, weight, params, pts,
                                         vels[:, None])[:, 0, 0]
    else:
        ric_fn = np.zeros_like(ts)
    ef = np.exp(params.a * traj["f_gamma"])
    lp = _deriv1_5pt(traj["l"], dt)
    wp = _deriv1_5pt(ef[2:-2] * lp, dt)  # valid on indices [4:-4] of the grid
    inner = slice(4, len(ts) - 4)
    rhs2 = -ef[inner] * (params.c * lp[2:-2]**2 + ric_fn[inner])
    m2 = (rhs2 - wp) / (1.0 + np.abs(rhs2))
    margins.extend(float(v) for v in m2)

    return CheckReport(name="riccati", margins=margins, tolerance=tol,
                       provenance={"theta": theta, "steps": len(ts) - 1})


class TestRiccati:
    def test_flat_isotropic_closed_form(self):
        # h'' = -n lam^2/(1+lam t)^2 vs bound -h'^2/(n-1); strict for n >= 2
        lam = 0.3
        flat3, zero = make_space("euclidean", 3), constant_weight(0.0)
        p = validate_params(3, 3, 1.0)
        ray = np.zeros(3), np.array([0.5, 0, 0]), lam * np.eye(3)
        traj = jacobi.integrate_jacobi(flat3, zero, *ray, 128)
        rep = check_riccati(flat3, zero, p, *ray[:2], traj)
        assert rep.verdict == "pass"
        # normal block is conformal (lam I), so the comparison is an
        # equality: h' = (n-1) lam/(1+lam t), h'' = -h'^2/(n-1) exactly
        expect_h = 2.0 * np.log1p(lam * traj["ts"])
        np.testing.assert_allclose(traj["h"], expect_h, atol=1e-9)
        assert abs(rep.min_margin) < 1e-8

    def test_zero_S_equality(self):
        flat3, zero = make_space("euclidean", 3), constant_weight(0.0)
        p = validate_params(3, 3, 1.0)
        ray = np.zeros(3), np.array([0.5, 0, 0]), np.zeros((3, 3))
        traj = jacobi.integrate_jacobi(flat3, zero, *ray, 128)
        rep = check_riccati(flat3, zero, p, *ray[:2], traj)
        assert rep.verdict == "pass"
        assert abs(rep.min_margin) < 1e-10

    def test_weighted_sphere(self):
        sphere2 = make_space("sphere", 2)
        p = validate_params(2, 6, 0.4)
        w = weight_preset(sphere2, "cosine(0.2)")
        x = np.array([0.0, 0.0, 1.0])
        v = 0.9 * sphere2.frame(x)[0]
        rng = np.random.default_rng(0)
        for _ in range(10):
            M = rng.uniform(-0.4, 0.4, size=(2, 2))
            S = 0.5 * (M + M.T)
            traj = jacobi.integrate_jacobi(sphere2, w, x, v, S, 128)
            rep = check_riccati(sphere2, w, p, x, v, traj)
            assert rep.verdict == "pass", rep.min_margin


def _ray_suite_margins(space, weight, params, kappa, rays, seed):
    rng = np.random.default_rng(seed)
    *_, margins, _ = jacobi.scan_rays(space, weight, params, kappa, rng,
                                      rays, 128, None, (0.2, 1.2), 1e-8)
    riccati_mins = []
    # differential inequalities on a subsample of admissible rays
    xs, ws, Ss = jacobi.sample_rays(space, rng, 60, None, (0.2, 1.2))
    for x, w, S in zip(xs, ws, Ss):
        try:
            traj = jacobi.integrate_jacobi(space, weight, x, w, S, 256)
        except jacobi.SingularJacobian:
            continue
        rep = check_riccati(space, weight, params, x, w, traj)
        riccati_mins.append(rep.min_margin)
    return margins.min(), min(riccati_mins), margins.size


def test_criterion_03_ray_suites():
    sphere = make_space("sphere", 2, radius=1.0)
    p_s = validate_params(2, 2, 1.0)
    m_s, r_s, n_s = _ray_suite_margins(sphere, constant_weight(0.0), p_s,
                                       1.0, 1500, 3)
    euc = make_space("euclidean", 3)
    w = weight_preset(euc, "quadratic(0.3)")
    p_e = validate_params(3, 10, 0.4)
    curv = check_curvature_bound(euc, w, p_e, -1.0, 400, 3, None, 1e-9)
    m_e, r_e, n_e = _ray_suite_margins(euc, w, p_e, -1.0, 1500, 3)
    ok = (curv.verdict == "pass" and n_s >= 1000 and n_e >= 1000
          and min(m_s, m_e) >= -1e-8 and min(r_s, r_e) >= -1e-8)
    _gate(3, "sphere and weighted-space ray inequalities", ok)


def test_criterion_04_falsification(tmp_path):
    cfg = {"space": {"kind": "euclidean", "dim": 3}, "weight": "zero",
           "params": {"n": 3, "N": 3.0, "eps": 1.0}, "kappa": 0.2,
           "suite": "jacobian", "sampling": {"trials": 10000, "seed": 0}}
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(cpath), "--out-dir",
                     str(tmp_path), "--quiet"])
    # the jacobian suite's default tolerance
    found = (code == 1 and json.loads((tmp_path / "counterexample.json")
                                      .read_text())["margin"] < -1e-8)
    _gate(4, "flat space with positive bound is falsified", found)


def test_criterion_05_displacement_convexity():
    t_grid = np.linspace(0.1, 0.9, 9)
    g = LineGeometry("quadratic(0.5)", lo=-2.0, hi=2.0, points=4096)
    p = validate_params(2, 10, 0.5)
    pairs = [((-0.5, 0.4), (0.5, 0.6)), ((-0.8, 0.3), (0.2, 0.4)),
             ((0.0, 0.5), (0.6, 0.3)), ((-0.3, 0.6), (-0.6, 0.4)),
             ((0.4, 0.35), (-0.4, 0.55))]
    ok = True
    for (m0, w0), (m1, w1) in pairs:
        r0 = density_from_callable(
            g, lambda x, m0=m0, w0=w0: np.exp(-0.5 * ((x - m0) / w0) ** 2))
        r1 = density_from_callable(
            g, lambda x, m1=m1, w1=w1: np.exp(-0.5 * ((x - m1) / w1) ** 2))
        rep, _ = suites.check_twcd(r0, r1, p, -1.0, t_grid, 1e-6)
        ok &= rep.min_margin >= -1e-6

    # classical reduction: eps = 1, f = 0, N = n against an independently
    # coded CD((N-1) kappa, N) computation
    gf = LineGeometry("zero", lo=-2.0, hi=2.0, points=4096)
    n = 2
    pc = validate_params(n, n, 1.0)
    kappa = -0.4
    r0 = density_from_callable(gf, lambda x: np.exp(-3 * (x - 0.4) ** 2))
    r1 = density_from_callable(gf, lambda x: np.exp(-2 * (x + 0.4) ** 2))
    _, rows = suites.check_twcd(r0, r1, pc, kappa, t_grid, 1e-6)
    # in the mass coordinate u: rho_0 dm = du, rho_0(Q_0)^{-1/n} = j_0^{1/n}
    # and rho_1(T(Q_0))^{-1/n} = j_1^{1/n}
    mi = monotone_1d_transport(r0, r1)
    d = np.abs(mi.Q1 - mi.Q0)
    sd = np.where(d > 1e-14, d, 1e-14)
    for t, _, rhs, _ in rows:
        s_full = s_kappa(kappa, sd)
        sig_t = s_kappa(kappa, t * sd) / s_full
        sig_1mt = s_kappa(kappa, (1 - t) * sd) / s_full
        tau_t = np.where(d > 1e-14,
                         t ** (1.0 / n) * sig_t ** (1.0 - 1.0 / n), t)
        tau_1mt = np.where(d > 1e-14, (1 - t) ** (1.0 / n)
                           * sig_1mt ** (1.0 - 1.0 / n), 1 - t)
        lhs = (tau_1mt * mi.j0 ** (1.0 / n) + tau_t * mi.j1 ** (1.0 / n)) @ mi.du
        ok &= abs(rhs - n * (1.0 - lhs)) < 1e-9
    _gate(5, "displacement convexity and classical reduction", ok)


def test_criterion_06_brunn_minkowski():
    # the balls of radii 0.4 and 1 about the origin of R^3 are intervals of
    # its radial axis; at kappa = 0 and N = n they are the equality case
    r3 = make_space("euclidean", 3)
    radial = MeridianGeometry(r3, weight_preset(r3, "zero"))
    p = validate_params(3, 3, 1.0)
    ok = all(abs(rep.min_margin) < 1e-7 for rep in suites.check_brunn_minkowski(
        radial, (0.0, 0.4), (0.0, 1.0), (0.2, 0.5, 0.8), p, 0.0, 1e-6))
    g = LineGeometry("quadratic(0.5)", lo=-2.0, hi=2.0, points=4096)
    pw = validate_params(2, 8, 0.4)
    ok &= all(rep.min_margin >= -1e-6 for rep in suites.check_brunn_minkowski(
        g, (-1.0, -0.3), (0.3, 1.0), (0.25, 0.5, 0.75), pw, -1.5, 1e-6))
    _gate(6, "Brunn-Minkowski: flat balls and weighted intervals", ok)


def test_criterion_07_coefficient_limits():
    configs = []
    sphere = make_space("sphere", 2, radius=1.0)
    x = np.array([0.0, np.sin(1.0), np.cos(1.0)])
    y = np.array([0.0, np.sin(1.6), np.cos(1.6)])
    configs.append((sphere, weight_preset(sphere, "cosine(0.3)"),
                    validate_params(2, 6, 0.5), 0.8, x, y))
    euc = make_space("euclidean", 3)
    configs.append((euc, weight_preset(euc, "linear(0.5)"),
                    validate_params(3, 9, 0.4), -0.6,
                    np.array([0.1, -0.2, 0.0]), np.array([0.5, 0.3, -0.2])))
    configs.append((euc, weight_preset(euc, "quadratic(0.4)"),
                    validate_params(3, math.inf, 0.3), 0.0,
                    np.array([-0.3, 0.1, 0.2]), np.array([0.2, -0.3, 0.4])))
    ok = all(check_limits(sp, w, p, k, xx, yy).verdict == "pass"
             for sp, w, p, k, xx, yy in configs)
    _gate(7, "small-time and small-distance coefficient limits", ok)


def test_criterion_08_series_expansions():
    euc = make_space("euclidean", 3)
    w = weight_preset(euc, "quadratic(0.3)")
    p = validate_params(3, 9, 0.4)
    x = np.array([0.2, -0.1, 0.3])
    v = np.array([2.0, 1.0, -2.0]) / 3.0
    terms, deltas, exact, series = check_series(euc, w, p, -0.7, x, v)
    ok = terms == TERMS
    ok &= bool(np.all(series_margins(deltas, exact, series) >= 0.0))
    rep = check_F_identity(p, 0.7, np.linspace(-3.0, 3.0, 100))
    ok &= rep.verdict == "pass"
    _gate(8, "series remainder slopes and quadratic-form identity", ok)


def test_criterion_09_functional_inequalities():
    s2 = make_space("sphere", 2)
    meridian = MeridianGeometry(s2, weight_preset(s2, "zero"))
    p = validate_params(2, 2, 1.0)
    ok = True
    for a in (0.0, 0.1, 0.2):
        rho = density_from_callable(meridian,
                                    lambda th, a=a: 1.0 + a * np.cos(th))
        hw, te = suites.check_functional(rho, p, 1.0, 0.0, 1e-5)
        ok &= hw.min_margin >= -1e-5 and te.min_margin >= -1e-5
        if a == 0.0:
            ok &= abs(hw.min_margin) < 1e-9 and abs(te.min_margin) < 1e-9
    _gate(9, "HWI, log-Sobolev and transport-energy margins", ok)


def test_criterion_10_determinism(tmp_path):
    cfg = {"space": {"kind": "sphere", "dim": 2, "radius": 1.0},
           "weight": "cosine(0.2)",
           "params": {"n": 2, "N": 6.0, "eps": 0.5}, "kappa": 0.3,
           "suite": "jacobian", "sampling": {"trials": 400, "seed": 11}}
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(cfg))
    hashes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["run", "--config", str(cpath), "--out-dir",
                         str(out), "--quiet"]) == 0
        hashes.append(json.loads(
            (out / "jacobian_report.json").read_text())["hash"])
    _gate(10, "identical config and seed give identical report hash",
          hashes[0] == hashes[1])
