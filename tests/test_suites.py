import math

import numpy as np
import pytest

from cdcheck import ot, suites
from cdcheck.coefficients import log_beta, log_beta_pair
from cdcheck.errors import HypothesisError, PreconditionError
from cdcheck.ot import (LineGeometry, MeridianGeometry, MonotoneInterpolation,
                        density_from_callable, renyi_pointwise,
                        entropy_functional)
from cdcheck.params import s_kappa, validate_params
from cdcheck.quadrature import cumulative_simpson
from cdcheck.spaces import (check_curvature_bound, make_space,
                            ricci_fN_batch, weight_preset)
from cdcheck.suites import (_curvature_margins, axis_log_betas,
                            check_brunn_minkowski, check_functional,
                            check_interpolation, check_twcd,
                            conclusion_exponent, envelope_psi, p_mean)


def flat_line(points=4096, lo=-2.0, hi=2.0):
    return LineGeometry("zero", lo=lo, hi=hi, points=points)


def quad_line(a=0.5, points=4096, lo=-2.0, hi=2.0):
    return LineGeometry(f"quadratic({a})", lo=lo, hi=hi, points=points)


S2 = make_space("sphere", 2)


def meridian(space, preset="zero", points=4096):
    """The radial axis of ``space`` under the weight preset ``preset``."""
    return MeridianGeometry(space, weight_preset(space, preset), points)


def r3_meridian():
    """The radial axis of R^3 on [0, RADIAL_HI]: two balls about the
    origin are its intervals [0, r0] and [0, r1]."""
    return meridian(make_space("euclidean", 3))


T_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]


def full_scan_envelope(geometry, params, kappa, psi0, psi1, X, Y, t, p,
                       slack=1e-4):
    """(nodes, values) of envelope_psi's envelope from the best of all 64 x
    cells at every z node, refined by `suites.bracketed_sup`: the reference
    the windowed scan must reproduce bit for bit."""
    zs = np.linspace((1 - t) * X[0] + t * Y[0],
                     (1 - t) * X[1] + t * Y[1], 4096)
    lo = np.maximum(X[0], (zs - t * Y[1]) / (1 - t))
    hi = np.minimum(X[1], (zs - t * Y[0]) / (1 - t))

    def rhs(x, z):
        x = np.clip(x, *X)
        y = np.clip((z - (1 - t) * x) / t, *Y)
        b_rev, b_fwd = np.exp(axis_log_betas(geometry, params, kappa, x, y, t))
        return p_mean(psi0(x) / b_rev, psi1(y) / b_fwd, t, p)

    cells = np.linspace(0.0, 1.0, 64)
    best, k = np.empty(zs.size), np.empty(zs.size, dtype=int)
    step = 8192 // cells.size
    for s in range(0, zs.size, step):
        part = slice(s, s + step)
        vals = rhs(lo[part, None] + (hi - lo)[part, None] * cells,
                   zs[part, None])
        k[part], best[part] = vals.argmax(axis=1), vals.max(axis=1)
    a = lo + (hi - lo) * cells[np.maximum(k - 1, 0)]
    b = lo + (hi - lo) * cells[np.minimum(k + 1, cells.size - 1)]
    env = suites.bracketed_sup(lambda x, i: rhs(x, zs[i]), a, b,
                               lo + (hi - lo) * cells[k], best)
    env *= 1.0 + slack
    env += slack * float(env.max())
    return zs, env


def assert_envelope_is_the_sup(psi0, psi1, t, p, stride=128):
    """At every ``stride``-th of the envelope's 4,096 z nodes on
    X = (-1, -0.2), Y = (0.2, 1), the envelope lies within [1 - 1e-12,
    1 + 1e-8] times the max of the right-hand side over 2^16 x, and at
    every node it is the full scan's bit for bit. SLACK must be 0."""
    g = quad_line()
    params = validate_params(2, 10.0, 0.5)
    kappa = -1.0
    X, Y = (-1.0, -0.2), (0.2, 1.0)
    psi = envelope_psi(g, params, kappa, psi0, psi1, X, Y, t, p)
    zs = np.linspace((1 - t) * X[0] + t * Y[0],
                     (1 - t) * X[1] + t * Y[1], 4096)[::stride]
    for z in zs:
        x = np.linspace(max(X[0], (z - t * Y[1]) / (1 - t)),
                        min(X[1], (z - t * Y[0]) / (1 - t)), 2**16)
        y = np.clip((z - (1 - t) * x) / t, *Y)
        d_full = g.reparam_partial(params, x, y, 1.0)
        d_t = g.reparam_partial(params, x, y, t)
        b_fwd = np.exp(log_beta(params, kappa, d_t, d_full, t))
        b_rev = np.exp(log_beta(params, kappa, d_full - d_t, d_full, 1 - t))
        brute = p_mean(psi0(x) / b_rev, psi1(y) / b_fwd, t, p).max()
        assert brute * (1 - 1e-12) <= psi(z) <= brute * (1 + 1e-8)
    nodes, env = full_scan_envelope(g, params, kappa, psi0, psi1, X, Y, t, p,
                                    0.0)
    assert np.array_equal(psi(nodes), env)


def cut_bump(I):
    """The interpolation runner's psi on the interval I: a Gaussian bump of
    width 0.3 at its middle, 0 outside it."""
    mid = np.mean(I)
    return lambda x: (np.exp(-0.5 * ((x - mid) / 0.3) ** 2)
                      * ((x >= I[0]) & (x <= I[1])))


class TestTwCD:
    def test_equal_endpoints_zero_margin(self):
        g = quad_line()
        p = validate_params(2, 10, 0.5)
        rho = density_from_callable(g, lambda x: np.exp(-2 * x**2))
        rep, _ = check_twcd(rho, rho, p, 0.0, [0.3, 0.5, 0.7], 1e-6)
        assert rep.verdict == "pass"
        assert abs(rep.min_margin) < 1e-9

    def test_classical_reduction_matches_independent_path(self):
        # eps=1, f=0, N=n: both sides must equal a separately coded
        # CD((N-1) kappa, N) Renyi displacement convexity computation
        g = flat_line()
        n = 2
        p = validate_params(n, n, 1.0)
        kappa = -0.4
        r0 = density_from_callable(g, lambda x: np.exp(-3 * (x - 0.4) ** 2))
        r1 = density_from_callable(g, lambda x: np.exp(-2 * (x + 0.4) ** 2))
        rep, rows = check_twcd(r0, r1, p, kappa, T_GRID, 1e-6)
        assert rep.verdict == "pass"

        from cdcheck.ot import MonotoneInterpolation

        mi = MonotoneInterpolation(r0, r1)
        K = (n - 1) * kappa  # Ric lower bound entering the classical check
        # classical CD(K, N) coefficients sigma^{(t)}(d) over the monotone
        # coupling (Q_0(u), Q_1(u)) in the mass coordinate u
        d = np.abs(mi.Q1 - mi.Q0)
        sd = np.where(d > 1e-14, d, 1e-14)
        for t, _, rhs, _ in rows:
            # tau-coefficients with N = n: beta_t^{1/N} = (s(t d)/(t s(d)))
            s_full = s_kappa(K / (n - 1.0), sd)
            s_t = s_kappa(K / (n - 1.0), t * sd)
            s_1mt = s_kappa(K / (n - 1.0), (1 - t) * sd)
            tau_t = np.where(d > 1e-14, t ** (1.0 / n)
                             * (s_t / s_full) ** (1.0 - 1.0 / n), t)
            tau_1mt = np.where(d > 1e-14, (1 - t) ** (1.0 / n)
                               * (s_1mt / s_full) ** (1.0 - 1.0 / n),
                               1 - t)
            # rho_0 dm = du, rho_0(Q_0)^{-1/n} = j_0^{1/n} and
            # rho_1(T(Q_0))^{-1/n} = j_1^{1/n}
            lhs_classical = (tau_1mt * mi.j0 ** (1.0 / n)
                             + tau_t * mi.j1 ** (1.0 / n)) @ mi.du
            # the twcd rhs at this t must equal the classical rhs
            # computed through the same U = Renyi reduction
            rhs_classical = n * (1.0 - lhs_classical)
            assert rhs == pytest.approx(rhs_classical, abs=1e-9)

    # criterion 5 of the acceptance gate, as the benchmark runs it
    PAIRS = (((-0.5, 0.4), (0.5, 0.6)), ((-0.8, 0.3), (0.2, 0.4)),
             ((0.0, 0.5), (0.6, 0.3)), ((-0.3, 0.6), (-0.6, 0.4)),
             ((0.4, 0.35), (-0.4, 0.55)))
    FINE_T = [round(0.01 * i, 2) for i in range(1, 100)]

    @staticmethod
    def _bumps(g, pair):
        (m0, w0), (m1, w1) = pair
        return [density_from_callable(
            g, lambda x, m=m, w=w: np.exp(-0.5 * ((x - m) / w) ** 2))
            for m, w in ((m0, w0), (m1, w1))]

    def _pair_margin(self, pair, points):
        g = quad_line(points=points)
        r0, r1 = self._bumps(g, pair)
        return check_twcd(r0, r1, validate_params(2, 10, 0.5), -1.0,
                          self.FINE_T, 1e-6)[0]

    def test_pair2_converged_margin(self):
        # the source-grid pushforward read 4.40e-3 here, 55% above the limit
        rep = self._pair_margin(self.PAIRS[2], 8192)
        assert rep.min_margin == pytest.approx(2.8385e-3, abs=1e-7)

    def test_criterion5_margins_grid_independent(self):
        for pair in self.PAIRS:
            coarse = self._pair_margin(pair, 8192).margins
            fine = self._pair_margin(pair, 16384).margins
            assert np.max(np.abs(np.subtract(coarse, fine))) < 1e-7

    def test_rhs_matches_the_entropy_form(self):
        # the rhs from log beta and log j against
        # (1-t) int H(1/J_rev) J_rev du + t int H(1/J_fwd) J_fwd du,
        # J = beta j, on the benchmark's line
        g = quad_line(points=8192)
        p, kappa = validate_params(2, 10, 0.5), -1.0
        t = np.array(self.FINE_T)
        entropy = lambda r: renyi_pointwise(r, p)
        for pair in self.PAIRS:
            r0, r1 = self._bumps(g, pair)
            _, rows = check_twcd(r0, r1, p, kappa, self.FINE_T, 1e-6)
            mi = MonotoneInterpolation(r0, r1)
            b_rev, b_fwd = np.exp(log_beta_pair(
                p, kappa, g.reparam_partial(p, mi.Q0, mi.Q1, t[:, None]),
                g.reparam_partial(p, mi.Q0, mi.Q1, 1.0), t[:, None]))
            mass = lambda j: (entropy(1.0 / j) * j) @ mi.du
            ref = (1.0 - t) * mass(b_rev * mi.j0) + t * mass(b_fwd * mi.j1)
            got = np.array([row[2] for row in rows])
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)

    def test_wide_window_endpoint_entropy(self):
        # rho_0 has tail mass where rho_1 has almost none; the source-grid
        # pushforward read -764 for the lhs at t = 0.99
        g = quad_line(points=16384, lo=-4.0, hi=4.0)
        p = validate_params(2, 10, 0.5)
        r0, r1 = self._bumps(g, self.PAIRS[2])
        _, [(_, lhs, _, _)] = check_twcd(r0, r1, p, -1.0, [0.99], 1e-6)
        assert lhs == pytest.approx(entropy_functional(r1, p), abs=1e-2)

    @pytest.mark.parametrize("X, Y, tol", [
        ((-1.5, -0.5), (0.0, 1.5), 2e-6),
        ((-1.5, -0.5), (0.0, 1.02), 1e-7),
        ((-1.5, -0.5), (0.5, 1.5), 1e-12),
    ], ids=["lengths-1-1.5", "lengths-1-1.02", "equal-lengths"])
    def test_uniform_pair_closed_form(self, X, Y, tol):
        # flat line, kappa = 0: beta = 1 and j_i = L_i / 4 on the support,
        # so j_t = (1-t) j_0 + t j_1 and the margin is in closed form
        g = flat_line(points=8192)
        p = validate_params(2, 10, 0.5)
        r0, r1 = (density_from_callable(
            g, lambda x, a=a, b=b: ((x >= a) & (x <= b)).astype(float))
            for a, b in (X, Y))
        _, rows = check_twcd(r0, r1, p, 0.0, T_GRID, 1e-6)
        L0, L1 = (X[1] - X[0]) / 4.0, (Y[1] - Y[0]) / 4.0
        r = p.c / (p.c + 1.0)
        for t, _, _, margin in rows:
            ref = ((p.c + 1.0) / p.c * (((1 - t) * L0 + t * L1) ** r
                                        - (1 - t) * L0**r - t * L1**r))
            assert abs(margin - ref) <= tol

    def test_meridian_margins_grid_independent(self):
        p = validate_params(2, 6.0, 0.5)
        margins = []
        for points in (4096, 16384):
            g = meridian(S2, points=points)
            r0 = density_from_callable(g, lambda th: 1.0 + 0.2 * np.cos(th))
            r1 = density_from_callable(
                g, lambda th: np.exp(-0.5 * ((th - 1.2) / 0.4) ** 2))
            margins.append(check_twcd(r0, r1, p, 0.5, T_GRID,
                                      1e-6)[0].margins)
        assert np.all(np.isfinite(margins))
        assert np.max(np.abs(np.subtract(*margins))) < 1e-6

    def test_weighted_pipeline(self):
        g = quad_line(a=1.0)
        p = validate_params(2, 10, 0.5)
        kappa = -1.0
        r0 = density_from_callable(g, lambda x: np.exp(-3 * (x - 0.3) ** 2))
        r1 = density_from_callable(g, lambda x: np.exp(-2 * (x + 0.5) ** 2))
        rep, _ = check_twcd(r0, r1, p, kappa, T_GRID, 1e-6)
        assert rep.verdict == "pass"
        assert rep.min_margin >= -1e-6

    def test_curvature_precondition(self):
        g = quad_line(a=0.2)
        p = validate_params(2, 10, 0.5)
        r0 = density_from_callable(g, lambda x: np.exp(-3 * x**2))
        with pytest.raises(PreconditionError):
            check_twcd(r0, r0, p, 5.0, [0.5], 1e-6)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_endpoint_t_rejected(self, t):
        # beta_t needs t in ]0, 1[; t = 0 or 1 once gave a NaN margin and
        # a false fail
        g = flat_line(points=1024)
        p = validate_params(2, 10, 0.5)
        r0 = density_from_callable(g, lambda x: np.exp(-3 * (x - 0.3) ** 2))
        r1 = density_from_callable(g, lambda x: np.exp(-2 * (x + 0.5) ** 2))
        with pytest.raises(ValueError, match=r"\]0,1\["):
            check_twcd(r0, r1, p, -1.0, [t, 0.5], 1e-6)

    @pytest.mark.parametrize("params", [(2, 10, 0.5), (2, 2, 1.0)],
                             ids=["a!=0", "a=0"])
    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.7])
    @pytest.mark.parametrize("axis", ["zero", "quadratic(0.5)", "S2"])
    def test_rows_match_the_log_form(self, monkeypatch, axis, kappa, params):
        # the beta-power sums against the form they replaced: lhs as the
        # pushforward of H(1/j) j, rhs from log beta and log j with one
        # exponential per (t, u); the kernel is compared, not the curvature
        # hypothesis, which fails at kappa = 0.7 on the line
        monkeypatch.setattr(suites, "_require_curvature", lambda *args: 0.0)
        p = validate_params(*params)
        if axis == "S2":
            g = meridian(S2)
            r0 = density_from_callable(g, lambda th: 1.0 + 0.2 * np.cos(th))
            r1 = density_from_callable(
                g, lambda th: np.exp(-0.5 * ((th - 1.2) / 0.4) ** 2))
        else:
            g = LineGeometry(axis)
            r0, r1 = TestTwCD._bumps(g, TestTwCD.PAIRS[0])
        ts = np.linspace(0.05, 0.95, 11)  # two t-chunks
        _, rows = check_twcd(r0, r1, p, kappa, ts, 1e-6)
        mi = MonotoneInterpolation(r0, r1)
        lhs = mi.pushforward_integral(ts, lambda r: renyi_pointwise(r, p))
        log_rev, log_fwd = log_beta_pair(
            p, kappa, g.reparam_partial(p, mi.Q0, mi.Q1, ts[:, None]),
            g.reparam_partial(p, mi.Q0, mi.Q1, 1.0), ts[:, None])
        mass = lambda log, j: (1.0 - np.exp(p.c_ratio * (log + np.log(j)))
                               ) @ mi.du
        rhs = (p.c + 1.0) / p.c * ((1.0 - ts) * mass(log_rev, mi.j0)
                                   + ts * mass(log_fwd, mi.j1))
        got = np.array(rows)
        assert np.array_equal(got[:, 0], ts)
        np.testing.assert_allclose(got[:, 1], lhs, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[:, 2], rhs, rtol=1e-12, atol=0.0)
        assert np.all(np.abs(got[:, 3] - (rhs - lhs))
                      <= 1e-12 * np.abs(rhs))

    def test_identical_densities_read_equal_sides(self):
        # d_f = 0 at every u: beta = 1, each side adds its j^r du with no
        # power of s_kappa(0), and no warning is raised (warnings are
        # errors here)
        g = quad_line()
        p = validate_params(2, 10, 0.5)
        rho = density_from_callable(g, lambda x: np.exp(-2 * (x - 0.2) ** 2))
        mi = MonotoneInterpolation(rho, rho)
        assert np.all(g.reparam_partial(p, mi.Q0, mi.Q1, 1.0) == 0.0)
        _, rows = check_twcd(rho, rho, p, -1.0, TestTwCD.FINE_T, 1e-6)
        for _, lhs, rhs, _ in rows:
            assert abs(lhs - rhs) <= 1e-14

    def test_one_lookup_per_t_chunk(self, monkeypatch):
        # a 99-point t-grid is 13 chunks of at most 8 t; each chunk looks
        # Q_t(u) up once, and that lookup serves m and G. Before the loop:
        # j_0 and j_1 (one read of 2 x 2,048 points), then G at Q_0 and at
        # the end Q_0 + (Q_1 - Q_0)
        g, p = quad_line(points=8192), validate_params(2, 10, 0.5)
        r0, r1 = TestTwCD._bumps(g, TestTwCD.PAIRS[0])
        looked_up = []
        lookup = ot.UniformTable.lookup

        def counted(table, x):
            looked_up.append(np.size(x))
            return lookup(table, x)

        monkeypatch.setattr(ot.UniformTable, "lookup", counted)
        check_twcd(r0, r1, p, -1.0, TestTwCD.FINE_T, 1e-6)
        n = ot._MASS_CELLS
        assert looked_up == [2 * n, n, n] + [8 * n] * 12 + [3 * n]


class TestAxisLogBetas:
    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.7])
    @pytest.mark.parametrize("f1", ["quadratic(0.5)", "zero"])
    def test_matches_separate_distances(self, kappa, f1):
        g = LineGeometry(f1)
        p = validate_params(2, 10, 0.5)
        X, Y = np.meshgrid(np.linspace(-1.0, -0.2, 16),
                           np.linspace(-0.5, 1.0, 12), indexing="ij")
        for t in (0.25, 0.5, np.linspace(0.1, 0.9, 12)):
            got = axis_log_betas(g, p, kappa, X, Y, t)
            ref = log_beta_pair(p, kappa, g.reparam_partial(p, X, Y, t),
                                g.reparam_partial(p, X, Y, 1.0), t)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)

    def test_three_lookups_of_G_per_pair(self, monkeypatch):
        # G at x once, at x + t (y - x) and at y: 3 N points for N pairs
        g, p = quad_line(), validate_params(2, 10, 0.5)
        looked_up = []
        read = ot.UniformTable.__call__

        def counted(table, x):
            if table is g._g_table(p.a):
                looked_up.append(np.size(x))
            return read(table, x)

        monkeypatch.setattr(ot.UniformTable, "__call__", counted)
        xs = np.linspace(-1.0, -0.2, 50)
        axis_log_betas(g, p, -1.0, xs, -xs, 0.4)
        assert sum(looked_up) == 3 * xs.size


def per_t_bm_report(geometry, X, Y, t, params, kappa):
    """The bm report at one t as the former per-t path took it: the
    hypothesis, the measures and both infima grids at that t alone, the
    infima through `axis_log_betas`."""
    (xlo, xhi), (ylo, yhi) = X, Y
    suites._require_curvature(geometry, params, kappa,
                              (min(xlo, ylo), max(xhi, yhi)))
    m = [suites._interval_measure(geometry, *I) for I in (
        X, Y, ((1 - t) * xlo + t * ylo, (1 - t) * xhi + t * yhi))]
    infima = []
    for k in (suites.BM_SAMPLES, 2 * suites.BM_SAMPLES):
        logs = axis_log_betas(geometry, params, kappa,
                              np.linspace(xlo, xhi, k)[:, None],
                              np.linspace(ylo, yhi, k), t)
        infima.append(tuple(float(np.exp(params.c_ratio * log.min()))
                            for log in logs))
    (rev, fwd), (rev2, fwd2) = infima
    cr = params.c_ratio
    rhs = (1 - t) * rev2 * m[0]**cr + t * fwd2 * m[1]**cr
    return {"margins": [(m[2]**cr - rhs) / (1.0 + abs(rhs))],
            "provenance": {"t": t,
                           "measures": {"X": m[0], "Y": m[1], "Z": m[2]},
                           "inf_beta_refine_drift": max(abs(rev - rev2),
                                                        abs(fwd - fwd2))}}


class TestBrunnMinkowski:
    def test_flat_balls_classical(self):
        p = validate_params(3, 3, 1.0)
        rep, = check_brunn_minkowski(r3_meridian(), (0.0, 0.4), (0.0, 1.0),
                                     [0.3], p, 0.0, 1e-6)
        assert rep.verdict == "pass"

    def test_equal_regions_equality(self):
        g = flat_line()
        p = validate_params(2, 4, 0.5)
        rep, = check_brunn_minkowski(g, (-0.5, 0.5), (-0.5, 0.5), [0.37], p,
                                     0.0, 1e-6)
        assert abs(rep.min_margin) < 1e-9

    def test_weighted_intervals_negative_kappa(self):
        g = LineGeometry("linear(1)", lo=-2.0, hi=2.0, points=4096)
        p = validate_params(2, 6, 0.4)
        rep, = check_brunn_minkowski(g, (-1.0, -0.3), (0.3, 1.0), [0.5], p,
                                     -2.5, 1e-6)
        assert rep.verdict == "pass"
        assert rep.min_margin >= -1e-6

    def test_measure_table_is_built_once(self, monkeypatch):
        # the cumulative reference measure on the axis grid is one table
        # per geometry, not one per interval measure (three per t)
        g = LineGeometry("linear(1)", lo=-2.0, hi=2.0, points=4096)
        calls = []
        monkeypatch.setattr(ot, "cumulative_simpson",
                            lambda *args: calls.append(args) or
                            cumulative_simpson(*args))
        p = validate_params(2, 6, 0.4)
        check_brunn_minkowski(g, (-1.0, -0.3), (0.3, 1.0), (0.25, 0.5, 0.75),
                              p, -2.5, 1e-6)
        # one for the measure, one for the G table of e^{-a f}
        assert len(calls) == 2

    @pytest.mark.parametrize("case", [
        ("line", "linear(1)", (-1.0, -0.3), (0.3, 1.0), -2.5),
        ("line", "quadratic(0.5)", (-1.0, -0.3), (0.3, 1.0), -1.5),
        ("line", "zero", (0.0, 0.4), (0.0, 1.0), -1.0),
        ("meridian", "zero", (0.0, 0.4), (0.0, 1.0), 0.0)])
    def test_t_grid_reports_equal_the_per_t_path(self, case):
        # one call over the t-grid answers, bit for bit, what one call per
        # t answered
        kind, preset, X, Y, kappa = case
        if kind == "line":
            g, p = LineGeometry(preset), validate_params(2, 8, 0.4)
        else:
            g, p = r3_meridian(), validate_params(3, 3, 1.0)
        ts = [0.1, 0.25, 0.5, 0.75, 0.9]
        reps = check_brunn_minkowski(g, X, Y, ts, p, kappa, 1e-6)
        assert [rep.provenance["t"] for rep in reps] == ts
        for rep, t in zip(reps, ts):
            ref = per_t_bm_report(g, X, Y, t, p, kappa)
            assert rep.margins == ref["margins"]
            assert rep.provenance == ref["provenance"]

    def test_one_hypothesis_and_one_d_f_per_pair_grid(self, monkeypatch):
        # the curvature scan runs once per call and d_f once per pair grid,
        # however many t the grid holds; d_t once per (grid, t)
        g, p = LineGeometry("linear(1)"), validate_params(2, 6, 0.4)
        scans, grids, d_ts = [], [], []
        margins = suites._curvature_margins
        partial = g.partial_distances
        monkeypatch.setattr(suites, "_curvature_margins",
                            lambda *args: scans.append(1) or margins(*args))

        def counted(params, x, y):
            grids.append(np.broadcast(x, y).shape)
            d_full, d_t = partial(params, x, y)
            return d_full, lambda t: d_ts.append(t) or d_t(t)

        monkeypatch.setattr(g, "partial_distances", counted)
        ts = (0.25, 0.5, 0.75)
        reps = check_brunn_minkowski(g, (-1.0, -0.3), (0.3, 1.0), ts, p, -2.5,
                                     1e-6)
        assert len(reps) == 3
        assert len(scans) == 1
        assert grids == [(64, 64), (128, 128)]
        assert d_ts == [*ts, *ts]

    def test_interval_measure_is_the_table_on_the_grid(self):
        # ends on the grid read the Simpson table; off it the cubic Hermite
        # with slope m_density is O(dx^4): m([0, r]) = (r / 2)^3 on the R^3
        # meridian [0, 2]
        g = r3_meridian()
        tab = g.m_cumulative
        assert suites._interval_measure(g, g.xs[700], g.xs[35]) == float(
            tab[700] - tab[35])
        for r in (0.3, 1.0, 1.7):
            assert suites._interval_measure(g, 0.0, r) == pytest.approx(
                (r / 2.0) ** 3, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_flat_balls_equality_at_kappa_zero(self, t):
        # at kappa = 0 and N = n, beta = 1 and m^{1/n} is linear in the
        # radius: the balls of radii 0.4 and 1 about the origin of R^3, each
        # measure normalized by the ball of radius RADIAL_HI = 2
        rep, = check_brunn_minkowski(r3_meridian(), (0.0, 0.4), (0.0, 1.0),
                                     [t], validate_params(3, 3, 1.0), 0.0,
                                     1e-6)
        assert abs(rep.min_margin) < 1e-12
        m = rep.provenance["measures"]
        assert m["Z"] == pytest.approx((((1 - t) * 0.4 + t) / 2) ** 3,
                                       abs=1e-12)
        assert rep.provenance["inf_beta_refine_drift"] == 0.0

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_coincident_pairs_read_beta_one(self, t):
        # x = 0 and y = 0, or x + t (y - x) rounding to x on a pair whose
        # y - x is a rounding residue, read beta = 1, not beta = 0 from
        # d_t = 0 < d_f: the parent read margins 0.120, 0.160 and 0.078 here,
        # with a drift of 0.92 between the 64- and 128-point infima
        rep, = check_brunn_minkowski(flat_line(), (0.0, 0.4), (0.0, 1.0),
                                     [t], validate_params(2, 9, 0.4), -1.0,
                                     1e-6)
        want = {0.25: 0.02113, 0.5: 0.02707, 0.75: 0.01955}[t]
        assert rep.min_margin == pytest.approx(want, abs=1e-4)
        assert rep.provenance["inf_beta_refine_drift"] == 0.0

    @pytest.mark.parametrize("preset", ["zero", "quadratic(0.5)"])
    def test_overlapping_intervals_raise_no_warning(self, preset):
        # x = y on the overlap: d_f = 0, beta = 1 and log s_kappa(0) = -inf
        # at d_t = 0 stay inside the kernels (warnings are errors here)
        g, p = LineGeometry(preset), validate_params(2, 8, 0.4)
        reps = check_brunn_minkowski(g, (-0.6, 0.4), (-0.2, 0.9),
                                     [0.25, 0.5, 0.75], p, -1.5, 1e-6)
        assert all(rep.verdict == "pass" for rep in reps)
        assert all(math.isfinite(rep.provenance["inf_beta_refine_drift"])
                   for rep in reps)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["line", "meridian"])
    def test_endpoint_t_rejected(self, kind, t):
        p = validate_params(2 if kind == "line" else 3, 10, 0.5)
        X, Y = (-1.0, -0.3), (0.3, 1.0)
        g = flat_line(points=1024)
        if kind == "meridian":
            X, Y, g = (0.0, 0.4), (0.0, 1.0), r3_meridian()
        with pytest.raises(ValueError, match=r"\]0,1\["):
            check_brunn_minkowski(g, X, Y, [0.5, t], p, -1.0, 1e-6)


class TestInterpolationInequality:
    def test_same_bump_equality(self, monkeypatch):
        # beta = 1 when kappa = 0 and f = 0: psi0=psi1=psi gives equality
        monkeypatch.setattr(suites, "HYPOTHESIS_SAMPLES", 2000)
        g = flat_line()
        p = validate_params(2, 4, 0.5)
        bump = lambda x: np.exp(-4.0 * np.asarray(x) ** 2)
        X = Y = (-1.5, 1.5)
        t = 0.5
        for pp in (0.0, -0.4):
            rep = check_interpolation(g, p, 0.0, bump, bump, bump,
                                      X, Y, t, pp, 1, 1e-6)
            assert abs(rep.min_margin) < 1e-9

    def test_prekopa_leindler_weighted(self):
        g = quad_line(a=1.0)
        p = validate_params(2, 8, 0.3)
        kappa = -1.0
        X, Y, t = (-1.0, -0.2), (0.2, 1.0), 0.5
        psi0 = lambda x: (np.exp(-0.5 * ((np.asarray(x) + 0.6) / 0.3) ** 2)
                          * ((np.asarray(x) >= X[0]) & (np.asarray(x) <= X[1])))
        psi1 = lambda y: (np.exp(-0.5 * ((np.asarray(y) - 0.6) / 0.3) ** 2)
                          * ((np.asarray(y) >= Y[0]) & (np.asarray(y) <= Y[1])))
        psi = envelope_psi(g, p, kappa, psi0, psi1, X, Y, t, 0.0)
        rep = check_interpolation(g, p, kappa, psi0, psi1, psi,
                                  X, Y, t, 0.0, 0, 1e-6)
        assert rep.verdict == "pass"
        assert rep.min_margin >= -1e-6

    @pytest.mark.parametrize("t", [0.3, 0.5])
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, math.inf])
    def test_envelope_is_the_sup(self, p, t, monkeypatch):
        # at 32 of the envelope's z nodes, against the max over 2^16 x
        monkeypatch.setattr(suites, "SLACK", 0.0)
        psi0 = lambda x: np.exp(-0.5 * ((x + 0.6) / 0.3) ** 2)
        psi1 = lambda y: np.exp(-0.5 * ((y - 0.6) / 0.3) ** 2)
        assert_envelope_is_the_sup(psi0, psi1, t, p)

    @pytest.mark.parametrize("psi0, psi1, t, p", [
        # at the nodes z > -0.24, x runs over [-1, 2z - 0.2] and the flat
        # (quartic) top of psi0 lies 0.005 inside its first cell: a
        # parabola through the cells 0, 1 and 2 peaks outside it
        (lambda x: np.exp(-((x + 0.995) / 0.03) ** 4),
         lambda y: np.exp(-0.5 * ((y - 0.6) / 0.3) ** 2), 0.5, 0.0),
        # test_envelope_mode_switch_scans_all_cells: a max of two branches
        (lambda x: np.exp(-0.5 * ((x + 0.6) / 0.2) ** 2),
         lambda y: 0.6 * np.exp(-0.5 * ((y - 0.6) / 0.2) ** 2), 0.3,
         math.inf)], ids=["first-cell", "mode-switch-inf"])
    def test_envelope_is_the_sup_off_the_parabola(self, psi0, psi1, t, p,
                                                  monkeypatch):
        # at 128 nodes: a refinement by parabolic steps alone reads low
        # at some of them in both cases
        monkeypatch.setattr(suites, "SLACK", 0.0)
        assert_envelope_is_the_sup(psi0, psi1, t, p, stride=32)

    # the benchmark's interpolation line and edge cases of its settings:
    # (X, Y, t, p)
    @pytest.mark.parametrize("X, Y, t, p", [
        ((-0.5, -0.5 + 1e-12), (0.2, 1.0), 0.5, 0.0),
        ((-1.0, -0.2), (0.2, 1.0), 1e-6, 0.0),
        ((-1.0, -0.2), (0.2, 1.0), 0.999999, 0.0),
        ((-1.0, -0.2), (0.2, 1.0), 0.5, 1e300),
        ((-1.0, -0.2), (0.2, 1.0), 0.5, math.inf),
        ((-1.0, 0.5), (-0.5, 1.0), 0.5, 0.0),
        ((-1.0, 1.0), (-1.0, 1.0), 0.5, 0.0),
        ((-2.0, -0.2), (0.2, 2.0), 0.5, 0.0)],
        ids=["X-width-1e-12", "t-1e-6", "t-0.999999", "p-1e300", "p-inf",
             "overlapping", "X-is-Y", "window-edge"])
    def test_envelope_is_the_full_scan(self, X, Y, t, p):
        g = quad_line(points=8192)
        params = validate_params(2, 10.0, 0.5)
        psi0, psi1 = cut_bump(X), cut_bump(Y)
        psi = envelope_psi(g, params, -1.0, psi0, psi1, X, Y, t, p)
        nodes, env = full_scan_envelope(g, params, -1.0, psi0, psi1, X, Y, t, p)
        assert np.array_equal(psi(nodes), env)

    def test_envelope_mode_switch_scans_all_cells(self, monkeypatch):
        # at p = +inf the sup jumps from the x bump to the lower y bump:
        # nodes between coarse neighbours whose best cells differ by more
        # than 1 fall back to all 64 cells
        rows = []
        monkeypatch.setattr(suites, "SLACK", 0.0)
        monkeypatch.setattr(suites, "axis_log_betas",
                            lambda g, params, kappa, x, y, t: rows.append(
                                np.shape(x)) or axis_log_betas(
                                    g, params, kappa, x, y, t))
        g = quad_line()
        params = validate_params(2, 10.0, 0.5)
        X, Y, t = (-1.0, -0.2), (0.2, 1.0), 0.3
        psi0 = lambda x: np.exp(-0.5 * ((x + 0.6) / 0.2) ** 2)
        psi1 = lambda y: 0.6 * np.exp(-0.5 * ((y - 0.6) / 0.2) ** 2)
        psi = envelope_psi(g, params, -1.0, psi0, psi1, X, Y, t, math.inf)
        full = sum(shape[0] for shape in rows if shape[1:] == (64,))
        assert full > 513  # 512 coarse nodes and the last node, and more
        nodes, env = full_scan_envelope(g, params, -1.0, psi0, psi1, X, Y, t,
                                        math.inf, 0.0)
        assert np.array_equal(psi(nodes), env)

    def test_envelope_evaluations(self, monkeypatch):
        # the benchmark's interpolation-p0 call: 513 full scans, 6 cells at
        # the 3,583 other nodes and the refinement's rounds, where a full
        # scan at every node took 417,792 points and 38 golden rounds on
        # 4,096 nodes 209,978; no call takes more than 8,192 points
        points = []
        monkeypatch.setattr(suites, "axis_log_betas",
                            lambda g, params, kappa, x, y, t: points.append(
                                np.broadcast(x, y).size) or axis_log_betas(
                                    g, params, kappa, x, y, t))
        X, Y = (-1.0, -0.2), (0.2, 1.0)
        envelope_psi(quad_line(points=8192), validate_params(2, 10.0, 0.5),
                     -1.0, cut_bump(X), cut_bump(Y), X, Y, 0.5, 0.0)
        assert sum(points) <= 110_000
        assert max(points) <= 8192

    def test_envelope_far_from_origin(self):
        # near x = 1e4 neighbouring floats are 1.8e-12 apart: the search
        # must stop although no bracket can shrink to 1e-12
        g = LineGeometry("zero", lo=1e4, hi=1e4 + 4.0)
        bump = lambda x: np.exp(-(x - 1e4 - 2.0) ** 2)
        X, Y = (1e4 + 0.5, 1e4 + 1.5), (1e4 + 2.5, 1e4 + 3.5)
        psi = envelope_psi(g, validate_params(2, 4, 0.5), -1.0, bump, bump,
                           X, Y, 0.5, 0.0)
        assert np.all(np.isfinite(psi(np.linspace(1e4 + 1.5, 1e4 + 2.5, 9))))

    def test_envelope_beyond_conjugate_radius(self):
        # d_f reaches pi / sqrt(3) < 2 on X x Y: no NaN may enter the sup
        bump = lambda x: np.exp(-np.asarray(x) ** 2)
        with pytest.raises(PreconditionError):
            envelope_psi(flat_line(), validate_params(2, 4, 0.5), 3.0,
                         bump, bump, (-1.0, -0.2), (0.2, 1.0), 0.5, 0.0)

    def test_p_out_of_range(self):
        g = flat_line()
        p = validate_params(2, 4, 0.5)
        bump = lambda x: np.exp(-np.asarray(x) ** 2)
        with pytest.raises(PreconditionError):
            check_interpolation(g, p, 0.0, bump, bump, bump,
                                (-1, 1), (-1, 1), 0.5,
                                -p.c / (p.c + 1.0) - 0.1, 0, 1e-6)

    def test_bad_hypothesis_rejected(self):
        g = flat_line()
        p = validate_params(2, 4, 0.5)
        bump = lambda x: np.exp(-np.asarray(x) ** 2)
        small = lambda x: 0.5 * np.exp(-np.asarray(x) ** 2)
        with pytest.raises(HypothesisError):
            check_interpolation(g, p, 0.0, bump, bump, small,
                                (-1, 1), (-1, 1), 0.5, 0.0, 0, 1e-6)


class TestPMean:
    def test_conventions(self):
        assert p_mean(0.0, 2.0, 0.5, 1.0) == 0.0
        assert p_mean(3.0, 0.0, 0.5, -1.0) == 0.0
        assert p_mean(2.0, 8.0, 0.5, 0.0) == pytest.approx(4.0)
        assert p_mean(2.0, 8.0, 0.5, math.inf) == 8.0
        assert p_mean(2.0, 8.0, 0.5, -math.inf) == 2.0
        assert p_mean(2.0, 8.0, 0.25, 1.0) == pytest.approx(3.5)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(0.1, 5.0, 2)
            t = rng.uniform(0.1, 0.9)
            ps = [-2.0, -0.5, 0.0, 0.5, 2.0]
            vals = [p_mean(a, b, t, q) for q in ps]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [-math.inf, -0.3, 0.0, 1.0, math.inf])
    def test_elementwise_matches_scalar(self, p):
        a = np.array([0.0, 0.0, 2.0, 0.5, 3.0, 1e-3])
        b = np.array([0.0, 4.0, 0.0, 0.5, 1.5, 7.0])
        vals = p_mean(a, b, 0.3, p)
        assert vals.shape == a.shape
        assert vals.tolist() == [p_mean(float(u), float(v), 0.3, p)
                                 for u, v in zip(a, b)]

    @pytest.mark.parametrize("p", [1e4, 1e6, 1e308])
    def test_large_p_tends_to_the_max(self, p):
        # a^p overflows and (1-t) a^p + t b^p underflows at these p; the
        # mean of the powers once came out inf or 0
        vals = p_mean(np.array([2.0, 1e-3, 8.0]), np.array([8.0, 2e-3, 8.0]),
                      0.5, p)
        np.testing.assert_allclose(vals, [8.0, 2e-3, 8.0],
                                   rtol=math.log(2.0) / p * 1.01)
        assert np.all(vals <= [8.0, 2e-3, 8.0])
        assert p_mean(8.0, 2.0, 0.5, -p) == pytest.approx(
            2.0, rel=1.01 * math.log(2.0) / p)

    def test_conclusion_exponent(self):
        p = validate_params(2, 4, 0.5)
        c = p.c
        q = conclusion_exponent(1.0, p)
        assert q == pytest.approx(c / (1 + 2 * c))
        assert conclusion_exponent(-c / (c + 1.0), p) == -math.inf
        assert conclusion_exponent(math.inf, p) == pytest.approx(c / (c + 1))
        assert conclusion_exponent(1e12, p) == pytest.approx(c / (c + 1))


class TestFunctional:
    @pytest.fixture
    def meridian(self):
        return meridian(S2)

    def test_uniform_density_equalities(self, meridian):
        p = validate_params(2, 2, 1.0)
        rho = density_from_callable(meridian, lambda th: np.ones_like(th))
        hw, te = check_functional(rho, p, 1.0, 0.0, 1e-5)
        assert abs(hw.min_margin) < 1e-9
        assert abs(te.min_margin) < 1e-9

    @pytest.mark.parametrize("a", [0.1, 0.2])
    def test_cosine_perturbation(self, meridian, a):
        p = validate_params(2, 2, 1.0)
        rho = density_from_callable(meridian, lambda th: 1.0 + a * np.cos(th))
        hw, te = check_functional(rho, p, 1.0, 0.0, 1e-5)
        assert hw.verdict == "pass"
        assert hw.min_margin >= -1e-5
        assert te.verdict == "pass"
        assert te.min_margin >= -1e-5

    def test_lsi_margin_order_a_squared(self, meridian):
        # both sides vanish like a^2, and the margin stays nonnegative
        p = validate_params(2, 2, 1.0)
        margins = []
        for a in (0.08, 0.04, 0.02):
            rho = density_from_callable(meridian,
                                        lambda th: 1.0 + a * np.cos(th))
            rep, _ = check_functional(rho, p, 1.0, 0.0, 1e-5)
            margins.append(rep.margins[1])
        assert all(m >= -1e-9 for m in margins)
        assert margins[0] > margins[1] > margins[2] >= 0.0 - 1e-9

    def test_one_coupling_and_one_curvature_pass(self, meridian, monkeypatch):
        # both reports share the hypothesis check and the coupling of (mu, m)
        built, checked = [], []
        init = MonotoneInterpolation.__init__
        monkeypatch.setattr(MonotoneInterpolation, "__init__",
                            lambda self, *args: built.append(args) or
                            init(self, *args))
        monkeypatch.setattr(suites, "_curvature_margins",
                            lambda *args: checked.append(args) or
                            _curvature_margins(*args))
        p = validate_params(2, 2, 1.0)
        rho = density_from_callable(meridian, lambda th: 1.0 + 0.2 * np.cos(th))
        check_functional(rho, p, 1.0, 0.0, 1e-5)
        assert len(built) == 1
        assert len(checked) == 1

    def test_kappa_positive_required(self, meridian):
        p = validate_params(2, 2, 1.0)
        rho = density_from_callable(meridian, lambda th: np.ones_like(th))
        with pytest.raises(PreconditionError) as ei:
            check_functional(rho, p, -1.0, 0.0, 1e-5)
        assert "kappa" in ei.value.failed

    def test_nonconstant_weight_flagged(self):
        g = LineGeometry("quadratic(1)", lo=-2, hi=2, points=2048)
        p = validate_params(2, 10, 0.5)
        rho = density_from_callable(g, lambda x: np.exp(-x**2))
        with pytest.raises(PreconditionError) as ei:
            check_functional(rho, p, 0.5, 10.0, 1e-5)
        assert "constant" in ei.value.failed or "m-constant" in ei.value.failed


# (n, N, eps) in each N regime: N < 0, N = 1 (eps = 0), n < N < inf, N = inf
N_REGIMES = {"N=-2": (2, -2.0, 0.5), "N=1": (2, 1.0, 0.0),
             "N=6": (2, 6.0, 0.5), "N=inf": (2, math.inf, 0.5)}


def _axis_tangent_planes(kind, xs):
    """Axis points with an orthonormal basis (axis tangent, normal) of the
    tangent plane there, written out for each axis."""
    zero, one = np.zeros_like(xs), np.ones_like(xs)
    if kind == "line":
        return (make_space("euclidean", 2), np.stack([xs, zero], -1),
                np.stack([one, zero], -1), np.stack([zero, one], -1))
    s, c = np.sin(xs), np.cos(xs)
    return (make_space("sphere", 2), np.stack([s, zero, c], -1),
            np.stack([c, zero, -s], -1), np.stack([zero, one, zero], -1))


class TestAxisCurvature:
    @pytest.mark.parametrize("regime", list(N_REGIMES))
    @pytest.mark.parametrize("kind, preset", [
        ("line", "zero"), ("line", "linear(1)"), ("line", "quadratic(0.5)"),
        ("line", "quadratic(-0.5)"), ("meridian", "zero"),
        ("meridian", "cosine(0.3)")])
    def test_margin_is_the_worst_direction(self, kind, preset, regime):
        # the two-direction margin equals the minimum of Ric_f^N over 64
        # unit tangent directions, at 20 axis points
        p = validate_params(*N_REGIMES[regime])
        kappa = 0.3
        g = (LineGeometry(preset, points=401) if kind == "line"
             else meridian(S2, preset, 401))
        xs, margins = _curvature_margins(g, p, kappa)
        idx = np.linspace(0, xs.size - 1, 20).astype(int)
        space, pts, e_axis, e_normal = _axis_tangent_planes(kind, xs[idx])
        weight = weight_preset(space, preset)
        phis = 2.0 * np.pi * np.arange(64) / 64
        ric = np.min([ricci_fN_batch(space, weight, p, pts,
                                     (np.cos(phi) * e_axis
                                      + np.sin(phi) * e_normal)[:, None])
                      [:, 0, 0] for phi in phis], axis=0)
        brute = ric - p.inv_c * kappa * np.exp(-2.0 * p.a * weight.eval(pts))
        np.testing.assert_allclose(margins[idx], brute, rtol=0, atol=1e-12)

    def test_meridian_linear_weight_is_not_finite(self):
        # linear(a) = a theta has an infinite Hessian at the pole theta = 0
        g = meridian(S2, "linear(0.3)", 401)
        rho = density_from_callable(g, lambda th: 1.0 + 0.1 * np.cos(th))
        with pytest.raises(PreconditionError, match="not finite") as ei:
            check_twcd(rho, rho, validate_params(2, 6.0, 0.5), 0.5, T_GRID,
                       1e-6)
        assert ei.value.failed == "curvature bound"


# the Ric_f^N formulas the curvature checks took before they shared one
# kernel: one direction at a time (the axis check), and the matrix in
# frame(x) built inline (the space check), with the floor written out
def _ricci_one_direction(space, weight, params, xs, vs):
    n, N = params.n, params.N
    out = (n - 1) * space.sec * np.ones(xs.shape[0]) + np.asarray(
        weight.hess(xs, vs, vs), dtype=float)
    if not math.isinf(N) and N != n:
        gv = space.inner(xs, np.asarray(weight.grad(xs), dtype=float), vs)
        out = out - gv * gv / (N - n)
    return out


def _ricci_in_frame(space, weight, params, xs):
    n, N = params.n, params.N
    frames = space.frame(xs)
    q = (n - 1) * space.sec * np.eye(space.dim) + np.asarray(weight.hess(
        xs[:, None, None], frames[:, :, None], frames[:, None]), dtype=float)
    if not math.isinf(N) and N != n:
        grad = np.asarray(weight.grad(xs), dtype=float)
        g = space.inner(xs[:, None], grad[:, None], frames)
        q = q - g[:, :, None] * g[:, None, :] / (N - n)
    return q


def _floor(params, kappa, f):
    return params.inv_c * kappa * np.exp(-2.0 * params.a * f)


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# (N, eps) in each N regime at dimension n
REGIMES = {"N<0": lambda n: (-2.0, 0.5), "N=1": lambda n: (1.0, 0.0),
           "N=n": lambda n: (float(n), 0.3), "N>n": lambda n: (n + 4.0, 0.5),
           "N=inf": lambda n: (math.inf, 0.5)}
SPACE_PRESETS = {("euclidean", 3): ("zero", "constant(0.7)", "linear(0.5)",
                                    "quadratic(0.3)", "quadratic(-0.4)"),
                 ("sphere", 2): ("zero", "cosine(0.3)", "linear(0.4)",
                                 "quadratic(0.5)"),
                 ("sphere", 3): ("zero", "cosine(0.3)", "linear(0.4)"),
                 ("hyperbolic", 3): ("zero", "linear(0.5)", "quadratic(0.3)")}
AXIS_PRESETS = {("line", 2): ("zero", "constant(0.7)", "linear(1)",
                              "quadratic(0.5)", "quadratic(-0.5)"),
                ("meridian", 2): ("zero", "cosine(0.3)", "linear(0.3)",
                                  "quadratic(0.5)")}


def _constant(preset, kind):
    return preset.startswith(("zero", "constant")) or (
        kind in ("sphere", "meridian") and preset.startswith("quadratic"))


def _grid(presets):
    """(kind, dim, preset, regime) cases; N = n takes constant weights
    only."""
    return [(kind, dim, preset, regime)
            for (kind, dim), names in presets.items() for preset in names
            for regime in REGIMES
            if regime != "N=n" or _constant(preset, kind)]


def _axis(kind, preset):
    return (LineGeometry(preset, points=401) if kind == "line"
            else meridian(S2, preset, 401))


class TestOneRicciKernel:
    @pytest.mark.parametrize("kind, dim, preset, regime",
                             _grid(SPACE_PRESETS))
    def test_space_paths_are_the_old_formulas(self, kind, dim, preset,
                                              regime):
        # one-row frames give the one-direction form, frame(x) the inline
        # matrix, and the curvature check its margins, bit for bit
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        p = validate_params(dim, *REGIMES[regime](dim))
        rng = np.random.default_rng(5)
        xs = sp.sample_point(rng, None, 200)
        vs = sp.sample_unit(rng, xs)
        _same_bits(ricci_fN_batch(sp, w, p, xs, vs[:, None])[:, 0, 0],
                   _ricci_one_direction(sp, w, p, xs, vs))
        _same_bits(ricci_fN_batch(sp, w, p, xs, sp.frame(xs)),
                   _ricci_in_frame(sp, w, p, xs))
        for kappa in (-0.7, 0.0, 0.9):
            rep = check_curvature_bound(sp, w, p, kappa, 200, 7, None, 1e-9)
            xs = sp.sample_point(np.random.default_rng(7), None, 200)
            _same_bits(rep.margins,
                       np.linalg.eigvalsh(_ricci_in_frame(sp, w, p, xs))[:, 0]
                       - _floor(p, kappa, w.eval(xs)))

    @pytest.mark.parametrize("kind, dim, preset, regime",
                             _grid(AXIS_PRESETS))
    def test_axis_path_is_the_old_formula(self, kind, dim, preset, regime):
        g = _axis(kind, preset)
        p = validate_params(dim, *REGIMES[regime](dim))
        points, *frame = g.axis_frame()
        for kappa in (-0.7, 0.0, 0.9):
            xs, margins = _curvature_margins(g, p, kappa)
            with np.errstate(divide="ignore", invalid="ignore"):
                ric = np.min([_ricci_one_direction(g.space, g.weight, p,
                                                   points, vs)
                              for vs in frame], axis=0)
            _same_bits(margins, ric - _floor(p, kappa, g.f_vals))

    @pytest.mark.parametrize("kind, dim, preset, regime",
                             _grid(AXIS_PRESETS))
    def test_axis_frame_diagonalizes_the_form(self, kind, dim, preset,
                                              regime):
        # the axis check reads the least eigenvalue of Ric_f^N off its
        # diagonal in (tangent, normal); the meridian's linear(a) is
        # singular at the poles, so the grid ends are left out
        g = _axis(kind, preset)
        p = validate_params(dim, *REGIMES[regime](dim))
        points, tangent, normal = (a[1:-1] for a in g.axis_frame())
        q = ricci_fN_batch(g.space, g.weight, p, points,
                           np.stack([tangent, normal], axis=1))
        assert np.all(np.isfinite(q))
        assert np.all(q[:, 0, 1] == 0.0) and np.all(q[:, 1, 0] == 0.0)
