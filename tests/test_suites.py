import math

import numpy as np
import pytest

from cdcheck.coefficients import log_beta
from cdcheck.errors import HypothesisError, PreconditionError
from cdcheck.ot import (LineGeometry, MeridianGeometry, density_from_callable,
                        entropy_functional)
from cdcheck.params import s_kappa, validate_params
from cdcheck.spaces import (constant_weight, make_space, ricci_fN_batch,
                            weight_preset)
from cdcheck.suites import (RegionPair, _curvature_margins,
                            check_brunn_minkowski, check_hwi_lsi,
                            check_interpolation, check_transport_energy,
                            check_twcd, conclusion_exponent, envelope_psi,
                            p_mean)


def flat_line(points=4096, lo=-2.0, hi=2.0):
    return LineGeometry("zero", lo=lo, hi=hi, points=points)


def quad_line(a=0.5, points=4096, lo=-2.0, hi=2.0):
    return LineGeometry(f"quadratic({a})", lo=lo, hi=hi, points=points)


T_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]


class TestTwCD:
    def test_equal_endpoints_zero_margin(self):
        g = quad_line()
        p = validate_params(2, 10, 0.5)
        rho = density_from_callable(g, lambda x: np.exp(-2 * x**2))
        rep = check_twcd(rho, rho, p, 0.0, [0.3, 0.5, 0.7])
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
        rep = check_twcd(r0, r1, p, kappa, T_GRID)
        assert rep.verdict == "pass"

        from cdcheck.ot import MonotoneInterpolation

        mi = MonotoneInterpolation(r0, r1)
        K = (n - 1) * kappa  # Ric lower bound entering the classical check
        # classical CD(K, N) coefficients sigma^{(t)}(d) over the monotone
        # coupling (Q_0(u), Q_1(u)) in the mass coordinate u
        d = np.abs(mi.Q1 - mi.Q0)
        sd = np.where(d > 1e-14, d, 1e-14)
        for row in rep.provenance["rows"]:
            t = row["t"]
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
            assert row["rhs"] == pytest.approx(rhs_classical, abs=1e-9)

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
                          self.FINE_T)

    def test_pair2_converged_margin(self):
        # the source-grid pushforward read 4.40e-3 here, 55% above the limit
        rep = self._pair_margin(self.PAIRS[2], 8192)
        assert rep.min_margin == pytest.approx(2.8385e-3, abs=1e-7)

    def test_criterion5_margins_grid_independent(self):
        for pair in self.PAIRS:
            coarse = self._pair_margin(pair, 8192).margins
            fine = self._pair_margin(pair, 16384).margins
            assert np.max(np.abs(np.subtract(coarse, fine))) < 1e-7

    def test_wide_window_endpoint_entropy(self):
        # rho_0 has tail mass where rho_1 has almost none; the source-grid
        # pushforward read -764 for the lhs at t = 0.99
        g = quad_line(points=16384, lo=-4.0, hi=4.0)
        p = validate_params(2, 10, 0.5)
        r0, r1 = self._bumps(g, self.PAIRS[2])
        rep = check_twcd(r0, r1, p, -1.0, [0.99])
        lhs = rep.provenance["rows"][0]["lhs"]
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
        rep = check_twcd(r0, r1, p, 0.0, T_GRID)
        L0, L1 = (X[1] - X[0]) / 4.0, (Y[1] - Y[0]) / 4.0
        r = p.c / (p.c + 1.0)
        for row in rep.provenance["rows"]:
            t = row["t"]
            ref = ((p.c + 1.0) / p.c * (((1 - t) * L0 + t * L1) ** r
                                        - (1 - t) * L0**r - t * L1**r))
            assert abs(row["margin"] - ref) <= tol

    def test_meridian_margins_grid_independent(self):
        p = validate_params(2, 6.0, 0.5)
        margins = []
        for points in (4096, 16384):
            g = MeridianGeometry("zero", points)
            r0 = density_from_callable(g, lambda th: 1.0 + 0.2 * np.cos(th))
            r1 = density_from_callable(
                g, lambda th: np.exp(-0.5 * ((th - 1.2) / 0.4) ** 2))
            margins.append(check_twcd(r0, r1, p, 0.5, T_GRID).margins)
        assert np.all(np.isfinite(margins))
        assert np.max(np.abs(np.subtract(*margins))) < 1e-6

    def test_weighted_pipeline(self):
        g = quad_line(a=1.0)
        p = validate_params(2, 10, 0.5)
        kappa = -1.0
        r0 = density_from_callable(g, lambda x: np.exp(-3 * (x - 0.3) ** 2))
        r1 = density_from_callable(g, lambda x: np.exp(-2 * (x + 0.5) ** 2))
        rep = check_twcd(r0, r1, p, kappa, T_GRID)
        assert rep.verdict == "pass"
        assert rep.min_margin >= -1e-6

    def test_curvature_precondition(self):
        g = quad_line(a=0.2)
        p = validate_params(2, 10, 0.5)
        r0 = density_from_callable(g, lambda x: np.exp(-3 * x**2))
        with pytest.raises(PreconditionError):
            check_twcd(r0, r0, p, 5.0, [0.5])

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_endpoint_t_rejected(self, t):
        # beta_t needs t in ]0, 1[; t = 0 or 1 once gave a NaN margin and
        # a false fail
        g = flat_line(points=1024)
        p = validate_params(2, 10, 0.5)
        r0 = density_from_callable(g, lambda x: np.exp(-3 * (x - 0.3) ** 2))
        r1 = density_from_callable(g, lambda x: np.exp(-2 * (x + 0.5) ** 2))
        with pytest.raises(ValueError, match=r"\]0,1\["):
            check_twcd(r0, r1, p, -1.0, [t, 0.5])


class TestBrunnMinkowski:
    def test_flat_balls_classical(self):
        sp = make_space("euclidean", 3)
        p = validate_params(3, 3, 1.0)
        pair = RegionPair({"kind": "ball", "radius": 0.4},
                          {"kind": "ball", "radius": 1.0}, 0.3)
        rep = check_brunn_minkowski(pair, sp, constant_weight(0.0), p, 0.0)
        assert rep.verdict == "pass"

    def test_equal_regions_equality(self):
        g = flat_line()
        p = validate_params(2, 4, 0.5)
        pair = RegionPair({"kind": "interval", "bounds": (-0.5, 0.5)},
                          {"kind": "interval", "bounds": (-0.5, 0.5)}, 0.37)
        rep = check_brunn_minkowski(pair, g, None, p, 0.0)
        assert abs(rep.min_margin) < 1e-9

    def test_weighted_intervals_negative_kappa(self):
        g = LineGeometry("linear(1)", lo=-2.0, hi=2.0, points=4096)
        p = validate_params(2, 6, 0.4)
        pair = RegionPair({"kind": "interval", "bounds": (-1.0, -0.3)},
                          {"kind": "interval", "bounds": (0.3, 1.0)}, 0.5)
        rep = check_brunn_minkowski(pair, g, None, p, -2.5)
        assert rep.verdict == "pass"
        assert rep.min_margin >= -1e-6

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["interval", "ball"])
    def test_endpoint_t_rejected(self, kind, t):
        p = validate_params(2, 10, 0.5)
        if kind == "interval":
            X, Y = ({"kind": kind, "bounds": b} for b in ((-1.0, -0.3),
                                                          (0.3, 1.0)))
            where = (flat_line(points=1024), None)
        else:
            X, Y = ({"kind": kind, "radius": r} for r in (0.4, 1.0))
            where = (make_space("euclidean", 2), constant_weight(0.0))
        with pytest.raises(ValueError, match=r"\]0,1\["):
            check_brunn_minkowski(RegionPair(X, Y, t), *where, p, -1.0)


class TestInterpolationInequality:
    def test_same_bump_equality(self):
        # beta = 1 when kappa = 0 and f = 0: psi0=psi1=psi gives equality
        g = flat_line()
        p = validate_params(2, 4, 0.5)
        bump = lambda x: np.exp(-4.0 * np.asarray(x) ** 2)
        X = Y = (-1.5, 1.5)
        t = 0.5
        for pp in (0.0, -0.4):
            rep = check_interpolation(g, p, 0.0, bump, bump, bump,
                                      X, Y, t, pp, samples=2000, seed=1)
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
                                  X, Y, t, 0.0, seed=0)
        assert rep.verdict == "pass"
        assert rep.min_margin >= -1e-6

    @pytest.mark.parametrize("t", [0.3, 0.5])
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, math.inf])
    def test_envelope_is_the_sup(self, p, t):
        # at 32 of the envelope's z nodes, against the max over 2^16 x
        g = quad_line()
        params = validate_params(2, 10.0, 0.5)
        kappa = -1.0
        X, Y = (-1.0, -0.2), (0.2, 1.0)
        psi0 = lambda x: np.exp(-0.5 * ((x + 0.6) / 0.3) ** 2)
        psi1 = lambda y: np.exp(-0.5 * ((y - 0.6) / 0.3) ** 2)
        psi = envelope_psi(g, params, kappa, psi0, psi1, X, Y, t, p, 0.0)
        zs = np.linspace((1 - t) * X[0] + t * Y[0],
                         (1 - t) * X[1] + t * Y[1], 4096)[::128]
        for z in zs:
            x = np.linspace(max(X[0], (z - t * Y[1]) / (1 - t)),
                            min(X[1], (z - t * Y[0]) / (1 - t)), 2**16)
            y = np.clip((z - (1 - t) * x) / t, *Y)
            d_full = g.reparam_partial(params, x, y, 1.0)
            d_t = g.reparam_partial(params, x, y, t)
            b_fwd = np.exp(log_beta(params, kappa, d_t, d_full, t))
            b_rev = np.exp(log_beta(params, kappa, d_full - d_t, d_full,
                                    1 - t))
            brute = p_mean(psi0(x) / b_rev, psi1(y) / b_fwd, t, p).max()
            assert brute * (1 - 1e-12) <= psi(z) <= brute * (1 + 1e-8)

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
                                -p.c / (p.c + 1.0) - 0.1)

    def test_bad_hypothesis_rejected(self):
        g = flat_line()
        p = validate_params(2, 4, 0.5)
        bump = lambda x: np.exp(-np.asarray(x) ** 2)
        small = lambda x: 0.5 * np.exp(-np.asarray(x) ** 2)
        with pytest.raises(HypothesisError):
            check_interpolation(g, p, 0.0, bump, bump, small,
                                (-1, 1), (-1, 1), 0.5, 0.0)


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
        return MeridianGeometry()

    def test_uniform_density_equalities(self, meridian):
        p = validate_params(2, 2, 1.0)
        rho = density_from_callable(meridian, lambda th: np.ones_like(th))
        hw = check_hwi_lsi(rho, p, 1.0, 0.0)
        assert abs(hw.min_margin) < 1e-9
        te = check_transport_energy(rho, p, 1.0)
        assert abs(te.min_margin) < 1e-9

    @pytest.mark.parametrize("a", [0.1, 0.2])
    def test_cosine_perturbation(self, meridian, a):
        p = validate_params(2, 2, 1.0)
        rho = density_from_callable(meridian, lambda th: 1.0 + a * np.cos(th))
        hw = check_hwi_lsi(rho, p, 1.0, 0.0)
        assert hw.verdict == "pass"
        assert hw.min_margin >= -1e-5
        te = check_transport_energy(rho, p, 1.0)
        assert te.verdict == "pass"
        assert te.min_margin >= -1e-5

    def test_lsi_margin_order_a_squared(self, meridian):
        # both sides vanish like a^2, and the margin stays nonnegative
        p = validate_params(2, 2, 1.0)
        margins = []
        for a in (0.08, 0.04, 0.02):
            rho = density_from_callable(meridian,
                                        lambda th: 1.0 + a * np.cos(th))
            rep = check_hwi_lsi(rho, p, 1.0, 0.0)
            margins.append(rep.margins[1])
        assert all(m >= -1e-9 for m in margins)
        assert margins[0] > margins[1] > margins[2] >= 0.0 - 1e-9

    def test_kappa_positive_required(self, meridian):
        p = validate_params(2, 2, 1.0)
        rho = density_from_callable(meridian, lambda th: np.ones_like(th))
        with pytest.raises(PreconditionError) as ei:
            check_hwi_lsi(rho, p, -1.0, 0.0)
        assert "kappa" in ei.value.failed

    def test_nonconstant_weight_flagged(self):
        g = LineGeometry("quadratic(1)", lo=-2, hi=2, points=2048)
        p = validate_params(2, 10, 0.5)
        rho = density_from_callable(g, lambda x: np.exp(-x**2))
        with pytest.raises(PreconditionError) as ei:
            check_hwi_lsi(rho, p, 0.5, 10.0)
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
             else MeridianGeometry(preset, points=401))
        xs, margins = _curvature_margins(g, p, kappa)
        idx = np.linspace(0, xs.size - 1, 20).astype(int)
        space, pts, e_axis, e_normal = _axis_tangent_planes(kind, xs[idx])
        weight = weight_preset(space, preset)
        phis = 2.0 * np.pi * np.arange(64) / 64
        ric = np.min([ricci_fN_batch(space, weight, p, pts,
                                     np.cos(phi) * e_axis
                                     + np.sin(phi) * e_normal)
                      for phi in phis], axis=0)
        brute = ric - p.inv_c * kappa * np.exp(-2.0 * p.a * weight.eval(pts))
        np.testing.assert_allclose(margins[idx], brute, rtol=0, atol=1e-12)

    def test_meridian_linear_weight_is_not_finite(self):
        # linear(a) = a theta has an infinite Hessian at the pole theta = 0
        g = MeridianGeometry("linear(0.3)", points=401)
        rho = density_from_callable(g, lambda th: 1.0 + 0.1 * np.cos(th))
        with pytest.raises(PreconditionError, match="not finite") as ei:
            check_twcd(rho, rho, validate_params(2, 6.0, 0.5), 0.5, T_GRID)
        assert ei.value.failed == "curvature bound"
