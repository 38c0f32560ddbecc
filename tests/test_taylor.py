"""Series-expansion checks: remainder bounds, exact reductions, and the F
identity."""

import math

import numpy as np
import pytest

from cdcheck import taylor
from cdcheck.coefficients import _log_beta_pair, beta
from cdcheck.errors import PreconditionError
from cdcheck.params import s_kappa, validate_params
from cdcheck.reparam import reparam_partial
from cdcheck.spaces import (GRAD_POINTS, constant_weight, make_space,
                            weight_preset)
from cdcheck.taylor import (NOISE_FLOOR, TERMS, check_F_identity,
                            check_limit_bound, check_series, f_of_theta,
                            series_margins, theta_eps)

EUC3 = make_space("euclidean", 3)
SPHERE = make_space("sphere", 2, radius=1.0)


def euc_ray():
    x = np.array([0.2, -0.1, 0.3])
    v = np.array([2.0, 1.0, -2.0]) / 3.0
    return x, v


def meridian_ray():
    x = np.array([0.0, np.sin(1.1), np.cos(1.1)])
    v = np.array([0.0, np.cos(1.1), -np.sin(1.1)])
    return x, v


def series(space, w, p, kappa, x, v):
    """{term: (deltas, exact, series, margin)} of one check_series call."""
    terms, deltas, exact, approx = check_series(space, w, p, kappa, x, v)
    margins = series_margins(deltas, exact, approx)
    return {term: (deltas, exact[k], approx[k], margins[k])
            for k, term in enumerate(terms)}


def one_margin(deltas, exact, approx) -> float:
    """`series_margins` of one row."""
    return float(series_margins(deltas, exact[None], approx[None])[0])


class TestSeriesSlopes:
    @pytest.mark.parametrize("term", TERMS)
    def test_euclidean_quadratic_weight(self, term):
        p = validate_params(3, 9, 0.4)
        w = weight_preset(EUC3, "quadratic(0.3)")
        x, v = euc_ray()
        margin = series(EUC3, w, p, -0.7, x, v)[term][3]
        assert margin >= 0.0, f"{term}: margin {margin:.3f}"

    @pytest.mark.parametrize("term", TERMS)
    def test_sphere_cosine_weight(self, term):
        p = validate_params(3, 12, 0.5)
        w = weight_preset(SPHERE, "cosine(0.4)")
        x, v = meridian_ray()
        margin = series(SPHERE, w, p, 0.8, x, v)[term][3]
        assert margin >= 0.0, f"{term}: margin {margin:.3f}"

    def test_verdict_stable_under_grid_trim(self):
        # dropping the coarsest offset must not change the verdict: the
        # offsets 2^-4 .. 2^-12 of the stack, and 2^-5 .. 2^-12
        p = validate_params(3, 9, 0.4)
        w = weight_preset(EUC3, "quadratic(0.3)")
        x, v = euc_ray()
        deltas, exact, approx, _ = series(EUC3, w, p, -0.7, x, v)["app2_fwd"]
        full = one_margin(deltas[:9], exact[:9], approx[:9])
        trim = one_margin(deltas[1:9], exact[1:9], approx[1:9])
        assert full >= 0.0 and trim >= 0.0


class TestCubicBound:
    """The margin of one row of `series_margins` on synthetic remainders."""

    @staticmethod
    def margin(rem):
        deltas = np.array([2.0 ** -k for k in range(4, 15)])
        return one_margin(deltas, rem(deltas), np.zeros_like(deltas))

    def test_cubic_with_sign_change_passes(self):
        # the remainder changes sign near delta = 2e-3, inside the grid
        assert self.margin(lambda d: -2e-3 * d**3 + d**4) > 0.0

    def test_quadratic_fails(self):
        assert self.margin(lambda d: 1e-3 * d**2) < 0.0

    def test_below_noise_floor_is_zero(self):
        assert self.margin(lambda d: 1e-16 * np.sin(d)) == 0.0

    def test_non_finite_remainder_fails(self):
        # one NaN must not turn the noise floor into NaN and pass at 0.0
        margin = self.margin(lambda d: np.where(d == 2.0**-10, np.nan, d**2))
        assert math.isnan(margin)
        deltas = np.array([2.0 ** -k for k in range(4, 15)])
        exact = np.where(deltas == 2.0**-4, np.inf, 0.0)
        assert not one_margin(deltas, exact, np.zeros_like(deltas)) >= 0.0

    def test_stack_is_the_per_term_margin(self):
        # the synthetic cases above (sign change, quadratic, noise floor,
        # NaN, inf), a remainder above the floor only at the two largest
        # offsets (no reference) and the rows of a real call, as one stack
        deltas = np.array([2.0 ** -k for k in range(4, 15)])
        rems = [-2e-3 * deltas**3 + deltas**4, 1e-3 * deltas**2,
                1e-16 * np.sin(deltas),
                np.where(deltas == 2.0**-10, np.nan, deltas**2),
                np.where(deltas == 2.0**-4, np.inf, 0.0),
                np.where(deltas >= 2.0**-5, 1e-3, 0.0)]
        exact = np.array(rems)
        series = np.zeros_like(exact)
        p = validate_params(3, 9, 0.4)
        _, got_deltas, real_exact, real_series = check_series(
            EUC3, weight_preset(EUC3, "quadratic(0.3)"), p, -0.7, *euc_ray())
        assert np.array_equal(got_deltas, deltas)
        exact = np.vstack([exact, real_exact])
        series = np.vstack([series, real_series])
        got = series_margins(deltas, exact, series)
        want = [_margin_per_term(deltas, e, s) for e, s in zip(exact, series)]
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(want[3:5]).all() and want[2] == want[5] == 0.0
        for e, s, m in zip(exact, series, want):
            one = one_margin(deltas, e, s)
            assert one == m or math.isnan(one) and math.isnan(m)


def _margin_per_term(deltas, exact, series) -> float:
    """The margin of one term, one offset at a time: the reference
    the stacked margins keep."""
    rem = np.abs(exact - series)
    if not np.all(np.isfinite(rem)):
        return math.nan
    live = rem > NOISE_FLOOR * float(np.max(1.0 + np.abs(exact)))
    if not live.any():
        return 0.0
    q = rem / deltas**3
    d0 = deltas[live].min()
    ref = q[live & np.isin(deltas, (8.0 * d0, 16.0 * d0))]
    if not ref.size:
        return 0.0
    return float(1.0 - q[deltas == d0][0] / (4.0 * ref.max()))


class TestSharedDistances:
    def test_one_distance_pair_per_delta(self, monkeypatch):
        p = validate_params(3, 9, 0.4)
        w = weight_preset(EUC3, "quadratic(0.3)")
        x, v = euc_ray()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3:7])
            return reparam_partial(*args, **kwargs)

        monkeypatch.setattr(taylor, "reparam_partial", counted)
        terms, deltas, _, _ = check_series(EUC3, w, p, -0.7, x, v)
        assert terms == TERMS
        # one stacked call: every offset's segment, from gamma(delta) back
        # along the geodesic for 2 delta, at fractions 1/2 and 1
        assert len(calls) == 1
        starts, directions, lengths, ts = calls[0]
        assert lengths.tolist() == (2.0 * deltas).tolist()
        assert np.array_equal(starts, EUC3.geodesic(x, v, deltas))
        assert np.array_equal(directions, -EUC3.velocity(x, v, deltas))
        assert ts == [[0.5], [1.0]]


class TestExactReductions:
    def test_zero_weight_zero_kappa_app1_exact(self):
        # unweighted flat space: the re-parametrized distance is the
        # distance itself and every series term is exact
        p = validate_params(3, 9, 0.4)
        w = constant_weight()
        x, v = euc_ray()
        checks = series(EUC3, w, p, 0.0, x, v)
        for term in ("app1_fwd", "app1_rev", "app1_full"):
            _, exact, approx, margin = checks[term]
            assert np.max(np.abs(exact - approx)) < 1e-12
            assert margin >= 0.0

    @pytest.mark.parametrize("kind, dim", [("euclidean", 3), ("sphere", 2),
                                           ("hyperbolic", 3)])
    def test_constant_weight_app1_full_is_exact(self, kind, dim):
        # d_f of a constant weight is e^{-a f} times the segment's length,
        # which is 2 delta as given, not as a log map recovers it
        sp = make_space(kind, dim)
        p = validate_params(dim, 3 * dim, 0.4)
        rng = np.random.default_rng(9)
        x = sp.sample_point(rng)
        v = sp.sample_unit(rng, x)
        terms, deltas, exact, _ = check_series(sp, constant_weight(0.7), p,
                                               0.5, x, v)
        want = math.exp(-p.a * 0.7) * (2.0 * deltas)
        assert exact[terms.index("app1_full")].tobytes() == want.tobytes()

    def test_constant_weight_app2_only_kappa_term(self):
        # grad f = 0 kills the odd term; beta - 1 is pure curvature
        p = validate_params(3, 9, 0.4)
        w = constant_weight(0.7)
        x, v = euc_ray()
        deltas, _, approx, margin = series(EUC3, w, p, -0.5, x, v)["app2_fwd"]
        assert margin >= 0.0
        # the claimed quadratic coefficient: inv_c kappa e^{-2 a f} / 2
        coef = (approx[0] - 1.0) / deltas[0] ** 2
        expected = 0.5 * p.inv_c * (-0.5) * math.exp(-2.0 * p.a * 0.7)
        assert coef == pytest.approx(expected, rel=1e-12)

    def test_app2_is_beta_of_the_pair(self):
        # beta_{kappa,1/2} between gamma(delta) and gamma(-delta), either way
        p = validate_params(3, 9, 0.4)
        w = weight_preset(EUC3, "quadratic(0.3)")
        x, v = euc_ray()
        checks = series(EUC3, w, p, -0.7, x, v)
        deltas, fwd = checks["app2_fwd"][:2]
        rev = checks["app2_rev"][1]
        for i in (0, 3):
            yp, ym = (EUC3.geodesic(x, v, s * deltas[i]) for s in (1, -1))
            length = 2.0 * deltas[i]
            assert fwd[i] == pytest.approx(
                beta(EUC3, w, p, -0.7, 0.5, yp, -v, length), rel=1e-9)
            assert rev[i] == pytest.approx(
                beta(EUC3, w, p, -0.7, 0.5, ym, v, length), rel=1e-9)

    def test_app3_matches_weight_ratio(self):
        p = validate_params(3, 9, 0.4)
        w = weight_preset(EUC3, "linear(0.6)")
        x, v = euc_ray()
        deltas, exact, _, margin = series(EUC3, w, p, 0.0, x, v)["app3_fwd"]
        y = EUC3.geodesic(x, v, -deltas[0])
        assert exact[0] == pytest.approx(
            math.exp(-float(w.eval(y)) + float(w.eval(x))), abs=1e-14)
        assert margin >= 0.0

    def test_app4_is_binomial(self):
        # exact (1 + theta d)^n against its quadratic truncation: the
        # remainder is the exact binomial tail theta^3 delta^3 for n = 3, so
        # |remainder| / delta^3 is constant and the margin is 1 - 1/4
        p = validate_params(3, 9, 0.4)
        w = weight_preset(EUC3, "linear(0.6)")
        x, v = euc_ray()
        deltas, exact, approx, margin = series(EUC3, w, p, 0.0, x,
                                               v)["app4_fwd"]
        th = theta_eps(p, float(np.dot(w.grad(x), v)))
        tail = (1.0 + th * deltas) ** 3 - approx
        assert np.allclose(exact - approx, tail, atol=1e-15)
        assert margin == pytest.approx(0.75, abs=0.02)


# (N, eps) in each N regime at dimension n; N = n takes constant weights
REGIMES = {"N<0": lambda n: (-2.0, 0.5), "N=1": lambda n: (1.0, 0.0),
           "N=n": lambda n: (float(n), 0.3), "N>n": lambda n: (n + 4.0, 0.5),
           "N=inf": lambda n: (math.inf, 0.5)}
PRESETS = {("euclidean", 3): ("zero", "constant(0.7)", "linear(0.5)",
                              "quadratic(0.3)", "quadratic(-0.4)"),
           ("sphere", 2): ("zero", "cosine(0.3)", "linear(0.4)"),
           ("hyperbolic", 3): ("zero", "linear(0.5)", "quadratic(0.3)")}
SERIES_CASES = [(kind, dim, preset, regime)
                for (kind, dim), names in PRESETS.items() for preset in names
                for regime in REGIMES if regime != "N=n"
                or preset.startswith(("zero", "constant"))]


def _ten_formulas(space, weight, params, kappa, x, v):
    """{term: (exact, series)}: each TERM written out on its own, as
    check_series had them, one formula per term and direction."""
    d = 2.0 ** -np.arange(4.0, 15.0)
    fx = float(weight.eval(x))
    gfv = float(space.inner(x, np.asarray(weight.grad(x), dtype=float), v))
    hvv = float(weight.hess(x, v, v))
    a, n, c = params.a, params.n, params.c
    alpha = 0.5 * a
    e0 = math.exp(-a * fx)
    kap_eff = params.inv_c * kappa * math.exp(-2.0 * a * fx)
    A = (2.0 * alpha**2 * gfv**2 / 3.0) - (alpha * hvv / 3.0)
    d_half, d_full = reparam_partial(
        space, weight, params, space.geodesic(x, v, d),
        -space.velocity(x, v, d), 2.0 * d, [[0.5], [1.0]], rel_tol=1e-13)
    b_rev, b_fwd = np.exp(_log_beta_pair(
        params, kappa, d_full, 0.5, s_kappa(kappa, d_full - d_half),
        s_kappa(kappa, d_half), s_kappa(kappa, d_full)))
    f_pm = weight.eval(space.geodesic(x, v, np.concatenate([d, -d])))
    w_rev, w_fwd = np.exp(fx - f_pm.reshape(2, -1))
    g2 = params.inv_c * alpha * gfv
    coef2 = kap_eff + (1.0 - c) * g2**2
    rows = {
        "app1_fwd": (d_half, e0 * d * (1.0 - alpha * gfv * d + A * d * d)),
        "app1_rev": (d_full - d_half,
                     e0 * d * (1.0 + alpha * gfv * d + A * d * d)),
        "app1_full": (d_full, 2.0 * e0 * d * (1.0 + A * d * d)),
        "app2_fwd": (b_fwd, 1.0 + -g2 * d + 0.5 * coef2 * d * d),
        "app2_rev": (b_rev, 1.0 + g2 * d + 0.5 * coef2 * d * d),
        "app3_fwd": (w_fwd, 1.0 + gfv * d + 0.5 * (gfv**2 - hvv) * d * d),
        "app3_rev": (w_rev, 1.0 + -gfv * d + 0.5 * (gfv**2 - hvv) * d * d)}
    if params.eps == 0.0:
        return rows
    th = theta_eps(params, gfv)
    for term, sth in (("app4_fwd", th), ("app4_rev", -th)):
        rows[term] = ((1.0 + sth * d) ** n,
                      1.0 + n * sth * d + 0.5 * n * (n - 1) * sth**2 * d * d)
    cr = params.c_ratio
    left = (w_fwd * (1.0 + th * d) ** n * b_fwd) ** cr
    right = (w_rev * (1.0 - th * d) ** n * b_rev) ** cr
    F = f_of_theta(params, gfv, th)
    rows["app6"] = (0.5 * (left + right),
                    1.0 + cr * (kap_eff - hvv - F / (c + 1.0)) * 0.5 * d * d)
    return rows


class TestSignedOffsets:
    @pytest.mark.parametrize("kind, dim, preset, regime", SERIES_CASES)
    def test_rows_are_the_ten_formulas(self, kind, dim, preset, regime):
        # the signed-offset rows equal the per-term formulas bit for bit
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        p = validate_params(dim, *REGIMES[regime](dim))
        rng = np.random.default_rng(9)
        x = sp.sample_point(rng)
        v = sp.sample_unit(rng, x)
        for kappa in (-0.7, 0.0, 0.9):
            terms, deltas, exact, approx = check_series(sp, w, p, kappa, x, v)
            want = _ten_formulas(sp, w, p, kappa, x, v)
            assert terms == tuple(want) == TERMS[:len(want)]
            assert len(terms) == (7 if regime == "N=1" else 10)
            assert np.array_equal(deltas, 2.0 ** -np.arange(4.0, 15.0))
            for got, k in ((exact, 0), (approx, 1)):
                rows = np.array([pair[k] for pair in want.values()])
                assert got.shape == rows.shape
                assert got.tobytes() == rows.tobytes()


class TestThetaEps:
    def test_eps_zero_rejected(self):
        p = validate_params(3, 9, 0.0)
        with pytest.raises(PreconditionError):
            theta_eps(p, 0.5)

    def test_n_equals_N_needs_flat_gradient(self):
        p = validate_params(3, 3, 0.4)
        assert theta_eps(p, 0.0) == 0.0
        with pytest.raises(PreconditionError):
            theta_eps(p, 0.5)

    def test_classical_value(self):
        # eps = eps0 makes theta vanish regardless of the gradient
        n, N = 3, 0
        eps0 = (N - 1) / (N - n)
        p = validate_params(n, N, eps0)
        assert theta_eps(p, 0.73) == pytest.approx(0.0, abs=1e-15)


class TestFIdentity:
    def test_identity_on_grid(self):
        p = validate_params(3, 9, 0.4)
        for g in (0.0, 0.3, -1.2):
            rep = check_F_identity(p, g, np.linspace(-2.0, 2.0, 41))
            assert rep.verdict == "pass"

    def test_zero_gradient_reduction(self):
        # g = 0: F(theta) = n (n - (n-1)(c+1)) theta^2 and the identity
        # collapses to n eps^2 / eps0 theta^2
        p = validate_params(3, 9, 0.4)
        n, c = p.n, p.c
        for th in (0.0, 0.5, -1.3):
            assert f_of_theta(p, 0.0, th) == pytest.approx(
                n * (n - (n - 1) * (c + 1)) * th * th, abs=1e-12)
            assert f_of_theta(p, 0.0, th) == pytest.approx(
                (n / p.eps0) * (p.eps * th) ** 2, abs=1e-12)

    @pytest.mark.parametrize("n, N, eps, g", [
        (3, 9.0, 0.4, 0.7), (2, 6.0, 0.5, 0.7), (3, math.inf, -0.3, -1.1),
        (4, -2.0, 0.6, 0.25)])
    def test_grid_is_the_per_theta_identity(self, n, N, eps, g):
        # one array for the grid, every margin the float of the loop over
        # theta in float arithmetic (where theta ** 2 is libm's pow)
        p = validate_params(n, N, eps)
        grid = np.concatenate([np.linspace(-3.0, 3.0, 101),
                               np.random.default_rng(2).normal(0, 3, 5000)])
        c, alpha, want = p.c, (1.0 - eps) / (n - 1.0), []
        for th in grid.tolist():
            lhs = (n * (n - (n - 1.0) * (c + 1.0)) * th**2
                   + 2.0 * n * (alpha - c) * g * th
                   + (alpha**2 + 2.0 * alpha - c) * g**2)
            if not math.isinf(N):
                lhs += (c + 1.0) * g**2 / (N - n)
            rhs = (n / p.eps0) * (p.eps * th + (p.eps - p.eps0) * g
                                  / (n - 1.0)) ** 2
            want.append(1e-10 - abs(lhs - rhs))
        assert check_F_identity(p, g, grid).margins == want

    def test_infinite_N(self):
        p = validate_params(3, math.inf, 0.4)
        rep = check_F_identity(p, 0.8, [0.0, 0.7, -0.7])
        assert rep.verdict == "pass"

    def test_N_equals_n_rejected(self):
        # eps0 is infinite exactly at N = n
        p = validate_params(3, 3, 0.4)
        with pytest.raises(PreconditionError) as exc:
            check_F_identity(p, 0.2, [0.1])
        assert exc.value.failed == "0 < eps0 < inf"

    def test_N_equals_1_rejected(self):
        # eps0 = 0 at N = 1: the identity's right-hand side divides by it
        p = validate_params(2, 1, 0.0)
        with pytest.raises(PreconditionError) as exc:
            check_F_identity(p, 0.2, [0.1])
        assert exc.value.failed == "0 < eps0 < inf"


class TestLimitBound:
    def test_constant_weight_bound_is_tight(self):
        # zero gradient: both the deviation and the bound vanish
        p = validate_params(3, 9, 0.4)
        rep = check_limit_bound(EUC3, constant_weight(0.3), p, *euc_ray())
        assert rep.verdict == "pass"

    def test_linear_weight_plane(self):
        p = validate_params(2, 6, 0.5)
        e2 = make_space("euclidean", 2)
        w = weight_preset(e2, "linear(0.8)")
        rep = check_limit_bound(e2, w, p, np.array([0.1, -0.2]),
                                np.array([0.6, 0.8]))
        assert rep.verdict == "pass"

    def test_bound_past_float_range_reads_inf(self):
        # |grad f| = 6000 puts |a| A L past the float range at L = 0.5,
        # which raised OverflowError; along e2 f is constant, so every
        # deviation is 0 and the bound holds at every level
        w = weight_preset(EUC3, "linear(6000)")
        rep = check_limit_bound(EUC3, w, validate_params(3, 9, 0.4),
                                np.zeros(3), np.array([0.0, 1.0, 0.0]))
        assert rep.margins[0] == math.inf
        assert all(math.isfinite(m) for m in rep.margins[1:])
        assert rep.verdict == "pass"

    def test_sphere_cosine_meridian(self):
        p = validate_params(3, 12, 0.5)
        w = weight_preset(SPHERE, "cosine(0.4)")
        rep = check_limit_bound(SPHERE, w, p, *meridian_ray())
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("kind, dim, preset", [
        ("euclidean", 3, "quadratic(0.6)"), ("sphere", 2, "cosine(0.4)"),
        ("hyperbolic", 3, "linear(0.5)")])
    def test_report_equals_per_point_loop(self, kind, dim, preset):
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        p = validate_params(dim, 3 * dim, 0.4)
        rng = np.random.default_rng(21)
        x = sp.sample_point(rng)
        v = sp.sample_unit(rng, x)
        rep = check_limit_bound(sp, w, p, x, v)
        # the sup of |grad f| over the GRAD_POINTS grid points of the pairs'
        # segment gamma_v([0, 0.5]), one point at a time
        sup = 0.0
        for s in np.linspace(0.0, 0.5, GRAD_POINTS):
            pt = sp.geodesic(x, v, s)
            sup = max(sup, sp.norm(pt, w.grad(pt)))
        assert rep.provenance["grad_sup"] == sup
        assert (rep.provenance["t"], rep.provenance["r"]) == (0.5, 0.5)
        # per level, the margin of |d_t/(t d_f) - 1| <= |a| A e^{|a| A L} L,
        # A = (1-t) sup, from one-segment distances
        want = []
        for j in range(8):
            length = 0.5 * 2.0**-j
            d_full = reparam_partial(sp, w, p, x, v, length, 1.0)
            d_t = reparam_partial(sp, w, p, x, v, length, 0.5)
            aa = abs(p.a) * 0.5 * sup  # |a| A
            rhs = aa * np.exp(aa * length) * length
            want.append(rhs - abs(d_t / (0.5 * d_full) - 1.0))
        np.testing.assert_array_equal(rep.margins, want)
