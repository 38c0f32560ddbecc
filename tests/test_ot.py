import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdcheck.errors import ConfigError, PreconditionError
from cdcheck.ot import (RADIAL_HI, LineGeometry, MeridianGeometry,
                        MonotoneInterpolation, UniformTable,
                        density_from_callable,
                        entropy_functional, fisher_information,
                        monotone_1d_transport, renyi_pointwise, w2_axis)
from cdcheck.params import validate_params
from cdcheck.spaces import make_space, weight_preset


def line(points=4096, lo=-2.0, hi=2.0, f1="zero"):
    return LineGeometry(f1, lo=lo, hi=hi, points=points)


def meridian(space, preset="zero", points=4096):
    """The radial axis of ``space`` under the weight preset ``preset``."""
    return MeridianGeometry(space, weight_preset(space, preset),
                            points=points)


def s2_meridian(preset="zero", points=4096):
    return meridian(make_space("sphere", 2), preset, points)


def trapezoid_cdf(rho):
    """The CDF of rho m on the axis grid by the trapezoid rule, total 1."""
    w = rho.values * rho.geometry.m_density
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1])
                                           * rho.geometry.dx)])
    return cdf / cdf[-1]


class TestMonotoneInterpolation:
    def test_identity_when_equal(self):
        g = line()
        rho = density_from_callable(g, lambda x: np.exp(-x**2))
        mi = MonotoneInterpolation(rho, rho)
        # the monotone map T = Q_1 o Q_0^{-1} on the support
        supp = g.xs[rho.values > 1e-8]
        assert np.max(np.abs(np.interp(supp, mi.Q0, mi.Q1) - supp)) < 1e-8
        np.testing.assert_array_equal(mi.Q0, mi.Q1)
        np.testing.assert_allclose(mi.jacobian([0.5])[0], mi.j0, rtol=1e-12)

    def test_uniform_shift(self):
        g = line(lo=-1.0, hi=4.0)
        r0 = density_from_callable(g, lambda x: ((x >= 0) & (x <= 1)).astype(float))
        r1 = density_from_callable(g, lambda x: ((x >= 2) & (x <= 3)).astype(float))
        mi = MonotoneInterpolation(r0, r1)
        core = g.xs[(g.xs > 0.05) & (g.xs < 0.95)]
        np.testing.assert_allclose(np.interp(core, mi.Q0, mi.Q1), core + 2.0,
                                   atol=1e-6)
        np.testing.assert_allclose(mi.Q1 - mi.Q0, 2.0, atol=1e-12)
        # rho_t is uniform on [2t, 1+2t] with the same height as rho_0
        bulk = (mi.Q0 > 0.05) & (mi.Q0 < 0.95)
        height = np.interp(mi.Q0[bulk], g.xs, r0.values)
        for t in (0.25, 0.5, 0.75):
            rho_t = 1.0 / mi.jacobian([t])[0, bulk]
            np.testing.assert_allclose(rho_t, height, atol=1e-10)

    def test_monge_ampere_consistency(self):
        # rho_t(Q_t) m(Q_t) Q_t' = 1, with Q_t' by differences in u
        g = line(f1="quadratic(1)")
        r0 = density_from_callable(g, lambda x: np.exp(-2 * (x - 0.3) ** 2))
        r1 = density_from_callable(g, lambda x: np.exp(-(x + 0.4) ** 2))
        mi = MonotoneInterpolation(r0, r1)
        core = (mi.u > 0.01) & (mi.u < 0.99)
        for rho, q, j in ((r0, mi.Q0, mi.j0), (r1, mi.Q1, mi.j1)):
            rho_q = np.interp(q, g.xs, rho.values)
            np.testing.assert_allclose((rho_q * j)[core], 1.0, rtol=5e-6)
        t = 0.6
        q_t = (1 - t) * mi.Q0 + t * mi.Q1
        j_fd = np.interp(q_t, g.xs, g.m_density) * np.gradient(q_t, mi.u)
        np.testing.assert_allclose(j_fd[core], mi.jacobian([t])[0, core],
                                   rtol=1e-4)

    def test_particle_oracle(self):
        # deterministic particles: push the u-quantiles of rho0 through the
        # monotone map T = F_1^{-1} o F_0 of the trapezoid CDFs on the axis
        # grid and recover rho_t from the inverse-CDF derivative
        g = line(f1="quadratic(1)", points=16384)
        r0 = density_from_callable(g, lambda x: np.exp(-2 * (x - 0.3) ** 2))
        r1 = density_from_callable(g, lambda x: np.exp(-(x + 0.4) ** 2))
        mi = MonotoneInterpolation(r0, r1)
        t = 0.5
        n = 4_000_000
        u = (np.arange(n) + 0.5) / n
        cdf0, cdf1 = (trapezoid_cdf(r) for r in (r0, r1))
        T = np.interp(cdf0, cdf1, g.xs)
        xs_p = np.interp(u, cdf0, g.xs)
        ys_p = np.interp(xs_p, g.xs, (1 - t) * g.xs + t * T)
        k = 800
        centers = ys_p[k:-k]
        dens_m = (u[2 * k:] - u[:-2 * k]) / (ys_p[2 * k:] - ys_p[:-2 * k])
        est = dens_m / np.interp(centers, g.xs, g.m_density)
        q_t = (1 - t) * mi.Q0 + t * mi.Q1
        ref = np.interp(centers, q_t, 1.0 / mi.jacobian([t])[0])
        mask = ref > 0.5  # bulk only: tail windows are too wide
        assert np.max(np.abs(est - ref)[mask]) < 1e-4

    def test_mass_conserved_along_path(self):
        g = line(f1="quadratic(0.6)", points=8192)
        r0 = density_from_callable(g, lambda x: np.exp(-3 * x**2))
        r1 = density_from_callable(g, lambda x: np.exp(-(x - 0.5) ** 2))
        mi = MonotoneInterpolation(r0, r1)
        ts = np.linspace(0.0, 1.0, 9)
        mass = mi.pushforward_integral(ts, lambda r: r)
        np.testing.assert_allclose(mass, 1.0, atol=1e-12)
        # the barycentre moves linearly between the grid barycentres
        bary = [g.integrate(g.xs * r.values * g.m_density) for r in (r0, r1)]
        for t in ts:
            q_t = (1 - t) * mi.Q0 + t * mi.Q1
            assert q_t @ mi.du == pytest.approx(
                (1 - t) * bary[0] + t * bary[1], abs=1e-8)

    def test_endpoints(self):
        g = line()
        r0 = density_from_callable(g, lambda x: np.exp(-3 * x**2))
        r1 = density_from_callable(g, lambda x: np.exp(-(x - 0.5) ** 2))
        mi = MonotoneInterpolation(r0, r1)
        p = validate_params(2, 10, 0.5)
        got = mi.pushforward_integral(
            [0.0, 1.0], lambda r: renyi_pointwise(r, p))
        ref = [entropy_functional(r, p) for r in (r0, r1)]
        np.testing.assert_allclose(got, ref, atol=1e-6)
        np.testing.assert_array_equal(mi.jacobian([0.0, 1.0]),
                                      [mi.j0, mi.j1])


class TestW2:
    def test_uniform_shift_distance(self):
        g = line(lo=-1.0, hi=4.0)
        r0 = density_from_callable(g, lambda x: ((x >= 0) & (x <= 1)).astype(float))
        r1 = density_from_callable(g, lambda x: ((x >= 2) & (x <= 3)).astype(float))
        assert w2_axis(monotone_1d_transport(r0, r1)) == pytest.approx(
            2.0, abs=1e-6)

    def test_symmetry(self):
        g = line(f1="quadratic(0.4)")
        r0 = density_from_callable(g, lambda x: np.exp(-2 * x**2))
        r1 = density_from_callable(g, lambda x: np.exp(-(x - 0.6) ** 2))
        assert w2_axis(monotone_1d_transport(r0, r1)) == pytest.approx(
            w2_axis(monotone_1d_transport(r1, r0)), abs=1e-9)

    def test_against_fine_quantile_rule(self):
        # the midpoint rule on 2,000,000 uniform u nodes of the inverted
        # trapezoid CDFs; an m = 128/256/512 quantile ladder with Neville
        # extrapolation was off by 2.1e-5 here
        g = line(f1="quadratic(0.4)")
        r0 = density_from_callable(g, lambda x: np.exp(-2 * x**2))
        r1 = density_from_callable(g, lambda x: np.exp(-(x - 0.6) ** 2))
        n = 2_000_000
        u = (np.arange(n) + 0.5) / n
        q0, q1 = (np.interp(u, trapezoid_cdf(r), g.xs) for r in (r0, r1))
        ref = np.sqrt(np.mean((q1 - q0) ** 2))
        assert w2_axis(monotone_1d_transport(r0, r1)) == pytest.approx(
            ref, abs=1e-7)


class TestEntropy:
    def test_reference_measure_has_zero_entropy(self):
        g = s2_meridian()
        rho = density_from_callable(g, lambda th: np.ones_like(th))
        p = validate_params(2, 4, 0.5)
        assert entropy_functional(rho, p) == pytest.approx(
            0.0, abs=1e-10)

    def test_classical_renyi_reduction(self):
        # N = n: c/(c+1) = 1/n, H = n - n \int rho^{1-1/n} dm
        g = line(f1="quadratic(1)")
        rho = density_from_callable(g, lambda x: np.exp(-(x - 0.2) ** 2))
        n = 2
        p = validate_params(n, n, 0.7)
        got = entropy_functional(rho, p)
        ref = n - n * g.integrate(rho.values ** (1.0 - 1.0 / n) * g.m_density)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_uniform_half_height(self):
        # doubling the support halves the height: closed-form H
        g = line(lo=-4.0, hi=4.0)
        r = density_from_callable(g, lambda x: ((x >= -1) & (x <= 1)).astype(float))
        p = validate_params(3, 6, 0.3)
        got = entropy_functional(r, p)
        m_total = g.integrate(g.m_density)  # 1 (normalized)
        # rho = 1/w on its support of m-measure w = 2/8
        w = 0.25
        cc = (p.c + 1.0) / p.c
        expect = cc * (1.0 - w * (1.0 / w) ** (1.0 / (p.c + 1.0)))
        # indicator edges are resolved only to one grid cell
        assert got == pytest.approx(expect, rel=2e-3)


class TestFisher:
    def test_reference_density_zero(self):
        g = s2_meridian()
        rho = density_from_callable(g, lambda th: np.ones_like(th))
        p = validate_params(2, 2, 1.0)
        assert fisher_information(rho, p) == pytest.approx(0.0, abs=1e-12)

    def test_small_perturbation_expansion(self):
        # rho = 1 + a cos(theta): rho^{1/(c+1)} ~ 1 + a cos/(c+1), so
        # I ~ ((c+1)/...) closed form on the meridian at O(a^2)
        g = s2_meridian(points=8192)
        p = validate_params(2, 2, 1.0)
        cp1 = p.c + 1.0
        for a in (0.01, 0.02):
            rho = density_from_callable(g, lambda th: 1.0 + a * np.cos(th))
            got = fisher_information(rho, p)
            # leading order: |grad root|^2 = (a sin/(c+1))^2, and
            # int sin^2 dm = 2/3 for dm = (sin/2) dtheta
            expect = a**2 * (2.0 / 3.0) / cp1**2
            assert got == pytest.approx(expect, rel=5e-2)

    def test_grid_refinement_stable(self):
        p = validate_params(2, 2, 1.0)
        vals = []
        for pts in (4096, 8192):
            g = s2_meridian(points=pts)
            rho = density_from_callable(g, lambda th: 1.0 + 0.2 * np.cos(th))
            vals.append(fisher_information(rho, p))
        assert abs(vals[0] - vals[1]) < 1e-6


# every weight preset of each model space, with whether it depends on the
# distance r from the origin alone (H^n's are half-space coordinates)
PRESETS = {"euclidean": {"zero": True, "constant(0.7)": True,
                         "linear(0.5)": False, "quadratic(0.3)": True,
                         "quadratic(-0.4)": True},
           "sphere": {"zero": True, "constant(0.7)": True,
                      "cosine(0.3)": True, "linear(0.4)": True,
                      "quadratic(0.5)": True},
           "hyperbolic": {"zero": True, "constant(0.7)": True,
                          "linear(0.5)": False, "quadratic(0.3)": False}}


class TestMeridian:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind, preset, radial", [
        (kind, preset, radial) for kind, table in PRESETS.items()
        for preset, radial in table.items()])
    def test_only_radial_weights(self, kind, preset, radial, dim):
        # the geometry compares the weight along the axis e_1 with the
        # weight along the normal e_2, so a preset that is not radial is
        # refused
        space = make_space(kind, dim)
        if radial:
            meridian(space, preset, 257)
        else:
            with pytest.raises(ConfigError, match="radial weight"):
                meridian(space, preset, 257)

    def test_unit_s2_is_the_colatitude(self):
        # the S^2 meridian is the colatitude theta in [0, pi] at the points
        # (sin theta, 0, cos theta), with base factor sin theta
        g = s2_meridian("cosine(0.3)", points=513)
        th = np.linspace(0.0, np.pi, 513)
        points = g.axis_frame()[0]
        assert np.array_equal(g.xs, th)
        assert np.array_equal(points, np.stack(
            [np.sin(th), np.zeros_like(th), np.cos(th)], -1))
        raw = np.sin(th) * np.exp(-0.3 * np.cos(th))
        assert np.array_equal(g.m_density, raw / g.integrate(raw))

    @pytest.mark.parametrize("kind, dim, cap", [
        # the normalized volume of the ball or cap of radius r about the
        # origin, over the window [0, pi] on S^n and [0, RADIAL_HI = 2] else
        ("sphere", 2, lambda r: (1.0 - np.cos(r)) / 2.0),
        ("sphere", 3, lambda r: (r - np.sin(r) * np.cos(r)) / math.pi),
        ("euclidean", 3, lambda r: (r / 2.0) ** 3),
        ("hyperbolic", 3,
         lambda r: (np.sinh(2 * r) - 2 * r) / (np.sinh(4.0) - 4.0))])
    def test_measure_is_the_closed_form_volume(self, kind, dim, cap):
        g = meridian(make_space(kind, dim))
        assert g.xs[-1] == (math.pi if kind == "sphere" else RADIAL_HI)
        np.testing.assert_allclose(g.m_cumulative, cap(g.xs), rtol=0,
                                   atol=1e-10)

    def test_window_and_origin(self):
        for kind, origin in (("euclidean", [0.0, 0.0, 0.0]),
                             ("hyperbolic", [0.0, 0.0, 0.0, 1.0])):
            g = meridian(make_space(kind, 3), points=65)
            assert (g.xs[0], g.xs[-1]) == (0.0, RADIAL_HI)
            assert np.array_equal(g.axis_frame()[0][0], origin)


class TestPartialDistances:
    @pytest.mark.parametrize("x", [-2.0, 0.4])
    def test_rounding_residue_pair_is_linear(self, x):
        # y - x is one ulp, so x + t (y - x) rounds to x or to y for every
        # t in ]0, 1[, while d_f > 0 (exact at the grid start -2, a rounding
        # residue of G at 0.4); G is linear on the pair and d_t = t d_f,
        # where the lookup read d_t = 0 or d_f, so log beta = -inf
        g, p = line(f1="quadratic(0.5)"), validate_params(2, 9, 0.4)
        y, t = np.nextafter(x, 1.0), np.array([0.25, 0.5, 0.75])
        d_full, distances = g.partial_distances(p, x, y)
        assert d_full > 0.0
        assert np.array_equal(distances(t), t * d_full)
        assert distances(1.0) == d_full

    def test_g_past_the_float_range_refused(self):
        # a = -0.8 and f up to 4000: e^{-a f} overflows, and G is refused
        # where it is built, before a table or a warning
        g, p = line(f1="quadratic(1000)"), validate_params(2, 3, 1.4)
        with pytest.raises(PreconditionError) as err:
            g.reparam_partial(p, -1.0, 1.0, 0.5)
        assert err.value.failed == "e^{-a f} finite"


class TestUniformTable:
    """The O(1) reader returns np.interp's floats wherever its contract
    lets it read: finite tables on grids whose floats resolve their nodes,
    at finite points."""

    @staticmethod
    def _table(window, n, fill):
        xs = np.linspace(*window, n)
        values = np.cumsum(np.exp(-np.sin(3.0 * xs)))  # like a G table
        values[n // 3] = 0.0
        return xs, values, UniformTable(xs, values, fill)

    @staticmethod
    def _same(got, xs, values, x, fill):
        kw = {} if fill is None else {"left": fill, "right": fill}
        want = np.interp(x, xs, values, **kw)
        assert np.shape(got) == np.shape(want)
        assert type(got) is type(want)
        # bit for bit: the same signed zeros
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(want).view(np.int64))

    WINDOWS = [(-2.0, 2.0), (0.0, math.pi), (1e4, 1e4 + 4.0)]

    @pytest.mark.parametrize("fill", [None, 0.0])
    @pytest.mark.parametrize("n", [16, 17, 100, 4096, 8192])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_nodes_ends_and_beyond(self, window, n, fill):
        xs, values, table = self._table(window, n, fill)
        lo, hi = window
        width = hi - lo
        x = np.concatenate([
            xs, np.nextafter(xs, -math.inf), np.nextafter(xs, math.inf),
            [lo - width, lo - 1e-9 * width, hi + 1e-9 * width, hi + width,
             -1e300, 1e300]])
        self._same(table(x), xs, values, x, fill)

    @pytest.mark.parametrize("n", [16, 8192])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_unsorted_points(self, window, n):
        xs, values, table = self._table(window, n, None)
        lo, hi = window
        x = np.random.default_rng(5).uniform(lo, hi, 10000)
        self._same(table(x), xs, values, x, None)

    @pytest.mark.parametrize("fill", [None, 0.0])
    def test_layouts(self, fill):
        xs, values, table = self._table((-2.0, 2.0), 64, fill)
        grid = np.random.default_rng(6).uniform(-2.5, 2.5, (7, 10))
        for x in (np.float64(0.3), np.array(-1.7), grid, grid.T[::2, 1::3],
                  np.empty(0), np.empty((3, 0)), [0.1, 2.0], 1.0):
            self._same(table(x), xs, values, x, fill)

    @settings(max_examples=200, deadline=None)
    @given(centre=st.floats(1.0, 1e9), sign=st.sampled_from([-1.0, 1.0]),
           ulps=st.floats(4.0, 2.0**40), n=st.integers(16, 8192),
           fill=st.sampled_from([None, 0.0]), seed=st.integers(0, 2**32 - 1))
    def test_resolved_windows_read_as_np_interp(self, centre, sign, ulps, n,
                                                fill, seed):
        # a window of up to half its distance from 0, its nodes 4 or more
        # ulps apart: the floats resolve it, and every finite read is
        # np.interp's, bit for bit
        lo = sign * centre
        width = min(ulps * np.spacing(2.0 * centre) * (n - 1), 0.5 * centre)
        xs = np.linspace(lo, lo + width, n)
        rng = np.random.default_rng(seed)
        values = np.cumsum(rng.uniform(0.0, 2.0, n))
        table = UniformTable(xs, values, fill)
        x = np.concatenate([
            xs, np.nextafter(xs, -math.inf), np.nextafter(xs, math.inf),
            rng.uniform(lo - width, lo + 2.0 * width, 2000)])
        self._same(table(x), xs, values, x, fill)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_refused(self, bad):
        xs = np.linspace(-2.0, 2.0, 64)
        values = np.sin(xs)
        values[-1] = bad
        with pytest.raises(ConfigError, match=r"a table on the axis grid of"
                           r" 64 points on \[-2\.0, 2\.0\] is not finite"):
            UniformTable(xs, values)

    def test_unresolved_grid_refused(self):
        # nodes closer than the floats of the window, some of them equal
        xs = np.linspace(1e12, 1e12 + 1e-3, 8192)
        with pytest.raises(ConfigError, match=r"axis grid of 8192 points on"
                           r" \[1000000000000\.0, 1000000000000\.001\] is"
                           r" finer than its floats"):
            UniformTable(xs, np.arange(8192.0))

    def test_equal_nodes_refused(self):
        # 19 pairs of equal nodes, yet the nearest-node estimate is right at
        # every node and one ulp below it: the grid check also needs the
        # nodes to increase, and the axis keeps its message
        lo, hi = 6356499731.229579, 6356499731.229579 + 0.00010059345025898578
        xs = np.linspace(lo, hi, 125)
        assert np.sum(xs[1:] == xs[:-1]) == 19
        scale = 124 / (xs[-1] - xs[0])
        offset = 0.5 - xs[0] * scale
        nodes = np.arange(125)
        assert np.all(xs * scale + offset >= nodes)
        assert np.all(np.nextafter(xs, -math.inf) * scale + offset
                      < nodes + 1)
        with pytest.raises(ConfigError, match="finer than its floats"):
            UniformTable(xs, np.arange(125.0))
        with pytest.raises(ConfigError, match="finer than its floats"):
            LineGeometry("zero", lo=lo, hi=hi, points=125)
