import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cdcheck.errors import ConfigError, CutLocusError
from cdcheck.params import validate_params
from cdcheck.spaces import (Hyperbolic, check_curvature_bound,
                            constant_weight, grad_sup, make_space,
                            ricci_fN_batch, segment_between, weight_preset)


class TestGeodesics:
    def test_euclidean_straight_line(self):
        sp = make_space("euclidean", 2)
        p = sp.geodesic(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 2.0)
        np.testing.assert_allclose(p, [2.0, 0.0], atol=1e-14)

    def test_sphere_antipode(self):
        sp = make_space("sphere", 2)
        north = np.array([0.0, 0.0, 1.0])
        v = sp.frame(north)[0]
        p = sp.geodesic(north, v, math.pi)
        np.testing.assert_allclose(p, -north, atol=1e-12)

    def test_hyperbolic_vertical(self):
        sp = make_space("hyperbolic", 2)
        x = np.array([0.0, 1.0])
        p = sp.geodesic(x, np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(p, [0.0, math.e], rtol=1e-12)

    @pytest.mark.parametrize("kind,dim", [("euclidean", 3), ("sphere", 2),
                                          ("hyperbolic", 2)])
    def test_unit_speed(self, kind, dim):
        sp = make_space(kind, dim)
        rng = np.random.default_rng(5)
        x = sp.sample_point(rng)
        v = sp.sample_unit(rng, x)
        h = 1e-5
        ts = np.linspace(0.1, 1.0, 7)
        for t in ts:
            a = sp.geodesic(x, v, t - h)
            b = sp.geodesic(x, v, t + h)
            speed = sp.log(a, b)[1] / (2 * h)
            assert speed == pytest.approx(1.0, abs=1e-8)


class TestLogMap:
    def test_euclidean_example(self):
        sp = make_space("euclidean", 2)
        v, L = sp.log(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(v, [0.6, 0.8], atol=1e-14)
        assert L == pytest.approx(5.0)

    def test_degenerate_pair(self):
        sp = make_space("sphere", 2)
        x = np.array([0.0, 0.0, 1.0])
        v, L = sp.log(x, x)
        assert L == 0.0

    @pytest.mark.parametrize("kind,dim", [("euclidean", 3), ("sphere", 2),
                                          ("hyperbolic", 2)])
    def test_roundtrip(self, kind, dim):
        sp = make_space(kind, dim)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            x = sp.sample_point(rng)
            y = sp.sample_point(rng)
            if sp.kind == "sphere" and sp.log(x, y)[1] > math.pi - 1e-3:
                continue
            v, L = sp.log(x, y)
            z = sp.geodesic(x, v, L)
            worst = max(worst, float(np.max(np.abs(z - y))))
        assert worst < 1e-10

    def test_cut_locus_rejected(self):
        sp = make_space("sphere", 2)
        x = np.array([0.0, 0.0, 1.0])
        with pytest.raises(CutLocusError):
            segment_between(sp, x, -x)


def _cases(*cases):
    """(kind, dim, space options, preset) cases, with ids that name the
    options only when there are any."""
    ids = ["-".join([kind, str(dim), preset] + [f"{k}{v:g}" for k, v in kw.items()])
           for kind, dim, kw, preset in cases]
    return pytest.mark.parametrize("kind,dim,kw,preset", cases, ids=ids)


class TestWeights:
    @_cases(
        ("euclidean", 2, {}, "linear(0.7)"),
        ("euclidean", 3, {}, "quadratic(0.4)"),
        ("sphere", 2, {}, "cosine(0.3)"),
        ("sphere", 2, {}, "linear(0.2)"),
        ("hyperbolic", 3, {}, "linear(0.7)"),
        ("hyperbolic", 3, {}, "quadratic(0.4)"),
        ("hyperbolic", 3, {"scale": 2.0}, "quadratic(0.4)"),
    )
    def test_gradient_matches_fd(self, kind, dim, kw, preset):
        sp = make_space(kind, dim, **kw)
        w = weight_preset(sp, preset)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = sp.sample_point(rng)
            if sp.kind == "sphere" and abs(x[-1]) > 0.95:
                continue
            v = sp.sample_unit(rng, x)
            h = 1e-6
            fd = (w.eval(sp.geodesic(x, v, h))
                  - w.eval(sp.geodesic(x, v, -h))) / (2 * h)
            # grad f is the Riemannian gradient: g(grad f, v) = df(v)
            assert sp.inner(x, w.grad(x), v) == pytest.approx(fd, abs=1e-6)

    @_cases(
        ("euclidean", 2, {}, "quadratic(0.5)"),
        ("sphere", 2, {}, "cosine(0.4)"),
        ("sphere", 2, {}, "linear(0.2)"),
        ("hyperbolic", 3, {}, "linear(0.7)"),
        ("hyperbolic", 3, {}, "quadratic(0.4)"),
        ("hyperbolic", 3, {"scale": 2.0}, "quadratic(0.4)"),
    )
    def test_hessian_matches_geodesic_fd(self, kind, dim, kw, preset):
        # nabla^2 f(v,v) = (f o gamma)''(0) for unit-speed geodesics
        sp = make_space(kind, dim, **kw)
        w = weight_preset(sp, preset)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = sp.sample_point(rng)
            if sp.kind == "sphere" and abs(x[-1]) > 0.9:
                continue
            v = sp.sample_unit(rng, x)
            h = 1e-4
            fd = (w.eval(sp.geodesic(x, v, h)) - 2 * w.eval(x)
                  + w.eval(sp.geodesic(x, v, -h))) / h**2
            assert w.hess(x, v, v) == pytest.approx(fd, abs=5e-6)

    def test_hessian_symmetry(self):
        sp = make_space("euclidean", 3)
        w = weight_preset(sp, "quadratic(0.8)")
        rng = np.random.default_rng(9)
        x = sp.sample_point(rng)
        u = sp.sample_unit(rng, x)
        v = sp.sample_unit(rng, x)
        assert w.hess(x, u, v) == pytest.approx(w.hess(x, v, u), rel=1e-6)

    @pytest.mark.parametrize("preset", ["linear(0.7)", "quadratic(0.4)"])
    def test_hyperbolic_hessian_symmetry(self, preset):
        sp = make_space("hyperbolic", 3, scale=2.0)
        w = weight_preset(sp, preset)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = sp.sample_point(rng)
            u = sp.sample_unit(rng, x)
            v = sp.sample_unit(rng, x)
            assert w.hess(x, u, v) == pytest.approx(w.hess(x, v, u), rel=1e-12)

    def test_sphere_quadratic_is_constant(self):
        # |x| = R on the sphere, so f = a |x|^2 / 2 = a R^2 / 2
        sp = make_space("sphere", 2, radius=2.0)
        w = weight_preset(sp, "quadratic(0.6)")
        assert w.is_constant and w.name == "quadratic(0.6)"
        rng = np.random.default_rng(12)
        xs = np.stack([sp.sample_point(rng) for _ in range(10)])
        vs = np.stack([sp.sample_unit(rng, x) for x in xs])
        np.testing.assert_allclose(w.eval(xs), 1.2, rtol=1e-15)
        np.testing.assert_array_equal(w.grad(xs), 0.0)
        np.testing.assert_array_equal(w.hess(xs, vs, vs), 0.0)

    def test_sphere_linear_zero_is_flat(self):
        # the Hessian's co-vector is grad theta itself, not grad f / a
        sp = make_space("sphere", 2)
        w = weight_preset(sp, "linear(0)")
        rng = np.random.default_rng(13)
        xs = np.stack([sp.sample_point(rng) for _ in range(10)])
        vs = np.stack([sp.sample_unit(rng, x) for x in xs])
        np.testing.assert_array_equal(w.grad(xs), 0.0)
        np.testing.assert_array_equal(w.hess(xs, vs, vs), 0.0)

    def test_grad_sup_is_riemannian(self):
        # f = x_1 on H^3: the Euclidean components of grad f are y^2 e_1,
        # whose Riemannian length is y
        sp = make_space("hyperbolic", 3)
        w = weight_preset(sp, "linear(1)")
        x = np.array([0.0, 0.0, 2.0])
        assert np.linalg.norm(w.grad(x)) == pytest.approx(4.0, rel=1e-8)
        assert grad_sup(sp, w, [x]) == pytest.approx(2.0, rel=1e-8)
        lower = np.array([0.5, 0.0, 1.0])
        assert grad_sup(sp, w, [lower, x]) == pytest.approx(2.0, rel=1e-8)


def ricci_fN(sp, w, p, x, v):
    """Ric_f^N(v, v) at one point."""
    return float(ricci_fN_batch(sp, w, p, np.asarray(x, float)[None],
                                np.asarray(v, float)[None])[0])


class TestRicci:
    def test_flat_unweighted(self):
        sp = make_space("euclidean", 2)
        w = constant_weight(0.0)
        p = validate_params(2, math.inf, 0.0)
        x = np.array([0.3, -0.2])
        v = np.array([1.0, 0.0])
        assert ricci_fN(sp, w, p, x, v) == pytest.approx(0.0, abs=1e-12)

    def test_round_sphere(self):
        sp = make_space("sphere", 2)
        w = constant_weight(0.0)
        p = validate_params(2, 2, 1.0)
        rng = np.random.default_rng(1)
        x = sp.sample_point(rng)
        v = sp.sample_unit(rng, x)
        assert ricci_fN(sp, w, p, x, v) == pytest.approx(1.0, rel=1e-10)

    def test_linear_weight_N1(self):
        # f = x1, N = 1: hessian 0, -g(grad f, v)^2/(1-2) = +v1^2
        sp = make_space("euclidean", 2)
        w = weight_preset(sp, "linear(1.0)")
        p = validate_params(2, 1.0, 0.0)
        x = np.array([0.4, 0.1])
        for v1 in (1.0, 0.6, 0.0):
            v = np.array([v1, math.sqrt(max(0.0, 1 - v1**2))])
            assert ricci_fN(sp, w, p, x, v) == pytest.approx(v1**2, abs=1e-8)

    def test_large_N_converges_to_infinite(self):
        sp = make_space("euclidean", 3)
        w = weight_preset(sp, "quadratic(0.5)")
        rng = np.random.default_rng(2)
        x = sp.sample_point(rng)
        v = sp.sample_unit(rng, x)
        big = ricci_fN(sp, w, validate_params(3, 1e6, 0.5), x, v)
        inf = ricci_fN(sp, w, validate_params(3, math.inf, 0.5), x, v)
        assert abs(big - inf) < 1e-4

    def test_N_equals_n_requires_constant_weight(self):
        sp = make_space("euclidean", 2)
        w = weight_preset(sp, "linear(1.0)")
        with pytest.raises(ConfigError):
            ricci_fN(sp, w, validate_params(2, 2, 1.0),
                     np.array([0.0, 0.0]), np.array([1.0, 0.0]))


class TestCurvatureBound:
    def test_round_sphere_sharp(self):
        sp = make_space("sphere", 2)
        rep = check_curvature_bound(sp, constant_weight(0.0),
                                    validate_params(2, 2, 1.0), 1.0,
                                    {"count": 100, "seed": 0})
        assert rep.verdict == "pass"
        assert abs(rep.min_margin) < 1e-10

    def test_flat_kappa_zero(self):
        sp = make_space("euclidean", 3)
        rep = check_curvature_bound(sp, constant_weight(0.0),
                                    validate_params(3, 5, 1.0), 0.0,
                                    {"count": 100, "seed": 0})
        assert rep.verdict == "pass"
        assert abs(rep.min_margin) < 1e-12

    def test_flat_positive_kappa_fails(self):
        sp = make_space("euclidean", 3)
        p = validate_params(3, 5, 1.0)
        rep = check_curvature_bound(sp, constant_weight(0.0), p, 0.1,
                                    {"count": 100, "seed": 0})
        assert rep.verdict == "fail"
        assert rep.min_margin == pytest.approx(-0.1 * p.inv_c, rel=1e-12)


def _unit_per_point(sp, rng, x):
    """One random unit tangent at one point: normalize one normal draw and
    take it through the frame of x."""
    coeff = rng.normal(size=sp.dim)
    coeff /= np.linalg.norm(coeff)
    return coeff @ sp.frame(x)


def _point_per_point(sp, rng, region=None):
    """One random point: on R^n a normal direction, then a uniform radius;
    on S^n a normalized normal draw; on H^n uniform coordinates, then a
    uniform log-height."""
    r = (region or {}).get("radius", 1.0)
    if isinstance(sp, Hyperbolic):
        out = np.empty(sp.ambient)
        out[:-1] = rng.uniform(-r, r, size=sp.ambient - 1)
        out[-1] = np.exp(rng.uniform(-r, r))
        return out
    if sp.kind == "sphere":
        u = rng.normal(size=sp.ambient)
        return sp.radius * u / np.linalg.norm(u)
    u = rng.normal(size=sp.dim)
    u /= np.linalg.norm(u)
    center = np.asarray((region or {}).get("center", np.zeros(sp.dim)))
    return center + r * (rng.random(1) ** (1.0 / sp.dim))[0] * u


def _points_per_stack(sp, rng, region, count):
    """A stack of random points: on S^n and H^n the single points in turn;
    on R^n a normal block of directions, then a uniform block of radii,
    each point formed as a single one is."""
    if sp.kind != "euclidean":
        return np.stack([_point_per_point(sp, rng, region)
                         for _ in range(count)])
    r = (region or {}).get("radius", 1.0)
    center = np.asarray((region or {}).get("center", np.zeros(sp.dim)))
    dirs = rng.normal(size=(count, sp.dim))
    radii = rng.random(count) ** (1.0 / sp.dim)
    return np.stack([center + r * s * (u / np.linalg.norm(u))
                     for u, s in zip(dirs, radii)])


def _inner_per_point(sp, x, u, v):
    """g_x(u, v) at one point, from one dot product."""
    g = float(np.dot(u, v))
    return g * sp.scale**2 / x[-1] ** 2 if isinstance(sp, Hyperbolic) else g


def _geodesic_per_point(sp, x, v, t):
    """gamma_v(t) of one point, tangent and parameter in closed form; on H^n
    (x0 + scale v_x sinh(s) / D, y0 / D) at s = t / scale, with D = e^s (1 -
    e_y) / 2 + e^-s (1 + e_y) / 2 and the smaller of 1 -+ e_y taken as
    |e_x|^2 / (1 + |e_y|)."""
    if not isinstance(sp, Hyperbolic):
        return sp.geodesic(x, v, t)
    e, s = sp.scale * v / x[-1], np.float64(t) / sp.scale
    big = 1.0 + abs(e[-1])
    small = np.dot(e[:-1], e[:-1]) / big
    a, b = (small, big) if e[-1] >= 0 else (big, small)
    d = 0.5 * np.exp(s) * a + 0.5 * np.exp(-s) * b
    out = np.empty(sp.ambient)
    out[:-1] = x[:-1] + sp.scale * np.sinh(s) / d * v[:-1]
    out[-1] = x[-1] / d
    return out


STACK_SPACES = [("euclidean", 3, {}), ("sphere", 2, {}),
                ("sphere", 3, {"radius": 1.7}), ("hyperbolic", 3, {}),
                ("hyperbolic", 3, {"scale": 0.6})]


class TestStacks:
    """The stacked layer equals its per-point reference loops bit for bit."""

    @staticmethod
    def _points_and_units(sp, count=40):
        rng = np.random.default_rng(17)
        xs = np.stack([sp.sample_point(rng, {"radius": 1.5})
                       for _ in range(count)])
        vs = np.stack([_unit_per_point(sp, rng, x) for x in xs])
        if isinstance(sp, Hyperbolic):  # vertical directions, up and down
            vs[:2, :-1] = 0.0
            vs[:2, -1] = [1.0, -1.0] * xs[:2, -1] / sp.scale
        return xs, vs

    @pytest.mark.parametrize("region", [None, {"radius": 1.5},
                                        {"radius": 0.4, "center": "ones"}])
    @pytest.mark.parametrize("kind, dim", [("euclidean", 3), ("sphere", 2),
                                           ("sphere", 3), ("hyperbolic", 2),
                                           ("hyperbolic", 3)])
    def test_sample_point(self, kind, dim, region):
        sp = make_space(kind, dim)
        if region and region.get("center") == "ones":
            region = {**region, "center": [1.0] * sp.ambient}
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        np.testing.assert_array_equal(sp.sample_point(rng, region, 49),
                                      _points_per_stack(sp, ref, region, 49))
        np.testing.assert_array_equal(sp.sample_point(rng, region),
                                      _point_per_point(sp, ref, region))

    @pytest.mark.parametrize("kind, dim, kw", STACK_SPACES)
    def test_sample_unit(self, kind, dim, kw):
        sp = make_space(kind, dim, **kw)
        xs, _ = self._points_and_units(sp)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        want = [_unit_per_point(sp, ref, x) for x in xs]
        np.testing.assert_array_equal(sp.sample_unit(rng, xs), want)
        # single points keep the stream and the values too
        np.testing.assert_array_equal(sp.sample_unit(rng, xs[0]),
                                      _unit_per_point(sp, ref, xs[0]))

    @pytest.mark.parametrize("kind, dim, kw", STACK_SPACES)
    def test_geodesic(self, kind, dim, kw):
        sp = make_space(kind, dim, **kw)
        xs, vs = self._points_and_units(sp)
        ts = np.random.default_rng(5).uniform(-1.5, 1.5, len(xs))
        ts[2] = 0.0
        want = [_geodesic_per_point(sp, x, v, t) for x, v, t in zip(xs, vs, ts)]
        np.testing.assert_array_equal(sp.geodesic(xs, vs, ts), want)
        # many directions from one point, and one grid per direction
        np.testing.assert_array_equal(
            sp.geodesic(xs[3], vs, ts),
            [_geodesic_per_point(sp, xs[3], v, t) for v, t in zip(vs, ts)])
        grid = np.linspace(0.0, 1.0, 9) * (1.0 + np.abs(ts))[:, None]
        np.testing.assert_array_equal(
            sp.geodesic(xs[:, None], vs[:, None], grid),
            [[_geodesic_per_point(sp, x, v, t) for t in row]
             for x, v, row in zip(xs, vs, grid)])

    @pytest.mark.parametrize("kind, dim, kw", STACK_SPACES)
    def test_inner_and_norm(self, kind, dim, kw):
        sp = make_space(kind, dim, **kw)
        xs, vs = self._points_and_units(sp)
        us = 1.7 * vs[::-1]
        np.testing.assert_array_equal(
            sp.inner(xs, us, vs),
            [_inner_per_point(sp, x, u, v) for x, u, v in zip(xs, us, vs)])
        np.testing.assert_array_equal(
            sp.norm(xs, us),
            [math.sqrt(max(_inner_per_point(sp, x, u, u), 0.0))
             for x, u in zip(xs, us)])

    @pytest.mark.parametrize("kind, dim, kw, preset", [
        ("euclidean", 3, {}, "quadratic(0.7)"), ("sphere", 2, {}, "cosine(0.4)"),
        ("sphere", 3, {"radius": 1.7}, "linear(0.3)"),
        ("hyperbolic", 3, {"scale": 0.6}, "quadratic(0.3)")])
    def test_grad_sup(self, kind, dim, kw, preset):
        sp = make_space(kind, dim, **kw)
        w = weight_preset(sp, preset)
        xs, _ = self._points_and_units(sp)
        want = max(math.sqrt(max(_inner_per_point(sp, x, w.grad(x),
                                                  w.grad(x)), 0.0))
                   for x in xs)
        assert grad_sup(sp, w, xs) == want
        assert grad_sup(sp, w, np.empty((0, sp.ambient))) == 0.0

    @pytest.mark.parametrize("kind, dim, kw, preset", [
        ("euclidean", 3, {}, "quadratic(0.7)"), ("sphere", 2, {}, "cosine(0.4)"),
        ("hyperbolic", 3, {}, "linear(0.5)"),
        ("hyperbolic", 3, {"scale": 0.6}, "quadratic(0.3)")])
    def test_curvature_bound_report(self, kind, dim, kw, preset):
        sp = make_space(kind, dim, **kw)
        w = weight_preset(sp, preset)
        p = validate_params(dim, 7, 0.4)
        rep = check_curvature_bound(sp, w, p, -0.5, {"count": 60, "seed": 8})
        rng = np.random.default_rng(8)
        xs = _points_per_stack(sp, rng, None, 60)
        vs = [_unit_per_point(sp, rng, x) for x in xs]
        ric = [ricci_fN_batch(sp, w, p, x[None], v[None])[0]
               for x, v in zip(xs, vs)]
        want = ric - p.inv_c * -0.5 * np.exp(-2.0 * p.a * w.eval(xs))
        np.testing.assert_array_equal(rep.margins, want)


class TestPointValidity:
    def test_sphere_points_unit_norm(self):
        sp = make_space("sphere", 2)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = sp.sample_point(rng)
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_single_euclidean_point_is_the_per_point_formula(self, dim):
        # a single point (a taylor or limits base point) draws one
        # direction, then one radius, by the per-point formula
        sp = make_space("euclidean", dim)
        region = {"center": np.linspace(-1.0, 2.0, dim).tolist(),
                  "radius": 0.7}
        for seed in range(300):
            for reg in (None, region):
                got = sp.sample_point(np.random.default_rng(seed), reg)
                want = _point_per_point(sp, np.random.default_rng(seed), reg)
                np.testing.assert_array_equal(got, want)

    def test_hyperbolic_points_in_model(self):
        sp = make_space("hyperbolic", 2)
        rng = np.random.default_rng(8)
        for _ in range(50):
            assert sp.sample_point(rng)[-1] > 0.0


# The hyperboloid model: points X with <X, X> = -1, X_0 > 0 in Minkowski
# R^{n,1}, <A, B> = -A_0 B_0 + A_1 B_1 + ... + A_n B_n, in 80-digit decimals.
# A half-space point (x, y) is X = ((1 + r^2) / 2y, x / y, (1 - r^2) / 2y),
# r^2 = |x|^2 + y^2, and back y = 1 / (X_0 + X_n), x = (X_1..X_{n-1}) y;
# tangents map through the differentials of these two maps. At scale a
# (curvature -1/a^2) the reference runs at curvature -1 on the tangent a v
# for s = t / a, and divides velocities by a and multiplies lengths by a.

def _mink(a, b):
    return -a[0] * b[0] + sum(p * q for p, q in zip(a[1:], b[1:]))


def _cosh_sinh(s):
    ep, em = s.exp(), (-s).exp()
    return (ep + em) / 2, (ep - em) / 2


def _to_hyperboloid(p, u):
    """The half-space point p and tangent u as hyperboloid (X, V)."""
    x, y, dx, dy = p[:-1], p[-1], u[:-1], u[-1]
    r2 = sum(c * c for c in x) + y * y
    xdx = sum(c * d for c, d in zip(x, dx))
    X = [(1 + r2) / (2 * y)] + [c / y for c in x] + [(1 - r2) / (2 * y)]
    V = ([xdx / y + dy - (1 + r2) * dy / (2 * y * y)]
         + [d / y - c * dy / (y * y) for c, d in zip(x, dx)]
         + [-xdx / y - dy - (1 - r2) * dy / (2 * y * y)])
    return X, V


def _to_half_space(X, V):
    """The hyperboloid point X and tangent V as half-space (p, u)."""
    q, dq = X[0] + X[-1], V[0] + V[-1]
    p = [c / q for c in X[1:-1]] + [1 / q]
    u = [d / q - c * dq / (q * q) for c, d in zip(X[1:-1], V[1:-1])]
    return p, u + [-dq / (q * q)]


def _hyperboloid_geodesic(sp, x, v, t):
    """(gamma_v(t), gamma_v'(t)) from cosh(s) X + sinh(s) V on the hyperboloid."""
    with localcontext() as ctx:
        ctx.prec = 80
        a = Decimal(sp.scale)
        X, V = _to_hyperboloid([Decimal(c) for c in x],
                               [a * Decimal(c) for c in v])
        norm = _mink(V, V).sqrt()
        ch, sh = _cosh_sinh(Decimal(t) / a)
        G = [ch * p + sh * q / norm for p, q in zip(X, V)]
        dG = [sh * p + ch * q / norm for p, q in zip(X, V)]
        p, u = _to_half_space(G, dG)
        return (np.array([float(c) for c in p]),
                np.array([float(c / a) for c in u]))


def _hyperboloid_log(sp, x, y):
    """(unit v, length) from L = 2 asinh(|X - Y| / 2) and the tangent
    (Y - cosh(L) X) / sinh(L) on the hyperboloid."""
    with localcontext() as ctx:
        ctx.prec = 80
        zero = [Decimal(0)] * len(x)
        X, _ = _to_hyperboloid([Decimal(c) for c in x], zero)
        Y, _ = _to_hyperboloid([Decimal(c) for c in y], zero)
        chord = [p - q for p, q in zip(X, Y)]
        half = _mink(chord, chord).sqrt() / 2
        length = 2 * (half + (half * half + 1).sqrt()).ln()
        ch, sh = _cosh_sinh(length)
        _, u = _to_half_space(X, [(q - ch * p) / sh for p, q in zip(X, Y)])
        a = Decimal(sp.scale)
        return np.array([float(c / a) for c in u]), float(a * length)


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _point_rel(got, want):
    """A half-space point's relative error: the horizontal part against the
    whole point, the height against itself."""
    return max(float(np.linalg.norm(got[:-1] - want[:-1]) / np.linalg.norm(want)),
               abs(got[-1] / want[-1] - 1.0))


HYPERBOLIC_SPACES = [(2, 1.0), (3, 1.0), (2, 0.6), (3, 0.6)]


class TestHyperboloidReference:
    """geodesic, velocity and log on H^n against the hyperboloid model, to
    1e-12 relative, at random and at near-vertical directions."""

    @staticmethod
    def _rays(sp):
        """(x, unit v) at (0, .., 0, 1) and 5 random points of a radius-2
        region: one random direction and, up and down, |e_x| in {0, 1e-13,
        1e-8, 1e-5, 1e-3} for the Euclidean unit direction e of v."""
        rng = np.random.default_rng(23)
        xs = np.vstack([np.eye(sp.ambient)[-1],
                        sp.sample_point(rng, {"radius": 2.0}, 5)])
        rays = []
        for x in xs:
            rays.append((x, sp.sample_unit(rng, x)))
            across = rng.normal(size=sp.ambient - 1)
            across /= np.linalg.norm(across)
            for ex in (0.0, 1e-13, 1e-8, 1e-5, 1e-3):
                for up in (1.0, -1.0):
                    e = np.append(ex * across, up * math.sqrt(1.0 - ex * ex))
                    rays.append((x, e * x[-1] / sp.scale))
        return rays

    @pytest.mark.parametrize("dim, scale", HYPERBOLIC_SPACES)
    def test_geodesic_and_velocity(self, dim, scale):
        sp = make_space("hyperbolic", dim, scale=scale)
        for x, v in self._rays(sp):
            for t in (1e-3, 1.0, 3.0, 25.0):
                point, vel = _hyperboloid_geodesic(sp, x, v, t)
                assert _point_rel(sp.geodesic(x, v, t), point) < 1e-12, (x, v, t)
                assert _rel(sp.velocity(x, v, t), vel) < 1e-12, (x, v, t)

    @pytest.mark.parametrize("dim, scale", HYPERBOLIC_SPACES)
    def test_log(self, dim, scale):
        sp = make_space("hyperbolic", dim, scale=scale)
        rays = self._rays(sp)
        base = np.eye(dim)[-1]  # and a point ln 3 above it, 1e-9 or 1e-6 aside
        pairs = [(base, 3.0 * base + aside * np.eye(dim)[0])
                 for aside in (1e-9, 1e-6)]
        pairs += [(x, _hyperboloid_geodesic(sp, x, v, t)[0])
                  for x, v in rays for t in (1e-3, 1.0, 25.0)]
        xs = [x for x, _ in rays[::11]]
        pairs += [(x, y) for i, x in enumerate(xs) for y in xs[i + 1:]]
        for x, y in pairs:
            v, length = _hyperboloid_log(sp, x, y)
            got_v, got_length = sp.log(x, y)
            assert abs(got_length / length - 1.0) < 1e-12, (x, y)
            assert _rel(got_v, v) < 1e-12, (x, y)
