import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cdcheck.errors import ConfigError, PreconditionError
from cdcheck.params import validate_params
from cdcheck.spaces import (GRAD_POINTS, Hyperbolic, centred,
                            check_curvature_bound, constant_weight, grad_sup,
                            make_space, ricci_fN_batch, weight_preset)


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
        # up from the half-space point (0, 1): height e after unit length
        sp = make_space("hyperbolic", 2)
        x = np.array([0.0, 0.0, 1.0])
        v = sp.frame(x)[-1]
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0])
        p = sp.geodesic(x, v, 1.0)
        np.testing.assert_allclose(p, [math.sinh(1.0), 0.0, math.cosh(1.0)],
                                   rtol=1e-15)
        np.testing.assert_allclose(_to_half_space(p), [0.0, math.e],
                                   rtol=1e-15)

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
            # the ambient chord: shorter than the arc by (2h)^3 / 24
            speed = float(sp.norm(a, b - a)) / (2 * h)
            assert speed == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kind,dim", [("euclidean", 3), ("sphere", 2),
                                          ("sphere", 3), ("hyperbolic", 2),
                                          ("hyperbolic", 3)])
    def test_reversed_walk_lands_on_the_far_end(self, kind, dim):
        # the segment gamma_v(delta) -> gamma_v(-delta) walked as taylor
        # walks it, back along -gamma_v'(delta) for 2 delta, ends within a
        # few ulp of gamma_v(-delta); H^n based at its origin, as `centred`
        # places it
        sp = make_space(kind, dim)
        rng = np.random.default_rng(9)
        x = sp.sample_point(rng)
        _, x, v = centred(sp, "zero", x, sp.sample_unit(rng, x))
        d = 2.0 ** -np.arange(4.0, 15.0)
        end = sp.geodesic(sp.geodesic(x, v, d), -sp.velocity(x, v, d),
                          2.0 * d)
        assert np.max(np.abs(end - sp.geodesic(x, v, -d))) <= 4.5e-16

    def test_models_are_unit(self):
        # only the config reads a radius or scale: a model takes one of 1.0
        # and refuses any other, rather than run as the unit model
        assert make_space("sphere", 2, radius=1.0).sec == 1.0
        assert make_space("hyperbolic", 3, scale=1.0).sec == -1.0
        for kind, kw in (("sphere", {"radius": 2.0}),
                         ("hyperbolic", {"scale": 0.5}),
                         ("sphere", {"scale": 1.0}),
                         ("euclidean", {"radius": 1.0})):
            with pytest.raises(ConfigError, match="unit"):
                make_space(kind, 2, **kw)


def _cases(*cases):
    """(kind, dim, space options, preset) cases, with ids that name the
    options only when there are any; an option is the radius or scale R
    of the space (`_length`)."""
    ids = ["-".join([kind, str(dim), preset] + [f"{k}{v:g}" for k, v in kw.items()])
           for kind, dim, kw, preset in cases]
    return pytest.mark.parametrize("kind,dim,kw,preset", cases, ids=ids)


class TestWeights:
    @_cases(
        ("euclidean", 2, {}, "linear(0.7)"),
        ("euclidean", 3, {}, "quadratic(0.4)"),
        ("sphere", 2, {}, "cosine(0.3)"),
        ("sphere", 2, {}, "linear(0.2)"),
        ("sphere", 3, {"radius": 2.0}, "cosine(0.3)"),
        ("sphere", 3, {"radius": 2.0}, "linear(0.2)"),
        ("hyperbolic", 3, {}, "linear(0.7)"),
        ("hyperbolic", 3, {}, "quadratic(0.4)"),
        ("hyperbolic", 3, {"scale": 2.0}, "quadratic(0.4)"),
        ("hyperbolic", 2, {"scale": 0.6}, "linear(0.7)"),
        ("hyperbolic", 2, {"scale": 0.6}, "quadratic(0.4)"),
    )
    def test_gradient_matches_fd(self, kind, dim, kw, preset):
        # at a radius or scale R a step h is h / R on the unit model, and
        # the derivative along a unit-speed geodesic is the model's over R
        R, sp = _length(kw), make_space(kind, dim)
        w = weight_preset(sp, preset)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = sp.sample_point(rng)
            if sp.kind == "sphere" and abs(x[-1]) > 0.95:
                continue
            v = sp.sample_unit(rng, x)
            h = 1e-6
            fd = (w.eval(sp.geodesic(x, v, h / R))
                  - w.eval(sp.geodesic(x, v, -h / R))) / (2 * h)
            # grad f is the Riemannian gradient: g(grad f, v) = df(v)
            assert sp.inner(x, w.grad(x), v) / R == pytest.approx(fd, abs=1e-6)

    @_cases(
        ("euclidean", 2, {}, "quadratic(0.5)"),
        ("sphere", 2, {}, "cosine(0.4)"),
        ("sphere", 2, {}, "linear(0.2)"),
        ("sphere", 3, {"radius": 2.0}, "cosine(0.4)"),
        ("sphere", 3, {"radius": 2.0}, "linear(0.2)"),
        ("hyperbolic", 3, {}, "linear(0.7)"),
        ("hyperbolic", 3, {}, "quadratic(0.4)"),
        ("hyperbolic", 3, {"scale": 2.0}, "quadratic(0.4)"),
        ("hyperbolic", 2, {"scale": 0.6}, "linear(0.7)"),
        ("hyperbolic", 2, {"scale": 0.6}, "quadratic(0.4)"),
    )
    def test_hessian_matches_geodesic_fd(self, kind, dim, kw, preset):
        # nabla^2 f(v,v) = (f o gamma)''(0) for unit-speed geodesics; at a
        # radius or scale R the model's over R^2
        R, sp = _length(kw), make_space(kind, dim)
        w = weight_preset(sp, preset)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = sp.sample_point(rng)
            if sp.kind == "sphere" and abs(x[-1]) > 0.9:
                continue
            v = sp.sample_unit(rng, x)
            h = 1e-4
            fd = (w.eval(sp.geodesic(x, v, h / R)) - 2 * w.eval(x)
                  + w.eval(sp.geodesic(x, v, -h / R))) / h**2
            assert w.hess(x, v, v) / R**2 == pytest.approx(fd, abs=5e-6)

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
        sp = make_space("hyperbolic", 3)
        w = weight_preset(sp, preset)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = sp.sample_point(rng)
            u = sp.sample_unit(rng, x)
            v = sp.sample_unit(rng, x)
            assert w.hess(x, u, v) == pytest.approx(w.hess(x, v, u), rel=1e-12)

    def test_sphere_quadratic_is_constant(self):
        # |x| = 1 on the unit sphere, so f = a |x|^2 / 2 = a / 2 at every
        # radius: the preset is read on the unit model
        sp = make_space("sphere", 2)
        w = weight_preset(sp, "quadratic(0.6)")
        assert w.is_constant and w.name == "quadratic(0.6)"
        rng = np.random.default_rng(12)
        xs = np.stack([sp.sample_point(rng) for _ in range(10)])
        vs = np.stack([sp.sample_unit(rng, x) for x in xs])
        np.testing.assert_allclose(w.eval(xs), 0.3, rtol=1e-15)
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
        # f = p_1 on H^3 has |grad f| = y; at the half-space point
        # (0.5, 0, 1) the ambient gradient is e_1 + (e_0 + e_3) / 2, of
        # Euclidean length sqrt(1.5) and Minkowski length 1
        sp = make_space("hyperbolic", 3)
        w = weight_preset(sp, "linear(1)")
        x = _to_hyperboloid([0.0, 0.0, 2.0])
        lower = _to_hyperboloid([0.5, 0.0, 1.0])
        np.testing.assert_allclose(w.grad(lower), [0.5, 1.0, 0.0, 0.5],
                                   atol=1e-15)
        v, length = _half_space_log(lower, x)
        assert grad_sup(sp, w, lower, v, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert grad_sup(sp, w, x, -v, 0.0) == pytest.approx(2.0, rel=1e-14)
        # y rises from 1 to 2 along the segment (an arc of the circle about
        # (-2.75, 0, 0)), so its sup is at x
        assert grad_sup(sp, w, lower, v, length) == pytest.approx(2.0,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("kind, dim, kw, preset", [
        ("hyperbolic", 3, {"radius": 4.0}, "quadratic(0.4)"),
        ("hyperbolic", 2, {"radius": 2.0}, "linear(0.7)"),
        ("sphere", 2, {}, "cosine(0.3)"), ("euclidean", 3, {}, "linear(0.5)")])
    def test_centred_weight_is_the_weight_moved(self, kind, dim, kw, preset):
        # on H^n the weight at x along v reads as the moved weight at the
        # origin along the moved tangent; elsewhere nothing moves (kw: the
        # sampling region of x)
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = sp.sample_point(rng, kw or None)
            v = sp.sample_unit(rng, x)
            moved, o, u = centred(sp, preset, x, v)
            if kind != "hyperbolic":
                assert o is x and u is v and moved.name == w.name
                continue
            np.testing.assert_array_equal(o, np.eye(dim + 1)[-1])
            assert u[-1] == 0.0 and sp.inner(o, u, u) == pytest.approx(1.0, rel=1e-15)
            for t in (0.0, 0.3, -0.7):
                assert moved.eval(sp.geodesic(o, u, t)) == pytest.approx(
                    w.eval(sp.geodesic(x, v, t)), rel=1e-12, abs=1e-12)
            assert sp.inner(o, moved.grad(o), u) == pytest.approx(
                sp.inner(x, w.grad(x), v), rel=1e-10, abs=1e-12)
            assert moved.hess(o, u, u) == pytest.approx(
                w.hess(x, v, v), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("dim, scale", [(2, 1.0), (3, 1.0), (3, 0.6)])
    def test_hyperbolic_presets_are_half_space_functions(self, dim, scale):
        # quadratic(a) = a |p|^2 / 2 and linear(a) = a p_1 at the
        # hyperboloid image of the half-space point p, up to heights
        # e^{+-8}, where X_n - X_0 or X_n + X_0 cancels; at any scale R,
        # whose hyperboloid point X is the unit model's X / R
        sp = make_space("hyperbolic", dim)
        quadratic = weight_preset(sp, "quadratic(0.4)")
        linear = weight_preset(sp, "linear(0.7)")
        rng = np.random.default_rng(14)
        for _ in range(40):
            p = np.append(rng.uniform(-6.0, 6.0, dim - 1),
                          math.exp(rng.uniform(-8.0, 8.0)))
            x = _to_hyperboloid(p, R=scale) / scale
            assert quadratic.eval(x) == pytest.approx(0.2 * (p @ p), rel=1e-14)
            assert linear.eval(x) == pytest.approx(0.7 * p[0], rel=1e-14,
                                                   abs=1e-15)


def ricci_fN(sp, w, p, x, v):
    """Ric_f^N(v, v) at one point."""
    return float(ricci_fN_batch(sp, w, p, np.asarray(x, float)[None],
                                np.asarray(v, float)[None, None])[0, 0, 0])


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
                                    validate_params(2, 2, 1.0), 1.0, 100, 0,
                                    None, 1e-9)
        assert rep.verdict == "pass"
        assert abs(rep.min_margin) < 1e-10

    def test_flat_kappa_zero(self):
        sp = make_space("euclidean", 3)
        rep = check_curvature_bound(sp, constant_weight(0.0),
                                    validate_params(3, 5, 1.0), 0.0, 100, 0,
                                    None, 1e-9)
        assert rep.verdict == "pass"
        assert abs(rep.min_margin) < 1e-12

    def test_flat_positive_kappa_fails(self):
        sp = make_space("euclidean", 3)
        p = validate_params(3, 5, 1.0)
        rep = check_curvature_bound(sp, constant_weight(0.0), p, 0.1, 100, 0,
                                    None, 1e-9)
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
    on S^n a normalized normal draw; on H^n uniform half-space coordinates,
    then a uniform log-height, taken to the hyperboloid."""
    r = (region or {}).get("radius", 1.0)
    if isinstance(sp, Hyperbolic):
        p = rng.uniform(-r, r, size=sp.dim - 1)
        y = np.exp(rng.uniform(-r, r))
        h = (np.dot(p, p) + y * y) / (2.0 * y)
        return np.concatenate([[h - 0.5 / y], p / y, [h + 0.5 / y]])
    if sp.kind == "sphere":
        u = rng.normal(size=sp.ambient)
        return u / np.linalg.norm(u)
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
    """g_x(u, v) at one point, from one dot product; on H^n in the
    Minkowski form, time coordinate last."""
    if isinstance(sp, Hyperbolic):
        u = np.append(u[:-1], -u[-1])
    return float(np.dot(u, v))


# (kind, dim, the region the points are drawn in, radius 1.5 if empty)
STACK_SPACES = [("euclidean", 3, {}), ("sphere", 2, {}), ("sphere", 3, {}),
                ("hyperbolic", 3, {}), ("hyperbolic", 3, {"radius": 6.0})]


class TestStacks:
    """The stacked layer equals its per-point reference loops bit for bit."""

    @staticmethod
    def _points_and_units(sp, region=None, count=40):
        rng = np.random.default_rng(17)
        xs = np.stack([sp.sample_point(rng, region or {"radius": 1.5})
                       for _ in range(count)])
        vs = np.stack([_unit_per_point(sp, rng, x) for x in xs])
        if isinstance(sp, Hyperbolic):  # vertical directions, up and down
            vs[:2] = [[1.0], [-1.0]] * sp.frame(xs[:2])[:, -1]
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
        sp = make_space(kind, dim)
        xs, _ = self._points_and_units(sp, kw)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        want = [_unit_per_point(sp, ref, x) for x in xs]
        np.testing.assert_array_equal(sp.sample_unit(rng, xs), want)
        # single points keep the stream and the values too
        np.testing.assert_array_equal(sp.sample_unit(rng, xs[0]),
                                      _unit_per_point(sp, ref, xs[0]))

    @pytest.mark.parametrize("kind, dim, kw", STACK_SPACES)
    def test_geodesic(self, kind, dim, kw):
        sp = make_space(kind, dim)
        xs, vs = self._points_and_units(sp, kw)
        ts = np.random.default_rng(5).uniform(-1.5, 1.5, len(xs))
        ts[2] = 0.0
        want = [sp.geodesic(x, v, t) for x, v, t in zip(xs, vs, ts)]
        np.testing.assert_array_equal(sp.geodesic(xs, vs, ts), want)
        # many directions from one point, and one grid per direction
        np.testing.assert_array_equal(
            sp.geodesic(xs[3], vs, ts),
            [sp.geodesic(xs[3], v, t) for v, t in zip(vs, ts)])
        grid = np.linspace(0.0, 1.0, 9) * (1.0 + np.abs(ts))[:, None]
        np.testing.assert_array_equal(
            sp.geodesic(xs[:, None], vs[:, None], grid),
            [[sp.geodesic(x, v, t) for t in row]
             for x, v, row in zip(xs, vs, grid)])

    @pytest.mark.parametrize("kind, dim, kw", STACK_SPACES)
    def test_inner_and_norm(self, kind, dim, kw):
        sp = make_space(kind, dim)
        xs, vs = self._points_and_units(sp, kw)
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
        ("sphere", 3, {}, "linear(0.3)"),
        ("hyperbolic", 3, {"radius": 6.0}, "quadratic(0.3)")])
    def test_grad_sup(self, kind, dim, kw, preset):
        # the sup over GRAD_POINTS evenly spaced points of the segment, each
        # point from its own geodesic call; a zero length reads gamma_v(0)
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        xs, vs = self._points_and_units(sp, kw, count=6)

        def norm_at(p):
            return math.sqrt(max(_inner_per_point(sp, p, w.grad(p),
                                                  w.grad(p)), 0.0))

        for x, v in zip(xs, vs):
            want = max(norm_at(sp.geodesic(x, v, s))
                       for s in np.linspace(0.0, 0.7, GRAD_POINTS))
            assert grad_sup(sp, w, x, v, 0.7) == want
            assert grad_sup(sp, w, x, v, 0.0) == norm_at(
                sp.geodesic(x, v, 0.0))

    @pytest.mark.parametrize("kind, dim, kw, preset", [
        ("euclidean", 3, {}, "quadratic(0.7)"), ("sphere", 2, {}, "cosine(0.4)"),
        ("hyperbolic", 3, {}, "linear(0.5)"),
        ("hyperbolic", 3, {"radius": 3.0}, "quadratic(0.3)")])
    def test_curvature_bound_report(self, kind, dim, kw, preset):
        # the margin at each point is the least eigenvalue of the matrix of
        # Ric_f^N in its frame, built entry by entry, less the bound
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        p = validate_params(dim, 7, 0.4)
        rep = check_curvature_bound(sp, w, p, -0.5, 60, 8, kw or None, 1e-9)
        xs = _points_per_stack(sp, np.random.default_rng(8), kw or None, 60)
        rhs = p.inv_c * -0.5 * np.exp(-2.0 * p.a * w.eval(xs))
        want = []
        for x, bound in zip(xs, rhs):
            frame = sp.frame(x)
            g = [sp.inner(x, w.grad(x), u) for u in frame]
            q = [[((dim - 1) * sp.sec * (i == j)
                   + float(w.hess(x, frame[i], frame[j])))
                  - g[i] * g[j] / (7 - dim) for j in range(dim)]
                 for i in range(dim)]
            want.append(np.linalg.eigvalsh(np.array(q))[0] - bound)
        np.testing.assert_array_equal(rep.margins, want)
        # and no direction at a point is below it
        rng = np.random.default_rng(9)
        at = np.repeat(xs, 1000, axis=0)
        ric = ricci_fN_batch(sp, w, p, at,
                             sp.sample_unit(rng, at)[:, None])[:, 0, 0]
        assert np.all(ric.reshape(60, 1000) - rhs[:, None]
                      >= np.array(want)[:, None] - 1e-12)


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
        # <X, X>_M = -1 on the upper sheet
        rng = np.random.default_rng(8)
        sp = make_space("hyperbolic", 2)
        for _ in range(100):
            x = sp.sample_point(rng)
            assert x[-1] > 0.0
            assert sp.inner(x, x, x) == pytest.approx(-1.0, rel=1e-14)


# H^n of scale R in the upper half space (p, y), y > 0, with the metric
# R^2 (|dp|^2 + dy^2) / y^2 of curvature -1/R^2: the reference for the
# hyperboloid, whose model is the unit one read in units of R (a point X
# is the model's X / R, a length t its t / R, unit tangents are shared).
# Every geodesic from (p0, y0) in the Euclidean unit direction
# e = R v / y0 is, at s = t / R, y = y0 / D and p = p0 + e_p y0 sinh(s) / D,
# D = cosh s - e_y sinh s = ((1 - e_y) e^s + (1 + e_y) e^-s) / 2 with the
# smaller of 1 -+ e_y taken as |e_p|^2 / (1 + |e_y|), so D > 0 at every
# direction and length; the length between two points is
# 2 R asinh(|p1 - p0| / (2 sqrt(y0 y1))).

def _length(kw):
    """The radius or scale R of a case's space options, 1.0 if none."""
    return kw.get("radius", kw.get("scale", 1.0))


def _to_hyperboloid(p, u=None, R=1.0):
    """The hyperboloid point X of the half-space point p, and the image V
    of a half-space tangent u at p if one is given."""
    p = np.asarray(p, dtype=float)
    x, y = p[:-1], p[-1]
    x2 = x @ x
    X = R * np.concatenate([[(x2 + y * y - 1.0) / (2.0 * y)], x / y,
                            [(x2 + y * y + 1.0) / (2.0 * y)]])
    if u is None:
        return X
    ux, uy = np.asarray(u[:-1], dtype=float), float(u[-1])
    xu = x @ ux
    V = R * np.concatenate([[xu / y + uy * (y * y - x2 + 1.0) / (2.0 * y * y)],
                            ux / y - x * uy / (y * y),
                            [xu / y + uy * (y * y - x2 - 1.0) / (2.0 * y * y)]])
    return X, V


def _to_half_space(X):
    """The half-space point (X_1..X_{n-1} / q, 1 / q), q = X_n - X_0."""
    q = X[-1] - X[0]
    return np.append(X[1:-1] / q, 1.0 / q)


def _half_space_geodesic(p, v, t, R=1.0):
    """(gamma_v(t), gamma_v'(t)) in the half space, in closed form."""
    p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
    s, e = t / R, R * v / p[-1]
    big = 1.0 + abs(e[-1])
    small = (e[:-1] @ e[:-1]) / big
    a, b = (small, big) if e[-1] >= 0 else (big, small)
    a, b = 0.5 * math.exp(s) * a, 0.5 * math.exp(-s) * b
    d, dd = a + b, a - b
    point = np.append(p[:-1] + R * math.sinh(s) / d * v[:-1], p[-1] / d)
    velocity = np.append(v[:-1] / (d * d), -p[-1] * dd / (R * d * d))
    return point, velocity


def _half_space_log(X, Y, R=1.0):
    """(unit v, length) between two stored hyperboloid points, in 60-digit
    decimals: each point scaled onto <X, X>_M = -R^2 and taken to the half
    space, the length 2R asinh(|p1 - p0| / (2 sqrt(y0 y1))) there, and v the
    image of the closed form's derivative at t = 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        R = Decimal(R)
        def chart(X):
            X = [Decimal(float(c)) for c in X]
            X = [c * R / (X[-1] ** 2 - sum(a * a for a in X[:-1])).sqrt()
                 for c in X]
            q = X[-1] - X[0]
            return [c / q for c in X[1:-1]], R / q

        (x0, y0), (x1, y1) = chart(X), chart(Y)
        dx = [b - a for a, b in zip(x0, x1)]
        dx2, dy = sum(c * c for c in dx), y1 - y0
        z = (dx2 + dy * dy).sqrt() / (2 * (y0 * y1).sqrt())
        length = 2 * (z + (z * z + 1).sqrt()).ln()
        sh = (length.exp() - (-length).exp()) / 2
        ux = [c / (y1 * sh) * y0 / R for c in dx]
        uy = (dx2 + dy * (y0 + y1)) / (2 * y1 * sh * R)
        r2, xu = sum(c * c for c in x0) + y0 * y0, sum(a * b for a, b in zip(x0, ux))
        V = ([xu / y0 + uy * (2 * y0 * y0 - r2 + 1) / (2 * y0 * y0)]
             + [b / y0 - a * uy / (y0 * y0) for a, b in zip(x0, ux)]
             + [xu / y0 + uy * (2 * y0 * y0 - r2 - 1) / (2 * y0 * y0)])
        return np.array([float(R * c) for c in V]), float(R * length)


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


HYPERBOLIC_SPACES = [(2, 1.0), (3, 1.0), (2, 0.6), (3, 0.6)]


class TestHyperboloidReference:
    """geodesic and velocity of H^n on the hyperboloid against the
    half-space closed form of scale R, to 1e-11 relative, at random and at
    near-vertical directions: the unit model read in units of R."""

    @staticmethod
    def _rays(dim, R):
        """Half-space (p, unit v) at (0, .., 0, 1) and 5 random points of a
        radius-2 region: one random direction and, up and down, |e_p| in
        {0, 1e-13, 1e-8, 1e-5, 1e-3} for the Euclidean unit direction e of
        v."""
        rng = np.random.default_rng(23)
        ps = [np.eye(dim)[-1]]
        ps += [np.append(rng.uniform(-2.0, 2.0, dim - 1),
                         math.exp(rng.uniform(-2.0, 2.0))) for _ in range(5)]
        rays = []
        for p in ps:
            e = rng.normal(size=dim)
            rays.append((p, e / np.linalg.norm(e) * p[-1] / R))
            across = rng.normal(size=dim - 1)
            across /= np.linalg.norm(across)
            for ex in (0.0, 1e-13, 1e-8, 1e-5, 1e-3):
                for up in (1.0, -1.0):
                    e = np.append(ex * across, up * math.sqrt(1.0 - ex * ex))
                    rays.append((p, e * p[-1] / R))
        return rays

    @pytest.mark.parametrize("dim, scale", HYPERBOLIC_SPACES)
    def test_geodesic_and_velocity(self, dim, scale):
        R, sp = scale, make_space("hyperbolic", dim)
        for p, u in self._rays(dim, R):
            x, v = _to_hyperboloid(p, u, R)
            for t in (1e-6, 1e-3, 1.0, 3.0, 10.0):
                point, vel = _to_hyperboloid(
                    *_half_space_geodesic(p, u, t * R, R), R)
                assert _rel(R * sp.geodesic(x / R, v, t), point) < 1e-11, (p, u, t)
                assert _rel(sp.velocity(x / R, v, t), vel) < 1e-11, (p, u, t)
        # 25 out from the origin a point passes X_n = 2^26
        x, v = _to_hyperboloid(np.eye(dim)[-1], np.eye(dim)[0])
        with pytest.raises(PreconditionError, match="span"):
            sp.geodesic(x, v, 25.0)

    @pytest.mark.parametrize("dim, scale", HYPERBOLIC_SPACES)
    def test_geodesic_from_far_out_is_smooth(self, dim, scale):
        # back through the origin from 8 R out the points are a smooth
        # function of t: their second differences over a step h are
        # gamma (h / R)^2 to the rounding of the points themselves
        R, sp = scale, make_space("hyperbolic", dim)
        o = np.eye(dim + 1)[-1]
        v = sp.frame(o)[0]
        x, w = sp.geodesic(o, v, 8.0), -sp.velocity(o, v, 8.0)
        h = 1e-4 * R
        pts = R * sp.geodesic(x, w, (8.0 * R + h * np.arange(-20, 21)) / R)
        np.testing.assert_allclose(pts[2:] - 2.0 * pts[1:-1] + pts[:-2],
                                   pts[1:-1] * 1e-8, rtol=0, atol=1e-14 * R)

    @pytest.mark.parametrize("dim, scale", HYPERBOLIC_SPACES)
    def test_geodesic_reaches_the_reference_endpoint(self, dim, scale):
        # the segment (x, v, L) the 60-digit reference takes from x to y,
        # walked by the model, ends at y: pairs 1e-9 and 1e-6 aside of a
        # point ln 3 up, along the rays, and between the rays' base points
        R, sp = scale, make_space("hyperbolic", dim)
        rays = self._rays(dim, R)
        base = np.eye(dim)[-1]
        pairs = [(base, 3.0 * base + aside * np.eye(dim)[0])
                 for aside in (1e-9, 1e-6)]
        pairs += [(p, _half_space_geodesic(p, u, t * R, R)[0])
                  for p, u in rays for t in (1e-6, 1e-3, 1.0, 3.0)]
        ps = [p for p, _ in rays[::11]]
        pairs += [(p, q) for i, p in enumerate(ps) for q in ps[i + 1:]]
        for p, q in pairs:
            x, y = _to_hyperboloid(p), _to_hyperboloid(q)
            v, length = _half_space_log(x, y, R)
            assert _rel(sp.geodesic(x, v, length / R), y) < 1e-11, (p, q)
