import math

import numpy as np
import pytest

from cdcheck.errors import PreconditionError
from cdcheck.params import validate_params
from cdcheck.quadrature import cumulative_simpson
from cdcheck.reparam import reparam_partial
from cdcheck.spaces import constant_weight, make_space, weight_preset


def chord(x, y):
    """(x, v, L) of the segment from x to y of R^n."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    length = float(np.linalg.norm(y - x))
    return x, (y - x) / length, length


def reparam_distance(space, weight, params, x, y):
    """Full re-parametrized distance d_f(x, y) on R^n."""
    return reparam_partial(space, weight, params, *chord(x, y), 1.0)


def reparam_profile(space, weight, params, x, v, length, grid_size=512):
    """Reference: (s_grid, d(s)) with d(s) = integral_0^s e^{-a f(gamma)},
    by cumulative Simpson on a uniform grid of ``grid_size`` (even) steps."""
    s = np.linspace(0.0, length, grid_size + 1)
    fs = np.asarray(weight.eval(space.geodesic(x, v, s)), dtype=float)
    return s, cumulative_simpson(np.exp(-params.a * fs), s[1] - s[0])


@pytest.fixture
def flat2():
    return make_space("euclidean", 2)


class TestPartial:
    def test_zero_weight_is_linear(self, flat2):
        p = validate_params(2, 4, 0.5)
        seg = np.zeros(2), np.array([1.0, 0.0]), 1.3
        for t in (0.2, 0.5, 0.9):
            val = reparam_partial(flat2, constant_weight(0.0), p, *seg, t)
            assert val == pytest.approx(t * 1.3, rel=1e-12)

    def test_constant_weight_scaling(self, flat2):
        p = validate_params(2, 4, 0.5)
        f0 = 0.8
        seg = chord(np.zeros(2), np.array([1.0, 0.5]))
        val = reparam_partial(flat2, constant_weight(f0), p, *seg, 0.4)
        expect = 0.4 * seg[2] * math.exp(-2 * (1 - 0.5) * f0 / (2 - 1))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_linear_weight_closed_form(self, flat2):
        # f(x) = x1, n=2, eps=0: integrand e^{-2s} along the x1 axis
        p = validate_params(2, 4, 0.0)
        w = weight_preset(flat2, "linear(1.0)")
        L = 0.9
        val = reparam_partial(flat2, w, p, np.zeros(2), np.array([1.0, 0.0]),
                              L, 1.0)
        assert val == pytest.approx((1 - math.exp(-2 * L)) / 2, rel=1e-10)

    def test_monotone_bound(self, flat2):
        p = validate_params(2, 6, 0.3)
        w = weight_preset(flat2, "quadratic(0.5)")
        rng = np.random.default_rng(0)
        for _ in range(25):
            x, y = rng.normal(size=(2, 2))
            _, v, length = chord(x, y)
            pts = np.array([flat2.geodesic(x, v, s)
                            for s in np.linspace(0, length, 64)])
            min_f = float(np.min(w.eval(pts)))
            for t in (0.3, 0.7, 1.0):
                val = reparam_partial(flat2, w, p, x, v, length, t)
                assert val <= math.exp(-p.a * min_f) * t * length + 1e-12


class TestDistance:
    def test_coincident_points(self, flat2):
        p = validate_params(2, 4, 0.5)
        w = weight_preset(flat2, "linear(0.5)")
        x = np.array([0.2, 0.3])
        assert reparam_partial(flat2, w, p, x, np.array([1.0, 0.0]), 0.0,
                               1.0) == 0.0

    def test_additivity_split(self, flat2):
        # d_t(x,y) + d_{1-t}(y,x) = d_f(x,y)
        p = validate_params(2, 5, 0.4)
        w = weight_preset(flat2, "quadratic(0.6)")
        rng = np.random.default_rng(1)
        for _ in range(100):
            x, y = rng.normal(size=(2, 2))
            t = rng.uniform(0.05, 0.95)
            seg_xy, seg_yx = chord(x, y), chord(y, x)
            full = reparam_partial(flat2, w, p, *seg_xy, 1.0)
            a = reparam_partial(flat2, w, p, *seg_xy, t)
            b = reparam_partial(flat2, w, p, *seg_yx, 1.0 - t)
            assert abs(a + b - full) < 1e-9

    def test_full_length_symmetry(self, flat2):
        p = validate_params(2, 5, 0.4)
        w = weight_preset(flat2, "linear(0.8)")
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.normal(size=(2, 2))
            d_xy = reparam_distance(flat2, w, p, x, y)
            d_yx = reparam_distance(flat2, w, p, y, x)
            assert abs(d_xy - d_yx) < 1e-9

    def test_strictly_increasing_in_t(self, flat2):
        p = validate_params(2, 5, 0.4)
        w = weight_preset(flat2, "quadratic(0.5)")
        seg = chord(np.array([-0.5, 0.1]), np.array([0.8, -0.3]))
        ts = np.linspace(0.05, 1.0, 20)
        vals = [reparam_partial(flat2, w, p, *seg, t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_profile_matches_pointwise(self, flat2):
        p = validate_params(2, 5, 0.4)
        w = weight_preset(flat2, "quadratic(0.5)")
        seg = chord(np.zeros(2), np.array([1.1, 0.4]))
        ss, prof = reparam_profile(flat2, w, p, *seg)
        for i in range(0, len(ss), 97):
            direct = reparam_partial(flat2, w, p, *seg, ss[i] / seg[2])
            assert prof[i] == pytest.approx(direct, abs=1e-9)


class TestCurvedSpaces:
    @pytest.mark.parametrize("kind, dim, preset, N", [
        ("sphere", 2, "cosine(0.3)", 6.0),
        ("hyperbolic", 3, "quadratic(0.3)", 9.0),
    ])
    def test_partial_matches_fine_profile(self, kind, dim, preset, N):
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        p = validate_params(dim, N, 0.4)
        rng = np.random.default_rng(7)
        x = sp.sample_point(rng)
        seg = x, sp.sample_unit(rng, x), 1.3
        m = 2**14
        ss, prof = reparam_profile(sp, w, p, *seg, grid_size=m)
        for i in (m // 8, m // 2, 5 * m // 8, m):
            direct = reparam_partial(sp, w, p, *seg, ss[i] / 1.3)
            assert direct == pytest.approx(prof[i], rel=0.0, abs=1e-11)


class TestStacked:
    """A stack of segments and fractions is one quadrature whose every
    distance is the float of its one-segment call."""

    @pytest.mark.parametrize("kind, dim, preset", [
        ("euclidean", 3, "quadratic(0.6)"), ("euclidean", 3, "constant(0.7)"),
        ("sphere", 2, "cosine(0.4)"), ("sphere", 2, "zero"),
        ("hyperbolic", 3, "linear(0.5)"), ("hyperbolic", 3, "constant(-0.3)"),
    ])
    def test_stack_equals_one_segment_calls(self, kind, dim, preset):
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        p = validate_params(dim, 3 * dim, 0.4)
        rng = np.random.default_rng(5)
        x = sp.sample_point(rng)
        lengths = np.array([1.1, 0.3, 2.0 ** -9, 0.0])
        vs = np.array([sp.sample_unit(rng, x) for _ in lengths])
        ts = [[0.0], [0.37], [0.5], [1.0]]
        stacked = reparam_partial(sp, w, p, x, vs, lengths, ts, rel_tol=1e-13)
        assert stacked.shape == (4, 4)
        for i, t in enumerate(np.ravel(ts)):
            for j, (v, length) in enumerate(zip(vs, lengths.tolist())):
                one = reparam_partial(sp, w, p, x, v, length, t,
                                      rel_tol=1e-13)
                assert stacked[i, j] == one
                assert isinstance(one, float)

    def test_constant_path_order(self):
        # scale * t * L, in that order, on every item of a stack
        sp = make_space("euclidean", 3)
        p = validate_params(3, 9, 0.4)
        vs = np.array([[0.6, 0.0, 0.8], [0.0, -0.8, 0.6]])
        lengths = np.array([0.77, 1.3])
        ts = np.array([0.3, 0.7])
        got = reparam_partial(sp, constant_weight(0.9), p, np.zeros(3), vs,
                              lengths, ts)
        scale = math.exp(-p.a * 0.9)
        assert got.tolist() == [scale * t * length for t, length in
                                zip(ts.tolist(), lengths.tolist())]

    def test_weight_factor_past_float_range(self):
        # e^{-a f} = e^{15 |x|^2} overflows near |x| = 6.9: the distance
        # is no float, so it is refused, not integrated as inf
        sp = make_space("euclidean", 3)
        w = weight_preset(sp, "quadratic(-50)")
        p = validate_params(3, 9, 0.4)
        with pytest.raises(PreconditionError) as exc:
            reparam_partial(sp, w, p, np.array([6.5, 0.0, 0.0]),
                            np.array([1.0, 0.0, 0.0]), np.array([1.0]), 1.0)
        assert exc.value.failed == "e^{-a f} finite"

    def test_fraction_out_of_range(self, flat2):
        p = validate_params(2, 4, 0.5)
        with pytest.raises(ValueError, match="fraction"):
            reparam_partial(flat2, weight_preset(flat2, "linear(1.0)"), p,
                            np.zeros(2), np.array([1.0, 0.0]),
                            np.array([1.0, 1.0]), [0.5, 1.5])
