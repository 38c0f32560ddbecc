"""Round-batched Gauss-Legendre panels: nodes, accuracy, call count,
summation order; the Simpson rules on their smallest grid."""

import math

import numpy as np
import pytest

from cdcheck import quadrature
from cdcheck.errors import PreconditionError
from cdcheck.params import validate_params
from cdcheck.quadrature import (_NODES, _WEIGHTS, MAX_OPEN, PANEL_LENGTH,
                                composite_simpson, cumulative_simpson,
                                gauss_legendre)
from cdcheck.spaces import make_space, weight_preset


def counting(fn):
    """Wrap a vectorized integrand of the abscissae; ``calls`` counts its
    invocations."""
    def wrapped(p):
        wrapped.calls += 1
        return fn(np.asarray(p[1], dtype=float))
    wrapped.calls = 0
    return wrapped


def abscissae(fn):
    """The stacked integrand of a vectorized one that ignores the index."""
    return lambda p: fn(p[1])


def recursive_gauss_legendre(fn, a, b, rel_tol=1e-10, max_depth=30):
    """The scalar recursive formulation the round-batched one reproduces:
    one level per round, the round's panels from left to right, a panel's
    two sums from its 24 values, and the round's tolerance from the
    accepted panels plus the round's 16-point sums."""
    n = math.ceil(abs(b - a) / PANEL_LENGTH)

    def sums(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fw = np.array([fn(s) for s in (mid + half * _NODES).tolist()]) * _WEIGHTS
        return mid, fw[:16].sum() * half, fw[16:].sum() * half

    def level(panels, depth, val, err):
        if not panels:
            return val, err
        panel_sums = [sums(lo, hi) for lo, hi in panels]
        est = 0.0
        for _, v16, _ in panel_sums:
            est += v16
        tol = rel_tol * abs(val + est)
        sv = se = 0.0
        split = []
        for (lo, hi), (mid, v16, v8) in zip(panels, panel_sums):
            e = abs(v16 - v8)
            if depth >= max_depth or not e > tol:
                sv, se = sv + v16, se + e
            else:
                split += [(lo, mid), (mid, hi)]
        return level(split, depth + 1, val + sv, err + se)

    return level([(a + (b - a) * (k / n), a + (b - a) * ((k + 1) / n))
                  for k in range(n)], 0, 0.0, 0.0)


def gaussian(x, c=0.3, w=0.01):
    return np.exp(-0.5 * ((x - c) / w) ** 2)


def elementwise(f):
    """A stacked integrand from a scalar one, value by value, so the
    batched and the scalar rule see the same bits."""
    return lambda p: np.array([f(s) for s in np.asarray(p[1], float).tolist()])


class TestNodes:
    @pytest.mark.parametrize("points, cols", [(16, slice(0, 16)),
                                              (8, slice(16, 24))])
    def test_match_leggauss(self, points, cols):
        x, w = np.polynomial.legendre.leggauss(points)
        order = np.argsort(_NODES[cols])
        assert np.abs(_NODES[cols][order] - x).max() <= 1e-15
        assert np.abs(_WEIGHTS[cols][order] - w).max() <= 1e-15


class TestClosedForms:
    @pytest.mark.parametrize("L", [0.01, 1.0, 7.5])
    def test_decaying_exponential(self, L):
        val, err = gauss_legendre(abscissae(lambda x: np.exp(-x)), 0.0, L,
                                  rel_tol=1e-12)
        exact = -math.expm1(-L)
        assert val == pytest.approx(exact, rel=1e-12)
        assert err <= 1e-12 * exact

    def test_cubic_is_exact(self):
        cubic = lambda x: 2.0 * x**3 - x**2 + 3.0 * x - 1.0
        val, err = gauss_legendre(abscissae(cubic), -1.0, 2.0)
        exact = 0.5 * (16 - 1) - (8 + 1) / 3.0 + 1.5 * (4 - 1) - 3.0
        assert val == pytest.approx(exact, rel=1e-14)
        assert err < 1e-14

    def test_peaked_gaussian(self):
        val, _ = gauss_legendre(abscissae(gaussian), 0.0, 1.0, rel_tol=1e-10)
        exact = 0.01 * math.sqrt(2.0 * math.pi)  # tails below 1e-195
        assert val == pytest.approx(exact, rel=1e-10)

    def test_peak_missed_by_the_first_round(self):
        # the first round's nodes all lie where e^{-1e4 x} is below 1e-11,
        # so its value is 1e-10 of the integral; a tolerance taken from it
        # alone asks for digits below the integrand's rounding noise and
        # never settles (a geodesic far out in H^3 read so)
        noise = np.random.default_rng(0)
        fn = counting(lambda x: np.exp(-1e4 * x)
                      * (1.0 + 1e-14 * noise.standard_normal(x.shape)))
        val, err = gauss_legendre(fn, 0.0, 0.5, rel_tol=1e-10)
        assert val == pytest.approx(1e-4, rel=1e-10)
        assert err <= 1e-10 * val
        assert fn.calls <= 12

    def test_empty_interval(self):
        fn = counting(np.exp)
        assert gauss_legendre(fn, 0.4, 0.4) == (0.0, 0.0)
        assert fn.calls == 0


class TestGeodesicIntegrands:
    """The integrands e^{-a f} of ``reparam_partial``, against 64-point
    Gauss-Legendre on 8 panels."""

    @pytest.mark.parametrize("kind, dim, preset", [
        ("euclidean", 3, "quadratic(0.3)"), ("sphere", 2, "cosine(0.3)"),
        ("hyperbolic", 3, "quadratic(0.3)"), ("hyperbolic", 3, "linear(0.5)"),
    ])
    def test_matches_gl64(self, kind, dim, preset):
        sp = make_space(kind, dim)
        w = weight_preset(sp, preset)
        a = validate_params(dim, 3 * dim, 0.4).a
        rng = np.random.default_rng(11)
        segs = []
        for _ in range(100):
            x = sp.sample_point(rng)
            segs.append((x, sp.sample_unit(rng, x),
                         10.0 ** rng.uniform(-3, 0.6)))
        starts, dirs, lengths = (np.stack(u) for u in zip(*segs))
        f = lambda i, s: np.exp(-a * w.eval(sp.geodesic(starts[i], dirs[i], s)))
        ends = np.array([[1.0], [0.5], [0.1]]) * lengths
        cols = np.broadcast_to(np.arange(len(segs)), ends.shape)
        vals, errs = gauss_legendre(lambda p: f(cols.ravel()[p[0]], p[1]),
                                    0.0, ends, rel_tol=1e-13)
        x64, w64 = np.polynomial.legendre.leggauss(64)
        for val, err, i, end in zip(vals.ravel(), errs.ravel(), cols.ravel(),
                                    ends.ravel()):
            edges = np.linspace(0.0, end, 9)
            half = 0.5 * np.diff(edges)[:, None]
            s = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x64
            ref = float((f(i, s.ravel()).reshape(s.shape) * w64 * half).sum())
            assert abs(val - ref) <= 1e-13 * ref
            # the error estimate covers the difference, up to the rounding
            # of the two sums
            assert abs(val - ref) <= err + 4.0 * np.finfo(float).eps * ref


class TestLevels:
    @pytest.mark.parametrize("max_depth", [0, 3, 8, 30])
    def test_one_call_per_level(self, max_depth, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", max_depth)
        fn = counting(gaussian)
        gauss_legendre(fn, 0.0, 1.0, rel_tol=1e-13)
        assert fn.calls <= max_depth + 1

    def test_nan_refinement_is_final(self, monkeypatch):
        # a NaN integrand cannot converge: its panel is final in the first
        # round instead of splitting down to MAX_DEPTH
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 12)
        fn = counting(lambda x: np.where(x > 0.5, np.nan, x))
        val, err = gauss_legendre(fn, 0.0, 1.0)
        assert math.isnan(val) and math.isnan(err)
        assert fn.calls == 1

    def test_unsettled_refinement_is_refused(self):
        # noise above the tolerance never settles: every panel splits in
        # every round, and past MAX_OPEN open panels the call is refused
        # instead of splitting on towards 2^30 of them
        noise = np.random.default_rng(0)
        fn = counting(lambda x: 1.0 + 1e-6 * noise.standard_normal(x.shape))
        with pytest.raises(PreconditionError, match="do not settle"):
            gauss_legendre(fn, 0.0, 1.0, rel_tol=1e-13)
        assert fn.calls == math.log2(MAX_OPEN) + 1

    @pytest.mark.parametrize("f, a, b, rel_tol, max_depth", [
        (math.exp, 0.0, 2.0, 1e-13, 30),
        (lambda s: math.exp(-0.5 * ((s - 0.3) / 0.01) ** 2), 0.0, 1.0,
         1e-10, 30),
        (lambda s: math.sqrt(abs(s - 0.2)), 0.0, 1.0, 1e-12, 12),
        (lambda s: math.sin(40.0 * s) ** 2, -1.0, 0.5, 1e-11, 30),
    ])
    def test_bit_identical_to_recursion(self, f, a, b, rel_tol, max_depth,
                                        monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", max_depth)
        batched = gauss_legendre(elementwise(f), a, b, rel_tol=rel_tol)
        scalar = recursive_gauss_legendre(f, a, b, rel_tol=rel_tol,
                                          max_depth=max_depth)
        assert batched == scalar


class TestStack:
    """A stack of intervals is integrated in one round-batched call whose
    every value and error is the float of a call on its interval alone."""

    # per integral (i, x) -> f_i(x): a smooth one that stops early, a peak
    # that needs many rounds, a kink, and an oscillation
    FNS = (math.exp,
           lambda s: math.exp(-0.5 * ((s - 0.3) / 0.01) ** 2),
           lambda s: math.sqrt(abs(s - 0.2)),
           lambda s: math.sin(40.0 * s) ** 2)

    def stacked(self, fns):
        return lambda p: np.array([fns[i](s) for i, s in
                                   zip(p[0].tolist(), p[1].tolist())])

    @pytest.mark.parametrize("rel_tol, max_depth", [(1e-13, 30), (1e-10, 30),
                                                    (1e-12, 12), (1e-13, 3)])
    def test_stack_equals_single_calls(self, rel_tol, max_depth, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", max_depth)
        a = np.array([0.0, 0.0, 0.0, -1.0, 0.4, 0.7])
        b = np.array([2.0, 1.0, 1.0, 0.5, 0.4, 0.1])
        fns = self.FNS + (math.exp, math.cos)  # an empty and a reversed one
        vals, errs = gauss_legendre(self.stacked(fns), a, b, rel_tol=rel_tol)
        for i, f in enumerate(fns):
            one = gauss_legendre(elementwise(f), a[i], b[i], rel_tol=rel_tol)
            assert (vals[i], errs[i]) == one
        assert (vals[4], errs[4]) == (0.0, 0.0)

    def evaluations(self, fns, a, b, **kw):
        """Integrand calls, and abscissae per integral, of one stacked call."""
        seen = []

        def fn(p):
            seen.append(np.bincount(p[0], minlength=len(fns)))
            return self.stacked(fns)(p)

        gauss_legendre(fn, a, b, **kw)
        return len(seen), np.sum(seen, axis=0).tolist()

    def test_integrals_stop_at_their_own_depth(self):
        # each round evaluates only the panels still open, so every
        # integral costs the abscissae of its own call, and the stack makes
        # as many calls as its deepest integral
        a, b = [0.0, 0.0, -1.0], [2.0, 1.0, 0.5]
        fns = (self.FNS[0], self.FNS[1], self.FNS[3])
        calls, points = self.evaluations(fns, a, b, rel_tol=1e-10)
        single = [self.evaluations((f,), [lo], [hi], rel_tol=1e-10)
                  for f, lo, hi in zip(fns, a, b)]
        assert points == [pts[0] for _, pts in single]
        assert calls == max(n for n, _ in single)
        assert len({n for n, _ in single}) == 3

    def test_max_depth_reached(self, monkeypatch):
        # a kink at 0.2 keeps panels open to MAX_DEPTH, where the stack
        # and the single call stop together
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 6)
        fns = (self.FNS[2], math.exp)
        vals, errs = gauss_legendre(self.stacked(fns), [0.0, 0.0],
                                    [1.0, 1.0], rel_tol=1e-15)
        for i, f in enumerate(fns):
            assert (vals[i], errs[i]) == gauss_legendre(
                elementwise(f), 0.0, 1.0, rel_tol=1e-15)
        calls, _ = self.evaluations(fns, [0.0, 0.0], [1.0, 1.0],
                                    rel_tol=1e-15)
        assert calls == 6 + 1

    def test_shapes(self):
        vals, errs = gauss_legendre(abscissae(np.exp), [[0.0], [1.0]],
                                    [1.0, 2.0, 3.0])
        assert vals.shape == errs.shape == (2, 3)
        assert vals[1, 0] == 0.0
        assert vals[0, 1] == gauss_legendre(abscissae(np.exp), 0.0, 2.0)[0]


class TestSimpsonThreePoints:
    """A ray grid of ``sampling.steps: 2`` has 3 points, the fewest any grid
    has: both rules are exact on quadratics there."""

    # rows c0 + c1 x + c2 x^2 sampled at x0, x0 + h, x0 + 2h
    COEFFS = np.array([[1.0, 0.0, 0.0], [0.3, -2.0, 0.0], [-0.7, 1.5, 2.5],
                       [0.0, 0.0, -4.0]])

    @staticmethod
    def antiderivative(coeffs, x):
        return (coeffs[:, :1] * x + coeffs[:, 1:2] * x**2 / 2.0
                + coeffs[:, 2:] * x**3 / 3.0)

    @pytest.mark.parametrize("x0, h", [(0.0, 0.5), (-1.3, 0.1), (2.0, 0.75)])
    def test_exact_on_quadratics(self, x0, h):
        xs = x0 + h * np.arange(3.0)
        values = (self.COEFFS[:, :1] + self.COEFFS[:, 1:2] * xs
                  + self.COEFFS[:, 2:] * xs**2)
        F = self.antiderivative(self.COEFFS, xs)
        want = F - F[:, :1]
        got = cumulative_simpson(values, h)
        assert got.shape == values.shape and np.all(got[:, 0] == 0.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(composite_simpson(values, h), want[:, -1],
                                   rtol=0.0, atol=1e-14)


class TestCumulativeSimpson:
    @staticmethod
    def _former(values, dx):
        """The interior increments as one expression, before they were
        summed in place."""
        out = np.zeros(values.shape)
        inc = np.empty(values.shape[:-1] + (values.shape[-1] - 1,))
        f0, f1, f2, f3 = (values[..., k] for k in range(4))
        inc[..., 0] = dx / 24.0 * (9.0 * f0 + 19.0 * f1 - 5.0 * f2 + f3)
        inc[..., 1] = dx / 24.0 * (-f0 + 13.0 * f1 + 13.0 * f2 - f3)
        inc[..., 2:] = dx / 24.0 * (values[..., :-3] - 5.0 * values[..., 1:-2]
                                    + 19.0 * values[..., 2:-1]
                                    + 9.0 * values[..., 3:])
        np.cumsum(inc, axis=-1, out=out[..., 1:])
        return out

    @pytest.mark.parametrize("n", [4, 5, 33, 129])
    def test_bit_equal_to_the_expression(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(size=(7, n)) * 10.0 ** rng.integers(-5, 5, (7, 1))
        values[3, n // 2] = np.nan  # an inadmissible row
        for v, dx in ((values, 1.0 / (n - 1)), (values[0], 0.3),
                      (values[:, ::-1], 0.7)):
            before = v.copy()
            got = cumulative_simpson(v, dx)
            assert np.array_equal(got, self._former(v, dx), equal_nan=True)
            assert np.array_equal(v, before, equal_nan=True)
            assert np.all(got[..., 0] == 0.0)
