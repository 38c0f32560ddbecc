"""Level-batched adaptive Simpson: accuracy, call count, summation order."""

import math

import numpy as np
import pytest

from cdcheck.errors import PreconditionError
from cdcheck.quadrature import MAX_OPEN, adaptive_simpson, composite_simpson


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


def recursive_simpson(fn, a, b, rel_tol=1e-10, max_depth=30):
    """The scalar recursive formulation the level-batched one reproduces."""
    fa, fb, m = fn(a), fn(b), 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    grid = np.linspace(a, b, 33)
    vals = np.array([fn(float(s)) for s in grid[1:-1]])
    coarse = composite_simpson(np.concatenate([[fa], vals, [fb]]),
                               float(grid[1] - grid[0]))

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth >= max_depth or abs(delta) <= tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = recurse(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1)
        rv, re = recurse(m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1)
        return lv + rv, le + re

    tol0 = rel_tol * max(abs(coarse), 1e-300) + 1e-300
    return recurse(a, fa, m, fm, b, fb, whole, tol0, 0)


def gaussian(x, c=0.3, w=0.01):
    return np.exp(-0.5 * ((x - c) / w) ** 2)


def elementwise(f):
    """A stacked integrand from a scalar one, value by value, so the
    batched and the scalar rule see the same bits."""
    return lambda p: np.array([f(s) for s in np.asarray(p[1], float).tolist()])


class TestClosedForms:
    @pytest.mark.parametrize("L", [0.01, 1.0, 7.5])
    def test_decaying_exponential(self, L):
        val, err = adaptive_simpson(abscissae(lambda x: np.exp(-x)), 0.0, L,
                                    rel_tol=1e-12)
        exact = -math.expm1(-L)
        assert val == pytest.approx(exact, rel=1e-12)
        assert err <= 1e-12 * exact

    def test_cubic_is_exact(self):
        cubic = lambda x: 2.0 * x**3 - x**2 + 3.0 * x - 1.0
        val, err = adaptive_simpson(abscissae(cubic), -1.0, 2.0)
        exact = 0.5 * (16 - 1) - (8 + 1) / 3.0 + 1.5 * (4 - 1) - 3.0
        assert val == pytest.approx(exact, rel=1e-14)
        assert err < 1e-14

    def test_peaked_gaussian(self):
        val, _ = adaptive_simpson(abscissae(gaussian), 0.0, 1.0,
                                  rel_tol=1e-10)
        exact = 0.01 * math.sqrt(2.0 * math.pi)  # tails below 1e-195
        assert val == pytest.approx(exact, rel=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(abscissae(np.exp), 0.4, 0.4) == (0.0, 0.0)


class TestLevels:
    @pytest.mark.parametrize("max_depth", [0, 3, 8, 30])
    def test_one_call_per_level(self, max_depth):
        fn = counting(gaussian)
        adaptive_simpson(fn, 0.0, 1.0, rel_tol=1e-13, max_depth=max_depth)
        assert fn.calls <= max_depth + 2

    def test_nan_refinement_is_final(self):
        # a NaN integrand cannot converge: it stops at the first level
        # instead of splitting every interval down to max_depth
        fn = counting(lambda x: np.where(x > 0.5, np.nan, x))
        val, err = adaptive_simpson(fn, 0.0, 1.0, max_depth=12)
        assert math.isnan(val) and math.isnan(err)
        assert fn.calls == 2

    def test_unsettled_refinement_is_refused(self):
        # noise above the tolerance never settles: every interval splits
        # at every level, and past MAX_OPEN open intervals the call is
        # refused instead of splitting on towards 2^30 of them
        noise = np.random.default_rng(0)
        fn = counting(lambda x: 1.0 + 1e-9 * noise.standard_normal(x.shape))
        with pytest.raises(PreconditionError, match="does not settle"):
            adaptive_simpson(fn, 0.0, 1.0, rel_tol=1e-13)
        assert fn.calls == math.log2(MAX_OPEN) + 2

    @pytest.mark.parametrize("f, a, b, rel_tol, max_depth", [
        (math.exp, 0.0, 2.0, 1e-13, 30),
        (lambda s: math.exp(-0.5 * ((s - 0.3) / 0.01) ** 2), 0.0, 1.0,
         1e-10, 30),
        (lambda s: math.sqrt(abs(s - 0.2)), 0.0, 1.0, 1e-12, 12),
        (lambda s: math.sin(40.0 * s) ** 2, -1.0, 0.5, 1e-11, 30),
    ])
    def test_bit_identical_to_recursion(self, f, a, b, rel_tol, max_depth):
        batched = adaptive_simpson(elementwise(f), a, b, rel_tol=rel_tol,
                                   max_depth=max_depth)
        scalar = recursive_simpson(f, a, b, rel_tol=rel_tol,
                                   max_depth=max_depth)
        assert batched == scalar


class TestStack:
    """A stack of intervals is integrated in one level-batched call whose
    every value and error is the float of a call on its interval alone."""

    # per integral (i, x) -> f_i(x): a smooth one that stops early, a peak
    # that needs many levels, a kink, and an oscillation
    FNS = (math.exp,
           lambda s: math.exp(-0.5 * ((s - 0.3) / 0.01) ** 2),
           lambda s: math.sqrt(abs(s - 0.2)),
           lambda s: math.sin(40.0 * s) ** 2)

    def stacked(self, fns):
        return lambda p: np.array([fns[i](s) for i, s in
                                   zip(p[0].tolist(), p[1].tolist())])

    @pytest.mark.parametrize("rel_tol, max_depth", [(1e-13, 30), (1e-10, 30),
                                                    (1e-12, 12), (1e-13, 3)])
    def test_stack_equals_single_calls(self, rel_tol, max_depth):
        a = np.array([0.0, 0.0, 0.0, -1.0, 0.4, 0.7])
        b = np.array([2.0, 1.0, 1.0, 0.5, 0.4, 0.1])
        fns = self.FNS + (math.exp, math.cos)  # an empty and a reversed one
        vals, errs = adaptive_simpson(self.stacked(fns), a, b,
                                      rel_tol=rel_tol, max_depth=max_depth)
        for i, f in enumerate(fns):
            one = adaptive_simpson(elementwise(f), a[i], b[i],
                                   rel_tol=rel_tol, max_depth=max_depth)
            assert (vals[i], errs[i]) == one
        assert (vals[4], errs[4]) == (0.0, 0.0)

    def evaluations(self, fns, a, b, **kw):
        """Integrand calls, and abscissae per integral, of one stacked call."""
        seen = []

        def fn(p):
            seen.append(np.bincount(p[0], minlength=len(fns)))
            return self.stacked(fns)(p)

        adaptive_simpson(fn, a, b, **kw)
        return len(seen), np.sum(seen, axis=0).tolist()

    def test_integrals_stop_at_their_own_depth(self):
        # each level evaluates only the intervals still open, so every
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

    def test_max_depth_reached(self):
        # a kink at 0.2 keeps intervals open to max_depth, where the stack
        # and the single call stop together
        fns = (self.FNS[2], math.exp)
        vals, errs = adaptive_simpson(self.stacked(fns), [0.0, 0.0],
                                      [1.0, 1.0], rel_tol=1e-15, max_depth=6)
        for i, f in enumerate(fns):
            assert (vals[i], errs[i]) == adaptive_simpson(
                elementwise(f), 0.0, 1.0, rel_tol=1e-15, max_depth=6)
        calls, _ = self.evaluations(fns, [0.0, 0.0], [1.0, 1.0],
                                    rel_tol=1e-15, max_depth=6)
        assert calls == 6 + 2

    def test_shapes(self):
        vals, errs = adaptive_simpson(abscissae(np.exp), [[0.0], [1.0]],
                                      [1.0, 2.0, 3.0])
        assert vals.shape == errs.shape == (2, 3)
        assert vals[1, 0] == 0.0
        assert vals[0, 1] == adaptive_simpson(abscissae(np.exp), 0.0, 2.0)[0]
