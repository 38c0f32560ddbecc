"""Level-batched adaptive Simpson: accuracy, call count, summation order."""

import math

import numpy as np
import pytest

from cdcheck.quadrature import adaptive_simpson, composite_simpson


def counting(fn):
    """Wrap a vectorized integrand; ``calls`` counts its invocations."""
    def wrapped(x):
        wrapped.calls += 1
        return fn(np.asarray(x, dtype=float))
    wrapped.calls = 0
    return wrapped


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
    """A vectorized integrand from a scalar one, value by value, so the
    batched and the scalar rule see the same bits."""
    return lambda x: np.array([f(s) for s in np.asarray(x, float).tolist()])


class TestClosedForms:
    @pytest.mark.parametrize("L", [0.01, 1.0, 7.5])
    def test_decaying_exponential(self, L):
        val, err = adaptive_simpson(lambda x: np.exp(-x), 0.0, L,
                                    rel_tol=1e-12)
        exact = -math.expm1(-L)
        assert val == pytest.approx(exact, rel=1e-12)
        assert err <= 1e-12 * exact

    def test_cubic_is_exact(self):
        cubic = lambda x: 2.0 * x**3 - x**2 + 3.0 * x - 1.0
        val, err = adaptive_simpson(cubic, -1.0, 2.0)
        exact = 0.5 * (16 - 1) - (8 + 1) / 3.0 + 1.5 * (4 - 1) - 3.0
        assert val == pytest.approx(exact, rel=1e-14)
        assert err < 1e-14

    def test_peaked_gaussian(self):
        val, _ = adaptive_simpson(gaussian, 0.0, 1.0, rel_tol=1e-10)
        exact = 0.01 * math.sqrt(2.0 * math.pi)  # tails below 1e-195
        assert val == pytest.approx(exact, rel=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(np.exp, 0.4, 0.4) == (0.0, 0.0)


class TestLevels:
    @pytest.mark.parametrize("max_depth", [0, 3, 8, 30])
    def test_one_call_per_level(self, max_depth):
        fn = counting(gaussian)
        adaptive_simpson(fn, 0.0, 1.0, rel_tol=1e-13, max_depth=max_depth)
        assert fn.calls <= max_depth + 2

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
