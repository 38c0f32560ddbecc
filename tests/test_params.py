import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdcheck.errors import DimensionError, RangeError
from cdcheck.params import c_kappa, diam_kappa, s_kappa, validate_params


class TestValidateParams:
    def test_classical_reduction(self):
        # N >= n with eps = 1 gives c = 1/(N-1)
        p = validate_params(3, 5, 1.0)
        assert p.c == pytest.approx(1.0 / 4.0, abs=0)

    def test_one_dimensional_reduction(self):
        # N = 1 forces eps = 0 and c = 1/(n-1)
        p = validate_params(4, 1.0, 0.0)
        assert p.c == pytest.approx(1.0 / 3.0, abs=0)

    def test_negative_N_endpoint(self):
        # N <= 1 at eps = eps0 gives c = 1/(n-N)
        n, N = 3, -2.0
        eps0 = (N - 1.0) / (N - n)
        p = validate_params(n, N, eps0)
        assert p.eps0 == pytest.approx(eps0)
        assert p.c == pytest.approx(1.0 / (n - N), rel=1e-15)

    def test_eps0_example(self):
        p = validate_params(2, 0.0, 0.5)
        assert p.eps0 == pytest.approx(0.5)

    def test_forbidden_band(self):
        with pytest.raises(DimensionError):
            validate_params(3, 2.0, 0.5)

    def test_small_n(self):
        with pytest.raises(DimensionError):
            validate_params(1, 5, 1.0)

    def test_open_endpoint_rejected(self):
        n, N = 2, 0.0
        bound = math.sqrt((N - 1.0) / (N - n))
        with pytest.raises(RangeError):
            validate_params(n, N, bound)

    def test_N1_requires_eps0(self):
        with pytest.raises(RangeError):
            validate_params(3, 1.0, 0.5)

    def test_infinite_N(self):
        p = validate_params(3, math.inf, 0.5)
        assert p.c == pytest.approx((1.0 - 0.25) / 2.0)
        with pytest.raises(RangeError):
            validate_params(3, math.inf, 1.0)

    @given(st.integers(2, 8), st.floats(-50.0, 50.0))
    def test_c_range(self, n, N):
        if 1.0 < N < n:
            return
        eps = 0.0 if N == 1.0 else None
        if eps is None:
            eps0 = (N - 1.0) / (N - n) if N != n else math.inf
            hi = math.sqrt(eps0) if math.isfinite(eps0) else 2.0
            eps = 0.3 * min(hi, 2.0)
        p = validate_params(n, N, eps)
        assert 0.0 < p.c <= 1.0

    def test_c_equals_one(self):
        assert validate_params(2, 1.0, 0.0).c == 1.0

    def test_derived_exponents(self):
        p = validate_params(3, 7, 0.25)
        assert p.a == pytest.approx(2.0 * 0.75 / 2.0)
        assert p.c_ratio == pytest.approx(p.c / (p.c + 1.0))
        assert p.inv_c == pytest.approx(1.0 / p.c)


def _sinh_scale(kappa):
    """What the s of a test case are divided by: 1, but at kappa = -3e5,
    where sinh(sqrt|kappa| s) would leave the float range, sqrt|kappa| / 2."""
    return max(1.0, math.sqrt(abs(kappa)) / 2.0)


class TestComparisonFunctions:
    def test_values(self):
        assert s_kappa(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
        assert s_kappa(-1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-12)
        assert c_kappa(1.0, 0.0) == 1.0
        assert c_kappa(0.0, 5.0) == 1.0
        assert c_kappa(-1.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-12)

    @pytest.mark.parametrize("kappa", [2.3, 0.0, -1.7])
    def test_ode_residual(self, kappa):
        # psi'' + kappa psi = 0 via second central differences
        s = np.linspace(0.1, 9.9, 200)
        h = 1e-4
        psi = lambda x: np.array([s_kappa(kappa, v) for v in x])
        dd = (psi(s + h) - 2.0 * psi(s) + psi(s - h)) / h**2
        resid = np.abs(dd + kappa * psi(s)) / (1.0 + np.abs(psi(s)))
        assert np.max(resid) < 1e-6

    @pytest.mark.parametrize("kappa", [1.0, -0.5, 3.0])
    def test_derivative_consistency(self, kappa):
        upper = min(diam_kappa(kappa), 10.0)
        s = np.linspace(0.05, upper - 0.05, 150)
        h = 1e-6
        fd = np.array([(s_kappa(kappa, v + h) - s_kappa(kappa, v - h))
                       / (2 * h) for v in s])
        ck = np.array([c_kappa(kappa, v) for v in s])
        assert np.max(np.abs(fd - ck)) < 1e-6

    def test_continuity_in_kappa(self):
        for s in (0.1, 1.0, 5.0, 10.0):
            assert abs(s_kappa(1e-12, s) - s) < 1e-9

    def test_array_matches_scalar(self):
        s = np.array([0.0, 1e-9, 0.3, 2.0])
        for kappa in (1.5, 0.0, -2.0):
            arr = s_kappa(kappa, s)
            ref = [s_kappa(kappa, float(v)) for v in s]
            np.testing.assert_allclose(arr, ref, rtol=1e-14, atol=1e-300)
            arr = c_kappa(kappa, s)
            ref = [c_kappa(kappa, float(v)) for v in s]
            np.testing.assert_allclose(arr, ref, rtol=1e-14)

    @pytest.mark.parametrize("kappa", [1.3, 1e-12, 0.0, -0.7, -2.5])
    def test_scalar_is_its_array_element(self, kappa):
        # one implementation: a scalar call returns, bit for bit, its
        # element of an array call, on the closed form and on the series
        s = np.concatenate([np.random.default_rng(9).uniform(-4.0, 4.0, 300),
                            [0.0, 1e-9, -3e-6, 2e-5]])
        for fn in (s_kappa, c_kappa):
            arr = fn(kappa, s)
            scalars = [fn(kappa, float(v)) for v in s]
            assert all(np.ndim(v) == 0 for v in scalars)
            assert np.array_equal([float(v) for v in scalars], arr)

    # the closed form over the whole array with np.where onto the series,
    # as s_kappa and c_kappa took it before they wrote the series only into
    # the elements that take it
    @staticmethod
    def _where_form(kappa, s, series, closed):
        s = np.asarray(s, dtype=float)
        z = kappa * s * s
        if kappa == 0.0:
            return series(s, z)
        r = math.sqrt(abs(kappa))
        safe = np.where(np.abs(z) < 1e-8, 0.0, s)
        return np.where(np.abs(z) < 1e-8, series(s, z), closed(r, safe))

    def _s_where_form(self, kappa, s):
        return self._where_form(
            kappa, s, lambda s, z: s * (1.0 - z / 6.0 + z * z / 120.0),
            lambda r, s: (np.sin(r * s) / r if kappa > 0.0
                          else np.sinh(r * s) / r))

    @staticmethod
    def _threshold_points(kappa):
        """The s > 0 with |kappa s^2| = 1e-8 in floats, and the last s of the
        series and the first of the closed form, with their negatives."""
        root = math.sqrt(1e-8 / abs(kappa))
        near = [root]
        for _ in range(8):
            near = [np.nextafter(near[0], 0.0), *near,
                    np.nextafter(near[-1], math.inf)]
        z = [abs(kappa * v * v) for v in near]
        last = max(i for i, v in enumerate(z) if v < 1e-8)
        pts = [near[last], near[last + 1]]
        pts += [v for v, w in zip(near, z) if w == 1e-8]
        return pts + [-v for v in pts]

    @pytest.mark.parametrize("kappa", [1.3, -0.7, 0.0, 1.0, -1.0, -3e5])
    @pytest.mark.parametrize("s", [
        [0.0, 1e-9, -3e-6, 0.3, -2.0, 1e-4, 5e-5],  # both branches
        [0.0, 1e-9, -2e-6, 5e-6, 1e-12],  # series only
        [0.3, -2.0, 1.0, 2.9],  # closed form only
        [np.nan, 1e-9, 0.7, np.nan, -1e-5],  # NaN among both
        [[0.0, 0.5], [1e-7, -1.5]],  # a stack
    ])
    def test_array_branches_match_the_where_form(self, kappa, s):
        s = np.array(s) / _sinh_scale(kappa)
        ref = self._s_where_form(kappa, s)
        assert np.array_equal(s_kappa(kappa, np.array(s)), ref,
                              equal_nan=True)
        ref = self._where_form(
            kappa, s, lambda s, z: 1.0 - z / 2.0 + z * z / 24.0,
            lambda r, s: np.cos(r * s) if kappa > 0.0 else np.cosh(r * s))
        assert np.array_equal(c_kappa(kappa, np.array(s)), ref,
                              equal_nan=True)

    @pytest.mark.parametrize("kappa", [1.3, -0.7, 1.0, -1.0, -3e5])
    def test_series_threshold_matches_the_where_form(self, kappa):
        # |kappa s^2| = 1e-8 where a float gives it, and one ulp either
        # side of where the series stops: the candidates from |s| are
        # widened past the rounding of kappa s^2
        s = np.array(self._threshold_points(kappa))
        assert np.array_equal(s_kappa(kappa, s), self._s_where_form(kappa, s))
        assert s.size >= 4

    @pytest.mark.parametrize("kappa", [1.3, -0.7, 0.0, 1.0, -1.0, -3e5])
    @pytest.mark.parametrize("layout", ["0-d", "strided", "empty"])
    def test_layouts_match_the_where_form(self, kappa, layout):
        base = np.array([[0.0, 1e-9, 0.3, -3e-6], [-2.0, 1e-4, np.nan, 5e-5],
                         [1e-12, 2.9, -1e-7, 0.7]]) / _sinh_scale(kappa)
        if layout == "0-d":
            for v in base.ravel():
                got = s_kappa(kappa, np.array(v))
                assert np.ndim(got) == 0
                assert np.array_equal(got, self._s_where_form(kappa, v),
                                      equal_nan=True)
            return
        s = base.T[::2] if layout == "strided" else base[:0]
        assert layout == "empty" or not s.flags.c_contiguous
        got = s_kappa(kappa, s)
        assert got.shape == s.shape
        assert np.array_equal(got, self._s_where_form(kappa, s),
                              equal_nan=True)


class TestDiameter:
    def test_values(self):
        assert diam_kappa(4.0) == pytest.approx(math.pi / 2)
        assert diam_kappa(math.pi**2) == pytest.approx(1.0)
        assert diam_kappa(0.0) == math.inf
        assert diam_kappa(-1.0) == math.inf
