"""Dimension parameters, epsilon-range, comparison functions, float guards.

The triple (n, N, eps) fixes every exponent of the theory through the
constant c. N may be any extended real in ]-inf, 1] u [n, +inf]; N = +inf
is represented by ``math.inf`` and all N-dependent formulas take their
analytic limits there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError, RangeError

# below this threshold |kappa| * s^2 the closed forms of s_kappa and
# c_kappa lose digits to cancellation; switch to the Taylor series
_SERIES_THRESHOLD = 1e-8
LOG_MAX = math.log(sys.float_info.max)  # exp of a larger exponent overflows


@dataclass(frozen=True)
class DimensionParams:
    """Validated (n, N, eps) with the derived constants eps0 and c.

    Use :func:`validate_params` to construct instances.
    """

    n: int
    N: float
    eps: float
    eps0: float
    c: float

    @property
    def a(self) -> float:
        """Exponent coefficient 2(1 - eps)/(n - 1) of the weight reparametrization."""
        return 2.0 * (1.0 - self.eps) / (self.n - 1)

    @property
    def inv_c(self) -> float:
        return 1.0 / self.c

    @property
    def c_ratio(self) -> float:
        """The exponent c/(c + 1)."""
        return self.c / (self.c + 1.0)


def require_exp_range(expo, what: str) -> None:
    """Raise PreconditionError where e^expo, named ``what``, overflows."""
    if np.any(np.asarray(expo) > LOG_MAX):
        raise PreconditionError(f"{what} leaves the float range",
                                failed="e^{-a f} finite")


def require_normal(d, moving) -> None:
    """Raise PreconditionError where a re-parametrized distance d leaves the
    float range, or underflows it on a moving path: there e^{-a f}
    underflowed all along, d keeps no digit and its ratios are 0/0."""
    if not np.all(np.isfinite(d)):
        raise PreconditionError("a re-parametrized distance leaves the float"
                                " range", failed="e^{-a f} finite")
    if np.any((d < sys.float_info.min) & moving):
        raise PreconditionError("a re-parametrized distance underflows the"
                                " float range", failed="d_t normal")


def validate_params(n: int, N: float, eps: float) -> DimensionParams:
    """Validate (n, N, eps) and derive eps0 and c.

    Raises
    ------
    DimensionError
        If n < 2 or 1 < N < n.
    RangeError
        If eps falls outside the admissible range for (n, N). The range
        endpoints are open: eps equal to sqrt(eps0) exactly is rejected.
    """
    if n < 2:
        raise DimensionError(f"manifold dimension must satisfy n >= 2, got n={n}")
    if 1.0 < N < n:
        raise DimensionError(f"N={N} lies in the forbidden band ]1, {n}[")

    if N == 1.0:
        if eps != 0.0:
            raise RangeError(f"N=1 requires eps=0, got eps={eps}")
        eps0 = 0.0
        c = 1.0 / (n - 1)
    elif N == n:
        # the (N - n)/(N - 1) term vanishes; eps is unconstrained
        eps0 = math.inf
        c = 1.0 / (n - 1)
    elif math.isinf(N):
        eps0 = 1.0  # limit of (N - 1)/(N - n)
        if not (-1.0 < eps < 1.0):
            raise RangeError(f"N=+inf requires eps in ]-1, 1[, got eps={eps}")
        c = (1.0 - eps * eps) / (n - 1)
    else:
        eps0 = (N - 1.0) / (N - n)
        bound = math.sqrt(eps0)
        if not (-bound < eps < bound):
            raise RangeError(
                f"eps={eps} outside ]-{bound:.6g}, {bound:.6g}[ for (n={n}, N={N})"
            )
        c = (1.0 - eps * eps * (N - n) / (N - 1.0)) / (n - 1)

    return DimensionParams(n=n, N=float(N), eps=float(eps), eps0=eps0, c=c)


def s_kappa(kappa: float, s):
    """Comparison function: the solution of psi'' + kappa psi = 0, psi(0)=0, psi'(0)=1.

    Elementwise over an array s; a scalar s gives a numpy float.
    """
    s = np.asarray(s, dtype=float)
    if kappa == 0.0:  # the series at z = 0: s, and NaN at s = +-inf
        return s * (1.0 + kappa * s)
    r = math.sqrt(abs(kappa))
    sin = np.sin if kappa > 0.0 else np.sinh
    out = np.asarray(sin(s) if r == 1.0 else sin(r * s) / r)
    # |kappa s^2| < threshold only where |s| is below its root (widened
    # past rounding); the series is taken at those points alone
    near = np.flatnonzero(
        np.abs(s) < math.sqrt(_SERIES_THRESHOLD / abs(kappa)) * (1.0 + 1e-6))
    if near.size:
        s_near = np.take(s, near)
        z = kappa * s_near * s_near
        small = np.abs(z) < _SERIES_THRESHOLD
        s_near, z = s_near[small], z[small]
        np.put(out, near[small], s_near * (1.0 - z / 6.0 + z * z / 120.0))
    return out[()]


def c_kappa(kappa: float, s):
    """Derivative of :func:`s_kappa` with respect to arclength."""
    s = np.asarray(s, dtype=float)
    z = kappa * s * s
    if kappa == 0.0:
        return 1.0 - z / 2.0 + z * z / 24.0
    r = math.sqrt(abs(kappa))
    out = np.asarray(np.cos(r * s) if kappa > 0.0 else np.cosh(r * s))
    small = np.abs(z) < _SERIES_THRESHOLD
    if small.any():
        z = z[small]
        out[small] = 1.0 - z / 2.0 + z * z / 24.0
    return out[()]


def diam_kappa(kappa: float) -> float:
    """Diameter of the constant-curvature space form: pi/sqrt(kappa), +inf for kappa <= 0."""
    if kappa > 0.0:
        return math.pi / math.sqrt(kappa)
    return math.inf
