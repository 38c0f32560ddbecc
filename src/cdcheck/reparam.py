"""Re-parametrized distances along weighted geodesics.

For a unit-speed minimal geodesic gamma from x to y of length L and
weight f, the partial re-parametrized distance at fraction t is

    d_t(x, y) = integral_0^{t L} exp(-a f(gamma(s))) ds,   a = 2(1-eps)/(n-1).

The full distance is d_f(x, y) = d_1(x, y). These are computed by
adaptive Simpson quadrature on the analytic geodesic, whose integrand is
evaluated on a whole array of arclengths at once (``space.geodesic``,
then ``weight.eval``, then the exponential taken with ``math.exp`` per
value).
"""

from __future__ import annotations

import math

import numpy as np

from .params import DimensionParams
from .quadrature import adaptive_simpson
from .spaces import GeodesicSegment, ModelSpace, WeightFunction


def weight_along(space: ModelSpace, weight: WeightFunction,
                 seg: GeodesicSegment, s):
    """f(gamma(s)) for arclength s, vectorized."""
    pts = space.geodesic(seg.start, seg.direction, np.asarray(s, dtype=float))
    return weight.eval(pts)


def _exp_weight(a: float, fs) -> np.ndarray:
    """exp(-a f) per value; ``math.exp`` keeps the last bit that numpy's
    exp can round differently."""
    return np.array([math.exp(-a * f) for f in np.asarray(fs, float).tolist()])


def reparam_partial(space: ModelSpace, weight: WeightFunction,
                    params: DimensionParams, seg: GeodesicSegment,
                    t: float, rel_tol: float = 1e-10) -> float:
    """d_t(x, y) along the given segment, t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"fraction t must lie in [0, 1], got {t}")
    a = params.a
    if a == 0.0 or weight.is_constant:
        f0 = float(weight.eval(seg.start)) if weight.is_constant else 0.0
        scale = math.exp(-a * f0) if weight.is_constant else 1.0
        return scale * t * seg.length
    upper = t * seg.length
    if upper == 0.0:
        return 0.0
    fn = lambda s: _exp_weight(a, weight_along(space, weight, seg, s))
    val, _ = adaptive_simpson(fn, 0.0, upper, rel_tol=rel_tol)
    return val


def asymmetry_bound_margin(space: ModelSpace, weight: WeightFunction,
                           params: DimensionParams, seg: GeodesicSegment,
                           t: float, grad_sup: float) -> float:
    """Margin of |d_t/(t d_f) - 1| <= |a| A e^{|a| A r} d(x,y), A = (1-t) grad_sup.

    ``grad_sup`` must dominate the gradient norm of the weight on a ball
    of radius r = d(x,y) around x. Nonnegative margin means the bound holds.
    """
    a = params.a
    r = seg.length
    d_full = reparam_partial(space, weight, params, seg, 1.0)
    d_t = reparam_partial(space, weight, params, seg, t)
    lhs = abs(d_t / (t * d_full) - 1.0)
    big_a = (1.0 - t) * grad_sup
    rhs = abs(a) * big_a * math.exp(abs(a) * big_a * r) * r
    return rhs - lhs

