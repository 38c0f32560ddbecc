"""Re-parametrized distances along weighted geodesics.

For the unit-speed geodesic gamma_v from x with unit tangent v, minimal on
[0, L], and a weight f, the partial re-parametrized distance from x to
y = gamma_v(L) at fraction t is

    d_t(x, y) = integral_0^{t L} exp(-a f(gamma_v(s))) ds,  a = 2(1-eps)/(n-1).

The full distance is d_f(x, y) = d_1(x, y). A segment is the (x, v, L)
its caller holds; no log map recovers it from the endpoints.
``reparam_partial`` takes one segment and one fraction, or a stack of
lengths (x and v broadcast against them) and their fractions, and
computes every distance of the stack in one stacked call of the
Gauss-Legendre panel rule `quadrature.gauss_legendre` on the analytic
geodesics: each round evaluates the integrand at all of its abscissae at
once (``space.geodesic`` from each abscissa's segment, then
``weight.eval``, then ``np.exp``), and each distance is the float its own
one-segment call returns.
"""

from __future__ import annotations

import math

import numpy as np

from .params import DimensionParams, require_exp_range, require_normal
from .quadrature import gauss_legendre
from .spaces import ModelSpace, WeightFunction


def reparam_partial(space: ModelSpace, weight: WeightFunction,
                    params: DimensionParams, x, v, length, t,
                    rel_tol: float = 1e-10):
    """d_t(x, gamma_v(length)), t in [0, 1]: a float for one length and a
    scalar t; for a stack of k lengths (x and v broadcast against them),
    an array of the shape of arange(k) broadcast against t (so t = [[t0],
    [t1]] gives the two fractions on every segment as two rows). Raises
    PreconditionError where e^{-a f} overflows, or where a distance of a
    non-empty segment underflows."""
    single = np.ndim(length) == 0
    rows, ts = np.broadcast_arrays(np.arange(np.size(length)),
                                   np.asarray(t, dtype=float))
    if not np.all((ts >= 0.0) & (ts <= 1.0)):
        raise ValueError(f"fraction t must lie in [0, 1], got {t}")
    lengths = np.reshape(length, -1)[rows]
    starts, directions = (np.reshape(np.broadcast_to(
        np.asarray(u, dtype=float), np.shape(length) + (space.ambient,)),
        (-1, space.ambient)) for u in (x, v))
    a = params.a
    if a == 0.0 or weight.is_constant:
        f0 = float(weight.eval(starts[0])) if weight.is_constant else 0.0
        require_exp_range(-a * f0, "e^{-a f} of a constant weight")
        out = math.exp(-a * f0) * ts * lengths
    else:
        starts, directions = starts[rows.ravel()], directions[rows.ravel()]

        def integrand(p):
            expo = -a * weight.eval(space.geodesic(starts[p[0]],
                                                   directions[p[0]], p[1]))
            require_exp_range(expo, "e^{-a f} on a segment")
            return np.exp(expo)

        out, _ = gauss_legendre(integrand, 0.0, ts * lengths, rel_tol=rel_tol)
    require_normal(out, ts * lengths > 0.0)
    return float(out[0]) if single and np.ndim(t) == 0 else out
