"""Numerical verification of the small-delta expansions.

Each series check evaluates an exact quantity along a geodesic through x
with unit tangent v at symmetric offsets delta, subtracts the claimed
partial sum through the delta^2 term, and bounds |remainder| / delta^3:
at the smallest offset whose remainder is above the noise floor it may be
at most four times its larger value at 8 and 16 times that offset, where an
O(delta^2) remainder would make it 8 to 16 times larger. Remainders at the
noise floor pass with margin 0; a non-finite remainder fails with margin
NaN. The offsets are the successive halvings 2^-4, ..., 2^-14, and every
term of one ``check_series`` call shares one pair of re-parametrized
distances per offset.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import _log_beta_pair, asymmetry_rate, require_beta_domain
from .errors import PreconditionError
from .params import DimensionParams, require_exp_range, s_kappa
from .report import CheckReport
from .spaces import ModelSpace, WeightFunction, grad_sup
from .reparam import reparam_partial

NOISE_FLOOR = 5e-15
# the F identity's absolute tolerance
F_IDENTITY_TOL = 1e-10
# the limit bound's t, and its LEVELS pairs of lengths L = LIMIT_R 2^-j
LIMIT_T, LIMIT_R, LEVELS = 0.5, 0.5, 8

TERMS = ("app1_fwd", "app1_rev", "app1_full", "app2_fwd", "app2_rev",
         "app3_fwd", "app3_rev", "app4_fwd", "app4_rev", "app6")


def series_margins(deltas, exact, series) -> np.ndarray:
    """The margin of each row of stacks (terms, deltas) of exact values and
    series: 1 - q0 / (4 max(ref)) for q = |remainder| / delta^3, q0 at the
    smallest delta whose remainder is above the noise floor and ref at 8
    and 16 times that delta (two, so that a sign change of the remainder
    near one does not decide the verdict); 0.0 when no remainder, or no
    reference remainder, is above the floor; NaN if one is not finite."""
    rem = np.abs(exact - series)
    live = rem > NOISE_FLOOR * np.max(1.0 + np.abs(exact), axis=1,
                                      keepdims=True)
    d0 = np.where(live, deltas, np.inf).min(axis=1, keepdims=True)
    ref = live & ((deltas == 8.0 * d0) | (deltas == 16.0 * d0))
    q = rem / deltas**3
    q0 = q[np.arange(len(q)), np.argmax(deltas == d0, axis=1)]
    with np.errstate(divide="ignore", invalid="ignore"):  # masked below
        margin = 1.0 - q0 / (4.0 * np.where(ref, q, -np.inf).max(axis=1))
    return np.where(np.isfinite(rem).all(axis=1),
                    np.where(ref.any(axis=1), margin, 0.0), np.nan)


def theta_eps(params: DimensionParams, gradf_v: float) -> float:
    """theta = -(1/(n-1)) (1/eps) (eps - eps0) g(grad f, v); needs eps != 0."""
    if params.eps == 0.0:
        raise PreconditionError("theta requires eps != 0", failed="eps != 0")
    if math.isinf(params.eps0):
        if gradf_v == 0.0:
            return 0.0
        raise PreconditionError("theta is undefined for N = n with a"
                                " non-vanishing weight gradient",
                                failed="finite eps0")
    return -(params.eps - params.eps0) * gradf_v / ((params.n - 1) * params.eps)


def check_series(space: ModelSpace, weight: WeightFunction,
                 params: DimensionParams, kappa: float, x, v):
    """Exact-versus-series comparison of the TERMS on the offsets
    delta = 2^-4, ..., 2^-14: (terms, deltas, exact, series), the last two
    of shape (terms, deltas), as `series_margins` takes them. The app4 and
    app6 terms rest on theta, which needs eps != 0; at eps = 0 (N = 1)
    they are left out.

    Each of app1-app4 is one formula on the signed offsets s = delta
    (its fwd row) and s = -delta (its rev row); app6 averages the two rows
    of its product. The app1, app2 and app6 terms rest on the
    re-parametrized distances (d_half, d_full) on the segment
    gamma(delta) -> gamma(-delta), walked from gamma_v(delta) along
    -gamma_v'(delta) for the length 2 delta; that pair is computed for
    every delta in one stacked quadrature. Raises PreconditionError if
    e^{-a f} at the base point leaves the float range, if d_full leaves
    the domain of beta, or if an app4 or app6 term meets
    |theta| delta >= 1 on the grid.
    """
    with_theta = params.eps != 0.0
    d = 2.0 ** -np.arange(4.0, 15.0)
    sd = np.stack([d, -d])  # the signed offsets, rows fwd and rev
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    fx = float(weight.eval(x))
    gfv = float(space.inner(x, np.asarray(weight.grad(x), dtype=float), v))
    hvv = float(weight.hess(x, v, v))
    a, n = params.a, params.n
    alpha = 0.5 * a  # (1-eps)/(n-1)
    require_exp_range(-2.0 * a * fx, "e^{-a f} at the base point")
    e0 = math.exp(-a * fx)
    kap_eff = params.inv_c * kappa * math.exp(-2.0 * a * fx)
    A = (2.0 * alpha**2 * gfv**2 / 3.0) - (alpha * hvv / 3.0)
    d_half, d_full = reparam_partial(
        space, weight, params, space.geodesic(x, v, d),
        -space.velocity(x, v, d), 2.0 * d, [[0.5], [1.0]], rel_tol=1e-13)
    require_beta_domain(kappa, d_full)
    # beta_{kappa,1/2} both ways, fwd then rev; the pair kernel returns the
    # reversed one, from gamma(-delta), first
    b = np.exp(_log_beta_pair(
        params, kappa, d_full, 0.5, s_kappa(kappa, d_full - d_half),
        s_kappa(kappa, d_half), s_kappa(kappa, d_full)))[::-1]
    if with_theta:
        th = theta_eps(params, gfv)
        # past |theta| delta = 1 the factors (1 + theta s)^n are no
        # small-delta expansion, and app6 takes a power of a negative base
        if abs(th) * d[0] >= 1.0:
            raise PreconditionError(f"|theta| delta = {abs(th) * d[0]:.3g}"
                                    " reaches 1 on the delta grid",
                                    failed="|theta| delta < 1")
    # the weight ratios e^{f(x) - f(gamma(-s))}
    w = np.exp(fx - weight.eval(space.geodesic(x, v, -sd)))
    g2 = params.inv_c * alpha * gfv
    coef2 = kap_eff + (1.0 - params.c) * g2**2
    exact = [np.stack([d_half, d_full - d_half]), [d_full], b, w]
    series = [e0 * d * (1.0 - alpha * gfv * sd + A * sd * sd),
              [2.0 * e0 * d * (1.0 + A * d * d)],
              1.0 - g2 * sd + 0.5 * coef2 * sd * sd,
              1.0 + gfv * sd + 0.5 * (gfv**2 - hvv) * sd * sd]
    if with_theta:
        binom, cr = (1.0 + th * sd) ** n, params.c_ratio
        F = f_of_theta(params, gfv, th)
        exact += [binom, [0.5 * ((w * binom * b) ** cr).sum(axis=0)]]
        series += [1.0 + n * th * sd + 0.5 * n * (n - 1) * th**2 * sd * sd,
                   [1.0 + cr * (kap_eff - hvv - F / (params.c + 1.0))
                    * 0.5 * d * d]]
    exact, series = np.vstack(exact), np.vstack(series)
    return TERMS[:len(exact)], d, exact, series


def f_of_theta(params: DimensionParams, gradf_v: float, theta):
    """F(theta) = n(n-(n-1)(c+1))theta^2 + 2n(alpha-c)g theta + (alpha^2+2alpha-c)g^2."""
    n, c = params.n, params.c
    alpha = (1.0 - params.eps) / (n - 1.0)
    g = gradf_v
    # libm's pow, as float ** 2 takes it: an array's ** 2 rounds as x * x
    return (n * (n - (n - 1.0) * (c + 1.0)) * np.float_power(theta, 2)
            + 2.0 * n * (alpha - c) * g * theta
            + (alpha**2 + 2.0 * alpha - c) * g**2)


def check_F_identity(params: DimensionParams, gradf_v: float,
                     theta_grid) -> CheckReport:
    """Algebraic identity tying F(theta) to the square completing the
    converse argument:

    F(theta) + (c+1) g^2/(N-n) = (n/eps0) (eps theta + (eps-eps0) g/(n-1))^2.
    """
    # eps0 is 0 at N = 1 and infinite exactly at N = n
    if not 0.0 < params.eps0 < math.inf:
        raise PreconditionError("identity needs 0 < eps0 < inf",
                                failed="0 < eps0 < inf")
    n, c, eps, eps0 = params.n, params.c, params.eps, params.eps0
    g, th = gradf_v, np.asarray(theta_grid, dtype=float)
    lhs = f_of_theta(params, g, th)
    if not math.isinf(params.N):
        lhs += (c + 1.0) * g**2 / (params.N - n)
    root = eps * th + (eps - eps0) * g / (n - 1.0)
    rhs = (n / eps0) * np.float_power(root, 2)  # as in f_of_theta
    return CheckReport(name="F_identity",
                       margins=(F_IDENTITY_TOL - np.abs(lhs - rhs)).tolist(),
                       tolerance=0.0, provenance={"gradf_v": gradf_v})


def check_limit_bound(space: ModelSpace, weight: WeightFunction,
                      params: DimensionParams, x, v) -> CheckReport:
    """Asymmetry bound |d_t/(t d_f) - 1| <= |a| A e^{|a| A L} L with
    A = (1-t) sup |grad f| (`asymmetry_rate`) at t = LIMIT_T, on the LEVELS
    pairs (x, gamma_v(L)) with L = LIMIT_R 2^{-j}, whose distances come from
    one stacked quadrature; a nonnegative margin means the bound holds.

    d_t(x, .) reads f only on the segment gamma_v([0, LIMIT_R]), so the sup
    is taken there (`grad_sup`); a grid sup can only under-estimate it,
    which only tightens the bound.
    """
    sup = grad_sup(space, weight, x, v, LIMIT_R)
    lengths = LIMIT_R * 2.0 ** -np.arange(LEVELS)
    d_full, d_t = reparam_partial(space, weight, params, x, v, lengths,
                                  [[1.0], [LIMIT_T]])
    margins = (asymmetry_rate(params, LIMIT_T, sup, lengths) * lengths
               - np.abs(d_t / (LIMIT_T * d_full) - 1.0))
    return CheckReport(name="limit_bound", margins=margins.tolist(),
                       tolerance=1e-12, provenance={"t": LIMIT_T, "r": LIMIT_R,
                                                    "grad_sup": sup})
