"""Twisted distortion coefficients and their small-t / small-distance limits.

beta_{kappa,t}(x,y) = (s_kappa(d_t(x,y)) / (t s_kappa(d_f(x,y))))^{1/c}
with d_t the partial re-parametrized distance. The inequalities use the
pair beta_{1-t}(y,x), beta_t(x,y); reversing the geodesic gives
d_{1-t}(y,x) = d_f(x,y) - d_t(x,y), so ``log_beta_pair`` forms both from
one (d_t, d_f). With base = e^{-a f(x)} d(x,y) and d_f = d_f(x,y),

    b(base, d_f)     = (base / s_kappa(d_f))^{1/c}
    bfrak(base, d_f) = (1/(c+1)) (base c_kappa(d_f)/s_kappa(d_f) - 1)

are the t -> 0 limits of beta_t(x,y) and of
(1 - beta_{1-t}(y,x)^{c/(c+1)})/t respectively; b = 1 and bfrak = 0 at
x = y.

All powers are taken in log space since 1/c can be large.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .params import LOG_MAX, DimensionParams, c_kappa, diam_kappa, s_kappa
from .quadrature import neville_extrapolate
from .report import CheckReport
from .spaces import ModelSpace, WeightFunction, grad_sup, segment_between
from .reparam import exp_or_inf, reparam_partial

# distances within this of C_kappa count as past the conjugate radius
BOUNDARY_TOL = 1e-12
# how far an extrapolated t -> 0 limit may lie from its closed form
LIMIT_TOL = 1e-6


def within_conjugate_radius(kappa: float, d_full):
    """d_f < C_kappa, elementwise: where beta_{kappa,t} is finite."""
    return d_full < diam_kappa(kappa) - BOUNDARY_TOL


def require_conjugate_radius(kappa: float, d_full) -> None:
    """Raise PreconditionError unless every d_f lies below the conjugate radius."""
    if not np.all(within_conjugate_radius(kappa, d_full)):
        raise PreconditionError(
            "re-parametrized distance reaches the conjugate radius",
            failed="d_f < C_kappa")


def require_float_range(kappa: float, d_full) -> None:
    """Raise PreconditionError unless s_kappa and c_kappa of every d_f are
    floats: for kappa < 0 they grow like e^{sqrt(-kappa) d_f} / 2."""
    r = math.sqrt(max(-kappa, 0.0))
    if r and not np.all(r * np.asarray(d_full) < LOG_MAX + min(0.0, math.log(r))):
        raise PreconditionError("s_kappa of a re-parametrized distance leaves"
                                " the float range", failed="s_kappa(d_f) finite")


def log_beta(params: DimensionParams, kappa: float, d_part, d_full, frac):
    """log beta_{kappa,frac} = (1/c) log(s_kappa(d_part) / (frac s_kappa(d_full))).

    Elementwise over arrays, with d_part the partial distance at fraction
    ``frac`` and 0 where d_full = 0. Callers keep d_full below the
    conjugate radius; a fraction outside ]0, 1[ raises ValueError.
    """
    d_full = np.asarray(d_full, dtype=float)
    return _log_beta(params, s_kappa(kappa, d_part), d_full,
                     s_kappa(kappa, d_full), frac)


def _log_beta(params, s_part, d_full, s_full, frac):
    """log_beta from s_part = s_kappa(d_part) and s_full = s_kappa(d_full)."""
    frac = np.asarray(frac, dtype=float)
    if not np.all((frac > 0.0) & (frac < 1.0)):
        raise ValueError(f"fractions must lie in ]0,1[, got {frac.min()}"
                         f" to {frac.max()}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(s_part) - np.log(frac * s_full)
    return np.where(d_full == 0.0, 0.0, params.inv_c * ratio)


def log_beta_pair(params: DimensionParams, kappa: float, d_t, d_full, t):
    """(log beta_{1-t}(y,x), log beta_t(x,y)) from d_t = d_t(x,y) and
    d_full = d_f(x,y), elementwise over arrays.

    The reversed coefficient takes d_{1-t}(y,x) = d_f - d_t; both share
    one s_kappa(d_f). Raises PreconditionError if some d_f reaches the
    conjugate radius or leaves the float range of s_kappa.
    """
    d_full = np.asarray(d_full, dtype=float)
    require_float_range(kappa, d_full)
    return _log_beta_pair(params, kappa, d_full, t, *(
        s_kappa(kappa, d) for d in (d_full - d_t, d_t, d_full)))


def _log_beta_pair(params, kappa, d_full, t, s_rev, s_t, s_full):
    """log_beta_pair from the s_kappa of d_f - d_t, d_t and d_f."""
    require_conjugate_radius(kappa, d_full)
    return (_log_beta(params, s_rev, d_full, s_full, 1.0 - t),
            _log_beta(params, s_t, d_full, s_full, t))


def log_b(params: DimensionParams, kappa: float, base, d_full):
    """log b = (1/c) log(base / s_kappa(d_f)), elementwise, 0 where d_f = 0;
    d_f below the conjugate radius."""
    base = np.asarray(base, dtype=float)
    d_full = np.asarray(d_full, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(base) - np.log(s_kappa(kappa, d_full))
    return np.where(d_full == 0.0, 0.0, params.inv_c * ratio)


def frak_b(params: DimensionParams, kappa: float, base, d_full):
    """bfrak = (base c_kappa(d_f)/s_kappa(d_f) - 1)/(c+1), elementwise, 0
    where d_f = 0; d_f below the conjugate radius."""
    base = np.asarray(base, dtype=float)
    d_full = np.asarray(d_full, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = ((base * c_kappa(kappa, d_full) / s_kappa(kappa, d_full) - 1.0)
               / (params.c + 1.0))
    return np.where(d_full == 0.0, 0.0, val)


def beta(space: ModelSpace, weight: WeightFunction, params: DimensionParams,
         kappa: float, t: float, x, y) -> float:
    """Twisted coefficient beta_{kappa,t}(x,y) for t in ]0,1[: 1 at x = y,
    +inf once d_f(x,y) reaches the conjugate radius."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in ]0,1[, got {t}")
    seg = segment_between(space, x, y)
    d_full, d_t = reparam_partial(space, weight, params, seg, [1.0, t])
    return _beta_of(params, kappa, t, seg.length, d_t, d_full)[0]


def _beta_of(params, kappa, t, length, d_t, d_full) -> list[float]:
    """beta_{kappa,t} on segments of these lengths (one or a stack) from d_t
    and d_f: 1 on an empty one, +inf past the conjugate radius."""
    logs = np.ravel(log_beta(params, kappa, d_t, d_full, t)).tolist()
    inside = np.ravel(within_conjugate_radius(kappa, d_full)).tolist()
    return [1.0 if L == 0.0 else math.exp(lb) if ok else math.inf
            for L, lb, ok in zip(np.ravel(length).tolist(), logs, inside)]


def check_limits(space, weight, params, kappa: float, x, y,
                 t_grid) -> CheckReport:
    """Verify the t -> 0 limits of beta against b and bfrak by extrapolation,
    and the small-distance decay |beta_t - 1| = O(d(x,y)).

    Limits 1 and 2 share one d_f(x,y) and one d_t(x,y) per t; these and
    the distance pairs of limit 3 come from one stacked quadrature. Raises
    PreconditionError if d_f reaches the conjugate radius or leaves the float
    range of s_kappa.
    """
    ts = np.sort(np.asarray(t_grid, dtype=float))
    seg = segment_between(space, x, y)
    # limit 3 takes beta_{1/2}(x, y_k) at y_k on the geodesic at d(x,y) 2^-k
    t_mid = 0.5
    dks = [seg.length * 0.5**k for k in range(6)]
    decay_ends = space.geodesic(seg.start, seg.direction, np.array(dks))
    # one stack: (x, y) for d_f and each d_t, then each (x, y_k) twice
    segs = segment_between(space, seg.start, np.concatenate(
        [np.broadcast_to(seg.end, (ts.size + 1, seg.end.size)), decay_ends,
         decay_ends]))
    dist = reparam_partial(space, weight, params, segs, np.concatenate(
        [[1.0], ts, np.ones(6), np.full(6, t_mid)]))
    d_full, d_t = dist[0], dist[1:ts.size + 1]
    decay_full, decay_t = dist[ts.size + 1:].reshape(2, 6)
    log_rev, log_fwd = log_beta_pair(params, kappa, d_t, d_full, ts)
    base = math.exp(-params.a * float(weight.eval(seg.start))) * seg.length
    margins = []
    provenance = {"kappa": kappa, "t_grid": ts.tolist()}

    # limit 1: beta_t(x, y) -> b(x, y)
    b_target = float(np.exp(log_b(params, kappa, base, d_full)))
    b_extrap = neville_extrapolate(ts, np.exp(log_fwd))
    margins.append(LIMIT_TOL - abs(b_extrap - b_target))
    provenance["b_limit"] = {"target": b_target, "extrapolated": b_extrap}

    # limit 2: (1 - beta_{1-t}(y, x)^{c/(c+1)})/t -> bfrak(x, y)
    fb_target = float(frak_b(params, kappa, base, d_full))
    quots = -np.expm1(params.c_ratio * log_rev) / ts
    fb_extrap = neville_extrapolate(ts, quots)
    margins.append(LIMIT_TOL - abs(fb_extrap - fb_target))
    provenance["frak_b_limit"] = {"target": fb_target, "extrapolated": fb_extrap}

    # limit 3: |beta_t - 1| -> 0 at least linearly in d(x,y). The linear
    # rate comes from the asymmetry of the re-parametrized distance,
    # |d_t/(t d_f) - 1| <= |a| A e^{|a| A r} d(x,y) with
    # A = (1-t) sup||grad f||; curvature adds a quadratic correction.
    r = seg.length
    rng = np.random.default_rng(12345)
    pts = space.geodesic(seg.start, seg.direction, rng.uniform(0.0, r, 200))
    sup = grad_sup(space, weight, pts)
    aa = abs(params.a)
    B = aa * (1.0 - t_mid) * sup * exp_or_inf(
        aa * (1.0 - t_mid) * sup * r) * 2.0
    decay_rows = []
    decay_margin = math.inf
    for dk, beta_k in zip(dks, _beta_of(params, kappa, t_mid, segs.length[-6:],
                                        decay_t, decay_full)):
        dev = abs(beta_k - 1.0)
        # conservative envelope: linear asymmetry term plus curvature term;
        # past the float range it bounds nothing and reads +inf
        ex = params.inv_c * (B * dk + abs(kappa) * dk * dk / 3.0)
        lim = math.inf if ex > LOG_MAX else math.expm1(ex)
        decay_rows.append({"d": dk, "dev": dev, "bound": lim})
        decay_margin = min(decay_margin, lim - dev + 1e-12)
    margins.append(float(decay_margin))
    provenance["decay"] = decay_rows

    return CheckReport(name="coefficient_limits", margins=margins,
                       tolerance=0.0, provenance=provenance)
