"""Twisted distortion coefficients and their small-t / small-distance limits.

beta_{kappa,t}(x,y) = (s_kappa(d_t(x,y)) / (t s_kappa(d_f(x,y))))^{1/c}
with d_t the partial re-parametrized distance, on the segment (x, v, L)
with y = gamma_v(L) that the caller holds. The inequalities use the
pair beta_{1-t}(y,x), beta_t(x,y); reversing the geodesic gives
d_{1-t}(y,x) = d_f(x,y) - d_t(x,y), so ``log_beta_pair`` forms both from
one (d_t, d_f). Every beta is taken behind one guard of its domain,
``require_beta_domain``. With base = e^{-a f(x)} d(x,y) and d_f = d_f(x,y),

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
from .params import (LOG_MAX, DimensionParams, c_kappa, diam_kappa,
                     require_exp_range, s_kappa)
from .quadrature import neville_extrapolate
from .report import CheckReport
from .spaces import ModelSpace, WeightFunction, grad_sup
from .reparam import reparam_partial

# distances within this of C_kappa count as past the conjugate radius
BOUNDARY_TOL = 1e-12
# how far an extrapolated t -> 0 limit may lie from its closed form: in
# log b, and in bfrak relative to 1 + |bfrak|
LIMIT_TOL = 1e-8
# the t-grid of the t -> 0 limits at unit scale (`check_limits` divides it)
T_GRID = np.array([0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1])
# d(x, y) of the pair (x, gamma_v(PAIR_LENGTH)) that `check_limits` reads
PAIR_LENGTH = 0.4


def within_conjugate_radius(kappa: float, d_full):
    """d_f < C_kappa, elementwise: where beta_{kappa,t} is finite."""
    return d_full < diam_kappa(kappa) - BOUNDARY_TOL


def require_beta_domain(kappa: float, d_full) -> None:
    """Raise PreconditionError unless every d_f lies in the domain of
    beta_{kappa,t}: s_kappa and c_kappa of it are floats (for kappa < 0
    they grow like e^{sqrt(-kappa) d_f} / 2), and it lies below the
    conjugate radius. For kappa > 0 only the radius can fail, for
    kappa < 0 only the float range."""
    r = math.sqrt(max(-kappa, 0.0))
    if r:  # below the float bound is below C_kappa = +inf
        if not np.all(r * np.asarray(d_full)
                      < LOG_MAX + min(0.0, math.log(r))):
            raise PreconditionError("s_kappa of a re-parametrized distance"
                                    " leaves the float range",
                                    failed="s_kappa(d_f) finite")
    elif not np.all(within_conjugate_radius(kappa, d_full)):
        raise PreconditionError(
            "re-parametrized distance reaches the conjugate radius",
            failed="d_f < C_kappa")


def log_beta(params: DimensionParams, kappa: float, d_part, d_full, frac):
    """log beta_{kappa,frac} = (1/c) log(s_kappa(d_part) / (frac s_kappa(d_full))).

    Elementwise over arrays, with d_part the partial distance at fraction
    ``frac`` and 0 where d_full = 0. Callers keep d_full below the
    conjugate radius; a fraction outside ]0, 1[ raises ValueError.
    """
    d_full = np.asarray(d_full, dtype=float)
    return _log_beta(params, s_kappa(kappa, d_part), d_full,
                     s_kappa(kappa, d_full), frac)


def _require_fractions(frac) -> np.ndarray:
    """``frac`` as an array; a ValueError unless it lies in ]0, 1[."""
    frac = np.asarray(frac, dtype=float)
    if not np.all((frac > 0.0) & (frac < 1.0)):
        raise ValueError(f"fractions must lie in ]0,1[, got {frac.min()}"
                         f" to {frac.max()}")
    return frac


def _log_beta(params, s_part, d_full, s_full, frac):
    """log_beta from s_part = s_kappa(d_part) and s_full = s_kappa(d_full)."""
    frac = _require_fractions(frac)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.log(frac * s_full)
        ratio = np.log(s_part)  # the full shape of (d_part, d_full, frac)
        ratio -= rest  # in place: two arrays alive, not three
    ratio *= params.inv_c
    zero = d_full == 0.0
    return np.where(zero, 0.0, ratio) if zero.any() else ratio


def log_beta_pair(params: DimensionParams, kappa: float, d_t, d_full, t):
    """(log beta_{1-t}(y,x), log beta_t(x,y)) from d_t = d_t(x,y) and
    d_full = d_f(x,y), elementwise over arrays.

    The reversed coefficient takes d_{1-t}(y,x) = d_f - d_t; both share
    one s_kappa(d_f). Raises PreconditionError if some d_f leaves the
    domain of beta (`require_beta_domain`).
    """
    d_full = np.asarray(d_full, dtype=float)
    require_beta_domain(kappa, d_full)
    return _log_beta_pair(params, kappa, d_full, t, *(
        s_kappa(kappa, d) for d in (d_full - d_t, d_t, d_full)))


def _log_beta_pair(params, kappa, d_full, t, s_rev, s_t, s_full):
    """log_beta_pair from the s_kappa of d_f - d_t, d_t and d_f; the
    caller has run `require_beta_domain` on d_f."""
    return (_log_beta(params, s_rev, d_full, s_full, 1.0 - t),
            _log_beta(params, s_t, d_full, s_full, t))


def beta_power_sums(params: DimensionParams, kappa: float, d_full, j0, j1,
                    du):
    """(t, d_t) -> ((1-t) sum (beta_{1-t}(y,x) j_0)^r du,
    t sum (beta_t(x,y) j_1)^r du) per t of the 1-d ``t``, r = c/(c+1), over
    the pairs (x, y) with d_f = ``d_full`` and d_t the row of ``d_t`` at t.

    From `log_beta`, r log beta_frac = e (log s_kappa(d_part) - log
    s_kappa(d_f) - log frac) with e = 1/(c+1), so frac (beta_frac j)^r =
    frac^r s_kappa(d_part)^e W, W = (j^c / s_kappa(d_f))^e: one s_kappa and
    one exponential per (t, pair) and side, summed against W du, which is
    taken once. A pair with d_f = 0 (beta = 1) adds frac j^r du. Raises as
    `require_beta_domain` does, and ValueError for a t outside ]0, 1[.
    """
    d_full = np.asarray(d_full, dtype=float)
    require_beta_domain(kappa, d_full)
    e, r, zero = 1.0 / (params.c + 1.0), params.c_ratio, d_full == 0.0
    with np.errstate(divide="ignore"):  # W = 0 where d_f = 0
        log_s = np.log(s_kappa(kappa, d_full))
    sides = []  # per side: W du, and the sum of j^r du where d_f = 0
    for j in (j0, j1):
        weight = np.exp(e * (params.c * np.log(j) - log_s))
        sides.append((np.where(zero, 0.0, weight) * du,
                      j[zero] ** r @ du[zero]))

    def side(frac, d_part, weight, flat):
        with np.errstate(divide="ignore"):  # s_kappa(0)^e = e^{-inf} = 0
            power = np.log(s_kappa(kappa, d_part))
        power *= e
        np.exp(power, out=power)
        return frac**r * (power @ weight) + frac * flat

    def sums(t, d_t):
        t = _require_fractions(t)
        return side(1.0 - t, d_full - d_t, *sides[0]), side(t, d_t, *sides[1])
    return sums


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


def asymmetry_rate(params: DimensionParams, t: float, sup: float, L):
    """|a| A e^{|a| A L} with A = (1-t) sup, elementwise in L, +inf past the
    float range: the asymmetry bound |d_t/(t d_f) - 1| <= rate L on
    segments of length L along which |grad f| <= sup."""
    aa = abs(params.a) * (1.0 - t) * sup  # |a| A
    with np.errstate(over="ignore"):
        return aa * np.exp(aa * np.asarray(L, dtype=float))


def beta(space: ModelSpace, weight: WeightFunction, params: DimensionParams,
         kappa: float, t: float, x, v, length: float) -> float:
    """Twisted coefficient beta_{kappa,t}(x, y) for t in ]0,1[ and
    y = gamma_v(length): 1 at length 0, +inf once d_f(x, y) reaches the
    conjugate radius."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in ]0,1[, got {t}")
    d_full, d_t = reparam_partial(space, weight, params, x, v, length,
                                  [1.0, t])
    if not within_conjugate_radius(kappa, d_full):
        return math.inf
    return math.exp(float(log_beta(params, kappa, d_t, d_full, t)))


def check_limits(space, weight, params, kappa: float, x, v) -> CheckReport:
    """Verify the t -> 0 limits of beta against b and bfrak by extrapolation,
    and the small-distance decay |beta_t - 1| = O(d(x,y)), for the pair
    (x, y) with y = gamma_v(PAIR_LENGTH).

    The t-grid is T_GRID divided by the larger of 1, sqrt|kappa| e^{-a f(x)}
    d(x,y) and |a| sup|grad f| d(x,y): the t-scales on which
    s_kappa(d_t)/(t s_kappa(d_f)) and d_t/t vary. Limits 1 and 2 share one
    d_f(x,y) and one d_t(x,y) per t; these and the distance pairs of limit 3
    come from one stacked quadrature. Raises PreconditionError if e^{-a f(x)}
    leaves the float range, or if d_f leaves the domain of beta.
    """
    length = PAIR_LENGTH
    sup = grad_sup(space, weight, x, v, length)
    expo = -params.a * float(weight.eval(x))
    require_exp_range(expo, "e^{-a f} at the base point")
    base = math.exp(expo) * length
    ts = T_GRID / max(1.0, math.sqrt(abs(kappa)) * base,
                      abs(params.a) * sup * length)
    # limit 3 takes beta_{1/2}(x, y_k) at y_k on the geodesic at d(x,y) 2^-k
    t_mid = 0.5
    dks = length * 0.5 ** np.arange(6)
    # one stack from x along v: d(x,y) for d_f and each d_t, then each d_k
    # twice
    dist = reparam_partial(space, weight, params, x, v, np.concatenate(
        [np.full(ts.size + 1, length), dks, dks]), np.concatenate(
        [[1.0], ts, np.ones(6), np.full(6, t_mid)]))
    d_full, d_t = dist[0], dist[1:ts.size + 1]
    decay_full, decay_t = dist[ts.size + 1:].reshape(2, 6)
    log_rev, log_fwd = log_beta_pair(params, kappa, d_t, d_full, ts)
    margins = []
    provenance = {"t_grid": ts.tolist()}

    # limit 1: log beta_t(x, y) -> log b(x, y)
    lb_target = float(log_b(params, kappa, base, d_full))
    lb_extrap = neville_extrapolate(ts, log_fwd)
    margins.append(LIMIT_TOL - abs(lb_extrap - lb_target))
    provenance["log_b_limit"] = {"target": lb_target, "extrapolated": lb_extrap}

    # limit 2: (1 - beta_{1-t}(y, x)^{c/(c+1)})/t -> bfrak(x, y)
    fb_target = float(frak_b(params, kappa, base, d_full))
    quots = -np.expm1(params.c_ratio * log_rev) / ts
    fb_extrap = neville_extrapolate(ts, quots)
    margins.append(LIMIT_TOL - abs(fb_extrap - fb_target)
                   / (1.0 + abs(fb_target)))
    provenance["frak_b_limit"] = {"target": fb_target, "extrapolated": fb_extrap}

    # limit 3: |beta_{1/2} - 1| -> 0 at least linearly in d(x,y), at the
    # rate B = 2 asymmetry_rate(d(x,y)) of the re-parametrized distance;
    # curvature adds a quadratic term. Past the float range the envelope
    # bounds nothing and reads +inf
    dev = np.abs(np.expm1(log_beta(params, kappa, decay_t, decay_full, t_mid)))
    B = 2.0 * asymmetry_rate(params, t_mid, sup, length)
    with np.errstate(over="ignore"):
        bound = np.expm1(params.inv_c * (B * dks + abs(kappa) * dks**2 / 3.0))
    margins.append(float(np.min(bound - dev + 1e-12)))
    provenance["decay"] = [{"d": d, "dev": e, "bound": lim} for d, e, lim
                           in zip(dks.tolist(), dev.tolist(), bound.tolist())]

    return CheckReport(name="coefficient_limits", margins=margins,
                       tolerance=0.0, provenance=provenance)
