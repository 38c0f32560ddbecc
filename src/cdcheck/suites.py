"""End-to-end inequality checks on quasi-1D configurations.

Everything here consumes axis geometries from the transport module: the
displacement convexity condition with twisted coefficients, the weighted
Brunn-Minkowski inequality, the p-mean interpolation family, and the
functional inequalities (HWI, log-Sobolev, transport-energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import log_beta, require_conjugate_radius
from .errors import HypothesisError, PreconditionError, RegionError
from .params import DimensionParams, c_kappa, s_kappa
from .ot import (AxisGeometry, DensityField, entropy_functional,
                 fisher_information, monotone_1d_transport, renyi_pointwise,
                 w2_axis)
from .quadrature import cumulative_simpson
from .report import CheckReport
from .spaces import ricci_fN_batch


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _curvature_margins(geometry: AxisGeometry, params: DimensionParams,
                       kappa: float):
    """(xs, margins): the margin of Ric_f^N >= c^{-1} kappa e^{-4(1-eps)f/(n-1)}
    at the grid points xs of the axis, worst case over unit directions.

    Every preset has grad f along the axis and Hess f diagonal in the
    frame (axis tangent, normal), so Ric_f^N(v) is affine in the squared
    tangent component of v: its minimum is at one of the two frame vectors.
    """
    points, *frame = geometry.axis_frame()
    with np.errstate(divide="ignore", invalid="ignore"):
        ric = np.min([ricci_fN_batch(geometry.space, geometry.weight, params,
                                     points, vs) for vs in frame], axis=0)
    rhs = params.inv_c * kappa * np.exp(-2.0 * params.a * geometry.f_vals)
    return geometry.xs, ric - rhs


def _require_curvature(geometry, params, kappa, hull=None):
    """Worst curvature margin on the window, or on the grid points within
    one step of ``hull`` = (lo, hi); raises PreconditionError if it is
    negative or not finite."""
    xs, margins = _curvature_margins(geometry, params, kappa)
    where = "the window"
    if hull is not None:
        lo, hi = hull
        near = (xs >= lo - geometry.dx) & (xs <= hi + geometry.dx)
        if near.any():
            margins = margins[near]
            where = f"the hull [{lo:g}, {hi:g}] of the regions"
    if not np.isfinite(margins).all():
        raise PreconditionError(f"curvature margin is not finite on {where}",
                                failed="curvature bound")
    margin = float(np.min(margins))
    if margin < 0.0:
        raise PreconditionError(
            f"curvature bound fails on {where} (margin {margin:.3e})",
            failed="curvature bound")
    return margin


def axis_log_betas(geometry: AxisGeometry, params: DimensionParams,
                   kappa: float, x, y, t):
    """(log beta_{1-t}(y, x), log beta_t(x, y)) at the axis pairs (x, y),
    with t broadcast against them; raises PreconditionError if a pair
    reaches the conjugate radius."""
    d_full = geometry.reparam_partial(params, x, y, 1.0)
    require_conjugate_radius(kappa, d_full)
    d_t = geometry.reparam_partial(params, x, y, t)
    return (log_beta(params, kappa, d_full - d_t, d_full, 1.0 - t),
            log_beta(params, kappa, d_t, d_full, t))


# ----------------------------------------------------------------------
# displacement convexity
# ----------------------------------------------------------------------
# t values per (t, u) batch of the twcd kernel; one batch over a 99-point
# t-grid raises the peak memory of a run by a third
_T_CHUNK = 8


def check_twcd(rho0: DensityField, rho1: DensityField,
               params: DimensionParams, kappa: float, t_grid,
               tol: float = 1e-6) -> CheckReport:
    """Twisted displacement convexity of the Renyi-type entropy along the
    monotone interpolation.

    For each t the margin is RHS(t) - U_m(mu_t), with the beta-weighted
    right-hand side taken over the monotone coupling (Q_0(u), Q_1(u)). In
    the mass coordinate u (see MonotoneInterpolation) it is one integral,
    ((c+1)/c) int_0^1 [j_t^r - (1-t) (beta_rev j_0)^r - t (beta_fwd j_1)^r] du
    with r = c/(c+1), evaluated for _T_CHUNK values of the sorted t-grid
    at a time.
    """
    g = rho0.geometry
    curv = _require_curvature(g, params, kappa)
    interp = monotone_1d_transport(rho0, rho1)
    entropy = partial(renyi_pointwise, params=params)
    ts = np.sort(np.asarray(t_grid, dtype=float))
    per_t = []
    for start in range(0, ts.size, _T_CHUNK):
        t = ts[start:start + _T_CHUNK]
        lhs = interp.pushforward_integral(t, entropy)
        b_rev, b_fwd = np.exp(axis_log_betas(g, params, kappa, interp.Q0,
                                             interp.Q1, t[:, None]))
        rhs = ((1.0 - t) * interp.mass_integral(entropy, b_rev * interp.j0)
               + t * interp.mass_integral(entropy, b_fwd * interp.j1))
        per_t += [{"t": float(v), "lhs": float(l), "rhs": float(r),
                   "margin": float(r - l)} for v, l, r in zip(t, lhs, rhs)]

    return CheckReport(name="twcd", margins=[row["margin"] for row in per_t],
                       tolerance=tol,
                       provenance={"kappa": kappa, "functional": "renyi",
                                   "curvature_margin": curv, "rows": per_t})


# ----------------------------------------------------------------------
# Brunn-Minkowski
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionPair:
    """Two regions plus an interpolation parameter.

    Supported region dicts: {"kind": "interval", "bounds": (a, b)} on an
    axis geometry, or {"kind": "ball", "center": ..., "radius": r} in
    unweighted Euclidean space.
    """

    X: dict
    Y: dict
    t: float


def _interval_measure(geometry: AxisGeometry, lo: float, hi: float) -> float:
    tab = cumulative_simpson(geometry.m_density, geometry.dx)
    a, b = min(lo, hi), max(lo, hi)
    return float(np.interp(b, geometry.xs, tab) - np.interp(a, geometry.xs, tab))


def _inf_beta_powers(geometry, params, kappa, xlo, xhi, ylo, yhi, t, k):
    """Sampled infima of beta_{1-t}(y,x)^{c/(c+1)} and beta_t(x,y)^{c/(c+1)}
    over the interval product, on a k x k grid."""
    X, Y = np.meshgrid(np.linspace(xlo, xhi, k), np.linspace(ylo, yhi, k),
                       indexing="ij")
    logs = axis_log_betas(geometry, params, kappa, X, Y, t)
    rev, fwd = np.exp(params.c_ratio * np.array(logs))
    return float(rev.min()), float(fwd.min())


def check_brunn_minkowski(pair: RegionPair, geometry_or_space, weight_or_none,
                          params: DimensionParams, kappa: float,
                          samples: int = 64, tol: float = 1e-6) -> CheckReport:
    """Weighted Brunn-Minkowski with sampled coefficient infima.

    m(Z_t)^{c/(c+1)} >= (1-t) (inf beta_{1-t})^{c/(c+1)} m(X)^{c/(c+1)}
                        + t (inf beta_t)^{c/(c+1)} m(Y)^{c/(c+1)}.
    """
    t = pair.t
    cr = params.c / (params.c + 1.0)
    kx, ky = pair.X.get("kind"), pair.Y.get("kind")
    if kx == ky == "interval":
        g: AxisGeometry = geometry_or_space
        xlo, xhi = pair.X["bounds"]
        ylo, yhi = pair.Y["bounds"]
        # the transport between the intervals stays in their hull
        ends = (xlo, xhi, ylo, yhi)
        _require_curvature(g, params, kappa, (min(ends), max(ends)))
        m_x = _interval_measure(g, xlo, xhi)
        m_y = _interval_measure(g, ylo, yhi)
        m_z = _interval_measure(g, (1 - t) * xlo + t * ylo,
                                (1 - t) * xhi + t * yhi)
        rev, fwd = _inf_beta_powers(g, params, kappa, xlo, xhi, ylo, yhi,
                                    t, samples)
        rev2, fwd2 = _inf_beta_powers(g, params, kappa, xlo, xhi, ylo, yhi,
                                      t, 2 * samples)
        refine_drift = max(abs(rev - rev2), abs(fwd - fwd2))
        rev, fwd = rev2, fwd2
    elif kx == ky == "ball":
        space = geometry_or_space
        if weight_or_none is not None and not weight_or_none.is_constant:
            raise RegionError("ball regions support constant weights only")
        f0 = float(weight_or_none.eval(np.zeros(space.dim))) if weight_or_none else 0.0
        c0 = np.asarray(pair.X.get("center", np.zeros(space.dim)), dtype=float)
        c1 = np.asarray(pair.Y.get("center", np.zeros(space.dim)), dtype=float)
        r0, r1 = pair.X["radius"], pair.Y["radius"]
        n = space.dim
        omega = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        scale = math.exp(-f0)
        m_x = scale * omega * r0**n
        m_y = scale * omega * r1**n
        m_z = scale * omega * ((1 - t) * r0 + t * r1) ** n
        rev, fwd, refine_drift = _inf_beta_balls(space, params, kappa, f0,
                                                 c0, r0, c1, r1, t, samples)
    else:
        raise RegionError(f"unsupported region kinds: {kx}, {ky}")

    lhs = m_z**cr
    rhs = (1 - t) * rev * m_x**cr + t * fwd * m_y**cr
    margin = (lhs - rhs) / (1.0 + abs(rhs))
    return CheckReport(name="brunn_minkowski", margins=[margin], tolerance=tol,
                       provenance={"kappa": kappa, "t": t,
                                   "measures": {"X": m_x, "Y": m_y, "Z": m_z},
                                   "inf_beta_refine_drift": refine_drift})


def _inf_beta_balls(space, params, kappa, f0, c0, r0, c1, r1, t, samples):
    """Monte Carlo infima of the beta powers over a Euclidean ball pair."""
    rng = np.random.default_rng(1234)
    cr = params.c / (params.c + 1.0)
    scale = math.exp(-params.a * f0)
    vals = []
    for count in (samples**2, 4 * samples**2):
        n = space.dim
        u = rng.normal(size=(count, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        xs = c0 + r0 * rng.random((count, 1)) ** (1.0 / n) * u
        u = rng.normal(size=(count, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        ys = c1 + r1 * rng.random((count, 1)) ** (1.0 / n) * u
        d = np.linalg.norm(xs - ys, axis=1) * scale
        require_conjugate_radius(kappa, d)
        fwd = np.exp(cr * log_beta(params, kappa, t * d, d, t))
        rev = np.exp(cr * log_beta(params, kappa, (1 - t) * d, d, 1 - t))
        vals.append((float(rev.min()), float(fwd.min())))
    drift = max(abs(vals[0][0] - vals[1][0]), abs(vals[0][1] - vals[1][1]))
    return vals[1][0], vals[1][1], drift


# ----------------------------------------------------------------------
# p-mean interpolation
# ----------------------------------------------------------------------
def p_mean(a, b, t: float, p: float):
    """Weighted p-mean ((1-t) a^p + t b^p)^(1/p), elementwise over arrays:
    max and min at p = +-inf, the geometric mean at p = 0, and 0 where a
    or b is 0 unless p = +inf. A scalar pair gives a float."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if math.isinf(p):
            out = np.maximum(a, b) if p > 0 else np.minimum(a, b)
        elif p == 0.0:
            out = a ** (1.0 - t) * b**t
        else:
            out = ((1.0 - t) * a**p + t * b**p) ** (1.0 / p)
    if p < math.inf:
        out = np.where((a <= 0.0) | (b <= 0.0), 0.0, out)
    return out if out.ndim else float(out)


def conclusion_exponent(p: float, params: DimensionParams) -> float:
    """c p / ((1+c) p + c): c/(c+1) at p = +inf, -inf at p = -c/(c+1)."""
    if p == math.inf:
        return params.c_ratio
    c = params.c
    den = (1.0 + c) * p + c
    if abs(den) < 1e-15:
        return -math.inf
    return c * p / den


def require_p_range(p: float, params: DimensionParams) -> None:
    """Raise PreconditionError unless p >= -c/(c+1), the p-mean exponents
    for which the interpolation inequality is stated."""
    if p < -params.c_ratio - 1e-15:
        raise PreconditionError("p must be >= -c/(c+1)", failed="p range")


def envelope_psi(geometry, params, kappa, psi0, psi1, X, Y, t, p,
                 slack: float = 1e-4):
    """Tight admissible middle function for the p-mean hypothesis.

    At each of 4,096 z nodes, the sup of the hypothesis right-hand side
    over the pairs (x, y) in X x Y with (1-t)x + ty = z: the best of 64 x
    values brackets it, and golden-section steps on all z at once shrink
    the bracket to 1e-12. A relative slack covers interpolation error.
    """
    zs = np.linspace((1 - t) * X[0] + t * Y[0],
                     (1 - t) * X[1] + t * Y[1], 4096)
    lo = np.maximum(X[0], (zs - t * Y[1]) / (1 - t))
    hi = np.minimum(X[1], (zs - t * Y[0]) / (1 - t))

    def rhs(x, z):  # the interval ends may round past X and Y
        x = np.clip(x, *X)
        y = np.clip((z - (1 - t) * x) / t, *Y)
        b_rev, b_fwd = np.exp(axis_log_betas(geometry, params, kappa, x, y, t))
        return p_mean(psi0(x) / b_rev, psi1(y) / b_fwd, t, p)

    cells = np.linspace(0.0, 1.0, 64)
    best, k = np.empty(zs.size), np.empty(zs.size, dtype=int)
    step = 8192 // cells.size  # chunks no larger than the axis grid
    for s in range(0, zs.size, step):
        part = slice(s, s + step)
        vals = rhs(lo[part, None] + (hi - lo)[part, None] * cells,
                   zs[part, None])
        k[part], best[part] = vals.argmax(axis=1), vals.max(axis=1)
    a = lo + (hi - lo) * cells[np.maximum(k - 1, 0)]
    b = lo + (hi - lo) * cells[np.minimum(k + 1, cells.size - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = rhs(c, zs), rhs(d, zs)
    # a step count, not a width test: far from 0, x is coarser than 1e-12
    steps = math.log(1e-12 / max(float(np.max(b - a)), 1e-12), g)
    for _ in range(math.ceil(steps)):
        left = fc >= fd  # the sup lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - g * (b - a), a + g * (b - a))
        f_new = rhs(new, zs)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    env = np.maximum(best, np.maximum(fc, fd))
    env *= 1.0 + slack
    env += slack * float(env.max())
    return lambda z: np.interp(z, zs, env, left=0.0, right=0.0)


def check_interpolation(geometry: AxisGeometry, params: DimensionParams,
                        kappa: float, psi0, psi1, psi, X: tuple, Y: tuple,
                        t: float, p: float, samples: int = 10000,
                        seed: int = 0, tol: float = 1e-6) -> CheckReport:
    """p-mean interpolation inequality on the axis.

    The pointwise hypothesis is sampled on random (x, y) in X x Y with
    z the exact geodesic t-point; HypothesisError aborts the check if it
    fails, otherwise the integral conclusion margin is reported.
    """
    require_p_range(p, params)
    _require_curvature(geometry, params, kappa)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(X[0], X[1], samples)
    ys = rng.uniform(Y[0], Y[1], samples)
    zs = (1.0 - t) * xs + t * ys
    b_rev, b_fwd = np.exp(axis_log_betas(geometry, params, kappa, xs, ys, t))
    hyp = p_mean(psi0(xs) / b_rev, psi1(ys) / b_fwd, t, p)
    worst = float(np.min(psi(zs) - hyp))
    if worst < -1e-9 * (1.0 + float(np.max(np.abs(hyp)))):
        raise HypothesisError(
            f"pointwise p-mean hypothesis fails (worst margin {worst:.3e})")

    g = geometry
    i0 = g.integrate(np.asarray(psi0(g.xs), dtype=float) * g.m_density)
    i1 = g.integrate(np.asarray(psi1(g.xs), dtype=float) * g.m_density)
    iz = g.integrate(np.asarray(psi(g.xs), dtype=float) * g.m_density)
    q = conclusion_exponent(p, params)
    rhs = p_mean(i0, i1, t, q)
    margin = (iz - rhs) / (1.0 + abs(rhs))
    return CheckReport(name="interpolation", margins=[margin], tolerance=tol,
                       provenance={"kappa": kappa, "t": t, "p": p, "q": q,
                                   "integrals": {"psi0": i0, "psi1": i1,
                                                 "psi": iz},
                                   "hypothesis_worst": worst})


# ----------------------------------------------------------------------
# functional inequalities
# ----------------------------------------------------------------------
def _functional_preconditions(rho: DensityField, params: DimensionParams,
                              kappa: float, delta: float | None):
    g = rho.geometry
    if kappa <= 0.0:
        raise PreconditionError("kappa must be positive", failed="kappa > 0")
    if np.ptp(g.f_vals) > 1e-12:
        raise PreconditionError(
            "the m-constant hypothesis is only verifiable for constant"
            " weights; got a non-constant weight",
            failed="m-constant")
    f0 = float(g.f_vals[0])
    if delta is not None:
        if (1.0 - params.eps) * f0 > (params.n - 1.0) * delta + 1e-12:
            raise PreconditionError("(1-eps) f <= (n-1) delta fails",
                                    failed="delta bound")
    _require_curvature(g, params, kappa)
    rho.check_mass(1e-7)
    return f0


def check_hwi_lsi(rho: DensityField, params: DimensionParams, kappa: float,
                  delta: float, tol: float = 1e-5) -> CheckReport:
    """HWI and log-Sobolev margins for mu = rho m against m itself."""
    g = rho.geometry
    _functional_preconditions(rho, params, kappa, delta)
    ones = DensityField(g, np.ones_like(g.xs))
    H = entropy_functional(rho, params)
    I = fisher_information(rho, params)
    W2 = w2_axis(rho, ones)
    cr = params.c / (params.c + 1.0)
    sup = float(rho.values.max())
    amp = 1.0 + 2.0 * sup ** (-cr)
    hwi_rhs = math.sqrt(I) * W2 - kappa * math.exp(-4.0 * delta) / (6.0 * params.c) * amp * W2**2
    lsi_rhs = 3.0 * params.c / (amp * 2.0 * kappa * math.exp(-4.0 * delta)) * I
    margins = [hwi_rhs - H, lsi_rhs - H]
    return CheckReport(name="hwi_lsi", margins=margins, tolerance=tol,
                       provenance={"kappa": kappa, "delta": delta,
                                   "H": H, "I": I, "W2": W2,
                                   "sup_rho": sup})


def check_transport_energy(rho: DensityField, params: DimensionParams,
                           kappa: float, tol: float = 1e-5) -> CheckReport:
    """Transport-energy lower bound on the entropy of mu = rho m.

    The optimal coupling of (mu, m) is the monotone one, the pairs
    (Q_0(u), Q_1(u)) of their quantiles; the b-type coefficients are
    integrated over it in the mass coordinate u.
    """
    g = rho.geometry
    f0 = _functional_preconditions(rho, params, kappa, None)
    ones = DensityField(g, np.ones_like(g.xs))
    interp = monotone_1d_transport(rho, ones)
    H = entropy_functional(rho, params)
    c = params.c
    ratio = (c + 1.0) / c

    p13 = rho.values ** (1.0 / (c + 1.0))
    log_term = g.integrate(np.where(rho.values > 0,
                                    p13 * np.log(np.where(rho.values > 0,
                                                          rho.values, 1.0)),
                                    0.0) * g.m_density)

    d_f = g.reparam_partial(params, interp.Q0, interp.Q1, 1.0)
    require_conjugate_radius(kappa, d_f)
    base = math.exp(-params.a * f0) * np.abs(interp.Q1 - interp.Q0)
    pos = d_f > 0
    b_pow = np.ones_like(d_f)  # b^{c/(c+1)} with the unit value at the diagonal
    b_pow[pos] = np.exp((np.log(base[pos]) - np.log(s_kappa(kappa, d_f[pos])))
                        / (c + 1.0))
    frak = np.zeros_like(d_f)
    frak[pos] = (base[pos] * c_kappa(kappa, d_f[pos]) / s_kappa(kappa, d_f[pos])
                 - 1.0) / (c + 1.0)
    pair_term = (frak + np.exp(1.0 - b_pow)) @ interp.du
    rhs = 0.5 * ratio + 0.5 * log_term - 0.5 * ratio * pair_term
    margin = H - rhs
    return CheckReport(name="transport_energy", margins=[margin],
                       tolerance=tol,
                       provenance={"kappa": kappa, "H": H,
                                   "log_term": log_term,
                                   "pair_term": pair_term})

