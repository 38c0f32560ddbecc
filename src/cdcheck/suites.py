"""End-to-end inequality checks on quasi-1D configurations.

Everything here consumes axis geometries from the transport module: the
displacement convexity condition with twisted coefficients, the weighted
Brunn-Minkowski inequality, the p-mean interpolation family, and the
functional inequalities (HWI, log-Sobolev, transport-energy). The twcd
and bm checks take their whole t-grid in one call and compute what does
not depend on t (the curvature hypothesis, d_f and its s_kappa) once:
twcd's u-integrals are sums of powers of s_kappa against weights per u
(`beta_power_sums`), and bm's infima one exponential per (t, side) of
the least log beta. The envelope psi of the interpolation check, a sup
refined by Brent's steps, is a `UniformTable` read.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import (_log_beta_pair, beta_power_sums, frak_b, log_b,
                           log_beta_pair, require_beta_domain)
from .errors import HypothesisError, PreconditionError
from .params import DimensionParams, s_kappa
from .ot import (AxisGeometry, DensityField, MonotoneInterpolation,
                 UniformTable, entropy_functional, fisher_information,
                 monotone_1d_transport, w2_axis)
from .report import CheckReport
from .spaces import curvature_floor, ricci_fN_batch

# points per side of the grid on X x Y behind the interval bm infima
BM_SAMPLES = 64
# random pairs at which the interpolation hypothesis is checked
HYPOTHESIS_SAMPLES = 10000
# relative slack of the interpolation envelope over its sup
SLACK = 1e-4


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _curvature_margins(geometry: AxisGeometry, params: DimensionParams,
                       kappa: float):
    """(xs, margins): the margin of Ric_f^N >= c^{-1} kappa e^{-4(1-eps)f/(n-1)}
    at the grid points xs of the axis, worst case over unit directions.

    Every preset has grad f along the axis and Hess f diagonal in the
    frame (axis tangent, normal), so Ric_f^N is diagonal there: its least
    eigenvalue is the smaller of two one-row ``ricci_fN_batch`` calls.
    """
    points, *frame = geometry.axis_frame()
    with np.errstate(divide="ignore", invalid="ignore"):
        ric = np.min([ricci_fN_batch(geometry.space, geometry.weight, params,
                                     points, vs[:, None])[:, 0, 0]
                      for vs in frame], axis=0)
    return geometry.xs, ric - curvature_floor(params, kappa, geometry.f_vals)


def _require_curvature(geometry, params, kappa, hull):
    """Worst curvature margin on the grid points within one step of
    ``hull`` = (lo, hi) in the window, where a suite's measures live;
    raises PreconditionError if it is negative or not finite. A geometry
    keeps the margins it passed, so a hull is judged once."""
    key = (params, kappa, *hull)
    if key in geometry.curvature_cache:
        return geometry.curvature_cache[key]
    xs, margins = _curvature_margins(geometry, params, kappa)
    lo, hi = hull
    margins = margins[(xs >= lo - geometry.dx) & (xs <= hi + geometry.dx)]
    where = f"the hull [{lo:g}, {hi:g}] of the measures"
    if not np.isfinite(margins).all():
        raise PreconditionError(f"curvature margin is not finite on {where}",
                                failed="curvature bound")
    margin = float(np.min(margins))
    if margin < 0.0:
        raise PreconditionError(
            f"curvature bound fails on {where} (margin {margin:.3e})",
            failed="curvature bound")
    geometry.curvature_cache[key] = margin
    return margin


def axis_log_betas(geometry: AxisGeometry, params: DimensionParams,
                   kappa: float, x, y, t):
    """(log beta_{1-t}(y, x), log beta_t(x, y)) at the axis pairs (x, y),
    with t broadcast against them; raises PreconditionError if a pair's
    d_f leaves the domain of beta. d_t and d_f share one lookup of G at x."""
    d_full, distances = geometry.partial_distances(params, x, y)
    return log_beta_pair(params, kappa, distances(t), d_full, t)


# ----------------------------------------------------------------------
# displacement convexity
# ----------------------------------------------------------------------
# t values per (t, u) batch of the twcd kernel; one batch over a 99-point
# t-grid raises the peak memory of a run by a third
_T_CHUNK = 8


def check_twcd(rho0: DensityField, rho1: DensityField,
               params: DimensionParams, kappa: float, t_grid,
               tol: float) -> tuple[CheckReport, list]:
    """Twisted displacement convexity of the Renyi-type entropy along the
    monotone interpolation: the report and its rows (t, lhs, rhs, margin),
    one per t of the sorted grid.

    For each t the margin is RHS(t) - U_m(mu_t), with the beta-weighted
    right-hand side taken over the monotone coupling (Q_0(u), Q_1(u)). In
    the mass coordinate u (see MonotoneInterpolation), with r = c/(c+1),
    H(1/j) j = ((c+1)/c)(1 - j^r) gives U_m(mu_t) = ((c+1)/c)
    (int du - int j_t^r du), and RHS(t) is that form with (1-t) (beta_rev
    j_0)^r + t (beta_fwd j_1)^r for j_t^r: `beta_power_sums`, (1-t)^r and
    t^r times sums of s_kappa^{1/(c+1)} against weights taken once. Per
    chunk of _T_CHUNK values of t, one lookup of Q_t(u) reads m, behind
    j_t, and G, behind d_t. The curvature hypothesis is judged on the hull
    of the grid points where rho_0 or rho_1 is positive.
    """
    g = rho0.geometry
    live = g.xs[(rho0.values > 0.0) | (rho1.values > 0.0)]
    curv = _require_curvature(g, params, kappa, (live[0], live[-1]))
    interp = monotone_1d_transport(rho0, rho1)
    ts = np.sort(np.asarray(t_grid, dtype=float))
    # G at Q_0, d_f and the weights of the beta sums once for every t-chunk
    d_full, distances = g.partial_distances(params, interp.Q0, interp.Q1)
    beta_sums = beta_power_sums(params, kappa, d_full, interp.j0, interp.j1,
                                interp.du)
    coef, mass = (params.c + 1.0) / params.c, interp.du.sum()
    rows = []
    for start in range(0, ts.size, _T_CHUNK):
        t = ts[start:start + _T_CHUNK]
        d_t, m_q = distances(t[:, None], g.m_table)
        power = np.log(interp.jacobian(t, m_q))  # to j_t^r in place
        del m_q  # each (t, u) array is freed once it is read
        power *= params.c_ratio
        lhs = coef * (mass - np.exp(power, out=power) @ interp.du)
        del power
        rev, fwd = beta_sums(t, d_t)
        del d_t
        rhs = coef * (mass - rev - fwd)
        rows += zip(t.tolist(), lhs.tolist(), rhs.tolist(),
                    (rhs - lhs).tolist())
    return CheckReport(name="twcd", margins=[row[3] for row in rows],
                       tolerance=tol,
                       provenance={"curvature_margin": curv}), rows


# ----------------------------------------------------------------------
# Brunn-Minkowski
# ----------------------------------------------------------------------
def _interval_measure(geometry: AxisGeometry, lo: float, hi: float) -> float:
    """m([lo, hi]) from the cubic Hermite of `m_cumulative` with slope
    `m_density` at both ends: O(dx^4) off the grid, the table on it."""
    xs, tab, m = geometry.xs, geometry.m_cumulative, geometry.m_density
    ends = np.array([min(lo, hi), max(lo, hi)])
    i = np.clip(np.searchsorted(xs, ends) - 1, 0, xs.size - 2)
    h = xs[i + 1] - xs[i]
    s = (ends - xs[i]) / h  # 0 and 1 exactly at the cell's grid points
    at = (((1.0 + 2.0 * s) * tab[i] + s * h * m[i]) * (1.0 - s) ** 2
          + ((3.0 - 2.0 * s) * tab[i + 1] + (s - 1.0) * h * m[i + 1]) * s * s)
    return float(at[1] - at[0])


def _inf_beta_powers(geometry, params, kappa, X, Y, t_grid, k):
    """Sampled infima of beta_{1-t}(y,x)^{c/(c+1)} and beta_t(x,y)^{c/(c+1)}
    over X x Y on a k x k grid, one pair per t of ``t_grid``: d_f and its
    s_kappa are taken once, d_t and beta per t."""
    d_full, distances = geometry.partial_distances(
        params, np.linspace(*X, k)[:, None], np.linspace(*Y, k))
    require_beta_domain(kappa, d_full)
    s_full = s_kappa(kappa, d_full)

    def infima(t):  # its arrays are freed before the next t
        d_t = distances(t)
        logs = _log_beta_pair(params, kappa, d_full, t,
                              s_kappa(kappa, d_full - d_t),
                              s_kappa(kappa, d_t), s_full)
        # exp of a positive multiple is increasing: one exp per side
        return tuple(float(np.exp(params.c_ratio * log.min()))
                     for log in logs)
    return [infima(t) for t in t_grid]


def check_brunn_minkowski(geometry: AxisGeometry, X: tuple, Y: tuple,
                          t_grid, params: DimensionParams, kappa: float,
                          tol: float) -> list[CheckReport]:
    """Weighted Brunn-Minkowski for the axis intervals X and Y, one report
    per t of ``t_grid``, with the coefficient infima over X x Y sampled on
    BM_SAMPLES^2 and twice as many points per side (the finer ones are
    used, their drift reported):

    m(Z_t)^{c/(c+1)} >= (1-t) (inf beta_{1-t})^{c/(c+1)} m(X)^{c/(c+1)}
                        + t (inf beta_t)^{c/(c+1)} m(Y)^{c/(c+1)}.

    The curvature hypothesis, m(X), m(Y) and d_f on each pair grid are
    taken once per call; the coarse grid is freed before the fine one is
    built.
    """
    (xlo, xhi), (ylo, yhi) = X, Y
    # the transport between the intervals stays in their hull
    ends = (xlo, xhi, ylo, yhi)
    _require_curvature(geometry, params, kappa, (min(ends), max(ends)))
    m_x = _interval_measure(geometry, xlo, xhi)
    m_y = _interval_measure(geometry, ylo, yhi)
    coarse, fine = (_inf_beta_powers(geometry, params, kappa, X, Y, t_grid, k)
                    for k in (BM_SAMPLES, 2 * BM_SAMPLES))
    cr = params.c_ratio
    reports = []
    for t, (rev, fwd), (rev2, fwd2) in zip(t_grid, coarse, fine):
        m_z = _interval_measure(geometry, (1 - t) * xlo + t * ylo,
                                (1 - t) * xhi + t * yhi)
        rhs = (1 - t) * rev2 * m_x**cr + t * fwd2 * m_y**cr
        margin = (m_z**cr - rhs) / (1.0 + abs(rhs))
        reports.append(CheckReport(
            name="brunn_minkowski", margins=[margin], tolerance=tol,
            provenance={"t": t, "measures": {"X": m_x, "Y": m_y, "Z": m_z},
                        "inf_beta_refine_drift": max(abs(rev - rev2),
                                                     abs(fwd - fwd2))}))
    return reports


# ----------------------------------------------------------------------
# p-mean interpolation
# ----------------------------------------------------------------------
def p_mean(a, b, t: float, p: float):
    """Weighted p-mean ((1-t) a^p + t b^p)^(1/p), elementwise over arrays:
    max and min at p = +-inf, the geometric mean at p = 0, and 0 where a
    or b is 0 unless p = +inf. A scalar pair gives a float. Other p scale
    by m = max(a, b) (p > 0) or min(a, b) (p < 0), so that no power of a
    large |p| overflows: m ((1-t)(a/m)^p + t(b/m)^p)^(1/p)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if math.isinf(p):
            out = np.maximum(a, b) if p > 0 else np.minimum(a, b)
        elif p == 0.0:
            out = a ** (1.0 - t) * b**t
        else:
            m = np.maximum(a, b) if p > 0 else np.minimum(a, b)
            out = m * ((1.0 - t) * (a / m)**p + t * (b / m)**p) ** (1.0 / p)
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


def require_interpolation_hypothesis(geometry, params, kappa, X, Y, p):
    """Raise PreconditionError unless p >= -c/(c+1) and the curvature bound
    holds on the hull of X and Y, where the interpolation's measures live."""
    require_p_range(p, params)
    _require_curvature(geometry, params, kappa,
                       (min(X[0], Y[0]), max(X[1], Y[1])))


def envelope_psi(geometry, params, kappa, psi0, psi1, X, Y, t, p):
    """Tight admissible middle function for the p-mean hypothesis, whose
    curvature bound and p range are judged first: the beta reads need them.

    At each of 4,096 z nodes, the sup of the hypothesis right-hand side
    over the pairs (x, y) in X x Y with (1-t)x + ty = z: the best of 64 x
    cells brackets it, and `bracketed_sup` on all z at once closes the
    bracket to 2e-9 about its best point. A relative SLACK covers
    interpolation error; at 1e-4 it dwarfs the O(1e-9 |d rhs/dx|) missed.

    All 64 cells are scanned only at every 8th node and the last one. A
    node between two such neighbours scans the 6 cells around their best
    cells k_l and k_r when |k_l - k_r| <= 1, and all 64 otherwise (the sup
    switches mode there). Where the best of all 64 cells lies in the
    window, the window's best cell and value are the full scan's, so the
    envelope is the same bit for bit. It can differ only at an exact tie
    with a lower cell outside the window, or where a mode that is the sup
    at neither neighbour lies more than 2 cells outside both best cells.
    """
    require_interpolation_hypothesis(geometry, params, kappa, X, Y, p)
    zs = np.linspace((1 - t) * X[0] + t * Y[0],
                     (1 - t) * X[1] + t * Y[1], 4096)
    lo = np.maximum(X[0], (zs - t * Y[1]) / (1 - t))
    hi = np.minimum(X[1], (zs - t * Y[0]) / (1 - t))
    width = hi - lo

    def rhs(x, i):  # at the nodes i; the interval ends may round past X, Y
        x = np.clip(x, *X)
        y = np.clip((zs[i] - (1 - t) * x) / t, *Y)
        b_rev, b_fwd = np.exp(axis_log_betas(geometry, params, kappa, x, y, t))
        return p_mean(psi0(x) / b_rev, psi1(y) / b_fwd, t, p)

    cells = np.linspace(0.0, 1.0, 64)
    best, k = np.empty(zs.size), np.empty(zs.size, dtype=int)

    def scan(nodes, first, size):
        """Best of the cells first, ..., first + size - 1 at each node."""
        step = 8192 // size  # nodes per rhs call of at most 8,192 points
        for s in range(0, nodes.size, step):
            i, j0 = nodes[s:s + step], first[s:s + step]
            j = j0[:, None] + np.arange(size)
            vals = rhs(lo[i, None] + width[i, None] * cells[j], i[:, None])
            k[i], best[i] = j0 + vals.argmax(axis=1), vals.max(axis=1)

    coarse = np.append(np.arange(0, zs.size, 8), zs.size - 1)
    scan(coarse, np.zeros_like(coarse), cells.size)
    fine = np.flatnonzero(np.arange(zs.size - 1) % 8)
    left = fine - fine % 8
    k_l, k_r = k[left], k[np.minimum(left + 8, zs.size - 1)]
    near = np.abs(k_l - k_r) <= 1
    first = np.clip(np.minimum(k_l, k_r) - 2, 0, cells.size - 6)
    scan(fine[near], first[near], 6)
    scan(fine[~near], np.zeros_like(first[~near]), cells.size)
    at = lambda j: lo + width * cells[j]
    env = bracketed_sup(rhs, at(np.maximum(k - 1, 0)),
                        at(np.minimum(k + 1, cells.size - 1)), at(k), best)
    env *= 1.0 + SLACK
    env += SLACK * float(env.max())
    return UniformTable(zs, env, fill=0.0)


def bracketed_sup(f, a, b, x, fx):
    """The best value found of f(., i) on [a_i, b_i] at each node i by
    Brent's bracketed parabolic steps (1973), on all nodes at once; f(u, i)
    is node i's objective at u, x in [a, b] its scanned best point, of
    value fx. A round steps to the vertex of the parabola through the three
    best points (at first x and the golden points of [a, b]) where that lies
    in the bracket and below half the step before last; else by golden
    section into the larger side, or by 1e-9 into it after a step below
    1e-8 or from an end of the bracket. No step is below 1e-9, and a gain
    below 1e-15 relative is a tie. A node stops once its bracket lies
    within 2e-9 of its best point, or its step rounds to that point."""
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    nodes = np.arange(a.size)
    c, d = b - gold * (b - a), a + gold * (b - a)
    fc, u, fu = f(c, nodes), d, f(d, nodes)  # u enters at the first round
    best = np.maximum(fx, np.maximum(fc, fu))
    swap = fc > fx
    x, w, v = np.where(swap, c, x), np.where(swap, x, c), c
    fx, fw, fv = (np.where(swap, fc, fx), np.where(swap, fx, fc),
                  np.full(a.size, -math.inf))
    last = before = b - a  # the last step and the one before it
    while True:
        # the sup lies beyond the better of x and u, seen from the other
        top = fu - fx > 1e-15 * np.abs(fx)
        cut, at_a = np.where(top, x, u), top ^ (u < x)
        a, b = np.where(at_a, cut, a), np.where(at_a, b, cut)
        mid, low = fu > fw, fu > fv  # x, w, v: the best three, best first
        v, fv = (np.where(mid, w, np.where(low, u, v)),
                 np.where(mid, fw, np.where(low, fu, fv)))
        w, fw = (np.where(top, x, np.where(mid, u, w)),
                 np.where(top, fx, np.where(mid, fu, fw)))
        x, fx = np.where(top, u, x), np.where(top, fu, fx)
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = 0.5 * ((x - w) * r - (x - v) * q) / (q - r)
        side = np.where(x < 0.5 * (a + b), b - x, a - x)
        parabolic = (a < x + step) & (x + step < b) & (
            (np.abs(step) < 0.5 * np.abs(before)) | (np.abs(step) < 1e-9))
        probe = ~parabolic & ((x == a) | (x == b) | (np.abs(last) < 1e-8))
        step = np.where(parabolic, step,
                        np.where(probe, 0.0, (1.0 - gold) * side))
        last, before = (np.where(probe, side, step),
                        np.where(parabolic, last, side))
        u = x + np.where(np.abs(step) < 1e-9, np.copysign(1e-9, side), step)
        go = (np.maximum(x - a, b - x) > 2e-9) & (u != x)
        if not go.all():
            nodes, a, b, u, x, w, v, fx, fw, fv, last, before = (
                arr[go] for arr in (nodes, a, b, u, x, w, v, fx, fw, fv,
                                    last, before))
        if not nodes.size:
            return best
        fu = f(u, nodes)
        best[nodes] = np.maximum(best[nodes], fu)


def check_interpolation(geometry: AxisGeometry, params: DimensionParams,
                        kappa: float, psi0, psi1, psi, X: tuple, Y: tuple,
                        t: float, p: float, seed: int,
                        tol: float) -> CheckReport:
    """p-mean interpolation inequality on the axis.

    The pointwise hypothesis is sampled on HYPOTHESIS_SAMPLES random
    (x, y) in X x Y with z the exact geodesic t-point; HypothesisError
    aborts the check if it fails, otherwise the integral conclusion margin
    is reported.
    """
    require_interpolation_hypothesis(geometry, params, kappa, X, Y, p)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(X[0], X[1], HYPOTHESIS_SAMPLES)
    ys = rng.uniform(Y[0], Y[1], HYPOTHESIS_SAMPLES)
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
                       provenance={"t": t, "p": p, "q": q,
                                   "integrals": {"psi0": i0, "psi1": i1,
                                                 "psi": iz},
                                   "hypothesis_worst": worst})


# ----------------------------------------------------------------------
# functional inequalities
# ----------------------------------------------------------------------
def check_functional(rho: DensityField, params: DimensionParams, kappa: float,
                     delta: float, tol: float) -> list[CheckReport]:
    """HWI/log-Sobolev and transport-energy reports for mu = rho m against
    m, in one pass: the hypothesis (kappa > 0, a constant weight, the delta
    and curvature bounds, unit mass) is checked once, and both reports take
    one monotone coupling of (mu, m) and one entropy H."""
    g = rho.geometry
    if kappa <= 0.0:
        raise PreconditionError("kappa must be positive", failed="kappa > 0")
    if np.ptp(g.f_vals) > 1e-12:
        raise PreconditionError(
            "the m-constant hypothesis is only verifiable for constant"
            " weights; got a non-constant weight",
            failed="m-constant")
    if (1.0 - params.eps) * g.f_vals[0] > (params.n - 1.0) * delta + 1e-12:
        raise PreconditionError("(1-eps) f <= (n-1) delta fails",
                                failed="delta bound")
    _require_curvature(g, params, kappa, (g.xs[0], g.xs[-1]))  # m's support
    coupling = monotone_1d_transport(rho, DensityField(g, np.ones_like(g.xs)))
    H = entropy_functional(rho, params)
    return [check_hwi_lsi(rho, params, kappa, delta, coupling, H, tol),
            check_transport_energy(rho, params, kappa, coupling, H, tol)]


def check_hwi_lsi(rho: DensityField, params: DimensionParams, kappa: float,
                  delta: float, coupling: MonotoneInterpolation, H: float,
                  tol: float) -> CheckReport:
    """HWI and log-Sobolev margins for mu = rho m against m itself, from
    its entropy H and the optimal coupling of (mu, m)."""
    I = fisher_information(rho, params)
    W2 = w2_axis(coupling)
    cr = params.c_ratio
    sup = float(rho.values.max())
    amp = 1.0 + 2.0 * sup ** (-cr)
    hwi_rhs = math.sqrt(I) * W2 - kappa * math.exp(-4.0 * delta) / (6.0 * params.c) * amp * W2**2
    lsi_rhs = 3.0 * params.c / (amp * 2.0 * kappa * math.exp(-4.0 * delta)) * I
    margins = [hwi_rhs - H, lsi_rhs - H]
    return CheckReport(name="hwi_lsi", margins=margins, tolerance=tol,
                       provenance={"delta": delta, "H": H, "I": I,
                                   "W2": W2, "sup_rho": sup})


def check_transport_energy(rho: DensityField, params: DimensionParams,
                           kappa: float, coupling: MonotoneInterpolation,
                           H: float, tol: float) -> CheckReport:
    """Transport-energy lower bound on the entropy H of mu = rho m.

    ``coupling`` is the optimal coupling of (mu, m), the monotone one: the
    pairs (Q_0(u), Q_1(u)) of their quantiles. The coefficients
    b^{c/(c+1)} and bfrak are integrated over it in the mass coordinate u.
    """
    g = rho.geometry
    c = params.c
    ratio = (c + 1.0) / c

    p13 = rho.values ** (1.0 / (c + 1.0))
    log_term = g.integrate(np.where(rho.values > 0,
                                    p13 * np.log(np.where(rho.values > 0,
                                                          rho.values, 1.0)),
                                    0.0) * g.m_density)

    d_f = g.reparam_partial(params, coupling.Q0, coupling.Q1, 1.0)
    require_beta_domain(kappa, d_f)
    base = math.exp(-params.a * g.f_vals[0]) * np.abs(coupling.Q1 - coupling.Q0)
    b_pow = np.exp(params.c_ratio * log_b(params, kappa, base, d_f))
    pair_term = ((frak_b(params, kappa, base, d_f) + np.exp(1.0 - b_pow))
                 @ coupling.du)
    rhs = 0.5 * ratio + 0.5 * log_term - 0.5 * ratio * pair_term
    margin = H - rhs
    return CheckReport(name="transport_energy", margins=[margin],
                       tolerance=tol,
                       provenance={"H": H, "log_term": log_term,
                                   "pair_term": pair_term})
