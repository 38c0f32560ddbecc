"""Matrix Jacobi fields along synthetic transport rays.

A transport ray is a point x, a tangent w standing in for the potential
gradient, and a symmetric matrix S standing in for the potential Hessian
in an orthonormal frame whose last vector points along w. The map
F_t = exp_x(t w) pushes the frame along the geodesic, the differential
solves the matrix Jacobi equation

    E''(t) = -k |w|^2 (E(t) - e_n e_n^T E(t)),   E(0) = I, E'(0) = S,

with k the constant sectional curvature, and everything downstream
(weighted Jacobian J_t, the scalars h, l, D, Dbar) comes from det E and
a_nn = (E' E^{-1})_{nn}. On the model spaces the system has constant
coefficients, so ``jacobi_closed_form`` evaluates both exactly on the
t-grid from one eigendecomposition per ray, without building E; the grid
only sets the points where the inequalities are checked and the
quadrature of a_nn behind h and Dbar. On R^n (k = 0) E(t) = I + tS, and
``_flat_rays`` takes det E, log det E and the integral of a_nn exactly
from the eigenvalues mu of S, with no quadrature: such a ray is
admissible if and only if mu_min > -1, on any grid.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import (_log_beta_pair, require_beta_domain,
                           within_conjugate_radius)
from .errors import PreconditionError, SingularJacobian
from .params import DimensionParams, require_normal, s_kappa
from .quadrature import cumulative_simpson
from .spaces import ModelSpace, WeightFunction

SYMMETRY_TOL = 1e-12
# rays that scan_rays samples and integrates at once; it bounds the
# (batch, steps + 1) work arrays
_RAY_BATCH = 250
# the grid on which the scan re-checks the rays it flags on a coarser grid
_REFINE_STEPS = 4096


def jacobi_closed_form(Ss: np.ndarray, k_theta2: np.ndarray, ts: np.ndarray):
    """Exact det E and a_nn = (E' E^{-1})_{nn} for a batch of rays.

    Ss: (B, n, n) initial derivatives S; k_theta2: (B,) values of
    k theta^2; ts: (T,). Returns (det, a_nn) of shape (B, T); a_nn is
    inf or NaN where det is 0.

    Rows :-1 of E are C I + Sn S, with the scalar propagator C = cos,
    Sn = sin/omega of frequency omega = sqrt(k) theta (cosh, sinh for
    k < 0; 1, t for k = 0), and the last row is e_n + t S[-1]. Each ray
    evaluates only its own branch, so no unused cosh can overflow; a ray
    whose det E leaves the float range raises PreconditionError.
    With S = [[A, b], [c^T, d]], P = C I + Sn A and M the matrix E with
    its last row replaced by S[-1] (the last row of E'), det E is linear
    in the last row and a_nn is a cofactor expansion along it:

        det E = det P + t det M,    a_nn = det M / det E.

    With A = U diag(alpha) U^T, beta = U^T b, gamma = U^T c and
    p_i = C + Sn alpha_i, det P = prod p_i and
    det M = d prod p_i - Sn sum_i beta_i gamma_i prod_{j != i} p_j.
    """
    Ss = np.asarray(Ss, dtype=float)
    w2 = np.asarray(k_theta2, dtype=float)
    ts = np.asarray(ts, dtype=float)
    B, n, _ = Ss.shape
    C = np.ones((B, ts.size))
    Sn = np.tile(ts, (B, 1))
    pos, neg = w2 > 0, w2 < 0
    alpha, U = np.linalg.eigh(Ss[:, :-1, :-1])
    beta = np.einsum("bji,bj->bi", U, Ss[:, :-1, -1])
    gamma = np.einsum("bji,bj->bi", U, Ss[:, -1, :-1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if pos.any():
            om = np.sqrt(w2[pos])[:, None]
            C[pos] = np.cos(om * ts)
            Sn[pos] = np.sin(om * ts) / om
        if neg.any():  # cosh and sinh may overflow: checked below
            om = np.sqrt(-w2[neg])[:, None]
            C[neg] = np.cosh(om * ts)
            Sn[neg] = np.sinh(om * ts) / om
        p = [C + Sn * a[:, None] for a in alpha.T]  # multiplied in index order
        det_P = math.prod(p)
        cross = sum((beta[:, i] * gamma[:, i])[:, None]
                    * math.prod(p[:i] + p[i + 1:]) for i in range(n - 1))
        det_M = Ss[:, -1, -1, None] * det_P - Sn * cross
        det = det_P + ts * det_M
        a_nn = det_M / det
    _require_finite(det)
    return det, a_nn


def _flat_rays(Ss: np.ndarray, ts: np.ndarray):
    """Exact det E, log det E and int_0^t a_nn for a batch of rays on R^n.

    There E(t) = I + tS. With S = V diag(mu) V^T and q_j = V[n, j],
    det E = prod_j (1 + t mu_j), log det E = sum_j log1p(t mu_j) and
    a_nn = sum_j q_j^2 mu_j / (1 + t mu_j), whose integral is
    sum_j q_j^2 log1p(t mu_j). Returns (det, logdet, int_ann, admissible)
    of shapes (B, T) and (B,): a ray is admissible if and only if
    mu_min > -1; an inadmissible row's int_ann is NaN, and so is its
    log det E where a factor is negative. The sums are built one
    eigenvalue at a time, in place.
    """
    mu, V = np.linalg.eigh(Ss)
    q2 = V[:, -1, :] ** 2
    shape = (Ss.shape[0], ts.size)
    det, logdet, int_ann = np.ones(shape), np.zeros(shape), np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m, q in zip(mu.T, q2.T):
            tm = m[:, None] * ts
            det *= 1.0 + tm
            np.log1p(tm, out=tm)
            logdet += tm
            tm *= q[:, None]
            int_ann += tm
    _require_finite(det)
    admissible = mu[:, 0] > -1.0
    int_ann[~admissible] = np.nan
    return det, logdet, int_ann, admissible


def _require_finite(det):
    if not np.all(np.isfinite(det)):
        raise PreconditionError("det E leaves the float range", failed="det E finite")


def integrate_jacobi_batch(space: ModelSpace, weight: WeightFunction, xs,
                           ws, Ss, steps: int):
    """Vectorized trajectory computation for a batch of rays.

    Returns a dict of the grid ``ts`` and the (B, steps + 1) arrays
    ``det``, ``logdet`` (log det E), ``h``, ``l``, ``int_ann`` (= log Dbar;
    log D is c l, and D and Dbar themselves are not formed, so they cannot
    overflow) and ``f_gamma`` (f along the geodesic, a constant weight's
    base-point value on every column), plus the speeds ``thetas`` and an
    ``admissible`` mask (det > 0 on the whole grid). Inadmissible rows
    carry NaN downstream. f along a ray is the weight's ray form
    (``WeightFunction.ray``) where it has one, every R^n and S^n preset,
    so no (B, steps + 1, ambient) point array is built; other weights are
    evaluated at the points of ``space.geodesic``. On R^n every array is
    exact (``_flat_rays``) and a ray is admissible if and only if the
    eigenvalues of S exceed -1, between grid points too; on S^n and H^n
    det E is exact and int_ann a cumulative Simpson of a_nn.
    """
    xs, ws, Ss = (np.asarray(a, dtype=float) for a in (xs, ws, Ss))
    B = xs.shape[0]
    thetas = space.norm(xs, ws)
    ts = np.linspace(0.0, 1.0, steps + 1)

    # f first, so a geodesic past X_n = SPAN stops the scan before the
    # propagator overflows; zero-speed rays and constant weights take f(x)
    f_gamma = np.empty((B, steps + 1))
    live = (thetas > 1e-14) & (not weight.is_constant)
    if live.any():
        x, v = xs[live], ws[live] / thetas[live, None]
        T = thetas[live, None] * ts
        f_gamma[live] = (
            weight.ray(x, v, T) if weight.ray is not None
            else weight.eval(space.geodesic(x[:, None], v[:, None], T)))
    f_gamma[~live] = np.asarray(weight.eval(xs[~live]), dtype=float)[:, None]

    # zero-speed rays degenerate to the identity trajectory
    Ss = np.where((thetas > 1e-14)[:, None, None], Ss, 0.0)
    if space.sec == 0.0:
        det, logdet, int_ann, admissible = _flat_rays(Ss, ts)
    else:
        det, a_nn = jacobi_closed_form(Ss, space.sec * thetas**2, ts)
        admissible = np.all(det > 0.0, axis=1)
        a_nn[~admissible] = np.nan
        int_ann = cumulative_simpson(a_nn, ts[1] - ts[0])
        # det <= 0 only on inadmissible rows, which the margins drop
        with np.errstate(divide="ignore", invalid="ignore"):
            logdet = np.log(det)
    h = logdet - int_ann
    l = h - f_gamma + f_gamma[:, :1]
    return {"ts": ts, "det": det, "logdet": logdet, "h": h, "l": l,
            "int_ann": int_ann, "f_gamma": f_gamma, "thetas": thetas,
            "admissible": admissible}


def integrate_jacobi(space: ModelSpace, weight: WeightFunction, x, w, S,
                     steps: int):
    """One ray's :func:`integrate_jacobi_batch` dict, each array reduced to
    the ray's row, with the weighted Jacobian J = det E e^{f(x) - f} (for
    ``worst_ray.csv``; +inf past the float range) added; raises
    SingularJacobian if det E hits 0."""
    out = integrate_jacobi_batch(
        space, weight, *(np.asarray(a, float)[None] for a in (x, w, S)), steps)
    if not out["admissible"][0]:
        raise SingularJacobian("det(dF_t) vanishes on [0, 1]; ray inadmissible")
    traj = {k: v if k == "ts" else v[0] for k, v in out.items()}
    f = traj["f_gamma"]
    with np.errstate(invalid="ignore", over="ignore"):
        traj["J"] = np.exp(traj["logdet"] - f + f[0])
    return traj


def _log_margin(x, w0, x0, w1, x1):
    """(e^x - r)/(1 + r) with r = w0 e^x0 + w1 e^x1, from the logs x, x0, x1.

    Both parts are scaled by e^-s with s = max(0, x0, x1) elementwise, as
    margin (iii)'s beta terms vary with t: r e^-s <= w0 + w1 is finite and
    e^-s + r e^-s > 0. No inf/inf can arise; only a margin whose value is
    beyond the float range reads +inf.
    """
    s = np.maximum(np.maximum(x0, x1), 0.0)
    r = w0 * np.exp(x0 - s) + w1 * np.exp(x1 - s)
    with np.errstate(over="ignore"):
        return (np.exp(x - s) - r) / (np.exp(-s) + r)


def concavity_margins(ts, log_D, log_Dbar, d_partial,
                      params: DimensionParams, kappa: float):
    """Margins of the three concavity inequalities on the grid interior.

    (i)  Dbar(t) >= (1-t) Dbar(0) + t Dbar(1)
    (ii) D(t) >= [s_k(d_f - d_t)/s_k(d_f)] D(0) + [s_k(d_t)/s_k(d_f)] D(1)
    (iii) J_t^{c/(c+1)} >= (1-t) beta_{1-t}(y,x)^{c/(c+1)} J_0^{c/(c+1)}
                           + t beta_t(x,y)^{c/(c+1)} J_1^{c/(c+1)}

    with d_{1-t}(y,x) = d_f(x,y) - d_t(x,y) by reversal of the geodesic.
    The densities enter through their logs, finite where they overflow:
    log D = c l, log Dbar = int a_nn, and (c/(c+1)) log J = (log D + c log
    Dbar)/(c+1) as J = D^{1/c} Dbar. Margins are scaled by 1/(1 + |RHS|), on
    batched rows; PreconditionError if a d_f leaves the domain of beta.
    """
    d_full = d_partial[..., -1:]
    inner = slice(1, ts.size - 1)
    t = ts[inner]
    d_t = d_partial[..., inner]
    require_beta_domain(kappa, d_full)
    s_rev, s_t, s_full = (s_kappa(kappa, d) for d in (d_full - d_t, d_t, d_full))

    m1 = _log_margin(log_Dbar[..., inner], 1.0 - t, log_Dbar[..., :1],
                     t, log_Dbar[..., -1:])
    m2 = _log_margin(log_D[..., inner], s_rev / s_full, log_D[..., :1],
                     s_t / s_full, log_D[..., -1:])

    log_Jr = (log_D + params.c * log_Dbar) / (params.c + 1.0)
    log_rev, log_fwd = (params.c_ratio * lb for lb in _log_beta_pair(
        params, kappa, d_full, t, s_rev, s_t, s_full))
    m3 = _log_margin(log_Jr[..., inner], 1.0 - t, log_rev + log_Jr[..., :1],
                     t, log_fwd + log_Jr[..., -1:])
    return m1, m2, m3


def _ray_margins(space, weight, params, kappa, xs, ws, Ss, steps):
    """The concavity margins of a batch of rays on a grid of ``steps`` steps.

    Returns (keep, margins, det_min): the indices of the rays that move,
    are admissible and whose re-parametrized length stays below the
    conjugate radius (d_f = inf where e^{-a f} overflows), and for each of
    them the minimum over inequalities (i)-(iii) and the minimum of det E
    on the grid. Dropped rows get no margins: a zero-speed ray has no
    s-ratios, and a ray with det E <= 0 has no log D. A constant weight's
    partial distances are theta e^{-a f} t; any other weight's come from a
    cumulative Simpson. Raises PreconditionError where a kept d_f underflows.
    """
    out = integrate_jacobi_batch(space, weight, xs, ws, Ss, steps)
    ts, theta = out["ts"], out["thetas"][:, None]
    f = out["f_gamma"][:, :1] if weight.is_constant else out["f_gamma"]
    with np.errstate(over="ignore", invalid="ignore"):  # such rays are dropped
        speed = theta * np.exp(-params.a * f)
        d_partial = (speed * ts if weight.is_constant
                     else cumulative_simpson(speed, ts[1] - ts[0]))
    keep = np.flatnonzero(out["admissible"] & (out["thetas"] > 1e-14)
                          & within_conjugate_radius(kappa, d_partial[:, -1]))
    require_normal(d_partial[keep, -1], True)
    m1, m2, m3 = concavity_margins(ts, params.c * out["l"][keep],
                                   out["int_ann"][keep], d_partial[keep],
                                   params, kappa)
    np.minimum(m1, m2, out=m1)
    np.minimum(m1, m3, out=m1)
    return keep, np.min(m1, axis=-1), np.min(out["det"][keep], axis=-1)


def refine_ray_margin(space: ModelSpace, weight: WeightFunction,
                      params: DimensionParams, kappa: float,
                      x, w, S, steps: int = _REFINE_STEPS) -> float | None:
    """One ray's concavity margin on a grid of ``steps`` steps.

    ``None`` if the ray has zero speed, is inadmissible (on that grid;
    exactly on R^n), reaches the conjugate radius, or S is not symmetric
    (S may come from a ``counterexample.json``). The scan refines its
    flagged rays through the same kernel, so this reproduces their
    margins.
    """
    x, w, S = (np.asarray(a, float) for a in (x, w, S))
    if not np.allclose(S, S.T, atol=SYMMETRY_TOL, rtol=0.0):
        return None
    keep, margins, _ = _ray_margins(space, weight, params, kappa,
                                    x[None], w[None], S[None], steps)
    return float(margins[0]) if keep.size else None


def sample_rays(space: ModelSpace, rng: np.random.Generator, count: int,
                region: dict | None, theta_range: tuple[float, float]):
    """Random admissible-candidate rays: eigenvalues uniform in
    [-0.8, 0.8]/theta with a Haar-random eigenframe.

    The batch draws five blocks, in this order: the points, the (count, n)
    normal draws behind the unit directions, theta, the (count, n)
    eigenvalues and the (count, n, n) Gaussian matrices of the eigenframes.
    """
    n = space.dim
    xs = space.sample_point(rng, region, count)
    vhat = space.sample_unit(rng, xs)
    theta = rng.uniform(*theta_range, size=count)
    lam = rng.uniform(-0.8, 0.8, size=(count, n))
    q, _ = np.linalg.qr(rng.normal(size=(count, n, n)))
    S = (q * (lam / theta[:, None])[:, None, :]) @ np.swapaxes(q, 1, 2)
    return xs, theta[:, None] * vhat, 0.5 * (S + np.swapaxes(S, 1, 2))


def scan_rays(space: ModelSpace, weight: WeightFunction,
              params: DimensionParams, kappa: float, rng: np.random.Generator,
              count: int, steps: int, region: dict | None,
              theta_range: tuple[float, float], tol: float):
    """Sample ``count`` rays and return the kept ones with their margins.

    Returns (xs, ws, Ss, margins, grids), ``margins`` holding each kept
    ray's minimum over the concavity inequalities (i)-(iii), in draw order,
    and ``grids`` the step count that margin was taken on. The rays are
    drawn and scanned ``_RAY_BATCH`` at a time, so a scan of ``count`` rays
    equals scans of its batches on the same generator.
    """
    parts = [_scan_batch(space, weight, params, kappa, rng,
                         min(_RAY_BATCH, count - done), steps, region,
                         theta_range, tol)
             for done in range(0, count, _RAY_BATCH)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _scan_batch(space, weight, params, kappa, rng, count, steps, region,
                theta_range, tol):
    """One batch of :func:`scan_rays`.

    Rays that are inadmissible or whose re-parametrized length reaches
    the conjugate radius are dropped. On R^n every ray is exact, with
    admissibility mu_min > -1, and none is re-checked: its grid is
    ``steps``. On S^n and H^n det E is exact at every grid point; the grid
    error left is the quadrature of a_nn behind h and Dbar, which is sharp
    where the determinant dips toward 0, and a dip between grid points can
    hide det E <= 0. So on a grid coarser than ``_REFINE_STEPS`` steps,
    the curved rays whose determinant dips below 0.1 and whose margin is
    below ``-tol`` are re-checked on ``_REFINE_STEPS`` steps, in chunks
    whose arrays are no larger than the batch's, and dropped if the fine
    grid shows them inadmissible.
    """
    xs, ws, Ss = sample_rays(space, rng, count, region, theta_range)
    keep, margins, det_min = _ray_margins(space, weight, params, kappa,
                                          xs, ws, Ss, steps)
    grids = np.full(keep.size, steps)
    dropped = np.zeros(keep.size, dtype=bool)
    flagged = np.flatnonzero((margins < -tol) & (det_min < 0.1)
                             & (steps < _REFINE_STEPS) & (space.sec != 0.0))
    chunk = max(1, _RAY_BATCH * (steps + 1) // (_REFINE_STEPS + 1))
    for start in range(0, flagged.size, chunk):
        j = flagged[start:start + chunk]
        i = keep[j]
        kept, fine, _ = _ray_margins(space, weight, params, kappa,
                                     xs[i], ws[i], Ss[i], _REFINE_STEPS)
        dropped[np.delete(j, kept)] = True
        margins[j[kept]], grids[j[kept]] = fine, _REFINE_STEPS
    keep = keep[~dropped]
    return xs[keep], ws[keep], Ss[keep], margins[~dropped], grids[~dropped]
