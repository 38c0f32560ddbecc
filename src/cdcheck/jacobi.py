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
# the least ray speed: `cli` refuses a theta_range that reaches it and
# refine_ray_margin such a ray, so a batch's k theta^2 have one sign
SPEED_FLOOR = 1e-14
# rays that scan_rays samples and integrates at once; it bounds the
# (batch, steps + 1) work arrays
_RAY_BATCH = 250
# the grid on which the scan re-checks the rays it flags on a coarser grid
_REFINE_STEPS = 4096


def jacobi_closed_form(Ss: np.ndarray, k_theta2: np.ndarray, ts: np.ndarray,
                       trig=None):
    """Exact det E and a_nn = (E' E^{-1})_{nn} for a batch of rays.

    Ss: (B, n, n) initial derivatives S; k_theta2: (B,) values of
    k theta^2, of one sign (ValueError otherwise); ts: (T,). Returns (det,
    a_nn) of shape (B, T); a_nn is inf or NaN where det is 0. ``trig``, if
    given, is (cos, sin) of sqrt(k theta^2) ts, shape (B, T), with k > 0,
    formed by the caller for its own use (the ray scan on S^n, for f along
    the rays): C and Sn come from it, and det E and a_nn are written in it.

    Rows :-1 of E are C I + Sn S, with the scalar propagator C = cos,
    Sn = sin/omega of frequency omega = sqrt(k) theta (cosh, sinh for
    k < 0; 1, t for k = 0), formed from one argument array for the batch.
    A ray whose det E leaves the float range raises PreconditionError.
    With S = [[A, b], [c^T, d]], P = C I + Sn A and M the matrix E with
    its last row replaced by S[-1] (the last row of E'), det E is linear
    in the last row and a_nn is a cofactor expansion along it:

        det E = det P + t det M,    a_nn = det M / det E.

    With A = U diag(alpha) U^T, beta = U^T b, gamma = U^T c and
    p_i = C + Sn alpha_i, det P = prod p_i and
    det M = d prod p_i - Sn sum_i beta_i gamma_i prod_{j != i} p_j; for
    n = 2, alpha = A and U = 1. The products run in index order, and the
    arrays are written in place: det M is formed in C, then Sn holds det E
    and det M holds a_nn.
    """
    Ss = np.asarray(Ss, dtype=float)
    w2 = np.asarray(k_theta2, dtype=float)
    ts = np.asarray(ts, dtype=float)
    B, n, _ = Ss.shape
    if np.any(np.sign(w2) != np.sign(w2[0])):
        raise ValueError("k theta^2 must have one sign in a batch")
    if n == 2:  # a 1 x 1 block is its eigenvalue, in the frame U = 1
        alpha, beta, gamma = Ss[:, :1, 0], Ss[:, :1, 1], Ss[:, 1, :1]
    else:
        alpha, U = np.linalg.eigh(Ss[:, :-1, :-1])
        beta = np.einsum("bji,bj->bi", U, Ss[:, :-1, -1])
        gamma = np.einsum("bji,bj->bi", U, Ss[:, -1, :-1])
    om = np.sqrt(np.abs(w2))[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if w2[0] == 0.0:  # k = 0
            C, Sn = np.ones((B, ts.size)), np.tile(ts, (B, 1))
        else:  # cosh and sinh may overflow: checked below
            C, Sn = _trig(om * ts, w2[0] > 0.0) if trig is None else trig
            Sn /= om
        p = [Sn * a[:, None] for a in alpha.T]
        for q in p:
            q += C  # p_i = C + Sn alpha_i
        det_P = math.prod(p[1:], start=p[0])
        # sum_i beta_i gamma_i prod_{j != i} p_j, a (B, 1) column for n = 2
        cross = np.zeros((B, 1) if n == 2 else det_P.shape)
        term = np.empty(cross.shape)
        for i, bg in enumerate((beta * gamma).T):
            others = p[:i] + p[i + 1:]
            prod = math.prod(others[1:], start=others[0]) if others else 1.0
            cross += np.multiply(bg[:, None], prod, out=term)
        det_M = np.multiply(Ss[:, -1, -1, None], det_P, out=C)
        Sn *= cross
        det_M -= Sn
        det = np.multiply(ts, det_M, out=Sn)
        det += det_P
        a_nn = np.divide(det_M, det, out=det_M)
    _require_finite(det)
    return det, a_nn


def _trig(arg, circular: bool):
    """(cos, sin) of arg, or (cosh, sinh) where not ``circular``; the
    second is written into arg."""
    if circular:
        return np.cos(arg), np.sin(arg, out=arg)
    return np.cosh(arg), np.sinh(arg, out=arg)


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


def _require_finite(values, what="det E"):
    if not np.all(np.isfinite(values)):
        raise PreconditionError(f"{what} leaves the float range", failed=f"{what} finite")


def integrate_jacobi_batch(space: ModelSpace, weight: WeightFunction, xs,
                           ws, Ss, steps: int):
    """Vectorized trajectory computation for a batch of rays.

    Returns a dict of the grid ``ts`` and the (B, steps + 1) arrays ``det``,
    ``logdet`` (log det E), ``h``, ``l``, ``int_ann`` (= log Dbar; log D is
    c l, and D and Dbar themselves are not formed, so they cannot overflow) and
    ``f_gamma`` (f along the geodesic, a constant weight's base-point value on
    every column), plus the speeds ``thetas``, which callers keep above
    ``SPEED_FLOOR``, and an ``admissible`` mask (det > 0 on the whole grid).
    Inadmissible rows carry NaN downstream; a g(w, w) past the float range
    raises PreconditionError. f along a ray is the weight's ray form
    (``WeightFunction.ray``) where it has one, every R^n and S^n preset, so no
    (B, steps + 1, ambient) point array is built; other weights are evaluated
    at the points of ``space.geodesic``. On R^n every array is exact
    (``_flat_rays``) and a ray is admissible if and only if the eigenvalues of
    S exceed -1, between grid points too; on S^n and H^n det E is exact and
    int_ann a cumulative Simpson of a_nn. On S^n the batch forms cos(theta t)
    and sin(theta t) once, for the ray form and for ``jacobi_closed_form``: bit
    for bit the pair each would form, as sqrt(theta^2) = theta in binary64.
    Every array of the dict is the call's own, so the caller may write into it.
    """
    xs, ws, Ss = (np.asarray(a, dtype=float) for a in (xs, ws, Ss))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        thetas = space.norm(xs, ws)
    _require_finite(thetas, "g(w, w)")  # on H^n |w_i| reaches theta X_n
    ts = np.linspace(0.0, 1.0, steps + 1)
    k_theta2 = space.sec * thetas**2
    trig = None
    if space.sec > 0.0:  # S^n: cos and sin of theta t, for f and for E
        trig = _trig(np.sqrt(k_theta2)[:, None] * ts, True)

    # f first, so a geodesic past X_n = SPAN stops the scan before the
    # propagator overflows; a constant weight takes f(x) on every column
    if weight.is_constant:
        f_gamma = np.repeat(weight.eval(xs)[:, None], ts.size, axis=1)
    else:
        f_gamma = _f_along(space, weight, xs, ws, thetas, ts, trig)

    if space.sec == 0.0:
        det, logdet, int_ann, admissible = _flat_rays(Ss, ts)
    else:
        det, a_nn = jacobi_closed_form(Ss, k_theta2, ts, trig)
        del trig  # on S^n det and a_nn may be its arrays
        admissible = np.all(det > 0.0, axis=1)
        if not admissible.all():
            a_nn[~admissible] = np.nan
        int_ann = cumulative_simpson(a_nn, ts[1] - ts[0])
        del a_nn  # freed before log det E, h and l are formed
        # det <= 0 only on inadmissible rows, which the margins drop
        with np.errstate(divide="ignore", invalid="ignore"):
            logdet = np.log(det)
    h = logdet - int_ann
    l = h - f_gamma
    l += f_gamma[:, :1]
    return {"ts": ts, "det": det, "logdet": logdet, "h": h, "l": l,
            "int_ann": int_ann, "f_gamma": f_gamma, "thetas": thetas,
            "admissible": admissible}


def _f_along(space, weight, xs, ws, thetas, ts, trig):
    """f on the t-grid ``ts`` along the rays from xs with tangents ws of
    speeds thetas, in a new array: the weight's ray form, else a copy of
    ``eval`` at the points."""
    v = ws / thetas[:, None]
    T = thetas[:, None] * ts
    if weight.ray is not None:
        return weight.ray(xs, v, T, trig)
    return np.array(weight.eval(space.geodesic(xs[:, None], v[:, None], T)),
                    dtype=float)


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
    beyond the float range reads +inf. The arguments are not written into;
    the margin is formed in place in a new array.
    """
    s = np.maximum(x0, x1)
    np.maximum(s, 0.0, out=s)
    r = w0 * np.exp(x0 - s)
    r += w1 * np.exp(x1 - s)
    with np.errstate(over="ignore"):
        m = np.exp(x - s)
        m -= r
        r += np.exp(-s)
        m /= r
    return m


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
    No argument is written into. (ii) and (iii) are formed first, and each
    work array is freed once read, to keep the peak memory low.
    """
    d_full = d_partial[..., -1:]
    inner = slice(1, ts.size - 1)
    t = ts[inner]
    d_t = d_partial[..., inner]
    require_beta_domain(kappa, d_full)
    s_rev, s_t, s_full = (s_kappa(kappa, d) for d in (d_full - d_t, d_t, d_full))

    log_rev, log_fwd = _log_beta_pair(params, kappa, d_full, t, s_rev, s_t,
                                      s_full)
    s_rev /= s_full  # the s-ratios of (ii), once beta has read s_rev, s_t
    s_t /= s_full
    m2 = _log_margin(log_D[..., inner], s_rev, log_D[..., :1], s_t,
                     log_D[..., -1:])
    del s_rev, s_t

    log_Jr = params.c * log_Dbar
    log_Jr += log_D
    log_Jr /= params.c + 1.0
    for log_beta, end in ((log_rev, log_Jr[..., :1]),
                          (log_fwd, log_Jr[..., -1:])):
        log_beta *= params.c_ratio
        log_beta += end
    m3 = _log_margin(log_Jr[..., inner], 1.0 - t, log_rev, t, log_fwd)
    del log_Jr, log_rev, log_fwd

    m1 = _log_margin(log_Dbar[..., inner], 1.0 - t, log_Dbar[..., :1],
                     t, log_Dbar[..., -1:])
    return m1, m2, m3


def _ray_margins(space, weight, params, kappa, xs, ws, Ss, steps):
    """The concavity margins of a batch of rays on a grid of ``steps`` steps.

    Returns (keep, margins, det_min): the indices of the rays that are
    admissible and whose re-parametrized length stays below the conjugate
    radius (d_f = inf where e^{-a f} overflows), and for each of them the
    minimum over inequalities (i)-(iii) and the minimum of det E on the
    grid. Only admissible rows (a ray with det E <= 0 has no log D) get a
    speed theta e^{-a f}, formed in place in f_gamma or in the copy of its
    rows (views where every row is kept), and partial distances: a
    constant weight's are the speed times t, any other weight's come from
    a cumulative Simpson. Raises PreconditionError where a kept d_f
    underflows.
    """
    out = integrate_jacobi_batch(space, weight, xs, ws, Ss, steps)
    # each array is taken out of the batch when it is read, so that it is
    # freed as early as it can be: this keeps the batch's peak memory low
    ts, thetas = out["ts"], out["thetas"]
    keep = np.flatnonzero(out["admissible"])
    rows = _rows(keep, thetas.size)
    det_min = np.min(out.pop("det"), axis=-1)[keep]
    del out["logdet"], out["h"]
    speed = out.pop("f_gamma")[rows, :1 if weight.is_constant else None]
    with np.errstate(over="ignore", invalid="ignore"):  # such rays are dropped
        np.multiply(-params.a, speed, out=speed)
        np.exp(speed, out=speed)
        speed *= thetas[rows, None]
        d_partial = (speed * ts if weight.is_constant
                     else cumulative_simpson(speed, ts[1] - ts[0]))
    del speed
    within = within_conjugate_radius(kappa, d_partial[:, -1])
    if not within.all():
        keep, d_partial, det_min = (a[within]
                                    for a in (keep, d_partial, det_min))
    require_normal(d_partial[:, -1], True)
    rows = _rows(keep, thetas.size)
    log_D = out.pop("l")[rows]
    log_D *= params.c
    m1, m2, m3 = concavity_margins(ts, log_D, out.pop("int_ann")[rows],
                                   d_partial, params, kappa)
    np.minimum(m1, m2, out=m1)
    np.minimum(m1, m3, out=m1)
    return keep, np.min(m1, axis=-1), det_min


def _rows(keep, size):
    """The index of the rows ``keep`` of ``size``: a slice, whose rows are
    views, where it holds them all."""
    return slice(None) if keep.size == size else keep


def refine_ray_margin(space: ModelSpace, weight: WeightFunction,
                      params: DimensionParams, kappa: float,
                      x, w, S, steps: int = _REFINE_STEPS) -> float | None:
    """One ray's concavity margin on a grid of ``steps`` steps.

    ``None`` if the ray's speed is at most ``SPEED_FLOOR``, it is
    inadmissible (on that grid; exactly on R^n) or reaches the conjugate
    radius, or S is not symmetric (S may come from a
    ``counterexample.json``). The scan refines its flagged rays through
    the same kernel, so this reproduces their margins.
    """
    x, w, S = (np.asarray(a, float) for a in (x, w, S))
    if not (np.allclose(S, S.T, atol=SYMMETRY_TOL, rtol=0.0)
            and space.norm(x, w) > SPEED_FLOOR):
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
