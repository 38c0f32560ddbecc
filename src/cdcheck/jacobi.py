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
quadrature of a_nn behind h and Dbar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import log_beta, within_conjugate_radius
from .errors import PreconditionError, SingularJacobian
from .params import DimensionParams, s_kappa
from .quadrature import cumulative_simpson
from .report import CheckReport
from .spaces import ModelSpace, WeightFunction, ricci_fN_batch

SYMMETRY_TOL = 1e-12
# rays that scan_rays samples and integrates at once; it bounds the
# (batch, steps + 1) work arrays
_RAY_BATCH = 250
# the grid on which the scan re-checks the rays it flags
_REFINE_STEPS = 4096


@dataclass(frozen=True)
class TransportRay:
    """Base point, transport direction w, and Hessian surrogate S.

    S lives in an orthonormal frame at x whose last vector is w/|w|.
    """

    x: np.ndarray
    w: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        if not np.allclose(s, s.T, atol=SYMMETRY_TOL, rtol=0.0):
            raise PreconditionError("Hessian surrogate must be symmetric",
                                    failed="S symmetric")


@dataclass
class JacobianTrajectory:
    """Per-grid-point state of a transport ray on t in [0, 1]."""

    ray: TransportRay
    ts: np.ndarray
    det: np.ndarray
    J: np.ndarray
    h: np.ndarray
    l: np.ndarray
    log_D: np.ndarray  # c l
    int_ann: np.ndarray  # log Dbar
    f_gamma: np.ndarray  # f along the geodesic
    theta: float  # |w|
    direction: np.ndarray = field(default=None)  # unit tangent, None if theta=0

    def as_rows(self):
        """Rows (t, det, J, h, l, log D, log Dbar) for CSV export."""
        return np.column_stack([self.ts, self.det, self.J, self.h,
                                self.l, self.log_D, self.int_ann])


def jacobi_closed_form(Ss: np.ndarray, k_theta2: np.ndarray, ts: np.ndarray):
    """Exact det E and a_nn = (E' E^{-1})_{nn} for a batch of rays.

    Ss: (B, n, n) initial derivatives S; k_theta2: (B,) values of
    k theta^2; ts: (T,). Returns (det, a_nn) of shape (B, T); a_nn is
    inf or NaN where det is 0.

    Rows :-1 of E are C I + Sn S, with the scalar propagator C = cos,
    Sn = sin/omega of frequency omega = sqrt(k) theta (cosh, sinh for
    k < 0; 1, t for k = 0), and the last row is e_n + t S[-1]. Each ray
    evaluates only its own branch, so no unused cosh can overflow.
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
    if pos.any():
        om = np.sqrt(w2[pos])[:, None]
        C[pos] = np.cos(om * ts)
        Sn[pos] = np.sin(om * ts) / om
    if neg.any():
        om = np.sqrt(-w2[neg])[:, None]
        C[neg] = np.cosh(om * ts)
        Sn[neg] = np.sinh(om * ts) / om
    alpha, U = np.linalg.eigh(Ss[:, :-1, :-1])
    beta = np.einsum("bji,bj->bi", U, Ss[:, :-1, -1])
    gamma = np.einsum("bji,bj->bi", U, Ss[:, -1, :-1])
    p = C[..., None] + Sn[..., None] * alpha[:, None, :]  # (B, T, n - 1)
    det_P = np.prod(p, axis=-1)
    cross = sum((beta[:, i] * gamma[:, i])[:, None]
                * np.prod(np.delete(p, i, axis=-1), axis=-1)
                for i in range(n - 1))
    det_M = Ss[:, -1, -1, None] * det_P - Sn * cross
    det = det_P + ts * det_M
    with np.errstate(divide="ignore", invalid="ignore"):
        return det, det_M / det


def integrate_jacobi_batch(space: ModelSpace, weight: WeightFunction,
                           params: DimensionParams, xs, ws, Ss,
                           steps: int = 128):
    """Vectorized trajectory computation for a batch of rays.

    Returns a dict of (B, steps + 1) arrays keyed by the trajectory field
    names (``int_ann`` = log Dbar; D and Dbar themselves are not formed,
    so they cannot overflow), plus ``thetas`` and an ``admissible`` mask
    (det > 0 on the whole grid). Inadmissible rows carry NaN downstream
    values.
    """
    xs = np.asarray(xs, dtype=float)
    ws = np.asarray(ws, dtype=float)
    Ss = np.asarray(Ss, dtype=float)
    B = xs.shape[0]
    thetas = np.array([space.norm(x, w) for x, w in zip(xs, ws)])
    ts = np.linspace(0.0, 1.0, steps + 1)
    dt = ts[1] - ts[0]

    # zero-speed rays degenerate to the identity trajectory
    Ss = np.where((thetas > 1e-14)[:, None, None], Ss, 0.0)
    det, a_nn = jacobi_closed_form(Ss, space.sec * thetas**2, ts)
    admissible = np.all(det > 0.0, axis=1)
    a_nn[~admissible] = np.nan

    # f along each geodesic; zero-speed rays sit at the base point
    f_gamma = np.empty((B, steps + 1))
    live = thetas > 1e-14
    if live.any():
        pts = _geodesic_points(space, xs[live], ws[live], thetas[live], ts)
        f_gamma[live] = np.asarray(weight.eval(pts), dtype=float)
    if (~live).any():
        f_gamma[~live] = np.asarray(weight.eval(xs[~live]), dtype=float)[:, None]

    int_ann = cumulative_simpson(a_nn, dt)
    with np.errstate(invalid="ignore"):
        logdet = np.where(det > 0, np.log(np.where(det > 0, det, 1.0)), np.nan)
    h = logdet - int_ann
    l = h - f_gamma + f_gamma[:, :1]
    J = np.exp(logdet - f_gamma + f_gamma[:, :1])
    return {"ts": ts, "det": det, "J": J, "h": h, "l": l, "int_ann": int_ann,
            "f_gamma": f_gamma, "thetas": thetas, "admissible": admissible}


def _geodesic_points(space, xs, ws, thetas, ts):
    """(B, T, ambient) geodesic points; broadcast fast paths per model."""
    vs = ws / thetas[:, None]
    svals = thetas[:, None] * ts[None, :]
    kind = space.kind
    if kind == "euclidean":
        return xs[:, None, :] + svals[..., None] * vs[:, None, :]
    if kind == "sphere":
        ang = svals[..., None] / space.radius
        return (np.cos(ang) * xs[:, None, :]
                + space.radius * np.sin(ang) * vs[:, None, :])
    return np.stack([space.geodesic(x, v, s)
                     for x, v, s in zip(xs, vs, svals)])


def integrate_jacobi(space: ModelSpace, weight: WeightFunction,
                     params: DimensionParams, ray: TransportRay,
                     steps: int = 128) -> JacobianTrajectory:
    """Trajectory of a single ray; raises SingularJacobian if det E hits 0."""
    theta = space.norm(ray.x, ray.w)
    out = integrate_jacobi_batch(space, weight, params,
                                 ray.x[None, :], ray.w[None, :],
                                 np.asarray(ray.S, float)[None, :, :], steps)
    if not out["admissible"][0]:
        raise SingularJacobian("det(dF_t) vanishes on [0, 1]; ray inadmissible")
    direction = None
    if theta > 1e-14:
        direction = np.asarray(ray.w, float) / theta
    return JacobianTrajectory(
        ray=ray, ts=out["ts"], det=out["det"][0], J=out["J"][0],
        h=out["h"][0], l=out["l"][0], log_D=params.c * out["l"][0],
        int_ann=out["int_ann"][0], f_gamma=out["f_gamma"][0], theta=theta,
        direction=direction,
    )


# -- finite-difference stencils (uniform grid, 5 points) ----------------
def _deriv1_5pt(y: np.ndarray, dt: float) -> np.ndarray:
    """First derivative at interior points [2:-2]."""
    return (y[..., :-4] - 8.0 * y[..., 1:-3] + 8.0 * y[..., 3:-1]
            - y[..., 4:]) / (12.0 * dt)


def _deriv2_5pt(y: np.ndarray, dt: float) -> np.ndarray:
    """Second derivative at interior points [2:-2]."""
    return (-y[..., :-4] + 16.0 * y[..., 1:-3] - 30.0 * y[..., 2:-2]
            + 16.0 * y[..., 3:-1] - y[..., 4:]) / (12.0 * dt**2)


def check_riccati(traj: JacobianTrajectory, space: ModelSpace,
                  weight: WeightFunction, params: DimensionParams,
                  tol: float = 1e-8) -> CheckReport:
    """Differential inequalities for h and l along the trajectory.

        h'' <= -h'^2/(n-1) - Ric_g(gamma')
        (e^{a f} l')' <= -e^{a f} (c l'^2 + Ric_f^N(gamma'))

    Margins are (RHS - LHS)/(1 + |RHS|) at interior grid points.
    """
    n = space.dim
    ts, dt = traj.ts, traj.ts[1] - traj.ts[0]
    theta2 = traj.theta**2
    margins = []

    hp = _deriv1_5pt(traj.h, dt)
    hpp = _deriv2_5pt(traj.h, dt)
    ric_g = (n - 1) * space.sec * theta2
    rhs1 = -hp**2 / (n - 1) - ric_g
    m1 = (rhs1 - hpp) / (1.0 + np.abs(rhs1))
    margins.extend(float(v) for v in m1)

    if traj.theta > 1e-14:
        pts = _geodesic_points(space, traj.ray.x[None, :],
                               traj.ray.w[None, :],
                               np.array([traj.theta]), ts)[0]
        vels = space.velocity(traj.ray.x, traj.direction, traj.theta * ts)
        ric_fn = theta2 * ricci_fN_batch(space, weight, params, pts, vels)
    else:
        ric_fn = np.zeros_like(ts)
    ef = np.exp(params.a * traj.f_gamma)
    lp = _deriv1_5pt(traj.l, dt)
    w = ef[2:-2] * lp
    wp = _deriv1_5pt(w, dt)  # valid on indices [4:-4] of the base grid
    inner = slice(4, len(ts) - 4)
    rhs2 = -ef[inner] * (params.c * lp[2:-2]**2 + ric_fn[inner])
    m2 = (rhs2 - wp) / (1.0 + np.abs(rhs2))
    margins.extend(float(v) for v in m2)

    return CheckReport(name="riccati", margins=margins, tolerance=tol,
                       provenance={"theta": traj.theta, "steps": len(ts) - 1})


def _partials_from_f(params, f_gamma, theta, dt):
    """Re-parametrized partial distances d_t(x,y) on the ray's own grid."""
    integrand = theta * np.exp(-params.a * f_gamma)
    return cumulative_simpson(integrand, dt)


def _log_margin(x, w0, x0, w1, x1):
    """(e^x - r)/(1 + r) with r = w0 e^x0 + w1 e^x1, from the logs x, x0, x1.

    Numerator and denominator are scaled by e^-s, s = max(0, log r), so
    neither e^x0, e^x1 nor r is formed and no inf/inf can arise; only a
    margin whose value is beyond the float range reads +inf.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_r = np.logaddexp(np.log(w0) + x0, np.log(w1) + x1)
        s = np.maximum(0.0, log_r)
        r = np.exp(log_r - s)
        return (np.exp(x - s) - r) / (np.exp(-s) + r)


def concavity_margins(ts, log_D, log_Dbar, J, d_partial,
                      params: DimensionParams, kappa: float):
    """Margins of the three concavity inequalities on the grid interior.

    (i)  Dbar(t) >= (1-t) Dbar(0) + t Dbar(1)
    (ii) D(t) >= [s_k(d_f - d_t)/s_k(d_f)] D(0) + [s_k(d_t)/s_k(d_f)] D(1)
    (iii) J_t^{c/(c+1)} >= (1-t) beta_{1-t}(y,x)^{c/(c+1)} J_0^{c/(c+1)}
                           + t beta_t(x,y)^{c/(c+1)} J_1^{c/(c+1)}

    with d_{1-t}(y,x) = d_f(x,y) - d_t(x,y) by reversal of the geodesic.
    D and Dbar enter through their logs c l and int a_nn, which stay
    finite where the densities overflow. All margins are scaled by
    1/(1 + |RHS|). Works on batched rows.
    """
    d_full = d_partial[..., -1:]
    inner = slice(1, ts.size - 1)
    t = ts[inner]
    d_t = d_partial[..., inner]
    d_rev = d_full - d_t
    s_full = s_kappa(kappa, d_full)

    m1 = _log_margin(log_Dbar[..., inner], 1.0 - t, log_Dbar[..., :1],
                     t, log_Dbar[..., -1:])
    m2 = _log_margin(log_D[..., inner], s_kappa(kappa, d_rev) / s_full,
                     log_D[..., :1], s_kappa(kappa, d_t) / s_full,
                     log_D[..., -1:])

    cr = params.c_ratio
    brev = np.exp(cr * log_beta(params, kappa, d_rev, d_full, 1.0 - t))
    bfwd = np.exp(cr * log_beta(params, kappa, d_t, d_full, t))
    Jcr = np.where(J > 0, J, np.nan) ** cr
    rhs3 = (1.0 - t) * brev * Jcr[..., :1] + t * bfwd * Jcr[..., -1:]
    m3 = (Jcr[..., inner] - rhs3) / (1.0 + np.abs(rhs3))
    return m1, m2, m3


def _ray_margins(space, weight, params, kappa, xs, ws, Ss, steps):
    """The concavity margins of a batch of rays on a grid of ``steps`` steps.

    Returns (keep, margins, det_min): the indices of the rays that move,
    are admissible and whose re-parametrized length stays below the
    conjugate radius, and for each of them the minimum over inequalities
    (i)-(iii) and the minimum of det E on the grid. Dropped rows get no
    margins: a zero-speed ray has no s-ratios, and a ray with det E <= 0
    has no log D.
    """
    out = integrate_jacobi_batch(space, weight, params, xs, ws, Ss, steps)
    dt = out["ts"][1] - out["ts"][0]
    d_partial = _partials_from_f(params, out["f_gamma"],
                                 out["thetas"][:, None], dt)
    keep = np.flatnonzero(out["admissible"] & (out["thetas"] > 1e-14)
                          & within_conjugate_radius(kappa, d_partial[:, -1]))
    m1, m2, m3 = concavity_margins(out["ts"], params.c * out["l"][keep],
                                   out["int_ann"][keep], out["J"][keep],
                                   d_partial[keep], params, kappa)
    margins = np.min(np.concatenate([m1, m2, m3], axis=-1), axis=-1)
    return keep, margins, np.min(out["det"][keep], axis=-1)


def refine_ray_margin(space: ModelSpace, weight: WeightFunction,
                      params: DimensionParams, kappa: float,
                      x, w, S, steps: int = _REFINE_STEPS) -> float | None:
    """One ray's concavity margin on a grid of ``steps`` steps.

    ``None`` if the ray has zero speed, is inadmissible on that grid,
    reaches the conjugate radius, or S is not symmetric. The scan refines its flagged
    rays through the same kernel, so this reproduces their margins.
    """
    try:
        ray = TransportRay(np.asarray(x, float), np.asarray(w, float),
                           np.asarray(S, float))
    except PreconditionError:
        return None
    keep, margins, _ = _ray_margins(space, weight, params, kappa,
                                    ray.x[None], ray.w[None], ray.S[None],
                                    steps)
    return float(margins[0]) if keep.size else None


def sample_rays(space: ModelSpace, rng: np.random.Generator, count: int,
                region: dict | None = None,
                theta_range: tuple[float, float] = (0.2, 1.2)):
    """Random admissible-candidate rays: eigenvalues uniform in
    [-0.8, 0.8]/theta with a Haar-random eigenframe.

    Each ray draws, in this order, its point, the normal vector behind its
    unit direction (the draw of ``space.sample_unit``), theta, the
    eigenvalues and the Gaussian matrix behind the eigenframe. The
    arithmetic then runs on the whole batch, with the same values, bit for
    bit, as ray by ray: the vector norms are taken as matrix products,
    like ``np.linalg.norm``'s dot product of one vector.
    """
    n = space.dim
    draws = [(space.sample_point(rng, region), rng.normal(size=n),
              rng.uniform(*theta_range), rng.uniform(-0.8, 0.8, size=n),
              rng.normal(size=(n, n))) for _ in range(count)]
    xs, coeff, theta, lam, gauss = (np.asarray(a) for a in zip(*draws))
    coeff = coeff / np.sqrt(coeff[:, None, :] @ coeff[:, :, None])[:, 0]
    vhat = (coeff[:, None, :] @ space.frame(xs))[:, 0]
    q, _ = np.linalg.qr(gauss)
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
    the conjugate radius are dropped. det E is exact at every grid point;
    the grid error left is the quadrature of a_nn behind h and Dbar, which
    is sharp where the determinant dips toward 0, and a dip between grid
    points can hide det E <= 0. So the rays whose determinant dips below
    0.1 and whose margin is below ``-tol`` are re-checked on
    ``_REFINE_STEPS`` steps, in chunks whose arrays are no larger than the
    batch's, and dropped if the fine grid shows them inadmissible.
    """
    xs, ws, Ss = sample_rays(space, rng, count, region, theta_range)
    keep, margins, det_min = _ray_margins(space, weight, params, kappa,
                                          xs, ws, Ss, steps)
    grids = np.full(keep.size, steps)
    dropped = np.zeros(keep.size, dtype=bool)
    flagged = np.flatnonzero((margins < -tol) & (det_min < 0.1))
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
