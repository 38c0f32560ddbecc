"""Quadrature and extrapolation helpers shared across the toolkit."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_depth: int = 30,
) -> tuple[float, float]:
    """Adaptive Simpson integration of ``fn`` on [a, b], one level at a time.

    ``fn`` maps an array of abscissae to the array of integrand values.
    One call evaluates a, the midpoint, b and the interior of a 33-point
    grid; then each subdivision level makes one call for the two new
    midpoints of every interval still open. An interval is accepted when
    its Simpson refinement changes by at most its tolerance (or at
    ``max_depth``), and its value is then left + right + delta/15; the
    tolerance halves per level. Leaves are summed bottom-up, one pairwise
    sum per split, which is the order of the recursive formulation.

    Returns (value, estimated absolute error). The tolerance is relative
    to the magnitude of the integral, with an absolute floor so that
    integrals near zero terminate.
    """
    if a == b:
        return 0.0, 0.0

    m = 0.5 * (a + b)
    # the 3-point estimate can badly underestimate peaked integrands;
    # seed the tolerance scale from a 33-point composite rule instead
    grid = np.linspace(a, b, 33)
    f = np.asarray(fn(np.concatenate([[a, m, b], grid[1:-1]])), dtype=float)
    coarse = composite_simpson(np.concatenate([f[0:1], f[3:], f[2:3]]),
                               float(grid[1] - grid[0]))
    scale = max(abs(coarse), 1e-300)
    tol = rel_tol * scale + 1e-300

    # the open intervals of one level: ends, midpoint, values, Simpson value
    lo, mid, hi = np.array([a], float), np.array([m], float), np.array([b], float)
    flo, fmid, fhi = f[0:1], f[1:2], f[2:3]
    whole = (b - a) / 6.0 * (flo + 4.0 * fmid + fhi)
    levels = []  # per level: (accepted mask, leaf values, leaf errors)
    for depth in range(max_depth + 1):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        fl = np.asarray(fn(np.concatenate([lm, rm])), dtype=float)
        flm, frm = fl[:lo.size], fl[lo.size:]
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        delta = left + right - whole
        done = (np.abs(delta) <= tol) | (depth >= max_depth)
        levels.append((done, left + right + delta / 15.0, np.abs(delta) / 15.0))
        if done.all():
            break
        # children of each split interval, left then right, side by side;
        # halving the budget keeps the summed error below the request
        s = ~done
        lo, mid, hi = (_interleave(lo[s], mid[s]), _interleave(lm[s], rm[s]),
                       _interleave(mid[s], hi[s]))
        flo, fmid, fhi = (_interleave(flo[s], fmid[s]),
                          _interleave(flm[s], frm[s]),
                          _interleave(fmid[s], fhi[s]))
        whole = _interleave(left[s], right[s])
        tol = 0.5 * tol

    val, err = levels[-1][1], levels[-1][2]
    for done, leaf_val, leaf_err in reversed(levels[:-1]):
        s = ~done
        leaf_val[s] = val[0::2] + val[1::2]
        leaf_err[s] = err[0::2] + err[1::2]
        val, err = leaf_val, leaf_err
    return float(val[0]), float(err[0])


def _interleave(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[u0, w0, u1, w1, ...]."""
    return np.stack([u, w], axis=1).ravel()


def composite_simpson(values: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on a uniform grid (odd point count preferred).

    Falls back to a trapezoid correction on the last interval when the
    number of intervals is odd.
    """
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    if n == 0:
        return 0.0
    if n == 1:
        return 0.5 * dx * (values[0] + values[1])
    if n % 2 == 1:
        head = composite_simpson(values[:-1], dx)
        # 3-point closure on the trailing interval keeps O(dx^4) accuracy
        tail = dx / 12.0 * (-values[-3] + 8.0 * values[-2] + 5.0 * values[-1])
        return head + tail
    s = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    return s * dx / 3.0


def cumulative_simpson(values: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values along the last axis.

    Entry k approximates the integral from the grid start to grid point k;
    the local-quadratic increments make the result 4th-order accurate.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    out = np.zeros(values.shape)
    if n < 2:
        return out
    if n == 2:
        out[..., 1] = 0.5 * dx * (values[..., 0] + values[..., 1])
        return out
    inc = np.empty(values.shape[:-1] + (n - 1,))
    if n == 3:
        # quadratic increments on a 3-point grid
        inc[..., 0] = dx / 12.0 * (5.0 * values[..., 0] + 8.0 * values[..., 1]
                                   - values[..., 2])
        inc[..., 1] = dx / 12.0 * (-values[..., 0] + 8.0 * values[..., 1]
                                   + 5.0 * values[..., 2])
    else:
        # integral over [k, k+1] from the local cubic through four
        # neighbouring grid points; local O(dx^5), global O(dx^4)
        f0, f1, f2, f3 = (values[..., 0], values[..., 1],
                          values[..., 2], values[..., 3])
        inc[..., 0] = dx / 24.0 * (9.0 * f0 + 19.0 * f1 - 5.0 * f2 + f3)
        inc[..., 1] = dx / 24.0 * (-f0 + 13.0 * f1 + 13.0 * f2 - f3)
        inc[..., 2:] = dx / 24.0 * (values[..., :-3] - 5.0 * values[..., 1:-2]
                                    + 19.0 * values[..., 2:-1]
                                    + 9.0 * values[..., 3:])
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


def neville_extrapolate(ts: Sequence[float], vals: Sequence[float], at: float = 0.0) -> float:
    """Polynomial (Neville) extrapolation of vals(ts) to ``at``.

    Used as a Richardson-type limit estimator: when the error expansion is a
    power series in t, the degree-(m-1) extrapolant converges at order m.
    """
    t = np.asarray(ts, dtype=float)
    p = np.asarray(vals, dtype=float).copy()
    m = t.size
    for j in range(1, m):
        p[: m - j] = ((at - t[j:m]) * p[: m - j] + (t[: m - j] - at) * p[1 : m - j + 1]) / (
            t[: m - j] - t[j:m]
        )
    return float(p[0])

