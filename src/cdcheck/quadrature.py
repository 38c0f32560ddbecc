"""Quadrature and extrapolation helpers shared across the toolkit."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError

# open intervals past which a refinement that never settles (rounding noise
# above the tolerance) is refused rather than split on to 2^max_depth
MAX_OPEN = 2**16


def adaptive_simpson(
    fn: Callable[[tuple[np.ndarray, np.ndarray]], np.ndarray],
    a,
    b,
    rel_tol: float = 1e-10,
    max_depth: int = 30,
):
    """Adaptive Simpson integration of ``fn`` on a stack of intervals
    [a_i, b_i], every integral one level at a time.

    ``fn`` takes one argument, a pair (i, x) of equal-length arrays: the
    abscissae x and, for each, the index i of its integral in the stack
    (0 for scalar a and b); it returns the integrand values there. One call
    evaluates, for every integral, a, the midpoint, b and the interior of a
    33-point grid; then each subdivision level makes one call for the two
    new midpoints of every interval still open in any integral. An interval
    is accepted when its Simpson refinement changes by at most its
    tolerance (or at ``max_depth``), and its value is then left + right +
    delta/15; the tolerance halves per level. Leaves are summed bottom-up,
    one pairwise sum per split, which is the order of the recursive
    formulation. Each integral keeps its own seeding, tolerance and sums,
    so its value and error are the floats a call on its interval alone
    returns; an empty interval gives (0, 0) and costs no evaluation.
    Raises PreconditionError where more than MAX_OPEN intervals stay open.

    Returns (value, estimated absolute error): floats for scalar a and b,
    else two arrays of their broadcast shape. The tolerance is relative to
    the magnitude of the integral, with an absolute floor so that
    integrals near zero terminate. A feature narrower than the spacing of
    the 33-point grid can be missed: where every seeding and first-level
    sample is negligible the Simpson estimates agree and the integral
    reads 0 (a Gaussian of width 1e-3 on [0, 1] does).
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    val, err = np.zeros(a.shape), np.zeros(a.shape)
    live = np.flatnonzero(a != b)
    if live.size:
        val.flat[live], err.flat[live] = _integrate(
            fn, a.ravel()[live], b.ravel()[live], live, rel_tol, max_depth)
    if a.ndim == 0:
        return float(val), float(err)
    return val, err


def _integrate(fn, a, b, ids, rel_tol, max_depth):
    """(values, errors) of the non-empty intervals [a, b] with stack
    indices ``ids``, level-batched."""
    m = 0.5 * (a + b)
    # the 3-point estimate can badly underestimate peaked integrands;
    # seed the tolerance scale from a 33-point composite rule instead
    grid = np.linspace(a, b, 33, axis=-1)
    f = _call(fn, ids, np.column_stack([a, m, b, grid[:, 1:-1]]))
    coarse = composite_simpson(np.column_stack([f[:, 0], f[:, 3:], f[:, 2]]),
                               grid[:, 1] - grid[:, 0])
    tol = rel_tol * np.maximum(np.abs(coarse), 1e-300) + 1e-300

    # the open intervals of one level, grouped by integral: stack index,
    # ends, midpoint, values, Simpson value and tolerance
    lo, mid, hi = a, m, b
    flo, fmid, fhi = f[:, 0], f[:, 1], f[:, 2]
    whole = (b - a) / 6.0 * (flo + 4.0 * fmid + fhi)
    levels = []  # per level: (accepted mask, leaf values, leaf errors)
    for depth in range(max_depth + 1):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        fl = _call(fn, ids, np.column_stack([lm, rm]))
        flm, frm = fl[:, 0], fl[:, 1]
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        delta = left + right - whole
        done = ~(np.abs(delta) > tol) | (depth >= max_depth)  # NaN: final
        levels.append((done, left + right + delta / 15.0, np.abs(delta) / 15.0))
        if done.all():
            break
        # children of each split interval, left then right, side by side;
        # halving the budget keeps the summed error below the request
        s = ~done
        if 2 * np.count_nonzero(s) > MAX_OPEN:
            raise PreconditionError("adaptive Simpson does not settle within"
                                    f" {MAX_OPEN} intervals", failed="quadrature settles")
        ids = np.repeat(ids[s], 2)
        lo, mid, hi = (_interleave(lo[s], mid[s]), _interleave(lm[s], rm[s]),
                       _interleave(mid[s], hi[s]))
        flo, fmid, fhi = (_interleave(flo[s], fmid[s]),
                          _interleave(flm[s], frm[s]),
                          _interleave(fmid[s], fhi[s]))
        whole = _interleave(left[s], right[s])
        tol = np.repeat(0.5 * tol[s], 2)

    val, err = levels[-1][1], levels[-1][2]
    for done, leaf_val, leaf_err in reversed(levels[:-1]):
        s = ~done
        leaf_val[s] = val[0::2] + val[1::2]
        leaf_err[s] = err[0::2] + err[1::2]
        val, err = leaf_val, leaf_err
    return val, err


def _call(fn, ids, x):
    """``fn`` on the abscissae x (one row per interval), as an array of x's
    shape."""
    i = np.broadcast_to(ids[:, None], x.shape).ravel()
    return np.asarray(fn((i, x.ravel())), dtype=float).reshape(x.shape)


def _interleave(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[u0, w0, u1, w1, ...]."""
    return np.stack([u, w], axis=1).ravel()


def composite_simpson(values: np.ndarray, dx):
    """Composite Simpson rule on a uniform grid (odd point count preferred),
    along the last axis; ``dx`` broadcasts against the leading axes.

    Falls back to a trapezoid correction on the last interval when the
    number of intervals is odd.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1] - 1
    if n == 0:
        return 0.0 * values[..., 0]
    if n == 1:
        return 0.5 * dx * (values[..., 0] + values[..., 1])
    if n % 2 == 1:
        head = composite_simpson(values[..., :-1], dx)
        # 3-point closure on the trailing interval keeps O(dx^4) accuracy
        tail = dx / 12.0 * (-values[..., -3] + 8.0 * values[..., -2]
                            + 5.0 * values[..., -1])
        return head + tail
    s = (values[..., 0] + values[..., -1] + 4.0 * values[..., 1:-1:2].sum(-1)
         + 2.0 * values[..., 2:-1:2].sum(-1))
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


def neville_extrapolate(ts: Sequence[float], vals: Sequence[float]) -> float:
    """Polynomial (Neville) extrapolation of vals(ts) to t = 0.

    Used as a Richardson-type limit estimator: when the error expansion is a
    power series in t, the degree-(m-1) extrapolant converges at order m.
    """
    t = np.asarray(ts, dtype=float)
    p = np.asarray(vals, dtype=float).copy()
    m = t.size
    for j in range(1, m):
        p[: m - j] = (-t[j:m] * p[: m - j] + t[: m - j] * p[1 : m - j + 1]) / (
            t[: m - j] - t[j:m]
        )
    return float(p[0])

