"""Quadrature and extrapolation helpers shared across the toolkit."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError

# open panels past which a refinement that never settles (rounding noise
# above the tolerance) is refused rather than split on
MAX_OPEN = 2**16
MAX_DEPTH = 30  # halvings of a first-round panel past which it is accepted
PANEL_LENGTH = 1.0  # the longest panel of a first round

# Gauss-Legendre on [-1, 1]: the nodes x > 0 and their weights, 16 and 8
# points, correctly rounded; a panel's 24 abscissae are +-x16, then +-x8
_X16 = [0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
        0.6178762444026438, 0.755404408355003, 0.8656312023878318,
        0.9445750230732326, 0.9894009349916499]
_W16 = [0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
        0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
        0.062253523938647894, 0.027152459411754096]
_X8 = [0.1834346424956498, 0.525532409916329, 0.7966664774136267,
       0.9602898564975363]
_W8 = [0.362683783378362, 0.31370664587788727, 0.22238103445337448,
       0.10122853629037626]
_NODES = np.array(_X16 + [-x for x in _X16] + _X8 + [-x for x in _X8])
_WEIGHTS = np.array(_W16 * 2 + _W8 * 2)


def gauss_legendre(
    fn: Callable[[tuple[np.ndarray, np.ndarray]], np.ndarray],
    a,
    b,
    rel_tol: float = 1e-10,
):
    """Gauss-Legendre panels on a stack of intervals [a_i, b_i]: (value,
    estimated absolute error), floats for scalar a and b, else arrays of
    their broadcast shape.

    ``fn`` takes one argument, a pair (i, x) of equal-length arrays (the
    abscissae x and, for each, the index i of its integral; 0 for scalar a
    and b) and returns the integrand there. An interval starts as
    ceil(|b - a| / PANEL_LENGTH) equal panels. A panel's value is its
    16-point sum and its error the distance from its 8-point sum, which
    overstates the 16-point sum's error. Each round is one call at the 24
    abscissae of every open panel, and halves, up to MAX_DEPTH times,
    each panel whose error exceeds rel_tol times its integral's value in
    that round; a NaN error is final. Accepted panels are added up round by
    round, each round from left to right, so each value and error is the
    float of a call on its interval alone. An empty interval gives (0, 0)
    and no evaluation. A feature narrower than the first round's node
    spacing can be missed: where neither sum sees it, they agree. Raises
    PreconditionError where more than MAX_OPEN panels stay open.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    n = np.ceil(np.abs(b - a).ravel() / PANEL_LENGTH).astype(int)
    ids = np.repeat(np.arange(n.size), n)  # no panel on an empty interval
    k = np.arange(ids.size) - np.repeat(np.cumsum(n) - n, n)
    lo, hi = a.ravel()[ids], b.ravel()[ids]
    lo, hi = lo + (hi - lo) * (k / n[ids]), lo + (hi - lo) * ((k + 1) / n[ids])
    val, err, depth = np.zeros(n.size), np.zeros(n.size), 0
    while ids.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * _NODES
        # row sums, not a matrix product: a panel's sums must not depend
        # on how many panels the round holds
        fw = np.asarray(fn((np.repeat(ids, _NODES.size), x.ravel())),
                        dtype=float).reshape(x.shape) * _WEIGHTS
        v16, v8 = fw[:, :16].sum(-1) * half, fw[:, 16:].sum(-1) * half
        e = np.abs(v16 - v8)
        # each integral's current value: its accepted and its open panels
        tol = rel_tol * np.abs(val + np.bincount(ids, v16, minlength=n.size))
        done = ~(e > tol[ids]) | (depth == MAX_DEPTH)  # NaN: final
        val += np.bincount(ids[done], v16[done], minlength=n.size)
        err += np.bincount(ids[done], e[done], minlength=n.size)
        s = ~done
        if 2 * np.count_nonzero(s) > MAX_OPEN:
            raise PreconditionError("Gauss-Legendre panels do not settle"
                                    f" within {MAX_OPEN} panels",
                                    failed="quadrature settles")
        # the two halves of each split panel, side by side
        ids, lo, hi = (np.repeat(ids[s], 2),
                       np.stack([lo[s], mid[s]], 1).ravel(),
                       np.stack([mid[s], hi[s]], 1).ravel())
        depth += 1
    if a.ndim == 0:
        return float(val[0]), float(err[0])
    return val.reshape(a.shape), err.reshape(a.shape)


# the benchmark's tracer spans the quadrature under reparam_partial by this
# name; ROADMAP item 2 renames the span and then drops this line
adaptive_simpson = gauss_legendre


def composite_simpson(values: np.ndarray, dx):
    """Composite Simpson rule on a uniform grid of 3 or more points (odd
    point count preferred), along the last axis; ``dx`` broadcasts against
    the leading axes.

    Closes an odd number of intervals with a 3-point rule on the last one.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1] - 1
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
    """Cumulative integral of values sampled at 3 or more uniform points,
    along the last axis.

    Entry k approximates the integral from the grid start to grid point k;
    the local-quadratic increments make the result 4th-order accurate.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    out = np.empty(values.shape)
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
        # f_{k-1} - 5 f_k + 19 f_{k+1} + 9 f_{k+2}, summed in that order
        # (-5 f_k + f_{k-1} is f_{k-1} - 5 f_k bit for bit) in place in two
        # contiguous arrays, which is faster than writing into inc's rows
        rest = np.multiply(values[..., 1:-2], -5.0)
        rest += values[..., :-3]
        tmp = np.multiply(values[..., 2:-1], 19.0)
        rest += tmp
        rest += np.multiply(values[..., 3:], 9.0, out=tmp)
        rest *= dx / 24.0
        inc[..., 2:] = rest
    out[..., 0] = 0.0
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

