"""Constant-curvature model spaces with weights.

Three models are provided: Euclidean R^d, the round sphere of a given
radius (points stored as embedding vectors in R^{d+1}), and hyperbolic
space in upper-half-space coordinates (last coordinate positive). All
geodesic, log-map, and frame operations are closed form.

``geodesic``, ``inner``, ``norm``, ``sample_unit`` and ``frame`` broadcast
over stacks of points and tangents (..., ambient), bit for bit equal to
the calls on single points: dot products are stacked matrix products,
which round like one pair's ``np.dot``. ``sample_point`` draws a stack of
``count`` points: on S^n and H^n the draws of ``count`` single calls, on
R^n a normal block, then a uniform block.

Weight functions carry value, Riemannian gradient and Hessian access;
every named preset has closed-form derivatives on every space it is
defined on (no finite differences).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CutLocusError
from .params import DimensionParams
from .report import CheckReport

# sphere segments this close to the antipode are treated as cut-locus hits
CUT_MARGIN = 1e-6


def _orthonormal_completion(existing: np.ndarray, dim: int) -> np.ndarray:
    """Columns orthonormal to the given ones, completing a basis of R^dim;
    ``existing`` may be a stack (..., dim, k)."""
    k = existing.shape[-1]
    eye = np.broadcast_to(np.eye(dim), existing.shape[:-2] + (dim, dim))
    q, _ = np.linalg.qr(np.concatenate([existing, eye], axis=-1))
    return q[..., k:dim]


def _dot(u, v):
    """u . v over the last axis of two stacks, as ``np.dot`` of each pair."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def unit_tangents(frames, coeff) -> np.ndarray:
    """Unit tangents coeff / |coeff| in orthonormal frames (rows): normal
    draws (..., dim) in one frame (dim, ambient) or a stack of frames; each
    row equals its own ``coeff / np.linalg.norm(coeff) @ frame``."""
    coeff = np.asarray(coeff, dtype=float)
    coeff = coeff / np.sqrt(_dot(coeff, coeff))[..., None]
    return (coeff[..., None, :] @ frames)[..., 0, :]


class ModelSpace:
    """Base class: a complete simply connected space of constant curvature."""

    kind: str
    dim: int
    sec: float  # constant sectional curvature
    ambient: int  # length of point coordinate arrays

    # -- core geometry -------------------------------------------------
    def geodesic(self, x, v, t):
        """Point(s) gamma_v(t) of the unit-speed geodesic; the leading axes
        of x, v and t broadcast together."""
        raise NotImplementedError

    def velocity(self, x, v, t):
        """Unit tangent(s) of gamma_v at parameter t."""
        raise NotImplementedError

    def log(self, x, y):
        """(unit tangent v, length L) with geodesic(x, v, L) == y."""
        raise NotImplementedError

    def inner(self, x, u, v):
        """g_x(u, v), over the leading axes of stacks."""
        raise NotImplementedError

    def norm(self, x, u):
        """|u| at x, over the leading axes of stacks."""
        return np.sqrt(np.maximum(self.inner(x, u, u), 0.0))

    def frame(self, x) -> np.ndarray:
        """Orthonormal tangent frame at x, rows = frame vectors; for a stack
        of points (..., ambient), the stack of their frames (..., dim,
        ambient)."""
        raise NotImplementedError

    # -- sampling ------------------------------------------------------
    def sample_point(self, rng: np.random.Generator, region: dict | None = None,
                     count: int | None = None):
        """A random point, or a stack of ``count`` points (count, ambient):
        on S^n and H^n the draws of ``count`` single calls, on R^n a normal
        block of directions, then a uniform block of radii."""
        xs = self._sample_points(rng, region, 1 if count is None else count)
        return xs[0] if count is None else xs

    def _sample_points(self, rng, region, count) -> np.ndarray:
        raise NotImplementedError

    def sample_unit(self, rng: np.random.Generator, x) -> np.ndarray:
        """A uniformly random unit tangent at x, or one at each point of a
        stack x (k, ambient); the stack draws its k normal vectors as k
        calls on single points would."""
        x = np.asarray(x, dtype=float)
        return unit_tangents(self.frame(x),
                             rng.normal(size=x.shape[:-1] + (self.dim,)))


class Euclidean(ModelSpace):
    kind = "euclidean"

    def __init__(self, dim: int):
        if dim < 2:
            raise ConfigError("model dimension must be >= 2")
        self.dim = dim
        self.ambient = dim
        self.sec = 0.0

    def geodesic(self, x, v, t):
        t = np.asarray(t, dtype=float)
        return np.asarray(x) + t[..., None] * np.asarray(v)

    def velocity(self, x, v, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(np.asarray(v), t.shape + (self.dim,)).copy()

    def log(self, x, y):
        d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
        length = float(np.linalg.norm(d))
        if length < 1e-15:
            v = np.zeros(self.dim)
            v[0] = 1.0
            return v, 0.0
        return d / length, length

    def inner(self, x, u, v):
        return _dot(u, v)

    def frame(self, x):
        return np.tile(np.eye(self.dim), np.shape(x)[:-1] + (1, 1))

    def _sample_points(self, rng, region, count):
        u = rng.normal(size=(count, self.dim))
        u = u / np.sqrt(_dot(u, u))[:, None]
        radii = rng.random(count)[:, None] ** (1.0 / self.dim)
        region = region or {}
        return region.get("center", 0.0) + region.get("radius", 1.0) * radii * u


class Sphere(ModelSpace):
    kind = "sphere"

    def __init__(self, dim: int, radius: float = 1.0):
        if dim < 2:
            raise ConfigError("model dimension must be >= 2")
        if radius <= 0:
            raise ConfigError("sphere radius must be positive")
        self.dim = dim
        self.radius = float(radius)
        self.ambient = dim + 1
        self.sec = 1.0 / radius**2

    def geodesic(self, x, v, t):
        t = np.asarray(t, dtype=float)
        ang = t[..., None] / self.radius
        return np.cos(ang) * np.asarray(x) + self.radius * np.sin(ang) * np.asarray(v)

    def velocity(self, x, v, t):
        t = np.asarray(t, dtype=float)
        ang = t[..., None] / self.radius
        return -np.sin(ang) * np.asarray(x) / self.radius + np.cos(ang) * np.asarray(v)

    def log(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        cosang = float(np.dot(x, y)) / self.radius**2
        cosang = max(-1.0, min(1.0, cosang))
        if cosang > 0.0:
            # chord formula, well-conditioned for small angles
            chord = float(np.linalg.norm(x - y)) / self.radius
            ang = 2.0 * math.asin(min(1.0, 0.5 * chord))
        else:
            ang = math.acos(cosang)
        length = self.radius * ang
        if length < 1e-15:
            fr = self.frame(x)
            return fr[0], 0.0
        if ang > math.pi - CUT_MARGIN:
            raise CutLocusError("antipodal pair on the sphere: minimal geodesic not unique")
        v = y - cosang * x
        v /= np.linalg.norm(v)
        return v, length

    def inner(self, x, u, v):
        return _dot(u, v)

    def frame(self, x):
        normal = np.asarray(x, dtype=float)[..., None] / self.radius
        return np.swapaxes(_orthonormal_completion(normal, self.ambient),
                           -1, -2)

    def _sample_points(self, rng, region, count):
        u = rng.normal(size=(count, self.ambient))
        return self.radius * u / np.sqrt(_dot(u, u))[:, None]


class Hyperbolic(ModelSpace):
    """Hyperbolic space in upper-half-space coordinates (x_1..x_{d-1}, y > 0).

    ``scale`` sets the curvature to -1/scale^2; the metric is
    scale^2 (dx^2 + dy^2)/y^2. Every geodesic from (x0, y0) in the Euclidean
    unit direction e = scale v / y0 is, at s = t / scale, y = y0 / D and
    x = x0 + e_x y0 sinh(s) / D, D = cosh s - e_y sinh s = ((1 - e_y) e^s +
    (1 + e_y) e^-s) / 2 with the smaller of 1 -+ e_y taken as |e_x|^2 / (1 +
    |e_y|), so D > 0 at every direction and length; ``log`` inverts it from
    the length 2 asinh(|p1 - p0| / (2 sqrt(y0 y1))) at curvature -1.
    """

    kind = "hyperbolic"

    def __init__(self, dim: int, scale: float = 1.0):
        if dim < 2:
            raise ConfigError("model dimension must be >= 2")
        if scale <= 0:
            raise ConfigError("hyperbolic scale must be positive")
        self.dim = dim
        self.scale = float(scale)
        self.ambient = dim
        self.sec = -1.0 / scale**2

    def _path(self, x, v, t):
        """Stacked (x, v, s, D, D' = dD/ds) of the closed form."""
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        s = np.asarray(t, dtype=float) / self.scale
        e = self.scale * v / x[..., -1:]
        big = 1.0 + np.abs(e[..., -1])
        small = _dot(e[..., :-1], e[..., :-1]) / big
        up = e[..., -1] >= 0
        a = 0.5 * np.exp(s) * np.where(up, small, big)  # e^s (1 - e_y) / 2
        b = 0.5 * np.exp(-s) * np.where(up, big, small)  # e^-s (1 + e_y) / 2
        return x, v, s, a + b, a - b

    def geodesic(self, x, v, t):
        x, v, s, d, _ = self._path(x, v, t)
        out = np.empty(d.shape + (self.ambient,))
        out[..., :-1] = x[..., :-1] + (self.scale * np.sinh(s) / d)[..., None] * v[..., :-1]
        out[..., -1] = x[..., -1] / d
        return out

    def velocity(self, x, v, t):
        x, v, _, d, dd = self._path(x, v, t)
        out = np.empty(d.shape + (self.ambient,))
        out[..., :-1] = v[..., :-1] / (d * d)[..., None]
        out[..., -1] = -x[..., -1] * dd / (self.scale * d * d)
        return out

    def log(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        y0, y1 = x[-1], y[-1]
        dx, dy = y[:-1] - x[:-1], y1 - y0
        dx2 = np.dot(dx, dx)
        length = 2.0 * np.arcsinh(np.sqrt(dx2 + dy * dy)
                                  / (2.0 * np.sqrt(y0 * y1)))
        if length < 1e-15:
            return self.frame(x)[0], 0.0
        sh = np.sinh(length)
        e = np.empty(self.ambient)
        e[:-1] = dx / (y1 * sh)
        e[-1] = (dx2 + dy * (y0 + y1)) / (2.0 * y0 * y1 * sh)
        return e * (y0 / self.scale), self.scale * length

    def inner(self, x, u, v):
        y = np.asarray(x, dtype=float)[..., -1]
        return _dot(u, v) * self.scale**2 / (y * y)

    def frame(self, x):
        y = np.asarray(x, dtype=float)[..., -1]
        return np.eye(self.ambient) * (y / self.scale)[..., None, None]

    def _sample_points(self, rng, region, count):
        # uniform coordinates and log-height
        r = (region or {}).get("radius", 1.0)
        xs = rng.uniform(-r, r, size=(count, self.ambient))
        xs[:, -1] = np.exp(xs[:, -1])
        return xs


def make_space(kind: str, dim: int, **kw) -> ModelSpace:
    spaces = {"euclidean": Euclidean, "sphere": Sphere,
              "hyperbolic": Hyperbolic}  # kw: a radius or a scale
    if kind not in spaces:
        raise ConfigError(f"unknown space kind: {kind}")
    return spaces[kind](dim, **kw)


@dataclass(frozen=True)
class GeodesicSegment:
    """A minimal geodesic between two points, clear of the cut locus."""

    start: np.ndarray
    end: np.ndarray
    direction: np.ndarray
    length: float


def segment_between(space: ModelSpace, x, y) -> GeodesicSegment:
    """The minimal geodesic from x to y; raises CutLocusError on sphere antipodes."""
    v, length = space.log(x, y)
    if isinstance(space, Sphere) and not length < math.pi * space.radius - CUT_MARGIN:
        raise CutLocusError("segment reaches the antipodal cut locus")
    return GeodesicSegment(np.asarray(x, float), np.asarray(y, float), v, length)


class WeightFunction:
    """Smooth density exponent f with closed-form gradient and Hessian.

    ``eval``, ``grad`` and ``hess`` are vectorized over leading axes.
    ``grad`` returns the Riemannian gradient vector in the space's point
    coordinates, so g(grad f, v) is ``space.inner(x, grad f, v)``;
    ``hess(x, u, w)`` is the Riemannian Hessian Hess f(u, w).
    """

    def __init__(self, eval_fn, grad_fn, hess_fn, *, is_constant=False,
                 name="custom"):
        self._eval = eval_fn
        self._grad = grad_fn
        self._hess = hess_fn
        self.is_constant = is_constant
        self.name = name

    def eval(self, x):
        return self._eval(np.asarray(x, dtype=float))

    def grad(self, x):
        return self._grad(np.asarray(x, dtype=float))

    def hess(self, x, u, w):
        return self._hess(np.asarray(x, dtype=float), np.asarray(u, float), np.asarray(w, float))


def grad_sup(space: ModelSpace, weight: WeightFunction, points) -> float:
    """Largest Riemannian gradient norm |grad f|(p) over a stack of points;
    0.0 for none."""
    points = np.asarray(points, dtype=float).reshape(-1, space.ambient)
    norms = space.norm(points, np.asarray(weight.grad(points), dtype=float))
    return float(np.max(norms, initial=0.0))


def constant_weight(value: float = 0.0) -> WeightFunction:
    def ev(x):
        return np.full(np.shape(x)[:-1], float(value)) if np.ndim(x) > 1 else float(value)

    def gr(x):
        return np.zeros(np.shape(x))

    def he(x, u, w):
        return np.zeros(np.shape(x)[:-1]) if np.ndim(x) > 1 else 0.0

    return WeightFunction(ev, gr, he, is_constant=True, name=f"constant({value})")


def _euclidean_linear(a: float) -> WeightFunction:
    def ev(x):
        return a * x[..., 0]

    def gr(x):
        g = np.zeros(np.shape(x))
        g[..., 0] = a
        return g

    def he(x, u, w):
        return np.zeros(np.shape(x)[:-1]) if np.ndim(x) > 1 else 0.0

    return WeightFunction(ev, gr, he, name=f"linear({a})")


def _euclidean_quadratic(a: float) -> WeightFunction:
    def ev(x):
        return 0.5 * a * np.sum(x * x, axis=-1)

    def gr(x):
        return a * x

    def he(x, u, w):
        return a * np.sum(u * w, axis=-1)

    return WeightFunction(ev, gr, he, name=f"quadratic({a})")


def _sphere_cosine(space: Sphere, a: float) -> WeightFunction:
    """f = a cos(theta) = a z / R on the sphere; z is an eigenfunction, so
    grad and Hessian are closed form: hess f = -(a z / R^3) g."""
    R = space.radius
    axis = np.zeros(space.ambient)
    axis[-1] = 1.0

    def ev(x):
        return a * x[..., -1] / R

    def gr(x):
        z = x[..., -1]
        return (a / R) * (axis - z[..., None] * x / R**2)

    def he(x, u, w):
        z = x[..., -1]
        return -(a * z / R**3) * np.sum(u * w, axis=-1)

    return WeightFunction(ev, gr, he, name=f"cosine({a})")


def _sphere_linear(space: Sphere, a: float) -> WeightFunction:
    """f = a * colatitude; distance function from the pole, so the Hessian
    is the classical cot comparison form. Singular at the poles."""
    R = space.radius
    axis = np.zeros(space.ambient)
    axis[-1] = 1.0

    def theta(x):
        return np.arccos(np.clip(x[..., -1] / R, -1.0, 1.0))

    def grad_theta(x):
        z = x[..., -1]
        w = axis - z[..., None] * x / R**2
        nw = np.linalg.norm(w, axis=-1)
        nw = np.where(nw < 1e-300, 1.0, nw)
        return -(w / nw[..., None]) / R

    def ev(x):
        return a * theta(x)

    def gr(x):
        return a * grad_theta(x)

    def he(x, u, w):
        th = theta(x)
        gth = grad_theta(x)
        cot = np.cos(th) / np.sin(th)
        guv = np.sum(u * w, axis=-1)
        du = np.sum(gth * u, axis=-1)
        dw = np.sum(gth * w, axis=-1)
        return a * (cot / R**2) * (guv - R**2 * du * dw)

    return WeightFunction(ev, gr, he, name=f"linear({a})")


def _hyperbolic(space: Hyperbolic, flat: WeightFunction) -> WeightFunction:
    """A Euclidean coordinate weight on H^n, whose metric (s/y)^2 |dx|^2 is
    conformal: grad f = (y/s)^2 Df, and the Christoffel symbols of the
    factor give Hess f(u, w) = D^2 f(u, w)
    + (u.Df w_y + w.Df u_y - (u.w) D_y f) / y."""
    s = space.scale

    def gr(x):
        return (x[..., -1:] / s) ** 2 * flat.grad(x)

    def he(x, u, w):
        df = flat.grad(x)
        ud = np.sum(u * df, axis=-1)
        wd = np.sum(w * df, axis=-1)
        uw = np.sum(u * w, axis=-1)
        return flat.hess(x, u, w) + (ud * w[..., -1] + wd * u[..., -1]
                                     - uw * df[..., -1]) / x[..., -1]

    return WeightFunction(flat.eval, gr, he, name=flat.name)


_PRESET_RE = re.compile(r"^([a-z]+)(?:[:(]([-+0-9.eE]+)\)?)?$")


def weight_preset(space: ModelSpace, spec: str) -> WeightFunction:
    """Named weight presets: zero, constant(a), linear(a), quadratic(a),
    cosine(a) (sphere only)."""
    m = _PRESET_RE.match(spec.strip())
    if not m:
        raise ConfigError(f"cannot parse weight preset: {spec!r}")
    name, arg = m.group(1), float(m.group(2)) if m.group(2) else 1.0
    if name == "zero":
        return constant_weight(0.0)
    if name == "constant":
        return constant_weight(arg)
    if name == "cosine":
        if not isinstance(space, Sphere):
            raise ConfigError("cosine weight is defined on the sphere only")
        return _sphere_cosine(space, arg)
    if name not in ("linear", "quadratic"):
        raise ConfigError(f"unknown weight preset: {name}")
    if isinstance(space, Sphere):
        if name == "linear":
            return _sphere_linear(space, arg)
        # |x| = R on the sphere, so a |x|^2 / 2 is the constant a R^2 / 2
        weight = constant_weight(0.5 * arg * space.radius**2)
        weight.name = f"quadratic({arg})"
        return weight
    flat = (_euclidean_linear if name == "linear" else _euclidean_quadratic)(arg)
    return _hyperbolic(space, flat) if isinstance(space, Hyperbolic) else flat


def ricci_fN_batch(space, weight, params, xs, vs) -> np.ndarray:
    """N-weighted Ricci curvature Ric_f^N(v, v) at each point of ``xs``
    for the unit tangent of ``vs`` at it.

    The last term vanishes for N = +inf; N = n requires a constant weight.
    """
    n, N = params.n, params.N
    if N == n and not weight.is_constant:
        raise ConfigError("N = n requires a constant weight function")
    ric_g = (n - 1) * space.sec * np.ones(xs.shape[0])
    hess = np.asarray(weight.hess(xs, vs, vs), dtype=float)
    out = ric_g + hess
    if not math.isinf(N) and N != n:
        gv = space.inner(xs, np.asarray(weight.grad(xs), dtype=float), vs)
        out = out - gv * gv / (N - n)
    return out


def check_curvature_bound(space: ModelSpace, weight: WeightFunction,
                          params: DimensionParams, kappa: float,
                          sampling: dict) -> CheckReport:
    """Sampled verification of Ric_f^N >= c^{-1} kappa e^{-4(1-eps)f/(n-1)} g.

    margin(x, v) = Ric_f^N(v) - c^{-1} kappa e^{-4(1-eps)f(x)/(n-1)}.
    """
    count = sampling.get("count", 200)
    seed = sampling.get("seed", 0)
    region = sampling.get("region")
    tol = sampling.get("tol", 1e-9)
    rng = np.random.default_rng(seed)
    xs = space.sample_point(rng, region, count)
    vs = space.sample_unit(rng, xs)
    ric = ricci_fN_batch(space, weight, params, xs, vs)
    f = np.asarray(weight.eval(xs), dtype=float)
    rhs = params.inv_c * kappa * np.exp(-2.0 * params.a * f)
    margins = ric - rhs
    return CheckReport(
        name="curvature_bound",
        margins=[float(m) for m in margins],
        tolerance=tol,
        provenance={"kappa": kappa, "count": count, "seed": seed,
                    "space": space.kind, "weight": weight.name},
    )
