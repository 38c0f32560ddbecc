"""Constant-curvature model spaces with weights.

Three models are provided: Euclidean R^d, and the unit sphere and
hyperbolic space as the quadrics <X, X> = +-1 of R^{d+1} under the
Euclidean and the Minkowski form (`_Quadric`; `cli.resolve_config` maps a
radius or scale R to them). Geodesics and frames are closed form. There is
no log map: a geodesic segment is the (x, v, L) its caller holds, a point,
a unit tangent there and a length, and every pair a check reads is built
as gamma_v(L) from one.

``geodesic``, ``velocity``, ``inner``, ``norm``, ``sample_unit`` and ``frame``
broadcast over stacks of points and tangents (..., ambient), bit for bit
equal to the calls on single points: dot products are stacked matrix
products, which round like one pair's ``np.dot``. ``sample_point`` draws a stack of
``count`` points: on S^n and H^n the draws of ``count`` single calls, on
R^n a normal block, then a uniform block.

Every weight preset is an ambient function F with closed-form DF and
D^2F; its Riemannian gradient and Hessian come from one rule,
`_ambient_weight` (no finite differences). The R^n and S^n presets also
give f along unit-speed rays from per-ray scalars
(``WeightFunction.ray``), so the ray scan builds no point arrays for
them. H^n coordinates grow as e^d at a distance d from the origin (0,
..., 0, 1), and a point past X_n = SPAN is refused; checks confined near
one point run there (`centred`).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ConfigError, PreconditionError
from .params import DimensionParams, require_exp_range
from .report import CheckReport

# past X_n = SPAN the constant 1 of an H^n point's Minkowski square falls
# below the last bit of X_n^2: its coordinates keep no digit of it
SPAN = 2.0**26
# the points of a segment at which `grad_sup` reads |grad f|
GRAD_POINTS = 257


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
    sec: float  # constant sectional curvature: 0 on R^n, 1 and -1 on S^n, H^n
    ambient: int  # length of point coordinate arrays: n, or n + 1 on S^n, H^n

    def __init__(self, dim: int):
        if dim < 2:
            raise ConfigError("model dimension must be >= 2")
        self.dim, self.ambient = dim, dim if self.sec == 0.0 else dim + 1

    # -- core geometry -------------------------------------------------
    def geodesic(self, x, v, t):
        """Point(s) gamma_v(t) of the unit-speed geodesic; the leading axes
        of x, v and t broadcast together."""
        raise NotImplementedError

    def velocity(self, x, v, t):
        """Unit tangent(s) of gamma_v at parameter t."""
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
    kind, sec = "euclidean", 0.0

    def geodesic(self, x, v, t):
        t = np.asarray(t, dtype=float)
        return np.asarray(x) + t[..., None] * np.asarray(v)

    def velocity(self, x, v, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(np.asarray(v), t.shape + (self.dim,)).copy()

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


class _Quadric(ModelSpace):
    """S^n or H^n as the quadric <X, X> = sec of R^{n+1} under the form
    G = diag(1, ..., 1, sec): Euclidean on S^n (sec = 1), Minkowski
    with the time coordinate last on H^n (sec = -1, X_n > 0). ``inner`` is
    G at every point; the tangents at X are G-orthogonal to X. The
    unit-speed geodesic is c_sec(t) X + s_sec(t) V.
    """

    def __init__(self, dim: int):
        super().__init__(dim)
        self._form = np.append(np.ones(dim), self.sec)

    def inner(self, x, u, v):
        return _dot(np.asarray(u, dtype=float) * self._form, v)


class Sphere(_Quadric):
    kind = "sphere"
    sec = 1.0

    def geodesic(self, x, v, t):
        t = np.asarray(t, dtype=float)[..., None]
        return np.cos(t) * np.asarray(x) + np.sin(t) * np.asarray(v)

    def velocity(self, x, v, t):
        t = np.asarray(t, dtype=float)[..., None]
        return -np.sin(t) * np.asarray(x) + np.cos(t) * np.asarray(v)

    def frame(self, x):
        return np.swapaxes(_orthonormal_completion(
            np.asarray(x, dtype=float)[..., None], self.ambient), -1, -2)

    def _sample_points(self, rng, region, count):
        u = rng.normal(size=(count, self.ambient))
        return u / np.sqrt(_dot(u, u))[:, None]


class Hyperbolic(_Quadric):
    """H^n on the hyperboloid <X, X> = -1, of curvature -1.

    The geodesic cosh(t) X + sinh(t) V is taken as (e^t N+ + e^-t N-) / 2
    for the null vectors N+- = X +- V: where it passes the origin from far
    out no two large terms cancel, and each point is a smooth function of
    t to the last bits of its coordinates.

    Configs keep the upper half space (p, y), y > 0, with metric
    (|dp|^2 + dy^2) / y^2 as their chart: the point of (p, y) is
    X = ((r^2 - 1) / 2y, p / y, (r^2 + 1) / 2y) with r^2 = |p|^2 + y^2,
    and back p = X_{1..n-1} / q, y = 1 / q for q = X_n - X_0. Points are
    drawn uniform in (p, log y), and ``frame`` is the image of the
    half-space frame y e_i: rows (p_j, e_j, p_j) and
    ((y^2 - |p|^2 + 1) / 2y, -p / y, (y^2 - |p|^2 - 1) / 2y).
    """

    kind = "hyperbolic"
    sec = -1.0

    def _null(self, x, v, t):
        """(e^t, N+, N-) of the geodesic."""
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        return np.exp(np.asarray(t, dtype=float)[..., None]), x + v, x - v

    def geodesic(self, x, v, t):
        """Raises PreconditionError where a point reaches X_n = SPAN."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            e, up, down = self._null(x, v, t)
            out = 0.5 * (e * up + down / e)
        if not np.all(out[..., -1] < SPAN):
            raise PreconditionError("a geodesic leaves the span where H^n"
                                    " coordinates keep digits",
                                    failed="geodesic within SPAN")
        return out

    def velocity(self, x, v, t):
        e, up, down = self._null(x, v, t)
        return 0.5 * (e * up - down / e)

    def _nulls(self, x):
        """(q, s) = (X_n - X_0, X_n + X_0) = (1 / y, r^2 / y) at points;
        the one that cancels, s where X_0 < 0 and q where X_0 > 0, taken
        from q s = |X_{1..n-1}|^2 + 1."""
        mid = x[..., 1:-1]
        q, s, up = x[..., -1] - x[..., 0], x[..., -1] + x[..., 0], x[..., 0] > 0.0
        prod = _dot(mid, mid) + 1.0
        return np.where(up, prod / s, q), np.where(up, s, prod / q)

    def frame(self, x):
        x = np.asarray(x, dtype=float)
        q = self._nulls(x)[0][..., None]
        p, y = x[..., 1:-1] / q, 1.0 / q
        out = np.zeros(x.shape[:-1] + (self.dim, self.ambient))
        out[..., :-1, 0] = out[..., :-1, -1] = p
        out[..., :-1, 1:-1] = np.eye(self.dim - 1)
        h = (y * y - _dot(p, p)[..., None]) / (2.0 * y)
        out[..., -1, :] = np.concatenate([h + 0.5 / y, -p / y, h - 0.5 / y], axis=-1)
        return out

    def _sample_points(self, rng, region, count):
        r = abs((region or {}).get("radius", 1.0))
        p = rng.uniform(-r, r, size=(count, self.dim))
        p, y = p[:, :-1], np.exp(p[:, -1:])
        h = (_dot(p, p)[:, None] + y * y) / (2.0 * y)
        return np.hstack([h - 0.5 / y, p / y, h + 0.5 / y])

    def region_in_range(self, radius) -> bool:
        """Whether the points of a region of this radius stay below X_n =
        SPAN: the largest, ((n - 1) r^2 + e^{-2r} + 1) e^r / 2 at p_i = r,
        y = e^{-r}, is compared in logs."""
        r = abs(radius)
        return r + math.log(0.5 * ((self.dim - 1) * r * r + math.exp(-2.0 * r)
                                   + 1.0)) < math.log(SPAN)


def make_space(kind: str, dim: int, **kw) -> ModelSpace:
    """The unit model of ``kind``; kw: its radius or scale, 1.0 if given."""
    spaces = {cls.kind: cls for cls in (Euclidean, Sphere, Hyperbolic)}
    if kind not in spaces:
        raise ConfigError(f"unknown space kind: {kind}")
    if kw not in ({}, {{"sphere": "radius", "hyperbolic": "scale"}.get(kind): 1.0}):
        raise ConfigError(f"{kw} on a {kind} model: every model is a unit one")
    return spaces[kind](dim)


class WeightFunction:
    """Smooth density exponent f with closed-form gradient and Hessian.

    ``eval``, ``grad`` and ``hess`` are vectorized over leading axes.
    ``grad`` returns the Riemannian gradient vector in the space's point
    coordinates, so g(grad f, v) is ``space.inner(x, grad f, v)``;
    ``hess(x, u, w)`` is the Riemannian Hessian Hess f(u, w).

    ``ray``, if not None, is f along unit-speed geodesics without their
    points: ``ray(x, v, T, trig)`` for rays from x (B, ambient) along
    unit tangents v (B, ambient) at the parameters T (B, T) is a new (B, T)
    array of f(gamma_v(T)), from a few per-ray scalars of x and v. ``trig``
    is None or the pair (cos T, sin T), which the S^n forms then read
    instead of forming them (the ray scan shares it with the Jacobi
    propagator) and which no form writes into. Every R^n and S^n preset
    has one; H^n presets and custom weights have none, and f along their
    rays is ``eval`` of ``space.geodesic``.
    """

    def __init__(self, eval_fn, grad_fn, hess_fn, *, is_constant=False,
                 name="custom", ray=None):
        self._eval, self._grad, self._hess = eval_fn, grad_fn, hess_fn
        self.is_constant, self.name, self.ray = is_constant, name, ray

    def eval(self, x):
        return self._eval(np.asarray(x, dtype=float))

    def grad(self, x):
        return self._grad(np.asarray(x, dtype=float))

    def hess(self, x, u, w):
        return self._hess(np.asarray(x, dtype=float), np.asarray(u, float), np.asarray(w, float))


def grad_sup(space: ModelSpace, weight: WeightFunction, x, v,
             length: float) -> float:
    """Largest Riemannian gradient norm |grad f| at GRAD_POINTS evenly
    spaced points of the segment gamma_v([0, length]) from x: a grid sup,
    which can only under-estimate the segment's."""
    points = space.geodesic(x, v, np.linspace(0.0, length, GRAD_POINTS))
    return float(np.max(space.norm(points, weight.grad(points))))


def _no_hessian(x, u, w):
    return np.zeros(np.shape(x)[:-1])


def constant_weight(value: float = 0.0) -> WeightFunction:
    return WeightFunction(lambda x: np.full(np.shape(x)[:-1], float(value)),
                          lambda x: np.zeros(np.shape(x)), _no_hessian,
                          is_constant=True, name=f"constant({value})")


def _along(x, entries) -> np.ndarray:
    """Ambient vectors at x, zero but at the {index: value} entries."""
    g = np.zeros(np.shape(x))
    for i, value in entries.items():
        g[..., i] = value
    return g


def _euclidean_presets(space, a):
    """linear(a) = a x_0 and quadratic(a) = a |x|^2 / 2, with their ray
    forms along x + T v: a (x_0 + T v_0), bit for bit the value at the
    point, and a (|x|^2 + T (2 x . v + T |v|^2)) / 2, each written into
    one new array."""
    def linear_ray(x, v, T, trig):
        f = T * v[:, :1]
        f += x[:, :1]
        f *= a
        return f

    def quadratic_ray(x, v, T, trig):
        xx, xv, vv = (_dot(p, q)[:, None]
                      for p, q in ((x, x), (x, v), (v, v)))
        f = T * vv
        f += 2.0 * xv
        f *= T
        f += xx
        f *= 0.5 * a
        return f

    return {"linear": (lambda x: a * x[..., 0], lambda x: _along(x, {0: a}),
                       _no_hessian, linear_ray),
            "quadratic": (lambda x: 0.5 * a * np.sum(x * x, axis=-1),
                          lambda x: a * x,
                          lambda x, u, w: a * np.sum(u * w, axis=-1),
                          quadratic_ray)}


def _sphere_presets(space, a):
    """cosine(a) = a X_n, and linear(a) = a theta for the colatitude
    theta = acos(X_n) (singular at the poles). Along cos T x + sin T v
    both read one coordinate, X_n = cos T x_n + sin T v_n, so their ray
    forms are bit for bit the values at the points. They take cos T and
    sin T from ``trig`` where the caller has them, and write into neither."""
    def dtheta(z):  # d theta / d X_n
        return -1.0 / np.sqrt((1.0 - z) * (1.0 + z))

    def ray_xn(x, v, T, trig):
        cos, sin = (np.cos(T), np.sin(T)) if trig is None else trig
        xn = cos * x[:, -1:]
        xn += sin * v[:, -1:]
        return xn

    def cosine_ray(x, v, T, trig):
        f = ray_xn(x, v, T, trig)
        f *= a
        return f

    def linear_ray(x, v, T, trig):
        f = ray_xn(x, v, T, trig)
        np.clip(f, -1.0, 1.0, out=f)
        np.arccos(f, out=f)
        f *= a
        return f

    return {"cosine": (lambda x: a * x[..., -1],
                       lambda x: _along(x, {-1: a}), _no_hessian, cosine_ray),
            "linear": (lambda x: a * np.arccos(np.clip(x[..., -1], -1.0, 1.0)),
                       lambda x: _along(x, {-1: a * dtheta(x[..., -1])}),
                       lambda x, u, w: (a * x[..., -1] * dtheta(x[..., -1]) ** 3
                                        * u[..., -1] * w[..., -1]),
                       linear_ray)}


def _hyperbolic_presets(space, a, at=None):
    """The half-space coordinate functions a (|p|^2 + y^2) / 2 and a p_1,
    composed with the isometry (p, y) -> (p0 + y0 p, y0 y) that takes the
    origin (0, ..., 0, 1) to ``at`` (default: the origin), whose
    chart point is (p0, y0): a (y0^2 r^2 + 2 y0 p0 . p + |p0|^2) / 2 and
    a (y0 p_1 + p0_1) for r^2 = |p|^2 + y^2 = s / q and p = X_{1..n-1} / q
    (``_nulls``). Each is F = c + N . X / q, N = sigma (e_0 + e_n) + a middle
    part, so DF = (N - (F - c) Dq) / q and D^2F(u, w) = -(Dq . u DF . w +
    Dq . w DF . u) / q."""
    e = np.eye(space.ambient)
    Dq = e[-1] - e[0]
    at = e[-1] if at is None else np.asarray(at, dtype=float)
    q0 = space._nulls(at)[0]
    p0, y0 = np.concatenate([[0.0], at[1:-1] / q0, [0.0]]), 1.0 / q0

    def ratio(n, c):
        def G(x):  # (F - c, q)
            q, s = space._nulls(x)
            return (n[-1] * s + _dot(x[..., 1:-1], n[1:-1])) / q, q

        def DF(x):
            g, q = G(x)
            return (n - g[..., None] * Dq) / q[..., None]

        def D2F(x, u, w):
            df = DF(x)
            return -(_dot(u, Dq) * _dot(w, df)
                     + _dot(w, Dq) * _dot(u, df)) / G(x)[1]

        return lambda x: c + G(x)[0], DF, D2F

    return {"quadratic": ratio(0.5 * a * (y0 * y0 * (e[0] + e[-1]) + 2.0 * y0 * p0),
                               0.5 * a * (p0 @ p0)),
            "linear": ratio(a * y0 * e[1], a * p0[1])}


_PRESETS = {"euclidean": _euclidean_presets, "sphere": _sphere_presets,
            "hyperbolic": _hyperbolic_presets}


def _ambient_weight(space: ModelSpace, name: str, F, DF, D2F,
                    ray=None) -> WeightFunction:
    """The weight of an ambient function F, given with DF, D^2F and its ray
    form, if any: with P_X v = v - sec <X, v> X and G the ambient form,
    grad f = P_X(G DF) and Hess f(u, w) = D^2F(u, w) - sec <u, w> (X . DF);
    on R^n (sec = 0) they are DF and D^2F."""
    k = space.sec
    if k == 0.0:
        return WeightFunction(F, DF, D2F, name=name, ray=ray)

    def gr(x):
        df = DF(x)
        return df * space._form - (k * _dot(x, df))[..., None] * x

    def he(x, u, w):
        return D2F(x, u, w) - k * space.inner(x, u, w) * _dot(x, DF(x))

    return WeightFunction(F, gr, he, name=name, ray=ray)


_PRESET_RE = re.compile(r"^([a-z]+)(?:[:(]([-+0-9.eE]+)\)?)?$")


def weight_preset(space: ModelSpace, spec: str, at=None) -> WeightFunction:
    """Named weight presets: zero, constant(a), linear(a), quadratic(a),
    cosine(a) (sphere only); on H^n, ``at`` composes the preset with an
    isometry taking the origin (0, ..., 0, 1) to the point ``at``."""
    m = _PRESET_RE.match(spec.strip())
    if not m:
        raise ConfigError(f"cannot parse weight preset: {spec!r}")
    name, arg = m.group(1), float(m.group(2)) if m.group(2) else 1.0
    if name == "zero":
        return constant_weight(0.0)
    if name == "constant":
        return constant_weight(arg)
    if name == "quadratic" and isinstance(space, Sphere):
        # |x| = 1 on the sphere, so a |x|^2 / 2 is the constant a / 2
        weight = constant_weight(0.5 * arg)
        weight.name = f"quadratic({arg})"
        return weight
    presets = (_PRESETS[space.kind](space, arg) if at is None
               else _hyperbolic_presets(space, arg, at))
    if name not in presets:
        raise ConfigError(f"unknown weight preset on a {space.kind} space: {name}")
    return _ambient_weight(space, f"{name}({arg})", *presets[name])


def centred(space: ModelSpace, spec: str, x, v):
    """(weight, x, v) for the weight preset ``spec`` at x along the unit
    tangent v, moved on H^n by the isometry that takes x to the origin: the
    preset composed with it (``weight_preset``'s ``at``), the origin, and
    the tangent there with v's coordinates in ``frame(x)``, where a
    tangent's Minkowski products keep the digits they lose as X_n^2 at x.
    On R^n and S^n the preset, x and v as given."""
    if space.kind != "hyperbolic":
        return weight_preset(space, spec), x, v
    origin = np.eye(space.ambient)[-1]
    return (weight_preset(space, spec, at=x), origin,
            unit_tangents(space.frame(origin),
                          space.inner(x, space.frame(x), v)))


def ricci_fN_batch(space, weight, params, xs, frames) -> np.ndarray:
    """The matrix (..., k, k) of Ric_f^N at the points xs (..., ambient) in
    the frame rows ``frames`` (..., k, ambient) there: (n-1) sec I + Hess f
    - grad f grad f^T / (N-n), with no last term at N = +inf; N = n requires
    a constant weight. Hess f of every pair of rows is one broadcast call."""
    n, N = params.n, params.N
    if N == n and not weight.is_constant:
        raise ConfigError("N = n requires a constant weight function")
    q = (n - 1) * space.sec * np.eye(frames.shape[-2]) + np.asarray(
        weight.hess(xs[..., None, None, :], frames[..., :, None, :],
                    frames[..., None, :, :]), dtype=float)
    if not math.isinf(N) and N != n:
        grad = np.asarray(weight.grad(xs), dtype=float)
        g = space.inner(xs[..., None, :], grad[..., None, :], frames)
        q = q - g[..., :, None] * g[..., None, :] / (N - n)
    return q


def curvature_floor(params: DimensionParams, kappa: float, f) -> np.ndarray:
    """c^{-1} kappa e^{-2af}, the floor of Ric_f^N, at the weight values f;
    raises PreconditionError where e^{-2af} overflows, unless kappa = 0."""
    expo = -2.0 * params.a * np.asarray(f, dtype=float)
    expo = expo if kappa else np.minimum(expo, 0.0)  # 0 whatever e^{-2af} is
    require_exp_range(expo, "e^{-2a f} at a point of the curvature check")
    return params.inv_c * kappa * np.exp(expo)


def check_curvature_bound(space: ModelSpace, weight: WeightFunction,
                          params: DimensionParams, kappa: float, count: int,
                          seed: int, region, tol: float) -> CheckReport:
    """Sampled verification of Ric_f^N >= c^{-1} kappa e^{-4(1-eps)f/(n-1)} g
    in every direction at ``count`` sampled points x: the least eigenvalue
    of ``ricci_fN_batch`` in ``frame(x)`` less the ``curvature_floor``."""
    xs = space.sample_point(np.random.default_rng(seed), region, count)
    margins = (np.linalg.eigvalsh(ricci_fN_batch(space, weight, params, xs,
                                                 space.frame(xs)))[:, 0]
               - curvature_floor(params, kappa, weight.eval(xs)))
    return CheckReport(name="curvature_bound", margins=margins.tolist(),
                       tolerance=tol)
