"""Optimal transport and entropy functionals on quasi-1D configurations.

Absolutely continuous measures live on a geodesic axis, weighted by a
preset f of its model space: the x_1-axis of flat space with densities
in x_1 only (the optimal map moves only the first coordinate), or the
meridian of any model space, the distance r from its origin, with radial
densities under a radial weight (the optimal map between radial measures
is radial and monotone: McCann, GAFA 2001). Both carry the reference
measure m = base * e^{-f} / Z on an axis grid, and both reduce to the
monotone coupling of two densities, taken in the mass coordinate u in
]0, 1[ of their quantile functions: W2 and displacement interpolation
are integrals in u. Tables on a uniform grid (the antiderivative G of
e^{-a f} behind every d_t, the density m, the interpolation envelope) are
read by `UniformTable`, np.interp's floats in O(1) per point, under a
contract: finite values on a grid whose floats resolve its nodes, read at
finite points. Any other table or axis grid is a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError
from .params import DimensionParams, require_normal
from .quadrature import composite_simpson, cumulative_simpson
from .spaces import Euclidean, ModelSpace, WeightFunction, weight_preset

AXIS_POINTS = 4096  # axis grid points when the config gives none
RADIAL_HI = 2.0  # the meridian window [0, RADIAL_HI] on R^n and H^n


# ----------------------------------------------------------------------
# tables on uniform grids
# ----------------------------------------------------------------------
def _node_map(xs: np.ndarray) -> tuple[float, float]:
    """(scale, offset): x * scale + offset rounds down to the nearest node
    of x on the uniform grid ``xs``. A ConfigError unless the floats of xs
    resolve its nodes: they increase, and the estimate is right at every
    node and one ulp below it."""
    nodes = np.arange(xs.size)
    if np.all(xs[1:] > xs[:-1]):
        scale = (xs.size - 1) / (xs[-1] - xs[0])
        offset = 0.5 - xs[0] * scale
        if np.all(xs * scale + offset >= nodes) and np.all(
                np.nextafter(xs, -math.inf) * scale + offset < nodes + 1):
            return scale, offset
    raise ConfigError(f"axis grid of {xs.size} points on"
                      f" {xs[[0, -1]].tolist()} is finer than its floats")


class UniformTable:
    """``values`` at the nodes ``xs`` of a uniform grid (an np.linspace),
    read at points x as np.interp(x, xs, values, fill, fill) reads them,
    float for float, in O(1) per point. The contract, checked here: the
    values are finite and the floats of xs resolve its nodes
    (`_node_map`); any other table is a ConfigError that names its grid.
    Points read must be finite, and a -0.0 value can read as 0.0.
    ``grid``, if given, is the `_node_map` of xs, checked by the caller.

    A point's cell k is the node with xs[k] <= x < xs[k + 1]; k = n - 1
    holds every x >= xs[-1] (slope -0.0, so values[-1] to the last bit)
    and k = -1 every x < xs[0] (the left value, slope 0, in the last entry
    of the slope and value tables). The nearest node of x is k or k + 1:
    one comparison with it finds k. The value is slope (x - xs[k]) + v_k,
    np.interp's formula. A read is a `lookup` of the cells, then a `read`
    of the values at them; tables on one grid can share a lookup.
    """

    def __init__(self, xs: np.ndarray, values: np.ndarray, fill=None,
                 grid: tuple[float, float] | None = None):
        self.xs, self.fill = xs, fill
        self._scale, self._offset = grid or _node_map(xs)
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"a table on the axis grid of {xs.size} points"
                              f" on {xs[[0, -1]].tolist()} is not finite")
        self._values = np.append(values, values[0] if fill is None else fill)
        self.values = self._values[:-1]  # a view: the table holds one copy

    @cached_property
    def _slopes(self) -> np.ndarray:  # at the first read, if there is one
        slopes = np.diff(self.values) / np.diff(self.xs)  # as np.interp
        return np.concatenate([slopes, [-0.0, 0.0]])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.read(self.lookup(x.reshape(-1))).reshape(x.shape)[()]

    def lookup(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, x - xs[k]): the cell of each point of ``x`` and its offset
        in the cell, for `read` by any table on the grid xs."""
        xs = self.xs
        u = x * self._scale  # the nearest node, clipped to the grid
        u += self._offset
        np.fmax(u, 0.0, out=u)
        np.fmin(u, xs.size - 1.0, out=u)
        k = u.astype(np.intp)
        k -= xs.take(k) > x
        return k, np.subtract(x, xs.take(k), out=u)

    def read(self, cells: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The table at the points of the `lookup` ``cells``."""
        k, offset = cells
        # index -1 reads the last entry: the left cell's slope and value
        out = offset * self._slopes.take(k)
        out += self._values.take(k)
        if self.fill is not None:  # x > xs[-1]: past the node of cell n - 1
            np.copyto(out, self.fill,
                      where=(k == self.xs.size - 1) & (offset > 0.0))
        return out


# ----------------------------------------------------------------------
# quasi-1D geometries
# ----------------------------------------------------------------------
class AxisGeometry:
    """Shared machinery for 1D-reducible configurations.

    The axis is the unit-speed geodesic of the model space ``space`` from
    ``origin`` along e_1, with e_2 (unit in every model's ambient form)
    normal to it all along. It carries a uniform grid, the weight ``weight``
    of ``space`` at the grid points, a base volume factor, and the
    reference density m(x): integral rho * m dx = 1 is a density's mass.
    """

    def __init__(self, weight: WeightFunction, lo: float, hi: float,
                 points: int, base: Callable):
        if points < 16 or not (lo < hi and math.isfinite(hi - lo)):
            raise ConfigError(f"axis grid of {points} points on [{lo:g},"
                              f" {hi:g}]: needs 16 or more on lo < hi")
        self.xs = np.linspace(lo, hi, points)
        self._grid = _node_map(self.xs)  # before the mass, which it can zero
        self.dx = self.xs[1] - self.xs[0]
        self.weight = weight
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.f_vals = self.weight.eval(self.axis_frame()[0])
            raw = base(self.xs) * np.exp(-self.f_vals)
            mass = composite_simpson(raw, self.dx)
        if not 0.0 < mass < math.inf:  # a weight past the float range
            raise ConfigError(f"axis weight {weight.name} has reference"
                              f" mass {mass:g}")
        # m(x) between the grid points; the density m_density is its values
        self.m_table = UniformTable(self.xs, raw / mass, grid=self._grid)
        self.m_density = self.m_table.values
        self._g_cache: dict[float, UniformTable] = {}
        self.curvature_cache: dict = {}  # suites' curvature margins per hull

    def axis_frame(self):
        """(points, unit axis tangents, unit normals) of the grid in ``space``."""
        e1, e2 = np.eye(self.space.ambient)[:2]
        return (self.space.geodesic(self.origin, e1, self.xs),
                self.space.velocity(self.origin, e1, self.xs),
                np.broadcast_to(e2, (self.xs.size, e2.size)))

    @cached_property
    def m_cumulative(self) -> np.ndarray:  # m([lo, x]) at the grid points x
        return cumulative_simpson(self.m_density, self.dx)

    def _g_table(self, a: float) -> UniformTable:
        """Antiderivative G(x) = int_lo^x e^{-a f}; makes every d_t O(1)."""
        tab = self._g_cache.get(a)
        if tab is None:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                g = cumulative_simpson(np.exp(-a * self.f_vals), self.dx)
            require_normal(g, False)  # G(x) is the distance d_G(lo, x)
            tab = UniformTable(self.xs, g, grid=self._grid)
            self._g_cache[a] = tab
        return tab

    def reparam_partial(self, params: DimensionParams, x, y, t):
        """d_t(x, y) along the axis geodesic, vectorized."""
        return self.partial_distances(params, x, y)[1](t)

    def partial_distances(self, params: DimensionParams, x, y):
        """(d_f(x, y), d_t), with G looked up at x and at the end
        x + (y - x) once for every t: d_t(t) is d_t(x, y), and d_t(t, *tables)
        adds each table on the axis grid at z = x + t (y - x), one lookup."""
        a = params.a
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if a == 0.0:
            d_full = np.abs(y - x)
        else:
            g = self._g_table(a)
            g_x = g(x)
            end = x + (y - x)
            d_full = np.abs(g(end) - g_x)

        def d_t(t, *tables):
            z = x + t * (y - x)
            cells = self.m_table.lookup(z) if tables else None
            reads = [table.read(cells) for table in tables]
            if a == 0.0:
                d = np.abs(t * (y - x))
            else:
                d = np.abs((g.read(cells) if tables else g(z)) - g_x)
                # where z rounds to x or to the end, y - x is a rounding
                # residue on which G is linear: d_t = t d_f, not 0 or d_f
                rounded = (z == x) | (z == end)
                d = np.where(rounded, t * d_full, d) if rounded.any() else d
            return [d, *reads] if tables else d
        return d_full, d_t

    def integrate(self, values) -> float:
        return composite_simpson(np.asarray(values, dtype=float), self.dx)


class LineGeometry(AxisGeometry):
    """The x_1-axis of the flat plane, densities in x_1 only: a 1-d model
    of its own, under the weight preset ``f1`` of R^2, evaluated at the
    points (x, 0)."""

    space, origin = Euclidean(2), np.zeros(2)

    def __init__(self, f1: str, lo: float = -2.0, hi: float = 2.0,
                 points: int = AXIS_POINTS):
        super().__init__(weight_preset(self.space, f1), lo, hi, points,
                         np.ones_like)


class MeridianGeometry(AxisGeometry):
    """Radial densities on the unit model ``space`` of any dimension n.

    The axis is the distance r from the origin (0 on R^n, (0, ..., 0, 1)
    on S^n and H^n) along e_1: the colatitude r in [0, pi] on S^n, and
    r in [0, RADIAL_HI] on R^n and H^n. Its base factor s(r)^{n-1},
    s = sin, r or sinh, is the volume's marginal. ``weight``, the run's
    weight of ``space``, depends on r alone: a ConfigError unless it reads
    the same along the axis as along the geodesic from the origin in the
    normal e_2.
    """

    def __init__(self, space: ModelSpace, weight: WeightFunction,
                 points: int = AXIS_POINTS):
        e = np.eye(space.ambient)
        self.space, self.origin = space, e[-1] * abs(space.sec)  # 0 on R^n
        s = {"euclidean": lambda r: r, "sphere": np.sin,
             "hyperbolic": np.sinh}[space.kind]
        hi = math.pi if space.kind == "sphere" else RADIAL_HI
        super().__init__(weight, 0.0, hi, points,
                         lambda r: s(r) ** (space.dim - 1))
        with np.errstate(over="ignore", invalid="ignore"):
            normal = weight.eval(space.geodesic(self.origin, e[1], self.xs))
        if not np.array_equal(normal, self.f_vals):
            raise ConfigError(f"a meridian needs a radial weight:"
                              f" {weight.name} on the {space.kind} space"
                              f" depends on more than the distance from"
                              f" the origin")


@dataclass
class DensityField:
    """Grid density relative to the geometry's reference measure."""

    geometry: AxisGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.geometry.xs.shape:
            raise ConfigError("density grid does not match the geometry grid")
        if np.any(self.values < -1e-12):
            raise ConfigError("density must be nonnegative")
        self.values = np.clip(self.values, 0.0, None)

    def mass(self) -> float:
        return self.geometry.integrate(self.values * self.geometry.m_density)

    def check_mass(self) -> None:
        m = self.mass()
        if abs(m - 1.0) > 1e-7:
            raise ConfigError(f"density mass {m} is not 1 within 1e-07")


def density_from_callable(geometry: AxisGeometry, fn: Callable) -> DensityField:
    """fn on the geometry's grid (over- and underflow read as inf and 0),
    clipped at 0 and normalized; ConfigError without finite positive mass."""
    with np.errstate(over="ignore", under="ignore"):
        rho = DensityField(geometry, np.clip(
            np.asarray(fn(geometry.xs), dtype=float), 0.0, None))
        mass = rho.mass()
    if not 0.0 < mass < math.inf:
        raise ConfigError("density has no mass (or no finite mass) on the"
                          " axis grid")
    return DensityField(geometry, rho.values / mass)


# ----------------------------------------------------------------------
# monotone transport and displacement interpolation
# ----------------------------------------------------------------------
# the graded midpoint rule in the mass coordinate u: the midpoints s of
# _MASS_CELLS equal cells, mapped by u = s^p / (s^p + (1-s)^p), p = _GRADING,
# crowd toward u = 0 and 1, where j = 1/rho(Q) has integrable singularities
_MASS_CELLS, _GRADING = 2048, 3


def _mass_quantile(rho: DensityField, u: np.ndarray):
    """(Q(u), Q'(u)) for u in ]0, 1[: the exact inverse of the trapezoid CDF
    of the piecewise-linear mass density w = rho m, quadratic in each cell
    (stable root form), and Q' = 1/w(Q), both at total mass 1."""
    g = rho.geometry
    w = rho.values * g.m_density
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * g.dx)])
    target = u * cum[-1]
    # the cell [x_i, x_i+1] with cum_i < target <= cum_i+1 carries mass
    i = np.clip(np.searchsorted(cum, target, side="left"), 1, w.size - 1) - 1
    rest = target - cum[i]
    slope = (w[i + 1] - w[i]) / g.dx
    # w_i s + slope s^2 / 2 = rest
    s = 2.0 * rest / (w[i] + np.sqrt(w[i] ** 2 + 2.0 * slope * rest))
    return g.xs[i] + s, cum[-1] / (w[i] + slope * s)


class MonotoneInterpolation:
    """Displacement interpolation between two axis densities, in the mass
    coordinate u in ]0, 1[.

    With Q_i the quantile functions of rho_i m, mu_t is the law of
    Q_t = Q_0 + t (Q_1 - Q_0), the z of `AxisGeometry.partial_distances`,
    under u uniform. Its density relative to m at Q_t(u) is 1/j_t(u), with
    j_t = m(Q_t) ((1-t) Q_0' + t Q_1'), so every integral over mu_t is an
    integral in u on the graded midpoint grid (``u``, ``du``); nothing is
    re-sampled on the axis grid. ``j0`` and ``j1`` are j_t at t = 0 and 1.
    The pairs (Q_0(u), Q_1(u)) are the optimal coupling of rho_0 m with
    rho_1 m.
    """

    def __init__(self, rho0: DensityField, rho1: DensityField):
        if rho0.geometry is not rho1.geometry:
            raise ConfigError("densities must share one geometry")
        rho0.check_mass()
        rho1.check_mass()
        self.g = rho0.geometry
        s = (np.arange(_MASS_CELLS) + 0.5) / _MASS_CELLS
        a, b = s**_GRADING, (1.0 - s) ** _GRADING
        self.u = a / (a + b)
        self.du = (_GRADING * (s * (1.0 - s)) ** (_GRADING - 1)
                   / ((a + b) ** 2 * _MASS_CELLS))
        self.Q0, self.dQ0 = _mass_quantile(rho0, self.u)
        self.Q1, self.dQ1 = _mass_quantile(rho1, self.u)
        self.j0, self.j1 = self.jacobian([0.0, 1.0])

    def jacobian(self, ts, m_q=None) -> np.ndarray:
        """j_t(u) = 1 / rho_t(Q_t(u)), one row per t of ``ts``, from m(Q_t)
        read here or, as ``m_q``, by the caller."""
        t = np.asarray(ts, dtype=float)[:, None]
        if m_q is None:
            m_q = self.g.m_table(self.Q0 + t * (self.Q1 - self.Q0))
        return m_q * ((1.0 - t) * self.dQ0 + t * self.dQ1)

    def pushforward_integral(self, ts, integrand_of_rho) -> np.ndarray:
        """integral of integrand(rho_t) d m for each t of ``ts``: the sum of
        integrand(1/j_t) j_t du over u."""
        j = self.jacobian(ts)
        return (integrand_of_rho(1.0 / j) * j) @ self.du


def monotone_1d_transport(rho0: DensityField, rho1: DensityField) -> MonotoneInterpolation:
    return MonotoneInterpolation(rho0, rho1)


def w2_axis(coupling: MonotoneInterpolation) -> float:
    """W2 between the two axis densities of a monotone coupling: its cost,
    the integral of (Q_1 - Q_0)^2 over u on the graded grid."""
    return math.sqrt(((coupling.Q1 - coupling.Q0) ** 2) @ coupling.du)


# ----------------------------------------------------------------------
# entropies and Fisher information
# ----------------------------------------------------------------------
def renyi_pointwise(r: np.ndarray, params: DimensionParams) -> np.ndarray:
    """H(r) = c^{-1}(c+1) r (1 - r^{-c/(c+1)}) = ((c+1)/c)(r - r^{1/(c+1)})
    for r >= 0; H(0) = 0."""
    r = np.asarray(r, dtype=float)
    coef = (params.c + 1.0) / params.c
    return coef * (r - r ** (1.0 / (params.c + 1.0)))


def entropy_functional(rho: DensityField, params: DimensionParams) -> float:
    """Renyi-type entropy U_m(mu) = integral of H(rho) d m on the grid."""
    g = rho.geometry
    return g.integrate(renyi_pointwise(rho.values, params) * g.m_density)


def fisher_information(rho: DensityField, params: DimensionParams) -> float:
    """I_m(mu) = integral of |grad rho^{1/(c+1)}|^2 / rho d m.

    Central differences on the grid; vanishing-density points contribute
    0 when the root's gradient also vanishes there, +inf otherwise.
    """
    g = rho.geometry
    p = 1.0 / (params.c + 1.0)
    root = rho.values ** p
    grad = np.gradient(root, g.dx)
    tiny = rho.values < 1e-12
    if np.any(tiny & (np.abs(grad) >= 1e-12)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(tiny, 0.0, grad**2 / np.where(tiny, 1.0, rho.values))
    return g.integrate(integrand * g.m_density)
