"""Optimal transport and entropy functionals on quasi-1D configurations.

Absolutely continuous measures live on a geodesic axis, weighted by a
preset f of its model space: the x_1-axis of flat space with densities
in x_1 only (the optimal map moves only the first coordinate), or a
meridian of the unit 2-sphere with rotationally symmetric densities.
Both reduce to monotone CDF matching on an axis grid with reference
measure m = base * e^{-f} / Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .params import DimensionParams
from .quadrature import composite_simpson, cumulative_simpson, neville_extrapolate
from .spaces import Euclidean, Sphere, weight_preset


# ----------------------------------------------------------------------
# quasi-1D geometries
# ----------------------------------------------------------------------
class AxisGeometry:
    """Shared machinery for 1D-reducible configurations.

    The axis is the unit-speed geodesic of the model space ``space`` from
    ``origin`` along e_1, with e_2 normal to it all along. It carries a
    uniform grid, the weight preset ``f1`` of ``space`` at the grid
    points, a base volume factor, and the reference density m(x), which
    makes integral rho * m dx = 1 the mass condition of a density rho.
    """

    def __init__(self, f1: str, lo: float, hi: float, points: int,
                 base: Callable):
        if points < 16:
            raise ConfigError("axis grid needs at least 16 points")
        self.xs = np.linspace(lo, hi, points)
        self.dx = self.xs[1] - self.xs[0]
        self.weight = weight_preset(self.space, f1)
        self.f_vals = self.weight.eval(self.axis_frame()[0])
        raw = base(self.xs) * np.exp(-self.f_vals)
        self.m_density = raw / composite_simpson(raw, self.dx)
        self._g_cache: dict[float, np.ndarray] = {}

    def axis_frame(self):
        """(points, unit axis tangents, unit normals) of the grid in ``space``."""
        e1, e2 = np.eye(self.space.ambient)[:2]
        return (self.space.geodesic(self.origin, e1, self.xs),
                self.space.velocity(self.origin, e1, self.xs),
                np.broadcast_to(e2, (self.xs.size, e2.size)))

    def _g_table(self, a: float) -> np.ndarray:
        """Antiderivative G(x) = int_lo^x e^{-a f}; makes every d_t O(1)."""
        tab = self._g_cache.get(a)
        if tab is None:
            tab = cumulative_simpson(np.exp(-a * self.f_vals), self.dx)
            self._g_cache[a] = tab
        return tab

    def reparam_partial(self, params: DimensionParams, x, y, t):
        """d_t(x, y) along the axis geodesic, vectorized."""
        a = params.a
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if a == 0.0:
            return np.abs(t * (y - x))
        g = self._g_table(a)
        mid = x + t * (y - x)
        return np.abs(np.interp(mid, self.xs, g) - np.interp(x, self.xs, g))

    def integrate(self, values) -> float:
        return composite_simpson(np.asarray(values, dtype=float), self.dx)


class LineGeometry(AxisGeometry):
    """The x_1-axis of the flat plane, densities in x_1 only; ``f1`` is a
    weight preset of R^2, evaluated at the points (x, 0)."""

    space, origin = Euclidean(2), np.zeros(2)

    def __init__(self, f1: str, lo: float = -2.0, hi: float = 2.0,
                 points: int = 4096):
        super().__init__(f1, lo, hi, points, np.ones_like)


class MeridianGeometry(AxisGeometry):
    """Rotationally symmetric densities on the unit 2-sphere.

    The axis is the colatitude theta in [0, pi], at the points
    (sin theta, 0, cos theta), weighted by a preset ``f1`` of the unit
    sphere; the base factor sin(theta) is the surface-measure marginal.
    """

    space, origin = Sphere(2), np.array([0.0, 0.0, 1.0])

    def __init__(self, f1: str = "zero", points: int = 4096):
        super().__init__(f1, 0.0, math.pi, points, np.sin)


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

    def normalized(self) -> "DensityField":
        return DensityField(self.geometry, self.values / self.mass())

    def check_mass(self, tol: float = 1e-8) -> None:
        m = self.mass()
        if abs(m - 1.0) > tol:
            raise ConfigError(f"density mass {m} is not 1 within {tol}")

    def sup(self) -> float:
        return float(self.values.max())


def density_from_callable(geometry: AxisGeometry, fn: Callable) -> DensityField:
    """fn sampled on the geometry's grid, clipped at 0 and normalized."""
    vals = np.clip(np.asarray(fn(geometry.xs), dtype=float), 0.0, None)
    return DensityField(geometry, vals).normalized()


# ----------------------------------------------------------------------
# monotone transport and displacement interpolation
# ----------------------------------------------------------------------
def _cdf(rho: DensityField) -> np.ndarray:
    g = rho.geometry
    cdf = cumulative_simpson(rho.values * g.m_density, g.dx)
    cdf = np.maximum.accumulate(cdf / cdf[-1])
    return np.clip(cdf, 0.0, 1.0)


def _quantile(cdf: np.ndarray, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Generalized inverse inf{x : cdf(x) >= u}, flat stretches included."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    idx = np.clip(np.searchsorted(cdf, u, side="left"), 1, cdf.size - 1)
    p0 = cdf[idx - 1]
    p1 = cdf[idx]
    gap = p1 - p0
    frac = np.where(gap > 0, (u - p0) / np.where(gap > 0, gap, 1.0), 1.0)
    out = xs[idx - 1] + np.clip(frac, 0.0, 1.0) * (xs[idx] - xs[idx - 1])
    # u = 0 sits in the flat head of the CDF; use the left support edge
    zero = u <= 0.0
    if np.any(zero):
        i0 = max(int(np.searchsorted(cdf, 0.0, side="right")) - 1, 0)
        out = np.where(zero, xs[i0], out)
    return out


class MonotoneInterpolation:
    """Displacement interpolation between two axis densities.

    Carries the monotone map T (sampled on the grid), its derivative
    from the Monge-Ampere identity, and produces the intermediate
    density both in pushforward coordinates (x-space, exact for
    integration by substitution) and re-sampled on the standard grid.
    """

    def __init__(self, rho0: DensityField, rho1: DensityField):
        if rho0.geometry is not rho1.geometry:
            raise ConfigError("densities must share one geometry")
        rho0.check_mass(1e-7)
        rho1.check_mass(1e-7)
        self.g = rho0.geometry
        self.rho0 = rho0
        self.rho1 = rho1
        xs = self.g.xs
        cdf0 = _cdf(rho0)
        cdf1 = _cdf(rho1)
        self.T = _quantile(cdf1, xs, cdf0)
        # Monge-Ampere: T'(x) = rho0(x) m(x) / (rho1(T(x)) m(T(x)))
        num = rho0.values * self.g.m_density
        den = (np.interp(self.T, xs, rho1.values)
               * np.interp(self.T, xs, self.g.m_density))
        with np.errstate(divide="ignore", invalid="ignore"):
            tp = np.where(num > 0, num / den, 1.0)
        self.Tprime = np.where(np.isfinite(tp), tp, 1.0)

    def map_at(self, t: float) -> np.ndarray:
        return (1.0 - t) * self.g.xs + t * self.T

    def map_deriv(self, t: float) -> np.ndarray:
        return (1.0 - t) + t * self.Tprime

    def density_along(self, t: float) -> np.ndarray:
        """rho_t evaluated at F_t(x), indexed by the source grid x."""
        if t == 0.0:
            return self.rho0.values.copy()
        if t == 1.0:
            return np.interp(self.T, self.g.xs, self.rho1.values)
        ft = self.map_at(t)
        m_ft = np.interp(ft, self.g.xs, self.g.m_density)
        num = self.rho0.values * self.g.m_density
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = num / (m_ft * self.map_deriv(t))
        return np.where(num > 0, rho, 0.0)

    def density_at(self, t: float) -> DensityField:
        """rho_t re-sampled on the standard grid (for entropy by grid quadrature)."""
        if t == 0.0:
            return self.rho0
        if t == 1.0:
            return self.rho1
        ft = self.map_at(t)
        vals_along = self.density_along(t)
        on_grid = np.interp(self.g.xs, ft, vals_along, left=0.0, right=0.0)
        return DensityField(self.g, on_grid)

    def pushforward_integral(self, t: float, integrand_of_rho) -> float:
        """integral of integrand(rho_t) d m by substitution y = F_t(x).

        Avoids any re-sampling error: the weight m(F_t) F_t' dx is exact
        up to quadrature on the source grid.
        """
        ft = self.map_at(t)
        m_ft = np.interp(ft, self.g.xs, self.g.m_density)
        jac = self.map_deriv(t)
        rho = self.density_along(t)
        support = self.rho0.values * self.g.m_density > 0
        vals = np.where(support, integrand_of_rho(rho) * m_ft * jac, 0.0)
        return self.g.integrate(vals)


def monotone_1d_transport(rho0: DensityField, rho1: DensityField) -> MonotoneInterpolation:
    return MonotoneInterpolation(rho0, rho1)


def w2_axis(rho0: DensityField, rho1: DensityField) -> float:
    """W2 between axis densities by equal-mass quantization.

    Each measure is reduced to m quantile points, matched monotonically
    (optimal in 1D); the midpoint-rule costs are Richardson-extrapolated
    in 1/m^2 over m = 128, 256, 512.
    """
    xs = rho0.geometry.xs
    cdf0 = _cdf(rho0)
    cdf1 = _cdf(rho1)
    costs, hs = [], []
    for m in (128, 256, 512):
        u = (np.arange(m) + 0.5) / m
        q0 = _quantile(cdf0, xs, u)
        q1 = _quantile(cdf1, xs, u)
        costs.append(float(np.mean((q0 - q1) ** 2)))
        hs.append(1.0 / m**2)
    cost = neville_extrapolate(hs, costs, at=0.0)
    return math.sqrt(max(cost, 0.0))


# ----------------------------------------------------------------------
# entropies and Fisher information
# ----------------------------------------------------------------------
def renyi_pointwise(r: np.ndarray, params: DimensionParams) -> np.ndarray:
    """H(r) = c^{-1}(c+1) r (1 - r^{-c/(c+1)}) = ((c+1)/c)(r - r^{1/(c+1)})."""
    r = np.asarray(r, dtype=float)
    coef = (params.c + 1.0) / params.c
    out = np.zeros_like(r)
    pos = r > 0
    out[pos] = coef * (r[pos] - r[pos] ** (1.0 / (params.c + 1.0)))
    return out


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
