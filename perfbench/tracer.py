"""Span tracer that wraps cdcheck's public functions from outside.

Each spanned name is patched in every loaded ``cdcheck`` module that binds
it, so ``s_kappa`` is counted whether it is reached through ``params``,
``jacobi``, ``suites``, ``taylor`` or ``coefficients``. Spans nest; a span's
self time is its duration minus the time covered by its child spans, and its
total time includes them (``refine_ray_margin`` spends its time in the
``integrate_jacobi_batch`` it calls through ``integrate_jacobi``). A name
that no longer exists (moved or deleted by a refactor) is reported as absent
and left alone. Patches are removed when the tracer is closed.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, qualified name) of every spanned function, grouped by layer
SPANS = (
    ("jacobi", "refine_ray_margin"), ("jacobi", "integrate_jacobi"),
    ("jacobi", "integrate_jacobi_batch"), ("jacobi", "sample_rays"),
    ("jacobi", "concavity_margins"),
    ("quadrature", "adaptive_simpson"), ("quadrature", "cumulative_simpson"),
    ("reparam", "reparam_partial"),
    ("taylor", "check_series"), ("taylor", "check_limit_bound"),
    ("taylor", "check_F_identity"), ("coefficients", "check_limits"),
    ("coefficients", "beta"), ("spaces", "check_curvature_bound"),
    ("spaces", "ricci_fN_batch"),
    ("params", "s_kappa"),
    ("ot", "monotone_1d_transport"),
    ("ot", "MonotoneInterpolation.pushforward_integral"),
    ("ot", "AxisGeometry.reparam_partial"), ("ot", "density_from_callable"),
    ("ot", "entropy_functional"), ("ot", "fisher_information"),
    ("ot", "w2_axis"),
    ("suites", "check_twcd"), ("suites", "check_brunn_minkowski"),
    ("suites", "check_interpolation"), ("suites", "check_hwi_lsi"),
    ("suites", "check_transport_energy"),
    ("cli", "load_config"), ("cli", "envelope_psi"), ("cli", "run_suite"),
    ("report", "report_hash"),
)

# counts taken at span boundaries, with their units
COUNTS = {
    "jacobi.refine_ray_margin.rescued_ratio": "ratio",
    "jacobi.integrate_jacobi_batch.ray_steps": "count",
    "jacobi.admissible_ratio": "ratio",
    "quadrature.adaptive_simpson.evals": "count",
}

# a refinement "rescues" a ray when it dismisses it or lifts its margin to
# at least minus the jacobian suite's default tolerance
RESCUE_TOL = 1e-8


def span_key(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Install with ``open()``; read per-pass numbers with ``snapshot()``."""

    def __init__(self):
        self.stats = {span_key(m, q): SpanStats() for m, q in SPANS}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [key, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        for s in self.stats.values():
            s.calls, s.self_s, s.total_s = 0, 0.0, 0.0
        self.refined = self.rescued = 0
        self.ray_steps = self.scanned = self.admissible = 0
        self.evals = 0

    # -- patching -------------------------------------------------------
    def open(self) -> "Tracer":
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "cdcheck"
                                      or name.startswith("cdcheck."))]
        for module, qualname in SPANS:
            key = span_key(module, qualname)
            owner = sys.modules.get(f"cdcheck.{module}")
            cls_name, _, attr = qualname.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            orig = None if owner is None else vars(owner).get(attr)
            if not callable(orig):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, orig)
            if cls_name:
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in mods:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, name, orig, wrapper)
        return self

    def _patch(self, owner, name, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, orig))

    def close(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc):
        self.close()

    # -- spans ----------------------------------------------------------
    def _wrap(self, key, orig):
        stats = self.stats[key]
        stack = self._stack
        before = {"quadrature.adaptive_simpson": self._count_evals}.get(key)
        after = {"jacobi.refine_ray_margin": self._after_refine,
                 "jacobi.integrate_jacobi_batch": self._after_batch}.get(key)
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [key, clock(), 0.0]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(result, parent)
            return result

        return wrapper

    def _count_evals(self, args, kwargs):
        def counted(fn):
            def integrand(x):
                self.evals += 1
                return fn(x)
            return integrand

        if args:
            args = (counted(args[0]),) + tuple(args[1:])
        elif "fn" in kwargs:
            kwargs = dict(kwargs, fn=counted(kwargs["fn"]))
        return args, kwargs

    def _after_refine(self, margin, parent) -> None:
        self.refined += 1
        if margin is None or margin >= -RESCUE_TOL:
            self.rescued += 1

    def _after_batch(self, out, parent) -> None:
        det = out.get("det") if isinstance(out, dict) else None
        if det is None or getattr(det, "ndim", 0) != 2:
            return
        rays, points = det.shape
        self.ray_steps += rays * (points - 1)
        # batches under integrate_jacobi re-run one ray; the ratio is over
        # rays drawn by the scan
        mask = out.get("admissible")
        if parent != "jacobi.integrate_jacobi" and mask is not None:
            self.scanned += rays
            self.admissible += int(mask.sum())

    # -- results --------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-layer numbers accumulated since the last ``reset()``."""
        out = {}
        for key, s in self.stats.items():
            out[f"{key}.calls"] = s.calls
            out[f"{key}.self_s"] = s.self_s
            out[f"{key}.total_s"] = s.total_s
        out["jacobi.refine_ray_margin.rescued_ratio"] = (
            self.rescued / self.refined if self.refined else 0.0)
        out["jacobi.integrate_jacobi_batch.ray_steps"] = self.ray_steps
        out["jacobi.admissible_ratio"] = (
            self.admissible / self.scanned if self.scanned else 0.0)
        out["quadrature.adaptive_simpson.evals"] = self.evals
        return out


def metric_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for module, qualname in SPANS:
        key = span_key(module, qualname)
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
        units[f"{key}.total_s"] = "s"
    units.update(COUNTS)
    return units
