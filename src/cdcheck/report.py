"""Check reports: the uniform result record produced by every inequality suite."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckReport:
    """Outcome of one named inequality check.

    Margins are signed so that pass means every margin >= -tolerance.
    ``vacuous`` marks suites whose preconditions were unmet (their
    conclusion was never asserted).
    """

    name: str
    margins: list[float]
    tolerance: float
    vacuous: bool = False
    provenance: dict[str, Any] = field(default_factory=dict)

    @functools.cached_property
    def min_margin(self) -> float:
        """Smallest margin, taken once (a report's margins do not change);
        NaN when there is none or any margin is NaN."""
        if not self.margins or any(math.isnan(m) for m in self.margins):
            return math.nan
        return min(self.margins)

    @property
    def verdict(self) -> str:
        if self.vacuous:
            return "vacuous"
        return "pass" if self.min_margin >= -self.tolerance else "fail"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON serialization (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def report_hash(body: str) -> str:
    """SHA-256 of ``{body}``: a report file's own bytes without its
    ``hash`` and ``timestamp`` members (``body``, the members between)."""
    return hashlib.sha256(f"{{{body}}}".encode()).hexdigest()
