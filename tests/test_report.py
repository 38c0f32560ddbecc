"""Check reports: verdicts from margins."""

import math

from cdcheck.report import CheckReport


def test_nan_margin_fails():
    rep = CheckReport("x", [math.nan, 1.0], 0.0)
    assert math.isnan(rep.min_margin)
    assert rep.verdict == "fail"
