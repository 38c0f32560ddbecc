"""Check reports: verdicts from margins."""

import math

from cdcheck import cli
from cdcheck.report import CheckReport


def test_nan_margin_fails():
    rep = CheckReport("x", [math.nan, 1.0], 0.0)
    assert math.isnan(rep.min_margin)
    assert rep.verdict == "fail"


class _Counted(list):
    """A margin list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_margins_are_read_once():
    # the payload copies the margins and reads min_margin twice and
    # verdict once: with one NaN scan and one min that is three passes
    # (seven when each read took the minimum again), and the signed zero
    # of the first minimum is kept
    rep = CheckReport("x", _Counted([0.5, 0.0, -0.0]), 0.0)
    payload = cli._report_payload(rep)
    assert rep.margins.passes == 3
    assert (payload["verdict"], math.copysign(1.0, payload["min_margin"])) == (
        "pass", 1.0)
