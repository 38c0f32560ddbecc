"""Answer identity of two source trees on the benchmark's calls.

    python tests/answer_diff.py PARENT_SRC CHANGE_SRC

Runs every ``cdcheck run`` call of input sets 0-6 at seeds 11-20 (``SETS``,
``SEEDS``) of the four workloads of ``perfbench/workloads.py`` (imported
read-only, never changed) on each tree, in one process per tree with
warnings as errors, and compares the calls one by one: exit code, stderr,
the verdict of every report, the answers inside the report (each report's
name, verdict, tolerance and margins list, by position and bit for bit),
the report hash and the bytes of every file the call writes (the report
without its timestamp). Prints each difference but a moved report file or
hash, then, for every report name in a call whose report hash moved, the
number of such calls, the largest |change of min_margin| among them and the
largest |change| of any one margin, margins paired by position, then the
number of calls that moved only in report layout or hash, and
exits 1 if there is any difference, 0 otherwise.

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the report's last field, the only one that differs between two runs
_TIMESTAMP = re.compile(rb',"timestamp":[^,}]*}$')
SEEDS, SETS = range(11, 21), range(7)
# what a report answers, compared bit for bit whatever its layout
_ANSWER = ("name", "verdict", "tolerance", "margins")


def _outcome(cli, cfg: dict, work: Path) -> dict:
    """Exit code, stderr, verdicts, report hash and artifact digests of one
    call run in this process."""
    cfg_path, out_dir = work / "config.json", work / "out"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    out_dir.mkdir()
    err = io.StringIO()
    with (contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        code = cli.main(["run", "--config", str(cfg_path), "--out-dir",
                         str(out_dir), "--quiet"])
    outcome = {"exit": code, "stderr": err.getvalue(), "verdicts": None,
               "answers": None, "hash": None, "min_margins": None,
               "artifacts": {}}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_report.json"):
            report = json.loads(data)
            outcome["hash"] = report["hash"]
            outcome["verdicts"] = [r["verdict"] for r in report["reports"]]
            outcome["answers"] = [[r[k] for k in _ANSWER]
                                  for r in report["reports"]]
            outcome["min_margins"] = [[r["name"], r["min_margin"]]
                                      for r in report["reports"]]
            data = _TIMESTAMP.sub(b"}", data)
        outcome["artifacts"][path.name] = hashlib.sha256(data).hexdigest()
        path.unlink()
    out_dir.rmdir()
    return outcome


def collect(src: str, out: str) -> None:
    """Run every call on the tree ``src`` and write the outcomes to ``out``
    as JSON, keyed workload/seed/set/call."""
    import warnings

    warnings.simplefilter("error")
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    import cdcheck.cli
    import workloads

    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.NAMES:
            for seed in SEEDS:
                for index in SETS:
                    for call in workloads.build(name, seed, index):
                        key = f"{name}/{seed}/{index}/{call.name}"
                        work = Path(tmp) / str(len(outcomes))
                        work.mkdir()
                        outcomes[key] = _outcome(cdcheck.cli, call.config, work)
    Path(out).write_text(json.dumps(outcomes, indent=1, sort_keys=True))


def differences(parent: dict, change: dict) -> tuple[list[str], int]:
    """One line per call and field on which the two trees differ, but for
    a moved report file or hash, and the number of calls that differ only
    in those two: in report layout or hash."""
    lines = [f"{key}: only in {'parent' if key in parent else 'change'}"
             for key in sorted(set(parent) ^ set(change))]
    layout = 0
    for key in sorted(set(parent) & set(change)):
        want, got = parent[key], change[key]
        moved = [f"{key}: {field} {want[field]!r} -> {got[field]!r}"
                 for field in ("exit", "stderr", "verdicts", "answers")
                 if got[field] != want[field]]
        files = set(want["artifacts"]) | set(got["artifacts"])
        # the report file holds its hash, so a moved hash moves its bytes
        differ = [name for name in sorted(files)
                  if want["artifacts"].get(name) != got["artifacts"].get(name)]
        moved += [f"{key}: {name} differs" for name in differ
                  if not name.endswith("_report.json")]
        layout += bool(differ) and not moved
        lines += moved
    return lines, layout


def _move(old, new) -> float:
    """|new - old|: 0.0 if equal (NaN and NaN too), inf where one side is
    n/a or NaN and the other not."""
    if old == new or old != old and new != new:
        return 0.0
    if None in (old, new) or old != old or new != new:
        return math.inf
    return abs(new - old)


def margin_moves(parent: dict, change: dict) -> list[str]:
    """One line per report name: the number of calls whose report hash
    moved, the largest |change of min_margin| over them and the largest
    |change| of one margin, margins paired by position (inf where the
    lists differ in length), reports paired by position (a call with
    several reports of one name counts once). A NaN margin
    makes its min_margin n/a: inf where one side's is and the other's not.
    The margin move keeps last-bit drift apart from a margin that moves as
    a whole."""
    moved, largest = {}, {}
    for key in sorted(set(parent) & set(change)):
        want, got = parent[key], change[key]
        if want["hash"] == got["hash"]:
            continue
        for (name, old), (new_name, new), (*_, olds), (*_, news) in zip(
                want["min_margins"] or [], got["min_margins"] or [],
                want["answers"] or [], got["answers"] or []):
            if name != new_name:
                continue
            moves = [_move(old, new), max(map(_move, olds, news), default=0.0)
                     if len(olds) == len(news) else math.inf]
            moved.setdefault(name, set()).add(key)
            best = largest.setdefault(name, [(-1.0, ""), (-1.0, "")])
            for i, move in enumerate(moves):
                if move > best[i][0]:
                    best[i] = (move, key)
    return [f"{name}: hash moved in {len(moved[name])} calls, largest"
            f" |change of min_margin| {mm!r} ({mkey}), of a margin {am!r}"
            f" ({akey})"
            for name, [(mm, mkey), (am, akey)] in sorted(largest.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--collect", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:  # a child process: the tree is the first path
        collect(args.parent_src, args.collect)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        outs = [str(Path(tmp) / f"{tree}.json") for tree in ("parent", "change")]
        children = [subprocess.Popen(
            [sys.executable, __file__, src, src, "--collect", out])
            for src, out in zip((args.parent_src, args.change_src), outs)]
        if any([child.wait() for child in children]):
            print("a tree's run failed", file=sys.stderr)
            return 2
        parent, change = (json.loads(Path(out).read_text()) for out in outs)
    lines, layout = differences(parent, change)
    print("\n".join(lines + margin_moves(parent, change)))
    codes = [o["exit"] for o in parent.values()]
    print(f"{len(parent)} calls ({codes.count(0)} exit 0, {codes.count(1)}"
          f" exit 1, {len(codes) - codes.count(0) - codes.count(1)} other);"
          f" {len(lines)} differences; {layout} calls moved only in report"
          f" layout or hash")
    return 1 if lines or layout else 0


if __name__ == "__main__":
    sys.exit(main())
