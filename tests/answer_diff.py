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
number of such calls and the largest |change of min_margin| among them,
then the number of calls that moved only in report layout or hash, and
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


def margin_moves(parent: dict, change: dict) -> list[str]:
    """One line per report name: the number of calls whose report hash
    moved and the largest |change of min_margin| over them, reports paired
    by position; inf where one side's min_margin is n/a (a NaN margin) and
    the other's not."""
    moved, largest = {}, {}
    for key in sorted(set(parent) & set(change)):
        want, got = parent[key], change[key]
        if want["hash"] == got["hash"]:
            continue
        for (name, old), (new_name, new) in zip(want["min_margins"] or [],
                                                got["min_margins"] or []):
            if name != new_name:
                continue
            move = (0.0 if old == new else math.inf if None in (old, new)
                    else abs(new - old))
            moved[name] = moved.get(name, 0) + 1
            if move > largest.get(name, (-1.0,))[0]:
                largest[name] = (move, key)
    return [f"{name}: hash moved in {moved[name]} calls, largest |change of"
            f" min_margin| {move!r} ({key})"
            for name, (move, key) in sorted(largest.items())]


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
