"""Paired benchmark of a parent revision against the work tree.

    python tests/bench_pairs.py PARENT_REV --pr N [--pairs 10] [--seconds 20]
                                [--seed 11] [--workloads W ...] [--claim W]

Puts `git archive` copies of PARENT_REV and of the work tree's tracked
files (the commit `git stash create` makes of them, or HEAD on a clean
tree) in fresh directories, and compiles the bytecode of each tree once
before any timing. Then, per workload and per pair, it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

on both trees at the pair's seed S (``--seed``, ``--seed`` + 1, ...), the
parent first at even pairs and the change first at odd ones. Each run's
``reference_loop_s`` median comes from its record; a pair whose two sides
read it more than ``HOST_RATIO`` apart is marked as two host states.

Per workload and end-to-end metric (``METRICS``) it reports the medians,
the parent's q1, q3 and IQR, the ratio of medians, the pairs where the
change is lower and those where it is higher, and one label by ``RULE``.
``setup_s`` is bimodal on shared hosts, so the runs of each side in its
slow mode (above ``SLOW_MODE`` times the workload's fastest run) are
counted too. With ``--claim W``, workload W runs a second round of pairs
on the held-out seeds ``--seed`` + ``HELD_OUT``, ..., and one
``--trace 1`` run per tree at seed ``--seed`` gives each span's calls and
self time (the ``trace`` key). Last, ``tests/answer_diff.py`` runs on the
two trees and its summary is kept. Everything goes to ``BENCH_<N>.json`` at the root of the work tree, under
the top-level keys of the earlier BENCH files; those this driver does
not measure are null.

At the defaults (four workloads, 10 pairs, 20 s) a run takes about three
minutes on a 2-core machine (a benchmark run of 20 s makes its passes in
about 2 s), the held-out round and the answer check included; nothing
else should run meanwhile. This is a script, not a test module: pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("scaled_cpu_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("ray-falsify", "ray-pass", "geodesic-series", "axis-transport")
HOST_RATIO = 1.25
SLOW_MODE = 1.2
HELD_OUT = 20  # the claimed workload's held-out seeds start at --seed + 20
AGREE = 0.9  # the share of pairs a label needs
RULE = ("lower (higher) when the change is lower (higher) than the parent"
        " in at least 9 of 10 pairs and its median lies below (above) the"
        " parent's median by more than the parent's IQR; unresolved"
        " otherwise")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _archive(rev: str, into: Path) -> None:
    """The tree of ``rev`` in ``into``, its bytecode compiled."""
    into.mkdir(parents=True)
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=data, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench", "tests"], cwd=into, check=True,
                   capture_output=True)


def _run(tree: Path, workload: str, seed: int, seconds: float):
    """One benchmark run on ``tree``: its metrics, verdict counts and
    reference loop, and the environment of its record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".perfbench_run" / "records"
                         / f"{workload}-s{seed}-t0.json").read_text())
    out = {name: result["metrics"][name]["value"] for name in METRICS}
    out.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"],
               reference_loop_s=record["reference_loop_s"]["median"])
    return out, record["environment"]


def trace_spans(trees: dict, workload: str, seed: int,
                seconds: float) -> dict:
    """Per span called on either tree: its calls in input set 0 and its
    median self time per traced pass, per tree, from one ``--trace 1`` run
    on each."""
    runs = {}
    for side, tree in trees.items():
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
            cwd=tree, check=True, capture_output=True, text=True)
        runs[side] = json.loads((tree / ".perfbench_run" / "records"
                                 / f"{workload}-s{seed}-t1.json").read_text())
    spans = {}
    for name in runs["parent"]["metrics"]:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            spans.setdefault(span, {})[kind] = {
                side: run["metrics"][name]["value"]
                for side, run in runs.items()}
    return {span: kinds for span, kinds in spans.items()
            if any(kinds["calls"].values())}


def _quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q[0], q[2]


def summarize(pairs: list[dict]) -> dict:
    """Per metric: medians, the parent's quartiles and IQR, the ratio of
    medians, the pairs where the change is lower and where it is higher,
    and the RULE's label."""
    n = len(pairs)
    agree = math.ceil(AGREE * n)
    out = {}
    for name in METRICS:
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        q1, q3 = _quartiles(par)
        m_par, m_chg = statistics.median(par), statistics.median(chg)
        lower = sum(c < p for p, c in zip(par, chg))
        higher = sum(c > p for p, c in zip(par, chg))
        label = "unresolved"
        if lower >= agree and m_par - m_chg > q3 - q1:
            label = "lower"
        elif higher >= agree and m_chg - m_par > q3 - q1:
            label = "higher"
        out[name] = {"parent_median": m_par, "change_median": m_chg,
                     "parent_q1": q1, "parent_q3": q3,
                     "parent_iqr": q3 - q1, "ratio_of_medians": m_chg / m_par,
                     "change_lower": f"{lower} of {n}",
                     "change_higher": f"{higher} of {n}", "label": label}
    fastest = min(min(p["parent"]["setup_s"], p["change"]["setup_s"])
                  for p in pairs)
    out["setup_s"]["slow_mode_runs"] = {
        side: sum(p[side]["setup_s"] > SLOW_MODE * fastest for p in pairs)
        for side in ("parent", "change")}
    return out


def run_round(trees: dict, workloads, first_seed: int, count: int,
              seconds: float) -> tuple[dict, dict]:
    """``count`` alternated pairs per workload at the seeds first_seed, ...:
    per workload the failed and attempted calls, the pairs, and their
    summary; and the environment of the last run's record."""
    rounds = {}
    for workload in workloads:
        pairs = []
        for i in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {"seed": first_seed + i, "first": order[0]}
            for side in order:
                pair[side], env = _run(trees[side], workload,
                                       first_seed + i, seconds)
            loops = [pair[side]["reference_loop_s"] for side in order]
            pair["host_states_differ"] = max(loops) / min(loops) > HOST_RATIO
            pairs.append(pair)
            print(f"{workload} seed {first_seed + i}: parent"
                  f" {pair['parent']['scaled_cpu_s']:.4f} s, change"
                  f" {pair['change']['scaled_cpu_s']:.4f} s", file=sys.stderr)
        rounds[workload] = {
            "seeds": f"{first_seed}-{first_seed + count - 1}",
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in trees},
            "attempted": {s: sum(p[s]["attempted"] for p in pairs)
                          for s in trees},
            "all_correct": all(p[s]["correct"] for p in pairs for s in trees),
            "pairs_in_two_host_states": sum(p["host_states_differ"]
                                            for p in pairs),
            "metrics": summarize(pairs), "pairs": pairs}
        print(workload, {name: (round(m["ratio_of_medians"], 4),
                                m["change_lower"], m["label"])
                         for name, m in rounds[workload]["metrics"].items()},
              file=sys.stderr)
    return rounds, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--description", default="")
    parser.add_argument("--claim", choices=WORKLOADS,
                        help="the workload whose scaled_cpu_s is claimed;"
                             " it runs again on held-out seeds")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    parent_commit = _git("rev-parse", args.parent_rev)
    change_rev = _git("stash", "create") or "HEAD"
    held_out = trace = None
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        _archive(parent_commit, trees["parent"])
        _archive(change_rev, trees["change"])
        rounds, env = run_round(trees, args.workloads, args.seed, args.pairs,
                                args.seconds)
        if args.claim:
            held_out, _ = run_round(trees, [args.claim],
                                    args.seed + HELD_OUT, args.pairs,
                                    args.seconds)
            trace = {"how": f"perfbench/run.py --workload {args.claim}"
                            f" --seed {args.seed} --seconds {args.seconds:g}"
                            " --trace 1, one run per tree",
                     "spans": trace_spans(trees, args.claim, args.seed,
                                          args.seconds)}
        diff = subprocess.run(
            [sys.executable, str(ROOT / "tests" / "answer_diff.py"),
             str(trees["parent"] / "src"), str(trees["change"] / "src")],
            cwd=tmp, capture_output=True, text=True)
    lines = diff.stdout.strip().splitlines()
    bench = {
        "description": args.description,
        "parent_commit": parent_commit,
        "command": ("python3 perfbench/run.py --workload <name> --seed <seed>"
                    f" --seconds {args.seconds:g} --trace 0"),
        "order": "pair i of a round runs the parent first at even i and the"
                 " change first at odd i, per workload; round_1 takes the"
                 " seeds --seed + i, held_out (the claimed workload) the"
                 f" seeds --seed + {HELD_OUT} + i",
        "trees": "git archive copies of the parent commit and of the work"
                 " tree's tracked files, each in a fresh directory, bytecode"
                 " compiled once before any timing",
        "environment": {
            **{k: env[k] for k in ("nproc", "python", "numpy", "scipy",
                                   "blas_threads")},
            "PYTHONDONTWRITEBYTECODE": os.environ.get(
                "PYTHONDONTWRITEBYTECODE")},
        "bound": "no end-to-end metric of any workload worse than its parent"
                 " median by more than 0.25 (ratio of medians at most 1.25)",
        "claim": {"workload": args.claim, "metric": "scaled_cpu_s",
                  "rule": RULE + "; in round_1 and in held_out"}
        if args.claim else None,
        "round_1": rounds,
        "held_out": held_out,
        "trace": trace,
        "answers": {"how": "python tests/answer_diff.py PARENT/src"
                           " CHANGE/src", "exit": diff.returncode,
                    "summary": lines[-1] if lines else diff.stderr.strip(),
                    "lines": lines[:-1][:50]},
        # measured by hand in earlier BENCH files, not by this driver
        **dict.fromkeys(("round_2", "envelope_evaluations",
                         "setup_probe", "importtime")),
        "wall_s": round(time.perf_counter() - start, 1),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name} in {bench['wall_s']:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
