"""Benchmark for cdcheck: time to verdict, set-up time and memory per workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload ray-pass --seed 1 --seconds 5 --trace 0

The workload's ``cdcheck run`` calls (see ``workloads.py``) are generated
from ``--seed`` and written as config files, one input set for every
pass. One process runs them in a closed loop through ``cdcheck.cli.main``:
a warm-up pass over input set 0, then timed passes over sets 0, 1, 2, ...
How many passes a run makes follows from the workload and ``--seconds``
alone (``workloads.PASS_SECONDS``), never from how fast the passes go, so a
seed always judges the same calls and reports the same failures. The
oracle (``oracle.py``) judges every call against the outcome the
mathematics requires, and the second pass over set 0 must reproduce the
report hashes of the first.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median CPU time
to import ``cdcheck.cli`` and validate the configs in a fresh interpreter),
``scaled_cpu_s`` (median CPU time of one pass, scaled to one host speed
with ``reference_loop``; the process is single-threaded, so on an idle
machine this is its time to all verdicts) and ``peak_rss_mb`` (peak
resident memory once input set 0 has run twice). Times are CPU times
because on a shared host the wall time of identical passes drifts by tens
of percent, and a pass's CPU time is scaled because the CPU time of the
same pass moves with the host by up to 1.8 times; the unscaled CPU times,
the reference-loop times and the wall times are kept in the record.
``--trace 1`` prints
per-layer metrics from traced passes (``tracer.py``). The last line
of standard output is one JSON object; a record of every call, with its
inputs, verdicts, margins and the environment, is written to
``.perfbench_run/records/``.
"""

from __future__ import annotations

import os

# one process, no thread pools of its own: pin BLAS before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

SETUP_REPEATS = 3  # counted fresh interpreters, after one that is discarded
MIN_PASSES = 3
PASS_SHARE = 0.8  # of --seconds planned for timed passes; the rest is set-up
DEADLINE_S = 120.0  # passes stop here even if the host is slow
CHILD_TIMEOUT = 120
# CPU seconds of reference_loop on the 2-core VM of the baseline, in its
# usual state; scaled_cpu_s is a pass's CPU time at that speed
REF_LOOP_S = 0.012

_SETUP_SNIPPET = """\
import contextlib, io, json, sys, time
t0, c0 = time.perf_counter(), time.process_time()
import cdcheck.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cdcheck.cli.main(["validate", "--config", p])
             for p in sys.argv[1:]]
print(json.dumps({"cpu": time.process_time() - c0,
                  "wall": time.perf_counter() - t0, "codes": codes}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned env."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return os.environ["OPENBLAS_NUM_THREADS"]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(), "git_commit": _git_commit(),
            "platform": platform.platform()}


# ----------------------------------------------------------------------
# set-up, measured in fresh interpreters
# ----------------------------------------------------------------------
def measure_setup(cfg_paths: list[Path]) -> list[tuple[float, float]]:
    """(CPU, wall) seconds to import cdcheck.cli and validate the configs."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, *map(str, cfg_paths)],
            env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(code != 0 for code in res["codes"]):
            raise RuntimeError(f"config validation failed: {res['codes']}")
        if i:  # the first interpreter writes the bytecode caches
            samples.append((res["cpu"], res["wall"]))
    return samples


def scipy_optimize_import_s() -> float:
    """Cumulative import time of scipy.optimize in ``import cdcheck.cli``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cdcheck.cli"],
        env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT, check=True)
    micros = [int(line.split("|")[1]) for line in proc.stderr.splitlines()
              if line.startswith("import time:")
              and line.split("|")[-1].strip() == "scipy.optimize"]
    return max(micros, default=0) / 1e6


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def reference_loop() -> float:
    """CPU seconds of a fixed piece of work in the program's own mix: an
    interpreted loop of small numpy operations, then whole-array ones.

    A shared host runs this process up to 1.8 times faster or slower for
    seconds to minutes at a time, and every call moves with it. The loop is
    run around each call, so a pass's CPU time can be scaled to one speed.
    """
    start = time.process_time()
    grid = np.linspace(0.0, 1.0, 3000).reshape(1000, 3)
    y = np.zeros(3)
    for i in range(2000):
        y = y + 0.001 * (grid[i % 1000] - y)
    for _ in range(60):
        y = y + (np.sin(grid) @ np.eye(3)).sum(axis=0)
    return time.process_time() - start


class Runner:
    """Runs a workload's calls in one process and judges every outcome.

    Pass ``index`` runs input set ``index`` of the workload; running a set
    twice must reproduce its report hashes. Warm-up passes repeat a set that
    a timed pass also runs: they are judged, but only the timed passes count
    towards ``attempted`` and ``failed``.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        import cdcheck.cli

        self.cli = cdcheck.cli
        self.name, self.seed = name, seed
        self.workdir = workdir
        self.hashes: dict[tuple[int, str], str | None] = {}
        self.outcomes: list[tuple[int, oracle.Outcome]] = []
        self.warmups: list[tuple[int, oracle.Outcome]] = []
        self.set0_rss_mb = 0.0

    def write_configs(self, index: int) -> tuple[list, list[Path]]:
        calls = workloads.build(self.name, self.seed, index)
        cfg_dir = self.workdir / f"cfg{index}"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for call in calls:
            path = cfg_dir / f"{call.name}.json"
            path.write_text(json.dumps(call.config, indent=1))
            paths.append(path)
        return calls, paths

    def run_call(self, call, cfg_path) -> oracle.Outcome:
        out_dir = self.workdir / "out" / call.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = ["run", "--config", str(cfg_path), "--out-dir", str(out_dir),
                "--quiet"]
        code, error = None, ""
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception:  # a raising call is a failed call, not a crash
            error = traceback.format_exc().strip().splitlines()[-1]
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        out = oracle.judge(call, code, seconds, error, out_dir)
        out.cpu_seconds = cpu
        return out

    def run_pass(self, index: int, warmup: bool = False
                 ) -> tuple[float, float, int, float]:
        """One pass over input set ``index``: wall and CPU seconds of its
        calls, the bytes they wrote, and the median CPU seconds of
        ``reference_loop`` run before the first call and after each."""
        wall = cpu = 0.0
        written = 0
        loops = [reference_loop()]
        for call, cfg in zip(*self.write_configs(index)):
            out = self.run_call(call, cfg)
            loops.append(reference_loop())
            ref = self.hashes.setdefault((index, call.name), out.hash)
            if out.hash != ref:
                out.failures.append("report hash differs from an earlier pass")
                out.defect = ""
            wall += out.seconds
            cpu += out.cpu_seconds
            written += out.artifact_bytes
            (self.warmups if warmup else self.outcomes).append((index, out))
        return wall, cpu, written, statistics.median(loops)

    def timed_passes(self, count: int, deadline: float):
        """Passes over sets 0 .. ``count`` - 1; returns their wall and CPU
        seconds and their reference-loop medians. Only a host too slow to
        finish by ``deadline`` (a ``time.perf_counter`` value) cuts the run
        short."""
        walls, cpus, loops = [], [], []
        while len(walls) < count and time.perf_counter() < deadline:
            wall, cpu, _, loop = self.run_pass(len(walls))
            walls.append(wall)
            cpus.append(cpu)
            loops.append(loop)
            if len(walls) == 1:
                self.set0_rss_mb = _peak_rss_mb()
        return walls, cpus, loops

    @property
    def failed(self) -> list[tuple[int, oracle.Outcome]]:
        return [(i, o) for i, o in self.outcomes if not o.ok]

    @property
    def correct(self) -> bool:
        return all(o.ok or o.defect
                   for _, o in self.warmups + self.outcomes)


def pass_count(name: str, seconds: float) -> int:
    """Timed passes of a run, fixed by the workload and ``--seconds``: at
    least ``MIN_PASSES``, and the nearest whole number of rounds of the
    workload's input cycle once that is at least one."""
    per_pass = workloads.PASS_SECONDS[name]
    count = max(MIN_PASSES, int(PASS_SHARE * seconds / per_pass))
    period = workloads.CYCLES.get(name, 1)
    rounds = round(count / period)
    return rounds * period if rounds else count


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stats(values: list[float]) -> dict:
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "samples": values}


def _tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond."""
    out = {"median": statistics.median(values), "n": len(values)}
    pct = int(100 * (1 - 10 / len(values)))
    if pct >= 50:
        ranked = sorted(values)
        out[f"p{pct}"] = ranked[math.ceil(pct / 100 * len(ranked)) - 1]
    return out


def end_to_end(runner: Runner, seconds: float, record: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setup = measure_setup(runner.write_configs(0)[1])
    runner.run_pass(0, warmup=True)  # caches filled, set 0 hashes recorded
    planned = pass_count(runner.name, seconds)
    walls, cpus, loops = runner.timed_passes(planned, deadline)
    scaled = [cpu * REF_LOOP_S / loop for cpu, loop in zip(cpus, loops)]
    record["passes"] = {"planned": planned, "run": len(walls)}
    record["setup_s"] = _stats([cpu for cpu, _ in setup])
    record["setup_wall_s"] = _stats([wall for _, wall in setup])
    record["cpu_s"] = _stats(cpus)
    record["reference_loop_s"] = _stats(loops)
    record["scaled_cpu_s"] = _stats(scaled)
    record["wall_s"] = _stats(walls)
    record["call_latency_s"] = _tail([o.seconds for _, o in runner.outcomes])
    rays = sum(c.rays for c in workloads.build(runner.name, runner.seed))
    if rays:
        record["rays_per_s"] = rays / statistics.median(walls)
    record["peak_rss_mb_whole_run"] = _peak_rss_mb()
    # memory is read once set 0 has run twice: the peak over every later
    # set is a maximum over a varying number of draws
    return {"setup_s": (statistics.median(cpu for cpu, _ in setup), "s"),
            "scaled_cpu_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (runner.set0_rss_mb, "MB")}


def per_layer(runner: Runner, seconds: float, record: dict) -> dict:
    """Traced passes over sets 0, 1, ...; counts come from set 0, so they
    repeat exactly between runs at one seed."""
    deadline = time.perf_counter() + DEADLINE_S
    runner.run_pass(0, warmup=True)
    untraced, _, written, _ = runner.run_pass(0, warmup=True)
    planned = pass_count(runner.name, seconds)  # tracing adds about 3%
    snaps, traced = [], []
    with tracer.Tracer() as tr:
        while (not traced or len(traced) < planned
               and time.perf_counter() < deadline):
            tr.reset()
            traced.append(runner.run_pass(len(traced))[0])
            snaps.append(tr.snapshot())
        absent = list(tr.absent)
    metrics = {}
    for name, unit in tracer.metric_units().items():
        if name.endswith("_s"):
            value = statistics.median(s[name] for s in snaps)
        else:
            value = snaps[0][name]
        metrics[name] = (value, unit)
    metrics["cli.artifact_bytes"] = (written, "bytes")
    metrics["setup.scipy_optimize_import_s"] = (scipy_optimize_import_s(), "s")
    metrics["trace.overhead_ratio"] = (traced[0] / untraced - 1.0, "ratio")
    record["trace"] = {"absent": absent, "untraced_set0_s": untraced,
                       "traced_pass_s": traced}
    record["passes"] = {"planned": planned, "run": len(traced)}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cdcheck" / "cli.py").is_file():
        print(f"no cdcheck sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment": environment()}
    try:
        runner = Runner(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["outcomes"] = [
        dict(o.summary(), input_set=i, config=o.call.config,
             required_exit=o.call.exit_code,
             required_verdict=o.call.verdict, source=o.call.source,
             warmup=warmup)
        for warmup, outcomes in ((True, runner.warmups),
                                 (False, runner.outcomes))
        for i, o in outcomes]
    record["fail_rate"] = len(runner.failed) / len(runner.outcomes)
    record["failed_calls"] = [
        {"input_set": i, "call": o.call.name, "failures": o.failures,
         "known_defect": o.defect} for i, o in runner.failed]
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    (WORK / "records" / f"{tag}.json").write_text(
        json.dumps(record, indent=1, default=str))

    env = record["environment"]
    print(f"{tag}: {len(runner.outcomes)} calls, nproc={env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, blas threads {env['blas_threads']}",
          file=sys.stderr)
    warmup_failed = [(i, o) for i, o in runner.warmups if not o.ok]
    for i, o in warmup_failed + runner.failed:
        label = f" (known defect {o.defect})" if o.defect else ""
        print(f"failed call {o.call.name} of input set {i}{label}: "
              f"{'; '.join(o.failures)}", file=sys.stderr)
    result = {"correct": runner.correct, "attempted": len(runner.outcomes),
              "failed": len(runner.failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
