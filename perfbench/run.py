#!/usr/bin/env python3
"""mixnum benchmark: time the four CLI workloads end to end, or trace them
layer by layer.

    python3 perfbench/run.py --workload psd-oob --seed 11 --trace 0
    python3 perfbench/run.py --workload all

Run it from a checkout: it imports ``mixnum`` from ``src/`` next to this
directory and exits with code 2 if that is missing. Each workload runs in
this one process, with ``--threads 1`` and BLAS/OpenMP pools pinned to one
thread, as in-process calls to ``mixnum.cli.main`` that write into a
temporary directory under ``.perfbench/``. One warm-up job runs first,
untimed; then whole passes over the workload's jobs run for about
``--seconds`` (the pass count whose expected end is nearest to it, and
always at least one). Every job's
output is checked (see checks.py); a job that fails a check counts in
``failed``.

``--trace 0`` reports the end-to-end metrics:
  wall_s       median pass time (time to solution for the workload's jobs)
  setup_s      median over fresh interpreters of importing mixnum.cli and
               building its parser, which every CLI call pays
  peak_rss_mb  this process's memory high-water mark
  pass_ratio   jobs that passed every check out of jobs attempted

``--trace 1`` runs every job untraced and then traced, and reports per-layer
metrics from the spans that spans.py records in the traced runs, plus
``trace.overhead_s``: the median over passes of traced minus untraced time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with versions, thread settings, every pass time and, when tracing, the
spans, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in the set-up
# children, so one process drives the load on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_output, load_reference  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3
# per-layer metrics that --workload all prints in its table when tracing
TRACED_SUMMARY = ("link.calibrate.wall_share", "trace.wall_s",
                  "trace.overhead_s")
SETUP_TIMEOUT_S = 60

SETUP_CODE = ("import sys, time\n"
              "t = time.perf_counter()\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import mixnum.cli\n"
              "mixnum.cli.build_parser()\n"
              "print(repr(time.perf_counter() - t))\n")


class BenchError(RuntimeError):
    pass


def import_cli():
    """Import mixnum.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "mixnum" / "__init__.py").is_file():
        raise BenchError(f"no mixnum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixnum.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "mixnum").resolve():
        raise BenchError(f"imported mixnum from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(samples=SETUP_SAMPLES):
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def environment():
    import numpy
    import scipy
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": affinity or os.cpu_count(),
            "machine": platform.machine(),
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


class Session:
    """Runs one workload's jobs in this process and checks their outputs."""

    def __init__(self, cli, workload, seed, out_dir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.reference = load_reference(workload.name)
        self.first_bytes = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_job(self, job, check=True):
        """Run one job; return its wall time in seconds."""
        out = self.out_dir / f"{job.label}.csv"
        out.unlink(missing_ok=True)
        argv = list(job.argv) + ["--seed", str(self.seed), "--threads", "1",
                                 "--out", str(out)]
        sink = io.StringIO()
        problem = None
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc, problem = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        self.attempted += 1
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {sink.getvalue().strip()[-200:]}"
        if problem is None and check:
            try:
                problem = check_output(self.workload, job.label, self.seed,
                                       out, self.first_bytes.get(job.label),
                                       self.reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem is None and job.label not in self.first_bytes:
                self.first_bytes[job.label] = out.read_bytes()
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{job.label}: {problem}")
        return elapsed

    def run_pass(self):
        gc.collect()
        return sum(self.run_job(job) for job in self.workload.jobs)


def _keep_going(started, seconds, pass_times):
    """Start another pass only if it would end nearer to the budget than
    stopping now does."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(pass_times) / 2 < seconds


def run_untraced(session, seconds):
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(session.run_pass())
        if not _keep_going(started, seconds, passes):
            return passes


def run_traced(session, seconds):
    """Run each job untraced and traced, back to back, so that slow drift
    in machine speed cancels out of the tracing overhead; which of the two
    goes first alternates from job to job and pass to pass.
    Return (untraced pass times, traced pass times, metrics of each traced
    pass, spans of the first traced pass)."""
    tracer = Tracer()
    hash_fn = session.cli.scenario_hash
    plain, traced, per_pass, first_spans = [], [], [], None
    started = time.perf_counter()
    while True:
        gc.collect()
        tracer.clear()
        plain_s = traced_s = 0.0
        for k, job in enumerate(session.workload.jobs):
            tracer.job = k
            for traced_run in ((False, True) if (k + len(plain)) % 2 == 0
                               else (True, False)):
                if traced_run:
                    with tracer:
                        traced_s += session.run_job(job)
                else:
                    plain_s += session.run_job(job)
        plain.append(plain_s)
        traced.append(traced_s)
        per_pass.append(layer_metrics(tracer.spans, traced_s, hash_fn))
        if first_spans is None:
            first_spans = [s.as_row() for s in tracer.spans]
        pairs = [a + b for a, b in zip(plain, traced)]
        if not _keep_going(started, seconds, pairs):
            return plain, traced, per_pass, first_spans


def _is_count(name):
    return not (name.endswith("_s") or name.endswith("_share"))


def combine_traced(per_pass, plain, traced):
    """Median of each time metric over traced passes; exact counts must
    agree between passes and are reported once."""
    metrics, mismatched = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if not _is_count(name):
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            mismatched.append(name)
        metrics[name] = values[0]
    metrics["trace.overhead_s"] = statistics.median(
        t - p for p, t in zip(plain, traced))
    return metrics, mismatched


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(args):
    workload = WORKLOADS[args.workload]
    cli = import_cli()
    STATE_DIR.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "jobs": [list(j.argv) for j in workload.jobs],
              "warmup": list(workload.warmup.argv)}
    setup = [] if args.trace else measure_setup()
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=STATE_DIR) as tmp:
        session = Session(cli, workload, args.seed, tmp)
        session.run_job(workload.warmup, check=False)
        if args.trace:
            plain, traced, per_pass, spans = run_traced(session, args.seconds)
            values, mismatched = combine_traced(per_pass, plain, traced)
            for name in mismatched:
                session.failed += 1
                session.problems.append(f"count {name} differs between passes")
            record.update(untraced_pass_s=plain, traced_pass_s=traced,
                          spans=spans, all_metrics=values)
            kind = "per_layer"
        else:
            passes = run_untraced(session, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"wall_s": statistics.median(passes),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": peak,
                      "pass_ratio": ((session.attempted - session.failed)
                                     / session.attempted)}
            record.update(pass_s=passes, setup_samples_s=setup)
            kind = "end_to_end"
    units = declared_metrics(kind)
    result = {"correct": session.failed == 0,
              "attempted": session.attempted, "failed": session.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record.update(result=result, problems=session.problems)
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir / (f"{workload.name}-seed{args.seed}-trace{args.trace}"
                          f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for p in session.problems:
        print(f"FAILED {p}")
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own child process; print a per-workload table."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
        rows.append((name, res))
    for name, res in rows:
        shown = ", ".join(f"{m} {v['value']:.4g} {v['unit']}"
                          for m, v in res["metrics"].items()
                          if args.trace == 0 or m in TRACED_SUMMARY)
        print(f"{name:10s} {shown}, fail_ratio "
              f"{res['failed'] / res['attempted']:.4g} ratio")
    print(json.dumps(merged))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_workload(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
