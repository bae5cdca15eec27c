#!/usr/bin/env python3
"""Read one benchmark workload's peak RSS and wall time at several
environment sizes, on this checkout and on another.

    python3 tools/rss_pads.py --parent ../mixnum-parent
    python3 tools/rss_pads.py --parent ../mixnum-parent --workload ber-mc \\
        --pads 12

A process's ``peak_rss_mb`` can land in one of two states with no change in
the code: whether glibc trims the heap before a large allocation depends on
the allocations before it, and those shift with the size of the process's
environment. So one reading per side says little. At pad k = 0, 1, ...,
N-1 this runs ``python3 perfbench/run.py --workload W --seed 11 --trace 0
--seconds 3`` once on each side, in that side's checkout, with one extra
environment variable of 97*k bytes. The side that runs first alternates
(this checkout first at even pads), one process at a time, and both sides
get the same environment and the same command line, so a pad differs
between them only in the code. It prints ``peak_rss_mb`` and ``wall_s``
per pad and side, then each side's range and median. The two checkouts'
paths must have the same length, as each process holds its checkout's
path too; the tool refuses others. It reads perfbench/ and writes nothing
but perfbench's own record under each checkout's ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAD_BYTES = 97
SEED = 11
SECONDS = 3  # perfbench's --seconds per run
PAD_VAR = "RSS_PAD"
METRICS = ("peak_rss_mb", "wall_s")


def run_once(checkout, workload, pad):
    """perfbench's end-to-end metrics for one run in checkout, with an
    environment variable of pad bytes."""
    env = dict(os.environ, **{PAD_VAR: "x" * pad})
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--trace", "0", "--seconds", str(SECONDS)]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {checkout} "
                         f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if record.get("failed"):
        raise SystemExit(f"perfbench: {record['failed']} job(s) failed in "
                         f"{checkout}")
    return {name: record["metrics"][name]["value"] for name in METRICS}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="root of the checkout to compare with")
    p.add_argument("--workload", default="ber-mc")
    p.add_argument("--pads", type=int, default=10,
                   help="pads of 0, 97, ..., 97*(N-1) bytes")
    args = p.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        p.error(f"{args.parent} holds no perfbench/run.py")
    if args.pads < 1:
        p.error("--pads must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    if len(str(sides["parent"])) != len(str(ROOT)):
        p.error(f"{sides['parent']} and {ROOT} differ in length: each "
                "process holds its checkout's path, which shifts its heap")
    readings = {side: [] for side in sides}
    print(f"{args.workload} seed {SEED}, {SECONDS} s a run; "
          f"parent {sides['parent']}, change {ROOT}")
    print(f"{'pad':>5} {'parent MB':>10} {'change MB':>10} "
          f"{'parent s':>9} {'change s':>9}")
    for k in range(args.pads):
        order = ["change", "parent"] if k % 2 == 0 else ["parent", "change"]
        got = {side: run_once(sides[side], args.workload, PAD_BYTES * k)
               for side in order}
        for side in sides:
            readings[side].append(got[side])
        print(f"{PAD_BYTES * k:>5} {got['parent']['peak_rss_mb']:>10.2f} "
              f"{got['change']['peak_rss_mb']:>10.2f} "
              f"{got['parent']['wall_s']:>9.3f} "
              f"{got['change']['wall_s']:>9.3f}", flush=True)
    for side in sides:
        for name in METRICS:
            values = [r[name] for r in readings[side]]
            print(f"{side} {name}: {min(values):.4g}..{max(values):.4g}, "
                  f"median {statistics.median(values):.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
