#!/usr/bin/env python3
"""Read the peak RSS of fresh command-line processes on this checkout and
on another: the jobs that README's memory paragraph quotes.

    python3 tools/fresh_rss.py --parent ../mixnum-parent

Each job is one ``mixnum`` command on table1 at seed 11, run in a new
interpreter on each side's ``src/``, with native thread pools pinned to
one thread and its output written into a temporary directory. The side
that runs first alternates (this checkout first at even jobs), one process
at a time. A process's ``ru_maxrss`` covers everything it held, importing
the command line included. The jobs:

- ``psd`` at 512 and 2048 symbols, each waveform;
- w-OFDM ``ber --method sa --ebn0 0:10:20`` with the preset's QPSK at 256
  and 512 symbols, and with ``--mod 256`` at 512, 1024 and 2048 symbols
  (about 0.9 GB a process at 2048).

It prints each job's peak in MB (ru_maxrss / 1024) per side and the
change against the parent. The two checkouts' paths must have the same
length, as each process holds its checkout's path, which shifts its heap;
the tool refuses others.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SA = ["ber", "--waveform", "w-ofdm", "--method", "sa", "--ebn0", "0:10:20"]
JOBS = ([["psd", "--waveform", wf, "--symbols", str(n)]
         for n in (512, 2048) for wf in ("cp-ofdm", "f-ofdm", "w-ofdm")]
        + [SA + ["--symbols", str(n)] for n in (256, 512)]
        + [SA + ["--mod", "256", "--symbols", str(n)]
           for n in (512, 1024, 2048)])

# argv: src directory, JSON list of CLI arguments; prints the exit code and
# ru_maxrss in KB as one JSON list
CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from mixnum.cli import main
code = main(json.loads(sys.argv[2]))
print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def peak_mb(checkout, job):
    """ru_maxrss in MB of one fresh process running job on checkout."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    with tempfile.TemporaryDirectory() as tmp:
        argv = job + ["--scenario", "table1", "--seed", str(SEED),
                      "--out", str(Path(tmp) / "out.csv")]
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(checkout / "src"),
             json.dumps(argv)], env=env, capture_output=True, text=True,
            check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or json.loads(lines[-1])[0] != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {checkout} "
                         f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])[1] / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="root of the checkout to compare with")
    args = p.parse_args(argv)
    if not (args.parent / "src" / "mixnum" / "cli.py").is_file():
        p.error(f"{args.parent} holds no src/mixnum/cli.py")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    if len(str(sides["parent"])) != len(str(ROOT)):
        p.error(f"{sides['parent']} and {ROOT} differ in length: each "
                "process holds its checkout's path, which shifts its heap")
    print(f"table1 seed {SEED}, ru_maxrss; parent {sides['parent']}, "
          f"change {ROOT}")
    print(f"{'parent MB':>10} {'change MB':>10} {'change':>8}  job")
    for k, job in enumerate(JOBS):
        order = ["change", "parent"] if k % 2 == 0 else ["parent", "change"]
        got = {side: peak_mb(sides[side], job) for side in order}
        print(f"{got['parent']:>10.1f} {got['change']:>10.1f} "
              f"{got['change'] / got['parent'] - 1:>+8.1%}  {' '.join(job)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
