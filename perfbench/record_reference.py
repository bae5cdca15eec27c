#!/usr/bin/env python3
"""Write reference/<workload>.json from one run of each workload's jobs.

    python3 perfbench/record_reference.py [--seed 11] [workload ...]

Use it only when a change to mixnum is meant to change its outputs; the
tolerances come from checks.TOLERANCES.
"""

from __future__ import annotations

import argparse
import json
import tempfile

import run
from checks import REFERENCE_DIR, TOLERANCES, reference_entry
from workloads import WORKLOADS


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = p.parse_args(argv)
    cli = run.import_cli()
    run.STATE_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(prefix="tmp-",
                                         dir=run.STATE_DIR) as tmp:
            session = run.Session(cli, workload, args.seed, tmp)
            jobs = {}
            for job in workload.jobs:
                session.run_job(job, check=False)
                if session.failed:
                    raise SystemExit(f"{name}: {session.problems}")
                data = (session.out_dir / f"{job.label}.csv").read_bytes()
                jobs[job.label] = reference_entry(workload, data)
        ref = {"workload": name, "seed": args.seed,
               "tolerance": TOLERANCES[name], "jobs": jobs}
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
