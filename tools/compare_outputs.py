#!/usr/bin/env python3
"""Compare the benchmark jobs' outputs of this checkout with another's.

    python3 tools/compare_outputs.py --parent ../mixnum-parent
    python3 tools/compare_outputs.py --parent ../mixnum-parent --seeds 11

Every job of every workload in perfbench/workloads.py (warm-ups excepted)
runs at each seed twice: once on the other checkout's src/ and once on this
one's, each side in one fresh interpreter with native thread pools pinned
to one thread, writing into a temporary directory. At each seed the
three-waveform ``sweep-256`` sweep also runs as one call with
``--threads 2``: the benchmark runs every sweep in one process, so this job
is what checks the worker-pool path. Two more jobs per seed cover receive
layouts that the benchmark's table1 jobs never run: a three-waveform
``single-band`` sweep (one band at the composite rate, u = 1) and a
semi-analytic ``ber`` on ``bypass`` (no receive filter, so a unit tap).
Three semi-analytic ``ber`` jobs on ``table1`` at 4-, 16- and 64-QAM cover
the bit-error kernel's tables at the orders the benchmark does not run.
Four ``psd`` jobs cover transmit layouts that the benchmark's 512-symbol
``psd`` jobs do not: ``single-band`` and ``bypass`` (one band at the
composite rate, passed through with a zero shift) and ``table1`` f-OFDM and
w-OFDM at 64 symbols, whose bands end in a partial block row and a partial
phasor row at other offsets than at 512 symbols. Two more ``psd`` jobs end
compose's overlap-add on a chunk of one block row (table1 composites are
overlap-added in rows of 8192 points, 7168 samples apart, 16 rows to a
chunk): table1 CP-OFDM at 78 symbols, whose output ends past the tail
carried into that row, and table1 f-OFDM at 130 symbols, whose output ends
inside it. At 78 symbols the last chunk also reads less than one row of
bands 1 and 3, so their bursts end just past a chunk edge.
Four more ``psd`` jobs put a compose chunk edge where a streamed burst
carries something across it (CP-OFDM and w-OFDM bursts are made 120
symbols, 130560 samples, at a time, f-OFDM bursts a chunk of their filter's
overlap-add at a time; band 2 passes through at the composite rate and is
read in phasor pieces): table1 f-OFDM at 262 symbols, where a chunk starts
inside the f-OFDM filter tail of bands 1 and 3 and both bursts end in a
chunk's first row; table1 f-OFDM at 220 symbols, where a read of band 2
ends inside its filter tail; table1 w-OFDM at 262 symbols, where a chunk
starts inside the last w-OFDM suffix of bands 1 and 3; and table1 w-OFDM at
459 symbols, where a read of band 2 ends inside the suffix carried from one
of its pieces into the next. A read of band 2 ends at a composite piece's
end or at a phasor row's end, the last that a phasor piece of at most 2^14
samples reaches.
Three more ``psd`` jobs put the composite's end at the edges of Welch's
groups of 64 segments (welch_psd reads the streamed composite a few
segments at a time and sums each group's periodograms apart): table1
CP-OFDM at 91 symbols (396544 samples, 192 segments, three full groups),
table1 CP-OFDM at 212 symbols (449 segments, so the last group holds one)
and table1 f-OFDM at 242 symbols (513 segments); each also drops a partial
last segment. The ``bypass`` and ``single-band`` ``psd`` jobs cover a
composite in which every band passes through. One semi-analytic ``ber``
job, table1 f-OFDM at 256-QAM and 130 symbols, gives every band more
received points than one chunk of the bit-error kernel (2^14 points), so
its chunk edges fall inside each band.
Three more semi-analytic ``ber`` jobs run the traffic front end over
several of its overlap-add chunks (2^17 block points, 8 rows of band 3's
16384-point blocks), where the benchmark's 16-symbol ``ber`` jobs fit in
one: table1 CP-OFDM and w-OFDM at 16-QAM and 130 symbols, and table1
f-OFDM at 256-QAM and 512 symbols.
Two more jobs join and stream a composite of more than one piece of zeros
(compose starts from zeros, pieces of 2^17 samples, when every band passes
through, and adds the bands into them): a Monte Carlo ``ber`` on ``bypass``
at 130 symbols takes its 141440-sample composite whole, two pieces joined
into one array, and a ``psd`` on ``single-band`` at 130 symbols streams
the same two pieces into Welch.
Twenty more ``psd`` jobs draw the payload at every modulation order that
the benchmark's QPSK ``psd`` jobs do not: table1 at 16-, 64- and 256-QAM
for each waveform at 130 and 262 symbols, and ``single-band`` and
``bypass`` at 256-QAM and 130 symbols. psd draws each band's bits a burst
piece at a time (120 table1 symbols, 30 for f-OFDM), and at these lengths
every band's last piece is partial.
For each CSV the script prints
``identical``, or for each column the largest absolute difference (numeric
columns) or the number of rows that differ (other columns). Each
manifest is compared whole except for ``outputs``, which holds the output
path and so differs by construction.

Exit status: 0 when every CSV is byte-identical and every manifest equal
apart from its outputs, 1 on any difference or a job that fails on either
side, 2 when a checkout has no src/mixnum.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# imported, not copied, and read only: no bytecode is written beside it
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WAVEFORMS, WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# argv: src directory, JSON list of CLI argument lists; prints one JSON list
# of exit codes (null for a job that raised) as its last line. A job that
# the CLI's parser rejects exits through SystemExit: that job's code is
# recorded and the next job runs.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from mixnum.cli import main
codes = []
for argv in json.loads(sys.argv[2]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        print(f"{argv}: exited {exc.code}", file=sys.stderr)
        codes.append(exc.code)
    except Exception as exc:
        print(f"{argv}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
        codes.append(None)
print(json.dumps(codes))
"""


def run_side(src, argvs):
    """Exit codes of CLI runs, one per argument list, on the package in
    src; None for each when the interpreter itself fails."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), json.dumps(argvs)],
        env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return [None] * len(argvs)
    return json.loads(proc.stdout.splitlines()[-1])


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def compare_csv(a, b):
    """None when the files are byte-identical, else one note per column
    that differs."""
    if a.read_bytes() == b.read_bytes():
        return None
    head_a, rows_a = _read_csv(a)
    head_b, rows_b = _read_csv(b)
    shape_a = (head_a, [len(r) for r in rows_a])
    shape_b = (head_b, [len(r) for r in rows_b])
    if shape_a != shape_b:
        return [f"columns or rows differ: {len(head_a)} x {len(rows_a)} "
                f"{head_a} against {len(head_b)} x {len(rows_b)} {head_b}"]
    notes = []
    for k, name in enumerate(head_a):
        col_a, col_b = [r[k] for r in rows_a], [r[k] for r in rows_b]
        if col_a == col_b:
            continue
        try:
            x, y = np.array(col_a, dtype=float), np.array(col_b, dtype=float)
        except ValueError:
            n = sum(p != q for p, q in zip(col_a, col_b))
            notes.append(f"{name}: {n} rows differ")
            continue
        # NaN against NaN is no difference, NaN against a number is inf
        diff = np.nan_to_num(np.abs(x - y), nan=np.inf)
        diff[np.isnan(x) & np.isnan(y)] = 0.0
        notes.append(f"{name}: max |diff| {diff.max():.3g}")
    return notes


def compare_manifest(a, b):
    """Keys (parameters expanded) in which the manifests differ, outputs
    aside."""
    ma, mb = (json.loads(p.read_text()) for p in (a, b))
    pa, pb = ma.pop("parameters", {}), mb.pop("parameters", {})
    keys = [k for k in sorted(set(ma) | set(mb))
            if k != "outputs" and ma.get(k) != mb.get(k)]
    return keys + [f"parameters.{k}" for k in sorted(set(pa) | set(pb))
                   if pa.get(k) != pb.get(k)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="checkout to compare this one against")
    p.add_argument("--seeds", type=int, nargs="+", default=[11, 101])
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve() / "src", "this": ROOT / "src"}
    for src in sides.values():
        if not (src / "mixnum").is_dir():
            print(f"error: no mixnum package under {src}", file=sys.stderr)
            return 2
    # the runner's arguments, as perfbench/run.py appends them
    names = [(f"{w.name}-{job.label}-s{seed}",
              list(job.argv) + ["--seed", str(seed), "--threads", "1"])
             for w in WORKLOADS.values() for job in w.jobs
             for seed in args.seeds]
    pooled = list(WORKLOADS["sweep-256"].jobs[0].argv)
    pooled[pooled.index("--waveform") + 1] = ",".join(WAVEFORMS)
    names += [(f"sweep-256-all-threads2-s{seed}",
               pooled + ["--seed", str(seed), "--threads", "2"])
              for seed in args.seeds]
    layouts = {
        "single-band-sweep": ["sweep", "--scenario", "single-band",
                              "--waveform", ",".join(WAVEFORMS),
                              "--m", "0..2", "--symbols", "8"],
        "bypass-ber-sa": ["ber", "--scenario", "bypass", "--method", "sa",
                          "--ebn0", "0:2:10"],
        **{f"table1-ber-sa-m{mod}": ["ber", "--scenario", "table1",
                                     "--waveform", "f-ofdm", "--method", "sa",
                                     "--mod", str(mod), "--ebn0", "0:2:20"]
           for mod in (4, 16, 64)},
        "table1-ber-sa-m256-130": ["ber", "--scenario", "table1",
                                   "--waveform", "f-ofdm", "--method", "sa",
                                   "--mod", "256", "--ebn0", "0:2:30",
                                   "--symbols", "130"],
        **{f"table1-ber-sa-{wf}-m16-130": ["ber", "--scenario", "table1",
                                           "--waveform", wf, "--method",
                                           "sa", "--mod", "16", "--ebn0",
                                           "0:2:20", "--symbols", "130"]
           for wf in ("cp-ofdm", "w-ofdm")},
        "table1-ber-sa-m256-512": ["ber", "--scenario", "table1",
                                   "--waveform", "f-ofdm", "--method", "sa",
                                   "--mod", "256", "--ebn0", "0:2:30",
                                   "--symbols", "512"],
        "bypass-ber-mc-130": ["ber", "--scenario", "bypass", "--method", "mc",
                              "--ebn0", "0:4:8", "--symbols", "130"],
        "single-band-psd": ["psd", "--scenario", "single-band"],
        "single-band-psd-130": ["psd", "--scenario", "single-band",
                                "--symbols", "130"],
        "bypass-psd": ["psd", "--scenario", "bypass"],
        **{f"table1-psd-{wf}-64": ["psd", "--scenario", "table1",
                                   "--waveform", wf, "--symbols", "64"]
           for wf in ("f-ofdm", "w-ofdm")},
        **{f"table1-psd-{wf}-{n}": ["psd", "--scenario", "table1",
                                    "--waveform", wf, "--symbols", str(n)]
           for wf, n in (("cp-ofdm", 78), ("f-ofdm", 130), ("f-ofdm", 262),
                         ("f-ofdm", 220), ("w-ofdm", 262), ("w-ofdm", 459),
                         ("cp-ofdm", 91), ("cp-ofdm", 212),
                         ("f-ofdm", 242))},
        **{f"table1-psd-{wf}-m{mod}-{n}": ["psd", "--scenario", "table1",
                                           "--waveform", wf, "--mod",
                                           str(mod), "--symbols", str(n)]
           for wf in WAVEFORMS for mod in (16, 64, 256) for n in (130, 262)},
        **{f"{name}-psd-m256-130": ["psd", "--scenario", name, "--mod", "256",
                                    "--symbols", "130"]
           for name in ("single-band", "bypass")}}
    names += [(f"{label}-s{seed}",
               argv + ["--seed", str(seed), "--threads", "1"])
              for label, argv in layouts.items() for seed in args.seeds]
    with tempfile.TemporaryDirectory() as tmp:
        out = {side: Path(tmp) / side for side in sides}
        codes = {side: run_side(src, [
                     argv + ["--out", str(out[side] / f"{name}.csv")]
                     for name, argv in names])
                 for side, src in sides.items()}
        n_same_csv = n_same_manifest = 0
        for k, (name, _) in enumerate(names):
            if codes["parent"][k] != 0 or codes["this"][k] != 0:
                print(f"{name}: FAILED (exit codes parent "
                      f"{codes['parent'][k]}, this {codes['this'][k]})")
                continue
            a, b = out["parent"] / f"{name}.csv", out["this"] / f"{name}.csv"
            notes = compare_csv(a, b)
            keys = compare_manifest(a.with_name(a.name + ".manifest.json"),
                                    b.with_name(b.name + ".manifest.json"))
            n_same_csv += notes is None
            n_same_manifest += not keys
            print(f"{name}: " + ("identical" if notes is None
                                 else "; ".join(notes))
                  + ("; manifest equal apart from outputs" if not keys
                     else f"; manifest differs in {', '.join(keys)}"))
    print(f"{n_same_csv} of {len(names)} CSVs identical, {n_same_manifest} "
          f"of {len(names)} manifests equal apart from outputs")
    return 0 if n_same_csv == n_same_manifest == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
