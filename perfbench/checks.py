"""Output checks for benchmark jobs.

Every job, at any seed, must exit 0 and write a CSV with the expected
header and row count whose values are in range, plus a manifest naming the
seed. Every repeat of a job must write the same CSV bytes as its first run.
At the recorded seed the values must also match the stored reference
(``reference/<workload>.json``) within the tolerance stated in that file:

- ``psd-oob``: PSD in dB per bin, absolute tolerance in dB.
- ``ber-sa``: per-point BER, relative tolerance plus an absolute floor
  (the semi-analytic estimate is deterministic).
- ``ber-mc``: per-point BER within ``z`` binomial standard errors of the
  reference (a Monte Carlo estimate is only defined up to its error bar).
- ``sweep-256``: Eb/N0 thresholds within the bisection resolution, and the
  same NaN pattern.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_csv(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(rows, col):
    return [float(r[col]) for r in rows]


def _check_shape(workload, header, rows):
    if tuple(header) != workload.columns:
        return f"header {header} != {list(workload.columns)}"
    if len(rows) != workload.rows:
        return f"{len(rows)} rows, expected {workload.rows}"
    if any(len(r) != len(header) for r in rows):
        return "ragged rows"
    return None


def _check_ranges(workload, header, rows):
    if workload.name == "psd-oob":
        db = _floats(rows, 1)
        if not all(math.isfinite(v) and v <= 0.0 for v in db) or max(db) != 0:
            return "PSD not finite, or not relative to its 0 dB peak"
    elif workload.name in ("ber-mc", "ber-sa"):
        ber = _floats(rows, 2)
        if not all(0.0 <= b <= 1.0 for b in ber):
            return "BER outside [0, 1]"
        method = {"ber-mc": "monte-carlo", "ber-sa": "semi-analytic"}
        if any(r[3] != method[workload.name] for r in rows):
            return f"method column is not {method[workload.name]}"
        if workload.name == "ber-mc" and any(
                int(r[5]) < 100 and int(r[4]) < 2_000_000 for r in rows):
            return "Monte Carlo point stopped before min_errors or max_bits"
    elif workload.name == "sweep-256":
        for v in _floats(rows, 4):
            if not (math.isnan(v) or -5.0 <= v <= 40.0):
                return f"threshold {v} outside the bisection bracket"
    return None


def _compare_reference(workload, label, rows, ref):
    tol = ref["tolerance"]
    want = ref["jobs"][label]
    if workload.name == "psd-oob":
        start, step = want["freq_hz"]
        freqs = _floats(rows, 0)
        if any(abs(f - (start + k * step)) > 1e-6 * abs(step)
               for k, f in enumerate(freqs)):
            return "frequency grid differs from reference"
        worst = max(abs(a - b) for a, b in zip(_floats(rows, 1),
                                               want["psd_db"]))
        if worst > tol["psd_db_abs"]:
            return f"PSD differs from reference by {worst:.3g} dB"
        return None
    if workload.name == "sweep-256":
        got = _floats(rows, 4)
        keys = [(r[0], r[1]) for r in rows]
        if keys != [tuple(k) for k in want["keys"]]:
            return "sweep rows differ from reference"
        for a, b in zip(got, want["ebn0_db"]):
            if (b is None) != math.isnan(a):
                return "NaN pattern differs from reference"
            if b is not None and abs(a - b) > tol["ebn0_db_abs"]:
                return f"threshold {a} vs reference {b}"
        return None
    keys = [(r[0], r[1]) for r in rows]
    if keys != [tuple(k) for k in want["keys"]]:
        return "BER grid differs from reference"
    for r, b_ref, n_ref in zip(rows, want["ber"], want["n_bits"]):
        b, n = float(r[2]), int(r[4])
        if workload.name == "ber-sa":
            limit = tol["ber_rel"] * b_ref + tol["ber_abs"]
        else:
            limit = tol["z"] * math.sqrt(b_ref * (1 - b_ref) / n_ref
                                         + b * (1 - b) / n)
        if abs(b - b_ref) > limit:
            return f"BER {b} at band {r[0]} {r[1]} dB vs reference {b_ref}"
    return None


def load_reference(workload_name):
    path = REFERENCE_DIR / f"{workload_name}.json"
    return json.loads(path.read_text()) if path.exists() else None


def check_output(workload, label, seed, out_path, first_bytes, ref):
    """Return None if the job's output is correct, else a one-line reason.

    ``first_bytes`` is the CSV written by the first run of this job in the
    run, or None for the first run itself.
    """
    out_path = Path(out_path)
    data = out_path.read_bytes()
    if first_bytes is not None and data != first_bytes:
        return "CSV not byte-identical to the first run of this job"
    manifest = json.loads(out_path.with_name(
        out_path.name + ".manifest.json").read_text())
    if manifest.get("seed") != seed:
        return f"manifest seed {manifest.get('seed')} != {seed}"
    header, rows = parse_csv(data.decode())
    problem = (_check_shape(workload, header, rows)
               or _check_ranges(workload, header, rows))
    if problem is None and ref is not None and ref["seed"] == seed:
        problem = _compare_reference(workload, label, rows, ref)
    return problem


def reference_entry(workload, data):
    """The stored reference values of one job's CSV bytes."""
    header, rows = parse_csv(data.decode())
    if workload.name == "psd-oob":
        f = _floats(rows, 0)
        return {"freq_hz": [f[0], f[1] - f[0]],
                "psd_db": [round(v, 4) for v in _floats(rows, 1)]}
    if workload.name == "sweep-256":
        return {"keys": [[r[0], r[1]] for r in rows],
                "ebn0_db": [None if math.isnan(v) else v
                            for v in _floats(rows, 4)]}
    return {"keys": [[r[0], r[1]] for r in rows],
            "ber": _floats(rows, 2), "n_bits": [int(r[4]) for r in rows]}


TOLERANCES = {
    # stored values are rounded to 1e-4 dB, far inside this tolerance
    "psd-oob": {"psd_db_abs": 0.01},
    "ber-sa": {"ber_rel": 1e-6, "ber_abs": 1e-15},
    "ber-mc": {"z": 5.0},
    # the bisection's resolution, mixnum.metrics.BISECT_DB_RESOLUTION
    "sweep-256": {"ebn0_db_abs": 0.01},
}
