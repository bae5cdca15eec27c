"""Command-line front end: scenario ingestion, experiment orchestration and
CSV/JSON result emission.

Sub-commands:
  psd    build one composite burst and write its Welch PSD
  ber    BER curves per sub-band (Monte Carlo or semi-analytic)
  sweep  Eb/N0 at a target BER versus sub-band separation in resource blocks

Every run writes a manifest JSON next to its outputs; re-running with the
same scenario and seed reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import ExitStack
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, link
from .config import (ConfigError, F0_HZ, MOD_ORDERS, PRESETS,
                     ScenarioConfig, WAVEFORMS, composite_length, get_preset,
                     load_scenario, scenario_hash, with_gap)
from .link import calibrate
from .metrics import (WELCH_SEGMENT_LEN, ebn0_at_target_ber,
                      monte_carlo_curves, semianalytic_run, welch_psd)
from .waveform import _payload_streams, build_composite

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2

PSD_MIN_SYMBOLS = 64
MAX_GRID_POINTS = 1000
# |Eb/N0| bound in dB: 10 ** (dB / 10) stays a finite, non-zero float
MAX_GRID_DB = 1000.0


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_outputs(out, command, sc, header, rows, parameters):
    """The CSV at out and the manifest JSON beside it, each replaced whole.

    Both are written to <name>.tmp beside them before either is moved into
    place with os.replace, so a reader sees an old file or a new one, never
    a part, and a failed write leaves no temporary behind. The old manifest
    is deleted first: a failure between the two replaces leaves the new CSV
    with no manifest beside it rather than the previous run's.

    The manifest holds the scenario hash, the seed and the run parameters
    as resolved (after presets, overrides and floors), so the run can be
    repeated from it; no times, so reruns stay byte-identical. Returns the
    manifest's path."""
    import scipy  # only for its version: the CLI starts without scipy

    manifest = {
        "command": command,
        "scenario_hash": scenario_hash(sc),
        "seed": sc.seed,
        "parameters": {"mod_order": sc.mod_order, "n_symbols": sc.n_symbols,
                       **parameters},
        "tool_version": __version__,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "outputs": [str(out)],
    }
    path = Path(out)
    manifest_path = path.with_name(path.name + ".manifest.json")
    texts = {path: "".join(",".join(_fmt(v) for v in row) + "\n"
                           for row in [header, *rows]),
             manifest_path: json.dumps(manifest, indent=2,
                                       sort_keys=True) + "\n"}
    tmps = {p: p.with_name(p.name + ".tmp") for p in texts}
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        for p, text in texts.items():
            with open(tmps[p], "w", newline="") as fh:
                fh.write(text)
        manifest_path.unlink(missing_ok=True)
        for p, tmp in tmps.items():
            os.replace(tmp, p)
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
    return manifest_path


def _load_scenario_arg(name, waveform=None, mod_order=None, seed=None,
                       n_symbols=None) -> ScenarioConfig:
    if name in PRESETS:
        if name == "bypass" and waveform not in (None, "cp-ofdm"):
            raise ConfigError("the bypass preset is CP-OFDM only")
        sc = get_preset(name)
    else:
        path = Path(name)
        if not path.exists():
            raise FileNotFoundError(f"scenario file not found: {path}")
        sc = load_scenario(path)
    updates = {"waveform": waveform, "mod_order": mod_order, "seed": seed,
               "n_symbols": n_symbols}
    return replace(sc, **{k: v for k, v in updates.items() if v is not None})


def _parse_grid(spec):
    """'a:step:b' inclusive Eb/N0 grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be a:step:b, got {spec!r}")
    try:
        a, step, b = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid values must be numbers, got {spec!r}") \
            from None
    if not all(math.isfinite(v) for v in (a, step, b)):
        raise ConfigError(f"grid values must be finite, got {spec!r}")
    if step <= 0 or b < a:
        raise ConfigError(f"bad grid {spec!r}")
    # the points up to b, within 1e-9 step (0:0.1:0.3 keeps 0.3); clamped
    # first, as a tiny step can overflow the quotient to inf
    n = math.floor(min((b - a) / step, MAX_GRID_POINTS) + 1e-9)
    if n + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"grid {spec!r} has more than {MAX_GRID_POINTS} "
                          "points")
    grid = [a + k * step for k in range(n + 1)]
    if not (-MAX_GRID_DB <= grid[0] and grid[-1] <= MAX_GRID_DB):
        raise ConfigError(f"grid values must lie within +-{MAX_GRID_DB:g} "
                          f"dB, got {spec!r}")
    return grid


def _parse_m_range(spec):
    """'a..b' or a single integer."""
    try:
        if ".." in spec:
            a, b = spec.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise ConfigError(
            f"m range must be a..b or one integer, got {spec!r}") from None
    if not (0 <= lo <= hi <= 8):
        raise ConfigError(f"m range must lie within 0..8, got {spec!r}")
    return list(range(lo, hi + 1))


def cmd_psd(args):
    """Welch PSD of one composite burst. Its payloads are the bits of the
    psd stream, SeedSequence(seed, spawn_key=(0x5D,)), in band order: band
    i's are drawn from a generator on that stream positioned after the bits
    of bands 0..i-1, one PCG64 step per 8 bits, a burst piece at a time as
    the composite is read (waveform._payload_streams). They are the bytes
    of one draw per band in turn from one generator."""
    sc = _load_scenario_arg(args.scenario, args.waveform, args.mod, args.seed,
                            n_symbols=args.symbols)
    asked = sc.n_symbols
    sc = replace(sc, n_symbols=max(asked, PSD_MIN_SYMBOLS))
    n = composite_length(sc)
    if n < WELCH_SEGMENT_LEN:
        raise ConfigError(
            f"psd needs a composite of at least one {WELCH_SEGMENT_LEN}-"
            f"sample Welch segment; this one holds {n} samples at "
            f"n_symbols {sc.n_symbols}")
    payloads = _payload_streams(
        sc, np.random.SeedSequence(sc.seed, spawn_key=(0x5D,)))
    curve = welch_psd(build_composite(sc, payloads))
    rows = zip(curve.freq_hz.tolist(), curve.psd_db.tolist())
    manifest = _write_outputs(args.out, "psd", sc, ["freq_hz", "psd_db"],
                              rows, {"waveform": sc.waveform})
    raised = (f", {sc.n_symbols} symbols, raised from {asked}"
              if asked < sc.n_symbols else "")
    print(f"wrote {args.out} ({len(curve.freq_hz)} bins, "
          f"resolution {curve.resolution_hz:.0f} Hz{raised}) and {manifest}")
    return EXIT_OK


def cmd_ber(args):
    sc = _load_scenario_arg(args.scenario, args.waveform, args.mod, args.seed,
                            n_symbols=args.symbols)
    grid = _parse_grid(args.ebn0)
    method = {"mc": "monte-carlo", "sa": "semi-analytic"}[args.method]
    cals = {i: calibrate(sc, i) for i in range(len(sc.subbands))}
    # no trial or point reads the last band's kept calibration noise
    link._CAL_SPECTRA.clear()
    if method == "semi-analytic":
        k = int(np.log2(sc.mod_order))
        rows = [(i + 1, db, run.ber(db), method, len(run.noise_gain) * k, 0)
                for i, run in semianalytic_run(sc, cals).items()
                for db in grid]
    else:
        rows = [(i + 1, pt.ebn0_db, pt.ber, method, pt.n_bits, pt.n_errors)
                for i, points in monte_carlo_curves(sc, cals, grid).items()
                for pt in points]
    manifest = _write_outputs(
        args.out, "ber", sc,
        ["band", "ebn0_db", "ber", "method", "n_bits", "n_errors"], rows,
        {"waveform": sc.waveform, "method": method, "ebn0_db": grid})
    print(f"wrote {args.out} ({len(rows)} points) and {manifest}")
    return EXIT_OK


def _sweep_workers(requested, n_points):
    """Worker processes worth starting: no more than asked for, than CPUs,
    or than (waveform, separation) points."""
    return max(1, min(requested, os.cpu_count() or 1, n_points))


def cmd_sweep(args):
    waveforms = (args.waveform.split(",") if args.waveform is not None
                 else list(WAVEFORMS))
    if len(set(waveforms)) < len(waveforms):
        raise ConfigError(f"--waveform repeats a name: {args.waveform}")
    m_values = _parse_m_range(args.m)
    base = _load_scenario_arg(args.scenario, None, args.mod, args.seed,
                              n_symbols=args.symbols)
    scenarios = [_load_scenario_arg(args.scenario, wf, args.mod, args.seed,
                                    n_symbols=args.symbols)
                 for wf in waveforms]
    band = (args.band if args.band is not None else len(base.subbands)) - 1
    if not (0 <= band < len(base.subbands)):
        raise ConfigError(f"band {args.band} out of range")
    if not (0.0 < args.target_ber < 0.5):
        raise ConfigError(
            f"--target-ber must lie in (0, 0.5), got {args.target_ber}")
    # every (waveform, m) point's scenario, gap = 12 m f0 with transition
    # gap/2, is built, and so checked, before the first calibration
    points = [(sc, m) for sc in scenarios for m in m_values]
    gapped = [with_gap(sc, 12.0 * m * F0_HZ) for sc, m in points]
    workers = _sweep_workers(args.threads, len(gapped))
    with ExitStack() as stack:
        pool_map = map
        if workers > 1:
            # imported here: the other commands never start a pool
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool_map = stack.enter_context(ProcessPoolExecutor(
                workers, multiprocessing.get_context("spawn"))).map
        values = list(pool_map(partial(ebn0_at_target_ber, i=band,
                                       target=args.target_ber), gapped))
    rows = [(m, sc.waveform, sc.mod_order, band + 1, val)
            for (sc, m), val in zip(points, values)]
    manifest = _write_outputs(
        args.out, "sweep", base,
        ["m", "waveform", "mod_order", "band", "ebn0_db"], rows,
        {"waveforms": waveforms, "band": band + 1, "m": m_values,
         "target_ber": args.target_ber,
         "scenario_hashes": {sc.waveform: scenario_hash(sc)
                             for sc in scenarios}})
    n_flagged = sum(1 for r in rows if np.isnan(r[4]))
    msg = f"wrote {args.out} ({len(rows)} points) and {manifest}"
    if n_flagged:
        msg += f"; {n_flagged} point(s) unreachable (NaN)"
    print(msg)
    return EXIT_OK


def _print_error(message):
    """One ``error: ...`` line on stderr; line breaks echoed from the input
    are escaped so the message stays on that line."""
    text = str(message).replace("\r", "\\r").replace("\n", "\\n")
    print(f"error: {text}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other input error: one line, exit 2.
    ``add_subparsers`` builds the sub-command parsers with this class too."""

    def error(self, message):
        _print_error(message)
        sys.exit(EXIT_CONFIG)


def _worker_count(text):
    """--threads value: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _glue_negative_grids(argv):
    """``--ebn0 -5:1:0`` as ``--ebn0=-5:1:0``: argparse would take a value
    that starts with '-' and is not a plain number for an option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--ebn0" and re.match(r"-[0-9.]", tok):
            out[-1] = f"--ebn0={tok}"
        else:
            out.append(tok)
    return out


def build_parser():
    p = _Parser(
        prog="mixnum",
        description="Mixed-numerology OFDM downlink simulator "
                    "(CP-OFDM / f-OFDM / w-OFDM)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, symbols_help="OFDM symbols in the slowest band"):
        sp.add_argument("--scenario", required=True,
                        help="preset name (table1, single-band, bypass) or "
                             "JSON scenario path")
        sp.add_argument("--mod", type=int, choices=MOD_ORDERS,
                        default=None, help="modulation order")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--symbols", type=int, default=None,
                        help=symbols_help)
        sp.add_argument("--threads", type=_worker_count, default=1,
                        help="worker processes for sweep (capped at the CPU "
                             "count and the number of (waveform, separation) "
                             "points); psd and ber accept it and run in one "
                             "process")
        sp.add_argument("--out", required=True, help="output CSV path")

    sp = sub.add_parser("psd", help="composite-signal PSD")
    sp.add_argument("--waveform", choices=WAVEFORMS)
    common(sp, "OFDM symbols in the slowest band; psd runs at least "
               f"{PSD_MIN_SYMBOLS}, whether from this flag or the scenario")
    sp.set_defaults(func=cmd_psd)

    sp = sub.add_parser("ber", help="BER curves per sub-band")
    sp.add_argument("--waveform", choices=WAVEFORMS)
    sp.add_argument("--ebn0", required=True, help="grid a:step:b in dB")
    sp.add_argument("--method", choices=["mc", "sa"], default="sa")
    common(sp)
    sp.set_defaults(func=cmd_ber)

    sp = sub.add_parser("sweep", help="Eb/N0 at target BER vs separation")
    sp.add_argument("--waveform",
                    help="comma-separated list (default: all three)")
    sp.add_argument("--target-ber", type=float, default=0.05)
    sp.add_argument("--m", default="0..4", help="resource-block range a..b")
    sp.add_argument("--band", type=int, default=None,
                    help="1-based band to evaluate (default: last)")
    common(sp)
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_glue_negative_grids(argv))
    try:
        return args.func(args)
    except (ConfigError, OSError) as e:
        _print_error(e)
        return EXIT_CONFIG
    except ValueError as e:  # LinkError and MetricsError among them
        _print_error(e)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
