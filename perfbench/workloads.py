"""The benchmark's workloads: which CLI calls each one makes.

Why each workload was chosen is recorded in BENCHMARK.json and README.md.

Every workload uses the ``table1`` preset. A job is one in-process call to
``mixnum.cli.main``; the runner appends ``--seed``, ``--threads 1`` and
``--out``. The warm-up job runs once, untimed, before the timed jobs: it
takes the same code path as the timed jobs on a smaller input, so lazy
imports and caches are filled without paying for a whole extra pass.

``rows`` is the number of CSV data rows a correct job writes, and
``columns`` its header; both are seed-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

WAVEFORMS = ("cp-ofdm", "f-ofdm", "w-ofdm")


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    warmup: Job
    columns: tuple
    rows: int


def _psd(waveform, symbols):
    return ("psd", "--scenario", "table1", "--waveform", waveform,
            "--symbols", str(symbols))


def _ber(waveform, method, ebn0, mod=None):
    argv = ("ber", "--scenario", "table1", "--waveform", waveform,
            "--method", method, "--ebn0", ebn0)
    return argv + (("--mod", str(mod)) if mod else ())


def _sweep(m, waveform):
    return ("sweep", "--scenario", "table1", "--waveform", waveform,
            "--mod", "256", "--band", "3", "--m", m, "--symbols", "8")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="psd-oob",
        jobs=tuple(Job(wf, _psd(wf, 512)) for wf in WAVEFORMS),
        warmup=Job("warmup", _psd("cp-ofdm", 512)),
        columns=("freq_hz", "psd_db"),
        rows=4096,
    ),
    Workload(
        name="ber-mc",
        jobs=(Job("f-ofdm", _ber("f-ofdm", "mc", "0:4:8")),),
        warmup=Job("warmup", _ber("f-ofdm", "mc", "0:4:0")),
        columns=("band", "ebn0_db", "ber", "method", "n_bits", "n_errors"),
        rows=9,
    ),
    Workload(
        name="ber-sa",
        jobs=(Job("w-ofdm", _ber("w-ofdm", "sa", "0:1:30", mod=256)),),
        warmup=Job("warmup", _ber("w-ofdm", "sa", "0:1:0", mod=256)),
        columns=("band", "ebn0_db", "ber", "method", "n_bits", "n_errors"),
        rows=93,
    ),
    Workload(
        name="sweep-256",
        jobs=tuple(Job(wf, _sweep("0..4", wf)) for wf in WAVEFORMS),
        warmup=Job("warmup", _sweep("0", "cp-ofdm")),
        columns=("m", "waveform", "mod_order", "band", "ebn0_db"),
        rows=5,
    ),
)}
