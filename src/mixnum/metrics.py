"""PSD estimation, EVM, Monte Carlo and semi-analytic BER, and the Eb/N0
at a target BER that each point of the separation sweep solves for.

Both BER estimators share the same calibrated Eb/N0 convention: noise is
injected at the composite rate with the variance that realizes the requested
Eb/N0 at the demapper input. The semi-analytic path receives one noiseless
burst (interferers active), builds the bit-error kernel's sigma-free tables
from it once, and at each Eb/N0 averages the kernel's per-sigma half over
the equalized points; Monte Carlo actually injects the noise and counts
errors, serving as the oracle for the semi-analytic result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .dsp import ComplexSignal
from .link import (ReceiverCalibration, awgn_from_rng, calibrate,
                   noise_variance_for_ebn0, receive_subband)
from .modem import (bit_error_probabilities, bit_error_tables,
                    qam_demodulate)
from .waveform import build_composite, random_payload

DEFAULT_MIN_ERRORS = 100
DEFAULT_MAX_BITS = 2_000_000
EVM_FLOOR_DB = -300.0
WELCH_SEGMENT_LEN = 4096
WELCH_CHUNK_SEGMENTS = 64   # segments summed apart before the total
# segments that welch_psd reads, windows and FFTs at a time; it divides
# WELCH_CHUNK_SEGMENTS, and bounds welch_psd's memory and a read that
# spans pieces of a streamed signal
_WELCH_BATCH = 8


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class PsdCurve:
    freq_hz: np.ndarray
    psd_db: np.ndarray          # dB relative to the curve maximum
    resolution_hz: float


@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    ber: float
    n_bits: int
    n_errors: int = 0


def welch_psd(x) -> PsdCurve:
    """Averaged-periodogram PSD, FFT-shifted to span (-fs/2, fs/2].

    Welch's method over WELCH_SEGMENT_LEN-sample segments overlapping by
    half, with a periodic Hann window, no detrending and density
    scaling 1/(fs * sum(w^2)); a partial last segment is dropped.

    x is a ComplexSignal or a _Stream of its samples with its rate (the
    composite as compose makes it), read once and in order, a few segments
    at a time: they are windowed into one preallocated array as their new
    halves are read, the last half carried over to the next, then FFT'd and
    squared in place. The periodograms are summed in groups of
    WELCH_CHUNK_SEGMENTS and the groups into the total, so neither x nor
    its segment array need exist whole.
    """
    segment_len = WELCH_SEGMENT_LEN
    step = segment_len // 2
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len)
                             / segment_len)
    n_segs = (len(x) - segment_len) // step + 1
    if n_segs < 1:
        raise MetricsError(f"welch_psd needs at least {segment_len} "
                           f"samples, got {len(x)}")
    samples = x.samples if isinstance(x, ComplexSignal) else x
    # segment i is samples i*step.. in two halves of step: the previous
    # segment's second half and one new half
    frames = np.empty((min(_WELCH_BATCH, n_segs), segment_len),
                      dtype=np.complex128)
    acc = np.zeros(segment_len)
    prev = samples[0:step]
    for k in range(0, n_segs, _WELCH_BATCH):
        spec = frames[:min(_WELCH_BATCH, n_segs - k)]
        halves = samples[(k + 1) * step:(k + 1 + len(spec)) * step]
        halves = halves.reshape(len(spec), step)
        np.multiply(prev, win[:step], out=spec[0, :step])
        np.multiply(halves[:-1], win[:step], out=spec[1:, :step])
        np.multiply(halves, win[step:], out=spec[:, step:])
        prev = halves[-1].copy()
        del halves  # no piece of x is kept while the next is made
        np.fft.fft(spec, axis=1, out=spec)
        # |X|^2 formed in the frames' own memory
        re, im = spec.real, spec.imag
        np.square(re, out=re)
        re += np.square(im, out=im)
        # each group's rows are added in order, as np.sum(axis=0) adds
        # them, and then the group to the total; a batch that continues a
        # group starts from its sum so far, and no batch spans two groups
        if k % WELCH_CHUNK_SEGMENTS:
            re[0] += group
        group = re.sum(axis=0)
        if (k + len(re)) % WELCH_CHUNK_SEGMENTS == 0 or k + len(re) == n_segs:
            acc += group
    p = np.fft.fftshift(acc / (n_segs * x.rate_hz * np.sum(win ** 2)))
    f = np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / x.rate_hz))
    with np.errstate(divide="ignore"):
        rel_db = 10.0 * np.log10(p / p.max())
    return PsdCurve(freq_hz=f, psd_db=rel_db,
                    resolution_hz=x.rate_hz / segment_len)


def evm_db(rx, ref) -> float:
    """10 log10 of error power over reference power, floored at -300 dB."""
    rx = np.asarray(rx).reshape(-1)
    ref = np.asarray(ref).reshape(-1)
    if len(rx) != len(ref) or len(ref) == 0:
        raise MetricsError("rx and ref must have equal, non-zero length")
    pref = np.sum(np.abs(ref) ** 2)
    if pref == 0:
        raise MetricsError("reference has zero energy")
    ratio = np.sum(np.abs(rx - ref) ** 2) / pref
    if ratio <= 10.0 ** (EVM_FLOOR_DB / 10.0):
        return EVM_FLOOR_DB
    return float(10.0 * np.log10(ratio))


# ---------------------------------------------------------------------------
# shared burst machinery

def _trial(sc: ScenarioConfig, k: int):
    """Trial k's composite burst, taken whole, with random payloads on
    every band, the payloads, their bits and the trial's noise seed; all
    depend only on (sc.seed, k)."""
    *band_seeds, noise_seed = np.random.SeedSequence(
        sc.seed, spawn_key=(k,)).spawn(len(sc.subbands) + 1)
    bits, payloads = zip(*(random_payload(sc, i, np.random.default_rng(s))
                           for i, s in enumerate(band_seeds)))
    return (build_composite(sc, payloads).signal(), payloads, bits,
            noise_seed)


@dataclass(frozen=True)
class SemiAnalyticRun:
    """One noiseless received burst, reusable across Eb/N0 points: the
    kernel's sigma-free tables and each point's noise gain, both
    read-only."""

    sc: ScenarioConfig
    cal: ReceiverCalibration
    tables: tuple               # modem.bit_error_tables of the burst
    noise_gain: np.ndarray      # per point, the subcarrier's noise gain

    def ber(self, ebn0_db: float) -> float:
        var_inj = noise_variance_for_ebn0(self.sc, self.cal, ebn0_db)
        sigma = np.sqrt(var_inj * self.noise_gain / 2.0)
        p = bit_error_probabilities(self.tables, self.sc.mod_order, sigma)
        return float(np.mean(p))


def semianalytic_run(sc: ScenarioConfig,
                     cals: dict[int, ReceiverCalibration]
                     ) -> dict[int, SemiAnalyticRun]:
    """Band index -> run for every band in ``cals`` (band index ->
    calibration), all received from one noiseless composite: trial 0's."""
    sig, payloads, _, _ = _trial(sc, 0)
    runs = {}
    for i, cal in cals.items():
        rx = receive_subband(sig, sc, i, cal)
        gain = np.tile(cal.noise_gain_per_subcarrier, rx.shape[0])
        gain.flags.writeable = False
        runs[i] = SemiAnalyticRun(
            sc=sc, cal=cal, noise_gain=gain,
            tables=bit_error_tables(rx.reshape(-1), payloads[i],
                                    sc.mod_order))
    return runs


def monte_carlo_curves(sc: ScenarioConfig,
                       cals: dict[int, ReceiverCalibration], ebn0_grid,
                       min_errors=DEFAULT_MIN_ERRORS,
                       max_bits=DEFAULT_MAX_BITS) -> dict[int, list[BerPoint]]:
    """Error-counting BER with interferers active, for every band in
    ``cals`` (band index -> calibration) at every Eb/N0 in the grid.

    Returns band index -> one BerPoint per grid point. Trial k's payloads
    and noise seed depend only on (sc.seed, k), so each trial's composite is
    built once and shared by every (band, point) pair still counting. Each
    pair draws its noise from a fresh generator on the trial's noise seed
    and stops on its own at min_errors or max_bits, whichever comes first,
    exactly as if it ran alone.
    """
    ebn0_grid = list(ebn0_grid)
    pairs = [(i, db, noise_variance_for_ebn0(sc, cal, db))
             for i, cal in cals.items() for db in ebn0_grid]
    n_err = [0] * len(pairs)
    n_bits = [0] * len(pairs)
    trial = 0
    while active := [p for p in range(len(pairs))
                     if n_err[p] < min_errors and n_bits[p] < max_bits]:
        sig, _, bits, noise_seed = _trial(sc, trial)
        for p in active:
            i, _, var_inj = pairs[p]
            noisy = awgn_from_rng(sig, var_inj,
                                  np.random.default_rng(noise_seed))
            rx = receive_subband(noisy, sc, i, cals[i])
            rx_bits = qam_demodulate(rx.reshape(-1), sc.mod_order)
            n_err[p] += int(np.sum(rx_bits != bits[i]))
            n_bits[p] += len(bits[i])
        trial += 1
    points = [BerPoint(ebn0_db=db, ber=e / b, n_bits=b, n_errors=e)
              for (_, db, _), e, b in zip(pairs, n_err, n_bits)]
    n = len(ebn0_grid)
    return {i: points[k * n:(k + 1) * n] for k, i in enumerate(cals)}


def monte_carlo_ber(sc: ScenarioConfig, i: int, ebn0_db: float,
                    min_errors=DEFAULT_MIN_ERRORS, max_bits=DEFAULT_MAX_BITS,
                    cal: ReceiverCalibration | None = None) -> BerPoint:
    """One band at one Eb/N0 point of ``monte_carlo_curves``."""
    if cal is None:
        cal = calibrate(sc, i)
    return monte_carlo_curves(sc, {i: cal}, [ebn0_db], min_errors,
                              max_bits)[i][0]


# ---------------------------------------------------------------------------
# Eb/N0 at a target BER

BISECT_LO_DB = -5.0
BISECT_HI_DB = 40.0
BISECT_BER_TOL = 1e-4
BISECT_DB_RESOLUTION = 0.01


def ebn0_for_target(run: SemiAnalyticRun, target: float) -> float:
    """Bisect Eb/N0 (dB) until the semi-analytic BER meets the target."""
    lo, hi = BISECT_LO_DB, BISECT_HI_DB
    f_lo = run.ber(lo) - target
    f_hi = run.ber(hi) - target
    if f_lo < 0 or f_hi > 0:
        raise MetricsError(
            f"target BER {target} not bracketed in [{lo}, {hi}] dB "
            f"(ber({lo})={f_lo + target:.4g}, ber({hi})={f_hi + target:.4g})")
    while hi - lo >= BISECT_DB_RESOLUTION / 10.0:
        mid = 0.5 * (lo + hi)
        f_mid = run.ber(mid) - target
        if abs(f_mid) <= BISECT_BER_TOL:
            return mid
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ebn0_at_target_ber(sc: ScenarioConfig, i: int, target) -> float:
    """Eb/N0 (dB) at which band i of sc, calibrated here, reaches the target
    BER semi-analytically, or NaN when the target is not bracketed (a
    distortion floor above it). The sweep calls it once per separation,
    on the scenario ``config.with_gap`` builds for that separation."""
    run = semianalytic_run(sc, {i: calibrate(sc, i)})[i]
    try:
        return ebn0_for_target(run, target)
    except MetricsError:
        return float("nan")
