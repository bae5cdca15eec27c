"""AWGN channel and the single-sub-band receiver: down-convert, filter,
decimate, strip prefixes, FFT, extract and equalize the used subcarriers.

The receiver is calibrated once per (scenario, band): a noiseless
known-symbol run fixes the one-tap per-subcarrier equalizer, and a
noise-only run measures how injected composite-rate noise scales into
per-subcarrier variance at the demapper. Both measurements together anchor
the Eb/N0 convention at the demapper input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil

import numpy as np

from .config import (ScenarioConfig, center_frequencies, composite_rate,
                     scenario_hash, symbols_per_band, upsampling_factor)
from .dsp import (ComplexSignal, FilterTaps, convolve_full,
                  design_subband_filter, frequency_shift)
from .waveform import (build_burst, compose, random_payload,
                       used_subcarrier_bins)

CAL_MIN_SYMBOLS = 256


class LinkError(ValueError):
    pass


def awgn_from_rng(x: ComplexSignal, variance, rng) -> ComplexSignal:
    """Add circular complex Gaussian noise of the given per-sample variance,
    drawn from a caller-managed generator (one substream per trial)."""
    if variance < 0:
        raise LinkError("noise variance must be non-negative")
    if variance == 0:
        return x
    s = np.sqrt(variance / 2.0)
    noise = s * (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
    return ComplexSignal(x.samples + noise, x.rate_hz)


@dataclass(frozen=True)
class ReceiverCalibration:
    eq_coeffs: np.ndarray
    es_per_subcarrier: np.ndarray
    noise_gain_per_subcarrier: np.ndarray
    scenario_hash: str
    band: int

    @property
    def mean_noise_gain(self):
        return float(np.mean(self.noise_gain_per_subcarrier))


def receive_filter(sc: ScenarioConfig, i: int) -> FilterTaps:
    """Band-select lowpass at the composite rate: the band's windowed-sinc
    design with length scaled by the upsampling factor, so its time extent
    (and hence its self-interference) matches the transmit filter's."""
    nm = sc.subbands[i]
    u = upsampling_factor(sc, i)
    length = u * (nm.filter_len - 1) + 1
    return design_subband_filter(u * nm.n_fft, nm.n_used, nm.r_subcarriers,
                                 length)


def receive_subband(y: ComplexSignal, sc: ScenarioConfig, i: int,
                    cal: ReceiverCalibration | None = None):
    """Recover the equalized used-subcarrier points of band i.

    y must be at the composite rate with symbol 0 starting at sample 0 (the
    compose() alignment). Returns an (n_symbols, n_used) complex array in
    payload order; pass cal=None for raw (unequalized) points.
    """
    nm = sc.subbands[i]
    if cal is not None and cal.scenario_hash != scenario_hash(sc):
        raise LinkError("calibration does not match this scenario")
    if cal is not None and cal.band != i:
        raise LinkError(f"calibration is for band {cal.band}, not {i}")
    fs = composite_rate(sc)
    if y.rate_hz != fs:
        raise LinkError(f"signal rate {y.rate_hz} != composite rate {fs}")
    u = upsampling_factor(sc, i)
    x = frequency_shift(y, -center_frequencies(sc)[i]).samples
    if sc.rx_filter:
        taps = receive_filter(sc, i)
        x = convolve_full(ComplexSignal(x, fs), taps).samples
        x = x[taps.group_delay:]
    x = x[::u]
    n_sym = symbols_per_band(sc, i)
    stride = nm.n_fft + nm.n_cp
    offset = nm.n_cp
    need = (n_sym - 1) * stride + offset + nm.n_fft
    if len(x) < need:
        raise LinkError(f"burst too short for {n_sym} symbols of band {i}")
    idx = (np.arange(n_sym)[:, None] * stride + offset
           + np.arange(nm.n_fft)[None, :])
    segs = x[idx]
    spec = np.fft.fft(segs, axis=1)
    points = spec[:, used_subcarrier_bins(nm.n_fft, nm.n_used)]
    if cal is not None:
        points = points * cal.eq_coeffs[None, :]
    return points


def _calibration_scenario(sc: ScenarioConfig, i: int) -> ScenarioConfig:
    u = upsampling_factor(sc, i)
    u_max = max(upsampling_factor(sc, k) for k in range(len(sc.subbands)))
    n_needed = ceil(CAL_MIN_SYMBOLS * u / u_max)
    if sc.n_symbols >= n_needed:
        return sc
    return replace(sc, n_symbols=n_needed)


def calibrate(sc: ScenarioConfig, i: int,
              seed: int | None = None) -> ReceiverCalibration:
    """One-tap equalizer, symbol energy and noise gain for band i.

    Equalization is measured on a noiseless single-band run so that ACI from
    the other bands stays an impairment rather than being equalized away.
    sc.eq_mode selects a per-subcarrier tap (flattens the band exactly) or a
    single scalar tap for the whole band (gain/phase only, leaving the
    filters' in-band shape uncompensated).
    """
    sc_cal = _calibration_scenario(sc, i)
    ss = np.random.SeedSequence(sc.seed if seed is None else seed,
                                spawn_key=(0xCA1, i))
    rng_sym, rng_noise = [np.random.default_rng(s) for s in ss.spawn(2)]
    nm = sc_cal.subbands[i]
    _, qam = random_payload(sc_cal, i, rng_sym, mod_order=4)
    sig = compose([build_burst(qam, nm, sc_cal.waveform) if k == i else None
                   for k in range(len(sc_cal.subbands))], sc_cal)
    tx = qam.reshape(-1, nm.n_used)
    rx = receive_subband(sig, sc_cal, i)
    small = np.abs(rx).min(axis=0) < 1e-12
    if np.any(small):
        bad = int(np.argmax(small))
        raise LinkError(f"degenerate response on used subcarrier {bad}")
    eq = np.mean(tx / rx, axis=0)
    if sc.eq_mode == "scalar":
        # least-squares common tap: argmin_s sum_k |s h_k - 1|^2
        h = 1.0 / eq
        eq = np.full_like(eq, np.vdot(h, np.ones_like(h)) / np.vdot(h, h))
    es = np.mean(np.abs(rx * eq[None, :]) ** 2, axis=0)
    noise = awgn_from_rng(ComplexSignal(np.zeros(len(sig)), sig.rate_hz),
                          1.0, rng_noise)
    out = receive_subband(noise, sc_cal, i) * eq[None, :]
    gain = np.mean(np.abs(out) ** 2, axis=0)
    return ReceiverCalibration(eq_coeffs=eq, es_per_subcarrier=es,
                               noise_gain_per_subcarrier=gain,
                               scenario_hash=scenario_hash(sc), band=i)


def noise_variance_for_ebn0(sc: ScenarioConfig, cal: ReceiverCalibration,
                            ebn0_db: float) -> float:
    """Composite-rate complex noise variance realizing the given Eb/N0 at
    the demapper: sigma2_sub = Es / (log2(M) * EbN0), referred back through
    the measured noise gain."""
    gamma = 10.0 ** (ebn0_db / 10.0)
    k = np.log2(sc.mod_order)
    sigma2_sub = float(np.mean(cal.es_per_subcarrier)) / (k * gamma)
    return sigma2_sub / cal.mean_noise_gain
