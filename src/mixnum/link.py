"""AWGN channel and the single-sub-band receiver.

The receiver has two halves. Its front end takes the composite signal down
to the band's own rate in one step: the down-conversion rides on the
band-select filter's taps, and the filter computes only the samples that
decimation keeps (dsp.mix_filter_decimate). Its demodulation tail FFTs
each symbol in place, then extracts and equalizes the used subcarriers.

The receiver is calibrated once per (scenario, band): a noiseless
known-symbol run fixes the one-tap per-subcarrier equalizer, and a
noise-only run measures how injected composite-rate noise scales into
per-subcarrier variance at the demapper. Both measurements together anchor
the Eb/N0 convention at the demapper input. The noiseless run builds no
composite: zero-stuffing, interpolation, the shift up and back down (which
cancel), the receive filter and decimation are together one band-rate FIR
on the band's own burst, and calibration shares the demodulation tail with
traffic. The noise run is traffic's front end with its block rows given:
only its taps, which carry the mixer, change with the guard separation,
so the kept item is the noise's block spectra, transformed once per band,
and a separation sweep applies each m's mixed receive taps to them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil

import numpy as np

from .config import (ScenarioConfig, center_frequencies, composite_length,
                     composite_rate, scenario_hash, symbols_per_band,
                     upsampling_factor)
from .dsp import (ComplexSignal, FilterTaps, _block_spectra, _fill,
                  _mix_filter_decimate, _multirate, convolve_full,
                  design_subband_filter, mix_filter_decimate)
from .waveform import (build_burst, interpolation_filter, random_payload,
                       used_subcarrier_bins)

CAL_MIN_SYMBOLS = 256


class LinkError(ValueError):
    pass


def _complex_noise(views, variance, rng):
    """Fill the views, in order, with circular complex Gaussian noise of the
    given variance: the real parts of all of them are drawn before the
    imaginary parts, so any split of n samples gives the same noise. Each
    view's normals are drawn as one array (one block row in calibration)."""
    for view in views:
        view.real = rng.standard_normal(view.shape)
    for view in views:
        view.imag = rng.standard_normal(view.shape)
    for view in views:
        view *= np.sqrt(variance / 2.0)


def awgn_from_rng(x: ComplexSignal, variance, rng) -> ComplexSignal:
    """Add circular complex Gaussian noise of the given per-sample variance,
    drawn from a caller-managed generator (one substream per trial)."""
    noise = np.empty(len(x), dtype=np.complex128)
    _complex_noise([noise], variance, rng)
    noise += x.samples
    return ComplexSignal(noise, x.rate_hz)


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


def _receive_taps(sc: ScenarioConfig, i: int) -> FilterTaps:
    """The band-select filter, or a unit tap when the scenario has none."""
    if sc.rx_filter:
        return receive_filter(sc, i)
    return FilterTaps(np.ones(1))


def _demodulate(x, sc: ScenarioConfig, i: int, eq=None):
    """Used-subcarrier points of band i from its samples x at the band's own
    rate, symbol 0 at sample 0: each symbol's window is FFT'd in place, over
    x, and its used bins picked in payload order and, given eq, equalized."""
    nm = sc.subbands[i]
    n_sym = symbols_per_band(sc, i)
    stride = nm.n_fft + nm.n_cp
    segs = x[:n_sym * stride].reshape(n_sym, stride)[:, nm.n_cp:]
    np.fft.fft(segs, axis=1, out=segs)
    points = segs[:, used_subcarrier_bins(nm.n_fft, nm.n_used)]
    if eq is not None:
        points *= eq[None, :]
    return points


def receive_subband(y: ComplexSignal, sc: ScenarioConfig, i: int,
                    cal: ReceiverCalibration | None = None):
    """Recover the equalized used-subcarrier points of band i.

    y must be at the composite rate with symbol 0 starting at sample 0 (the
    compose() alignment). Returns an (n_symbols, n_used) complex array in
    payload order; pass cal=None for raw (unequalized) points.
    """
    if cal is not None and cal.scenario_hash != scenario_hash(sc):
        raise LinkError("calibration does not match this scenario")
    if cal is not None and cal.band != i:
        raise LinkError(f"calibration is for band {cal.band}, not {i}")
    fs = composite_rate(sc)
    if y.rate_hz != fs:
        raise LinkError(f"signal rate {y.rate_hz} != composite rate {fs}")
    x = mix_filter_decimate(y, -center_frequencies(sc)[i],
                            _receive_taps(sc, i), upsampling_factor(sc, i))
    return _demodulate(x.samples, sc, i,
                       None if cal is None else cal.eq_coeffs)


def _single_band_rx(burst: ComplexSignal, sc: ScenarioConfig, i: int):
    """Band-rate samples the front end would give for band i's burst
    composed alone, computed without the composite.

    compose() is, to rounding, zero-stuffing the burst by u, filtering it
    with h_i, dropping the first skip samples and shifting it up; the front
    end shifts it back down, filters with h_r and keeps every u-th sample
    from c = skip + gd_r on. The shifts cancel, so but for the dropped head
    this is the polyphase branch g[c mod u::u] of g = h_i * h_r running on
    the burst itself. The branch is symmetric and odd-length, centred on
    g's centre, so its output for composite sample c sits at c // u. The
    dropped head reaches only the first gd_r/u outputs, and its share is
    subtracted there.
    """
    u, h_i, skip = interpolation_filter(sc, i)
    h_r = _receive_taps(sc, i)
    c = skip + h_r.group_delay
    g = _multirate([(h_i.taps, h_r.taps, 1, 0, _fill)],
                   len(h_i) + len(h_r) - 1)
    branch = g.real[c % u::u]
    branch = FilterTaps(0.5 * (branch + branch[::-1]))
    rx = convolve_full(burst, branch).samples[c // u:]
    head = _multirate([(burst.samples, h_i.taps, u, 0, _fill)], skip)
    lost = _multirate([(head, h_r.taps, 1, c, _fill)],
                      len(range(c, skip + len(h_r) - 1, u)), u)
    rx[:len(lost)] -= lost
    return rx


def _calibration_scenario(sc: ScenarioConfig, i: int) -> ScenarioConfig:
    u = upsampling_factor(sc, i)
    u_max = max(upsampling_factor(sc, k) for k in range(len(sc.subbands)))
    return replace(sc, n_symbols=max(sc.n_symbols,
                                     ceil(CAL_MIN_SYMBOLS * u / u_max)))


def _calibration_rng(seed, i, child):
    """Generator of calibration stream `child` for band i: 0 feeds the
    payload, 1 the noise run."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0xCA1, i, child)))


# the last noise run's spectra by (seed, band, length, filter length, u)
_CAL_SPECTRA: dict = {}


def _noise_spectra(seed, i, n, h, u):
    """Read-only front-end block spectra of n samples of band i's unit
    noise for len(h) receive taps at decimation u. Only the last entry is
    kept: a miss drops it before anything is drawn (lru_cache would evict
    after drawing), the one place in this module that drops it. The noise
    is drawn straight into the block rows, through one view per row, so
    its samples never exist on their own: range(n) stands for them."""
    key = (seed, i, n, len(h), u)
    if key not in _CAL_SPECTRA:
        _CAL_SPECTRA.clear()
        rng = _calibration_rng(seed, i, 1)

        def draw(views, x, k):
            # samples the layout cuts are drawn too, so the stream is unchanged
            cut = np.empty(n - sum(map(len, views)), dtype=np.complex128)
            _complex_noise(views + [cut], 1.0, rng)

        spectra = _block_spectra(range(n), h, u, draw)
        spectra.flags.writeable = False
        _CAL_SPECTRA[key] = spectra
    return _CAL_SPECTRA[key]


def _noiseless_run(sc_cal: ScenarioConfig, i: int, seed, eq_mode):
    """Equalizer and per-subcarrier symbol energy of band i from its
    known-symbol calibration burst, received alone without noise."""
    nm = sc_cal.subbands[i]
    _, qam = random_payload(sc_cal, i, _calibration_rng(seed, i, 0),
                            mod_order=4)
    tx = qam.reshape(-1, nm.n_used)
    burst = build_burst(qam, nm, sc_cal.waveform)
    rx = _demodulate(_single_band_rx(burst, sc_cal, i), sc_cal, i)
    small = np.abs(rx).min(axis=0) < 1e-12
    if np.any(small):
        bad = int(np.argmax(small))
        raise LinkError(f"degenerate response on used subcarrier {bad}")
    eq = np.mean(tx / rx, axis=0)
    if eq_mode == "scalar":
        # least-squares common tap: argmin_s sum_k |s h_k - 1|^2
        h = 1.0 / eq
        eq = np.full_like(eq, np.vdot(h, np.ones_like(h)) / np.vdot(h, h))
    return eq, np.mean(np.abs(rx * eq[None, :]) ** 2, axis=0)


def calibrate(sc: ScenarioConfig, i: int) -> ReceiverCalibration:
    """One-tap equalizer, symbol energy and noise gain for band i.

    Equalization is measured on a noiseless single-band run so that ACI from
    the other bands stays an impairment rather than being equalized away.
    sc.eq_mode selects a per-subcarrier tap (flattens the band exactly) or a
    single scalar tap for the whole band (gain/phase only, leaving the
    filters' in-band shape uncompensated). The noise gain comes from unit
    white noise of the composite's length through the receiver; the kept
    item is the noise's block spectra, transformed once per band; another
    band's stay through the noiseless run, until _noise_spectra misses.
    """
    sc_cal = _calibration_scenario(sc, i)
    n, fs = composite_length(sc_cal), composite_rate(sc_cal)
    h_r, u = _receive_taps(sc_cal, i), upsampling_factor(sc_cal, i)
    eq, es = _noiseless_run(sc_cal, i, sc.seed, sc.eq_mode)
    x = _mix_filter_decimate(range(n), fs, -center_frequencies(sc_cal)[i],
                             h_r, u, _noise_spectra(sc.seed, i, n, h_r, u))
    out = _demodulate(x.samples, sc_cal, i) * eq[None, :]
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
