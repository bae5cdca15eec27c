"""Per-sub-band burst construction (CP-OFDM / f-OFDM / w-OFDM) and the
multirate combiner that produces the composite baseband signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (ScenarioConfig, SubbandNumerology, center_frequencies,
                     composite_rate, subband_sample_rate,
                     symbols_per_band, upsampling_factor)
from .dsp import (ComplexSignal, convolve_full, design_interpolation_filter,
                  design_subband_filter, frequency_shift, upsample_zero_stuff,
                  wofdm_window)
from .modem import qam_modulate

MAX_INTERP_TAPS = 1025


class WaveformError(ValueError):
    pass


@dataclass(frozen=True)
class SubcarrierGrid:
    """Frequency-domain payload: one row per OFDM symbol, natural FFT bin
    order, zeros outside used_mask."""

    symbols: np.ndarray
    used_mask: np.ndarray

    @property
    def n_symbols(self):
        return self.symbols.shape[0]

    @property
    def n_fft(self):
        return self.symbols.shape[1]


@dataclass(frozen=True)
class BurstMeta:
    waveform: str
    samples_per_symbol_stride: int
    leading_delay: int
    total_len: int
    n_symbols: int


def used_subcarrier_bins(n_fft, n_used):
    """FFT bin indices of the used subcarriers: contiguous block centered on
    DC (shifted indices -n_used/2 .. n_used/2-1, DC included)."""
    d = np.arange(-n_used // 2, n_used - n_used // 2)
    return d % n_fft


def map_to_subcarriers(qam, nm: SubbandNumerology) -> SubcarrierGrid:
    qam = np.asarray(qam, dtype=np.complex128)
    if len(qam) % nm.n_used != 0:
        raise WaveformError(
            f"payload length {len(qam)} not divisible by n_used {nm.n_used}")
    n_sym = len(qam) // nm.n_used
    mask = used_subcarrier_bins(nm.n_fft, nm.n_used)
    grid = np.zeros((n_sym, nm.n_fft), dtype=np.complex128)
    grid[:, mask] = qam.reshape(n_sym, nm.n_used)
    return SubcarrierGrid(grid, mask)


def _ifft_symbols(grid):
    return np.fft.ifft(grid.symbols, axis=1)


def build_cp_ofdm(grid: SubcarrierGrid, nm: SubbandNumerology):
    """Plain CP-OFDM: per-symbol IFFT with the last n_cp samples prepended."""
    t = _ifft_symbols(grid)
    with_cp = np.concatenate([t[:, -nm.n_cp:] if nm.n_cp else t[:, :0], t],
                             axis=1)
    burst = with_cp.reshape(-1)
    stride = nm.n_fft + nm.n_cp
    meta = BurstMeta("cp-ofdm", stride, 0, len(burst), grid.n_symbols)
    return ComplexSignal(burst, subband_sample_rate(nm)), meta


def build_f_ofdm(grid: SubcarrierGrid, nm: SubbandNumerology):
    """CP-OFDM convolved with the band's windowed-sinc lowpass."""
    cp_sig, cp_meta = build_cp_ofdm(grid, nm)
    taps = design_subband_filter(nm.n_fft, nm.n_used, nm.r_subcarriers,
                                 nm.filter_len)
    sig = convolve_full(cp_sig, taps)
    meta = BurstMeta("f-ofdm", cp_meta.samples_per_symbol_stride,
                     taps.group_delay, len(sig), grid.n_symbols)
    return sig, meta


def build_w_ofdm(grid: SubcarrierGrid, nm: SubbandNumerology):
    """Windowed OFDM with prefix/suffix extension and overlap-add.

    The CP budget is split into a prefix of n_prefix samples and an
    effective CP of n_cp - n_prefix samples, so the stride matches CP-OFDM.
    Each extended symbol is shaped by the Blackman-edged window and its last
    n_prefix + 1 samples overlap the head of the next symbol.
    """
    if not (0 < nm.n_prefix < nm.n_cp):
        raise WaveformError("w-ofdm needs 0 < n_prefix < n_cp")
    n_cp_star = nm.n_cp - nm.n_prefix
    t = _ifft_symbols(grid)
    ext = np.concatenate(
        [t[:, -(n_cp_star + nm.n_prefix):], t, t[:, :nm.n_prefix + 1]], axis=1)
    win = wofdm_window(nm.n_fft, n_cp_star, nm.n_prefix, nm.n_transition)
    ext = ext * win[None, :]
    stride = nm.n_fft + nm.n_cp
    total = grid.n_symbols * stride + nm.n_prefix + 1
    burst = np.zeros(total, dtype=np.complex128)
    for k in range(grid.n_symbols):
        burst[k * stride:k * stride + ext.shape[1]] += ext[k]
    meta = BurstMeta("w-ofdm", stride, 0, total, grid.n_symbols)
    return ComplexSignal(burst, subband_sample_rate(nm)), meta


_BUILDERS = {
    "cp-ofdm": build_cp_ofdm,
    "f-ofdm": build_f_ofdm,
    "w-ofdm": build_w_ofdm,
}


def build_burst(qam, nm: SubbandNumerology, waveform: str):
    grid = map_to_subcarriers(qam, nm)
    try:
        builder = _BUILDERS[waveform]
    except KeyError:
        raise WaveformError(f"unknown waveform {waveform!r}") from None
    return builder(grid, nm)


def interpolation_filter_len(u, n_cp):
    if u == 1:
        return 1
    return min(8 * u * max(n_cp, 8) + 1, MAX_INTERP_TAPS)


def compose(bursts, sc: ScenarioConfig) -> ComplexSignal:
    """Zero-stuff, interpolate, shift and sum the per-band bursts.

    Group delays (band filter and interpolation filter) are compensated by
    discarding leading samples, so symbol 0 of every band starts at
    composite sample 0. An all-zero burst (calibration silences every band
    but one) adds nothing: it sets only its share of the composite length
    and is never interpolated or shifted.
    """
    if len(bursts) != len(sc.subbands):
        raise WaveformError("one burst per sub-band required")
    fs = composite_rate(sc)
    freqs = center_frequencies(sc)
    aligned = []
    total = 0
    for i, (sig, meta) in enumerate(bursts):
        nm = sc.subbands[i]
        u = upsampling_factor(sc, i)
        n_taps = interpolation_filter_len(u, nm.n_cp)
        skip = (n_taps - 1) // 2 + u * meta.leading_delay
        total = max(total, u * len(sig) + n_taps - 1 - skip)
        if not np.any(sig.samples):
            continue
        up = upsample_zero_stuff(sig, u)
        if u > 1:
            up = convolve_full(up, design_interpolation_filter(
                u, nm.n_used + nm.n_guard, u * nm.n_fft, n_taps))
        shifted = frequency_shift(ComplexSignal(up.samples[skip:], fs),
                                  freqs[i])
        aligned.append(shifted.samples)
    out = np.zeros(total, dtype=np.complex128)
    for a in aligned:
        out[:len(a)] += a
    return ComplexSignal(out, fs)


def build_composite(sc: ScenarioConfig, payloads):
    """Build all per-band bursts from QAM payloads and combine them.

    Returns (composite ComplexSignal, list of BurstMeta).
    """
    bursts = [build_burst(payloads[i], nm, sc.waveform)
              for i, nm in enumerate(sc.subbands)]
    sig = compose(bursts, sc)
    return sig, [m for _, m in bursts]


def payload_symbols(sc: ScenarioConfig, i: int) -> int:
    """QAM symbols needed for band i's burst."""
    return symbols_per_band(sc, i) * sc.subbands[i].n_used


def random_payload(sc: ScenarioConfig, i: int, rng, mod_order=None):
    """Fair random bits for band i's burst and their QAM symbols.

    mod_order defaults to the scenario's. Returns (bits, qam).
    """
    M = sc.mod_order if mod_order is None else mod_order
    k = int(np.log2(M))
    bits = rng.integers(0, 2, k * payload_symbols(sc, i), dtype=np.uint8)
    return bits, qam_modulate(bits, M)
