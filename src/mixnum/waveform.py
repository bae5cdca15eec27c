"""Per-sub-band burst construction (CP-OFDM / f-OFDM / w-OFDM) and the
multirate combiner that produces the composite baseband signal.
"""

from __future__ import annotations

import numpy as np

from .config import (ScenarioConfig, SubbandNumerology, _burst_layout,
                     center_frequencies, composite_length, composite_rate,
                     interpolation_filter_len, subband_sample_rate,
                     symbols_per_band, upsampling_factor)
from .dsp import (ComplexSignal, _fill, _multirate_pieces, _per_chunk,
                  _Stream, design_interpolation_filter, design_subband_filter,
                  interpolate_mix_sum, wofdm_window)
# not called here since the f-OFDM filter streams, but the benchmark's
# recorder test calls convolve_full through this binding (ROADMAP item 1)
from .dsp import convolve_full  # noqa: F401
from .modem import qam_modulate


def used_subcarrier_bins(n_fft, n_used):
    """FFT bin indices of the used subcarriers: contiguous block centered on
    DC (shifted indices -n_used/2 .. n_used/2-1, DC included)."""
    d = np.arange(-n_used // 2, n_used - n_used // 2)
    return d % n_fft


def map_to_subcarriers(qam, nm: SubbandNumerology) -> np.ndarray:
    """Frequency-domain payload as an (n_sym, n_fft) array: one row per OFDM
    symbol, natural FFT bin order, zeros outside the used bins."""
    qam = np.asarray(qam, dtype=np.complex128)
    n_sym = len(qam) // nm.n_used
    mask = used_subcarrier_bins(nm.n_fft, nm.n_used)
    grid = np.zeros((n_sym, nm.n_fft), dtype=np.complex128)
    grid[:, mask] = qam.reshape(n_sym, nm.n_used)
    return grid


def _cp_ofdm(grids, nm: SubbandNumerology):
    """Plain CP-OFDM pieces, a piece per grid: each symbol's IFFT in its row
    of n_cp + n_fft samples, after a CP copied from the row's tail. Every
    burst is made of these; f-OFDM filters them and w-OFDM windows them."""
    stride = nm.n_fft + nm.n_cp
    for grid in grids:
        piece = np.empty(len(grid) * stride, dtype=np.complex128)
        rows = piece.reshape(len(grid), stride)
        np.fft.ifft(grid, axis=1, out=rows[:, nm.n_cp:])
        rows[:, :nm.n_cp] = rows[:, nm.n_fft:]
        del grid, rows
        yield piece
        del piece  # dropped before the next piece is made


def _f_ofdm(cp: _Stream, nm: SubbandNumerology, n):
    """The CP-OFDM stream cp convolved with the band's windowed-sinc
    lowpass, as n samples: the filter's overlap-add reads cp as it needs it
    and gives its output a chunk of rows at a time, the row tail carried
    between chunks."""
    taps = design_subband_filter(nm.n_fft, nm.n_used, nm.r_subcarriers,
                                 nm.filter_len)
    return _multirate_pieces([(cp, taps.taps, 1, 0, _fill)], n)


def _w_ofdm(pieces, nm: SubbandNumerology):
    """Windowed OFDM: the CP-OFDM pieces windowed and overlap-added in place.

    The CP budget is split into a prefix of n_prefix samples and an
    effective CP of n_cp - n_prefix samples, so the stride matches CP-OFDM.
    Each extended symbol is shaped by the Blackman-edged window and its last
    n_prefix + 1 samples overlap the head of the next symbol.

    An extended symbol is a CP-OFDM symbol followed by a suffix, its first
    n_prefix + 1 samples. So only the suffixes are kept apart, windowed and
    added onto the next symbol; the last suffix is carried into the next
    piece, and after the last piece it is the burst's own last piece. The
    window is exactly 1 between its edges, so only the edges are
    multiplied.
    """
    stride = nm.n_fft + nm.n_cp
    overlap = nm.n_prefix + 1
    win = wofdm_window(nm.n_fft, nm.n_cp - nm.n_prefix, nm.n_prefix,
                       nm.n_transition)
    edge = nm.n_prefix + nm.n_transition // 2
    carry = None
    for piece in pieces:
        rows = piece.reshape(-1, stride)
        suffix = rows[:, nm.n_cp:nm.n_cp + overlap] * win[stride:]
        rows[:, :edge] *= win[:edge]
        rows[:, len(win) - edge:] *= win[len(win) - edge:stride]
        if carry is not None:
            rows[0, :overlap] += carry
        rows[1:, :overlap] += suffix[:-1]
        carry = suffix[-1]
        yield piece
        del piece, rows
    yield carry + 0.0  # the last suffix added onto zeros (-0.0 reads 0.0)


def _symbols_per_piece(nm: SubbandNumerology, waveform: str) -> int:
    """Symbols in each piece of band nm's streamed burst and payload: as
    many as make one overlap-add chunk, or for f-OFDM a quarter of that.
    The f-OFDM filter holds its own chunk of rows and output while it reads
    the CP-OFDM pieces, so each of those, and the subcarrier grid it is made
    from, is kept to a quarter of a chunk beside them."""
    stride = nm.n_fft + nm.n_cp
    return _per_chunk(stride * (4 if waveform == "f-ofdm" else 1))


def _burst_stream(qam, nm: SubbandNumerology, waveform: str,
                  per=None) -> _Stream:
    """Band burst of the QAM payload qam as a _Stream: CP-OFDM pieces of per
    symbols (by default _symbols_per_piece), then f-OFDM's filter or
    w-OFDM's window. Each piece's subcarrier grid is mapped from its slice
    of qam only when a read reaches it. qam is a sequence, which is only
    read, or a _Stream of the symbols, read once and in order:
    _payload_streams gives each band one whose pieces are these slices,
    drawn from its own generator, started on the one payload stream where
    the bits of the bands before it end."""
    step = (per or _symbols_per_piece(nm, waveform)) * nm.n_used
    grids = (map_to_subcarriers(qam[k:k + step], nm)
             for k in range(0, len(qam), step))
    n_sym = len(qam) // nm.n_used
    n = _burst_layout(nm, waveform, n_sym)[1]
    pieces = _cp_ofdm(grids, nm)
    if waveform == "f-ofdm":
        cp = _Stream(_burst_layout(nm, "cp-ofdm", n_sym)[1], pieces)
        pieces = _f_ofdm(cp, nm, n)
    elif waveform == "w-ofdm":
        pieces = _w_ofdm(pieces, nm)
    return _Stream(n, pieces)


def build_burst(qam, nm: SubbandNumerology, waveform: str) -> ComplexSignal:
    """Band burst of the QAM payload qam, taken whole."""
    per = max(len(qam) // nm.n_used, 1)
    return ComplexSignal(_burst_stream(qam, nm, waveform, per).whole(),
                         subband_sample_rate(nm))


def interpolation_filter(sc: ScenarioConfig, i: int):
    """(u, taps, skip) with which compose() takes band i to the composite
    rate: the upsampling factor, the anti-image filter (a unit tap at u = 1)
    and the samples it drops from the front, the taps' group delay plus u
    times the burst's leading delay."""
    nm, u = sc.subbands[i], upsampling_factor(sc, i)
    taps = design_interpolation_filter(u, interpolation_filter_len(u, nm.n_cp))
    # the leading delay is the same at any symbol count
    delay = _burst_layout(nm, sc.waveform, 0)[0]
    return u, taps, taps.group_delay + u * delay


def compose(bursts, sc: ScenarioConfig) -> _Stream:
    """Interpolate, shift and sum the per-band bursts into the composite:
    a _Stream of composite_length(sc) samples at the composite rate, made a
    new piece at a time as it is read in order (welch_psd), or joined into
    one array when it is taken whole (signal()); either is done once.

    bursts holds one signal per sub-band, a ComplexSignal or a _Stream of
    its samples that is read once, in order. Group delays (band filter and
    interpolation filter) are compensated by discarding the leading samples
    interpolation_filter names, so symbol 0 starts at composite sample 0.
    Each band is taken up to the composite rate at its own rate
    (dsp.interpolate_mix_sum), as if zero-stuffed, filtered and shifted
    there.
    """
    freqs = center_frequencies(sc)
    bands = []
    for i, sig in enumerate(bursts):
        u, taps, skip = interpolation_filter(sc, i)
        bands.append((sig, u, taps, freqs[i], skip))
    return interpolate_mix_sum(bands, composite_rate(sc),
                               composite_length(sc))


def build_composite(sc: ScenarioConfig, payloads) -> _Stream:
    """Build every band's burst from its QAM payload and combine them: the
    composite as compose's _Stream. Each burst is made a chunk of symbols
    at a time as compose reads it, so no whole burst or subcarrier grid
    exists at once, nor the composite unless it is taken whole. A payload
    is an array or a _Stream of its symbols (_payload_streams), and then
    no whole payload exists either."""
    return compose([_burst_stream(payloads[i], nm, sc.waveform)
                    for i, nm in enumerate(sc.subbands)], sc)


def payload_symbols(sc: ScenarioConfig, i: int) -> int:
    """QAM symbols needed for band i's burst."""
    return symbols_per_band(sc, i) * sc.subbands[i].n_used


def random_payload(sc: ScenarioConfig, i: int, rng, mod_order=None):
    """Fair random bits for band i's burst and their QAM symbols.

    mod_order defaults to the scenario's. Returns (bits, qam).
    """
    M = sc.mod_order if mod_order is None else mod_order
    return _draw_qam(rng, payload_symbols(sc, i), M)


def _draw_qam(rng, n_symbols, M):
    """Fair random bits for n_symbols M-QAM symbols, drawn from rng, and
    their symbols: (bits, qam). The one draw of random_payload and of
    _payload_streams' pieces, so that the two give the same bytes."""
    bits = rng.integers(0, 2, int(np.log2(M)) * n_symbols, dtype=np.uint8)
    return bits, qam_modulate(bits, M)


def _payload_streams(sc: ScenarioConfig, seed_seq) -> list:
    """Every band's QAM payload as a _Stream, with the bytes that
    random_payload gives for bands 0, 1, ... in turn from one
    default_rng(seed_seq). Each band draws its bits from its own generator
    and maps them a burst piece (_symbols_per_piece) at a time, only when a
    read reaches them, so the bands can be read side by side and no whole
    payload exists.

    Band i's generator is positioned on seed_seq's stream after the bits of
    bands 0..i-1, one PCG64 step per 8 bits: integers(0, 2, n, dtype=uint8)
    takes one byte per bit from numpy's buffered 32-bit outputs, a 64-bit
    step giving two, and never rejects. Every band's bit count, and every
    piece's, is k * n_used per symbol, a multiple of 8 as n_used is a
    multiple of 12 and k >= 2, so each uses up whole steps.
    """
    k = int(np.log2(sc.mod_order))

    def pieces(rng, n, step):
        for a in range(0, n, step):
            yield _draw_qam(rng, min(step, n - a), sc.mod_order)[1]

    streams, steps = [], 0
    for i, nm in enumerate(sc.subbands):
        n = payload_symbols(sc, i)
        bitgen = np.random.PCG64(seed_seq)
        bitgen.advance(steps)
        streams.append(_Stream(n, pieces(
            np.random.Generator(bitgen), n,
            _symbols_per_piece(nm, sc.waveform) * nm.n_used)))
        steps += k * n // 8
    return streams
