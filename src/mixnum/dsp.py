"""Complex-baseband signal primitives: FFT, filtering, resampling, windows.

All arithmetic is double precision. The DFT pair is numpy's: forward
unscaled, inverse scaled by 1/N, so Parseval reads sum|x|^2 = sum|X|^2 / N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import isqrt, log2

import numpy as np

# Smallest overlap-add FFT: below it a block is all per-FFT overhead.
_OLA_MIN_FFT = 64


class DspError(ValueError):
    pass


@dataclass(frozen=True)
class ComplexSignal:
    """Complex baseband samples annotated with their sampling rate."""

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self):
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.complex128))
        if self.rate_hz <= 0:
            raise DspError("rate_hz must be positive")

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True, init=False)
class FilterTaps:
    """Real, odd-length, symmetric FIR coefficients (linear phase), whose
    group delay is (L-1)/2 samples. The taps are a read-only copy, as one
    design is shared by every caller. A group_delay passed in is checked
    against that value."""

    taps: np.ndarray

    def __init__(self, taps, group_delay=None):
        taps = np.array(taps, dtype=np.float64)
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)
        if len(taps) % 2 == 0:
            raise DspError("filter length must be odd")
        if group_delay is not None and group_delay != self.group_delay:
            raise DspError("group_delay must be (L-1)/2")
        if not np.allclose(taps, taps[::-1], atol=1e-15, rtol=0):
            raise DspError("taps must be symmetric")

    def __len__(self):
        return len(self.taps)

    @property
    def group_delay(self):
        return (len(self.taps) - 1) // 2


def _windowed_sinc(cutoff_two_sided_bins, n_fft, filter_len):
    """Truncated sinc at the given two-sided passband width, raised-cosine
    windowed (exponent 0.6) and normalized to unit DC gain."""
    half = (filter_len - 1) // 2
    n = np.arange(-half, half + 1, dtype=np.float64)
    p = np.sinc(cutoff_two_sided_bins * n / n_fft)
    if filter_len == 1:
        w = np.ones(1)
    else:
        # argument written as pi*(n/half) so the edges hit cos(pi) = -1
        # exactly and the edge taps are true zeros
        w = (0.5 * (1.0 + np.cos(np.pi * (n / half)))) ** 0.6
    taps = p * w
    taps = 0.5 * (taps + taps[::-1])  # exact symmetry
    taps = taps / taps.sum()
    return FilterTaps(taps)


@lru_cache(maxsize=64)
def design_subband_filter(n_fft, n_used, r_subcarriers, filter_len) -> FilterTaps:
    """Sub-band lowpass: passband covers n_used + 2*r_subcarriers bins of an
    n_fft grid, windowed-sinc construction, unit DC gain.

    r_subcarriers is the one-sided transition width in subcarrier units and
    may be fractional. Designs are memoized: a repeated design returns the
    same FilterTaps. ScenarioConfig admits only bands whose passband fits
    the grid.
    """
    return _windowed_sinc(n_used + 2.0 * r_subcarriers, n_fft, filter_len)


@lru_cache(maxsize=64)
def design_interpolation_filter(u, filter_len) -> FilterTaps:
    """Anti-image lowpass for zero-stuffed interpolation by factor u.

    Cutoff sits at half the original sampling rate, a two-sided passband of
    1/u of the interpolated band: halfway between the occupied band edge
    and the first spectral image. Passband gain is u so interpolation
    preserves per-band amplitude; u = 1 with one tap is the unit tap.
    Memoized like design_subband_filter.
    """
    return FilterTaps(_windowed_sinc(1, u, filter_len).taps * u)


def blackman_transition(n_tr):
    """Uphill edge of the symbol-shaping window, length n_tr (even).

    w(n) = 0.42 - 0.5 cos(pi n / n_tr) + 0.08 cos(2 pi n / n_tr); starts at
    exactly 0 and is monotone non-decreasing on its support.
    """
    n = np.arange(n_tr, dtype=np.float64)
    w = (0.42 - 0.5 * np.cos(np.pi * (n / n_tr))
         + 0.08 * np.cos(2.0 * np.pi * (n / n_tr)))
    w[:1] = 0.0  # analytic value; the float sum of the coefficients is ~1e-17
    return w


def wofdm_window(n_fft, n_cp_star, n_prefix, n_tr):
    """Time-domain window for one extended w-OFDM symbol.

    Layout: [zeros, uphill, ones, downhill, zeros]; total length
    n_fft + n_cp_star + 2*n_prefix + 1. Palindromic by construction.
    """
    up = blackman_transition(n_tr)
    pad = np.zeros(n_prefix - n_tr // 2)
    ones = np.ones(n_fft + n_cp_star - n_tr + 1)
    return np.concatenate([pad, up, ones, up[::-1], pad])


def frequency_shift(x: ComplexSignal, f_hz: float) -> ComplexSignal:
    """Multiply by exp(+j 2 pi f n / fs); magnitudes unchanged.

    The one mixer of the chain. mix_filter_decimate() shifts its output
    back down with it, into a copy, and interpolate_mix_sum() applies the
    same phasor to each band at the band's own rate as it writes or adds
    the band; both move the composite-rate part of the shift onto their
    filter taps. The phasor is the outer product of about sqrt(n)
    block-start phasors and about sqrt(n) in-block phasors (_phasor_table),
    in pieces of at most _PHASOR_PIECE samples (_phasor_pieces), so it
    costs two short exp tables and one complex multiply per sample instead
    of an exp per sample, for any |f_hz| up to fs/2.
    """
    if f_hz == 0.0:
        return x
    out = np.empty(len(x), dtype=np.complex128)
    _shift_into(out, x.samples, _phasor_table(len(x), f_hz, x.rate_hz), 0)
    return ComplexSignal(out, x.rate_hz)


# phasor samples made at a time: pieces stay small, and no phasor the
# length of the signal is ever made
_PHASOR_PIECE = 1 << 14


def _phasor_table(n, f_hz, rate_hz):
    """The two exp tables of frequency_shift's phasor for n samples at
    rate_hz: sample k = r*block + c, block = isqrt(n), is starts[r] *
    steps[c]. Returns (starts, steps)."""
    block = max(1, isqrt(n))
    w = 2j * np.pi * f_hz / rate_hz
    return (np.exp(w * (block * np.arange(-(-n // block)))),
            np.exp(w * np.arange(block)))


def _phasor_pieces(table, k, m):
    """Yield (j, p) in order, p being the phasor's samples k+j onwards, until
    the pieces cover samples k..k+m-1. Each p is at most _PHASOR_PIECE
    samples cut from the outer product of the table's rows that it spans, and
    ends at the last row end within that reach, if there is one: each sample
    is the one product starts[r] * steps[c] wherever the pieces are cut."""
    starts, steps = table
    block = len(steps)
    j = 0
    while j < m:
        r, c = divmod(k + j, block)
        rows = min(max(1, (c + _PHASOR_PIECE) // block),
                   -(-(c + m - j) // block))
        p = np.multiply.outer(starts[r:r + rows], steps).reshape(-1)
        p = p[c:c + min(m - j, _PHASOR_PIECE)]
        yield j, p
        j += len(p)


def _shift_into(out, x, table, k):
    """out[:] = x times the phasor's samples k..k+len(x)-1, piece by piece;
    x itself is left as it is."""
    for j, p in _phasor_pieces(table, k, len(x)):
        np.multiply(p, x[j:j + len(p)], out=out[j:j + len(p)])


def _ola_fft_len(n_taps, u=1):
    """Power-of-two overlap-add FFT length >= 2L-1 (and >= 2u) with the
    least FFT work per sample: an FFT of nfft at the fast rate and one of
    nfft/u at the slow rate per block of about nfft-L+1 fast-rate samples,
    u being the rate change. That cost falls and then rises as nfft
    doubles."""
    nfft = max(_OLA_MIN_FFT, 2 * u, 1 << (2 * n_taps - 2).bit_length())

    def cost(n):
        return (n * log2(n) + n / u * log2(n / u)) / ((n - n_taps + 1) // u)

    while cost(2 * nfft) < cost(nfft):
        nfft *= 2
    return nfft


def _block_rows(n, hop, width, lead, j0, j1):
    """Rows j0..j1-1 of the overlap-add block layout of n samples: zeroed
    rows of width, row j holding the samples from j*hop - lead on, hop to
    a row (row 0 opens with lead < hop zeros). Returns the rows, the first
    sample k that they hold and three views of them, which samples k, k+1,
    ... fill in order, each view row by row."""
    k = min(max(j0 * hop - lead, 0), n)
    m = min(max(j1 * hop - lead, 0), n) - k
    lead = lead if j0 == 0 else 0
    rows = np.zeros((j1 - j0, width), dtype=np.complex128)
    first = min(hop - lead, m)
    full, last = divmod(m - first, hop)
    return rows, k, (rows[:1, lead:lead + first], rows[1:1 + full, :hop],
                     rows[1 + full:2 + full, :last])


def _fill(views, x, k):
    """Copy x from sample k on into the views in order, as far as they
    reach, a row at a time: a _Stream x is then read a row at a time, so
    no read joins copies of the pieces that a whole view spans."""
    for view in views:
        for row in view:
            row[...] = x[k:k + len(row)]
            k += len(row)


def _fill_shifted(views, x, k, table):
    """_fill of x shifted by table's phasor (_phasor_table of all of x),
    written row by row: no shifted copy of x is made, and phasor sample k
    is the same product wherever the rows are cut."""
    for view in views:
        for row in view:
            _shift_into(row, x[k:k + len(row)], table, k)
            k += len(row)


# block points of overlap-add rows made at a time: a chunk's rows stay
# small, and _multirate makes no block array the length of its signal
_OLA_CHUNK = 1 << 17


def _per_chunk(width):
    """Items of width points that make one chunk of about _OLA_CHUNK
    points, at least one: overlap-add rows, or the symbols of a burst that
    is made in pieces."""
    return max(1, _OLA_CHUNK // width)


class _Stream:
    """The n samples of a signal made in consecutive pieces, read once and
    in order: x[k:k + m] gives samples k..k+m-1 for a k at or past the end
    of the previous read, a view of one piece or, where the samples span
    pieces, a copy. pieces is the iterator that makes them, each a new
    array; a piece is made only when a read reaches it and dropped before
    the next one is made, so only the piece being read is kept. Instead of
    any read, whole() takes all n samples at once. rate_hz is the sampling
    rate, where the stream carries one (the composite does)."""

    def __init__(self, n, pieces, rate_hz=None):
        self._n = n
        self._pieces = pieces
        self._piece = np.zeros(0, dtype=np.complex128)
        self._at = 0  # the sample that _piece starts with
        self._next = 0  # the first sample that a read may ask for
        self.rate_hz = rate_hz

    def __len__(self):
        return self._n

    def __getitem__(self, cut):
        k, stop = cut.start, min(cut.stop, self._n)
        if k < self._next:
            raise DspError(f"a stream is read once, in order: sample {k} "
                           f"comes before {self._next}")
        self._next = max(k, stop)
        n, taken = max(stop - k, 0), []
        while k < stop:
            end = self._at + len(self._piece)
            if k >= end:
                self._piece = None  # dropped before the next is made
                self._at, self._piece = end, next(self._pieces)
                continue
            cut = slice(k - self._at, stop - self._at)
            k = min(end, stop)
            # a part that the next piece continues is copied, so that no
            # view keeps this piece alive while the next one is made
            taken.append(self._piece[cut] if k == stop
                         else self._piece[cut].copy())
        return _joined(n, taken)

    def whole(self):
        """All n samples of a stream not yet read, as one array
        (_joined)."""
        if self._next:
            raise DspError("a stream is taken whole only before any read")
        self._next = self._n + 1  # no read or whole() after this one
        return _joined(self._n, self._pieces)

    def signal(self):
        """whole() as a ComplexSignal at the stream's rate."""
        return ComplexSignal(self.whole(), self.rate_hz)


def _joined(n, pieces):
    """The n samples that pieces yields in order, as one array: a lone
    piece as it is, else each piece copied into one new array and dropped
    before the next one is made."""
    out, k = None, 0
    for piece in pieces:
        if out is None:
            out = (piece if len(piece) == n
                   else np.empty(n, dtype=np.complex128))
        if piece is not out:
            out[k:k + len(piece)] = piece
        k += len(piece)
        del piece
    return np.zeros(n, dtype=np.complex128) if out is None else out


def _overlap_add(spectra, nfft, head, hop, n_rows, n_out):
    """Yield n_out samples from sample head*hop on of the overlap-add of
    block rows 0..n_rows-1, row j starting at sample j*hop, one new array
    per chunk of about _OLA_CHUNK block points of nfft, rows r0..r1-1 of
    which spectra(r0, r1) gives folded. A chunk is inverse FFT'd in place,
    each row's tail (at most hop long, as nfft >= 2L-1) is added onto the
    next row's head and the carried tail onto the first, and the heads that
    reach the output are copied into its piece: every sample is one head
    plus at most one tail. Rows before head - 1 reach no output sample and
    are not asked for."""
    per = _per_chunk(nfft)
    carry = None
    for r0 in range(max(head - 1, 0), n_rows, per):
        r1 = min(r0 + per, n_rows)
        acc = spectra(r0, r1)
        np.fft.ifft(acc, axis=1, out=acc)
        k = (r0 - head) * hop
        # made at its own length while acc is alive: a view of a larger
        # array put ber's peak RSS 7-9 MB higher (glibc heap trimming)
        piece = np.empty(min((r1 - head) * hop, n_out) - max(k, 0),
                         dtype=np.complex128)
        tail = acc.shape[1] - hop
        if carry is not None:
            acc[0, :tail] += carry
        acc[1:, :tail] += acc[:-1, hop:]
        carry = acc[-1, hop:].copy()
        heads = acc[int(k < 0):, :hop]  # row head - 1 adds only its tail
        full, rest = divmod(len(piece), hop)
        piece[:full * hop].reshape(full, hop)[...] = heads[:full]
        piece[full * hop:] = heads[full:].reshape(-1)[:rest]
        del acc, heads  # freed before the consumer, which may make rows, runs
        yield piece
        del piece  # and the piece before the next one is made


def _taps_spectrum(taps, nfft, u, d):
    """The taps' nfft-point spectrum over d, as u rows of nfft/u bins."""
    padded = np.zeros(nfft, dtype=np.complex128)
    padded[:len(taps)] = taps
    return (np.fft.fft(padded) / d).reshape(u, nfft // u)


def _fold_product(rows, spectrum, d):
    """The product of block spectra rows and a spectrum given as d rows of
    nfft/d bins, folded d times as it is formed: at d = 1 in place in rows
    when they may be written, else a row at a time into one new array."""
    rows = rows.reshape(len(rows), d, -1)
    if d == 1 and rows.flags.writeable:
        return np.multiply(rows[:, 0], spectrum[0], out=rows[:, 0])
    acc = rows[:, 0] * spectrum[0]
    for k in range(1, d):
        for r in range(len(rows)):
            acc[r] += rows[r, k] * spectrum[k]
    return acc


def _multirate(parts, n_out, d=1, rows=None):
    """_multirate_pieces as one array."""
    return _joined(max(n_out, 0), _multirate_pieces(parts, n_out, d, rows))


def _layout(parts, n_out, d):
    """_multirate_pieces' block layout: the FFT length, the common step,
    the row that holds kept sample 0, the rows that reach the output and,
    per part, (x, n, taps, u, fill, lead, row0, n_rows): the samples of x
    that reach the output, its taps delayed onto the u grid, its lead
    zeros, the common row of its row 0 and its row count."""
    staged = []
    for x, taps, u, start, fill in parts:
        delay = -start % u
        taps = np.concatenate([np.zeros(delay), taps])
        a = (start + delay) // u
        # inputs from a + ceil(((n_out-1)*d + 1)/u) on reach past the output
        staged.append((x, min(len(x), a - (-((n_out - 1) * d + 1) // u)),
                       taps, u, a, fill))
    n_taps = max(len(part[2]) for part in staged)
    m = max([d] + [part[3] for part in staged])
    nfft = _ola_fft_len(n_taps, m)
    step = (nfft - n_taps + 1) // m * m
    early = [-(-a * u // step) for _, _, _, u, a, _ in staged]
    head = max(early)
    laid = [(x, n, taps, u, fill,
             b * step // u - a, head - b,
             -(-(b * step // u - a + n) // (step // u)))
            for (x, n, taps, u, a, fill), b in zip(staged, early)]
    return nfft, step, head, head - (-n_out * d // step), laid


def _part_spectra(part, nfft, step, j0, j1):
    """A laid part's rows j0..j1-1 (_layout), written by its fill and
    FFT'd."""
    x, n, _, u, fill, lead, _, _ = part
    rows, k, views = _block_rows(n, step // u, nfft // u, lead, j0, j1)
    fill(views, x, k)
    return np.fft.fft(rows, axis=1, out=rows)


def _multirate_pieces(parts, n_out, d=1, rows=None):
    """The sum over parts (x, taps, u, start, fill) of (z * taps)[start::d],
    where z is x with u-1 zeros after every sample, each cut or zero-padded
    to n_out samples, computed without z and without the samples d drops,
    yielded in consecutive new arrays as _overlap_add makes them. x is an
    array or a _Stream, which is read once, in order. fill(views, x, k)
    writes x from sample k on into _block_rows' views: _fill copies it, and
    _fill_shifted shifts it as it goes in.

    Every x is cut into blocks of step/u samples, one common step that is a
    multiple of every u and of d, and a block's FFT of nfft/u points, tiled
    u times, is the spectrum of its zero-stuffed block. Each part's tiled
    spectra are multiplied by its taps' spectrum and accumulated onto one
    row of block spectra per output block, in part order; a lone part with
    u = 1 takes the product in its own rows instead. Each row is then
    folded d times onto nfft/d bins, which keeps every d-th sample of its
    block's output, so one inverse FFT of nfft/d per block serves every
    part and the tails are added at the output rate.

    The rows are made a chunk of about _OLA_CHUNK block points at a time
    (_overlap_add): each part fills and transforms only its rows that reach
    the chunk, which reads its x a chunk further, the chunk goes straight
    into its piece of the result, and its last row's tail is carried into
    the next chunk. Memory beyond the inputs and the result is then a few
    chunks, whatever the length. Given rows, all of a lone part's FFT'd
    block rows at u = 1 (_block_spectra), are read in place of its own.

    A start off the u grid is moved onto it by delaying the taps by
    -start mod u samples. Input sample a = start/u then lands on kept sample
    0: x goes in after b*step/u - a zeros, b = ceil(a*u/step), so its rows
    begin b rows before the output, the common rows begin as early as the
    largest b needs, and every kept sample falls on the fold's grid.
    """
    if n_out <= 0:
        return
    nfft, step, head, n_rows, laid = _layout(parts, n_out, d)
    tiles = [_taps_spectrum(part[2], nfft, part[3], d) for part in laid]

    def spectra(r0, r1):
        if len(laid) == 1 and laid[0][3] == 1:
            # a lone part at u = 1 takes the product in its own rows, or in
            # new ones where its rows are given
            own = (_part_spectra(laid[0], nfft, step, r0, r1)
                   if rows is None else rows[r0:r1])
            return _fold_product(own, tiles[0].reshape(d, -1), d)
        acc = np.zeros((r1 - r0, nfft), dtype=np.complex128)
        for part, spectrum in zip(laid, tiles):
            _, _, _, u, _, _, row0, n_part = part
            j0, j1 = max(r0 - row0, 0), min(r1 - row0, n_part)
            if j0 >= j1:
                continue
            own = _part_spectra(part, nfft, step, j0, j1)
            dest = acc[row0 + j0 - r0:row0 + j1 - r0].reshape(j1 - j0, u, -1)
            # a row at a time, and this part's rows go before the next
            # part's are made
            for r in range(j1 - j0):
                for t in range(u):
                    dest[r, t] += own[r] * spectrum[t]
            del own
        if d > 1:
            acc = acc.reshape(r1 - r0, d, nfft // d).sum(axis=1)
        return acc

    yield from _overlap_add(spectra, nfft, head, step // d, n_rows, n_out)


def _front_end(x, taps, h, u, fill=_fill):
    """_multirate's arguments for mix_filter_decimate of the samples x,
    which fill writes, with taps of h's length."""
    gd = h.group_delay
    return [(x, taps, 1, gd, fill)], len(range(gd, len(x) + len(h) - 1, u)), u


def _block_spectra(x, h, u, fill):
    """The FFT'd block rows of mix_filter_decimate of the samples x with h
    at u, all made at once, for a fill that must write every row before
    any is transformed; _mix_filter_decimate reads them."""
    nfft, step, _, n_rows, [part] = _layout(*_front_end(x, h.taps, h, u,
                                                        fill))
    return _part_spectra(part, nfft, step, 0, n_rows)


def _mix_through(taps, f_hz, rate_hz, u, origin):
    """Move a shift by f_hz at rate_hz to the other side of a filter and a
    u-fold rate change. Returns the taps times exp(j w (k - origin)),
    w = 2 pi f_hz / rate_hz, and f_hz aliased into the band of rate_hz/u.
    A filter's output from sample origin on, shifted by f_hz, is its input
    shifted by f_hz and filtered with the rotated taps; a receiver passes
    -f_hz to move the shift from its input to its output."""
    k = np.arange(len(taps)) - origin
    rate = rate_hz / u
    return (taps * np.exp(2j * np.pi * f_hz / rate_hz * k),
            f_hz - rate * round(f_hz / rate))


def convolve_full(x: ComplexSignal, h: FilterTaps) -> ComplexSignal:
    """Full linear convolution (overlap-add); output length len(x) + L - 1."""
    return ComplexSignal(_multirate([(x.samples, h.taps, 1, 0, _fill)],
                                    len(x) + len(h) - 1), x.rate_hz)


def mix_filter_decimate(x: ComplexSignal, f_hz: float, h: FilterTaps,
                        u: int) -> ComplexSignal:
    """Shift by f_hz, filter with h and keep every u-th sample from the
    filter's group delay on: convolve_full(frequency_shift(x, f_hz),
    h)[h.group_delay::u] at rate fs/u, computing only the samples kept.

    The mixer moves onto the taps, h[k] exp(-j w (k - gd)) with
    w = 2 pi f_hz / fs, so the filter runs on x itself and decimates inside
    the overlap-add core (_multirate_pieces), which makes x's block rows a
    chunk at a time; the output is then shifted at fs/u by f_hz aliased
    into that band.
    """
    return _mix_filter_decimate(x.samples, x.rate_hz, f_hz, h, u)


def _mix_filter_decimate(x, rate_hz, f_hz, h, u, rows=None):
    """mix_filter_decimate of the samples x at rate_hz. rows, if given,
    are x's block rows (_block_spectra), read in place of its samples: x
    then only gives their count."""
    taps, f_rest = _mix_through(h.taps, -f_hz, rate_hz, u, h.group_delay)
    y = _multirate(*_front_end(x, taps, h, u), rows)
    return frequency_shift(ComplexSignal(y, rate_hz / u), -f_rest)


def interpolate_mix_sum(bands, rate_hz: float, n_out: int) -> _Stream:
    """Interpolate, shift and sum: the sum over bands (x, u, h, f_hz, skip)
    of frequency_shift(convolve_full(z, h)[skip:], f_hz) at rate_hz, where z
    is x with u-1 zeros after every sample, each cut or zero-padded to n_out
    samples, as a _Stream at rate_hz: the sum is made a new piece at a time
    as it is read, so it never exists whole unless it is taken whole. Each
    x is taken to be sampled at rate_hz/u, with u a power of two; it is a
    ComplexSignal or a _Stream of its samples, which is read once, in
    order, so a band that is made in pieces never exists whole either.

    The dual of mix_filter_decimate, computing neither z nor a shift at
    rate_hz. The mixer moves onto the taps, h[k] exp(j w (k - skip)) with
    w = 2 pi f_hz / rate_hz, and x is shifted at rate_hz/u by f_hz aliased
    into that band, which is the same phasor on every u-th sample; the
    overlap-add then interpolates, and all bands share its inverse FFTs.
    That shift is frequency_shift's phasor for all of x, applied as x is
    written into its block rows. A band at rate_hz whose filter is the unit
    tap passes straight through: it is read, shifted in the time domain and
    added into each piece of the overlap-add's result (or, where no band
    goes through the overlap-add, of zeros) a piece of the phasor at a time,
    after that result and in band order (at f_hz = 0 too: its phasor is
    exactly 1). No shifted copy of a band is made, and no band's samples
    are changed.
    """
    direct, parts = [], []
    for x, u, h, f_hz, skip in bands:
        if isinstance(x, ComplexSignal):
            x = x.samples  # read by the same slices as a _Stream
        if u == 1 and len(h) == 1 and h.taps[0] == 1.0:
            m = max(min(len(x) - skip, n_out), 0)
            direct.append((x, skip, m, _phasor_table(m, f_hz, rate_hz)))
            continue
        taps, f_rest = _mix_through(h.taps, f_hz, rate_hz, u, skip)
        fill = _fill
        if f_rest != 0.0:
            fill = partial(_fill_shifted, table=_phasor_table(
                len(x), f_rest, rate_hz / u))
        parts.append((x, taps, u, skip, fill))
    n_out = max(n_out, 0)
    return _Stream(n_out, _mix_sum_pieces(parts, direct, n_out), rate_hz)


def _zeros(n):
    """n zeros in new arrays of _OLA_CHUNK samples, the last one shorter."""
    for k in range(0, n, _OLA_CHUNK):
        yield np.zeros(min(_OLA_CHUNK, n - k), dtype=np.complex128)


def _mix_sum_pieces(parts, direct, n_out):
    """interpolate_mix_sum's pieces, each a new array:
    _multirate_pieces of the parts, or _zeros when there are none, each
    with the pass-through bands (x, skip, m, table) shifted and added over
    its samples below m, a phasor piece at a time; a band's phasor sample k
    is the same product wherever the pieces are cut."""
    if parts:
        pieces = _multirate_pieces(parts, n_out)
    else:
        pieces = _zeros(n_out)
    k = 0
    for piece in pieces:
        for x, skip, m, table in direct:
            for j, p in _phasor_pieces(table, k, min(len(piece), m - k)):
                p *= x[skip + k + j:skip + k + j + len(p)]
                piece[j:j + len(p)] += p
        k += len(piece)
        p = None  # the last phasor piece is not kept while piece is read
        yield piece
        del piece
