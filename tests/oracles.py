"""Direct-form and closed-form references the tests hold the library to,
a stream cut where a test chooses, and a call's traced memory peak."""

import tracemalloc

import numpy as np
from scipy.special import erfc

from mixnum.dsp import ComplexSignal, DspError, _Stream, _windowed_sinc
from mixnum.modem import ModemError, _decide_levels, constellation


def stream_in_pieces(x, edges, rate_hz=None) -> _Stream:
    """x as a _Stream whose pieces end at the given edges (ascending, each
    inside x), each a new array."""
    return _Stream(len(x), (part.copy() for part in np.split(x, edges)),
                   rate_hz)


def traced_peak(call):
    """call()'s result and its tracemalloc peak above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def upsample_zero_stuff(x: ComplexSignal, u: int) -> ComplexSignal:
    """Insert u-1 zeros after every sample; rate multiplied by u."""
    if u < 1:
        raise DspError("u must be >= 1")
    if u == 1:
        return x
    out = np.zeros(u * len(x), dtype=np.complex128)
    out[::u] = x.samples
    return ComplexSignal(out, x.rate_hz * u)


def interpolation_taps(u, n_fft, filter_len):
    """Anti-image taps for a band of n_fft bins interpolated by u, as first
    designed: the windowed sinc whose two-sided passband is the band's
    n_fft bins out of the u * n_fft bins of the interpolated grid, times
    u."""
    n_composite = u * n_fft
    return _windowed_sinc(n_composite // u, n_composite, filter_len).taps * u


def response_at(h, freqs_cycles_per_sample):
    """Complex frequency response of FilterTaps h at normalized frequencies,
    by direct sum about the group delay."""
    nu = np.atleast_1d(np.asarray(freqs_cycles_per_sample, dtype=float))
    n = np.arange(len(h.taps)) - h.group_delay
    return np.exp(-2j * np.pi * np.outer(nu, n)) @ h.taps


def complex_noise(n, variance, rng):
    """n samples of circular complex Gaussian noise of the given variance,
    all real parts drawn before all imaginary parts."""
    return np.sqrt(variance / 2.0) * (rng.standard_normal(n)
                                      + 1j * rng.standard_normal(n))


def qfunc(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def qam_ber_awgn(M: int, ebn0_lin):
    """Exact Gray-coded square M-QAM BER over AWGN (closed-form series)."""
    gamma = np.asarray(ebn0_lin, dtype=np.float64)
    m = int(np.sqrt(M))
    kd = int(np.log2(m))
    k = 2 * kd
    total = np.zeros_like(gamma)
    for kk in range(1, kd + 1):
        upper = int((1 - 2.0 ** (-kk)) * m)
        for i in range(upper):
            sgn = (-1) ** ((i * 2 ** (kk - 1)) // m)
            wgt = int(2 ** (kk - 1) - np.floor(i * 2 ** (kk - 1) / m + 0.5))
            total = total + sgn * wgt * qfunc(
                (2 * i + 1) * np.sqrt(3.0 * k * gamma / (M - 1)))
    return (2.0 / (m * kd)) * total


def bit_error_probabilities_one_shot(rx_points, tx_points, M, sigma_per_dim):
    """The bit-error kernel in one call, as it was before its sigma-free
    half moved to modem.bit_error_tables: every dimension's sent levels,
    distances and weight rows are formed again at each sigma, in the
    same floating-point order."""
    cm = constellation(M)
    rx = np.asarray(rx_points, dtype=np.complex128)
    tx = np.asarray(tx_points, dtype=np.complex128)
    sigma = np.asarray(sigma_per_dim, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ModemError("sigma must be positive")

    def dim_bit_error(coords, sent):
        scale = np.sqrt(2.0) * np.broadcast_to(sigma, coords.shape)
        z = cm.thresholds - coords[:, None]
        z /= scale[:, None]
        z *= cm.tail_sign[sent]
        return 0.5 * np.einsum("nj,nj->n", cm.tail_weight[sent],
                               erfc(z, out=z))

    errs = (dim_bit_error(rx.real, _decide_levels(tx.real, cm))
            + dim_bit_error(rx.imag, _decide_levels(tx.imag, cm)))
    return errs / cm.bits_per_symbol
