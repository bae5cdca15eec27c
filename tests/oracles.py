"""Direct-form references the tests hold the library's fast paths to."""

import numpy as np

from mixnum.dsp import ComplexSignal, DspError


def upsample_zero_stuff(x: ComplexSignal, u: int) -> ComplexSignal:
    """Insert u-1 zeros after every sample; rate multiplied by u."""
    if u < 1:
        raise DspError("u must be >= 1")
    if u == 1:
        return x
    out = np.zeros(u * len(x), dtype=np.complex128)
    out[::u] = x.samples
    return ComplexSignal(out, x.rate_hz * u)


def response_at(h, freqs_cycles_per_sample):
    """Complex frequency response of FilterTaps h at normalized frequencies,
    by direct sum about the group delay."""
    nu = np.atleast_1d(np.asarray(freqs_cycles_per_sample, dtype=float))
    n = np.arange(len(h.taps)) - h.group_delay
    return np.exp(-2j * np.pi * np.outer(nu, n)) @ h.taps
