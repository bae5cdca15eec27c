from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal

from mixnum.config import (ConfigError, ScenarioConfig, SubbandNumerology,
                           center_frequencies, composite_rate, get_preset,
                           interpolation_filter_len)

from mixnum.dsp import (ComplexSignal, DspError, FilterTaps,
                        _ola_fft_len, blackman_transition, convolve_full,
                        design_interpolation_filter, design_subband_filter,
                        frequency_shift, interpolate_mix_sum,
                        mix_filter_decimate, wofdm_window)
from mixnum import dsp
from mixnum.link import receive_filter
from mixnum.waveform import _burst_stream, random_payload
from oracles import (interpolation_taps, response_at, stream_in_pieces,
                     upsample_zero_stuff)


def rand_signal(seed, n, rate=1e6):
    rng = np.random.default_rng(seed)
    return ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                         rate)


class TestComplexSignal:
    def test_rejects_bad_rate(self):
        with pytest.raises(DspError):
            ComplexSignal(np.zeros(4), 0.0)


class TestFilterTaps:
    def test_rejects_even_length(self):
        with pytest.raises(DspError):
            FilterTaps(np.ones(4))

    def test_rejects_wrong_group_delay(self):
        with pytest.raises(DspError):
            FilterTaps(np.ones(5), 1)

    def test_group_delay_is_derived(self):
        assert FilterTaps(np.ones(5)).group_delay == 2
        assert FilterTaps(np.ones(1)).group_delay == 0
        assert FilterTaps(np.ones(5), 2).group_delay == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(DspError):
            FilterTaps(np.array([0.0, 1.0, 2.0]))

    def test_taps_are_a_read_only_copy(self):
        r = np.ones(3)
        taps = FilterTaps(r)
        r[0] = 5.0  # the caller's array stays writable and is not shared
        assert taps.taps[0] == 1.0
        with pytest.raises(ValueError):
            taps.taps[0] = 2.0

    def test_response_at_dc_is_tap_sum(self):
        taps = design_subband_filter(64, 12, 1.0, 33)
        assert response_at(taps, 0.0)[0] == pytest.approx(taps.taps.sum())


class TestDesignsAreShared:
    def test_repeated_design_is_the_same_object(self):
        assert (design_subband_filter(1024, 180, 6.0, 353)
                is design_subband_filter(1024, 180, 6.0, 353))
        assert (design_interpolation_filter(4, 1025)
                is design_interpolation_filter(4, 1025))
        assert (design_subband_filter(1024, 180, 6.0, 353)
                is not design_subband_filter(1024, 180, 6.0, 351))

    @pytest.mark.parametrize("design", [
        lambda: design_subband_filter(1024, 180, 6.0, 353),
        lambda: design_interpolation_filter(4, 1025)],
        ids=["subband", "interpolation"])
    def test_shared_taps_cannot_be_written(self, design):
        taps = design()
        with pytest.raises(ValueError):
            taps.taps[taps.group_delay] = 0.0
        with pytest.raises(ValueError):
            taps.taps *= 2.0
        assert design().taps[taps.group_delay] != 0.0


class TestSubbandFilter:
    def test_unit_dc_gain(self):
        taps = design_subband_filter(1024, 180, 6.0, 353)
        assert abs(taps.taps.sum() - 1.0) < 1e-15

    def test_symmetric(self):
        taps = design_subband_filter(1024, 180, 3.0, 177)
        np.testing.assert_array_equal(taps.taps, taps.taps[::-1])

    def test_edge_taps_exactly_zero(self):
        # raised-cosine window hits cos(pi) = -1 exactly at the edges
        for L in (89, 177, 353):
            taps = design_subband_filter(1024, 180, 6.0, L)
            assert taps.taps[0] == 0.0
            assert taps.taps[-1] == 0.0

    def test_passband_flat_stopband_deep(self):
        taps = design_subband_filter(1024, 180, 6.0, 1025)
        h_pass = np.abs(response_at(taps, np.array([0.0, 80 / 1024])))
        h_stop = np.abs(response_at(taps, np.array([192 / 1024, 0.4])))
        assert np.all(np.abs(20 * np.log10(h_pass)) < 0.1)
        assert np.all(20 * np.log10(h_stop) < -40)

    def test_rejects_overwide_band(self):
        # the scenario refuses a passband plus transition wider than the
        # grid, so the design never sees one; a band that fills its grid
        # exactly is designed
        def f_ofdm(r):
            nm = SubbandNumerology(n_fft=256, n_cp=16, scs_hz=15e3,
                                   n_used=240, filter_len=101,
                                   transition_hz=r * 15e3)
            return ScenarioConfig(subbands=(nm,), waveform="f-ofdm",
                                  f1_hz=0.0)

        with pytest.raises(ConfigError, match="f-OFDM filter's grid of 256"):
            f_ofdm(20.0)
        nm = f_ofdm(8.0).subbands[0]
        taps = design_subband_filter(nm.n_fft, nm.n_used, nm.r_subcarriers,
                                     nm.filter_len)
        assert abs(taps.taps.sum() - 1.0) < 1e-15

    @settings(max_examples=20, deadline=None)
    @given(half=st.integers(8, 300), r=st.floats(0.0, 8.0))
    def test_properties_hold_for_any_length(self, half, r):
        taps = design_subband_filter(1024, 180, r, 2 * half + 1)
        assert abs(taps.taps.sum() - 1.0) < 1e-14
        np.testing.assert_array_equal(taps.taps, taps.taps[::-1])
        assert taps.group_delay == half


class TestInterpolationFilter:
    def test_u1_is_identity(self):
        taps = design_interpolation_filter(1, 1)
        np.testing.assert_array_equal(taps.taps, [1.0])

    def test_passband_gain_is_u(self):
        for u in (2, 4):
            taps = design_interpolation_filter(u, 513)
            assert abs(response_at(taps, 0.0)[0]) == pytest.approx(u, rel=1e-9)

    def test_image_band_suppressed(self):
        u = 4
        taps = design_interpolation_filter(u, 1025)
        # first image of a band at +-186/2 bins sits around 1024 bins
        h = np.abs(response_at(taps, np.array([1024 / 4096.0])))
        assert 20 * np.log10(h[0] / u) < -40

    @pytest.mark.parametrize("u", [2, 4, 8, 16, 32])
    def test_matches_the_band_width_design_bit_for_bit(self, u):
        # the cutoff n_fft / (u n_fft) of the first design is 1/u for every
        # n_fft, to the last bit; every length a cp of 0..1024 gives
        for n_fft in (2 ** p for p in range(4, 13)):
            for L in sorted({interpolation_filter_len(u, n_cp)
                             for n_cp in range(1025)}):
                taps = design_interpolation_filter(u, L).taps
                assert taps.tobytes() == interpolation_taps(u, n_fft,
                                                            L).tobytes()

    def test_interpolated_tone_amplitude_preserved(self):
        n = np.arange(512)
        tone = ComplexSignal(np.exp(2j * np.pi * 0.01 * n), 1e6)
        u = 4
        up = upsample_zero_stuff(tone, u)
        taps = design_interpolation_filter(u, 1025)
        out = convolve_full(up, taps)
        mid = out.samples[taps.group_delay + 256:taps.group_delay + 1792]
        assert np.mean(np.abs(mid)) == pytest.approx(1.0, abs=0.01)


class TestBlackmanTransition:
    def test_endpoints(self):
        w = blackman_transition(512)
        assert w[0] == 0.0
        # midpoint value 0.42 - 0.5 cos(pi/2) + 0.08 cos(pi) = 0.34
        assert w[256] == pytest.approx(0.34, abs=1e-15)

    def test_empty_for_zero(self):
        assert len(blackman_transition(0)) == 0

    def test_monotone_non_decreasing(self):
        w = blackman_transition(64)
        assert np.all(np.diff(w) >= 0)

    def test_stays_below_one(self):
        w = blackman_transition(128)
        assert np.all(w < 1.0)


class TestWofdmWindow:
    def test_length_formula(self):
        n_fft, n_cp_star, n_prefix, n_tr = 1024, 32, 32, 32
        w = wofdm_window(n_fft, n_cp_star, n_prefix, n_tr)
        assert len(w) == n_fft + n_cp_star + 2 * n_prefix + 1

    def test_palindromic(self):
        w = wofdm_window(256, 16, 12, 8)
        np.testing.assert_allclose(w, w[::-1], atol=0)

    def test_flat_top_is_ones(self):
        n_fft, n_cp_star, n_prefix, n_tr = 64, 8, 6, 4
        w = wofdm_window(n_fft, n_cp_star, n_prefix, n_tr)
        start = n_prefix - n_tr // 2 + n_tr
        np.testing.assert_array_equal(
            w[start:start + n_fft + n_cp_star - n_tr + 1], 1.0)

    def test_zero_transition_is_rectangular(self):
        w = wofdm_window(64, 8, 6, 0)
        np.testing.assert_array_equal(w[6:-6], 1.0)
        np.testing.assert_array_equal(w[:6], 0.0)
        np.testing.assert_array_equal(w[-6:], 0.0)

    @settings(max_examples=20, deadline=None)
    @given(n_prefix=st.integers(1, 32), half_tr=st.integers(0, 32))
    def test_palindrome_property(self, n_prefix, half_tr):
        n_tr = 2 * min(half_tr, n_prefix)
        w = wofdm_window(128, 16, n_prefix, n_tr)
        assert len(w) == 128 + 16 + 2 * n_prefix + 1
        np.testing.assert_array_equal(w, w[::-1])


class TestResampling:
    def test_zero_stuff_layout(self):
        x = ComplexSignal(np.array([1.0, 2.0, 3.0]), 10.0)
        up = upsample_zero_stuff(x, 4)
        assert up.rate_hz == 40.0
        np.testing.assert_array_equal(
            up.samples, [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0])

    def test_u1_passthrough(self):
        x = rand_signal(2, 16)
        assert upsample_zero_stuff(x, 1) is x

    def test_frequency_shift_moves_tone(self):
        n = np.arange(1024)
        x = ComplexSignal(np.exp(2j * np.pi * 0.125 * n), 1024.0)
        y = frequency_shift(x, 100.0)
        peak = np.argmax(np.abs(np.fft.fft(y.samples)))
        assert peak == 128 + 100

    def test_frequency_shift_preserves_magnitude(self):
        x = rand_signal(3, 100)
        y = frequency_shift(x, 0.123 * x.rate_hz)
        np.testing.assert_allclose(np.abs(y.samples), np.abs(x.samples))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_shift_at_nyquist_alternates_sign(self, sign):
        x = rand_signal(4, 9)
        y = frequency_shift(x, sign * x.rate_hz / 2)
        np.testing.assert_allclose(y.samples, x.samples * (-1.0) ** np.arange(9),
                                   rtol=0, atol=1e-14)

    @staticmethod
    def _exp_mixer(x, f_hz):
        """Direct reference: one exp per sample."""
        n = np.arange(len(x))
        return x.samples * np.exp(2j * np.pi * f_hz * n / x.rate_hz)

    def test_frequency_shift_matches_exp_reference_at_length(self):
        # 1234567.891 Hz is no multiple of fs/8192, so the phasor has no
        # short period; 2**20 + 7 samples is not a perfect square
        x = ComplexSignal(np.ones(2 ** 20 + 7), 61.44e6)
        y = frequency_shift(x, 1234567.891)
        np.testing.assert_allclose(y.samples, self._exp_mixer(x, 1234567.891),
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 99, 1000, 1001])
    def test_frequency_shift_short_and_non_square_lengths(self, n):
        x = rand_signal(n, n)
        y = frequency_shift(x, -0.3217 * x.rate_hz)
        assert len(y) == n and y.rate_hz == x.rate_hz
        np.testing.assert_allclose(y.samples,
                                   self._exp_mixer(x, -0.3217 * x.rate_hz),
                                   rtol=0, atol=1e-12)

    def test_frequency_shift_round_trip(self):
        x = rand_signal(7, 100_003)
        back = frequency_shift(frequency_shift(x, 0.1734 * x.rate_hz),
                               -0.1734 * x.rate_hz)
        np.testing.assert_allclose(back.samples, x.samples, rtol=0,
                                   atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 100_000), f=st.floats(-0.5, 0.5),
           data=st.data())
    def test_phasor_pieces_cut_the_full_outer_product(self, n, f, data):
        # the pieces of samples k..k+m-1, joined, are those samples of the
        # table's whole outer product byte for byte, and none is longer
        # than _PHASOR_PIECE
        k = data.draw(st.integers(0, n), label="k")
        m = data.draw(st.integers(0, n - k), label="m")
        table = dsp._phasor_table(n, f, 1.0)
        full = np.multiply.outer(*table).reshape(-1)
        at, pieces = 0, []
        for j, p in dsp._phasor_pieces(table, k, m):
            assert j == at and 0 < len(p) <= dsp._PHASOR_PIECE
            at += len(p)
            pieces.append(p)
        joined = np.concatenate(pieces) if pieces else full[:0]
        assert at == m
        assert joined.tobytes() == full[k:k + m].tobytes()


class TestConvolveFull:
    def _direct(self, x, h):
        n, L = len(x), len(h)
        out = np.zeros(n + L - 1, dtype=np.complex128)
        for i in range(n):
            for j in range(L):
                out[i + j] += x[i] * h[j]
        return out

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(8, 64),
           half=st.integers(1, 8))
    def test_matches_quadratic_oracle(self, seed, n, half):
        x = rand_signal(seed, n)
        taps = design_subband_filter(64, 12, 1.0, 2 * half + 1)
        y = convolve_full(x, taps)
        np.testing.assert_allclose(y.samples,
                                   self._direct(x.samples, taps.taps),
                                   atol=1e-12)

    def test_long_filter_uses_same_math(self):
        # a filter longer than the signal fits in one overlap-add block
        x = rand_signal(5, 256)
        taps = design_subband_filter(4096, 720, 24.0, 1025)
        y = convolve_full(x, taps)
        ref = np.convolve(x.samples, taps.taps, mode="full")
        np.testing.assert_allclose(y.samples, ref, atol=1e-10)

    @pytest.mark.parametrize("n_taps", [1, 89, 177, 353, 1025, 1409])
    @pytest.mark.parametrize("length", ["short", "one-block", "block+1",
                                        "blocks"])
    def test_matches_scipy_oaconvolve(self, n_taps, length):
        step = _ola_fft_len(n_taps) - n_taps + 1
        n = {"short": max(1, n_taps // 2), "one-block": step,
             "block+1": step + 1, "blocks": 5 * step + 17}[length]
        r = np.random.default_rng(n_taps).standard_normal(n_taps)
        taps = FilterTaps(r + r[::-1])
        x = rand_signal(n, n)
        ref = signal.oaconvolve(x.samples, taps.taps, mode="full")
        y = convolve_full(x, taps).samples
        assert y.shape == ref.shape
        np.testing.assert_allclose(y, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def test_output_length(self):
        x = rand_signal(6, 100)
        taps = design_subband_filter(64, 12, 1.0, 33)
        assert len(convolve_full(x, taps)) == 100 + 33 - 1


class TestMixFilterDecimate:
    """The receive front end against the chain it replaces: mix at the
    full rate, filter, then keep every u-th sample from the group delay."""

    @staticmethod
    def _reference(x, f_hz, h, u):
        y = convolve_full(frequency_shift(x, f_hz), h).samples
        return y[h.group_delay::u]

    @pytest.mark.parametrize("u", [1, 2, 4])
    # 91 taps put the group delay off the decimation grid (45 mod 2, 4)
    @pytest.mark.parametrize("n_taps", [1, 91, 1409])
    @pytest.mark.parametrize("length", ["short", "one-block", "blocks"])
    # 0.45 fs aliases to 0.45 fs at u = 1 but wraps to -0.05 fs at u = 2
    # and u = 4; -0.3 fs wraps at u = 2 and u = 4; 0.125 fs lands exactly on
    # the band edge fs/(2u) at u = 4
    @pytest.mark.parametrize("f", [0.0, 0.45, -0.3, 0.125])
    def test_matches_mix_filter_then_decimate(self, u, n_taps, length, f):
        step = _ola_fft_len(n_taps, u) - n_taps + 1
        n = {"short": max(1, n_taps // 2), "one-block": step // u * u,
             "blocks": 5 * step + 17}[length]
        r = np.random.default_rng(n_taps).standard_normal(n_taps)
        h = FilterTaps(r + r[::-1])
        x = rand_signal(n + u, n, rate=2e6)
        y = mix_filter_decimate(x, f * x.rate_hz, h, u)
        ref = self._reference(x, f * x.rate_hz, h, u)
        assert y.rate_hz == x.rate_hz / u
        assert y.samples.shape == ref.shape
        np.testing.assert_allclose(y.samples, ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("n_taps", [1, 3])
    def test_empty_input(self, n_taps):
        # the unit tap keeps no sample of an empty input
        x, h = ComplexSignal(np.zeros(0), 2e6), FilterTaps(np.ones(n_taps))
        y = mix_filter_decimate(x, 1e5, h, 2)
        np.testing.assert_array_equal(y.samples, self._reference(x, 1e5, h, 2))

    def test_receive_filter_at_length(self):
        # table1 band 3: 1409 taps, u = 4, a centre that aliases across the
        # band edge, on a composite-sized input
        sc = get_preset("table1")
        h = receive_filter(sc, 2)
        f = -center_frequencies(sc)[2]
        x = rand_signal(3, 2 ** 18 + 11, rate=composite_rate(sc))
        y = mix_filter_decimate(x, f, h, 4)
        ref = self._reference(x, f, h, 4)
        np.testing.assert_allclose(y.samples, ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(ref).max())


def _interpolate_reference(bands, rate_hz, n_out):
    """The chain interpolate_mix_sum replaces, at the output rate: zero-stuff,
    filter, drop the first skip samples, shift, then cut or pad and sum."""
    out = np.zeros(n_out, dtype=np.complex128)
    for x, u, h, f_hz, skip in bands:
        y = convolve_full(upsample_zero_stuff(x, u), h).samples[skip:]
        y = frequency_shift(ComplexSignal(y, rate_hz), f_hz).samples[:n_out]
        out[:len(y)] += y
    return out


def _symmetric_taps(seed, n_taps):
    r = np.random.default_rng(seed).standard_normal(n_taps)
    return FilterTaps(r + r[::-1])


def _assert_close(y, ref):
    # the mixer's phasor runs at the input rate, so it differs from the
    # output-rate phasor by about 1e-10 of the peak on long signals; the
    # inputs are unit-variance, so an all-zero reference is held to 1e-9
    assert y.shape == ref.shape
    np.testing.assert_allclose(y, ref, rtol=0,
                               atol=1e-9 * max(np.abs(ref).max(), 1.0))


class TestInterpolateMixSum:
    """The transmit combiner against the chain it replaces."""

    @pytest.mark.parametrize("u", [1, 2, 4, 8])
    @pytest.mark.parametrize("n_taps", [1, 91, 1025])
    # skips on and off the u grid, and one past the taps' length
    @pytest.mark.parametrize("skip", [0, 45, 1216])
    # 0.45 fs aliases at u = 2..8; -0.3 fs wraps at u = 2..8
    @pytest.mark.parametrize("f", [0.0, 0.45, -0.3])
    def test_one_band_matches_the_chain(self, u, n_taps, skip, f):
        rate = 8e6
        x = rand_signal(u + n_taps, 3000, rate=rate / u)
        bands = [(x, u, _symmetric_taps(n_taps, n_taps), f * rate, skip)]
        n_out = u * len(x) + n_taps - 1 - skip
        if n_out <= 0:
            pytest.skip("skip drops every output sample")
        y = interpolate_mix_sum(bands, rate, n_out)
        assert y.rate_hz == rate
        _assert_close(y.whole(), _interpolate_reference(bands, rate, n_out))

    @pytest.mark.parametrize("n_out", [1, 5000, 40000], ids=["cut", "mid",
                                                             "padded"])
    def test_bands_of_every_rate_sum(self, n_out):
        # different factors, lengths and skips share one block grid; a
        # unit-tap band at the output rate is added in the time domain
        rate = 4e6
        bands = [
            (rand_signal(1, 4000, rate / 2), 2, _symmetric_taps(1, 177),
             0.2 * rate, 131),
            (rand_signal(2, 3000, rate / 4), 4, _symmetric_taps(2, 1025),
             -0.35 * rate, 1027),
            (rand_signal(3, 9000, rate), 1, FilterTaps(np.ones(1)),
             0.1 * rate, 7),
            (rand_signal(4, 700, rate), 1, _symmetric_taps(4, 33),
             -0.05 * rate, 0),
        ]
        y = interpolate_mix_sum(bands, rate, n_out)
        _assert_close(y.whole(), _interpolate_reference(bands, rate, n_out))

    def test_no_zero_stuffing_and_no_output_rate_shift(self, monkeypatch):
        # dsp has no zero-stuffing primitive, and interpolated bands are
        # mixed at their own rate only: every phasor the mixer makes is at
        # a band's rate
        assert not hasattr(dsp, "upsample_zero_stuff")
        rates = []
        phasor_table = dsp._phasor_table

        def table(n, f_hz, rate_hz):
            rates.append(rate_hz)
            return phasor_table(n, f_hz, rate_hz)

        monkeypatch.setattr(dsp, "_phasor_table", table)
        rate = 8e6
        bands = [(rand_signal(u, 500, rate / u), u,
                  _symmetric_taps(u, 8 * u + 1), 0.3 * rate, u)
                 for u in (2, 4, 8)]
        interpolate_mix_sum(bands, rate, 4000).whole()
        assert sorted(rates) == [rate / 8, rate / 4, rate / 2]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), log_u=st.integers(0, 3),
           half=st.integers(0, 300), n=st.integers(1, 2000),
           skip=st.integers(0, 700), f=st.floats(-0.5, 0.5),
           extra=st.integers(-500, 500))
    def test_matches_the_chain(self, seed, log_u, half, n, skip, f, extra):
        u, rate = 1 << log_u, 1e6
        h = _symmetric_taps(seed, 2 * half + 1)
        n_out = max(1, u * n + len(h) - 1 - skip + extra)
        bands = [(rand_signal(seed, n, rate / u), u, h, f * rate, skip)]
        y = interpolate_mix_sum(bands, rate, n_out)
        _assert_close(y.whole(), _interpolate_reference(bands, rate, n_out))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           layout=st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 100),
                                     st.integers(1, 1500),
                                     st.floats(-0.5, 0.5),
                                     st.integers(0, 300)),
                           min_size=1, max_size=3),
           n_out=st.integers(1, 6000))
    def test_leaves_every_argument_unchanged(self, seed, layout, n_out):
        # bands are shifted as they are written into the block rows, or a
        # piece at a time when they pass straight through (log_u = -1: a
        # unit tap at u = 1), never in place
        rate = 1e6
        bands = [(rand_signal(seed + k, n, rate / (1 << max(log_u, 0))),
                  1 << max(log_u, 0),
                  FilterTaps([1.0]) if log_u < 0
                  else _symmetric_taps(seed + k, 2 * half + 1),
                  f * rate, skip)
                 for k, (log_u, half, n, f, skip) in enumerate(layout)]
        before = [(x.samples.tobytes(), h.taps.tobytes())
                  for x, _, h, _, _ in bands]
        interpolate_mix_sum(bands, rate, n_out).whole()
        assert [(x.samples.tobytes(), h.taps.tobytes())
                for x, _, h, _, _ in bands] == before


class TestMultirateCore:
    """The one overlap-add core with both rate changes at once, against
    zero-stuffing, full convolution and decimation done apart."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("u", [1, 2, 4])
    @pytest.mark.parametrize("n_out", [1, 333, 5000])
    def test_two_parts_match_the_chain(self, u, d, n_out):
        parts = [(rand_signal(u, 700).samples, _symmetric_taps(d, 91).taps,
                  u, 45),
                 (rand_signal(9, 300).samples, _symmetric_taps(3, 33).taps,
                  1, 10)]
        ref = np.zeros(n_out, dtype=np.complex128)
        for x, taps, k, start in parts:
            z = upsample_zero_stuff(ComplexSignal(x, 1.0), k)
            y = convolve_full(z, FilterTaps(taps)).samples[start::d][:n_out]
            ref[:len(y)] += y
        _assert_close(dsp._multirate([part + (dsp._fill,) for part in parts],
                                     n_out, d), ref)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2, 4]),
           layout=st.lists(st.tuples(st.sampled_from([1, 2, 4]),
                                     st.integers(0, 60), st.integers(1, 3000),
                                     st.integers(0, 300), st.booleans()),
                           min_size=1, max_size=3),
           n_rows=st.integers(1, 12), end=st.floats(0, 1),
           in_tail=st.booleans(), chunk_rows=st.integers(1, 3))
    def test_chunk_edges_leave_no_trace(self, seed, d, layout, n_rows, end,
                                        in_tail, chunk_rows):
        # the rows are made a chunk at a time and each chunk's last tail is
        # carried into the next: chunks of one to three block rows give the
        # bytes of one chunk over all rows (every input here fits in one)
        rng = np.random.default_rng(seed)
        parts = []
        for k, (u, half, n, start, shifted) in enumerate(layout):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            fill = dsp._fill
            if shifted:
                fill = partial(dsp._fill_shifted, table=dsp._phasor_table(
                    n, rng.uniform(-0.5, 0.5), 1.0))
            parts.append((x, _symmetric_taps(seed + k, 2 * half + 1).taps,
                          u, start, fill))
        # the layout _multirate picks: the output starts on a row, so it
        # ends inside the tail carried into its last row when it ends
        # within width - hop samples of that row's start
        n_taps = max(len(taps) + -start % u for _, taps, u, start, _ in parts)
        m = max([d] + [u for _, _, u, _, _ in parts])
        nfft = dsp._ola_fft_len(n_taps, m)
        hop = (nfft - n_taps + 1) // m * m // d
        reach = max(nfft // d - hop, 1) if in_tail else hop
        n_out = (n_rows - 1) * hop + 1 + int(end * (reach - 1))
        whole = dsp._multirate(parts, n_out, d)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dsp, "_OLA_CHUNK", chunk_rows * nfft)
            chunked = dsp._multirate(parts, n_out, d)
        assert chunked.tobytes() == whole.tobytes()


    @settings(max_examples=200, deadline=None)
    @given(u=st.sampled_from([1, 2, 4]), hop=st.integers(1, 40),
           data=st.data())
    def test_part_rows_give_one_view_per_row(self, u, hop, data):
        # _part_spectra hands its fill one view per block row, in order:
        # row j holds samples j*hop - lead on, row 0 opens with lead zeros,
        # the views cover samples k.. of x once each, and a row past the
        # samples gets an empty view
        lead = data.draw(st.integers(0, hop - 1), label="lead")
        width = hop + data.draw(st.integers(0, 8), label="tail")
        n = data.draw(st.integers(0, 12 * hop), label="n")
        j0 = data.draw(st.integers(0, 12), label="j0")
        j1 = data.draw(st.integers(j0 + 1, 14), label="j1")
        x = np.arange(1, n + 1) * (1 + 2j)
        calls = []

        def recording(views, x, k):
            calls.append(k)
            rows = views[0].base
            assert rows.shape == (j1 - j0, width)
            assert len(views) == j1 - j0
            at = k
            for i, view in enumerate(views):
                first = (j0 + i) * hop - lead  # row j0 + i's first sample
                assert (len(view) > 0) == (max(first, 0) < n)
                if len(view):
                    r, c = divmod((view.ctypes.data - rows.ctypes.data)
                                  // view.itemsize, width)
                    assert r == i and first + c == at
                    assert c == (lead if j0 + i == 0 else 0)
                    assert c + len(view) <= hop
                at += len(view)
            assert at == min(max(j1 * hop - lead, 0), n)
            dsp._fill(views, x, k)

        part = (x, n, None, u, recording, lead, 0, j1)
        got = dsp._part_spectra(part, u * width, u * hop, j0, j1)
        assert calls == [min(max(j0 * hop - lead, 0), n)]
        want = np.zeros((j1 - j0, width), dtype=np.complex128)
        for j in range(j0, j1):
            for c in range(hop):
                if 0 <= j * hop - lead + c < n:
                    want[j - j0, c] = x[j * hop - lead + c]
        assert got.tobytes() == np.fft.fft(want, axis=1).tobytes()


class TestStreamIsReadOnce:
    """A _Stream is read once, in order: a read that needs samples of a
    piece already dropped, or that goes back, raises instead of giving
    other samples."""

    @staticmethod
    def _burst():
        # table1 band 3 at 256 symbols: pieces of 120, 120 and 16 symbols
        sc = replace(get_preset("table1"), n_symbols=256)
        qam = random_payload(sc, 2, np.random.default_rng(256))[1]
        nm = sc.subbands[2]
        return _burst_stream(qam, nm, "cp-ofdm"), nm.n_fft + nm.n_cp

    @pytest.mark.parametrize("take", ["whole", "signal"])
    def test_taken_whole_only_before_any_read(self, take):
        s, _ = self._burst()
        s[0:10]
        with pytest.raises(DspError):
            getattr(s, take)()

    def test_taken_whole_once(self):
        s, _ = self._burst()
        assert len(s.whole()) == len(s)
        with pytest.raises(DspError):
            s.whole()
        with pytest.raises(DspError):
            s[0:10]

    def test_a_read_that_goes_back_raises(self):
        s, _ = self._burst()
        s[100:200]
        with pytest.raises(DspError):
            s[150:160]

    def test_a_read_from_before_the_piece_raises(self):
        s, stride = self._burst()
        s[0:10]
        s[130 * stride:130 * stride + 10]
        with pytest.raises(DspError):
            s[10:20]


class TestStreamedBands:
    """A band given as a _Stream, made in pieces of any size, composes to
    the bytes of the same band given whole."""

    @staticmethod
    def _stream(x, cuts):
        return stream_in_pieces(x, sorted({min(c, len(x)) for c in cuts}))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           bands=st.lists(st.tuples(st.sampled_from([1, 2, 4]),
                                    st.integers(0, 40000),
                                    st.integers(0, 300), st.booleans(),
                                    st.lists(st.integers(0, 40000),
                                             max_size=6)),
                          min_size=1, max_size=3),
           n_out=st.integers(0, 50000))
    def test_pieces_compose_like_the_whole_band(self, seed, bands, n_out):
        # u = 1 with a unit tap is the pass-through band, read a phasor
        # piece at a time; a band may end before n_out or run past it
        rng = np.random.default_rng(seed)
        whole, streamed = [], []
        for k, (u, n, skip, shifted, cuts) in enumerate(bands):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h = (FilterTaps(np.ones(1)) if u == 1 and k % 2 == 0
                 else _symmetric_taps(seed + k, 2 * (10 * u) + 1))
            f_hz = rng.uniform(-0.4, 0.4) if shifted else 0.0
            whole.append((ComplexSignal(x, 1.0 / u), u, h, f_hz, skip))
            streamed.append((self._stream(x, cuts), u, h, f_hz, skip))
        kept = [band[0].samples.tobytes() for band in whole]
        ref = interpolate_mix_sum(whole, 1.0, n_out).whole()
        got = interpolate_mix_sum(streamed, 1.0, n_out).whole()
        assert got.tobytes() == ref.tobytes()
        assert [band[0].samples.tobytes() for band in whole] == kept
