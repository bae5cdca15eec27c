from dataclasses import replace

import numpy as np
import pytest

from mixnum import config, dsp, link
from mixnum.config import (F0_HZ, center_frequencies, composite_length,
                           composite_rate, scenario_hash, symbols_per_band,
                           upsampling_factor, with_gap)
from mixnum.dsp import (ComplexSignal, FilterTaps, _block_spectra, _fill,
                        convolve_full, frequency_shift)
from mixnum.link import (CAL_MIN_SYMBOLS, LinkError, _calibration_scenario,
                         _complex_noise, _noise_spectra, awgn_from_rng,
                         calibrate, noise_variance_for_ebn0, receive_filter,
                         receive_subband)
from mixnum.metrics import evm_db
from mixnum.waveform import (build_burst, build_composite, compose,
                             payload_symbols, random_payload,
                             used_subcarrier_bins)
from oracles import complex_noise, response_at, traced_peak


def seeded_payloads(sc, seed=0, M=None):
    rng = np.random.default_rng(seed)
    return [random_payload(sc, i, rng, M)[1] for i in range(len(sc.subbands))]


class TestAwgn:
    def test_zero_variance_is_identity(self):
        x = ComplexSignal(np.arange(8) * (1 + 2j), 1e6)
        y = awgn_from_rng(x, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(y.samples, x.samples)
        assert y.rate_hz == x.rate_hz

    def test_empirical_variance(self):
        x = ComplexSignal(np.zeros(10 ** 6), 1e6)
        y = awgn_from_rng(x, 1.0, np.random.default_rng(4))
        assert np.mean(np.abs(y.samples) ** 2) == pytest.approx(1.0,
                                                                abs=0.005)

    def test_same_seed_same_noise(self):
        x = ComplexSignal(np.zeros(64), 1e6)
        a = awgn_from_rng(x, 0.5, np.random.default_rng(9))
        b = awgn_from_rng(x, 0.5, np.random.default_rng(9))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_rng_variant_matches_convention(self):
        x = ComplexSignal(np.zeros(10 ** 5), 1e6)
        y = awgn_from_rng(x, 2.0, np.random.default_rng(0))
        assert np.mean(np.abs(y.samples) ** 2) == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize("n,variance,seed", [
        (0, 1.0, 0), (1, 1.0, 1), (7, 0.5, 2), (1000, 2.5, 3),
        (4097, 1e-300, 4), (333, 0.0, 5), (10 ** 5, 1.0, 6)])
    def test_noise_matches_the_oracle_byte_for_byte(self, n, variance, seed):
        got = np.empty(n, dtype=np.complex128)
        _complex_noise([got], variance, np.random.default_rng(seed))
        want = complex_noise(n, variance, np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cuts", [(), (0,), (5,), (1, 2, 3), (0, 0, 999)])
    def test_noise_split_across_views_is_the_same_noise(self, cuts):
        # the real parts of every view come before the imaginary parts,
        # and nothing outside the views is written
        n = 1000
        buffer = np.zeros(n + 2, dtype=np.complex128)
        views = [buffer[1 + a:1 + b] for a, b in zip((0, *cuts), (*cuts, n))]
        _complex_noise(views, 0.7, np.random.default_rng(5))
        want = complex_noise(n, 0.7, np.random.default_rng(5))
        assert buffer[1:-1].tobytes() == want.tobytes()
        assert buffer[0] == buffer[-1] == 0

    def test_noise_added_to_a_signal_matches_the_oracle(self):
        x = ComplexSignal(np.arange(50) * (1 - 2j), 1e6)
        y = awgn_from_rng(x, 0.3, np.random.default_rng(8))
        want = x.samples + complex_noise(50, 0.3, np.random.default_rng(8))
        assert y.samples.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def bypass_cal():
    return calibrate(replace(config.get_preset("bypass"), n_symbols=8,
                             seed=3), 0)


class TestBypassCalibration:
    @pytest.fixture
    def cal(self, bypass_cal):
        return bypass_cal

    def test_eq_is_unity(self, cal):
        np.testing.assert_allclose(cal.eq_coeffs, 1.0, atol=1e-10)

    def test_es_is_unity(self, cal):
        np.testing.assert_allclose(cal.es_per_subcarrier, 1.0, atol=1e-10)

    def test_noise_gain_matches_fft_scaling(self, cal):
        # unscaled forward FFT of white noise: variance grows by n_fft
        assert cal.mean_noise_gain == pytest.approx(1024.0, rel=0.02)

    def test_noise_gain_flat(self, cal):
        # per-subcarrier estimates over CAL_MIN_SYMBOLS symbols have a
        # relative standard error of about 1/sqrt(256); allow 5 of those
        dev = np.abs(cal.noise_gain_per_subcarrier / cal.mean_noise_gain - 1)
        assert CAL_MIN_SYMBOLS >= 256
        assert np.max(dev) < 5.0 / np.sqrt(CAL_MIN_SYMBOLS)

    def test_deterministic(self, cal):
        again = calibrate(replace(config.get_preset("bypass"), n_symbols=8,
                                  seed=3), 0)
        np.testing.assert_array_equal(cal.eq_coeffs, again.eq_coeffs)
        np.testing.assert_array_equal(cal.noise_gain_per_subcarrier,
                                      again.noise_gain_per_subcarrier)


@pytest.mark.parametrize("band", range(3))
def test_table1_calibration_repeats_bit_for_bit(band):
    # the memo is cleared between the runs, so the noise is drawn twice
    sc = config.get_preset("table1")
    link._CAL_SPECTRA.clear()
    a = calibrate(sc, band)
    link._CAL_SPECTRA.clear()
    b = calibrate(sc, band)
    np.testing.assert_array_equal(a.eq_coeffs, b.eq_coeffs)
    np.testing.assert_array_equal(a.es_per_subcarrier, b.es_per_subcarrier)
    np.testing.assert_array_equal(a.noise_gain_per_subcarrier,
                                  b.noise_gain_per_subcarrier)


def band_noise(seed, i, n):
    """Band i's calibration noise: child 1 of the (0xCA1, i) stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(0xCA1, i))
    return complex_noise(n, 1.0, np.random.default_rng(ss.spawn(2)[1]))


def front_end_spectra(x, h, u):
    """The receive front end's block spectra of the samples x."""
    return _block_spectra(x, h, u, _fill)


class TestCalibrationNoise:
    """The memo of the noise run's front-end block spectra."""

    H = FilterTaps(np.hanning(7))

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(link, "_CAL_SPECTRA", {})

    def test_is_read_only(self):
        spectra = _noise_spectra(3, 0, 64, self.H, 2)
        assert not spectra.flags.writeable
        with pytest.raises(ValueError):
            spectra[0, 0] = 0.0

    def test_is_the_second_child_of_the_band_stream(self):
        want = front_end_spectra(band_noise(3, 1, 100), self.H, 2)
        got = _noise_spectra(3, 1, 100, self.H, 2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [10, 11, 13, 40000])
    def test_layout_that_cuts_samples_keeps_the_stream(self, n):
        # a unit tap at u = 4 keeps no sample past the last decimated
        # one, so the rows hold fewer than n samples: the imaginary parts
        # still follow all n real parts
        h = FilterTaps(np.ones(1))
        want = front_end_spectra(band_noise(3, 1, n), h, 4)
        got = _noise_spectra(3, 1, n, h, 4)
        assert got.tobytes() == want.tobytes()

    def test_rows_longer_than_2_14_samples_keep_the_stream(self):
        # 8191 receive taps at u = 2 give block rows of 61441 samples, far
        # longer than any preset's: the noise stream must not depend on
        # where a draw is cut within a row
        h = FilterTaps(np.hanning(8191))
        want = front_end_spectra(band_noise(3, 1, 150_000), h, 2)
        got = _noise_spectra(3, 1, 150_000, h, 2)
        assert got.tobytes() == want.tobytes()

    def test_memo_holds_at_most_one_entry(self):
        first = _noise_spectra(3, 0, 64, self.H, 2)
        # equal taps of another value are the same layout
        assert _noise_spectra(3, 0, 64, FilterTaps(np.ones(7)), 2) is first
        for key, h in [((3, 1, 64, 7, 2), self.H),
                       ((4, 1, 64, 7, 2), self.H),
                       ((4, 1, 65, 7, 2), self.H),
                       ((4, 1, 65, 3, 2), FilterTaps(np.ones(3))),
                       ((4, 1, 65, 3, 1), FilterTaps(np.ones(3))),
                       ((3, 0, 64, 7, 2), self.H)]:
            _noise_spectra(*key[:3], h, key[4])
            assert list(link._CAL_SPECTRA) == [key]

    def test_entry_is_dropped_before_the_next_draw(self, monkeypatch):
        kept = []
        draw = link._complex_noise

        def counted(views, variance, rng):
            kept.append(len(link._CAL_SPECTRA))
            return draw(views, variance, rng)

        monkeypatch.setattr(link, "_complex_noise", counted)
        for seed in (3, 3, 4, 3):
            _noise_spectra(seed, 0, 64, self.H, 2)
        assert kept == [0, 0, 0]

    def test_dropped_entry_is_recomputed_bit_for_bit(self):
        first = _noise_spectra(3, 0, 64, self.H, 2).tobytes()
        _noise_spectra(3, 1, 64, self.H, 2)
        assert _noise_spectra(3, 0, 64, self.H, 2).tobytes() == first


@pytest.mark.parametrize("sc,band", [
    *((replace(config.get_preset("table1"), waveform=wf), band)
      for wf in config.WAVEFORMS for band in range(3)),
    *((replace(config.get_preset("single-band"), waveform=wf), 0)
      for wf in config.WAVEFORMS),
    (config.get_preset("bypass"), 0),
], ids=[*(f"table1-{wf}-{band}" for wf in config.WAVEFORMS
          for band in range(3)),
        *(f"single-band-{wf}" for wf in config.WAVEFORMS), "bypass"])
def test_noise_run_matches_receive_subband(sc, band, monkeypatch):
    # the noise run applies band i's taps at separation m to spectra kept
    # from the first m, and gets receive_subband's points byte for byte;
    # bypass has no receive filter, which gives the unit-tap layout
    runs = []
    demodulate = link._demodulate

    def spy(x, sc, i, eq=None):
        runs.append(demodulate(x, sc, i, eq))
        return runs[-1]

    monkeypatch.setattr(link, "_CAL_SPECTRA", {})
    for m in range(3):
        sc_m = with_gap(sc, 12 * m * F0_HZ)
        sc_cal = _calibration_scenario(sc_m, band)
        noise = ComplexSignal(
            band_noise(sc.seed, band, composite_length(sc_cal)),
            composite_rate(sc_cal))
        monkeypatch.setattr(link, "_demodulate", spy)
        calibrate(sc_m, band)
        monkeypatch.setattr(link, "_demodulate", demodulate)
        want = receive_subband(noise, sc_cal, band)
        assert runs[-1].tobytes() == want.tobytes()
    assert len(link._CAL_SPECTRA) == 1


# how far receive_subband's tracemalloc peak beyond twice its front end's
# output (that output beside its shifted copy, or beside demodulation's
# FFT of it) may grow from 130 to 512 table1 symbols: the front end makes
# its block rows a chunk of dsp._OLA_CHUNK points at a time. 0.1-2.8 MB
# was measured; making every block row at once grows it by 5.6-22.4 MB.
RECEIVE_GROWTH_BYTES = 2 * 16 * dsp._OLA_CHUNK


def test_receive_subband_peak_beyond_its_output_does_not_grow():
    residual = {}
    for n_symbols in (130, 512):
        sc = replace(config.get_preset("table1"), n_symbols=n_symbols)
        y = build_composite(sc, seeded_payloads(sc, 11)).signal()
        for i in range(len(sc.subbands)):
            h, u = receive_filter(sc, i), upsampling_factor(sc, i)
            n_out = len(range(h.group_delay, len(y) + len(h) - 1, u))
            _, peak = traced_peak(lambda: receive_subband(y, sc, i))
            residual[n_symbols, u] = peak - 2 * 16 * n_out
    for u in (1, 2, 4):
        assert residual[512, u] - residual[130, u] <= RECEIVE_GROWTH_BYTES, u


def _composite_path_calibration(sc, i):
    """calibrate() the long way: compose band i with silent neighbours,
    then mix down, filter and decimate at the composite rate; the noise run
    adds unit noise to an all-zero composite."""
    sc = _calibration_scenario(sc, i)
    ss = np.random.SeedSequence(sc.seed, spawn_key=(0xCA1, i))
    rng_sym, rng_noise = [np.random.default_rng(s) for s in ss.spawn(2)]
    _, qam = random_payload(sc, i, rng_sym, mod_order=4)
    sig = compose([build_burst(qam if k == i else
                               np.zeros(payload_symbols(sc, k)), nm,
                               sc.waveform)
                   for k, nm in enumerate(sc.subbands)], sc).signal()
    nm = sc.subbands[i]
    n_sym, stride = symbols_per_band(sc, i), nm.n_fft + nm.n_cp
    taps = receive_filter(sc, i) if sc.rx_filter else FilterTaps(np.ones(1))

    def receive(y):
        x = convolve_full(frequency_shift(y, -center_frequencies(sc)[i]),
                          taps).samples[taps.group_delay::
                                        upsampling_factor(sc, i)]
        segs = x[:n_sym * stride].reshape(n_sym, stride)[:, nm.n_cp:]
        return np.fft.fft(segs, axis=1)[:, used_subcarrier_bins(nm.n_fft,
                                                                nm.n_used)]

    rx = receive(sig)
    h = 1.0 / np.mean(qam.reshape(-1, nm.n_used) / rx, axis=0)
    eq = np.full_like(h, np.vdot(h, np.ones_like(h)) / np.vdot(h, h))
    noise = awgn_from_rng(ComplexSignal(np.zeros(len(sig)), sig.rate_hz),
                          1.0, rng_noise)
    return (eq, np.mean(np.abs(rx * eq) ** 2, axis=0),
            np.mean(np.abs(receive(noise) * eq) ** 2, axis=0))


@pytest.mark.parametrize("band", range(3))
@pytest.mark.parametrize("waveform", ["cp-ofdm", "f-ofdm", "w-ofdm"])
def test_band_rate_calibration_matches_composite_path(waveform, band):
    # the band-rate cascade, including the share of the interpolated head
    # that compose() drops, reproduces the composite-rate chain to rounding
    _check_band_rate_calibration(
        replace(config.get_preset("table1"), waveform=waveform), band)


@pytest.mark.parametrize("sc,band", [
    *((replace(config.get_preset("single-band"), waveform=wf), 0)
      for wf in ("cp-ofdm", "f-ofdm", "w-ofdm")),
    *((replace(config.get_preset("table1"), rx_filter=False), band)
      for band in range(3)),
], ids=["single-band-cp-ofdm", "single-band-f-ofdm", "single-band-w-ofdm",
        "table1-no-rx-filter-0", "table1-no-rx-filter-1",
        "table1-no-rx-filter-2"])
def test_band_rate_calibration_matches_composite_path_off_table1(sc, band):
    # single-band runs at u = 1: skip is 0 on CP- and w-OFDM and, on
    # f-OFDM, the burst's leading delay alone. Without a receive filter the
    # head correction has no outputs to correct
    _check_band_rate_calibration(sc, band)


def _check_band_rate_calibration(sc, band):
    cal = calibrate(sc, band)
    eq, es, gain = _composite_path_calibration(sc, band)
    np.testing.assert_allclose(cal.eq_coeffs, eq, rtol=1e-9)
    np.testing.assert_allclose(cal.es_per_subcarrier, es, rtol=1e-9)
    np.testing.assert_allclose(cal.noise_gain_per_subcarrier, gain,
                               rtol=1e-9)


class TestNoiseGainLinearity:
    def test_doubling_variance_doubles_output(self):
        sc = replace(config.get_preset("table1"), waveform="cp-ofdm",
                     n_symbols=8, seed=2)
        cal = calibrate(sc, 0)
        nm = sc.subbands[0]
        n = symbols_per_band(sc, 0) * (nm.n_fft + nm.n_cp) * 2 + 10000
        rng = np.random.default_rng(77)
        base = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        out = []
        for scale in (1.0, np.sqrt(2.0)):
            sig = ComplexSignal(scale * base / np.sqrt(2.0),
                                composite_rate(sc))
            pts = receive_subband(sig, sc, 0, cal)
            out.append(np.mean(np.abs(pts) ** 2))
        assert out[1] / out[0] == pytest.approx(2.0, rel=0.03)


class TestReceiveSubband:
    def test_bypass_perfect_reconstruction(self):
        sc = replace(config.get_preset("bypass"), n_symbols=8, seed=5)
        cal = calibrate(sc, 0)
        payloads = seeded_payloads(sc, seed=6)
        sig = build_composite(sc, payloads).signal()
        rx = receive_subband(sig, sc, 0, cal)
        assert evm_db(rx.reshape(-1), payloads[0]) < -100

    def test_single_active_band_has_no_aci(self):
        # with the band-select filter off, the only impairment left for a
        # lone band is interpolation error, which must be negligible
        sc = replace(config.get_preset("table1"), waveform="cp-ofdm",
                     n_symbols=4, seed=1, rx_filter=False)
        cal = calibrate(sc, 2)
        payloads = seeded_payloads(sc, seed=9)
        for k in (0, 1):
            payloads[k] = np.zeros_like(payloads[k])
        sig = build_composite(sc, payloads).signal()
        rx = receive_subband(sig, sc, 2, cal)
        assert evm_db(rx.reshape(-1), payloads[2]) < -60

    def test_receive_filter_self_distortion_pinned(self):
        # the band-select filter strips part of the band's own out-of-band
        # energy, leaving a small eq-independent floor; pinned on first run
        sc = replace(config.get_preset("table1"), waveform="cp-ofdm",
                     n_symbols=8, seed=1)
        cal = calibrate(sc, 2)
        payloads = seeded_payloads(sc, seed=9)
        for k in (0, 1):
            payloads[k] = np.zeros_like(payloads[k])
        sig = build_composite(sc, payloads).signal()
        rx = receive_subband(sig, sc, 2, cal)
        assert evm_db(rx.reshape(-1), payloads[2]) == pytest.approx(-37.3,
                                                                    abs=0.5)

    def test_rate_mismatch_rejected(self):
        sc = replace(config.get_preset("bypass"), n_symbols=2)
        sig = build_composite(sc, seeded_payloads(sc)).signal()
        wrong = ComplexSignal(sig.samples, sig.rate_hz / 2)
        with pytest.raises(LinkError):
            receive_subband(wrong, sc, 0)

    def test_calibration_hash_mismatch_rejected(self):
        sc = replace(config.get_preset("table1"), n_symbols=4)
        other = replace(config.get_preset("table1"), n_symbols=4, seed=1)
        cal = calibrate(other, 0)
        sig = build_composite(sc, seeded_payloads(sc)).signal()
        with pytest.raises(LinkError):
            receive_subband(sig, sc, 0, cal)

    def test_calibration_band_mismatch_rejected(self):
        sc = replace(config.get_preset("table1"), n_symbols=4)
        cal = calibrate(sc, 1)
        sig = build_composite(sc, seeded_payloads(sc)).signal()
        with pytest.raises(LinkError):
            receive_subband(sig, sc, 0, cal)

    def test_timing_fault_destroys_constellation(self):
        sc = replace(config.get_preset("table1"), waveform="cp-ofdm",
                     n_symbols=4, seed=8)
        cal = calibrate(sc, 0)
        payloads = seeded_payloads(sc, seed=8)
        sig = build_composite(sc, payloads).signal()
        off = ComplexSignal(np.concatenate([np.zeros(2 * 70), sig.samples]),
                            sig.rate_hz)
        rx = receive_subband(off, sc, 0, cal)
        assert evm_db(rx.reshape(-1), payloads[0]) > -10


class TestEqualizerModes:
    def test_scalar_eq_is_a_single_tap(self):
        sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                     n_symbols=4, seed=11)
        cal = calibrate(sc, 1)
        assert np.all(cal.eq_coeffs == cal.eq_coeffs[0])

    def test_per_subcarrier_eq_flattens_the_band(self):
        sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                     n_symbols=4, seed=11, eq_mode="per-subcarrier")
        cal = calibrate(sc, 1)
        assert len(np.unique(cal.eq_coeffs)) > 1
        np.testing.assert_allclose(cal.es_per_subcarrier, 1.0, atol=0.05)

    def test_scalar_eq_keeps_filter_droop(self):
        # under the scalar tap, the f-OFDM band edges stay attenuated
        sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                     n_symbols=4, seed=11)
        cal = calibrate(sc, 1)
        es = cal.es_per_subcarrier
        assert es[0] < 0.9 * np.median(es)


class TestRegressionPins:
    def test_f_ofdm_band2_noiseless_evm(self):
        # full-chain distortion of the short (89-tap) band-2 filter under
        # the scalar equalizer; value pinned from the first run
        sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                     n_symbols=8, seed=11)
        cal = calibrate(sc, 1)
        # the semi-analytic run's burst: trial 0's composite
        from mixnum.metrics import _trial
        sig, payloads, _, _ = _trial(sc, 0)
        rx = receive_subband(sig, sc, 1, cal)
        assert evm_db(rx, payloads[1]) == pytest.approx(-17.507, abs=0.05)

    def test_receive_filter_stopband(self):
        sc = config.get_preset("table1")
        taps = receive_filter(sc, 0)
        # response one octave beyond the passband edge, relative to DC
        h = np.abs(response_at(taps, np.array([0.0, 2 * 96 / 2048.0])))
        assert 20 * np.log10(h[1] / h[0]) < -60


class TestNoiseVarianceConvention:
    def test_three_db_halves_variance(self):
        sc = replace(config.get_preset("bypass"), n_symbols=8)
        cal = calibrate(sc, 0)
        v0 = noise_variance_for_ebn0(sc, cal, 5.0)
        v3 = noise_variance_for_ebn0(sc, cal, 5.0 + 10 * np.log10(2.0))
        assert v0 / v3 == pytest.approx(2.0, rel=1e-12)

    def test_bypass_absolute_value(self):
        # es ~ 1, noise gain ~ n_fft: var = 1 / (k * gamma * 1024)
        sc = replace(config.get_preset("bypass"), n_symbols=8)
        cal = calibrate(sc, 0)
        v = noise_variance_for_ebn0(sc, cal, 0.0)
        assert v == pytest.approx(1.0 / (2 * 1024), rel=0.03)
