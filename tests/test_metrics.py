from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

from mixnum import config, dsp, waveform
from mixnum.cli import EXIT_CONFIG, main
from mixnum.config import F0_HZ
from mixnum.dsp import ComplexSignal
from mixnum.link import calibrate
from mixnum.metrics import (WELCH_CHUNK_SEGMENTS, WELCH_SEGMENT_LEN,
                            MetricsError, ebn0_at_target_ber,
                            ebn0_for_target, evm_db, monte_carlo_ber,
                            monte_carlo_curves, semianalytic_run, welch_psd)
from mixnum.waveform import (_payload_streams, build_composite,
                             payload_symbols, random_payload)
from oracles import qam_ber_awgn, qfunc, stream_in_pieces, traced_peak


def scipy_welch(x, fs):
    """scipy's estimate with welch_psd's settings, FFT-shifted like it."""
    f, p = signal.welch(x, fs=fs, window="hann", nperseg=WELCH_SEGMENT_LEN,
                        noverlap=WELCH_SEGMENT_LEN // 2,
                        detrend=False, return_onesided=False,
                        scaling="density")
    return np.fft.fftshift(f), np.fft.fftshift(p)


def absolute_db(x, fs):
    """welch_psd's curve of x and its level in dB re 1/Hz: the relative
    curve plus the maximum of scipy's estimate, which
    test_matches_scipy_welch holds it to."""
    curve = welch_psd(ComplexSignal(x, fs))
    return curve, 10 * np.log10(scipy_welch(x, fs)[1].max()) + curve.psd_db


class TestWelchPsd:
    def test_tone_peaks_at_its_frequency(self):
        fs = 1e6
        n = np.arange(2 ** 16)
        f_tone = 125e3
        sig = ComplexSignal(np.exp(2j * np.pi * f_tone * n / fs), fs)
        curve = welch_psd(sig)
        peak_f = curve.freq_hz[np.argmax(curve.psd_db)]
        assert abs(peak_f - f_tone) <= curve.resolution_hz
        floor = np.median(curve.psd_db)
        assert curve.psd_db.max() - floor > 30

    def test_white_noise_level_and_flatness(self):
        rng = np.random.default_rng(0)
        fs = 2e6
        var = 4.0
        x = np.sqrt(var / 2) * (rng.standard_normal(2 ** 18)
                                + 1j * rng.standard_normal(2 ** 18))
        _, level = absolute_db(x, fs)
        expect = 10 * np.log10(var / fs)
        assert np.all(np.abs(level - expect) < 2.5)
        assert abs(np.mean(level) - expect) < 0.1

    def test_superposition_of_disjoint_bands(self):
        rng = np.random.default_rng(1)
        fs = 1e6
        n = np.arange(2 ** 16)

        def narrowband(f):
            x = rng.standard_normal(len(n)) + 1j * rng.standard_normal(len(n))
            from scipy.signal import firwin, lfilter
            x = lfilter(firwin(129, 0.02), 1.0, x)
            return x * np.exp(2j * np.pi * f * n / fs)

        a, b = narrowband(-200e3), narrowband(200e3)

        def band_max(sig, lo, hi):
            c, absolute = absolute_db(sig, fs)
            sel = (c.freq_hz >= lo) & (c.freq_hz <= hi)
            return absolute[sel].max()

        both_lo = band_max(a + b, -220e3, -180e3)
        alone_lo = band_max(a, -220e3, -180e3)
        assert abs(both_lo - alone_lo) < 0.5

    @pytest.mark.parametrize("n, segment_len, overlap", [
        (4096, 4096, 0.5),           # exactly one segment
        (3 * 4096 + 17, 4096, 0.5),  # partial last segment dropped
        (2 ** 16, 4096, 0.5),
    ])
    def test_matches_scipy_welch(self, n, segment_len, overlap):
        # welch_psd's segments overlap by half
        assert (segment_len, overlap) == (WELCH_SEGMENT_LEN, 0.5)
        rng = np.random.default_rng(n)
        fs = 61.44e6
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f, p = scipy_welch(x, fs)
        curve = welch_psd(ComplexSignal(x, fs))
        np.testing.assert_allclose(curve.freq_hz, f, rtol=1e-12)
        np.testing.assert_allclose(10.0 ** (curve.psd_db / 10.0),
                                   p / p.max(), rtol=1e-12)

    def test_short_signal_rejected(self, tmp_path, capsys, monkeypatch):
        # psd refuses a composite shorter than one segment before it builds
        # anything: one 16-point band at psd's 64-symbol floor holds 1024
        def refuse(*args, **kwargs):
            raise AssertionError("built a composite welch_psd cannot take")
        monkeypatch.setattr("mixnum.cli.build_composite", refuse)
        nm = config.SubbandNumerology(n_fft=16, n_cp=0, scs_hz=15e3,
                                      n_used=12)
        sc = config.ScenarioConfig(subbands=(nm,), f1_hz=0.0,
                                   rx_filter=False)
        assert config.composite_length(replace(sc, n_symbols=64)) == 1024
        path = tmp_path / "short.json"
        config.save_scenario(sc, path)
        out = tmp_path / "psd.csv"
        assert main(["psd", "--scenario", str(path), "--out", str(out)]) == \
            EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: psd needs") and err.count("\n") == 1
        assert "holds 1024 samples" in err

    def test_resolution(self):
        sig = ComplexSignal(np.ones(2 ** 14), 61.44e6)
        assert welch_psd(sig).resolution_hz == pytest.approx(61.44e6 / 4096)


def welch_by_groups(x, fs):
    """welch_psd's dB curve the direct way: every segment of the whole
    signal windowed at once, and each group of WELCH_CHUNK_SEGMENTS
    segments FFT'd and summed with np.sum before it joins the total."""
    step = WELCH_SEGMENT_LEN // 2
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WELCH_SEGMENT_LEN)
                             / WELCH_SEGMENT_LEN)
    segs = sliding_window_view(x, WELCH_SEGMENT_LEN)[::step]
    acc = np.zeros(WELCH_SEGMENT_LEN)
    for k in range(0, len(segs), WELCH_CHUNK_SEGMENTS):
        spec = np.fft.fft(segs[k:k + WELCH_CHUNK_SEGMENTS] * win, axis=1)
        acc += np.sum(spec.real ** 2 + spec.imag ** 2, axis=0)
    p = np.fft.fftshift(acc / (len(segs) * fs * np.sum(win ** 2)))
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(p / p.max())


# tracemalloc peak of welch_psd(build_composite(...)) on table1, beyond the
# payloads, whatever the length: Welch's few frames, compose's chunks and
# each band's piece. 10.9-11.8 MB was measured at 64 symbols and
# 12.8-14.2 MB at 512 (f-OFDM the largest), so the whole composite (35.7 MB
# at 512 symbols) breaks it.
PSD_WORK_BYTES = 11 * 16 * dsp._OLA_CHUNK


# how far the tracemalloc peak of psd's welch_psd(build_composite(...)) on
# table1 f-OFDM, payload streams included, may rise above its peak at 128
# symbols, the first length at which every band fills a chunk of its
# overlap-adds: it rose 0.2 MB up to 2048 symbols (14.4 to 14.6 MB), and
# read 12.1 MB at 64. Payloads drawn whole take about 4.6 bytes per
# composite sample (QPSK symbols as complex128: 10.3 MB at 512 symbols,
# 41.3 MB at 2048) and break it.
PSD_GROWTH_BYTES = 1 << 20


class TestStreamedWelch:
    """welch_psd reads a stream once, in order, a few segments at a time,
    and gives the bytes of the whole signal's estimate."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_segs=st.integers(1, 140),
           partial=st.integers(0, 2047),
           sizes=st.lists(st.one_of(st.integers(1, 5000),
                                    st.integers(1, 3 * 64 * 2048)),
                          max_size=12))
    @example(0, 1, 0, [1] * 12)
    @example(1, 63, 0, [4096, 1, 2047, 131072])
    @example(2, 64, 0, [131072 + 2048])
    @example(3, 65, 2047, [1, 131071, 2048, 1])
    @example(4, 128, 1000, [262144, 1, 7])
    def test_stream_in_any_pieces_gives_the_same_bytes(self, seed, n_segs,
                                                       partial, sizes):
        # n_segs segments of WELCH_SEGMENT_LEN at half overlap, and a
        # partial last segment of `partial` samples that is dropped
        n = (n_segs - 1) * 2048 + 4096 + partial
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fs = 61.44e6
        edges = np.cumsum(sizes)
        stream = stream_in_pieces(x, edges[edges < n], fs)
        whole = welch_psd(ComplexSignal(x, fs))
        streamed = welch_psd(stream)
        assert streamed.psd_db.tobytes() == whole.psd_db.tobytes()
        assert streamed.freq_hz.tobytes() == whole.freq_hz.tobytes()
        assert whole.psd_db.tobytes() == welch_by_groups(x, fs).tobytes()

    def test_short_stream_rejected(self):
        stream = stream_in_pieces(np.zeros(4095, dtype=complex), [], 1.0)
        with pytest.raises(MetricsError):
            welch_psd(stream)

    @pytest.mark.parametrize("n_symbols", [64, 512])
    def test_psd_peak_beyond_the_payloads_is_bounded(self, n_symbols):
        for wf in ("cp-ofdm", "f-ofdm", "w-ofdm"):
            sc = replace(config.get_preset("table1"), waveform=wf,
                         n_symbols=n_symbols)
            rng = np.random.default_rng(11)
            payloads = [random_payload(sc, i, rng)[1]
                        for i in range(len(sc.subbands))]
            _, peak = traced_peak(
                lambda: welch_psd(build_composite(sc, payloads)))
            assert peak <= PSD_WORK_BYTES, wf

    def test_psd_peak_does_not_grow_with_the_length(self):
        peaks = {}
        for n_symbols in (64, 128, 2048):
            sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                         n_symbols=n_symbols)
            seed_seq = np.random.SeedSequence(11, spawn_key=(0x5D,))
            _, peaks[n_symbols] = traced_peak(lambda: welch_psd(
                build_composite(sc, _payload_streams(sc, seed_seq))))
        assert max(peaks.values()) - peaks[128] <= PSD_GROWTH_BYTES, peaks


class TestEvm:
    def test_identical_hits_floor(self):
        x = np.ones(10) + 1j
        assert evm_db(x, x) == -300.0

    def test_zero_rx_is_zero_db(self):
        x = np.ones(16) * (1 + 1j)
        assert evm_db(np.zeros(16), x) == pytest.approx(0.0)

    def test_known_offset(self):
        ref = np.ones(100)
        rx = ref + 0.1
        assert evm_db(rx, ref) == pytest.approx(-20.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            evm_db(np.ones(3), np.ones(4))

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricsError):
            evm_db(np.ones(4), np.zeros(4))


@pytest.fixture(scope="module")
def bypass_run():
    sc = replace(config.get_preset("bypass"), n_symbols=8, seed=3)
    cal = calibrate(sc, 0)
    return sc, cal, semianalytic_run(sc, {0: cal})[0]


class TestSemiAnalytic:
    def test_monotone_in_ebn0(self, bypass_run):
        _, _, run = bypass_run
        grid = np.arange(-2.0, 10.0, 1.0)
        bers = [run.ber(db) for db in grid]
        assert all(a > b for a, b in zip(bers[:-1], bers[1:]))

    def test_bypass_matches_closed_form(self, bypass_run):
        # the distortionless chain must reproduce the analytic QPSK curve
        _, _, run = bypass_run
        for db in (0.0, 2.0, 4.0):
            gamma = 10 ** (db / 10)
            assert run.ber(db) == pytest.approx(
                float(qam_ber_awgn(4, gamma)), rel=0.03)

    def test_deterministic(self):
        sc = replace(config.get_preset("single-band"), n_symbols=4, seed=7)
        a = semianalytic_run(sc, {0: calibrate(sc, 0)})[0].ber(3.0)
        b = semianalytic_run(sc, {0: calibrate(sc, 0)})[0].ber(3.0)
        assert a == b

    def test_run_reuse_matches_one_shot(self, bypass_run):
        sc, cal, run = bypass_run
        assert semianalytic_run(sc, {0: cal})[0].ber(5.0) == run.ber(5.0)

    def test_run_keeps_its_tables_read_only(self, bypass_run):
        # every Eb/N0 point reads the same sigma-free tables and gains
        _, _, run = bypass_run
        for array in (*run.tables, run.noise_gain):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        before = [a.tobytes() for a in (*run.tables, run.noise_gain)]
        run.ber(3.0)
        assert [a.tobytes() for a in (*run.tables, run.noise_gain)] == before


class TestMonteCarlo:
    def test_bypass_matches_qfunc(self):
        sc = replace(config.get_preset("bypass"), n_symbols=8, seed=3)
        cal = calibrate(sc, 0)
        pt = monte_carlo_ber(sc, 0, 2.0, cal=cal)
        gamma = 10 ** (2.0 / 10)
        expect = float(qfunc(np.sqrt(2 * gamma)))
        se = np.sqrt(expect * (1 - expect) / pt.n_bits)
        assert pt.n_errors >= 100
        assert abs(pt.ber - expect) < 3 * se

    def test_deterministic(self):
        sc = replace(config.get_preset("bypass"), n_symbols=4, seed=5)
        cal = calibrate(sc, 0)
        a = monte_carlo_ber(sc, 0, 1.0, cal=cal)
        b = monte_carlo_ber(sc, 0, 1.0, cal=cal)
        assert (a.ber, a.n_bits, a.n_errors) == (b.ber, b.n_bits, b.n_errors)

    def test_max_bits_cap(self):
        sc = replace(config.get_preset("bypass"), n_symbols=4, seed=5)
        cal = calibrate(sc, 0)
        pt = monte_carlo_ber(sc, 0, 30.0, cal=cal, max_bits=2000)
        assert pt.n_bits <= 1440 * 2  # one trial of 4 symbols, rounded up
        assert pt.n_errors == 0
        assert pt.ber == 0.0

    def test_agrees_with_semianalytic(self):
        sc = replace(config.get_preset("single-band"), waveform="f-ofdm",
                     n_symbols=8, seed=4)
        cal = calibrate(sc, 0)
        sa = semianalytic_run(sc, {0: cal})[0].ber(2.0)
        mc = monte_carlo_ber(sc, 0, 2.0, cal=cal)
        assert abs(sa - mc.ber) / mc.ber < 0.1


class TestMonteCarloCurves:
    GRID = [0.0, 5.0]

    @pytest.fixture
    def compose_calls(self, monkeypatch):
        calls = []
        compose = waveform.compose

        def counting(*args, **kwargs):
            calls.append(1)
            return compose(*args, **kwargs)
        monkeypatch.setattr(waveform, "compose", counting)
        return calls

    def test_table1_matches_per_point_calls(self, compose_calls):
        sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                     n_symbols=8, seed=3)
        cals = {i: calibrate(sc, i) for i in range(len(sc.subbands))}
        curves = monte_carlo_curves(sc, cals, self.GRID)
        n_composed = len(compose_calls)
        assert list(curves) == [0, 1, 2]
        trials = []
        for i, points in curves.items():
            assert [pt.ebn0_db for pt in points] == self.GRID
            bits_per_trial = 2 * payload_symbols(sc, i)
            for db, pt in zip(self.GRID, points):
                assert pt == monte_carlo_ber(sc, i, db, cal=cals[i])
                assert pt.n_errors >= 100
                trials.append(pt.n_bits // bits_per_trial)
        # one composite per trial index, shared by every pair still counting
        assert len(set(trials)) > 1
        assert n_composed == max(trials) < sum(trials)

    def test_pairs_stop_independently(self, compose_calls):
        sc = replace(config.get_preset("bypass"), n_symbols=4, seed=5)
        cal = calibrate(sc, 0)
        bits_per_trial = 2 * payload_symbols(sc, 0)
        kw = dict(min_errors=100, max_bits=3 * bits_per_trial)
        low, high = monte_carlo_curves(sc, {0: cal}, [0.0, 30.0], **kw)[0]
        assert len(compose_calls) == 3
        # 0 dB reaches min_errors on the first trial; 30 dB sees no error
        # and runs until max_bits
        assert low.n_bits == bits_per_trial
        assert low.n_errors >= 100
        assert (high.n_bits, high.n_errors, high.ber) == \
            (3 * bits_per_trial, 0, 0.0)
        for db, pt in ((0.0, low), (30.0, high)):
            assert pt == monte_carlo_ber(sc, 0, db, cal=cal, **kw)


class TestTargetSearch:
    def test_distortionless_qpsk_threshold(self):
        # Q(sqrt(2 gamma)) = 0.05 at Eb/N0 = 1.3125 dB
        sc = replace(config.get_preset("single-band"), n_symbols=8, seed=11)
        run = semianalytic_run(sc, {0: calibrate(sc, 0)})[0]
        assert ebn0_for_target(run, 0.05) == pytest.approx(1.3125, abs=0.05)

    def test_unbracketed_target_raises(self, bypass_run):
        _, _, run = bypass_run
        with pytest.raises(MetricsError):
            ebn0_for_target(run, 0.4999)  # above ber at the -5 dB edge

    def test_sweep_structure(self):
        sc = replace(config.get_preset("table1"), waveform="cp-ofdm",
                     n_symbols=4, seed=11)
        out = [ebn0_at_target_ber(config.with_gap(sc, 12.0 * m * F0_HZ), 1,
                                  target=0.05) for m in range(2)]
        assert all(np.isfinite(v) for v in out)
        # wider separation cannot make things worse
        assert out[1] <= out[0] + 0.02

    def test_unbracketed_target_gives_nan(self):
        sc = replace(config.get_preset("single-band"), n_symbols=4, seed=11)
        # above the BER at the -5 dB bracket edge: unreachable, so NaN
        assert np.isnan(ebn0_at_target_ber(sc, 0, target=0.4999))
