import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixnum import config, dsp
from mixnum.config import (ScenarioConfig, SubbandNumerology, _burst_layout,
                           center_frequencies, composite_length,
                           composite_rate, scenario_from_dict,
                           subband_sample_rate, symbols_per_band,
                           upsampling_factor)
from mixnum.dsp import (ComplexSignal, convolve_full, design_subband_filter,
                        frequency_shift, interpolate_mix_sum,
                        mix_filter_decimate, wofdm_window)
from mixnum.link import receive_filter
from mixnum.modem import qam_modulate
from mixnum.waveform import (_burst_stream, _cp_ofdm, _payload_streams,
                             build_burst, build_composite, compose,
                             interpolation_filter, random_payload,
                             payload_symbols, used_subcarrier_bins)
from oracles import traced_peak, upsample_zero_stuff


def small_band(**kw):
    base = dict(n_fft=64, n_cp=8, scs_hz=15e3, n_used=24, n_guard=0,
                filter_len=33, transition_hz=15e3)
    base.update(kw)
    return SubbandNumerology(**base)


def payload(nm, n_sym, seed=0, M=4):
    bits = np.random.default_rng(seed).integers(
        0, 2, n_sym * nm.n_used * int(np.log2(M)), dtype=np.uint8)
    return qam_modulate(bits, M)


class TestSubcarrierMapping:
    def test_used_bins_centered_on_dc(self):
        bins = used_subcarrier_bins(16, 4)
        np.testing.assert_array_equal(bins, [14, 15, 0, 1])

    @staticmethod
    def window_spectra(qam, nm):
        """FFT of each symbol's window past its CP in the CP-OFDM pieces
        made from qam, cut into a one-symbol slice and the rest."""
        pieces = list(_cp_ofdm([qam[:nm.n_used], qam[nm.n_used:]], nm))
        rows = np.concatenate(pieces).reshape(-1, nm.n_fft + nm.n_cp)
        return np.fft.fft(rows[:, nm.n_cp:], axis=1)

    def test_round_trip(self):
        nm = small_band()
        qam = payload(nm, 3)
        spectra = self.window_spectra(qam, nm)
        used = used_subcarrier_bins(nm.n_fft, nm.n_used)
        np.testing.assert_allclose(spectra[:, used].reshape(-1), qam,
                                   rtol=0, atol=1e-15)

    def test_unused_bins_are_zero(self):
        nm = small_band()
        spectra = self.window_spectra(payload(nm, 2), nm)
        assert spectra.shape == (2, nm.n_fft)
        unused = np.setdiff1d(np.arange(nm.n_fft),
                              used_subcarrier_bins(nm.n_fft, nm.n_used))
        # zero to the round-off of an inverse FFT and its FFT
        np.testing.assert_allclose(spectra[:, unused], 0, rtol=0, atol=1e-15)


class TestCpOfdm:
    def test_length_formula(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180)
        sig = build_burst(payload(nm, 3), nm, "cp-ofdm")
        assert len(sig) == 3 * (1024 + 64) == 3264
        assert _burst_layout(nm, "cp-ofdm", 3) == (0, 3264)

    def test_cyclic_prefix_is_cyclic(self):
        nm = small_band()
        sig = build_burst(payload(nm, 4), nm, "cp-ofdm")
        stride = nm.n_fft + nm.n_cp
        assert len(sig) == 4 * stride
        for k in range(4):
            sym = sig.samples[k * stride:(k + 1) * stride]
            np.testing.assert_allclose(sym[:nm.n_cp], sym[-nm.n_cp:],
                                       atol=1e-15)

    def test_fft_recovers_grid(self):
        nm = small_band()
        qam = payload(nm, 2)
        sig = build_burst(qam, nm, "cp-ofdm")
        stride = nm.n_fft + nm.n_cp
        rec = []
        for k in range(2):
            win = sig.samples[k * stride + nm.n_cp:(k + 1) * stride]
            rec.append(np.fft.fft(win)[used_subcarrier_bins(nm.n_fft,
                                                            nm.n_used)])
        np.testing.assert_allclose(np.concatenate(rec), qam, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(n_sym=st.integers(1, 6), n_cp=st.integers(0, 16))
    def test_length_property(self, n_sym, n_cp):
        nm = small_band(n_cp=n_cp)
        sig = build_burst(payload(nm, n_sym), nm, "cp-ofdm")
        assert len(sig) == n_sym * (nm.n_fft + n_cp)


class TestFOfdm:
    def test_length_and_delay(self):
        nm = small_band()
        sig = build_burst(payload(nm, 3), nm, "f-ofdm")
        assert len(sig) == 3 * (64 + 8) + 33 - 1
        assert _burst_layout(nm, "f-ofdm", 3) == (16, len(sig))

    def test_is_filtered_cp_ofdm(self):
        nm = small_band()
        qam = payload(nm, 2)
        cp_sig = build_burst(qam, nm, "cp-ofdm")
        f_sig = build_burst(qam, nm, "f-ofdm")
        taps = design_subband_filter(nm.n_fft, nm.n_used, nm.r_subcarriers,
                                     nm.filter_len)
        np.testing.assert_allclose(
            f_sig.samples, np.convolve(cp_sig.samples, taps.taps), atol=1e-14)

    def test_oob_energy_reduced(self):
        nm = small_band(n_used=12, filter_len=63, transition_hz=30e3)
        qam = payload(nm, 16)
        cp_sig = build_burst(qam, nm, "cp-ofdm")
        f_sig = build_burst(qam, nm, "f-ofdm")

        def oob_power(x):
            spec = np.abs(np.fft.fft(x, 4096)) ** 2
            bins = np.fft.fftfreq(4096) * nm.n_fft
            return spec[np.abs(bins) > 12].sum()

        assert oob_power(f_sig.samples) < 0.1 * oob_power(cp_sig.samples)

    @settings(max_examples=10, deadline=None)
    @given(n_sym=st.integers(1, 5), half=st.integers(4, 40))
    def test_length_property(self, n_sym, half):
        nm = small_band(filter_len=2 * half + 1)
        sig = build_burst(payload(nm, n_sym), nm, "f-ofdm")
        assert len(sig) == n_sym * (64 + 8) + 2 * half
        assert _burst_layout(nm, "f-ofdm", n_sym) == (half, len(sig))


class TestWOfdm:
    def test_length_formula(self):
        nm = small_band(n_prefix=4, n_transition=4)
        sig = build_burst(payload(nm, 3), nm, "w-ofdm")
        assert len(sig) == 3 * (64 + 8) + 4 + 1
        assert _burst_layout(nm, "w-ofdm", 3) == (0, len(sig))

    def test_toy_hand_construction(self):
        # N=16, Ng=4, prefix 2, transition 2, one symbol, built by hand
        nm = SubbandNumerology(n_fft=16, n_cp=4, scs_hz=15e3, n_used=12,
                               n_prefix=2, n_transition=2)
        qam = payload(nm, 1, seed=5)
        sig = build_burst(qam, nm, "w-ofdm")
        grid = np.zeros(16, dtype=np.complex128)
        grid[used_subcarrier_bins(16, 12)] = qam
        t = np.fft.ifft(grid)
        ext = np.concatenate([t[-4:], t, t[:3]])       # 23 samples
        win = np.concatenate([[0.0, 0.0, 0.34], np.ones(17), [0.34, 0.0, 0.0]])
        np.testing.assert_allclose(sig.samples, ext * win, atol=1e-15)
        assert len(sig) == 1 * (16 + 4) + 2 + 1 == 23
        np.testing.assert_array_equal(sig.samples[:2], 0.0)
        np.testing.assert_array_equal(sig.samples[-2:], 0.0)

    def test_zero_transition_matches_cp_ofdm_windows(self):
        nm = small_band(n_prefix=4, n_transition=0)
        qam = payload(nm, 4)
        w_sig = build_burst(qam, nm, "w-ofdm")
        cp_sig = build_burst(qam, nm, "cp-ofdm")
        stride = nm.n_fft + nm.n_cp
        for k in range(4):
            lo = k * stride + nm.n_cp
            np.testing.assert_allclose(w_sig.samples[lo:lo + nm.n_fft],
                                       cp_sig.samples[lo:lo + nm.n_fft],
                                       atol=1e-12)

    def test_overlap_add_stride(self):
        # consecutive symbols overlap by n_prefix + 1 samples
        nm = small_band(n_prefix=4, n_transition=2)
        sig2 = build_burst(payload(nm, 2), nm, "w-ofdm")
        sig1 = build_burst(payload(nm, 2)[:nm.n_used], nm, "w-ofdm")
        stride = nm.n_fft + nm.n_cp
        # first burst's contribution is intact before the overlap region
        np.testing.assert_allclose(sig2.samples[:stride],
                                   sig1.samples[:stride], atol=1e-15)

    @pytest.mark.parametrize("n_sym", [1, 2, 7])
    @pytest.mark.parametrize("n_prefix,n_tr", [(1, 0), (4, 2), (7, 6)])
    def test_overlap_add_matches_symbol_loop(self, n_sym, n_prefix, n_tr):
        # each windowed, extended symbol added in at k * stride, one by one
        nm = small_band(n_prefix=n_prefix, n_transition=n_tr)
        qam = payload(nm, n_sym, seed=n_sym)
        n_cp_star = nm.n_cp - n_prefix
        grid = np.zeros((n_sym, nm.n_fft), dtype=np.complex128)
        grid[:, used_subcarrier_bins(nm.n_fft, nm.n_used)] = \
            qam.reshape(n_sym, nm.n_used)
        t = np.fft.ifft(grid, axis=1)
        ext = np.concatenate([t[:, -nm.n_cp:], t, t[:, :n_prefix + 1]],
                             axis=1)
        ext = ext * wofdm_window(nm.n_fft, n_cp_star, n_prefix, n_tr)
        stride = nm.n_fft + nm.n_cp
        ref = np.zeros(n_sym * stride + n_prefix + 1, dtype=np.complex128)
        for k in range(n_sym):
            ref[k * stride:k * stride + ext.shape[1]] += ext[k]
        np.testing.assert_array_equal(build_burst(qam, nm, "w-ofdm").samples,
                                      ref)

    @settings(max_examples=10, deadline=None)
    @given(n_sym=st.integers(1, 5), n_prefix=st.integers(1, 7))
    def test_length_property(self, n_sym, n_prefix):
        nm = small_band(n_prefix=n_prefix,
                        n_transition=2 * (n_prefix // 2))
        sig = build_burst(payload(nm, n_sym), nm, "w-ofdm")
        assert len(sig) == n_sym * (64 + 8) + n_prefix + 1
        assert _burst_layout(nm, "w-ofdm", n_sym) == (0, len(sig))


class TestCompose:
    def test_single_band_identity(self):
        nm = small_band()
        sc = ScenarioConfig(subbands=(nm,), f1_hz=0.0, n_symbols=2)
        burst = build_burst(payload(nm, 2), nm, "cp-ofdm")
        out = compose([burst], sc).whole()
        np.testing.assert_allclose(out, burst.samples, atol=1e-15)

    def test_f_ofdm_group_delay_compensated(self):
        # symbol 0 of a filtered band must still start at composite sample 0
        nm = small_band(filter_len=33)
        sc = ScenarioConfig(subbands=(nm,), f1_hz=0.0, n_symbols=4)
        sc_f = ScenarioConfig(subbands=(nm,), waveform="f-ofdm", f1_hz=0.0,
                              n_symbols=4)
        qam = payload(nm, 4)
        f_out = compose([build_burst(qam, nm, "f-ofdm")], sc_f).whole()
        cp_out = compose([build_burst(qam, nm, "cp-ofdm")], sc).whole()
        n = 4 * (nm.n_fft + nm.n_cp)
        err = np.sum(np.abs(f_out[:n] - cp_out[:n]) ** 2)
        ref = np.sum(np.abs(cp_out[:n]) ** 2)
        # residual is only the filter's passband ripple
        assert 10 * np.log10(err / ref) < -20

    def test_interpolation_filter_is_shared_across_separations(self):
        # the design depends on u and the cp only, so a sweep over m
        # designs each band's filter once
        sc = config.get_preset("table1")
        for i in range(3):
            _, a, _ = interpolation_filter(config.with_gap(sc, 0.0), i)
            _, b, _ = interpolation_filter(config.with_gap(sc, 1.44e6), i)
            assert a is b

    def test_disjoint_band_powers_add(self):
        sc = replace(config.get_preset("table1"), n_symbols=4)
        sigs = []
        for i, nm in enumerate(sc.subbands):
            pl = payload(nm, config.symbols_per_band(sc, i), seed=i)
            sigs.append(build_burst(pl, nm, "cp-ofdm"))
        both = compose(sigs, sc).whole()
        p_sum = 0.0
        for i in range(3):
            solo = [s if k == i else ComplexSignal(np.zeros(len(s)), s.rate_hz)
                    for k, s in enumerate(sigs)]
            p_sum += np.sum(np.abs(compose(solo, sc).whole()) ** 2)
        p_both = np.sum(np.abs(both) ** 2)
        assert 10 * abs(np.log10(p_both / p_sum)) < 0.1

    @pytest.mark.parametrize("waveform", ["cp-ofdm", "f-ofdm", "w-ofdm"])
    def test_composite_length_is_the_composed_length(self, waveform):
        # table1 has u = 2, 1, 4, so the longest band decides the length
        sc = replace(config.get_preset("table1"), waveform=waveform,
                     n_symbols=2)
        bursts = [build_burst(payload(nm, config.symbols_per_band(sc, i)),
                              nm, waveform)
                  for i, nm in enumerate(sc.subbands)]
        assert len(compose(bursts, sc)) == composite_length(sc)

    def test_composite_rate(self):
        sc = replace(config.get_preset("table1"), n_symbols=1)
        payloads = [payload(nm, config.symbols_per_band(sc, i), seed=i)
                    for i, nm in enumerate(sc.subbands)]
        sig = build_composite(sc, payloads)
        assert sig.rate_hz == composite_rate(sc) == 61.44e6


# two sub-bands at u = 8 and u = 1: 15 kHz and 120 kHz spacing, n_fft 1024
U8_SCENARIO_JSON = """{"subbands": [
  {"n_fft": 1024, "n_cp": 72, "scs_hz": 15000, "n_used": 120, "n_guard": 12,
   "filter_len": 257, "transition_hz": 45000},
  {"n_fft": 1024, "n_cp": 72, "scs_hz": 120000, "n_used": 96, "n_guard": 12,
   "filter_len": 65, "transition_hz": 360000}],
 "waveform": "f-ofdm", "n_symbols": 3}"""


def _compose_by_chain(bursts, sc):
    """compose() the long way: zero-stuff each burst, filter it, drop the
    group delays and shift it, all at the composite rate."""
    fs, freqs = composite_rate(sc), center_frequencies(sc)
    out = np.zeros(composite_length(sc), dtype=np.complex128)
    for i, burst in enumerate(bursts):
        u = upsampling_factor(sc, i)
        _, h, _ = interpolation_filter(sc, i)
        y = convolve_full(upsample_zero_stuff(burst, u), h).samples
        delay = _burst_layout(sc.subbands[i], sc.waveform,
                              symbols_per_band(sc, i))[0]
        y = y[h.group_delay + u * delay:]
        y = frequency_shift(ComplexSignal(y, fs), freqs[i]).samples
        out[:len(y)] += y
    return out


class TestComposeMatchesChain:
    @pytest.mark.parametrize("sc", [
        *(replace(config.get_preset("table1"), waveform=wf, n_symbols=6,
                  seed=3)
          for wf in ("cp-ofdm", "f-ofdm", "w-ofdm")),
        replace(config.get_preset("single-band"), waveform="f-ofdm",
                n_symbols=5),
        replace(config.get_preset("bypass"), n_symbols=4),
        config.scenario_from_dict(json.loads(U8_SCENARIO_JSON)),
    ], ids=["table1-cp-ofdm", "table1-f-ofdm", "table1-w-ofdm",
            "single-band", "bypass", "json-u8"])
    def test_matches_zero_stuff_filter_shift(self, sc):
        rng = np.random.default_rng(sc.seed)
        bursts = [build_burst(random_payload(sc, i, rng)[1], nm, sc.waveform)
                  for i, nm in enumerate(sc.subbands)]
        out = compose(bursts, sc).signal()
        ref = _compose_by_chain(bursts, sc)
        assert len(out) == len(ref) == composite_length(sc)
        assert out.rate_hz == composite_rate(sc)
        assert np.abs(out.samples - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_json_scenario_has_u8(self):
        sc = scenario_from_dict(json.loads(U8_SCENARIO_JSON))
        assert [upsampling_factor(sc, i) for i in range(2)] == [8, 1]


WAVEFORMS = ["cp-ofdm", "f-ofdm", "w-ofdm"]

# tracemalloc peak of build_composite on table1 at 64 symbols, in bytes per
# composite sample: 51.9-55.3 measured for the three waveforms, so one more
# composite-length array (16 bytes a sample) breaks it
PEAK_BYTES_PER_COMPOSITE_SAMPLE = 64
# tracemalloc peak of one compose or convolve_full call beyond its inputs
# and its result, whatever the length: the overlap-add works a chunk of
# dsp._OLA_CHUNK block points (16 bytes each) at a time. 4.3-5.8 MB was
# measured on table1 at 64 and 512 symbols, so one result-sized array
# (35.7 MB at 512 symbols) breaks it.
CHUNK_WORK_BYTES = 4 * 16 * dsp._OLA_CHUNK
# tracemalloc peak of a CP-OFDM build_burst per byte of its result
CP_OFDM_PEAK_PER_RESULT = 1.25
# tracemalloc peak of build_composite beyond its result, whatever the
# length: compose's chunks, and for each of the three bands the piece it is
# reading and the one being made next (for f-OFDM, with the filter's rows
# and output). 9.6-10.5 MB was measured on table1 at 64 symbols and
# 10.5-12.8 MB at 512; the whole bursts (62.5 MB at 512 symbols) break it.
STREAM_WORK_BYTES = 10 * 16 * dsp._OLA_CHUNK


class TestTransmitChainMemory:
    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_chain_leaves_every_argument_unchanged(self, waveform):
        sc = replace(config.get_preset("table1"), waveform=waveform,
                     n_symbols=4)
        rng = np.random.default_rng(5)
        freqs = center_frequencies(sc)
        bursts, bands = [], []
        for i, nm in enumerate(sc.subbands):
            qam = random_payload(sc, i, rng)[1]
            before = qam.tobytes()
            for wf in WAVEFORMS:
                build_burst(qam, nm, wf)
                assert qam.tobytes() == before, wf
            bursts.append(build_burst(qam, nm, waveform))
            u, h, skip = interpolation_filter(sc, i)
            bands.append((bursts[i], u, h, freqs[i], skip))
        kept = [b.samples.tobytes() for b in bursts]
        composite = compose(bursts, sc).signal()
        assert [b.samples.tobytes() for b in bursts] == kept
        interpolate_mix_sum(bands, composite_rate(sc),
                            composite_length(sc)).whole()
        assert [b.samples.tobytes() for b in bursts] == kept
        for i, (burst, nm) in enumerate(zip(bursts, sc.subbands)):
            h = design_subband_filter(nm.n_fft, nm.n_used, nm.r_subcarriers,
                                      nm.filter_len)
            convolve_full(burst, h)
            assert burst.samples.tobytes() == kept[i]
        rx = composite.samples.tobytes()
        for i in range(len(bursts)):
            mix_filter_decimate(composite, freqs[i], receive_filter(sc, i),
                                upsampling_factor(sc, i))
            assert composite.samples.tobytes() == rx

    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_build_composite_peak_per_composite_sample(self, waveform):
        sc = replace(config.get_preset("table1"), waveform=waveform,
                     n_symbols=64)
        rng = np.random.default_rng(11)
        payloads = [random_payload(sc, i, rng)[1]
                    for i in range(len(sc.subbands))]
        _, peak = traced_peak(lambda: build_composite(sc, payloads).whole())
        assert peak <= PEAK_BYTES_PER_COMPOSITE_SAMPLE * composite_length(sc)

    @pytest.mark.parametrize("n_symbols", [64, 512])
    def test_compose_peak_beyond_its_result_is_bounded(self, n_symbols):
        sc = replace(config.get_preset("table1"), n_symbols=n_symbols)
        rng = np.random.default_rng(11)
        bursts = [build_burst(random_payload(sc, i, rng)[1], nm, sc.waveform)
                  for i, nm in enumerate(sc.subbands)]
        composite, peak = traced_peak(lambda: compose(bursts, sc).whole())
        assert peak - composite.nbytes <= CHUNK_WORK_BYTES

    @pytest.mark.parametrize("n_symbols", [64, 512])
    def test_build_composite_peak_beyond_its_result_is_bounded(self,
                                                               n_symbols):
        for waveform in WAVEFORMS:
            sc = replace(config.get_preset("table1"), waveform=waveform,
                         n_symbols=n_symbols)
            rng = np.random.default_rng(11)
            payloads = [random_payload(sc, i, rng)[1]
                        for i in range(len(sc.subbands))]
            composite, peak = traced_peak(
                lambda: build_composite(sc, payloads).whole())
            assert peak - composite.nbytes <= STREAM_WORK_BYTES, \
                waveform

    @pytest.mark.parametrize("n_symbols", [64, 512])
    def test_f_ofdm_filter_peak_beyond_its_result_is_bounded(self,
                                                             n_symbols):
        sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                     n_symbols=n_symbols)
        nm = sc.subbands[1]
        qam = random_payload(sc, 1, np.random.default_rng(11))[1]
        burst = build_burst(qam, nm, "cp-ofdm")
        h = design_subband_filter(nm.n_fft, nm.n_used, nm.r_subcarriers,
                                  nm.filter_len)
        filtered, peak = traced_peak(lambda: convolve_full(burst, h))
        assert peak - filtered.samples.nbytes <= CHUNK_WORK_BYTES

    @pytest.mark.parametrize("band", range(3))
    def test_cp_ofdm_burst_peak_is_near_its_result(self, band):
        # each symbol is inverse-FFT'd in its own row of the burst: 1.06x
        # was measured, and one more burst-sized array reads 2.0x
        sc = replace(config.get_preset("table1"), n_symbols=256)
        nm = sc.subbands[band]
        qam = random_payload(sc, band, np.random.default_rng(11))[1]
        burst, peak = traced_peak(lambda: build_burst(qam, nm, "cp-ofdm"))
        assert peak <= CP_OFDM_PEAK_PER_RESULT * burst.samples.nbytes


# table1 composites are overlap-added in block rows of 8192 points
TABLE1_ROW_POINTS = 8192


def _streams(sc, payloads):
    return [_burst_stream(qam, nm, sc.waveform)
            for qam, nm in zip(payloads, sc.subbands)]


def _piece_ends(stream):
    """Where each piece of a stream not yet read ends."""
    return np.cumsum([len(piece) for piece in stream._pieces])


def _pass_through_reads(sc, payloads, stream):
    """Where compose's reads of table1 band 2, which passes through at the
    composite rate, start and end: one read per phasor piece of each piece
    of the composite."""
    _, _, skip = interpolation_filter(sc, 1)
    m = min(len(stream) - skip, composite_length(sc))
    table = dsp._phasor_table(m, center_frequencies(sc)[1],
                              composite_rate(sc))
    starts = [0, *_piece_ends(build_composite(sc, payloads))]
    return [skip + a + j for a, b in zip(starts, starts[1:]) if a < m
            for j, _ in dsp._phasor_pieces(table, a, min(b, m) - a)] \
        + [skip + m]


def _table1(waveform, n_symbols):
    sc = replace(config.get_preset("table1"), waveform=waveform,
                 n_symbols=n_symbols)
    rng = np.random.default_rng(n_symbols)
    return sc, [random_payload(sc, i, rng)[1]
                for i in range(len(sc.subbands))]


class TestStreamedBursts:
    """build_composite makes each burst a chunk of symbols at a time, as
    compose reads it: at any chunk size the pieces hold build_burst's bytes
    and the composite is compose's of the whole bursts."""

    @settings(max_examples=25, deadline=None)
    @given(waveform=st.sampled_from(WAVEFORMS),
           n_symbols=st.integers(1, 64), chunk_rows=st.integers(1, 3))
    @example("f-ofdm", 41, 1)
    @example("f-ofdm", 53, 1)
    @example("cp-ofdm", 17, 2)
    @example("w-ofdm", 51, 5)
    @example("w-ofdm", 50, 20)
    def test_streamed_bursts_are_byte_identical(self, waveform, n_symbols,
                                                chunk_rows):
        sc, payloads = _table1(waveform, n_symbols)
        kept = [qam.tobytes() for qam in payloads]
        whole = [build_burst(qam, nm, waveform).samples.tobytes()
                 for qam, nm in zip(payloads, sc.subbands)]
        default = build_composite(sc, payloads).whole().tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dsp, "_OLA_CHUNK", chunk_rows * TABLE1_ROW_POINTS)
            streamed = [s[0:len(s)].tobytes() for s in _streams(sc, payloads)]
            chunked = build_composite(sc, payloads).whole().tobytes()
        bursts = [ComplexSignal(np.frombuffer(b, dtype=np.complex128),
                                subband_sample_rate(nm))
                  for b, nm in zip(whole, sc.subbands)]
        assert streamed == whole
        assert chunked == default == compose(bursts, sc).whole().tobytes()
        assert [qam.tobytes() for qam in payloads] == kept

    @pytest.mark.parametrize("waveform,n_symbols,chunk_rows,edge", [
        ("f-ofdm", 41, 1, "filter tail"),
        ("f-ofdm", 53, 1, "pass-through end"),
        ("cp-ofdm", 17, 2, "pass-through end"),
        ("w-ofdm", 51, 5, "suffix"),
        ("w-ofdm", 50, 20, "last suffix")])
    def test_examples_put_an_edge_where_they_say(self, waveform, n_symbols,
                                                 chunk_rows, edge):
        # the examples above stay the cases they were chosen for: a piece
        # of band 3 ends inside its f-OFDM filter's tail; compose's last
        # read of band 2 spans its last two pieces; a read of band 2 ends
        # inside a suffix carried into its next piece, or inside the last.
        # Band 2 is read at phasor row ends only within composite pieces
        # longer than _PHASOR_PIECE, so the w-OFDM cases take chunks of 5
        # and 20 rows
        sc, payloads = _table1(waveform, n_symbols)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dsp, "_OLA_CHUNK", chunk_rows * TABLE1_ROW_POINTS)
            streams = _streams(sc, payloads)
            if edge == "filter tail":
                nm = sc.subbands[2]
                body = config.symbols_per_band(sc, 2) * (nm.n_fft + nm.n_cp)
                ends = _piece_ends(streams[2])[:-1]
                assert any(body < e < body + nm.filter_len - 1 for e in ends)
                return
            reads = _pass_through_reads(sc, payloads, streams[1])
            ends = _piece_ends(streams[1])
        overlap = sc.subbands[1].n_prefix + 1
        if edge == "pass-through end":
            assert len(ends) > 1 and reads[-2] < ends[-2] < reads[-1]
        elif edge == "suffix":
            assert any(e < r < e + overlap for e in ends[:-1] for r in reads)
        else:
            assert any(ends[-1] - overlap < r < ends[-1] for r in reads)


def _read_in_order(stream, rng):
    """All of a stream, read in order between a dozen random cuts."""
    cuts = [0, *np.sort(rng.integers(0, len(stream), 12)), len(stream)]
    return np.concatenate([stream[a:b] for a, b in zip(cuts, cuts[1:])])


class TestStreamJoins:
    """whole() joins a stream's pieces into the bytes that reads in order
    give, wherever they are cut."""

    @pytest.mark.parametrize("scenario", ["bypass", "single-band"])
    @pytest.mark.parametrize("n_symbols", [121, 130])
    def test_pass_through_composite(self, scenario, n_symbols):
        # every band passes through, so the composite's pieces are _zeros'
        # pieces with the bands added: past _OLA_CHUNK samples, two of them
        sc = replace(config.get_preset(scenario), n_symbols=n_symbols)
        rng = np.random.default_rng(n_symbols)
        payloads = [random_payload(sc, i, rng)[1]
                    for i in range(len(sc.subbands))]
        assert len(_piece_ends(build_composite(sc, payloads))) == 2
        whole = build_composite(sc, payloads).whole()
        assert len(whole) == composite_length(sc)
        read = _read_in_order(build_composite(sc, payloads), rng)
        bursts = [build_burst(qam, nm, sc.waveform)
                  for qam, nm in zip(payloads, sc.subbands)]
        assert whole.tobytes() == read.tobytes()
        assert whole.tobytes() == compose(bursts, sc).whole().tobytes()

    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_burst_stream(self, waveform):
        # table1 bursts at 256 symbols are three to nine pieces each
        sc, payloads = _table1(waveform, 256)
        rng = np.random.default_rng(7)
        for qam, nm in zip(payloads, sc.subbands):
            whole = _burst_stream(qam, nm, waveform).whole()
            read = _read_in_order(_burst_stream(qam, nm, waveform), rng)
            assert whole.tobytes() == read.tobytes()


class TestBurstPieces:
    """The CP-OFDM pieces that f-OFDM filters and w-OFDM windows may be any
    number of symbols: the filter reads them across its block rows and
    chunks alike, and the window carries each piece's last suffix into the
    next."""

    @pytest.mark.parametrize("waveform", ["f-ofdm", "w-ofdm"])
    @pytest.mark.parametrize("per", [1, 2, 3])
    @pytest.mark.parametrize("chunk_rows", [1, None])
    def test_pieces_of_a_few_symbols_match_one_piece(self, waveform, per,
                                                      chunk_rows):
        sc, payloads = _table1(waveform, 30)
        whole = [build_burst(qam, nm, waveform).samples.tobytes()
                 for qam, nm in zip(payloads, sc.subbands)]
        with pytest.MonkeyPatch.context() as patch:
            if chunk_rows:
                patch.setattr(dsp, "_OLA_CHUNK",
                              chunk_rows * TABLE1_ROW_POINTS)
            streamed = [_burst_stream(qam, nm, waveform, per).whole()
                        for qam, nm in zip(payloads, sc.subbands)]
        assert [b.tobytes() for b in streamed] == whole


class TestPayloadStreams:
    """psd's payload streams hold the symbols that random_payload draws for
    each band in turn from one generator, read side by side. This pins
    numpy's bit stream: integers(0, 2, n, dtype=uint8) takes one byte of
    its buffered 32-bit outputs per bit, so a band starts one PCG64 step
    per 8 bits of the bands before it, and a numpy that draws them
    otherwise fails here."""

    @pytest.mark.parametrize("name", sorted(config.PRESETS))
    @pytest.mark.parametrize("mod", config.MOD_ORDERS)
    @pytest.mark.parametrize("waveform", ["cp-ofdm", "f-ofdm"])
    @pytest.mark.parametrize("n_symbols", [120, 130])
    def test_streams_are_one_draw_per_band_in_turn(self, name, mod,
                                                   waveform, n_symbols):
        # bursts are drawn 120 table1 symbols (f-OFDM 30) a piece: at 130
        # symbols every band's last piece is partial, at 120 none is
        sc = replace(config.get_preset(name), waveform=waveform,
                     mod_order=mod, n_symbols=n_symbols)
        seed_seq = np.random.SeedSequence(11, spawn_key=(0x5D,))
        rng = np.random.default_rng(seed_seq)
        drawn = [random_payload(sc, i, rng)[1].tobytes()
                 for i in range(len(sc.subbands))]
        streams = _payload_streams(sc, seed_seq)
        read = [[] for _ in streams]
        for a in range(0, max(map(len, streams)), 5000):
            for parts, stream in zip(read, streams):
                parts.append(stream[a:a + 5000])
        assert [np.concatenate(p).tobytes() for p in read] == drawn


class TestPayloadSymbols:
    def test_table1_counts(self):
        sc = replace(config.get_preset("table1"), n_symbols=8)
        assert [payload_symbols(sc, i) for i in range(3)] == [
            16 * 180, 32 * 180, 8 * 180]
