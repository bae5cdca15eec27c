"""End-to-end acceptance checks.

One test per criterion, each printing a PASS/FAIL line with the measured
numbers so the suite output doubles as a results table. Tolerances are part
of the contract and must not be loosened to make a run pass.
"""

from dataclasses import replace

import numpy as np
import pytest

from mixnum import config
from mixnum.config import (F0_HZ, SubbandNumerology, center_frequencies,
                           composite_rate, upsampling_factor, with_gap)
from mixnum.dsp import blackman_transition, design_subband_filter, wofdm_window
from mixnum.link import calibrate, receive_subband
from mixnum.metrics import (ebn0_at_target_ber, evm_db, monte_carlo_ber,
                            semianalytic_run, welch_psd)
from mixnum.modem import qam_modulate
from mixnum.waveform import (build_burst, build_composite, payload_symbols)
from oracles import qam_ber_awgn, qfunc

WAVEFORMS = ("cp-ofdm", "f-ofdm", "w-ofdm")


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label}: {detail}"


def seeded_payloads(sc, seed=0):
    k = int(np.log2(sc.mod_order))
    rng = np.random.default_rng(seed)
    return [qam_modulate(rng.integers(0, 2, k * payload_symbols(sc, i),
                                      dtype=np.uint8), sc.mod_order)
            for i in range(len(sc.subbands))]


class TestCriterion1ClosedFormOracle:
    def test_bypass_monte_carlo_matches_theory(self, capsys):
        details, ok = [], True
        sc = replace(config.get_preset("bypass"), n_symbols=8, seed=3)
        cal = calibrate(sc, 0)
        for db in (0.0, 2.0, 4.0, 6.0):
            gamma = 10 ** (db / 10)
            expect = float(qfunc(np.sqrt(2 * gamma)))
            pt = monte_carlo_ber(sc, 0, db, cal=cal)
            se = np.sqrt(expect * (1 - expect) / pt.n_bits)
            ok &= pt.n_errors >= 100 and abs(pt.ber - expect) < 3 * se
            details.append(f"QPSK@{db:g}dB {pt.ber:.3e} vs {expect:.3e}")
        for M, db in ((16, 4.0), (64, 8.0), (256, 12.0)):
            gamma = 10 ** (db / 10)
            expect = float(qam_ber_awgn(M, gamma))
            assert expect >= 1e-3
            scm = replace(config.get_preset("bypass"), mod_order=M,
                          n_symbols=8, seed=3)
            calm = calibrate(scm, 0)
            pt = monte_carlo_ber(scm, 0, db, min_errors=4000, cal=calm)
            rel = abs(pt.ber - expect) / expect
            ok &= rel <= 0.05
            details.append(f"{M}QAM@{db:g}dB rel {rel:.3f}")
        report(capsys, "criterion 1", ok, "; ".join(details))


class TestCriterion2SemiAnalyticVsMonteCarlo:
    def test_agreement_all_waveforms_all_bands(self, capsys):
        details, ok = [], True
        for wf in WAVEFORMS:
            sc = replace(config.get_preset("table1"), waveform=wf,
                         n_symbols=8, seed=3)
            for i in range(3):
                cal = calibrate(sc, i)
                run = semianalytic_run(sc, {i: cal})[i]
                for db in (0.0, 2.0):
                    mc = monte_carlo_ber(sc, i, db, cal=cal)
                    sa = run.ber(db)
                    assert mc.ber >= 1e-3
                    rel = abs(sa - mc.ber) / mc.ber
                    ok &= rel <= 0.10
                    details.append(f"{wf} b{i + 1}@{db:g}dB {rel:.3f}")
        report(capsys, "criterion 2", ok,
               "max rel dev " + max(details, key=lambda s: float(
                   s.rsplit(" ", 1)[1])))


class TestCriterion3PerfectReconstruction:
    def test_noiseless_invariants(self, capsys):
        sc = replace(config.get_preset("bypass"), n_symbols=8, seed=5)
        cal = calibrate(sc, 0)
        payloads = seeded_payloads(sc, seed=6)
        sig = build_composite(sc, payloads).signal()
        rx = receive_subband(sig, sc, 0, cal)
        evm = evm_db(rx.reshape(-1), payloads[0])

        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=30e3, n_used=180,
                               n_prefix=16, n_transition=0)
        rng = np.random.default_rng(1)
        qam = qam_modulate(rng.integers(0, 2, 2 * 4 * nm.n_used,
                                        dtype=np.uint8), 4)
        w_sig = build_burst(qam, nm, "w-ofdm")
        cp_sig = build_burst(qam, nm, "cp-ofdm")
        stride = nm.n_fft + nm.n_cp
        dev = 0.0
        for k in range(4):
            lo = k * stride + nm.n_cp
            dev = max(dev, float(np.max(np.abs(
                w_sig.samples[lo:lo + nm.n_fft]
                - cp_sig.samples[lo:lo + nm.n_fft]))))
        ok = evm <= -100.0 and dev <= 1e-12
        report(capsys, "criterion 3", ok,
               f"bypass EVM {evm:.1f} dB (<= -100); "
               f"zero-transition window dev {dev:.2e} (<= 1e-12)")


class TestCriterion4FilterWindowUnits:
    def test_unit_facts(self, capsys):
        ok, details = True, []
        for nm in config.get_preset("table1").subbands:
            taps = design_subband_filter(nm.n_fft, nm.n_used,
                                         nm.r_subcarriers, nm.filter_len).taps
            dc = abs(float(np.sum(taps)) - 1.0)
            sym = float(np.max(np.abs(taps - taps[::-1])))
            ok &= dc <= 1e-15 and sym == 0.0
            ok &= taps[0] == 0.0 and taps[-1] == 0.0
            details.append(f"L={len(taps)} dc-err {dc:.1e}")
        w = blackman_transition(512)
        ok &= w[0] == 0.0 and abs(w[256] - 0.34) <= 1e-15
        ww = wofdm_window(1024, 64, 16, 8)
        ok &= len(ww) == 1024 + 64 + 2 * 16 + 1
        ok &= bool(np.all(ww == ww[::-1]))
        report(capsys, "criterion 4", ok,
               "; ".join(details) + "; transition {0, 0.34}; "
               "window palindromic, length N+Ng*+2Nm+1")


class TestCriterion5MultirateBookkeeping:
    def test_rates_and_centres(self, capsys):
        sc = config.get_preset("table1")
        u = [upsampling_factor(sc, i) for i in range(3)]
        fs = composite_rate(sc)
        c = center_frequencies(sc)
        ok = (u == [2, 1, 4] and fs == 61.44e6
              and c[1] - c[0] == pytest.approx(8.28e6, abs=1e-6)
              and c[2] - c[1] == pytest.approx(6.93e6, abs=1e-6))
        report(capsys, "criterion 5", ok,
               f"U={u}, fs={fs / 1e6:g} MHz, "
               f"f2-f1={(c[1] - c[0]) / 1e6:g} MHz, "
               f"f3-f2={(c[2] - c[1]) / 1e6:g} MHz")


# out-of-band levels at the centre of the gap between the two widest bands,
# averaged over +-50 kHz of Welch bins; pinned from the first run (seed 7)
PSD_PROBE_PINS_DB = {"cp-ofdm": -17.9453, "w-ofdm": -18.5991,
                     "f-ofdm": -23.5301}


class TestCriterion6PsdOrdering:
    def test_gap_probe_ordering(self, capsys):
        sc0 = replace(config.get_preset("table1"), n_symbols=64, seed=7)
        c = center_frequencies(sc0)
        occ = [nm.occupied_hz for nm in sc0.subbands]
        probe = 0.5 * ((c[0] + occ[0] / 2) + (c[1] - occ[1] / 2))
        levels = {}
        for wf in WAVEFORMS:
            sc = replace(config.get_preset("table1"), waveform=wf,
                         n_symbols=64, seed=7)
            rng = np.random.default_rng(np.random.SeedSequence(
                sc.seed, spawn_key=(0x5D,)))
            k = int(np.log2(sc.mod_order))
            payloads = [qam_modulate(
                rng.integers(0, 2, k * payload_symbols(sc, i),
                             dtype=np.uint8), sc.mod_order)
                for i in range(3)]
            sig = build_composite(sc, payloads)
            curve = welch_psd(sig)
            sel = np.abs(curve.freq_hz - probe) <= 50e3
            levels[wf] = float(np.mean(curve.psd_db[sel]))
        ok = levels["f-ofdm"] < levels["w-ofdm"] < levels["cp-ofdm"]
        for wf, pin in PSD_PROBE_PINS_DB.items():
            ok &= abs(levels[wf] - pin) <= 0.05
        report(capsys, "criterion 6", ok,
               f"probe {probe / 1e6:g} MHz: " + ", ".join(
                   f"{wf} {levels[wf]:.2f} dB" for wf in WAVEFORMS)
               + " (want f < w < cp, each within 0.05 dB of its pin)")


def _sweep(wf, mod_order, band):
    sc = replace(config.get_preset("table1"), waveform=wf,
                 mod_order=mod_order, n_symbols=8, seed=11)
    return np.array([ebn0_at_target_ber(with_gap(sc, 12.0 * m * F0_HZ), band,
                                        target=0.05) for m in range(5)])


class TestCriterion7WaveformOrderings:
    def test_7a_qpsk_windowing_beats_filtering(self, capsys):
        f = _sweep("f-ofdm", 4, 1)
        w = _sweep("w-ofdm", 4, 1)
        ok = bool(np.all(w <= f + 1e-6))
        report(capsys, "criterion 7a", ok,
               f"QPSK thresholds (dB) w-OFDM {np.round(w, 3).tolist()} <= "
               f"f-OFDM {np.round(f, 3).tolist()} at every m")

    def test_7b_16qam_plain_cp_is_best(self, capsys):
        cp = _sweep("cp-ofdm", 16, 1)
        f = _sweep("f-ofdm", 16, 1)
        w = _sweep("w-ofdm", 16, 1)
        ok = bool(np.all(cp <= f + 1e-6) and np.all(cp <= w + 1e-6))
        report(capsys, "criterion 7b", ok,
               f"16-QAM thresholds (dB) cp {np.round(cp, 3).tolist()} lowest "
               f"(f {np.round(f, 3).tolist()}, w {np.round(w, 3).tolist()})")

    def test_7c_256qam_filtering_is_best_and_flattest(self, capsys):
        cp = _sweep("cp-ofdm", 256, 2)
        f = _sweep("f-ofdm", 256, 2)
        w = _sweep("w-ofdm", 256, 2)
        spread_f = float(f.max() - f.min())
        spread_cp = float(cp.max() - cp.min())
        ok = bool(np.all(f <= cp + 1e-6) and np.all(f <= w + 1e-6)
                  and spread_f < spread_cp)
        report(capsys, "criterion 7c", ok,
               f"256-QAM thresholds (dB) f {np.round(f, 3).tolist()} lowest; "
               f"spread f {spread_f:.3f} < cp {spread_cp:.3f}")

    def test_7d_256qam_band3_worst(self, capsys):
        details, ok = [], True
        for wf in WAVEFORMS:
            sc = replace(config.get_preset("table1"), waveform=wf,
                         mod_order=256, n_symbols=8, seed=11)
            runs = semianalytic_run(sc, {i: calibrate(sc, i)
                                         for i in range(3)})
            bers = [runs[i].ber(24.0) for i in range(3)]
            ok &= int(np.argmax(bers)) == 2
            details.append(
                f"{wf} BER@24dB " + "/".join(f"{b:.2e}" for b in bers)
                + f" worst=band {int(np.argmax(bers)) + 1}")
        report(capsys, "criterion 7d", ok,
               "; ".join(details) + " (want band 3 worst)")


class TestCriterion8Determinism:
    def test_cli_reruns_are_byte_identical(self, capsys, tmp_path):
        from mixnum.cli import main
        pairs = []
        for cmd in (["psd", "--scenario", "single-band", "--seed", "2"],
                    ["ber", "--scenario", "bypass", "--symbols", "4",
                     "--ebn0", "0:2:2", "--method", "mc"]):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{cmd[0]}_{tag}.csv"
                assert main(cmd + ["--out", str(out)]) == 0
                outs.append(out.read_bytes())
            pairs.append((cmd[0], outs[0] == outs[1]))
        ok = all(same for _, same in pairs)
        report(capsys, "criterion 8", ok,
               ", ".join(f"{name} rerun identical: {same}"
                         for name, same in pairs))
