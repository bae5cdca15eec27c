import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mixnum
from mixnum import cli, config, link
from mixnum.cli import (EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, MAX_GRID_DB,
                        MAX_GRID_POINTS, PSD_MIN_SYMBOLS, _parse_grid,
                        _parse_m_range, _sweep_workers, build_parser, main)
from mixnum.config import MAX_COMPOSITE_SAMPLES, ConfigError
from mixnum.metrics import MetricsError

# table1 spends 4 * 1088 composite samples per slowest-band symbol, and the
# one-band presets 1088: symbol counts just past the composite cap
TABLE1_SYMBOLS_OVER_CAP = MAX_COMPOSITE_SAMPLES // (4 * 1088) + 1
SYMBOLS_OVER_CAP = MAX_COMPOSITE_SAMPLES // 1088 + 1


class TestParsers:
    def test_grid_inclusive(self):
        assert _parse_grid("0:2:6") == [0.0, 2.0, 4.0, 6.0]

    def test_grid_single_point(self):
        assert _parse_grid("3:1:3") == [3.0]

    @pytest.mark.parametrize("spec,want", [
        ("0:3:11", [0.0, 3.0, 6.0, 9.0]),
        ("0:0.35:1", [0.0, 0.35, 0.7]),
        ("994:4:1000", [994.0, 998.0]),
        ("0:0.1:0.3", [0.0, 0.1, 0.2, 3 * 0.1])])
    def test_grid_stops_at_or_before_its_end(self, spec, want):
        # a step that does not divide the span adds no point past it
        assert _parse_grid(spec) == want

    @pytest.mark.parametrize("bad", ["0:2", "0:-1:4", "4:1:0", "a:b:c",
                                     "0:1:inf", "nan:1:2"])
    def test_grid_rejects(self, bad):
        with pytest.raises((ConfigError, ValueError)):
            _parse_grid(bad)

    def test_grid_bound_is_inclusive(self):
        assert _parse_grid(f"{-MAX_GRID_DB}:{MAX_GRID_DB}:{MAX_GRID_DB}") \
            == [-MAX_GRID_DB, 0.0, MAX_GRID_DB]

    @settings(max_examples=300, deadline=None)
    @example([0.0, 3.0, 11.0])
    @given(st.lists(st.one_of(st.floats(), st.floats(-1.1 * MAX_GRID_DB,
                                                     1.1 * MAX_GRID_DB)),
                    min_size=3, max_size=3))
    def test_grid_is_finite_bounded_and_short(self, values):
        spec = ":".join(repr(v) for v in values)
        try:
            grid = _parse_grid(spec)
        except ConfigError:
            return
        assert 1 <= len(grid) <= MAX_GRID_POINTS
        assert all(math.isfinite(v) and abs(v) <= MAX_GRID_DB for v in grid)
        a, step, b = values
        assert grid[-1] <= b + 1e-9 * max(step, abs(b))

    def test_m_range(self):
        assert _parse_m_range("0..3") == [0, 1, 2, 3]
        assert _parse_m_range("2") == [2]

    @pytest.mark.parametrize("bad", ["3..1", "-1..2", "0..9"])
    def test_m_range_rejects(self, bad):
        with pytest.raises(ConfigError):
            _parse_m_range(bad)


class TestPsdCommand:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "psd.csv"
        rc = main(["psd", "--scenario", "single-band", "--seed", "3",
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "freq_hz,psd_db"
        assert len(lines) == 4097
        manifest = json.loads((tmp_path / "psd.csv.manifest.json").read_text())
        assert manifest["command"] == "psd"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == [str(out)]
        sc = replace(config.get_preset("single-band"), seed=3, n_symbols=64)
        assert manifest["scenario_hash"] == config.scenario_hash(sc)
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("symbols,note", [
        (8, f", {PSD_MIN_SYMBOLS} symbols, raised from 8)"),
        (PSD_MIN_SYMBOLS, " Hz)")])
    def test_summary_says_when_symbols_were_raised(self, tmp_path, capsys,
                                                   symbols, note):
        out = tmp_path / "psd.csv"
        assert main(["psd", "--scenario", "bypass", "--symbols",
                     str(symbols), "--out", str(out)]) == EXIT_OK
        line = capsys.readouterr().out
        assert f"{note} and " in line
        assert line.count("raised") == (symbols < PSD_MIN_SYMBOLS)

    def test_scenario_file_symbols_are_used(self, tmp_path):
        sc = replace(config.get_preset("single-band"), n_symbols=128, seed=2)
        path = tmp_path / "scn.json"
        config.save_scenario(sc, path)
        out = tmp_path / "psd.csv"
        assert main(["psd", "--scenario", str(path),
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "psd.csv.manifest.json").read_text())
        assert manifest["scenario_hash"] == config.scenario_hash(sc)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["psd", "--scenario", "single-band", "--seed", "1",
                         "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_replaces_the_files_whole(self, tmp_path):
        # a new file takes the old one's place: a hard link to the old
        # CSV keeps its bytes, and no temporary is left beside the outputs
        out, fresh = tmp_path / "psd.csv", tmp_path / "fresh.csv"
        out.write_text("old\n")
        os.link(out, tmp_path / "kept")
        for path in (out, fresh):
            assert main(["psd", "--scenario", "bypass",
                         "--out", str(path)]) == EXIT_OK
        assert out.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "kept").read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fresh.csv", "fresh.csv.manifest.json", "kept", "psd.csv",
            "psd.csv.manifest.json"]

    def test_json_scenario_file(self, tmp_path):
        sc = replace(config.get_preset("single-band"), n_symbols=64)
        path = tmp_path / "scn.json"
        config.save_scenario(sc, path)
        out = tmp_path / "psd.csv"
        rc = main(["psd", "--scenario", str(path), "--out", str(out)])
        assert rc == EXIT_OK
        assert out.exists()


class TestBerCommand:
    def test_semianalytic_curve(self, tmp_path):
        out = tmp_path / "ber.csv"
        rc = main(["ber", "--scenario", "bypass", "--symbols", "4",
                   "--ebn0", "0:2:4", "--method", "sa", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "band,ebn0_db,ber,method,n_bits,n_errors"
        assert len(lines) == 4  # one band, three grid points
        band, db, ber, method, _, _ = lines[1].split(",")
        assert (band, db, method) == ("1", "0", "semi-analytic")
        assert 0.05 < float(ber) < 0.11  # QPSK at 0 dB is about 0.079

    def test_monte_carlo_counts_errors(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc = main(["ber", "--scenario", "bypass", "--symbols", "4",
                   "--ebn0", "1:1:1", "--method", "mc", "--out", str(out)])
        assert rc == EXIT_OK
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "monte-carlo"
        assert int(row[5]) >= 100

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["ber", "--scenario", "bypass", "--symbols", "4",
                         "--ebn0", "0:2:2", "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("method", ["sa", "mc"])
    def test_negative_grid_in_two_tokens(self, tmp_path, method):
        outs = []
        for k, grid in enumerate((["--ebn0", "-5:2.5:0"],
                                  ["--ebn0=-5:2.5:0"])):
            out = tmp_path / f"{k}.csv"
            assert main(["ber", "--scenario", "bypass", "--symbols", "4",
                         "--method", method, *grid,
                         "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].decode().splitlines()[1].startswith("1,-5,")

    @pytest.mark.parametrize("method", ["sa", "mc"])
    def test_trials_start_without_calibration_noise(self, tmp_path,
                                                    monkeypatch, method):
        # calibration keeps the last band's noise spectra for the next
        # calibration, which ber makes none of: its trials and points
        # start with the memo empty
        kept = []
        for name in ("semianalytic_run", "monte_carlo_curves"):
            def counted(*args, run=getattr(cli, name)):
                kept.append(len(link._CAL_SPECTRA))
                return run(*args)
            monkeypatch.setattr(cli, name, counted)
        assert main(["ber", "--scenario", "table1", "--symbols", "4",
                     "--method", method, "--ebn0", "0:1:0",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_OK
        assert kept == [0]


class TestSweepCommand:
    def test_single_waveform_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--scenario", "single-band", "--symbols", "4",
                   "--waveform", "cp-ofdm", "--m", "0..1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "m,waveform,mod_order,band,ebn0_db"
        assert len(lines) == 3
        m, wf, mod, band, val = lines[1].split(",")
        assert (m, wf, mod, band) == ("0", "cp-ofdm", "4", "1")
        # distortionless band: threshold near the analytic 1.3125 dB
        assert abs(float(val) - 1.3125) < 0.1

    def test_sweep_draws_calibration_noise_once_per_waveform(
            self, tmp_path, monkeypatch):
        # the noise run's block spectra depend on the seed, the band, the
        # composite length, the receive filter's length and u, none of
        # which changes with the separation: one draw and one forward
        # block transform per waveform
        draws = []
        draw = link._complex_noise

        def counted(views, variance, rng):
            draws.append(views)
            return draw(views, variance, rng)

        transforms = []
        block_spectra = link._block_spectra

        def counted_spectra(*args):
            # the noise is drawn into the block rows it transforms
            spectra = block_spectra(*args)
            if any(np.shares_memory(spectra, view)
                   for views in draws for view in views):
                transforms.append(spectra)
            return spectra

        monkeypatch.setattr(link, "_complex_noise", counted)
        monkeypatch.setattr(link, "_block_spectra", counted_spectra)
        monkeypatch.setattr(link, "_CAL_SPECTRA", {})
        argv = ["sweep", "--scenario", "single-band", "--symbols", "4",
                "--m", "0..2", "--out"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(argv + [str(one), "--threads", "1"]) == EXIT_OK
        assert len(draws) == 3
        assert len(transforms) == 3
        # a pool of two even on a one-CPU machine
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(argv + [str(two), "--threads", "2"]) == EXIT_OK
        assert one.read_bytes() == two.read_bytes()
        # the pool's map spans more than one waveform
        rows = [line.split(",")[:2]
                for line in one.read_text().splitlines()[1:]]
        assert rows == [[str(m), wf] for wf in config.WAVEFORMS
                        for m in range(3)]

    def test_sweep_points_go_through_one_map(self, tmp_path, monkeypatch):
        calls = []

        def recording_map(fn, items):
            items = list(items)
            calls.append([(sc.waveform, sc.subbands[0].n_guard)
                          for sc in items])
            return map(fn, items)

        monkeypatch.setattr("mixnum.cli.map", recording_map, raising=False)
        assert main(["sweep", "--scenario", "single-band", "--symbols", "4",
                     "--waveform", "w-ofdm,cp-ofdm", "--m", "1..2",
                     "--out", str(tmp_path / "sweep.csv")]) == EXIT_OK
        # 12 m subcarriers of 15 kHz guard at m = 1, 2
        assert calls == [[("w-ofdm", 12), ("w-ofdm", 24),
                          ("cp-ofdm", 12), ("cp-ofdm", 24)]]

    def test_band_out_of_range(self, tmp_path):
        rc = main(["sweep", "--scenario", "single-band", "--band", "5",
                   "--m", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("target", ["0.7", "0", "-0.1", "nan"])
    def test_target_out_of_range(self, tmp_path, capsys, target):
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--scenario", "single-band", "--m", "0",
                   "--target-ber", target, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ["psd"], ["ber", "--ebn0", "0:1:2"], ["sweep", "--m", "0"]],
        ids=["psd", "ber", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command,
                                        threads):
        out = tmp_path / "x.csv"
        assert _exit_code(command + ["--scenario", "bypass", "--threads",
                                     threads, "--out", str(out)]) \
            == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--threads" in err

    def test_environment_sets_no_worker_count(self, monkeypatch):
        monkeypatch.setenv("MIXNUM_THREADS", "4")
        args = build_parser().parse_args(
            ["sweep", "--scenario", "table1", "--out", "x.csv"])
        assert args.threads == 1

    def test_worker_count_is_clamped(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _sweep_workers(1, 5) == 1
        assert _sweep_workers(8, 5) == 4
        assert _sweep_workers(8, 2) == 2
        assert _sweep_workers(0, 5) == 1
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _sweep_workers(8, 5) == 1


def _manifest(out):
    return json.loads(out.with_name(out.name + ".manifest.json").read_text())


class TestManifest:
    def test_psd_records_the_symbols_actually_used(self, tmp_path):
        out = tmp_path / "psd.csv"
        assert main(["psd", "--scenario", "single-band", "--symbols", "8",
                     "--waveform", "f-ofdm", "--out", str(out)]) == EXIT_OK
        params = _manifest(out)["parameters"]
        assert params == {"waveform": "f-ofdm", "mod_order": 4,
                          "n_symbols": PSD_MIN_SYMBOLS}

    def test_ber_records_method_and_grid(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert main(["ber", "--scenario", "bypass", "--symbols", "4",
                     "--mod", "16", "--ebn0", "0:0.5:1",
                     "--out", str(out)]) == EXIT_OK
        manifest = _manifest(out)
        assert manifest["parameters"] == {
            "waveform": "cp-ofdm", "mod_order": 16, "n_symbols": 4,
            "method": "semi-analytic", "ebn0_db": [0.0, 0.5, 1.0]}
        assert manifest["versions"]["numpy"] == np.__version__

    def test_sweep_records_its_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", "single-band", "--symbols", "4",
                     "--waveform", "cp-ofdm", "--m", "0..1", "--band", "1",
                     "--target-ber", "0.1", "--out", str(out)]) == EXIT_OK
        sc = replace(config.get_preset("single-band"), n_symbols=4)
        assert _manifest(out)["parameters"] == {
            "waveforms": ["cp-ofdm"], "mod_order": 4, "n_symbols": 4,
            "band": 1, "m": [0, 1], "target_ber": 0.1,
            "scenario_hashes": {"cp-ofdm": config.scenario_hash(sc)}}

    def test_sweep_records_every_waveform_hash(self, tmp_path, monkeypatch):
        monkeypatch.setattr("mixnum.cli.ebn0_at_target_ber",
                            lambda sc, i, target: 1.0)
        out = tmp_path / "sweep.csv"
        path = out.with_name(out.name + ".manifest.json")
        runs = []
        for _ in range(2):
            assert main(["sweep", "--scenario", "table1", "--symbols", "4",
                         "--m", "0", "--seed", "7",
                         "--out", str(out)]) == EXIT_OK
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]
        manifest = json.loads(runs[0])
        table1 = replace(config.get_preset("table1"), n_symbols=4, seed=7)
        hashes = {wf: config.scenario_hash(replace(table1, waveform=wf))
                  for wf in ("cp-ofdm", "f-ofdm", "w-ofdm")}
        assert manifest["parameters"]["scenario_hashes"] == hashes
        assert len(set(hashes.values())) == 3

    def test_rerun_manifest_is_byte_identical(self, tmp_path):
        out = tmp_path / "ber.csv"
        path = out.with_name(out.name + ".manifest.json")
        runs = []
        for _ in range(2):
            assert main(["ber", "--scenario", "bypass", "--symbols", "4",
                         "--ebn0", "0:2:2", "--out", str(out)]) == EXIT_OK
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]


class TestErrorPaths:
    def test_missing_scenario_file(self, tmp_path):
        rc = main(["psd", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_malformed_scenario_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["psd", "--scenario", str(path),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("content", [
        b"[" * 100000,
        b'{"waveform": "f-ofdm\xff"}',
        b'{"n_symbols": ' + b"1" * 5000 + b"}",
    ], ids=["nested-too-deep", "not-utf-8", "integer-too-long"])
    def test_unreadable_scenario_json_exits_2(self, tmp_path, capsys,
                                              content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        rc = main(["psd", "--scenario", str(path),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_unknown_scenario_field(self, tmp_path):
        sc = config.get_preset("single-band")
        d = config.scenario_to_dict(sc)
        d["bogus"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc = main(["psd", "--scenario", str(path),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_scenario_f0_hz_is_unknown(self, tmp_path):
        d = config.scenario_to_dict(config.get_preset("single-band"))
        d["f0_hz"] = 30000.0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(d))
        rc = main(["psd", "--scenario", str(path),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("mutate", [
        lambda d: d["subbands"][0].update(n_fft="1024"),
        lambda d: d.update(subbands=5),
        lambda d: d.update(n_symbols="16"),
        lambda d: d.update(subbands=[5]),
        lambda d: d["subbands"][0].update(n_fft=1024.0),
        lambda d: d.update(mod_order=True),
        lambda d: d["subbands"][0].update(scs_hz=float("nan")),
        lambda d: d["subbands"][0].update(transition_hz=float("inf")),
        lambda d: d.update(f1_hz=-float("inf")),
    ], ids=["n_fft-string", "subbands-number", "n_symbols-string",
            "subband-number", "n_fft-float", "mod_order-bool", "scs_hz-nan",
            "transition_hz-inf", "f1_hz-minus-inf"])
    def test_wrongly_typed_scenario(self, tmp_path, capsys, mutate):
        d = config.scenario_to_dict(config.get_preset("single-band"))
        mutate(d)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc = main(["psd", "--scenario", str(path),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("waveform", ["cp-ofdm", "f-ofdm"])
    def test_cp_as_long_as_the_fft_runs(self, tmp_path, waveform):
        sc = replace(config.get_preset("single-band"), waveform=waveform)
        nm = replace(sc.subbands[0], n_cp=sc.subbands[0].n_fft)
        path = tmp_path / "long_cp.json"
        config.save_scenario(replace(sc, subbands=(nm,)), path)
        rc = main(["psd", "--scenario", str(path),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_OK

    def test_cp_longer_than_the_fft_exits_2(self, tmp_path, capsys):
        d = config.scenario_to_dict(config.get_preset("single-band"))
        d["subbands"][0]["n_cp"] = d["subbands"][0]["n_fft"] + 1
        path = tmp_path / "long_cp.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "x.csv"
        rc = main(["psd", "--scenario", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_cp" in err

    @pytest.mark.parametrize("grid", ["0:1:inf", "nan:1:2", "a:b:c"])
    def test_malformed_grid_numbers(self, tmp_path, grid):
        rc = main(["ber", "--scenario", "bypass", "--ebn0", grid,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Make any burst build or calibration fail the test."""
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the input was checked")
        for name in ("build_composite", "calibrate", "ebn0_at_target_ber"):
            monkeypatch.setattr(f"mixnum.cli.{name}", refuse)

    @pytest.mark.parametrize("grid", [f"0:1:{MAX_GRID_POINTS}", "0:1e-9:1",
                                      "0:1e-320:1"])
    def test_long_grid_rejected_up_front(self, tmp_path, capsys, no_work,
                                         grid):
        out = tmp_path / "x.csv"
        rc = main(["ber", "--scenario", "bypass", "--ebn0", grid,
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    def test_grid_at_the_cap_is_accepted(self):
        assert len(_parse_grid(f"0:1:{MAX_GRID_POINTS - 1}")) == \
            MAX_GRID_POINTS

    @pytest.mark.parametrize("argv", [
        ["psd"], ["ber", "--ebn0", "0:1:2"], ["sweep", "--m", "0"]],
        ids=["psd", "ber", "sweep"])
    def test_too_many_symbols_rejected_up_front(self, tmp_path, capsys,
                                                no_work, argv):
        out = tmp_path / "x.csv"
        rc = main(argv + ["--scenario", "table1", "--symbols",
                          str(TABLE1_SYMBOLS_OVER_CAP), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    def test_scenario_file_with_too_many_symbols(self, tmp_path, no_work):
        d = config.scenario_to_dict(config.get_preset("single-band"))
        d["n_symbols"] = 10 ** 9
        path = tmp_path / "big.json"
        path.write_text(json.dumps(d))
        rc = main(["psd", "--scenario", str(path),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_symbol_cap_keeps_the_psd_workload(self):
        # psd --symbols 512 is the benchmark's PSD job; 2048 symbols was
        # the cap before the composite cap
        table1 = config.get_preset("table1")
        for waveform in config.WAVEFORMS:
            for n in (512, 2048):
                replace(table1, waveform=waveform, n_symbols=n)
            with pytest.raises(ConfigError):
                replace(table1, waveform=waveform,
                        n_symbols=TABLE1_SYMBOLS_OVER_CAP)

    @pytest.mark.parametrize("argv", [
        ["psd"], ["ber", "--ebn0", "0:1:0"], ["sweep", "--m", "0"]],
        ids=["psd", "ber", "sweep"])
    def test_fft_too_long_for_the_cap_exits_2(self, tmp_path, capsys,
                                              no_work, argv):
        # one 2**34-point symbol would not fit; before the cap this failed
        # with a MemoryError traceback in the burst builder
        d = config.scenario_to_dict(config.get_preset("bypass"))
        d["subbands"][0]["n_fft"] = 2 ** 34
        path = tmp_path / "long_fft.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "x.csv"
        rc = main(argv + ["--scenario", str(path), "--waveform", "cp-ofdm",
                          "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_fft" in err

    @pytest.mark.parametrize("argv", [
        ["ber", "--ebn0", "0:1:0"], ["sweep", "--m", "0"]],
        ids=["ber", "sweep"])
    def test_calibration_over_the_cap_exits_2(self, tmp_path, capsys,
                                              monkeypatch, argv):
        # one 65536-point symbol fits, but calibration runs 256 of them
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started an oversized run")
        for name in ("build_burst", "_noise_spectra"):
            monkeypatch.setattr(f"mixnum.link.{name}", refuse)
        bypass = config.get_preset("bypass")
        sc = replace(bypass, n_symbols=1, subbands=(
            replace(bypass.subbands[0], n_fft=2 ** 16),))
        path = tmp_path / "cal_over_cap.json"
        config.save_scenario(sc, path)
        out = tmp_path / "x.csv"
        rc = main(argv + ["--scenario", str(path), "--waveform", "cp-ofdm",
                          "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"more than the cap of {MAX_COMPOSITE_SAMPLES}" in err

    def test_bad_grid(self, tmp_path):
        rc = main(["ber", "--scenario", "bypass", "--ebn0", "4:1:0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("m", ["x", "1..y", "1.5"])
    def test_malformed_m_range(self, tmp_path, capsys, no_work, m):
        rc = main(["sweep", "--scenario", "table1", "--m", m,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["4000:1:4000", "-3100:1:-3100",
                                      "998:3:1001"])
    def test_grid_out_of_range_rejected_up_front(self, tmp_path, capsys,
                                                 no_work, grid):
        # 10 ** (dB / 10) overflows at 4000 dB and is zero at -3100 dB;
        # 998:3:1001 reaches 1001 dB
        out = tmp_path / "x.csv"
        rc = main(["ber", "--scenario", "bypass", f"--ebn0={grid}",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("scenario,waveforms", [
        ("bypass", ["--waveform", "f-ofdm"]),
        ("bypass", []),
        ("single-band", ["--waveform", "cp-ofdm,foo"]),
        ("single-band", ["--waveform", ""]),
        ("single-band", ["--waveform", "cp-ofdm,w-ofdm,cp-ofdm"]),
    ], ids=["bypass-f-ofdm", "bypass-default-list", "unknown-name",
            "empty-list", "repeated-name"])
    def test_sweep_checks_every_waveform_up_front(self, tmp_path, capsys,
                                                   no_work, scenario,
                                                   waveforms):
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--scenario", scenario, "--m", "0",
                   *waveforms, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("f1_hz", [1e9, -30.6e6])
    @pytest.mark.parametrize("argv", [
        ["psd"], ["ber", "--ebn0", "0:1:0"], ["sweep", "--m", "0"]],
        ids=["psd", "ber", "sweep"])
    def test_band_outside_the_composite_band_exits_2(self, tmp_path, capsys,
                                                     no_work, argv, f1_hz):
        # 1e9 Hz is far past fs/2; at -30.6 MHz band 0 spills 2.67 MHz
        # past -fs/2 and would alias
        d = config.scenario_to_dict(config.get_preset("table1"))
        d["f1_hz"] = f1_hz
        path = tmp_path / "off_band.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "x.csv"
        rc = main(argv + ["--scenario", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: sub-band 0 ") and err.count("\n") == 1
        assert f"f1_hz {f1_hz}" in err

    def test_sweep_checks_every_separation_up_front(self, tmp_path, capsys,
                                                     monkeypatch):
        # band 0 fits at m = 0..2 and passes -fs/2 from m = 3 on
        def refuse(*args, **kwargs):
            raise AssertionError("calibrated before every m was checked")
        monkeypatch.setattr("mixnum.metrics.calibrate", refuse)
        path = tmp_path / "shifted.json"
        config.save_scenario(
            replace(config.get_preset("table1"), f1_hz=-27.8e6), path)
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--scenario", str(path), "--waveform", "cp-ofdm",
                   "--m", "0..8", "--band", "3", "--symbols", "8",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: sub-band 0 ") and err.count("\n") == 1

    def test_sweep_names_the_band_and_gap_it_overfills(self, tmp_path,
                                                       capsys, monkeypatch):
        # 1008 used subcarriers take 12 guards at m = 1; m = 2 needs 24 of
        # the 16 left in a 1024-point FFT
        def refuse(*args, **kwargs):
            raise AssertionError("calibrated before every m was checked")
        monkeypatch.setattr("mixnum.metrics.calibrate", refuse)
        bypass = config.get_preset("bypass")
        path = tmp_path / "full.json"
        config.save_scenario(replace(bypass, subbands=(
            replace(bypass.subbands[0], n_used=1008),)), path)
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--scenario", str(path), "--waveform", "cp-ofdm",
                   "--m", "0..4", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: sub-band 0 ") and err.count("\n") == 1
        assert "360000" in err and "(1008 + 24)" in err

    def test_failed_replace_leaves_nothing_at_out(self, tmp_path, capsys,
                                                  monkeypatch):
        def fail(src, dst):
            raise OSError(f"cannot replace {dst}")
        monkeypatch.setattr("mixnum.cli.os.replace", fail)
        out = tmp_path / "x.csv"
        rc = main(["psd", "--scenario", "bypass", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("error: cannot replace ")
        assert err.count("\n") == 1

    def test_failed_manifest_replace_leaves_no_stale_manifest(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "ber.csv"
        argv = ["ber", "--scenario", "bypass", "--symbols", "4",
                "--out", str(out)]
        assert main(argv + ["--ebn0", "0:1:0"]) == EXIT_OK
        replace_file = os.replace
        calls = []

        def fail_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(f"cannot replace {dst}")
            replace_file(src, dst)
        monkeypatch.setattr("mixnum.cli.os.replace", fail_second)
        assert main(argv + ["--ebn0", "0:1:2"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: cannot replace ")
        # the new CSV is in place; the old run's manifest is not beside it
        assert len(out.read_text().splitlines()) == 4
        assert sorted(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("argv,r,grid", [
        (["psd", "--waveform", "f-ofdm"], 1000,
         "f-OFDM filter's grid of 1024"),
        (["ber", "--ebn0", "0:1:0", "--waveform", "f-ofdm"], 1000,
         "f-OFDM filter's grid of 1024"),
        (["sweep", "--m", "0"], 1000, "f-OFDM filter's grid of 1024"),
        (["ber", "--ebn0", "0:1:0"], 2000, "receive filter's grid of 4096"),
        (["sweep", "--m", "0"], 2000, "receive filter's grid of 4096"),
    ], ids=["psd-f-ofdm", "ber-f-ofdm", "sweep-f-ofdm",
            "ber-cp-ofdm-rx-filter", "sweep-cp-ofdm-rx-filter"])
    def test_wide_transition_exits_2(self, tmp_path, capsys, no_work, argv,
                                     r, grid):
        # band 3 (u = 4) with r subcarriers of transition on each side:
        # 180 + 2 r bins. 2180 pass the f-OFDM filter's grid and 4180 the
        # receive filter's too. sweep resets the transition with the gap,
        # but the scenario as given is refused
        d = config.scenario_to_dict(config.get_preset("table1"))
        d["subbands"][2]["transition_hz"] = r * 15e3
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "x.csv"
        rc = main(argv + ["--scenario", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: sub-band 2: ") and err.count("\n") == 1
        assert grid in err

    @pytest.mark.parametrize("field,value", [
        ("filter_len", 10 ** 9 + 1),
        ("scs_hz", 15e3 * 2.0 ** 990),
        ("scs_hz", 15e3 * 2.0 ** 1000),
        ("scs_hz", 15e3 * 2.0 ** 1010),
    ], ids=["filter_len-1e9", "scs_hz-2^990", "scs_hz-2^1000",
            "scs_hz-2^1010"])
    def test_band_beyond_its_bounds_exits_2(self, tmp_path, capsys, no_work,
                                            field, value):
        # the PSD's density scaling overflows at the first two band rates
        # and the rate itself at the third
        d = config.scenario_to_dict(config.get_preset("single-band"))
        d["subbands"][0][field] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "x.csv"
        rc = main(["psd", "--scenario", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: sub-band 0: {field} ")
        assert err.count("\n") == 1

    def test_bypass_is_cp_ofdm_only(self, tmp_path):
        rc = main(["ber", "--scenario", "bypass", "--waveform", "f-ofdm",
                   "--ebn0", "0:1:0", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG


def _exit_code(argv):
    """main's return value, or the code of the SystemExit that argparse
    raises for usage errors and --help."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["ber", "--scenario", "bypass", "--ebn0", "0:1:1", "--out", "x.csv",
         "--bogus"],
        ["ber", "--scenario", "bypass", "--ebn0", "0:1:1", "--method", "ml",
         "--out", "x.csv"],
        ["ber", "--scenario", "bypass", "--ebn0", "0:1:1", "--mod", "8",
         "--out", "x.csv"],
        ["psd", "--scenario", "bypass"],
        [],
        ["psd", "--scenario", "bypass", "--out", "x.csv", "a\nb\r\nc"],
    ], ids=["unknown-flag", "bad-method", "bad-mod", "missing-out",
            "no-command", "line-breaks-in-echoed-input"])
    def test_one_line_and_exit_2(self, capsys, argv):
        assert _exit_code(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_help_is_unchanged(self, capsys):
        assert _exit_code(["ber", "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: mixnum ber ")
        assert "--ebn0 EBN0" in out and out.count("\n") > 10


class _Stop(MetricsError):
    pass


class _InlinePool:
    """Stands in for ProcessPoolExecutor and maps in this process: a
    stopping stub cannot be pickled to a worker."""

    def __init__(self, *args):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


# flag -> (values that pass its checks, values that fail them)
_FLAGS = {
    "--scenario": (["table1", "single-band", "bypass"],
                   ["no-such-file.json", ".", ""]),
    "--out": (["out.csv"], []),
    "--waveform": (["cp-ofdm", "f-ofdm", "w-ofdm"],
                   ["foo", "", "cp-ofdm,w-ofdm", "f-ofdm,f-ofdm"]),
    "--mod": (["4", "16", "256"], ["8", "x"]),
    "--seed": (["0", "7", str(2 ** 64 - 1)], ["-1", str(2 ** 64), "1.5"]),
    "--symbols": (["1", "4", "2048"], [str(SYMBOLS_OVER_CAP), "0", "-3"]),
    "--threads": (["1", "2"], ["0", "-4", "y"]),
    "--ebn0": (["0:1:2", "-5:1:0", "3:1:3"],
               ["0:0:1", "2:1:1", "0:1:2000", "4000:1:4000", "a:b:c", "1"]),
    "--method": (["mc", "sa"], ["ml"]),
    "--target-ber": (["0.05", "0.3"], ["0.5", "nan", "-1", "q"]),
    "--m": (["0..4", "0", "2..8"], ["3..1", "0..9", "x"]),
    "--band": (["1"], ["0", "9", "-1", "b"]),
}
_COMMON = ("--scenario", "--out", "--mod", "--seed", "--symbols", "--threads")
_COMMANDS = {
    "psd": _COMMON + ("--waveform",),
    "ber": _COMMON + ("--waveform", "--ebn0", "--method"),
    "sweep": _COMMON + ("--waveform", "--target-ber", "--m", "--band"),
}
_REQUIRED = ("--scenario", "--out", "--ebn0")
_JUNK = st.text(max_size=12)


@st.composite
def _argv(draw):
    """A sub-command with its own flags, mostly complete and mostly with
    values that pass; sometimes a junk value, a missing required flag, a
    stray token or a junk sub-command. Each rare case is the highest draw,
    because hypothesis leans towards zero."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    own = _COMMANDS[command]
    flags = draw(st.lists(st.sampled_from(own), unique=True))
    if draw(st.integers(0, 7)) < 7:
        flags += [f for f in _REQUIRED if f in own and f not in flags]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        good, bad = _FLAGS[flag]
        kind = draw(st.integers(0, 7))
        value = (draw(st.sampled_from(bad)) if kind == 6 and bad
                 else draw(_JUNK) if kind == 7 else draw(st.sampled_from(good)))
        argv += [flag, value]
    argv += draw(st.lists(st.one_of(
        _JUNK, st.sampled_from(["--bogus", "--help", "-h", "--", "--ebn0"])),
        max_size=1))
    if draw(st.integers(0, 9)) == 9:
        argv[0] = draw(_JUNK)
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    """Exit code 0, 1 or 2 and no traceback for any argv; every exit 2 is
    one line. An argv that passes validation stops, with exit 1, where
    the first payload, burst or calibration would be built."""
    def stop(*args, **kwargs):
        raise _Stop("input accepted")
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        for name in ("_payload_streams", "build_composite", "calibrate",
                     "ebn0_at_target_ber"):
            mp.setattr(f"mixnum.cli.{name}", stop)
        mp.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
        code = _exit_code(argv)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_COMPUTE, EXIT_CONFIG), (argv, err)
    assert "Traceback" not in err
    if code == EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1, \
            (argv, err)
    if code == EXIT_COMPUTE:
        assert err == "error: input accepted\n", (argv, err)


@st.composite
def _scenario(draw):
    """Scenario JSON of one to three small bands (n_fft 16..256, spacings
    15..60 kHz) in any waveform, with or without the receive filter. Each
    field is drawn within its own bounds, and the filter's passband up to
    two bins past n_fft, so that many scenarios run and the rest are
    refused by a check."""
    subbands = []
    for _ in range(draw(st.integers(1, 3))):
        n_fft = 2 ** draw(st.integers(4, 8))
        n_used = 12 * draw(st.integers(1, n_fft // 12))
        n_cp = draw(st.integers(0, n_fft // 4))
        n_prefix = draw(st.integers(0, max(n_cp - 1, 0)))
        scs_hz = 15e3 * 2 ** draw(st.integers(0, 2))
        subbands.append({
            "n_fft": n_fft, "n_cp": n_cp, "scs_hz": scs_hz,
            "n_used": n_used, "n_guard": draw(st.integers(0, n_fft - n_used)),
            "filter_len": 2 * draw(st.integers(0, n_fft)) + 1,
            "transition_hz": scs_hz * draw(
                st.floats(0, (n_fft - n_used) / 2 + 1)),
            "n_prefix": n_prefix,
            "n_transition": 2 * draw(st.integers(0, n_prefix // 2))})
    return {"subbands": subbands,
            "waveform": draw(st.sampled_from(config.WAVEFORMS)),
            "mod_order": draw(st.sampled_from(config.MOD_ORDERS)),
            "n_symbols": draw(st.integers(1, 4)),
            "seed": draw(st.integers(0, 2 ** 16)),
            "rx_filter": draw(st.booleans())}


@settings(max_examples=30, deadline=None)
@given(_scenario())
def test_fuzzed_scenario_runs_or_exits_2(d):
    """psd and ber --method sa, run for real on any scenario JSON, exit 0
    with only finite values in the CSV, or 2 with one line: a scenario
    that passes the checks does not fail later."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(d))
        for argv in (["psd"], ["ber", "--method", "sa", "--ebn0", "0:10:20"]):
            out = Path(tmp) / f"{argv[0]}.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--scenario", str(path), "--out",
                                    str(out)])
            err = err.getvalue()
            assert code in (EXIT_OK, EXIT_CONFIG), (d, argv, err)
            if code == EXIT_CONFIG:
                assert err.startswith("error: ") and err.count("\n") == 1
                assert not out.exists()
                continue
            rows = out.read_text().splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")
                      if v != "semi-analytic"]
            assert rows and all(math.isfinite(v) for v in values), (d, argv)


def _fresh_interpreter(code, *args):
    """stdout of code run by a new interpreter that imports mixnum from
    this checkout (sys.argv[1])."""
    src = str(Path(mixnum.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, src, *args],
                          check=True, capture_output=True, text=True).stdout


def test_cli_import_leaves_heavy_scipy_out():
    """Every CLI call and sweep worker pays the import: it loads numpy and
    the package, no scipy module (scipy.special alone took most of the
    start-up) and no process pool."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mixnum.cli; "
            "mixnum.cli.build_parser(); print(' '.join(sorted(sys.modules)))")
    loaded = _fresh_interpreter(code).split()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    for heavy in ("multiprocessing", "concurrent.futures.process"):
        assert heavy not in loaded


def test_only_the_semianalytic_kernel_loads_scipy_special(tmp_path):
    """psd and Monte Carlo runs never load scipy.special, and their
    manifests still name the scipy version; a semi-analytic run loads it
    on its first kernel call and writes what it writes in-process."""
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from mixnum.cli import main
        out = sys.argv[2]
        loaded = []
        for argv in (["psd"], ["ber", "--method", "mc", "--ebn0", "0:1:0"],
                     ["ber", "--method", "sa", "--ebn0", "0:1:2"]):
            name = f"{out}/{argv[0]}-{len(loaded)}.csv"
            assert main(argv + ["--scenario", "bypass", "--symbols", "4",
                                "--out", name]) == 0
            loaded.append("scipy.special" in sys.modules)
        print(json.dumps(loaded))
    """
    stdout = _fresh_interpreter(code, str(tmp_path))
    assert json.loads(stdout.splitlines()[-1]) == [False, False, True]
    import scipy
    for name in ("psd-0", "ber-1"):
        manifest = json.loads(
            (tmp_path / f"{name}.csv.manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__
    here = tmp_path / "in-process.csv"
    assert main(["ber", "--method", "sa", "--ebn0", "0:1:2", "--scenario",
                 "bypass", "--symbols", "4", "--out", str(here)]) == EXIT_OK
    assert (tmp_path / "ber-2.csv").read_bytes() == here.read_bytes()
