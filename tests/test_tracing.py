"""The benchmark's span recorder (perfbench/spans.py) against this package.

The recorder replaces traced functions by name, so renaming one of them or
a parameter it reads breaks the benchmark's layer metrics; these tests
catch that in the main suite.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mixnum
from mixnum import cli, config
from mixnum.config import scenario_hash

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def bindings(spans):
    mods = [mixnum] + [importlib.import_module(f"mixnum.{layer}")
                       for layer in spans.LAYERS]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}
    snap[("SemiAnalyticRun", "ber")] = \
        mixnum.metrics.SemiAnalyticRun.__dict__["ber"]
    return snap


def test_tracer_installs_every_target_and_restores(spans):
    before = bindings(spans)
    with spans.Tracer():
        for layer, attr, _, _ in spans.TARGETS:
            module = importlib.import_module(f"mixnum.{layer}")
            assert getattr(module, attr) is not before[(module.__name__,
                                                        attr)], attr
    after = bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def traced(spans, argv, out):
    tracer = spans.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--seed", "5", "--threads", "1",
                                "--out", str(out)]) == 0
    recorded = list(tracer.spans)
    assert recorded and not any(s.error for s in recorded)
    wall = sum(s.duration for s in recorded if s.parent < 0)
    return spans.layer_metrics(recorded, wall, scenario_hash), recorded


def test_traced_psd_job_gives_layer_metrics(spans, tmp_path):
    m, _ = traced(spans, ["psd", "--scenario", "table1", "--waveform",
                          "f-ofdm", "--symbols", "64"], tmp_path / "psd.csv")
    assert m["cli.main.calls"] == 1
    # compose returns the composite as a stream that welch_psd reads a few
    # segments at a time, so the bursts, their f-OFDM filters and the
    # composite are made inside welch_psd's span, not as build_burst or
    # convolve_full calls; compose's own span only lays the bands out
    assert m["waveform.build_burst.calls"] == 0
    assert m["waveform.compose.calls"] == 1
    assert m["dsp.convolve_full.calls"] == 0
    sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                 n_symbols=64)
    assert m["waveform.compose.samples_out"] == config.composite_length(sc)
    assert m["metrics.welch_psd.samples"] == m["waveform.compose.samples_out"]
    assert m["metrics.welch_psd.self_s"] > m["waveform.compose.self_s"]
    assert m["link.spans"] == 0 and m["modem.spans"] == 0


def test_traced_semianalytic_ber_job_gives_layer_metrics(spans, tmp_path):
    m, recorded = traced(spans, ["ber", "--scenario", "table1", "--waveform",
                                 "w-ofdm", "--method", "sa", "--mod", "256",
                                 "--ebn0", "0:10:20", "--symbols", "4"],
                         tmp_path / "ber.csv")
    assert m["link.calibrate.calls"] == 3
    assert m["link.calibrate.distinct_ratio"] == 1.0
    # one run, on one composite, for all three bands
    assert m["metrics.semianalytic_run.calls"] == 1
    assert m["waveform.compose.calls"] == 1
    # one kernel call per point (3 bands x 3 Eb/N0 points), each over
    # every received point of its band; the sigma-free tables are built
    # inside the run's span
    kernel = "modem.bit_error_probabilities.m256"
    assert sum(s.name == kernel for s in recorded) == 9
    sc = replace(config.get_preset("table1"), n_symbols=4)
    n_points = sum(config.symbols_per_band(sc, i) * nm.n_used
                   for i, nm in enumerate(sc.subbands))
    assert m[f"{kernel}.points"] == 3 * n_points
    assert m["link.receive_subband.calls"] > 0
    assert m["dsp.frequency_shift.samples"] > 0


def test_traced_monte_carlo_ber_job_gives_layer_metrics(spans, tmp_path):
    m, _ = traced(spans, ["ber", "--scenario", "bypass", "--method", "mc",
                          "--ebn0", "0:2:2", "--symbols", "4"],
                  tmp_path / "mc.csv")
    assert m["link.calibrate.calls"] > 0
    assert m["link.awgn_from_rng.samples"] > 0
    assert m["link.receive_subband.calls"] > 0


def test_traced_sweep_job_gives_layer_metrics(spans, tmp_path):
    m, _ = traced(spans, ["sweep", "--scenario", "single-band", "--mod",
                          "16", "--m", "0..1", "--symbols", "4", "--band",
                          "1", "--waveform", "cp-ofdm"],
                  tmp_path / "sweep.csv")
    assert m["link.calibrate.calls"] > 0
    assert m["link.receive_subband.calls"] > 0
    assert m["metrics.ebn0_for_target.evals_per_solve"] > 2
