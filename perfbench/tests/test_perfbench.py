"""Tests of the benchmark's own machinery: the span recorder, the output
checks and the runner's refusal to run without sources.

    python3 -m pytest perfbench/tests
"""

import contextlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import spans
from spans import Tracer, layer_metrics, self_times
from workloads import WORKLOADS

import mixnum
from mixnum import cli
from mixnum.config import scenario_hash

# Small versions of the four workloads' commands, one per code path.
TINY = {
    "psd": ["psd", "--scenario", "table1", "--waveform", "f-ofdm",
            "--symbols", "64"],
    "ber-mc": ["ber", "--scenario", "bypass", "--method", "mc",
               "--ebn0", "0:2:2", "--symbols", "4"],
    "ber-sa": ["ber", "--scenario", "single-band", "--method", "sa",
               "--mod", "256", "--ebn0", "0:10:20", "--symbols", "4"],
    "sweep": ["sweep", "--scenario", "single-band", "--mod", "16",
              "--m", "0..1", "--symbols", "4", "--band", "1",
              "--waveform", "cp-ofdm"],
}
EXACT_COUNTS = ("metrics.semianalytic_run.calls", "metrics.sa.runs_per_point",
                "metrics.monte_carlo_ber.trials",
                "metrics.ebn0_for_target.evals_per_solve",
                "link.calibrate.calls", "waveform.build_burst.calls",
                "dsp.convolve_full.calls", "config.scenario_hash.calls")


def run_cli(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--seed", "5", "--threads", "1",
                                "--out", str(out)]) == 0
    return out.read_bytes()


def bindings():
    mods = [mixnum] + [importlib.import_module(f"mixnum.{layer}")
                       for layer in spans.LAYERS]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}
    snap[("SemiAnalyticRun", "ber")] = \
        mixnum.metrics.SemiAnalyticRun.__dict__["ber"]
    return snap


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Each tiny command once untraced, then twice traced."""
    tmp = tmp_path_factory.mktemp("runs")
    plain = {k: run_cli(argv, tmp / f"{k}-plain.csv")
             for k, argv in TINY.items()}
    passes = []
    for rep in range(2):
        tracer = Tracer()
        outputs, metrics = {}, {}
        for k, argv in TINY.items():
            tracer.clear()
            with tracer:
                outputs[k] = run_cli(argv, tmp / f"{k}-traced{rep}.csv")
            wall = sum(s.duration for s in tracer.spans if s.parent < 0)
            metrics[k] = (layer_metrics(list(tracer.spans), wall,
                                        scenario_hash), list(tracer.spans))
        passes.append((outputs, metrics))
    return plain, passes


def test_tracing_leaves_outputs_byte_identical(traced_runs):
    plain, passes = traced_runs
    for outputs, _ in passes:
        assert outputs == plain


def test_wrappers_are_restored_even_after_an_error():
    before = bindings()
    tracer = Tracer()
    with pytest.raises(mixnum.config.ConfigError):
        with tracer:
            assert mixnum.link.calibrate is not before[("mixnum.link",
                                                        "calibrate")]
            # cli, metrics and the package hold their own copies
            assert cli.calibrate is mixnum.link.calibrate
            assert mixnum.calibrate is mixnum.link.calibrate
            mixnum.config.get_preset("no-such-preset")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_copy_of_a_traced_function_records_spans():
    with Tracer() as tracer:
        x = mixnum.dsp.ComplexSignal([1.0, 2.0, 3.0], 1.0)
        h = mixnum.dsp.FilterTaps([0.25, 0.5, 0.25], 1)
        for mod in (mixnum.dsp, mixnum.waveform, mixnum.link):
            mod.convolve_full(x, h)
    names = [s.name for s in tracer.spans]
    assert names == ["dsp.convolve_full"] * 3
    assert all(s.attrs["macs"] == 9 for s in tracer.spans)


def test_self_times_sum_to_no_more_than_traced_wall(traced_runs):
    _, passes = traced_runs
    for k, (m, recorded) in passes[0][1].items():
        own = self_times(recorded)
        assert all(v >= 0 for v in own.values()), k
        roots = sum(s.duration for s in recorded if s.parent < 0)
        assert sum(own.values()) == pytest.approx(roots, rel=1e-9)
        assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) \
            <= m["trace.wall_s"] * (1 + 1e-9)


def test_exact_counts_repeat_across_runs(traced_runs):
    _, (first, second) = traced_runs
    for k in TINY:
        a, b = first[1][k][0], second[1][k][0]
        for name in EXACT_COUNTS:
            assert a[name] == b[name], (k, name)
    mc, sa, sweep = (first[1][k][0] for k in ("ber-mc", "ber-sa", "sweep"))
    assert mc["metrics.monte_carlo_ber.trials"] > 0
    # cmd_ber builds a run per band and then one per point: 1 + 3 runs for
    # 3 points
    assert sa["metrics.sa.runs_per_point"] == pytest.approx(4 / 3)
    assert sweep["metrics.ebn0_for_target.evals_per_solve"] > 2


def test_psd_records_no_link_or_modem_spans(traced_runs):
    _, passes = traced_runs
    m = passes[0][1]["psd"][0]
    assert m["link.spans"] == 0 and m["modem.spans"] == 0
    assert m["metrics.welch_psd.samples"] == m["waveform.compose.samples_out"]


def _sweep_csv(waveform, values):
    rows = [f"{m},{waveform},256,3,{v}" for m, v in enumerate(values)]
    return "m,waveform,mod_order,band,ebn0_db\n" + "\n".join(rows) + "\n"


def _checker(tmp_path, seed):
    workload = WORKLOADS["sweep-256"]
    ref = checks.load_reference("sweep-256")
    out = tmp_path / "s.csv"
    (tmp_path / "s.csv.manifest.json").write_text(json.dumps({"seed": seed}))

    def check(values, first=None):
        out.write_text(_sweep_csv("f-ofdm", ["nan" if v is None else repr(v)
                                             for v in values]))
        return checks.check_output(workload, "f-ofdm", seed, out, first, ref)
    return check, ref["jobs"]["f-ofdm"]["ebn0_db"]


def test_reference_check_catches_moved_threshold_and_nan(tmp_path):
    check, want = _checker(tmp_path, 11)
    assert check(want) is None
    assert check([v + 0.005 for v in want]) is None
    assert "threshold" in check([v + 0.02 for v in want])
    assert "NaN" in check([None] + want[1:])


def test_other_seeds_are_checked_for_range_not_reference(tmp_path):
    check, want = _checker(tmp_path, 3)
    assert check([v + 0.02 for v in want]) is None
    assert "bracket" in check([50.0] * 5)


def test_rerun_that_is_not_byte_identical_fails(tmp_path):
    check, want = _checker(tmp_path, 3)
    assert check(want) is None
    first = (tmp_path / "s.csv").read_bytes()
    assert check(want, first) is None
    assert "byte-identical" in check([want[0] + 1e-9] + want[1:], first)


def test_reference_tolerances_match_checks():
    for name in WORKLOADS:
        ref = checks.load_reference(name)
        assert ref["tolerance"] == checks.TOLERANCES[name]
        assert set(ref["jobs"]) == {j.label for j in WORKLOADS[name].jobs}
    psd = checks.load_reference("psd-oob")["jobs"]["f-ofdm"]["psd_db"]
    assert len(psd) == WORKLOADS["psd-oob"].rows
    assert max(psd) == 0 and all(math.isfinite(v) for v in psd)


def test_runner_refuses_without_sources(tmp_path):
    bench = checks.REFERENCE_DIR.parent
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "psd-oob",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "{" not in proc.stdout
    assert "no mixnum sources" in proc.stderr
