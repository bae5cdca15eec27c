"""Span recorder that traces mixnum from outside the package.

``Tracer.install()`` replaces each traced public function with a wrapper at
every module binding that refers to it, because ``from ... import`` copies
exist in ``cli``, ``metrics``, ``link`` and ``waveform``: patching only the
defining module would miss the calls made through those copies.
``Tracer.restore()`` puts every original back. While installed, each call
records a span (name, start, end, parent span, job id and a few counts) in
memory; ``layer_metrics`` turns the spans of one traced pass into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "mixnum"
LAYERS = ("config", "dsp", "modem", "waveform", "link", "metrics", "cli")


@dataclass
class Span:
    id: int
    parent: int            # -1 for a root span
    job: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: str = ""

    @property
    def duration(self):
        return self.end - self.start

    def as_row(self):
        return [self.id, self.parent, self.job, self.name, self.start,
                self.end, {k: v for k, v in self.attrs.items()
                           if isinstance(v, (int, float, str))}, self.error]


# Each target: (module, function, span name, attrs function). The span name
# may hold ``{param}`` fields filled from the call's arguments. The attrs
# function gets the bound arguments (defaults applied) and the result, and
# runs after the span's end time is taken.
TARGETS = (
    ("config", "scenario_hash", "config.scenario_hash", None),
    ("dsp", "convolve_full", "dsp.convolve_full",
     lambda p, r: {"macs": len(p["x"]) * len(p["h"])}),
    ("dsp", "frequency_shift", "dsp.frequency_shift",
     lambda p, r: {"samples": len(p["x"])}),
    ("dsp", "design_subband_filter", "dsp.design_filter",
     lambda p, r: {"key": ("subband",) + tuple(p.values())}),
    ("dsp", "design_interpolation_filter", "dsp.design_filter",
     lambda p, r: {"key": ("interpolation",) + tuple(p.values())}),
    ("modem", "bit_error_probabilities", "modem.bit_error_probabilities.m{M}",
     lambda p, r: {"points": len(r)}),
    ("modem", "qam_demodulate", "modem.qam_demodulate",
     lambda p, r: {"bits": len(r)}),
    ("waveform", "build_burst", "waveform.build_burst.{waveform}", None),
    ("waveform", "compose", "waveform.compose",
     lambda p, r: {"samples_out": len(r)}),
    ("link", "calibrate", "link.calibrate",
     lambda p, r: {"scenario": p["sc"], "band": p["i"]}),
    ("link", "receive_subband", "link.receive_subband",
     lambda p, r: {"samples_in": len(p["y"])}),
    ("link", "awgn_from_rng", "link.awgn_from_rng",
     lambda p, r: {"samples": len(p["x"])}),
    ("metrics", "welch_psd", "metrics.welch_psd",
     lambda p, r: {"samples": len(p["x"])}),
    ("metrics", "monte_carlo_ber", "metrics.monte_carlo_ber",
     lambda p, r: {"bits": r.n_bits,
                   "capped": int(r.n_errors < p["min_errors"])}),
    ("metrics", "semianalytic_run", "metrics.semianalytic_run", None),
    ("metrics", "ebn0_for_target", "metrics.ebn0_for_target", None),
    ("cli", "main", "cli.main", None),
)

# SemiAnalyticRun.ber is a method: one call is one semi-analytic BER point.
SA_POINT = "metrics.sa.point"


class Tracer:
    """Records spans of mixnum calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, attrs_of):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn)
        templated = "{" in name

        def params(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, self.job,
                        name.format(**params(args, kwargs)) if templated
                        else name, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(params(args, kwargs), result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for layer, attr, name, attrs_of in TARGETS:
            orig = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), attr)
            wrapped = self._wrap(orig, name, attrs_of)
            for mod in modules:
                for binding in [n for n, v in vars(mod).items() if v is orig]:
                    self._patches.append((mod, binding, orig))
                    setattr(mod, binding, wrapped)
        run_cls = importlib.import_module(f"{PACKAGE}.metrics").SemiAnalyticRun
        orig = run_cls.__dict__["ber"]
        self._patches.append((run_cls, "ber", orig))
        setattr(run_cls, "ber", self._wrap(orig, SA_POINT, None))

    def restore(self):
        while self._patches:
            owner, binding, orig = self._patches.pop()
            setattr(owner, binding, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def clear(self):
        self.spans.clear()


def self_times(spans):
    """Span id -> duration minus the time covered by its direct children.

    Calls are single-threaded and properly nested, so the children of a span
    never overlap one another.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall_s, scenario_hash):
    """Per-layer metrics of one traced pass.

    ``wall_s`` is the traced pass's wall time and ``scenario_hash`` the
    untraced hash function, used for the distinct-calibration ratio.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    self_by_name = defaultdict(float)
    sums = defaultdict(float)
    for s in spans:
        named[s.name].append(s)
        self_by_name[s.name] += own[s.id]
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                sums[f"{s.name}.{key}"] += value

    def calls(name):
        return len(named[name])

    def children(span_name, child_name):
        return [s for s in named[child_name]
                if s.parent >= 0 and by_id[s.parent].name == span_name]

    m = {}
    bursts = [f"waveform.build_burst.{wf}"
              for wf in ("cp-ofdm", "f-ofdm", "w-ofdm")]
    for name in bursts:
        m[f"{name}.self_s"] = self_by_name[name]
    m["waveform.build_burst.calls"] = sum(calls(name) for name in bursts)
    for base, extra in (("waveform.compose", ("samples_out",)),
                        ("dsp.convolve_full", ("macs",)),
                        ("dsp.frequency_shift", ("samples",)),
                        ("link.calibrate", ()),
                        ("link.receive_subband", ("samples_in",)),
                        ("link.awgn_from_rng", ("samples",)),
                        ("modem.qam_demodulate", ("bits",)),
                        ("metrics.welch_psd", ("samples",)),
                        ("metrics.ebn0_for_target", ()),
                        ("config.scenario_hash", ()),
                        ("cli.main", ())):
        m[f"{base}.self_s"] = self_by_name[base]
        m[f"{base}.calls"] = calls(base)
        for key in extra:
            m[f"{base}.{key}"] = sums[f"{base}.{key}"]

    designs = named["dsp.design_filter"]
    m["dsp.design_filter.calls"] = len(designs)
    m["dsp.design_filter.distinct_ratio"] = _ratio(
        len({s.attrs["key"] for s in designs if s.attrs}), len(designs))

    cals = named["link.calibrate"]
    m["link.calibrate.distinct_ratio"] = _ratio(
        len({(scenario_hash(s.attrs["scenario"]), s.attrs["band"])
             for s in cals if s.attrs}), len(cals))
    m["link.calibrate.wall_share"] = _ratio(
        sum(s.duration for s in cals), wall_s)

    for order in (4, 16, 64, 256):
        name = f"modem.bit_error_probabilities.m{order}"
        m[f"{name}.self_s"] = self_by_name[name]
        m[f"{name}.points"] = sums[f"{name}.points"]

    m["metrics.monte_carlo_ber.trials"] = len(
        children("metrics.monte_carlo_ber", "link.awgn_from_rng"))
    m["metrics.monte_carlo_ber.bits"] = sums["metrics.monte_carlo_ber.bits"]
    m["metrics.monte_carlo_ber.capped_ratio"] = _ratio(
        sums["metrics.monte_carlo_ber.capped"],
        calls("metrics.monte_carlo_ber"))

    m["metrics.semianalytic_run.calls"] = calls("metrics.semianalytic_run")
    m["metrics.sa.runs_per_point"] = _ratio(calls("metrics.semianalytic_run"),
                                            calls(SA_POINT))
    solves = named["metrics.ebn0_for_target"]
    m["metrics.ebn0_for_target.evals_per_solve"] = _ratio(
        len(children("metrics.ebn0_for_target", SA_POINT)), len(solves))
    m["metrics.ebn0_for_target.nan_ratio"] = _ratio(
        sum(1 for s in solves if s.error), len(solves))

    for layer in LAYERS:
        mine = [s for s in spans if s.name.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = sum(own[s.id] for s in mine)
        m[f"{layer}.spans"] = len(mine)
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = wall_s
    return m

