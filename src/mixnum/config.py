"""Numerology and scenario data model, validation and rate/frequency bookkeeping.

A scenario is an ordered list of sub-bands, each with its own subcarrier
spacing, FFT size and CP length. All spacings are power-of-two multiples of
the 15 kHz base spacing, which makes every per-band sampling rate divide the
composite rate.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import lru_cache

F0_HZ = 15000.0          # base subcarrier spacing
MAX_SCS_HZ = 960000.0    # largest 5G NR spacing (mu = 6): 64 * F0_HZ
PRB_SUBCARRIERS = 12     # resource-block granularity

WAVEFORMS = ("cp-ofdm", "f-ofdm", "w-ofdm")
MOD_ORDERS = (4, 16, 64, 256)
# Upper bound on composite samples (compose's output length), checked from
# the numerology before anything is built. What it bounds depends on the
# command (fresh processes on table1, README): psd draws its payload and
# reads the composite as streams and holds no whole payload, burst or
# composite, so it does not grow with the length (49.6-50.5 MB at 512 and
# 2048 symbols, each waveform): its pieces are a chunk or one symbol, which
# the n_fft bound below keeps under the cap. ber and sweep receive the whole
# composite and calibrate at the job's length, about 62 bytes per sample
# with QPSK and 85-104 with 256-QAM semi-analytic (861 MB at 2048
# symbols). So the cap means about 0.9 GB for 256-QAM ber on table1, an
# extrapolation.
# table1 reaches it just past 2048 symbols, its former symbol cap.
MAX_COMPOSITE_SAMPLES = 9_000_000
MAX_INTERP_TAPS = 1025


class ConfigError(ValueError):
    """Invalid numerology or scenario parameters."""


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def _checked(v, kind, name):
    """v as a field annotated ``kind`` stores it, or ConfigError naming the
    field. An int field takes an integer, a float field a finite real
    (stored as a float, -0.0 as 0.0: the one spelling of each value, so
    that equal scenarios have one JSON form and one digest); neither takes
    a bool."""
    if kind == "int":
        if isinstance(v, numbers.Integral) and not isinstance(v, bool):
            return int(v)
        want = "an integer"
    elif kind == "float":
        if isinstance(v, numbers.Real) and not isinstance(v, bool):
            try:
                f = float(v)
            except OverflowError:  # an integer too large for a float
                f = math.inf
            if math.isfinite(f):
                return f + 0.0
        want = "a finite number"
    elif kind == "bool":
        if isinstance(v, bool):
            return v
        want = "true or false"
    elif kind == "str":
        if isinstance(v, str):
            return v
        want = "a string"
    else:  # the sub-band list
        if isinstance(v, (list, tuple)) and all(
                isinstance(nm, SubbandNumerology) for nm in v):
            return tuple(v)
        want = "a list of sub-bands"
    raise ConfigError(f"{name} must be {want}, got {v!r:.40}")


def _check_types(obj):
    """Store every field of obj as _checked gives it; a field annotated
    ``X | None`` also takes None."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        kind, _, optional = f.type.partition(" | ")
        if not (v is None and optional == "None"):
            object.__setattr__(obj, f.name, _checked(v, kind, f.name))


@dataclass(frozen=True)
class SubbandNumerology:
    """Per-sub-band parameters.

    n_fft        : IFFT size (power of two, >= 16)
    n_cp         : cyclic-prefix length in samples
    scs_hz       : subcarrier spacing, 15 kHz times a power of two, at most
                   960 kHz
    n_used       : occupied subcarriers, a whole number of PRBs
    n_guard      : guard subcarriers (half on each side of the band)
    filter_len   : sub-band filter length (odd, at most 2 * n_fft + 1)
    transition_hz: one-sided filter transition band in Hz
    n_prefix     : w-OFDM prefix/suffix length in samples
    n_transition : w-OFDM window transition length in samples (even)
    """

    n_fft: int
    n_cp: int
    scs_hz: float
    n_used: int
    n_guard: int = 0
    filter_len: int = 1
    transition_hz: float = 0.0
    n_prefix: int = 0
    n_transition: int = 0

    def __post_init__(self):
        _check_types(self)
        # one symbol of a longer FFT would not fit under the composite cap
        if (not _is_pow2(self.n_fft)
                or not 16 <= self.n_fft <= MAX_COMPOSITE_SAMPLES):
            raise ConfigError(f"n_fft must be a power of two in "
                              f"16..{MAX_COMPOSITE_SAMPLES}, got {self.n_fft}")
        if not 0 <= self.n_cp <= self.n_fft:
            raise ConfigError(
                f"n_cp must lie in 0..n_fft ({self.n_fft}), got {self.n_cp}")
        # the bound keeps every rate, and the products taken of it, finite
        ratio = self.scs_hz / F0_HZ
        if (not 0 < self.scs_hz <= MAX_SCS_HZ or ratio != int(ratio)
                or not _is_pow2(int(ratio))):
            raise ConfigError(
                f"scs_hz must be f0*2^p with f0=15 kHz, at most "
                f"{MAX_SCS_HZ / 1e3:.0f} kHz, got {self.scs_hz}")
        if self.n_used <= 0 or self.n_used % PRB_SUBCARRIERS != 0:
            raise ConfigError(
                f"n_used must be a positive multiple of {PRB_SUBCARRIERS}")
        if self.n_guard < 0:
            raise ConfigError("n_guard must be non-negative")
        if self.n_used + self.n_guard > self.n_fft:
            raise ConfigError(f"n_used + n_guard ({self.n_used} + "
                              f"{self.n_guard}) exceeds n_fft ({self.n_fft})")
        # the receive filter takes u * (filter_len - 1) + 1 taps: at most
        # two symbols at the composite rate, so the composite cap bounds it
        if (self.filter_len % 2 == 0
                or not 1 <= self.filter_len <= 2 * self.n_fft + 1):
            raise ConfigError(f"filter_len must be odd and in 1..2*n_fft+1 "
                              f"({2 * self.n_fft + 1}), got {self.filter_len}")
        if self.transition_hz < 0:
            raise ConfigError("transition_hz must be non-negative")
        if self.n_prefix < 0 or self.n_transition < 0:
            raise ConfigError("n_prefix and n_transition must be non-negative")
        if self.n_transition % 2 != 0:
            raise ConfigError("n_transition must be even")
        if self.n_prefix > 0 or self.n_transition > 0:
            if self.n_transition > self.n_prefix:
                raise ConfigError("n_transition must not exceed n_prefix")
            if self.n_prefix >= self.n_cp:
                raise ConfigError("n_prefix must be smaller than n_cp")

    @property
    def r_subcarriers(self):
        """One-sided transition band in subcarrier units (may be fractional)."""
        return self.transition_hz / self.scs_hz

    @property
    def occupied_hz(self):
        """Band footprint including guards: scs * (n_used + n_guard)."""
        return self.scs_hz * (self.n_used + self.n_guard)


@dataclass(frozen=True)
class ScenarioConfig:
    """Ordered sub-band list plus global settings."""

    subbands: tuple
    waveform: str = "cp-ofdm"
    mod_order: int = 4
    n_symbols: int = 16
    seed: int = 0
    f1_hz: float | None = None
    rx_filter: bool = True
    eq_mode: str = "scalar"

    def __post_init__(self):
        _check_types(self)
        if len(self.subbands) < 1:
            raise ConfigError("scenario needs at least one sub-band")
        if self.waveform not in WAVEFORMS:
            raise ConfigError(f"waveform must be one of {WAVEFORMS}")
        if self.mod_order not in MOD_ORDERS:
            raise ConfigError(f"mod_order must be one of {MOD_ORDERS}")
        if self.n_symbols < 1:
            raise ConfigError(
                f"n_symbols must be at least 1, got {self.n_symbols}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in 64 bits")
        if self.eq_mode not in ("scalar", "per-subcarrier"):
            raise ConfigError("eq_mode must be 'scalar' or 'per-subcarrier'")
        for k, nm in enumerate(self.subbands):
            if self.waveform == "w-ofdm" and not 0 < nm.n_prefix < nm.n_cp:
                raise ConfigError(
                    f"sub-band {k}: w-ofdm needs 0 < n_prefix < n_cp")
            # the passband of dsp.design_subband_filter, computed alike,
            # must fit the grid of the narrowest filter the band runs
            # through: the f-OFDM filter's n_fft bins, else the receive
            # filter's u * n_fft
            if self.waveform == "f-ofdm":
                name, bins = "f-OFDM", nm.n_fft
            elif self.rx_filter:
                name, bins = "receive", upsampling_factor(self, k) * nm.n_fft
            else:
                continue
            width = nm.n_used + 2.0 * nm.r_subcarriers
            if width > bins:
                raise ConfigError(
                    f"sub-band {k}: n_used + 2*transition_hz/scs_hz is "
                    f"{width:.7g}, wider than the {name} filter's grid of "
                    f"{bins} bins")
        n = composite_length(self)
        if n > MAX_COMPOSITE_SAMPLES:
            raise ConfigError(
                f"the composite would hold {n} samples at n_symbols "
                f"{self.n_symbols}, more than the cap of "
                f"{MAX_COMPOSITE_SAMPLES}")
        # a band past +-fs/2 would alias into the composite band
        half = composite_rate(self) / 2.0
        for k, f in enumerate(center_frequencies(self)):
            lo = f - self.subbands[k].occupied_hz / 2
            hi = f + self.subbands[k].occupied_hz / 2
            if lo < -half or hi > half:
                raise ConfigError(
                    f"sub-band {k} spans {lo:.7g}..{hi:.7g} Hz, outside the "
                    f"composite band +-{half:.7g} Hz (f1_hz {self.f1_hz})")


def subband_sample_rate(nm: SubbandNumerology) -> float:
    """Per-band sampling rate n_fft * scs_hz."""
    return nm.n_fft * nm.scs_hz


def composite_rate(sc: ScenarioConfig) -> float:
    """Common rate at which the sub-bands are combined (max of the band rates)."""
    return max(subband_sample_rate(nm) for nm in sc.subbands)


def upsampling_factor(sc: ScenarioConfig, i: int) -> int:
    """Integer (power-of-two) factor from band i's rate up to the composite
    rate; exact, as every band rate is 15 kHz times a power of two."""
    return int(round(composite_rate(sc) / subband_sample_rate(sc.subbands[i])))


def symbols_per_band(sc: ScenarioConfig, i: int) -> int:
    """OFDM symbol count for band i.

    sc.n_symbols counts symbols of the slowest band; faster bands carry
    proportionally more so that all bursts span roughly the same time.
    """
    u_max = max(upsampling_factor(sc, k) for k in range(len(sc.subbands)))
    return sc.n_symbols * u_max // upsampling_factor(sc, i)


def interpolation_filter_len(u, n_cp):
    if u == 1:
        return 1
    return min(8 * u * max(n_cp, 8) + 1, MAX_INTERP_TAPS)


def _burst_layout(nm: SubbandNumerology, waveform: str, n_sym: int):
    """Leading delay and length in samples of a burst of n_sym symbols of
    numerology nm in the given waveform: what composite_length counts and
    what the waveform module's burst streams hold."""
    n = n_sym * (nm.n_fft + nm.n_cp)
    if waveform == "f-ofdm":
        return (nm.filter_len - 1) // 2, n + nm.filter_len - 1
    if waveform == "w-ofdm":
        return 0, n + nm.n_prefix + 1
    return 0, n


def composite_length(sc: ScenarioConfig) -> int:
    """Samples in compose()'s output: the longest band after interpolation,
    less the interpolation filter's group delay and the burst's leading
    delay, which compose() drops from its front."""
    total = 0
    for i, nm in enumerate(sc.subbands):
        u = upsampling_factor(sc, i)
        delay, length = _burst_layout(nm, sc.waveform,
                                      symbols_per_band(sc, i))
        gd = (interpolation_filter_len(u, nm.n_cp) - 1) // 2
        total = max(total, u * (length - delay) + gd)
    return total


def _band_widths(sc):
    return [nm.occupied_hz for nm in sc.subbands]


def default_f1(sc: ScenarioConfig) -> float:
    """First-band center that puts the composite occupied spectrum around 0 Hz."""
    w = _band_widths(sc)
    return -sum(w) / 2.0 + w[0] / 2.0


def center_frequencies(sc: ScenarioConfig):
    """Per-band center frequencies in Hz.

    Adjacent bands are stacked edge to edge: each step advances by half the
    occupied width of each of the two bands involved.
    """
    w = _band_widths(sc)
    f = [sc.f1_hz if sc.f1_hz is not None else default_f1(sc)]
    for i in range(1, len(w)):
        f.append(f[-1] + w[i - 1] / 2.0 + w[i] / 2.0)
    return f


# ---------------------------------------------------------------------------
# serialization

def _check_keys(d, cls, where):
    """d must be a JSON object holding every required field of cls and no
    other key; the field values are checked by cls itself."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")


def scenario_to_dict(sc: ScenarioConfig) -> dict:
    d = asdict(sc)
    d["subbands"] = [asdict(nm) for nm in sc.subbands]
    return d


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Scenario from its JSON form; any malformed input raises ConfigError."""
    _check_keys(d, ScenarioConfig, "scenario")
    if not isinstance(d["subbands"], list):
        raise ConfigError(f"scenario: subbands must be a list, "
                          f"got {d['subbands']!r:.40}")
    subbands = []
    for k, sb in enumerate(d["subbands"]):
        _check_keys(sb, SubbandNumerology, f"sub-band {k}")
        try:
            subbands.append(SubbandNumerology(**sb))
        except ConfigError as e:
            raise ConfigError(f"sub-band {k}: {e}") from None
    return ScenarioConfig(**{**d, "subbands": subbands})


def save_scenario(sc: ScenarioConfig, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> ScenarioConfig:
    """Scenario from a UTF-8 JSON file; unreadable JSON is a ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except (ValueError, RecursionError) as e:  # bytes, syntax, depth
            raise ConfigError(f"{path}: not a JSON scenario: {e}") from None
    return scenario_from_dict(d)


@lru_cache(maxsize=256)
def scenario_hash(sc: ScenarioConfig) -> str:
    """Stable hex digest of the canonical JSON form, computed once per
    scenario. Equal scenarios share it: their float fields are spelled
    alike from construction on."""
    blob = json.dumps(scenario_to_dict(sc), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# presets

def with_gap(sc: ScenarioConfig, gap_hz: float) -> ScenarioConfig:
    """The scenario with a new inter-band gap and matching transition.

    The one-sided filter transition tracks the gap (half of it), so a wider
    gap both separates the bands and sharpens nothing; a zero gap packs the
    bands edge to edge with a brick-wall target.
    """
    subbands = []
    for k, nm in enumerate(sc.subbands):
        n_guard = gap_hz / nm.scs_hz
        if abs(n_guard - round(n_guard)) > 1e-9:
            raise ConfigError(f"gap {gap_hz} Hz is not a whole number of "
                              f"{nm.scs_hz} Hz subcarriers")
        try:
            subbands.append(replace(nm, n_guard=int(round(n_guard)),
                                    transition_hz=gap_hz / 2.0))
        except ConfigError as e:
            raise ConfigError(f"sub-band {k} at a {gap_hz:g} Hz gap: {e}") \
                from None
    return replace(sc, subbands=tuple(subbands))


def _subband(scs_hz, filter_len):
    """A 15-PRB band of the presets, packed edge to edge (zero gap)."""
    return SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=scs_hz, n_used=180,
                             filter_len=filter_len, n_prefix=32,
                             n_transition=32)


PRESETS = {
    # Three-band reference scenario: 30/60/15 kHz spacings, 15 PRB each,
    # filter lengths 177/89/353, 180 kHz inter-band gap, 90 kHz one-sided
    # filter transition. Composite rate is 61.44 MHz.
    "table1": with_gap(ScenarioConfig(subbands=(
        _subband(30e3, 177), _subband(60e3, 89), _subband(15e3, 353))),
        180e3),
    # One 15 kHz band, filtered, centered at 0 Hz, with the 180 kHz gap's
    # guards and transition.
    "single-band": with_gap(ScenarioConfig(
        subbands=(_subband(15e3, 353),), f1_hz=0.0), 180e3),
    # Distortionless reference: one CP-OFDM band, no receive filter, f1 = 0.
    "bypass": ScenarioConfig(subbands=(SubbandNumerology(
        n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180),), f1_hz=0.0,
        rx_filter=False),
}


def get_preset(name) -> ScenarioConfig:
    """The preset called name; build variants with dataclasses.replace."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name]
