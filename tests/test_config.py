import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixnum import config
from mixnum.config import (ConfigError, ScenarioConfig, SubbandNumerology,
                           center_frequencies, composite_rate, default_f1,
                           get_preset, load_scenario, save_scenario,
                           scenario_from_dict, scenario_hash,
                           scenario_to_dict, subband_sample_rate,
                           symbols_per_band, upsampling_factor, with_gap)


def table1():
    return config.get_preset("table1")


class TestSubbandNumerology:
    def test_minimal_band(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180)
        assert nm.occupied_hz == pytest.approx(180 * 15e3)
        assert nm.r_subcarriers == 0.0

    def test_rejects_non_pow2_fft(self):
        with pytest.raises(ConfigError):
            SubbandNumerology(n_fft=1000, n_cp=64, scs_hz=15e3, n_used=180)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ConfigError):
            SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=45e3, n_used=180)

    def test_rejects_partial_prb(self):
        with pytest.raises(ConfigError):
            SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=100)

    def test_rejects_even_filter_len(self):
        with pytest.raises(ConfigError):
            SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180,
                              filter_len=88)

    def test_filter_len_is_bounded_by_the_fft(self):
        # 2 * n_fft + 1 taps at most; 10**9 + 1 is refused by the
        # constructor, and no filter is designed
        kw = dict(n_fft=64, n_cp=8, scs_hz=15e3, n_used=24)
        assert SubbandNumerology(**kw, filter_len=129).filter_len == 129
        for n in (131, 10 ** 9 + 1):
            with pytest.raises(ConfigError, match=r"filter_len .*\(129\)"):
                SubbandNumerology(**kw, filter_len=n)

    def test_rejects_spacing_above_960_khz(self):
        SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=960e3, n_used=180)
        with pytest.raises(ConfigError, match="scs_hz"):
            SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=1920e3, n_used=180)

    def test_rejects_overfull_band(self):
        with pytest.raises(ConfigError):
            SubbandNumerology(n_fft=256, n_cp=16, scs_hz=15e3, n_used=240,
                              n_guard=32)

    def test_cp_may_be_as_long_as_the_fft(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=1024, scs_hz=15e3,
                               n_used=180)
        assert nm.n_cp == nm.n_fft

    def test_rejects_cp_longer_than_the_fft(self):
        with pytest.raises(ConfigError, match="n_cp"):
            SubbandNumerology(n_fft=1024, n_cp=1025, scs_hz=15e3, n_used=180)

    def test_prefix_must_fit_in_cp(self):
        with pytest.raises(ConfigError):
            SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180,
                              n_prefix=64, n_transition=0)

    def test_transition_must_be_even(self):
        with pytest.raises(ConfigError):
            SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180,
                              n_prefix=32, n_transition=31)

    @pytest.mark.parametrize("field", ["scs_hz", "transition_hz"])
    @pytest.mark.parametrize("value", [
        "15000", True, None, float("nan"), float("inf"), -float("inf"),
        pytest.param(10 ** 400, id="int-beyond-float")])
    def test_rejects_a_float_field_that_is_no_number(self, field, value):
        kw = dict(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180)
        kw[field] = value
        with pytest.raises(ConfigError, match=field):
            SubbandNumerology(**kw)

    def test_fractional_transition_subcarriers(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=60e3, n_used=180,
                               transition_hz=90e3)
        assert nm.r_subcarriers == pytest.approx(1.5)


_INT_FIELDS = (
    [(SubbandNumerology, name) for name in ("n_fft", "n_cp", "n_used",
                                            "n_guard", "filter_len",
                                            "n_prefix", "n_transition")]
    + [(ScenarioConfig, name) for name in ("mod_order", "n_symbols",
                                           "seed")])


class TestFieldTypes:
    """Scenarios built in Python are checked like those read from JSON."""

    @staticmethod
    def build(cls, name, value):
        sc = table1()
        kw = asdict(sc.subbands[0]) if cls is SubbandNumerology \
            else {**scenario_to_dict(sc), "subbands": sc.subbands}
        good = kw[name]
        return cls(**{**kw, name: value(good)})

    @pytest.mark.parametrize("cls,name", _INT_FIELDS,
                             ids=[n for _, n in _INT_FIELDS])
    @pytest.mark.parametrize("value", [float, lambda v: True, str],
                             ids=["float", "bool", "str"])
    def test_int_field_takes_only_an_integer(self, cls, name, value):
        self.build(cls, name, int)
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            self.build(cls, name, value)

    def test_float_in_an_int_field_is_rejected(self):
        # it compared equal to the int form but was spelled 4.0 in the
        # JSON, so the memoized digest depended on which form came first
        with pytest.raises(ConfigError, match="mod_order"):
            replace(table1(), mod_order=4.0)

    def test_numpy_scalars_are_stored_as_plain_values(self):
        sc = replace(table1(), mod_order=np.int64(16), f1_hz=np.float64(-0.0))
        assert type(sc.mod_order) is int and type(sc.f1_hz) is float
        assert str(sc.f1_hz) == "0.0"
        assert scenario_hash(sc) == scenario_hash(
            replace(table1(), mod_order=16, f1_hz=0.0))

    @pytest.mark.parametrize("name,value", [
        ("rx_filter", 1), ("rx_filter", "true"), ("waveform", None),
        ("eq_mode", 0), ("f1_hz", float("nan")), ("f1_hz", "0"),
        ("subbands", "abc"), ("subbands", [1])])
    def test_other_fields_are_checked_by_type(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            replace(table1(), **{name: value})


class TestScenarioConfig:
    def test_wofdm_requires_prefix(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180)
        with pytest.raises(ConfigError):
            ScenarioConfig(subbands=(nm,), waveform="w-ofdm")

    def test_rejects_unknown_waveform(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180)
        with pytest.raises(ConfigError):
            ScenarioConfig(subbands=(nm,), waveform="ofdm")

    def test_rejects_bad_mod_order(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180)
        with pytest.raises(ConfigError):
            ScenarioConfig(subbands=(nm,), mod_order=8)

    def test_rejects_bad_eq_mode(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=180)
        with pytest.raises(ConfigError):
            ScenarioConfig(subbands=(nm,), eq_mode="mmse")

    @pytest.mark.parametrize("waveform,rx_filter,r,grid", [
        ("f-ofdm", True, 422.0, "f-OFDM filter's grid of 1024"),
        ("f-ofdm", False, 422.0, "f-OFDM filter's grid of 1024"),
        ("cp-ofdm", True, 1958.0, "receive filter's grid of 4096"),
        ("w-ofdm", True, 1958.0, "receive filter's grid of 4096"),
        ("cp-ofdm", False, 1e6, None),
    ])
    def test_filter_passband_must_fit_its_grid(self, waveform, rx_filter, r,
                                               grid):
        # table1's band 3 (u = 4): n_used 180 plus 2 r subcarriers of
        # transition may fill, but not pass, 1024 bins for the f-OFDM
        # filter and 4096 for the receive filter; without either filter
        # the transition is not used
        sc = replace(table1(), waveform=waveform, rx_filter=rx_filter)

        def with_r(r):
            band = replace(sc.subbands[2], transition_hz=r * 15e3)
            return replace(sc, subbands=(*sc.subbands[:2], band))

        with_r(r)
        if grid is not None:
            with pytest.raises(ConfigError, match=f"sub-band 2: .*{grid}"):
                with_r(r + 0.5)

    def test_needs_a_band(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(subbands=())

    def test_composite_cap_is_checked_before_anything_is_built(self):
        # every n_fft 4096 takes 17408 composite samples per symbol: about
        # 35.7 M at 2048 symbols, four times table1's
        sc = table1()
        long = tuple(replace(nm, n_fft=4096, n_cp=256) for nm in sc.subbands)
        replace(sc, subbands=long, n_symbols=512)
        with pytest.raises(ConfigError, match="35652096 samples"):
            replace(sc, subbands=long, n_symbols=2048)

    def test_composite_cap_bounds_the_composite_length(self, monkeypatch):
        sc = replace(table1(), waveform="f-ofdm")
        n = config.composite_length(sc)
        monkeypatch.setattr(config, "MAX_COMPOSITE_SAMPLES", n)
        replace(sc, seed=1)
        monkeypatch.setattr(config, "MAX_COMPOSITE_SAMPLES", n - 1)
        with pytest.raises(ConfigError):
            replace(sc, seed=1)

    @pytest.mark.parametrize("name", sorted(config.PRESETS))
    def test_every_preset_calibrates_under_the_cap(self, name):
        from mixnum.link import _calibration_scenario
        sc = get_preset(name)
        waveforms = ["cp-ofdm"] if name == "bypass" else config.WAVEFORMS
        for waveform in waveforms:
            for n_symbols in (1, sc.n_symbols):
                sc_wf = replace(sc, waveform=waveform, n_symbols=n_symbols)
                for i in range(len(sc.subbands)):
                    cal = _calibration_scenario(sc_wf, i)
                    assert config.composite_length(cal) <= \
                        config.MAX_COMPOSITE_SAMPLES


class TestRates:
    def test_table1_band_rates(self):
        sc = table1()
        rates = [subband_sample_rate(nm) for nm in sc.subbands]
        assert rates == [30.72e6, 61.44e6, 15.36e6]

    def test_table1_composite_rate(self):
        assert composite_rate(table1()) == 61.44e6

    def test_table1_upsampling_factors(self):
        sc = table1()
        assert [upsampling_factor(sc, i) for i in range(3)] == [2, 1, 4]

    def test_symbols_per_band_equalizes_time(self):
        sc = replace(config.get_preset("table1"), n_symbols=8)
        n = [symbols_per_band(sc, i) for i in range(3)]
        # slowest band (u=4) carries n_symbols; faster bands carry more
        assert n == [16, 32, 8]
        strides = [(nm.n_fft + nm.n_cp) / subband_sample_rate(nm)
                   for nm in sc.subbands]
        spans = [n[i] * strides[i] for i in range(3)]
        assert max(spans) == pytest.approx(min(spans))

    @given(p=st.integers(0, 4))
    def test_upsampling_factor_is_pow2(self, p):
        nm_fast = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3 * 2 ** p,
                                    n_used=180)
        nm_slow = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3,
                                    n_used=180)
        sc = ScenarioConfig(subbands=(nm_fast, nm_slow))
        assert upsampling_factor(sc, 1) == 2 ** p
        assert upsampling_factor(sc, 0) == 1


class TestFrequencies:
    def test_table1_f2_minus_f1(self):
        f = center_frequencies(table1())
        assert f[1] - f[0] == pytest.approx(8.28e6)

    def test_table1_f3_minus_f2(self):
        f = center_frequencies(table1())
        # 10.8/2 + 0.18 + 2.7/2 MHz
        assert f[2] - f[1] == pytest.approx(6.93e6)

    def test_default_layout_is_centered(self):
        sc = table1()
        f = center_frequencies(sc)
        w = [nm.occupied_hz for nm in sc.subbands]
        left = f[0] - w[0] / 2.0
        right = f[-1] + w[-1] / 2.0
        assert left == pytest.approx(-right)

    def test_explicit_f1_shifts_everything(self):
        sc = table1()
        sc2 = ScenarioConfig(**{**scenario_to_dict(sc),
                                "subbands": sc.subbands, "f1_hz": 1e6})
        f1 = center_frequencies(sc)
        f2 = center_frequencies(sc2)
        shift = f2[0] - f1[0]
        assert np.allclose(np.diff(f1), np.diff(f2))
        assert f2[0] == 1e6 and shift != 0

    def test_band_may_fill_the_composite_band(self):
        nm = SubbandNumerology(n_fft=1024, n_cp=64, scs_hz=15e3, n_used=1020,
                               n_guard=4)
        sc = ScenarioConfig(subbands=(nm,), f1_hz=0.0)
        assert nm.occupied_hz == composite_rate(sc)
        with pytest.raises(ConfigError, match=r"sub-band 0 .*f1_hz 1\.0\)"):
            replace(sc, f1_hz=1.0)

    @pytest.mark.parametrize("f1_hz", [1e9, -30.6e6, 22e6])
    def test_band_outside_the_composite_band_rejected(self, f1_hz):
        # -30.6 MHz puts band 0 past -fs/2, 22 MHz puts band 2 past +fs/2
        with pytest.raises(ConfigError, match="f1_hz"):
            replace(table1(), f1_hz=f1_hz)

    def test_default_f1_single_band_is_zero(self):
        sc = config.get_preset("single-band")
        assert default_f1(sc) == pytest.approx(0.0)


_DROP = object()
_FIELD_NAMES = sorted(set(scenario_to_dict(table1()))
                      | set(scenario_to_dict(table1())["subbands"][0]))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
# (where, key, new value or _DROP); where is the scenario, a sub-band
# index or "root" (the value replaces the whole dict)
_MUTATIONS = st.tuples(st.sampled_from(["root", "scenario", 0, 1, 2]),
                       st.sampled_from(_FIELD_NAMES) | st.text(max_size=4),
                       st.just(_DROP) | _JSON_VALUES)


def _mutated(d, mutations):
    for where, key, value in mutations:
        if where == "root":
            if value is not _DROP:
                d = value
            continue
        if where == "scenario":
            obj = d
        else:
            sbs = d.get("subbands") if isinstance(d, dict) else None
            obj = sbs[where] if isinstance(sbs, list) and where < len(sbs) \
                else None
        if not isinstance(obj, dict):
            continue
        if value is _DROP:
            obj.pop(key, None)
        else:
            obj[key] = value
    return d


class TestSerialization:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_MUTATIONS, min_size=1, max_size=4))
    def test_mutated_dict_loads_or_raises_config_error(self, mutations):
        d = _mutated(scenario_to_dict(table1()), mutations)
        try:
            sc = scenario_from_dict(d)
        except ConfigError:
            return
        assert isinstance(sc, ScenarioConfig)

    def test_round_trip(self, tmp_path):
        sc = replace(config.get_preset("table1"), waveform="w-ofdm",
                     mod_order=64, n_symbols=5, seed=99)
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_hash_stable_across_round_trip(self, tmp_path):
        sc = table1()
        path = tmp_path / "s.json"
        save_scenario(sc, path)
        assert scenario_hash(load_scenario(path)) == scenario_hash(sc)

    def test_hash_sensitive_to_any_field(self):
        sc = table1()
        other = replace(config.get_preset("table1"), seed=1)
        assert scenario_hash(sc) != scenario_hash(other)

    def test_equal_scenarios_built_apart_share_a_digest(self):
        a = replace(config.get_preset("table1"), waveform="f-ofdm",
                    n_symbols=12, seed=4)
        b = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(a))))
        assert a == b and a is not b
        assert scenario_hash(a) == scenario_hash(b)
        assert scenario_hash(a) is scenario_hash(b)  # computed once

    @pytest.mark.parametrize("change", [
        {"seed": 5}, {"n_symbols": 13}, {"rx_filter": False},
        {"eq_mode": "per-subcarrier"}, {"f1_hz": 0.0}])
    def test_changing_one_field_changes_the_digest(self, change):
        a = replace(config.get_preset("table1"), waveform="f-ofdm",
                    n_symbols=12, seed=4)
        assert scenario_hash(a) != scenario_hash(replace(a, **change))

    def test_equal_values_spelled_apart_share_one_digest(self):
        # 0 == 0.0 == -0.0 are stored as 0.0, so all three have one JSON
        # form and one digest, whichever of them is hashed first
        forms = [replace(table1(), f1_hz=v) for v in (0.0, 0, -0.0)]
        digests = {scenario_hash(sc) for sc in forms}
        assert len(digests) == 1
        for sc in forms:
            blob = json.dumps(scenario_to_dict(sc), sort_keys=True).encode()
            assert digests == {hashlib.sha256(blob).hexdigest()}

    def test_integers_in_float_fields_are_stored_as_floats(self):
        d = scenario_to_dict(table1())
        d["f1_hz"] = -0.0
        for sb in d["subbands"]:
            sb["scs_hz"] = int(sb["scs_hz"])
            sb["transition_hz"] = int(sb["transition_hz"])
        text = json.dumps(d)
        assert '"scs_hz": 30000,' in text and '"f1_hz": -0.0' in text
        sc = scenario_from_dict(json.loads(text))
        want = scenario_to_dict(replace(table1(), f1_hz=0.0))
        assert (json.dumps(scenario_to_dict(sc), sort_keys=True)
                == json.dumps(want, sort_keys=True))
        assert all(type(nm.scs_hz) is float and type(nm.transition_hz) is float
                   for nm in sc.subbands)
        assert str(sc.f1_hz) == "0.0"

    def test_unknown_scenario_field_rejected(self):
        d = scenario_to_dict(table1())
        d["snr_db"] = 10
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_unknown_subband_field_rejected(self):
        d = scenario_to_dict(table1())
        d["subbands"][0]["bandwidth"] = 5e6
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_missing_subbands_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"waveform": "cp-ofdm"})

    def test_json_is_plain_data(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(table1(), path)
        d = json.loads(path.read_text())
        assert d["waveform"] == "cp-ofdm"
        assert len(d["subbands"]) == 3


class TestPresets:
    def test_known_presets(self):
        for name in ("table1", "single-band", "bypass"):
            sc = get_preset(name)
            assert isinstance(sc, ScenarioConfig)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_preset("table2")

    def test_presets_are_shared_values(self):
        # frozen, so one value serves every caller; variants are replaced
        sc = get_preset("table1")
        assert sc is get_preset("table1")
        variant = replace(sc, mod_order=256, seed=5)
        assert (variant.mod_order, variant.seed) == (256, 5)
        assert (sc.mod_order, sc.seed) == (4, 0)

    def test_bypass_is_distortionless_config(self):
        sc = get_preset("bypass")
        assert sc.rx_filter is False
        assert sc.waveform == "cp-ofdm"
        assert len(sc.subbands) == 1
        assert sc.subbands[0].filter_len == 1

    # digests of the presets as spelled before they were built through
    # with_gap; a change here changes every manifest's scenario_hash
    @pytest.mark.parametrize("name,digest", [
        ("table1", "1a5f6d3d49bb7645b76cdf2d85a7d40d"
                   "d8126f3f8a57c40f3a1a71d92fe52744"),
        ("single-band", "6cf639ed4293c96f5cdca830aad55fe0"
                        "15d834262834542ebc41729d664e8956"),
        ("bypass", "37ed354a7e176dd1f4c347bd52fc72b8"
                   "1e4d362d266ce755fe071a2dedf47e91")])
    def test_preset_digests_are_pinned(self, name, digest):
        sc = get_preset(name)
        blob = json.dumps(scenario_to_dict(sc), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert scenario_hash(sc) == digest

    @pytest.mark.parametrize("gap_hz", [0.0, 180e3, 540e3])
    def test_table1_gap_is_with_gap(self, gap_hz):
        sc = with_gap(table1(), gap_hz)
        assert sc == with_gap(with_gap(table1(), 0.0), gap_hz)
        assert (sc == table1()) == (gap_hz == 180e3)
        assert [nm.n_guard * nm.scs_hz for nm in sc.subbands] == [gap_hz] * 3
        assert [nm.transition_hz for nm in sc.subbands] == [gap_hz / 2] * 3

    def test_table1_guards_match_gap(self):
        sc = get_preset("table1")
        # 180 kHz shared gap -> 90 kHz of guard on each side of each band
        assert [nm.n_guard for nm in sc.subbands] == [6, 3, 12]


class TestWithGap:
    @pytest.mark.parametrize("m", range(5))
    def test_gap_in_resource_blocks(self, m):
        sc = with_gap(table1(), 12.0 * m * config.F0_HZ)
        for nm in sc.subbands:
            assert nm.n_guard * nm.scs_hz == pytest.approx(12.0 * m
                                                           * config.F0_HZ)
            assert nm.transition_hz == pytest.approx(6.0 * m * config.F0_HZ)

    def test_zero_gap_packs_bands(self):
        sc = with_gap(table1(), 0.0)
        f = center_frequencies(sc)
        w = [nm.occupied_hz for nm in sc.subbands]
        assert f[1] - f[0] == pytest.approx((w[0] + w[1]) / 2.0)

    def test_non_integer_gap_rejected(self):
        with pytest.raises(ConfigError):
            with_gap(table1(), 100e3)  # not a multiple of 60 kHz

    @pytest.mark.parametrize("name", ["table1", "single-band", "bypass"])
    def test_presets_stay_in_the_composite_band_up_to_m_8(self, name):
        fs = composite_rate(get_preset(name))
        for m in range(9):
            sc = with_gap(get_preset(name), 12.0 * m * config.F0_HZ)
            for f, nm in zip(center_frequencies(sc), sc.subbands):
                assert abs(f) + nm.occupied_hz / 2 <= fs / 2

    def test_other_fields_preserved(self):
        sc = replace(config.get_preset("table1"), waveform="f-ofdm",
                     mod_order=16, seed=3)
        sc2 = with_gap(sc, 360e3)
        assert (sc2.waveform, sc2.mod_order, sc2.seed) == ("f-ofdm", 16, 3)
