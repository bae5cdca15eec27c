"""Mixed-numerology OFDM downlink simulator.

CP-OFDM, filtered-OFDM and windowed-OFDM sub-bands coexisting at different
subcarrier spacings, combined by a multirate transmitter and evaluated over
AWGN via PSD, EVM, Monte Carlo BER and semi-analytic BER.
"""

__version__ = "0.1.0"

from .config import (ScenarioConfig, SubbandNumerology, composite_rate,
                     center_frequencies, get_preset, load_scenario,
                     save_scenario, scenario_hash, subband_sample_rate,
                     upsampling_factor, with_gap)
from .dsp import ComplexSignal, FilterTaps
from .link import ReceiverCalibration, awgn_from_rng, calibrate, \
    receive_subband
from .metrics import (BerPoint, PsdCurve, ebn0_at_target_ber, evm_db,
                      monte_carlo_ber, monte_carlo_curves, welch_psd)
from .modem import constellation, qam_demodulate, qam_modulate
from .waveform import build_burst, build_composite, compose

__all__ = [
    "ScenarioConfig", "SubbandNumerology", "ComplexSignal", "FilterTaps",
    "ReceiverCalibration", "BerPoint", "PsdCurve",
    "composite_rate", "center_frequencies", "subband_sample_rate",
    "upsampling_factor", "scenario_hash", "get_preset", "load_scenario",
    "save_scenario", "with_gap", "awgn_from_rng", "calibrate",
    "receive_subband", "ebn0_at_target_ber", "evm_db", "monte_carlo_ber",
    "monte_carlo_curves", "welch_psd", "constellation", "qam_demodulate",
    "qam_modulate", "build_burst", "build_composite", "compose",
]
