import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixnum.config import get_preset
from mixnum.modem import (_KERNEL_CHUNK, ModemError,
                          bit_error_probabilities, bit_error_tables,
                          bits_to_symbols, constellation, qam_demodulate,
                          qam_modulate)
from mixnum.waveform import random_payload
from oracles import (bit_error_probabilities_one_shot, qam_ber_awgn, qfunc,
                     traced_peak)

ORDERS = (4, 16, 64, 256)


def random_bits(seed, n):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def kernel(rx, tx, M, sigma):
    """Both halves of the bit-error kernel in one call."""
    return bit_error_probabilities(bit_error_tables(rx, tx, M), M, sigma)


def levels(cm):
    """The per-dimension levels, ascending: the distinct real parts of the
    points."""
    return np.unique(cm.points.real)


class TestConstellation:
    @pytest.mark.parametrize("M", ORDERS)
    def test_unit_average_energy(self, M):
        cm = constellation(M)
        assert np.mean(np.abs(cm.points) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("M", ORDERS)
    def test_gray_neighbours_differ_by_one_bit(self, M):
        # labels of points one level step apart, along I or Q
        cm = constellation(M)
        step = np.diff(levels(cm)).min()
        dist = np.abs(cm.points[:, None] - cm.points[None, :])
        a, b = np.nonzero(np.isclose(dist, step))
        m = len(levels(cm))
        assert len(a) == 4 * m * (m - 1)
        assert all(bin(x ^ y).count("1") == 1 for x, y in zip(a, b))

    def test_qpsk_all_zero_label(self):
        cm = constellation(4)
        assert cm.points[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_qpsk_points(self):
        pts = np.sort_complex(constellation(4).points)
        ref = np.sort_complex(np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
                              / np.sqrt(2))
        np.testing.assert_allclose(pts, ref)

    def test_16qam_scaling(self):
        cm = constellation(16)
        assert np.max(levels(cm)) == pytest.approx(3 / np.sqrt(10))


class TestBits:
    def test_random_bits_fair(self):
        sc = replace(get_preset("table1"), mod_order=16, n_symbols=64)
        bits, qam = random_payload(sc, 0, np.random.default_rng(0))
        assert len(bits) == 4 * 128 * 180
        assert abs(np.mean(bits) - 0.5) < 0.01
        np.testing.assert_array_equal(qam, qam_modulate(bits, 16))

    def test_bits_to_symbols_msb_first(self):
        np.testing.assert_array_equal(
            bits_to_symbols([1, 0, 0, 1], 4), [2, 1])


class TestModDemod:
    @pytest.mark.parametrize("M", ORDERS)
    def test_round_trip(self, M):
        bits = random_bits(3, 1200 * int(np.log2(M)))
        pts = qam_modulate(bits, M)
        np.testing.assert_array_equal(qam_demodulate(pts, M), bits)

    @pytest.mark.parametrize("M", ORDERS)
    def test_empirical_energy(self, M):
        bits = random_bits(11, 100000 // int(np.log2(M))
                           * int(np.log2(M)))
        pts = qam_modulate(bits, M)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_qpsk_zero_bits(self):
        pts = qam_modulate([0, 0], 4)
        assert pts[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_origin_tie_breaks_low(self):
        # a point exactly on the boundary decodes toward the lower level,
        # whose Gray label for QPSK is the all-ones corner
        bits = qam_demodulate(np.array([0.0 + 0.0j]), 4)
        np.testing.assert_array_equal(bits, [1, 1])

    def test_far_outliers_clamp(self):
        bits = qam_demodulate(np.array([100 + 100j, -100 - 100j]), 4)
        np.testing.assert_array_equal(bits[:2], [0, 0])
        np.testing.assert_array_equal(bits[2:], [1, 1])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           M=st.sampled_from(ORDERS))
    def test_round_trip_property(self, seed, M):
        bits = random_bits(seed, 60 * int(np.log2(M)))
        np.testing.assert_array_equal(
            qam_demodulate(qam_modulate(bits, M), M), bits)


class TestBitErrorKernel:
    def test_zero_sigma_rejected(self):
        # every Eb/N0 the command line takes gives a positive sigma
        pts = qam_modulate(random_bits(0, 200), 4)
        with pytest.raises(ModemError):
            kernel(pts, pts, 4, 0.0)
        sigma = np.full(len(pts), 0.1)
        sigma[7] = 0.0
        with pytest.raises(ModemError):
            kernel(pts, pts, 4, sigma)

    # sigma = 0 itself is rejected; the two tests below check the sigma -> 0
    # limit, where every tail is exactly 0 or 1 and the kernel reduces to
    # hard decisions
    def test_zero_sigma_noiseless_is_zero(self):
        pts = qam_modulate(random_bits(0, 200), 4)
        p = kernel(pts, pts, 4, 1e-3)
        np.testing.assert_array_equal(p, 0.0)

    def test_zero_sigma_counts_hard_errors(self):
        tx = qam_modulate([0, 0], 4)
        rx = -tx  # diagonally opposite: both bits wrong
        np.testing.assert_array_equal(
            kernel(rx, tx, 4, 1e-3), [1.0])

    def test_qpsk_on_point_matches_qfunc(self):
        tx = qam_modulate([0, 0], 4)
        sigma = 0.2
        expect = qfunc(np.abs(tx.real) / sigma)
        np.testing.assert_allclose(kernel(tx, tx, 4, sigma),
                                   expect, rtol=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ModemError):
            kernel(np.array([1 + 1j]), np.array([1 + 1j]), 4, -0.1)

    def test_nan_sigma_rejected(self):
        # a NaN sigma would give a NaN BER, not an error
        pts = qam_modulate(random_bits(0, 200), 4)
        with pytest.raises(ModemError):
            kernel(pts, pts, 4, np.nan)
        sigma = np.full(len(pts), 0.1)
        sigma[3] = np.nan
        with pytest.raises(ModemError):
            kernel(pts, pts, 4, sigma)

    @pytest.mark.parametrize("M", ORDERS)
    @pytest.mark.parametrize("per_point", [False, True],
                             ids=["scalar-sigma", "per-point-sigma"])
    def test_halves_match_the_one_shot_kernel_byte_for_byte(self, M,
                                                            per_point):
        rng = np.random.default_rng(M)
        n = 2000
        tx = constellation(M).points[rng.integers(0, M, n)]
        rx = tx + 0.1 * (rng.standard_normal(n)
                         + 1j * rng.standard_normal(n)) / np.sqrt(M)
        tables = bit_error_tables(rx, tx, M)
        for sigma in (0.003, 0.03, 0.3):
            if per_point:
                sigma = sigma * rng.uniform(0.5, 2.0, n)
            got = bit_error_probabilities(tables, M, sigma)
            want = bit_error_probabilities_one_shot(rx, tx, M, sigma)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("M", ORDERS)
    def test_tables_are_read_only_and_stacked_i_over_q(self, M):
        cm = constellation(M)
        rx = cm.points * (1.1 - 0.2j)
        tables = bit_error_tables(rx, cm.points, M)
        distances, levels_sent = tables
        assert distances.shape == (2, M, len(cm.thresholds))
        assert levels_sent.shape == (2, M)
        assert levels_sent.dtype == np.uint8
        for table in tables:
            assert not table.flags.writeable
        for d, part in enumerate(("real", "imag")):
            x = getattr(rx, part)
            sent = np.searchsorted(cm.thresholds,
                                   getattr(cm.points, part))
            np.testing.assert_array_equal(
                distances[d],
                cm.tail_sign[sent] * (cm.thresholds - x[:, None]))
            np.testing.assert_array_equal(levels_sent[d], sent)

    @pytest.mark.parametrize("M", [16, 256])
    def test_chunked_kernel_matches_the_one_shot_kernel_byte_for_byte(self,
                                                                     M):
        # more points than one chunk, the last chunk a ragged one
        rng = np.random.default_rng(M)
        n = 2 * _KERNEL_CHUNK + 37
        tx = constellation(M).points[rng.integers(0, M, n)]
        rx = tx + 0.1 * (rng.standard_normal(n)
                         + 1j * rng.standard_normal(n)) / np.sqrt(M)
        tables = bit_error_tables(rx, tx, M)
        for sigma in (0.01, rng.uniform(0.005, 0.05, n)):
            got = bit_error_probabilities(tables, M, sigma)
            want = bit_error_probabilities_one_shot(rx, tx, M, sigma)
            assert got.tobytes() == want.tobytes()

    def test_tables_and_per_call_memory_are_bounded(self):
        # the tables keep 8 bytes per threshold distance and 1 per sent
        # level; the per-sigma half works _KERNEL_CHUNK points at a time,
        # so beyond its result it needs a few times 240 bytes per chunk
        # point at 256-QAM (the quotients and the gathered weight rows:
        # 10.8 MB was measured), not a temporary as large as the distances
        # (24 MB here, 79 MB at 300,000 points)
        M, n = 256, 100_000
        cm = constellation(M)
        rng = np.random.default_rng(3)
        tx = cm.points[rng.integers(0, M, n)]
        tables = bit_error_tables(tx * 1.01, tx, M)
        per_point = 2 * len(cm.thresholds) * 8 + 2
        assert sum(t.nbytes for t in tables) == per_point * n
        bit_error_probabilities(tables, M, 0.01)  # imports scipy.special
        p, peak = traced_peak(
            lambda: bit_error_probabilities(tables, M, 0.01))
        assert peak - p.nbytes <= 4 * 2 * len(cm.thresholds) * 8 \
            * _KERNEL_CHUNK

    @pytest.mark.parametrize("M", ORDERS)
    def test_kernel_average_equals_closed_form(self, M):
        # averaging the per-point kernel over the constellation with the
        # matching sigma must reproduce the closed-form QAM BER series
        cm = constellation(M)
        k = np.log2(M)
        for ebn0_db in (0.0, 6.0, 12.0):
            gamma = 10 ** (ebn0_db / 10)
            sigma = np.sqrt(1.0 / (2 * k * gamma))
            p = kernel(cm.points, cm.points, M, sigma)
            assert np.mean(p) == pytest.approx(
                float(qam_ber_awgn(M, gamma)), rel=1e-10)

    def test_displaced_point_moves_probability_up(self):
        tx = qam_modulate([0, 0], 4)
        nudged = tx - 0.2 * (1 + 1j)  # toward the decision boundaries
        assert (kernel(nudged, tx, 4, 0.1)
                > kernel(tx, tx, 4, 0.1)).all()

    @settings(max_examples=30, deadline=None)
    @given(re=st.floats(-2, 2), im=st.floats(-2, 2),
           sigma=st.floats(0.01, 1.0), M=st.sampled_from(ORDERS))
    def test_probability_bounds(self, re, im, sigma, M):
        tx = constellation(M).points[:1]
        p = kernel(np.array([re + 1j * im]), tx, M, sigma)
        assert p.shape == (1,) and 0.0 <= p[0] <= 1.0


def _cell_oracle(x, sent, sigma, cm):
    """Expected erroneous bits in one dimension, cell by cell: each cell's
    probability is taken from the Gaussian tails beyond its edges, each tail
    on its own with math.erfc, and weighted by the cell's Hamming distance
    to the sent level. The erfc argument is formed as the kernel forms it,
    (theta - x) / (sqrt(2) sigma), since a one-ulp change of a tail argument
    d moves Q(d) by about d**2 ulp."""
    def above(theta):  # P(X > theta)
        return 0.5 * math.erfc((theta - x) / (math.sqrt(2.0) * sigma))

    def below(theta):  # P(X < theta)
        return 0.5 * math.erfc((x - theta) / (math.sqrt(2.0) * sigma))

    edges = [-math.inf, *cm.thresholds.tolist(), math.inf]
    terms = []
    for i in range(len(levels(cm))):
        lo, hi = edges[i], edges[i + 1]
        if x <= lo:
            p = above(lo) - above(hi)
        elif x >= hi:
            p = below(hi) - below(lo)
        else:
            p = 1.0 - below(lo) - above(hi)
        terms.append(p * int(np.sum(cm.level_bits[i] != cm.level_bits[sent])))
    return math.fsum(terms)


class TestBitErrorKernelTails:
    @settings(max_examples=200, deadline=None)
    @given(M=st.sampled_from(ORDERS), label=st.integers(0, 255),
           dx=st.one_of(st.floats(-0.05, 0.05), st.floats(-2, 2)),
           dy=st.one_of(st.floats(-0.05, 0.05), st.floats(-2, 2)),
           sigma=st.floats(1e-3, 1.0))
    def test_matches_cell_oracle(self, M, label, dx, dy, sigma):
        cm = constellation(M)
        tx = cm.points[label % M]
        rx = complex(tx.real + dx, tx.imag + dy)
        sent_i = int(np.argmin(np.abs(levels(cm) - tx.real)))
        sent_q = int(np.argmin(np.abs(levels(cm) - tx.imag)))
        expect = (_cell_oracle(rx.real, sent_i, sigma, cm)
                  + _cell_oracle(rx.imag, sent_q, sigma, cm)) / np.log2(M)
        p = kernel(np.array([rx]), np.array([tx]), M, sigma)
        # subnormal results carry no relative precision
        np.testing.assert_allclose(p, [expect], rtol=1e-12,
                                   atol=np.finfo(float).tiny)

    @pytest.mark.parametrize("ratio", [7.0, 7.5])
    def test_16qam_inner_point_tail(self, ratio):
        # an inner 16-QAM point at level alpha in both dimensions errs per
        # dimension by 2 Q(alpha/sigma) + Q(3 alpha/sigma) bits: a Q(d)
        # step to each neighbour and Q(3d) more for the two-bit far level
        cm = constellation(16)
        alpha = levels(cm)[2]
        tx = np.array([alpha + 1j * alpha])
        sigma = alpha / ratio
        d = alpha / sigma

        def q(v):
            return 0.5 * math.erfc(v / math.sqrt(2.0))

        expect = 2 * (2 * q(d) + q(3 * d)) / 4
        assert kernel(tx, tx, 16, sigma)[0] == \
            pytest.approx(expect, rel=1e-12, abs=0)


class TestClosedForm:
    def test_qpsk_reduces_to_qfunc(self):
        gamma = 10 ** (np.arange(0, 10, 2) / 10)
        np.testing.assert_allclose(qam_ber_awgn(4, gamma),
                                   qfunc(np.sqrt(2 * gamma)), rtol=1e-12)

    def test_monotone_in_snr(self):
        gamma = 10 ** (np.linspace(-1, 2, 30))
        for M in ORDERS:
            ber = qam_ber_awgn(M, gamma)
            assert np.all(np.diff(ber) < 0)

    def test_higher_order_is_worse(self):
        gamma = 10 ** (8 / 10)
        bers = [float(qam_ber_awgn(M, gamma)) for M in ORDERS]
        assert bers == sorted(bers)

    def test_16qam_known_value(self):
        # standard high-SNR approximation (3/4) Q(sqrt(4 gamma / 5)) per bit
        gamma = 10 ** (12 / 10)
        approx = 0.75 * float(qfunc(np.sqrt(0.8 * gamma)))
        assert float(qam_ber_awgn(16, gamma)) == pytest.approx(approx,
                                                              rel=0.01)


class TestMonteCarloOracle:
    @pytest.mark.parametrize("M,ebn0_db", [(4, 2.0), (16, 6.0), (64, 10.0)])
    def test_awgn_injection_matches_closed_form(self, M, ebn0_db):
        # direct constellation-level Monte Carlo, no OFDM chain involved
        rng = np.random.default_rng(1234)
        k = int(np.log2(M))
        n_sym = 120000
        bits = rng.integers(0, 2, size=n_sym * k, dtype=np.uint8)
        tx = qam_modulate(bits, M)
        gamma = 10 ** (ebn0_db / 10)
        sigma = np.sqrt(1.0 / (2 * k * gamma))
        noise = sigma * (rng.standard_normal(n_sym)
                         + 1j * rng.standard_normal(n_sym))
        rx_bits = qam_demodulate(tx + noise, M)
        ber = np.mean(rx_bits != bits)
        expect = float(qam_ber_awgn(M, gamma))
        se = np.sqrt(expect * (1 - expect) / (n_sym * k))
        assert abs(ber - expect) < 4 * se
