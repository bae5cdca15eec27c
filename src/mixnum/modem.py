"""Gray-mapped square QAM and the per-point analytic bit-error kernel.

Mapping convention (fixed so every numeric example is reproducible):
per-dimension PAM levels are {+-1, +-3, ...} scaled to unit average symbol
energy; level index 0 is the most positive level and level j carries the
binary-reflected Gray code of j, so the all-zero label sits at (+1+1j)/sqrt(2)
for QPSK. A symbol's bits are the I-dimension bits (MSB first) followed by
the Q-dimension bits. Ties at a decision boundary decode toward the lower
(more negative) level.

The kernel has two halves. bit_error_tables does the work that does not
depend on the noise once per received burst: the sent levels and the
signed threshold distances. bit_error_probabilities then does only the
per-sigma work at each Eb/N0 point, a chunk of points at a time: divide,
erfc and a row sum weighted by the sent levels' weight rows. Only this
half imports scipy.special, on its first call and not with this module:
that import takes longer than the rest of the command line's start-up,
and psd and Monte Carlo runs never call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ModemError(ValueError):
    pass


def _gray(j):
    return j ^ (j >> 1)


@dataclass(frozen=True)
class ConstellationMap:
    """Square M-QAM constellation with Gray bit labels."""

    order: int
    points: np.ndarray        # (M,) complex, indexed by integer label
    # per-dimension helpers (ascending level order)
    thresholds: np.ndarray    # (sqrt M - 1,) decision boundaries, ascending
    level_bits: np.ndarray    # (sqrt M, log2 sqrt M): bits of the ascending levels
    # bit-error kernel tables, (sqrt M, sqrt M - 1) indexed [sent level,
    # threshold]: +1 for thresholds above the sent level, -1 below, and the
    # step in Gray Hamming distance from the sent level on crossing the
    # threshold away from it (+1 or -1)
    tail_sign: np.ndarray
    tail_weight: np.ndarray

    @property
    def bits_per_symbol(self):
        return int(np.log2(self.order))


@lru_cache(maxsize=None)
def constellation(M: int) -> ConstellationMap:
    m = int(np.sqrt(M))
    kd = int(np.log2(m))
    alpha = np.sqrt(3.0 / (2.0 * (M - 1)))
    # ascending levels; descending index j (0 -> most positive) carries gray(j)
    levels = alpha * (2.0 * np.arange(m) - (m - 1))
    gray_desc = np.array([_gray(j) for j in range(m)])
    level_gray_asc = gray_desc[::-1]           # gray value of ascending level i
    level_bits = ((level_gray_asc[:, None] >> np.arange(kd - 1, -1, -1)) & 1)
    # coordinate of each gray value
    coord_of_gray = np.empty(m)
    coord_of_gray[level_gray_asc] = levels
    lab = np.arange(M)
    i_gray = lab >> kd
    q_gray = lab & (m - 1)
    points = coord_of_gray[i_gray] + 1j * coord_of_gray[q_gray]
    thresholds = 0.5 * (levels[:-1] + levels[1:])
    hamming = np.sum(level_bits[:, None, :] != level_bits[None, :, :], axis=2)
    tail_sign = np.where(np.arange(m - 1)[None, :] >= np.arange(m)[:, None],
                         1.0, -1.0)
    tail_weight = tail_sign * (hamming[:, 1:] - hamming[:, :-1])
    return ConstellationMap(order=M, points=points, thresholds=thresholds,
                            level_bits=level_bits.astype(np.uint8),
                            tail_sign=tail_sign, tail_weight=tail_weight)


def bits_to_symbols(bits, M: int) -> np.ndarray:
    """Pack bits (MSB first) into integer labels."""
    b = np.asarray(bits, dtype=np.uint8)
    k = int(np.log2(M))
    groups = b.reshape(-1, k)
    weights = 1 << np.arange(k - 1, -1, -1)
    return groups @ weights


def qam_modulate(bits, M: int) -> np.ndarray:
    """Map a bit sequence to unit-average-energy Gray QAM symbols."""
    cm = constellation(M)
    return cm.points[bits_to_symbols(bits, M)]


def _decide_levels(coords, cm):
    # side='left' counts thresholds strictly below, so a coordinate exactly
    # on a boundary decodes to the lower level
    return np.searchsorted(cm.thresholds, coords, side="left")


def qam_demodulate(points, M: int) -> np.ndarray:
    """Hard minimum-distance demapping to bits."""
    cm = constellation(M)
    pts = np.asarray(points, dtype=np.complex128)
    i_idx = _decide_levels(pts.real, cm)
    q_idx = _decide_levels(pts.imag, cm)
    bits = np.concatenate(
        [cm.level_bits[i_idx], cm.level_bits[q_idx]], axis=1)
    return bits.reshape(-1).astype(np.uint8)


# points that bit_error_probabilities (and the tables' build) take at a
# time: its temporaries stay a few MB, whatever the number of points
_KERNEL_CHUNK = 1 << 14


def bit_error_tables(rx_points, tx_points, M):
    """The sigma-free half of the bit-error kernel: for each noiseless
    demapper input in rx_points, sent as the point in tx_points, the signed
    threshold distances S[t, j]*(theta_j - x), (2, n, sqrt M - 1) float64,
    and the sent levels t, (2, n) uint8, each with the I rows above the Q
    rows, read-only.

    The Gray Hamming distance from the sent level t changes by E[t, j] =
    +-1 at threshold j, so the expected distance is the sum over
    thresholds of that step times the probability of crossing the
    threshold on the side away from the sent level: one Gaussian tail
    each, never a difference of tails, so small probabilities keep their
    relative accuracy. The weights E[t, j] are gathered from the sent
    levels where they are used, so the tables keep 1 byte a dimension for
    them.
    """
    cm = constellation(M)
    rx = np.asarray(rx_points, dtype=np.complex128)
    tx = np.asarray(tx_points, dtype=np.complex128)
    sent = _decide_levels(np.stack([tx.real, tx.imag]), cm).astype(np.uint8)
    distances = cm.thresholds - np.stack([rx.real, rx.imag])[..., None]
    for a in range(0, len(rx), _KERNEL_CHUNK):
        part = slice(a, a + _KERNEL_CHUNK)
        distances[:, part] *= cm.tail_sign[sent[:, part]]
    tables = (distances, sent)
    for table in tables:
        table.flags.writeable = False
    return tables


def bit_error_probabilities(tables, M, sigma_per_dim):
    """Per-point probability that AWGN of the given per-dimension std
    (scalar or one per point) flips each Gray bit, averaged over the
    symbol's bits: the per-sigma half of the kernel, on the tables
    bit_error_tables gives for the same M, _KERNEL_CHUNK points at a time.
    """
    from scipy.special import erfc
    cm = constellation(M)
    distances, sent = tables
    sigma = np.asarray(sigma_per_dim, dtype=np.float64)
    if not np.all(sigma > 0):
        raise ModemError("sigma must be positive")
    n = distances.shape[1]
    scale = np.sqrt(2.0) * np.broadcast_to(sigma, (n,))
    p = np.empty(n)
    for a in range(0, n, _KERNEL_CHUNK):
        part = slice(a, a + _KERNEL_CHUNK)
        z = distances[:, part] / scale[part, None]
        errs = 0.5 * np.einsum("dnj,dnj->dn", cm.tail_weight[sent[:, part]],
                               erfc(z, out=z))
        p[part] = (errs[0] + errs[1]) / cm.bits_per_symbol
    return p
