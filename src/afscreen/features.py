"""Nine-feature summary of 60-beat windows.

The features, in their fixed declared order:

  bsqi   window quality score (carried in from the quality gate)
  cosen  coefficient of sample entropy of the RR series
  afe    AF evidence: ire - orc - 2*pace
  orc    points in the Lorenz-plot bin containing the origin
  ire    nonempty Lorenz-plot bins outside the origin bin
  pace   premature-beat evidence: surplus of nonempty bins in
         quadrants II/IV over I/III, clamped at zero
  avnn   mean RR interval (ms)
  minrr  minimum RR interval (ms)
  medhr  median heart rate (bpm), 60000 / median RR

COSEn is SampEn(m=1, r=30 ms) + ln(2r) - ln(mean rr), with template
pairs counted over ordered pairs i != j and a 0.5 continuity
substitution for zero counts so regular series stay finite.

The Lorenz plot scatters successive RR-difference pairs
(delta rr_i, delta rr_{i-1}) on a uniform 40 ms grid spanning
+-600 ms per axis; out-of-range points clip to the border bins.
59 RR intervals give 58 differences and 57 plot points.

One implementation computes all nine: feature_matrix takes n windows
as an (n, 59) RR matrix plus their bsqi and returns an (n, 9) matrix.
It works through fixed chunks of 32 windows, so its temporaries, the
largest of which are the (32, 58, 58) COSEn comparisons, do not grow
with the recording's length. featurize is the batched entry point of
the pipeline: it gates the windows on bsqi and width, then calls
feature_matrix.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ContractViolationError
from .quality import BSQI_THRESHOLD, WINDOW_BEATS

COSEN_R_MS = 30.0
LORENZ_BIN_MS = 40.0
LORENZ_HALF_EXTENT_MS = 600.0
LORENZ_NBINS = 30
_ORIGIN_BIN = int(LORENZ_HALF_EXTENT_MS // LORENZ_BIN_MS)  # = 15
N_RR = WINDOW_BEATS - 1  # RR intervals in a window
# Windows per pass of feature_matrix: bounds its (k, 58, 58) comparison
# temporaries to about 0.9 MB, whatever the recording length.
_CHUNK = 32

FEATURE_NAMES = ("bsqi", "cosen", "afe", "orc", "ire", "pace",
                 "avnn", "minrr", "medhr")


def feature_order_checksum() -> str:
    """Fingerprint of the declared feature order, stored in model files."""
    return hashlib.sha256(",".join(FEATURE_NAMES).encode()).hexdigest()


def _pair_counts(m: np.ndarray) -> np.ndarray:
    # Ordered pairs i != j per window: all matches minus the diagonal.
    # The diagonal is counted rather than assumed, because |x - x| <= r
    # fails for an infinite x or a negative r.
    return (np.count_nonzero(m, axis=(1, 2))
            - np.count_nonzero(np.diagonal(m, axis1=1, axis2=2), axis=1))


def _cosen_rows(rr: np.ndarray, mean_rr: np.ndarray, r: float) -> list:
    # Template pairs for m=1 sit at positions 0..57, so the length-2
    # extension always exists. |a - b| == |b - a| exactly, so each
    # comparison matrix is symmetric and its ordered-pair count is twice
    # the i < j count.
    y = rr[:, :-1]
    d = y[:, :, None] - y[:, None, :]
    m1 = np.abs(d, out=d) <= r
    np.subtract(rr[:, 1:, None], rr[:, None, 1:], out=d)
    m2 = np.abs(d, out=d) <= r
    m2 &= m1
    out = []
    for b_ord, a_ord, mean in zip(_pair_counts(m1).tolist(),
                                  _pair_counts(m2).tolist(),
                                  mean_rr.tolist()):
        # zero counts take the 0.5 correction; math.log, not np.log, so
        # each value is the scalar formula's to the last bit
        b = float(b_ord) if b_ord > 0 else 0.5
        a = float(a_ord) if a_ord > 0 else 0.5
        sampen = math.log(b) - math.log(a)
        out.append(sampen + math.log(2.0 * r) - math.log(mean))
    return out


def _lorenz_rows(rr: np.ndarray) -> np.ndarray:
    k = rr.shape[0]
    nb = LORENZ_NBINS
    dr = np.diff(rr, axis=1)
    ix = np.floor((dr[:, 1:] + LORENZ_HALF_EXTENT_MS)
                  / LORENZ_BIN_MS).astype(np.int64)
    iy = np.floor((dr[:, :-1] + LORENZ_HALF_EXTENT_MS)
                  / LORENZ_BIN_MS).astype(np.int64)
    np.clip(ix, 0, nb - 1, out=ix)
    np.clip(iy, 0, nb - 1, out=iy)
    key = np.arange(k)[:, None] * (nb * nb) + ix * nb + iy
    hist = np.bincount(key.ravel(), minlength=k * nb * nb).reshape(k, nb, nb)
    o = _ORIGIN_BIN
    orc = hist[:, o, o]
    nonempty = hist > 0
    in_origin = (orc > 0).astype(np.int64)
    ire = np.count_nonzero(nonempty, axis=(1, 2)) - in_origin
    # Quadrants by bin index: bins at index >= o sit on the non-negative
    # side of the axis (the origin bin spans [0, bin_width) on each axis).
    q1 = np.count_nonzero(nonempty[:, o:, o:], axis=(1, 2)) - in_origin
    q2 = np.count_nonzero(nonempty[:, :o, o:], axis=(1, 2))
    q3 = np.count_nonzero(nonempty[:, :o, :o], axis=(1, 2))
    q4 = np.count_nonzero(nonempty[:, o:, :o], axis=(1, 2))
    pace = np.maximum(0, (q2 + q4) - (q1 + q3))
    afe = ire - orc - 2 * pace
    return np.stack([afe, orc, ire, pace], axis=1)


def feature_matrix(rr: np.ndarray, bsqi, r: float = COSEN_R_MS
                   ) -> np.ndarray:
    """The nine features of n windows, one row each in declared order.

    rr is an (n, 59) matrix of RR intervals in ms, bsqi the n windows'
    quality scores; r is COSEn's tolerance in the units of rr. Rows are
    computed 32 windows at a time, so the working memory does not grow
    with n.
    """
    rr = np.ascontiguousarray(rr, dtype=np.float64)
    if rr.ndim != 2 or rr.shape[1] != N_RR:
        raise ContractViolationError(
            f"expected an (n, {N_RR}) RR matrix, got shape {rr.shape}")
    if not np.all(rr > 0):
        raise ContractViolationError("RR intervals must be positive")
    bsqi = np.asarray(bsqi, dtype=np.float64)
    if bsqi.shape != rr.shape[:1]:
        raise ContractViolationError(
            f"expected {rr.shape[0]} bsqi values, got shape {bsqi.shape}")
    out = np.empty((rr.shape[0], len(FEATURE_NAMES)))
    out[:, 0] = bsqi
    for lo in range(0, rr.shape[0], _CHUNK):
        chunk = rr[lo:lo + _CHUNK]
        rows = out[lo:lo + _CHUNK]
        mean_rr = np.mean(chunk, axis=1)
        rows[:, 1] = _cosen_rows(chunk, mean_rr, r)
        rows[:, 2:6] = _lorenz_rows(chunk)
        rows[:, 6] = mean_rr
        rows[:, 7] = np.min(chunk, axis=1)
        # the median of 59 values is the sorted middle
        rows[:, 8] = 60000.0 / np.sort(chunk, axis=1)[:, (N_RR - 1) // 2]
    return out


def featurize(rr: np.ndarray, bsqi, min_bsqi: float = BSQI_THRESHOLD
              ) -> np.ndarray:
    """feature_matrix of quality-gated windows, one row per RR row.

    Every window must pass the bsqi gate and hold 60 beats; the first
    that does not raises.
    """
    bsqi = np.asarray(bsqi, dtype=np.float64)
    if np.shape(rr)[0] == 0 == bsqi.shape[0]:
        # no windows: nothing to gate, whatever their width
        return np.empty((0, len(FEATURE_NAMES)))
    low = bsqi < min_bsqi
    # a window fails on its width before a later one on bsqi
    if low.any() and (low[0] or np.shape(rr)[1:] == (N_RR,)):
        i = int(np.argmax(low))
        raise ContractViolationError(
            f"window {i} has bsqi {bsqi[i]:.3f} below the {min_bsqi} "
            f"gate; featurize only included windows")
    return feature_matrix(rr, bsqi)

