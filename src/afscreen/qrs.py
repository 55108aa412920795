"""Two independent R-peak detectors.

The reference detector follows the classic integrate-and-threshold
design: band-pass 5-15 Hz, five-point derivative, squaring, 150 ms
moving-window integration, adaptive dual thresholds on the integrated
and band-passed signals with search-back at 1.66x the recent mean RR,
a 200 ms refractory period, T-wave rejection by slope comparison within
360 ms, and fiducial refinement to the band-passed local maximum within
+-50 ms.

The test detector is structurally different on purpose: band-pass
0.5-40 Hz, a centered 100 ms moving-RMS envelope, one adaptive
threshold at 0.6x the trailing 2 s envelope maximum, and a 250 ms
refractory period. Disagreement between the two drives the beat-quality
index downstream.

Both detectors run at the native sampling rate with zero-phase
second-order-section filters, are deterministic, and return peak times
in seconds. Thresholds adapt to the signal, so detections are invariant
to positive rescaling of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.ndimage import uniform_filter1d
from scipy.signal import butter, sosfiltfilt

from . import kernels
from .errors import ContractViolationError, UnsupportedRateError

if TYPE_CHECKING:
    from .record_io import EcgRecord

REFERENCE = "reference"
TEST = "test"

REFRACTORY_REFERENCE_S = 0.200
REFRACTORY_TEST_S = 0.250
MWI_WINDOW_S = 0.150
TWAVE_WINDOW_S = 0.360
REFINE_WINDOW_S = 0.050
RMS_WINDOW_S = 0.100
TRAIL_WINDOW_S = 2.0
TEST_THRESHOLD_FRACTION = 0.6
# Adaptive thresholds never drop below this fraction of the global peak;
# guards against flat stretches where running estimates decay to ripple.
THRESHOLD_FLOOR_FRACTION = 1e-3
# The envelope is linear in amplitude (the integrated signal is quadratic),
# so the test detector needs a higher floor: the zero-phase 0.5 Hz highpass
# smears up to ~0.6% of the first beat's envelope across the record start,
# and that tail must stay below the floor or boundary ripple turns into
# detections whose positions depend on how the record was padded.
TEST_FLOOR_FRACTION = 2e-2
MIN_FS_HZ = 100.0
MIN_DURATION_S = 10.0


@dataclass
class RPeakSeries:
    """Strictly increasing R-peak times (seconds) from one detector."""

    times: np.ndarray
    source: str

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1:
            raise ContractViolationError("peak times must be 1-D")
        if self.times.shape[0] > 1 and not np.all(np.diff(self.times) > 0):
            raise ContractViolationError(
                "peak times must be strictly increasing")
        if self.source not in (REFERENCE, TEST):
            raise ContractViolationError(
                f"source must be {REFERENCE!r} or {TEST!r}, "
                f"got {self.source!r}")

    def __len__(self) -> int:
        return self.times.shape[0]


def _check_record(record: EcgRecord) -> None:
    if record.fs < MIN_FS_HZ:
        raise UnsupportedRateError(
            f"sampling rate {record.fs} Hz below the {MIN_FS_HZ:g} Hz "
            f"minimum")
    if record.duration_s < MIN_DURATION_S:
        raise ContractViolationError(
            f"record of {record.duration_s:.3f} s is shorter than the "
            f"{MIN_DURATION_S:g} s minimum")


def _samples_for(duration_s: float, fs: float) -> int:
    # ceil so the spacing in seconds is never below the nominal period
    return int(math.ceil(duration_s * fs - 1e-9))


def _local_maxima(x: np.ndarray) -> np.ndarray:
    # Interior local maxima; the first sample of a plateau wins.
    if x.shape[0] < 3:
        return np.empty(0, dtype=np.int64)
    return (np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])) + 1
            ).astype(np.int64)


def _bandpass(x: np.ndarray, fs: float, lo: float, hi: float) -> np.ndarray:
    sos = butter(2, [lo, hi], btype="bandpass", output="sos", fs=fs)
    return sosfiltfilt(sos, x)


def _trailing_mean(x: np.ndarray, n: int) -> np.ndarray:
    # Mean over [i-n+1, i], shortened at the start; needs len(x) >= n.
    # Overwrites x with its running sum.
    csum = np.cumsum(x, out=x)
    out = np.empty_like(x)
    out[:n] = csum[:n] / np.arange(1, n + 1)
    np.subtract(csum[n:], csum[:-n], out=out[n:])
    out[n:] /= n
    return out


def _fiducials(bp: np.ndarray, beats: np.ndarray, n_mwi: int,
               n_refine: int) -> np.ndarray:
    # For each beat index c: the band-passed maximum over [c-n_mwi, c],
    # then the maximum within +-n_refine of that. Window indices are
    # clipped to the record, which repeats an edge sample but never
    # moves the first of tied maxima to another sample.
    rows = np.arange(beats.shape[0])
    last = bp.shape[0] - 1
    idx = np.clip(beats[:, None] + np.arange(-n_mwi, 1), 0, last)
    prelim = idx[rows, bp[idx].argmax(axis=1)]
    idx = np.clip(prelim[:, None] + np.arange(-n_refine, n_refine + 1),
                  0, last)
    return idx[rows, bp[idx].argmax(axis=1)]


def detect_reference(record: EcgRecord) -> RPeakSeries:
    """Integrate-and-threshold reference detector (see module docstring)."""
    _check_record(record)
    x = record.samples
    fs = record.fs
    if np.ptp(x) == 0:
        return RPeakSeries(times=np.empty(0), source=REFERENCE)

    bp = _bandpass(x, fs, 5.0, 15.0)

    # Five-point derivative, centered form of (1/8T)(2dx1 + dx2).
    deriv = np.zeros_like(bp)
    deriv[2:-2] = (fs / 8.0) * (2.0 * (bp[3:-1] - bp[1:-3])
                                + (bp[4:] - bp[:-4]))

    n_mwi = max(_samples_for(MWI_WINDOW_S, fs), 1)
    mwi = _trailing_mean(deriv * deriv, n_mwi)

    cand = _local_maxima(mwi)
    if cand.shape[0] == 0:
        return RPeakSeries(times=np.empty(0), source=REFERENCE)

    # Per-candidate context over the trailing integration window: the
    # band-passed peak that produced the integration peak and the
    # steepest local slope (for the T-wave test).
    peaki = mwi[cand]
    peakf = kernels.trailing_max(bp, cand, n_mwi + 1)
    slope = kernels.trailing_max(deriv, cand, n_mwi + 1)

    n_learn = min(int(round(2.0 * fs)), mwi.shape[0])
    abs_learn = np.abs(bp[:n_learn])
    spki = float(np.max(mwi[:n_learn]))
    npki = 0.5 * float(np.mean(mwi[:n_learn]))
    spkf = float(np.max(abs_learn))
    npkf = 0.5 * float(np.mean(abs_learn))
    floor_i = THRESHOLD_FLOOR_FRACTION * float(np.max(mwi))
    floor_f = THRESHOLD_FLOOR_FRACTION * float(np.max(np.abs(bp)))

    n_ref = _samples_for(REFRACTORY_REFERENCE_S, fs)
    n_twave = _samples_for(TWAVE_WINDOW_S, fs)
    accept = kernels.pt_decide(cand, peaki, peakf, slope,
                               spki, npki, spkf, npkf,
                               floor_i, floor_f, n_ref, n_twave)

    acc = cand[accept]
    if acc.shape[0] == 0:
        return RPeakSeries(times=np.empty(0), source=REFERENCE)
    n_refine = _samples_for(REFINE_WINDOW_S, fs)
    fid = np.unique(_fiducials(bp, acc, n_mwi, n_refine))
    keep = kernels.refractory_pick(fid, np.int64(n_ref))
    times = fid[keep] / fs
    return RPeakSeries(times=times, source=REFERENCE)


def detect_test(record: EcgRecord) -> RPeakSeries:
    """Envelope-threshold test detector (see module docstring)."""
    _check_record(record)
    x = record.samples
    fs = record.fs
    if np.ptp(x) == 0:
        return RPeakSeries(times=np.empty(0), source=TEST)

    bp = _bandpass(x, fs, 0.5, 40.0)
    n_rms = max(_samples_for(RMS_WINDOW_S, fs), 1)
    # bp serves only the envelope, which is worked out in place
    env = uniform_filter1d(np.square(bp, out=bp), n_rms, mode="nearest")
    np.sqrt(env, out=env)

    n_trail = max(_samples_for(TRAIL_WINDOW_S, fs), 1)
    floor = TEST_FLOOR_FRACTION * float(np.max(env))

    cand = _local_maxima(env)
    # env is a square root, so the maximum of |env| is that of env
    threshold = (TEST_THRESHOLD_FRACTION
                 * kernels.trailing_max(env, cand, n_trail))
    cand = cand[env[cand] > np.maximum(threshold, floor)]
    if cand.shape[0] == 0:
        return RPeakSeries(times=np.empty(0), source=TEST)

    n_ref = _samples_for(REFRACTORY_TEST_S, fs)
    keep = kernels.refractory_pick(cand, np.int64(n_ref))
    times = cand[keep] / fs
    return RPeakSeries(times=times, source=TEST)
