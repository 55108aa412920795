"""Beat-agreement quality index and recording exclusion rules.

A window's quality is the agreement between the two detectors over its
time span: greedy one-to-one matching within +-150 ms, scored as

    bsqi = n_matched / (n_reference + n_test - n_matched)

Windows tile the reference peak series in runs of exactly 60 beats (a
trailing remainder is dropped): window_partition returns them as an
(n, 60) view of the peak times, one row per window. A window's test
segment is every test peak within its span, ends included. Windows are
disjoint in both peak sets, so window_bsqi matches all of them in one
pass: every candidate pair (reference beat, test peak of the same
window within the tolerance) is taken closest first, ties by the pair's
time sum, and each window gets the count its own matching would give.
A window is included iff bsqi >= 0.8.

A recording is excluded when it has fewer than 1,000 reference peaks,
or when more than 75% of its windows fall below the bsqi threshold
(strict inequality: exactly 75% excluded is still accepted).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .qrs import RPeakSeries

BSQI_THRESHOLD = 0.8
MATCH_TOLERANCE_S = 0.150
WINDOW_BEATS = 60
MIN_REFERENCE_PEAKS = 1000
MAX_EXCLUSION_RATE = 0.75

ACCEPTED = "accepted"
TOO_FEW_PEAKS = "too_few_peaks"
TOO_NOISY = "too_noisy"


@dataclass
class RecordingQC:
    n_peaks_reference: int
    exclusion_rate: float
    status: str

    def __post_init__(self) -> None:
        if self.status not in (ACCEPTED, TOO_FEW_PEAKS, TOO_NOISY):
            raise ContractViolationError(
                f"unknown QC status {self.status!r}")


def _matched(ref: np.ndarray, test: np.ndarray, lo: np.ndarray,
             hi: np.ndarray, tolerance_s: float) -> np.ndarray:
    """Greedy match count of each row of ref against test[lo:hi].

    The rows' segments must not overlap. Candidate pairs are taken
    closest first, ties by the smaller time sum, then by reference and
    test index; the sum key makes the order invariant under swapping
    the two series.
    """
    n, k = ref.shape
    a = ref.ravel()
    window = np.repeat(np.arange(n), k)
    c_lo = np.maximum(np.searchsorted(test, a - tolerance_s, side="left"),
                      lo[window])
    c_hi = np.minimum(np.searchsorted(test, a + tolerance_s, side="right"),
                      hi[window])
    counts = np.maximum(c_hi - c_lo, 0)
    # beat i's candidates are the consecutive test[c_lo[i]:c_hi[i]]
    ci = np.repeat(np.arange(a.shape[0]), counts)
    cj = np.arange(ci.shape[0]) - np.repeat(np.cumsum(counts) - counts
                                            - c_lo, counts)
    order = np.lexsort((a[ci] + test[cj], np.abs(a[ci] - test[cj])))
    ref_used = bytearray(a.shape[0])
    test_used = bytearray(test.shape[0])
    for i, j in zip(ci[order].tolist(), cj[order].tolist()):
        if not ref_used[i] and not test_used[j]:
            ref_used[i] = test_used[j] = 1
    return np.frombuffer(ref_used, dtype=np.uint8).reshape(n, k).sum(
        axis=1, dtype=np.int64)


def window_partition(peaks: RPeakSeries) -> np.ndarray:
    """Tile the reference peaks into consecutive 60-beat windows.

    Returns an (n, 60) view of the peak times, one row per window.
    """
    n_beats = peaks.times.shape[0] // WINDOW_BEATS * WINDOW_BEATS
    return peaks.times[:n_beats].reshape(-1, WINDOW_BEATS)


def window_bsqi(windows: np.ndarray, test_peaks: RPeakSeries,
                tolerance_s: float = MATCH_TOLERANCE_S) -> np.ndarray:
    """Each window's bsqi against the test peaks within its span."""
    test = test_peaks.times
    lo = np.searchsorted(test, windows[:, 0], side="left")
    hi = np.searchsorted(test, windows[:, -1], side="right")
    matched = _matched(windows, test, lo, hi, tolerance_s)
    return matched / (windows.shape[1] + (hi - lo) - matched)


def qc_recording(peaks: RPeakSeries, included: np.ndarray,
                 min_peaks: int = MIN_REFERENCE_PEAKS,
                 max_exclusion_rate: float = MAX_EXCLUSION_RATE,
                 ) -> RecordingQC:
    """Apply the two recording-level rules, peak count first.

    included holds one verdict per window.
    """
    n_peaks = len(peaks)
    total = len(included)
    excluded = total - int(np.count_nonzero(included))
    rate = excluded / total if total else 0.0
    if n_peaks < min_peaks:
        status = TOO_FEW_PEAKS
    elif rate > max_exclusion_rate:
        status = TOO_NOISY
    else:
        status = ACCEPTED
    return RecordingQC(n_peaks_reference=n_peaks, exclusion_rate=rate,
                       status=status)
