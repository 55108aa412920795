"""Two independent R-peak detectors.

The reference detector follows the classic integrate-and-threshold
design: band-pass 5-15 Hz, five-point derivative, squaring, 150 ms
moving-window integration, adaptive dual thresholds on the integrated
and band-passed signals with search-back at 1.66x the recent mean RR,
a 200 ms refractory period, T-wave rejection by slope comparison within
360 ms, and fiducial refinement to the band-passed local maximum within
+-50 ms. As in Pan & Tompkins (IEEE TBME 1985) and Hamilton & Tompkins
(IEEE TBME 1986), the thresholds weigh only integration peaks that
dominate their neighbourhood: a local maximum c of the integrated
signal m is a candidate iff m[c] >= max(m[c-h .. c+h]), h half the
refractory period in samples (13 at 128 Hz). The window is cut at both
ends of the record, and equal values dominate, so both of two equal
maxima within h samples stay candidates.

The test detector is structurally different on purpose: band-pass
0.5-40 Hz, a centered 100 ms moving-RMS envelope, one adaptive
threshold at 0.6x the trailing 2 s envelope maximum, and a 250 ms
refractory period. In the first 2 s the threshold is 0.6x the maximum
over the first 2 s: like the reference detector's learning phase, it
is set by beats, not by the band-pass start transient alone. Its
envelope is the reference detector's trailing mean over the squared
band-pass, each value placed at its window's centre; it ends half a
window before the record does. Disagreement between the two drives the
beat-quality index downstream.

Both detectors run at the native sampling rate with zero-phase
second-order-section filters, are deterministic, and return peak times
in seconds as an RPeakSeries, the type record_io declares beside
EcgRecord and its RR CSV reader returns too. Thresholds adapt to the
signal, and each band-pass output is scaled by the power of two that
brings its peak magnitude into [0.5, 1), so detections are invariant
to positive rescaling of the input: bit for bit for x * 2^k, tested
for k from -1000 to 1000.

Each detector keeps its working set to one or two signal-length arrays,
bit for bit with the full-length forms, a block of kernels._BLOCK
samples at a time. sosfiltfilt writes the odd extension into one buffer
and filters it forward, then backward, in place, with the filter state
carried from block to block. The reference detector squares its
derivative a block at a time into the array that the trailing mean then
overwrites. Every windowed maximum, in the dominance test and for the
band-passed peak and the slope, is one kernels.trailing_max call; the
slopes come from a view of the derivative that computes only the slices
read. Both detectors' sliding means are one _trailing_mean call, worked
out in place.

scipy.signal is imported by signal_filters() alone, on first use:
loading it takes about 1 s and 70 MB, and a cohort of RR series
filters no signal. _bandpass and sosfiltfilt take the filters from it,
so a direct detector or process_patient call pays the import on its
first call. pipeline.read_manifest calls it before it returns a
manifest with a signal row, so a cohort run pays it once, in the
parent process, before any entry starts or the pool forks: forked
workers inherit the module rather than each importing it again.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import ContractViolationError, UnsupportedRateError
from .record_io import EcgRecord, RPeakSeries

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


def _dominant(x: np.ndarray, cand: np.ndarray, h: int) -> np.ndarray:
    # The candidates c, ascending, with x[c] >= max(x[c-h .. c+h]), the
    # window cut at both ends of x; needs x >= 0. Equal values dominate,
    # so both of two tied maxima within h stay.
    return cand[x[cand] >= kernels.trailing_max(x, cand + h, 2 * h + 1)]


def signal_filters():
    """The scipy.signal module, imported on the first call (see the
    module docstring). Python's import lock makes concurrent first
    calls safe: each returns the one module."""
    import scipy.signal
    return scipy.signal


def sosfiltfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.signal.sosfiltfilt(sos, x) of a 1-D x, bit for bit, in one
    buffer.

    The odd extension of x by 3 * ntaps samples at each end goes into
    one buffer. sosfilt runs over it forward, then over its reversed
    view, each pass from the state sosfilt_zi scaled by its first sample
    and a block at a time: the state carries from block to block, and
    each block's output overwrites it in place. sosfilt takes one sample
    through every section before the next, so blocks change no value.
    The result is a view of the buffer.
    """
    n_sections = sos.shape[0]
    ntaps = 2 * n_sections + 1 - min(int(np.sum(sos[:, 2] == 0)),
                                     int(np.sum(sos[:, 5] == 0)))
    edge = 3 * ntaps
    size = x.shape[0]
    if size <= edge:
        raise ValueError(f"the input must be longer than {edge} samples")
    buf = np.empty(size + 2 * edge, np.result_type(sos, x))
    buf[:edge] = 2 * x[0] - x[edge:0:-1]
    buf[edge:-edge] = x
    buf[-edge:] = 2 * x[-1] - x[-2:-edge - 2:-1]
    signal = signal_filters()
    zi = signal.sosfilt_zi(sos)
    for run in (buf, buf[::-1]):
        z = zi * run[0]
        for lo in range(0, run.shape[0], kernels._BLOCK):
            block = run[lo:lo + kernels._BLOCK]
            block[:], z = signal.sosfilt(sos, block, zi=z)
    return buf[edge:-edge]


def _bandpass(x: np.ndarray, fs: float, lo: float,
              hi: float) -> tuple[np.ndarray, float]:
    # The output is scaled in place by the power of two that brings its
    # peak magnitude into [0.5, 1). That is exact, so no detection
    # moves, and the squares and sums after it neither overflow nor
    # underflow at any input scale. Returns the output and its peak
    # magnitude, which is the frexp mantissa.
    sos = signal_filters().butter(2, [lo, hi], btype="bandpass",
                                  output="sos", fs=fs)
    bp = sosfiltfilt(sos, x)
    peak, exp = math.frexp(max(bp.max(), -bp.min()))
    np.ldexp(bp, -exp, out=bp)
    return bp, peak


def _derivative(bp: np.ndarray, fs: float, lo: int, hi: int) -> np.ndarray:
    # Five-point derivative over [lo, hi), centered form of
    # (1/8T)(2dx1 + dx2); zero at the two samples at each end.
    out = np.zeros(hi - lo)
    a, b = max(lo, 2), min(hi, bp.shape[0] - 2)
    if a < b:
        out[a - lo:b - lo] = (fs / 8.0) * (
            2.0 * (bp[a + 1:b + 1] - bp[a - 1:b - 1])
            + (bp[a + 2:b + 2] - bp[a - 2:b - 2]))
    return out


class _DerivativeView:
    # The derivative of bp as one array whose slice [lo:hi] is computed
    # when it is read: kernels.trailing_max takes the slopes from it.
    def __init__(self, bp: np.ndarray, fs: float) -> None:
        self.bp, self.fs, self.shape, self.dtype = bp, fs, bp.shape, bp.dtype

    def __getitem__(self, s: slice) -> np.ndarray:
        return _derivative(self.bp, self.fs, s.start, s.stop)


def _squared_derivative(bp: np.ndarray, fs: float) -> np.ndarray:
    # The squared derivative, a block at a time into one array.
    out = np.empty_like(bp)
    for lo in range(0, bp.shape[0], kernels._BLOCK):
        d = _derivative(bp, fs, lo, min(lo + kernels._BLOCK, bp.shape[0]))
        np.multiply(d, d, out=out[lo:lo + d.shape[0]])
    return out


def _trailing_mean(x: np.ndarray, n: int) -> np.ndarray:
    # Mean over [i-n+1, i], shortened at the start; needs len(x) >= n.
    # Overwrites x with its running sum, then with the means, a block at
    # a time from the end, and returns x.
    csum = np.cumsum(x, out=x)
    for hi in range(x.shape[0], n, -kernels._BLOCK):
        lo = max(hi - kernels._BLOCK, n)
        # the later means are written; csum[lo-n:hi-n] is still whole
        np.subtract(csum[lo:hi], csum[lo - n:hi - n], out=x[lo:hi])
        x[lo:hi] /= n
    x[:n] = csum[:n] / np.arange(1, n + 1)
    return x


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
    if x.max() == x.min():
        return RPeakSeries(times=np.empty(0))

    bp, peak = _bandpass(x, fs, 5.0, 15.0)
    n_mwi = max(_samples_for(MWI_WINDOW_S, fs), 1)
    mwi = _trailing_mean(_squared_derivative(bp, fs), n_mwi)

    # Only the integration peak that dominates its half-refractory
    # neighbourhood is weighed; a ripple maximum beside it is not.
    n_ref = _samples_for(REFRACTORY_REFERENCE_S, fs)
    cand = _dominant(mwi, _local_maxima(mwi), n_ref // 2)

    # Per-candidate context over the trailing integration window: the
    # band-passed peak that produced the integration peak and the
    # steepest local slope (for the T-wave test).
    peaki = mwi[cand]
    peakf = kernels.trailing_max(bp, cand, n_mwi + 1)
    slope = kernels.trailing_max(_DerivativeView(bp, fs), cand, n_mwi + 1)

    n_learn = min(int(round(2.0 * fs)), mwi.shape[0])
    abs_learn = np.abs(bp[:n_learn])
    spki = float(np.max(mwi[:n_learn]))
    npki = 0.5 * float(np.mean(mwi[:n_learn]))
    spkf = float(np.max(abs_learn))
    npkf = 0.5 * float(np.mean(abs_learn))
    floor_i = THRESHOLD_FLOOR_FRACTION * float(np.max(mwi))
    floor_f = THRESHOLD_FLOOR_FRACTION * peak

    n_twave = _samples_for(TWAVE_WINDOW_S, fs)
    accept = kernels.pt_decide(cand, peaki, peakf, slope,
                               spki, npki, spkf, npkf,
                               floor_i, floor_f, n_ref, n_twave)

    acc = cand[accept]
    n_refine = _samples_for(REFINE_WINDOW_S, fs)
    fid = np.unique(_fiducials(bp, acc, n_mwi, n_refine))
    keep = kernels.refractory_pick(fid, np.int64(n_ref))
    times = fid[keep] / fs
    return RPeakSeries(times=times)


def detect_test(record: EcgRecord) -> RPeakSeries:
    """Envelope-threshold test detector (see module docstring)."""
    _check_record(record)
    x = record.samples
    fs = record.fs
    if x.max() == x.min():
        return RPeakSeries(times=np.empty(0))

    bp, _ = _bandpass(x, fs, 0.5, 40.0)
    n_rms = max(_samples_for(RMS_WINDOW_S, fs), 1)
    # bp serves only the envelope, which is worked out in place. A
    # difference of running sums can take a mean over a flat stretch
    # below 0, so the means are clamped at 0 before the square root.
    env = _trailing_mean(np.square(bp, out=bp), n_rms)
    env = np.sqrt(np.maximum(env, 0.0, out=env), out=env)
    # The mean over [j-n_rms+1, j] belongs to its window's centre j-r,
    # r = n_rms-1-n_rms//2: env[r:] is the centred envelope, which ends
    # r samples (half a window) before the record does.
    env = env[n_rms - 1 - n_rms // 2:]

    n_trail = max(_samples_for(TRAIL_WINDOW_S, fs), 1)
    floor = TEST_FLOOR_FRACTION * float(np.max(env))

    cand = _local_maxima(env)
    # env is a square root, so the maximum of |env| is that of env. A
    # candidate in the first n_trail samples is weighed against the
    # maximum over those samples, not over a window cut at sample 0,
    # which there holds only the band-pass start transient.
    threshold = TEST_THRESHOLD_FRACTION * kernels.trailing_max(
        env, np.maximum(cand, n_trail - 1), n_trail)
    cand = cand[env[cand] > np.maximum(threshold, floor)]

    n_ref = _samples_for(REFRACTORY_TEST_S, fs)
    keep = kernels.refractory_pick(cand, np.int64(n_ref))
    times = cand[keep] / fs
    return RPeakSeries(times=times)
