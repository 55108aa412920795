"""Two independent R-peak detectors.

The reference detector follows the classic integrate-and-threshold
design: band-pass 5-15 Hz, five-point derivative, squaring, 150 ms
moving-window integration, adaptive dual thresholds on the integrated
and band-passed signals with search-back at 1.66x the mean of the last
eight RR intervals, a 200 ms refractory period, T-wave rejection by
slope comparison within 360 ms, and fiducial refinement to the
band-passed local maximum within +-50 ms. As in Pan & Tompkins
(IEEE TBME 1985) and Hamilton & Tompkins (IEEE TBME 1986), the
thresholds weigh only integration peaks that dominate their
neighbourhood: a local maximum c of the integrated signal m is a
candidate iff m[c] >= max(m[c-h .. c+h]), h half the refractory period
in samples (13 at 128 Hz). The window is cut at both ends of the
record, and equal values dominate, so both of two equal maxima within
h samples stay candidates.

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

Each detector keeps one signal-length array, its band-pass, and
otherwise works a block of kernels._BLOCK samples at a time, bit for bit
with the full-length forms. sosfiltfilt writes the odd extension into
one buffer and filters it forward, then backward, in place, with the
filter state carried from block to block. The reference detector never
holds its integrated signal whole: _integrate sweeps forward over the
band-pass through the derivative and its square, and keeps only the
candidates with their heights, slopes and band-passed peaks, the
maximum and the first 2 s. Both detectors' trailing means come from
one step, _carried_mean: a running sum continued over one block,
carried from block to block, and that block's means. The test
detector's means overwrite its squared band-pass. Each block picks the
local maxima in the range it decides. Every windowed maximum, in the
dominance test and for the band-passed peak and the slope, is a
kernels.trailing_max call over one block of candidates. The fiducials
of all accepted beats are refined in one pass.

scipy.signal is not imported. _butter_bandpass designs each band-pass
in numpy, bit for bit with scipy.signal.butter, and sosfiltfilt runs
scipy's compiled sosfilt loop, the private scipy.signal._sosfilt._sosfilt,
which _sosfilt_kernel loads from its extension file on the first
filter. Importing scipy.signal takes about 0.5 s and 70 MB per process;
loading the loop alone takes about 6 ms and 0.5 MB. A cohort of RR
series never loads it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading

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


def _local_maxima(x: np.ndarray, lo: int = 0, hi: int | None = None
                  ) -> np.ndarray:
    # Interior local maxima in [lo, hi), all of x by default, read from
    # x[lo-1 .. hi]; the first sample of a plateau wins.
    lo = max(lo, 1)
    hi = x.shape[0] - 1 if hi is None else min(hi, x.shape[0] - 1)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    c = x[lo:hi]
    return (np.flatnonzero((c > x[lo - 1:hi - 1]) & (c >= x[lo + 1:hi + 1]))
            + lo).astype(np.int64)


def _dominant(x: np.ndarray, cand: np.ndarray, h: int) -> np.ndarray:
    # The candidates c, ascending, with x[c] >= max(x[c-h .. c+h]), the
    # window cut at both ends of x; needs x >= 0. Equal values dominate,
    # so both of two tied maxima within h stay.
    return cand[x[cand] >= kernels.trailing_max(x, cand + h, 2 * h + 1)]


def _butter_bandpass(fs: float, lo: float, hi: float) -> np.ndarray:
    """scipy.signal.butter(2, [lo, hi], btype="bandpass", output="sos",
    fs=fs), bit for bit, for 0 < lo < hi < fs / 2: scipy's steps, each
    the numpy expression scipy evaluates, kept to this one shape. The
    band edges are pre-warped; lp2bp_zpk makes four poles in two
    conjugate pairs and bilinear_zpk two zeros at +1 and two at -1. Of
    the upper poles, sorted as _cplxreal sorts them, zpk2sos puts the one
    nearest the unit circle, with the zero pair nearest it, in the second
    section, and the other, with the other pair and the gain, first.
    """
    warped = 4.0 * np.tan(np.pi * (np.array([lo, hi]) / (fs / 2)) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    p = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4) * bw / 2
    root = np.sqrt(p**2 - wo**2)
    p = np.concatenate((p + root, p - root))
    gain = bw**2 * (16.0 / np.prod(4.0 - p)).real
    p = (4.0 + p) / (4.0 - p)
    up = np.sort_complex(p[p.imag > 0])
    worst = int(np.argmin(np.abs(1 - np.abs(up))))
    zero = -1.0 if abs(-1.0 - up[worst]) <= abs(1.0 - up[worst]) else 1.0
    sos = np.zeros((2, 6))
    for row, pole, z in ((1, up[worst], zero), (0, up[1 - worst], -zero)):
        sos[row] = [1.0, -2.0 * z, 1.0, *np.poly([pole, pole.conj()])]
    sos[0, :3] *= gain
    return sos


def _sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    # scipy.signal.sosfilt_zi(sos) for sections with a0 == 1, bit for bit:
    # each section's lfilter_zi, (I - A^T)^-1 (b[1:] - a[1:] b[0]) with A
    # the companion matrix of a, times the DC gain of the sections before
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for s, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        zi[s] = scale * np.linalg.solve([[1.0 + a[1], -1.0], [a[2], 1.0]],
                                        b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


_kernel = None
_kernel_lock = threading.Lock()


def _kernel_spec():
    # scipy/signal/_sosfilt*.so, found without importing scipy.signal;
    # None where there is no such file
    scipy = importlib.util.find_spec("scipy")
    return scipy and importlib.machinery.PathFinder.find_spec(
        "scipy.signal._sosfilt",
        [os.path.join(p, "signal") for p in scipy.submodule_search_locations])


def _sosfilt_kernel():
    """scipy's private scipy.signal._sosfilt._sosfilt(sos, x, zi), checked
    with scipy 1.17.1 only: it filters the C-contiguous rows of x in
    place from the states zi and leaves the final states in zi. Loaded on
    the first call, under a lock, as two threads that load the extension
    at once can see it half made: from sys.modules if it is there, else
    from its file, else by importing scipy.signal."""
    global _kernel
    with _kernel_lock:
        if _kernel is None:
            module = sys.modules.get("scipy.signal._sosfilt")
            spec = None if module else _kernel_spec()
            if spec:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            elif module is None:
                module = importlib.import_module("scipy.signal._sosfilt")
            _kernel = module._sosfilt
    return _kernel


def sosfiltfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.signal.sosfiltfilt(sos, x) of a 1-D x, bit for bit, in one
    buffer, for sections with a0 == 1.

    The odd extension of x by 3 * ntaps samples at each end goes into
    one buffer. The sosfilt kernel runs over it forward, then over its
    reversed view, each pass from the state sosfilt_zi scaled by its
    first sample and a block at a time: the state carries from block to
    block, and each block's output overwrites it in place (through a
    scratch row on the reversed pass: the kernel takes C-contiguous rows).
    It takes one sample through every section before the next, so blocks
    change no value. The result is a view of the buffer.
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
    kernel = _sosfilt_kernel()
    zi = _sosfilt_zi(sos)
    sos = np.ascontiguousarray(sos, buf.dtype)
    scratch = np.empty((1, kernels._BLOCK), buf.dtype)
    for run in (buf, buf[::-1]):
        z = (zi * run[0])[None]
        for lo in range(0, run.shape[0], kernels._BLOCK):
            block = run[lo:lo + kernels._BLOCK]
            rows = block[None] if run is buf else scratch[:, :block.size]
            rows[0] = block  # a no-op on the forward pass
            kernel(sos, rows, z)
            block[:] = rows[0]
    return buf[edge:-edge]


def _bandpass(x: np.ndarray, fs: float, lo: float,
              hi: float) -> tuple[np.ndarray, float]:
    # The output is scaled in place by the power of two that brings its
    # peak magnitude into [0.5, 1). That is exact, so no detection
    # moves, and the squares and sums after it neither overflow nor
    # underflow at any input scale. Returns the output and its peak
    # magnitude, which is the frexp mantissa.
    bp = sosfiltfilt(_butter_bandpass(fs, lo, hi), x)
    peak, exp = math.frexp(max(bp.max(), -bp.min()))
    np.ldexp(bp, -exp, out=bp)
    return bp, peak


def _derivative(bp: np.ndarray, fs: float, lo: int, out: np.ndarray,
                tmp: np.ndarray) -> None:
    # Five-point derivative over [lo, lo + len(out)) into out, centered
    # form of (1/8T)(2dx1 + dx2); zero at the two samples at each end.
    # tmp is scratch of out's length.
    a = max(lo, 2)
    b = max(min(lo + out.shape[0], bp.shape[0] - 2), a)
    out[:a - lo] = 0.0
    out[b - lo:] = 0.0
    d, t = out[a - lo:b - lo], tmp[:b - a]
    np.subtract(bp[a + 1:b + 1], bp[a - 1:b - 1], out=d)
    np.multiply(2.0, d, out=d)
    np.subtract(bp[a + 2:b + 2], bp[a - 2:b - 2], out=t)
    np.add(d, t, out=d)
    np.multiply(fs / 8.0, d, out=d)


def _carried_mean(cs: np.ndarray, lo: int, n: int, out: np.ndarray) -> None:
    # The means over [i-n+1, i], shortened at the start, for the block
    # of samples i in [lo, lo + len(out)), into out. cs holds n + k
    # values: the running sums S through samples lo-n .. lo-1, 0 before
    # sample 0, then the block's k samples. The sum goes on over the
    # block in place, from the carried total; cumsum adds in sequence,
    # so S is the whole-record running sum bit for bit. Each mean is
    # (S[i] - S[i-n]) / min(i + 1, n), and the last n sums then move to
    # the front of cs for the next block.
    k = out.shape[0]
    run = cs[n - 1:n + k]
    np.cumsum(run, out=run)
    np.subtract(cs[n:n + k], cs[:k], out=out)
    short = min(max(n - lo, 0), k)
    out[:short] /= np.arange(lo + 1, lo + short + 1)
    out[short:] /= n
    cs[:n] = cs[k:k + n]


def _integrate(bp: np.ndarray, fs: float, n_mwi: int, h: int,
               n_learn: int):
    """The integrated signal's candidates, in one forward sweep over bp.

    mwi is the trailing mean over n_mwi samples of the squared
    derivative of bp, shortened at the start. Returns (cand, mwi[cand],
    slope, peakf, max(mwi), mwi[:n_learn]): cand the dominant local
    maxima of mwi, _dominant(mwi, _local_maxima(mwi), h), and slope[k]
    and peakf[k] the maximum |derivative| and |bp| over
    [cand[k] - n_mwi, cand[k]], the window cut at sample 0. mwi is never
    held whole.

    The sweep takes kernels._BLOCK samples at a time through the
    derivative, its square and _carried_mean. A candidate is decided
    once the max(h, 1) samples after it are in; the last block decides
    the rest. The derivative and the means are kept from
    max(h, 1, n_mwi) samples before the first undecided one, so every
    window that _local_maxima, _dominant, the slopes and the band-passed
    peaks read there is whole or cut where the record is. Buffers are
    allocated once per call.
    """
    size = bp.shape[0]
    block = kernels._BLOCK
    look = max(h, 1)
    back = max(look, n_mwi)
    # The rows of work hold the derivative and the means over [w_lo, hi);
    # cs is _carried_mean's, the block's squares after the carried sums.
    work = np.empty((2, back + look + block))
    deriv, means = work
    cs = np.zeros(n_mwi + block)
    learn = np.empty(n_learn)
    cands, peaks, slopes, peakfs = [], [], [], []
    top = -np.inf
    dec = w_lo = 0
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        d = deriv[lo - w_lo:hi - w_lo]
        sq = cs[n_mwi:n_mwi + hi - lo]
        _derivative(bp, fs, lo, d, sq)
        np.multiply(d, d, out=sq)
        m = means[lo - w_lo:hi - w_lo]
        _carried_mean(cs, lo, n_mwi, m)
        if lo < n_learn:
            learn[lo:min(hi, n_learn)] = m[:min(hi, n_learn) - lo]
        top = max(top, float(m.max()))

        end = size if hi == size else max(hi - look, dec)
        x = means[:hi - w_lo]
        cand = _dominant(x, _local_maxima(x, dec - w_lo, end - w_lo), h)
        peaks.append(x[cand])
        slopes.append(kernels.trailing_max(deriv[:hi - w_lo], cand,
                                           n_mwi + 1))
        peakfs.append(kernels.trailing_max(bp[w_lo:hi], cand, n_mwi + 1))
        cands.append(cand + w_lo)

        # the halo for the next block
        dec = end
        keep = max(dec - back, 0)
        work[:, :hi - keep] = work[:, keep - w_lo:hi - w_lo]
        w_lo = keep
    return (np.concatenate(cands), np.concatenate(peaks),
            np.concatenate(slopes), np.concatenate(peakfs), top, learn)


def _trailing_mean(x: np.ndarray, n: int) -> np.ndarray:
    # Mean over [i-n+1, i], shortened at the start: _carried_mean a
    # block at a time, written over x, which is returned.
    cs = np.zeros(n + kernels._BLOCK)
    for lo in range(0, x.shape[0], kernels._BLOCK):
        block = x[lo:lo + kernels._BLOCK]
        cs[n:n + block.shape[0]] = block
        _carried_mean(cs, lo, n, block)
    return x


def _fiducials(bp: np.ndarray, beats: np.ndarray, n_mwi: int,
               n_refine: int) -> np.ndarray:
    # For each beat index c: the band-passed maximum over [c-n_mwi, c],
    # then the maximum within +-n_refine of that, every beat in one
    # pass. Window indices are clipped to the record, which repeats an
    # edge sample but never moves the first of tied maxima to another
    # sample.
    rows = np.arange(beats.shape[0])

    def first_max(c, lo, hi):
        idx = c[:, None] + np.arange(lo, hi + 1)
        np.clip(idx, 0, bp.shape[0] - 1, out=idx)
        return idx[rows, bp[idx].argmax(axis=1)]

    return first_max(first_max(beats, -n_mwi, 0), -n_refine, n_refine)


def detect_reference(record: EcgRecord) -> RPeakSeries:
    """Integrate-and-threshold reference detector (see module docstring)."""
    _check_record(record)
    x = record.samples
    fs = record.fs
    if x.max() == x.min():
        return RPeakSeries(times=np.empty(0))

    bp, peak = _bandpass(x, fs, 5.0, 15.0)
    n_mwi = max(_samples_for(MWI_WINDOW_S, fs), 1)
    n_ref = _samples_for(REFRACTORY_REFERENCE_S, fs)
    n_learn = min(int(round(2.0 * fs)), bp.shape[0])
    # Only the integration peak that dominates its half-refractory
    # neighbourhood is weighed; a ripple maximum beside it is not. Each
    # candidate carries the steepest local slope (for the T-wave test)
    # and the band-passed peak that produced it, both over the trailing
    # integration window.
    cand, peaki, slope, peakf, top, mwi_learn = _integrate(
        bp, fs, n_mwi, n_ref // 2, n_learn)

    abs_learn = np.abs(bp[:n_learn])
    spki = float(np.max(mwi_learn))
    npki = 0.5 * float(np.mean(mwi_learn))
    spkf = float(np.max(abs_learn))
    npkf = 0.5 * float(np.mean(abs_learn))
    floor_i = THRESHOLD_FLOOR_FRACTION * top
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

    # env is a square root, so the maximum of |env| is that of env. A
    # candidate in the first n_trail samples is weighed against the
    # maximum over those samples, not over a window cut at sample 0,
    # which there holds only the band-pass start transient. The local
    # maxima are picked and weighed a block at a time.
    kept = []
    for lo in range(0, env.shape[0], kernels._BLOCK):
        cand = _local_maxima(env, lo, lo + kernels._BLOCK)
        threshold = TEST_THRESHOLD_FRACTION * kernels.trailing_max(
            env, np.maximum(cand, n_trail - 1), n_trail)
        kept.append(cand[env[cand] > np.maximum(threshold, floor)])
    cand = np.concatenate(kept)

    n_ref = _samples_for(REFRACTORY_TEST_S, fs)
    keep = kernels.refractory_pick(cand, np.int64(n_ref))
    times = cand[keep] / fs
    return RPeakSeries(times=times)
