"""Hot numeric kernels with two interchangeable backends.

Five kernels: the detectors' ``pt_decide``, ``trailing_max`` and
``refractory_pick``, and the one-window feature counts
``sampen_pair_counts`` and ``lorenz_hist``. The bSQI beat matching is
not a kernel: ``quality`` matches all of a night's windows in one pass.

Every kernel exists twice: a loop form compiled with numba's ``@njit``
and a vectorized numpy form. The inherently sequential kernels have no
vectorized form: the numpy backend runs their loop form in the
interpreter, ``refractory_pick`` over its array and ``pt_decide`` over
memoryviews of its arrays, which the interpreter indexes several times
faster than the arrays themselves. Both backends compute bit-identical
results; the test suite asserts this. The active backend is picked at
import time:

* numba is used when importable, unless ``AFSCREEN_NUMBA`` is set to
  ``0``/``false``/``no`` in the environment;
* otherwise the numpy implementations are bound.

The window features no longer run through a kernel: ``features``
computes them for many windows at once in numpy. ``sampen_pair_counts``
and ``lorenz_hist`` remain as the one-window forms the tests check
against their brute-force definitions.

``benchmarks/bench_kernels.py`` times the two backends side by side.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.ndimage import maximum_filter1d


def _numba_wanted() -> bool:
    flag = os.environ.get("AFSCREEN_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


# ---------------------------------------------------------------------------
# Loop forms (njit-compatible; also used as-is when numba is unavailable
# for the inherently sequential kernels)
# ---------------------------------------------------------------------------

def _sampen_counts_loop(x, r):
    # Template pairs for m=1: i < j over positions 0..n-2 so the
    # length-2 extension always exists. b counts |x_i - x_j| <= r,
    # a additionally requires |x_{i+1} - x_{j+1}| <= r.
    n = x.shape[0]
    b = 0
    a = 0
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if abs(x[i] - x[j]) <= r:
                b += 1
                if abs(x[i + 1] - x[j + 1]) <= r:
                    a += 1
    return b, a


def _lorenz_hist_loop(dr, width, half_extent, nbins):
    h = np.zeros((nbins, nbins), dtype=np.int64)
    for k in range(dr.shape[0] - 1):
        ix = int(np.floor((dr[k + 1] + half_extent) / width))
        iy = int(np.floor((dr[k] + half_extent) / width))
        if ix < 0:
            ix = 0
        elif ix >= nbins:
            ix = nbins - 1
        if iy < 0:
            iy = 0
        elif iy >= nbins:
            iy = nbins - 1
        h[ix, iy] += 1
    return h


def _trailing_max_loop(x, n):
    # Sliding max over the trailing window [i-n+1, i] via monotonic deque.
    size = x.shape[0]
    out = np.empty(size, x.dtype)
    dq = np.empty(size, np.int64)
    head = 0
    tail = 0
    for i in range(size):
        while tail > head and x[dq[tail - 1]] <= x[i]:
            tail -= 1
        dq[tail] = i
        tail += 1
        if dq[head] <= i - n:
            head += 1
        out[i] = x[dq[head]]
    return out


def _refractory_pick_loop(idx, min_gap):
    n = idx.shape[0]
    keep = np.zeros(n, np.bool_)
    last = -np.int64(2 ** 62)
    for k in range(n):
        if idx[k] - last >= min_gap:
            keep[k] = True
            last = idx[k]
    return keep


def _pt_decide_loop(cand, peaki, peakf, slope,
                    spki, npki, spkf, npkf,
                    floor_i, floor_f,
                    n_refractory, n_twave):
    """Adaptive dual-threshold QRS decision over candidate peaks.

    cand holds candidate sample indices (ascending); peaki/peakf are the
    integrated- and band-passed-signal peak heights at each candidate and
    slope the local maximum absolute derivative. Running signal/noise
    estimates drive both thresholds, clamped below by the floor_* guards
    so a flat stretch cannot collapse them to numeric ripple; a
    search-back pass rescues beats missed during a gap longer than 1.66x
    the recent mean RR, and candidates close to the previous beat with
    under half its slope are rejected as T waves.

    The four per-candidate sequences may be arrays or memoryviews.
    """
    n = len(cand)
    accept = np.zeros(n, np.bool_)
    # The last 8 RR intervals are whole sample counts, so their running
    # sum is exact and equals a fresh sum of the buffer.
    rr_buf = np.zeros(8, np.int64)
    rr_sum = 0
    rr_n = 0
    rr_pos = 0
    # Search-back fires past 1.66x the mean RR; never before an RR exists.
    sb_limit = np.inf
    last_qrs = -2 ** 62
    last_slope = 0.0
    last_acc_k = -1
    for k in range(n):
        c = cand[k]
        thri = npki + 0.25 * (spki - npki)
        if thri < floor_i:
            thri = floor_i
        thrf = npkf + 0.25 * (spkf - npkf)
        if thrf < floor_f:
            thrf = floor_f

        if c - last_qrs > sb_limit:
            best = -1
            best_v = 0.0
            for m in range(last_acc_k + 1, k):
                if accept[m]:
                    continue
                if cand[m] - last_qrs < n_refractory:
                    continue
                if peaki[m] > 0.5 * thri and peakf[m] > 0.5 * thrf:
                    if best < 0 or peaki[m] > best_v:
                        best = m
                        best_v = peaki[m]
            if best >= 0:
                accept[best] = True
                spki = 0.25 * peaki[best] + 0.75 * spki
                spkf = 0.25 * peakf[best] + 0.75 * spkf
                rr = cand[best] - last_qrs
                rr_sum += rr - int(rr_buf[rr_pos])
                rr_buf[rr_pos] = rr
                rr_pos = (rr_pos + 1) % 8
                if rr_n < 8:
                    rr_n += 1
                sb_limit = 1.66 * (rr_sum / rr_n)
                last_qrs = cand[best]
                last_slope = slope[best]
                last_acc_k = best
                thri = npki + 0.25 * (spki - npki)
                if thri < floor_i:
                    thri = floor_i
                thrf = npkf + 0.25 * (spkf - npkf)
                if thrf < floor_f:
                    thrf = floor_f

        if last_acc_k >= 0 and c - last_qrs < n_refractory:
            continue

        if last_acc_k >= 0 and c - last_qrs < n_twave:
            if slope[k] < 0.5 * last_slope:
                npki = 0.125 * peaki[k] + 0.875 * npki
                npkf = 0.125 * peakf[k] + 0.875 * npkf
                continue

        if peaki[k] > thri and peakf[k] > thrf:
            accept[k] = True
            spki = 0.125 * peaki[k] + 0.875 * spki
            spkf = 0.125 * peakf[k] + 0.875 * spkf
            if last_acc_k >= 0:
                rr = c - last_qrs
                rr_sum += rr - int(rr_buf[rr_pos])
                rr_buf[rr_pos] = rr
                rr_pos = (rr_pos + 1) % 8
                if rr_n < 8:
                    rr_n += 1
                sb_limit = 1.66 * (rr_sum / rr_n)
            last_qrs = c
            last_slope = slope[k]
            last_acc_k = k
        else:
            npki = 0.125 * peaki[k] + 0.875 * npki
            npkf = 0.125 * peakf[k] + 0.875 * npkf
    return accept


def _pt_decide_views(cand, peaki, peakf, slope,
                     spki, npki, spkf, npkf,
                     floor_i, floor_f,
                     n_refractory, n_twave):
    # Indexing a memoryview yields a Python int or float, which the
    # interpreter handles several times faster than a numpy scalar;
    # unlike a list copy, a view keeps no Python object per candidate
    # alive. The values, and so every comparison, are the same.
    return _pt_decide_loop(
        memoryview(cand), memoryview(peaki), memoryview(peakf),
        memoryview(slope),
        float(spki), float(npki), float(spkf), float(npkf),
        float(floor_i), float(floor_f),
        int(n_refractory), int(n_twave))


# ---------------------------------------------------------------------------
# Vectorized numpy forms
# ---------------------------------------------------------------------------

def _sampen_counts_numpy(x, r):
    y = x[:-1]
    iu = np.triu_indices(y.shape[0], k=1)
    m1 = np.abs(y[:, None] - y[None, :]) <= r
    m2 = np.abs(x[1:, None] - x[None, 1:]) <= r
    b = int(np.count_nonzero(m1[iu]))
    a = int(np.count_nonzero((m1 & m2)[iu]))
    return b, a


def _lorenz_hist_numpy(dr, width, half_extent, nbins):
    ix = np.floor((dr[1:] + half_extent) / width).astype(np.int64)
    iy = np.floor((dr[:-1] + half_extent) / width).astype(np.int64)
    np.clip(ix, 0, nbins - 1, out=ix)
    np.clip(iy, 0, nbins - 1, out=iy)
    h = np.zeros((nbins, nbins), dtype=np.int64)
    np.add.at(h, (ix, iy), 1)
    return h


def _trailing_max_numpy(x, n):
    # positive origin pulls the window toward earlier samples; (n-1)//2
    # is the largest legal shift and yields the window [i-n+1, i]
    origin = (n - 1) // 2
    return maximum_filter1d(x, size=n, mode="nearest", origin=origin)


NUMPY_IMPL = {
    "sampen_pair_counts": _sampen_counts_numpy,
    "lorenz_hist": _lorenz_hist_numpy,
    "trailing_max": _trailing_max_numpy,
    "refractory_pick": _refractory_pick_loop,
    "pt_decide": _pt_decide_views,
}

NUMBA_IMPL = None
BACKEND = "numpy"

if _numba_wanted():
    try:
        from numba import njit
    except ImportError:
        njit = None
    if njit is not None:
        NUMBA_IMPL = {
            "sampen_pair_counts": njit(cache=True)(_sampen_counts_loop),
            "lorenz_hist": njit(cache=True)(_lorenz_hist_loop),
            "trailing_max": njit(cache=True)(_trailing_max_loop),
            "refractory_pick": njit(cache=True)(_refractory_pick_loop),
            "pt_decide": njit(cache=True)(_pt_decide_loop),
        }
        BACKEND = "numba"

_ACTIVE = NUMBA_IMPL if NUMBA_IMPL is not None else NUMPY_IMPL

sampen_pair_counts = _ACTIVE["sampen_pair_counts"]
lorenz_hist = _ACTIVE["lorenz_hist"]
trailing_max = _ACTIVE["trailing_max"]
refractory_pick = _ACTIVE["refractory_pick"]
pt_decide = _ACTIVE["pt_decide"]
