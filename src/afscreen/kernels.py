"""The detectors' numeric kernels, each written once.

* ``pt_decide``: the reference detector's adaptive dual-threshold
  decision over its candidate peaks, a loop over memoryviews of the
  candidate arrays.
* ``refractory_pick``: the refractory thinning both detectors apply.
* ``trailing_max``: the test detector's trailing-window maximum.

The window features are not kernels: ``features`` and ``quality``
compute them for all of a night's windows at once.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import maximum_filter1d

BACKEND = "numpy"


def trailing_max(x, n):
    """max(x[i-n+1 .. i]) for every i, the window cut at the start."""
    # positive origin pulls the window toward earlier samples; (n-1)//2
    # is the largest legal shift and yields the window [i-n+1, i]
    origin = (n - 1) // 2
    return maximum_filter1d(x, size=n, mode="nearest", origin=origin)


def refractory_pick(idx, min_gap):
    """Keep-mask over ascending indices: each kept index lies at least
    min_gap after the previous kept one."""
    n = idx.shape[0]
    keep = np.zeros(n, np.bool_)
    last = -np.int64(2 ** 62)
    for k in range(n):
        if idx[k] - last >= min_gap:
            keep[k] = True
            last = idx[k]
    return keep


def pt_decide(cand, peaki, peakf, slope,
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
    under half its slope are rejected as T waves. Returns the boolean
    accept-mask over the candidates.
    """
    # Indexing a memoryview yields a Python int or float, which the
    # interpreter handles several times faster than a numpy scalar;
    # unlike a list copy, a view keeps no Python object per candidate
    # alive. The values, and so every comparison, are the same.
    cand, peaki, peakf, slope = (memoryview(cand), memoryview(peaki),
                                 memoryview(peakf), memoryview(slope))
    spki, npki, spkf, npkf = float(spki), float(npki), float(spkf), float(npkf)
    floor_i, floor_f = float(floor_i), float(floor_f)
    n_refractory, n_twave = int(n_refractory), int(n_twave)
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
