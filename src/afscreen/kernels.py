"""The detectors' numeric kernels, each written once.

* ``pt_decide``: the reference detector's adaptive dual-threshold
  decision over its candidate peaks, a loop over memoryviews of the
  candidate arrays.
* ``refractory_pick``: the refractory thinning both detectors apply.
* ``trailing_max``: windowed maxima of |x| read at given indices only,
  the window cut at both ends: the reference detector's dominance test
  over its integration peaks, its band-passed peak and slope, and the
  test detector's threshold. It works over the span of the given
  indices; each caller passes one block of them.

The window features are not kernels: ``features`` and ``quality``
compute them for all of a night's windows at once.
"""

from __future__ import annotations

import collections

import numpy as np

BACKEND = "numpy"

# Samples per block of the filter, the trailing means and the
# candidate picks in qrs, which read it at call time; each block's
# trailing_max calls work over about this many samples. Two detector
# threads contend for the GIL between blocks: on an 8 h night at
# 128 Hz, the threaded pair took 0.16 s at 2^15 and 0.14 s at 2^16, for
# about 1 MB more working memory per detector.
_BLOCK = 1 << 16


def trailing_max(x, at, n):
    """max(|x[i-n+1 .. i]|) for each index i of the ascending array `at`,
    the window cut at both ends: i may lie past the last sample while
    its window holds one. x is read only as the slice x[lo:hi].

    The work is two buffers over the span of `at`, from the window of
    its first index to its last, at most at[-1] - at[0] + n samples;
    past the last sample they hold 0, which no |x| falls below. Each
    caller passes one block of indices, so the buffers stay small.
    log2(n) doubling passes turn each sample into the maximum of the p
    samples ending there, p the largest power of two <= n, and the
    answer at i is max(m[i], m[i-(n-p)]), whose windows together cover
    [i-n+1, i]. A maximum rounds nothing, so the result equals the
    full-length windowed maximum read at `at`, bit for bit.
    """
    n = int(n)
    # out comes before the work buffers: allocated after them, it kept a
    # pool worker's heap from shrinking back after some nights
    out = np.empty(at.shape[0], x.dtype)
    if at.shape[0] == 0:
        return out
    p = 1 << (n.bit_length() - 1)
    lo = max(int(at[0]) - n + 1, 0)
    hi = int(at[-1]) + 1
    m, t = np.empty(hi - lo, x.dtype), np.empty(hi - lo, x.dtype)
    end = min(hi, x.shape[0])
    np.abs(x[lo:end], out=m[:end - lo])
    m[end - lo:] = 0
    w = 1
    while w < p and w < m.shape[0]:
        t[:w] = m[:w]
        np.maximum(m[w:], m[:-w], out=t[w:])
        m, t = t, m
        w *= 2
    idx = at - lo
    # the clip matters only where a window reaches before sample 0
    return np.maximum(m[idx], m[np.maximum(idx - (n - p), 0)], out=out)


def refractory_pick(idx, min_gap):
    """Keep-mask over ascending indices: each kept index lies at least
    min_gap after the previous kept one."""
    keep = np.zeros(idx.shape[0], np.bool_)
    kept = memoryview(keep)
    min_gap = int(min_gap)
    last = -2 ** 62
    for k, i in enumerate(memoryview(idx)):
        if i - last >= min_gap:
            kept[k] = True
            last = i
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
    the mean of the last eight RR intervals, and candidates close to the
    previous beat with under half its slope are rejected as T waves.
    Returns the boolean accept-mask over the candidates.
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
    accepted = memoryview(accept)
    # The last nine beats' sample indices: their span is the exact sum
    # of the last eight RR intervals, each a whole sample count.
    recent = collections.deque(maxlen=9)
    # Search-back fires past 1.66x the mean of the last eight RR
    # intervals; never before an RR exists.
    sb_limit = np.inf
    # Before the first beat, every candidate lies far beyond the
    # refractory and T-wave windows of this sentinel.
    last_qrs = -2 ** 62
    last_slope = 0.0
    last_acc_k = -1
    for k in range(n):
        c = cand[k]
        # Search-back cannot fire inside the refractory period: every
        # accepted RR is at least n_refractory, so sb_limit exceeds it.
        if c - last_qrs < n_refractory:
            continue

        if c - last_qrs > sb_limit:
            thri = npki + 0.25 * (spki - npki)
            if thri < floor_i:
                thri = floor_i
            thrf = npkf + 0.25 * (spkf - npkf)
            if thrf < floor_f:
                thrf = floor_f
            half_i = 0.5 * thri
            half_f = 0.5 * thrf
            # Every candidate after last_acc_k is still unaccepted.
            best = -1
            best_v = 0.0
            for m in range(last_acc_k + 1, k):
                if cand[m] - last_qrs < n_refractory:
                    continue
                v = peaki[m]
                if v > half_i and peakf[m] > half_f:
                    if best < 0 or v > best_v:
                        best = m
                        best_v = v
            if best >= 0:
                accepted[best] = True
                spki = 0.25 * peaki[best] + 0.75 * spki
                spkf = 0.25 * peakf[best] + 0.75 * spkf
                last_qrs = cand[best]
                recent.append(last_qrs)
                sb_limit = 1.66 * ((last_qrs - recent[0]) / (len(recent) - 1))
                last_slope = slope[best]
                last_acc_k = best
                if c - last_qrs < n_refractory:
                    continue

        # The T-wave test negated, not rewritten with >= and or, so that
        # a NaN slope is no T wave and meets the thresholds.
        if not (c - last_qrs < n_twave and slope[k] < 0.5 * last_slope):
            thri = npki + 0.25 * (spki - npki)
            if thri < floor_i:
                thri = floor_i
            thrf = npkf + 0.25 * (spkf - npkf)
            if thrf < floor_f:
                thrf = floor_f
            if peaki[k] > thri and peakf[k] > thrf:
                accepted[k] = True
                spki = 0.125 * peaki[k] + 0.875 * spki
                spkf = 0.125 * peakf[k] + 0.875 * spkf
                last_qrs = c
                recent.append(c)
                if len(recent) > 1:
                    sb_limit = 1.66 * ((c - recent[0]) / (len(recent) - 1))
                last_slope = slope[k]
                last_acc_k = k
                continue
        # a T wave, or a candidate under either threshold
        npki = 0.125 * peaki[k] + 0.875 * npki
        npkf = 0.125 * peakf[k] + 0.875 * npkf
    return accept
