"""Kernel correctness: each detector kernel against a naive oracle.

The oracles here are deliberately written as plain Python loops straight
from each definition, independent of the array tricks used in the
library. Every kernel must agree with its oracle exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from afscreen import kernels

RNG = np.random.default_rng(20250817)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_trailing_max(x, n):
    return np.array([max(x[max(0, i - n + 1):i + 1]) for i in range(len(x))])


def oracle_windowed_max(x, at, n):
    # the maximum over the samples of [i-n+1, i] that exist, for each i
    return np.array([max(x[max(0, i - n + 1):i + 1]) for i in at])


def oracle_refractory(idx, gap):
    kept = []
    last = None
    for i in idx:
        if last is None or i - last >= gap:
            kept.append(i)
            last = i
    return np.array(kept, dtype=np.int64)


def oracle_pt_decide(cand, peaki, peakf, slope,
                     spki, npki, spkf, npkf,
                     floor_i, floor_f,
                     n_refractory, n_twave, hits):
    # The decision loop in its direct form: the RR mean summed afresh
    # over the buffer at every candidate, thresholds clamped by max().
    # `hits` counts how often each branch ran, so the tests can show
    # that their streams reach it.
    n = cand.shape[0]
    accept = np.zeros(n, np.bool_)
    rr_buf = np.zeros(8, np.float64)
    rr_n = 0
    rr_pos = 0
    last_qrs = np.int64(-2 ** 62)
    last_slope = 0.0
    last_acc_k = -1
    for k in range(n):
        c = cand[k]
        rescued = False
        thri = max(npki + 0.25 * (spki - npki), floor_i)
        thrf = max(npkf + 0.25 * (spkf - npkf), floor_f)
        hits["floor"] += thri == floor_i or thrf == floor_f

        if rr_n > 0 and last_acc_k >= 0:
            s = 0.0
            for q in range(rr_n):
                s += rr_buf[q]
            rr_mean = s / rr_n
            if c - last_qrs > 1.66 * rr_mean:
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
                    hits["search_back"] += 1
                    rescued = True
                    accept[best] = True
                    spki = 0.25 * peaki[best] + 0.75 * spki
                    spkf = 0.25 * peakf[best] + 0.75 * spkf
                    rr_buf[rr_pos] = cand[best] - last_qrs
                    rr_pos = (rr_pos + 1) % 8
                    if rr_n < 8:
                        rr_n += 1
                    last_qrs = cand[best]
                    last_slope = slope[best]
                    last_acc_k = best
                    thri = max(npki + 0.25 * (spki - npki), floor_i)
                    thrf = max(npkf + 0.25 * (spkf - npkf), floor_f)

        if last_acc_k >= 0 and c - last_qrs < n_refractory:
            hits["refractory"] += 1
            hits["sb_refractory"] += rescued
            continue

        if last_acc_k >= 0 and c - last_qrs < n_twave:
            # exactly half the last beat's slope is not a T wave
            hits["t_wave_tie"] += slope[k] == 0.5 * last_slope
            if slope[k] < 0.5 * last_slope:
                hits["t_wave"] += 1
                hits["sb_t_wave"] += rescued
                npki = 0.125 * peaki[k] + 0.875 * npki
                npkf = 0.125 * peakf[k] + 0.875 * npkf
                continue

        if peaki[k] > thri and peakf[k] > thrf:
            accept[k] = True
            spki = 0.125 * peaki[k] + 0.875 * spki
            spkf = 0.125 * peakf[k] + 0.875 * spkf
            if last_acc_k >= 0:
                rr_buf[rr_pos] = c - last_qrs
                rr_pos = (rr_pos + 1) % 8
                if rr_n < 8:
                    rr_n += 1
            last_qrs = c
            last_slope = slope[k]
            last_acc_k = k
        else:
            npki = 0.125 * peaki[k] + 0.875 * npki
            npkf = 0.125 * peakf[k] + 0.875 * npkf
    return accept


def candidate_stream(rng, n_beats, origin=0):
    """Candidates shaped like a detector's: beats, noise and T waves.

    Beats come every 90-140 samples. Some are weak (between half the
    threshold and the threshold, left for search-back to rescue), some
    are missing (a long pause). Most are trailed by candidates inside
    the refractory period and by a T wave, whose slope is mostly under
    half the beat's and sometimes exactly half, and then by low noise
    candidates.
    """
    rows = []  # (index, peaki, peakf, slope)
    t = origin + int(rng.integers(5, 60))
    for _ in range(n_beats):
        t += int(rng.integers(90, 141))
        u = rng.random()
        beat_slope = None
        if u < 0.08:
            t += int(rng.integers(120, 300))  # pause: no beat at all
        else:
            amp = rng.uniform(0.2, 0.3) if u < 0.25 else rng.uniform(0.8, 1.2)
            peakf = amp * rng.uniform(0.9, 1.1)
            beat_slope = rng.uniform(0.8, 1.2)
            rows.append((t, amp, peakf, beat_slope))
        for _ in range(int(rng.integers(0, 4))):
            rows.append((t + int(rng.integers(1, 26)), rng.uniform(0.0, 1.5),
                         rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5)))
        if rng.random() < 0.7:
            kind = rng.random()
            row = (t + int(rng.integers(26, 47)), rng.uniform(0.4, 0.9),
                   rng.uniform(0.4, 0.9),
                   rng.uniform(0.6, 1.0) if kind < 0.2
                   else rng.uniform(0.05, 0.35))
            if kind > 0.85 and beat_slope is not None:
                row = row[:3] + (0.5 * beat_slope,)
            rows.append(row)
        for _ in range(int(rng.integers(0, 6))):
            rows.append((t + int(rng.integers(47, 90)), rng.uniform(0.0, 0.3),
                         rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.5)))
    rows.sort()
    idx = np.array([r[0] for r in rows], dtype=np.int64)
    first = np.concatenate([[True], np.diff(idx) > 0]) if len(rows) else []
    cols = np.array(rows, dtype=np.float64).reshape(-1, 4)[first]
    return (idx[first], cols[:, 1].copy(), cols[:, 2].copy(),
            cols[:, 3].copy())


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def probe_indices(size, n, block, rng):
    """0, n-1, the last sample, both sides of every block edge when the
    blocks start at 0, and a random sample of the rest."""
    edges = np.arange(0, size + block, block)
    at = np.concatenate([[0, n - 1, size - 1], edges - 1, edges, edges + 1,
                         rng.choice(size, size=60)])
    return np.unique(at[(at >= 0) & (at < size)]).astype(np.int64)


def check_trailing_max(x, at, n, want):
    got = kernels.trailing_max(x, at, n)
    assert got.dtype == x.dtype
    assert np.array_equal(got, want[at]), (n, kernels._BLOCK)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 21, 151, 256, 999, 1500])
def test_trailing_max_matches_oracle(n, monkeypatch):
    # a normal signal of 999 samples, so n = 999 is its length and 1500
    # exceeds it, and one on a coarse grid whose values tie often
    x = RNG.normal(size=999)
    grid = RNG.integers(-6, 7, size=400) / 4.0
    for signal in (x, grid):
        size = signal.shape[0]
        want = oracle_trailing_max(np.abs(signal), n)
        for block in (1, 7, 64, kernels._BLOCK):
            monkeypatch.setattr(kernels, "_BLOCK", block)
            for at in (probe_indices(size, n, block, RNG), np.arange(size)):
                check_trailing_max(signal, at, n, want)


@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 300),
                elements=st.floats(allow_nan=False, allow_infinity=False)),
       data=st.data())
def test_trailing_max_on_any_finite_array(x, data):
    # indices run up to the last one whose window still holds a sample
    n = data.draw(st.integers(1, 2 * x.shape[0] + 2), label="n")
    last = x.shape[0] + n - 2
    at = np.array(sorted(data.draw(st.lists(st.integers(0, last)),
                                   label="at")), dtype=np.int64)
    block = data.draw(st.sampled_from([1, 7, 64, kernels._BLOCK]),
                      label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", block)
        got = kernels.trailing_max(x, at, n)
    assert got.dtype == x.dtype
    assert np.array_equal(got, oracle_windowed_max(np.abs(x), at, n))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 151, 999, 1500])
def test_trailing_max_past_the_last_sample(n, monkeypatch):
    # indices from inside the record up to the last one whose window
    # still holds a sample, on either side of the block edges
    x = RNG.integers(-6, 7, size=400) / 4.0
    last = x.shape[0] + n - 2
    for block in (1, 7, 64, kernels._BLOCK):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        edges = np.arange(0, last + block, block)
        at = np.concatenate([[0, 399, 400, last], edges - 1, edges,
                             edges + 1, RNG.integers(0, last + 1, size=60)])
        at = np.unique(at[(at >= 0) & (at <= last)]).astype(np.int64)
        got = kernels.trailing_max(x, at, n)
        assert got.dtype == x.dtype
        assert np.array_equal(got, oracle_windowed_max(np.abs(x), at, n)), \
            block


def test_refractory_pick_matches_oracle():
    # the kernel yields a keep-mask over the candidate indices
    for trial in range(50):
        idx = np.unique(RNG.integers(0, 2000, size=200)).astype(np.int64)
        gap = int(RNG.integers(1, 60))
        kept = idx[kernels.refractory_pick(idx, np.int64(gap))]
        assert np.array_equal(kept, oracle_refractory(idx, gap))


PT_ARGS = (26, 47)  # refractory and T-wave windows at 128 Hz


def pt_scalars(rng, floors):
    spki, spkf = rng.uniform(0.5, 1.5, size=2)
    npki, npkf = rng.uniform(0.0, 0.3, size=2)
    floor_i, floor_f = (rng.uniform(0.3, 0.45, size=2) if floors
                        else rng.uniform(0.0, 0.01, size=2))
    return (float(spki), float(npki), float(spkf), float(npkf),
            float(floor_i), float(floor_f))


def test_pt_decide_matches_oracle():
    rng = np.random.default_rng(7)
    hits = dict.fromkeys(("floor", "search_back", "refractory", "t_wave",
                          "t_wave_tie", "sb_refractory", "sb_t_wave"), 0)
    most_beats = 0
    for trial in range(80):
        stream = candidate_stream(rng, int(rng.integers(1, 60)),
                                  origin=0 if trial % 4 else 2 ** 40)
        scalars = pt_scalars(rng, floors=trial % 5 == 0)
        want = oracle_pt_decide(*stream, *scalars, *PT_ARGS, hits)
        got = kernels.pt_decide(*stream, *scalars, *PT_ARGS)
        assert got.dtype == np.bool_
        assert np.array_equal(got, want)
        most_beats = max(most_beats, int(want.sum()))
    # the streams reach every branch, and the RR buffer wraps
    assert min(hits.values()) > 0, hits
    assert most_beats > 8


def test_pt_decide_zero_and_one_candidate():
    rng = np.random.default_rng(8)
    scalars = (1.0, 0.1, 1.0, 0.1, 0.001, 0.001)
    hits = dict.fromkeys(("floor", "search_back", "refractory", "t_wave",
                          "t_wave_tie"), 0)
    empty = (np.empty(0, np.int64),) + (np.empty(0),) * 3
    assert kernels.pt_decide(*empty, *scalars, *PT_ARGS).shape == (0,)
    for height in (0.05, 0.2, 0.5, 2.0):
        one = (np.array([int(rng.integers(1, 1000))]), np.array([height]),
               np.array([height]), np.array([1.0]))
        want = oracle_pt_decide(*one, *scalars, *PT_ARGS, hits)
        got = kernels.pt_decide(*one, *scalars, *PT_ARGS)
        assert np.array_equal(got, want)
        assert bool(want[0]) == (height > 0.325)


def test_search_back_reads_the_mean_of_the_last_eight_rr():
    # Beats 200, 150, then 100 x 7 samples apart: the mean of the last 7
    # RR intervals is 100, of 8 is 106.25 and of 9 is 116.67, so
    # search-back would fire past 166, 176.4 or 193.7 samples. A weak
    # candidate 60 after the last beat is rescued by a noise candidate
    # 185 after it, and not by one 170 after it.
    beats = np.cumsum([1000, 200, 150] + [100] * 7)
    scalars = (1.0, 0.1, 1.0, 0.1, 0.001, 0.001)
    for gap, rescued in ((170, False), (185, True)):
        cand = np.concatenate([beats, beats[-1] + np.array([60, gap])])
        height = np.array([1.0] * len(beats) + [0.2, 0.05])
        got = kernels.pt_decide(cand, height, height.copy(),
                                np.ones(len(cand)), *scalars, *PT_ARGS)
        assert got.tolist() == [True] * len(beats) + [rescued, False], gap


def test_backend_flag_reports():
    assert kernels.BACKEND == "numpy"
    for name in ("pt_decide", "refractory_pick", "trailing_max"):
        assert callable(getattr(kernels, name))
