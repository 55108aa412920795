"""Kernel correctness: every optimized path against a naive oracle.

The oracles here are deliberately written as plain Python loops straight
from each definition, independent of the array tricks used in the
library. The numba and numpy paths must agree with the oracle (and so
with each other) exactly.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from afscreen import kernels

RNG = np.random.default_rng(20250817)


def impls(name):
    out = [("numpy", kernels.NUMPY_IMPL[name])]
    if kernels.NUMBA_IMPL is not None:
        out.append(("numba", kernels.NUMBA_IMPL[name]))
    return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_sampen_counts(rr, r):
    # templates are the first n-1 values; the length-2 extension rr[i+1]
    # is always in range for them
    n = len(rr)
    b = a = 0
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if abs(rr[i] - rr[j]) <= r:
                b += 1
                if abs(rr[i + 1] - rr[j + 1]) <= r:
                    a += 1
    return b, a


def oracle_lorenz_hist(deltas, w, half, nbins):
    h = np.zeros((nbins, nbins), dtype=np.int64)
    pts = [(deltas[i], deltas[i - 1]) for i in range(1, len(deltas))]
    for x, y in pts:
        bx = min(max(int(math.floor((x + half) / w)), 0), nbins - 1)
        by = min(max(int(math.floor((y + half) / w)), 0), nbins - 1)
        h[bx, by] += 1
    return h


def oracle_trailing_max(x, n):
    return np.array([max(x[max(0, i - n + 1):i + 1]) for i in range(len(x))])


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
            continue

        if last_acc_k >= 0 and c - last_qrs < n_twave:
            if slope[k] < 0.5 * last_slope:
                hits["t_wave"] += 1
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
    half the beat's, and then by low noise candidates.
    """
    rows = []  # (index, peaki, peakf, slope)
    t = origin + int(rng.integers(5, 60))
    for _ in range(n_beats):
        t += int(rng.integers(90, 141))
        u = rng.random()
        if u < 0.08:
            t += int(rng.integers(120, 300))  # pause: no beat at all
        else:
            amp = rng.uniform(0.2, 0.3) if u < 0.25 else rng.uniform(0.8, 1.2)
            rows.append((t, amp, amp * rng.uniform(0.9, 1.1),
                         rng.uniform(0.8, 1.2)))
        for _ in range(int(rng.integers(0, 4))):
            rows.append((t + int(rng.integers(1, 26)), rng.uniform(0.0, 1.5),
                         rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5)))
        if rng.random() < 0.7:
            steep = rng.random() < 0.2
            rows.append((t + int(rng.integers(26, 47)), rng.uniform(0.4, 0.9),
                         rng.uniform(0.4, 0.9),
                         rng.uniform(0.6, 1.0) if steep
                         else rng.uniform(0.05, 0.35)))
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

@pytest.mark.parametrize("backend,fn", impls("sampen_pair_counts"))
def test_sampen_counts_match_oracle(backend, fn):
    for trial in range(60):
        rr = RNG.uniform(300.0, 2000.0, size=59)
        want = oracle_sampen_counts(rr.tolist(), 30.0)
        got = fn(rr, 30.0)
        assert (int(got[0]), int(got[1])) == want


@pytest.mark.parametrize("backend,fn", impls("sampen_pair_counts"))
def test_sampen_counts_tie_heavy(backend, fn):
    # quantized values create many exact-boundary distances
    for trial in range(30):
        rr = RNG.integers(700, 730, size=59).astype(np.float64) * 2.0
        want = oracle_sampen_counts(rr.tolist(), 30.0)
        got = fn(rr, 30.0)
        assert (int(got[0]), int(got[1])) == want


@pytest.mark.parametrize("backend,fn", impls("lorenz_hist"))
def test_lorenz_hist_matches_oracle(backend, fn):
    for trial in range(60):
        deltas = RNG.uniform(-750.0, 750.0, size=58)
        want = oracle_lorenz_hist(deltas, 40.0, 600.0, 30)
        got = np.asarray(fn(deltas, 40.0, 600.0, 30))
        assert np.array_equal(got, want)
        assert got.sum() == 57


@pytest.mark.parametrize("backend,fn", impls("lorenz_hist"))
def test_lorenz_hist_clips_to_border_bins(backend, fn):
    deltas = np.array([1e6, -1e6] * 29)[:58]
    h = np.asarray(fn(deltas, 40.0, 600.0, 30))
    inner = h.copy()
    inner[0, :] = 0
    inner[-1, :] = 0
    inner[:, 0] = 0
    inner[:, -1] = 0
    assert h.sum() == 57 and inner.sum() == 0


@pytest.mark.parametrize("backend,fn", impls("trailing_max"))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 256, 999, 1500])
def test_trailing_max_matches_oracle(backend, fn, n):
    x = RNG.normal(size=999)
    assert np.array_equal(fn(x, n), oracle_trailing_max(x, n))


@pytest.mark.parametrize("backend,fn", impls("refractory_pick"))
def test_refractory_pick_matches_oracle(backend, fn):
    # the kernel yields a keep-mask over the candidate indices
    for trial in range(50):
        idx = np.unique(RNG.integers(0, 2000, size=200)).astype(np.int64)
        gap = int(RNG.integers(1, 60))
        kept = idx[np.asarray(fn(idx, np.int64(gap)), dtype=bool)]
        assert np.array_equal(kept, oracle_refractory(idx, gap))


PT_ARGS = (26, 47)  # refractory and T-wave windows at 128 Hz


def pt_scalars(rng, floors):
    spki, spkf = rng.uniform(0.5, 1.5, size=2)
    npki, npkf = rng.uniform(0.0, 0.3, size=2)
    floor_i, floor_f = (rng.uniform(0.3, 0.45, size=2) if floors
                        else rng.uniform(0.0, 0.01, size=2))
    return (float(spki), float(npki), float(spkf), float(npkf),
            float(floor_i), float(floor_f))


@pytest.mark.parametrize("backend,fn", impls("pt_decide"))
def test_pt_decide_matches_oracle(backend, fn):
    rng = np.random.default_rng(7)
    hits = dict.fromkeys(("floor", "search_back", "refractory", "t_wave"), 0)
    most_beats = 0
    for trial in range(80):
        stream = candidate_stream(rng, int(rng.integers(1, 60)),
                                  origin=0 if trial % 4 else 2 ** 40)
        scalars = pt_scalars(rng, floors=trial % 5 == 0)
        want = oracle_pt_decide(*stream, *scalars, *PT_ARGS, hits)
        got = np.asarray(fn(*stream, *scalars, *PT_ARGS))
        assert got.dtype == np.bool_
        assert np.array_equal(got, want)
        most_beats = max(most_beats, int(want.sum()))
    # the streams reach every branch, and the RR buffer wraps
    assert min(hits.values()) > 0, hits
    assert most_beats > 8


@pytest.mark.parametrize("backend,fn", impls("pt_decide"))
def test_pt_decide_zero_and_one_candidate(backend, fn):
    rng = np.random.default_rng(8)
    scalars = (1.0, 0.1, 1.0, 0.1, 0.001, 0.001)
    hits = dict.fromkeys(("floor", "search_back", "refractory", "t_wave"), 0)
    empty = (np.empty(0, np.int64),) + (np.empty(0),) * 3
    assert np.asarray(fn(*empty, *scalars, *PT_ARGS)).shape == (0,)
    for height in (0.05, 0.2, 0.5, 2.0):
        one = (np.array([int(rng.integers(1, 1000))]), np.array([height]),
               np.array([height]), np.array([1.0]))
        want = oracle_pt_decide(*one, *scalars, *PT_ARGS, hits)
        assert np.array_equal(np.asarray(fn(*one, *scalars, *PT_ARGS)), want)
        assert bool(want[0]) == (height > 0.325)


def test_backends_bitwise_identical():
    if kernels.NUMBA_IMPL is None:
        pytest.skip("numba unavailable")
    rr = RNG.uniform(300.0, 2000.0, size=59)
    deltas = np.diff(rr)
    x = RNG.normal(size=4000)
    idx = np.unique(RNG.integers(0, 4000, size=300)).astype(np.int64)
    np_i, nb_i = kernels.NUMPY_IMPL, kernels.NUMBA_IMPL
    assert tuple(np_i["sampen_pair_counts"](rr, 30.0)) == \
        tuple(nb_i["sampen_pair_counts"](rr, 30.0))
    assert np.array_equal(np_i["lorenz_hist"](deltas, 40.0, 600.0, 30),
                          nb_i["lorenz_hist"](deltas, 40.0, 600.0, 30))
    assert np.array_equal(np_i["trailing_max"](x, 257),
                          nb_i["trailing_max"](x, 257))
    assert np.array_equal(np_i["refractory_pick"](idx, 26),
                          nb_i["refractory_pick"](idx, 26))
    stream = candidate_stream(RNG, 200)
    scalars = (1.0, 0.1, 1.0, 0.1, 0.001, 0.001)
    assert np.array_equal(np_i["pt_decide"](*stream, *scalars, *PT_ARGS),
                          nb_i["pt_decide"](*stream, *scalars, *PT_ARGS))


def test_backend_flag_reports():
    assert kernels.BACKEND in ("numba", "numpy")
    names = ("sampen_pair_counts", "lorenz_hist", "trailing_max",
             "refractory_pick", "pt_decide")
    assert tuple(kernels.NUMPY_IMPL) == names
    for name in names:
        assert callable(getattr(kernels, name))


def test_bench_kernels_runs(capsys):
    # the timing script names every kernel; a deleted or renamed one
    # must fail here rather than only when someone runs the script
    path = Path(__file__).resolve().parents[1] / "benchmarks" \
        / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--hours", "0.1", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    for name in kernels.NUMPY_IMPL:
        assert name in out
