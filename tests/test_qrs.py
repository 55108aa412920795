"""Detector behavior on synthetic signals with known beat times.

The shift/scale properties are checked bit-exactly: scaling by powers
of two is lossless through the whole linear filter chain, and shifting
a quiet-onset record by whole samples reproduces every detection at the
shifted index.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter1d, uniform_filter1d
from scipy.signal import butter
from scipy.signal import sosfiltfilt as scipy_sosfiltfilt

from afscreen import kernels, pipeline, qrs, quality, synth
from afscreen.errors import ContractViolationError, UnsupportedRateError
from afscreen.qrs import (RPeakSeries, detect_reference, detect_test,
                          REFRACTORY_REFERENCE_S, REFRACTORY_TEST_S)
from afscreen.record_io import EcgRecord
from conftest import make_series


def render(peak_times, fs=128.0, duration=None, snr=None, seed=0,
           pid="t") -> EcgRecord:
    peaks = make_series(peak_times)
    return synth.gen_ecg(peaks, fs, noise_snr_db=snr, duration_s=duration,
                         seed=seed, patient_id=pid)


def matched_fraction(detected, truth, tol=0.05):
    if len(truth) == 0:
        return 1.0
    hits = sum(1 for t in truth if np.min(np.abs(detected - t)) <= tol)
    return hits / len(truth)


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def test_reference_counts_regular_train():
    truth = 0.5 + np.arange(300, dtype=float)
    rec = render(truth, duration=300.0)
    got = detect_reference(rec)
    assert abs(len(got) - 300) <= 1
    assert matched_fraction(got.times, truth[:len(truth)]) >= 0.99


def test_reference_times_within_50ms():
    truth = 0.5 + np.arange(100, dtype=float) * 0.9
    rec = render(truth, duration=92.0)
    got = detect_reference(rec).times
    for t in truth:
        assert np.min(np.abs(got - t)) <= 0.05


def test_test_detector_agrees_with_reference_on_clean_signal():
    spec = synth.SynthSpec(rhythm_program=[(180.0, "NSR")], seed=21)
    rec, _, _ = synth.synth_record(spec, patient_id="agree")
    ref = detect_reference(rec).times
    test = detect_test(rec).times
    assert matched_fraction(test, ref) >= 0.99


@pytest.mark.parametrize("fs", [128.0, 250.0, 360.0])
@pytest.mark.parametrize("seed", [0, 3])
def test_test_detector_finds_only_beats_in_the_first_two_seconds(fs, seed):
    # The band-pass start transient once set the threshold there, and
    # the detector fired on it at the refractory rate before the first
    # beat
    spec = synth.SynthSpec(rhythm_program=[(30.0, "NSR")], seed=seed, fs=fs)
    rec, truth, _ = synth.synth_record(spec, patient_id="start")
    got = detect_test(rec).times
    early, beats = got[got < 2.0], truth.times[truth.times < 2.0]
    assert len(early) > 0
    assert matched_fraction(beats, early) == 1.0
    assert matched_fraction(early, beats) == 1.0


def test_flat_signal_yields_empty_series():
    rec = EcgRecord(patient_id="flat", samples=np.zeros(128 * 60), fs=128.0)
    assert len(detect_reference(rec)) == 0
    assert len(detect_test(rec)) == 0


def test_two_close_qrs_collapse_to_one():
    # Bare QRS bumps, no P or T waves: the refractory rule alone decides.
    fs = 128.0
    t = np.arange(int(12.0 * fs)) / fs
    x = np.zeros_like(t)
    for c in (5.0, 5.1):
        x += np.exp(-0.5 * ((t - c) / 0.0075) ** 2)
    rec = EcgRecord(patient_id="pair", samples=x, fs=fs)
    got = detect_reference(rec)
    assert len(got) == 1
    assert abs(got.times[0] - 5.0) <= 0.05


def test_low_rate_rejected():
    rec = EcgRecord(patient_id="slow", samples=np.zeros(99 * 60), fs=99.0)
    with pytest.raises(UnsupportedRateError):
        detect_reference(rec)
    with pytest.raises(UnsupportedRateError):
        detect_test(rec)


def test_short_record_rejected():
    rec = EcgRecord(patient_id="short", samples=np.zeros(128 * 9), fs=128.0)
    with pytest.raises(ContractViolationError):
        detect_reference(rec)
    with pytest.raises(ContractViolationError):
        detect_test(rec)


def test_noise_only_record_disagrees_across_detectors():
    rng = np.random.default_rng(99)
    rec = EcgRecord(patient_id="noise",
                    samples=rng.normal(0.0, 1.0, size=128 * 600), fs=128.0)
    ref = detect_reference(rec)
    test = detect_test(rec)
    windows = quality.window_partition(ref)
    assert len(windows) >= 3
    bsqi = quality.window_bsqi(windows, test)
    below = int(np.count_nonzero(bsqi < 0.8))
    assert below > len(bsqi) / 2


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("rhythm", ["NSR", "AF"])
def test_monotonic_and_refractory(seed, rhythm):
    spec = synth.SynthSpec(rhythm_program=[(90.0, rhythm)], seed=seed,
                           noise_snr_db=10.0 if seed % 2 else None)
    rec, _, _ = synth.synth_record(spec, patient_id="prop")
    for detect, refractory in ((detect_reference, REFRACTORY_REFERENCE_S),
                               (detect_test, REFRACTORY_TEST_S)):
        times = detect(rec).times
        if len(times) > 1:
            gaps = np.diff(times)
            assert np.all(gaps > 0)
            assert np.min(gaps) >= refractory - 1e-9


@pytest.mark.parametrize("k", [1, 5, 64])
@pytest.mark.parametrize("seed", [3, 11])
def test_time_shift_equivariance(k, seed):
    spec = synth.SynthSpec(rhythm_program=[(60.0, "NSR")], seed=seed)
    rec, _, _ = synth.synth_record(spec, patient_id="shift")
    shifted = EcgRecord(patient_id="shift",
                        samples=np.concatenate([np.full(k, rec.samples[0]),
                                                rec.samples]),
                        fs=rec.fs)
    for detect in (detect_reference, detect_test):
        idx = np.rint(detect(rec).times * rec.fs).astype(int)
        idx_shifted = np.rint(detect(shifted).times * rec.fs).astype(int)
        assert np.array_equal(idx_shifted, idx + k)


@pytest.mark.parametrize("c", [0.25, 2.0, 1024.0])
@pytest.mark.parametrize("seed", [4, 12])
def test_amplitude_scale_invariance_pow2(c, seed):
    spec = synth.SynthSpec(rhythm_program=[(60.0, "AF")], seed=seed,
                           noise_snr_db=15.0)
    rec, _, _ = synth.synth_record(spec, patient_id="scale")
    scaled = EcgRecord(patient_id="scale", samples=rec.samples * c,
                       fs=rec.fs)
    for detect in (detect_reference, detect_test):
        assert np.array_equal(detect(scaled).times, detect(rec).times)


@pytest.mark.parametrize("c", [3.7, 0.013])
def test_amplitude_scale_invariance_general(c):
    spec = synth.SynthSpec(rhythm_program=[(60.0, "NSR")], seed=5)
    rec, _, _ = synth.synth_record(spec, patient_id="scale2")
    scaled = EcgRecord(patient_id="scale2", samples=rec.samples * c,
                       fs=rec.fs)
    for detect in (detect_reference, detect_test):
        assert np.array_equal(detect(scaled).times, detect(rec).times)


@functools.cache
def zero_db_record():
    spec = synth.SynthSpec(rhythm_program=[(60.0, "AF")], seed=2,
                           noise_snr_db=0.0)
    rec, _, _ = synth.synth_record(spec, patient_id="scale")
    return rec, [detect(rec).times for detect in (detect_reference,
                                                  detect_test)]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=-1000)
@example(k=1000)
def test_amplitude_scale_invariance_over_the_float_range(k):
    # x * 2^k for k from -1000 to 1000: the samples stay normal floats,
    # where the squares and sums of an unscaled band-pass once
    # overflowed or underflowed to no detections
    rec, want = zero_db_record()
    scaled = EcgRecord(patient_id="scale", samples=np.ldexp(rec.samples, k),
                       fs=rec.fs)
    for detect, times in zip((detect_reference, detect_test), want):
        assert np.array_equal(detect(scaled).times, times)


def test_a_lead_off_stretch_leaves_the_test_detector_working():
    # 10 min of one value in a clean 30 min night: the running sum's
    # rounding residue can take a mean below 0 there, and the square
    # root's NaN once took every test detection of the night away
    spec = synth.SynthSpec(rhythm_program=[(1800.0, "NSR")], seed=0)
    rec, _, _ = synth.synth_record(spec, patient_id="leadoff")
    x = rec.samples.copy()
    x[int(600 * rec.fs):int(1200 * rec.fs)] = 0.0
    rec = EcgRecord(patient_id="leadoff", samples=x, fs=rec.fs)
    ref = len(detect_reference(rec))
    assert ref > 1400
    assert abs(len(detect_test(rec)) - ref) <= 0.01 * ref


@pytest.mark.parametrize("x", [np.r_[np.zeros(3840), np.ones(3840)],
                               np.r_[1.0, np.zeros(7679)]])
def test_step_and_impulse_records_detect_without_warnings(x):
    # warnings are errors here; both once took a square root of a
    # negative mean
    rec = EcgRecord(patient_id="edge", samples=x, fs=128.0)
    for detect in (detect_reference, detect_test):
        assert len(detect(rec)) <= 2


def test_series_requires_strict_increase():
    with pytest.raises(ContractViolationError):
        RPeakSeries(times=np.array([1.0, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# integration and fiducial refinement against plain loops
# ---------------------------------------------------------------------------

def oracle_trailing_mean(x, n):
    csum = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        lo = max(i - n + 1, 0)
        out[i] = (csum[i + 1] - csum[lo]) / (i - lo + 1)
    return out


def full_length_trailing_max(x, at, n):
    # max(|x[i-n+1 .. i]|) at every sample and at the n-1 past the last,
    # the window cut at both ends, read at `at`: x is read as one slice
    # and padded with zeros, which no |x| falls below; a positive origin
    # pulls the window toward earlier samples, and (n-1)//2 is the
    # largest legal shift
    full = np.concatenate([np.abs(x[0:x.shape[0]]), np.zeros(n - 1)])
    return maximum_filter1d(full, size=n, mode="nearest",
                            origin=(n - 1) // 2)[at]


def oracle_fiducials(bp, beats, n_mwi, n_refine):
    fiducials = []
    for c in beats:
        lo = max(int(c) - n_mwi, 0)
        prelim = lo + int(np.argmax(bp[lo:int(c) + 1]))
        lo2 = max(prelim - n_refine, 0)
        hi2 = min(prelim + n_refine + 1, bp.shape[0])
        fiducials.append(lo2 + int(np.argmax(bp[lo2:hi2])))
    return np.asarray(fiducials, dtype=np.int64)


def oracle_dominant(x, cand, h):
    # the candidates c with x[c] >= every sample within h of c
    last = x.shape[0] - 1
    return np.array([c for c in cand
                     if x[c] >= max(x[max(c - h, 0):min(c + h, last) + 1])],
                    dtype=np.int64)


def oracle_local_maxima(x):
    return np.array([i for i in range(1, x.shape[0] - 1)
                     if x[i] > x[i - 1] and x[i] >= x[i + 1]],
                    dtype=np.int64)


def full_derivative(bp, fs):
    # the five-point derivative over the whole signal at once
    deriv = np.zeros_like(bp)
    deriv[2:-2] = (fs / 8.0) * (2.0 * (bp[3:-1] - bp[1:-3])
                                + (bp[4:] - bp[:-4]))
    return deriv


def full_mwi(bp, fs, n_mwi):
    # the integrated signal whole: the loop mean of the squared derivative
    deriv = full_derivative(bp, fs)
    return oracle_trailing_mean(deriv * deriv, n_mwi)


def oracle_integrate(bp, fs, n_mwi, h, n_learn):
    # qrs._integrate from the full-length forms
    mwi = full_mwi(bp, fs, n_mwi)
    cand = oracle_dominant(mwi, oracle_local_maxima(mwi), h)
    slope = full_length_trailing_max(full_derivative(bp, fs), cand,
                                     n_mwi + 1)
    peakf = full_length_trailing_max(bp, cand, n_mwi + 1)
    return cand, mwi[cand], slope, peakf, float(np.max(mwi)), mwi[:n_learn]


def edge_record(fs=128.0):
    """Flat-topped beats every 110 samples, the first peaking within
    n_mwi samples of the start and the last within n_refine of the end,
    over noise on a 1/64 grid, so equal samples are common."""
    n = int(10 * fs)
    rng = np.random.default_rng(3)
    x = rng.integers(-4, 5, size=n) / 64.0
    pulse = np.array([0.25, 0.625, 1.0, 1.0, 1.0, 0.625, 0.25])
    for top in list(range(3, n - 100, 110)) + [n - 5]:
        lo = max(top - 2, 0)
        seg = pulse[lo - (top - 2):][:n - lo]
        x[lo:lo + seg.shape[0]] = seg
    return EcgRecord(patient_id="edges", samples=x, fs=fs)


@pytest.mark.parametrize("n", [1, 2, 20, 57])
def test_trailing_mean_matches_loop(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=500) ** 2
    assert np.array_equal(qrs._trailing_mean(x.copy(), n),
                          oracle_trailing_mean(x, n))


@pytest.mark.parametrize("n", [1, 2, 21, 57])
def test_trailing_abs_max_matches_full_length_kernel(n):
    # signed values on a coarse grid tie often; positions cover the
    # start, where the window is cut, and the last sample
    rng = np.random.default_rng(n)
    x = rng.integers(-6, 7, size=400) / 4.0
    at = np.unique(np.concatenate([[0, 1, n - 1, 399],
                                   rng.choice(400, size=60)]))
    assert np.array_equal(kernels.trailing_max(x, at, n),
                          full_length_trailing_max(x, at, n))


@pytest.mark.parametrize("h", [0, 1, 13, 100])
def test_dominant_matches_loop_oracle(monkeypatch, h):
    # non-negative values on grids coarse enough to tie often; lengths
    # run from shorter than one window to several blocks, and the
    # candidates include every sample, so some lie within h of both ends
    rng = np.random.default_rng(h)
    default_block = kernels._BLOCK
    signals = []
    for size in (3, h + 2, 2 * h + 1, 2 * h + 3, 150, 700):
        coarse = rng.integers(0, 5, size=size) / 4.0
        coarse[rng.random(size) < 0.5] = 0.0
        signals += [coarse, rng.integers(0, 64, size=size) / 8.0]
    for x in signals:
        size = x.shape[0]
        for cand in (qrs._local_maxima(x), np.arange(size),
                     np.unique(rng.choice(size, size=size // 3 + 1))):
            cand = cand.astype(np.int64)
            want = oracle_dominant(x, cand, h)
            for block in (1, 7, 64, default_block):
                monkeypatch.setattr(kernels, "_BLOCK", block)
                got = qrs._dominant(x, cand, h)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (size, block)


@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 300),
                elements=st.floats(min_value=0.0, allow_nan=False,
                                   allow_infinity=False)),
       data=st.data())
def test_dominant_on_any_nonnegative_array(x, data):
    h = data.draw(st.integers(0, x.shape[0] + 2), label="h")
    cand = np.array(sorted(data.draw(
        st.sets(st.integers(0, x.shape[0] - 1)), label="cand")),
        dtype=np.int64)
    block = data.draw(st.sampled_from([1, 7, 64, kernels._BLOCK]),
                      label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", block)
        assert np.array_equal(qrs._dominant(x, cand, h),
                              oracle_dominant(x, cand, h))


@pytest.mark.parametrize("fs,h", [(128.0, 13), (250.0, 25)])
def test_reference_weighs_only_dominant_integration_peaks(monkeypatch,
                                                          fs, h):
    # h is half the 200 ms refractory period in samples; at 0 dB the
    # integrated signal ripples, so many local maxima are not dominant.
    # The integrated signal is rebuilt whole from the band-pass, so the
    # candidates are checked against it whatever the block size.
    seen = {}
    pt_decide = kernels.pt_decide

    def spy_pt_decide(cand, *args):
        seen["cand"] = cand.copy()
        return pt_decide(cand, *args)

    monkeypatch.setattr(kernels, "pt_decide", spy_pt_decide)
    spec = synth.SynthSpec(rhythm_program=[(60.0, "AF")], seed=2, fs=fs,
                           noise_snr_db=0.0)
    rec, _, _ = synth.synth_record(spec, patient_id="ripple")
    bp, _ = qrs._bandpass(rec.samples, fs, 5.0, 15.0)
    mwi = full_mwi(bp, fs, qrs._samples_for(qrs.MWI_WINDOW_S, fs))
    everything = oracle_local_maxima(mwi)
    want = oracle_dominant(mwi, everything, h)
    assert want.shape[0] < everything.shape[0] / 2
    default_block = kernels._BLOCK
    assert rec.samples.shape[0] <= default_block
    for block in (1, 7, 64, default_block):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        seen.clear()
        detect_reference(rec)
        assert np.array_equal(seen["cand"], want), block


@pytest.mark.parametrize("fs", [128.0, 250.0])
@pytest.mark.parametrize("snr", [None, 10.0])
def test_dominance_moves_no_peak_on_clean_records(monkeypatch, fs, snr):
    # Weighing only dominant integration peaks changes detections only
    # where a ripple maximum used to win, which clean records lack.
    spec = synth.SynthSpec(rhythm_program=[(600.0, "NSR"), (600.0, "AF"),
                                           (600.0, "ECTOPY")],
                           seed=8, fs=fs, noise_snr_db=snr)
    rec, _, _ = synth.synth_record(spec, patient_id="clean")
    got = detect_reference(rec).times
    monkeypatch.setattr(qrs, "_dominant", lambda x, cand, h: cand)
    want = detect_reference(rec).times
    assert len(want) > 1800
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_mwi,n_refine", [(20, 7), (38, 13), (3, 3)])
def test_fiducials_match_loop(monkeypatch, n_mwi, n_refine):
    # values on a coarse grid tie often; beats cover both record edges;
    # small blocks take the beats one to a few at a time
    rng = np.random.default_rng(n_mwi)
    default_block = kernels._BLOCK
    for trial in range(40):
        bp = rng.integers(-3, 4, size=int(rng.integers(60, 300))) / 4.0
        beats = np.sort(rng.choice(bp.shape[0], size=12, replace=False))
        beats[:2] = [0, int(rng.integers(1, n_mwi))]
        beats[-1] = bp.shape[0] - 1
        beats = np.unique(beats)
        want = oracle_fiducials(bp, beats, n_mwi, n_refine)
        for block in (1, 64, default_block):
            monkeypatch.setattr(kernels, "_BLOCK", block)
            assert np.array_equal(qrs._fiducials(bp, beats, n_mwi, n_refine),
                                  want), block


@pytest.mark.parametrize("identity_filter", [True, False])
def test_detect_reference_matches_loop_oracles_at_edges(monkeypatch,
                                                        identity_filter):
    # With the band-pass replaced by the identity, the band-passed signal
    # is the record itself, flat tops and all.
    if identity_filter:
        monkeypatch.setattr(qrs, "sosfiltfilt", lambda sos, x: x.copy())
    rec = edge_record()
    got = detect_reference(rec).times

    seen = {"integrate": 0}

    def spy_integrate(*args):
        seen["integrate"] += 1
        return oracle_integrate(*args)

    def spy_fiducials(bp, beats, n_mwi, n_refine):
        seen.update(bp=bp, beats=beats)
        return oracle_fiducials(bp, beats, n_mwi, n_refine)

    monkeypatch.setattr(qrs, "_integrate", spy_integrate)
    monkeypatch.setattr(qrs, "_fiducials", spy_fiducials)
    want = detect_reference(rec).times
    # the loop oracles ran, so the detector was not compared with itself
    assert seen["integrate"] == 1 and "beats" in seen
    assert got.dtype == want.dtype and np.array_equal(got, want)

    # the windows were cut at both edges
    n = rec.samples.shape[0]
    n_mwi = qrs._samples_for(qrs.MWI_WINDOW_S, rec.fs)
    n_refine = qrs._samples_for(qrs.REFINE_WINDOW_S, rec.fs)
    fid = np.rint(want * rec.fs).astype(np.int64)
    assert seen["beats"][0] < n_mwi
    assert fid[0] < n_mwi and fid[-1] > n - 1 - n_refine
    if identity_filter:
        # and first-of-tied maxima decided the fiducials
        bp = seen["bp"]
        assert np.any(bp[fid] == bp[fid + 1])


def oracle_detect_test(rec):
    # The test detector with a centred envelope from
    # scipy.ndimage.uniform_filter1d, the squared band-pass extended by
    # its edge samples, and loops for the threshold and refractory steps
    fs = rec.fs
    bp, _ = qrs._bandpass(rec.samples, fs, 0.5, 40.0)
    n_rms = max(qrs._samples_for(qrs.RMS_WINDOW_S, fs), 1)
    env = uniform_filter1d(np.square(bp), n_rms, mode="nearest")
    env = np.sqrt(np.maximum(env, 0.0))
    n_trail = max(qrs._samples_for(qrs.TRAIL_WINDOW_S, fs), 1)
    floor = qrs.TEST_FLOOR_FRACTION * float(np.max(env))
    n_ref = qrs._samples_for(REFRACTORY_TEST_S, fs)
    kept = []
    for c in qrs._local_maxima(env):
        threshold = qrs.TEST_THRESHOLD_FRACTION * max(
            env[max(c - n_trail + 1, 0):c + 1])
        if env[c] > max(threshold, floor) and (
                not kept or c - kept[-1] >= n_ref):
            kept.append(c)
    return np.asarray(kept, dtype=np.int64) / fs


@pytest.mark.parametrize("fs", [128.0, 250.0, 360.0])
@pytest.mark.parametrize("snr", [None, 10.0, 0.0, -5.0])
def test_test_detector_matches_the_centred_envelope_oracle(fs, snr):
    # The envelope is the trailing mean, each value placed at its
    # window's centre, so only the record's first threshold window plus
    # one envelope window may differ from a centred filter's peaks; the
    # last half window has no envelope. 360 Hz gives an even 36-sample
    # window, whose centre is n // 2 samples into it.
    spec = synth.SynthSpec(rhythm_program=[(60.0, "NSR"), (60.0, "AF")],
                           seed=6, fs=fs, noise_snr_db=snr)
    rec, _, _ = synth.synth_record(spec, patient_id="centre")
    records = [rec]
    if fs == 360.0 and snr == 10.0:
        # 12-bit samples at 200 adu/mV, as a format-212 file holds them
        digital = np.clip(np.round(rec.samples * 200.0), -2048, 2047)
        records.append(EcgRecord(patient_id="centre", samples=digital / 200.0,
                                 fs=fs))
    for rec in records:
        got, want = detect_test(rec).times, oracle_detect_test(rec)
        lo = qrs.TRAIL_WINDOW_S + qrs.RMS_WINDOW_S
        hi = rec.duration_s - qrs.RMS_WINDOW_S
        got = got[(got >= lo) & (got <= hi)]
        want = want[(want >= lo) & (want <= hi)]
        assert want.shape[0] > 100
        assert np.array_equal(got, want)


def test_test_detector_picks_candidates_a_block_at_a_time(monkeypatch):
    # blocks of 7 and 64 samples put many envelope maxima, and so beats,
    # on either side of a block edge
    spec = synth.SynthSpec(rhythm_program=[(60.0, "NSR"), (60.0, "AF")],
                           seed=6, fs=128.0, noise_snr_db=0.0)
    rec, _, _ = synth.synth_record(spec, patient_id="blocks")
    want = detect_test(rec).times
    for block in (7, 64):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        assert np.array_equal(detect_test(rec).times, want), block


@pytest.mark.parametrize("fs,seconds", [(128.0, 600.0), (1000.0, 80.0)])
def test_detectors_match_full_length_trailing_max(monkeypatch, fs,
                                                  seconds):
    # At 128 Hz the record spans more than two blocks of trailing_max;
    # at 1 kHz its windows of 151 and 2000 samples are not powers of two.
    spec = synth.SynthSpec(rhythm_program=[(seconds, "NSR")], seed=9,
                           fs=fs, noise_snr_db=10.0)
    rec, _, _ = synth.synth_record(spec, patient_id="blocks")
    monkeypatch.setattr(kernels, "_BLOCK", 1 << 15)
    assert rec.samples.shape[0] > 2 * kernels._BLOCK
    got = [detect(rec).times for detect in (detect_reference, detect_test)]

    monkeypatch.setattr(kernels, "trailing_max", full_length_trailing_max)
    for detect, times in zip((detect_reference, detect_test), got):
        want = detect(rec).times
        assert len(want) > seconds / 2
        assert times.dtype == want.dtype and np.array_equal(times, want)


# ---------------------------------------------------------------------------
# the blocked, in-place kernels against the full-length forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fs", [100.0, 128.0, 250.0, 360.0, 500.0])
@pytest.mark.parametrize("band", [(5.0, 15.0), (0.5, 40.0)])
def test_sosfiltfilt_matches_scipy(monkeypatch, fs, band):
    # the odd extension adds 3 * 5 samples at each end of a two-section
    # filter; lengths put the buffer just either side of block multiples
    sos = butter(2, list(band), btype="bandpass", output="sos", fs=fs)
    edge = 15
    rng = np.random.default_rng(int(fs))
    for block in (7, 64, kernels._BLOCK):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        sizes = {edge + 1, edge + 2}
        for k in (1, 2, 3):
            sizes |= {k * block - 2 * edge + d for d in (-1, 0, 1)}
        for size in sorted(s for s in sizes if s > edge):
            x = np.cumsum(rng.normal(size=size))
            want = scipy_sosfiltfilt(sos, x)
            got = qrs.sosfiltfilt(sos, x)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (block, size)
    with pytest.raises(ValueError):
        qrs.sosfiltfilt(sos, np.ones(edge))


@pytest.mark.parametrize("n", [1, 20, 57])
def test_blocked_integration_matches_loop(monkeypatch, n):
    # the sweep against the full-length forms, n the integration window:
    # blocks shorter than n and than h, h from 0 to longer than a block,
    # learning prefixes from one sample to the whole signal; a quarter
    # grid ties often, some candidates lie within h of either end, and on
    # the cubic the integrated signal rises to its maximum at sample 447,
    # the last of a block of 7 and of 64
    rng = np.random.default_rng(n)
    fs = 128.0
    default_block = kernels._BLOCK
    near = {"start": 0, "end": 0}
    for bp in (rng.normal(size=700), rng.integers(-4, 5, size=500) / 4.0,
               (np.arange(450) / 450.0) ** 3):
        for h in (0, 1, 13, 70):
            for n_learn in (1, 256, bp.shape[0]):
                want = oracle_integrate(bp, fs, n, h, n_learn)
                cand = want[0]
                near["start"] += int(np.sum(cand < h))
                near["end"] += int(np.sum(cand > bp.shape[0] - 1 - h))
                for block in (1, 7, 64, default_block):
                    monkeypatch.setattr(kernels, "_BLOCK", block)
                    got = qrs._integrate(bp, fs, n, h, n_learn)
                    for g, w in zip(got, want):
                        assert np.asarray(g).dtype == np.asarray(w).dtype
                        assert np.array_equal(g, w), (h, n_learn, block)
    assert near["start"] > 0 and near["end"] > 0


@pytest.mark.parametrize("n", [1, 20, 39])
def test_slope_matches_full_derivative(monkeypatch, n):
    # the slopes come from the sweep's own derivative blocks; values on
    # a coarse grid tie often, and with h = 0 every local maximum of the
    # integrated signal is a candidate, so candidates lie near both ends
    # of the record and beside many block edges
    rng = np.random.default_rng(n)
    fs = 128.0
    bp = rng.integers(-8, 9, size=600) / 8.0
    deriv = full_derivative(bp, fs)
    for block in (1, 7, 64, kernels._BLOCK):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        cand, _, got, _, _, _ = qrs._integrate(bp, fs, n, 0, 1)
        want = full_length_trailing_max(deriv, cand, n + 1)
        assert cand.shape[0] > 100
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), block


MEMORY_BOUNDS = {
    "detect_reference": (detect_reference, 2.0),
    "detect_test": (detect_test, 1.6),
    "threaded_detect": (functools.partial(pipeline._detect, threaded=True),
                        3.5),
}


@pytest.mark.parametrize("name", sorted(MEMORY_BOUNDS))
def test_detector_memory_is_bounded(name):
    # peak Python-tracked allocation over one hour at 128 Hz, as a
    # multiple of the record's own bytes (measured: 1.88x, 1.48x and, with
    # both detectors on two threads, 3.28-3.34x)
    detect, bound = MEMORY_BOUNDS[name]
    spec = synth.SynthSpec(rhythm_program=[(1800.0, "NSR"), (1800.0, "AF")],
                           seed=4, noise_snr_db=10.0)
    rec, _, _ = synth.synth_record(spec, patient_id="memory")
    detect(rec)
    tracemalloc.start()
    try:
        detect(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * rec.samples.nbytes
