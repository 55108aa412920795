"""Synthetic RR programs and waveform rendering."""

import numpy as np
import pytest

from afscreen import features, quality, synth
from afscreen.errors import ContractViolationError
from afscreen.qrs import detect_reference, detect_test
from afscreen.record_io import AF, OTHER
from afscreen.synth import SynthSpec, gen_ecg, gen_rr, synth_record

from conftest import make_series


def rr_of(program, seed=0, **kw):
    peaks, _ = gen_rr(SynthSpec(rhythm_program=program, seed=seed, **kw))
    return np.diff(peaks.times) * 1000.0


# ---------------------------------------------------------------------------
# RR programs


def test_nsr_rr_is_tight():
    rr = rr_of([(600.0, "NSR")])
    assert 700.0 < rr.mean() < 900.0
    # respiratory wobble plus 30 ms jitter stays well under CV 6%
    assert rr.std() / rr.mean() < 0.06


def test_af_rr_is_wide():
    rr = rr_of([(600.0, "AF")])
    assert rr.std() / rr.mean() > 0.15
    assert rr.min() >= 300.0
    assert rr.max() <= 2000.0


def test_af_windows_read_as_irregular():
    af = rr_of([(600.0, "AF")])[:59]
    nsr = rr_of([(600.0, "NSR")])[:59]
    cosen = features.feature_matrix(np.stack([af, nsr]), [1.0, 1.0])[:, 1]
    assert cosen[0] > cosen[1] + 1.0


def test_ectopy_program_trips_pace():
    # couplet deltas land deep in the paired quadrants ((-240, +480) ms
    # around an 800 ms base), so the surplus survives near-origin noise
    rr = rr_of([(120.0, "ECTOPY")])[:59]
    afe, orc, ire, pace = features.feature_matrix(rr[None, :], [1.0])[0, 2:6]
    assert pace >= 2


def test_ectopy_couplet_shape():
    rr = rr_of([(120.0, "ECTOPY")], seed=3, nsr_sd=0.0)
    # every third base interval splits into a short-long couplet, so the
    # series must contain intervals near 0.7x and 1.3x of the mean
    assert (rr < 0.75 * 800.0).any()
    assert (rr > 1.25 * 800.0).any()


def test_gen_rr_deterministic():
    a, _ = gen_rr(SynthSpec(rhythm_program=[(300.0, "AF")], seed=9))
    b, _ = gen_rr(SynthSpec(rhythm_program=[(300.0, "AF")], seed=9))
    np.testing.assert_array_equal(a.times, b.times)
    c, _ = gen_rr(SynthSpec(rhythm_program=[(300.0, "AF")], seed=10))
    assert a.times.shape != c.times.shape or not np.array_equal(a.times,
                                                                c.times)


def test_gen_rr_respects_segment_boundaries():
    program = [(100.0, "NSR"), (100.0, "AF"), (50.0, "NSR")]
    peaks, annotations = gen_rr(SynthSpec(rhythm_program=program, seed=1))
    assert annotations.episodes == [(0.0, 100.0, OTHER), (100.0, 200.0, AF),
                                    (200.0, 250.0, OTHER)]
    assert peaks.times[0] > 0.0
    assert peaks.times[-1] <= 250.0
    assert np.all(np.diff(peaks.times) > 0)


def test_gen_rr_annotations_follow_program_not_beats():
    _, annotations = gen_rr(SynthSpec(rhythm_program=[(60.0, "AF")], seed=2))
    assert annotations.span == (0.0, 60.0)


def test_spec_validation():
    with pytest.raises(ContractViolationError):
        SynthSpec(rhythm_program=[])
    with pytest.raises(ContractViolationError):
        SynthSpec(rhythm_program=[(0.0, "NSR")])
    with pytest.raises(ContractViolationError):
        SynthSpec(rhythm_program=[(60.0, "JAZZ")])
    with pytest.raises(ContractViolationError):
        SynthSpec(rhythm_program=[(60.0, "ECTOPY")], ectopy_k=1)


# ---------------------------------------------------------------------------
# waveform rendering


def test_gen_ecg_places_qrs_at_peaks():
    peaks = make_series([1.0, 2.0, 3.5])
    rec = gen_ecg(peaks, fs=128.0, duration_s=5.0)
    assert rec.samples.shape[0] == 640
    for t in peaks.times:
        i = int(round(t * 128.0))
        assert rec.samples[i] > 0.9


def test_gen_ecg_contains_p_and_t_bumps():
    peaks = make_series([5.0])
    rec = gen_ecg(peaks, fs=128.0, duration_s=10.0)
    p = rec.samples[int(round((5.0 - 0.180) * 128))]
    t_wave = rec.samples[int(round((5.0 + 0.280) * 128))]
    assert 0.05 < p < 0.2
    assert 0.1 < t_wave < 0.25


def test_gen_ecg_noiseless_is_deterministic_and_clean():
    peaks = make_series(np.arange(1.0, 9.0, 0.8))
    a = gen_ecg(peaks, fs=128.0, duration_s=10.0)
    b = gen_ecg(peaks, fs=128.0, duration_s=10.0, seed=123)
    # without noise the seed plays no role
    np.testing.assert_array_equal(a.samples, b.samples)


def test_gen_ecg_noise_level_tracks_snr():
    peaks = make_series(np.arange(1.0, 59.0, 0.8))
    clean = gen_ecg(peaks, fs=128.0, duration_s=60.0)
    rms = float(np.sqrt(np.mean(clean.samples ** 2)))
    for snr, factor in [(20.0, 0.1), (0.0, 1.0)]:
        noisy = gen_ecg(peaks, fs=128.0, duration_s=60.0,
                        noise_snr_db=snr, seed=5)
        noise = noisy.samples - clean.samples
        # noise sigma is the signal RMS scaled by 10^(-snr/20)
        assert noise.std() == pytest.approx(rms * factor, rel=0.05)


def test_gen_ecg_rejects_snr_on_silent_render():
    with pytest.raises(ContractViolationError):
        gen_ecg(make_series([]), fs=128.0, duration_s=10.0,
                noise_snr_db=20.0)


def test_gen_ecg_noise_deterministic_per_seed():
    peaks = make_series([1.0])
    a = gen_ecg(peaks, fs=128.0, duration_s=3.0, noise_snr_db=10.0, seed=4)
    b = gen_ecg(peaks, fs=128.0, duration_s=3.0, noise_snr_db=10.0, seed=4)
    c = gen_ecg(peaks, fs=128.0, duration_s=3.0, noise_snr_db=10.0, seed=5)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_gen_ecg_empty_needs_duration():
    with pytest.raises(ContractViolationError):
        gen_ecg(make_series([]), fs=128.0)


def test_gen_ecg_default_duration_pads_past_last_beat():
    rec = gen_ecg(make_series([1.0, 2.0]), fs=100.0)
    assert rec.samples.shape[0] == 300


def test_gen_ecg_bump_clipped_at_edges():
    # a beat right at the record edge must not crash or wrap
    rec = gen_ecg(make_series([0.01]), fs=128.0, duration_s=2.0)
    assert np.isfinite(rec.samples).all()
    assert rec.samples[0] > 0.0


def test_synth_record_ties_everything_together():
    spec = SynthSpec(rhythm_program=[(60.0, "NSR"), (60.0, "AF")], seed=6)
    record, peaks, annotations = synth_record(spec, patient_id="x1")
    assert record.patient_id == "x1"
    assert record.samples.shape[0] == int(120.0 * 128.0)
    assert annotations.episodes[1][2] == AF
    assert len(peaks) > 100
    # rendering is index-stable with respect to the peak list
    i = int(round(peaks.times[5] * record.fs))
    assert record.samples[i] > 0.8


def test_synth_record_deterministic():
    spec = SynthSpec(rhythm_program=[(60.0, "NSR")], seed=6,
                     noise_snr_db=15.0)
    a, _, _ = synth_record(spec)
    b, _, _ = synth_record(spec)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_noise_degrades_cross_detector_agreement():
    # at 0 dB the two detectors must drift apart: the median window
    # bsqi drops strictly below the noiseless median
    medians = {}
    for snr in (None, 0.0):
        spec = SynthSpec(rhythm_program=[(600.0, "NSR")], seed=13,
                         noise_snr_db=snr)
        rec, _, _ = synth_record(spec, patient_id="agree")
        windows = quality.window_partition(detect_reference(rec))
        bsqi = quality.window_bsqi(windows, detect_test(rec))
        assert len(bsqi) >= 5
        medians[snr] = float(np.median(bsqi))
    assert medians[0.0] < medians[None]
