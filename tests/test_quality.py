"""Agreement scoring, window tiling, and recording exclusion rules."""

import numpy as np
import pytest

from afscreen import pipeline, quality
from afscreen.errors import ContractViolationError
from afscreen.qrs import RPeakSeries

from conftest import make_series


def make_test_series(times):
    return RPeakSeries(times=np.asarray(times, dtype=np.float64))


def oracle_bsqi(ref, test, tol):
    """Greedy one-to-one matching, closest pairs first."""
    pairs = sorted(
        ((abs(r - t), r + t, i, j)
         for i, r in enumerate(ref) for j, t in enumerate(test)
         if abs(r - t) <= tol),
    )
    used_r, used_t = set(), set()
    matched = 0
    for _, _, i, j in pairs:
        if i not in used_r and j not in used_t:
            used_r.add(i)
            used_t.add(j)
            matched += 1
    return matched / (len(ref) + len(test) - matched)


def oracle_greedy_match(ref, test, tol):
    cands = []
    for i, a in enumerate(ref):
        for j, b in enumerate(test):
            if abs(a - b) <= tol:
                cands.append((abs(a - b), a + b, i, j))
    cands.sort(key=lambda c: (c[0], c[1]))
    used_i, used_j = set(), set()
    matched = 0
    for _, _, i, j in cands:
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            matched += 1
    return matched


def match_count(ref, test, tol):
    """The matcher window_bsqi uses, on one whole segment."""
    return int(quality._matched(ref[None, :], test, np.array([0]),
                                np.array([test.shape[0]]), tol)[0])


def one_window_bsqi(ref, test, tolerance_s=quality.MATCH_TOLERANCE_S):
    """window_bsqi of ref as a one-row window against the test peaks."""
    ref = np.asarray(ref, dtype=np.float64)[None, :]
    return float(quality.window_bsqi(ref, make_test_series(test),
                                     tolerance_s)[0])


def span_of(ref, test):
    """The test peaks window_bsqi scores against the window ref."""
    return test[(test >= ref[0]) & (test <= ref[-1])]


# ---------------------------------------------------------------------------
# bsqi


def test_bsqi_identical_series():
    t = np.arange(60) * 0.8
    assert one_window_bsqi(t, t) == 1.0


def test_bsqi_one_side_empty():
    # a window always holds its own beats, so only the test side can be
    # empty: no test peaks at all, or none within the window's span
    t = np.arange(10) * 0.8
    assert one_window_bsqi(t, []) == 0.0
    assert one_window_bsqi(t, [t[-1] + 1.0]) == 0.0


def test_bsqi_hand_example():
    # Only 1.0 <-> 1.1 matches at 150 ms: 1 / (3 + 3 - 1).
    got = one_window_bsqi([1.0, 2.0, 3.0], [1.1, 1.5, 2.3])
    assert got == pytest.approx(0.2)


def test_bsqi_disjoint_is_zero():
    assert one_window_bsqi([1.0, 2.0, 3.0], [1.5, 2.5]) == 0.0


def test_bsqi_exact_tolerance_matches():
    # |dt| == tolerance counts as a match; quarter seconds are exact
    assert one_window_bsqi([1.0, 2.0], [1.25, 1.75], tolerance_s=0.25) == 1.0


def test_bsqi_unsorted_rejected():
    # peak series must strictly increase before they can be scored
    with pytest.raises(ContractViolationError):
        make_series([2.0, 1.0])
    with pytest.raises(ContractViolationError):
        one_window_bsqi([1.0, 2.0], [2.0, 1.0])


@pytest.mark.parametrize("seed", range(8))
def test_bsqi_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    ref = np.sort(rng.uniform(0.0, 30.0, size=rng.integers(1, 50)))
    test = np.sort(rng.uniform(0.0, 30.0, size=rng.integers(1, 50)))
    got = one_window_bsqi(ref, test)
    want = oracle_bsqi(ref.tolist(), span_of(ref, test).tolist(), 0.150)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_bsqi_symmetric(seed):
    # both series span [0, 20], so either one scored as the window sees
    # all of the other
    rng = np.random.default_rng(100 + seed)
    a = np.sort(rng.uniform(0.0, 20.0, size=30))
    b = np.sort(rng.uniform(0.0, 20.0, size=25))
    a[[0, -1]] = b[[0, -1]] = 0.0, 20.0
    assert one_window_bsqi(a, b) == one_window_bsqi(b, a)


@pytest.mark.parametrize("seed", range(8))
def test_bsqi_in_unit_interval(seed):
    rng = np.random.default_rng(200 + seed)
    a = np.sort(rng.uniform(0.0, 10.0, size=rng.integers(1, 40)))
    b = np.sort(rng.uniform(0.0, 10.0, size=rng.integers(1, 40)))
    assert 0.0 <= one_window_bsqi(a, b) <= 1.0


def test_bsqi_custom_tolerance():
    ref = [1.0, 2.0, 3.0]
    test = [1.25, 2.25]
    assert one_window_bsqi(ref, test, tolerance_s=0.125) == 0.0
    assert one_window_bsqi(ref, test, tolerance_s=0.25) == 2 / 3


# ---------------------------------------------------------------------------
# greedy matching


def test_greedy_match_matches_oracle():
    rng = np.random.default_rng(20250817)
    for trial in range(150):
        ref = np.sort(rng.uniform(0.0, 50.0, size=int(rng.integers(0, 70))))
        test = np.sort(rng.uniform(0.0, 50.0, size=int(rng.integers(0, 70))))
        want = oracle_greedy_match(ref.tolist(), test.tolist(), 0.15)
        assert match_count(ref, test, 0.15) == want


def test_greedy_match_is_one_to_one():
    # one test peak equidistant from many reference peaks: single match
    ref = np.arange(10, dtype=np.float64) * 0.01
    test = np.array([0.045])
    assert match_count(ref, test, 0.15) == 1


# ---------------------------------------------------------------------------
# window partitioning


def test_window_partition_drops_remainder():
    peaks = make_series(np.arange(123) * 0.8)
    windows = quality.window_partition(peaks)
    assert windows.shape == (2, 60)
    np.testing.assert_array_equal(windows[0], peaks.times[:60])
    np.testing.assert_array_equal(windows[1], peaks.times[60:120])


def test_window_partition_is_a_view():
    peaks = make_series(np.arange(123) * 0.8)
    assert np.shares_memory(quality.window_partition(peaks), peaks.times)


def test_window_partition_exact_multiple():
    peaks = make_series(np.arange(180) * 0.8)
    windows = quality.window_partition(peaks)
    assert len(windows) == 3
    assert windows[2, 0] == pytest.approx(120 * 0.8)
    assert windows[2, -1] == pytest.approx(179 * 0.8)


def test_window_partition_too_short_gives_nothing():
    peaks = make_series(np.arange(59) * 0.8)
    assert quality.window_partition(peaks).shape == (0, 60)


# ---------------------------------------------------------------------------
# window scoring


def score(ref_times, test_times):
    """(bsqi, included) of the reference windows, as the pipeline scores
    them."""
    _, bsqi, included, _ = pipeline._analyze(make_series(ref_times),
                                             make_test_series(test_times),
                                             pipeline.PipelineConfig())
    return bsqi, included


def test_score_windows_perfect_agreement():
    times = np.arange(120) * 0.8
    bsqi, included = score(times, times)
    assert bsqi.tolist() == [1.0, 1.0]
    assert included.all()


def test_score_windows_boundary_bsqi():
    # 48 matching test peaks against 60 reference beats: 48/60 == 0.80,
    # which sits exactly on the inclusive threshold.
    times = np.arange(60) * 0.8
    bsqi, included = score(times, times[:48])
    assert bsqi[0] == pytest.approx(0.8)
    assert included[0]

    # One match fewer: 47/60 < 0.80, excluded.
    bsqi, included = score(times, times[:47])
    assert bsqi[0] == pytest.approx(47 / 60)
    assert not included[0]


def test_score_windows_span_is_inclusive():
    times = np.arange(60) * 0.8
    # Test peaks exactly on the window edges must be scored, not dropped.
    bsqi, _ = score(times, [times[0], times[-1]])
    assert bsqi[0] == pytest.approx(2 / 60)


def test_score_windows_ignores_peaks_outside_span():
    times = np.arange(60) * 0.8
    bsqi, included = score(times, [times[-1] + 5.0, times[-1] + 6.0])
    assert bsqi[0] == 0.0
    assert not included[0]


def test_score_windows_stamps_indices():
    # only the middle window has test peaks: row i is window i
    times = np.arange(180) * 0.8
    bsqi, included = score(times, times[60:120])
    assert bsqi.tolist() == [0.0, 1.0, 0.0]
    assert included.tolist() == [False, True, False]


def test_rr_series_windows_all_score_one():
    _, bsqi, included, _ = pipeline._analyze(
        make_series(np.arange(130) * 0.8), None, pipeline.PipelineConfig())
    assert bsqi.tolist() == [1.0, 1.0]
    assert included.all()


def jittered_night(rng, n_beats):
    """Reference beats, and a test series that drops, moves and adds
    peaks, some of them near window edges."""
    ref = np.cumsum(rng.uniform(0.3, 1.5, size=n_beats))
    keep = rng.random(n_beats) > 0.15
    moved = ref[keep] + rng.normal(0.0, 0.08, size=int(keep.sum()))
    extra = rng.uniform(0.0, ref[-1] + 1.0, size=n_beats // 10)
    return ref, np.unique(np.concatenate([moved, extra]))


@pytest.mark.parametrize("seed", range(6))
def test_window_bsqi_matches_per_window_oracle(seed):
    # the one-pass match gives each window the score of matching its
    # own test segment alone
    rng = np.random.default_rng(300 + seed)
    ref, test = jittered_night(rng, int(rng.integers(60, 1300)))
    windows = quality.window_partition(make_series(ref))
    got = quality.window_bsqi(windows, make_test_series(test))
    want = [oracle_bsqi(w.tolist(),
                        test[(test >= w[0]) & (test <= w[-1])].tolist(),
                        0.150)
            for w in windows]
    assert got.shape == (len(windows),)
    np.testing.assert_array_equal(got.view(np.int64),
                                  np.array(want).view(np.int64))


def test_window_bsqi_equals_one_segment_bsqi():
    # scoring all windows in one pass gives each the score it gets alone
    rng = np.random.default_rng(7)
    ref, test = jittered_night(rng, 600)
    windows = quality.window_partition(make_series(ref))
    got = quality.window_bsqi(windows, make_test_series(test))
    for w, b in zip(windows, got.tolist()):
        assert one_window_bsqi(w, test) == b


# ---------------------------------------------------------------------------
# recording-level rules


def verdicts(n_bad, n_total):
    return np.arange(n_total) >= n_bad


def test_qc_too_few_peaks():
    peaks = make_series(np.arange(999) * 0.8)
    qc = quality.qc_recording(peaks, verdicts(0, 16))
    assert qc.status == quality.TOO_FEW_PEAKS
    assert qc.n_peaks_reference == 999


def test_qc_peak_count_boundary():
    peaks = make_series(np.arange(1000) * 0.8)
    qc = quality.qc_recording(peaks, verdicts(0, 16))
    assert qc.status == quality.ACCEPTED


def test_qc_peak_rule_precedes_noise_rule():
    peaks = make_series(np.arange(999) * 0.8)
    qc = quality.qc_recording(peaks, verdicts(16, 16))
    assert qc.status == quality.TOO_FEW_PEAKS


def test_qc_exclusion_rate_boundary():
    peaks = make_series(np.arange(1000) * 0.8)
    # Exactly 75% excluded is still accepted; the rule is strict.
    qc = quality.qc_recording(peaks, verdicts(3, 4))
    assert qc.exclusion_rate == pytest.approx(0.75)
    assert qc.status == quality.ACCEPTED

    qc = quality.qc_recording(peaks, verdicts(4, 5))
    assert qc.exclusion_rate == pytest.approx(0.8)
    assert qc.status == quality.TOO_NOISY


def test_qc_no_windows_is_too_few_peaks():
    # with no window there is no burden to give: the third rule
    peaks = make_series(np.arange(1000) * 0.8)
    qc = quality.qc_recording(peaks, [])
    assert qc.exclusion_rate == 0.0
    assert qc.status == quality.TOO_FEW_PEAKS


def test_qc_noise_rule_precedes_no_window_rule():
    peaks = make_series(np.arange(1000) * 0.8)
    assert quality.qc_recording(peaks, verdicts(16, 16)).status \
        == quality.TOO_NOISY
    # a rate the noise rule allows still leaves no window included
    qc = quality.qc_recording(peaks, verdicts(16, 16),
                              max_exclusion_rate=1.0)
    assert qc.exclusion_rate == 1.0
    assert qc.status == quality.TOO_FEW_PEAKS


def test_qc_rejects_unknown_status():
    with pytest.raises(ContractViolationError):
        quality.RecordingQC(n_peaks_reference=0, exclusion_rate=0.0,
                            status="fine")
