"""Nine RR features: entropy, Lorenz-plot census, and simple statistics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afscreen import features
from afscreen.errors import AfscreenError, ContractViolationError
from afscreen.features import FEATURE_NAMES, feature_matrix, featurize

COSEN = FEATURE_NAMES.index("cosen")
LORENZ = slice(FEATURE_NAMES.index("afe"), FEATURE_NAMES.index("pace") + 1)
STATS = slice(FEATURE_NAMES.index("avnn"), None)


def one_row(rr, r=30.0):
    """The features of rr as a one-window (1, 59) matrix."""
    return feature_matrix(np.asarray(rr, dtype=np.float64)[None, :], [1.0],
                          r)[0]


def oracle_cosen(rr, r=30.0):
    """Loop transcription of the entropy definition."""
    n = len(rr)
    b = a = 0
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if abs(rr[i] - rr[j]) <= r:
                b += 1
                if abs(rr[i + 1] - rr[j + 1]) <= r:
                    a += 1
    bb = 2.0 * b if b else 0.5
    aa = 2.0 * a if a else 0.5
    return (math.log(bb) - math.log(aa)
            + math.log(2.0 * r) - math.log(sum(rr) / n))


def oracle_lorenz(rr):
    """Dict-of-bins transcription of the Lorenz-plot census."""
    dr = [rr[i + 1] - rr[i] for i in range(len(rr) - 1)]
    pts = [(dr[i], dr[i - 1]) for i in range(1, len(dr))]

    def binof(v):
        return min(max(int(math.floor((v + 600.0) / 40.0)), 0), 29)

    bins = set((binof(x), binof(y)) for x, y in pts)
    o = 15
    orc = sum(1 for x, y in pts if binof(x) == o and binof(y) == o)
    ire = len(bins) - (1 if orc > 0 else 0)
    q1 = sum(1 for bx, by in bins if bx >= o and by >= o) - (1 if orc else 0)
    q2 = sum(1 for bx, by in bins if bx < o and by >= o)
    q3 = sum(1 for bx, by in bins if bx < o and by < o)
    q4 = sum(1 for bx, by in bins if bx >= o and by < o)
    pace = max(0, (q2 + q4) - (q1 + q3))
    return ire - orc - 2 * pace, orc, ire, pace


def featurize_times(times, bsqi=1.0):
    """featurize one window of beat times, as the pipeline does."""
    return featurize(np.asarray(times, dtype=np.float64)[None, :], [bsqi])[0]


def window_from_rr(rr_ms):
    return np.concatenate([[10.0], 10.0 + np.cumsum(rr_ms) / 1000.0])


# A window built to light up every Lorenz bin it touches exactly once:
# 57 plot points land in 57 distinct non-origin bins.
SATURATED_RR = np.array([
    800, 780, 760, 820, 880, 820, 760, 860, 960, 860, 760, 900, 1040,
    900, 760, 940, 1120, 940, 760, 980, 1200, 980, 760, 1020, 1280,
    1020, 760, 1060, 1360, 1060, 760, 1100, 1440, 1100, 760, 1140,
    1520, 1140, 760, 1180, 1600, 1180, 760, 1220, 1680, 1220, 760,
    1260, 1760, 1260, 760, 1300, 1840, 1300, 760, 1340, 1920, 1340,
    760], dtype=np.float64)


# ---------------------------------------------------------------------------
# entropy


def test_cosen_constant_series():
    rr = np.full(59, 800.0)
    # perfectly regular: entropy term vanishes, leaving ln(2r) - ln(mean)
    assert one_row(rr)[COSEN] == pytest.approx(math.log(60.0 / 800.0),
                                              abs=1e-12)


def test_cosen_zero_match_counts_use_half():
    rr = 400.0 + 100.0 * np.arange(59)
    want = math.log(60.0) - math.log(float(rr.mean()))
    assert one_row(rr)[COSEN] == pytest.approx(want, abs=1e-12)


def test_cosen_zero_extension_count():
    # exactly one template match whose continuation diverges: b=2, a=0.5
    rr = 400.0 + 100.0 * np.arange(59)
    rr[5] = 400.0
    want = (math.log(2.0) - math.log(0.5)
            + math.log(60.0) - math.log(float(rr.mean())))
    assert one_row(rr)[COSEN] == pytest.approx(want, abs=1e-12)


def test_cosen_alternating_is_regular():
    # a strict two-beat cycle has zero sample entropy
    rr = np.array([600.0, 1000.0] * 30)[:59]
    assert one_row(rr)[COSEN] == pytest.approx(
        math.log(60.0) - math.log(rr.mean()), abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_cosen_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    rr = rng.integers(400, 1400, size=59).astype(np.float64)
    assert one_row(rr)[COSEN] == pytest.approx(oracle_cosen(rr.tolist()),
                                              abs=1e-12)


@pytest.mark.parametrize("seed", [0, 7])
def test_cosen_unit_invariance(seed):
    # the same series expressed in seconds with r rescaled gives the same
    # value; integer millisecond grid with half-integer r keeps every
    # comparison away from the boundary
    rng = np.random.default_rng(seed)
    rr_ms = rng.integers(400, 1400, size=59).astype(np.float64)
    a = one_row(rr_ms, r=30.5)[COSEN]
    b = one_row(rr_ms / 1000.0, r=0.0305)[COSEN]
    assert a == pytest.approx(b, abs=1e-10)


def test_cosen_af_like_exceeds_regular():
    rng = np.random.default_rng(42)
    irregular = rng.uniform(400.0, 1200.0, size=59)
    regular = np.full(59, 800.0)
    assert one_row(irregular)[COSEN] > one_row(regular)[COSEN] + 1.0


def test_cosen_rejects_wrong_length():
    with pytest.raises(ContractViolationError):
        one_row(np.full(58, 800.0))
    with pytest.raises(ContractViolationError):
        one_row(np.full(60, 800.0))


def test_cosen_rejects_nonpositive():
    rr = np.full(59, 800.0)
    rr[10] = 0.0
    with pytest.raises(ContractViolationError):
        one_row(rr)


# ---------------------------------------------------------------------------
# Lorenz-plot census


def test_lorenz_constant_series():
    rr = np.full(59, 800.0)
    # all 57 points in the origin bin
    assert tuple(one_row(rr)[LORENZ]) == (-57, 57, 0, 0)


def test_lorenz_alternating_bigeminy_pattern():
    # strict alternation puts every point in one of two mirrored bins
    # across the axes, the signature the pace count is built to catch
    rr = np.array([600.0, 1000.0] * 30)[:59]
    assert tuple(one_row(rr)[LORENZ]) == (-2, 0, 2, 2)


def test_lorenz_single_premature_beat():
    rr = np.full(59, 800.0)
    rr[28] = 600.0
    rr[29] = 1000.0
    # one early beat scatters four points off origin, all in the
    # paired-quadrant positions
    assert tuple(one_row(rr)[LORENZ]) == (-57, 53, 4, 4)


def test_lorenz_saturated_scatter():
    assert tuple(one_row(SATURATED_RR)[LORENZ]) == (57, 0, 57, 0)


def test_lorenz_saturated_scatter_matches_oracle():
    assert tuple(one_row(SATURATED_RR)[LORENZ]) == oracle_lorenz(
        SATURATED_RR.tolist())


def test_lorenz_out_of_range_clips_to_border():
    rr = np.full(59, 800.0)
    rr[30] = 2400.0
    # deltas of +-1600 ms clip into the outermost bins instead of
    # leaving the plot
    afe, orc, ire, pace = one_row(rr)[LORENZ]
    assert (afe, orc, ire, pace) == oracle_lorenz(rr.tolist())
    assert ire > 0


@pytest.mark.parametrize("seed", range(10))
def test_lorenz_matches_brute_force(seed):
    rng = np.random.default_rng(1000 + seed)
    rr = rng.integers(300, 2200, size=59).astype(np.float64)
    assert tuple(one_row(rr)[LORENZ]) == oracle_lorenz(rr.tolist())


def test_lorenz_rejects_wrong_length():
    with pytest.raises(ContractViolationError):
        one_row(np.full(10, 800.0))


# ---------------------------------------------------------------------------
# simple statistics


def test_simple_stats_hand_values():
    rr = np.array([600.0, 1000.0] * 30)[:59]
    avnn, minrr, medhr = one_row(rr)[STATS]
    assert avnn == pytest.approx(47000.0 / 59.0)
    assert minrr == 600.0
    # 30 short vs 29 long intervals: the middle of 59 sorted values is 600
    assert medhr == pytest.approx(100.0)


def test_simple_stats_constant():
    assert tuple(one_row(np.full(59, 800.0))[STATS]) == (800.0, 800.0, 75.0)


def test_simple_stats_median_is_order_statistic():
    rr = np.linspace(500.0, 1500.0, 59)
    _, _, medhr = one_row(rr)[STATS]
    assert medhr == pytest.approx(60000.0 / np.sort(rr)[29])


@pytest.mark.parametrize("seed", range(5))
def test_simple_stats_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    rr = rng.uniform(400.0, 1400.0, size=59)
    shuffled = rng.permutation(rr)
    assert one_row(rr)[STATS].tolist() == pytest.approx(
        one_row(shuffled)[STATS].tolist())


# ---------------------------------------------------------------------------
# assembly


def test_featurize_constant_window():
    # 750 ms is exact in binary, so the times carry no rounding fuzz and
    # every delta-RR is exactly zero
    vec = featurize_times(10.0 + np.arange(60) * 0.75)
    want = np.array([1.0, math.log(60.0 / 750.0), -57.0, 57.0, 0.0, 0.0,
                     750.0, 750.0, 80.0])
    np.testing.assert_allclose(vec, want, atol=1e-9)


def test_featurize_carries_bsqi():
    vec = featurize_times(window_from_rr(np.full(59, 800.0)), bsqi=0.85)
    assert vec[0] == 0.85


def test_featurize_accepts_threshold_exactly():
    vec = featurize_times(window_from_rr(np.full(59, 800.0)), bsqi=0.8)
    assert vec[0] == 0.8


def test_featurize_rejects_wrong_beat_count():
    with pytest.raises(ContractViolationError):
        featurize_times(window_from_rr(np.full(50, 800.0)))


def test_featurize_times_only_enter_through_rr():
    # beat spacings chosen as exact multiples of 1/32 s so that shifting
    # the absolute times cannot perturb the differences
    rng = np.random.default_rng(5)
    rr_s = rng.integers(20, 45, size=59) / 32.0
    times = np.concatenate([[0.0], np.cumsum(rr_s)])
    a = featurize_times(times)
    b = featurize_times(times + 3600.0)
    np.testing.assert_allclose(a, b, atol=0)


def test_feature_order_is_fixed():
    assert FEATURE_NAMES == ("bsqi", "cosen", "afe", "orc", "ire", "pace",
                             "avnn", "minrr", "medhr")
    assert len(features.feature_order_checksum()) == 64


# ---------------------------------------------------------------------------
# batched features


def oracle_feature_row(rr, bsqi):
    """Plain-loop copy of the per-window feature code that feature_matrix
    replaced; np.mean is kept for the mean so every bit matches."""
    x = rr.tolist()
    b = a = 0
    for i in range(58):
        for j in range(i + 1, 58):
            if abs(x[i] - x[j]) <= 30.0:
                b += 1
                if abs(x[i + 1] - x[j + 1]) <= 30.0:
                    a += 1
    mean = float(np.mean(rr))
    bb = 2.0 * b if b > 0 else 0.5
    aa = 2.0 * a if a > 0 else 0.5
    sampen = math.log(bb) - math.log(aa)
    c = sampen + math.log(2.0 * 30.0) - math.log(mean)

    dr = [x[k + 1] - x[k] for k in range(58)]
    hist = np.zeros((30, 30), dtype=np.int64)
    for k in range(57):
        ix = min(max(int(np.floor((dr[k + 1] + 600.0) / 40.0)), 0), 29)
        iy = min(max(int(np.floor((dr[k] + 600.0) / 40.0)), 0), 29)
        hist[ix, iy] += 1
    o = 15
    orc = int(hist[o, o])
    nonempty = hist > 0
    ire = int(np.count_nonzero(nonempty)) - (1 if orc > 0 else 0)
    q1 = int(np.count_nonzero(nonempty[o:, o:])) - (1 if orc > 0 else 0)
    q2 = int(np.count_nonzero(nonempty[:o, o:]))
    q3 = int(np.count_nonzero(nonempty[:o, :o]))
    q4 = int(np.count_nonzero(nonempty[o:, :o]))
    pace = max(0, (q2 + q4) - (q1 + q3))
    afe = ire - orc - 2 * pace

    median = sorted(x)[29]
    return np.array([bsqi, c, afe, orc, ire, pace, mean, min(x),
                     60000.0 / median], dtype=np.float64)


BATCH_KINDS = ("random", "grid", "edges", "saturated", "constant")


def batch_of(kind, n, rng):
    if kind == "random":
        return rng.uniform(300.0, 1800.0, size=(n, 59))
    if kind == "grid":
        # 1/128 s sampling grid over a narrow range: many exact ties
        return rng.integers(90, 110, size=(n, 59)) * (1000.0 / 128.0)
    if kind == "edges":
        # 10 ms grid: differences land exactly on the 30 ms tolerance and
        # on the 40 ms Lorenz bin edges
        return rng.integers(70, 90, size=(n, 59)) * 10.0
    if kind == "saturated":
        rows = [SATURATED_RR[::-1] if i % 2 else SATURATED_RR
                for i in range(n)]
        return np.array(rows).reshape(n, 59) + 0.125 * np.arange(n)[:, None]
    return np.repeat(400.0 + 7.8125 * np.arange(n)[:, None], 59, axis=1)


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33])
@pytest.mark.parametrize("kind", BATCH_KINDS)
def test_batched_features_match_per_window_oracle(kind, n):
    rng = np.random.default_rng(10 * n + BATCH_KINDS.index(kind))
    rr = batch_of(kind, n, rng)
    bsqi = rng.uniform(0.8, 1.0, size=n)
    got = feature_matrix(rr, bsqi)
    want = np.array([oracle_feature_row(rr[i], bsqi[i]) for i in range(n)])
    assert got.shape == (n, len(FEATURE_NAMES))
    np.testing.assert_array_equal(got.view(np.int64),
                                  want.reshape(n, 9).view(np.int64))


# ---------------------------------------------------------------------------
# extreme intervals: finite rows or a refusal, and no warning


def test_window_of_overflowing_intervals_is_refused_by_number():
    # 59 intervals of 1e307 ms sum past the float range: avnn is inf
    # and COSEn -inf, so the second window is refused by its number
    rr = np.full((3, 59), 800.0)
    rr[1] = 1e307
    message = "^window 1 has non-finite features: cosen, avnn$"
    with pytest.raises(ContractViolationError, match=message):
        feature_matrix(rr, np.ones(3))


def test_window_rr_ms_overflow_is_refused_without_a_warning():
    # beats 2.6e305 s apart are 2.6e308 ms apart: every interval is inf
    times = 1.7e308 * np.linspace(-1.0, 1.0, 60)[None, :]
    rr = features.window_rr_ms(times)
    assert np.isposinf(rr).all()
    with pytest.raises(ContractViolationError, match="avnn, minrr"):
        featurize(times, [1.0])


def test_differences_past_the_int_range_clip_to_the_border_bins():
    # 1e300 ms intervals between 800 ms ones: their differences bin far
    # past int64, and land in the border bins as any out-of-range one
    rr = np.full(59, 800.0)
    rr[10::20] = 1e300
    row = one_row(rr)
    assert np.isfinite(row).all()
    assert tuple(row[LORENZ]) == oracle_lorenz(rr.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=0.0, exclude_min=True),
                         min_size=59, max_size=59),
                min_size=1, max_size=3))
def test_feature_matrix_on_any_positive_intervals(rows):
    # every positive float, subnormals and inf included: finite rows or
    # an AfscreenError, and no floating-point warning either way
    rr = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = feature_matrix(rr, np.ones(rr.shape[0]))
        except AfscreenError:
            return
    assert out.shape == (rr.shape[0], len(FEATURE_NAMES))
    assert np.isfinite(out).all()
