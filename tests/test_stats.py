"""Metrics, AUROC, the non-inferiority test, and AHI stratification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afscreen import stats
from afscreen.errors import ConfigurationError, ContractViolationError
from afscreen.record_io import AF, NON_AF, UNKNOWN, PatientMeta
from afscreen.stats import (ConfusionCounts, auroc, metrics, noninferiority_ppv,
                            normal_cdf, stratify)


def oracle_auroc(pairs):
    """All positive-negative score comparisons, ties worth one half."""
    pos = [s for s, y in pairs if y]
    neg = [s for s, y in pairs if not y]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# confusion-matrix metrics


def test_metrics_patient_screening_cells():
    # a 2,890-patient screen: 70 with the condition, 103 flagged
    m = metrics(ConfusionCounts(tp=68, fp=35, tn=2785, fn=2))
    assert m.se == pytest.approx(68 / 70)
    assert m.sp == pytest.approx(2785 / 2820)
    assert m.ppv == pytest.approx(68 / 103)
    assert m.npv == pytest.approx(2785 / 2787)
    assert m.f1 == pytest.approx(2 * m.se * m.ppv / (m.se + m.ppv))
    assert (round(m.se, 2), round(m.sp, 2), round(m.ppv, 2),
            round(m.f1, 2)) == (0.97, 0.99, 0.66, 0.79)


def test_metrics_low_ahi_cells():
    m = metrics(ConfusionCounts(tp=24, fp=18, tn=1561, fn=1))
    assert (round(m.se, 2), round(m.sp, 2), round(m.ppv, 2),
            round(m.npv, 2), round(m.f1, 2)) == (0.96, 0.99, 0.57, 1.0, 0.72)
    assert m.ppv == pytest.approx(24 / 42)


def test_metrics_high_ahi_cells():
    m = metrics(ConfusionCounts(tp=44, fp=17, tn=1224, fn=1))
    assert (round(m.se, 2), round(m.sp, 2), round(m.ppv, 2),
            round(m.f1, 2)) == (0.98, 0.99, 0.72, 0.83)
    assert m.ppv == pytest.approx(44 / 61)


def test_metrics_window_level_cells():
    # held-out window classification tallies
    m = metrics(ConfusionCounts(tp=8077, fp=188, tn=10139, fn=393))
    assert (round(m.se, 2), round(m.sp, 2), round(m.ppv, 2),
            round(m.npv, 2), round(m.f1, 2)) == (0.95, 0.98, 0.98, 0.96, 0.97)


def test_metrics_undefined_denominators():
    m = metrics(ConfusionCounts())
    assert (m.se, m.sp, m.ppv, m.npv, m.f1) == (None,) * 5

    m = metrics(ConfusionCounts(tn=5, fp=5))
    assert m.se is None
    assert m.sp == 0.5
    assert m.f1 is None


def test_metrics_f1_undefined_when_both_rates_zero():
    m = metrics(ConfusionCounts(tp=0, fp=3, fn=4))
    assert m.se == 0.0
    assert m.ppv == 0.0
    assert m.f1 is None


def test_counts_reject_negatives_and_floats():
    with pytest.raises(ContractViolationError):
        ConfusionCounts(tp=-1)
    with pytest.raises(ContractViolationError):
        ConfusionCounts(fp=1.5)


def test_counts_total():
    assert ConfusionCounts(tp=1, fp=2, tn=3, fn=4).total == 10


# ---------------------------------------------------------------------------
# normal CDF


def test_normal_cdf_anchors():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)


@pytest.mark.parametrize("z", [-3.0, -0.7, 0.3, 2.5])
def test_normal_cdf_symmetry(z):
    assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# non-inferiority


def test_noninferiority_screening_strata():
    high = ConfusionCounts(tp=44, fp=17, tn=1224, fn=1)
    low = ConfusionCounts(tp=24, fp=18, tn=1561, fn=1)
    r = noninferiority_ppv(high, low, margin=0.03, alpha=0.05)
    assert r.z == pytest.approx(1.8829626925867144, abs=1e-12)
    assert r.p == pytest.approx(0.02985271202014783, abs=1e-12)
    assert r.noninferior is True


def test_noninferiority_alpha_is_strict():
    high = ConfusionCounts(tp=44, fp=17)
    low = ConfusionCounts(tp=24, fp=18)
    p = noninferiority_ppv(high, low).p
    assert noninferiority_ppv(high, low, alpha=p).noninferior is False
    assert noninferiority_ppv(high, low, alpha=p + 1e-12).noninferior is True


def test_noninferiority_monotone_in_margin():
    high = ConfusionCounts(tp=40, fp=20)
    low = ConfusionCounts(tp=30, fp=20)
    p_tight = noninferiority_ppv(high, low, margin=0.01).p
    p_loose = noninferiority_ppv(high, low, margin=0.05).p
    assert p_loose < p_tight


def test_noninferiority_empty_stratum_is_undefined():
    r = noninferiority_ppv(ConfusionCounts(), ConfusionCounts(tp=5, fp=5))
    assert (r.z, r.p, r.noninferior) == (None, None, None)
    assert r.margin == 0.03


def test_noninferiority_degenerate_variance():
    perfect = ConfusionCounts(tp=10, fp=0)
    r = noninferiority_ppv(perfect, perfect, margin=0.03)
    assert r.z == math.inf
    assert r.p == 0.0
    assert r.noninferior is True

    r = noninferiority_ppv(perfect, perfect, margin=0.0)
    assert r.z == 0.0
    assert r.p == 0.5
    assert r.noninferior is False


def test_noninferiority_wald_formula():
    high = ConfusionCounts(tp=9, fp=3)
    low = ConfusionCounts(tp=14, fp=2)
    r = noninferiority_ppv(high, low, margin=0.03)
    ph, pl = 9 / 12, 14 / 16
    want_z = (ph - pl + 0.03) / math.sqrt(ph * (1 - ph) / 12
                                          + pl * (1 - pl) / 16)
    assert r.z == pytest.approx(want_z, abs=1e-12)
    assert r.p == pytest.approx(1.0 - normal_cdf(want_z), abs=1e-12)


# ---------------------------------------------------------------------------
# AUROC


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0])
                          | st.floats(0.0, 1.0), st.booleans()),
                max_size=80))
def test_auroc_is_the_pairwise_count_correctly_rounded(pairs):
    # every positive-negative pair, a tie worth one half, counted
    # exactly; few distinct scores make ties common
    n1 = sum(y for _, y in pairs)
    n0 = len(pairs) - n1
    auc, points = auroc(pairs)
    if n1 == 0 or n0 == 0:
        assert (auc, points) == (None, [])
        return
    twice = sum(2 if p > q else 1 if p == q else 0
                for p, y in pairs if y for q, z in pairs if not z)
    assert auc == float(Fraction(twice, 2 * n1 * n0))


def test_auroc_perfect_and_reversed():
    pairs = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
    auc, _ = auroc(pairs)
    assert auc == 1.0
    auc, _ = auroc([(s, 1 - y) for s, y in pairs])
    assert auc == 0.0


def test_auroc_all_tied_scores():
    auc, _ = auroc([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)])
    assert auc == 0.5


def test_auroc_single_class_undefined():
    assert auroc([(0.5, 1), (0.9, 1)]) == (None, [])
    assert auroc([(0.5, 0)]) == (None, [])
    assert auroc([]) == (None, [])


def test_auroc_accepts_rhythm_labels():
    auc, _ = auroc([(0.9, AF), (0.1, NON_AF)])
    assert auc == 1.0


def test_auroc_small_example_points():
    auc, points = auroc([(0.9, 1), (0.8, 0), (0.7, 1)])
    assert auc == 0.5
    assert points == [(0.0, 0.0), (0.0, 0.5), (1.0, 0.5), (1.0, 1.0)]


@pytest.mark.parametrize("seed", range(10))
def test_auroc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    # integer scores force plenty of ties
    scores = rng.integers(0, 6, size=n).astype(float)
    pairs = list(zip(scores.tolist(), labels.tolist()))
    auc, points = auroc(pairs)
    assert auc == pytest.approx(oracle_auroc(pairs), abs=1e-12)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert xs == sorted(xs)
    assert ys == sorted(ys)


# ---------------------------------------------------------------------------
# stratification


def meta(label, ahi):
    return PatientMeta(ahi=ahi, reference_af_label=label)


def test_stratify_routes_cells():
    predictions = {"p1": True, "p2": False, "p3": True, "p4": False,
                   "p5": True, "p6": False}
    metas = {
        "p1": meta(AF, 30.0),      # tp, high
        "p2": meta(AF, 5.0),       # fn, low
        "p3": meta(NON_AF, 20.0),  # fp, high
        "p4": meta(NON_AF, None),  # tn, overall only
        "p5": meta(UNKNOWN, 40.0),  # skipped
        "p6": meta(NON_AF, 10.0),  # tn, low
    }
    report = stratify(predictions, metas)
    assert (report.overall.counts.tp, report.overall.counts.fp,
            report.overall.counts.tn, report.overall.counts.fn) == (1, 1, 2, 1)
    assert (report.low_ahi.counts.tp, report.low_ahi.counts.fp,
            report.low_ahi.counts.tn, report.low_ahi.counts.fn) == (0, 0, 1, 1)
    assert (report.high_ahi.counts.tp, report.high_ahi.counts.fp,
            report.high_ahi.counts.tn, report.high_ahi.counts.fn) == (1, 1,
                                                                      0, 0)
    assert report.n_missing_ahi == 1
    assert report.n_unlabeled == 1


def test_stratify_cutoff_is_inclusive_high():
    predictions = {"p": True}
    report = stratify(predictions, {"p": meta(AF, 15.0)})
    assert report.high_ahi.counts.tp == 1
    assert report.low_ahi.counts.total == 0

    report = stratify(predictions, {"p": meta(AF, 14.999)})
    assert report.low_ahi.counts.tp == 1


def test_stratify_wires_noninferiority():
    predictions = {}
    metas = {}
    k = 0
    for tp, fp, ahi in [(44, 17, 30.0), (24, 18, 5.0)]:
        for _ in range(tp):
            predictions[f"q{k}"] = True
            metas[f"q{k}"] = meta(AF, ahi)
            k += 1
        for _ in range(fp):
            predictions[f"q{k}"] = True
            metas[f"q{k}"] = meta(NON_AF, ahi)
            k += 1
    report = stratify(predictions, metas)
    assert report.noninferiority.z == pytest.approx(1.8829626925867144,
                                                    abs=1e-12)
    assert report.noninferiority.noninferior is True


@pytest.mark.parametrize("setting", [
    {"ahi_cutoff": math.nan}, {"ahi_cutoff": math.inf},
    {"margin": math.nan}, {"margin": -math.inf},
    {"alpha": 7.0}, {"alpha": math.nan}, {"alpha": 0.0}, {"alpha": 1.0}])
def test_stratify_refuses_settings_that_mislead(setting):
    # a nan cutoff put every patient in the high stratum; alpha 7 made
    # every test noninferior and a nan alpha none; a nan margin gave
    # z = 0 and p = 0.5
    metas = {"a": meta(AF, 20.0), "b": meta(NON_AF, 10.0)}
    with pytest.raises(ConfigurationError):
        stratify({"a": True, "b": True}, metas, **setting)


def test_stratify_rejects_unknown_patient():
    with pytest.raises(ConfigurationError) as err:
        stratify({"ghost": True}, {})
    assert "ghost" in str(err.value)


def test_stratify_insertion_order_irrelevant():
    metas = {"a": meta(AF, 20.0), "b": meta(NON_AF, 10.0)}
    fwd = stratify({"a": True, "b": False}, metas)
    rev = stratify({"b": False, "a": True}, metas)
    assert fwd == rev


def test_patient_meta_validation():
    with pytest.raises(ContractViolationError):
        PatientMeta(ahi=-1.0)
    with pytest.raises(ContractViolationError):
        PatientMeta(ahi=math.nan)
    with pytest.raises(ContractViolationError):
        PatientMeta(reference_af_label="perhaps")
