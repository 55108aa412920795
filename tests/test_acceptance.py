"""Acceptance gate: the externally meaningful promises of this package.

Each test pins one end-to-end property: reproduction of the frozen
screening summary tables from their raw counts, the strata PPV
non-inferiority result, exact agreement between the window features
and naive brute-force transcriptions, detector accuracy on rendered
ECG, a full synthetic screening cohort, exclusion-rule boundaries, and
byte-level determinism of CLI artifacts. Wall-clock bounds are part of
the contract where stated.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from afscreen import features, forest, pipeline, quality, stats, synth
from afscreen.cli import main
from afscreen.features import (LORENZ_BIN_MS, LORENZ_HALF_EXTENT_MS,
                               LORENZ_NBINS)
from afscreen.pipeline import PipelineConfig
from afscreen.qrs import detect_reference
from afscreen.quality import (ACCEPTED, TOO_FEW_PEAKS, TOO_NOISY,
                              qc_recording)
from afscreen.record_io import AF, NON_AF, write_rr_csv
from afscreen.stats import ConfusionCounts, metrics, noninferiority_ppv
from afscreen.synth import SynthSpec, gen_rr, synth_record

from conftest import make_series


def shown(ratio: float, cell: float) -> bool:
    """Does a two-decimal summary cell reproduce this exact ratio?

    Published tallies mix conventions: most cells round half up, a few
    (near-perfect NPVs, one specificity) are floored so an imperfect
    ratio never displays as 1.00. Either way the cell pins the ratio
    to within 0.01, which is what we hold the arithmetic to.
    """
    return round(ratio, 2) == cell or math.floor(ratio * 100) / 100 == cell


# ---------------------------------------------------------------------------
# 1. summary-table arithmetic from raw counts


# patient-level screen of 2,890 individuals, split by a comorbidity
# stratum: (tp, fp, tn, fn) -> (se, sp, ppv, npv, f1)
PATIENT_TABLE = [
    ((68, 35, 2785, 2), (0.97, 0.99, 0.66, 0.99, 0.79)),
    ((24, 18, 1561, 1), (0.96, 0.99, 0.57, 0.99, 0.72)),
    ((44, 17, 1224, 1), (0.98, 0.99, 0.72, 0.99, 0.83)),
]

# window-level classification tallies: held-out set and the pooled
# refit over all three source databases
WINDOW_TABLE = [
    ((8077, 188, 10139, 393), (0.95, 0.98, 0.98, 0.96, 0.97)),
    ((83780, 13902, 99164, 2941), (0.97, 0.87, 0.86, 0.97, 0.91)),
]


def test_summary_table_arithmetic():
    t0 = time.perf_counter()
    for counts, cells in PATIENT_TABLE + WINDOW_TABLE:
        tp, fp, tn, fn = counts
        m = metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        got = (m.se, m.sp, m.ppv, m.npv, m.f1)
        assert all(v is not None for v in got)
        for ratio, cell in zip(got, cells):
            assert shown(ratio, cell), (counts, ratio, cell)
    # the training-set tally rows come from slightly different window
    # populations and do not share one confusion matrix (the npv row
    # is offset by 69 windows); each row still reproduces its cell
    assert shown(75643 / 78251, 0.97)
    assert shown(89028 / 102739, 0.87)
    assert shown(75643 / 89423, 0.85)
    assert shown(88959 / 91567, 0.97)
    assert time.perf_counter() - t0 < 1.0


def test_high_stratum_ppv_corroborated_by_f1():
    # the one cell whose printed source value (0.75) contradicts its
    # own count ratio; the f1 printed alongside is only consistent
    # with the ratio, so the counts win
    m = metrics(ConfusionCounts(tp=44, fp=17, tn=1224, fn=1))
    assert m.ppv == pytest.approx(44 / 61)
    assert round(m.ppv, 2) == 0.72
    assert round(m.f1, 2) == 0.83
    wrong_f1 = 2 * m.se * 0.75 / (m.se + 0.75)
    assert round(wrong_f1, 2) != 0.83


# ---------------------------------------------------------------------------
# 2. PPV non-inferiority between strata


def test_ppv_noninferiority_between_strata():
    high = ConfusionCounts(tp=44, fp=17, tn=1224, fn=1)
    low = ConfusionCounts(tp=24, fp=18, tn=1561, fn=1)
    res = noninferiority_ppv(high, low, margin=0.03)

    # hand-computed one-sided Wald oracle, written out in full
    p_h, n_h = 44 / 61, 61
    p_l, n_l = 24 / 42, 42
    z = (p_h - p_l + 0.03) / math.sqrt(
        p_h * (1 - p_h) / n_h + p_l * (1 - p_l) / n_l)
    p = 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    assert res.p == pytest.approx(p, abs=1e-6)
    assert res.z == pytest.approx(z, abs=1e-9)
    assert 0.025 <= res.p <= 0.035
    assert res.noninferior is True
    # frozen values so a regression cannot hide inside the oracle
    assert res.z == pytest.approx(1.8829626925867144, abs=1e-12)
    assert res.p == pytest.approx(0.02985271202014783, abs=1e-12)


# ---------------------------------------------------------------------------
# 3. window features vs brute-force transcriptions


def brute_sampen_counts(x, r):
    # O(n^2) template matching straight from the definition: m=1
    # matches, then the length-2 extension, Chebyshev distance
    n = len(x)
    b = a = 0
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if abs(x[i] - x[j]) <= r:
                b += 1
                if abs(x[i + 1] - x[j + 1]) <= r:
                    a += 1
    return b, a


def brute_lorenz(rr):
    # per-point dict-of-bins rebuild of the delta-RR scatter
    o = int(LORENZ_HALF_EXTENT_MS // LORENZ_BIN_MS)
    dr = np.diff(np.asarray(rr, dtype=np.float64))
    bins = {}
    for k in range(dr.shape[0] - 1):
        ix = int(math.floor((dr[k + 1] + LORENZ_HALF_EXTENT_MS)
                            / LORENZ_BIN_MS))
        iy = int(math.floor((dr[k] + LORENZ_HALF_EXTENT_MS)
                            / LORENZ_BIN_MS))
        ix = min(max(ix, 0), LORENZ_NBINS - 1)
        iy = min(max(iy, 0), LORENZ_NBINS - 1)
        bins[(ix, iy)] = bins.get((ix, iy), 0) + 1
    orc = bins.get((o, o), 0)
    ire = len(bins) - (1 if orc > 0 else 0)
    q1 = sum(1 for (ix, iy) in bins if ix >= o and iy >= o)
    q1 -= 1 if orc > 0 else 0
    q2 = sum(1 for (ix, iy) in bins if ix < o and iy >= o)
    q3 = sum(1 for (ix, iy) in bins if ix < o and iy < o)
    q4 = sum(1 for (ix, iy) in bins if ix >= o and iy < o)
    pace = max(0, (q2 + q4) - (q1 + q3))
    return ire - orc - 2 * pace, orc, ire, pace


def test_kernels_match_brute_force_exactly():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rr = rng.uniform(300.0, 2000.0, size=59)
        r = float(rng.uniform(5.0, 100.0))

        # brute-force i < j counts; cosen counts ordered pairs, twice as
        # many, with 0.5 standing in for a zero count
        b, a = brute_sampen_counts(rr, r)
        row = features.feature_matrix(rr[None, :], [1.0], r)[0]
        assert row[1] == (
            math.log(2 * b or 0.5) - math.log(2 * a or 0.5)
            + math.log(2.0 * r) - math.log(float(np.mean(rr))))

        assert tuple(row[2:6]) == brute_lorenz(rr)
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4. detector accuracy on rendered ECG


def score_detection(truth, detected, tol=0.050):
    """(se, ppv) under greedy one-to-one matching within tol seconds."""
    det = np.asarray(detected, dtype=np.float64)
    used = np.zeros(det.shape[0], dtype=bool)
    matched = 0
    for t in truth:
        lo = int(np.searchsorted(det, t - tol))
        hi = int(np.searchsorted(det, t + tol))
        best, best_dt = -1, tol + 1.0
        for j in range(lo, hi):
            dt = abs(float(det[j]) - float(t))
            if not used[j] and dt <= tol and dt < best_dt:
                best, best_dt = j, dt
        if best >= 0:
            used[best] = True
            matched += 1
    return matched / len(truth), matched / det.shape[0]


@pytest.mark.parametrize("snr_db,floor", [(None, 0.999), (10.0, 0.99)])
def test_detector_accuracy_on_rendered_ecg(snr_db, floor):
    # 30 minutes at a nominal 60 bpm
    spec = SynthSpec(rhythm_program=[(1800.0, "NSR")], seed=42,
                     mean_rr=1000.0, noise_snr_db=snr_db)
    record, truth, _ = synth_record(spec, patient_id="render")
    got = detect_reference(record)
    se, ppv = score_detection(truth.times, got.times)
    assert se >= floor
    assert ppv >= floor


# ---------------------------------------------------------------------------
# 5. desk-scale synthetic screening cohort


def _train_cohort_model() -> forest.ForestModel:
    # disjoint training patients: persistent AF, steady NSR, and
    # couplet-heavy rhythms labeled non-AF so the model learns the
    # difference between ectopy and true irregularity
    programs = {
        "tr_af0": ([(1200.0, "AF")], 10),
        "tr_af1": ([(1200.0, "AF")], 11),
        "tr_af2": ([(1200.0, "AF")], 12),
        "tr_n0": ([(1200.0, "NSR")], 13),
        "tr_n1": ([(1200.0, "NSR")], 14),
        "tr_n2": ([(1200.0, "NSR")], 15),
        "tr_e0": ([(1200.0, "ECTOPY")], 16),
        "tr_e1": ([(1200.0, "ECTOPY")], 17),
    }
    Xs, ys = [], []
    for program, seed in programs.values():
        peaks, annotations = gen_rr(SynthSpec(rhythm_program=program,
                                              seed=seed))
        windows = quality.window_partition(peaks)
        X, y, _ = forest.label_windows(windows, np.ones(len(windows)),
                                       annotations)
        Xs.append(X)
        ys.append(y)
    return forest.train(np.concatenate(Xs), np.concatenate(ys),
                        n_estimators=20, max_depth=3, seed=0)


def test_synthetic_screening_cohort():
    t0 = time.perf_counter()
    model = _train_cohort_model()
    config = PipelineConfig()

    paf_program = [(528.0, "NSR"), (144.0, "AF"), (528.0, "NSR")]
    cohort = (
        [("af", i, [(1200.0, "AF")]) for i in range(15)]
        + [("paf", i, paf_program) for i in range(5)]
        + [("nsr", i, [(1200.0, "NSR")]) for i in range(15)]
        + [("ect", i, [(1200.0, "ECTOPY")]) for i in range(5)]
    )
    results = {}
    for group, i, program in cohort:
        spec = SynthSpec(rhythm_program=program, seed=1000 + 37 * i
                         + {"af": 0, "paf": 1, "nsr": 2, "ect": 3}[group])
        peaks, _ = gen_rr(spec)
        r = pipeline._classify(f"{group}{i:02d}", peaks, None, model, config)
        assert r.qc.status == ACCEPTED
        results[(group, i)] = r

    # every persistent-AF patient flagged: patient-level se of 1.0
    assert all(results[("af", i)].prominent_af for i in range(15))

    # intermittent AF at a 12 percent duty cycle stays under the 20
    # percent burden bar: detected but reported non-prominent, the
    # known miss mode of a burden-thresholded screen
    for i in range(5):
        r = results[("paf", i)]
        assert r.prominent_af is False
        assert 0.0 < r.afb < 20.0

    # specificity over the 20 non-AF patients; couplet-heavy rhythms
    # are the permitted false-positive source
    fp = sum(bool(results[(g, i)].prominent_af)
             for g in ("nsr", "ect")
             for i in range(15 if g == "nsr" else 5))
    assert fp <= 4
    assert not any(results[("nsr", i)].prominent_af for i in range(15))

    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 6. exclusion-rule boundaries


def test_exclusion_rule_boundaries():
    few = make_series(np.arange(900) * 0.8)
    assert qc_recording(few, [], 1000, 0.75).status == TOO_FEW_PEAKS

    enough = make_series(np.arange(6000) * 0.8)

    def qualities(n_bad):
        return np.arange(100) >= n_bad

    assert qc_recording(enough, qualities(76), 1000, 0.75).status == TOO_NOISY
    assert qc_recording(enough, qualities(75), 1000, 0.75).status == ACCEPTED


# ---------------------------------------------------------------------------
# 7. byte-level determinism of CLI artifacts


def _write_cohort(root: Path):
    root.mkdir(parents=True, exist_ok=True)
    # every training patient mixes both rhythms so patient-wise CV
    # folds always see both classes
    train_rows = ["path,format,patient_id,ahi,reference_label,annotations"]
    for pid, seed in [("t0", 20), ("t1", 21), ("t2", 22), ("t3", 23)]:
        program = [(450.0, "NSR"), (450.0, "AF")]
        peaks, ann = gen_rr(SynthSpec(rhythm_program=program, seed=seed))
        (root / f"{pid}.csv").write_text(write_rr_csv(peaks, ann))
        train_rows.append(f"{pid}.csv,rr,{pid},,,")
    (root / "train.csv").write_text("\n".join(train_rows) + "\n")

    screen_rows = ["path,format,patient_id,ahi,reference_label,annotations"]
    for pid, rhythm, seed, label in [("sa0", "AF", 30, AF),
                                     ("sn0", "NSR", 31, NON_AF),
                                     ("se0", "ECTOPY", 32, NON_AF)]:
        peaks, _ = gen_rr(SynthSpec(rhythm_program=[(900.0, rhythm)],
                                    seed=seed))
        (root / f"{pid}.csv").write_text(write_rr_csv(peaks))
        screen_rows.append(f"{pid}.csv,rr,{pid},10,{label},")
    (root / "screen.csv").write_text("\n".join(screen_rows) + "\n")


def _read_tree(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_cli_artifacts_are_deterministic(tmp_path):
    _write_cohort(tmp_path / "data")
    manifest = str(tmp_path / "data" / "train.csv")
    screen = str(tmp_path / "data" / "screen.csv")

    train_argv = ["train", "--manifest", manifest, "--grid", "10x2",
                  "--cv-folds", "2", "--seed", "5", "--min-peaks", "100"]
    assert main(train_argv + ["--out", str(tmp_path / "a" / "m.json")]) == 0
    assert main(train_argv + ["--out", str(tmp_path / "b" / "m.json")]) == 0
    assert ((tmp_path / "a" / "m.json").read_bytes()
            == (tmp_path / "b" / "m.json").read_bytes())
    assert ((tmp_path / "a" / "m.json.cv.csv").read_bytes()
            == (tmp_path / "b" / "m.json.cv.csv").read_bytes())

    model = str(tmp_path / "a" / "m.json")
    predict_argv = ["predict", "--manifest", screen, "--model", model,
                    "--min-peaks", "100"]
    for out, workers in [("p1", "1"), ("p2", "2"), ("p3", "2")]:
        rc = main(predict_argv + ["--out-dir", str(tmp_path / out),
                                  "--workers", workers])
        assert rc == 0
    t1, t2, t3 = (_read_tree(tmp_path / o) for o in ("p1", "p2", "p3"))
    assert set(t1) == {"cohort.csv", "errors.csv",
                       "sa0.json", "sn0.json", "se0.json"}
    assert t1 == t2 == t3

    # and the artifacts really carry results, not just headers
    doc = json.loads(t1["sa0.json"])
    assert doc["prominent_af"] is True


# ---------------------------------------------------------------------------
# 8. archived-database benchmark, data-dependent


def test_archived_database_benchmark():
    """Window AUROC of at least 0.95 on locally exported archives.

    Expects AFSCREEN_PHYSIONET_DIR to hold train_manifest.csv and
    test_manifest.csv whose rows point at RR exports (or signals plus
    annotation sidecars) of the usual long-term and normal-rhythm
    archives; skipped when the data is not present.
    """
    root = os.environ.get("AFSCREEN_PHYSIONET_DIR")
    if not root:
        pytest.skip("AFSCREEN_PHYSIONET_DIR not set")
    train_m = Path(root) / "train_manifest.csv"
    test_m = Path(root) / "test_manifest.csv"
    if not (train_m.is_file() and test_m.is_file()):
        pytest.skip("archive manifests not found")

    config = PipelineConfig()
    X, y, _, _ = pipeline.collect_training_windows(
        pipeline.read_manifest(train_m), config)
    model = forest.train(X, y, n_estimators=20, max_depth=3, seed=0)

    X, y, _, _ = pipeline.collect_training_windows(
        pipeline.read_manifest(test_m), config)
    proba = forest.predict_proba_many(model, X)
    auc, _ = stats.auroc(zip(proba.tolist(), y.tolist()))
    assert auc is not None
    assert auc >= 0.95
