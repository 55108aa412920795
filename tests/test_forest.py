"""Forest training, prediction, selection, and model serialization."""

import json
import math

import numpy as np
import pytest

from afscreen import forest, stats
from afscreen.errors import (CompatibilityError, ConfigurationError,
                             ContractViolationError, DegenerateModelError,
                             ParseError)
from afscreen.features import FEATURE_NAMES, BeatWindow, FeatureVector
from afscreen.forest import (ForestModel, LabeledWindow, cross_validate,
                             label_windows, load_model, predict_label,
                             predict_proba, predict_proba_many, save_model,
                             train)
from afscreen.record_io import AF, NON_AF, OTHER, RhythmAnnotations


def fv(bsqi=1.0, cosen=-2.6, afe=-57, orc=57, ire=0, pace=0,
       avnn=800.0, minrr=700.0, medhr=75.0):
    return FeatureVector(bsqi=bsqi, cosen=cosen, afe=afe, orc=orc, ire=ire,
                         pace=pace, avnn=avnn, minrr=minrr, medhr=medhr)


def af_vector(rng):
    return fv(cosen=1.2 + rng.normal(0, 0.2), afe=40 + rng.integers(-8, 9),
              orc=rng.integers(0, 4), ire=45 + rng.integers(-5, 6),
              pace=rng.integers(0, 2), avnn=620 + rng.normal(0, 25),
              minrr=350 + rng.normal(0, 20), medhr=97 + rng.normal(0, 4))


def nsr_vector(rng):
    return fv(cosen=-2.6 + rng.normal(0, 0.2), afe=-50 + rng.integers(-7, 8),
              orc=52 + rng.integers(0, 6), ire=rng.integers(0, 5),
              pace=rng.integers(0, 2), avnn=820 + rng.normal(0, 25),
              minrr=720 + rng.normal(0, 20), medhr=74 + rng.normal(0, 4))


def separable_set(n_per_class=30, n_patients=6, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n_per_class):
        pid = f"p{i % n_patients}"
        data.append(LabeledWindow(features=af_vector(rng), label=AF,
                                  patient_id=pid))
        data.append(LabeledWindow(features=nsr_vector(rng), label=NON_AF,
                                  patient_id=pid))
    return data


# ---------------------------------------------------------------------------
# training and prediction


def test_separable_classes_are_learned():
    data = separable_set()
    model = train(data, seed=0)
    rng = np.random.default_rng(99)
    for _ in range(20):
        assert predict_label(model, af_vector(rng)) == AF
        assert predict_label(model, nsr_vector(rng)) == NON_AF


def test_proba_saturates_on_clean_classes():
    model = train(separable_set(), seed=0)
    rng = np.random.default_rng(7)
    assert predict_proba(model, af_vector(rng)) > 0.9
    assert predict_proba(model, nsr_vector(rng)) < 0.1


def test_training_is_deterministic():
    data = separable_set()
    a = save_model(train(data, seed=3))
    b = save_model(train(data, seed=3))
    assert a == b


def test_seed_changes_the_forest():
    data = separable_set()
    assert save_model(train(data, seed=0)) != save_model(train(data, seed=1))


def test_forest_shape_follows_arguments():
    model = train(separable_set(), n_estimators=7, max_depth=2, seed=0)
    assert len(model.trees) == 7

    def depth(node):
        if "leaf" in node:
            return 0
        return 1 + max(depth(node["l"]), depth(node["r"]))

    assert max(depth(t) for t in model.trees) <= 2


def test_monotone_feature_transform_preserves_votes():
    # cubing every feature keeps all value orderings, so each tree picks
    # the same point partition and votes identically on the training set
    data = separable_set()
    X = np.stack([d.features.to_array() for d in data])
    cubed = [LabeledWindow(features=FeatureVector.from_array(
                 d.features.to_array() ** 3),
             label=d.label, patient_id=d.patient_id) for d in data]
    a = predict_proba_many(train(data, seed=5), X)
    b = predict_proba_many(train(cubed, seed=5), X ** 3)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_random_labels_still_give_valid_probabilities(seed):
    rng = np.random.default_rng(seed)
    data = [LabeledWindow(
        features=af_vector(rng) if rng.random() < 0.5 else nsr_vector(rng),
        label=AF if rng.random() < 0.5 else NON_AF,
        patient_id=f"p{rng.integers(0, 5)}")
        for _ in range(40)]
    if len({d.label for d in data}) < 2:
        pytest.skip("degenerate draw")
    proba = predict_proba_many(train(data, seed=seed),
                               np.stack([d.features.to_array()
                                         for d in data]))
    assert np.all((proba >= 0.0) & (proba <= 1.0))


def test_train_rejects_empty():
    with pytest.raises(DegenerateModelError):
        train([])


def test_train_rejects_single_class():
    rng = np.random.default_rng(0)
    data = [LabeledWindow(features=af_vector(rng), label=AF, patient_id="p")
            for _ in range(10)]
    with pytest.raises(DegenerateModelError):
        train(data)


def test_train_rejects_bad_hyperparameters():
    data = separable_set()
    with pytest.raises(ConfigurationError):
        train(data, n_estimators=0)
    with pytest.raises(ConfigurationError):
        train(data, max_depth=0)


def test_train_rejects_nonfinite_features():
    data = separable_set()
    data[0].features.avnn = float("nan")
    with pytest.raises(ContractViolationError):
        train(data)


def test_predict_rejects_wrong_width():
    model = train(separable_set(), seed=0)
    with pytest.raises(ContractViolationError):
        predict_proba_many(model, np.zeros((3, 8)))
    with pytest.raises(ContractViolationError):
        predict_proba_many(model, np.zeros(9))


# ---------------------------------------------------------------------------
# vote semantics, pinned with hand-built trees


def hand_model(trees):
    return ForestModel(trees=trees, n_estimators=len(trees), max_depth=3,
                       seed=0)


def x_with(avnn):
    return fv(avnn=avnn).to_array()


def test_split_sends_equal_values_left():
    stump = {"f": FEATURE_NAMES.index("avnn"), "thr": 700.0,
             "l": {"leaf": [0, 5]}, "r": {"leaf": [5, 0]}}
    model = hand_model([stump])
    assert predict_proba(model, x_with(650.0)) == 1.0
    assert predict_proba(model, x_with(700.0)) == 1.0
    assert predict_proba(model, x_with(700.0000001)) == 0.0


def test_leaf_tie_votes_non_af():
    model = hand_model([{"leaf": [3, 3]}])
    assert predict_proba(model, x_with(800.0)) == 0.0
    assert predict_label(model, x_with(800.0)) == NON_AF


def test_forest_tie_is_non_af():
    model = hand_model([{"leaf": [0, 1]}, {"leaf": [1, 0]}])
    assert predict_proba(model, x_with(800.0)) == 0.5
    assert predict_label(model, x_with(800.0)) == NON_AF


def test_majority_fraction_is_exact():
    model = hand_model([{"leaf": [0, 1]}] * 3 + [{"leaf": [1, 0]}])
    assert predict_proba(model, x_with(800.0)) == 0.75


# ---------------------------------------------------------------------------
# split search against a per-boundary loop


def _gini_pair_oracle(c0, c1):
    n = c0 + c1
    return 1.0 - (c0 * c0 + c1 * c1) / (n * n)


def best_split_oracle(X, y, idx, feats):
    """One feature and one boundary at a time; strict < keeps the first."""
    n = idx.shape[0]
    best_gini = math.inf
    best = None
    for f in feats:
        vals = X[idx, f]
        order = np.argsort(vals, kind="mergesort")
        sv = vals[order]
        sy = y[idx][order]
        cum1 = np.cumsum(sy)
        total1 = int(cum1[-1])
        for b in np.flatnonzero(sv[:-1] < sv[1:]):
            nl = int(b) + 1
            nr = n - nl
            l1 = int(cum1[b])
            g = (nl * _gini_pair_oracle(nl - l1, l1)
                 + nr * _gini_pair_oracle(nr - (total1 - l1),
                                          total1 - l1)) / n
            if g < best_gini:
                thr = 0.5 * (sv[b] + sv[b + 1])
                if thr >= sv[b + 1]:
                    thr = float(sv[b])
                best_gini = g
                best = (int(f), float(thr))
    return best


def split_cases():
    rng = np.random.default_rng(11)
    for case in range(600):
        n_rows = int(rng.integers(2, 80))
        # few distinct values: many duplicates and exact Gini ties
        X = rng.integers(0, int(rng.integers(1, 6)),
                         size=(n_rows, 9)).astype(np.float64)
        if case % 3 == 0:
            X[:, 4] = 7.0  # a constant feature
        if case % 5 == 0:
            X[:, 6] = X[:, 2]  # equal columns tie across features
        y = rng.integers(0, 2, size=n_rows)
        n = int(rng.integers(2, 2 * n_rows + 1))
        idx = rng.integers(0, n_rows, size=n)  # a bootstrap: repeated rows
        feats = rng.choice(9, size=3, replace=False)
        yield X, y, idx, feats
    # n = 2, split and unsplittable
    X = np.array([[0.0] * 9, [1.0] * 9])
    yield X, np.array([0, 1]), np.array([0, 1]), np.array([3, 0, 8])
    yield X, np.array([0, 1]), np.array([1, 1]), np.array([3, 0, 8])
    # an all-constant node
    yield (np.full((5, 9), 2.5), np.array([0, 1, 0, 1, 1]), np.arange(5),
           np.array([1, 2, 3]))


def test_best_split_matches_boundary_loop():
    outcomes = set()
    for X, y, idx, feats in split_cases():
        got = forest._best_split(X, y, idx, feats)
        assert got == best_split_oracle(X, y, idx, feats)
        if got is not None:
            assert type(got[0]) is int and type(got[1]) is float
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_best_split_ties_pick_first_feature_then_lowest_boundary():
    # columns 2 and 6 are equal; boundaries 0.5 and 2.5 tie on Gini
    X = np.zeros((4, 9))
    X[:, 2] = X[:, 6] = [0.0, 1.0, 2.0, 3.0]
    y = np.array([0, 1, 1, 0])
    idx = np.arange(4)
    for feats in ([6, 2, 0], [2, 6, 0], [0, 6, 2]):
        feats = np.array(feats)
        got = forest._best_split(X, y, idx, feats)
        assert got == best_split_oracle(X, y, idx, feats)
        assert got == (int(feats[feats != 0][0]), 0.5)


def test_best_split_keeps_threshold_below_adjacent_float():
    lo = np.nextafter(1.0, 2.0)  # odd last mantissa bit
    hi = np.nextafter(lo, 2.0)
    assert 0.5 * (lo + hi) == hi  # the midpoint rounds up
    X = np.zeros((4, 9))
    X[:, 5] = [lo, lo, hi, hi]
    y = np.array([0, 0, 1, 1])
    feats = np.array([5, 0, 1])
    got = forest._best_split(X, y, np.arange(4), feats)
    assert got == best_split_oracle(X, y, np.arange(4), feats) == (5, lo)


# ---------------------------------------------------------------------------
# window labeling


def window_at(t0, n=60, step=0.8, bsqi=1.0):
    return BeatWindow(times=t0 + np.arange(n) * step, window_index=0,
                      bsqi=bsqi)


def test_label_windows_af_majority():
    ann = RhythmAnnotations(episodes=[(0.0, 30.0, AF), (30.0, 100.0, OTHER)])
    w = window_at(0.0)  # spans [0, 47.2]
    labeled, skipped = label_windows([w], ann, patient_id="p")
    assert skipped == 0
    assert len(labeled) == 1
    # AF covers 30 of 47.2 seconds
    assert labeled[0].label == AF
    assert labeled[0].patient_id == "p"


def test_label_windows_half_overlap_is_af():
    # AF covers exactly half the span: the rule is inclusive
    ann = RhythmAnnotations(episodes=[(0.0, 23.6, AF), (23.6, 100.0, OTHER)])
    labeled, _ = label_windows([window_at(0.0)], ann)
    assert labeled[0].label == AF

    ann = RhythmAnnotations(episodes=[(0.0, 23.5, AF), (23.5, 100.0, OTHER)])
    labeled, _ = label_windows([window_at(0.0)], ann)
    assert labeled[0].label == NON_AF


def test_label_windows_split_af_episodes_accumulate():
    ann = RhythmAnnotations(episodes=[(0.0, 12.0, AF), (12.0, 30.0, OTHER),
                                      (30.0, 42.0, AF), (42.0, 100.0, OTHER)])
    labeled, _ = label_windows([window_at(0.0)], ann)
    # 24 of 47.2 seconds: above half
    assert labeled[0].label == AF


def test_label_windows_skips_outside_span():
    ann = RhythmAnnotations(episodes=[(100.0, 200.0, OTHER)])
    w_before = window_at(0.0)  # ends at 47.2 < 100
    w_inside = window_at(110.0)
    labeled, skipped = label_windows([w_before, w_inside], ann)
    assert skipped == 1
    assert len(labeled) == 1
    assert labeled[0].label == NON_AF


def test_label_windows_touching_span_edge_is_skipped():
    ann = RhythmAnnotations(episodes=[(47.2, 200.0, OTHER)])
    labeled, skipped = label_windows([window_at(0.0)], ann)
    assert (len(labeled), skipped) == (0, 1)


def test_label_windows_enforces_quality_gate():
    ann = RhythmAnnotations(episodes=[(0.0, 100.0, OTHER)])
    with pytest.raises(ContractViolationError):
        label_windows([window_at(0.0, bsqi=0.5)], ann)


def test_labeled_window_rejects_unknown_label():
    with pytest.raises(ContractViolationError):
        LabeledWindow(features=fv(), label="maybe", patient_id="p")


# ---------------------------------------------------------------------------
# cross-validation


def test_cv_needs_enough_patients():
    data = separable_set(n_patients=4)
    with pytest.raises(ConfigurationError):
        cross_validate(data, k=5)


def test_cv_selects_cheapest_of_tied_grid():
    data = separable_set(n_per_class=40, n_patients=10, seed=1)
    result = cross_validate(data, grid=((50, 5), (10, 2), (20, 3)), k=5,
                            seed=0)
    by_point = {(n, d): auc for n, d, auc, _ in result.rows}
    # the classes are cleanly separable, every grid point is perfect
    assert all(auc == pytest.approx(1.0) for auc in by_point.values())
    assert (result.n_estimators, result.max_depth) == (10, 2)


def test_cv_reports_every_grid_point():
    data = separable_set(n_per_class=20, n_patients=5, seed=2)
    result = cross_validate(data, grid=((10, 2), (10, 3)), k=5, seed=0)
    assert [(r[0], r[1]) for r in result.rows] == [(10, 2), (10, 3)]
    assert all(r[3] <= 5 for r in result.rows)


def test_cv_skips_single_class_validation_folds():
    rng = np.random.default_rng(3)
    data = []
    for i in range(5):
        for _ in range(6):
            if i == 0:
                # one patient holds only AF windows
                data.append(LabeledWindow(features=af_vector(rng), label=AF,
                                          patient_id="solo"))
            else:
                data.append(LabeledWindow(features=af_vector(rng), label=AF,
                                          patient_id=f"p{i}"))
                data.append(LabeledWindow(features=nsr_vector(rng),
                                          label=NON_AF, patient_id=f"p{i}"))
    result = cross_validate(data, grid=((10, 2),), k=5, seed=0)
    n_est, depth, auc, folds_used = result.rows[0]
    assert folds_used == 4
    assert auc is not None


@pytest.mark.parametrize("k", [1, 0, -2])
def test_cv_rejects_fewer_than_two_folds(k):
    with pytest.raises(ConfigurationError, match="at least 2 folds"):
        cross_validate(separable_set(), k=k)


def test_cv_rejects_non_positive_grid_point():
    # depth 2 still fits 10 trees; the 0-tree point must not be scored
    with pytest.raises(ConfigurationError, match="must be positive"):
        cross_validate(separable_set(), grid=((10, 2), (0, 2)))


def noisy_set(seed=5, n_patients=5, per_patient=14):
    """Overlapping classes on a 0.1 grid, so validation AUROCs differ
    between grid points; patient "solo" holds AF windows only."""
    rng = np.random.default_rng(seed)
    data = []
    for p in range(n_patients):
        for _ in range(per_patient):
            x = np.round(rng.normal(size=9), 1)
            label = AF if x[1] + x[6] + rng.normal(0, 1.0) > 0 else NON_AF
            data.append(LabeledWindow(features=FeatureVector.from_array(x),
                                      label=label, patient_id=f"p{p}"))
    for _ in range(6):
        x = np.round(rng.normal(0.5, 1.0, size=9), 1)
        data.append(LabeledWindow(features=FeatureVector.from_array(x),
                                  label=AF, patient_id="solo"))
    return data


def cross_validate_oracle(data, grid, k, seed):
    """Rows of a grid search that fits every grid point on its own."""
    patients = sorted({d.patient_id for d in data})
    order = np.random.default_rng(seed).permutation(len(patients))
    fold_of = {patients[int(p)]: i % k for i, p in enumerate(order)}
    X = np.stack([d.features.to_array() for d in data])
    y = np.array([d.label == AF for d in data], dtype=np.int64)
    folds = np.array([fold_of[d.patient_id] for d in data])
    rows = []
    for n_est, depth in grid:
        aucs = []
        for j in range(k):
            tr = folds != j
            va = ~tr
            if not va.any() or y[tr].min() == y[tr].max():
                continue
            sub = [d for d, m in zip(data, tr) if m]
            model = train(sub, n_estimators=n_est, max_depth=depth,
                          seed=seed)
            proba = predict_proba_many(model, X[va])
            auc, _ = stats.auroc(list(zip(proba.tolist(),
                                          y[va].tolist())))
            if auc is not None:
                aucs.append(auc)
        mean_auc = sum(aucs) / len(aucs) if aucs else None
        rows.append((n_est, depth, mean_auc, len(aucs)))
    return rows


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_fewer_trees_are_a_prefix_of_more(depth):
    data = noisy_set()
    assert (train(data, n_estimators=50, max_depth=depth, seed=3).trees[:10]
            == train(data, n_estimators=10, max_depth=depth, seed=3).trees)


@pytest.mark.parametrize("k,seed", [(6, 0), (3, 2)])
def test_cv_rows_match_per_grid_point_fits(k, seed):
    data = noisy_set()
    # unsorted, with a duplicate point and a depth seen once
    grid = ((20, 3), (10, 2), (50, 3), (10, 2), (5, 3), (20, 1))
    result = cross_validate(data, grid=grid, k=k, seed=seed)
    want = cross_validate_oracle(data, grid, k, seed)
    assert result.rows == want
    assert len({r[2] for r in want}) > 2
    best = min(want, key=lambda r: (-r[2], r[0], r[1]))
    assert (result.n_estimators, result.max_depth) == best[:2]
    if k == 6:
        # the fold of "solo" has a single-class validation side
        assert all(r[3] == 5 for r in want)


def test_cv_deterministic_given_seed():
    data = separable_set(n_per_class=20, n_patients=5, seed=4)
    a = cross_validate(data, grid=((10, 2), (20, 2)), k=5, seed=1)
    b = cross_validate(data, grid=((10, 2), (20, 2)), k=5, seed=1)
    assert a == b


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip():
    model = train(separable_set(), seed=0)
    back = load_model(save_model(model))
    assert back == model
    X = np.stack([af_vector(np.random.default_rng(1)).to_array()
                  for _ in range(4)])
    np.testing.assert_array_equal(predict_proba_many(back, X),
                                  predict_proba_many(model, X))


def test_model_json_is_canonical():
    payload = json.loads(save_model(train(separable_set(), seed=0)))
    assert payload["format_version"] == 1
    assert payload["kind"] == "af-window-forest"
    assert payload["feature_names"] == list(FEATURE_NAMES)


def tampered(**overrides):
    payload = json.loads(save_model(train(separable_set(), seed=0)))
    payload.update(overrides)
    return json.dumps(payload)


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_model(b"{not json")
    with pytest.raises(ParseError):
        load_model(b"[1, 2, 3]")


def test_load_rejects_unknown_version():
    with pytest.raises(CompatibilityError):
        load_model(tampered(format_version=2))


def test_load_rejects_wrong_kind():
    with pytest.raises(CompatibilityError):
        load_model(tampered(kind="espresso-machine"))


def test_load_rejects_feature_order_drift():
    with pytest.raises(CompatibilityError):
        load_model(tampered(feature_checksum="0" * 64))


def test_load_rejects_missing_trees():
    payload = json.loads(save_model(train(separable_set(), seed=0)))
    del payload["trees"]
    with pytest.raises(ParseError):
        load_model(json.dumps(payload))
    with pytest.raises(ParseError):
        load_model(tampered(trees=[]))


def test_load_rejects_malformed_nodes():
    with pytest.raises(ParseError):
        load_model(tampered(trees=[{"leaf": [1]}]))
    with pytest.raises(ParseError):
        load_model(tampered(trees=[{"leaf": [1, -2]}]))
    with pytest.raises(ParseError):
        load_model(tampered(trees=[{"f": 0, "thr": 1.0,
                                    "l": {"leaf": [1, 0]}}]))
    with pytest.raises(ParseError):
        load_model(tampered(trees=["not a node"]))
