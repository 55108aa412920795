"""Forest training, prediction, selection, and model serialization."""

import inspect
import json
import math
import re

import numpy as np
import pytest

from afscreen import forest, stats
from afscreen.errors import (CompatibilityError, ConfigurationError,
                             ContractViolationError, DegenerateModelError,
                             ParseError)
from afscreen.features import FEATURE_NAMES
from afscreen.forest import (ForestModel, cross_validate, label_windows,
                             load_model, predict_proba_many, save_model,
                             train)
from afscreen.record_io import AF, OTHER, RhythmAnnotations


def fv(bsqi=1.0, cosen=-2.6, afe=-57, orc=57, ire=0, pace=0,
       avnn=800.0, minrr=700.0, medhr=75.0):
    """One feature row in declared order."""
    return np.array([bsqi, cosen, afe, orc, ire, pace, avnn, minrr, medhr],
                    dtype=np.float64)


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


def proba(model, x):
    return float(predict_proba_many(model, x[None, :])[0])


def separable_set(n_per_class=30, n_patients=6, seed=0):
    """(X, y, groups) of alternating AF and nonAF rows."""
    rng = np.random.default_rng(seed)
    rows, y, groups = [], [], []
    for i in range(n_per_class):
        pid = f"p{i % n_patients}"
        rows += [af_vector(rng), nsr_vector(rng)]
        y += [1, 0]
        groups += [pid, pid]
    return np.array(rows), np.array(y), np.array(groups)


# ---------------------------------------------------------------------------
# training and prediction


def test_separable_classes_are_learned():
    X, y, _ = separable_set()
    model = train(X, y, seed=0)
    rng = np.random.default_rng(99)
    for _ in range(20):
        assert proba(model, af_vector(rng)) > 0.5
        assert proba(model, nsr_vector(rng)) <= 0.5


def test_proba_saturates_on_clean_classes():
    X, y, _ = separable_set()
    model = train(X, y, seed=0)
    rng = np.random.default_rng(7)
    assert proba(model, af_vector(rng)) > 0.9
    assert proba(model, nsr_vector(rng)) < 0.1


def test_training_is_deterministic():
    X, y, _ = separable_set()
    a = save_model(train(X, y, seed=3))
    b = save_model(train(X, y, seed=3))
    assert a == b


def test_seed_changes_the_forest():
    X, y, _ = separable_set()
    assert save_model(train(X, y, seed=0)) != save_model(train(X, y, seed=1))


def test_forest_shape_follows_arguments():
    X, y, _ = separable_set()
    model = train(X, y, n_estimators=7, max_depth=2, seed=0)
    assert len(model.trees) == 7

    def depth(node):
        if "leaf" in node:
            return 0
        return 1 + max(depth(node["l"]), depth(node["r"]))

    assert max(depth(t) for t in model.trees) <= 2


def test_monotone_feature_transform_preserves_votes():
    # cubing every feature keeps all value orderings, so each tree picks
    # the same point partition and votes identically on the training set
    X, y, _ = separable_set()
    a = predict_proba_many(train(X, y, seed=5), X)
    b = predict_proba_many(train(X ** 3, y, seed=5), X ** 3)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_random_labels_still_give_valid_probabilities(seed):
    rng = np.random.default_rng(seed)
    rows, y = [], []
    for _ in range(40):
        rows.append(af_vector(rng) if rng.random() < 0.5
                    else nsr_vector(rng))
        y.append(1 if rng.random() < 0.5 else 0)
    if len(set(y)) < 2:
        pytest.skip("degenerate draw")
    X = np.array(rows)
    p = predict_proba_many(train(X, np.array(y), seed=seed), X)
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_train_rejects_empty():
    with pytest.raises(DegenerateModelError):
        train(np.empty((0, 9)), np.empty(0, dtype=np.int64))


def test_train_rejects_single_class():
    rng = np.random.default_rng(0)
    X = np.array([af_vector(rng) for _ in range(10)])
    with pytest.raises(DegenerateModelError):
        train(X, np.ones(10, dtype=np.int64))


def test_train_rejects_bad_hyperparameters():
    X, y, _ = separable_set()
    with pytest.raises(ConfigurationError):
        train(X, y, n_estimators=0)
    with pytest.raises(ConfigurationError):
        train(X, y, max_depth=0)
    # numpy refuses a negative seed with a bare ValueError
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        train(X, y, seed=-1)
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        cross_validate(X, y, np.arange(len(y)) % 5, seed=-1)


def test_train_and_cv_share_one_default_seed():
    for fit in (train, cross_validate):
        assert inspect.signature(fit).parameters["seed"].default is \
            forest.DEFAULT_SEED


def test_depth_beyond_the_limit_is_refused_and_the_limit_loads():
    X, y, _ = separable_set()
    deepest = forest.MAX_DEPTH_LIMIT
    with pytest.raises(ConfigurationError, match="at most"):
        train(X, y, max_depth=deepest + 1)
    with pytest.raises(ConfigurationError, match="at most"):
        cross_validate(X, y, np.arange(len(y)) % 5,
                       grid=((10, 2), (10, deepest + 1)))
    model = train(X, y, n_estimators=3, max_depth=deepest, seed=0)
    assert load_model(save_model(model)) == model


def test_train_rejects_nonfinite_features():
    X, y, _ = separable_set()
    X[0, FEATURE_NAMES.index("avnn")] = float("nan")
    with pytest.raises(ContractViolationError):
        train(X, y)


def test_train_rejects_labels_other_than_0_and_1():
    X, y, _ = separable_set()
    y[3] = 2
    with pytest.raises(ContractViolationError, match="labels"):
        train(X, y)


def test_train_rejects_misaligned_arrays():
    X, y, _ = separable_set()
    with pytest.raises(ContractViolationError):
        train(X, y[:-1])
    with pytest.raises(ContractViolationError):
        train(X[:, :8], y)


def test_predict_rejects_wrong_width():
    X, y, _ = separable_set()
    model = train(X, y, seed=0)
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
    return fv(avnn=avnn)


def test_split_sends_equal_values_left():
    stump = {"f": FEATURE_NAMES.index("avnn"), "thr": 700.0,
             "l": {"leaf": [0, 5]}, "r": {"leaf": [5, 0]}}
    model = hand_model([stump])
    assert proba(model, x_with(650.0)) == 1.0
    assert proba(model, x_with(700.0)) == 1.0
    assert proba(model, x_with(700.0000001)) == 0.0


def test_leaf_tie_votes_non_af():
    model = hand_model([{"leaf": [3, 3]}])
    assert proba(model, x_with(800.0)) == 0.0


def test_forest_tie_is_non_af():
    # the pipeline labels exactly 0.5 nonAF; test_pipeline pins the label
    model = hand_model([{"leaf": [0, 1]}, {"leaf": [1, 0]}])
    assert proba(model, x_with(800.0)) == 0.5


def test_majority_fraction_is_exact():
    model = hand_model([{"leaf": [0, 1]}] * 3 + [{"leaf": [1, 0]}])
    assert proba(model, x_with(800.0)) == 0.75


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


def sort_codes(X, y):
    """The (code, values) pair _fit_trees hands _best_splits: code[f, r]
    is 2 * v + y[r], where X[r, f] = values[v, f] is the v-th smallest
    value of column f."""
    values = np.sort(X, axis=0)
    code = np.array([2 * np.searchsorted(v, x) + y
                     for v, x in zip(values.T, X.T)], dtype=np.int32)
    return code, values


def best_split(X, y, idx, feats):
    """_best_splits on one node: the rows idx and the features feats."""
    f, thr = forest._best_splits(*sort_codes(X, y), idx,
                                 np.zeros(len(idx), dtype=np.int64),
                                 feats[None, :])
    return None if f[0] < 0 else (int(f[0]), float(thr[0]))


def test_best_split_matches_boundary_loop():
    outcomes = set()
    for X, y, idx, feats in split_cases():
        got = best_split(X, y, idx, feats)
        assert got == best_split_oracle(X, y, idx, feats)
        outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spacing", [1, 1000])
def test_one_level_search_splits_every_node_as_alone(spacing):
    # every case of split_cases stacked as its own node of one call, its
    # rows offset into one matrix; spaced node ids leave most nodes
    # empty and take the key past 32 bits
    cases = list(split_cases())
    offsets = np.cumsum([0] + [len(X) for X, *_ in cases])
    X = np.concatenate([X for X, *_ in cases])
    y = np.concatenate([y for _, y, *_ in cases])
    rows = np.concatenate([idx + offsets[i]
                           for i, (_, _, idx, _) in enumerate(cases)])
    node = np.repeat(np.arange(len(cases)) * spacing,
                     [len(idx) for *_, idx, _ in cases])
    feats = np.full((len(cases) * spacing, 3), -1)
    feats[::spacing] = [feats for *_, feats in cases]
    code, values = sort_codes(X, y)
    assert (2 * len(X) * feats.size < 2 ** 31) == (spacing == 1)
    f, thr = forest._best_splits(code, values, rows, node, feats)
    assert (f[np.arange(len(f)) % spacing != 0] == -1).all()
    for i, (X, y, idx, feats) in enumerate(cases):
        got = None if f[i * spacing] < 0 else (int(f[i * spacing]),
                                               float(thr[i * spacing]))
        assert got == best_split_oracle(X, y, idx, feats)


def test_best_split_ties_pick_first_feature_then_lowest_boundary():
    # columns 2 and 6 are equal; boundaries 0.5 and 2.5 tie on Gini
    X = np.zeros((4, 9))
    X[:, 2] = X[:, 6] = [0.0, 1.0, 2.0, 3.0]
    y = np.array([0, 1, 1, 0])
    idx = np.arange(4)
    for feats in ([6, 2, 0], [2, 6, 0], [0, 6, 2]):
        feats = np.array(feats)
        got = best_split(X, y, idx, feats)
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
    got = best_split(X, y, np.arange(4), feats)
    assert got == best_split_oracle(X, y, np.arange(4), feats) == (5, lo)


# ---------------------------------------------------------------------------
# level-by-level growth against the recursive grower it replaced


def node_split_oracle(X, y, idx, feats):
    """The per-node split search the level search replaced."""
    n = idx.shape[0]
    vals = X[np.ix_(idx, feats)]
    order = np.argsort(vals, axis=0, kind="mergesort")
    sv = np.take_along_axis(vals, order, axis=0)
    cum1 = np.cumsum(y[idx][order], axis=0)
    l1 = cum1[:-1]
    r1 = cum1[-1] - l1
    nl = np.arange(1, n, dtype=np.int64)[:, None]
    nr = n - nl
    l0 = nl - l1
    r0 = nr - r1
    g = (nl * (1.0 - (l0 * l0 + l1 * l1) / (nl * nl))
         + nr * (1.0 - (r0 * r0 + r1 * r1) / (nr * nr))) / n
    g = np.where(sv[:-1] < sv[1:], g, np.inf)
    j, b = divmod(int(np.argmin(g.T)), n - 1)
    if g[b, j] == np.inf:
        return None
    thr = 0.5 * (sv[b, j] + sv[b + 1, j])
    if thr >= sv[b + 1, j]:
        thr = sv[b, j]
    return int(feats[j]), float(thr)


def grow_oracle(X, y, idx, levels, key, pos, counts):
    """The subtree at heap position pos, grown one node at a time."""
    c1 = int(y[idx].sum())
    c0 = idx.shape[0] - c1
    if levels == 0 or idx.shape[0] < 2 or c0 == 0 or c1 == 0:
        return {"leaf": [c0, c1]}
    feats = np.random.default_rng((*key, pos)).choice(
        X.shape[1], size=math.isqrt(X.shape[1]), replace=False)
    best = node_split_oracle(X, y, idx, feats)
    if best is None:
        return {"leaf": [c0, c1]}
    f, thr = best
    mask = X[idx, f] <= thr
    node = {"f": f, "thr": thr,
            "l": grow_oracle(X, y, idx[mask], levels - 1, key, 2 * pos,
                             counts),
            "r": grow_oracle(X, y, idx[~mask], levels - 1, key,
                             2 * pos + 1, counts)}
    if counts:
        node["n"] = [c0, c1]
    return node


def fit_tree_oracle(X, y, seed, t, max_depth, counts=False):
    boot = np.random.default_rng((seed, t)).integers(0, X.shape[0],
                                                      size=X.shape[0])
    return grow_oracle(X, y, boot, max_depth, (seed, t), 1, counts)


def tie_heavy_set(seed, n=120):
    """Few distinct values per column, a constant column, two equal
    columns and a column of two adjacent floats whose midpoint rounds
    up; groups for 5-fold CV."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, 9)).astype(np.float64)
    X[:, 4] = 7.0
    X[:, 6] = X[:, 2]
    lo = np.nextafter(1.0, 2.0)
    X[:, 5] = np.where(rng.random(n) < 0.5, lo, np.nextafter(lo, 2.0))
    y = ((X[:, 0] + X[:, 1] + (X[:, 5] > lo) + rng.integers(0, 3, n)) > 4)
    return X, y.astype(np.int64), np.arange(n) % 7


def thresholds(node):
    if "leaf" in node:
        return set()
    return {node["thr"]} | thresholds(node["l"]) | thresholds(node["r"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_and_cv_trees_match_the_recursive_grower(seed, monkeypatch):
    X, y, groups = tie_heavy_set(seed)
    fits = []
    fit_trees = forest._fit_trees

    def recorded(*args, **kwargs):
        fits.append((args, kwargs, fit_trees(*args, **kwargs)))
        return fits[-1][2]
    monkeypatch.setattr(forest, "_fit_trees", recorded)
    # the CV forest's trees take depths 8, 5 and 1; train's all 4
    cross_validate(X, y, groups, grid=((3, 8), (6, 5), (12, 1)), seed=seed)
    model = train(X, y, n_estimators=12, max_depth=4, seed=seed)
    assert model.trees == fits[-1][2]
    assert len(fits) == 6
    for (X_fit, y_fit, fit_seed, depths), kwargs, trees in fits:
        assert sorted(set(depths)) in ([1, 5, 8], [4])
        # as JSON text, so key order and int or float types count too
        assert json.dumps(trees) == json.dumps([
            fit_tree_oracle(X_fit, y_fit, fit_seed, t, depth, **kwargs)
            for t, depth in enumerate(depths)])
    # the sets reach the adjacent-float threshold, and the mixed depths
    # within one fit and the CV counts
    assert any(np.nextafter(1.0, 2.0) in thresholds(tree)
               for *_, trees in fits for tree in trees)
    assert fits[0][1] == {"counts": True} and "n" in fits[0][2][0]
    assert fits[-1][1] == {} and "n" not in fits[-1][2][0]


@pytest.mark.parametrize("depths", [[1, 2, 3, 4, 5, 6, 7, 8],
                                    [8, 1, 7, 2, 6, 3, 5, 4] * 2])
@pytest.mark.parametrize("counts", [False, True])
def test_mixed_depths_match_the_recursive_grower(depths, counts):
    for seed in range(3):
        X, y, _ = tie_heavy_set(seed + 10, n=60)
        # bootstraps repeat rows
        assert len(np.unique(np.random.default_rng((seed, 0)).integers(
            0, 60, size=60))) < 60
        assert forest._fit_trees(X, y, seed, depths, counts) == [
            fit_tree_oracle(X, y, seed, t, depth, counts)
            for t, depth in enumerate(depths)]


# ---------------------------------------------------------------------------
# window labeling


def window_at(*t0s, n=60, step=0.8, bsqi=1.0):
    """(times, bsqi) of one window starting at each t0."""
    times = np.array([t0 + np.arange(n) * step for t0 in t0s])
    return times, np.full(len(t0s), bsqi)


def test_label_windows_af_majority():
    ann = RhythmAnnotations(episodes=[(0.0, 30.0, AF), (30.0, 100.0, OTHER)])
    times, bsqi = window_at(0.0)  # spans [0, 47.2]
    X, y, skipped = label_windows(times, bsqi, ann)
    assert skipped == 0
    assert X.shape == (1, len(FEATURE_NAMES))
    # AF covers 30 of 47.2 seconds
    assert y.tolist() == [1]


def test_label_windows_half_overlap_is_af():
    # AF covers exactly half the span: the rule is inclusive
    ann = RhythmAnnotations(episodes=[(0.0, 23.6, AF), (23.6, 100.0, OTHER)])
    _, y, _ = label_windows(*window_at(0.0), ann)
    assert y.tolist() == [1]

    ann = RhythmAnnotations(episodes=[(0.0, 23.5, AF), (23.5, 100.0, OTHER)])
    _, y, _ = label_windows(*window_at(0.0), ann)
    assert y.tolist() == [0]


def test_label_windows_split_af_episodes_accumulate():
    ann = RhythmAnnotations(episodes=[(0.0, 12.0, AF), (12.0, 30.0, OTHER),
                                      (30.0, 42.0, AF), (42.0, 100.0, OTHER)])
    _, y, _ = label_windows(*window_at(0.0), ann)
    # 24 of 47.2 seconds: above half
    assert y.tolist() == [1]


def test_label_windows_skips_outside_span():
    ann = RhythmAnnotations(episodes=[(100.0, 200.0, OTHER)])
    # the first ends at 47.2 < 100, the second lies inside
    X, y, skipped = label_windows(*window_at(0.0, 110.0), ann)
    assert skipped == 1
    assert len(X) == 1
    assert y.tolist() == [0]


def test_label_windows_touching_span_edge_is_skipped():
    ann = RhythmAnnotations(episodes=[(47.2, 200.0, OTHER)])
    X, y, skipped = label_windows(*window_at(0.0), ann)
    assert (len(X), len(y), skipped) == (0, 0, 1)


def test_label_windows_enforces_quality_gate():
    ann = RhythmAnnotations(episodes=[(0.0, 100.0, OTHER)])
    with pytest.raises(ContractViolationError):
        label_windows(*window_at(0.0, bsqi=0.5), ann)


# ---------------------------------------------------------------------------
# cross-validation


def test_cv_needs_enough_patients():
    with pytest.raises(ConfigurationError):
        cross_validate(*separable_set(n_patients=4), k=5)


def test_cv_selects_cheapest_of_tied_grid():
    data = separable_set(n_per_class=40, n_patients=10, seed=1)
    result = cross_validate(*data, grid=((50, 5), (10, 2), (20, 3)), k=5,
                            seed=0)
    by_point = {(n, d): auc for n, d, auc, _ in result.rows}
    # the classes are cleanly separable, every grid point is perfect
    assert all(auc == pytest.approx(1.0) for auc in by_point.values())
    assert (result.n_estimators, result.max_depth) == (10, 2)


def test_cv_reports_every_grid_point():
    data = separable_set(n_per_class=20, n_patients=5, seed=2)
    result = cross_validate(*data, grid=((10, 2), (10, 3)), k=5, seed=0)
    assert [(r[0], r[1]) for r in result.rows] == [(10, 2), (10, 3)]
    assert all(r[3] <= 5 for r in result.rows)


def test_cv_skips_single_class_validation_folds():
    rng = np.random.default_rng(3)
    rows, y, groups = [], [], []
    for i in range(5):
        for _ in range(6):
            if i == 0:
                # one patient holds only AF windows
                rows.append(af_vector(rng))
                y.append(1)
                groups.append("solo")
            else:
                rows += [af_vector(rng), nsr_vector(rng)]
                y += [1, 0]
                groups += [f"p{i}"] * 2
    result = cross_validate(np.array(rows), np.array(y), groups,
                            grid=((10, 2),), k=5, seed=0)
    n_est, depth, auc, folds_used = result.rows[0]
    assert folds_used == 4
    assert auc is not None


@pytest.mark.parametrize("k", [1, 0, -2])
def test_cv_rejects_fewer_than_two_folds(k):
    with pytest.raises(ConfigurationError, match="at least 2 folds"):
        cross_validate(*separable_set(), k=k)


def test_cv_rejects_non_positive_grid_point():
    # depth 2 still fits 10 trees; the 0-tree point must not be scored
    with pytest.raises(ConfigurationError, match="must be positive"):
        cross_validate(*separable_set(), grid=((10, 2), (0, 2)))


def test_cv_over_an_empty_grid_fits_no_tree():
    with pytest.raises(ConfigurationError, match="no grid point"):
        cross_validate(*separable_set(), grid=())


def noisy_set(seed=5, n_patients=5, per_patient=14):
    """Overlapping classes on a 0.1 grid, so validation AUROCs differ
    between grid points; patient "solo" holds AF windows only."""
    rng = np.random.default_rng(seed)
    rows, y, groups = [], [], []
    for p in range(n_patients):
        for _ in range(per_patient):
            x = np.round(rng.normal(size=9), 1)
            rows.append(x)
            y.append(1 if x[1] + x[6] + rng.normal(0, 1.0) > 0 else 0)
            groups.append(f"p{p}")
    for _ in range(6):
        rows.append(np.round(rng.normal(0.5, 1.0, size=9), 1))
        y.append(1)
        groups.append("solo")
    return np.array(rows), np.array(y), np.array(groups)


def cross_validate_oracle(X, y, groups, grid, k, seed):
    """Rows of a grid search that fits every grid point on its own."""
    patients = sorted(set(groups.tolist()))
    order = np.random.default_rng(seed).permutation(len(patients))
    fold_of = {patients[int(p)]: i % k for i, p in enumerate(order)}
    folds = np.array([fold_of[g] for g in groups.tolist()])
    rows = []
    for n_est, depth in grid:
        aucs = []
        for j in range(k):
            tr = folds != j
            va = ~tr
            if not va.any() or y[tr].min() == y[tr].max():
                continue
            model = train(X[tr], y[tr], n_estimators=n_est,
                          max_depth=depth, seed=seed)
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
    X, y, _ = noisy_set()
    assert (train(X, y, n_estimators=50, max_depth=depth, seed=3).trees[:10]
            == train(X, y, n_estimators=10, max_depth=depth, seed=3).trees)


@pytest.mark.parametrize("k,seed", [(6, 0), (3, 2)])
def test_cv_rows_match_per_grid_point_fits(k, seed):
    data = noisy_set()
    # unsorted, with a duplicate point and a depth seen once
    grid = ((20, 3), (10, 2), (50, 3), (10, 2), (5, 3), (20, 1))
    result = cross_validate(*data, grid=grid, k=k, seed=seed)
    want = cross_validate_oracle(*data, grid, k, seed)
    assert result.rows == want
    assert len({r[2] for r in want}) > 2
    best = min(want, key=lambda r: (-r[2], r[0], r[1]))
    assert (result.n_estimators, result.max_depth) == best[:2]
    if k == 6:
        # the fold of "solo" has a single-class validation side
        assert all(r[3] == 5 for r in want)


def test_cv_rows_match_per_grid_point_fits_across_counts_and_depths():
    # the most trees at the shallowest depth, the deepest with few trees
    data = noisy_set()
    grid = ((50, 1), (5, 6), (20, 3))
    result = cross_validate(*data, grid=grid, k=5, seed=4)
    assert result.rows == cross_validate_oracle(*data, grid, 5, 4)


def leaf_counts(node):
    if "leaf" in node:
        return node["leaf"]
    left, right = leaf_counts(node["l"]), leaf_counts(node["r"])
    return [left[0] + right[0], left[1] + right[1]]


def cut(node, depth):
    """The tree under node with its split nodes at depth made leaves."""
    if "leaf" in node:
        return node
    if depth == 0:
        return {"leaf": leaf_counts(node)}
    return {"f": node["f"], "thr": node["thr"],
            "l": cut(node["l"], depth - 1), "r": cut(node["r"], depth - 1)}


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_shallower_trees_are_the_cut_of_deeper_ones(seed):
    X, y, _ = noisy_set()
    deep = train(X, y, n_estimators=12, max_depth=8, seed=seed).trees
    for depth in (1, 2, 3, 5, 7):
        shallow = train(X, y, n_estimators=12, max_depth=depth,
                        seed=seed).trees
        assert shallow == [cut(tree, depth) for tree in deep]
    # the data is deep enough that the cuts remove something
    assert cut(deep[0], 2) != deep[0]


def counting_split_searches(monkeypatch):
    """A list that gains an entry for each node that searches a split:
    each draws its features from a (seed, tree, position) stream."""
    calls = []
    default_rng = np.random.default_rng

    def counted(key):
        if isinstance(key, tuple) and len(key) == 3:
            calls.append(1)
        return default_rng(key)
    monkeypatch.setattr(np.random, "default_rng", counted)
    return calls


def test_cv_grows_no_more_nodes_than_per_point_fits(monkeypatch):
    data = noisy_set()
    grid = ((50, 1), (1, 8))
    calls = counting_split_searches(monkeypatch)
    result = cross_validate(*data, grid=grid, k=5, seed=0)
    one_forest = len(calls)
    calls.clear()
    assert cross_validate_oracle(*data, grid, 5, 0) == result.rows
    per_point = len(calls)
    assert one_forest <= per_point
    calls.clear()
    # a forest of 50 depth-8 trees per fold would grow far more
    cross_validate(*data, grid=((50, 8),), k=5, seed=0)
    assert len(calls) > 2 * per_point


def test_no_node_draws_from_its_trees_bootstrap_stream(monkeypatch):
    X, y, _ = noisy_set()
    keys = []
    default_rng = np.random.default_rng

    def recording(key):
        keys.append(tuple(key))
        return default_rng(key)
    monkeypatch.setattr(np.random, "default_rng", recording)
    train(X, y, n_estimators=3, max_depth=4, seed=0)
    monkeypatch.undo()
    # bootstrap keys (seed, t), node keys (seed, t, heap position); the
    # root is position 1
    assert {(0, 0), (0, 0, 1), (0, 2), (0, 2, 1)} <= set(keys)
    streams = {tuple(np.random.SeedSequence(key).generate_state(8))
               for key in keys}
    assert len(streams) == len(keys)
    # why the root is not position 0: zero padding gives it the
    # bootstrap's stream
    assert (np.random.default_rng((0, 1, 0)).integers(1 << 62, size=4)
            == np.random.default_rng((0, 1)).integers(1 << 62,
                                                      size=4)).all()


def test_cv_deterministic_given_seed():
    data = separable_set(n_per_class=20, n_patients=5, seed=4)
    a = cross_validate(*data, grid=((10, 2), (20, 2)), k=5, seed=1)
    b = cross_validate(*data, grid=((10, 2), (20, 2)), k=5, seed=1)
    assert a == b


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip():
    X, y, _ = separable_set()
    model = train(X, y, seed=0)
    back = load_model(save_model(model))
    assert back == model
    X = np.stack([af_vector(np.random.default_rng(1)) for _ in range(4)])
    np.testing.assert_array_equal(predict_proba_many(back, X),
                                  predict_proba_many(model, X))


def test_model_json_is_canonical():
    payload = json.loads(save_model(train(*separable_set()[:2], seed=0)))
    assert payload["format_version"] == 1
    assert payload["kind"] == "af-window-forest"
    assert payload["feature_names"] == list(FEATURE_NAMES)


def tampered(**overrides):
    # a tree list that replaces the trained one brings its own count,
    # unless n_estimators is tampered with too
    payload = json.loads(save_model(train(*separable_set()[:2], seed=0)))
    if isinstance(overrides.get("trees"), list):
        payload["n_estimators"] = len(overrides["trees"])
    payload.update(overrides)
    return json.dumps(payload)


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_model(b"{not json")
    with pytest.raises(ParseError):
        load_model(b"[1, 2, 3]")
    with pytest.raises(ParseError):
        load_model(b'{"seed": 1' + b"0" * 4400 + b"}")


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
    payload = json.loads(save_model(train(*separable_set()[:2], seed=0)))
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


LEAF = {"leaf": [1, 0]}


@pytest.mark.parametrize("f", [99, 9, -1, 0.5, True, "0", None])
def test_load_rejects_split_feature_predict_cannot_read(f):
    # -1 would silently split on the last feature, 9 and up raise an
    # IndexError in predict
    with pytest.raises(ParseError, match="split feature"):
        load_model(tampered(trees=[{"f": f, "thr": 1.0, "l": LEAF,
                                    "r": LEAF}]))


@pytest.mark.parametrize("thr", ["x", float("nan"), float("inf"), True,
                                 None, [1.0], 10 ** 400])
def test_load_rejects_non_finite_threshold(thr):
    # NaN would send every row right; a huge int overflows the compare
    with pytest.raises(ParseError, match="split threshold"):
        load_model(tampered(trees=[{"f": 0, "thr": thr, "l": LEAF,
                                    "r": LEAF}]))


@pytest.mark.parametrize("depth", [0, -1, forest.MAX_DEPTH_LIMIT + 1,
                                   10 ** 6, 2.0, "3", True, None])
def test_load_rejects_max_depth_out_of_range(depth):
    with pytest.raises(ParseError, match="max_depth"):
        load_model(tampered(max_depth=depth))


@pytest.mark.parametrize("n", ["twenty", 1.0, True, None, [1], 0, 2, -1])
def test_load_rejects_n_estimators_other_than_the_tree_count(n):
    # tampered() holds one tree per estimator of the default forest
    assert load_model(tampered()).n_estimators == forest.DEFAULT_N_ESTIMATORS
    with pytest.raises(ParseError, match=f"n_estimators {re.escape(repr(n))}"):
        load_model(tampered(trees=[LEAF], n_estimators=n))
    trees = [LEAF] * forest.DEFAULT_N_ESTIMATORS
    with pytest.raises(ParseError, match="n_estimators"):
        load_model(tampered(trees=trees,
                            n_estimators=forest.DEFAULT_N_ESTIMATORS + 1))


@pytest.mark.parametrize("seed", [[None], "0", 0.0, True, None, {}])
def test_load_rejects_seed_that_is_not_an_integer(seed):
    assert load_model(tampered(seed=-7)).seed == -7
    with pytest.raises(ParseError, match=f"seed {re.escape(repr(seed))}"):
        load_model(tampered(seed=seed))


def test_load_rejects_tree_deeper_than_max_depth():
    deep = {"f": 0, "thr": 1.0, "l": LEAF,
            "r": {"f": 1, "thr": 2.0, "l": LEAF, "r": LEAF}}
    assert load_model(tampered(max_depth=2, trees=[deep])).trees == [deep]
    with pytest.raises(ParseError, match="deeper"):
        load_model(tampered(max_depth=1, trees=[LEAF, deep]))


def test_load_accepts_integer_threshold():
    model = load_model(tampered(trees=[{"f": 6, "thr": 700, "l": LEAF,
                                        "r": {"leaf": [0, 1]}}]))
    assert proba(model, fv(avnn=800.0)) == 1.0


@pytest.mark.parametrize("names", [None, 5, True, "bsqi", [1] * 9,
                                   list(FEATURE_NAMES[:8]),
                                   list(reversed(FEATURE_NAMES))])
def test_load_rejects_bad_feature_names(names):
    with pytest.raises(ParseError, match="feature_names"):
        load_model(tampered(feature_names=names))
    payload = json.loads(tampered())
    del payload["feature_names"]
    with pytest.raises(ParseError, match="feature_names"):
        load_model(json.dumps(payload))
