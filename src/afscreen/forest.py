"""Random forest window classifier, built from scratch.

Twenty depth-3 trees by default. Each tree sees a bootstrap resample of
the training windows; each node draws floor(sqrt(9)) = 3 candidate
features without replacement and takes the split minimizing weighted
Gini impurity over midpoints between consecutive distinct feature
values; of equally good splits it takes the first drawn feature, then
that feature's lowest boundary. Leaves store class counts; a tree votes
the majority class of the reached leaf (leaf tie -> nonAF); the forest's
probability is the fraction of trees voting AF; the pipeline labels a
window AF iff that fraction exceeds 0.5 (exactly 0.5 -> nonAF).

Training data is three aligned arrays: X, the (n, 9) feature matrix;
y, the labels (1 = AF, 0 = nonAF); and groups, each window's patient
id. label_windows makes one recording's X and y.

Each tree bootstraps from an RNG stream keyed by (seed, tree_index),
and each of its nodes draws features from a stream keyed by (seed,
tree_index, position), where the root is position 1 and node p has
children 2p and 2p + 1. So training is deterministic, a forest of n
trees is the first n trees of any larger forest, and a depth-d tree is
the top d levels of any deeper tree with the same data, seed and index.
Cross-validation folds group by patient so no patient spans a fold
boundary; each fold fits one forest and scores every grid point from
its first trees, cut at the point's depth.

Models serialize to versioned JSON carrying a checksum of the declared
feature order; loading against a different feature declaration fails,
as does a max_depth above MAX_DEPTH_LIMIT or a tree deeper than the
file's own max_depth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import quality, stats
from .errors import (
    CompatibilityError,
    ConfigurationError,
    ContractViolationError,
    DegenerateModelError,
    ParseError,
)
from .features import FEATURE_NAMES, feature_order_checksum, featurize
from .record_io import RhythmAnnotations

MODEL_FORMAT_VERSION = 1
MODEL_KIND = "af-window-forest"
DEFAULT_N_ESTIMATORS = 20
DEFAULT_MAX_DEPTH = 3
DEFAULT_CV_FOLDS = 5
DEFAULT_SEED = 0
# brackets the defaults: tree counts {10, 20, 50} x depths {2, 3, 5}
DEFAULT_GRID = tuple((n, d) for n in (10, 20, 50) for d in (2, 3, 5))
# The deepest tree train fits and load_model accepts. Fitting, checking
# and voting recurse once per level, so this keeps every model far
# inside Python's recursion limit wherever it is called from.
MAX_DEPTH_LIMIT = 32


@dataclass
class ForestModel:
    trees: list
    n_estimators: int
    max_depth: int
    seed: int


def label_windows(times: np.ndarray, bsqi: np.ndarray,
                  annotations: RhythmAnnotations,
                  min_bsqi: float = quality.BSQI_THRESHOLD,
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """Features and rhythm labels of quality-gated windows.

    times holds one window of beat times per row, bsqi their scores. A
    window is AF (1) iff at least half of its time span lies inside AF
    episodes, else nonAF (0). Windows entirely outside the annotated
    span are skipped. Returns (X, y, number skipped).
    """
    span_start, span_end = annotations.span
    t_start = times[:, 0]
    t_end = times[:, -1]
    keep = (t_end > span_start) & (t_start < span_end)
    y = np.array([annotations.af_overlap_s(t0, t1) >= 0.5 * (t1 - t0)
                  for t0, t1 in zip(t_start[keep].tolist(),
                                    t_end[keep].tolist())],
                 dtype=np.int64)
    X = featurize(np.diff(times[keep], axis=1) * 1000.0, bsqi[keep],
                  min_bsqi)
    return X, y, int(keep.shape[0] - np.count_nonzero(keep))


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                feats: np.ndarray):
    """First (feature, threshold) minimizing the weighted Gini impurity.

    All boundaries of the drawn features are scored in one pass. Ties
    go to the first drawn feature, then to its lowest boundary.
    """
    n = idx.shape[0]
    vals = X[np.ix_(idx, feats)]
    order = np.argsort(vals, axis=0, kind="mergesort")
    sv = np.take_along_axis(vals, order, axis=0)
    cum1 = np.cumsum(y[idx][order], axis=0)
    # boundary b puts sorted rows 0..b left; integer counts, so every
    # float below is the correctly rounded value of the same expression
    l1 = cum1[:-1]
    r1 = cum1[-1] - l1
    nl = np.arange(1, n, dtype=np.int64)[:, None]
    nr = n - nl
    l0 = nl - l1
    r0 = nr - r1
    g = (nl * (1.0 - (l0 * l0 + l1 * l1) / (nl * nl))
         + nr * (1.0 - (r0 * r0 + r1 * r1) / (nr * nr))) / n
    g = np.where(sv[:-1] < sv[1:], g, np.inf)
    k = int(np.argmin(g.T))
    j, b = divmod(k, n - 1)
    if g[b, j] == np.inf:
        return None
    thr = 0.5 * (sv[b, j] + sv[b + 1, j])
    if thr >= sv[b + 1, j]:
        # adjacent floats can round the midpoint up; keep the threshold
        # strictly below the right value
        thr = sv[b, j]
    return int(feats[j]), float(thr)


def _grow(X: np.ndarray, y: np.ndarray, idx: np.ndarray, levels: int,
          key: tuple[int, int], pos: int, counts: bool):
    """The subtree at heap position pos, with at most levels split
    levels, grown on rows idx; key is the tree's (seed, index). With
    counts, split nodes keep their class counts under "n", so a tree cut
    there votes as if the node were a leaf."""
    c1 = int(y[idx].sum())
    c0 = idx.shape[0] - c1
    if levels == 0 or idx.shape[0] < 2 or c0 == 0 or c1 == 0:
        return {"leaf": [c0, c1]}
    feats = np.random.default_rng((*key, pos)).choice(
        X.shape[1], size=math.isqrt(X.shape[1]), replace=False)
    best = _best_split(X, y, idx, feats)
    if best is None:
        return {"leaf": [c0, c1]}
    f, thr = best
    mask = X[idx, f] <= thr
    node = {
        "f": f,
        "thr": thr,
        "l": _grow(X, y, idx[mask], levels - 1, key, 2 * pos, counts),
        "r": _grow(X, y, idx[~mask], levels - 1, key, 2 * pos + 1, counts),
    }
    if counts:
        node["n"] = [c0, c1]
    return node


def _fit_tree(X: np.ndarray, y: np.ndarray, seed: int, t: int,
              max_depth: int, counts: bool = False):
    """Tree t of a forest: grown on its bootstrap of the rows of X."""
    n = X.shape[0]
    boot = np.random.default_rng((seed, t)).integers(0, n, size=n)
    # the root is position 1: SeedSequence pads its entropy with zeros,
    # so position 0 would share the bootstrap's stream
    return _grow(X, y, boot, max_depth, (seed, t), 1, counts)


def _check_hyperparameters(n_estimators: int, max_depth: int) -> None:
    if n_estimators < 1 or not 1 <= max_depth <= MAX_DEPTH_LIMIT:
        raise ConfigurationError(
            f"n_estimators and max_depth must be positive, and max_depth "
            f"at most {MAX_DEPTH_LIMIT}")


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")


def _training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as float64 and y as int64, once both are checked."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise DegenerateModelError("no training windows")
    if X.shape != (y.shape[0], len(FEATURE_NAMES)):
        raise ContractViolationError(
            f"expected an (n, {len(FEATURE_NAMES)}) feature matrix and n "
            f"labels, got {X.shape} and {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ContractViolationError("labels must be 1 (AF) or 0 (nonAF)")
    if not np.all(np.isfinite(X)):
        raise ContractViolationError("training features must be finite")
    return X, y.astype(np.int64)


def train(X: np.ndarray, y: np.ndarray,
          n_estimators: int = DEFAULT_N_ESTIMATORS,
          max_depth: int = DEFAULT_MAX_DEPTH,
          seed: int = DEFAULT_SEED) -> ForestModel:
    """Fit the forest on rows X with labels y (1 = AF, 0 = nonAF).

    Deterministic given (row order, seed).
    """
    _check_hyperparameters(n_estimators, max_depth)
    check_seed(seed)
    X, y = _training_data(X, y)
    if y.min() == y.max():
        raise DegenerateModelError(
            "training data holds a single class; both AF and nonAF "
            "windows are required")
    trees = [_fit_tree(X, y, seed, t, max_depth)
             for t in range(n_estimators)]
    return ForestModel(trees=trees, n_estimators=n_estimators,
                       max_depth=max_depth, seed=seed)


def _add_votes(node, X: np.ndarray, rows: np.ndarray, level: int,
               depths: list[int], out: np.ndarray) -> None:
    """Add to out[i, rows] the AF votes on X[rows] of the tree under
    node, cut at depths[i] levels.

    node sits at level, and depths ascend from level or beyond. A split
    node at a cut votes the class counts it keeps under "n", like a leaf.
    """
    if "leaf" in node:
        c0, c1 = node["leaf"]
        if c1 > c0:
            out[:, rows] += 1
        return
    if depths[0] == level:
        c0, c1 = node["n"]
        if c1 > c0:
            out[0, rows] += 1
        depths, out = depths[1:], out[1:]
        if not depths:
            return
    left = X[rows, node["f"]] <= node["thr"]
    _add_votes(node["l"], X, rows[left], level + 1, depths, out)
    _add_votes(node["r"], X, rows[~left], level + 1, depths, out)


def predict_proba_many(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting AF for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise ContractViolationError(
            f"expected (n, {len(FEATURE_NAMES)}) feature matrix, "
            f"got {X.shape}")
    votes = np.zeros((1, X.shape[0]), dtype=np.int64)
    rows = np.arange(X.shape[0])
    for tree in model.trees:
        # no tree is deeper than max_depth, so the cut there is the tree
        _add_votes(tree, X, rows, 0, [model.max_depth], votes)
    return votes[0] / len(model.trees)


@dataclass
class CvResult:
    n_estimators: int
    max_depth: int
    rows: list  # (n_estimators, max_depth, mean_auroc or None, folds_used)


def cross_validate(X: np.ndarray, y: np.ndarray, groups,
                   grid=DEFAULT_GRID, k: int = DEFAULT_CV_FOLDS,
                   seed: int = DEFAULT_SEED) -> CvResult:
    """Patient-grouped k-fold selection of (n_estimators, max_depth).

    groups holds each row's patient id; a patient's rows share a fold.

    Ties on mean AUROC prefer fewer trees, then shallower depth. Folds
    with a single-class train or validation side are skipped for that
    grid point. Rows follow the grid's order, duplicates included.

    Each fold fits one forest. Its tree t grows to the deepest depth of
    the grid points with more than t trees, and a point of n trees and
    depth d is scored from the first n trees, each cut at depth d: the
    trees train would fit for that point, since tree t depends only on
    (data, seed, t) and a shallower tree is the top of a deeper one.
    """
    if k < 2:
        raise ConfigurationError(f"grouped CV needs at least 2 folds, got {k}")
    check_seed(seed)
    for n_est, depth in grid:
        _check_hyperparameters(n_est, depth)
    patients, patient_of = np.unique(np.asarray(groups),
                                     return_inverse=True)
    if len(patients) < k:
        raise ConfigurationError(
            f"grouped {k}-fold CV needs at least {k} patients, "
            f"got {len(patients)}")
    fold_of = np.empty(len(patients), dtype=np.int64)
    fold_of[np.random.default_rng(seed).permutation(len(patients))] = \
        np.arange(len(patients)) % k
    X, y = _training_data(X, y)
    folds = fold_of[patient_of]

    n_trees = max((n_est for n_est, _ in grid), default=0)
    depth_of_tree = [max(d for n_est, d in grid if n_est > t)
                     for t in range(n_trees)]
    depths = sorted({depth for _, depth in grid})
    aucs: dict[tuple[int, int], list[float]] = {
        (n_est, depth): [] for n_est, depth in grid}
    for j in range(k):
        tr = folds != j
        va = ~tr
        if not va.any() or y[tr].min() == y[tr].max():
            continue
        X_tr, y_tr = X[tr], y[tr]
        X_va, y_va = X[va], y[va].tolist()
        rows_va = np.arange(len(y_va))
        # votes[t, i]: tree t cut at depths[i], on each validation row
        votes = np.zeros((n_trees, len(depths), len(y_va)), dtype=np.int64)
        for t in range(n_trees):
            tree = _fit_tree(X_tr, y_tr, seed, t, depth_of_tree[t],
                             counts=True)
            _add_votes(tree, X_va, rows_va, 0, depths, votes[t])
        votes = np.cumsum(votes, axis=0)
        for n_est, depth in aucs:
            # the division predict_proba_many makes for n_est trees
            proba = votes[n_est - 1, depths.index(depth)] / n_est
            auc, _ = stats.auroc(list(zip(proba.tolist(), y_va)))
            if auc is not None:
                aucs[n_est, depth].append(auc)

    rows = []
    for n_est, depth in grid:
        point = aucs[n_est, depth]
        mean_auc = sum(point) / len(point) if point else None
        rows.append((n_est, depth, mean_auc, len(point)))

    scored = [r for r in rows if r[2] is not None]
    if not scored:
        raise ConfigurationError(
            "no grid point produced a defined validation AUROC")
    best = min(scored, key=lambda r: (-r[2], r[0], r[1]))
    return CvResult(n_estimators=best[0], max_depth=best[1], rows=rows)


def save_model(model: ForestModel) -> bytes:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": MODEL_KIND,
        "n_estimators": model.n_estimators,
        "max_depth": model.max_depth,
        "seed": model.seed,
        "feature_names": list(FEATURE_NAMES),
        "feature_checksum": feature_order_checksum(),
        "trees": model.trees,
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


def _check_tree(node, levels: int) -> None:
    # levels: the split levels allowed at and below this node
    if not isinstance(node, dict):
        raise ParseError("tree node is not an object")
    if "leaf" in node:
        counts = node["leaf"]
        if (not isinstance(counts, list) or len(counts) != 2
                or not all(isinstance(c, int) and c >= 0 for c in counts)):
            raise ParseError(f"malformed leaf counts {counts!r}")
        return
    if levels == 0:
        raise ParseError("tree is deeper than the model's max_depth")
    for key in ("f", "thr", "l", "r"):
        if key not in node:
            raise ParseError(f"split node missing {key!r}")
    f, thr = node["f"], node["thr"]
    if type(f) is not int or not 0 <= f < len(FEATURE_NAMES):
        raise ParseError(f"split feature {f!r} is not an index below "
                         f"{len(FEATURE_NAMES)}")
    try:
        finite = type(thr) in (int, float) and math.isfinite(thr)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ParseError(f"split threshold {thr!r} is not a finite number")
    _check_tree(node["l"], levels - 1)
    _check_tree(node["r"], levels - 1)


def load_model(data: bytes | str) -> ForestModel:
    try:
        payload = json.loads(data)
    except ValueError as e:  # bad JSON, bad UTF-8 or too many digits
        raise ParseError(f"malformed model file: {e}") from None
    except RecursionError:
        raise ParseError("malformed model file: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ParseError("model file must hold a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise CompatibilityError(
            f"model format version {version!r} is not supported "
            f"(expected {MODEL_FORMAT_VERSION})")
    if payload.get("kind") != MODEL_KIND:
        raise CompatibilityError(
            f"not an {MODEL_KIND} model: kind={payload.get('kind')!r}")
    if payload.get("feature_checksum") != feature_order_checksum():
        raise CompatibilityError(
            "model feature order does not match this build's feature "
            "declaration")
    for key in ("trees", "n_estimators", "max_depth", "seed"):
        if key not in payload:
            raise ParseError(f"model file missing {key!r}")
    max_depth = payload["max_depth"]
    if type(max_depth) is not int or not 1 <= max_depth <= MAX_DEPTH_LIMIT:
        raise ParseError(f"model max_depth {max_depth!r} is not an integer "
                         f"from 1 to {MAX_DEPTH_LIMIT}")
    trees = payload["trees"]
    if not isinstance(trees, list) or not trees:
        raise ParseError("model file holds no trees")
    n_estimators, seed = payload["n_estimators"], payload["seed"]
    if type(n_estimators) is not int or n_estimators != len(trees):
        raise ParseError(f"model n_estimators {n_estimators!r} is not the "
                         f"integer {len(trees)}, its number of trees")
    if type(seed) is not int:
        raise ParseError(f"model seed {seed!r} is not an integer")
    for tree in trees:
        _check_tree(tree, max_depth)
    names = payload.get("feature_names")
    if names != list(FEATURE_NAMES):
        raise ParseError(f"model feature_names {names!r} are not the "
                         f"declared {list(FEATURE_NAMES)!r}")
    return ForestModel(trees=trees,
                       n_estimators=n_estimators,
                       max_depth=max_depth,
                       seed=seed)
