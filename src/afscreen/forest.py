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

Per-tree RNG streams are derived from (seed, tree_index), so training
is deterministic and independent of tree scheduling, and a forest of n
trees is the first n trees of any larger forest of the same depth.
Cross-validation folds group by patient so no patient spans a fold
boundary; each fold fits one forest per grid depth, with that depth's
largest tree count, and scores the smaller grid points from its first
trees.

Models serialize to versioned JSON carrying a checksum of the declared
feature order; loading against a different feature declaration fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
# brackets the defaults: tree counts {10, 20, 50} x depths {2, 3, 5}
DEFAULT_GRID = tuple((n, d) for n in (10, 20, 50) for d in (2, 3, 5))


@dataclass
class ForestModel:
    trees: list
    n_estimators: int
    max_depth: int
    seed: int
    feature_names: tuple = FEATURE_NAMES
    feature_checksum: str = field(default_factory=feature_order_checksum)


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


def _grow(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int,
          max_depth: int, n_sub: int, rng: np.random.Generator):
    c1 = int(y[idx].sum())
    c0 = idx.shape[0] - c1
    if depth >= max_depth or idx.shape[0] < 2 or c0 == 0 or c1 == 0:
        return {"leaf": [c0, c1]}
    feats = rng.choice(X.shape[1], size=n_sub, replace=False)
    best = _best_split(X, y, idx, feats)
    if best is None:
        return {"leaf": [c0, c1]}
    f, thr = best
    mask = X[idx, f] <= thr
    return {
        "f": f,
        "thr": thr,
        "l": _grow(X, y, idx[mask], depth + 1, max_depth, n_sub, rng),
        "r": _grow(X, y, idx[~mask], depth + 1, max_depth, n_sub, rng),
    }


def train(X: np.ndarray, y: np.ndarray,
          n_estimators: int = DEFAULT_N_ESTIMATORS,
          max_depth: int = DEFAULT_MAX_DEPTH,
          seed: int = 0) -> ForestModel:
    """Fit the forest on rows X with labels y (1 = AF, 0 = nonAF).

    Deterministic given (row order, seed).
    """
    if n_estimators < 1 or max_depth < 1:
        raise ConfigurationError(
            "n_estimators and max_depth must be positive")
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
    y = y.astype(np.int64)
    if not np.all(np.isfinite(X)):
        raise ContractViolationError("training features must be finite")
    if y.min() == y.max():
        raise DegenerateModelError(
            "training data holds a single class; both AF and nonAF "
            "windows are required")
    n = X.shape[0]
    n_sub = int(math.floor(math.sqrt(X.shape[1])))
    trees = []
    for t in range(n_estimators):
        rng = np.random.default_rng((seed, t))
        boot = rng.integers(0, n, size=n)
        trees.append(_grow(X, y, boot, 0, max_depth, n_sub, rng))
    return ForestModel(trees=trees, n_estimators=n_estimators,
                       max_depth=max_depth, seed=seed)


def _tree_vote_many(node, X: np.ndarray) -> np.ndarray:
    if "leaf" in node:
        c0, c1 = node["leaf"]
        return np.full(X.shape[0], 1 if c1 > c0 else 0, dtype=np.int64)
    mask = X[:, node["f"]] <= node["thr"]
    out = np.empty(X.shape[0], dtype=np.int64)
    out[mask] = _tree_vote_many(node["l"], X[mask])
    out[~mask] = _tree_vote_many(node["r"], X[~mask])
    return out


def predict_proba_many(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting AF for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ContractViolationError(
            f"expected (n, {len(model.feature_names)}) feature matrix, "
            f"got {X.shape}")
    votes = np.zeros(X.shape[0], dtype=np.int64)
    for tree in model.trees:
        votes += _tree_vote_many(tree, X)
    return votes / len(model.trees)


@dataclass
class CvResult:
    n_estimators: int
    max_depth: int
    rows: list  # (n_estimators, max_depth, mean_auroc or None, folds_used)


def cross_validate(X: np.ndarray, y: np.ndarray, groups,
                   grid=DEFAULT_GRID, k: int = DEFAULT_CV_FOLDS,
                   seed: int = 0) -> CvResult:
    """Patient-grouped k-fold selection of (n_estimators, max_depth).

    groups holds each row's patient id; a patient's rows share a fold.

    Ties on mean AUROC prefer fewer trees, then shallower depth. Folds
    with a single-class train or validation side are skipped for that
    grid point. Rows follow the grid's order, duplicates included. A
    grid point of n trees is scored from the first n trees of its
    depth's largest forest, whose tree t depends only on (data, seed,
    t, depth).
    """
    if k < 2:
        raise ConfigurationError(f"grouped CV needs at least 2 folds, got {k}")
    if any(n_est < 1 or depth < 1 for n_est, depth in grid):
        raise ConfigurationError(
            "n_estimators and max_depth must be positive")
    patients, patient_of = np.unique(np.asarray(groups),
                                     return_inverse=True)
    if len(patients) < k:
        raise ConfigurationError(
            f"grouped {k}-fold CV needs at least {k} patients, "
            f"got {len(patients)}")
    fold_of = np.empty(len(patients), dtype=np.int64)
    fold_of[np.random.default_rng(seed).permutation(len(patients))] = \
        np.arange(len(patients)) % k
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = fold_of[patient_of]

    counts_at: dict[int, set[int]] = {}
    for n_est, depth in grid:
        counts_at.setdefault(depth, set()).add(n_est)
    aucs: dict[tuple[int, int], list[float]] = {
        (n_est, depth): [] for n_est, depth in grid}
    for j in range(k):
        tr = folds != j
        va = ~tr
        if not va.any() or y[tr].min() == y[tr].max():
            continue
        X_va, y_va = X[va], y[va].tolist()
        for depth, counts in counts_at.items():
            model = train(X[tr], y[tr], n_estimators=max(counts),
                          max_depth=depth, seed=seed)
            votes = np.cumsum([_tree_vote_many(t, X_va)
                               for t in model.trees], axis=0)
            for n_est in counts:
                # the division predict_proba_many makes for n_est trees
                proba = votes[n_est - 1] / n_est
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
        "feature_names": list(model.feature_names),
        "feature_checksum": model.feature_checksum,
        "trees": model.trees,
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


def _check_tree(node) -> None:
    if not isinstance(node, dict):
        raise ParseError("tree node is not an object")
    if "leaf" in node:
        counts = node["leaf"]
        if (not isinstance(counts, list) or len(counts) != 2
                or not all(isinstance(c, int) and c >= 0 for c in counts)):
            raise ParseError(f"malformed leaf counts {counts!r}")
        return
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
    _check_tree(node["l"])
    _check_tree(node["r"])


def load_model(data: bytes | str) -> ForestModel:
    try:
        payload = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"malformed model file: {e}") from None
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
    checksum = payload.get("feature_checksum")
    if checksum != feature_order_checksum():
        raise CompatibilityError(
            "model feature order does not match this build's feature "
            "declaration")
    for key in ("trees", "n_estimators", "max_depth", "seed"):
        if key not in payload:
            raise ParseError(f"model file missing {key!r}")
    trees = payload["trees"]
    if not isinstance(trees, list) or not trees:
        raise ParseError("model file holds no trees")
    for tree in trees:
        _check_tree(tree)
    names = payload.get("feature_names")
    if names != list(FEATURE_NAMES):
        raise ParseError(f"model feature_names {names!r} are not the "
                         f"declared {list(FEATURE_NAMES)!r}")
    return ForestModel(trees=trees,
                       n_estimators=payload["n_estimators"],
                       max_depth=payload["max_depth"],
                       seed=payload["seed"],
                       feature_names=FEATURE_NAMES,
                       feature_checksum=checksum)
