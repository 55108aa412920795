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

Tree t bootstraps from an RNG stream keyed by (seed, t), and its node at
heap position p (the root is 1, and p has children 2p and 2p + 1) draws
features from a stream keyed by (seed, t, p). So training is
deterministic, the first n trees of a forest are the n-tree forest, and
a depth-d tree is the top d levels of a deeper one. A fit grows all its
trees a level at a time, with one split search per level and no
recursion. Cross-validation folds group by patient; each fold fits one
forest, reading its first trees' votes at each grid point's depth as
its validation rows go down the trees with the training rows.

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

from . import stats
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
# The deepest tree train fits and load_model accepts. Checking and
# voting recurse once per level, so this keeps every model far inside
# Python's recursion limit wherever it is called from.
MAX_DEPTH_LIMIT = 32


@dataclass
class ForestModel:
    trees: list
    n_estimators: int
    max_depth: int
    seed: int


def label_windows(times: np.ndarray, bsqi: np.ndarray,
                  annotations: RhythmAnnotations,
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """Features and rhythm labels of windows.

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
    X = featurize(times[keep], bsqi[keep])
    return X, y, int(keep.shape[0] - np.count_nonzero(keep))


def _best_splits(code: np.ndarray, values: np.ndarray, rows: np.ndarray,
                 node: np.ndarray, feats: np.ndarray):
    """Each node i's first (feature, threshold) minimizing the weighted
    Gini impurity of rows[node == i] over features feats[i] (-1 if none
    splits it or feats[i] is -1), by one sort of (node, draw, value, label)
    keys; ties go to the first drawn feature, then the lowest boundary.
    code[f, r] = 2 * v + y[r] for the first v with values[v, f] = X[r, f]."""
    (m, k), n = feats.shape, code.shape[1]
    rows, node = rows[(feats[:, 0] >= 0)[node]], node[(feats[:, 0] >= 0)[node]]
    span = 2 * n  # the codes of one segment, node * k + draw
    dtype = np.int32 if span * m * k < 2 ** 31 else np.int64
    seg = np.arange(m * k, dtype=dtype).reshape(m, k).T
    key = np.sort((span * seg).take(node, axis=1) + code.take(
        (n * feats.T).take(node, axis=1) + rows), axis=None)
    edge = np.searchsorted(key, np.arange(m * k + 1, dtype=dtype) * span)
    # AF rows before each sorted row, widened so Gini's products fit
    cum = np.concatenate(([0], (key & 1).cumsum(dtype=dtype)), dtype=np.int64)
    # boundary b splits segment s before sorted row b, the first of a run
    # of equal values but not of the segment
    b = np.flatnonzero((key >> 1)[1:] != (key >> 1)[:-1]) + 1
    b = b[b > edge[key[b] // span]]
    s = key[b] // span
    nl, l1 = b - edge[s], cum[b] - cum[edge][s]
    nr, r1 = np.diff(edge)[s] - nl, np.diff(cum[edge])[s] - l1
    l0, r0 = nl - l1, nr - r1
    # integer counts, so every float is the same however nodes batch
    g = (nl * (1.0 - (l0 * l0 + l1 * l1) / (nl * nl))
         + nr * (1.0 - (r0 * r0 + r1 * r1) / (nr * nr))) / (nl + nr)
    i, low = s // k, np.full(m, np.inf)
    np.minimum.at(low, i, g)
    hit = np.flatnonzero(g == low[i])
    hit = hit[np.diff(i[hit], prepend=-1) != 0]  # each node's first
    b, i, f = b[hit], i[hit], feats[i[hit], s[hit] % k]
    lo, hi = values[(key[[b - 1, b]] >> 1) % n, f]
    with np.errstate(over="ignore"):
        thr = 0.5 * (lo + hi)
    best_f, best_thr = np.full(m, -1), np.zeros(m)
    # adjacent floats can round the midpoint up to the right value, and
    # a sum past the float range makes it +-inf
    best_f[i], best_thr[i] = f, np.where((thr >= hi) | (thr < lo), lo, thr)
    return best_f, best_thr


def _descend(X, rows, node, f, thr) -> tuple[np.ndarray, np.ndarray]:
    """Rows in split nodes (f >= 0) and their children: left iff x <= thr."""
    split = f >= 0
    rows, node = rows[split[node]], node[split[node]]
    left = X[rows, f[node]] <= thr[node]
    return rows, 2 * (np.cumsum(split) - 1)[node] + ~left


def _fit_trees(X, y, seed: int, depths, X_va) -> tuple[list, np.ndarray]:
    """Trees 0, 1, ... of a forest, tree t grown on its bootstrap of X's rows
    to depths[t] levels, a level of all trees at a time, and votes[l, t, i]:
    True iff row i of X_va reaches, at most l levels down tree t, a node
    with more AF than nonAF rows, the vote of tree t cut at depth l."""
    (n, n_feat), k = X.shape, math.isqrt(X.shape[1])
    values = np.sort(X, axis=0)
    code = np.array([2 * np.searchsorted(v, x) + y
                     for v, x in zip(values.T, X.T)], dtype=np.int32)
    # open nodes: (dict, tree, heap position). The root is position 1, as
    # 0 would share the bootstrap's stream: SeedSequence pads with zeros.
    roots = nodes = [({}, t, 1) for t in range(len(depths))]
    rows = np.array([np.random.default_rng((seed, t)).integers(0, n, size=n)
                     for t in range(len(depths))], dtype=np.int64).ravel()
    node = np.repeat(np.arange(len(depths)), n)  # each row's open node
    va_node, va_rows = np.indices((len(depths), len(X_va))).reshape(2, -1)
    votes = np.zeros((max([0, *depths]) + 1, len(depths), len(X_va)), bool)
    level = 0
    while nodes:  # c: the [nonAF, AF] rows of each open node
        c = np.bincount(2 * node + y[rows], minlength=2 * len(nodes))
        tree = np.array([t for _, t, _ in nodes])
        # a row's vote holds at this level and below, until it moves on
        votes[level:, tree[va_node], va_rows] = (c[1::2] > c[::2])[va_node]
        c = c.reshape(-1, 2).tolist()
        # a node above its tree's depth with both classes draws features
        feats = np.array([
            np.random.default_rng((seed, t, pos)).choice(n_feat, k, False)
            if pos.bit_length() <= depths[t] and min(c[i]) > 0
            else [-1] * k for i, (_, t, pos) in enumerate(nodes)])
        f, thr = _best_splits(code, values, rows, node, feats)
        grown = []
        for (d, t, pos), fi, ti, ci in zip(nodes, f.tolist(), thr.tolist(), c):
            if fi < 0:
                d["leaf"] = ci
                continue
            d.update(f=fi, thr=ti, l={}, r={})
            grown += [(d["l"], t, 2 * pos), (d["r"], t, 2 * pos + 1)]
        rows, node = _descend(X, rows, node, f, thr)
        va_rows, va_node = _descend(X_va, va_rows, va_node, f, thr)
        nodes, level = grown, level + 1
    return [d for d, _, _ in roots], votes


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
    trees, _ = _fit_trees(X, y, seed, [max_depth] * n_estimators, X[:0])
    return ForestModel(trees, n_estimators, max_depth, seed)


def _add_votes(node, X, rows: np.ndarray, out: np.ndarray) -> None:
    """Add 1 to out[rows] where the tree under node votes AF on X[rows]."""
    if "leaf" in node:
        c0, c1 = node["leaf"]
        if c1 > c0:
            out[rows] += 1
        return
    left = X[rows, node["f"]] <= node["thr"]
    _add_votes(node["l"], X, rows[left], out)
    _add_votes(node["r"], X, rows[~left], out)


def predict_proba_many(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting AF for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise ContractViolationError(
            f"expected (n, {len(FEATURE_NAMES)}) feature matrix, "
            f"got {X.shape}")
    votes = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    for tree in model.trees:
        _add_votes(tree, X, rows, votes)
    return votes / len(model.trees)


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
    depth d is scored from the first n trees' votes at depth d, read
    during the fit: the votes of the trees train would fit for that
    point, since tree t depends only on (data, seed, t) and a shallower
    tree is the top of a deeper one.
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

    depth_of_tree = [max(d for n_est, d in grid if n_est > t)
                     for t in range(max((n for n, _ in grid), default=0))]
    depths = sorted({depth for _, depth in grid})
    aucs: dict[tuple[int, int], list[float]] = {
        (n_est, depth): [] for n_est, depth in grid}
    for j in range(k):
        tr = folds != j
        va = ~tr
        if not va.any() or y[tr].min() == y[tr].max():
            continue
        y_va = y[va].tolist()
        _, votes = _fit_trees(X[tr], y[tr], seed, depth_of_tree, X[va])
        # votes[i, t]: AF votes of trees 0..t cut at depths[i], each row
        votes = np.cumsum(votes[depths], axis=1, dtype=np.int64)
        for n_est, depth in aucs:
            # the division predict_proba_many makes for n_est trees
            proba = votes[depths.index(depth), n_est - 1] / n_est
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
        leaf = node["leaf"]
        if (not isinstance(leaf, list) or len(leaf) != 2
                or not all(isinstance(c, int) and c >= 0 for c in leaf)):
            raise ParseError(f"malformed leaf counts {leaf!r}")
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
