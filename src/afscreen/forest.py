"""Random forest window classifier, built from scratch.

Twenty depth-3 trees by default. Each tree sees a bootstrap resample of
the training windows; each node draws floor(sqrt(9)) = 3 candidate
features without replacement and takes the split minimizing weighted
Gini impurity over midpoints between consecutive distinct feature
values. Leaves store class counts; a tree votes the majority class of
the reached leaf (leaf tie -> nonAF); the forest's probability is the
fraction of trees voting AF, and the hard label is AF iff that fraction
exceeds 0.5 (exactly 0.5 -> nonAF).

Per-tree RNG streams are derived from (seed, tree_index), so training
is deterministic and independent of tree scheduling. Cross-validation
folds group by patient so no patient spans a fold boundary.

Models serialize to versioned JSON carrying a checksum of the declared
feature order; loading against a different feature declaration fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .errors import (
    CompatibilityError,
    ConfigurationError,
    ContractViolationError,
    DegenerateModelError,
    ParseError,
)
from .features import (
    FEATURE_NAMES,
    BeatWindow,
    FeatureVector,
    feature_order_checksum,
    featurize_windows,
)
from .record_io import AF, NON_AF, RhythmAnnotations

MODEL_FORMAT_VERSION = 1
MODEL_KIND = "af-window-forest"
DEFAULT_N_ESTIMATORS = 20
DEFAULT_MAX_DEPTH = 3
# brackets the defaults: tree counts {10, 20, 50} x depths {2, 3, 5}
DEFAULT_GRID = tuple((n, d) for n in (10, 20, 50) for d in (2, 3, 5))


@dataclass
class LabeledWindow:
    features: FeatureVector
    label: str
    patient_id: str

    def __post_init__(self) -> None:
        if self.label not in (AF, NON_AF):
            raise ContractViolationError(
                f"label must be {AF!r} or {NON_AF!r}, got {self.label!r}")


@dataclass
class ForestModel:
    trees: list
    n_estimators: int
    max_depth: int
    seed: int
    feature_names: tuple = FEATURE_NAMES
    feature_checksum: str = field(default_factory=feature_order_checksum)


def label_windows(windows: list[BeatWindow],
                  annotations: RhythmAnnotations,
                  patient_id: str = "",
                  min_bsqi: float = 0.8,
                  ) -> tuple[list[LabeledWindow], int]:
    """Label quality-gated windows against rhythm episodes.

    A window is AF iff at least half of its time span lies inside AF
    episodes. Windows entirely outside the annotated span are skipped;
    the count of skips is returned alongside the labeled windows.
    """
    span_start, span_end = annotations.span
    kept: list[BeatWindow] = []
    labels: list[str] = []
    skipped = 0
    for w in windows:
        if w.t_end <= span_start or w.t_start >= span_end:
            skipped += 1
            continue
        af_s = annotations.af_overlap_s(w.t_start, w.t_end)
        labels.append(AF if af_s >= 0.5 * (w.t_end - w.t_start) else NON_AF)
        kept.append(w)
    X = featurize_windows(kept, min_bsqi)
    labeled = [LabeledWindow(features=FeatureVector.from_array(row),
                             label=label, patient_id=patient_id)
               for row, label in zip(X.tolist(), labels)]
    return labeled, skipped


def _gini_pair(c0: int, c1: int) -> float:
    n = c0 + c1
    return 1.0 - (c0 * c0 + c1 * c1) / (n * n)


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                feats: np.ndarray):
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
        boundaries = np.flatnonzero(sv[:-1] < sv[1:])
        for b in boundaries:
            nl = int(b) + 1
            nr = n - nl
            l1 = int(cum1[b])
            g = (nl * _gini_pair(nl - l1, l1)
                 + nr * _gini_pair(nr - (total1 - l1), total1 - l1)) / n
            if g < best_gini:
                thr = 0.5 * (sv[b] + sv[b + 1])
                if thr >= sv[b + 1]:
                    # adjacent floats can round the midpoint up; keep the
                    # threshold strictly below the right value
                    thr = float(sv[b])
                best_gini = g
                best = (int(f), float(thr))
    return best


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


def _data_matrix(data: list[LabeledWindow]) -> tuple[np.ndarray, np.ndarray]:
    X = np.stack([d.features.to_array() for d in data])
    y = np.array([1 if d.label == AF else 0 for d in data], dtype=np.int64)
    return X, y


def train(data: list[LabeledWindow],
          n_estimators: int = DEFAULT_N_ESTIMATORS,
          max_depth: int = DEFAULT_MAX_DEPTH,
          seed: int = 0) -> ForestModel:
    """Fit the forest; deterministic given (data order, seed)."""
    if n_estimators < 1 or max_depth < 1:
        raise ConfigurationError(
            "n_estimators and max_depth must be positive")
    if not data:
        raise DegenerateModelError("no training windows")
    X, y = _data_matrix(data)
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


def predict_proba(model: ForestModel,
                  features: FeatureVector | np.ndarray) -> float:
    if isinstance(features, FeatureVector):
        features = features.to_array()
    return float(predict_proba_many(model, np.asarray(features)[None, :])[0])


def predict_label(model: ForestModel,
                  features: FeatureVector | np.ndarray) -> str:
    # exact 0.5 stays nonAF
    return AF if predict_proba(model, features) > 0.5 else NON_AF


@dataclass
class CvResult:
    n_estimators: int
    max_depth: int
    rows: list  # (n_estimators, max_depth, mean_auroc or None, folds_used)


def cross_validate(data: list[LabeledWindow],
                   grid=DEFAULT_GRID, k: int = 5,
                   seed: int = 0) -> CvResult:
    """Patient-grouped k-fold selection of (n_estimators, max_depth).

    Ties on mean AUROC prefer fewer trees, then shallower depth. Folds
    with a single-class train or validation side are skipped for that
    grid point.
    """
    patients = sorted({d.patient_id for d in data})
    if len(patients) < k:
        raise ConfigurationError(
            f"grouped {k}-fold CV needs at least {k} patients, "
            f"got {len(patients)}")
    order = np.random.default_rng(seed).permutation(len(patients))
    fold_of = {patients[int(p)]: i % k for i, p in enumerate(order)}

    X, y = _data_matrix(data)
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
    return ForestModel(trees=trees,
                       n_estimators=payload["n_estimators"],
                       max_depth=payload["max_depth"],
                       seed=payload["seed"],
                       feature_names=tuple(payload["feature_names"]),
                       feature_checksum=checksum)
