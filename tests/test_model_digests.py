"""Trained models and cross-validation rows on fixed training sets,
against committed digests.

tests/data/model_digests.json holds, per training set, the sha256 of
its rows (X, y and groups), the sha256 of ``save_model(train(...))`` at
a few seeds and (n_estimators, max_depth) points, and the sha256 of the
``cross_validate`` rows at a few seeds, grids and fold counts. The sets
are synth RR windows through ``label_windows`` and two feature-level
sets: overlapping classes on a 0.1 grid, where values tie, and cleanly
separable ones.

A mismatch names the set and every point that moved, and says whether
the input moved (a numpy, synth or features change) or only the model
did. A change that regenerates the file declares a change of model
bytes; regenerate it with

    PYTHONPATH=src python3 tests/test_model_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from afscreen import forest, synth
from afscreen.forest import cross_validate, label_windows, save_model, train
from afscreen.quality import window_partition

DIGESTS = Path(__file__).parent / "data" / "model_digests.json"
SEEDS = (0, 1)
POINTS = ((20, 3), (1, 8), (50, 1), (10, 5))
GRIDS = {"default": forest.DEFAULT_GRID,
         "crossed": ((50, 1), (5, 6), (20, 3))}
FOLDS = (5, 3)


def rr_windows() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windows of six 20-minute synth RR recordings, one per patient."""
    programs = [[(600.0, "NSR"), (600.0, "AF")],
                [(600.0, "AF"), (600.0, "ECTOPY")],
                [(900.0, "NSR"), (300.0, "AF")]]
    Xs, ys, groups = [], [], []
    for p in range(6):
        spec = synth.SynthSpec(rhythm_program=programs[p % 3], seed=p)
        peaks, annotations = synth.gen_rr(spec)
        times = window_partition(peaks)
        X, y, _ = label_windows(times, np.ones(times.shape[0]), annotations)
        Xs.append(X)
        ys.append(y)
        groups += [f"p{p}"] * len(y)
    return np.concatenate(Xs), np.concatenate(ys), np.array(groups)


def feature_set(separation: float, seed: int):
    """Seven patients of 16 rows on a 0.1 grid; AF rows lean towards
    +separation on two features."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=112)
    X = rng.normal(size=(112, 9))
    X[:, 1] += separation * (2 * y - 1)
    X[:, 6] += 0.5 * separation * (2 * y - 1)
    groups = np.array([f"p{i % 7}" for i in range(112)])
    return np.round(X, 1), y, groups


SETS = {
    "rr_windows": rr_windows,
    "overlapping": lambda: feature_set(0.5, 5),
    "separable": lambda: feature_set(4.0, 6),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(X: np.ndarray, y: np.ndarray, groups: np.ndarray) -> dict:
    out = {"input": sha256(X.tobytes() + y.astype(np.int64).tobytes()
                           + "\n".join(groups.tolist()).encode())}
    for seed in SEEDS:
        for n, d in POINTS:
            out[f"train seed {seed} {n}x{d}"] = sha256(save_model(
                train(X, y, n_estimators=n, max_depth=d, seed=seed)))
        for name, grid in GRIDS.items():
            for k in FOLDS:
                result = cross_validate(X, y, groups, grid=grid, k=k,
                                        seed=seed)
                out[f"cv seed {seed} {name} k{k}"] = sha256(
                    json.dumps(result.rows).encode())
    return out


def mismatch(name: str, want: dict, got: dict) -> str | None:
    """What moved between a committed digest and a recomputed one."""
    moved = [point for point in sorted(set(want) | set(got))
             if point != "input" and got.get(point) != want.get(point)]
    if got["input"] != want["input"]:
        return (f"{name}: the input rows moved (a numpy, synth or features "
                f"change), so the models cannot be compared"
                + (f"; moved: {', '.join(moved)}" if moved else ""))
    if moved:
        return f"{name}: same input, but moved: {', '.join(moved)}"
    return None


def committed() -> dict:
    return json.loads(DIGESTS.read_text())["sets"]


def test_digest_file_covers_every_set():
    assert sorted(committed()) == sorted(SETS)


@pytest.mark.parametrize("name", sorted(SETS))
def test_models_match_the_committed_digests(name):
    want = committed()[name]
    problem = mismatch(name, want, digest(*SETS[name]()))
    assert problem is None, problem


def test_mismatch_names_the_set_the_point_and_the_cause():
    want = {"input": "a", "train seed 0 20x3": "m",
            "cv seed 0 default k5": "c"}
    assert mismatch("set", want, dict(want)) is None
    model_only = mismatch("set", want, {**want, "train seed 0 20x3": "n"})
    assert model_only == "set: same input, but moved: train seed 0 20x3"
    new_point = mismatch("set", want, {**want, "train seed 2 20x3": "m"})
    assert new_point == "set: same input, but moved: train seed 2 20x3"
    both = mismatch("set", want, {**want, "input": "b",
                                  "cv seed 0 default k5": "d"})
    assert both.startswith("set: the input rows moved")
    assert both.endswith("; moved: cv seed 0 default k5")


def main() -> None:
    sets = {name: digest(*build()) for name, build in sorted(SETS.items())}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(
        {"regenerate": "PYTHONPATH=src python3 tests/test_model_digests.py",
         "sets": sets}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(sets)} sets to {DIGESTS}")


if __name__ == "__main__":
    main()
