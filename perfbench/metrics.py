"""The benchmark's own arithmetic: spans to layer metrics, latency
summaries, and accuracy against the synthetic truth.

Everything here is a pure function of its arguments, so it is tested on
hand-built spans and arrays in ``perfbench/tests``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

KERNELS = ("pt_decide", "trailing_max", "refractory_pick",
           "greedy_match_count", "sampen_pair_counts", "lorenz_hist")
# A 59-RR window gives 58 templates of length 1 whose extension exists;
# sampen_pair_counts compares each unordered pair once.
SAMPEN_PAIRS_PER_CALL = 58 * 57 // 2

# ---------------------------------------------------------------------------
# latency summaries


def entry_times(spans) -> list[float]:
    """Wall time of each manifest entry in the spans of one operation.

    A ``process_entry`` span is one entry. ``collect_training_windows``
    takes its entries in turn and ends each with one ``label_windows``
    call, so entry i runs from the end of call i-1 (from the start of
    the collect call for the first) to the end of call i.
    """
    times = [s["end"] - s["start"] for s in spans
             if s["name"] == "pipeline.process_entry"]
    for c in spans:
        if c["name"] != "pipeline.collect_training_windows":
            continue
        ends = sorted(s["end"] for s in spans
                      if s["name"] == "forest.label_windows"
                      and s["parent"] == c["id"])
        times += np.diff([c["start"], *ends]).tolist()
    return times


def first_ops(per_op, k: int) -> list[float]:
    """Entry times of the first k operations.

    A run repeats its operation for a fixed time, so a faster program
    completes more of them. Taking the latency samples from a fixed
    number of operations keeps the sample count, and with it the
    percentile ``tail`` picks, the same on every version compared.
    """
    if len(per_op) < k:
        raise ValueError(f"{len(per_op)} operations, need {k}")
    return [t for op in per_op[:k] for t in op]


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile that has at
    least ten samples beyond it.

    With n sorted samples that is the (n-10)-th smallest, at percentile
    100*(n-10)/n. Below 20 samples that percentile would fall under the
    median, so such a run reports its maximum, at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# spans


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover.

    Children running concurrently in pool workers overlap; the union of
    their intervals is subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(s["start"], s["end"], children[s["id"]])
            for s in spans}


def pool_efficiency(spans, workers: int) -> float:
    """Busy time of process_entry over workers x run_cohort wall time."""
    wall = sum(s["end"] - s["start"] for s in spans
               if s["name"] == "pipeline.run_cohort")
    if wall <= 0:
        return 0.0
    busy = sum(s["end"] - s["start"] for s in spans
               if s["name"] == "pipeline.process_entry")
    return busy / (workers * wall)


def _count(spans, name: str, key: str) -> int:
    return sum(s.get("counts", {}).get(key, 0) for s in spans
               if s["name"] == name)


def accept_ratio(spans) -> float:
    """Reference peaks kept per pt_decide candidate (0 without any)."""
    cand = _count(spans, "kernels.pt_decide", "candidates")
    if cand == 0:
        return 0.0
    return _count(spans, "qrs.detect_reference", "peaks") / cand


def layer_metrics(spans, n_ops: int, workers: int) -> dict[str, tuple]:
    """Per-layer metrics from the spans of n_ops traced operations.

    Times and counts are per operation. A layer the workload never
    reaches reads 0.
    """
    own = self_times(spans)
    incl = defaultdict(float)
    excl = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        incl[s["name"]] += s["end"] - s["start"]
        excl[s["name"]] += own[s["id"]]
        calls[s["name"]] += 1

    def per_op(x):
        return x / n_ops

    m: dict[str, tuple] = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    parse = ("record_io.parse_edf", "record_io.parse_wfdb",
             "record_io.parse_rr_csv")
    for name in parse:
        put(f"{name}.s", per_op(incl[name]), "s")
    parse_s = sum(incl[n] for n in parse)
    parse_mb = sum(_count(spans, n, "bytes") for n in parse) / 1e6
    put("record_io.mb_per_s", parse_mb / parse_s if parse_s else 0.0, "MB/s")

    put("qrs.detect_reference.self_s", per_op(excl["qrs.detect_reference"]),
        "s")
    put("qrs.detect_test.self_s", per_op(excl["qrs.detect_test"]), "s")
    put("qrs.sosfiltfilt.s", per_op(incl["qrs.sosfiltfilt"]), "s")
    put("qrs.candidates",
        per_op(_count(spans, "kernels.pt_decide", "candidates")), "count")
    put("qrs.ref_peaks",
        per_op(_count(spans, "qrs.detect_reference", "peaks")), "count")
    put("qrs.test_peaks",
        per_op(_count(spans, "qrs.detect_test", "peaks")), "count")
    put("qrs.accept_ratio", accept_ratio(spans), "ratio")

    for k in KERNELS:
        put(f"kernels.{k}.s", per_op(incl[f"kernels.{k}"]), "s")
        put(f"kernels.{k}.calls", per_op(calls[f"kernels.{k}"]), "count")
    put("kernels.sampen_pair_counts.pairs",
        per_op(calls["kernels.sampen_pair_counts"] * SAMPEN_PAIRS_PER_CALL),
        "count")

    windows = _count(spans, "quality.score_windows", "windows")
    included = _count(spans, "quality.score_windows", "included")
    put("quality.score_windows.self_s",
        per_op(excl["quality.score_windows"]), "s")
    put("quality.windows", per_op(windows), "count")
    put("quality.included_ratio", included / windows if windows else 0.0,
        "ratio")

    feat_s = incl["features.featurize"]
    put("features.featurize.s", per_op(feat_s), "s")
    put("features.featurize.calls", per_op(calls["features.featurize"]),
        "count")
    put("features.windows_per_s",
        calls["features.featurize"] / feat_s if feat_s else 0.0, "1/s")

    for name in ("predict_proba", "predict_proba_many"):
        put(f"forest.{name}.s", per_op(incl[f"forest.{name}"]), "s")
        put(f"forest.{name}.calls", per_op(calls[f"forest.{name}"]), "count")
    put("forest.rows_scored",
        per_op(_count(spans, "forest.predict_proba_many", "rows")), "count")
    for name in ("label_windows", "cross_validate", "train"):
        put(f"forest.{name}.s", per_op(incl[f"forest.{name}"]), "s")
    put("forest.trees_fitted", per_op(_count(spans, "forest.train", "trees")),
        "count")

    put("pipeline.process_entry.s", per_op(incl["pipeline.process_entry"]),
        "s")
    put("pipeline.run_cohort.s", per_op(incl["pipeline.run_cohort"]), "s")
    put("pipeline.collect_training_windows.self_s",
        per_op(excl["pipeline.collect_training_windows"]), "s")
    put("pipeline.ledger_rows",
        per_op(_count(spans, "pipeline.run_cohort", "ledger_rows")), "count")
    put("pipeline.pool_efficiency", pool_efficiency(spans, workers), "ratio")

    put("cli.cmd_predict.self_s", per_op(excl["cli.cmd_predict"]), "s")
    return m


def run_layers(untraced_hps: float, traced_hps: float) -> dict[str, tuple]:
    """The traced run's overhead, as traced against untraced hours per
    second."""
    return {
        "trace.hours_per_s": (traced_hps, "h/s"),
        "trace.untraced_hours_per_s": (untraced_hps, "h/s"),
        "trace.overhead_pct": (100.0 * (untraced_hps / traced_hps - 1.0),
                               "%"),
    }


# ---------------------------------------------------------------------------
# accuracy against the synthetic truth


def match_beats(detected, truth, tol: float) -> int:
    """Greedy one-to-one matches within +-tol, closest pairs first."""
    detected = np.asarray(detected, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    lo = np.searchsorted(detected, truth - tol, side="left")
    hi = np.searchsorted(detected, truth + tol, side="right")
    ti = np.repeat(np.arange(truth.shape[0]), hi - lo)
    di = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)] or [[]]
                        ).astype(np.int64)
    if ti.shape[0] == 0:
        return 0
    dist = np.abs(detected[di] - truth[ti])
    used_t = np.zeros(truth.shape[0], bool)
    used_d = np.zeros(detected.shape[0], bool)
    matched = 0
    for k in np.argsort(dist, kind="stable"):
        t, d = ti[k], di[k]
        if not used_t[t] and not used_d[d]:
            used_t[t] = used_d[d] = True
            matched += 1
    return matched


def af_share(t0: float, t1: float, ep_start, ep_end, ep_af) -> float:
    """Fraction of [t0, t1] that lies in AF episodes."""
    lo = np.maximum(ep_start[ep_af], t0)
    hi = np.minimum(ep_end[ep_af], t1)
    return float(np.clip(hi - lo, 0.0, None).sum()) / (t1 - t0)


def window_truth(ref_times, truth: dict, beats: int = 60) -> np.ndarray:
    """True AF share of each `beats`-peak window of the reference peaks."""
    ref = np.asarray(ref_times, dtype=np.float64)
    n = ref.shape[0] // beats
    return np.array([af_share(ref[i * beats], ref[(i + 1) * beats - 1],
                              truth["ep_start"], truth["ep_end"],
                              truth["ep_af"]) for i in range(n)])

