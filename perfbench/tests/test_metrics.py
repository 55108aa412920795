"""Arithmetic of the pipeline benchmark, on hand-built spans and arrays.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics  # noqa: E402


def span(sid, name, start, end, parent=None, **counts):
    s = {"id": sid, "parent": parent, "name": name, "start": start,
         "end": end, "pid": 1, "patient": None, "ok": True}
    if counts:
        s["counts"] = counts
    return s


# -- self time -------------------------------------------------------------

def test_self_time_subtracts_child_coverage():
    spans = [span("a", "pipeline.process_entry", 0.0, 10.0),
             span("b", "qrs.detect_reference", 1.0, 4.0, parent="a"),
             span("c", "qrs.detect_test", 5.0, 6.0, parent="a"),
             span("d", "kernels.pt_decide", 2.0, 3.5, parent="b")]
    own = metrics.self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["b"] == pytest.approx(3.0 - 1.5)
    assert own["c"] == pytest.approx(1.0)
    assert own["d"] == pytest.approx(1.5)


def test_overlapping_children_are_covered_once():
    # two pool workers busy at once under one run_cohort span
    spans = [span("r", "pipeline.run_cohort", 0.0, 10.0),
             span("x", "pipeline.process_entry", 1.0, 7.0, parent="r"),
             span("y", "pipeline.process_entry", 2.0, 9.0, parent="r")]
    assert metrics.self_times(spans)["r"] == pytest.approx(10.0 - 8.0)


def test_children_are_clipped_to_the_parent():
    assert metrics.covered(0.0, 5.0, [(-2.0, 1.0), (4.0, 8.0)]) \
        == pytest.approx(2.0)
    assert metrics.covered(0.0, 5.0, []) == 0.0
    assert metrics.covered(0.0, 5.0, [(6.0, 7.0)]) == 0.0


# -- entry times and the tail percentile ---------------------------------

def test_entry_times_split_training_at_label_windows():
    spans = [span("c", "pipeline.collect_training_windows", 10.0, 20.0),
             span("l1", "forest.label_windows", 12.5, 13.0, parent="c"),
             span("l2", "forest.label_windows", 18.5, 19.0, parent="c"),
             # label_windows called from elsewhere is no entry boundary
             span("l3", "forest.label_windows", 19.5, 19.8),
             span("p", "pipeline.process_entry", 30.0, 31.5)]
    assert metrics.entry_times(spans) == pytest.approx([1.5, 3.0, 6.0])
    assert metrics.entry_times([]) == []


def test_tail_percentile_does_not_depend_on_the_operation_count():
    # a faster version completes more operations in the same time; the
    # samples come from the first k operations either way
    per_op = [[float(6 * i + j) for j in range(6)] for i in range(9)]
    picks = [metrics.tail(metrics.first_ops(per_op[:n], 5))
             for n in (5, 7, 9)]
    assert picks == [(19.0, 100.0 * 20 / 30, 30)] * 3
    with pytest.raises(ValueError):
        metrics.first_ops(per_op[:4], 5)


def test_tail_leaves_exactly_ten_samples_beyond():
    xs = list(range(100))
    value, pct, n = metrics.tail(xs)
    assert n == 100
    assert sum(1 for x in xs if x > value) == 10
    assert value == 89 and pct == pytest.approx(90.0)


def test_tail_percentile_follows_the_sample_count():
    value, pct, n = metrics.tail([float(i) for i in range(40)][::-1])
    assert (value, n) == (29.0, 40)
    assert pct == pytest.approx(75.0)
    value, pct, _ = metrics.tail(range(20))
    assert value == 9 and pct == pytest.approx(50.0)


def test_tail_below_the_median_reports_the_maximum():
    # under 20 samples, ten beyond would put the tail below the median
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert metrics.tail(range(19)) == (18, 100.0, 19)
    with pytest.raises(ValueError):
        metrics.tail([])


# -- pool efficiency and accept ratio -------------------------------------

def test_pool_efficiency_on_two_workers():
    spans = [span("r", "pipeline.run_cohort", 0.0, 10.0),
             span("x", "pipeline.process_entry", 0.0, 8.0, parent="r"),
             span("y", "pipeline.process_entry", 0.0, 6.0, parent="r")]
    assert metrics.pool_efficiency(spans, workers=2) == pytest.approx(0.7)
    assert metrics.pool_efficiency(spans[1:], workers=2) == 0.0


def test_accept_ratio_is_reference_peaks_per_candidate():
    spans = [span("a", "qrs.detect_reference", 0, 2, peaks=30),
             span("b", "kernels.pt_decide", 0, 1, parent="a",
                  candidates=400),
             span("c", "qrs.detect_reference", 3, 4, peaks=20),
             span("d", "kernels.pt_decide", 3, 4, parent="c",
                  candidates=100)]
    assert metrics.accept_ratio(spans) == pytest.approx(50 / 500)
    assert metrics.accept_ratio([]) == 0.0


def test_tracing_overhead_compares_hours_per_second():
    m = metrics.run_layers(untraced_hps=3.0, traced_hps=2.5)
    assert m["trace.overhead_pct"] == (pytest.approx(20.0), "%")


def test_layer_metrics_are_per_operation():
    spans = [span("e1", "pipeline.process_entry", 0.0, 4.0),
             span("q1", "qrs.detect_reference", 0.5, 3.5, parent="e1",
                  peaks=10),
             span("k1", "kernels.pt_decide", 1.0, 2.0, parent="q1",
                  candidates=40),
             span("e2", "pipeline.process_entry", 5.0, 9.0),
             span("q2", "qrs.detect_reference", 5.5, 8.5, parent="e2",
                  peaks=10),
             span("k2", "kernels.pt_decide", 6.0, 7.0, parent="q2",
                  candidates=40)]
    m = metrics.layer_metrics(spans, n_ops=2, workers=1)
    assert m["pipeline.process_entry.s"] == (pytest.approx(4.0), "s")
    assert m["qrs.detect_reference.self_s"] == (pytest.approx(2.0), "s")
    assert m["kernels.pt_decide.calls"] == (1.0, "count")
    assert m["qrs.candidates"] == (40.0, "count")
    assert m["qrs.accept_ratio"] == (pytest.approx(0.25), "ratio")
    assert m["record_io.mb_per_s"] == (0.0, "MB/s")
    assert m["pipeline.pool_efficiency"] == (0.0, "ratio")


# -- accuracy -------------------------------------------------------------

def test_match_beats_is_one_to_one_within_tolerance():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    detected = np.array([1.05, 1.1, 2.2, 3.0, 5.0])
    # 1.05 takes 1.0 (closer than 1.1); 2.2 is out of a 0.15 s reach
    assert metrics.match_beats(detected, truth, 0.15) == 2
    assert metrics.match_beats(np.array([]), truth, 0.15) == 0


def test_window_truth_is_the_af_time_share():
    ref = np.arange(0.0, 120.0)  # two windows of 60 beats: [0,59], [60,119]
    truth = {"ep_start": np.array([0.0, 30.0]),
             "ep_end": np.array([30.0, 200.0]),
             "ep_af": np.array([False, True])}
    share = metrics.window_truth(ref, truth)
    assert share == pytest.approx([29.0 / 59.0, 1.0])


# -- the declared metric lists match what the benchmark prints -------------

def test_benchmark_json_names_every_printed_metric():
    import json

    import measure
    import run
    root = Path(__file__).resolve().parents[2]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    layers = {**metrics.layer_metrics([], 1, 1),
              **metrics.run_layers(2.0, 1.0)}
    layers = {name: unit for name, (_, unit) in layers.items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers
    assert [w["name"] for w in bench["workloads"]] == list(measure.WORKERS)
