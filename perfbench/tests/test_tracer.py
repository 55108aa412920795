"""The tracer binds by identity, reaches pool workers, and marks the
entry boundaries of a training run.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from afscreen import features, forest, pipeline, qrs, synth  # noqa: E402
import measure  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402

# a one-leaf forest: enough for process_* to score windows
MODEL = forest.ForestModel(trees=[{"leaf": [1, 0]}], n_estimators=1,
                           max_depth=1, seed=0)


@pytest.fixture
def traced(tmp_path):
    t = tracer.Tracer(tmp_path / "spool")
    t.install(tracer.public_functions())
    yield t
    t.uninstall()


def write_rr_cohort(directory: Path, rhythm: bool = False) -> Path:
    rows = ["path,format,patient_id"]
    for i, pid in enumerate(("a", "b")):
        beats = np.cumsum(np.full(1300, 0.8) + 0.01 * i).tolist()
        lines = [f"{t!r},{'AF' if k % 400 < 200 else 'OTHER'}" if rhythm
                 else repr(t) for k, t in enumerate(beats)]
        (directory / f"{pid}.csv").write_text("\n".join(lines) + "\n")
        rows.append(f"{pid}.csv,rr,{pid}")
    manifest = directory / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


def test_every_binding_is_wrapped_and_restored(tmp_path):
    original = qrs.detect_reference, features.featurize
    t = tracer.Tracer(tmp_path)
    t.install(tracer.public_functions())
    try:
        assert qrs.detect_reference is not original[0]
        assert pipeline.detect_reference is qrs.detect_reference
        assert pipeline.featurize is features.featurize
        assert features.featurize is not original[1]
    finally:
        t.uninstall()
    assert (pipeline.detect_reference, pipeline.featurize) == original


def test_spans_nest_through_module_bindings(traced):
    spec = synth.SynthSpec(rhythm_program=[(60.0, "NSR")], seed=3)
    record, _, _ = synth.synth_record(spec, patient_id="p1")
    pipeline.process_patient(record, MODEL, pipeline.PipelineConfig())
    spans = {s["name"]: s for s in traced.collect()}
    top = spans["pipeline.process_patient"]
    ref = spans["qrs.detect_reference"]
    assert ref["parent"] == top["id"]
    assert spans["kernels.pt_decide"]["parent"] == ref["id"]
    assert spans["qrs.sosfiltfilt"]["patient"] == "p1"
    assert ref["counts"]["peaks"] == len(qrs.detect_reference(record))


def test_pool_workers_reach_the_trace(tmp_path, traced):
    entries = pipeline.read_manifest(write_rr_cohort(tmp_path))
    pipeline.run_cohort(entries, MODEL, pipeline.PipelineConfig(), workers=2)
    spans = traced.collect()
    run = [s for s in spans if s["name"] == "pipeline.run_cohort"]
    done = [s for s in spans if s["name"] == "pipeline.process_entry"]
    assert len(run) == 1
    assert sorted(s["patient"] for s in done) == ["a", "b"]
    assert all(s["ok"] and s["pid"] != os.getpid() for s in done)
    assert all(s["parent"] == run[0]["id"] for s in done)
    assert not list((tmp_path / "spool").glob("*.jsonl"))


def test_training_entry_times_cover_the_collect_call(tmp_path):
    entries = pipeline.read_manifest(write_rr_cohort(tmp_path, rhythm=True))
    funcs = dict(tracer.public_functions())
    t = tracer.Tracer(tmp_path / "spool")
    t.install([(n, funcs[n]) for n in measure.ENTRY_SPANS])
    try:
        pipeline.collect_training_windows(entries, pipeline.PipelineConfig())
    finally:
        t.uninstall()
    spans = t.collect()
    (collect,) = [s for s in spans
                  if s["name"] == "pipeline.collect_training_windows"]
    times = metrics.entry_times(spans)
    assert len(times) == len(entries) == 2
    assert all(x > 0 for x in times)
    assert sum(times) <= collect["end"] - collect["start"]
