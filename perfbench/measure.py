"""The measured process: one workload, closed loop, one client.

``run.py`` first runs one untimed serial reference operation in its own
process (``reference``) and writes its output digests, the entries that
ended other than expected, and the accuracy metrics to a JSON file.
It then starts this module in a fresh interpreter, so that the peak
resident memory measured here is that of the timed operations alone.
This process repeats the workload's operation for ``--seconds`` seconds
(and at least ``TAIL_OPS`` times), checks every operation's outputs
against the reference digests, and prints one JSON object holding the
raw figures ``run.py`` reports.

Untimed work: clearing output directories and the byte comparisons.

Per-entry latency needs the entry boundaries even in an untraced run,
so untraced operations wrap the functions in ``ENTRY_SPANS`` only. A
traced run (``--trace 1``) alternates untraced and fully traced
operations; the traced ones give the per-layer metrics and the pair
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from afscreen import cli, forest, pipeline, record_io
import inputs
import metrics
from tracer import Tracer, public_functions

MATCH_TOL_S = 0.150
# Workloads and their pool sizes; never more workers than the 2 cores.
WORKERS = {"night_edf": 1, "rr_cohort": 1, "ecg_cohort": 2, "train": 1}
# Spans that mark entry boundaries (see metrics.entry_times).
ENTRY_SPANS = ("pipeline.process_entry", "pipeline.collect_training_windows",
               "forest.label_windows")
# patient_s.p50 and .tail come from the first TAIL_OPS operations: 4
# entries on night_edf, 24 on ecg_cohort, 48 on rr_cohort and train.
TAIL_OPS = 4


def digest(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class Workload:
    def __init__(self, name: str, inputs_dir: Path, model_path: Path | None):
        self.name = name
        self.dir = inputs_dir
        self.meta = json.loads((inputs_dir / "meta.json").read_text())
        self.manifest = inputs_dir / "manifest.csv"
        self.model_path = model_path
        self.workers = WORKERS[name]
        self.config = pipeline.PipelineConfig()
        if name == "night_edf":
            self.model = forest.load_model(model_path.read_bytes())
            self.entry = pipeline.read_manifest(self.manifest)[0]

    def argv(self, out: Path, workers: int) -> list[str]:
        if self.name == "train":
            return ["train", "--manifest", str(self.manifest),
                    "--out", str(out / "model.json")]
        return ["predict", "--manifest", str(self.manifest),
                "--model", str(self.model_path), "--out-dir", str(out),
                "--workers", str(workers)]

    def op(self, out: Path, workers: int | None = None):
        """One operation; returns the night's result or the CLI's code."""
        if self.name == "night_edf":
            return pipeline.process_entry(self.entry, self.model, self.config)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv(out, workers or self.workers))

    def outputs(self, out: Path, result) -> dict[str, str]:
        if self.name == "night_edf":
            text = json.dumps(pipeline.result_to_dict(result), sort_keys=True)
            return {"night.json": hashlib.sha256(text.encode()).hexdigest()}
        return digest(out)


def _capture(store: dict):
    def adapt(detect):
        @functools.wraps(detect)
        def capturing(record, *a, **k):
            peaks = detect(record, *a, **k)
            store[record.patient_id] = np.array(peaks.times)
            return peaks
        return capturing
    return adapt


def check_entries(w: Workload, out: Path, result) -> dict[str, str]:
    """Entries of the reference operation that ended other than
    expected: QC status per entry, and the corrupt entry in errors.csv
    and nowhere else. A problem with the whole output fails every
    entry."""
    problems = {}
    expect = {e["patient_id"]: e["expect"] for e in w.meta["entries"]}
    if w.name == "night_edf":
        if result.qc.status != "accepted":
            problems["night"] = f"status {result.qc.status}"
        return problems
    if w.name == "train":
        if result != 0 or not (out / "model.json.cv.csv").exists():
            problems = {pid: "train wrote no model" for pid in expect}
        return problems
    status = {}
    for line in (out / "cohort.csv").read_text().splitlines():
        if line.startswith("#") or line.startswith("patient_id,"):
            continue
        pid, st = line.split(",")[:2]
        status[pid] = st
    errors = [line.split(",")[0]
              for line in (out / "errors.csv").read_text().splitlines()[1:]]
    for pid, want in expect.items():
        if want == "error":
            if pid not in errors or pid in status \
                    or (out / f"{pid}.json").exists():
                problems[pid] = "expected in errors.csv and nowhere else"
        elif pid in errors or pid not in status:
            problems[pid] = "missing from cohort.csv"
        elif want != "any" and status[pid] != want:
            problems[pid] = f"status {status[pid]}, expected {want}"
    return problems


def screened(w: Workload, out: Path, result) -> dict[str, dict]:
    """patient id -> per-patient result dict, for the accuracy metrics."""
    if w.name == "night_edf":
        return {"night": pipeline.result_to_dict(result)}
    if w.name == "train":
        model = forest.load_model((out / "model.json").read_bytes())
        entries = pipeline.read_manifest(w.manifest)
        results, _ = pipeline.run_cohort(entries, model, w.config, workers=1)
        return {r.patient_id: pipeline.result_to_dict(r) for r in results}
    return {e["patient_id"]: json.loads(
                (out / f"{e['patient_id']}.json").read_text())
            for e in w.meta["entries"] if e["expect"] != "error"}


def own_peak_kb() -> int:
    """Peak resident memory of this process since it was started, in kB.

    ``ru_maxrss`` of RUSAGE_SELF is not that: Linux carries the peak of
    the process that spawned this one across exec, and ``run.py`` holds
    rendered inputs and the reference operation's working set.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cv_auroc(cv_report: Path) -> float:
    """Mean validation AUROC of the grid point train selected."""
    lines = cv_report.read_text().splitlines()
    selected = next(ln.split("=", 1)[1] for ln in lines
                    if ln.startswith("# selected="))
    n_est, depth = selected.split("x")
    for line in lines:
        cells = line.split(",")
        if cells[:2] == [n_est, depth]:
            return float(cells[2])
    raise ValueError("selected grid point missing from the CV report")


def accuracy(w: Workload, peaks: dict, docs: dict) -> dict[str, float]:
    """Beat and burden accuracy against the synthetic truth.

    beat_se and beat_ppv pool the signal entries' reference-detector
    peaks. A workload without signal entries (rr_cohort) pools the
    parsed beats of its RR entries instead, which match the truth
    unless parsing loses or moves beats.
    """
    entries = [e for e in w.meta["entries"] if e["expect"] != "error"]
    pooled = ({e["patient_id"] for e in entries if e["format"] != "rr"}
              or {e["patient_id"] for e in entries})
    tp = n_det = n_true = 0
    errs = []
    for e in entries:
        pid = e["patient_id"]
        truth = inputs.load_truth(w.dir, pid)
        if e["format"] == "rr":
            text = (w.dir / f"{pid}.rr.csv").read_text()
            detected = record_io.parse_rr_csv(text)[0].times
        else:
            detected = peaks[pid]
        if pid in pooled:
            tp += metrics.match_beats(detected, truth["beats"], MATCH_TOL_S)
            n_det += len(detected)
            n_true += len(truth["beats"])
        doc = docs[pid]
        if doc["afb"] is None:
            continue
        share = metrics.window_truth(detected, truth)
        included = [share[r[0]] for r in doc["per_window"] if r[2] is not None]
        errs.append(abs(doc["afb"] - 100.0 * float(np.mean(included))))
    return {"beat_se": tp / n_true, "beat_ppv": tp / n_det,
            "afb_agreement": 1.0 - float(np.mean(errs)) / 100.0}


def reference(w: Workload, out: Path, cv_report: Path | None) -> dict:
    """One untimed serial operation: its output digests, the entries
    that ended other than expected, and the accuracy metrics. The
    reference detector's peaks are captured on the way for beat_se and
    beat_ppv. cv_report is the CV report of the model the workload
    screens with; train writes its own."""
    peaks: dict = {}
    tracer = Tracer(out.parent / "spool-ref")
    target = "qrs.detect_reference"
    tracer.install([(target, dict(public_functions())[target])],
                   adapt={target: _capture(peaks)})
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = w.op(out, workers=1)
    finally:
        tracer.uninstall()
    tracer.collect()
    problems = check_entries(w, out, result)
    cv_report = cv_report or out / "model.json.cv.csv"
    return {"digests": w.outputs(out, result), "problems": problems,
            "accuracy": {**accuracy(w, peaks, screened(w, out, result)),
                         "cv_auroc": cv_auroc(cv_report)}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(WORKERS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--model", type=Path)
    ap.add_argument("--reference", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    w = Workload(args.workload, args.inputs, args.model)
    ref = json.loads(args.reference.read_text())
    out = args.work / "out"
    funcs = dict(public_functions())
    entry_targets = [(n, funcs[n]) for n in ENTRY_SPANS]

    entry_tracer = Tracer(args.work / "spool-entry")
    full_tracer = Tracer(args.work / "spool-full")
    op_s, traced_s, entry_s, traced_spans = [], [], [], []
    mismatched = 0
    min_ops = 1 if args.trace else TAIL_OPS
    t_end = time.perf_counter() + args.seconds
    while (time.perf_counter() < t_end or len(op_s) < min_ops
           or (args.trace and not traced_s)):
        traced = bool(args.trace) and len(op_s) > len(traced_s)
        tracer = full_tracer if traced else entry_tracer
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        tracer.install(public_functions() if traced else entry_targets)
        t0 = time.perf_counter()
        result = w.op(out)
        dt = time.perf_counter() - t0
        tracer.uninstall()
        spans = tracer.collect()
        if w.outputs(out, result) != ref["digests"]:
            mismatched += 1
        if traced:
            traced_s.append(dt)
            traced_spans += spans
        else:
            op_s.append(dt)
            entry_s.append(metrics.entry_times(spans))
    problems = ref["problems"]
    messages = [f"{pid}: {msg}" for pid, msg in sorted(problems.items())]
    if mismatched:
        messages.append(f"{mismatched} operations wrote other bytes than "
                        f"the serial reference")

    n_entries = len(w.meta["entries"])
    n_ops = len(op_s) + len(traced_s)
    hours_per_s = w.meta["hours"] / statistics.median(op_s)
    report = {
        "problems": messages,
        "attempted": n_entries * n_ops,
        "failed": (len(problems) * (n_ops - mismatched)
                   + n_entries * mismatched),
        "ops": len(op_s),
        "traced_ops": len(traced_s),
    }
    if args.trace:
        layers = metrics.layer_metrics(traced_spans, len(traced_s),
                                       w.workers)
        layers.update(metrics.run_layers(
            hours_per_s, w.meta["hours"] / statistics.median(traced_s)))
        report["per_layer"] = layers
        (args.work / "trace.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in traced_spans))
    else:
        samples = metrics.first_ops(entry_s, TAIL_OPS)
        tail, tail_pct, n = metrics.tail(samples)
        # this process ran only timed operations; a pool's workers are
        # its only children, and the largest of them is added
        self_kb = own_peak_kb()
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report["end_to_end"] = {
            "hours_per_s": hours_per_s,
            "patient_s.p50": statistics.median(samples),
            "patient_s.tail": tail,
            "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        }
        report["tail"] = {"percentile": tail_pct, "n": n}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
