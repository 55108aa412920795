"""Per-patient orchestration and cohort batch runs.

One patient flows through: reference detection -> test detection ->
60-beat windowing -> per-window bsqi -> recording-level QC -> features
-> forest inference -> AF burden. predict, qc and train share one
analysis path: _load turns a manifest entry into its peaks, and
_analyze turns the peaks into the windows as arrays (the (n, 60) beat
times, each window's bsqi and the inclusion verdicts) and the QC
verdict. predict classifies the result, train labels it, qc reports it.
The included windows of an accepted recording are featurized as one
matrix and scored by one forest call.
The AF burden (afb) is the percentage of *included* windows classified
AF; excluded recordings carry no afb, and a recording with no window
included is too_few_peaks. A patient is flagged prominent-AF iff
afb >= the 20% threshold.

Recordings can also enter as plain RR series (beat times on file); the
dual-detector agreement step then has nothing to compare, so every
window carries bsqi 1.0 and only the peak-count rule can exclude the
recording.

predict and qc fan a cohort out over one process pool. Results are
sorted by patient_id and inference uses no randomness, so output is
independent of worker count and scheduling; per-patient failures land
in an error ledger without aborting the batch.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import quality
from .errors import AfscreenError, ConfigurationError, ParseError
from .features import FEATURE_NAMES, featurize
from .forest import ForestModel, label_windows, predict_proba_many
from .qrs import REFERENCE, RPeakSeries, detect_reference, detect_test
from .quality import ACCEPTED, TOO_FEW_PEAKS, RecordingQC
from .record_io import (
    AF,
    NON_AF,
    UNKNOWN,
    EcgRecord,
    PatientMeta,
    RhythmAnnotations,
    parse_edf,
    parse_rr_csv,
    parse_wfdb,
)

FORMATS = ("edf", "wfdb", "rr")


@dataclass
class PipelineConfig:
    bsqi_threshold: float = quality.BSQI_THRESHOLD
    afb_threshold_pct: float = 20.0
    match_tolerance_s: float = quality.MATCH_TOLERANCE_S
    min_reference_peaks: int = quality.MIN_REFERENCE_PEAKS
    max_exclusion_rate: float = quality.MAX_EXCLUSION_RATE
    # None: "ECG" for EDF; for WFDB the only signal of a single-signal
    # record, else "ECG" (the parsers' own defaults).
    channel: str | int | None = None
    ahi_cutoff: float = 15.0
    ni_margin: float = 0.03
    ni_alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.bsqi_threshold <= 1.0:
            raise ConfigurationError("bsqi threshold must lie in [0, 1]")
        if not 0.0 <= self.afb_threshold_pct <= 100.0:
            raise ConfigurationError("afb threshold must lie in [0, 100]")
        if not 0.0 <= self.max_exclusion_rate <= 1.0:
            raise ConfigurationError("exclusion rate cap must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ManifestEntry:
    path: str
    fmt: str
    patient_id: str
    meta: PatientMeta = field(default_factory=PatientMeta)
    annotations_path: str | None = None


@dataclass
class PatientResult:
    patient_id: str
    qc: RecordingQC
    n_windows_total: int
    n_windows_included: int
    afb: float | None
    prominent_af: bool | None
    per_window: list  # (window_index, bsqi, proba or None, label or None)


@dataclass
class CohortReport:
    n_patients: int
    n_processed: int
    n_excluded: int
    n_prominent: int
    errors: list  # (patient_id, message)


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Load a cohort manifest CSV.

    Required columns: path, format, patient_id. Optional: ahi,
    reference_label, annotations. Relative paths resolve against the
    manifest's own directory.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(
            row for row in fh if not row.startswith("#"))
        required = {"path", "format", "patient_id"}
        fieldnames = set(reader.fieldnames or [])
        if not required <= fieldnames:
            raise ConfigurationError(
                f"manifest must declare columns {sorted(required)}, "
                f"found {sorted(fieldnames)}")
        for i, row in enumerate(reader, start=2):
            fmt = (row["format"] or "").strip().lower()
            if fmt not in FORMATS:
                raise ConfigurationError(
                    f"manifest row {i}: unknown format {row['format']!r} "
                    f"(supported: {', '.join(FORMATS)})")
            pid = (row["patient_id"] or "").strip()
            if not pid:
                raise ConfigurationError(f"manifest row {i}: empty patient_id")
            if pid in seen:
                raise ConfigurationError(
                    f"manifest row {i}: duplicate patient_id {pid!r}")
            seen.add(pid)
            ahi_text = (row.get("ahi") or "").strip()
            label = (row.get("reference_label") or "").strip() or UNKNOWN
            if label not in (AF, NON_AF, UNKNOWN):
                raise ConfigurationError(
                    f"manifest row {i}: reference_label must be {AF!r}, "
                    f"{NON_AF!r}, or empty, got {label!r}")
            meta = PatientMeta(ahi=float(ahi_text) if ahi_text else None,
                               reference_af_label=label)
            ann = (row.get("annotations") or "").strip() or None
            entries.append(ManifestEntry(
                path=str((base / row["path"].strip()).resolve()),
                fmt=fmt,
                patient_id=pid,
                meta=meta,
                annotations_path=str((base / ann).resolve()) if ann else None,
            ))
    return entries


def metas_from_entries(entries: list[ManifestEntry]) -> dict[str, PatientMeta]:
    return {e.patient_id: e.meta for e in entries}


def _read_text(path: str | Path) -> str:
    """A text input's content; undecodable bytes raise ParseError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not a text file: {e.reason}",
                         offset=e.start) from None


def _load(entry: ManifestEntry, config: PipelineConfig,
          rhythm: bool = False,
          ) -> tuple[RPeakSeries, RPeakSeries | None,
                     RhythmAnnotations | None]:
    """(reference peaks, test peaks, rhythm annotations) of one entry.

    An RR entry's beats come from its own file; it has no test peaks.
    The annotations are an RR file's own rhythm column, or None; with
    rhythm, the manifest's annotations file takes precedence and
    missing annotations are an error.
    """
    ref = annotations = None
    if entry.fmt == "rr":
        ref, annotations = parse_rr_csv(_read_text(entry.path))
    if rhythm:
        source = entry.annotations_path
        if source is not None:
            _, annotations = parse_rr_csv(_read_text(source))
        elif entry.fmt != "rr":
            raise ConfigurationError(
                f"patient {entry.patient_id}: training needs rhythm "
                f"annotations, but the manifest row names none")
        if annotations is None:
            raise ConfigurationError(
                f"patient {entry.patient_id}: {source or entry.path} has "
                f"no rhythm column")
    if entry.fmt == "rr":
        return ref, None, annotations
    if entry.fmt == "edf":
        record = parse_edf(Path(entry.path).read_bytes(),
                           channel="ECG" if config.channel is None
                           else config.channel)
    else:
        head = Path(entry.path)
        record = parse_wfdb(_read_text(head),
                            head.with_suffix(".dat").read_bytes(),
                            channel=config.channel)
    record.patient_id = entry.patient_id
    record.meta = entry.meta
    return detect_reference(record), detect_test(record), annotations


def _analyze(ref: RPeakSeries, test: RPeakSeries | None,
             config: PipelineConfig,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, RecordingQC]:
    """(times, bsqi, included, qc) of one recording's peaks.

    times is the (n, 60) view of the reference peaks' windows. An RR
    series has no test detector (test None): its windows all score 1.0.
    A recording that passes both QC rules with no window included is
    reported too_few_peaks rather than given a burden of zero.
    """
    times = quality.window_partition(ref)
    if test is None:
        bsqi = np.ones(times.shape[0])
    else:
        bsqi = quality.window_bsqi(times, test, config.match_tolerance_s)
    included = bsqi >= config.bsqi_threshold
    qc = quality.qc_recording(ref, included, config.min_reference_peaks,
                              config.max_exclusion_rate)
    if qc.status == ACCEPTED and not included.any():
        qc = replace(qc, status=TOO_FEW_PEAKS)
    return times, bsqi, included, qc


def _classify(patient_id: str, ref: RPeakSeries, test: RPeakSeries | None,
              model: ForestModel, config: PipelineConfig) -> PatientResult:
    times, bsqi, included, qc = _analyze(ref, test, config)
    n_included = int(np.count_nonzero(included))
    proba = [None] * times.shape[0]
    if qc.status == ACCEPTED:
        X = featurize(np.diff(times[included], axis=1) * 1000.0,
                      bsqi[included], config.bsqi_threshold)
        for i, p in zip(np.flatnonzero(included).tolist(),
                        predict_proba_many(model, X).tolist()):
            proba[i] = p
    per_window = []
    n_af = 0
    for i, (q, p) in enumerate(zip(bsqi.tolist(), proba)):
        # exactly 0.5 stays nonAF
        label = None if p is None else AF if p > 0.5 else NON_AF
        n_af += label == AF
        per_window.append((i, q, p, label))
    afb = prominent = None
    if qc.status == ACCEPTED:
        afb = (100.0 * n_af) / n_included
        prominent = afb >= config.afb_threshold_pct
    return PatientResult(patient_id=patient_id, qc=qc,
                         n_windows_total=len(per_window),
                         n_windows_included=n_included,
                         afb=afb, prominent_af=prominent,
                         per_window=per_window)


def process_patient(record: EcgRecord, model: ForestModel,
                    config: PipelineConfig) -> PatientResult:
    """Run the full signal path for one recording."""
    ref = detect_reference(record)
    test = detect_test(record)
    return _classify(record.patient_id, ref, test, model, config)


def process_rr(peaks: RPeakSeries, model: ForestModel,
               config: PipelineConfig,
               patient_id: str = "") -> PatientResult:
    """Run the pipeline on an RR series; bsqi is 1.0 throughout."""
    return _classify(patient_id, peaks, None, model, config)


def process_entry(entry: ManifestEntry, model: ForestModel,
                  config: PipelineConfig) -> PatientResult:
    ref, test, _ = _load(entry, config)
    return _classify(entry.patient_id, ref, test, model, config)


def _guarded(task, args: tuple) -> tuple[bool, object]:
    try:
        return True, task(*args)
    except (AfscreenError, OSError) as e:
        return False, f"{type(e).__name__}: {e}"


def _fan_out(task, entries: list[ManifestEntry], args: tuple,
             workers: int | None) -> tuple[list[tuple], list[tuple]]:
    """task(entry, *args) for every entry, on `workers` processes.

    workers None means all cores. Returns the (patient_id, result)
    pairs of the entries that finished and the (patient_id, message)
    error ledger of those that raised, both sorted by patient id.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    run = partial(_guarded, task)
    calls = [(e, *args) for e in entries]
    if workers <= 1 or len(entries) <= 1:
        outcomes = [run(c) for c in calls]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run, calls))
    done, errors = [], []
    for entry, (ok, out) in zip(entries, outcomes):
        (done if ok else errors).append((entry.patient_id, out))
    return sorted(done, key=lambda d: d[0]), sorted(errors)


def run_cohort(entries: list[ManifestEntry], model: ForestModel,
               config: PipelineConfig, workers: int | None = None,
               ) -> tuple[list[PatientResult], CohortReport]:
    """Process every manifest entry; failures go to the error ledger."""
    done, errors = _fan_out(process_entry, entries, (model, config),
                            workers)
    results = [r for _, r in done]
    n_excluded = sum(1 for r in results if r.qc.status != ACCEPTED)
    n_prominent = sum(1 for r in results if r.prominent_af)
    report = CohortReport(n_patients=len(entries),
                          n_processed=len(results),
                          n_excluded=n_excluded,
                          n_prominent=n_prominent,
                          errors=errors)
    return results, report


def _qc_entry(entry: ManifestEntry, config: PipelineConfig,
              dump: str | None) -> tuple[RecordingQC, np.ndarray | None]:
    ref, test, _ = _load(entry, config)
    qc = _analyze(ref, test, config)[3]
    if dump is None or test is None:
        return qc, None
    return qc, (ref if dump == REFERENCE else test).times


def qc_cohort(entries: list[ManifestEntry], config: PipelineConfig,
              workers: int | None = None, dump: str | None = None,
              ) -> tuple[list[tuple], list[tuple]]:
    """Quality-gate every manifest entry without classifying it.

    Returns (pid, (qc, peaks)) for each recording, where peaks are the
    peak times of the detector named by dump ("reference" or "test";
    None for an RR entry or without dump), and the error ledger, both
    sorted by patient id.
    """
    return _fan_out(_qc_entry, entries, (config, dump), workers)


def collect_training_windows(entries: list[ManifestEntry],
                             config: PipelineConfig,
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                        int]:
    """Assemble quality-gated, rhythm-labeled windows for training.

    RR entries take their beats from their own file and their rhythm
    from the annotations file the manifest names, else from their own
    rhythm column; signal entries run both detectors and need an
    annotations sidecar named in the manifest.
    Returns (X, y, groups), the features, labels (1 = AF) and patient
    ids of the windows in manifest order, plus the count of windows
    skipped for lying outside their recording's annotated span.
    """
    Xs = [np.empty((0, len(FEATURE_NAMES)))]
    ys = [np.empty(0, dtype=np.int64)]
    groups: list[str] = []
    skipped_total = 0
    for entry in entries:
        ref, test, annotations = _load(entry, config, rhythm=True)
        times, bsqi, included, _ = _analyze(ref, test, config)
        X, y, skipped = label_windows(times[included], bsqi[included],
                                      annotations, config.bsqi_threshold)
        Xs.append(X)
        ys.append(y)
        groups += [entry.patient_id] * len(y)
        skipped_total += skipped
    return (np.concatenate(Xs), np.concatenate(ys),
            np.array(groups, dtype=str), skipped_total)


def result_to_dict(result: PatientResult) -> dict:
    """JSON-ready form of one patient's result."""
    return {
        "patient_id": result.patient_id,
        "qc": {
            "status": result.qc.status,
            "n_peaks_reference": result.qc.n_peaks_reference,
            "exclusion_rate": result.qc.exclusion_rate,
        },
        "n_windows_total": result.n_windows_total,
        "n_windows_included": result.n_windows_included,
        "afb": result.afb,
        "prominent_af": result.prominent_af,
        "per_window": [list(row) for row in result.per_window],
    }


def cohort_csv(results: list[PatientResult], header_lines: list[str]) -> str:
    """Cohort summary CSV, one row per patient, sorted by patient_id."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["patient_id", "status", "n_peaks", "exclusion_rate",
                     "n_windows", "n_included", "afb", "prominent_af"])
    for r in results:
        writer.writerow([
            r.patient_id, r.qc.status, r.qc.n_peaks_reference,
            repr(float(r.qc.exclusion_rate)),
            r.n_windows_total, r.n_windows_included,
            "" if r.afb is None else repr(float(r.afb)),
            "" if r.prominent_af is None else str(r.prominent_af).lower(),
        ])
    return buf.getvalue()
