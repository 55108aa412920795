"""Per-patient orchestration and cohort batch runs.

One patient flows through: reference and test detection -> 60-beat
windowing -> per-window bsqi -> recording-level QC -> features -> forest
inference -> AF burden. predict, qc and train share one analysis path:
_load turns a manifest entry into its peaks, and _analyze turns the
peaks into the windows as arrays (the (n, 60) beat times, each window's
bsqi and the inclusion verdicts) and the QC verdict. predict classifies
the result, train labels it, qc reports it. _detect runs the two
detectors either one after the other or side by side, the test detector
on a second thread joined before it returns; they share only the
read-only record, so the peaks are the same either way. The process
that runs an entry chooses: a process that multiprocessing started,
such as a pool worker, runs the detectors one after the other, and any
other process takes the second thread.
_analyze alone decides inclusion: an accepted recording's included
windows are featurized as one matrix and scored by one forest call, and
train labels its included windows. A PatientResult keeps the window
arrays; result_to_dict and cohort_csv derive the rows they write.
The AF burden (afb) is the percentage of *included* windows classified
AF; excluded recordings carry no afb. A patient is flagged prominent-AF
iff afb >= the 20% threshold.

Recordings can also enter as plain RR series (beat times on file); the
dual-detector agreement step then has nothing to compare, so every
window carries bsqi 1.0 and only a too_few_peaks verdict can exclude
the recording.

predict and qc fan a cohort out over one process pool. Results are
sorted by patient_id and inference uses no randomness, so output is
independent of worker count and scheduling; per-patient failures land
in an error ledger without aborting the batch.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import quality
from .errors import (AfscreenError, ConfigurationError,
                     ContractViolationError, ParseError)
from .features import FEATURE_NAMES, featurize
from .forest import ForestModel, label_windows, predict_proba_many
from .qrs import detect_reference, detect_test
from .quality import ACCEPTED, RecordingQC
from .record_io import (
    AF,
    NON_AF,
    UNKNOWN,
    EcgRecord,
    PatientMeta,
    RhythmAnnotations,
    RPeakSeries,
    parse_edf,
    parse_rr_csv,
    parse_wfdb,
)

FORMATS = ("edf", "wfdb", "rr")
AF_PROBA = 0.5  # a window is AF iff its probability exceeds this


@dataclass
class PipelineConfig:
    """The analysis settings this module reads: channel to load a
    signal, match_tolerance_s and bsqi_threshold to score its windows,
    min_reference_peaks and max_exclusion_rate for the recording's QC
    verdict, afb_threshold_pct to flag prominent AF. Training reads the
    first three only (collect_training_windows)."""

    bsqi_threshold: float = quality.BSQI_THRESHOLD
    afb_threshold_pct: float = 20.0
    match_tolerance_s: float = quality.MATCH_TOLERANCE_S
    min_reference_peaks: int = quality.MIN_REFERENCE_PEAKS
    max_exclusion_rate: float = quality.MAX_EXCLUSION_RATE
    # None: "ECG" for EDF; for WFDB the only signal of a single-signal
    # record, else "ECG" (the parsers' own defaults).
    channel: str | int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.bsqi_threshold <= 1.0:
            raise ConfigurationError("bsqi threshold must lie in [0, 1]")
        if not 0.0 <= self.afb_threshold_pct <= 100.0:
            raise ConfigurationError("afb threshold must lie in [0, 100]")
        if not 0.0 < self.match_tolerance_s < math.inf:
            raise ConfigurationError("match tolerance must be finite and > 0")
        if self.min_reference_peaks < 0:
            raise ConfigurationError("minimum peaks must be >= 0")
        if not 0.0 <= self.max_exclusion_rate <= 1.0:
            raise ConfigurationError("exclusion rate cap must lie in [0, 1]")


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
    bsqi: np.ndarray  # one score per window
    included: np.ndarray  # one inclusion verdict per window
    proba: np.ndarray | None  # per included window; None unless accepted
    afb: float | None
    prominent_af: bool | None


@dataclass
class CohortReport:
    n_patients: int
    n_processed: int
    n_excluded: int
    n_prominent: int
    errors: list  # (patient_id, message)


def _read_text(path: str | Path, what: str | None = None) -> str:
    """A text input's content, read as UTF-8 whatever the locale; bytes
    that are not UTF-8 raise ParseError naming the line and offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(f"{what or path} line {line} is not UTF-8 text: "
                         f"{e.reason}", offset=e.start) from None


def _read_table(path: str | Path, required: set[str], what: str,
                ) -> list[tuple[int, dict]]:
    """(row number, row) of each record of a CSV file, from row 2; lines
    starting with '#' are comments, a short row's missing cells empty."""
    lines = io.StringIO(_read_text(path, what), newline="")
    try:
        reader = csv.DictReader((ln for ln in lines if not ln.startswith("#")),
                                restval="")
        columns = set(reader.fieldnames or [])
        if not required <= columns:
            raise ConfigurationError(
                f"{what} must declare columns {sorted(required)}, "
                f"found {sorted(columns)}")
        return list(enumerate(reader, start=2))
    except csv.Error as e:
        raise ParseError(f"{what}: {e}") from None


def csv_text(rows, comments=()) -> str:
    """CSV text: one "# " line per comment, which _read_table skips,
    then the rows; every line ends in a bare newline."""
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in comments)
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def is_file_name(name: str) -> bool:
    """True if outputs can be named after `name`: not empty, "." or "..",
    and holding no "/", "\\" or NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Load a cohort manifest CSV.

    Required columns: path, format, patient_id. Optional: ahi,
    reference_label, annotations. Relative paths resolve against the
    manifest's own directory, and a path holding NUL is refused. A
    patient_id is unique and passes is_file_name, as outputs are named
    after it. No entry file is opened, and no filter is loaded: the
    detectors load their kernel on the first band-pass.
    """
    base = Path(path).parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for i, row in _read_table(path, {"path", "format", "patient_id"},
                              "manifest"):
        fmt = row["format"].strip().lower()
        if fmt not in FORMATS:
            raise ConfigurationError(
                f"manifest row {i}: unknown format {row['format']!r} "
                f"(supported: {', '.join(FORMATS)})")
        pid = row["patient_id"].strip()
        if not pid:
            raise ConfigurationError(f"manifest row {i}: empty patient_id")
        if not is_file_name(pid):
            raise ConfigurationError(
                f"manifest row {i}: patient_id {pid!r} is not a file name")
        if pid in seen:
            raise ConfigurationError(
                f"manifest row {i}: duplicate patient_id {pid!r}")
        seen.add(pid)
        rel = row["path"].strip()
        if not rel:
            raise ConfigurationError(f"manifest row {i}: empty path")
        ahi_text = (row.get("ahi") or "").strip()
        label = (row.get("reference_label") or "").strip() or UNKNOWN
        if label not in (AF, NON_AF, UNKNOWN):
            raise ConfigurationError(
                f"manifest row {i}: reference_label must be {AF!r}, "
                f"{NON_AF!r}, or empty, got {label!r}")
        try:
            meta = PatientMeta(ahi=float(ahi_text) if ahi_text else None,
                               reference_af_label=label)
        except (ValueError, ContractViolationError) as e:
            raise ConfigurationError(
                f"manifest row {i}, column ahi: {e}") from None
        ann = (row.get("annotations") or "").strip() or None
        for column, cell in (("path", rel), ("annotations", ann or "")):
            if "\0" in cell:
                raise ConfigurationError(
                    f"manifest row {i}, column {column}: {cell!r} is not "
                    f"a path")
        entries.append(ManifestEntry(
            path=str((base / rel).resolve()),
            fmt=fmt,
            patient_id=pid,
            meta=meta,
            annotations_path=str((base / ann).resolve()) if ann else None,
        ))
    return entries


@cache
def _malloc_trim():
    """glibc's malloc_trim, looked up on the first call; None where the
    C library lacks it."""
    import ctypes
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _detect(record: EcgRecord, threaded: bool,
            ) -> tuple[RPeakSeries, RPeakSeries]:
    """(reference peaks, test peaks) of one record.

    threaded runs the test detector on a second thread, joined before
    this returns, while the calling thread runs the reference detector;
    otherwise the two run one after the other on the calling thread.
    The reference detector's error wins either way: it leaves the block
    before the test detector's result is asked for. After the threads
    join, malloc_trim(0) hands the pages that the detectors freed back
    to the system, where the C library has it: glibc keeps them in the
    two threads' arenas otherwise, and a long-lived process would hold
    them between records. It took 0.4-0.9 ms after an 8 h night.
    """
    if not threaded:
        return detect_reference(record), detect_test(record)
    with ThreadPoolExecutor(1) as thread:
        test = thread.submit(detect_test, record)
        ref = detect_reference(record)
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
    return ref, test.result()


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
                "training needs rhythm annotations, but the manifest row "
                "names none")
        if annotations is None:
            raise ConfigurationError(
                f"{source or entry.path} has no rhythm column")
    if entry.fmt == "rr":
        return ref, None, annotations
    if entry.fmt == "edf":
        record = parse_edf(Path(entry.path).read_bytes(),
                           channel=config.channel)
    else:
        head = Path(entry.path)
        record = parse_wfdb(_read_text(head),
                            head.with_suffix(".dat").read_bytes(),
                            channel=config.channel)
    record.patient_id = entry.patient_id
    ref, test = _detect(record, multiprocessing.parent_process() is None)
    return ref, test, annotations


def _analyze(ref: RPeakSeries, test: RPeakSeries | None,
             config: PipelineConfig,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, RecordingQC]:
    """(times, bsqi, included, qc) of one recording's peaks.

    times is the (n, 60) view of the reference peaks' windows. An RR
    series has no test detector (test None): its windows all score 1.0.
    """
    times = quality.window_partition(ref)
    if test is None:
        bsqi = np.ones(times.shape[0])
    else:
        bsqi = quality.window_bsqi(times, test, config.match_tolerance_s)
    included = bsqi >= config.bsqi_threshold
    qc = quality.qc_recording(ref, included, config.min_reference_peaks,
                              config.max_exclusion_rate)
    return times, bsqi, included, qc


def _classify(patient_id: str, ref: RPeakSeries, test: RPeakSeries | None,
              model: ForestModel, config: PipelineConfig) -> PatientResult:
    times, bsqi, included, qc = _analyze(ref, test, config)
    proba = afb = prominent = None
    if qc.status == ACCEPTED:
        X = featurize(times[included], bsqi[included])
        proba = predict_proba_many(model, X)
        afb = 100.0 * int(np.count_nonzero(proba > AF_PROBA)) / len(proba)
        prominent = afb >= config.afb_threshold_pct
    return PatientResult(patient_id=patient_id, qc=qc, bsqi=bsqi,
                         included=included, proba=proba, afb=afb,
                         prominent_af=prominent)


def process_patient(record: EcgRecord, model: ForestModel,
                    config: PipelineConfig) -> PatientResult:
    """Run the full signal path for one recording.

    The detectors run one after the other on the calling thread. The
    benchmark's tracer keeps one span stack per process, and its test
    checks the spans of this call, so it stays serial until the tracer
    is replaced (ROADMAP item 2).
    """
    ref, test = _detect(record, threaded=False)
    return _classify(record.patient_id, ref, test, model, config)


def process_entry(entry: ManifestEntry, model: ForestModel,
                  config: PipelineConfig) -> PatientResult:
    """One manifest entry's result."""
    ref, test, _ = _load(entry, config)
    return _classify(entry.patient_id, ref, test, model, config)


def _guarded(task, args: tuple) -> tuple[bool, object]:
    try:
        return True, task(*args)
    except (AfscreenError, OSError) as e:
        return False, f"{type(e).__name__}: {e}"


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (taskset, a cpuset), else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(task, entries: list[ManifestEntry], args: tuple,
             workers: int | None) -> tuple[list[tuple], list[tuple]]:
    """task(entry, *args) for every entry, on `workers` processes, or
    one per entry if there are fewer entries; a single process runs
    them in this one.

    workers None means all usable cores; fewer than 1 is refused.
    Returns the (patient_id, result) pairs of the entries that finished
    and the (patient_id, message) error ledger of those that raised,
    both sorted by patient id.
    """
    if workers is None:
        workers = _usable_cores()
    elif workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    busy = min(workers, len(entries))
    run = partial(_guarded, task)
    calls = [(e, *args) for e in entries]
    if busy <= 1:
        outcomes = [run(c) for c in calls]
    else:
        with ProcessPoolExecutor(max_workers=busy) as pool:
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


# the detectors qc can dump
REFERENCE = "reference"
TEST = "test"


def _qc_entry(entry: ManifestEntry, config: PipelineConfig,
              dump: str | None) -> tuple[RecordingQC, RPeakSeries | None]:
    ref, test, _ = _load(entry, config)
    qc = _analyze(ref, test, config)[3]
    if dump is None or test is None:
        return qc, None
    return qc, ref if dump == REFERENCE else test


def qc_cohort(entries: list[ManifestEntry], config: PipelineConfig,
              workers: int | None = None, dump: str | None = None,
              ) -> tuple[list[tuple], list[tuple]]:
    """Quality-gate every manifest entry without classifying it:
    accepted is the gate's verdict, as features are not computed.

    Returns (pid, (qc, peaks)) for each recording, where peaks are the
    RPeakSeries of the detector named by dump (REFERENCE or TEST;
    None for an RR entry or without dump), and the error ledger, both
    sorted by patient id.
    """
    return _fan_out(_qc_entry, entries, (config, dump), workers)


def collect_training_windows(entries: list[ManifestEntry],
                             config: PipelineConfig,
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                        int]:
    """Assemble the included, rhythm-labeled windows of every recording
    for training, whatever the recording's QC verdict.

    RR entries take their beats from their own file and their rhythm
    from the annotations file the manifest names, else from their own
    rhythm column; signal entries run both detectors and need an
    annotations sidecar named in the manifest.
    Returns (X, y, groups), the features, labels (1 = AF) and patient
    ids of the windows in manifest order, plus the count of windows
    skipped for lying outside their recording's annotated span. The
    first entry that fails raises, its message led by "patient <id>: ".
    """
    Xs = [np.empty((0, len(FEATURE_NAMES)))]
    ys = [np.empty(0, dtype=np.int64)]
    groups: list[str] = []
    skipped_total = 0
    for entry in entries:
        try:
            ref, test, annotations = _load(entry, config, rhythm=True)
            times, bsqi, included, _ = _analyze(ref, test, config)
            X, y, skipped = label_windows(times[included], bsqi[included],
                                          annotations)
        except AfscreenError as e:
            e.args = (f"patient {entry.patient_id}: {e}",)
            raise
        Xs.append(X)
        ys.append(y)
        groups += [entry.patient_id] * len(y)
        skipped_total += skipped
    return (np.concatenate(Xs), np.concatenate(ys),
            np.array(groups, dtype=str), skipped_total)


def result_to_dict(result: PatientResult) -> dict:
    """JSON-ready form of one patient's result."""
    rows = [[i, q, None, None] for i, q in enumerate(result.bsqi.tolist())]
    if result.proba is not None:
        for i, p in zip(np.flatnonzero(result.included).tolist(),
                        result.proba.tolist()):
            rows[i][2:] = p, AF if p > AF_PROBA else NON_AF
    return {
        "patient_id": result.patient_id,
        "qc": {
            "status": result.qc.status,
            "n_peaks_reference": result.qc.n_peaks_reference,
            "exclusion_rate": result.qc.exclusion_rate,
        },
        "n_windows_total": len(rows),
        "n_windows_included": int(np.count_nonzero(result.included)),
        "afb": result.afb,
        "prominent_af": result.prominent_af,
        "per_window": rows,
    }


def cohort_csv(results: list[PatientResult], header_lines: list[str]) -> str:
    """Cohort summary CSV, one row per patient, sorted by patient_id."""
    rows = [["patient_id", "status", "n_peaks", "exclusion_rate",
             "n_windows", "n_included", "afb", "prominent_af"]]
    rows += [[r.patient_id, r.qc.status, r.qc.n_peaks_reference,
              repr(float(r.qc.exclusion_rate)),
              len(r.bsqi), np.count_nonzero(r.included),
              "" if r.afb is None else repr(float(r.afb)),
              "" if r.prominent_af is None else str(r.prominent_af).lower()]
             for r in results]
    return csv_text(rows, header_lines)


def read_cohort_csv(path: str | Path,
                    ) -> tuple[dict[str, bool], dict[str, float], int]:
    """({pid: prominent_af}, {pid: afb}, number excluded) of a cohort_csv
    file; each patient_id appears once, prominent_af must be true, false
    or empty (excluded), and afb of a row that is not excluded a
    percentage in [0, 100]."""
    predictions, afb_by_pid, n_excluded = {}, {}, 0
    seen: set[str] = set()
    for i, row in _read_table(path, {"patient_id", "afb", "prominent_af"},
                              f"cohort CSV {path}"):
        pid, flag, afb = row["patient_id"], row["prominent_af"], row["afb"]
        if pid in seen:
            raise ConfigurationError(
                f"{path} row {i}: duplicate patient_id {pid!r}")
        seen.add(pid)
        if flag == "":
            n_excluded += 1
            continue
        if flag not in ("true", "false"):
            raise ConfigurationError(
                f"{path} row {i}: prominent_af must be true, false or "
                f"empty, got {flag!r}")
        try:
            value = float(afb)
        except ValueError:
            raise ConfigurationError(
                f"{path} row {i}: afb {afb!r} is not a number") from None
        if not 0.0 <= value <= 100.0:
            raise ConfigurationError(
                f"{path} row {i}: afb {afb!r} must lie in [0, 100]")
        afb_by_pid[pid] = value
        predictions[pid] = flag == "true"
    return predictions, afb_by_pid, n_excluded
