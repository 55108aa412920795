"""Per-patient orchestration, manifests, and cohort batch behavior."""

import ctypes
import json
import os
import threading
from functools import partial

import numpy as np
import pytest

from afscreen import pipeline, synth
from afscreen.errors import (ChannelNotFoundError, ConfigurationError,
                             ContractViolationError, ParseError)
from afscreen.features import FEATURE_NAMES, featurize
from afscreen.forest import ForestModel
from afscreen.pipeline import (CohortReport, ManifestEntry, PipelineConfig,
                               cohort_csv, collect_training_windows,
                               process_entry, process_patient,
                               read_manifest, result_to_dict, run_cohort)
from afscreen.qrs import RPeakSeries, detect_reference, detect_test
from afscreen.quality import TOO_NOISY
from afscreen.record_io import encode_212, write_edf, write_rr_csv

from conftest import make_series

AVNN = FEATURE_NAMES.index("avnn")
COSEN = FEATURE_NAMES.index("cosen")

# short mean RR reads as AF, the usual resting rate as nonAF
AVNN_STUMP = ForestModel(
    trees=[{"f": AVNN, "thr": 700.0, "l": {"leaf": [0, 1]},
            "r": {"leaf": [1, 0]}}],
    n_estimators=1, max_depth=1, seed=0)

# irregular windows read as AF regardless of rate
COSEN_STUMP = ForestModel(
    trees=[{"f": COSEN, "thr": -1.0, "l": {"leaf": [1, 0]},
            "r": {"leaf": [0, 1]}}],
    n_estimators=1, max_depth=1, seed=0)


def rr_series(window_rr_s, beats=60):
    """Beat times tiling one window per requested RR spacing."""
    times = []
    t = 0.0
    for rr in window_rr_s:
        for _ in range(beats):
            t += rr
            times.append(t)
    return make_series(times)


# ---------------------------------------------------------------------------
# burden arithmetic on the RR path


def test_afb_threshold_boundary_is_inclusive():
    # 4 of 20 windows short-RR: burden lands exactly on the 20% threshold
    spacing = [0.6 if i % 5 == 0 else 0.85 for i in range(20)]
    result = pipeline._classify("edge", rr_series(spacing), None, AVNN_STUMP,
                                PipelineConfig())
    assert result.qc.status == "accepted"
    assert len(result.bsqi) == 20
    assert result.included.sum() == 20
    assert result.afb == 20.0
    assert result.prominent_af is True


def test_afb_below_threshold():
    spacing = [0.6 if i < 3 else 0.85 for i in range(20)]
    result = pipeline._classify("", rr_series(spacing), None, AVNN_STUMP,
                                PipelineConfig())
    assert result.afb == 15.0
    assert result.prominent_af is False


def test_afb_extremes():
    all_af = pipeline._classify("", rr_series([0.6] * 17), None, AVNN_STUMP,
                                PipelineConfig())
    assert all_af.afb == 100.0
    assert all_af.prominent_af is True

    none_af = pipeline._classify("", rr_series([0.85] * 17), None, AVNN_STUMP,
                                 PipelineConfig())
    assert none_af.afb == 0.0
    assert none_af.prominent_af is False


def test_afb_threshold_configurable():
    spacing = [0.6 if i < 3 else 0.85 for i in range(20)]
    result = pipeline._classify("", rr_series(spacing), None, AVNN_STUMP,
                                PipelineConfig(afb_threshold_pct=15.0))
    assert result.afb == 15.0
    assert result.prominent_af is True


def test_rr_path_carries_unit_bsqi():
    result = pipeline._classify("", rr_series([0.8] * 17), None, AVNN_STUMP,
                                PipelineConfig())
    assert result.bsqi.tolist() == [1.0] * 17
    rows = result_to_dict(result)["per_window"]
    assert [row[3] for row in rows] == ["nonAF"] * 17


def test_rr_path_too_few_peaks():
    result = pipeline._classify("short", rr_series([0.8] * 15), None,
                                AVNN_STUMP, PipelineConfig())
    assert result.qc.status == "too_few_peaks"
    assert result.qc.n_peaks_reference == 900
    assert result.afb is None
    assert result.prominent_af is None
    # no inference on excluded recordings
    assert result.proba is None


def test_min_peaks_configurable():
    result = pipeline._classify("", rr_series([0.8] * 2), None, AVNN_STUMP,
                                PipelineConfig(min_reference_peaks=100))
    assert result.qc.status == "accepted"


# ---------------------------------------------------------------------------
# signal path


@pytest.fixture(scope="module")
def small_config():
    return PipelineConfig(min_reference_peaks=100)


def test_signal_path_af_burden(af_record, nsr_record, small_config):
    af = process_patient(af_record, COSEN_STUMP, small_config)
    assert af.qc.status == "accepted"
    assert af.included.sum() >= 2
    assert af.afb == 100.0
    assert af.prominent_af is True

    nsr = process_patient(nsr_record, COSEN_STUMP, small_config)
    assert nsr.afb == 0.0
    assert nsr.prominent_af is False


def test_signal_path_reports_patient_id(af_record, small_config):
    result = process_patient(af_record, COSEN_STUMP, small_config)
    assert result.patient_id == af_record.patient_id


# ---------------------------------------------------------------------------
# manifests


def write_rr_file(path, spacing, rhythm=None, beats=60):
    series = rr_series(spacing, beats=beats)
    lines = []
    for t in series.times:
        lines.append(f"{t:.4f},{rhythm}" if rhythm else f"{t:.4f}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_manifest_full_row(tmp_path):
    write_rr_file(tmp_path / "a.csv", [0.8] * 17)
    (tmp_path / "m.csv").write_text(
        "# cohort under test\n"
        "path,format,patient_id,ahi,reference_label,annotations\n"
        "a.csv,rr,p1,22.5,AF,a.csv\n"
        "a.csv,RR,p2,,,\n")
    entries = read_manifest(tmp_path / "m.csv")
    assert len(entries) == 2
    assert entries[0].patient_id == "p1"
    assert entries[0].fmt == "rr"
    assert entries[0].path == str((tmp_path / "a.csv").resolve())
    assert entries[0].meta.ahi == 22.5
    assert entries[0].meta.reference_af_label == "AF"
    assert entries[0].annotations_path == str((tmp_path / "a.csv").resolve())
    # empty optionals: no AHI, unknown label, no sidecar
    assert entries[1].meta.ahi is None
    assert entries[1].meta.reference_af_label == "unknown"
    assert entries[1].annotations_path is None


def test_read_manifest_missing_columns(tmp_path):
    (tmp_path / "m.csv").write_text("path,patient_id\na.csv,p1\n")
    with pytest.raises(ConfigurationError) as err:
        read_manifest(tmp_path / "m.csv")
    assert "format" in str(err.value)


def test_read_manifest_unknown_format(tmp_path):
    (tmp_path / "m.csv").write_text(
        "path,format,patient_id\na.csv,mp3,p1\n")
    with pytest.raises(ConfigurationError) as err:
        read_manifest(tmp_path / "m.csv")
    assert "row 2" in str(err.value)
    assert "mp3" in str(err.value)


def test_read_manifest_duplicate_patient(tmp_path):
    (tmp_path / "m.csv").write_text(
        "path,format,patient_id\na.csv,rr,p1\nb.csv,rr,p1\n")
    with pytest.raises(ConfigurationError) as err:
        read_manifest(tmp_path / "m.csv")
    assert "duplicate" in str(err.value)


def test_read_manifest_empty_patient_id(tmp_path):
    (tmp_path / "m.csv").write_text(
        "path,format,patient_id\na.csv,rr, \n")
    with pytest.raises(ConfigurationError):
        read_manifest(tmp_path / "m.csv")


def test_read_manifest_bad_label(tmp_path):
    (tmp_path / "m.csv").write_text(
        "path,format,patient_id,reference_label\na.csv,rr,p1,maybe\n")
    with pytest.raises(ConfigurationError):
        read_manifest(tmp_path / "m.csv")


# ---------------------------------------------------------------------------
# cohort runs


def cohort_entries(tmp_path):
    write_rr_file(tmp_path / "af.csv", [0.6] * 17)
    write_rr_file(tmp_path / "nsr.csv", [0.85] * 17)
    return [
        ManifestEntry(path=str(tmp_path / "af.csv"), fmt="rr",
                      patient_id="paf"),
        ManifestEntry(path=str(tmp_path / "nsr.csv"), fmt="rr",
                      patient_id="pnsr"),
        ManifestEntry(path=str(tmp_path / "gone.csv"), fmt="rr",
                      patient_id="plost"),
    ]


def test_run_cohort_collects_results_and_errors(tmp_path):
    results, report = run_cohort(cohort_entries(tmp_path), AVNN_STUMP,
                                 PipelineConfig(), workers=1)
    assert [r.patient_id for r in results] == ["paf", "pnsr"]
    assert report == CohortReport(n_patients=3, n_processed=2, n_excluded=0,
                                  n_prominent=1, errors=report.errors)
    assert len(report.errors) == 1
    pid, message = report.errors[0]
    assert pid == "plost"
    assert "FileNotFoundError" in message


def cohort_run(entries, workers):
    """run_cohort's results in their artifact form, and its report."""
    results, report = run_cohort(entries, AVNN_STUMP, PipelineConfig(),
                                 workers=workers)
    return [result_to_dict(r) for r in results], report


def test_run_cohort_order_invariant(tmp_path):
    entries = cohort_entries(tmp_path)
    assert cohort_run(entries, 1) == cohort_run(entries[::-1], 1)


def test_run_cohort_worker_count_invariant(tmp_path):
    entries = cohort_entries(tmp_path)
    assert cohort_run(entries, 1) == cohort_run(entries, 3)


BINARY = bytes(range(256)) * 8  # not valid UTF-8 from byte 0x80 on


@pytest.mark.parametrize("fmt", ["rr", "wfdb"])
def test_run_cohort_ledgers_undecodable_file(tmp_path, fmt):
    write_rr_file(tmp_path / "good.csv", [0.85] * 17)
    bad = tmp_path / ("bad.csv" if fmt == "rr" else "bad.hea")
    bad.write_bytes(BINARY)
    (tmp_path / "bad.dat").write_bytes(BINARY)
    entries = [
        ManifestEntry(path=str(tmp_path / "good.csv"), fmt="rr",
                      patient_id="pgood"),
        ManifestEntry(path=str(bad), fmt=fmt, patient_id="pbad"),
    ]
    results, report = run_cohort(entries, AVNN_STUMP, PipelineConfig(),
                                 workers=1)
    assert [r.patient_id for r in results] == ["pgood"]
    assert len(report.errors) == 1
    pid, message = report.errors[0]
    assert pid == "pbad"
    assert message.startswith("ParseError: ") and str(bad) in message


def test_collect_training_windows_undecodable_annotations(tmp_path):
    (tmp_path / "bad.csv").write_bytes(BINARY)
    entry = ManifestEntry(path=str(tmp_path / "bad.csv"), fmt="rr",
                          patient_id="pbad")
    with pytest.raises(ParseError):
        collect_training_windows([entry], PipelineConfig())


def write_two_signal_wfdb(tmp_path, record):
    """RESP (flat) then ECG, interleaved in one format-212 file."""
    ecg = np.clip(np.round(record.samples * 200.0), -2048, 2047)
    frames = np.stack([np.zeros_like(ecg), ecg], axis=1).ravel()
    (tmp_path / "two.dat").write_bytes(encode_212(frames))
    n = ecg.shape[0]
    (tmp_path / "two.hea").write_text(
        f"two 2 {record.fs:g} {n}\n"
        "two.dat 212 200 12 0 0 0 0 RESP belt\n"
        "two.dat 212 200 12 0 0 0 0 ECG lead II\n")
    return ManifestEntry(path=str(tmp_path / "two.hea"), fmt="wfdb",
                         patient_id="two")


@pytest.mark.parametrize("description", [" MLII", ""])
def test_single_signal_wfdb_needs_no_channel(tmp_path, nsr_record,
                                             description):
    # The description column is optional; without --channel the only
    # signal is screened whatever it is called.
    ecg = np.clip(np.round(nsr_record.samples * 200.0), -2048, 2047)
    (tmp_path / "one.dat").write_bytes(encode_212(ecg))
    (tmp_path / "one.hea").write_text(
        f"one 1 {nsr_record.fs:g} {ecg.shape[0]}\n"
        f"one.dat 212 200 12 0 0 0 0{description}\n")
    entry = ManifestEntry(path=str(tmp_path / "one.hea"), fmt="wfdb",
                          patient_id="one")
    result = result_to_dict(process_entry(entry, AVNN_STUMP,
                                          PipelineConfig()))
    assert result["qc"]["n_peaks_reference"] > 100
    assert result_to_dict(process_entry(entry, AVNN_STUMP,
                                        PipelineConfig(channel=0))) == result
    with pytest.raises(ChannelNotFoundError):
        process_entry(entry, AVNN_STUMP, PipelineConfig(channel="ECG"))


def test_wfdb_entry_honours_channel(tmp_path, nsr_record):
    entry = write_two_signal_wfdb(tmp_path, nsr_record)
    peaks = {}
    for channel in (None, "ECG", "resp", 0, 1):
        result = process_entry(entry, AVNN_STUMP,
                               PipelineConfig(channel=channel))
        peaks[channel] = result.qc.n_peaks_reference
    assert peaks[None] == peaks["ECG"] == peaks[1] > 100
    assert peaks["resp"] == peaks[0] == 0
    with pytest.raises(ChannelNotFoundError):
        process_entry(entry, AVNN_STUMP, PipelineConfig(channel="PPG"))


def test_process_entry_is_invariant_to_the_file_scale(tmp_path,
                                                     nsr_record):
    # format-212 gains of 1e300 and 1e-300 and an EDF physical range of
    # +-1.5e200 scale the samples to near the ends of the float range,
    # where the detectors once found nothing or overflowed
    def result(name, fmt):
        entry = ManifestEntry(path=str(tmp_path / name), fmt=fmt,
                              patient_id="p")
        return result_to_dict(process_entry(entry, AVNN_STUMP,
                                            PipelineConfig()))

    ecg = np.clip(np.round(nsr_record.samples * 200.0), -2048, 2047)
    (tmp_path / "w.dat").write_bytes(encode_212(ecg))
    wfdb = []
    for gain in ("200", "1e300", "1e-300"):
        (tmp_path / "w.hea").write_text(
            f"w 1 {nsr_record.fs:g} {ecg.shape[0]}\n"
            f"w.dat 212 {gain} 12 0 0 0 0 ECG\n")
        wfdb.append(result("w.hea", "wfdb"))
    assert wfdb[0]["qc"]["n_peaks_reference"] > 100
    assert wfdb[1] == wfdb[0] and wfdb[2] == wfdb[0]

    # one payload under two physical ranges, the second 1e200 times the
    # first; a one-signal header keeps them at bytes 360 and 368
    edf = bytearray(write_edf(nsr_record))
    edf_results = []
    for lo, hi in (("-1.5", "1.5"), ("-1.5e200", "1.5e200")):
        edf[360:376] = lo.ljust(8).encode() + hi.ljust(8).encode()
        (tmp_path / "e.edf").write_bytes(edf)
        edf_results.append(result("e.edf", "edf"))
    assert edf_results[0]["qc"]["n_peaks_reference"] > 100
    assert edf_results[1] == edf_results[0]


def edf_entry(tmp_path, record):
    (tmp_path / "r.edf").write_bytes(write_edf(record))
    return ManifestEntry(path=str(tmp_path / "r.edf"), fmt="edf",
                         patient_id="p")


def spy_detectors(monkeypatch, seen):
    """Wrap pipeline's two detectors so that each call reports its
    process, record, detector and thread through seen(line)."""
    def spy(name, detect):
        def run(record):
            seen(f"{os.getpid()} {record.patient_id} {name} "
                 f"{threading.get_ident()}")
            return detect(record)
        return run

    for name in ("reference", "test"):
        monkeypatch.setattr(pipeline, f"detect_{name}",
                            spy(name, getattr(pipeline, f"detect_{name}")))


def test_load_runs_the_test_detector_on_a_second_thread(tmp_path,
                                                       nsr_record,
                                                       monkeypatch):
    # _load in the process that multiprocessing did not start takes the
    # second thread; _detect(record, False), a pool worker's mode, keeps
    # both detectors on the calling thread; the peaks are the same
    entry = edf_entry(tmp_path, nsr_record)
    record = pipeline.parse_edf((tmp_path / "r.edf").read_bytes())
    want = detect_reference(record).times, detect_test(record).times
    lines = []
    spy_detectors(monkeypatch, lines.append)
    runs = {True: lambda: pipeline._load(entry, PipelineConfig())[:2],
            False: lambda: pipeline._detect(record, False)}
    for threaded, run in runs.items():
        lines.clear()
        before = threading.active_count()
        ref, test = run()
        assert threading.active_count() == before
        threads = {line.split()[2]: int(line.split()[3]) for line in lines}
        assert threads["reference"] == threading.get_ident()
        assert (threads["test"] != threading.get_ident()) == threaded
        assert np.array_equal(ref.times, want[0])
        assert np.array_equal(test.times, want[1])


@pytest.mark.parametrize("failing", [("reference",), ("test",),
                                     ("reference", "test")])
def test_load_joins_its_thread_when_a_detector_raises(tmp_path, nsr_record,
                                                      monkeypatch, failing):
    entry = edf_entry(tmp_path, nsr_record)
    for name in failing:
        def detect(record, name=name):
            raise ContractViolationError(f"{name} failed")
        monkeypatch.setattr(pipeline, f"detect_{name}", detect)
    record = pipeline.parse_edf((tmp_path / "r.edf").read_bytes())
    for run in (lambda: pipeline._load(entry, PipelineConfig()),
                lambda: pipeline._detect(record, False)):
        before = threading.active_count()
        with pytest.raises(ContractViolationError) as err:
            run()
        assert threading.active_count() == before
        # with both failing, the reference detector's error wins
        assert str(err.value) == f"{failing[0]} failed"


def test_threaded_detect_trims_the_heap_after_the_join(nsr_record,
                                                       monkeypatch):
    calls = []

    def trim(pad):
        # both detectors have returned: only this thread is left
        calls.append((pad, threading.active_count()))
        return 1

    before = threading.active_count()
    monkeypatch.setattr(pipeline, "_malloc_trim", lambda: trim)
    pipeline._detect(nsr_record, threaded=False)
    assert calls == []
    pipeline._detect(nsr_record, threaded=True)
    assert calls == [(0, before)]


def test_detect_runs_where_libc_has_no_malloc_trim(nsr_record,
                                                   monkeypatch):
    want = [s.times for s in pipeline._detect(nsr_record, threaded=True)]
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    pipeline._malloc_trim.cache_clear()
    try:
        assert pipeline._malloc_trim() is None
        got = [s.times for s in pipeline._detect(nsr_record, threaded=True)]
    finally:
        monkeypatch.undo()
        pipeline._malloc_trim.cache_clear()
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool size asked
    for and runs the calls in this process, in order."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, calls):
        return map(fn, calls)


@pytest.mark.parametrize("cores, workers, n_entries", [
    (2, 1, 3),      # entries run in this process
    (2, 3, 1),      # one entry runs in this process
    (2, 2, 3),      # the pool fills both cores
    (2, None, 3),   # all usable cores
    (4, 2, 3),      # two cores stay free
    (4, 3, 3),
    (4, 3, 2),      # only two entries, so two processes
    (1, None, 3),   # one usable core: one worker, in this process
])
def test_fan_out_sizes_its_pool(monkeypatch, cores, workers, n_entries):
    sizes = []
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: cores)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor",
                        partial(InlinePool, sizes))
    entries = [ManifestEntry(path="", fmt="rr", patient_id=f"p{i}")
               for i in range(n_entries)]
    done, errors = pipeline._fan_out(lambda entry, x: (entry.patient_id, x),
                                     entries, ("x",), workers)
    assert errors == []
    assert done == [(e.patient_id, (e.patient_id, "x")) for e in entries]
    # a fork-started pool starts all its processes at once, so it gets
    # no more than there are entries
    busy = min(workers or cores, n_entries)
    assert sizes == ([] if busy <= 1 else [busy])


def test_fan_out_counts_the_cores_this_process_may_use(tmp_path,
                                                      monkeypatch):
    # under taskset or a cpuset the host's count would oversubscribe
    sizes = []
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor",
                        partial(InlinePool, sizes))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                        raising=False)
    assert pipeline._usable_cores() == 3
    pipeline.qc_cohort(cohort_entries(tmp_path), PipelineConfig())
    assert sizes == [3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline._usable_cores() == 64


@pytest.mark.parametrize("cohort", ["run_cohort", "qc_cohort"])
def test_pool_workers_run_both_detectors_on_one_thread(
        tmp_path, nsr_record, af_record, monkeypatch, cohort):
    # each process reports the thread of every detector call through a
    # file; the core count is set before the pool forks, and no count
    # gives a worker a second thread
    entries = []
    for i, record in enumerate((nsr_record, af_record, nsr_record)):
        (tmp_path / f"r{i}.edf").write_bytes(write_edf(record))
        entries.append(ManifestEntry(path=str(tmp_path / f"r{i}.edf"),
                                     fmt="edf", patient_id=f"p{i}"))
    seen = tmp_path / "seen.txt"

    def write_line(line):
        with open(seen, "a") as f:
            f.write(line + "\n")

    spy_detectors(monkeypatch, write_line)

    def run(workers):
        if cohort == "run_cohort":
            results, report = run_cohort(entries, AVNN_STUMP,
                                         PipelineConfig(), workers=workers)
            return [result_to_dict(r) for r in results], report
        done, errors = pipeline.qc_cohort(entries, PipelineConfig(),
                                          workers=workers, dump=pipeline.TEST)
        return [(pid, qc, peaks.times.tolist())
                for pid, (qc, peaks) in done], errors

    outputs = []
    # two workers on 2 and on 4 cores, then --workers 1, which runs the
    # entries in this process
    for cores, workers in ((2, 2), (4, 2), (2, 1)):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cores=cores: set(range(cores)),
                            raising=False)
        seen.write_text("")
        outputs.append(run(workers))
        threads = {}
        for line in seen.read_text().splitlines():
            pid, patient, detector, thread = line.split()
            assert (int(pid) == os.getpid()) == (workers == 1)
            threads[patient, detector] = (pid, thread)
        assert len(threads) == 2 * len(entries)
        for e in entries:
            ref = threads[e.patient_id, "reference"]
            test = threads[e.patient_id, "test"]
            assert ref[0] == test[0]
            # only this process gives the test detector its own thread
            assert (ref[1] != test[1]) == (workers == 1)
    assert outputs[0] == outputs[1] == outputs[2]


def test_minus_5_db_night_is_too_noisy(tmp_path):
    # the benchmark's -5 dB EDF night: at that noise the two detectors
    # agree too rarely for the recording to be screened
    spec = synth.SynthSpec(rhythm_program=[(3600.0, "NSR"), (3600.0, "AF")],
                           seed=4, noise_snr_db=-5.0)
    record, _, _ = synth.synth_record(spec, patient_id="loud")
    (tmp_path / "loud.edf").write_bytes(write_edf(record))
    entry = ManifestEntry(path=str(tmp_path / "loud.edf"), fmt="edf",
                          patient_id="loud")
    result = process_entry(entry, AVNN_STUMP, PipelineConfig())
    assert result.qc.status == TOO_NOISY
    assert result.afb is None


# ---------------------------------------------------------------------------
# training collection


def test_collect_training_windows_rr(tmp_path):
    write_rr_file(tmp_path / "af.csv", [0.6] * 3, rhythm="AF")
    write_rr_file(tmp_path / "nsr.csv", [0.85] * 3, rhythm="N")
    entries = [
        ManifestEntry(path=str(tmp_path / "af.csv"), fmt="rr",
                      patient_id="a"),
        ManifestEntry(path=str(tmp_path / "nsr.csv"), fmt="rr",
                      patient_id="b"),
    ]
    X, y, groups, skipped = collect_training_windows(entries,
                                                     PipelineConfig())
    assert skipped == 0
    assert X.shape == (6, len(FEATURE_NAMES))
    assert groups.tolist() == ["a"] * 3 + ["b"] * 3
    assert y.tolist() == [1] * 3 + [0] * 3


def test_collect_training_windows_parses_each_rr_file_once(tmp_path,
                                                          monkeypatch):
    parsed = []
    real = pipeline.parse_rr_csv

    def counting(text):
        parsed.append(len(text))
        return real(text)

    monkeypatch.setattr(pipeline, "parse_rr_csv", counting)
    write_rr_file(tmp_path / "af.csv", [0.6] * 3, rhythm="AF")
    entries = [ManifestEntry(path=str(tmp_path / "af.csv"), fmt="rr",
                             patient_id="a")]
    _, y, _, _ = collect_training_windows(entries, PipelineConfig())
    assert (len(y), len(parsed)) == (3, 1)


def test_collect_training_windows_rr_beats_from_path(tmp_path):
    # the annotations file gives the rhythm, the entry's own file the
    # beats: 2 windows, not the 4 the annotations file would tile
    write_rr_file(tmp_path / "beats.csv", [0.6] * 2)
    write_rr_file(tmp_path / "truth.csv", [0.6] * 4, rhythm="AF")
    entries = [ManifestEntry(path=str(tmp_path / "beats.csv"), fmt="rr",
                             patient_id="a",
                             annotations_path=str(tmp_path / "truth.csv"))]
    _, y, _, _ = collect_training_windows(entries, PipelineConfig())
    assert y.tolist() == [1, 1]


def test_collect_training_windows_needs_rhythm(tmp_path):
    write_rr_file(tmp_path / "plain.csv", [0.8] * 2)
    entries = [ManifestEntry(path=str(tmp_path / "plain.csv"), fmt="rr",
                             patient_id="p")]
    with pytest.raises(ConfigurationError) as err:
        collect_training_windows(entries, PipelineConfig())
    assert "rhythm" in str(err.value)


def test_collect_training_windows_signal_needs_sidecar(tmp_path, nsr_record):
    (tmp_path / "r.edf").write_bytes(write_edf(nsr_record))
    entries = [ManifestEntry(path=str(tmp_path / "r.edf"), fmt="edf",
                             patient_id="p")]
    with pytest.raises(ConfigurationError) as err:
        collect_training_windows(entries, PipelineConfig())
    assert "annotations" in str(err.value)


def test_collect_training_windows_signal_path(tmp_path, nsr_record):
    (tmp_path / "r.edf").write_bytes(write_edf(nsr_record))
    # sidecar rhythm truth covering only the first 40 seconds: the
    # second detected window starts past it and must be skipped
    sidecar_times = np.arange(0.5, 40.0, 0.8)
    lines = [f"{t:.3f},N" for t in sidecar_times]
    (tmp_path / "r.rr.csv").write_text("\n".join(lines) + "\n")
    entries = [ManifestEntry(path=str(tmp_path / "r.edf"), fmt="edf",
                             patient_id="p",
                             annotations_path=str(tmp_path / "r.rr.csv"))]
    X, y, groups, skipped = collect_training_windows(entries,
                                                     PipelineConfig())
    assert skipped == 1
    assert len(X) == 1
    assert (y.tolist(), groups.tolist()) == ([0], ["p"])
    assert X[0, FEATURE_NAMES.index("bsqi")] >= 0.8


# Interior beats dropped from window w's test peaks, DROPS[w % 6] of
# them: bsqi (60 - k) / 60 reads 1.0, 0.9, 0.85, 0.95, 0.8 and 53/60.
DROPS = (0, 6, 9, 3, 12, 7)


def thinned(ref):
    """ref's peaks less DROPS[w % 6] interior beats of each window w."""
    keep = np.ones(len(ref.times), dtype=bool)
    for w in range(len(ref.times) // 60):
        keep[60 * w + 1:60 * w + 1 + DROPS[w % len(DROPS)]] = False
    return make_series(ref.times[keep])


def test_only_windows_at_or_above_the_threshold_are_featurized(
        tmp_path, monkeypatch):
    # inclusion is decided once, in _analyze: at a 0.9 threshold the
    # forest scores and train labels just the windows at or above it,
    # and the windows between the default 0.8 and 0.9 are left out
    config = PipelineConfig(min_reference_peaks=100, bsqi_threshold=0.9)
    scored = []
    real = pipeline.predict_proba_many
    monkeypatch.setattr(pipeline, "predict_proba_many",
                        lambda model, X: scored.append(X) or real(model, X))
    ref = rr_series([0.8] * 12)
    result = pipeline._classify("p", ref, thinned(ref), AVNN_STUMP, config)
    assert result.bsqi.tolist() == [1.0, 0.9, 0.85, 0.95, 0.8, 53 / 60] * 2
    included = result.bsqi >= 0.9
    assert result.included.tolist() == included.tolist()
    assert result.qc.status == "accepted"
    times = ref.times.reshape(-1, 60)
    [X] = scored
    assert np.array_equal(X, featurize(times[included],
                                       result.bsqi[included]))

    spec = synth.SynthSpec(rhythm_program=[(600.0, "NSR")], seed=9)
    record, peaks, annotations = synth.synth_record(spec, patient_id="p")
    (tmp_path / "p.edf").write_bytes(write_edf(record))
    (tmp_path / "p.ann.csv").write_text(write_rr_csv(peaks, annotations))
    monkeypatch.setattr(pipeline, "detect_test",
                        lambda record: thinned(detect_reference(record)))
    entry = ManifestEntry(path=str(tmp_path / "p.edf"), fmt="edf",
                          patient_id="p",
                          annotations_path=str(tmp_path / "p.ann.csv"))
    X, y, _, skipped = collect_training_windows([entry], config)
    detected = detect_reference(record)
    bsqi = pipeline._analyze(detected, thinned(detected), config)[1]
    assert skipped == 0 and len(bsqi) >= 6
    assert ((bsqi >= 0.8) & (bsqi < 0.9)).any()
    assert X[:, FEATURE_NAMES.index("bsqi")].tolist() == \
        bsqi[bsqi >= 0.9].tolist()


# ---------------------------------------------------------------------------
# serialization helpers


def test_result_to_dict_is_json_ready():
    result = pipeline._classify("x", rr_series([0.8] * 15), None, AVNN_STUMP,
                                PipelineConfig())
    d = result_to_dict(result)
    assert d["patient_id"] == "x"
    assert d["afb"] is None
    assert d["qc"]["status"] == "too_few_peaks"
    json.dumps(d)


def test_result_to_dict_rows():
    # 20 windows; the test detector finds only half the beats of
    # window 3, which scores 30 / 60 and is left out
    ref = rr_series([0.6] * 5 + [0.85] * 15)
    test = RPeakSeries(times=np.delete(ref.times, range(180, 240, 2)))
    d = result_to_dict(pipeline._classify("x", ref, test, AVNN_STUMP,
                                          PipelineConfig()))
    assert (d["n_windows_total"], d["n_windows_included"]) == (20, 19)
    assert d["per_window"][3] == [3, 0.5, None, None]
    assert d["per_window"][:3] == [[i, 1.0, 1.0, "AF"] for i in range(3)]
    assert d["per_window"][4] == [4, 1.0, 1.0, "AF"]
    assert d["per_window"][5:] == [[i, 1.0, 0.0, "nonAF"]
                                   for i in range(5, 20)]
    assert d["afb"] == 100.0 * 4 / 19

    # a probability of exactly 0.5 is nonAF
    tie = ForestModel(trees=[AVNN_STUMP.trees[0], COSEN_STUMP.trees[0]],
                      n_estimators=2, max_depth=1, seed=0)
    d = result_to_dict(pipeline._classify("t", rr_series([0.6] * 17), None,
                                          tie, PipelineConfig()))
    assert d["per_window"] == [[i, 1.0, 0.5, "nonAF"] for i in range(17)]
    assert (d["afb"], d["prominent_af"]) == (0.0, False)

    # an excluded night keeps its window scores and classifies nothing
    d = result_to_dict(pipeline._classify("s", rr_series([0.8] * 15), None,
                                          AVNN_STUMP, PipelineConfig()))
    assert (d["n_windows_total"], d["n_windows_included"]) == (15, 15)
    assert d["per_window"] == [[i, 1.0, None, None] for i in range(15)]
    assert (d["afb"], d["prominent_af"]) == (None, None)


def test_cohort_csv_layout():
    included = pipeline._classify("a", rr_series([0.6] * 17), None, AVNN_STUMP,
                                  PipelineConfig())
    excluded = pipeline._classify("b", rr_series([0.8] * 2), None, AVNN_STUMP,
                                  PipelineConfig())
    text = cohort_csv([included, excluded], ["generator=x", "config={}"])
    lines = text.split("\n")
    assert lines[0] == "# generator=x"
    assert lines[1] == "# config={}"
    assert lines[2] == ("patient_id,status,n_peaks,exclusion_rate,"
                        "n_windows,n_included,afb,prominent_af")
    assert lines[3] == "a,accepted,1020,0.0,17,17,100.0,true"
    # the window gate and the recording gate are independent: both
    # windows passed bsqi even though the recording was excluded
    assert lines[4] == "b,too_few_peaks,120,0.0,2,2,,"


def test_pipeline_config_validation():
    with pytest.raises(ConfigurationError):
        PipelineConfig(bsqi_threshold=1.5)
    with pytest.raises(ConfigurationError):
        PipelineConfig(afb_threshold_pct=101.0)
    with pytest.raises(ConfigurationError):
        PipelineConfig(max_exclusion_rate=-0.1)


@pytest.mark.parametrize("setting", [
    {"match_tolerance_s": float("nan")}, {"match_tolerance_s": -1.0},
    {"match_tolerance_s": 0.0}, {"match_tolerance_s": float("inf")},
    {"min_reference_peaks": -5}])
def test_pipeline_config_refuses_settings_that_mislead(setting):
    # a nan or negative tolerance matched no beat, so every signal
    # recording came out too_noisy
    with pytest.raises(ConfigurationError):
        PipelineConfig(**setting)


def test_run_cohort_refuses_fewer_than_one_worker(tmp_path):
    for workers in (0, -3):
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            run_cohort(cohort_entries(tmp_path), AVNN_STUMP, PipelineConfig(),
                       workers=workers)


# ---------------------------------------------------------------------------
# batched window scoring


def test_finish_scores_each_accepted_patient_in_one_call(monkeypatch):
    calls = []
    real = pipeline.predict_proba_many

    def counting(model, X):
        calls.append(X.shape)
        return real(model, X)

    monkeypatch.setattr(pipeline, "predict_proba_many", counting)
    accepted = pipeline._classify("ok", rr_series([0.6] * 5 + [0.85] * 15),
                                  None, AVNN_STUMP, PipelineConfig())
    assert accepted.qc.status == "accepted"
    assert calls == [(20, len(FEATURE_NAMES))]
    assert accepted.afb == 25.0

    calls.clear()
    short = pipeline._classify("", rr_series([0.8] * 15), None, AVNN_STUMP,
                               PipelineConfig())
    assert short.qc.status == "too_few_peaks"
    assert calls == []


def test_collect_training_windows_no_entries():
    X, y, groups, skipped = collect_training_windows([], PipelineConfig())
    assert (X.shape, y.shape, groups.shape, skipped) == \
        ((0, len(FEATURE_NAMES)), (0,), (0,), 0)


def test_forest_tie_labels_window_non_af():
    # one tree per side of every window's avnn: proba is exactly 0.5,
    # which the strict > 0.5 rule labels nonAF
    def stump(left, right):
        return {"f": AVNN, "thr": 700.0, "l": {"leaf": left},
                "r": {"leaf": right}}

    tie = ForestModel(trees=[stump([0, 1], [1, 0]), stump([1, 0], [0, 1])],
                      n_estimators=2, max_depth=1, seed=0)
    result = pipeline._classify("tie", rr_series([0.6] * 10 + [0.85] * 10),
                                None, tie, PipelineConfig())
    assert result.qc.status == "accepted"
    assert result.proba.tolist() == [0.5] * 20
    assert result.afb == 0.0
    assert result.prominent_af is False
