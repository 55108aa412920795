"""Seeded, cached inputs for the pipeline benchmark.

Every workload's inputs are a pure function of (workload, seed): the
recordings are rendered with ``afscreen.synth`` and written in the
formats the CLI reads (EDF, format-212 WFDB, RR CSV), next to a manifest
that is all the program under test is given. The synthetic truth (beat
times and rhythm episodes) goes to a separate ``truth/`` directory the
program never sees, for the accuracy metrics.

Rendering is untimed and cached under ``.bench_cache/`` at the checkout
root, keyed by workload and seed within a directory named after a hash
of this file and the afscreen sources, so an edit to either renders
afresh (and drops the stale directories). The window model the predict
workloads use is trained once by ``afscreen train`` on a fixed training
set and cached under a key that does not depend on the seed, so every
seed screens with the same model.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from afscreen import cli, record_io, synth

FS = 128.0
H = 3600.0
WFDB_GAIN = 200.0  # adu per mV; 12-bit range covers +-10 mV

# Entry kinds: (patient_id, format, rhythm program, snr_db, expected QC).
# Expected QC "accepted" / "too_noisy" is checked on every run; "any"
# leaves the status free (it may flip with the seed near a threshold);
# "error" must land in errors.csv and nowhere else.
_NIGHT = [(3 * H, "NSR"), (2 * H, "AF"), (1 * H, "ECTOPY"), (2 * H, "NSR")]

_RR_TEMPLATES = [
    [(4 * H, "NSR")],
    [(1.5 * H, "NSR"), (1.5 * H, "AF"), (1 * H, "NSR")],
    [(4 * H, "AF")],
    [(2 * H, "NSR"), (1 * H, "ECTOPY"), (1 * H, "NSR")],
]

_ECG_ENTRIES = [
    ("e0", "edf", [(1 * H, "NSR"), (1 * H, "AF")], None, "accepted"),
    ("e1", "edf", [(1.5 * H, "NSR"), (0.5 * H, "ECTOPY")], 10.0, "accepted"),
    ("e2", "wfdb", [(2 * H, "AF")], 5.0, "accepted"),
    ("e3", "wfdb", [(1 * H, "NSR"), (1 * H, "AF")], 0.0, "any"),
    ("e4", "edf", [(1 * H, "NSR"), (1 * H, "AF")], -5.0, "too_noisy"),
]

_TRAIN_RR = [
    [(0.25 * H, "NSR"), (0.25 * H, "AF")],
    [(0.25 * H, "AF"), (0.25 * H, "NSR")],
    [(0.25 * H, "NSR"), (0.125 * H, "ECTOPY"), (0.125 * H, "AF")],
    [(0.125 * H, "AF"), (0.25 * H, "NSR"), (0.125 * H, "AF")],
    [(0.25 * H, "ECTOPY"), (0.25 * H, "AF")],
]
_TRAIN_SIGNAL = [(0.25 * H, "NSR"), (0.25 * H, "AF")]

# Fixed training set for the predict workloads' model: independent of
# the workload seed so all seeds screen with one model.
_MODEL_SEED = 7_000_001
_MODEL_RR = [
    [(1.5 * H, "NSR"), (1.5 * H, "AF")],
    [(3 * H, "AF")],
    [(2 * H, "NSR"), (1 * H, "ECTOPY")],
    [(1 * H, "AF"), (2 * H, "NSR")],
    [(1 * H, "ECTOPY"), (1 * H, "AF"), (1 * H, "NSR")],
    [(3 * H, "NSR")],
]


def _source_key() -> str:
    h = hashlib.sha256()
    for path in [Path(__file__), *sorted(Path(synth.__file__).parent.glob(
            "*.py"))]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cache_root(checkout: Path) -> Path:
    base = checkout / ".bench_cache"
    root = base / _source_key()
    if not root.exists() and base.exists():
        for stale in base.iterdir():
            shutil.rmtree(stale, ignore_errors=True)
    return root


def _spec(program, seed: int, snr) -> synth.SynthSpec:
    return synth.SynthSpec(rhythm_program=list(program), seed=seed, fs=FS,
                           noise_snr_db=snr)


def _save_truth(out: Path, pid: str, peaks, annotations) -> None:
    eps = annotations.episodes
    np.savez(out / "truth" / f"{pid}.npz",
             beats=np.asarray(peaks.times, dtype=np.float64),
             ep_start=np.array([e[0] for e in eps], dtype=np.float64),
             ep_end=np.array([e[1] for e in eps], dtype=np.float64),
             ep_af=np.array([e[2] == record_io.AF for e in eps]))


def _write_wfdb(out: Path, pid: str, record) -> str:
    digital = np.clip(np.round(record.samples * WFDB_GAIN), -2048, 2047)
    if digital.shape[0] % 2:
        digital = np.append(digital, digital[-1])
    (out / f"{pid}.dat").write_bytes(record_io.encode_212(digital))
    (out / f"{pid}.hea").write_text(
        f"{pid} 1 {FS:g} {digital.shape[0]}\n"
        f"{pid}.dat 212 {WFDB_GAIN:g} 12 0 0 0 0 ECG\n")
    return f"{pid}.hea"


def _render_signal(out: Path, pid: str, fmt: str, program, seed: int, snr):
    record, peaks, annotations = synth.synth_record(_spec(program, seed, snr),
                                                    patient_id=pid)
    _save_truth(out, pid, peaks, annotations)
    if fmt == "edf":
        (out / f"{pid}.edf").write_bytes(record_io.write_edf(record))
        path = f"{pid}.edf"
    else:
        path = _write_wfdb(out, pid, record)
    return path, record.duration_s, peaks, annotations


def _render_rr(out: Path, pid: str, program, seed: int, with_rhythm: bool):
    peaks, annotations = synth.gen_rr(_spec(program, seed, None))
    _save_truth(out, pid, peaks, annotations)
    text = record_io.write_rr_csv(peaks, annotations if with_rhythm else None)
    (out / f"{pid}.rr.csv").write_text(text)
    return f"{pid}.rr.csv", sum(d for d, _ in program)


def _manifest(out: Path, rows: list[dict]) -> None:
    cols = ["path", "format", "patient_id"]
    if any("annotations" in r for r in rows):
        cols.append("annotations")
    lines = [",".join(cols)]
    lines += [",".join(r.get(c, "") for c in cols) for r in rows]
    (out / "manifest.csv").write_text("\n".join(lines) + "\n")


def _build(workload: str, seed: int, out: Path) -> dict:
    (out / "truth").mkdir(parents=True)
    rows, entries = [], []

    def add(pid, fmt, path, seconds, expect, **extra):
        rows.append({"path": path, "format": fmt, "patient_id": pid, **extra})
        entries.append({"patient_id": pid, "format": fmt,
                        "hours": seconds / H, "expect": expect})

    base = (seed & 0xFFFFFFFF) * 1000  # distinct sub-seeds per entry
    if workload == "night_edf":
        path, secs, _, _ = _render_signal(out, "night", "edf", _NIGHT,
                                          base, 10.0)
        add("night", "edf", path, secs, "accepted")
    elif workload == "rr_cohort":
        for i in range(12):
            pid = f"r{i:02d}"
            path, secs = _render_rr(out, pid, _RR_TEMPLATES[i % 4],
                                    base + i, with_rhythm=False)
            add(pid, "rr", path, secs, "accepted")
    elif workload == "ecg_cohort":
        for i, (pid, fmt, program, snr, expect) in enumerate(_ECG_ENTRIES):
            path, secs, _, _ = _render_signal(out, pid, fmt, program,
                                              base + i, snr)
            add(pid, fmt, path, secs, expect)
        # a recording cut off mid-payload: parse_edf must reject it
        good = (out / "e0.edf").read_bytes()
        (out / "e5.edf").write_bytes(good[:len(good) // 3 + 7])
        add("e5", "edf", "e5.edf", 0.0, "error")
    elif workload == "train":
        # a third signal entries: the tail percentile then always falls
        # among them and the median among the RR entries
        for i in range(8):
            pid = f"t{i:02d}"
            path, secs = _render_rr(out, pid, _TRAIN_RR[i % 5], base + i,
                                    with_rhythm=True)
            add(pid, "rr", path, secs, "accepted")
        for i in range(4):
            pid = f"s{i}"
            path, secs, peaks, ann = _render_signal(
                out, pid, "edf", _TRAIN_SIGNAL, base + 100 + i, 10.0)
            (out / f"{pid}.ann.csv").write_text(
                record_io.write_rr_csv(peaks, ann))
            add(pid, "edf", path, secs, "accepted",
                annotations=f"{pid}.ann.csv")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _manifest(out, rows)
    return {"workload": workload, "seed": seed, "entries": entries,
            "hours": sum(e["hours"] for e in entries)}


def _cached(target: Path, build) -> Path:
    """Build into a sibling temp dir and rename, so a cut run leaves no
    half-written cache entry behind."""
    if (target / "meta.json").exists():
        return target
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = build(tmp)
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1))
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return target


def ensure_inputs(checkout: Path, workload: str, seed: int) -> Path:
    target = cache_root(checkout) / "inputs" / f"{workload}-{seed}"
    return _cached(target, lambda tmp: _build(workload, seed, tmp))


def ensure_model(checkout: Path) -> Path:
    """The predict workloads' model, trained by ``afscreen train``."""
    target = cache_root(checkout) / "model"

    def build(tmp: Path) -> dict:
        (tmp / "truth").mkdir()
        rows = []
        for i, program in enumerate(_MODEL_RR):
            pid = f"m{i:02d}"
            path, _ = _render_rr(tmp, pid, program, _MODEL_SEED + i,
                                 with_rhythm=True)
            rows.append({"path": path, "format": "rr", "patient_id": pid})
        _manifest(tmp, rows)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["train", "--manifest", str(tmp / "manifest.csv"),
                           "--out", str(tmp / "model.json")])
        if rc != 0:
            raise RuntimeError("training the benchmark model failed")
        return {"model": "model.json"}

    return _cached(target, build) / "model.json"


def load_truth(inputs: Path, pid: str) -> dict:
    with np.load(inputs / "truth" / f"{pid}.npz") as z:
        return {k: z[k] for k in z.files}
