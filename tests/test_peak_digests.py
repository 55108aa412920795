"""Both detectors' peaks on a fixed set of records, against committed
digests.

tests/data/peak_digests.json holds, per record, the sha256 of its input
samples, the sha256 of each detector's ``times.tobytes()`` and the two
peak counts. The records are a grid of 300 s synth programs (NSR, AF,
then ectopy) at fs 128, 250 and 360 Hz, noiseless and at 10, 0 and -5
dB, two seeds each, plus paths the grid misses: a WFDB format-212
round trip, a flat lead-off stretch, records scaled by 2^k and two
30 min records at 128 Hz, which span several of the reference
detector's sweep blocks.

A mismatch names the record and the detector, and says whether the
input moved (a numpy or synth change) or only the peaks did. A change
that regenerates the file declares a change of detections; regenerate
it with

    PYTHONPATH=src python3 tests/test_peak_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from afscreen import synth
from afscreen.qrs import detect_reference, detect_test
from afscreen.record_io import EcgRecord, encode_212, parse_wfdb

DIGESTS = Path(__file__).parent / "data" / "peak_digests.json"
DETECTORS = {"reference": detect_reference, "test": detect_test}
PROGRAM = [(100.0, "NSR"), (100.0, "AF"), (100.0, "ECTOPY")]
LONG_PROGRAM = [(600.0, "NSR"), (600.0, "AF"), (600.0, "ECTOPY")]


def grid_record(fs: float, snr: float | None, seed: int,
                program: list = PROGRAM) -> EcgRecord:
    spec = synth.SynthSpec(rhythm_program=program, seed=seed, fs=fs,
                           noise_snr_db=snr)
    return synth.synth_record(spec)[0]


def wfdb_212(record: EcgRecord) -> EcgRecord:
    """The record through a format-212 file at 200 adu/mV and back."""
    adu = np.clip(np.round(record.samples * 200.0), -2048, 2047)
    header = (f"w 1 {record.fs:g} {adu.shape[0]}\n"
              f"w.dat 212 200 12 0 0 0 0 ECG\n")
    return parse_wfdb(header, encode_212(adu))


def lead_off(record: EcgRecord) -> EcgRecord:
    """The record with its middle third held at one value."""
    x = record.samples.copy()
    x[int(100 * record.fs):int(200 * record.fs)] = 0.0
    return EcgRecord(patient_id=record.patient_id, samples=x, fs=record.fs)


def scaled(record: EcgRecord, k: int) -> EcgRecord:
    return EcgRecord(patient_id=record.patient_id,
                     samples=np.ldexp(record.samples, k), fs=record.fs)


def builders() -> dict:
    """Record name -> function building that record."""
    out = {}
    for fs in (128.0, 250.0, 360.0):
        for snr in (None, 10.0, 0.0, -5.0):
            for seed in (1, 2):
                name = f"fs{fs:g}_snr{'none' if snr is None else f'{snr:g}'}"
                out[f"{name}_seed{seed}"] = (
                    lambda fs=fs, snr=snr, seed=seed:
                    grid_record(fs, snr, seed))
    out["wfdb212_fs360_snr10_seed1"] = lambda: wfdb_212(
        grid_record(360.0, 10.0, 1))
    out["leadoff_fs128_snrnone_seed1"] = lambda: lead_off(
        grid_record(128.0, None, 1))
    for k in (-600, 600):
        out[f"scaled2^{k}_fs128_snr0_seed1"] = (
            lambda k=k: scaled(grid_record(128.0, 0.0, 1), k))
    for snr in (10.0, -5.0):
        out[f"long1800s_fs128_snr{snr:g}_seed1"] = (
            lambda snr=snr: grid_record(128.0, snr, 1, LONG_PROGRAM))
    return out


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def digest(record: EcgRecord) -> dict:
    out = {"input": sha256(record.samples)}
    for name, detect in DETECTORS.items():
        times = detect(record).times
        out[name] = sha256(times)
        out[f"n_{name}"] = len(times)
    return out


def mismatch(name: str, want: dict, got: dict) -> str | None:
    """What moved between a committed digest and a recomputed one."""
    moved = [d for d in DETECTORS if got[d] != want[d]]
    peaks = ", ".join(f"{d} detector peaks {want[f'n_{d}']} -> "
                      f"{got[f'n_{d}']}" for d in moved)
    if got["input"] != want["input"]:
        return (f"{name}: the input samples moved (a numpy or synth "
                f"change), so the peaks cannot be compared"
                + (f"; {peaks}" if moved else ""))
    if moved:
        return f"{name}: same input, but moved: {peaks}"
    return None


def committed() -> dict:
    return json.loads(DIGESTS.read_text())["records"]


def test_digest_file_covers_every_record():
    assert sorted(committed()) == sorted(builders())


@pytest.mark.parametrize("name", sorted(builders()))
def test_peaks_match_the_committed_digests(name):
    want = committed()[name]
    problem = mismatch(name, want, digest(builders()[name]()))
    assert problem is None, problem


def test_mismatch_names_the_record_the_detector_and_the_cause():
    want = {"input": "a", "reference": "r", "test": "t",
            "n_reference": 10, "n_test": 9}
    assert mismatch("rec", want, dict(want)) is None
    peaks_only = mismatch("rec", want, {**want, "test": "u", "n_test": 8})
    assert peaks_only == "rec: same input, but moved: test detector peaks " \
                         "9 -> 8"
    both = mismatch("rec", want, {**want, "input": "b", "reference": "s"})
    assert both.startswith("rec: the input samples moved")
    assert "reference detector peaks 10 -> 10" in both
    assert "test detector" not in both


def main() -> None:
    records = {name: digest(build())
               for name, build in sorted(builders().items())}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(
        {"regenerate": "PYTHONPATH=src python3 tests/test_peak_digests.py",
         "records": records}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {DIGESTS}")


if __name__ == "__main__":
    main()
