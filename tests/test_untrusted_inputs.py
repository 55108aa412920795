"""Untrusted inputs give a result or an AfscreenError, never another
exception: any JSON document handed to load_model, any text handed to
parse_rr_csv, any bytes handed to parse_edf, and any WFDB header text
handed to parse_wfdb with a valid signal file. A cohort that mixes good
recordings with bad ones reports each patient once, as a result or as
an error-ledger row."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from afscreen.errors import AfscreenError
from afscreen.forest import ForestModel, load_model, predict_proba_many, \
    save_model
from afscreen.pipeline import ManifestEntry, PipelineConfig, run_cohort
from afscreen.qrs import RPeakSeries
from afscreen.record_io import (EcgRecord, encode_212, parse_edf,
                                parse_rr_csv, parse_wfdb, write_edf,
                                write_rr_csv)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)

# tree nodes that are mostly well formed, so generated models get past
# the header checks and into the node checks
NODES = st.recursive(
    st.fixed_dictionaries(
        {"leaf": st.lists(st.integers(0, 3), min_size=2, max_size=2)
         | JSON}),
    lambda inner: st.fixed_dictionaries(
        {"f": st.integers(-2, 10) | JSON, "thr": st.floats() | JSON,
         "l": inner, "r": inner}),
    max_leaves=4)

HEADER = json.loads(save_model(ForestModel(
    trees=[{"leaf": [1, 0]}], n_estimators=1, max_depth=1, seed=0)))


def loads_or_refuses(document: str) -> None:
    try:
        model = load_model(document)
    except AfscreenError:
        return
    # a model that loads must be one predict can evaluate
    proba = predict_proba_many(model, np.zeros((3, 9)))
    assert np.all((proba >= 0.0) & (proba <= 1.0))


@settings(max_examples=100, deadline=None)
@given(JSON)
def test_load_model_on_any_json(doc):
    loads_or_refuses(json.dumps(doc))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([*HEADER, "extra"]), JSON,
                       max_size=2),
       st.lists(NODES, min_size=1, max_size=2) | JSON)
def test_load_model_on_any_model_like_json(overrides, trees):
    loads_or_refuses(json.dumps({**HEADER, "trees": trees, **overrides}))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789.,-+eE \n\tAFNOTHRinfa#x")
       | st.text())
def test_parse_rr_csv_on_any_text(text):
    try:
        parse_rr_csv(text)
    except AfscreenError:
        pass


def parses_or_refuses(parse, *args) -> None:
    try:
        record = parse(*args)
    except AfscreenError:
        return
    assert isinstance(record, EcgRecord)


EDF = write_edf(EcgRecord(patient_id="p", fs=4.0,
                          samples=np.sin(np.arange(40) / 3.0)))


@st.composite
def mutated(draw, valid: bytes, alphabet: st.SearchStrategy):
    """valid with one stretch overwritten, then possibly cut short."""
    start = draw(st.integers(0, len(valid)))
    patch = draw(alphabet)
    data = valid[:start] + patch + valid[start + len(patch):]
    return data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) \
        else data


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=600)
       | mutated(EDF, st.binary(min_size=1, max_size=12))
       | mutated(EDF, st.text("0123456789-+.eE x", min_size=1,
                              max_size=8).map(str.encode)))
def test_parse_edf_on_any_bytes(data):
    parses_or_refuses(parse_edf, data)


DAT_212 = encode_212(np.array([10, 3, -200, 3, 400, 103, 2047, -2045]))
WFDB_HEADER = ("rec 2 128 4\n"
               "rec.dat 212 200(3)/mV 12 0 5 0 0 ECG lead II\n"
               "rec.dat 212 100 12 0 0 0 0 Resp\n")
TOKEN = (st.sampled_from(["0", "1", "2", "-1", "212", "16", "0x", "1e9",
                          "nan", "inf", "200(", "200(x)", "(3)", "/mV",
                          "128/0", "\u00b2", "\u0661", "#"])
         | st.text(max_size=6))


@st.composite
def wfdb_headers(draw):
    """The valid header with some of its tokens replaced."""
    lines = []
    for line in WFDB_HEADER.splitlines():
        tokens = [draw(TOKEN) if draw(st.integers(0, 3)) == 0 else t
                  for t in line.split()]
        lines.append(" ".join(tokens))
    return "\n".join(lines[:draw(st.integers(0, len(lines)))])


@settings(max_examples=300, deadline=None)
@given(wfdb_headers() | st.text(max_size=80))
def test_parse_wfdb_on_any_header(header):
    parses_or_refuses(parse_wfdb, header, DAT_212)


def rr_file(n_beats: int) -> bytes:
    times = 0.85 * np.arange(1, n_beats + 1)
    return write_rr_csv(RPeakSeries(times=times, source="reference")).encode()


# Each kind of manifest entry: its format, its file's name, and the error
# type that puts it in the ledger (None: it gives a result). A valid
# entry writes its own file, a missing one names a file never written,
# and the bad ones share the files of BAD_FILES.
ENTRY_KINDS = {
    "valid": ("rr", "n.csv", None),
    "undecodable": ("rr", "u.csv", "ParseError"),
    "missing": ("rr", "m.csv", "FileNotFoundError"),
    "non_increasing": ("rr", "o.csv", "OrderingError"),
    "nan_gain": ("wfdb", "g.hea", "ParseError"),
}
BAD_FILES = {
    "u.csv": bytes(range(256)),
    "o.csv": b"1.0\n2.0\n2.0\n3.0\n",
    # a minute at 128 Hz: long enough for the detectors to run
    "g.hea": b"g 1 128 7680\ng.dat 16 nan 16 0 0 0 0 ECG\n",
    "g.dat": np.zeros(7680, dtype="<i2").tobytes(),
}
STUMP = ForestModel(trees=[{"leaf": [1, 0]}], n_estimators=1, max_depth=1,
                    seed=0)


def check_partition(rows: list[tuple[str, int]], workers: int) -> None:
    """run_cohort over one entry per (kind, beats of a valid night) row
    reports each patient once: a valid entry as a result, a bad one as a
    ledger row of its error."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in BAD_FILES.items():
            (Path(tmp) / name).write_bytes(data)
        entries = []
        for i, (kind, n) in enumerate(rows):
            fmt, name, _ = ENTRY_KINDS[kind]
            path = Path(tmp) / f"{i}{name}"
            if kind == "valid":
                path.write_bytes(rr_file(n))
            elif kind != "missing":
                path = Path(tmp) / name
            entries.append(ManifestEntry(path=str(path), fmt=fmt,
                                         patient_id=f"p{i:02d}"))
        results, report = run_cohort(entries, STUMP, PipelineConfig(),
                                     workers=workers)
    got = {r.patient_id: None for r in results}
    for pid, message in report.errors:
        assert pid not in got
        got[pid] = message.split(":", 1)[0]
    assert len(got) == len(results) + len(report.errors)
    assert got == {f"p{i:02d}": ENTRY_KINDS[kind][2]
                   for i, (kind, _) in enumerate(rows)}
    assert report.n_patients == len(rows)
    assert report.n_processed == len(results)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(ENTRY_KINDS)),
                          st.integers(1, 200)),
                min_size=1, max_size=6))
def test_mixed_manifest_reports_each_patient_once(rows):
    check_partition(rows, workers=1)


def test_mixed_manifest_on_two_workers():
    check_partition([(kind, 130) for kind in sorted(ENTRY_KINDS)] * 2,
                    workers=2)
