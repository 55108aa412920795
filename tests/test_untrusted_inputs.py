"""Untrusted inputs give a result or an AfscreenError, never another
exception: any JSON document handed to load_model, any text handed to
parse_rr_csv, any bytes handed to parse_edf, and any WFDB header text
handed to parse_wfdb with a valid signal file, and any bytes read as a
cohort manifest or as the cohort CSV that evaluate reads. A cohort that
mixes good
recordings with bad ones reports each patient once, as a result or as
an error-ledger row. parse_rr_csv also matches a row-by-row oracle on
any text: the same times and episodes, or the same error."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afscreen import record_io
from afscreen.cli import main
from afscreen.errors import (AfscreenError, ConfigurationError, OrderingError,
                             ParseError)
from afscreen.forest import ForestModel, load_model, predict_proba_many, \
    save_model
from afscreen.pipeline import (ManifestEntry, PipelineConfig, csv_text,
                               read_cohort_csv, read_manifest, run_cohort)
from afscreen.qrs import RPeakSeries
from afscreen.record_io import (AF, OTHER, EcgRecord, RhythmAnnotations,
                                encode_212, parse_edf, parse_rr_csv,
                                parse_wfdb, write_edf, write_rr_csv)

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


@pytest.mark.parametrize("levels", [40, 960, 2000])
def test_deeply_nested_model_ends_predict_in_an_error_line(
        levels, tmp_path, capsys):
    # 2000 levels overflowed the JSON decoder's stack; 960 loaded from a
    # shallow stack, and predict then overflowed the stack in its tree
    # walk; 40 levels decode anywhere and reach the depth checks. Built
    # as text: json.dumps would overflow too.
    tree = ('{"f":0,"thr":1.0,"l":' * levels + '{"leaf":[1,0]}'
            + ',"r":{"leaf":[0,1]}}' * levels)
    for max_depth in (1, levels):
        head = json.dumps({**HEADER, "max_depth": max_depth, "trees": []},
                          separators=(",", ":"))
        document = head.replace('"trees":[]', f'"trees":[{tree}]')
        assert tree in document
        with pytest.raises(ParseError):
            load_model(document)
    (tmp_path / "model.json").write_text(document)
    (tmp_path / "a.rr.csv").write_bytes(rr_file(200))
    (tmp_path / "m.csv").write_text("path,format,patient_id\na.rr.csv,rr,a\n")
    code = main(["predict", "--manifest", str(tmp_path / "m.csv"),
                 "--model", str(tmp_path / "model.json"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789.,-+eE \n\tAFNOTHRinfa#x")
       | st.text())
def test_parse_rr_csv_on_any_text(text):
    try:
        parse_rr_csv(text)
    except AfscreenError:
        pass


@st.composite
def csv_texts(draw, columns, cells):
    """CSV text under a header of some of columns, in any order."""
    header = draw(st.permutations(columns))
    header = header[:draw(st.integers(0, len(header)))]
    rows = draw(st.lists(st.lists(cells, max_size=len(columns) + 1),
                         max_size=4))
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def table_bytes(columns, values):
    cells = st.sampled_from(values) | st.text(max_size=5)
    return (csv_texts(columns, cells).map(str.encode)
            | st.text().map(str.encode) | st.binary(max_size=200))


def read_or_refuse(read, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(data)
        try:
            return read(path)
        except AfscreenError:
            return None


@settings(max_examples=300, deadline=None)
@given(table_bytes(["path", "format", "patient_id", "ahi",
                    "reference_label", "annotations"],
                   ["", " ", "rr", "EDF", "wfdb", "mp3", "p1", "a.csv",
                    "a\x000.csv", "\x00", "1.5", "-2", "nan", "1e400",
                    "abc", "AF", "nonAF", "#", '"']))
def test_read_manifest_on_any_bytes(data):
    entries = read_or_refuse(read_manifest, data)
    for e in entries or []:
        assert isinstance(e, ManifestEntry) and e.path and e.patient_id


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a0.csv", "d/b.csv", "a\x000.csv",
                                           "\x00"]),
                          st.sampled_from(["", "a.csv", "a\x00.csv"])),
                min_size=1, max_size=3))
def test_read_manifest_refuses_nul_in_a_path_cell(cells):
    # well-formed rows, so every row reaches the path checks
    rows = [["path", "format", "patient_id", "annotations"]]
    rows += [[path, "rr", f"p{i}", ann] for i, (path, ann) in enumerate(cells)]
    nul = [(i, column) for i, row in enumerate(cells, start=2)
           for column, cell in zip(("path", "annotations"), row)
           if "\0" in cell]
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "m.csv"
        manifest.write_text(csv_text(rows))
        if not nul:
            assert len(read_manifest(manifest)) == len(cells)
            return
        with pytest.raises(ConfigurationError) as err:
            read_manifest(manifest)
    row, column = nul[0]
    assert str(err.value).startswith(f"manifest row {row}, column {column}: ")


@settings(max_examples=300, deadline=None)
@given(table_bytes(["patient_id", "status", "afb", "prominent_af"],
                   ["", "p1", "p2", "true", "false", "TRUE", "1", "0.0",
                    "100.0", "zz", "nan", "#", '"']))
def test_read_cohort_csv_on_any_bytes(data):
    read = read_or_refuse(read_cohort_csv, data)
    if read is not None:
        predictions, afb_by_pid, n_excluded = read
        assert set(predictions) == set(afb_by_pid) and n_excluded >= 0
        assert all(isinstance(v, bool) for v in predictions.values())
        assert all(isinstance(v, float) and 0.0 <= v <= 100.0
                   for v in afb_by_pid.values())


def oracle_parse_rr_csv(text: str):
    """The RR CSV reader written one row at a time, as a reference."""
    times: list[float] = []
    rhythms: list[str] | None = None
    row = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        row += 1
        parts = [p.strip() for p in line.split(",")]
        try:
            t = float(parts[0])
        except ValueError:
            raise ParseError(f"non-numeric beat time "
                             f"{record_io._quote(parts[0])} at row {row}"
                             ) from None
        if not math.isfinite(t):
            raise ParseError(f"non-finite beat time "
                             f"{record_io._quote(parts[0])} at row {row}")
        if times and t <= times[-1]:
            raise OrderingError(
                f"beat time {t} at row {row} does not increase past "
                f"{times[-1]}", row=row)
        if len(parts) > 1 and parts[1]:
            if rhythms is None:
                if row != 1:
                    raise ParseError(
                        f"rhythm column appears first at row {row}; it must "
                        f"be present on every row or none")
                rhythms = []
            rhythms.append(AF if parts[1].upper() == AF else OTHER)
        elif rhythms is not None:
            raise ParseError(f"missing rhythm label at row {row}")
        times.append(t)

    peaks = RPeakSeries(times=np.asarray(times, dtype=np.float64))
    if rhythms is None:
        return peaks, None

    episodes: list[tuple[float, float, str]] = []
    i = 0
    while i < len(rhythms):
        j = i
        while j + 1 < len(rhythms) and rhythms[j + 1] == rhythms[i]:
            j += 1
        if j > i:
            episodes.append((times[i], times[j], rhythms[i]))
        i = j + 1
    return peaks, RhythmAnnotations(episodes=episodes)


def rr_outcome(parse, text: str) -> tuple:
    try:
        peaks, annotations = parse(text)
    except AfscreenError as e:
        return type(e), str(e), getattr(e, "row", None)
    # repr tells a numpy scalar from a float and -0.0 from 0.0
    return (peaks.times.dtype, peaks.times.tobytes(),
            None if annotations is None else repr(annotations.episodes))


# line breaks and cell padding that str.splitlines and str.strip act on
RR_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
             "\u2028"]
RR_PADS = ["", " ", "\t", "\xa0", "\u3000"]
RR_LABELS = ["AF", "af", "aF", " AF ", "N", "AFL", "OTHER"]
RR_TOKENS = [*"0123456789.,-+eE_ \t", "inf", "-inf", "nan", "AF", "af", "N",
             "AFL", *RR_BREAKS, "\u0661", "1.5", "0.8,", ",AF"]


def _stamp(t: float, form: str) -> str:
    if form == "repr":
        return repr(t)
    if form == "fixed":
        return f"{t:.2f}"  # rounding can tie or reorder neighbours
    if form == "exp":
        return f"{t:.6e}"
    if form == "underscore":
        # "1_2.3_4_5": float reads an underscore between two digits
        return ".".join("_".join(part) for part in f"{t:.3f}".split("."))
    return f"{t:.3f}".translate(str.maketrans("0123456789",
                                              "\u0660\u0661\u0662\u0663"
                                              "\u0664\u0665\u0666\u0667"
                                              "\u0668\u0669"))


@st.composite
def rr_texts(draw):
    """RR files, mostly valid, with a few rows corrupted."""
    gaps = draw(st.lists(st.floats(0.001, 3.0), max_size=25))
    labelled = draw(st.booleans())
    # a label of nothing, a space or a line break leaves its row unlabelled
    labels = st.sampled_from(RR_LABELS)
    if draw(st.integers(0, 3)) == 0:
        labels |= st.sampled_from(["", " ", "\x1c"])
    rows = []
    for t in np.cumsum(gaps).tolist():
        form = draw(st.sampled_from(
            ["repr"] * 4 + ["fixed", "exp", "underscore", "digits"]))
        # a line break before the time only adds a blank line
        lead = draw(st.sampled_from([*RR_PADS, "\x0b", "\x0c", "\x1c"]))
        cells = [lead + _stamp(t, form) + draw(st.sampled_from(RR_PADS))]
        if labelled:
            cells.append(draw(labels))
        if draw(st.integers(0, 4)) == 0:
            cells.append(draw(st.sampled_from(["", "x", "AF", "1.0,2"])))
        rows.append(",".join(cells))
    # mixed errors: several bad rows of different kinds in one file
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        bad = draw(st.lists(st.sampled_from(RR_TOKENS), max_size=6))
        rows.insert(draw(st.integers(0, len(rows))), "".join(bad))
    if rows and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(
            st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    text = ""
    for line in rows:
        blank = draw(st.sampled_from(["", "", "", " ", "\t", "\x0c"]))
        text += line + draw(st.sampled_from(RR_BREAKS)) + blank
        if blank:
            text += "\n"
    return text


@settings(max_examples=400, deadline=None)
@given(rr_texts()
       | st.lists(st.sampled_from(RR_TOKENS), max_size=40).map("".join)
       | st.text())
def test_parse_rr_csv_matches_row_oracle(text):
    assert rr_outcome(parse_rr_csv, text) == rr_outcome(oracle_parse_rr_csv,
                                                        text)


@pytest.mark.parametrize("text, error, row", [
    # two rules broken on one row: the oracle checks a row's time is a
    # number, then finite, then increasing, then its label
    ("1.0\n-inf\n", ParseError, 2),
    ("1.0,AF\n-inf\n", ParseError, 2),
    ("1.0\n2.0\n1.5,AF\n", OrderingError, 3),
    ("1.0,AF\n0.5\n", OrderingError, 2),
    ("1.0,AF\nxyz\n", ParseError, 2),
    ("1.0,AF\nnan,\n", ParseError, 2),
    # an earlier row breaks a rule first
    ("2.0\n1.0\nxyz\n", OrderingError, 2),
    ("1.0,AF\n2.0\nxyz\n", ParseError, 2),
    ("inf\n1.0\n", ParseError, 1),
    ("xyz,AF\n1.0\n", ParseError, 1),
    # the label rule alone
    ("1.0,AF\n2.0,\n", ParseError, 2),
    ("1.0,\n2.0,AF\n", ParseError, 2),
    ("1.0,\n2.0,\n", None, None), ("1.0,,AF\n2.0,,AF\n", None, None),
    ("", None, None), ("\n \n", None, None), ("1.0\n", None, None),
    ("1.0,AF\n", None, None), ("-0.0,AF, 3\n", None, None),
])
def test_parse_rr_csv_rule_precedence(text, error, row):
    outcome = rr_outcome(parse_rr_csv, text)
    assert outcome == rr_outcome(oracle_parse_rr_csv, text)
    if error is None:
        assert outcome[0] == np.float64
    else:
        assert outcome[0] is error and f"at row {row}" in outcome[1]


@pytest.mark.parametrize("text", ["1.0\n2.0\n", "1.0,AF\n2.0,N\n",
                                  "1.0,\n2.0,\n"])
def test_valid_rr_files_never_reach_the_row_loop(text, monkeypatch):
    # the array tests accept a valid file; only a broken one is walked
    # row by row
    def fail(stamps, labels):
        raise AssertionError("row loop reached")
    monkeypatch.setattr(record_io, "_raise_first_broken_rule", fail)
    assert rr_outcome(parse_rr_csv, text) == rr_outcome(oracle_parse_rr_csv,
                                                        text)


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
                          "128/0", "\u00b2", "\u0661", "#", "9" * 400,
                          "200(" + "9" * 400 + ")", "1" + "0" * 4400])
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
    return write_rr_csv(RPeakSeries(times=times)).encode()


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
    "huge_baseline": ("wfdb", "b.hea", "ParseError"),
}
BAD_FILES = {
    "u.csv": bytes(range(256)),
    "o.csv": b"1.0\n2.0\n2.0\n3.0\n",
    # a minute at 128 Hz: long enough for the detectors to run
    "g.hea": b"g 1 128 7680\ng.dat 16 nan 16 0 0 0 0 ECG\n",
    "g.dat": np.zeros(7680, dtype="<i2").tobytes(),
    "b.hea": b"b 1 128 7680\nb.dat 16 200(" + b"9" * 400
             + b") 16 0 0 0 0 ECG\n",
    "b.dat": np.zeros(7680, dtype="<i2").tobytes(),
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
