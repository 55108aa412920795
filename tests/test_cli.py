"""End-to-end command-line runs against small synthetic cohorts."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import afscreen
from afscreen import cli, forest, pipeline, stats, synth
from afscreen.cli import main
from afscreen.errors import ConfigurationError, ContractViolationError
from afscreen.pipeline import PipelineConfig
from afscreen.record_io import write_edf, write_rr_csv


def write_rr(path, program, seed):
    peaks, annotations = synth.gen_rr(
        synth.SynthSpec(rhythm_program=program, seed=seed))
    path.write_text(write_rr_csv(peaks, annotations))
    return path


SMALL = ["--min-peaks", "100"]


@pytest.fixture(scope="session")
def cohort(tmp_path_factory):
    """Training and screening manifests plus a trained model."""
    root = tmp_path_factory.mktemp("cli-cohort")

    # training patients carry both rhythms so every CV fold sees both
    train_rows = ["path,format,patient_id"]
    for i in range(6):
        write_rr(root / f"tr{i}.csv", [(60.0, "NSR"), (60.0, "AF")], seed=i)
        train_rows.append(f"tr{i}.csv,rr,tr{i}")
    (root / "train.csv").write_text("\n".join(train_rows) + "\n")

    # screening patients are single-rhythm, labeled, with AHI spread
    # across the stratum cutoff; one manifest row points nowhere
    screen_rows = ["path,format,patient_id,ahi,reference_label"]
    plans = [("a0", "AF", 5.0), ("a1", "AF", 30.0), ("a2", "AF", 20.0),
             ("n0", "nonAF", 3.0), ("n1", "nonAF", 25.0), ("n2", "nonAF", "")]
    for k, (pid, label, ahi) in enumerate(plans):
        program = [(240.0, "AF" if label == "AF" else "NSR")]
        write_rr(root / f"{pid}.csv", program, seed=50 + k)
        screen_rows.append(f"{pid}.csv,rr,{pid},{ahi},{label}")
    screen_rows.append("missing.csv,rr,ghost,,")
    (root / "screen.csv").write_text("\n".join(screen_rows) + "\n")

    model_path = root / "model.json"
    code = main(["train", "--manifest", str(root / "train.csv"),
                 "--out", str(model_path), "--grid", "5x2,10x2"])
    assert code == 0
    return root


def run_predict(cohort, out_dir, workers):
    return main(["predict", "--manifest", str(cohort / "screen.csv"),
                 "--model", str(cohort / "model.json"),
                 "--out-dir", str(out_dir), "--workers", str(workers),
                 *SMALL])


# ---------------------------------------------------------------------------
# train


def test_train_outputs(cohort):
    model = forest.load_model((cohort / "model.json").read_bytes())
    assert len(model.trees) == model.n_estimators

    payload = json.loads((cohort / "model.json").read_text())
    assert payload["generator"].startswith("afscreen-")
    assert payload["config"]["command"] == "train"
    assert set(payload["config"]["pipeline"]) == RECORDED["train"]

    report = (cohort / "model.json.cv.csv").read_text().split("\n")
    assert report[0].startswith("# generator=afscreen-")
    assert report[1].startswith("# config=")
    assert report[2].startswith("# selected=")
    assert report[3] == "n_estimators,max_depth,mean_auroc,folds_used"
    assert len([r for r in report if r and not r.startswith("#")]) == 3


def test_train_rejects_bad_grid(cohort, capsys):
    code = main(["train", "--manifest", str(cohort / "train.csv"),
                 "--out", str(cohort / "m2.json"), "--grid", "bananas"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (cohort / "m2.json").exists()


@pytest.mark.parametrize("folds", ["0", "1", "-3"])
def test_train_rejects_fewer_than_two_folds(cohort, tmp_path, capsys, folds):
    out = tmp_path / "m.json"
    code = main(["train", "--manifest", str(cohort / "train.csv"),
                 "--out", str(out), "--grid", "5x2", "--cv-folds", folds])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "folds" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# predict


def test_predict_outputs(cohort, tmp_path):
    assert run_predict(cohort, tmp_path / "out", workers=1) == 0
    out = tmp_path / "out"

    cohort_lines = (out / "cohort.csv").read_text().split("\n")
    assert cohort_lines[0].startswith("# generator=")
    header = cohort_lines[2].split(",")
    assert header[0] == "patient_id"
    rows = {r.split(",")[0]: r.split(",")
            for r in cohort_lines[3:] if r}
    # the three AF programs carry full burden, the three NSR ones none
    for pid in ("a0", "a1", "a2"):
        assert rows[pid][7] == "true"
        assert float(rows[pid][6]) == 100.0
    for pid in ("n0", "n1", "n2"):
        assert rows[pid][7] == "false"
        assert float(rows[pid][6]) == 0.0
    assert "ghost" not in rows

    doc = json.loads((out / "a0.json").read_text())
    assert doc["prominent_af"] is True
    assert doc["qc"]["status"] == "accepted"
    assert doc["config"]["pipeline"]["afb_threshold_pct"] == 20.0
    assert len(doc["per_window"]) == doc["n_windows_total"]

    errors = (out / "errors.csv").read_text().split("\n")
    assert errors[0] == "patient_id,error"
    assert errors[1].startswith("ghost,FileNotFoundError")


def test_predict_byte_identical_across_workers(cohort, tmp_path):
    assert run_predict(cohort, tmp_path / "w1", workers=1) == 0
    assert run_predict(cohort, tmp_path / "w3", workers=3) == 0
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w3").iterdir())
    for name in names:
        assert (tmp_path / "w1" / name).read_bytes() == \
            (tmp_path / "w3" / name).read_bytes(), name


def test_predict_missing_model_writes_nothing(cohort, tmp_path, capsys):
    code = main(["predict", "--manifest", str(cohort / "screen.csv"),
                 "--model", str(cohort / "nope.json"),
                 "--out-dir", str(tmp_path / "empty"), *SMALL])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "empty").exists()


@pytest.mark.parametrize("split", [{"f": 99}, {"f": -1}, {"thr": "x"}])
def test_predict_rejects_model_it_cannot_evaluate(cohort, tmp_path, capsys,
                                                  split):
    payload = json.loads((cohort / "model.json").read_text())
    payload["trees"][0] = {"f": 0, "thr": 0.5, "l": {"leaf": [1, 0]},
                           "r": {"leaf": [0, 1]}, **split}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main(["predict", "--manifest", str(cohort / "screen.csv"),
                 "--model", str(bad), "--out-dir", str(tmp_path / "out"),
                 *SMALL])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: split ")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_outputs(cohort, tmp_path):
    assert run_predict(cohort, tmp_path / "pred", workers=1) == 0
    code = main(["evaluate",
                 "--predictions", str(tmp_path / "pred" / "cohort.csv"),
                 "--manifest", str(cohort / "screen.csv"),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 0

    lines = (tmp_path / "eval" / "strata_report.csv").read_text().split("\n")
    body = [r for r in lines if r and not r.startswith("#")]
    assert body[0] == "stratum,tp,fp,tn,fn,se,sp,ppv,npv,f1"
    assert body[1] == "all,3,0,3,0,1.0,1.0,1.0,1.0,1.0"
    # n2 has no AHI: strata rows carry one patient fewer
    assert body[2].startswith("ahi_lt_cutoff,1,0,1,0")
    assert body[3].startswith("ahi_ge_cutoff,2,0,1,0")
    tail = {r.split(",")[0]: r.split(",")[1:] for r in body[4:]}
    assert tail["n_missing_ahi"] == ["1"]
    assert tail["n_unlabeled"] == ["0"]
    assert tail["n_excluded"] == ["0"]
    # both strata are error free, so the one-sided test saturates
    assert tail["noninferior"] == ["true"]

    roc = (tmp_path / "eval" / "roc_points.csv").read_text().split("\n")
    auroc_line = [r for r in roc if r.startswith("# afb_auroc=")][0]
    assert auroc_line == "# afb_auroc=1.0"
    body = [r for r in roc if r and not r.startswith("#")]
    assert body[0] == "fpr,tpr"
    assert body[1] == "0.0,0.0"
    assert body[-1] == "1.0,1.0"


# ---------------------------------------------------------------------------
# artifact layouts


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_json_artifacts_are_canonical(cohort, tmp_path):
    assert run_predict(cohort, tmp_path / "out", workers=1) == 0
    paths = [cohort / "model.json", *sorted((tmp_path / "out").glob("*.json"))]
    assert len(paths) == 7  # the model and six patients; ghost has none
    for path in paths:
        text = path.read_text()
        assert canonical(json.loads(text)) == text, path.name


def test_csv_config_line_is_the_json_config(cohort, tmp_path):
    assert run_predict(cohort, tmp_path / "out", workers=1) == 0
    out = tmp_path / "out"
    pairs = [(cohort / "model.json.cv.csv", cohort / "model.json")]
    pairs += [(out / "cohort.csv", path) for path in sorted(out.glob("*.json"))]
    for csv_path, json_path in pairs:
        config = json.loads(json_path.read_text())["config"]
        lines = csv_path.read_text().split("\n")
        assert lines[1] == "# config=" + canonical(config), json_path.name


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# manifests that once escaped main as a traceback; each error names the
# row and the column or line at fault
BAD_MANIFESTS = {
    "ahi": (b"path,format,patient_id,ahi\na0.csv,rr,p1,abc\n",
            "manifest row 2, column ahi: could not convert"),
    "encoding": (b"path,format,patient_id\n# ok\nb\xe9.csv,rr,p1\n",
                 "manifest line 3 is not UTF-8 text"),
    "path": (b"format,patient_id,path\nrr,p1\n",
             "manifest row 2: empty path"),
    # outputs are named after the patient_id; this one once made predict
    # write <out-dir>/../../escaped.json
    "patient_id": (b"path,format,patient_id\na0.csv,rr,p0\n"
                   b"a0.csv,rr,../../escaped\n",
                   "manifest row 3: patient_id '../../escaped' is not a "
                   "file name"),
    "patient_id_dots": (b"path,format,patient_id\na0.csv,rr,..\n",
                        "manifest row 2: patient_id '..' is not a file "
                        "name"),
    "patient_id_backslash": (b"path,format,patient_id\na0.csv,rr,a\\b\n",
                             "manifest row 2: patient_id 'a\\\\b' is not "
                             "a file name"),
    # once a ValueError traceback after the whole cohort had run
    "patient_id_nul": (b"path,format,patient_id\na0.csv,rr,p\x00q\n",
                       "manifest row 2: patient_id 'p\\x00q' is not a file "
                       "name"),
    # once a ValueError traceback from resolving the path
    "path_nul": (b"path,format,patient_id\na\x000.csv,rr,p1\n",
                 "manifest row 2, column path: 'a\\x000.csv' is not a "
                 "path"),
    "annotations_nul": (b"path,format,patient_id,annotations\n"
                        b"a0.csv,rr,p1,a\x00.csv\n",
                        "manifest row 2, column annotations: 'a\\x00.csv' "
                        "is not a path"),
}


@pytest.mark.parametrize("command", ["train", "predict", "evaluate", "qc"])
@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_bad_manifest_is_one_error_line(cohort, tmp_path, capsys, case,
                                        command):
    data, message = BAD_MANIFESTS[case]
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(data)
    predictions = tmp_path / "cohort.csv"
    predictions.write_text("patient_id,afb,prominent_af\n")
    out = tmp_path / "out"
    extra = {"train": ["--out", str(out / "m.json")],
             "predict": ["--model", str(cohort / "model.json"),
                         "--out-dir", str(out)],
             "evaluate": ["--predictions", str(predictions),
                          "--out-dir", str(out)],
             "qc": ["--out", str(out / "qc.csv")]}[command]
    code = main([command, "--manifest", str(manifest), *extra])
    assert code == 2
    assert message in one_error_line(capsys)
    assert not out.exists()


BAD_COHORT_CSVS = {
    "column": ("patient_id,afb\na0,100.0\n",
               "prominent_af'], found ['afb', 'patient_id']"),
    "afb": ("patient_id,afb,prominent_af\na0,zz,true\n",
            "row 2: afb 'zz' is not a number"),
    # cohort_csv writes percentages; nan once gave afb_auroc=nan
    "afb_nan": ("patient_id,afb,prominent_af\na0,nan,true\n",
                "row 2: afb 'nan' must lie in [0, 100]"),
    "afb_negative": ("patient_id,afb,prominent_af\na0,-7,false\n",
                     "row 2: afb '-7' must lie in [0, 100]"),
    "afb_large": ("patient_id,afb,prominent_af\na0,50,true\na1,1e9,true\n",
                  "row 3: afb '1e9' must lie in [0, 100]"),
    # once read as a negative and scored as a false negative
    "flag": ("patient_id,afb,prominent_af\na0,100.0,TRUE\n",
             "row 2: prominent_af must be true, false or empty, got 'TRUE'"),
    # a short row's missing patient_id reads as empty, not as None
    "short": ("afb,prominent_af,patient_id\n100.0,true\n",
              "no reference metadata for patients"),
    # the second row once replaced the first one's label
    "duplicate": ("patient_id,afb,prominent_af\na0,100.0,true\n"
                  "a0,0.0,false\n",
                  "row 3: duplicate patient_id 'a0'"),
}


@pytest.mark.parametrize("case", sorted(BAD_COHORT_CSVS))
def test_evaluate_rejects_bad_cohort_csv(cohort, tmp_path, capsys, case):
    text, message = BAD_COHORT_CSVS[case]
    predictions = tmp_path / "cohort.csv"
    predictions.write_text(text)
    code = main(["evaluate", "--predictions", str(predictions),
                 "--manifest", str(cohort / "screen.csv"),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "eval").exists()


# ---------------------------------------------------------------------------
# synth and qc


def test_synth_then_qc_roundtrip(tmp_path):
    code = main(["synth", "--out-dir", str(tmp_path), "--patient-id", "s1",
                 "--program", "NSR:120", "--seed", "3"])
    assert code == 0
    assert (tmp_path / "s1.edf").exists()
    assert (tmp_path / "s1.rr.csv").exists()

    (tmp_path / "m.csv").write_text(
        "path,format,patient_id\ns1.edf,edf,s1\n")
    code = main(["qc", "--manifest", str(tmp_path / "m.csv"),
                 "--out", str(tmp_path / "qc.csv"),
                 "--dump-detector", "reference", *SMALL])
    assert code == 0

    lines = (tmp_path / "qc.csv").read_text().split("\n")
    body = [r for r in lines if r and not r.startswith("#")]
    assert body[0] == "patient_id,status,n_peaks,exclusion_rate"
    pid, status, n_peaks, rate = body[1].split(",")
    assert (pid, status, rate) == ("s1", "accepted", "0.0")
    assert int(n_peaks) > 100

    dumped = [float(x) for x in
              (tmp_path / "s1.peaks.csv").read_text().split()]
    assert len(dumped) == int(n_peaks)
    assert dumped == sorted(dumped)


def test_synth_rejects_bad_program(tmp_path, capsys):
    code = main(["synth", "--out-dir", str(tmp_path), "--program",
                 "NSR-600"])
    assert code == 2
    assert "NSR-600" in capsys.readouterr().err


def test_synth_rejects_non_ascii_patient_id(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["synth", "--out-dir", str(out), "--patient-id", "p\u00e9",
                 "--program", "NSR:60"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not ASCII" in err
    assert not out.exists()


def test_qc_ledger_carries_errors(tmp_path):
    (tmp_path / "m.csv").write_text(
        "path,format,patient_id\nabsent.csv,rr,p9\n")
    code = main(["qc", "--manifest", str(tmp_path / "m.csv"),
                 "--out", str(tmp_path / "qc.csv")])
    assert code == 0
    body = [r for r in (tmp_path / "qc.csv").read_text().split("\n")
            if r and not r.startswith("#")]
    assert body[1].startswith("p9,error,,FileNotFoundError")


def test_undecodable_entry_lands_in_errors_csv(cohort, tmp_path):
    (tmp_path / "bin.csv").write_bytes(bytes(range(256)) * 4)
    (tmp_path / "m.csv").write_text(
        f"path,format,patient_id\n{cohort / 'a0.csv'},rr,a0\n"
        "bin.csv,rr,pbin\n")
    code = main(["predict", "--manifest", str(tmp_path / "m.csv"),
                 "--model", str(cohort / "model.json"),
                 "--out-dir", str(tmp_path / "out"), "--workers", "1",
                 *SMALL])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "out").glob("*.json")) == \
        ["a0.json"]
    errors = (tmp_path / "out" / "errors.csv").read_text().splitlines()
    assert len(errors) == 2 and errors[1].startswith("pbin,ParseError: ")

    code = main(["qc", "--manifest", str(tmp_path / "m.csv"),
                 "--out", str(tmp_path / "qc.csv"), *SMALL])
    assert code == 0
    body = [r for r in (tmp_path / "qc.csv").read_text().split("\n")
            if r and not r.startswith("#")]
    assert [r.split(",")[:2] for r in body[1:]] == \
        [["a0", "accepted"], ["pbin", "error"]]


def fail(message):
    def detect(record):
        raise ContractViolationError(message)
    return detect


@pytest.mark.parametrize("failing,logged", [
    (("test",), "ContractViolationError: test detector failed"),
    # the reference detector's error, as when the two ran in turn
    (("reference", "test"),
     "ContractViolationError: reference detector failed"),
])
def test_detector_error_lands_in_errors_csv(cohort, tmp_path, monkeypatch,
                                            failing, logged):
    record, _, _ = synth.synth_record(
        synth.SynthSpec(rhythm_program=[(60.0, "NSR")], seed=3),
        patient_id="s")
    (tmp_path / "s.edf").write_bytes(write_edf(record))
    (tmp_path / "m.csv").write_text(
        f"path,format,patient_id\n{cohort / 'a0.csv'},rr,a0\n"
        "s.edf,edf,s\n")
    for name in failing:
        monkeypatch.setattr(pipeline, f"detect_{name}",
                            fail(f"{name} detector failed"))
    code = main(["predict", "--manifest", str(tmp_path / "m.csv"),
                 "--model", str(cohort / "model.json"),
                 "--out-dir", str(tmp_path / "out"), "--workers", "1",
                 *SMALL])
    assert code == 0
    errors = (tmp_path / "out" / "errors.csv").read_text()
    assert errors == f"patient_id,error\ns,{logged}\n"


def test_bad_wfdb_header_lands_in_both_ledgers(cohort, tmp_path):
    # a malformed ADC zero is a ParseError for that entry, not a
    # traceback that stops the batch
    (tmp_path / "p.hea").write_text(
        "p 1 200 2\np.dat 212 200 11 0x 0 0 0 ECG\n")
    (tmp_path / "p.dat").write_bytes(bytes(3))
    (tmp_path / "m.csv").write_text(
        f"path,format,patient_id\n{cohort / 'a0.csv'},rr,a0\n"
        "p.hea,wfdb,pbad\n")
    code = main(["predict", "--manifest", str(tmp_path / "m.csv"),
                 "--model", str(cohort / "model.json"),
                 "--out-dir", str(tmp_path / "out"), *SMALL])
    assert code == 0
    assert (tmp_path / "out" / "a0.json").exists()
    errors = (tmp_path / "out" / "errors.csv").read_text().splitlines()
    assert errors[1:] == ["pbad,ParseError: malformed ADC zero '0x'"]

    code = main(["qc", "--manifest", str(tmp_path / "m.csv"),
                 "--out", str(tmp_path / "qc.csv"), *SMALL])
    assert code == 0
    body = [r for r in (tmp_path / "qc.csv").read_text().split("\n")
            if r and not r.startswith("#")]
    assert body[1].startswith("a0,accepted,")
    assert body[2] == "pbad,error,,ParseError: malformed ADC zero '0x'"


def test_qc_and_predict_agree_on_a_night_with_no_window(cohort, tmp_path):
    # 50 beats clear --min-peaks 10 but fill no 60-beat window
    times = [0.8 * (i + 1) for i in range(50)]
    (tmp_path / "short.csv").write_text("".join(f"{t!r}\n" for t in times))
    (tmp_path / "m.csv").write_text(
        "path,format,patient_id\nshort.csv,rr,short\n")
    flags = ["--manifest", str(tmp_path / "m.csv"), "--min-peaks", "10"]
    assert main(["predict", "--model", str(cohort / "model.json"),
                 "--out-dir", str(tmp_path / "out"), *flags]) == 0
    assert main(["qc", "--out", str(tmp_path / "qc.csv"), *flags]) == 0
    predicted = json.loads((tmp_path / "out" / "short.json").read_text())
    assert predicted["qc"]["status"] == "too_few_peaks"
    assert ",too_few_peaks,50," in (tmp_path / "qc.csv").read_text()


def test_qc_byte_identical_across_workers(tmp_path):
    rows = ["path,format,patient_id"]
    for seed in (1, 2):
        record, _, _ = synth.synth_record(
            synth.SynthSpec(rhythm_program=[(90.0, "NSR")], seed=seed,
                            noise_snr_db=10.0), patient_id=f"s{seed}")
        (tmp_path / f"s{seed}.edf").write_bytes(write_edf(record))
        rows.append(f"s{seed}.edf,edf,s{seed}")
    rows.append("absent.edf,edf,gone")
    (tmp_path / "m.csv").write_text("\n".join(rows) + "\n")
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["qc", "--manifest", str(tmp_path / "m.csv"),
                     "--out", str(out / "qc.csv"), "--workers", workers,
                     "--dump-detector", "test", *SMALL]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outputs[0]) == ["qc.csv", "s1.peaks.csv", "s2.peaks.csv"]
    assert outputs[0] == outputs[1]
    assert b"\ngone,error,,FileNotFoundError" in outputs[0]["qc.csv"]


def test_qc_ledger_does_not_depend_on_the_locale(tmp_path):
    # a UTF-8 manifest naming patient "p\u00e9", and an RR file that is
    # not UTF-8: under the C locale with UTF-8 mode off, qc once ended
    # in a UnicodeEncodeError and left an empty ledger
    write_rr(tmp_path / "a.csv", [(120.0, "NSR")], seed=1)
    (tmp_path / "bad.csv").write_bytes(b"0.5\n1.\xe9\n")
    (tmp_path / "m.csv").write_bytes(
        "path,format,patient_id\na.csv,rr,p\u00e9\nbad.csv,rr,bad\n"
        .encode("utf-8"))
    src = str(Path(afscreen.__file__).parents[1])
    ledgers = []
    for locale in ({"PYTHONUTF8": "1"},
                   {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                    "LC_ALL": "C"}):
        env = {**os.environ, "PYTHONPATH": src, **locale}
        run = subprocess.run(
            [sys.executable, "-m", "afscreen.cli", "qc", "--manifest",
             str(tmp_path / "m.csv"), "--out", str(tmp_path / "qc.csv"),
             "--workers", "1", *SMALL],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        ledgers.append((tmp_path / "qc.csv").read_bytes())
    assert ledgers[0] == ledgers[1]
    assert "\np\u00e9,accepted,".encode("utf-8") in ledgers[0]
    assert b"\nbad,error,,ParseError: " in ledgers[0]


def test_every_text_file_call_names_its_encoding():
    # open, read_text and write_text otherwise use the locale's
    # encoding; binary files go through read_bytes and write_bytes
    calls = 0
    for path in Path(afscreen.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in ("open", "read_text", "write_text"):
                calls += 1
                assert any(k.arg == "encoding" for k in node.keywords), \
                    f"{path.name}:{node.lineno}"
    assert calls > 0


# ---------------------------------------------------------------------------
# flags, environment, exit codes


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("afscreen-")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_env_override_applies(tmp_path, monkeypatch):
    write_rr(tmp_path / "p.csv", [(240.0, "NSR")], seed=1)
    (tmp_path / "m.csv").write_text("path,format,patient_id\np.csv,rr,p\n")

    # ~300 beats: rejected under the default floor of 1000
    main(["qc", "--manifest", str(tmp_path / "m.csv"),
          "--out", str(tmp_path / "qc_default.csv")])
    assert ",too_few_peaks," in (tmp_path / "qc_default.csv").read_text()

    monkeypatch.setenv("AFSCREEN_MIN_PEAKS", "100")
    main(["qc", "--manifest", str(tmp_path / "m.csv"),
          "--out", str(tmp_path / "qc_env.csv")])
    assert ",accepted," in (tmp_path / "qc_env.csv").read_text()

    # an explicit flag beats the environment
    main(["qc", "--manifest", str(tmp_path / "m.csv"),
          "--out", str(tmp_path / "qc_flag.csv"), "--min-peaks", "1000"])
    assert ",too_few_peaks," in (tmp_path / "qc_flag.csv").read_text()


def test_env_override_bad_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AFSCREEN_MIN_PEAKS", "soon")
    code = main(["qc", "--manifest", str(tmp_path / "m.csv"),
                 "--out", str(tmp_path / "qc.csv")])
    assert code == 2
    assert "AFSCREEN_MIN_PEAKS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analysis settings: each command takes, and records, just those it reads

# each setting's flag, by the name users and scripts know, and its key in
# an artifact's config.pipeline
SETTING_OF_FLAG = {
    "bsqi-threshold": "bsqi_threshold",
    "match-tolerance": "match_tolerance_s",
    "min-peaks": "min_reference_peaks",
    "max-exclusion-rate": "max_exclusion_rate",
    "channel": "channel",
    "afb-threshold": "afb_threshold_pct",
    "ahi-cutoff": "ahi_cutoff",
    "ni-margin": "ni_margin",
    "ni-alpha": "ni_alpha",
    "seed": "seed",
}
QC_FLAGS = {"bsqi-threshold", "match-tolerance", "min-peaks",
            "max-exclusion-rate", "channel"}
COMMAND_FLAGS = {
    "predict": QC_FLAGS | {"afb-threshold"},
    "qc": QC_FLAGS,
    # train keeps the included windows of every recording: the recording
    # QC rules never changed its output
    "train": {"bsqi-threshold", "match-tolerance", "channel", "seed"},
    "evaluate": {"ahi-cutoff", "ni-margin", "ni-alpha"},
}
RECORDED = {command: {SETTING_OF_FLAG[flag] for flag in flags}
            for command, flags in COMMAND_FLAGS.items()}
REQUIRED = {
    "train": ["--manifest", "m.csv", "--out", "m.json"],
    "predict": ["--manifest", "m.csv", "--model", "m.json",
                "--out-dir", "out"],
    "evaluate": ["--predictions", "cohort.csv", "--manifest", "m.csv",
                 "--out-dir", "out"],
    "qc": ["--manifest", "m.csv", "--out", "qc.csv"],
}
# a value other than any setting's default, by the default's type
OTHER = {float: ("0.5", 0.5), int: ("7", 7), type(None): ("II", "II")}


def declared_default(name):
    """A setting's default, as the code that reads it declares it."""
    config = PipelineConfig()
    if hasattr(config, name):
        return getattr(config, name)
    if name == "seed":
        return inspect.signature(forest.train).parameters["seed"].default
    param = {"ahi_cutoff": "ahi_cutoff", "ni_margin": "margin",
             "ni_alpha": "alpha"}[name]
    return inspect.signature(stats.stratify).parameters[param].default


def parsed(command, argv=()):
    return cli._parse_args([command, *REQUIRED[command], *argv])


def test_the_flag_table_covers_every_setting():
    assert set(SETTING_OF_FLAG.values()) == set(cli.SETTINGS)
    assert {f.name for f in dataclasses.fields(PipelineConfig)} == (
        RECORDED["predict"])


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_and_records_just_its_settings(command, capsys):
    # a flag the command would ignore, such as predict --seed or
    # train --min-peaks, is an unknown-flag usage error (exit 2); the
    # flags it takes are parsed in the test below
    for flag, name in SETTING_OF_FLAG.items():
        if flag in COMMAND_FLAGS[command]:
            continue
        text, _ = OTHER[type(declared_default(name))]
        with pytest.raises(SystemExit) as e:
            parsed(command, [f"--{flag}", text])
        assert e.value.code == 2
        assert (f"unrecognized arguments: --{flag} {text}"
                in capsys.readouterr().err)
    run = cli._run_config(parsed(command))
    assert run["command"] == command
    assert set(run["pipeline"]) == RECORDED[command]


def assert_setting(command, args, name, value):
    """The setting reaches the namespace the command reads, the
    config.pipeline it records and, for a PipelineConfig field, the
    config it runs the pipeline with."""
    assert getattr(args, name) == value
    assert cli._run_config(args)["pipeline"][name] == value
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    if command != "evaluate" and name in fields:
        assert getattr(cli._config_from(args), name) == value


@pytest.mark.parametrize("name", sorted(SETTING_OF_FLAG.values()))
def test_every_config_field_has_its_flag_and_variable(name, monkeypatch):
    # each config.pipeline key, through every command that records it:
    # its default, its flag and its AFSCREEN_* variable
    flag = {v: k for k, v in SETTING_OF_FLAG.items()}[name]
    commands = [c for c, flags in COMMAND_FLAGS.items() if flag in flags]
    assert commands
    default = declared_default(name)
    text, value = OTHER[type(default)]
    for command in commands:
        assert_setting(command, parsed(command), name, default)
        assert_setting(command, parsed(command, [f"--{flag}", text]), name,
                       value)
    monkeypatch.setenv("AFSCREEN_" + flag.replace("-", "_").upper(), text)
    for command in commands:
        assert_setting(command, parsed(command), name, value)


def test_a_variable_is_read_only_by_the_commands_taking_its_flag(
        monkeypatch):
    monkeypatch.setenv("AFSCREEN_SEED", "soon")
    monkeypatch.setenv("AFSCREEN_NI_ALPHA", "soon")
    assert parsed("qc").min_reference_peaks == declared_default(
        "min_reference_peaks")
    with pytest.raises(ConfigurationError, match="AFSCREEN_SEED"):
        parsed("train")
    with pytest.raises(ConfigurationError, match="AFSCREEN_NI_ALPHA"):
        parsed("evaluate")


def test_numeric_channel_is_an_index(monkeypatch):
    args = parsed("qc", ["--channel", "2"])
    assert cli._config_from(args).channel == 2
    assert cli._run_config(args)["pipeline"]["channel"] == 2
    monkeypatch.setenv("AFSCREEN_CHANNEL", "1")
    assert cli._config_from(parsed("qc")).channel == 1


# settings that were accepted although they gave wrong output or ended
# in a traceback: each is now one error line before any output
BAD_SETTINGS = {
    # an accepted 5 dB recording became too_noisy
    "match_tolerance_nan": ("qc", ["--match-tolerance", "nan"], {},
                            "match tolerance must be finite and > 0"),
    "match_tolerance_negative": ("predict", ["--match-tolerance", "-1"], {},
                                 "match tolerance must be finite and > 0"),
    "min_peaks_negative": ("qc", ["--min-peaks", "-5"], {},
                           "minimum peaks must be >= 0"),
    # every patient landed in the high-AHI stratum
    "ahi_cutoff_nan": ("evaluate", ["--ahi-cutoff", "nan"], {},
                       "AHI cutoff must be finite"),
    # reported noninferior=true
    "ni_alpha_above_one": ("evaluate", ["--ni-alpha", "7"], {},
                           "non-inferiority level must lie in (0, 1)"),
    # reported noninferior=false whatever p was
    "ni_alpha_nan": ("evaluate", ["--ni-alpha", "nan"], {},
                     "non-inferiority level must lie in (0, 1)"),
    # gave z = 0 and p = 0.5
    "ni_margin_nan": ("evaluate", ["--ni-margin", "nan"], {},
                      "non-inferiority margin must be finite"),
    # numpy's "expected non-negative integer" traceback
    "seed_negative": ("train", ["--seed", "-1"], {}, "seed must be >= 0"),
    "seed_variable_negative": ("train", [], {"AFSCREEN_SEED": "-2"},
                               "seed must be >= 0"),
    "synth_seed_negative": ("synth", ["--seed", "-1"], {},
                            "seed must be >= 0"),
    # ran until killed, appending NaN beat times
    "synth_mean_rr_nan": ("synth", ["--mean-rr", "nan"], {},
                          "mean RR must be finite and > 0"),
    "synth_nsr_sd_nan": ("synth", ["--nsr-sd", "nan"], {},
                         "NSR RR SD must be finite and >= 0"),
    # ran until killed, appending beats past an endless segment
    "synth_duration_inf": ("synth", ["--program", "NSR:inf"], {},
                           "program durations must be finite and > 0"),
    # wrote files
    "synth_mean_rr_negative": ("synth", ["--mean-rr", "-5"], {},
                               "mean RR must be finite and > 0"),
    "synth_af_sd_negative": ("synth", ["--af-sd", "-1"], {},
                             "AF RR SD must be finite and >= 0"),
    # a ValueError traceback
    "synth_fs_nan": ("synth", ["--fs", "nan"], {},
                     "fs must be finite and > 0"),
    "synth_fs_zero": ("synth", ["--fs", "0"], {},
                      "fs must be finite and > 0"),
    # wrote NaN samples
    "synth_snr_nan": ("synth", ["--snr", "nan"], {}, "SNR must be finite"),
    "synth_snr_variable_inf": ("synth", [], {"AFSCREEN_SNR": "-inf"},
                               "SNR must be finite"),
    # ran serially without a word
    "workers_zero": ("predict", ["--workers", "0"], {},
                     "workers must be >= 1"),
    "workers_negative": ("qc", ["--workers", "-3"], {},
                         "workers must be >= 1"),
    "workers_variable_zero": ("predict", [], {"AFSCREEN_WORKERS": "0"},
                              "workers must be >= 1"),
}


def run_argv(cohort, tmp_path, command):
    """A command's required flags for a run on the cohort, writing to
    tmp_path / "out"."""
    predictions = tmp_path / "cohort.csv"
    predictions.write_text("patient_id,afb,prominent_af\n"
                           "a1,100.0,true\nn1,0.0,false\n")
    out = tmp_path / "out"
    return {"train": ["--manifest", str(cohort / "train.csv"),
                      "--out", str(out / "m.json"), "--grid", "5x2"],
            "predict": ["--manifest", str(cohort / "screen.csv"),
                        "--model", str(cohort / "model.json"),
                        "--out-dir", str(out)],
            "evaluate": ["--predictions", str(predictions),
                         "--manifest", str(cohort / "screen.csv"),
                         "--out-dir", str(out)],
            "qc": ["--manifest", str(cohort / "screen.csv"),
                   "--out", str(out / "qc.csv")],
            "synth": ["--out-dir", str(out), "--program", "NSR:60"],
            }[command]


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_bad_setting_is_one_error_line(cohort, tmp_path, capsys,
                                       monkeypatch, case):
    command, argv, env, message = BAD_SETTINGS[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([command, *run_argv(cohort, tmp_path, command), *argv]) == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "out").exists()
