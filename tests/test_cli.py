"""End-to-end command-line runs against small synthetic cohorts."""

import dataclasses
import json

import pytest

from afscreen import cli, forest, synth
from afscreen.cli import main
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
                 "--out", str(model_path), "--grid", "5x2,10x2",
                 *SMALL])
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
    assert payload["config"]["pipeline"]["min_reference_peaks"] == 100

    report = (cohort / "model.json.cv.csv").read_text().split("\n")
    assert report[0].startswith("# generator=afscreen-")
    assert report[1].startswith("# config=")
    assert report[2].startswith("# selected=")
    assert report[3] == "n_estimators,max_depth,mean_auroc,folds_used"
    assert len([r for r in report if r and not r.startswith("#")]) == 3


def test_train_rejects_bad_grid(cohort, capsys):
    code = main(["train", "--manifest", str(cohort / "train.csv"),
                 "--out", str(cohort / "m2.json"), "--grid", "bananas",
                 *SMALL])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (cohort / "m2.json").exists()


@pytest.mark.parametrize("folds", ["0", "1", "-3"])
def test_train_rejects_fewer_than_two_folds(cohort, tmp_path, capsys, folds):
    out = tmp_path / "m.json"
    code = main(["train", "--manifest", str(cohort / "train.csv"),
                 "--out", str(out), "--grid", "5x2", "--cv-folds", folds,
                 *SMALL])
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
                 "--out-dir", str(tmp_path / "eval"), *SMALL])
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
    # once read as a negative and scored as a false negative
    "flag": ("patient_id,afb,prominent_af\na0,100.0,TRUE\n",
             "row 2: prominent_af must be true, false or empty, got 'TRUE'"),
    # a short row's missing patient_id reads as empty, not as None
    "short": ("afb,prominent_af,patient_id\n100.0,true\n",
              "no reference metadata for patients"),
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


# each PipelineConfig field's flag, by the name users and scripts know
FLAGS = {
    "bsqi_threshold": "bsqi-threshold",
    "afb_threshold_pct": "afb-threshold",
    "match_tolerance_s": "match-tolerance",
    "min_reference_peaks": "min-peaks",
    "max_exclusion_rate": "max-exclusion-rate",
    "channel": "channel",
    "ahi_cutoff": "ahi-cutoff",
    "ni_margin": "ni-margin",
    "ni_alpha": "ni-alpha",
    "seed": "seed",
}
# a value other than any field's default, by the default's type
OTHER = {float: ("0.5", 0.5), int: ("7", 7), type(None): ("II", "II")}


def config_of(argv):
    return cli._config_from(cli.build_parser().parse_args(
        ["qc", "--manifest", "m.csv", "--out", "qc.csv", *argv]))


@pytest.mark.parametrize("name", [f.name for f in
                                  dataclasses.fields(PipelineConfig)])
def test_every_config_field_has_its_flag_and_variable(name, monkeypatch):
    default = getattr(PipelineConfig(), name)
    assert getattr(config_of([]), name) == default
    text, value = OTHER[type(default)]
    assert getattr(config_of([f"--{FLAGS[name]}", text]), name) == value
    monkeypatch.setenv("AFSCREEN_" + FLAGS[name].replace("-", "_").upper(),
                       text)
    assert getattr(config_of([]), name) == value


def test_numeric_channel_is_an_index(monkeypatch):
    assert config_of(["--channel", "2"]).channel == 2
    monkeypatch.setenv("AFSCREEN_CHANNEL", "1")
    assert config_of([]).channel == 1
