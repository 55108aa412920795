"""Command-line entry point.

Subcommands:

  train     label windows from an annotated manifest, pick
            hyperparameters by patient-grouped cross-validation, fit,
            and write the model JSON plus a CV report
  predict   run a cohort manifest through a trained model; per-patient
            JSON results, a cohort summary CSV, and an error ledger
  evaluate  compare cohort predictions with reference labels: strata
            report (overall / AHI strata), non-inferiority test, ROC
  synth     generate a synthetic recording (EDF + annotated RR CSV)
  qc        quality-gate recordings without classifying, optionally
            dumping either detector's peak times

The analysis flags that train, predict, evaluate and qc share (one per
PipelineConfig field, with the field's default), --workers, train's
--grid and --cv-folds, and synth's --fs, --snr and --seed can also be
set through an environment variable named AFSCREEN_<FLAG> (dashes as
underscores, upper case), e.g. AFSCREEN_WORKERS=4. Explicit flags win
over the environment.

All outputs embed the analysis configuration and the package version.
Outputs contain no timestamps and inference uses no randomness, so
reruns with the same inputs and seed are byte-identical regardless of
worker count. Exit status is 0 unless a hard configuration or I/O
error stops the run; per-patient failures go to the error ledger.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

from . import __version__, forest, pipeline, stats
from .errors import AfscreenError, ConfigurationError
from .record_io import write_edf, write_rr_csv
from .synth import SynthSpec, synth_record

VERSION = f"afscreen-{__version__}"


def _env(flag: str, default, cast=str):
    name = "AFSCREEN_" + flag.replace("-", "_").upper()
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ConfigurationError(
            f"environment override {name} has unparseable value "
            f"{raw!r}") from None


# Each PipelineConfig field's flag and help text. The default is read
# from the dataclass, so every analysis default is declared there once.
PIPELINE_FLAGS = {
    "bsqi_threshold": ("bsqi-threshold", "window inclusion threshold"),
    "afb_threshold_pct": ("afb-threshold",
                          "prominent-AF burden threshold, percent"),
    "match_tolerance_s": ("match-tolerance",
                          "beat matching tolerance, seconds"),
    "min_reference_peaks": ("min-peaks",
                            "minimum reference peaks per recording"),
    "max_exclusion_rate": ("max-exclusion-rate",
                           "recording excluded when the excluded-window "
                           "fraction exceeds this"),
    "channel": ("channel", "signal label substring or integer index "
                           "(default ECG; a single-signal WFDB record's "
                           "only signal)"),
    "ahi_cutoff": ("ahi-cutoff", "AHI stratum boundary"),
    "ni_margin": ("ni-margin", "non-inferiority margin"),
    "ni_alpha": ("ni-alpha", "non-inferiority significance level"),
    "seed": ("seed", "RNG seed for training"),
}


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(pipeline.PipelineConfig):
        flag, text = PIPELINE_FLAGS[f.name]
        if f.default is None:
            cast = str
        else:
            cast = type(f.default)
            text += f" (default {f.default:g})"
        p.add_argument(f"--{flag}", dest=f.name, type=cast,
                       metavar=flag.replace("-", "_").upper(),
                       default=_env(flag, f.default, cast), help=text)


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int,
                   default=_env("workers", None, int),
                   help="process pool size (default: all cores)")


def _config_from(args: argparse.Namespace) -> pipeline.PipelineConfig:
    values = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(pipeline.PipelineConfig)}
    channel = values["channel"]
    if isinstance(channel, str) and channel.lstrip("-").isdigit():
        values["channel"] = int(channel)
    return pipeline.PipelineConfig(**values)


def _run_config(command: str, args: argparse.Namespace,
                config: pipeline.PipelineConfig) -> dict:
    # Provenance block embedded in every artifact. Execution knobs that
    # never change results (worker count, output destinations) are left
    # out so reruns stay byte-identical wherever they land.
    run = {"command": command, "pipeline": dataclasses.asdict(config)}
    for key in ("manifest", "model", "grid", "cv_folds",
                "predictions", "program", "fs", "snr", "patient_id"):
        if hasattr(args, key):
            run[key] = getattr(args, key)
    return run


def _provenance_lines(run_config: dict) -> list[str]:
    return [f"generator={VERSION}",
            "config=" + json.dumps(run_config, sort_keys=True,
                                   separators=(",", ":"))]


def _csv_buffer(header_lines=()) -> tuple:
    """A CSV buffer that starts with one "# " comment per header line."""
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in header_lines)
    return buf, csv.writer(buf, lineterminator="\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _fmt_opt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> tuple:
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n, d = chunk.lower().split("x")
            points.append((int(n), int(d)))
        except ValueError:
            raise ConfigurationError(
                f"bad grid point {chunk!r}; expected TREESxDEPTH like "
                f"20x3") from None
    if not points:
        raise ConfigurationError("empty hyperparameter grid")
    return tuple(points)


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run_config = _run_config("train", args, config)
    entries = pipeline.read_manifest(args.manifest)
    X, y, groups, skipped = pipeline.collect_training_windows(entries,
                                                              config)
    if skipped:
        print(f"note: {skipped} windows outside annotated spans were "
              f"skipped", file=sys.stderr)
    if not len(y):
        raise ConfigurationError("no labeled training windows")

    grid = _parse_grid(args.grid) if args.grid else forest.DEFAULT_GRID
    cv = forest.cross_validate(X, y, groups, grid=grid, k=args.cv_folds,
                               seed=args.seed)
    model = forest.train(X, y, n_estimators=cv.n_estimators,
                         max_depth=cv.max_depth, seed=args.seed)

    payload = json.loads(forest.save_model(model))
    payload["generator"] = VERSION
    payload["config"] = run_config
    out = Path(args.out)
    _write_text(out, json.dumps(payload, sort_keys=True,
                                separators=(",", ":")))

    buf, writer = _csv_buffer(_provenance_lines(run_config))
    buf.write(f"# selected={cv.n_estimators}x{cv.max_depth}\n")
    writer.writerow(["n_estimators", "max_depth", "mean_auroc",
                     "folds_used"])
    for n_est, depth, auc, folds in cv.rows:
        writer.writerow([n_est, depth, _fmt_opt(auc), folds])
    report_path = Path(args.cv_report) if args.cv_report \
        else out.with_suffix(out.suffix + ".cv.csv")
    _write_text(report_path, buf.getvalue())

    print(f"trained on {len(y)} windows from "
          f"{len(set(groups.tolist()))} patients; "
          f"selected {cv.n_estimators} trees, depth {cv.max_depth}")
    print(f"model: {out}")
    print(f"cv report: {report_path}")
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run_config = _run_config("predict", args, config)
    model = forest.load_model(Path(args.model).read_bytes())
    entries = pipeline.read_manifest(args.manifest)
    results, report = pipeline.run_cohort(entries, model, config,
                                          workers=args.workers)

    out_dir = Path(args.out_dir)
    for r in results:
        doc = {"generator": VERSION, "config": run_config}
        doc.update(pipeline.result_to_dict(r))
        _write_text(out_dir / f"{r.patient_id}.json",
                    json.dumps(doc, sort_keys=True, separators=(",", ":")))

    _write_text(out_dir / "cohort.csv",
                pipeline.cohort_csv(results,
                                    _provenance_lines(run_config)))

    buf, writer = _csv_buffer()
    writer.writerow(["patient_id", "error"])
    for pid, msg in report.errors:
        writer.writerow([pid, msg])
    _write_text(out_dir / "errors.csv", buf.getvalue())

    print(f"processed {report.n_processed}/{report.n_patients} patients: "
          f"{report.n_prominent} prominent AF, {report.n_excluded} "
          f"excluded, {len(report.errors)} errors")
    print(f"outputs: {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run_config = _run_config("evaluate", args, config)
    predictions, afb_by_pid, n_excluded = pipeline.read_cohort_csv(
        args.predictions)
    metas = {e.patient_id: e.meta
             for e in pipeline.read_manifest(args.manifest)}

    report = stats.stratify(predictions, metas,
                            ahi_cutoff=config.ahi_cutoff,
                            margin=config.ni_margin,
                            alpha=config.ni_alpha)

    out_dir = Path(args.out_dir)
    buf, writer = _csv_buffer(_provenance_lines(run_config))
    writer.writerow(["stratum", "tp", "fp", "tn", "fn",
                     "se", "sp", "ppv", "npv", "f1"])
    for name, stratum in (("all", report.overall),
                          ("ahi_lt_cutoff", report.low_ahi),
                          ("ahi_ge_cutoff", report.high_ahi)):
        c, m = stratum.counts, stratum.derived
        writer.writerow([name, c.tp, c.fp, c.tn, c.fn,
                         _fmt_opt(m.se), _fmt_opt(m.sp), _fmt_opt(m.ppv),
                         _fmt_opt(m.npv), _fmt_opt(m.f1)])
    ni = report.noninferiority
    writer.writerow(["noninferiority_z", _fmt_opt(ni.z)])
    writer.writerow(["noninferiority_p", _fmt_opt(ni.p)])
    writer.writerow(["noninferior", _fmt_opt(ni.noninferior)])
    writer.writerow(["n_missing_ahi", report.n_missing_ahi])
    writer.writerow(["n_unlabeled", report.n_unlabeled])
    writer.writerow(["n_excluded", n_excluded])
    _write_text(out_dir / "strata_report.csv", buf.getvalue())

    scores = [(afb_by_pid[pid], metas[pid].reference_af_label)
              for pid in sorted(afb_by_pid)
              if metas[pid].reference_af_label != "unknown"]
    auc, points = stats.auroc(scores)
    buf, writer = _csv_buffer(_provenance_lines(run_config))
    buf.write(f"# afb_auroc={_fmt_opt(auc)}\n")
    writer.writerow(["fpr", "tpr"])
    for fpr, tpr in points:
        writer.writerow([repr(fpr), repr(tpr)])
    _write_text(out_dir / "roc_points.csv", buf.getvalue())

    print(f"strata report: {out_dir / 'strata_report.csv'}")
    print(f"roc points: {out_dir / 'roc_points.csv'}")
    if ni.p is not None:
        print(f"noninferiority: z={ni.z:.5f} p={ni.p:.5f} "
              f"noninferior={str(ni.noninferior).lower()}")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _parse_program(text: str) -> list[tuple[float, str]]:
    program = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rhythm, seconds = chunk.split(":")
            program.append((float(seconds), rhythm.strip().upper()))
        except ValueError:
            raise ConfigurationError(
                f"bad program segment {chunk!r}; expected RHYTHM:SECONDS "
                f"like NSR:600") from None
    if not program:
        raise ConfigurationError("empty rhythm program")
    return program


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(rhythm_program=_parse_program(args.program),
                     seed=args.seed, fs=args.fs,
                     noise_snr_db=args.snr,
                     mean_rr=args.mean_rr, nsr_sd=args.nsr_sd,
                     af_sd=args.af_sd, ectopy_k=args.ectopy_k)
    record, peaks, annotations = synth_record(spec,
                                              patient_id=args.patient_id)
    edf = write_edf(record)  # rejects a header it cannot encode
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    edf_path = out_dir / f"{args.patient_id}.edf"
    edf_path.write_bytes(edf)
    rr_path = out_dir / f"{args.patient_id}.rr.csv"
    rr_path.write_text(write_rr_csv(peaks, annotations))
    print(f"wrote {edf_path} ({record.duration_s:.0f} s at "
          f"{record.fs:g} Hz) and {rr_path} ({len(peaks)} beats)")
    return 0


# ---------------------------------------------------------------------------
# qc
# ---------------------------------------------------------------------------

def cmd_qc(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run_config = _run_config("qc", args, config)
    entries = pipeline.read_manifest(args.manifest)
    rows, errors = pipeline.qc_cohort(entries, config, workers=args.workers,
                                      dump=args.dump_detector)

    dump_dir = Path(args.dump_dir) if args.dump_dir else Path(args.out).parent
    buf, writer = _csv_buffer(_provenance_lines(run_config))
    writer.writerow(["patient_id", "status", "n_peaks", "exclusion_rate"])
    for pid, (qc, peaks) in rows:
        if peaks is not None:
            _write_text(dump_dir / f"{pid}.peaks.csv",
                        "".join(f"{float(t)!r}\n" for t in peaks))
        writer.writerow([pid, qc.status, qc.n_peaks_reference,
                         repr(float(qc.exclusion_rate))])
    for pid, msg in errors:
        writer.writerow([pid, "error", "", msg])
    _write_text(Path(args.out), buf.getvalue())
    print(f"qc ledger: {args.out} ({len(rows)} recordings, "
          f"{len(errors)} errors)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afscreen",
        description="AF screening from long single-channel ECG recordings")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit the window classifier")
    p.add_argument("--manifest", required=True,
                   help="training manifest CSV with rhythm annotations")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--cv-report", default=None,
                   help="CV table path (default: <out>.cv.csv)")
    p.add_argument("--grid", default=_env("grid", None),
                   help="hyperparameter grid like 10x2,20x3 "
                        "(default: full bracket)")
    p.add_argument("--cv-folds", type=int,
                   default=_env("cv-folds", forest.DEFAULT_CV_FOLDS, int))
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify a cohort")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    _add_workers_flag(p)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate",
                       help="score predictions against reference labels")
    p.add_argument("--predictions", required=True,
                   help="cohort.csv produced by predict")
    p.add_argument("--manifest", required=True,
                   help="manifest carrying reference labels and AHI")
    p.add_argument("--out-dir", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic recording")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--patient-id", default="synth")
    p.add_argument("--program", required=True,
                   help="rhythm program like NSR:600,AF:1200")
    p.add_argument("--fs", type=float,
                   default=_env("fs", SynthSpec.fs, float))
    p.add_argument("--snr", type=float, default=_env("snr", None, float),
                   help="signal-power SNR in dB (default: noiseless)")
    p.add_argument("--seed", type=int,
                   default=_env("seed", SynthSpec.seed, int))
    p.add_argument("--mean-rr", type=float, default=SynthSpec.mean_rr)
    p.add_argument("--nsr-sd", type=float, default=SynthSpec.nsr_sd)
    p.add_argument("--af-sd", type=float, default=SynthSpec.af_sd)
    p.add_argument("--ectopy-k", type=int, default=SynthSpec.ectopy_k)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("qc", help="run quality control only")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="QC ledger CSV path")
    p.add_argument("--dump-detector", choices=["reference", "test"],
                   default=None,
                   help="also dump this detector's peak times per patient")
    p.add_argument("--dump-dir", default=None,
                   help="directory for peak dumps (default: next to --out)")
    _add_workers_flag(p)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_qc)

    return parser


def main(argv=None) -> int:
    try:
        # environment overrides are read while the parser is built, so
        # a bad AFSCREEN_* value must fail the same way flag errors do
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (AfscreenError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
