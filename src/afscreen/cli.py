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

train, predict, evaluate and qc each take, and record, just the
analysis settings they read (SETTINGS). Those flags, --workers, --grid,
--cv-folds and synth's --fs, --snr and --seed can also be set through an
environment variable AFSCREEN_<FLAG> (dashes as underscores, upper
case), e.g. AFSCREEN_WORKERS=4, read only by the commands taking that
flag. Explicit flags win over the environment.

All outputs embed the analysis configuration and the package version.
Outputs contain no timestamps and inference uses no randomness, so
reruns with the same inputs and seed are byte-identical regardless of
worker count. Exit status is 0 unless a hard configuration or I/O
error stops the run; per-patient failures go to the error ledger.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import partial
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


def _channel(text: str) -> str | int:
    return int(text) if text.lstrip("-").isdigit() else text


# Each analysis setting's flag and help text. Its default is declared
# once, by what reads it: PipelineConfig, stats.stratify or forest.
SETTINGS = {
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
FIELDS = tuple(f.name for f in dataclasses.fields(pipeline.PipelineConfig))
DEFAULTS = {**dataclasses.asdict(pipeline.PipelineConfig()),
            "ahi_cutoff": stats.DEFAULT_AHI_CUTOFF,
            "ni_margin": stats.DEFAULT_NI_MARGIN,
            "ni_alpha": stats.DEFAULT_NI_ALPHA, "seed": forest.DEFAULT_SEED}


def _add_flag(p: argparse.ArgumentParser, flag: str, default, cast=str,
              **kwargs) -> None:
    # an unset flag keeps its AFSCREEN_<FLAG> reader for _parse_args to call
    p.add_argument(f"--{flag}", type=cast,
                   default=partial(_env, flag, default, cast), **kwargs)


def _add_settings(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        (flag, text), default = SETTINGS[name], DEFAULTS[name]
        cast = _channel if default is None else type(default)
        if default is not None:
            text += f" (default {default:g})"
        _add_flag(p, flag, default, cast, dest=name, help=text,
                  metavar=flag.replace("-", "_").upper())


def _config_from(args: argparse.Namespace) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(**{
        name: getattr(args, name) for name in FIELDS if hasattr(args, name)})


def _run_config(args: argparse.Namespace) -> dict:
    # Provenance block embedded in every artifact. Execution knobs that
    # never change results (worker count, output destinations) are left
    # out so reruns stay byte-identical wherever they land.
    run = {"command": args.command, "pipeline": {
        name: getattr(args, name) for name in SETTINGS if hasattr(args, name)}}
    for key in ("manifest", "model", "grid", "cv_folds", "predictions"):
        if hasattr(args, key):
            run[key] = getattr(args, key)
    return run


def _json_text(doc: dict) -> str:
    """The one JSON form of every artifact: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _provenance_lines(run_config: dict) -> list[str]:
    return [f"generator={VERSION}", "config=" + _json_text(run_config)]


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


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
    forest.check_seed(args.seed)  # before any recording is read
    out = Path(args.out)
    report_path = Path(args.cv_report) if args.cv_report \
        else out.with_suffix(out.suffix + ".cv.csv")
    if report_path.resolve() == out.resolve():
        raise ConfigurationError(
            f"the CV report {report_path} would overwrite the model "
            f"{out}; give --cv-report another path")
    run_config = _run_config(args)
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

    _write_text(out, _json_text({**json.loads(forest.save_model(model)),
                                 "generator": VERSION, "config": run_config}))

    rows = [["n_estimators", "max_depth", "mean_auroc", "folds_used"]]
    rows += [[n, d, _fmt_opt(auc), folds] for n, d, auc, folds in cv.rows]
    _write_text(report_path, pipeline.csv_text(
        rows, _provenance_lines(run_config)
        + [f"selected={cv.n_estimators}x{cv.max_depth}"]))

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
    run_config = _run_config(args)
    model = forest.load_model(Path(args.model).read_bytes())
    entries = pipeline.read_manifest(args.manifest)
    results, report = pipeline.run_cohort(entries, model, config,
                                          workers=args.workers)

    out_dir = Path(args.out_dir)
    for r in results:
        _write_text(out_dir / f"{r.patient_id}.json",
                    _json_text({**pipeline.result_to_dict(r),
                                "generator": VERSION, "config": run_config}))
    _write_text(out_dir / "cohort.csv",
                pipeline.cohort_csv(results, _provenance_lines(run_config)))
    _write_text(out_dir / "errors.csv", pipeline.csv_text(
        [["patient_id", "error"], *report.errors]))

    print(f"processed {report.n_processed}/{report.n_patients} patients: "
          f"{report.n_prominent} prominent AF, {report.n_excluded} "
          f"excluded, {len(report.errors)} errors")
    print(f"outputs: {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args: argparse.Namespace) -> int:
    run_config = _run_config(args)
    predictions, afb_by_pid, n_excluded = pipeline.read_cohort_csv(
        args.predictions)
    metas = {e.patient_id: e.meta
             for e in pipeline.read_manifest(args.manifest)}

    report = stats.stratify(predictions, metas, ahi_cutoff=args.ahi_cutoff,
                            margin=args.ni_margin, alpha=args.ni_alpha)

    out_dir = Path(args.out_dir)
    provenance = _provenance_lines(run_config)
    rows = [["stratum", "tp", "fp", "tn", "fn",
             "se", "sp", "ppv", "npv", "f1"]]
    for name, stratum in (("all", report.overall),
                          ("ahi_lt_cutoff", report.low_ahi),
                          ("ahi_ge_cutoff", report.high_ahi)):
        c, m = stratum.counts, stratum.derived
        rows.append([name, c.tp, c.fp, c.tn, c.fn,
                     *map(_fmt_opt, (m.se, m.sp, m.ppv, m.npv, m.f1))])
    ni = report.noninferiority
    rows += [["noninferiority_z", _fmt_opt(ni.z)],
             ["noninferiority_p", _fmt_opt(ni.p)],
             ["noninferior", _fmt_opt(ni.noninferior)],
             ["n_missing_ahi", report.n_missing_ahi],
             ["n_unlabeled", report.n_unlabeled],
             ["n_excluded", n_excluded]]
    _write_text(out_dir / "strata_report.csv",
                pipeline.csv_text(rows, provenance))

    scores = [(afb_by_pid[pid], metas[pid].reference_af_label)
              for pid in sorted(afb_by_pid)
              if metas[pid].reference_af_label != "unknown"]
    auc, points = stats.auroc(scores)
    _write_text(out_dir / "roc_points.csv", pipeline.csv_text(
        [["fpr", "tpr"], *([repr(fpr), repr(tpr)] for fpr, tpr in points)],
        provenance + [f"afb_auroc={_fmt_opt(auc)}"]))

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
    if not pipeline.is_file_name(args.patient_id):
        raise ConfigurationError(
            f"--patient-id {args.patient_id!r} is not a file name")
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
    _write_text(rr_path, write_rr_csv(peaks, annotations))
    print(f"wrote {edf_path} ({record.duration_s:.0f} s at "
          f"{record.fs:g} Hz) and {rr_path} ({len(peaks)} beats)")
    return 0


# ---------------------------------------------------------------------------
# qc
# ---------------------------------------------------------------------------

def cmd_qc(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run_config = _run_config(args)
    entries = pipeline.read_manifest(args.manifest)
    rows, errors = pipeline.qc_cohort(entries, config, workers=args.workers,
                                      dump=args.dump_detector)

    dump_dir = Path(args.dump_dir) if args.dump_dir else Path(args.out).parent
    ledger = [["patient_id", "status", "n_peaks", "exclusion_rate"]]
    for pid, (qc, peaks) in rows:
        if peaks is not None:
            _write_text(dump_dir / f"{pid}.peaks.csv", write_rr_csv(peaks))
        ledger.append([pid, qc.status, qc.n_peaks_reference,
                       repr(float(qc.exclusion_rate))])
    ledger += [[pid, "error", "", msg] for pid, msg in errors]
    _write_text(Path(args.out),
                pipeline.csv_text(ledger, _provenance_lines(run_config)))
    print(f"qc ledger: {args.out} ({len(rows)} recordings, "
          f"{len(errors)} errors)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
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
    _add_flag(p, "grid", None, help="hyperparameter grid like 10x2,20x3 "
                                    "(default: full bracket)")
    _add_flag(p, "cv-folds", forest.DEFAULT_CV_FOLDS, int)
    _add_settings(p, "bsqi_threshold", "match_tolerance_s", "channel", "seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify a cohort")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    _add_flag(p, "workers", None, int,
              help="processes (default: all usable cores)")
    _add_settings(p, *FIELDS)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate",
                       help="score predictions against reference labels")
    p.add_argument("--predictions", required=True,
                   help="cohort.csv produced by predict")
    p.add_argument("--manifest", required=True,
                   help="manifest carrying reference labels and AHI")
    p.add_argument("--out-dir", required=True)
    _add_settings(p, "ahi_cutoff", "ni_margin", "ni_alpha")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic recording")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--patient-id", default="synth")
    p.add_argument("--program", required=True,
                   help="rhythm program like NSR:600,AF:1200")
    _add_flag(p, "fs", SynthSpec.fs, float)
    _add_flag(p, "snr", None, float,
              help="signal-power SNR in dB (default: noiseless)")
    _add_flag(p, "seed", SynthSpec.seed, int)
    p.add_argument("--mean-rr", type=float, default=SynthSpec.mean_rr)
    p.add_argument("--nsr-sd", type=float, default=SynthSpec.nsr_sd)
    p.add_argument("--af-sd", type=float, default=SynthSpec.af_sd)
    p.add_argument("--ectopy-k", type=int, default=SynthSpec.ectopy_k)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("qc", help="run quality control only", description=(
        "Quality-gate each recording without classifying it. Accepted is "
        "the quality gate's verdict: features are not computed."))
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="QC ledger CSV path")
    p.add_argument("--dump-detector",
                   choices=[pipeline.REFERENCE, pipeline.TEST], default=None,
                   help="also dump this detector's peak times per patient")
    p.add_argument("--dump-dir", default=None,
                   help="directory for peak dumps (default: next to --out)")
    _add_flag(p, "workers", None, int,
              help="processes (default: all usable cores)")
    _add_settings(p, *(name for name in FIELDS if name != "afb_threshold_pct"))
    p.set_defaults(func=cmd_qc)

    return parser


def _parse_args(argv=None) -> argparse.Namespace:
    args = vars(_build_parser().parse_args(argv))  # see _add_flag
    return argparse.Namespace(**{k: v() if isinstance(v, partial) else v
                                 for k, v in args.items()})


def main(argv=None) -> int:
    try:
        # a bad AFSCREEN_* value must fail the same way flag errors do
        args = _parse_args(argv)
        return args.func(args)
    except (AfscreenError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
