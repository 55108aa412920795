"""Pipeline benchmark for afscreen.

Usage (from the repository root):

    python3 perfbench/run.py --workload night_edf --seed 1 --seconds 10 \\
        --trace 0
    python3 perfbench/run.py --workload all

Workloads (why each was chosen is in BENCHMARK.json):

  night_edf   one 8 h, 128 Hz, 10 dB EDF night through
              pipeline.process_entry, once per operation
  rr_cohort   `afscreen predict --workers 1` on 12 RR-series nights
  ecg_cohort  `afscreen predict --workers 2` on EDF and format-212 WFDB
              nights from clean to -5 dB, plus one corrupt file
  train       `afscreen train` on RR entries and four EDF entries with
              annotation sidecars

Each is a closed loop with one client. The script renders the seed's
inputs (cached under .bench_cache/), runs one untimed serial reference
operation for the output checks and the accuracy metrics, times set-up
in fresh interpreters, runs the workload in a separate measured process
(measure.py) and prints every metric by name with its unit, then one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced run. An output check that fails makes
``correct`` false and the exit status 1. ``failed`` counts manifest
entries that ended other than expected, over ``attempted`` entries;
their ratio is the failure share.

The program runs in-process on the numpy kernel backend, from the
``src/`` tree of this checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MEASURE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "hours_per_s": "h/s", "patient_s.p50": "s",
    "patient_s.tail": "s", "peak_rss_mb": "MB", "beat_se": "ratio",
    "beat_ppv": "ratio", "afb_agreement": "ratio", "cv_auroc": "ratio",
}

# Fresh interpreter to ready: import the package, load the model, and
# start the pool where the workload uses one. The child prints the
# moment it is ready on the monotonic clock the parent reads too.
SETUP_SNIPPET = """
import sys, time
from pathlib import Path
import afscreen.cli
from afscreen import forest
model, workers = sys.argv[1], int(sys.argv[2])
if model:
    forest.load_model(Path(model).read_bytes())
if workers > 1:
    import os
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    for f in [pool.submit(os.getpid) for _ in range(workers)]:
        f.result()
print(time.perf_counter(), flush=True)
if workers > 1:
    pool.shutdown()
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{argv[1:3]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited with {proc.returncode}")
    return out


def setup_seconds(model: Path | None, workers: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = run_child([sys.executable, "-c", SETUP_SNIPPET,
                         str(model or ""), str(workers)], timeout=60)
        times.append(float(out.split()[0]) - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    from afscreen import kernels
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "kernels_backend": kernels.BACKEND}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    import inputs
    from measure import WORKERS, Workload, reference
    inputs_dir = inputs.ensure_inputs(ROOT, workload, seed)
    model = None if workload == "train" else inputs.ensure_model(ROOT)
    work = inputs.cache_root(ROOT) / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    cv_report = model and model.with_name(model.name + ".cv.csv")
    ref = reference(Workload(workload, inputs_dir, model), work / "ref",
                    cv_report)
    (work / "reference.json").write_text(json.dumps(ref))
    setup = setup_seconds(model, WORKERS[workload])

    argv = [sys.executable, str(HERE / "measure.py"),
            "--workload", workload, "--inputs", str(inputs_dir),
            "--reference", str(work / "reference.json"),
            "--work", str(work), "--seconds", str(seconds),
            "--trace", str(trace)]
    if model is not None:
        argv += ["--model", str(model)]
    raw = json.loads(run_child(argv, MEASURE_TIMEOUT_S).splitlines()[-1])

    if trace:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in raw["per_layer"].items()}
    else:
        values = {"setup_s": setup, **raw["end_to_end"], **ref["accuracy"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": not raw["problems"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics,
            "problems": raw["problems"], "ops": raw["ops"],
            "traced_ops": raw["traced_ops"], "tail": raw.get("tail")}


def report(workload: str, res: dict) -> None:
    traced = f" and {res['traced_ops']} traced" if res["traced_ops"] else ""
    print(f"[{workload}] {res['ops']} untraced{traced} timed operations, "
          f"{res['attempted']} entries attempted, {res['failed']} failed")
    for name, m in res["metrics"].items():
        note = ""
        if name == "patient_s.tail" and res["tail"]:
            note = (f"  (p{res['tail']['percentile']:.1f} of "
                    f"{res['tail']['n']} entries)")
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}{note}")
    for problem in res["problems"]:
        print(f"[{workload}] CHECK FAILED: {problem}")


def main() -> int:
    if not (SRC / "afscreen" / "__init__.py").is_file():
        print(f"error: no afscreen sources under {SRC}", file=sys.stderr)
        return 2
    # AFSCREEN_* overrides would change afscreen's defaults under the
    # benchmark (some are read at import)
    for key in [k for k in os.environ if k.startswith("AFSCREEN_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(HERE)]
    from measure import WORKERS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    print("environment: " + json.dumps(environment(), sort_keys=True))
    chosen = list(WORKERS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in chosen:
        results[workload] = run_workload(workload, args.seed, args.seconds,
                                         args.trace)
        report(workload, results[workload])

    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, res in results.items()
                   for name, m in res["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
