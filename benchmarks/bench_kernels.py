"""Side-by-side timing of the two kernel backends.

Runs every hot kernel on workloads shaped like a night-long recording
(8 h at 128 Hz, 60-beat windows) under both the compiled and the
vectorized/plain backends, and prints best-of-N wall times. The numba
column includes a warmup call so JIT compilation is not billed to the
measurement. A last row times the batched featurizer on the night's
RR matrix against one single-window call per window.

Usage: python benchmarks/bench_kernels.py [--repeat N] [--hours H]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from afscreen import features, kernels


def _bench(fn, args, repeat: int) -> float:
    fn(*args)  # warmup; compiles on the numba path
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def workloads(hours: float, rng: np.random.Generator) -> dict:
    fs = 128.0
    n_samples = int(hours * 3600.0 * fs)
    n_beats = int(hours * 3600.0 / 0.8)
    n_windows = n_beats // 60

    rr = rng.uniform(300.0, 2000.0, size=(n_windows, 59))
    dr = np.diff(rr, axis=1)
    envelope = np.abs(rng.normal(0.0, 1.0, size=n_samples))
    cand = np.flatnonzero(rng.random(n_samples) < 0.02).astype(np.int64)
    peaki = np.abs(rng.normal(1.0, 0.5, size=cand.shape[0]))
    fid = np.unique(rng.integers(0, n_samples, size=n_beats * 2))

    return {
        "sampen_pair_counts": (
            f"{n_windows} windows x 59 RR",
            lambda impl: [impl(rr[i], 30.0) for i in range(n_windows)]),
        "lorenz_hist": (
            f"{n_windows} windows x 58 dRR",
            lambda impl: [impl(dr[i], 40.0, 600.0, 30)
                          for i in range(n_windows)]),
        "trailing_max": (
            f"{n_samples} samples, 150 ms window",
            lambda impl: impl(envelope, 20)),
        "refractory_pick": (
            f"{fid.shape[0]} fiducials",
            lambda impl: impl(fid, np.int64(26))),
        "pt_decide": (
            f"{cand.shape[0]} candidates",
            lambda impl: impl(cand, peaki, peaki, peaki,
                              2.0, 0.5, 2.0, 0.5, 1e-3, 1e-3, 26, 46)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions, best is reported (default 3)")
    ap.add_argument("--hours", type=float, default=8.0,
                    help="recording length the workloads mimic (default 8)")
    args = ap.parse_args(argv)

    backends = {"numpy": kernels.NUMPY_IMPL}
    if kernels.NUMBA_IMPL is not None:
        backends["numba"] = kernels.NUMBA_IMPL
    else:
        print("numba backend unavailable (not importable or disabled "
              "via AFSCREEN_NUMBA); timing the numpy backend only\n")

    rng = np.random.default_rng(0)
    table = workloads(args.hours, rng)

    name_w = max(len(k) for k in table) + 2
    cols = "".join(f"{b:>12}" for b in backends)
    print(f"active backend: {kernels.BACKEND}")
    print(f"{'kernel':<{name_w}}{cols}{'speedup':>10}  workload")
    for name, (desc, run) in table.items():
        secs = {b: _bench(lambda *a, _i=impl[name]: run(_i), (), args.repeat)
                for b, impl in backends.items()}
        cells = "".join(f"{secs[b] * 1e3:>10.2f}ms" for b in backends)
        if "numba" in secs and secs["numba"] > 0:
            ratio = f"{secs['numpy'] / secs['numba']:>9.1f}x"
        else:
            ratio = f"{'':>10}"
        print(f"{name:<{name_w}}{cells}{ratio}  {desc}")

    # one night's windows, as predict featurizes an accepted recording
    n = int(args.hours * 3600.0 / 0.8) // 60
    rr = rng.uniform(300.0, 2000.0, size=(n, 59))
    bsqi = np.ones(n)
    batched = _bench(features.feature_matrix, (rr, bsqi), args.repeat)
    single = _bench(lambda: [features.feature_matrix(rr[i:i + 1],
                                                     bsqi[i:i + 1])
                             for i in range(n)], (), args.repeat)
    print(f"\n{'feature_matrix':<{name_w}}{batched * 1e3:>10.2f}ms batched, "
          f"{single * 1e3:.2f}ms as {n} one-window calls "
          f"({single / batched:.1f}x)  {n} windows x 59 RR")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
