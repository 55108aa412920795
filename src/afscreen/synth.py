"""Deterministic synthetic RR series and ECG waveforms.

Three rhythm programs drive the RR generator:

* NSR: intervals drawn from Normal(mean_rr, nsr_sd), modulated by a
  0.25 Hz sinusoid at +-3% (respiratory-style variation).
* AF: intervals i.i.d. Normal(mean_rr, af_sd), clipped to
  [300, 2000] ms.
* ECTOPY: the NSR process with every k-th interval replaced by a
  short-long couplet (0.7x then a compensatory 1.3x), the trigeminy-like
  pattern that stresses the premature-beat feature.

The waveform renderer places a 1 mV Gaussian QRS (sigma 7.5 ms, so the
bulk spans ~30 ms) at each beat, plus a 0.1 mV P bump 180 ms before and
a 0.15 mV T bump 280 ms after it, with optional additive white noise.
The signal-to-noise ratio is a power ratio against the rendered
waveform: noise sigma = waveform RMS * 10^(-snr_db/20), so 0 dB means
noise power equals signal power.

Everything is a pure function of its arguments; the same seed yields
byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .record_io import AF, OTHER, EcgRecord, RhythmAnnotations, RPeakSeries

NSR = "NSR"
ECTOPY = "ECTOPY"

RR_CLIP_MS = (300.0, 2000.0)
QRS_AMPLITUDE_MV = 1.0
QRS_SIGMA_S = 0.0075
P_AMPLITUDE_MV = 0.1
P_SIGMA_S = 0.020
P_OFFSET_S = -0.180
T_AMPLITUDE_MV = 0.15
T_SIGMA_S = 0.050
T_OFFSET_S = 0.280


@dataclass
class SynthSpec:
    """Recipe for one synthetic recording."""

    rhythm_program: list[tuple[float, str]]
    seed: int = 0
    fs: float = 128.0
    noise_snr_db: float | None = None
    mean_rr: float = 800.0
    nsr_sd: float = 30.0
    af_sd: float = 150.0
    ectopy_k: int = 3

    def __post_init__(self) -> None:
        if not self.rhythm_program:
            raise ContractViolationError("rhythm program must be non-empty")
        for duration, rhythm in self.rhythm_program:
            if not 0 < duration < math.inf:
                raise ContractViolationError(
                    f"program durations must be finite and > 0, got "
                    f"{duration}")
            if rhythm not in (NSR, AF, ECTOPY):
                raise ContractViolationError(
                    f"rhythm must be one of {NSR!r}, {AF!r}, {ECTOPY!r}, "
                    f"got {rhythm!r}")
        if self.ectopy_k < 2:
            raise ContractViolationError("ectopy_k must be >= 2")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        # a NaN interval never reaches a segment's end, so generation
        # would run until memory ran out
        if not 0.0 < self.mean_rr < math.inf:
            raise ConfigurationError(
                f"mean RR must be finite and > 0, got {self.mean_rr}")
        for name, sd in (("NSR", self.nsr_sd), ("AF", self.af_sd)):
            if not 0.0 <= sd < math.inf:
                raise ConfigurationError(
                    f"{name} RR SD must be finite and >= 0, got {sd}")
        if not 0.0 < self.fs < math.inf:
            raise ConfigurationError(
                f"fs must be finite and > 0, got {self.fs}")
        if self.noise_snr_db is not None and not math.isfinite(
                self.noise_snr_db):
            raise ConfigurationError(
                f"SNR must be finite, got {self.noise_snr_db}")


def gen_rr(spec: SynthSpec) -> tuple[RPeakSeries, RhythmAnnotations]:
    """Generate beat times and exact program-aligned rhythm episodes."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = RR_CLIP_MS
    times: list[float] = []
    episodes: list[tuple[float, float, str]] = []
    t = 0.0
    seg_start = 0.0
    beat_count = 0
    for duration, rhythm in spec.rhythm_program:
        seg_end = seg_start + duration
        episodes.append((seg_start, seg_end, AF if rhythm == AF else OTHER))
        while True:
            if rhythm == AF:
                rr = float(np.clip(rng.normal(spec.mean_rr, spec.af_sd),
                                   lo, hi))
                step = (rr / 1000.0,)
            else:
                rr = rng.normal(spec.mean_rr, spec.nsr_sd)
                rr *= 1.0 + 0.03 * math.sin(2.0 * math.pi * 0.25 * t)
                rr = float(np.clip(rr, lo, hi))
                if rhythm == ECTOPY and (beat_count + 1) % spec.ectopy_k == 0:
                    step = (0.7 * rr / 1000.0, 1.3 * rr / 1000.0)
                else:
                    step = (rr / 1000.0,)
            if t + sum(step) > seg_end:
                break
            for s in step:
                t += s
                times.append(t)
            beat_count += 1
        seg_start = seg_end

    peaks = RPeakSeries(times=np.asarray(times, dtype=np.float64))
    return peaks, RhythmAnnotations(episodes=episodes)


def _add_bumps(signal: np.ndarray, fs: float, centers: np.ndarray,
               amplitude: float, sigma_s: float) -> None:
    half = int(math.ceil(4.0 * sigma_s * fs))
    n = signal.shape[0]
    for c in centers:
        ci = c * fs
        lo = max(int(math.floor(ci)) - half, 0)
        hi = min(int(math.ceil(ci)) + half + 1, n)
        if hi <= lo:
            continue
        t = (np.arange(lo, hi) - ci) / fs
        signal[lo:hi] += amplitude * np.exp(-0.5 * (t / sigma_s) ** 2)


def gen_ecg(peaks: RPeakSeries, fs: float,
            noise_snr_db: float | None = None, *,
            duration_s: float | None = None,
            seed: int = 0,
            patient_id: str = "synth") -> EcgRecord:
    """Render beat times into a sampled ECG with optional noise.

    The input peak times are the ground truth; they are not altered by
    rendering. An empty peak list yields a flat record of the requested
    duration (which is then mandatory). noise_snr_db is the usual power
    ratio: noise sigma equals the rendered waveform's RMS scaled by
    10^(-snr/20), so 0 dB means noise power equals signal power.
    """
    if duration_s is None:
        if len(peaks) == 0:
            raise ContractViolationError(
                "duration_s is required when no peaks are given")
        duration_s = float(peaks.times[-1]) + 1.0
    n = int(round(duration_s * fs))
    if n < 1:
        raise ContractViolationError("requested duration renders no samples")
    signal = np.zeros(n, dtype=np.float64)
    centers = peaks.times
    _add_bumps(signal, fs, centers, QRS_AMPLITUDE_MV, QRS_SIGMA_S)
    _add_bumps(signal, fs, centers + P_OFFSET_S, P_AMPLITUDE_MV, P_SIGMA_S)
    _add_bumps(signal, fs, centers + T_OFFSET_S, T_AMPLITUDE_MV, T_SIGMA_S)
    if noise_snr_db is not None:
        rms = math.sqrt(float(np.mean(signal * signal)))
        if rms == 0.0:
            raise ContractViolationError(
                "an SNR cannot be set against a silent render")
        sigma = rms * 10.0 ** (-noise_snr_db / 20.0)
        rng = np.random.default_rng(seed)
        signal += rng.normal(0.0, sigma, n)
    return EcgRecord(patient_id=patient_id, samples=signal, fs=fs)


def synth_record(spec: SynthSpec, patient_id: str = "synth"
                 ) -> tuple[EcgRecord, RPeakSeries, RhythmAnnotations]:
    """Full recipe: RR program, then waveform at the recipe's fs and SNR."""
    peaks, annotations = gen_rr(spec)
    total = sum(d for d, _ in spec.rhythm_program)
    record = gen_ecg(peaks, spec.fs, spec.noise_snr_db,
                     duration_s=total, seed=spec.seed + 1,
                     patient_id=patient_id)
    return record, peaks, annotations
