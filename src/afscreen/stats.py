"""Confusion-matrix metrics, ROC/AUROC, and the PPV non-inferiority test.

Metrics with an empty denominator are reported as None (flagged
undefined), never silently zeroed. AUROC is the rank-based
(Mann-Whitney) estimate with tied scores counted 1/2.

The non-inferiority test is the one-sided Wald z-test with unpooled
variance on the two strata's PPVs:

    z = (ppv_high - ppv_low + margin)
        / sqrt(ppv_high (1 - ppv_high) / n_high
               + ppv_low (1 - ppv_low) / n_low)

with n = tp + fp per stratum, p = 1 - Phi(z), and non-inferiority
declared iff p < alpha. Phi is computed from math.erf, which is
correctly rounded (error well under 1e-7).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .record_io import AF, NON_AF, PatientMeta

DEFAULT_NI_MARGIN = 0.03
DEFAULT_NI_ALPHA = 0.05
DEFAULT_AHI_CUTOFF = 15.0


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ContractViolationError(
                    f"{name} must be a non-negative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class MetricSet:
    se: float | None
    sp: float | None
    ppv: float | None
    npv: float | None
    f1: float | None


def metrics(c: ConfusionCounts) -> MetricSet:
    se = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else None
    sp = c.tn / (c.tn + c.fp) if c.tn + c.fp > 0 else None
    ppv = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else None
    npv = c.tn / (c.tn + c.fn) if c.tn + c.fn > 0 else None
    if se is None or ppv is None or se + ppv == 0:
        f1 = None
    else:
        f1 = 2.0 * se * ppv / (se + ppv)
    return MetricSet(se=se, sp=sp, ppv=ppv, npv=npv, f1=f1)


def _is_positive(label) -> bool:
    return label in (1, True, AF)


def auroc(scores) -> tuple[float | None, list[tuple[float, float]]]:
    """Mann-Whitney AUROC plus the ROC point list.

    `scores` holds (score, label) pairs; a label is positive when it is
    1, True, or the AF label. With a single class present the AUROC is
    undefined: returns (None, []).
    """
    pairs = list(scores)
    if not pairs:
        return None, []
    s = np.array([float(p) for p, _ in pairs], dtype=np.float64)
    pos = np.array([_is_positive(lb) for _, lb in pairs], dtype=bool)
    n1 = int(pos.sum())
    n0 = s.shape[0] - n1
    if n1 == 0 or n0 == 0:
        return None, []

    # One ROC point per group of tied scores, from the highest down. A
    # group's fp - fp_prev negatives lie below the tp_prev positives of
    # the groups above and tie with its own tp - tp_prev, so twice the
    # Mann-Whitney U sums (fp - fp_prev) * (tp + tp_prev), exactly.
    order = np.argsort(-s, kind="mergesort")
    ss = s[order]
    tps = np.cumsum(pos[order])
    last_of_group = np.flatnonzero(
        np.concatenate([ss[:-1] != ss[1:], [True]]))
    points = [(0.0, 0.0)]
    two_u = tp_prev = fp_prev = 0
    for i in last_of_group.tolist():
        tp = int(tps[i])
        fp = i + 1 - tp
        two_u += (fp - fp_prev) * (tp + tp_prev)
        tp_prev, fp_prev = tp, fp
        points.append((fp / n0, tp / n1))
    return two_u / (2 * n1 * n0), points


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass
class NIResult:
    z: float | None
    p: float | None
    noninferior: bool | None
    margin: float
    alpha: float


def noninferiority_ppv(high: ConfusionCounts, low: ConfusionCounts,
                       margin: float = DEFAULT_NI_MARGIN,
                       alpha: float = DEFAULT_NI_ALPHA) -> NIResult:
    """One-sided Wald test of H0: ppv_high <= ppv_low - margin."""
    if not math.isfinite(margin):
        raise ConfigurationError("non-inferiority margin must be finite")
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("non-inferiority level must lie in (0, 1)")
    n_high = high.tp + high.fp
    n_low = low.tp + low.fp
    if n_high == 0 or n_low == 0:
        return NIResult(z=None, p=None, noninferior=None, margin=margin,
                        alpha=alpha)
    p_high = high.tp / n_high
    p_low = low.tp / n_low
    num = p_high - p_low + margin
    var = (p_high * (1.0 - p_high) / n_high
           + p_low * (1.0 - p_low) / n_low)
    if var == 0.0:
        z = math.inf if num > 0 else (-math.inf if num < 0 else 0.0)
    else:
        z = num / math.sqrt(var)
    p = 1.0 - normal_cdf(z)
    return NIResult(z=z, p=p, noninferior=p < alpha, margin=margin,
                    alpha=alpha)


@dataclass
class StratumStats:
    counts: ConfusionCounts
    derived: MetricSet


@dataclass
class StrataReport:
    overall: StratumStats
    low_ahi: StratumStats
    high_ahi: StratumStats
    noninferiority: NIResult
    n_missing_ahi: int
    n_unlabeled: int


def stratify(predictions: dict[str, bool],
             metas: dict[str, PatientMeta],
             ahi_cutoff: float = DEFAULT_AHI_CUTOFF,
             margin: float = DEFAULT_NI_MARGIN,
             alpha: float = DEFAULT_NI_ALPHA) -> StrataReport:
    """Patient-level confusion matrices overall and by AHI stratum.

    `predictions` maps patient_id to the prominent-AF flag. Patients
    without an AHI value count in the overall column only; patients
    without a usable reference label are tallied and skipped.
    """
    if not math.isfinite(ahi_cutoff):
        raise ConfigurationError("AHI cutoff must be finite")
    missing = sorted(pid for pid in predictions if pid not in metas)
    if missing:
        raise ConfigurationError(
            f"no reference metadata for patients: {', '.join(missing)}")

    # each stratum counts (predicted, actual) pairs
    overall, low, high = Counter(), Counter(), Counter()
    n_missing_ahi = 0
    n_unlabeled = 0
    for pid in sorted(predictions):
        meta = metas[pid]
        if meta.reference_af_label not in (AF, NON_AF):
            n_unlabeled += 1
            continue
        key = bool(predictions[pid]), meta.reference_af_label == AF
        overall[key] += 1
        if meta.ahi is None:
            n_missing_ahi += 1
        else:
            (low if meta.ahi < ahi_cutoff else high)[key] += 1

    def stratum(cells: Counter) -> StratumStats:
        counts = ConfusionCounts(tp=cells[True, True], fp=cells[True, False],
                                 tn=cells[False, False],
                                 fn=cells[False, True])
        return StratumStats(counts=counts, derived=metrics(counts))

    overall, low, high = stratum(overall), stratum(low), stratum(high)
    ni = noninferiority_ppv(high.counts, low.counts, margin=margin,
                            alpha=alpha)
    return StrataReport(overall=overall, low_ahi=low, high_ahi=high,
                        noninferiority=ni, n_missing_ahi=n_missing_ahi,
                        n_unlabeled=n_unlabeled)
