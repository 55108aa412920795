"""Shared fixtures: synthetic recordings and peak series.

Everything here is seeded and deterministic. Session scope keeps the
expensive piece, signal rendering, to one run.
"""

from __future__ import annotations

import numpy as np
import pytest

from afscreen import synth
from afscreen.qrs import RPeakSeries


def make_series(times) -> RPeakSeries:
    return RPeakSeries(times=np.asarray(times, dtype=np.float64))


@pytest.fixture(scope="session")
def nsr_record():
    spec = synth.SynthSpec(rhythm_program=[(120.0, "NSR")], seed=7)
    record, _, _ = synth.synth_record(spec, patient_id="nsr")
    return record


@pytest.fixture(scope="session")
def af_record():
    spec = synth.SynthSpec(rhythm_program=[(120.0, "AF")], seed=8)
    record, _, _ = synth.synth_record(spec, patient_id="af")
    return record
