"""The detectors' numpy band-pass design against scipy.signal's."""

from __future__ import annotations

import pytest
from scipy.signal import butter, sosfilt_zi

from afscreen import qrs

RATES = [*range(100, 2001), 128.0, 250.0, 360.0, 500.0, 1000.0]


@pytest.mark.parametrize("band", [(5.0, 15.0), (0.5, 40.0)])
def test_design_and_initial_state_match_scipy_bit_for_bit(band):
    # every integer rate from 100 to 2000 Hz and the usual ones as floats;
    # tobytes tells -0.0 from 0.0
    for fs in RATES:
        want = butter(2, list(band), btype="bandpass", output="sos", fs=fs)
        got = qrs._butter_bandpass(float(fs), *band)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), fs
        assert qrs._sosfilt_zi(got).tobytes() == sosfilt_zi(want).tobytes(), fs
