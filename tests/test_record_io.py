"""Container formats: EDF, WFDB 212/16, and the RR CSV interchange.

The EDF fixture below is packed by hand, field by field, so the parser
is tested against an independently constructed byte layout rather than
against the package's own writer.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afscreen import synth
from afscreen.errors import (ChannelNotFoundError, ConfigurationError,
                             ContractViolationError, OrderingError,
                             ParseError, TruncationError,
                             UnsupportedFormatError)
from afscreen.record_io import (AF, OTHER, EcgRecord, RhythmAnnotations,
                                decode_212, encode_212, parse_edf,
                                parse_rr_csv, parse_wfdb, write_edf,
                                write_rr_csv)
from conftest import make_series


# ---------------------------------------------------------------------------
# hand-packed EDF
# ---------------------------------------------------------------------------

def pack_edf(n_records="2", duration="1", labels=("Resp", "ECG II"),
             pmin=("-1", "-5"), pmax=("1", "5"),
             dmin=("-2048", "-2048"), dmax=("2047", "2047"),
             spr=("2", "4"), payload=None, header_bytes=None):
    ns = len(labels)

    def f(text, width):
        b = str(text).encode("ascii")
        assert len(b) <= width
        return b.ljust(width)

    head = b"".join([
        f("0", 8), f("test patient", 80), f("test recording", 80),
        f("01.01.00", 8), f("00.00.00", 8),
        f(header_bytes if header_bytes is not None else 256 + 256 * ns, 8),
        f("", 44), f(n_records, 8), f(duration, 8), f(ns, 4),
    ])
    cols = [
        (labels, 16), (("",) * ns, 80), (("", "mV"), 8),
        (pmin, 8), (pmax, 8), (dmin, 8), (dmax, 8),
        (("",) * ns, 80), (spr, 8), (("",) * ns, 32),
    ]
    sig = b"".join(f(vals[i], width) for vals, width in cols
                   for i in range(ns))
    if payload is None:
        payload = np.array([7, -7, 0, 1023, -1024, 2047,
                            3, -3, -2048, 5, -5, 100], dtype="<i2").tobytes()
    return head + sig + payload


def test_parse_edf_hand_packed_values():
    rec = parse_edf(pack_edf(), channel="ECG")
    assert rec.fs == 4.0
    assert rec.samples.shape == (8,)
    digital = np.array([0, 1023, -1024, 2047, -2048, 5, -5, 100])
    want = (digital + 2048.0) * 10.0 / 4095.0 - 5.0
    assert np.allclose(rec.samples, want, rtol=0, atol=1e-12)
    assert rec.duration_s == 2.0


def test_parse_edf_channel_by_index():
    first = parse_edf(pack_edf(), channel=0)
    assert first.fs == 2.0 and first.samples.shape == (4,)
    digital = np.array([7, -7, 3, -3])
    want = (digital + 2048.0) * 2.0 / 4095.0 - 1.0
    assert np.allclose(first.samples, want, rtol=0, atol=1e-12)


def test_parse_edf_channel_none_means_ecg():
    data = pack_edf()
    ecg = parse_edf(data, channel="ECG").samples
    assert np.array_equal(parse_edf(data).samples, ecg)
    assert np.array_equal(parse_edf(data, channel=None).samples, ecg)
    assert np.array_equal(parse_edf(data, channel=1).samples, ecg)


def test_parse_edf_channel_substring_case_insensitive():
    rec = parse_edf(pack_edf(), channel="ecg")
    assert rec.fs == 4.0


def test_parse_edf_missing_channel_lists_labels():
    with pytest.raises(ChannelNotFoundError) as err:
        parse_edf(pack_edf(), channel="PPG")
    assert "Resp" in str(err.value) and "ECG II" in str(err.value)


def test_parse_edf_truncated_payload_reports_sizes():
    data = pack_edf()
    with pytest.raises(TruncationError) as err:
        parse_edf(data[:-4], channel="ECG")
    assert err.value.expected > err.value.actual


def test_parse_edf_bad_numeric_field_has_offset():
    data = bytearray(pack_edf())
    data[236:244] = b"oops    "
    with pytest.raises(ParseError) as err:
        parse_edf(bytes(data), channel="ECG")
    assert "236" in str(err.value)


@pytest.mark.parametrize("pmin, pmax, message", [
    ("nan", "5", "non-finite physical minimum field 'nan'"),
    ("-5", "nan", "non-finite physical maximum field 'nan'"),
    ("-inf", "5", "non-finite physical minimum field '-inf'"),
    ("-1e308", "1e308", "non-finite samples"),
])
def test_parse_edf_corrupt_calibration_is_parse_error(pmin, pmax, message):
    # a record of NaN or infinite samples would reach the detectors and
    # be reported as a QC exclusion instead of a parse failure
    with pytest.raises(ParseError) as err:
        parse_edf(pack_edf(pmin=("-1", pmin), pmax=("1", pmax)),
                  channel="ECG")
    assert message in str(err.value)


def test_parse_edf_unknown_record_count_derived_from_payload():
    rec = parse_edf(pack_edf(n_records="-1"), channel="ECG")
    assert rec.samples.shape == (8,)


def test_parse_edf_empty_digital_range_names_its_field():
    # the ECG signal's digital minimum starts at 256 + 2 * 120 + 1 * 8
    with pytest.raises(ParseError) as err:
        parse_edf(pack_edf(dmin=("-2048", "5"), dmax=("2047", "5")),
                  channel="ECG")
    assert err.value.offset == 504
    assert "digital range must be positive, got [5, 5]" in str(err.value)


# byte offset, width and message name of each numeric static-header
# field, and of each numeric subheader field of signal 1 in a
# two-signal file (field-major: signal 0's cell, then signal 1's)
EDF_NUMERIC_CELLS = [
    (184, 8, "header size"), (236, 8, "record count"),
    (244, 8, "record duration"), (252, 4, "signal count"),
    (472, 8, "physical minimum"), (488, 8, "physical maximum"),
    (504, 8, "digital minimum"), (520, 8, "digital maximum"),
    (696, 8, "samples per record"),
]


@pytest.mark.parametrize("offset, width, what", EDF_NUMERIC_CELLS)
def test_parse_edf_non_numeric_field_names_its_cell(offset, width, what):
    data = bytearray(pack_edf())
    data[offset:offset + width] = b"oops".ljust(width)
    with pytest.raises(ParseError) as err:
        parse_edf(bytes(data), channel="ECG")
    assert err.value.offset == offset
    assert f"non-numeric {what} field 'oops'" in str(err.value)


@pytest.mark.parametrize("spr, offset", [(("-2", "4"), 688),
                                         (("2", "-4"), 696)])
def test_parse_edf_negative_samples_per_record(spr, offset):
    # a negative count once shifted the picked signal's slice into its
    # neighbour's samples, whichever signal carried it
    with pytest.raises(ParseError) as err:
        parse_edf(pack_edf(spr=spr, n_records="-1"), channel="ECG")
    assert err.value.offset == offset
    assert "samples per record must be >= 0" in str(err.value)


@pytest.mark.parametrize("spr, channel, offset", [
    (("2", "0"), "ECG", 696),
    (("0", "0"), "ECG", 696),
    (("0", "0"), 0, 688),
    (("0", "4"), "resp", 688),
])
def test_parse_edf_picked_signal_without_samples(spr, channel, offset):
    # with n_records -1 and every signal empty, the payload once read as
    # truncated ("expected 0 bytes, found 24")
    with pytest.raises(ParseError) as err:
        parse_edf(pack_edf(spr=spr, n_records="-1"), channel=channel)
    assert err.value.offset == offset
    assert "0 samples per record" in str(err.value)


def test_parse_edf_unpicked_signal_may_hold_no_samples():
    digital = np.array([7, -7, 0, 1023, -1024, 2047, 3, -3])
    rec = parse_edf(pack_edf(spr=("0", "4"),
                             payload=digital.astype("<i2").tobytes()),
                    channel="ECG")
    want = (digital + 2048.0) * 10.0 / 4095.0 - 5.0
    assert rec.fs == 4.0
    assert np.allclose(rec.samples, want, rtol=0, atol=1e-12)


def test_parse_edf_header_size_mismatch():
    with pytest.raises(ParseError):
        parse_edf(pack_edf(header_bytes=9999), channel="ECG")


def test_parse_edf_short_header():
    with pytest.raises(TruncationError):
        parse_edf(b"0" * 100)


def test_edf_write_parse_round_trip_within_quantization():
    rng = np.random.default_rng(5)
    samples = rng.normal(0.0, 0.4, size=1280)
    rec = EcgRecord(patient_id="rt", samples=samples, fs=128.0)
    back = parse_edf(write_edf(rec), channel="ECG")
    assert back.fs == 128.0
    step = (samples.max() - samples.min()) / 65535.0
    assert np.max(np.abs(back.samples - samples)) <= step * 0.5 + 1e-12


def test_edf_round_trip_is_byte_stable():
    rng = np.random.default_rng(6)
    rec = EcgRecord(patient_id="rt2", samples=rng.normal(size=640), fs=64.0)
    first = write_edf(rec)
    second = write_edf(parse_edf(first, channel="ECG"))
    assert first == second


@functools.cache
def edf_round_trip(scale):
    # a 60 s, 10 dB render times scale, and its EDF header and samples
    spec = synth.SynthSpec(rhythm_program=[(60.0, "NSR")], seed=1,
                           noise_snr_db=10.0)
    rec, _, _ = synth.synth_record(spec, patient_id="scale")
    x = rec.samples * scale
    data = write_edf(EcgRecord(patient_id="scale", samples=x, fs=rec.fs))
    return x, data, parse_edf(data, channel="ECG").samples[:x.shape[0]]


@pytest.mark.parametrize("scale", [1.0, 1.7e-3, 3.3e-6, 1e-12, 1e-250])
def test_edf_round_trip_keeps_every_sample_at_any_scale(scale):
    # The printed physical range once fell short of the data in its last
    # digit, which clipped the extreme sample, and was widened by an
    # absolute 1e-9, which left a tiny record a few levels or one.
    x, data, back = edf_round_trip(scale)
    pmin, pmax = float(data[360:368]), float(data[368:376])
    assert pmin <= x.min() and x.max() <= pmax
    step = (pmax - pmin) / 65535.0
    assert np.max(np.abs(back - x)) <= 0.5 * step * (1.0 + 1e-6)
    levels = np.unique(edf_round_trip(1.0)[2]).shape[0]
    assert np.unique(back).shape[0] >= levels / 2


def test_edf_write_constant_signal():
    rec = EcgRecord(patient_id="flat", samples=np.full(600, 0.25), fs=30.0)
    back = parse_edf(write_edf(rec), channel="ECG")
    assert np.allclose(back.samples, 0.25, atol=1e-4)


def test_edf_write_fractional_fs_uses_longer_records():
    rec = EcgRecord(patient_id="half",
                    samples=np.arange(1275, dtype=float) / 1275.0, fs=127.5)
    back = parse_edf(write_edf(rec), channel="ECG")
    assert back.fs == 127.5
    assert back.samples.shape[0] >= 1275


def test_write_edf_header_cells():
    rec = EcgRecord(patient_id="p7", samples=np.linspace(-1.5, 2.25, 300),
                    fs=128.0)
    data = write_edf(rec)
    # (offset, width, text) of every cell: 10 header, 10 signal fields
    cells = [(0, 8, "0"), (8, 80, "p7"), (88, 80, ""), (168, 8, "01.01.00"),
             (176, 8, "00.00.00"), (184, 8, "512"), (192, 44, ""),
             (236, 8, "3"), (244, 8, "1"), (252, 4, "1"),
             (256, 16, "ECG"), (272, 80, ""), (352, 8, "mV"),
             (360, 8, "-1.5"), (368, 8, "2.25"), (376, 8, "-32768"),
             (384, 8, "32767"), (392, 80, ""), (472, 8, "128"),
             (480, 32, "")]
    assert len(data) == 512 + 2 * 3 * 128
    for offset, width, text in cells:
        cell = data[offset:offset + width]
        assert cell == text.encode().ljust(width), offset
    assert sum(width for _, width, _ in cells) == 512


@pytest.mark.parametrize("patient_id, message", [
    ("p" * 81, "EDF field value 'ppp.*' exceeds 80 characters"),
    ("p\u00e9", "EDF field value 'p\u00e9' is not ASCII"),
])
def test_write_edf_rejects_cells_it_cannot_encode(patient_id, message):
    rec = EcgRecord(patient_id=patient_id, samples=np.zeros(128), fs=128.0)
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        write_edf(rec)


@pytest.mark.parametrize("lo, hi", [(-1e305, 1e305), (0.0, 1e304),
                                    (-1.7976931348623157e308, 0.0),
                                    (1e308, 1.7976931348623157e308)])
def test_write_edf_refuses_a_range_it_cannot_calibrate(lo, hi):
    # parse_edf multiplies by the physical range before it divides by
    # the digital one, so these overflow on reading; they are refused
    # before any sample is encoded, without a warning
    rec = EcgRecord(patient_id="wide", samples=np.repeat([lo, hi], 128),
                    fs=128.0)
    with pytest.raises(ConfigurationError, match="too wide for EDF"):
        write_edf(rec)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e300, max_value=1.7976931348623157e308),
       st.sampled_from([1.0, -1.0]), st.booleans())
def test_write_edf_writes_only_what_parse_edf_reads(scale, sign, offset):
    # around the largest range that still calibrates: a record is
    # refused, or written as a file that parses to finite samples
    x = sign * scale * np.sin(np.arange(256) / 7.0)
    if offset:
        x = np.abs(x)
    rec = EcgRecord(patient_id="edge", samples=x, fs=128.0)
    try:
        data = write_edf(rec)
    except ConfigurationError:
        return
    assert np.isfinite(parse_edf(data).samples).all()


# ---------------------------------------------------------------------------
# WFDB
# ---------------------------------------------------------------------------

def test_decode_212_contract_bytes():
    assert decode_212(bytes([0x01, 0x00, 0x02])).tolist() == [1, 2]
    assert decode_212(bytes([0xFF, 0x0F, 0x00])).tolist() == [-1, 0]


def test_decode_212_sign_extension_boundaries():
    # 2047 then -2048: nibbles 0x7FF and 0x800
    packed = encode_212(np.array([2047, -2048]))
    assert decode_212(packed).tolist() == [2047, -2048]


def test_decode_212_truncated():
    with pytest.raises(TruncationError):
        decode_212(bytes([0x01, 0x00]))


def test_encode_212_rejects_out_of_range():
    with pytest.raises(ContractViolationError):
        encode_212(np.array([5000, 0]))
    with pytest.raises(ContractViolationError):
        encode_212(np.array([1, 2, 3]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-2048, max_value=2047),
                min_size=2, max_size=60).filter(lambda v: len(v) % 2 == 0))
def test_212_repack_identity(values):
    arr = np.asarray(values)
    packed = encode_212(arr)
    assert np.array_equal(decode_212(packed), arr)
    assert encode_212(decode_212(packed)) == packed


HEADER_2SIG = """\
rec 2 128 6
# comment line ignored
rec.dat 212 200 12 0 0 0 0 ECG lead II
rec.dat 212 100(3) 12 0 5 0 0 Resp belt
"""


def wfdb_payload_212():
    # frames interleave the two signals
    interleaved = np.array([10, 3, -200, 3, 400, 103,
                            2047, -2045, -2048, 3, 0, 3])
    return encode_212(interleaved)


def test_parse_wfdb_212_scaling_and_selection():
    rec = parse_wfdb(HEADER_2SIG, wfdb_payload_212())
    assert rec.fs == 128.0
    assert rec.patient_id == "rec"
    want = np.array([10, -200, 400, 2047, -2048, 0]) / 200.0
    assert np.allclose(rec.samples, want, atol=0, rtol=0)


def test_parse_wfdb_baseline_in_parens():
    rec = parse_wfdb(HEADER_2SIG, wfdb_payload_212(), channel="Resp")
    want = (np.array([3, 3, 103, -2045, 3, 3]) - 3) / 100.0
    assert np.allclose(rec.samples, want)


def test_parse_wfdb_gain_zero_defaults_to_200():
    header = "r 1 360 4\nr.dat 16 0 12 0 0 0 0 ECG\n"
    payload = np.array([200, -200, 400, 0], dtype="<i2").tobytes()
    rec = parse_wfdb(header, payload)
    assert np.allclose(rec.samples, [1.0, -1.0, 2.0, 0.0])


def test_parse_wfdb_baseline_defaults_to_adc_zero():
    header = "r 1 360 4\nr.dat 16 100 12 50 0 0 0 ECG\n"
    payload = np.array([150, 50, 250, 50], dtype="<i2").tobytes()
    rec = parse_wfdb(header, payload)
    assert np.allclose(rec.samples, [1.0, 0.0, 2.0, 0.0])


def test_parse_wfdb_format16_sign():
    header = "r 1 250 1\nr.dat 16 200 16 0 0 0 0 ECG\n"
    rec = parse_wfdb(header, bytes([0x00, 0x80]))
    assert rec.samples[0] == -32768 / 200.0


def test_parse_wfdb_default_fs_without_field():
    header = "r 1\nr.dat 16 200 16 0 0 0 0 ECG\n"
    rec = parse_wfdb(header, np.zeros(4, dtype="<i2").tobytes())
    assert rec.fs == 250.0


def test_parse_wfdb_counter_suffix_in_fs():
    header = "r 1 128/0 4\nr.dat 16 200 16 0 0 0 0 ECG\n"
    rec = parse_wfdb(header, np.zeros(4, dtype="<i2").tobytes())
    assert rec.fs == 128.0


def test_parse_wfdb_mixed_formats_rejected():
    header = "r 2 128 4\nr.dat 212 200 12 0 0 0 0 ECG\n" \
             "r.dat 16 200 16 0 0 0 0 Resp\n"
    with pytest.raises(UnsupportedFormatError):
        parse_wfdb(header, b"\x00" * 12)


def test_parse_wfdb_unsupported_format():
    header = "r 1 128 4\nr.dat 80 200 8 0 0 0 0 ECG\n"
    with pytest.raises(UnsupportedFormatError):
        parse_wfdb(header, b"\x00" * 12)


def test_parse_wfdb_single_signal_needs_no_channel():
    header = "r 1 250 2\nr.dat 16 200 16 0 0 0 0 Arterial pressure\n"
    rec = parse_wfdb(header, np.zeros(2, dtype="<i2").tobytes())
    assert rec.samples.shape == (2,)


def test_parse_wfdb_truncated_payload():
    header = "r 1 250 100\nr.dat 16 200 16 0 0 0 0 ECG\n"
    with pytest.raises(TruncationError):
        parse_wfdb(header, np.zeros(4, dtype="<i2").tobytes())


@pytest.mark.parametrize("gain, message", [
    ("nan", "non-finite gain token 'nan'"),
    ("inf/mV", "non-finite gain token 'inf/mV'"),
    ("-inf(0)", "non-finite gain token '-inf(0)'"),
    ("1e-320", "non-finite samples"),
])
def test_parse_wfdb_corrupt_gain_is_parse_error(gain, message):
    # nan gives NaN samples, inf all-zero ones, and a subnormal gain
    # overflows the samples to inf
    header = f"r 1 360 4\nr.dat 16 {gain} 12 0 0 0 0 ECG\n"
    payload = np.array([200, -200, 400, 0], dtype="<i2").tobytes()
    with pytest.raises(ParseError) as err:
        parse_wfdb(header, payload)
    assert message in str(err.value)


@pytest.mark.parametrize("header, message", [
    ("p 1 200 2\np.dat {} 200 11 0 0 0 0 ECG\n", "malformed format token"),
    ("p 1 200 2\np.dat 212 {} 11 0 0 0 0 ECG\n", "malformed gain token"),
    ("p 1 {} 2\np.dat 212 200 11 0 0 0 0 ECG\n", "malformed sampling rate"),
    ("{}\n", "malformed WFDB record line"),
    ("p 1 200 2\n{}\n", "malformed signal line"),
])
@pytest.mark.parametrize("token, quoted", [
    ("x" * 40, repr("x" * 40)),
    ("x" * 41, repr("x" * 40) + "... (41 characters)"),
])
def test_wfdb_errors_quote_at_most_40_characters(header, message, token,
                                                 quoted):
    with pytest.raises(ParseError) as err:
        parse_wfdb(header.format(token), encode_212([1, 2]))
    assert str(err.value) == f"{message} {quoted}"


@pytest.mark.parametrize("line, token", [
    ("p.dat 212 200 11 0x 0 0 0 ECG", "'0x'"),
    ("p.dat 212 200(x) 11 0 0 0 0 ECG", "'x'"),
    ("p.dat \u00b912 200 11 0 0 0 0 ECG", "'\u00b912'"),
])
def test_parse_wfdb_malformed_signal_token_is_parse_error(line, token):
    # a non-integer ADC zero or baseline, or a format that starts with
    # a non-ASCII digit, names the token instead of escaping as a
    # ValueError
    with pytest.raises(ParseError) as err:
        parse_wfdb(f"p 1 200 2\n{line}\n", encode_212([1, 2]))
    assert token in str(err.value)


# ---------------------------------------------------------------------------
# RR CSV
# ---------------------------------------------------------------------------

def test_parse_rr_csv_times_only():
    peaks, ann = parse_rr_csv("0.5\n1.3\n2.0\n")
    assert ann is None
    assert np.allclose(peaks.times, [0.5, 1.3, 2.0])


def test_parse_rr_csv_ordering_error_names_row():
    with pytest.raises(OrderingError) as err:
        parse_rr_csv("0.5\n1.3\n1.3\n2.0\n")
    assert err.value.row == 3


def test_parse_rr_csv_bad_float():
    with pytest.raises(ParseError) as err:
        parse_rr_csv("0.5\nxyz\n")
    assert "row 2" in str(err.value)


@pytest.mark.parametrize("text,row", [
    ("0\n1\ninf\n", 3), ("nan\n1.0\n", 1), ("0.5\n-inf,AF\n", 2),
    ("0.5\n1.0\n1e400\n", 3)])
def test_parse_rr_csv_rejects_non_finite_times(text, row):
    with pytest.raises(ParseError) as err:
        parse_rr_csv(text)
    assert f"at row {row}" in str(err.value)
    assert "non-finite" in str(err.value)


def test_parse_rr_csv_rhythm_column_episodes():
    text = "0.0,OTHER\n0.8,AF\n1.6,AF\n2.4,AF\n3.2,OTHER\n4.0,OTHER\n"
    peaks, ann = parse_rr_csv(text)
    assert ann is not None
    assert ann.episodes == [(0.8, 2.4, AF), (3.2, 4.0, OTHER)]


def test_parse_rr_csv_rhythm_label_af_in_any_case():
    text = ("0.0,N\n0.8,N\n1.6,af\n2.4,Af\n3.2, aF \n4.0,N\n4.8,N\n"
            "5.6,AFL\n6.4,AFL\n")
    _, ann = parse_rr_csv(text)
    assert ann.episodes == [(0.0, 0.8, OTHER), (1.6, 3.2, AF),
                            (4.0, 6.4, OTHER)]


def test_parse_rr_csv_single_beat_runs_dropped():
    text = "0.0,AF\n1.0,OTHER\n2.0,AF\n3.0,AF\n"
    _, ann = parse_rr_csv(text)
    assert ann.episodes == [(2.0, 3.0, AF)]


def test_parse_rr_csv_partial_rhythm_column_rejected():
    with pytest.raises(ParseError):
        parse_rr_csv("0.0,AF\n1.0\n2.0,AF\n")
    with pytest.raises(ParseError):
        parse_rr_csv("0.0\n1.0,AF\n")


def test_rr_csv_round_trip_with_labels():
    times = np.arange(40) * 0.8
    ann = RhythmAnnotations(episodes=[
        (times[1], times[10], AF), (times[11], times[20], OTHER),
        (times[30], times[39], AF)])
    text = write_rr_csv(make_series(times), ann)
    peaks, back = parse_rr_csv(text)
    assert np.array_equal(peaks.times, times)
    af_spans = [(s, e) for s, e, r in back.episodes if r == AF]
    assert af_spans == [(times[1], times[10]), (times[30], times[39])]


def test_write_rr_csv_text():
    peaks = make_series([0.5, 1.25, 2.0, 3.0])
    assert write_rr_csv(peaks) == "0.5\n1.25\n2.0\n3.0\n"
    ann = RhythmAnnotations([(1.25, 2.0, AF)])
    assert write_rr_csv(peaks, ann) == \
        "0.5,OTHER\n1.25,AF\n2.0,AF\n3.0,OTHER\n"
    assert write_rr_csv(make_series([])) == ""


def test_rr_csv_round_trip_times_exact():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.3, 2.0, size=200))
    text = write_rr_csv(make_series(times))
    peaks, _ = parse_rr_csv(text)
    assert np.array_equal(peaks.times, times)
