"""Recording and annotation I/O.

Readers for the three supported on-disk forms of a single-channel ECG
recording, plus the matching writers used by the synthetic generators,
qc's peak dumps and the test suite:

* EDF: 256-byte fixed-width ASCII header, one 256-byte subheader per
  signal, then data records of 16-bit little-endian two's-complement
  samples. Physical units are restored from the per-signal digital and
  physical ranges at parse time, exactly once.
* WFDB-style header + .dat payload, formats 212 (two 12-bit samples
  packed into 3 bytes) and 16 (plain int16 little-endian).
* RR CSV: one beat time per row, ``t_seconds[,rhythm]``, the optional
  rhythm column compiled into rhythm episodes.

The in-memory forms live here too: EcgRecord (samples), RPeakSeries
(beat times, read from an RR CSV or found by qrs's detectors) and
RhythmAnnotations (episodes).

Only these formats are supported; anything else is rejected loudly.
Channel selection is by case-insensitive substring on the signal label
(default "ECG") or by integer index.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelNotFoundError,
    ConfigurationError,
    ContractViolationError,
    OrderingError,
    ParseError,
    TruncationError,
    UnsupportedFormatError,
)

AF = "AF"
NON_AF = "nonAF"
UNKNOWN = "unknown"
OTHER = "OTHER"

EDF_DIGITAL_MIN = -32768
EDF_DIGITAL_MAX = 32767
DEFAULT_CHANNEL = "ECG"  # the label substring a channel of None selects


@dataclass
class PatientMeta:
    """Per-patient context carried alongside the signal."""

    ahi: float | None = None
    reference_af_label: str = UNKNOWN

    def __post_init__(self) -> None:
        if self.ahi is not None:
            if not math.isfinite(self.ahi) or self.ahi < 0:
                raise ContractViolationError(
                    f"ahi must be finite and >= 0, got {self.ahi}")
        if self.reference_af_label not in (AF, NON_AF, UNKNOWN):
            raise ContractViolationError(
                f"reference_af_label must be one of {AF!r}, {NON_AF!r}, "
                f"{UNKNOWN!r}, got {self.reference_af_label!r}")


@dataclass
class EcgRecord:
    """Sampled single-channel ECG in physical units (millivolts)."""

    patient_id: str
    samples: np.ndarray
    fs: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not (self.fs > 0):
            raise ContractViolationError(f"fs must be > 0, got {self.fs}")
        if self.samples.ndim != 1 or self.samples.shape[0] < 1:
            raise ContractViolationError("samples must be a non-empty 1-D array")

    @property
    def duration_s(self) -> float:
        return self.samples.shape[0] / self.fs


@dataclass
class RPeakSeries:
    """Strictly increasing R-peak times (seconds)."""

    times: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1:
            raise ContractViolationError("peak times must be 1-D")
        if self.times.shape[0] > 1 and not np.all(np.diff(self.times) > 0):
            raise ContractViolationError(
                "peak times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass
class RhythmAnnotations:
    """Non-overlapping rhythm episodes (start_s, end_s, rhythm)."""

    episodes: list[tuple[float, float, str]]

    def __post_init__(self) -> None:
        prev_end = -math.inf
        for ep in self.episodes:
            start, end, rhythm = ep
            if not start < end:
                raise ContractViolationError(
                    f"episode start must precede end, got {ep}")
            if start < prev_end:
                raise ContractViolationError(
                    f"episodes must be sorted and non-overlapping, got {ep}")
            if rhythm not in (AF, OTHER):
                raise ContractViolationError(
                    f"rhythm must be {AF!r} or {OTHER!r}, got {rhythm!r}")
            prev_end = end

    @property
    def span(self) -> tuple[float, float]:
        if not self.episodes:
            return (0.0, 0.0)
        return (self.episodes[0][0], self.episodes[-1][1])

    def af_overlap_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] covered by AF episodes."""
        total = 0.0
        for start, end, rhythm in self.episodes:
            if rhythm != AF:
                continue
            lo = max(t0, start)
            hi = min(t1, end)
            if hi > lo:
                total += hi - lo
        return total


# ---------------------------------------------------------------------------
# EDF
# ---------------------------------------------------------------------------

_EDF_HEAD_FIELDS = (
    ("version", 8),
    ("patient", 80),
    ("recording", 80),
    ("start_date", 8),
    ("start_time", 8),
    ("header_bytes", 8),
    ("reserved", 44),
    ("n_records", 8),
    ("record_duration", 8),
    ("n_signals", 4),
)

_EDF_SIGNAL_FIELDS = (
    ("label", 16),
    ("transducer", 80),
    ("dimension", 8),
    ("physical_min", 8),
    ("physical_max", 8),
    ("digital_min", 8),
    ("digital_max", 8),
    ("prefiltering", 80),
    ("samples_per_record", 8),
    ("reserved", 32),
)

# (field, type, name in messages) of the numeric fields, in file order
_EDF_HEAD_NUMBERS = (("header_bytes", int, "header size"),
                     ("n_records", int, "record count"),
                     ("record_duration", float, "record duration"),
                     ("n_signals", int, "signal count"))
_EDF_SIGNAL_NUMBERS = (("physical_min", float, "physical minimum"),
                       ("physical_max", float, "physical maximum"),
                       ("digital_min", int, "digital minimum"),
                       ("digital_max", int, "digital maximum"),
                       ("samples_per_record", int, "samples per record"))


def _edf_cells(fields, start: int = 0, count: int = 1,
               ) -> dict[str, list[tuple[int, int]]]:
    """(offset, width) of each field's count cells, laid out from start.

    EDF stores a subheader field for all signals before the next field.
    """
    cells = {}
    for name, width in fields:
        cells[name] = [(start + i * width, width) for i in range(count)]
        start += count * width
    return cells


def _ascii_field(data: bytes, offset: int, width: int) -> str:
    return data[offset:offset + width].decode("ascii", errors="replace").strip()


def _numeric_field(data: bytes, offset: int, width: int,
                   kind: type, what: str):
    text = _ascii_field(data, offset, width)
    try:
        value = kind(text)
    except ValueError:
        raise ParseError(
            f"non-numeric {what} field {text!r}", offset=offset) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} field {text!r}", offset=offset)
    return value


def _edf_numbers(data: bytes, cells: dict, table) -> list[list]:
    """Each numeric field of table, one value per cell, field by field."""
    return [[_numeric_field(data, *cell, kind, what) for cell in cells[name]]
            for name, kind, what in table]


def _check_finite(physical: np.ndarray) -> None:
    # Finite but extreme calibration constants can still overflow; such
    # a record is corrupt, not a quiet night.
    if not np.isfinite(physical).all():
        raise ParseError("calibration gives non-finite samples")


def _select_channel(labels: list[str], channel: str | int | None) -> int:
    if channel is None:
        channel = DEFAULT_CHANNEL
    if isinstance(channel, int):
        if not 0 <= channel < len(labels):
            raise ChannelNotFoundError(
                f"channel index {channel} out of range for {len(labels)} "
                f"signals (labels: {labels})")
        return channel
    needle = channel.lower()
    for i, label in enumerate(labels):
        if needle in label.lower():
            return i
    raise ChannelNotFoundError(
        f"no signal label contains {channel!r} (labels: {labels})")


def parse_edf(data: bytes, channel: str | int | None = None) -> EcgRecord:
    """Decode one channel of an EDF byte string into physical units.

    ``channel`` selects the signal by case-insensitive substring of its
    label, or by index; None means "ECG". Raises ParseError (with the
    byte offset) on a malformed or non-finite numeric header field, a
    negative samples per record, or 0 samples per record on the picked
    signal (another signal may hold none), and ParseError when the
    calibration gives a non-finite sample; ChannelNotFoundError when no
    label matches, and TruncationError when the payload is shorter than
    the header promises.
    """
    if len(data) < 256:
        raise TruncationError(256, len(data), what="EDF static header")

    head = _edf_cells(_EDF_HEAD_FIELDS)
    patient = _ascii_field(data, *head["patient"][0])
    [header_bytes], [n_records], [record_duration], [n_signals] = \
        _edf_numbers(data, head, _EDF_HEAD_NUMBERS)

    if n_signals < 1:
        raise ParseError(f"signal count must be >= 1, got {n_signals}",
                         offset=head["n_signals"][0][0])
    if record_duration <= 0:
        raise ParseError(
            f"record duration must be > 0, got {record_duration}",
            offset=head["record_duration"][0][0])
    expected_header = 256 + 256 * n_signals
    if header_bytes != expected_header:
        raise ParseError(
            f"header size field says {header_bytes}, expected "
            f"{expected_header} for {n_signals} signals",
            offset=head["header_bytes"][0][0])
    if len(data) < expected_header:
        raise TruncationError(expected_header, len(data), what="EDF header")

    sig = _edf_cells(_EDF_SIGNAL_FIELDS, start=256, count=n_signals)
    labels = [_ascii_field(data, *cell) for cell in sig["label"]]
    phys_min, phys_max, dig_min, dig_max, spr = _edf_numbers(
        data, sig, _EDF_SIGNAL_NUMBERS)
    for i, count in enumerate(spr):
        if count < 0:
            raise ParseError(f"samples per record must be >= 0, got {count}",
                             offset=sig["samples_per_record"][i][0])

    ch = _select_channel(labels, channel)
    if spr[ch] == 0:
        raise ParseError("the picked signal has 0 samples per record",
                         offset=sig["samples_per_record"][ch][0])

    record_samples = sum(spr)
    record_size = 2 * record_samples
    payload = len(data) - expected_header
    if n_records == -1:
        if record_size == 0 or payload % record_size != 0:
            raise TruncationError(
                (payload // record_size + 1) * record_size if record_size
                else 0,
                payload, what="EDF data payload")
        n_records = payload // record_size
    expected_payload = n_records * record_size
    if payload != expected_payload:
        raise TruncationError(expected_payload, payload,
                              what="EDF data payload")
    if n_records < 1:
        raise ParseError("EDF file holds no data records",
                         offset=head["n_records"][0][0])

    raw = np.frombuffer(data, dtype="<i2", count=n_records * record_samples,
                        offset=expected_header)
    start = sum(spr[:ch])
    digital = raw.reshape(n_records, record_samples)[:, start:start + spr[ch]]
    digital = digital.reshape(-1).astype(np.float64)

    drange = dig_max[ch] - dig_min[ch]
    prange = phys_max[ch] - phys_min[ch]
    if drange <= 0:
        raise ParseError(
            f"digital range must be positive, got "
            f"[{dig_min[ch]}, {dig_max[ch]}]",
            offset=sig["digital_min"][ch][0])
    with np.errstate(over="ignore", invalid="ignore"):
        physical = (digital - dig_min[ch]) * prange / drange + phys_min[ch]
    _check_finite(physical)

    fs = spr[ch] / record_duration
    return EcgRecord(patient_id=patient, samples=physical, fs=fs)


def _format_edf_float(v: float) -> str:
    # the most significant digits, up to 7, that fit an 8-character
    # header field; one digit always fits
    for digits in range(7, 1, -1):
        text = f"{v:.{digits}g}"
        if len(text) <= 8:
            return text
    return f"{v:.1g}"


def _edf_bound(v: float, side: float) -> float:
    # The printed value of v, moved outward (side -1 below, +1 above) by
    # steps from 1e-5 of |v|, doubling, until it holds v: no sample is
    # clipped, and the range stays as tight as the printing allows at
    # any scale.
    bound, step = v, max(abs(v) * 1e-5, math.ulp(0.0))
    while side * (float(_format_edf_float(bound)) - v) < 0:
        bound, step = v + side * step, 2.0 * step
    return float(_format_edf_float(bound))


def write_edf(record: EcgRecord) -> bytes:
    """Encode a record as a single-signal EDF byte string, labelled
    DEFAULT_CHANNEL.

    The physical range is taken from the data, serialized into the
    8-character ASCII header fields, and then re-parsed before samples
    are quantized, so a parse/write cycle of the produced bytes
    reproduces the sample payload bit-exactly. Header timestamps are
    fixed placeholders; output depends only on the record. A header
    field that is not ASCII or too wide, or a range too wide for
    parse_edf to calibrate back to finite samples, raises
    ConfigurationError before anything is encoded.
    """
    samples = record.samples
    lo = float(samples.min())
    hi = float(samples.max())
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    # Quantize against the values the parser will read back, not the raw
    # extrema, so digital payloads are stable across write/parse cycles.
    pmin, pmax = _edf_bound(lo, -1.0), _edf_bound(hi, 1.0)
    drange = EDF_DIGITAL_MAX - EDF_DIGITAL_MIN
    prange = pmax - pmin
    # parse_edf's calibration at the two digital ends, in Python floats,
    # which overflow to inf without a warning; every sample lies between
    ends = [d * prange / drange + pmin for d in (0.0, float(drange))]
    if not all(map(math.isfinite, ends)):
        raise ConfigurationError(
            f"physical range [{lo!r}, {hi!r}] is too wide for EDF: its "
            f"calibration overflows")

    spr = None
    for k in range(1, 61):
        n = record.fs * k
        if abs(n - round(n)) < 1e-9 and round(n) >= 1:
            spr = int(round(n))
            duration = k
            break
    if spr is None:
        raise ConfigurationError(
            f"sampling rate {record.fs} does not fit an integer number of "
            f"samples in any whole-second record duration up to 60 s")

    n_records = -(-samples.shape[0] // spr)
    padded = np.concatenate(
        [samples, np.full(n_records * spr - samples.shape[0], samples[-1])])

    digital = np.rint((padded - pmin) * drange / prange) + EDF_DIGITAL_MIN
    digital = np.clip(digital, EDF_DIGITAL_MIN, EDF_DIGITAL_MAX)
    payload = digital.astype("<i2").tobytes()

    # one signal: one cell per field, in table order; unnamed cells blank
    values = {"version": "0", "patient": record.patient_id.replace("\n", " "),
              "start_date": "01.01.00", "start_time": "00.00.00",
              "header_bytes": str(256 + 256), "n_records": str(n_records),
              "record_duration": _format_edf_float(float(duration)),
              "n_signals": "1", "label": DEFAULT_CHANNEL, "dimension": "mV",
              "physical_min": _format_edf_float(pmin),
              "physical_max": _format_edf_float(pmax),
              "digital_min": str(EDF_DIGITAL_MIN),
              "digital_max": str(EDF_DIGITAL_MAX),
              "samples_per_record": str(spr)}
    head = []
    for name, width in _EDF_HEAD_FIELDS + _EDF_SIGNAL_FIELDS:
        text = values.get(name, "")
        if not text.isascii():
            raise ConfigurationError(f"EDF field value {text!r} is not ASCII")
        if len(text) > width:
            raise ConfigurationError(
                f"EDF field value {text!r} exceeds {width} characters")
        head.append(text.ljust(width))
    return "".join(head).encode("ascii") + payload


# ---------------------------------------------------------------------------
# WFDB formats 212 and 16
# ---------------------------------------------------------------------------

def decode_212(dat: bytes) -> np.ndarray:
    """Unpack 12-bit two's-complement sample pairs from 3-byte groups."""
    if len(dat) % 3 != 0:
        raise TruncationError(len(dat) + (3 - len(dat) % 3), len(dat),
                              what="format 212 payload")
    b = np.frombuffer(dat, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
    s1 = b[:, 0] | ((b[:, 1] & 0x0F) << 8)
    s2 = b[:, 2] | ((b[:, 1] & 0xF0) << 4)
    out = np.empty(2 * b.shape[0], dtype=np.int32)
    out[0::2] = s1
    out[1::2] = s2
    return np.where(out >= 2048, out - 4096, out)


def encode_212(samples: np.ndarray) -> bytes:
    """Pack an even-length sequence of 12-bit values into 3-byte groups."""
    d = np.asarray(samples, dtype=np.int64)
    if d.shape[0] % 2 != 0:
        raise ContractViolationError(
            "format 212 packing needs an even sample count")
    if d.size and (d.min() < -2048 or d.max() > 2047):
        raise ContractViolationError(
            "format 212 samples must lie in [-2048, 2047]")
    u = (d & 0xFFF).reshape(-1, 2)
    out = np.empty((u.shape[0], 3), dtype=np.uint8)
    out[:, 0] = u[:, 0] & 0xFF
    out[:, 1] = ((u[:, 0] >> 8) & 0x0F) | (((u[:, 1] >> 8) & 0x0F) << 4)
    out[:, 2] = u[:, 1] & 0xFF
    return out.tobytes()


def _quote(token: str) -> str:
    """repr(token) for an error message; past 40 characters the token is
    cut and its length given, so one field cannot fill a ledger row."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token)} characters)"


def _token(text: str, kind: type, what: str, token: str | None = None):
    """text, a WFDB header number or the number part of token, read as
    kind. A ValueError is a malformed token; a value that is not
    finite, or an int too large for a float, a non-finite one."""
    token = text if token is None else token
    try:
        value = kind(text)
    except ValueError:
        raise ParseError(f"malformed {what} {_quote(token)}") from None
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ParseError(f"non-finite {what} {_quote(token)}")
    return value


def _parse_gain_token(token: str) -> tuple[float, int | None]:
    # gain[(baseline)][/units]
    text = token.split("/", 1)[0]
    baseline = None
    if "(" in text:
        text, rest = text.split("(", 1)
        if not rest.endswith(")"):
            raise ParseError(f"malformed gain token {_quote(token)}")
        baseline = _token(rest[:-1], int, "baseline")
    return _token(text, float, "gain token", token), baseline


def parse_wfdb(header_text: str, dat_bytes: bytes,
               channel: str | int | None = None) -> EcgRecord:
    """Decode one channel of a WFDB-style header + .dat payload.

    Supports signal formats 212 and 16 with interleaved channels.
    ``channel`` follows the EDF selection rules against the signal
    description column; None selects the only signal of a single-signal
    record and defaults to the "ECG" substring otherwise. A malformed or
    non-finite header number (an int too large for a float is one), or a
    gain that makes any sample non-finite, is a ParseError.
    """
    lines = [ln for ln in header_text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty WFDB header")
    head = lines[0].split()
    if len(head) < 2:
        raise ParseError(f"malformed WFDB record line {_quote(lines[0])}")
    record_name = head[0]
    n_sig = _token(head[1], int, "signal count")
    fs = 250.0
    if len(head) >= 3:
        fs = _token(head[2].split("/", 1)[0], float, "sampling rate", head[2])
    n_samples = None
    if len(head) >= 4:
        n_samples = _token(head[3], int, "sample count")

    if n_sig < 1 or len(lines) < 1 + n_sig:
        raise ParseError(
            f"header declares {n_sig} signals but lists {len(lines) - 1}")

    formats: list[int] = []
    gains: list[float] = []
    baselines: list[int] = []
    names: list[str] = []
    for i in range(n_sig):
        toks = lines[1 + i].split()
        if len(toks) < 2:
            raise ParseError(
                f"malformed signal line {_quote(lines[1 + i])}")
        # the format's leading ASCII digits; a skew, offset or other
        # suffix may follow
        formats.append(_token(re.match(r"[0-9]*", toks[1]).group(), int,
                              "format token", toks[1]))
        gain, baseline = _parse_gain_token(toks[2]) if len(toks) > 2 \
            else (0.0, None)
        adc_zero = _token(toks[4], int, "ADC zero") if len(toks) > 4 else 0
        if gain == 0.0:
            gain = 200.0
        if baseline is None:
            baseline = adc_zero
        gains.append(gain)
        baselines.append(baseline)
        names.append(" ".join(toks[8:]) if len(toks) > 8 else f"sig{i}")

    fmt = formats[0]
    if any(f != fmt for f in formats):
        raise UnsupportedFormatError(
            f"mixed signal formats {sorted(set(formats))} are not supported")
    if fmt not in (212, 16):
        raise UnsupportedFormatError(
            f"WFDB format {fmt} not supported (only 212 and 16)")

    ch = 0 if channel is None and n_sig == 1 \
        else _select_channel(names, channel)

    if fmt == 212:
        flat = decode_212(dat_bytes)
    else:
        if len(dat_bytes) % 2 != 0:
            raise TruncationError(len(dat_bytes) + 1, len(dat_bytes),
                                  what="format 16 payload")
        flat = np.frombuffer(dat_bytes, dtype="<i2").astype(np.int32)

    n_frames = flat.shape[0] // n_sig
    if n_samples is not None:
        if n_frames < n_samples:
            raise TruncationError(
                n_samples * n_sig * (3 if fmt == 212 else 4) // 2,
                len(dat_bytes), what="WFDB payload")
        n_frames = n_samples
    if n_frames < 1:
        raise TruncationError(n_sig * (3 if fmt == 212 else 2),
                              len(dat_bytes), what="WFDB payload")

    digital = flat[:n_frames * n_sig].reshape(n_frames, n_sig)[:, ch]
    with np.errstate(over="ignore", invalid="ignore"):
        physical = (digital.astype(np.float64) - baselines[ch]) / gains[ch]
    _check_finite(physical)
    return EcgRecord(patient_id=record_name, samples=physical, fs=fs)


# ---------------------------------------------------------------------------
# RR CSV
# ---------------------------------------------------------------------------

def parse_rr_csv(text: str) -> tuple[RPeakSeries, RhythmAnnotations | None]:
    """Parse ``t_seconds[,rhythm]`` rows into peaks and episodes.

    The rows are the non-blank lines of ``text.splitlines()``, stripped;
    each cell is stripped too, and cells past the second are ignored.
    Beat times are read with ``float`` and must be finite and strictly
    increasing; a non-empty rhythm cell must be on every row or on
    none. Rows are checked in reading order, each against those rules in
    turn, and the first violation raises ParseError or OrderingError
    naming the 1-based row. A label reading ``AF`` in any case marks AF;
    every other label (``N``, ``OTHER``, ``AFL``, ...) marks non-AF
    rhythm. Consecutive runs of one rhythm become episodes spanning the
    first to the last beat of the run (single-beat runs bound no RR
    interval and are dropped).
    """
    stamps = list(filter(None, map(str.strip, text.splitlines())))
    labels: list[str] = []
    if "," in text:
        cells = [ln.split(",", 2) for ln in stamps]
        stamps = [c[0].strip() for c in cells]
        labels = [c[1].strip() if len(c) > 1 else "" for c in cells]
    try:
        times = np.fromiter(map(float, stamps), dtype=np.float64,
                            count=len(stamps))
    except ValueError:
        times = None
    labelled = np.fromiter(map(bool, labels), dtype=bool, count=len(labels))
    if (times is None or not np.isfinite(times).all()
            or not (times[1:] > times[:-1]).all()
            or not (labelled == labelled[:1]).all()):
        _raise_first_broken_rule(stamps, labels)
    peaks = RPeakSeries(times=times)
    if not labels or not labels[0]:
        return peaks, None

    # runs of one rhythm: [first, last] beat indices between changes
    af = np.array([label.upper() == AF for label in labels])
    change = np.flatnonzero(af[1:] != af[:-1]) + 1
    first = np.concatenate(([0], change))
    last = np.concatenate((change, [af.shape[0]])) - 1
    keep = last > first
    first, last = first[keep], last[keep]
    episodes = [(start, end, AF if is_af else OTHER)
                for start, end, is_af in zip(times[first].tolist(),
                                             times[last].tolist(),
                                             af[first].tolist())]
    return peaks, RhythmAnnotations(episodes=episodes)


def _raise_first_broken_rule(stamps: list[str], labels: list[str]) -> None:
    """Raise the error of the first row that breaks a rule.

    Rows are read in order, each checked for a numeric, then finite,
    then increasing beat time, then for a rhythm label present or
    missing as on row 1. labels is empty when the file has no comma.
    """
    previous = -math.inf
    for row, stamp in enumerate(stamps, 1):
        where = f"at row {row}"
        try:
            t = float(stamp)
        except ValueError:
            raise ParseError(
                f"non-numeric beat time {_quote(stamp)} {where}") from None
        if not math.isfinite(t):
            raise ParseError(f"non-finite beat time {_quote(stamp)} {where}")
        if t <= previous:
            raise OrderingError(f"beat time {t} {where} does not increase "
                                f"past {previous}", row=row)
        if labels and bool(labels[row - 1]) != bool(labels[0]):
            if labels[0]:
                raise ParseError(f"missing rhythm label {where}")
            raise ParseError(f"rhythm column appears first {where}; it "
                             f"must be present on every row or none")
        previous = t


def write_rr_csv(peaks: RPeakSeries,
                 annotations: RhythmAnnotations | None = None) -> str:
    """Serialize peaks to CSV text, one ``repr`` beat time per line; with
    annotations, each beat's rhythm (OTHER outside every episode) follows
    after a comma."""
    times = peaks.times.tolist()
    if annotations is None:
        return "".join(f"{t!r}\n" for t in times)
    labels = [next((rhythm for start, end, rhythm in annotations.episodes
                    if start <= t <= end), OTHER) for t in times]
    return "".join(f"{t!r},{label}\n" for t, label in zip(times, labels))
