"""Recording and annotation I/O.

Readers for the three supported on-disk forms of a single-channel ECG
recording, plus the matching writers used by the synthetic generators
and the test suite:

* EDF: 256-byte fixed-width ASCII header, one 256-byte subheader per
  signal, then data records of 16-bit little-endian two's-complement
  samples. Physical units are restored from the per-signal digital and
  physical ranges at parse time, exactly once.
* WFDB-style header + .dat payload, formats 212 (two 12-bit samples
  packed into 3 bytes) and 16 (plain int16 little-endian).
* RR CSV: one beat time per row, ``t_seconds[,rhythm]``, the optional
  rhythm column compiled into rhythm episodes.

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
from .qrs import RPeakSeries

AF = "AF"
NON_AF = "nonAF"
UNKNOWN = "unknown"
OTHER = "OTHER"

EDF_DIGITAL_MIN = -32768
EDF_DIGITAL_MAX = 32767


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


def _check_finite(physical: np.ndarray) -> None:
    # Finite but extreme calibration constants can still overflow; such
    # a record is corrupt, not a quiet night.
    if not np.isfinite(physical).all():
        raise ParseError("calibration gives non-finite samples")


def _select_channel(labels: list[str], channel: str | int) -> int:
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


def parse_edf(data: bytes, channel: str | int = "ECG") -> EcgRecord:
    """Decode one channel of an EDF byte string into physical units.

    ``channel`` selects the signal by case-insensitive substring of its
    label, or by index. Raises ParseError (with the byte offset) on a
    malformed or non-finite numeric header field, and ParseError when
    the calibration gives a non-finite sample; ChannelNotFoundError when
    no label matches, and TruncationError when the payload is shorter
    than the header promises.
    """
    if len(data) < 256:
        raise TruncationError(256, len(data), what="EDF static header")

    off = 0
    fields: dict[str, tuple[int, int]] = {}
    for name, width in _EDF_HEAD_FIELDS:
        fields[name] = (off, width)
        off += width

    patient = _ascii_field(data, *fields["patient"])
    header_bytes = _numeric_field(data, *fields["header_bytes"], int,
                                  "header size")
    n_records = _numeric_field(data, *fields["n_records"], int,
                               "record count")
    record_duration = _numeric_field(data, *fields["record_duration"], float,
                                     "record duration")
    n_signals = _numeric_field(data, *fields["n_signals"], int,
                               "signal count")

    if n_signals < 1:
        raise ParseError(f"signal count must be >= 1, got {n_signals}",
                         offset=fields["n_signals"][0])
    if record_duration <= 0:
        raise ParseError(
            f"record duration must be > 0, got {record_duration}",
            offset=fields["record_duration"][0])
    expected_header = 256 + 256 * n_signals
    if header_bytes != expected_header:
        raise ParseError(
            f"header size field says {header_bytes}, expected "
            f"{expected_header} for {n_signals} signals",
            offset=fields["header_bytes"][0])
    if len(data) < expected_header:
        raise TruncationError(expected_header, len(data), what="EDF header")

    labels: list[str] = []
    phys_min: list[float] = []
    phys_max: list[float] = []
    dig_min: list[int] = []
    dig_max: list[int] = []
    spr: list[int] = []
    # Per-signal subheaders store each field for all signals consecutively.
    sig_off = 256
    sig_fields: dict[str, int] = {}
    for name, width in _EDF_SIGNAL_FIELDS:
        sig_fields[name] = sig_off
        for i in range(n_signals):
            o = sig_off + i * width
            if name == "label":
                labels.append(_ascii_field(data, o, width))
            elif name == "physical_min":
                phys_min.append(_numeric_field(data, o, width, float,
                                               "physical minimum"))
            elif name == "physical_max":
                phys_max.append(_numeric_field(data, o, width, float,
                                               "physical maximum"))
            elif name == "digital_min":
                dig_min.append(_numeric_field(data, o, width, int,
                                              "digital minimum"))
            elif name == "digital_max":
                dig_max.append(_numeric_field(data, o, width, int,
                                              "digital maximum"))
            elif name == "samples_per_record":
                spr.append(_numeric_field(data, o, width, int,
                                          "samples per record"))
        sig_off += n_signals * width

    ch = _select_channel(labels, channel)

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
                         offset=fields["n_records"][0])

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
            offset=sig_fields["digital_min"] + ch * 8)
    with np.errstate(over="ignore", invalid="ignore"):
        physical = (digital - dig_min[ch]) * prange / drange + phys_min[ch]
    _check_finite(physical)

    fs = spr[ch] / record_duration
    return EcgRecord(patient_id=patient, samples=physical, fs=fs)


def _format_edf_float(v: float, width: int = 8) -> str:
    for digits in range(7, 0, -1):
        text = f"{v:.{digits}g}"
        if len(text) <= width:
            return text
    raise ConfigurationError(f"cannot format {v} in {width} ASCII characters")


def write_edf(record: EcgRecord, label: str = "ECG") -> bytes:
    """Encode a record as a single-signal EDF byte string.

    The physical range is taken from the data, serialized into the
    8-character ASCII header fields, and then re-parsed before samples
    are quantized, so a parse/write cycle of the produced bytes
    reproduces the sample payload bit-exactly. Header timestamps are
    fixed placeholders; output depends only on the record. A header
    field that is not ASCII or too wide raises ConfigurationError.
    """
    samples = record.samples
    lo = float(samples.min())
    hi = float(samples.max())
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    # Quantize against the values the parser will read back, not the raw
    # extrema, so digital payloads are stable across write/parse cycles.
    pmin = float(_format_edf_float(lo))
    pmax = float(_format_edf_float(hi))
    if pmin > lo:
        pmin = float(_format_edf_float(lo - abs(lo) * 1e-5 - 1e-9))
    if pmax < hi:
        pmax = float(_format_edf_float(hi + abs(hi) * 1e-5 + 1e-9))

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

    drange = EDF_DIGITAL_MAX - EDF_DIGITAL_MIN
    prange = pmax - pmin
    digital = np.rint((padded - pmin) * drange / prange) + EDF_DIGITAL_MIN
    digital = np.clip(digital, EDF_DIGITAL_MIN, EDF_DIGITAL_MAX)
    payload = digital.astype("<i2").tobytes()

    def pad(text: str, width: int) -> bytes:
        if not text.isascii():
            raise ConfigurationError(
                f"EDF field value {text!r} is not ASCII")
        b = text.encode("ascii")
        if len(b) > width:
            raise ConfigurationError(
                f"EDF field value {text!r} exceeds {width} characters")
        return b.ljust(width)

    head = b"".join([
        pad("0", 8),
        pad(record.patient_id.replace("\n", " "), 80),
        pad("", 80),
        pad("01.01.00", 8),
        pad("00.00.00", 8),
        pad(str(256 + 256), 8),
        pad("", 44),
        pad(str(n_records), 8),
        pad(_format_edf_float(float(duration)), 8),
        pad("1", 4),
    ])
    sig = b"".join([
        pad(label, 16),
        pad("", 80),
        pad("mV", 8),
        pad(_format_edf_float(pmin), 8),
        pad(_format_edf_float(pmax), 8),
        pad(str(EDF_DIGITAL_MIN), 8),
        pad(str(EDF_DIGITAL_MAX), 8),
        pad("", 80),
        pad(str(spr), 8),
        pad("", 32),
    ])
    return head + sig + payload


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


def _parse_gain_token(token: str) -> tuple[float, int | None]:
    # gain[(baseline)][/units]
    text = token.split("/", 1)[0]
    baseline = None
    if "(" in text:
        gtext, rest = text.split("(", 1)
        if not rest.endswith(")"):
            raise ParseError(f"malformed gain token {token!r}")
        baseline = _int_token(rest[:-1], "baseline")
        text = gtext
    try:
        gain = float(text)
    except ValueError:
        raise ParseError(f"malformed gain token {token!r}") from None
    if not math.isfinite(gain):
        raise ParseError(f"non-finite gain token {token!r}")
    return gain, baseline


def _int_token(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"malformed {what} {token!r}") from None


def parse_wfdb(header_text: str, dat_bytes: bytes,
               channel: str | int | None = None) -> EcgRecord:
    """Decode one channel of a WFDB-style header + .dat payload.

    Supports signal formats 212 and 16 with interleaved channels.
    ``channel`` follows the EDF selection rules against the signal
    description column; None selects the only signal of a single-signal
    record and defaults to the "ECG" substring otherwise. A non-finite
    gain, or a gain that makes any sample non-finite, is a ParseError.
    """
    lines = [ln for ln in header_text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty WFDB header")
    head = lines[0].split()
    if len(head) < 2:
        raise ParseError(f"malformed WFDB record line {lines[0]!r}")
    record_name = head[0]
    n_sig = _int_token(head[1], "signal count")
    fs = 250.0
    if len(head) >= 3:
        try:
            fs = float(head[2].split("/", 1)[0])
        except ValueError:
            raise ParseError(f"malformed sampling rate {head[2]!r}") from None
    n_samples = None
    if len(head) >= 4:
        n_samples = _int_token(head[3], "sample count")

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
            raise ParseError(f"malformed signal line {lines[1 + i]!r}")
        # the format's leading ASCII digits; a skew, offset or other
        # suffix may follow
        digits = re.match(r"[0-9]*", toks[1]).group()
        if not digits:
            raise ParseError(f"malformed format token {toks[1]!r}")
        formats.append(int(digits))
        gain, baseline = _parse_gain_token(toks[2]) if len(toks) > 2 \
            else (0.0, None)
        adc_zero = _int_token(toks[4], "ADC zero") if len(toks) > 4 else 0
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

    if channel is None:
        ch = 0 if n_sig == 1 else _select_channel(names, "ECG")
    else:
        ch = _select_channel(names, channel)

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
            bytes_per_sample = 1.5 if fmt == 212 else 2
            raise TruncationError(
                int(n_samples * n_sig * bytes_per_sample), len(dat_bytes),
                what="WFDB payload")
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
    increasing; a violation raises ParseError or OrderingError naming
    the 1-based row. A non-empty rhythm cell must be on every row or on
    none. A label reading ``AF`` in any case marks AF; every other label
    (``N``, ``OTHER``, ``AFL``, ...) marks non-AF rhythm. Consecutive
    runs of one rhythm become episodes spanning the first to the last
    beat of the run (single-beat runs bound no RR interval and are
    dropped).
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    parsed = _rr_columns(lines, split="," in text)
    if parsed is None:
        parsed = _rr_rows(lines)
    times, af = parsed
    peaks = RPeakSeries(times=times, source="reference")
    if af is None:
        return peaks, None

    # runs of one rhythm: [first, last] beat indices between changes
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


def _rr_columns(lines: list[str], split: bool,
                ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """(times, AF mask or None) of the rows, converted column by column.

    Lines hold no comma unless split. None when any row breaks a rule;
    the row loop then names the first such row.
    """
    stamps, af = lines, None
    if split:
        cells = [ln.split(",", 2) for ln in lines]
        stamps = [c[0].strip() for c in cells]
        labels = [c[1].strip() if len(c) > 1 else "" for c in cells]
        if all(labels):
            af = np.array([label.upper() == AF for label in labels])
        elif any(labels):
            return None
    try:
        times = np.fromiter(map(float, stamps), dtype=np.float64,
                            count=len(stamps))
    except ValueError:
        return None
    if not (np.isfinite(times).all() and (times[1:] > times[:-1]).all()):
        return None
    return times, af


def _rr_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """(times, AF mask or None), row by row; raises at the first bad row."""
    times: list[float] = []
    rhythms: list[str] | None = None
    for row, line in enumerate(lines, 1):
        parts = [p.strip() for p in line.split(",")]
        try:
            t = float(parts[0])
        except ValueError:
            raise ParseError(
                f"non-numeric beat time {parts[0]!r} at row {row}") from None
        if not math.isfinite(t):
            raise ParseError(
                f"non-finite beat time {parts[0]!r} at row {row}")
        if times and t <= times[-1]:
            raise OrderingError(
                f"beat time {t} at row {row} does not increase past "
                f"{times[-1]}", row=row)
        if len(parts) > 1 and parts[1]:
            if rhythms is None:
                if row != 1:
                    raise ParseError(
                        f"rhythm column appears first at row {row}; it must "
                        f"be present on every row or none")
                rhythms = []
            rhythms.append(AF if parts[1].upper() == AF else OTHER)
        elif rhythms is not None:
            raise ParseError(f"missing rhythm label at row {row}")
        times.append(t)
    af = None if rhythms is None else np.array(rhythms) == AF
    return np.asarray(times, dtype=np.float64), af


def write_rr_csv(peaks: RPeakSeries,
                 annotations: RhythmAnnotations | None = None) -> str:
    """Serialize peaks (and per-beat rhythm labels, if given) to CSV text."""
    lines = []
    for t in peaks.times:
        t = float(t)
        if annotations is None:
            lines.append(repr(t))
        else:
            label = OTHER
            for start, end, rhythm in annotations.episodes:
                if start <= t <= end:
                    label = rhythm
                    break
            lines.append(f"{t!r},{label}")
    return "\n".join(lines) + ("\n" if lines else "")
