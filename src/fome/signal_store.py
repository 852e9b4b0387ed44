"""Recording data model, bit-exact byte codecs, and synthetic-signal generation.

`recording_to_bytes` and `recording_from_bytes` encode and decode the two
on-disk formats; callers read and write the bytes with `fome.errors`'
`read_file` and `write_file`.  The authoritative format is the binary
"FEEG v1" layout::

    magic 0x46 0x45 0x45 0x47 ("FEEG")
    u8  version = 1
    u32 little-endian channel count C
    u64 little-endian sample count T
    f64 little-endian sample rate in Hz
    C*T f32 little-endian samples, channel-major

The CSV alternative is column-per-channel with a two-line header: line 1 is
``# rate_hz=<float>``, line 2 the comma-separated channel labels, then T
rows of C values.

Samples are stored as 32-bit floats on disk and widened to float64 in
memory.  Everything produced by `generate_synthetic` is quantized to the
32-bit storage grid up front, so encode -> decode round-trips are bit-exact.
A `Recording` checks that its samples are finite when it is built, naming
its `id` (a decoder's source) in the error; the decoders and encoders do
not check again.
"""

from __future__ import annotations

import io
import struct
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DataError, FormatError, SpecError, decode_text
from .rng import Rng

_MAGIC = b"FEEG"
_VERSION = 1
_HEADER = struct.Struct("<4sBIQd")

# channels x samples a synthetic recording may hold; see `SyntheticSpec`
_MAX_SYNTH_SAMPLES = 1 << 27


@dataclass(eq=False)
class Recording:
    """A multi-channel signal with shape (channels, samples), microvolt scale."""

    data: np.ndarray
    sample_rate_hz: float
    channel_labels: list[str] | None = None
    id: str = ""

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DataError(f"data must be 2-D (channels, samples), got shape {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DataError(f"need at least one channel and one sample, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            c, t = np.argwhere(~np.isfinite(self.data))[0]
            where = f"{self.id}: " if self.id else ""
            raise DataError(f"{where}non-finite sample at channel {c}, index {t}")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise DataError(f"sample rate must be finite and positive, got {self.sample_rate_hz} Hz")
        if self.channel_labels is not None and len(self.channel_labels) != self.data.shape[0]:
            raise DataError(
                f"{len(self.channel_labels)} labels for {self.data.shape[0]} channels"
            )

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


class Component(NamedTuple):
    """One sinusoid: amplitude * sin(2*pi*f*t + phase) on a single channel."""

    channel: int
    frequency_hz: float
    amplitude: float
    phase_rad: float


@dataclass
class SyntheticSpec:
    """Recipe for a reproducible synthetic recording.

    A recipe of more than `_MAX_SYNTH_SAMPLES` = 2**27 samples (channels x
    duration x rate) is a `CapacityError`, before anything is allocated.
    `fome synth` peaks at about 14.5 bytes per sample (19 channels at
    500 Hz, on x86-64 Linux with numpy 2.4: 168 MB for 1,200 s and 322 MB
    for 2,400 s above the interpreter's own), so the budget keeps one
    synthesis under about 2 GB.
    """

    channels: int
    duration_s: float
    sample_rate_hz: float
    seed: int
    components: list[Component] = field(default_factory=list)
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise SpecError(f"channels must be >= 1, got {self.channels}")
        if not all(np.isfinite(v) and v > 0 for v in (self.duration_s, self.sample_rate_hz)):
            raise SpecError("duration_s and sample_rate_hz must be finite and positive, got "
                            f"{self.duration_s} s and {self.sample_rate_hz} Hz")
        samples = self.duration_s * self.sample_rate_hz  # inf where it overflows
        if self.channels * samples > _MAX_SYNTH_SAMPLES:
            raise CapacityError(f"{self.channels} channels x {samples:.6g} samples is over the "
                                f"budget of {_MAX_SYNTH_SAMPLES} samples of a synthetic recording")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise SpecError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        self.components = [Component(*c) for c in self.components]
        nyquist = self.sample_rate_hz / 2.0
        for comp in self.components:
            if not 0 <= comp.channel < self.channels:
                raise SpecError(f"component channel {comp.channel} out of range")
            if comp.frequency_hz >= nyquist:
                raise SpecError(
                    f"component frequency {comp.frequency_hz} Hz >= Nyquist {nyquist} Hz"
                )


def generate_synthetic(spec: SyntheticSpec) -> Recording:
    """Render a SyntheticSpec into a Recording.

    Sample t of channel c is the sum of that channel's sinusoid components
    plus N(0, noise_std) noise drawn row-major over (channel, time) from the
    seeded stream.  Output is quantized to the float32 storage grid.

    The noise is drawn straight into the (C, T) result and scaled there;
    each channel's components are summed in one row buffer before they are
    added, and each row is quantized in place, so the result is the only
    signal-sized array.
    """
    n = int(round(spec.duration_s * spec.sample_rate_hz))
    t = np.arange(n, dtype=np.float64) / spec.sample_rate_hz
    if spec.noise_std > 0:
        data = Rng(spec.seed).normals(spec.channels * n).reshape(spec.channels, n)
        data *= spec.noise_std
    else:
        data = np.zeros((spec.channels, n), dtype=np.float64)
    tones = np.empty(n, dtype=np.float64)
    for c, row in enumerate(data):
        tones.fill(0.0)
        for comp in spec.components:
            if comp.channel == c:
                tones += comp.amplitude * np.sin(
                    2.0 * np.pi * comp.frequency_hz * t + comp.phase_rad
                )
        row += tones
        row[:] = row.astype(np.float32)
    return Recording(data=data, sample_rate_hz=spec.sample_rate_hz, id=f"synth-{spec.seed}")


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------


def _is_csv(format: str) -> bool:
    if format not in ("binary", "csv"):
        raise FormatError(f"unknown format {format!r}")
    return format == "csv"


def f32_blob(header: bytes, values: np.ndarray) -> bytearray:
    """``header`` followed by ``values`` as little-endian float32 in C order,
    cast straight into one buffer of the final size."""
    blob = bytearray(len(header) + 4 * values.size)
    blob[: len(header)] = header
    np.frombuffer(blob, dtype="<f4", offset=len(header)).reshape(values.shape)[...] = values
    return blob


def recording_to_bytes(r: Recording, format: str = "binary") -> bytes | bytearray:
    """``r`` as an FEEG v1 blob, or as UTF-8 CSV for format "csv"."""
    if _is_csv(format):
        return _recording_to_csv(r)
    return f32_blob(_HEADER.pack(_MAGIC, _VERSION, r.channels, r.n_samples, r.sample_rate_hz),
                    r.data)


def recording_from_bytes(buf: bytes, source: str = "<bytes>", format: str = "binary") -> Recording:
    """Parse what `recording_to_bytes` writes; ``source`` names the input in errors."""
    if _is_csv(format):
        return _recording_from_csv(buf, source)
    if len(buf) < _HEADER.size:
        raise FormatError(f"{source}: truncated header ({len(buf)} bytes)")
    magic, version, c, t, rate = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise FormatError(f"{source}: unsupported version {version}")
    expected = _HEADER.size + 4 * c * t
    if len(buf) != expected:
        raise FormatError(f"{source}: payload is {len(buf)} bytes, expected {expected}")
    flat = np.frombuffer(buf, dtype="<f4", offset=_HEADER.size)
    return Recording(data=flat.astype(np.float64).reshape(c, t), sample_rate_hz=rate, id=source)


# rows the CSV writer formats per `%` call
_CSV_BLOCK = 1024
# the line breaks of `str.splitlines` other than "\n", in UTF-8
_OTHER_BREAKS = tuple(brk.encode() for brk in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _recording_to_csv(r: Recording) -> bytearray:
    """The CSV layout of `r` as UTF-8.  Each value is its float32 storage
    value formatted "%.9g", a block of rows per `%` call."""
    labels = r.channel_labels or [f"ch{i}" for i in range(r.channels)]
    out = bytearray(f"# rate_hz={r.sample_rate_hz!r}\n{','.join(labels)}\n".encode("utf-8"))
    row = ",".join(["%.9g"] * r.channels) + "\n"
    cols = r.data.T
    for start in range(0, r.n_samples, _CSV_BLOCK):
        block = cols[start : start + _CSV_BLOCK].astype(np.float32)
        out += ((row * len(block)) % tuple(block.ravel().tolist())).encode("ascii")
    return out


def _recording_from_csv(buf: bytes, source: str) -> Recording:
    """Parse the CSV layout.  Each value is read as `float` reads it and
    rounded to float32.

    The rows of a file whose only line break is "\n" and whose rows are
    ASCII are read by `np.loadtxt` straight from `buf`.  Any other file, or
    one whose rows `np.loadtxt` rejects, goes through the line loop
    (`_csv_rows`), which names the first bad line."""
    values = None
    second = buf.find(b"\n", buf.find(b"\n") + 1)
    if (0 < second < len(buf) - 1  # a third line follows the header
            and np.frombuffer(buf, np.uint8, offset=second + 1).max() < 0x80
            and not any(brk in buf for brk in _OTHER_BREAKS)):
        # with ASCII rows, an invalid byte can only be in the header
        rate, labels = _csv_header(*decode_text(buf[:second], source).split("\n"), source)
        values = _loadtxt_rows(buf, len(labels))
    if values is None:
        rate, labels, values = _csv_rows(decode_text(buf, source), source)
    return Recording(data=values.T.astype(np.float64), sample_rate_hz=rate,
                     channel_labels=labels, id=source)


def _csv_header(first: str, second: str, source: str) -> tuple[float, list[str]]:
    """The sample rate and channel labels of the two header lines."""
    if not first.startswith("# rate_hz="):
        raise FormatError(f"{source}: first line must be '# rate_hz=<float>'")
    try:
        rate = float(first.removeprefix("# rate_hz="))
    except ValueError as exc:
        raise FormatError(f"{source}: unparseable sample rate: {first!r}") from exc
    return rate, [s.strip() for s in second.split(",")]


def _loadtxt_rows(buf: bytes, channels: int) -> np.ndarray | None:
    """The (T, channels) float32 sample rows after the header of the CSV
    `buf`, or None where `np.loadtxt` rejects them or finds no row."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a body without rows warns
        try:
            # latin-1 decodes any header byte; the rows are ASCII, which it keeps
            values = np.loadtxt(io.BytesIO(buf), dtype=np.float32, delimiter=",", skiprows=2,
                                comments=None, ndmin=2, encoding="latin-1")
        except (ValueError, UserWarning):
            return None
    return values if values.shape[1] == channels else None


def _csv_rows(text: str, source: str) -> tuple[float, list[str], np.ndarray]:
    """The sample rate, the labels and the (T, C) float32 rows of the CSV
    `text`, line by line."""
    lines = text.splitlines()
    if len(lines) < 3:
        raise FormatError(f"{source}: need a 2-line header plus at least one sample row")
    rate, labels = _csv_header(lines[0], lines[1], source)
    c = len(labels)
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != c:
            raise FormatError(
                f"{source}: line {lineno} has {len(parts)} values for {c} channels"
            )
        try:
            rows.append([np.float32(p) for p in parts])
        except ValueError as exc:
            raise FormatError(f"{source}: line {lineno}: unparseable value") from exc
    return rate, labels, np.array(rows, dtype=np.float32)
