"""File formats: portable graymaps, CSV field dumps, JSON-lines stats.

Masks and label maps travel as portable graymaps (ASCII ``P2`` or binary
``P5`` on input, canonical ``P2`` on output). Emission is canonical: equal
values always serialize to identical bytes, so write-read-write is the
identity on bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import PGMParseError, ValidationError
from .validation import MAX_VOXELS, check_labelmap, check_mask, check_scalar_field

_WHITESPACE = b" \t\n\r\x0b\x0c"
_HASH = 0x23


class _Scanner:
    """Tokenizer over graymap bytes that tracks offsets for error reports."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_space(self) -> None:
        data = self.data
        n = len(data)
        while self.pos < n:
            c = data[self.pos]
            if c in _WHITESPACE:
                self.pos += 1
            elif c == _HASH:
                while self.pos < n and data[self.pos] != 0x0A:
                    self.pos += 1
            else:
                break

    def token(self, what: str) -> tuple[bytes, int]:
        self.skip_space()
        data = self.data
        n = len(data)
        if self.pos >= n:
            raise PGMParseError(f"unexpected end of file while reading {what}", offset=self.pos)
        start = self.pos
        while self.pos < n and data[self.pos] not in _WHITESPACE and data[self.pos] != _HASH:
            self.pos += 1
        return data[start : self.pos], start

    def int_token(self, what: str, lo: int, hi: int) -> int:
        tok, off = self.token(what)
        try:
            value = int(tok)
        except ValueError:
            raise PGMParseError(f"expected an integer for {what}, got {tok[:20]!r}", offset=off) from None
        if not lo <= value <= hi:
            raise PGMParseError(f"{what} {value} outside allowed range {lo}..{hi}", offset=off)
        return value


def _parse_pgm(data: bytes) -> tuple[int, int, int, np.ndarray]:
    sc = _Scanner(data)
    magic, off = sc.token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PGMParseError(f"unsupported magic {magic[:10]!r}, expected P2 or P5", offset=off)
    width = sc.int_token("width", 1, MAX_VOXELS)
    height = sc.int_token("height", 1, MAX_VOXELS)
    if width * height > MAX_VOXELS:
        raise PGMParseError(
            f"image of {width}x{height} voxels exceeds the cap of {MAX_VOXELS}", offset=off
        )
    maxval = sc.int_token("maxval", 1, 65535)
    count = width * height

    if magic == b"P2":
        samples = _split_p2_samples(data, sc.pos, count, maxval)
        if samples is None:  # rescan token by token for the exact error and its offset
            samples = np.empty(count, dtype=np.int32)
            for i in range(count):
                samples[i] = sc.int_token("sample", 0, maxval)
    else:
        if sc.pos >= len(data) or data[sc.pos] not in _WHITESPACE:
            raise PGMParseError("expected a single whitespace byte after maxval", offset=sc.pos)
        sc.pos += 1
        bpp = 1 if maxval < 256 else 2
        need = count * bpp
        if len(data) - sc.pos < need:
            raise PGMParseError(
                f"truncated raster: need {need} bytes, found {len(data) - sc.pos}",
                offset=len(data),
            )
        dtype = np.dtype(">u2") if bpp == 2 else np.dtype("u1")
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=sc.pos).astype(np.int32)
        bad = np.flatnonzero(samples > maxval)
        if bad.size:
            raise PGMParseError(
                f"sample {int(samples[bad[0]])} exceeds maxval {maxval}",
                offset=sc.pos + int(bad[0]) * bpp,
            )
    return width, height, maxval, samples


def _split_p2_samples(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray | None:
    """The first ``count`` P2 samples from ``pos`` on, or None when they need the scanner.

    Without a comment, the raster's tokens are exactly what ``bytes.split``
    yields, since it splits on the same six whitespace bytes.
    """
    if data.find(b"#", pos) >= 0:
        return None
    tokens = data[pos:].split(None, count)[:count]
    if len(tokens) < count:
        return None
    try:
        values = np.array(list(map(int, tokens)), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if values.size and (values.min() < 0 or values.max() > maxval):
        return None
    return values.astype(np.int32)


def read_mask(data: bytes) -> np.ndarray:
    """Read a P2/P5 graymap as a boolean mask (any nonzero sample is true)."""
    width, height, _, samples = _parse_pgm(data)
    return (samples != 0).reshape(height, width)


def read_labelmap(data: bytes) -> np.ndarray:
    """Read a P2/P5 graymap keeping sample values as integer labels."""
    width, height, _, samples = _parse_pgm(data)
    return samples.reshape(height, width)


def _write_pgm(values: np.ndarray, maxval: int) -> bytes:
    h, w = values.shape
    lines = [f"P2\n{w} {h}\n{maxval}\n"]
    for row in values.tolist():
        lines.append(" ".join(map(str, row)))
        lines.append("\n")
    return "".join(lines).encode("ascii")


def write_mask(mask) -> bytes:
    """Serialize a boolean mask as a canonical P2 graymap with maxval 1."""
    m = check_mask(mask)
    return _write_pgm(m.astype(np.int32), 1)


def write_labelmap(labels) -> bytes:
    """Serialize a label map as a canonical P2 graymap, sample = label."""
    lab = check_labelmap(labels)
    top = int(lab.max()) if lab.size else 0
    if top > 65535:
        raise ValidationError(f"label overflow: {top} does not fit a graymap (max 65535)")
    return _write_pgm(lab, max(top, 1))


def write_field_csv(field) -> bytes:
    """Serialize a scalar field as CSV at full round-trip precision.

    One row per grid row, comma separated, LF line endings; +inf renders
    as ``inf`` and integral values drop the decimal point.
    """
    f = check_scalar_field(field)
    finite = np.isfinite(f)
    whole = finite & (f == np.floor(f))
    lines = []
    # Row by row, so that only one row's cell strings are alive at a time.
    for row, row_whole, row_frac in zip(f, whole, finite & ~whole):
        cells = np.full(row.size, "inf", dtype=object)
        cells[row_whole] = list(map(str, map(int, row[row_whole].tolist())))
        cells[row_frac] = list(map(repr, row[row_frac].tolist()))
        lines.append(",".join(cells.tolist()))
        lines.append("\n")
    return "".join(lines).encode("ascii")


def read_field_csv(data: bytes) -> np.ndarray:
    """Read a field written by :func:`write_field_csv`."""
    text = data.decode("ascii")
    rows = [line.split(",") for line in text.split("\n") if line]
    if not rows:
        raise ValidationError("empty field file")
    return np.array([[float(cell) for cell in row] for row in rows], dtype=np.float64)


@dataclass(frozen=True)
class RegionStats:
    """Per-region summary: area, centroid, and bounding box."""

    label: int
    area: int
    centroid: tuple[float, float]
    bbox: tuple[int, int, int, int]  # min x, min y, max x, max y


def region_stats(labels) -> list[RegionStats]:
    """Summarize each nonzero label, ascending label order.

    The centroid is the arithmetic mean of the voxel (x, y) coordinates.
    """
    lab = check_labelmap(labels)
    out = []
    for value in np.unique(lab):
        if value == 0:
            continue
        ys, xs = np.nonzero(lab == value)
        out.append(
            RegionStats(
                label=int(value),
                area=int(xs.size),
                centroid=(float(xs.mean()), float(ys.mean())),
                bbox=(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())),
            )
        )
    return out


def stats_jsonl(stats: list[RegionStats]) -> bytes:
    """Serialize region stats as one JSON object per line, stable key order."""
    lines = []
    for s in stats:
        lines.append(
            json.dumps(
                {
                    "label": s.label,
                    "area": s.area,
                    "centroid": [s.centroid[0], s.centroid[1]],
                    "bbox": list(s.bbox),
                }
            )
        )
        lines.append("\n")
    return "".join(lines).encode("ascii")
