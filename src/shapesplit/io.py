"""File formats: portable graymaps, CSV field dumps, JSON-lines stats.

Masks and label maps travel as portable graymaps (ASCII ``P2`` or binary
``P5`` on input, canonical ``P2`` on output). Emission is canonical: equal
values always serialize to identical bytes, so write-read-write is the
identity on bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .exceptions import PGMParseError, ValidationError
from .grid import _box
from .validation import MAX_VOXELS, check_dims, check_labelmap, check_mask, check_scalar_field

# A token is a run of bytes that are neither whitespace nor ``#``; a ``#``
# opens a comment that runs to the end of the line. Each match skips the
# whitespace and comments before one token, which is empty only at the end.
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*)*([^ \t\n\r\x0b\x0c#]*)")
_COMMENT = re.compile(rb"#[^\n]*")
# Integers are ASCII decimal; the sign is there so that a negative header
# value is reported as out of range rather than as no integer.
_DECIMAL = re.compile(rb"-?[0-9]+")
# 65535, the largest maxval, has five digits; a longer sample is in range
# only with leading zeros.
_SAMPLE_DIGITS = 5


def _token(tok: re.Match, what: str) -> bytes:
    if not tok[1]:
        raise PGMParseError(f"unexpected end of file while reading {what}", offset=tok.start(1))
    return tok[1]


def _decimal(text: bytes) -> int | None:
    """``text`` as an ASCII decimal integer, or None when it is not one."""
    try:
        return int(text) if _DECIMAL.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        return None


def _int_token(tok: re.Match, what: str, lo: int, hi: int) -> int:
    text, off = _token(tok, what), tok.start(1)
    value = _decimal(text)
    if value is None:
        raise PGMParseError(f"expected an integer for {what}, got {text[:20]!r}", offset=off)
    if not lo <= value <= hi:
        raise PGMParseError(f"{what} {value} outside allowed range {lo}..{hi}", offset=off)
    return value


def _p2_samples(raster: bytes, count: int, maxval: int) -> np.ndarray | None:
    """The first ``count`` tokens of a comment-free ``raster`` as int32 samples, without a call per token.

    None when the raster holds fewer tokens, or one of them is not 1 to
    ``_SAMPLE_DIGITS`` ASCII digits or exceeds ``maxval``; what follows the
    last sample is not read.
    """
    byte = np.frombuffer(raster, dtype=np.uint8)
    solid = np.zeros(byte.size + 2, dtype=bool)  # token bytes, framed by two blanks
    solid[1:-1] = (byte - np.uint8(9) > 4) & (byte != 32)  # whitespace is bytes 9-13 and 32
    edges = np.flatnonzero(solid[1:] != solid[:-1])  # token starts and ends, alternating
    if edges.size < 2 * count:
        return None
    starts, ends = edges[0 : 2 * count : 2], edges[1 : 2 * count : 2]
    digits = int((ends - starts).max())
    if digits > _SAMPLE_DIGITS:
        return None
    # Bytes minus b"0": a token byte that is no digit comes out above 9 (uint8 wraps).
    digit = byte[: ends[-1]] - np.uint8(48)
    if ((digit > 9) & solid[1 : digit.size + 1]).any():
        return None
    samples = digit[ends - 1].astype(np.int32)
    for place in range(1, digits):  # tens, hundreds, ... where a token reaches that far
        at = ends - 1 - place
        samples += np.where(at >= starts, digit.take(at, mode="clip"), 0).astype(np.int32) * 10**place
    return samples if samples.max() <= maxval else None


def _parse_pgm(data: bytes) -> tuple[int, int, int, np.ndarray]:
    tokens = _TOKEN.finditer(data)
    tok = next(tokens)
    magic, off = _token(tok, "magic number"), tok.start(1)
    if magic not in (b"P2", b"P5"):
        raise PGMParseError(f"unsupported magic {magic[:10]!r}, expected P2 or P5", offset=off)
    width = _int_token(tok := next(tokens), "width", 1, MAX_VOXELS)
    height = _int_token(next(tokens), "height", 1, MAX_VOXELS)
    if width * height > MAX_VOXELS:
        raise PGMParseError(
            f"image of {width}x{height} voxels exceeds the cap of {MAX_VOXELS}", offset=tok.start(1)
        )
    tok = next(tokens)
    maxval = _int_token(tok, "maxval", 1, 65535)
    pos = tok.end()
    count = width * height

    if magic == b"P2":
        # A comment ends a token as whitespace does, so with each comment
        # blanked the tokens are the runs of bytes other than whitespace.
        raster = data[pos:]
        if b"#" in raster:
            raster = _COMMENT.sub(b" ", raster)
        samples = _p2_samples(raster, count, maxval)
        if samples is None:  # token by token, naming the first bad sample at its offset
            values = [_int_token(tok, "sample", 0, maxval) for _, tok in zip(range(count), tokens)]
            samples = np.array(values, dtype=np.int32)
    else:
        if pos >= len(data) or data[pos] not in b" \t\n\r\x0b\x0c":
            raise PGMParseError("expected a single whitespace byte after maxval", offset=pos)
        pos += 1
        bpp = 1 if maxval < 256 else 2
        need = count * bpp
        if len(data) - pos < need:
            raise PGMParseError(
                f"truncated raster: need {need} bytes, found {len(data) - pos}",
                offset=len(data),
            )
        dtype = np.dtype(">u2") if bpp == 2 else np.dtype("u1")
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(np.int32)
        bad = np.flatnonzero(samples > maxval)
        if bad.size:
            raise PGMParseError(
                f"sample {int(samples[bad[0]])} exceeds maxval {maxval}",
                offset=pos + int(bad[0]) * bpp,
            )
    return width, height, maxval, samples


def read_mask(data: bytes) -> np.ndarray:
    """Read a P2/P5 graymap as a boolean mask (any nonzero sample is true)."""
    width, height, _, samples = _parse_pgm(data)
    return (samples != 0).reshape(height, width)


def read_labelmap(data: bytes) -> np.ndarray:
    """Read a P2/P5 graymap keeping sample values as integer labels."""
    width, height, _, samples = _parse_pgm(data)
    return samples.reshape(height, width)


def _lines(values: np.ndarray, fmt, sep: str) -> str:
    """One line per row of ``values``: ``sep`` joins cells, ``fmt`` formats each distinct value once.

    Cell (0, 0) is the fill. Only the box of cells that differ from it is
    formatted cell by cell; the rows around the box, and each box row's
    cells to its left and right, repeat the fill's text.
    """
    h, w = values.shape
    if not values.size:  # no cell to take the fill from
        return "\n" * max(h, 1)
    first = values[0, 0]
    fill = fmt(first.item())
    row = sep.join([fill] * w) + "\n"
    differs = values != first
    if not differs.any():
        return row * h
    rows, cols = _box(differs)
    box = values[rows, cols]
    # return_index selects numpy's stable sort, several times faster on mostly-background grids
    distinct, _, inverse = np.unique(box, return_index=True, return_inverse=True)
    table = np.array(list(map(fmt, distinct.tolist())), dtype=object)
    left, right = (fill + sep) * cols.start, (sep + fill) * (w - cols.stop) + "\n"
    body = [left + sep.join(cells) + right for cells in table[inverse.reshape(box.shape)].tolist()]
    return row * rows.start + "".join(body) + row * (h - rows.stop)


def _write_pgm(values: np.ndarray, maxval: int) -> bytes:
    h, w = values.shape
    return f"P2\n{w} {h}\n{maxval}\n{_lines(values, str, ' ')}".encode("ascii")


def write_mask(mask) -> bytes:
    """Serialize a boolean mask as a canonical P2 graymap with maxval 1."""
    m = check_mask(mask)
    return _write_pgm(m.view(np.uint8), 1)


def write_labelmap(labels) -> bytes:
    """Serialize a label map as a canonical P2 graymap, sample = label.

    The grid must hold a row and a column, as it must for ``read_labelmap``.
    """
    lab = check_labelmap(labels)
    check_dims(lab.shape[::-1])
    top = int(lab.max())
    if top > 65535:
        raise ValidationError(f"label overflow: {top} does not fit a graymap (max 65535)")
    return _write_pgm(lab, max(top, 1))


def _csv_cell(v: float) -> str:
    # is_integer is False for inf, whose repr is "inf"
    return str(int(v)) if v.is_integer() else repr(v)


def write_field_csv(field) -> bytes:
    """Serialize a scalar field as CSV at full round-trip precision.

    One row per grid row, comma separated, LF line endings; +inf renders
    as ``inf``, integral values drop the decimal point, and zero is ``0``
    whatever its sign, so ``-0.0`` reads back as ``0.0``.
    """
    return _lines(check_scalar_field(field), _csv_cell, ",").encode("ascii")


def read_field_csv(data: bytes) -> np.ndarray:
    """Read a field written by :func:`write_field_csv`."""
    text = data.decode("ascii", errors="replace")
    lines = [line for line in text.split("\n") if line]
    if not lines:
        raise ValidationError("empty field file")
    if len({line.count(",") for line in lines}) > 1:
        raise ValidationError("field rows differ in length")
    cells = ",".join(lines).split(",")
    try:
        field = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        raise ValidationError("field file holds a value that is not a number") from None
    return check_scalar_field(field.reshape(len(lines), -1))


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
    ys, xs = np.nonzero(lab)
    order = np.argsort(lab[ys, xs], kind="stable")
    ys, xs = ys[order], xs[order]
    # Each label's voxels now form one run; reduce all runs at once. The
    # integer sums are exact in float64, so sum / area has the mean's bits.
    values, starts, area = np.unique(lab[ys, xs], return_index=True, return_counts=True)
    cx, cy = (np.add.reduceat(c, starts) / area for c in (xs, ys))
    x0, y0, x1, y1 = (f.reduceat(c, starts) for f in (np.minimum, np.maximum) for c in (xs, ys))
    columns = (a.tolist() for a in (values, area, cx, cy, x0, y0, x1, y1))
    return [
        RegionStats(label=v, area=n, centroid=(mx, my), bbox=(a, b, c, d))
        for v, n, mx, my, a, b, c, d in zip(*columns)
    ]


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
