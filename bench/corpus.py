"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of the workload seed, so the same seed
always yields the same masks. The library under test is never used here:
masks, blobs and graymap files are built with numpy and this module's own
flood fill, so a change to the library cannot change its own inputs.

Each workload keeps its masks in one cost class (one canvas size, a narrow
area range), so that a run's latency percentiles never sit on a boundary
between mask sizes. Shape parameters come from a Weyl sequence with a
seeded offset: any prefix of the stream covers the parameter range evenly,
so a run that stops after n calls has seen the same mix as any other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# Generalised golden ratios: Weyl steps whose coordinates are jointly
# well spread for every prefix length (Roberts' R_d sequence).
_PHI3 = 1.2207440846057595
_STEPS = (1.0 / _PHI3, 1.0 / _PHI3**2, 1.0 / _PHI3**3)

RING_CANVAS = 192
RING_K = 16
STRIP_K = 4
STRIP_CLASSES = ((48, 384), (40, 448), (56, 320))  # (height, width), ~18k voxels
ROI_CANVAS = 128
ROI_KS = (2, 5, 8)
ROI_BLOBS = ((48, range(25)), (96, range(8)))  # (blob size, blob ids) per scale


@dataclass(frozen=True)
class Case:
    """One library call: a mask, the part count, and a stable name."""

    name: str
    mask: np.ndarray
    k: int


@dataclass(frozen=True)
class RoiFile:
    """One ROI stored as a graymap file, split once per k in ``ROI_KS``."""

    name: str
    mask: np.ndarray
    payload: bytes  # the P2 or P5 file content


def _rng(workload: str, seed: int, *more: int) -> np.random.Generator:
    salt = sum(ord(c) << (8 * i) for i, c in enumerate(workload))
    return np.random.default_rng([salt, seed, *more])


def _weyl(rng: np.random.Generator):
    """Endless points of [0, 1)^3, evenly spread for any prefix."""
    point = rng.random(3)
    while True:
        point = (point + _STEPS) % 1.0
        yield point


def ring_cases(seed: int):
    """C annuli on a 192² canvas, notch on +x, split into 16 parts.

    Outer radius 76..84, ring thickness 10..14 and notch width 14..26
    degrees are drawn per mask, giving regions of roughly 4.5k-6k voxels.
    """
    c = (RING_CANVAS - 1) / 2.0
    yy, xx = np.mgrid[0:RING_CANVAS, 0:RING_CANVAS]
    radius = np.hypot(xx - c, yy - c)
    angle = np.degrees(np.arctan2(yy - c, xx - c))
    for i, (u, v, w) in enumerate(_weyl(_rng("rings", seed))):
        outer = 76.0 + 8.0 * u
        thickness = 10.0 + 4.0 * v
        notch = 14.0 + 12.0 * w
        mask = (radius >= outer - thickness) & (radius <= outer) & (np.abs(angle) > notch / 2.0)
        name = f"ring{i}-r{outer:.2f}-t{thickness:.2f}-n{notch:.2f}"
        yield Case(name, mask, RING_K)


def strip_cases(seed: int):
    """Filled strips of about 18k voxels in three aspect classes, k=4.

    The classes take turns, so every run holds them in equal numbers; the
    height varies by +-2 and the width by +-8 voxels within a class.
    """
    for i, (u, v, _) in enumerate(_weyl(_rng("strips", seed))):
        base_h, base_w = STRIP_CLASSES[i % len(STRIP_CLASSES)]
        h = base_h - 2 + int(5 * u)
        w = base_w - 8 + int(17 * v)
        yield Case(f"strip{i}-{h}x{w}", np.ones((h, w), dtype=bool), STRIP_K)


def _largest_component(mask: np.ndarray) -> np.ndarray:
    """Largest 4-connected component, first in row-major order on ties."""
    seen = np.zeros_like(mask)
    best = None
    best_size = 0
    for y0, x0 in np.argwhere(mask):
        if seen[y0, x0]:
            continue
        comp = flood_fill(mask, int(y0), int(x0), seen)
        if len(comp) > best_size:
            best, best_size = comp, len(comp)
    out = np.zeros_like(mask)
    if best:
        ys, xs = zip(*best)
        out[list(ys), list(xs)] = True
    return out


def flood_fill(region: np.ndarray, y0: int, x0: int, seen: np.ndarray) -> list[tuple[int, int]]:
    """4-connected voxels of ``region`` reachable from (y0, x0); marks ``seen``."""
    h, w = region.shape
    seen[y0, x0] = True
    queue = deque([(y0, x0)])
    out = []
    while queue:
        y, x = queue.popleft()
        out.append((y, x))
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h and 0 <= nx < w and region[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                queue.append((ny, nx))
    return out


def make_blob(rng_for_attempt, size: int, min_area: int = 150) -> np.ndarray:
    """Single 4-connected blob from thresholded, box-smoothed noise.

    ``rng_for_attempt(a)`` gives the generator of attempt ``a``; an attempt
    whose largest component is below ``min_area`` is retried.
    """
    kernel = np.ones(7) / 7.0
    for attempt in range(32):
        field = rng_for_attempt(attempt).standard_normal((size, size))
        for _ in range(3):
            field = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, field)
            field = np.apply_along_axis(lambda c: np.convolve(c, kernel, mode="same"), 0, field)
        blob = _largest_component(field > np.quantile(field, 0.62))
        if blob.sum() >= min_area:
            return blob
    raise RuntimeError("could not generate a blob")


def suite_blob(blob_id: int, size: int) -> np.ndarray:
    """Blob ``blob_id`` with the seeding of the test suite's blob fuzz."""
    return make_blob(lambda a: np.random.default_rng(blob_id * 1000 + a), size)


def encode_pgm(mask: np.ndarray, binary: bool) -> bytes:
    """A mask as a P5 (binary, maxval 255) or P2 (ASCII, maxval 1) graymap."""
    h, w = mask.shape
    if binary:
        return f"P5\n{w} {h}\n255\n".encode("ascii") + (mask.astype(np.uint8) * 255).tobytes()
    rows = "\n".join(" ".join("1" if v else "0" for v in row) for row in mask)
    return f"P2\n{w} {h}\n1\n{rows}\n".encode("ascii")


def roi_files(seed: int) -> list[RoiFile]:
    """One pass of the roi_files workload, in call order.

    The shapes are the test suite's blob-fuzz family: blobs 0-24 at 48 px
    (the acceptance suite's criterion 7) and blobs 0-7 at 96 px, the same
    on every seed. Which partitions fail, and how long balancing churns
    before a slow failure (blob 7 at 96 px takes seconds at every k), are
    properties of particular shapes: with 48-px shapes drawn per seed, the
    success share and the tail latency swung by 7% and 35% between seeds.
    The seed places every blob in its 128² canvas, stores half of each
    scale as P2 and half as P5, and shuffles the order.
    """
    rng = _rng("roi_files", seed)
    out = []
    for size, ids in ROI_BLOBS:
        as_p5 = rng.permutation(np.arange(len(ids)) % 2 == 1)
        for blob_id, binary in zip(ids, as_p5):
            blob = suite_blob(blob_id, size)
            oy, ox = rng.integers(0, ROI_CANVAS - size + 1, size=2)
            mask = np.zeros((ROI_CANVAS, ROI_CANVAS), dtype=bool)
            mask[oy : oy + size, ox : ox + size] = blob
            fmt = "p5" if binary else "p2"
            out.append(RoiFile(f"blob{size}.{blob_id}-{fmt}-at{ox},{oy}", mask, encode_pgm(mask, bool(binary))))
    return [out[i] for i in rng.permutation(len(out))]
