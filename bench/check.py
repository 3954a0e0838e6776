"""Correctness gate applied to every benchmark call.

A success must be a valid partition of the mask into k parts: labels only
in 0..k, every label 1..k present, each part exactly floor(A/k) voxels and
4-connected, nothing outside the mask, and exactly A mod k mask voxels left
unlabelled. These checks use no library code, so a library change cannot
weaken them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from corpus import flood_fill


class InvalidPartition(Exception):
    """A call reported success but its output is not a valid partition."""


def check_partition(labels, mask: np.ndarray, k: int) -> None:
    """Raise :class:`InvalidPartition` unless ``labels`` is a valid partition."""
    labels = np.asarray(labels)
    if labels.shape != mask.shape:
        raise InvalidPartition(f"label map shape {labels.shape} != mask shape {mask.shape}")
    if labels.dtype.kind not in "iu":
        raise InvalidPartition(f"label map dtype {labels.dtype} is not integer")
    present = set(np.unique(labels).tolist())
    if not present <= set(range(k + 1)) or not set(range(1, k + 1)) <= present:
        raise InvalidPartition(f"labels {sorted(present)} are not 1..{k} (plus 0)")
    if (labels[~mask] != 0).any():
        raise InvalidPartition("a labelled voxel lies outside the mask")
    area = int(mask.sum())
    counts = np.bincount(labels.ravel(), minlength=k + 1)
    if int(counts[1:].sum()) != area - area % k:
        raise InvalidPartition(f"{area - int(counts[1:].sum())} voxels trimmed, expected {area % k}")
    wrong = [j for j in range(1, k + 1) if counts[j] != area // k]
    if wrong:
        raise InvalidPartition(f"part {wrong[0]} has {int(counts[wrong[0]])} voxels, expected {area // k}")
    for j in range(1, k + 1):
        part = labels == j
        y0, x0 = np.argwhere(part)[0]
        if len(flood_fill(part, int(y0), int(x0), np.zeros_like(part))) != counts[j]:
            raise InvalidPartition(f"part {j} is not 4-connected")


def parse_p2(data: bytes) -> np.ndarray:
    """Label map from the canonical P2 files the CLI writes."""
    tokens = data.split()
    if len(tokens) < 4 or tokens[0] != b"P2":
        raise InvalidPartition("output is not a P2 graymap")
    try:
        w, h = int(tokens[1]), int(tokens[2])
        if len(tokens) != 4 + w * h:
            raise InvalidPartition(f"output holds {len(tokens) - 4} samples, expected {w * h}")
        return np.array(tokens[4:], dtype=np.int64).reshape(h, w)
    except ValueError as err:
        raise InvalidPartition(f"output is not a P2 graymap: {err}") from None


def labels_sha256(labels) -> str:
    """Digest of a label map's shape and int32 values, the behaviour oracle."""
    lab = np.ascontiguousarray(labels, dtype=np.int32)
    return hashlib.sha256(f"{lab.shape}".encode() + lab.tobytes()).hexdigest()
