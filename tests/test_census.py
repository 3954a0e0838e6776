"""The census: how many calls of four fixed corpora give a valid partition.

Every call either returns a valid partition, checked here by flood fill
with no library code (labels 1..k, floor(A / k) voxels each, every part
one 4-piece, nothing outside the mask), or fails with one of the three
designated errors. Successes per corpus must reach a floor. A change that
wins calls raises the floor with it; lowering a floor is a change of
behaviour that names every call it loses.
"""

from collections import Counter

import numpy as np
import pytest

from shapesplit import BalanceError, CutError, ValidationError, subdivide_equal

from conftest import make_blob, make_c_annulus
from oracles import flood_fill_components


def is_valid_partition(mask: np.ndarray, labels: np.ndarray, k: int) -> bool:
    """Labels 1..k of floor(A / k) voxels each inside ``mask``, every part one 4-piece."""
    if labels.shape != mask.shape or labels[~mask].any() or labels.min() < 0 or labels.max() > k:
        return False
    if np.bincount(labels.ravel(), minlength=k + 1)[1:].tolist() != [int(mask.sum()) // k] * k:
        return False
    for j in range(1, k + 1):
        part = labels == j
        rows, cols = np.flatnonzero(part.any(axis=1)), np.flatnonzero(part.any(axis=0))
        if flood_fill_components(part[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1], 4)[1] != 1:
            return False
    return True


def census(cases) -> Counter:
    """Outcomes of ``subdivide_equal`` over ``(name, mask, k)`` cases: "ok" or the error's class name.

    An invalid partition, or an error of any other class, fails the test
    with the call's name.
    """
    outcomes = Counter()
    for name, mask, k in cases:
        try:
            labels = subdivide_equal(mask, k)
        except (CutError, BalanceError, ValidationError) as err:
            outcomes[type(err).__name__] += 1
            continue
        assert is_valid_partition(mask, labels, k), name
        outcomes["ok"] += 1
    return outcomes


def blob_cases():
    """Blobs 25-79 at 48 px, 0-39 at 64 px and 8-29 at 96 px, at k = 2, 3, 5 and 8: 468 calls."""
    for size, seeds in ((48, range(25, 80)), (64, range(40)), (96, range(8, 30))):
        for seed in seeds:
            mask = make_blob(seed, size=size)
            for k in (2, 3, 5, 8):
                yield f"blob{size}.{seed}/{k}", mask, k


def roi_cases():
    """The benchmark's roi_files shapes: blobs 0-24 at 48 px and 0-7 at 96 px, at k = 2, 5 and 8: 99 calls."""
    for size, seeds in ((48, range(25)), (96, range(8))):
        for seed in seeds:
            mask = make_blob(seed, size=size)
            for k in (2, 5, 8):
                yield f"blob{size}.{seed}/{k}", mask, k


def annulus_cases():
    """The 128² annulus with notches of 20°, 5° and 0°, at k = 2, 4, 8 and 16: 12 calls."""
    for notch in (20.0, 5.0, 0.0):
        mask = make_c_annulus(notch_deg=notch)
        for k in (2, 4, 8, 16):
            yield f"annulus{notch:g}/{k}", mask, k


def square_cases():
    """Filled squares with sides 64 to 256 in steps of 32, at k = 2, 4 and 8: 21 calls."""
    for side in range(64, 257, 32):
        mask = np.ones((side, side), dtype=bool)
        for k in (2, 4, 8):
            yield f"square{side}/{k}", mask, k


@pytest.mark.parametrize(
    "corpus, calls, floor",
    [(blob_cases, 468, 421), (roi_cases, 99, 90), (annulus_cases, 12, 10), (square_cases, 21, 21)],
)
def test_successes_reach_the_floor(corpus, calls, floor):
    outcomes = census(corpus())
    assert sum(outcomes.values()) == calls
    assert outcomes["ok"] >= floor, dict(outcomes)
