"""Tests of the benchmark's own parts: the partition gate and the corpus.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
from check import InvalidPartition, check_partition, labels_sha256, parse_p2  # noqa: E402
from measure import tail  # noqa: E402


def _halves():
    """A 4x9 mask split into two parts of 18 voxels, none trimmed."""
    mask = np.ones((4, 9), dtype=bool)
    labels = np.ones((4, 9), dtype=np.int32)
    labels[:, 5:] = 2
    labels[0:2, 4] = 2
    return mask, labels


def test_accepts_a_valid_partition_with_a_trimmed_voxel():
    mask, labels = _halves()
    mask = np.pad(mask, ((0, 0), (0, 1)))
    mask[3, 9] = True  # 37 voxels at k=2: one stays unlabelled
    check_partition(np.pad(labels, ((0, 0), (0, 1))), mask, 2)


def test_rejects_a_disconnected_part():
    mask, labels = _halves()
    labels[3, 0], labels[0, 8] = 2, 1  # swap two corners: areas stay 18
    with pytest.raises(InvalidPartition, match="not 4-connected"):
        check_partition(labels, mask, 2)


def test_rejects_a_wrong_area():
    mask, labels = _halves()
    labels[0, 4] = 1
    with pytest.raises(InvalidPartition, match="19 voxels, expected 18"):
        check_partition(labels, mask, 2)


def test_rejects_a_voxel_outside_the_mask():
    mask, labels = _halves()
    mask[0, 8] = False
    with pytest.raises(InvalidPartition, match="outside the mask"):
        check_partition(labels, mask, 2)


def test_rejects_unknown_labels_and_untrimmed_voxels():
    mask, labels = _halves()
    with pytest.raises(InvalidPartition, match="not 1..3"):
        check_partition(labels, mask, 3)
    labels[0, 0] = 0
    with pytest.raises(InvalidPartition, match="trimmed"):
        check_partition(labels, mask, 2)


def test_p2_parse_and_digest():
    _, labels = _halves()
    h, w = labels.shape
    text = f"P2\n{w} {h}\n2\n" + "\n".join(" ".join(map(str, row)) for row in labels) + "\n"
    parsed = parse_p2(text.encode("ascii"))
    assert np.array_equal(parsed, labels)
    assert labels_sha256(parsed) == labels_sha256(labels)
    with pytest.raises(InvalidPartition):
        parse_p2(text.encode("ascii")[:-4])


def _take(cases, n):
    return [(c.name, c.k, c.mask.tobytes()) for c in itertools.islice(cases, n)]


@pytest.mark.parametrize("gen", [corpus.ring_cases, corpus.strip_cases])
def test_library_corpora_are_a_function_of_the_seed(gen):
    assert _take(gen(3), 6) == _take(gen(3), 6)
    assert _take(gen(3), 6) != _take(gen(4), 6)


def test_roi_files_are_a_function_of_the_seed():
    first = [(r.name, r.payload) for r in corpus.roi_files(3)]
    assert first == [(r.name, r.payload) for r in corpus.roi_files(3)]
    assert first != [(r.name, r.payload) for r in corpus.roi_files(4)]
    assert len(first) == sum(len(ids) for _, ids in corpus.ROI_BLOBS)
    assert sorted(r.payload[:2] for r in corpus.roi_files(3)).count(b"P5") == 12 + 4


def test_corpus_masks_are_single_regions_in_one_cost_class():
    seen = np.zeros((corpus.RING_CANVAS, corpus.RING_CANVAS), dtype=bool)
    for case in itertools.islice(corpus.ring_cases(0), 6):
        y, x = np.argwhere(case.mask)[0]
        assert len(corpus.flood_fill(case.mask, y, x, seen.copy())) == case.mask.sum()
        assert 4000 < case.mask.sum() < 7000
    for case in itertools.islice(corpus.strip_cases(0), 6):
        assert case.mask.all() and 15000 < case.mask.size < 21000
    for roi in corpus.roi_files(0):
        assert roi.mask.shape == (corpus.ROI_CANVAS, corpus.ROI_CANVAS)
        y, x = np.argwhere(roi.mask)[0]
        assert len(corpus.flood_fill(roi.mask, y, x, np.zeros_like(roi.mask))) == roi.mask.sum()


def test_tail_leaves_ten_samples_beyond():
    values = list(range(100))
    assert tail(values) == (89, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)
