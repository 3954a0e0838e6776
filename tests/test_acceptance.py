"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Timings cover the library calls under test; oracle recomputation is
test instrumentation and is not timed.
"""

import math
import time

import numpy as np
import pytest

from shapesplit import (
    BalanceError,
    CutError,
    ValidationError,
    argmax_field,
    descend,
    euclidean_distance_map,
    fast_march,
    read_labelmap,
    read_mask,
    subdivide_equal,
    write_labelmap,
    write_mask,
)
from shapesplit.cli import main

from conftest import annulus_radii, make_blob, random_mask
from oracles import adjacent_label_pairs, brute_force_distance_map, euler_number, flood_fill_components, sweep_arrival


def report(num, name):
    print(f"acceptance criterion {num} ({name}): PASS")


def connected(region):
    _, count = flood_fill_components(region, 4)
    return count == 1


def test_criterion_1_edt_exactness():
    masks = [random_mask(seed, size=64, density=0.5) for seed in range(50)]
    masks = [m if m.any() else np.ones((64, 64), bool) for m in masks]
    elapsed = 0.0
    results = []
    for mask in masks:
        t0 = time.perf_counter()
        out = euclidean_distance_map(mask)
        elapsed += time.perf_counter() - t0
        results.append(out)
    for mask, out in zip(masks, results):
        assert np.array_equal(out, brute_force_distance_map(mask))
    assert elapsed < 1.0, f"50 transforms took {elapsed:.3f}s"
    report(1, "EDT exactness on 50 random masks")


def test_criterion_2_eikonal_oracle_equivalence():
    domain = np.ones((32, 32), dtype=bool)
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        pot = rng.uniform(0.2, 5.0, (32, 32))
        src = (int(rng.integers(32)), int(rng.integers(32)))
        cases.append((pot, src))
    elapsed = 0.0
    results = []
    for pot, src in cases:
        t0 = time.perf_counter()
        out = fast_march(pot, domain, src)
        elapsed += time.perf_counter() - t0
        results.append(out)
    worst = 0.0
    for (pot, src), out in zip(cases, results):
        want = sweep_arrival(pot, domain, src)
        worst = max(worst, float(np.abs(out.values - want).max()))
    assert worst <= 1e-9, f"max deviation {worst:g}"
    assert elapsed < 2.0, f"20 solves took {elapsed:.3f}s"
    report(2, f"eikonal matches sweeping fixed point (max dev {worst:g})")


def test_criterion_3_eikonal_sanity():
    u3 = fast_march(np.ones((3, 3)), np.ones((3, 3), dtype=bool), (1, 1)).values
    corner = 1.0 + 1.0 / math.sqrt(2.0)
    for y, x in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert abs(u3[y, x] - corner) <= 1e-12

    sx, sy = 11, 20
    u = fast_march(np.ones((32, 32)), np.ones((32, 32), dtype=bool), (sx, sy)).values
    yy, xx = np.mgrid[0:32, 0:32]
    chebyshev = np.maximum(np.abs(xx - sx), np.abs(yy - sy))
    manhattan = np.abs(xx - sx) + np.abs(yy - sy)
    assert (u >= chebyshev).all()
    assert (u <= manhattan).all()
    report(3, "corner value and Chebyshev/Manhattan bounds")


def test_criterion_4_potential_scaling_covariance():
    rng = np.random.default_rng(77)
    pot = rng.uniform(0.3, 4.0, (32, 32))
    domain = np.ones((32, 32), dtype=bool)
    src = (6, 17)
    base = fast_march(pot, domain, src)
    base_peak = argmax_field(base)
    base_path = descend(base, base_peak)
    for c in (0.5, 3.0, 100.0):
        scaled = fast_march(c * pot, domain, src)
        want = c * base.values
        err = np.abs(scaled.values - want)
        rel = err[want > 0] / want[want > 0]
        assert scaled.values[src[1], src[0]] == 0.0
        assert rel.max() <= 1e-12, f"c={c}: rel err {rel.max():g}"
        assert argmax_field(scaled) == base_peak
        assert descend(scaled, base_peak) == base_path
    report(4, "potential scaling covariance for c in {0.5, 3, 100}")


def test_criterion_5_rectangle_pipeline():
    mask = np.ones((16, 64), dtype=bool)
    t0 = time.perf_counter()
    labels = subdivide_equal(mask, 4)
    elapsed = time.perf_counter() - t0

    assert sorted(np.unique(labels).tolist()) == [1, 2, 3, 4]
    for j in range(1, 5):
        region = labels == j
        assert int(region.sum()) == 256
        assert connected(region)
    min_x = [int(np.nonzero(labels == j)[1].min()) for j in range(1, 5)]
    mean_x = [float(np.nonzero(labels == j)[1].mean()) for j in range(1, 5)]
    assert min_x == sorted(min_x)
    assert mean_x == sorted(mean_x)

    # centerline runs along the two middle rows once past the diagonal
    # climbs from the endpoints (at most h/2 = 8 steps at each end)
    from shapesplit import extract_centerline

    path, _ = extract_centerline(mask)
    length = len(path)
    for i, (x, y) in enumerate(path):
        if min(i, length - 1 - i) >= 8:
            assert y in (7, 8), (i, x, y)
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"
    report(5, "64x16 rectangle -> 4 ordered equal parts")


def test_criterion_6_c_annulus_reproduction(c_annulus_mask):
    mask = c_annulus_mask
    area = int(mask.sum())
    t0 = time.perf_counter()
    labels = subdivide_equal(mask, 16)
    elapsed = time.perf_counter() - t0

    expected_values = set(range(1, 17)) | ({0} if area % 16 else set())
    assert set(np.unique(labels[mask]).tolist()) == expected_values
    target = area // 16
    trimmed = area - int((labels > 0).sum())
    assert trimmed == area % 16
    assert (labels[~mask] == 0).all()

    r = annulus_radii()
    inner_bg = ~mask & (r < 16.0)
    outer_bg = ~mask & (r > 28.0)

    def touches(region, zone):
        t = np.zeros_like(region)
        t[:, :-1] |= zone[:, 1:]
        t[:, 1:] |= zone[:, :-1]
        t[:-1, :] |= zone[1:, :]
        t[1:, :] |= zone[:-1, :]
        return bool((region & t).any())

    for j in range(1, 17):
        region = labels == j
        assert int(region.sum()) == target, f"label {j}"
        assert connected(region), f"label {j}"
        assert touches(region, inner_bg), f"label {j} misses the inner cavity"
        assert touches(region, outer_bg), f"label {j} misses the outer background"
    pairs = adjacent_label_pairs(labels)
    assert all((j, j + 1) in pairs for j in range(1, 16))
    assert elapsed < 5.0, f"pipeline took {elapsed:.3f}s"
    report(6, f"C annulus -> 16 equal parts of {target} voxels, {trimmed} trimmed")


def test_criterion_7_partition_invariant_fuzz():
    outcomes = {"ok": 0, "error": 0}
    for seed in range(25):
        mask = make_blob(seed, size=48)
        area = int(mask.sum())
        for k in (2, 5, 8):
            try:
                labels = subdivide_equal(mask, k)
            except (CutError, BalanceError):
                outcomes["error"] += 1
                continue
            except ValidationError as err:
                assert "k too large" in str(err)
                outcomes["error"] += 1
                continue
            outcomes["ok"] += 1
            assert labels.shape == mask.shape
            assert (labels[~mask] == 0).all()
            labeled = labels > 0
            assert not (labeled & ~mask).any()
            assert area - int(labeled.sum()) == area % k
            for j in range(1, k + 1):
                region = labels == j
                assert int(region.sum()) == area // k
                assert connected(region)
            assert set(np.unique(labels).tolist()) - {0} == set(range(1, k + 1))
            assert euler_number(labeled) == euler_number(mask)  # trimming opens no hole
    assert outcomes["ok"] > 0
    report(7, f"blob fuzz: {outcomes['ok']} valid partitions, {outcomes['error']} designated failures")


def test_criterion_8_cli_determinism(tmp_path, c_annulus_mask):
    src = tmp_path / "annulus.pgm"
    src.write_bytes(write_mask(c_annulus_mask))
    snapshots = []
    for tag in ("one", "two"):
        out = tmp_path / f"labels_{tag}.pgm"
        dump = tmp_path / f"dump_{tag}"
        code = main([
            "subdivide", "--input", str(src), "--k", "16",
            "--output", str(out), "--dump", str(dump),
        ])
        assert code == 0
        snapshot = {"output": out.read_bytes()}
        for p in sorted(dump.iterdir()):
            snapshot[p.name] = p.read_bytes()
        snapshots.append(snapshot)
    assert snapshots[0].keys() == snapshots[1].keys()
    assert snapshots[0] == snapshots[1]
    report(8, "byte-identical output and dumps across reruns")


def test_criterion_9_io_round_trips(c_annulus_mask):
    masks = [
        np.ones((16, 64), dtype=bool),
        c_annulus_mask,
        make_blob(0),
        *(random_mask(seed) for seed in range(5)),
    ]
    for mask in masks:
        assert np.array_equal(read_mask(write_mask(mask)), mask)

    labelmaps = [
        subdivide_equal(np.ones((16, 64), dtype=bool), 4),
        subdivide_equal(c_annulus_mask, 16),
        np.zeros((3, 3), dtype=np.int32),
    ]
    for labels in labelmaps:
        once = write_labelmap(labels)
        again = write_labelmap(read_labelmap(once))
        assert once == again
        assert np.array_equal(read_labelmap(once), labels)
    report(9, "mask and label map round trips are byte exact")
