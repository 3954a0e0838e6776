"""Traced composition of the pipeline from the library's public functions.

``subdivide_traced`` performs the same steps as ``subdivide_equal`` (and as
``EqualAreaSubdivider.fit``, which the CLI uses), and ``cli_traced`` the
same steps as ``shapesplit subdivide --dump``. Each call into a module is
timed as one span. The traced run asserts that these compositions produce
byte-identical label maps and files, so the spans describe the pipeline
that the untraced run measures.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from shapesplit import (
    ValidationError,
    argmax_field,
    balance_areas,
    connected_components,
    descend,
    euclidean_distance_map,
    fast_march,
    read_mask,
    region_stats,
    sample_cut_points,
    stats_jsonl,
    subdivide,
    write_field_csv,
    write_labelmap,
)
from shapesplit.centerline import DEFAULT_EXPONENT
from shapesplit.cli import build_parser

# Spans in pipeline order; their sum is the pipeline time a share refers to.
STAGES = (
    "cli.other",
    "io.read",
    "grid.cc",
    "distance.edt",
    "eikonal.wave1",
    "eikonal.wave2",
    "eikonal.descend",
    "subdivision.cuts",
    "subdivision.balance",
    "io.write",
    "io.dump",
)


class Recorder:
    """Summed span seconds and counters over the calls of one run."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)

    @contextmanager
    def span(self, stage: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] += time.perf_counter() - t0


def subdivide_traced(mask: np.ndarray, k: int, rec: Recorder):
    """``subdivide_equal(mask, k)`` with one span per stage.

    Returns ``(labels, artifacts)``, where ``artifacts`` holds the
    intermediates that ``--dump`` writes.
    """
    h, w = mask.shape
    with rec.span("grid.cc"):
        _, count = connected_components(mask, connectivity=4)
    if count != 1:
        raise ValidationError(f"region not connected ({count} components)")
    with rec.span("distance.edt"):
        dist = euclidean_distance_map(mask)
    with rec.span("eikonal.wave1"):
        idx = int(np.argmax(dist))
        first = fast_march(np.ones((h, w)), mask, (idx % w, idx // w))
        end_a = argmax_field(first)
    with rec.span("eikonal.wave2"):
        potential = np.ones((h, w))
        potential[mask] = (float(dist.max()) / dist[mask]) ** DEFAULT_EXPONENT
        second = fast_march(potential, mask, end_a)
        end_b = argmax_field(second)
    with rec.span("eikonal.descend"):
        path = descend(second, end_b)
    rec.counts["eikonal.settled_vox"] += int(np.isfinite(first.values).sum() + np.isfinite(second.values).sum())
    rec.counts["centerline.path_vox"] += len(path)

    with rec.span("subdivision.cuts"):
        plan = sample_cut_points(path, k)
        cut_labels = subdivide(mask, path, plan)
    target = int(mask.sum()) // k
    areas = np.bincount(cut_labels.ravel(), minlength=k + 1)[1:]
    rec.counts["subdivision.cut_area_spread"] += float(np.abs(areas - target).max()) / target
    rec.counts["subdivision.cut_calls"] += 1

    with rec.span("subdivision.balance"):
        labels = balance_areas(cut_labels, k, second)
    rec.counts["subdivision.balance_moved_vox"] += int((labels != cut_labels).sum())
    artifacts = {"dist": dist, "first": first.values, "second": second.values, "path": path, "plan": plan}
    return labels, artifacts


def cli_argv(in_path: str, k: int, out_path: str, dump_dir: str) -> list[str]:
    return ["subdivide", "--input", in_path, "--k", str(k), "--output", out_path, "--dump", dump_dir]


def cli_traced(argv: list[str], rec: Recorder) -> None:
    """``shapesplit.cli.main(argv)`` for ``subdivide --dump``, with spans.

    Raises the library's exception where the CLI would exit 2 or 3; on
    success writes the same output file and dump files as the CLI.
    """
    with rec.span("cli.other"):
        args = build_parser().parse_args(argv)
    with rec.span("io.read"):
        with open(args.input, "rb") as fh:
            data = fh.read()
        mask = read_mask(data)
    rec.counts["io.read_bytes"] += len(data)

    labels, art = subdivide_traced(mask, args.k, rec)

    with rec.span("io.write"):
        payload = write_labelmap(labels)
        with open(args.output, "wb") as fh:
            fh.write(payload)
    with rec.span("io.dump"):
        os.makedirs(args.dump, exist_ok=True)
        files = {
            "distance.csv": write_field_csv(art["dist"]),
            "arrival1.csv": write_field_csv(art["first"]),
            "arrival2.csv": write_field_csv(art["second"]),
            "centerline.csv": "".join(f"{x},{y}\n" for x, y in art["path"]).encode("ascii"),
            "cuts.csv": "".join(
                f"{c.anchor[0]},{c.anchor[1]},{c.normal[0]},{c.normal[1]}\n" for c in art["plan"]
            ).encode("ascii"),
            "stats.jsonl": stats_jsonl(region_stats(labels)),
        }
        for name, blob in files.items():
            with open(os.path.join(args.dump, name), "wb") as fh:
                fh.write(blob)
