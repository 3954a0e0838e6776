"""The closed call loops of the three workloads, with the correctness gate.

Every call is timed after a garbage collection, in reference-kernel units
(see ``measure.timed``), and its output is checked outside the timed
region. Failed calls keep their time in the samples and count against the
success share; no input is dropped for failing or for being slow.

In a traced run each input also runs through the traced composition,
untraced first on even calls and traced first on odd ones, so that cache
warmth does not bias the measured cost of tracing.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import shutil
import time

import numpy as np

from shapesplit import BalanceError, CutError, ShapeSplitError, ValidationError, subdivide_equal
from shapesplit.cli import main as cli_main

import corpus
import measure
from check import InvalidPartition, check_partition, labels_sha256, parse_p2
from traced import cli_argv, cli_traced, subdivide_traced


class Run:
    """Outcomes of the calls of one run, in call order."""

    def __init__(self):
        self.seconds = []  # call seconds, failures included
        self.refs = []  # reference seconds around each call
        self.norm = []  # call seconds / reference seconds
        self.valid = 0
        self.valid_vox = 0
        self.invalid = []  # why an output failed the gate
        self.oracle = []  # (call name, label-map sha256 or failure class)

    def record(self, seconds: float, ref: float) -> None:
        self.seconds.append(seconds)
        self.refs.append(ref)
        self.norm.append(seconds / ref)

    def success(self, name: str, labels, mask: np.ndarray, k: int) -> None:
        try:
            check_partition(labels, mask, k)
        except InvalidPartition as err:
            self.invalid.append(f"{name}: {err}")
            return
        self.valid += 1
        self.valid_vox += int(mask.sum())
        self.oracle.append((name, labels_sha256(labels)))


def _timed(fn, sample_during: bool = True):
    gc.collect()
    return measure.timed(fn, (ShapeSplitError,), sample_during)


def _pair(untraced_fn, traced_fn, rec, swap: bool):
    """Time an untraced call and its traced twin, traced first when ``swap``.

    Returns the untraced ``timed`` tuple and the traced (result, error).
    Neither call samples the reference kernel while it runs, so spans hold
    no sampling time and the two calls' costs compare.
    """
    if swap:
        traced, terr, tdt, _ = _timed(traced_fn, sample_during=False)
    untraced = _timed(untraced_fn, sample_during=False)
    if not swap:
        traced, terr, tdt, _ = _timed(traced_fn, sample_during=False)
    rec.counts["bench.traced_s"] += tdt
    rec.counts["bench.untraced_s"] += untraced[2]
    rec.counts["bench.calls"] += 1
    if terr is not None:
        rec.counts[fail_class(terr)] += 1
    return untraced, (traced, terr)


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


def fail_class(err: ShapeSplitError) -> str:
    for cls, key in ((ValidationError, "fail.validation"), (CutError, "fail.cut"), (BalanceError, "fail.balance")):
        if isinstance(err, cls):
            return key
    return "fail.other"


def warm_up(workload: str, work: str) -> None:
    """One untimed call through the workload's entry point, so lazy set-up is done."""
    mask = np.ones((16, 64), dtype=bool)
    if workload == "roi_files":
        path = os.path.join(work, "warm.pgm")
        with open(path, "wb") as fh:
            fh.write(corpus.encode_pgm(mask, binary=True))
        quiet_cli(cli_argv(path, 4, os.path.join(work, "warm_labels.pgm"), os.path.join(work, "warm_dump")))
    else:
        subdivide_equal(mask, 4)
    measure.timed(lambda: None, ())


def library_calls(cases, seconds: float, run: Run, rec=None) -> None:
    """Closed loop of ``subdivide_equal`` calls until ``seconds`` have passed.

    With a recorder, the traced composition must give the same label map
    bytes or the same exception class.
    """
    deadline = time.perf_counter() + seconds
    for case in cases:
        untraced_fn = lambda: subdivide_equal(case.mask, case.k)  # noqa: E731
        if rec is None:
            labels, err, dt, ref = _timed(untraced_fn)
        else:
            (labels, err, dt, ref), (traced, terr) = _pair(
                untraced_fn,
                lambda: subdivide_traced(case.mask, case.k, rec)[0],
                rec,
                swap=len(run.seconds) % 2 == 1,
            )
            same = type(err) is type(terr) and (
                err is not None or (traced.dtype == labels.dtype and traced.tobytes() == labels.tobytes())
            )
            if not same:
                run.invalid.append(f"{case.name}: traced output differs from subdivide_equal")
        run.record(dt, ref)
        if err is None:
            run.success(case.name, labels, case.mask, case.k)
        else:
            run.oracle.append((case.name, type(err).__name__))
        if time.perf_counter() >= deadline:
            return


def roi_calls(files, seconds: float, run: Run, work: str, rec=None) -> None:
    """Whole passes of CLI calls over the ROI files until ``seconds`` have passed.

    A pass is never cut short, so every run holds every ROI at every k.
    With a recorder, the traced composition must leave the same files or
    fail where the CLI exits 2 or 3.
    """
    paths = []
    for i, roi in enumerate(files):
        path = os.path.join(work, f"roi{i}.pgm")
        with open(path, "wb") as fh:
            fh.write(roi.payload)
        paths.append(path)
    u_dir, t_dir = os.path.join(work, "u"), os.path.join(work, "t")
    deadline = time.perf_counter() + seconds
    while True:
        for roi, path in zip(files, paths):
            for k in corpus.ROI_KS:
                name = f"{roi.name}-k{k}"
                os.makedirs(u_dir)
                argv = cli_argv(path, k, os.path.join(u_dir, "labels.pgm"), os.path.join(u_dir, "dump"))
                untraced_fn = lambda: quiet_cli(argv)  # noqa: E731
                if rec is None:
                    code, _, dt, ref = _timed(untraced_fn)
                else:
                    os.makedirs(t_dir)
                    t_argv = cli_argv(path, k, os.path.join(t_dir, "labels.pgm"), os.path.join(t_dir, "dump"))
                    (code, _, dt, ref), (_, terr) = _pair(
                        untraced_fn, lambda: cli_traced(t_argv, rec), rec, swap=len(run.seconds) % 2 == 1
                    )
                    t_code = 0 if terr is None else 2 if isinstance(terr, ValidationError) else 3
                    if t_code != code or (code == 0 and _read_tree(t_dir) != _read_tree(u_dir)):
                        run.invalid.append(f"{name}: traced output differs from the CLI's")
                    shutil.rmtree(t_dir)
                run.record(dt, ref)
                _check_cli(name, code, _read_tree(u_dir), roi.mask, k, run)
                shutil.rmtree(u_dir)
        if time.perf_counter() >= deadline:
            return


def _check_cli(name: str, code: int, files: dict[str, bytes], mask: np.ndarray, k: int, run: Run) -> None:
    """Exit 0 must leave a valid label map; exit 2 or 3 must leave no output."""
    if code == 0:
        try:
            labels = parse_p2(files.get("labels.pgm", b""))
        except InvalidPartition as err:
            run.invalid.append(f"{name}: {err}")
        else:
            run.success(name, labels, mask, k)
    elif code in (2, 3):
        if any(f.startswith("labels.pgm") for f in files):
            run.invalid.append(f"{name}: exit {code} left an output file")
        run.oracle.append((name, f"exit{code}"))
    else:
        run.invalid.append(f"{name}: unexpected exit code {code}")


def _read_tree(top: str) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(top):
        for fname in names:
            full = os.path.join(base, fname)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, top)] = fh.read()
    return out
