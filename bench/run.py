"""shapesplit benchmark: one process, one thread, one mask at a time.

    python3 bench/run.py --workload rings|strips|roi_files --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory. Calls run in a closed loop: the next starts only after
the last returned. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` runs every input both untraced and through the traced composition of
``traced.py``, asserts identical outputs, and reports the per-module spans.
The last line of standard output is the JSON result; the exit code is 1 if
any call returned an invalid partition or the traced outputs differ.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import corpus
from check import check_partition, parse_p2
from measure import median, spread, tail

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
# Seconds of setup_child.py's reference loop on a nominal host, about its
# median on a 2-core Xeon virtual machine.
SETUP_LOOP_NOMINAL_S = 0.0015

END_TO_END_UNITS = {
    "throughput_vox_ref": "vox/ref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "success_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# --- set-up time ----------------------------------------------------------


def setup_seconds(seed: int, work: str) -> list[float]:
    """Cold starts of the CLI: a fresh interpreter imports shapesplit and splits one mask.

    This is what every CLI invocation pays before its real work: the
    interpreter, numpy and library imports, and a first call on a small
    seeded rectangle. Each child times a reference loop before it imports
    anything (``setup_child.py``); its wall time without the loop is
    rescaled from the child's loop time to ``SETUP_LOOP_NOMINAL_S``. Raw
    set-up seconds moved by 22% between two sets of runs as the host's
    speed drifted, because nothing else in a run measures the child's speed.
    """
    rng = np.random.default_rng([7, seed])
    h, w = int(rng.integers(14, 19)), int(rng.integers(56, 73))
    src = os.path.join(work, "setup.pgm")
    with open(src, "wb") as fh:
        fh.write(corpus.encode_pgm(np.ones((h, w), dtype=bool), binary=False))
    out = os.path.join(work, "setup_labels.pgm")
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
    argv = [sys.executable, child, SRC, "subdivide", "--input", src, "--k", "4", "--output", out]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call failed: {proc.stderr.decode(errors='replace')}")
        loop_sum, loop_min = map(float, proc.stderr.split()[-2:])
        times.append((wall - loop_sum) * SETUP_LOOP_NOMINAL_S / loop_min)
        with open(out, "rb") as fh:
            check_partition(parse_p2(fh.read()), np.ones((h, w), dtype=bool), 4)
    return times


# --- metrics --------------------------------------------------------------


def end_to_end(run, setup: list[float]) -> dict[str, float]:
    tail_value, _ = tail(run.norm)
    return {
        "throughput_vox_ref": run.valid_vox / sum(run.norm),
        "latency_p50_ref": median(run.norm),
        "latency_tail_ref": tail_value,
        "success_share": run.valid / len(run.norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median(setup),
    }


def per_layer(run, rec) -> dict[str, tuple[float, str]]:
    from traced import STAGES

    calls = rec.counts["bench.calls"]
    pipeline = sum(rec.seconds[s] for s in STAGES)
    out = {}
    for stage in STAGES:
        out[f"{stage}_s"] = (rec.seconds[stage] / calls, "s")
        out[f"{stage}_s.share"] = (rec.seconds[stage] / pipeline, "share")
    read_s = rec.seconds["io.read"]
    out["io.read_mb_s"] = (rec.counts["io.read_bytes"] / read_s / 1e6 if read_s else 0.0, "MB/s")
    out["eikonal.settled_vox"] = (rec.counts["eikonal.settled_vox"] / calls, "count")
    out["centerline.path_vox"] = (rec.counts["centerline.path_vox"] / calls, "count")
    out["subdivision.balance_moved_vox"] = (rec.counts["subdivision.balance_moved_vox"] / calls, "count")
    cut_calls = rec.counts["subdivision.cut_calls"]
    out["subdivision.cut_area_spread"] = (
        rec.counts["subdivision.cut_area_spread"] / cut_calls if cut_calls else 0.0, "ratio")
    for key in ("fail.validation", "fail.cut", "fail.balance"):
        out[key] = (rec.counts[key], "count")
    out["bench.pipeline_s"] = (pipeline / calls, "s")
    out["bench.ref_s"] = (median(run.refs), "s")
    out["bench.ref_spread"] = (spread(run.refs), "share")
    untraced = rec.counts["bench.untraced_s"]
    out["bench.trace_overhead_share"] = ((rec.counts["bench.traced_s"] - untraced) / untraced, "share")
    return out


def context(args, why: str) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# --- entry point ----------------------------------------------------------


def parse_args(workloads, argv=None):
    parser = argparse.ArgumentParser(description="shapesplit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        whys = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    args = parse_args(whys, argv)
    if not os.path.isfile(os.path.join(SRC, "shapesplit", "__init__.py")):
        print(f"bench: no shapesplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import shapesplit

    if not os.path.abspath(shapesplit.__file__).startswith(SRC + os.sep):
        print(f"bench: imported shapesplit from {shapesplit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from traced import Recorder
    from workloads import Run, library_calls, roi_calls, warm_up

    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        ctx = context(args, whys[args.workload])
        if args.workload == "roi_files":
            inputs = corpus.roi_files(args.seed)
        else:
            inputs = (corpus.ring_cases if args.workload == "rings" else corpus.strip_cases)(args.seed)
        setup = setup_seconds(args.seed, work) if not args.trace else []
        warm_up(args.workload, work)
        run = Run()
        rec = Recorder() if args.trace else None
        if args.workload == "roi_files":
            roi_calls(inputs, args.seconds, run, work, rec)
        else:
            library_calls(inputs, args.seconds, run, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(run, rec)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end(run, setup).items()}
    correct = not run.invalid
    oracle = hashlib.sha256("".join(f"{n}={d}\n" for n, d in run.oracle).encode()).hexdigest()
    report = {"context": ctx, "metrics": {n: v for n, (v, _) in metrics.items()},
              "invalid": run.invalid, "label_map_sha256": dict(run.oracle),
              "call_seconds": run.seconds, "ref_seconds": run.refs, "setup_seconds": setup}
    report_path = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(os.path.join(ROOT, report_path), "w") as fh:
        json.dump(report, fh, indent=1)

    print("context: " + " ".join(f"{k}={v}" for k, v in ctx.items() if k != "why"))
    print(f"why: {ctx['why']}")
    _, pct = tail(run.norm)
    print(f"calls: {len(run.norm)}, valid {run.valid}; latency_tail_ref is p{pct:.1f}; "
          f"ref {median(run.refs) * 1e3:.3f} ms, spread {spread(run.refs):.3f}")
    print(f"label maps: {len(run.oracle)} outcomes, combined sha256 {oracle}; per call in {report_path}")
    for msg in run.invalid[:20]:
        print(f"INVALID {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.norm),
        "failed": len(run.norm) - run.valid,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
