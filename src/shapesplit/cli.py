"""Command line front end.

Exit codes: 0 success, 1 usage or file errors, 2 input validation errors
(empty or disconnected region, k too large, an exponent that overflows the
potential), 3 algorithm failures (the centerline descent, a cut or the area
balancing could not succeed). On failure nothing is written to the output
path.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as formats
from .centerline import DEFAULT_EXPONENT
from .estimators import CenterlineExtractor, EqualAreaSubdivider
from .exceptions import AlgorithmError, PGMParseError, ValidationError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shapesplit",
        description="Subdivide a 2D binary region into equal-area, shape-following parts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "subdivide",
        help="partition a mask into k equal-area regions",
        description="Read a P2/P5 graymap mask, partition it, write a P2 label map.",
    )
    p.add_argument("--input", required=True, help="input mask (PGM, nonzero = region)")
    p.add_argument("--k", type=int, required=True, help="number of regions (>= 1)")
    p.add_argument("--output", required=True, help="output label map (PGM)")
    p.add_argument("--dump", metavar="DIR", help="directory for intermediate artifacts")
    p.add_argument("--exponent", type=float, default=DEFAULT_EXPONENT,
                   help="depth weighting exponent (default %(default)g)")
    p.add_argument("--no-balance", action="store_true", help="skip the equal-area balancing pass")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser(
        "centerline",
        help="extract a region's centerline",
        description="Read a P2/P5 graymap mask and write the ordered centerline as CSV.",
    )
    p.add_argument("--input", required=True, help="input mask (PGM)")
    p.add_argument("--output", required=True, help="output CSV, one 'x,y' line per voxel")
    p.set_defaults(func=_cmd_centerline)

    p = sub.add_parser(
        "stats",
        help="print per-region stats of a label map",
        description="Read a label map and print one JSON object per region to stdout.",
    )
    p.add_argument("--input", required=True, help="input label map (PGM)")
    p.set_defaults(func=_cmd_stats)

    return parser


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_file_atomic(path: str, payload: bytes) -> None:
    tmp = path + ".part"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _centerline_csv(path) -> bytes:
    """One ``x,y`` line per centerline voxel."""
    return "".join(f"{x},{y}\n" for x, y in path).encode("ascii")


def _write_dumps(dump_dir: str, est: EqualAreaSubdivider) -> None:
    os.makedirs(dump_dir, exist_ok=True)

    def put(name: str, payload: bytes) -> None:
        with open(os.path.join(dump_dir, name), "wb") as fh:
            fh.write(payload)

    put("distance.csv", formats.write_field_csv(est.distance_map_))
    put("arrival1.csv", formats.write_field_csv(est.first_arrival_))
    put("arrival2.csv", formats.write_field_csv(est.second_arrival_))
    put("centerline.csv", _centerline_csv(est.centerline_))
    put(
        "cuts.csv",
        "".join(
            f"{cut.anchor[0]},{cut.anchor[1]},{cut.normal[0]},{cut.normal[1]}\n"
            for cut in est.cut_plan_
        ).encode("ascii"),
    )
    put("stats.jsonl", formats.stats_jsonl(formats.region_stats(est.labels_)))


def _cmd_subdivide(args) -> int:
    mask = formats.read_mask(_read_file(args.input))
    est = EqualAreaSubdivider(
        n_regions=args.k, exponent=args.exponent, balance=not args.no_balance
    )
    est.fit(mask)
    payload = formats.write_labelmap(est.labels_)
    if args.dump:
        _write_dumps(args.dump, est)
    _write_file_atomic(args.output, payload)
    return 0


def _cmd_centerline(args) -> int:
    mask = formats.read_mask(_read_file(args.input))
    est = CenterlineExtractor().fit(mask)
    _write_file_atomic(args.output, _centerline_csv(est.path_))
    return 0


def _cmd_stats(args) -> int:
    labels = formats.read_labelmap(_read_file(args.input))
    sys.stdout.write(formats.stats_jsonl(formats.region_stats(labels)).decode("ascii"))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "k", None) is not None and args.k < 1:
            raise _UsageError("--k must be a positive integer")
    except _UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"shapesplit: error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (PGMParseError, OSError) as err:
        print(f"shapesplit: error: {err}", file=sys.stderr)
        return 1
    except ValidationError as err:
        print(f"shapesplit: error: {err}", file=sys.stderr)
        return 2
    except AlgorithmError as err:
        print(f"shapesplit: error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
