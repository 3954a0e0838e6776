"""shapesplit: equal-area, shape-following subdivision of 2D binary regions.

A region given as a binary mask is split into k parts of exactly equal
area that follow the region's shape: the region's centerline is extracted
(distance transform, two front-propagation waves, descent through arrival
times), one-voxel cuts are placed perpendicular to it at evenly spaced
positions, and border exchanges equalize the part areas.

The top-level surface is a pair of sklearn-style estimators
(:class:`EqualAreaSubdivider`, :class:`CenterlineExtractor`); the
underlying operations are plain functions and can be composed directly.
"""

from .centerline import extract_centerline, subdivide_equal
from .distance import euclidean_distance_map
from .eikonal import ArrivalField, VoxelGraph, argmax_field, descend, double_sweep, fast_march, march
from .estimators import CenterlineExtractor, EqualAreaSubdivider
from .exceptions import (
    AlgorithmError,
    BalanceError,
    CutError,
    PGMParseError,
    ShapeSplitError,
    ValidationError,
)
from .grid import connected_components
from .io import (
    RegionStats,
    read_field_csv,
    read_labelmap,
    read_mask,
    region_stats,
    stats_jsonl,
    write_field_csv,
    write_labelmap,
    write_mask,
)
from .subdivision import (
    Cut,
    balance_areas,
    sample_cut_points,
    subdivide,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalField",
    "AlgorithmError",
    "BalanceError",
    "CenterlineExtractor",
    "Cut",
    "CutError",
    "EqualAreaSubdivider",
    "PGMParseError",
    "RegionStats",
    "ShapeSplitError",
    "ValidationError",
    "VoxelGraph",
    "argmax_field",
    "balance_areas",
    "connected_components",
    "descend",
    "double_sweep",
    "euclidean_distance_map",
    "extract_centerline",
    "fast_march",
    "march",
    "read_field_csv",
    "read_labelmap",
    "read_mask",
    "region_stats",
    "sample_cut_points",
    "stats_jsonl",
    "subdivide",
    "subdivide_equal",
    "write_field_csv",
    "write_labelmap",
    "write_mask",
    "__version__",
]
