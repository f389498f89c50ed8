"""Flat-foldable crease patterns, SAW graphs and MV-assignment counting.

The library builds exact-arithmetic crease patterns, counts and enumerates
locally-valid mountain-valley assignments (an oracle that counts by a
frontier DP over crease values and enumerates by depth-first search, and a
linear-time single-vertex recursion), constructs SAW graphs whose
pre-colored proper 3-colorings biject with those assignments, and tiles
single-vertex graphs into SAW graphs for whole patterns.
"""

from .cp import (
    Angle,
    ConeVertex,
    CreasePattern,
    Face,
    MVAssignment,
    build_crease_pattern,
    cone_at,
)
from .coloring import (
    BijectionReport,
    ThreeColoring,
    coloring_to_mv,
    count_colorings,
    enumerate_colorings,
    mv_to_coloring,
    verify_bijection,
)
from .oracle import (
    LocalValidityReport,
    count_locally_valid,
    enumerate_locally_valid,
    is_locally_valid,
)
from .saw import (
    GadgetFragment,
    SawEdge,
    SawGraph,
    SawVertex,
    baby_gadget,
    deg4_saw,
    insert_prism,
    insert_triangle,
    single_vertex_saw,
)
from .single_vertex import (
    ALL_EQUAL,
    CrimpTrace,
    MinRun,
    blb_condition,
    count_single_vertex_mv,
    crimp,
    crimp_trace,
    enumerate_single_vertex_mv,
    find_min_runs,
    is_valid_single_vertex,
    kawasaki_check,
    maekawa_check,
    niceness,
)
from .generators import split_waterbomb
from .tiling import clip_order, tile

__all__ = [
    "ALL_EQUAL",
    "Angle",
    "BijectionReport",
    "ConeVertex",
    "CreasePattern",
    "CrimpTrace",
    "Face",
    "GadgetFragment",
    "LocalValidityReport",
    "MVAssignment",
    "MinRun",
    "SawEdge",
    "SawGraph",
    "SawVertex",
    "ThreeColoring",
    "baby_gadget",
    "blb_condition",
    "build_crease_pattern",
    "clip_order",
    "coloring_to_mv",
    "cone_at",
    "count_colorings",
    "count_locally_valid",
    "count_single_vertex_mv",
    "crimp",
    "crimp_trace",
    "deg4_saw",
    "enumerate_colorings",
    "enumerate_locally_valid",
    "enumerate_single_vertex_mv",
    "find_min_runs",
    "insert_prism",
    "insert_triangle",
    "is_locally_valid",
    "is_valid_single_vertex",
    "kawasaki_check",
    "maekawa_check",
    "mv_to_coloring",
    "niceness",
    "single_vertex_saw",
    "split_waterbomb",
    "tile",
    "verify_bijection",
]
