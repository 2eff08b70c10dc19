"""Section 5 workloads: polygon/query generators and the working window."""

from repro.workloads.generator import (
    SIZE_CLASSES,
    bounding_rect_of,
    make_relation,
    polygon_tuple,
    random_edge_angles,
    unbounded_tuple,
)
from repro.workloads.queries import (
    actual_selectivity,
    fan_batch,
    intercept_for_selectivity,
    make_queries,
    random_query,
    surface_values,
)
from repro.workloads.skew import (
    skewed_queries,
    skewed_slopes,
    uniform_queries,
    uniform_slopes,
)
from repro.workloads.window import PAPER_WINDOW, Window

__all__ = [
    "Window",
    "PAPER_WINDOW",
    "SIZE_CLASSES",
    "make_relation",
    "polygon_tuple",
    "unbounded_tuple",
    "random_edge_angles",
    "bounding_rect_of",
    "make_queries",
    "fan_batch",
    "random_query",
    "intercept_for_selectivity",
    "surface_values",
    "actual_selectivity",
    "skewed_queries",
    "skewed_slopes",
    "uniform_queries",
    "uniform_slopes",
]
