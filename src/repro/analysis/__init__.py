"""Downstream analysis of MS complex 1-skeletons.

The paper's motivation (Fig. 1): once the complex is computed, "all
subsequent analysis queries this structure" — interactive threshold
studies, feature extraction, and graph statistics such as "length, cycle
count, and the minimum cut" of filament structures.

- :mod:`repro.analysis.features` — node/arc filters, persistence-level
  queries over the cancellation hierarchy,
- :mod:`repro.analysis.graphtools` — the 1-skeleton as a networkx graph
  with the statistics the paper's analysis pipeline reports,
- :mod:`repro.analysis.compare` — stability quantification (§V-A),
- :mod:`repro.analysis.hierarchy` — multi-resolution level queries,
- :mod:`repro.analysis.query` — re-simplification-free persistence
  queries against hierarchies persisted in ``.msc`` files,
- :mod:`repro.analysis.segmentation` — ascending/descending manifold
  labeling (basin segmentation),
- :mod:`repro.analysis.raster` — label volumes and ASCII projections of
  the complex geometry.
"""

from repro.analysis.compare import (
    ComplexComparison,
    compare_complexes,
    feature_signature,
)
from repro.analysis.hierarchy import HierarchyLevelView, MSComplexHierarchy
from repro.analysis.query import QueryResult, load_hierarchy, query
from repro.analysis.raster import project_ascii, rasterize
from repro.analysis.segmentation import (
    basin_sizes,
    segment_maxima,
    segment_minima,
)
from repro.analysis.features import (
    arcs_by_family,
    filter_arcs_by_value,
    nodes_by_index,
    persistence_curve,
    significant_extrema,
)
from repro.analysis.graphtools import (
    arc_length,
    cycle_count,
    filament_statistics,
    minimum_cut,
    to_networkx,
)

__all__ = [
    "ComplexComparison",
    "HierarchyLevelView",
    "MSComplexHierarchy",
    "QueryResult",
    "arc_length",
    "arcs_by_family",
    "basin_sizes",
    "compare_complexes",
    "cycle_count",
    "segment_maxima",
    "segment_minima",
    "feature_signature",
    "filament_statistics",
    "filter_arcs_by_value",
    "load_hierarchy",
    "minimum_cut",
    "nodes_by_index",
    "persistence_curve",
    "project_ascii",
    "query",
    "rasterize",
    "significant_extrema",
    "to_networkx",
]
